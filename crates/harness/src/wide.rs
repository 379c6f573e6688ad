//! The bit-parallel throughput benchmark: 64 testbench shards per design,
//! run once through the serial RTL engine (lane by lane), then through the
//! compiled [`pe_tape::WideTapeSimulator`] — baseline and optimized tape —
//! at every requested lane width (64, 128, 256), with waveform digests
//! proving every execution bit-identical before any speedup is reported.
//! Lanes beyond 63 replay the 64 shard streams round-robin (lane `l` runs
//! shard `l % 64`), so one serial baseline verifies every width.
//!
//! Per benchmark, one serial job plus two jobs per width on the
//! [`crate::executor::JobGraph`]:
//!
//! ```text
//! serial (64 × Simulator) ──┬─► assemble@64  (verify digests, speedups)
//!   tape@64 ────────────────┘
//!   tape@128 ─── ··· ───────► assemble@128   (same serial digests)
//!   ...
//! ```
//!
//! The digest covers every output bit of every lane on every cycle,
//! sampled at the same point of the cycle in every run, so a single
//! diverging bit anywhere in the run fails the row. Each lane runs a
//! rotate-XOR accumulator over its output bit stream; the serial engine
//! computes the chains bit by bit, the tape computes all of them
//! *bit-parallel* (one lane-word op folds one output bit of every lane,
//! exactly as the datapath itself evaluates), and the final accumulator
//! states are digested with FNV-1a-128. Hashing is thus part of each
//! engine's natural representation and never dominates what it measures.
//!
//! Both speedup columns are serial-equivalent: the 64 serial runs'
//! wall clock, scaled to the row's lane count, over the tape run's.
//! Besides the full testbench-driven run (whose wall clock includes the
//! inherently serial per-lane stimulus loop), every tape job times a
//! *settle phase*: broadcast fresh inputs, settle, step — the pure
//! lane-word core with no per-lane work at all. Its throughput is
//! reported in million lane·cycles per second; wider words win here
//! because one instruction dispatch feeds 2 or 4 backing words (and LLVM
//! autovectorizes the per-word loops). Wall-clock columns are measured;
//! everything else is deterministic.

use pe_designs::suite::{Benchmark, Scale};
use pe_rtl::SignalId;
use pe_sim::Simulator;
use pe_util::hash::Fnv128;
use pe_util::lanes::{LaneWord, LANES};
use std::time::Instant;

use crate::events::EventSink;
use crate::executor::{JobGraph, JobOutcome};
use crate::figure3::HarnessError;

/// The lane widths the wide benchmark exercises by default: one backing
/// word, two, and four.
pub const WIDE_BENCH_WIDTHS: [usize; 3] = [64, 128, 256];

/// One design's serial-vs-tape comparison at one lane width.
#[derive(Debug, Clone, PartialEq)]
pub struct WideRow {
    /// Design name.
    pub design: String,
    /// Cycles per lane.
    pub cycles: u64,
    /// Stimulus lanes exercised by the tape runs in this row (64, 128,
    /// or 256). Lane `l` replays testbench shard `l % 64`.
    pub lanes: usize,
    /// Wall time for the 64 serial single-lane runs, seconds (measured
    /// once per design, shared by every width's row).
    pub serial_seconds: f64,
    /// Wall time for one `lanes`-wide compiled-tape run, seconds
    /// (measured, including `Tape::compile`).
    pub tape_seconds: f64,
    /// Serial-equivalent speedup of the compiled tape:
    /// `serial_seconds * (lanes/64) / tape_seconds`. A `lanes`-wide run
    /// performs `lanes/64` times the serial baseline's work (each shard
    /// stream is replayed on `lanes/64` lanes), so the baseline cost is
    /// scaled to match.
    pub tape_speedup: f64,
    /// Instructions straight out of `Tape::compile`, before the
    /// optimization pipeline.
    pub tape_pre_instructions: u64,
    /// Instructions after the verified pass pipeline (dead-instruction
    /// elimination, fold-forwarding, scheduling).
    pub tape_post_instructions: u64,
    /// Wall time for one `lanes`-wide run of the *optimized* tape,
    /// seconds (measured, including `Tape::compile_optimized` — the
    /// passes and the translation validator are part of the build cost
    /// the optimized tape must amortize).
    pub opt_seconds: f64,
    /// Serial-equivalent speedup of the optimized tape:
    /// `serial_seconds * (lanes/64) / opt_seconds`.
    pub opt_speedup: f64,
    /// Wall time of the settle-phase microbench on the *optimized*
    /// compiled tape: `cycles` iterations of broadcast-inputs → settle →
    /// step, no per-lane stimulus loop (measured).
    pub settle_seconds: f64,
    /// Settle-phase throughput, million lane·cycles per second:
    /// `lanes * cycles / settle_seconds / 1e6`. The column where wider
    /// words must win — one instruction dispatch feeds `lanes/64`
    /// backing words.
    pub settle_mlcps: f64,
    /// FNV-1a-128 over the 64 serial lane digests, identical in every
    /// run at every width (the row fails otherwise).
    pub digest: String,
}

/// The artifact passed between jobs: one waveform digest per lane plus
/// the measured wall times.
enum Node {
    Serial {
        lane_digests: Vec<u128>,
        seconds: f64,
    },
    Tape {
        lane_digests: Vec<u128>,
        seconds: f64,
        settle_seconds: f64,
        /// Optimized-tape wall time.
        opt_seconds: f64,
        /// Certificate instruction counts.
        pre_instructions: u64,
        post_instructions: u64,
    },
    Row(WideRow),
}

fn port_signals(ports: &[pe_rtl::Port], design: &pe_rtl::Design) -> Vec<(SignalId, u32)> {
    ports
        .iter()
        .map(|p| {
            let sig = p.signal();
            (sig, design.signal(sig).width())
        })
        .collect()
}

fn output_signals(bench: &Benchmark) -> Vec<(SignalId, u32)> {
    port_signals(bench.design.outputs(), &bench.design)
}

fn input_signals(bench: &Benchmark) -> Vec<(SignalId, u32)> {
    port_signals(bench.design.inputs(), &bench.design)
}

/// Order-sensitive per-lane waveform checksum: `acc = rotl(acc, 1) ^ bit`
/// for every output bit in a fixed order (outputs ascending, bits
/// ascending, cycles ascending). Defined per *bit* so the tape can
/// fold all lanes' chains with one lane-word op per output bit (see
/// [`PackChain`]); every engine computes the identical per-lane function.
#[derive(Clone, Copy)]
struct LaneChain(u64);

impl LaneChain {
    fn new() -> Self {
        LaneChain(0)
    }

    /// Folds the low `width` bits of `v`, LSB first.
    #[inline]
    fn update(&mut self, v: u64, width: u32) {
        for i in 0..width {
            self.0 = self.0.rotate_left(1) ^ ((v >> i) & 1);
        }
    }

    fn digest(self, cycles: u64) -> u128 {
        let mut h = Fnv128::new();
        h.update(&self.0.to_le_bytes());
        h.update(&cycles.to_le_bytes());
        h.digest()
    }
}

/// All lanes' [`LaneChain`]s, bit-parallel at any width: plane `j` holds
/// bit `j` of every lane's accumulator, and the rotate is an index shift,
/// so folding one output bit of all `W::LANES` lanes is a single lane-word
/// XOR into the current base plane. This is the digest in the tape's own
/// representation — the settled planes feed it directly, no transpose
/// per cycle.
struct PackChain<W: LaneWord> {
    planes: [W; 64],
    off: usize,
}

impl<W: LaneWord> PackChain<W> {
    fn new() -> Self {
        PackChain {
            planes: [W::zero(); 64],
            off: 0,
        }
    }

    /// Folds one bit-plane word (lane `l`'s bit of this output bit).
    #[inline]
    fn update(&mut self, plane: W) {
        self.off = (self.off + 63) & 63;
        self.planes[self.off] = self.planes[self.off].xor(plane);
    }

    /// Recovers the per-lane accumulators (one transpose per backing
    /// word, at end of run) and digests each as [`LaneChain::digest`]
    /// would.
    fn digests(&self, cycles: u64) -> Vec<u128> {
        let mut out = vec![0u128; W::LANES];
        for wi in 0..W::WORDS {
            let mut ordered = [0u64; 64];
            for (j, slot) in ordered.iter_mut().enumerate() {
                *slot = self.planes[(j + self.off) & 63].word(wi);
            }
            pe_util::lanes::transpose64(&mut ordered);
            for (l, &acc) in ordered.iter().enumerate() {
                let lane = wi * 64 + l;
                if lane < W::LANES {
                    out[lane] = LaneChain(acc).digest(cycles);
                }
            }
        }
        out
    }
}

/// Runs lane `shard`'s testbench on the serial engine, digesting every
/// output port each cycle.
fn serial_lane_digest(bench: &Benchmark, cycles: u64, shard: u64) -> Result<u128, HarnessError> {
    let mut sim =
        Simulator::new(&bench.design).map_err(|e| HarnessError::new("serial", bench.name, e))?;
    let outs = output_signals(bench);
    let mut tb = bench.testbench_shard(cycles, shard);
    let mut chain = LaneChain::new();
    for cycle in 0..tb.cycles() {
        tb.apply(cycle, &mut sim);
        tb.observe(cycle, &mut sim);
        for &(sig, width) in &outs {
            chain.update(sim.value(sig), width);
        }
        sim.step();
    }
    Ok(chain.digest(cycles))
}

/// Builds one testbench per lane, lane `l` running shard `l % 64` — so
/// every width's digests verify against the same 64 serial baselines.
fn lane_testbenches<W: LaneWord>(
    bench: &Benchmark,
    cycles: u64,
) -> Vec<Box<dyn pe_sim::Testbench>> {
    (0..W::LANES)
        .map(|l| bench.testbench_shard(cycles, (l % LANES) as u64))
        .collect()
}

/// Runs all shards through the compiled-tape wide engine at width `W`,
/// digesting every lane's output ports each cycle (same sampling point as
/// the serial path).
fn tape_run_digests<W: LaneWord>(
    bench: &Benchmark,
    tape: &pe_tape::Tape,
    cycles: u64,
) -> Vec<u128> {
    let mut sim = pe_tape::WideTapeSimulator::<W>::new(tape);
    // Resolve every output bit to its plane index once; per cycle the
    // digest reads the settled arena directly, with no copy.
    let out_planes: Vec<u32> = output_signals(bench)
        .iter()
        .flat_map(|&(sig, _)| sim.plane_indices(sig).to_vec())
        .collect();
    let mut tbs = lane_testbenches::<W>(bench, cycles);
    let mut chain = PackChain::<W>::new();
    for cycle in 0..cycles {
        for (lane, tb) in tbs.iter_mut().enumerate() {
            tb.apply(cycle, &mut sim.lane(lane));
        }
        for (lane, tb) in tbs.iter_mut().enumerate() {
            tb.observe(cycle, &mut sim.lane(lane));
        }
        let pl = sim.settled_planes();
        for &pi in &out_planes {
            chain.update(pl[pi as usize]);
        }
        sim.step();
    }
    chain.digests(cycles)
}

/// The settle-phase microbench: `iters` iterations of broadcast fresh
/// input words → settle → step on a fresh tape simulator at width `W`.
/// No per-lane loop anywhere — this is the pure lane-word core, where a
/// wider word amortizes each instruction dispatch over more lanes.
/// Returns the measured seconds.
fn settle_phase_seconds<W: LaneWord>(
    tape: &pe_tape::Tape,
    inputs: &[(SignalId, u32)],
    iters: u64,
) -> f64 {
    let mut sim = pe_tape::WideTapeSimulator::<W>::new(tape);
    let mut rng: u64 = 0x9e37_79b9_7f4a_7c15;
    let start = Instant::now();
    for _ in 0..iters {
        for &(sig, width) in inputs {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let mask = if width >= 64 {
                u64::MAX
            } else {
                (1u64 << width) - 1
            };
            sim.broadcast_input(sig, rng & mask);
        }
        let _ = sim.settled_planes();
        sim.step();
    }
    start.elapsed().as_secs_f64()
}

/// The tape job at width `W`: compile + digest run inside the timed
/// window (the tape must win *including* its one-time build cost), then
/// the settle-phase microbench, timed separately.
fn tape_job<W: LaneWord>(bench: &Benchmark, cycles: u64) -> Result<Node, HarnessError> {
    let start = Instant::now();
    let tape = pe_tape::Tape::compile(&bench.design)
        .map_err(|e| HarnessError::new("tape", bench.name, e))?;
    let lane_digests = tape_run_digests::<W>(bench, &tape, cycles);
    let seconds = start.elapsed().as_secs_f64();
    // The optimized tape runs the same workload in its own timed window:
    // pass pipeline and translation validation are part of the build
    // cost, and its waveform digests must match the baseline tape's
    // lane for lane before any speedup is reported.
    let opt_start = Instant::now();
    let (opt_tape, cert) = pe_tape::Tape::compile_optimized(&bench.design)
        .map_err(|e| HarnessError::new("tape", bench.name, e))?;
    if !cert.validated {
        return Err(HarnessError::new(
            "tape",
            bench.name,
            format!(
                "optimized tape failed translation validation: {}",
                cert.reason.as_deref().unwrap_or("unknown reason")
            ),
        ));
    }
    let opt_digests = tape_run_digests::<W>(bench, &opt_tape, cycles);
    let opt_seconds = opt_start.elapsed().as_secs_f64();
    if let Some(lane) = (0..lane_digests.len()).find(|&l| lane_digests[l] != opt_digests[l]) {
        return Err(HarnessError::new(
            "tape",
            bench.name,
            format!(
                "optimized tape diverges from baseline tape at lane {lane}: \
                 {:032x} vs {:032x}",
                lane_digests[lane], opt_digests[lane]
            ),
        ));
    }
    let settle_seconds = settle_phase_seconds::<W>(&opt_tape, &input_signals(bench), cycles);
    Ok(Node::Tape {
        lane_digests,
        seconds,
        settle_seconds,
        opt_seconds,
        pre_instructions: cert.pre_instructions,
        post_instructions: cert.post_instructions,
    })
}

/// Stage labels are static per width so progress lines name the width.
fn stage_names(lanes: usize) -> Result<(&'static str, &'static str), String> {
    match lanes {
        64 => Ok(("tape64", "assemble64")),
        128 => Ok(("tape128", "assemble128")),
        256 => Ok(("tape256", "assemble256")),
        other => Err(format!(
            "unsupported lane width {other} (expected 64, 128, or 256)"
        )),
    }
}

/// Runs the serial-vs-tape benchmark as a job graph at every width in
/// `lane_widths`; rows come back in `benchmarks` order, widths in
/// `lane_widths` order within each design. Use `workers = 1` when the
/// wall-clock columns matter (overlapping jobs contend for the measured
/// time).
///
/// # Errors
///
/// Returns the first failing stage in schedule order — including an
/// `assemble` failure naming the width and the first lane whose waveform
/// digest diverges from its serial shard — or an immediate error for a
/// width outside {64, 128, 256}.
pub fn run_wide_bench(
    benchmarks: &[Benchmark],
    scale: Scale,
    workers: usize,
    lane_widths: &[usize],
    sink: &dyn EventSink,
) -> Result<Vec<WideRow>, HarnessError> {
    for &lanes in lane_widths {
        stage_names(lanes).map_err(|e| HarnessError::new("wide", "setup", e))?;
    }
    let mut graph: JobGraph<'_, Node, HarnessError> = JobGraph::new();
    let mut row_jobs = Vec::with_capacity(benchmarks.len() * lane_widths.len());

    for bench in benchmarks {
        let cycles = bench.cycles(scale);
        let name = bench.name;

        let serial = graph.add("serial", name, vec![], move |_| {
            let start = Instant::now();
            let lane_digests = (0..LANES as u64)
                .map(|shard| serial_lane_digest(bench, cycles, shard))
                .collect::<Result<Vec<_>, _>>()?;
            Ok(Node::Serial {
                lane_digests,
                seconds: start.elapsed().as_secs_f64(),
            })
        });

        for &lanes in lane_widths {
            let (tape_stage, assemble_stage) = stage_names(lanes).expect("widths validated above");

            let tape = graph.add(tape_stage, name, vec![], move |_| match lanes {
                64 => tape_job::<u64>(bench, cycles),
                128 => tape_job::<[u64; 2]>(bench, cycles),
                _ => tape_job::<[u64; 4]>(bench, cycles),
            });

            let row = graph.add(assemble_stage, name, vec![serial, tape], move |deps| {
                let Node::Serial {
                    lane_digests: serial_digests,
                    seconds: serial_seconds,
                } = &*deps[0]
                else {
                    unreachable!("assemble depends on serial")
                };
                let Node::Tape {
                    lane_digests: tape_lane_digests,
                    seconds: tape_seconds,
                    settle_seconds,
                    opt_seconds,
                    pre_instructions,
                    post_instructions,
                } = &*deps[1]
                else {
                    unreachable!("assemble depends on tape")
                };
                // Lane l of a wide run replays shard l % 64 — verify it
                // against that shard's serial digest.
                if let Some(lane) =
                    (0..lanes).find(|&l| serial_digests[l % LANES] != tape_lane_digests[l])
                {
                    return Err(HarnessError::new(
                        "assemble",
                        name,
                        format!(
                            "width {lanes}: lane {lane} diverges: serial shard {} \
                                 {:032x} vs tape {:032x}",
                            lane % LANES,
                            serial_digests[lane % LANES],
                            tape_lane_digests[lane]
                        ),
                    ));
                }
                let mut combined = Fnv128::new();
                for d in serial_digests {
                    combined.update(&d.to_le_bytes());
                }
                let serial_equivalent = serial_seconds * (lanes / LANES) as f64;
                Ok(Node::Row(WideRow {
                    design: name.to_string(),
                    cycles,
                    lanes,
                    serial_seconds: *serial_seconds,
                    tape_seconds: *tape_seconds,
                    tape_speedup: serial_equivalent / tape_seconds.max(1e-12),
                    tape_pre_instructions: *pre_instructions,
                    tape_post_instructions: *post_instructions,
                    opt_seconds: *opt_seconds,
                    opt_speedup: serial_equivalent / opt_seconds.max(1e-12),
                    settle_seconds: *settle_seconds,
                    settle_mlcps: (lanes as f64 * cycles as f64) / settle_seconds.max(1e-12) / 1e6,
                    digest: combined.hex(),
                }))
            });
            row_jobs.push(row);
        }
    }

    let outcomes = graph.run(workers, sink);
    collect_rows(&outcomes, &row_jobs)
}

fn collect_rows(
    outcomes: &[JobOutcome<Node, HarnessError>],
    row_jobs: &[usize],
) -> Result<Vec<WideRow>, HarnessError> {
    if let Some(err) = outcomes.iter().find_map(|o| match o {
        JobOutcome::Failed(e) => Some(e.clone()),
        JobOutcome::Panicked(msg) => Some(HarnessError::new("executor", "panic", msg)),
        _ => None,
    }) {
        return Err(err);
    }
    row_jobs
        .iter()
        .map(|&id| match outcomes[id].done() {
            Some(Node::Row(row)) => Ok(row.clone()),
            _ => Err(HarnessError::new(
                "assemble",
                "wide",
                "row job did not complete",
            )),
        })
        .collect()
}

/// The distinct lane widths present in `rows`, ascending.
pub fn widths_present(rows: &[WideRow]) -> Vec<usize> {
    let mut widths: Vec<usize> = rows.iter().map(|r| r.lanes).collect();
    widths.sort_unstable();
    widths.dedup();
    widths
}

/// The rows measured at lane width `lanes`, in input order.
pub fn rows_at(rows: &[WideRow], lanes: usize) -> Vec<WideRow> {
    rows.iter().filter(|r| r.lanes == lanes).cloned().collect()
}

fn geomean(it: impl Iterator<Item = f64>, n: usize) -> f64 {
    if n == 0 {
        return 0.0;
    }
    let log_sum: f64 = it.map(|v| v.max(1e-12).ln()).sum();
    (log_sum / n as f64).exp()
}

/// Geometric mean of the per-row optimized-tape serial-equivalent
/// speedups (0 for no rows).
pub fn geomean_opt_speedup(rows: &[WideRow]) -> f64 {
    geomean(rows.iter().map(|r| r.opt_speedup), rows.len())
}

/// Geometric mean of the per-row compiled-tape serial-equivalent
/// speedups (0 for no rows). Pass [`rows_at`] output for a per-width
/// figure.
pub fn geomean_tape_speedup(rows: &[WideRow]) -> f64 {
    geomean(rows.iter().map(|r| r.tape_speedup), rows.len())
}

/// Geometric mean of the per-row settle-phase throughputs in million
/// lane·cycles per second (0 for no rows). Compare across widths via
/// [`rows_at`]: the acceptance bar is that 128 or 256 lanes beat 64 here.
pub fn geomean_settle_mlcps(rows: &[WideRow]) -> f64 {
    geomean(rows.iter().map(|r| r.settle_mlcps), rows.len())
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Renders the benchmark result as the `BENCH_wide.json` document: one
/// row per (design, width), plus a per-width geomean block and the
/// all-row aggregate geomeans.
pub fn render_json(rows: &[WideRow], scale: Scale) -> String {
    let widths = widths_present(rows);
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"wide\",\n");
    out.push_str(&format!(
        "  \"scale\": \"{}\",\n",
        match scale {
            Scale::Test => "test",
            Scale::Paper => "paper",
        }
    ));
    out.push_str(&format!(
        "  \"lane_widths\": [{}],\n",
        widths
            .iter()
            .map(|w| w.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    ));
    out.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"design\": \"{}\", \"cycles\": {}, \"lanes\": {}, \
             \"serial_seconds\": {:.6}, \"tape_seconds\": {:.6}, \"tape_speedup\": {:.3}, \
             \"tape_pre_instructions\": {}, \"tape_post_instructions\": {}, \
             \"opt_seconds\": {:.6}, \"opt_speedup\": {:.3}, \"settle_seconds\": {:.6}, \
             \"settle_mlcps\": {:.3}, \"digest\": \"{}\"}}{}\n",
            json_escape(&r.design),
            r.cycles,
            r.lanes,
            r.serial_seconds,
            r.tape_seconds,
            r.tape_speedup,
            r.tape_pre_instructions,
            r.tape_post_instructions,
            r.opt_seconds,
            r.opt_speedup,
            r.settle_seconds,
            r.settle_mlcps,
            r.digest,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"widths\": [\n");
    for (i, &w) in widths.iter().enumerate() {
        let at = rows_at(rows, w);
        out.push_str(&format!(
            "    {{\"lanes\": {}, \"geomean_tape_speedup\": {:.3}, \
             \"geomean_opt_speedup\": {:.3}, \"geomean_settle_mlcps\": {:.3}}}{}\n",
            w,
            geomean_tape_speedup(&at),
            geomean_opt_speedup(&at),
            geomean_settle_mlcps(&at),
            if i + 1 < widths.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"geomean_tape_speedup\": {:.3},\n",
        geomean_tape_speedup(rows)
    ));
    out.push_str(&format!(
        "  \"geomean_opt_speedup\": {:.3}\n",
        geomean_opt_speedup(rows)
    ));
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::NullSink;
    use pe_designs::suite::benchmark;
    use pe_trace::Registry;

    #[test]
    fn wide_rows_verify_and_speed_up_at_every_width() {
        let benches = [benchmark("Bubble_Sort").unwrap()];
        let rows = run_wide_bench(&benches, Scale::Test, 1, &WIDE_BENCH_WIDTHS, &NullSink).unwrap();
        assert_eq!(rows.len(), 3);
        for (r, &lanes) in rows.iter().zip(WIDE_BENCH_WIDTHS.iter()) {
            assert_eq!(r.design, "Bubble_Sort");
            assert_eq!(r.lanes, lanes);
            assert_eq!(r.digest.len(), 32);
            // The digests already passed lane-by-lane verification inside
            // assemble; sanity-check the measured columns are populated.
            assert!(r.serial_seconds > 0.0);
            assert!(r.tape_seconds > 0.0);
            assert!(r.settle_seconds > 0.0);
            assert!(r.settle_mlcps > 0.0);
            assert!(r.tape_speedup > 1.0, "{lanes}-lane tape should beat serial");
            assert!(r.opt_seconds > 0.0);
            assert!(r.opt_speedup > 0.0);
            assert!(r.tape_pre_instructions > 0);
            assert!(
                r.tape_post_instructions < r.tape_pre_instructions,
                "the pass pipeline should remove instructions"
            );
        }
        // All three widths verified against the same serial baseline, so
        // they share the combined digest.
        assert_eq!(rows[0].digest, rows[1].digest);
        assert_eq!(rows[1].digest, rows[2].digest);
        assert_eq!(rows[0].serial_seconds, rows[1].serial_seconds);
    }

    #[test]
    fn unsupported_width_is_rejected_up_front() {
        let benches = [benchmark("Bubble_Sort").unwrap()];
        let err = run_wide_bench(&benches, Scale::Test, 1, &[96], &NullSink).unwrap_err();
        assert!(err.to_string().contains("unsupported lane width 96"));
    }

    #[test]
    fn metrics_count_one_serial_plus_two_jobs_per_width() {
        let benches = [benchmark("HVPeakF").unwrap()];
        let registry = Registry::new();
        run_wide_bench(&benches, Scale::Test, 2, &[64, 128], &registry).unwrap();
        assert_eq!(registry.counter("harness.jobs_finished").get(), 5);
        assert_eq!(registry.counter("harness.jobs_failed").get(), 0);
    }

    fn row(lanes: usize, speedup: f64) -> WideRow {
        WideRow {
            design: "DCT".into(),
            cycles: 1200,
            lanes,
            serial_seconds: 1.0,
            tape_seconds: 0.02,
            tape_speedup: speedup,
            tape_pre_instructions: 395,
            tape_post_instructions: 386,
            opt_seconds: 0.015,
            opt_speedup: speedup / 1.5,
            settle_seconds: 0.01,
            settle_mlcps: lanes as f64 * 1200.0 / 0.01 / 1e6,
            digest: "0".repeat(32),
        }
    }

    #[test]
    fn json_document_is_well_formed_with_per_width_blocks() {
        let rows = vec![row(64, 20.0), row(128, 40.0)];
        let doc = render_json(&rows, Scale::Test);
        assert!(doc.contains("\"bench\": \"wide\""));
        assert!(doc.contains("\"lane_widths\": [64, 128]"));
        assert!(doc.contains("\"design\": \"DCT\""));
        assert!(doc.contains("\"lanes\": 64"));
        assert!(doc.contains("\"lanes\": 128"));
        assert!(doc.contains("\"tape_seconds\": 0.020000"));
        assert!(doc.contains("\"tape_pre_instructions\": 395"));
        assert!(doc.contains("\"tape_post_instructions\": 386"));
        assert!(doc.contains("\"opt_seconds\": 0.015000"));
        assert!(doc.contains("\"opt_speedup\""));
        assert!(doc.contains("\"geomean_opt_speedup\""));
        assert!(doc.contains("\"settle_mlcps\": 7.680"));
        assert!(doc.contains("\"settle_mlcps\": 15.360"));
        assert!(doc.contains("\"geomean_settle_mlcps\": 7.680"));
        assert!(doc.contains("\"geomean_settle_mlcps\": 15.360"));
        assert_eq!(doc.matches('{').count(), doc.matches('}').count());
    }

    #[test]
    fn geomeans_are_geometric_and_width_filtered() {
        let mk = |s: f64| WideRow {
            design: "d".into(),
            cycles: 1,
            lanes: 64,
            serial_seconds: s,
            tape_seconds: 1.0,
            tape_speedup: s,
            tape_pre_instructions: 10,
            tape_post_instructions: 9,
            opt_seconds: 1.0,
            opt_speedup: s / 4.0,
            settle_seconds: 1.0,
            settle_mlcps: s * 10.0,
            digest: String::new(),
        };
        let rows = vec![mk(4.0), mk(16.0)];
        assert!((geomean_tape_speedup(&rows) - 8.0).abs() < 1e-9);
        assert!((geomean_opt_speedup(&rows) - 2.0).abs() < 1e-9);
        assert_eq!(geomean_opt_speedup(&[]), 0.0);
        assert!((geomean_settle_mlcps(&rows) - 80.0).abs() < 1e-9);
        assert_eq!(geomean_tape_speedup(&[]), 0.0);
        assert_eq!(geomean_settle_mlcps(&[]), 0.0);

        let mixed = vec![row(64, 4.0), row(128, 16.0)];
        assert_eq!(widths_present(&mixed), vec![64, 128]);
        assert_eq!(rows_at(&mixed, 128).len(), 1);
        assert!((geomean_tape_speedup(&rows_at(&mixed, 128)) - 16.0).abs() < 1e-9);
    }
}
