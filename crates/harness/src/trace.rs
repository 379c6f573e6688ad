//! The observability benchmark: per-design power waveforms, tracing
//! overhead, flow-stage timings, and a unified metrics snapshot.
//!
//! Per benchmark, four jobs on the [`crate::executor::JobGraph`]:
//!
//! ```text
//! flow (timed stages) ─────┬─► serial (untraced + traced run) ──┐
//!                          └─► wide (lane-0 traced run) ────────┴─► assemble
//! ```
//!
//! The serial job runs the canonical testbench twice — once bare, once
//! with a [`pe_trace::WaveformRecorder`] sampling every strobe boundary
//! — so the row reports the *measured* cost of tracing. The wide job
//! runs the compiled [`pe_tape::WideTapeSimulator`]. Both the serial
//! and the wide lane-0 waveforms must integrate **bit-exactly** to their
//! engine's cumulative energy readback, and the two waveforms must match
//! sample-for-sample (the assemble job names the first diverging sample
//! otherwise); only then is a row produced.

use pe_designs::suite::{Benchmark, Scale};
use pe_instrument::InstrumentedDesign;
use pe_sim::Simulator;
use pe_trace::{CaptureMode, PowerWaveform, Registry};
use pe_util::lanes::LaneWord;
use std::time::Instant;

use crate::cache::{obtain_library, ModelCache};
use crate::events::EventSink;
use crate::executor::{JobGraph, JobOutcome};
use crate::figure3::{FlowFactory, HarnessError};

/// One design's observability row.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRow {
    /// Design name.
    pub design: String,
    /// Cycles executed.
    pub cycles: u64,
    /// Strobe period the design was instrumented with.
    pub strobe_period: u32,
    /// Strobe-boundary samples offered to the recorder.
    pub strobes: u64,
    /// Samples retained in the serial waveform after capture-mode
    /// decimation.
    pub samples: usize,
    /// Cumulative energy readback, femtojoules.
    pub energy_fj: f64,
    /// Waveform integral, femtojoules — bit-identical to `energy_fj`
    /// (enforced before the row is produced).
    pub integral_fj: f64,
    /// Wall time of the bare (untraced) serial run, seconds (measured).
    pub untraced_seconds: f64,
    /// Wall time of the traced serial run, seconds (measured).
    pub traced_seconds: f64,
    /// `100 · (traced − untraced) / untraced` (measured; noisy on tiny
    /// runs).
    pub overhead_pct: f64,
    /// FNV-1a-128 digest of the serial waveform (identical to the wide
    /// lane-0 waveform's — the row fails otherwise).
    pub digest: String,
}

/// The artifact passed between jobs.
enum Node {
    Instrumented(Box<InstrumentedDesign>),
    Serial {
        waveform: PowerWaveform,
        untraced_seconds: f64,
        traced_seconds: f64,
    },
    Wide {
        waveform: PowerWaveform,
    },
    Row(Box<(TraceRow, PowerWaveform)>),
}

/// Runs the canonical testbench on the serial engine with a waveform
/// recorder attached, enforcing the waveform-integral == energy-readback
/// invariant before returning.
fn traced_serial_run(
    bench: &Benchmark,
    inst: &InstrumentedDesign,
    cycles: u64,
    sample_period: u32,
    capture: CaptureMode,
    registry: &Registry,
) -> Result<(PowerWaveform, u64), HarnessError> {
    let name = bench.name;
    let mut sim = Simulator::new(&inst.design).map_err(|e| HarnessError::new("serial", name, e))?;
    let mut tb = bench.testbench_shard(cycles, 0);
    let mut rec = inst.waveform_recorder(name, sample_period, capture);
    let strobe = u64::from(inst.strobe_period.max(1));
    let offer = |rec: &mut pe_trace::WaveformRecorder, sim: &mut Simulator<'_>, cycle: u64| {
        let raw = inst
            .try_read_waveform_raw(sim)
            .map_err(|e| HarnessError::new("serial", name, e))?;
        rec.offer(cycle, &raw)
            .map_err(|e| HarnessError::new("serial", name, e))
    };
    // Sample 0 reads the freshly-reset accumulators (all zero): this is
    // what makes the integral equal the cumulative readback bit-exactly.
    offer(&mut rec, &mut sim, 0)?;
    let mut covered_final = false;
    for cycle in 0..cycles {
        tb.apply(cycle, &mut sim);
        tb.observe(cycle, &mut sim);
        sim.step();
        if (cycle + 1) % strobe == 0 {
            if rec.wants_next() {
                offer(&mut rec, &mut sim, cycle + 1)?;
                covered_final = cycle + 1 == cycles;
            } else {
                rec.skip();
            }
        }
    }
    if !covered_final {
        offer(&mut rec, &mut sim, cycles)?;
    }
    let energy = inst
        .try_read_energy_fj(&mut sim)
        .map_err(|e| HarnessError::new("serial", name, e))?;
    sim.record_metrics(registry);
    let strobes = rec.offered();
    let waveform = rec.finish();
    let integral = waveform.integral_fj();
    if integral.to_bits() != energy.to_bits() {
        return Err(HarnessError::new(
            "serial",
            name,
            format!(
                "waveform integral {integral:e} != energy readback {energy:e} \
                 (bits {:016x} vs {:016x})",
                integral.to_bits(),
                energy.to_bits()
            ),
        ));
    }
    Ok((waveform, strobes))
}

/// Runs the bare serial testbench (no recorder) and returns the wall
/// time — the baseline the tracing overhead is measured against.
fn untraced_serial_run(
    bench: &Benchmark,
    inst: &InstrumentedDesign,
    cycles: u64,
) -> Result<f64, HarnessError> {
    let mut sim =
        Simulator::new(&inst.design).map_err(|e| HarnessError::new("serial", bench.name, e))?;
    let mut tb = bench.testbench_shard(cycles, 0);
    let start = Instant::now();
    pe_sim::run(&mut sim, tb.as_mut());
    let seconds = start.elapsed().as_secs_f64();
    // Touch the readback so the bare run does everything the traced run
    // does except sampling.
    inst.try_read_energy_fj(&mut sim)
        .map_err(|e| HarnessError::new("serial", bench.name, e))?;
    Ok(seconds)
}

/// Compiles the instrumented design into a [`pe_tape::Tape`] (the
/// compile is part of the engine's cost), runs one shard per lane
/// through the [`pe_tape::WideTapeSimulator`] at width `W`, records lane
/// 0 (the canonical stimulus), and enforces the lane-0 integral
/// invariant. Lane 0 runs shard 0 at every width, so the traced waveform
/// is width-independent by construction — and the assemble job checks
/// it against the serial waveform to prove it.
fn traced_wide_run<W: LaneWord>(
    bench: &Benchmark,
    inst: &InstrumentedDesign,
    cycles: u64,
    sample_period: u32,
    capture: CaptureMode,
    registry: &Registry,
) -> Result<PowerWaveform, HarnessError> {
    let name = bench.name;
    let tape =
        pe_tape::Tape::compile(&inst.design).map_err(|e| HarnessError::new("wide", name, e))?;
    let mut sim = pe_tape::WideTapeSimulator::<W>::new(&tape);
    let mut tbs = bench.testbench_shards(cycles, W::LANES);
    let mut rec = inst.waveform_recorder(name, sample_period, capture);
    let strobe = u64::from(inst.strobe_period.max(1));
    let offer = |rec: &mut pe_trace::WaveformRecorder,
                 sim: &mut pe_tape::WideTapeSimulator<'_, W>,
                 cycle: u64| {
        let raw = inst
            .try_read_raw_totals_lane(sim, 0)
            .map_err(|e| HarnessError::new("wide", name, e))?;
        rec.offer(cycle, &raw)
            .map_err(|e| HarnessError::new("wide", name, e))
    };
    offer(&mut rec, &mut sim, 0)?;
    let mut covered_final = false;
    for cycle in 0..cycles {
        for (lane, tb) in tbs.iter_mut().enumerate() {
            tb.apply(cycle, &mut sim.lane(lane));
        }
        for (lane, tb) in tbs.iter_mut().enumerate() {
            tb.observe(cycle, &mut sim.lane(lane));
        }
        sim.step();
        if (cycle + 1) % strobe == 0 {
            if rec.wants_next() {
                offer(&mut rec, &mut sim, cycle + 1)?;
                covered_final = cycle + 1 == cycles;
            } else {
                rec.skip();
            }
        }
    }
    if !covered_final {
        offer(&mut rec, &mut sim, cycles)?;
    }
    let energy = inst
        .try_read_energy_fj_lane(&mut sim, 0)
        .map_err(|e| HarnessError::new("wide", name, e))?;
    sim.record_metrics(registry);
    registry.gauge("wide.lane_occupancy").set(1.0);
    let waveform = rec.finish();
    let integral = waveform.integral_fj();
    if integral.to_bits() != energy.to_bits() {
        return Err(HarnessError::new(
            "wide",
            name,
            format!("lane 0 waveform integral {integral:e} != energy readback {energy:e}"),
        ));
    }
    Ok(waveform)
}

/// Runs the observability benchmark as a job graph; `(row, waveform)`
/// pairs come back in `benchmarks` order. Flow stages and run phases
/// are timed into `trace.<stage>_us` histograms of `registry`, next to
/// the engine, instrumentation, and job metrics. Use `workers = 1` when
/// the overhead columns matter.
/// `lanes` picks the wide job's tape width (64, 128, or 256); the
/// serial baseline runs on the reference [`Simulator`], so every run
/// doubles as a cross-engine, cross-width waveform equality check (the
/// assemble job rejects the first diverging sample).
///
/// # Errors
///
/// Returns the first failing stage in schedule order — including an
/// invariant violation (waveform integral vs energy readback) or a
/// serial/wide waveform divergence, which names the first diverging
/// sample — or an immediate error for a width outside {64, 128, 256}.
#[allow(clippy::too_many_arguments)]
pub fn run_trace_bench(
    flow_factory: FlowFactory<'_>,
    benchmarks: &[Benchmark],
    scale: Scale,
    lanes: usize,
    sample_period: u32,
    capture: CaptureMode,
    workers: usize,
    cache: Option<&ModelCache>,
    registry: &Registry,
    sink: &dyn EventSink,
) -> Result<Vec<(TraceRow, PowerWaveform)>, HarnessError> {
    if !matches!(lanes, 64 | 128 | 256) {
        return Err(HarnessError::new(
            "wide",
            "setup",
            format!("unsupported lane width {lanes} (expected 64, 128, or 256)"),
        ));
    }
    let mut graph: JobGraph<'_, Node, HarnessError> = JobGraph::new();
    let mut row_jobs = Vec::with_capacity(benchmarks.len());

    for bench in benchmarks {
        let cycles = bench.cycles(scale);
        let name = bench.name;

        let flow_job = graph.add("flow", name, vec![], move |_| {
            let flow = flow_factory();
            let library = registry
                .time_us("trace.characterize_us", || {
                    obtain_library(&bench.design, flow.characterize_config(), cache, name, sink)
                })
                .map_err(|e| HarnessError::new("characterize", name, e))?;
            flow.install_library(library);
            let (instrumented, _overhead) = registry
                .time_us("trace.instrument_us", || {
                    flow.stage_instrument(&bench.design)
                })
                .map_err(|e| HarnessError::new("instrument", name, e))?;
            let mapped = registry.time_us("trace.map_us", || flow.stage_map(&instrumented));
            let _timing = registry.time_us("trace.time_us", || flow.stage_time(&mapped));
            registry
                .time_us("trace.partition_us", || flow.stage_partition(&mapped))
                .map_err(|e| HarnessError::new("partition", name, e))?;
            instrumented.record_metrics(registry);
            Ok(Node::Instrumented(Box::new(instrumented)))
        });

        let serial = graph.add("serial", name, vec![flow_job], move |deps| {
            let Node::Instrumented(inst) = &*deps[0] else {
                unreachable!("serial depends on flow")
            };
            let untraced_seconds = registry.time_us("trace.run_untraced_us", || {
                untraced_serial_run(bench, inst, cycles)
            })?;
            let start = Instant::now();
            let (waveform, _strobes) = registry.time_us("trace.run_traced_us", || {
                traced_serial_run(bench, inst, cycles, sample_period, capture, registry)
            })?;
            let traced_seconds = start.elapsed().as_secs_f64();
            Ok(Node::Serial {
                waveform,
                untraced_seconds,
                traced_seconds,
            })
        });

        let wide = graph.add("wide", name, vec![flow_job], move |deps| {
            let Node::Instrumented(inst) = &*deps[0] else {
                unreachable!("wide depends on flow")
            };
            let waveform = registry.time_us("trace.run_wide_us", || match lanes {
                64 => traced_wide_run::<u64>(bench, inst, cycles, sample_period, capture, registry),
                128 => traced_wide_run::<[u64; 2]>(
                    bench,
                    inst,
                    cycles,
                    sample_period,
                    capture,
                    registry,
                ),
                _ => traced_wide_run::<[u64; 4]>(
                    bench,
                    inst,
                    cycles,
                    sample_period,
                    capture,
                    registry,
                ),
            })?;
            Ok(Node::Wide { waveform })
        });

        let row = graph.add(
            "assemble",
            name,
            vec![flow_job, serial, wide],
            move |deps| {
                let Node::Instrumented(inst) = &*deps[0] else {
                    unreachable!("assemble depends on flow")
                };
                let Node::Serial {
                    waveform,
                    untraced_seconds,
                    traced_seconds,
                } = &*deps[1]
                else {
                    unreachable!("assemble depends on serial")
                };
                let Node::Wide {
                    waveform: wide_waveform,
                } = &*deps[2]
                else {
                    unreachable!("assemble depends on wide")
                };
                if let Some(div) = waveform.first_divergence(wide_waveform) {
                    return Err(HarnessError::new(
                        "assemble",
                        name,
                        format!("serial vs wide lane 0: {div}"),
                    ));
                }
                let overhead_pct = if *untraced_seconds > 0.0 {
                    100.0 * (traced_seconds - untraced_seconds) / untraced_seconds
                } else {
                    0.0
                };
                registry
                    .counter("trace.samples_total")
                    .add(waveform.len() as u64);
                let row = TraceRow {
                    design: name.to_string(),
                    cycles,
                    strobe_period: inst.strobe_period,
                    strobes: cycles / u64::from(inst.strobe_period.max(1)),
                    samples: waveform.len(),
                    energy_fj: waveform.integral_fj(),
                    integral_fj: waveform.integral_fj(),
                    untraced_seconds: *untraced_seconds,
                    traced_seconds: *traced_seconds,
                    overhead_pct,
                    digest: waveform.digest(),
                };
                Ok(Node::Row(Box::new((row, waveform.clone()))))
            },
        );
        row_jobs.push(row);
    }

    let outcomes = graph.run(workers, sink);
    collect_rows(&outcomes, &row_jobs)
}

fn collect_rows(
    outcomes: &[JobOutcome<Node, HarnessError>],
    row_jobs: &[usize],
) -> Result<Vec<(TraceRow, PowerWaveform)>, HarnessError> {
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
            Some(Node::Row(boxed)) => Ok(boxed.as_ref().clone()),
            _ => Err(HarnessError::new(
                "assemble",
                "trace",
                "row job did not complete",
            )),
        })
        .collect()
}

/// Mean tracing overhead percentage across rows (0 for no rows).
pub fn mean_overhead_pct(rows: &[TraceRow]) -> f64 {
    if rows.is_empty() {
        return 0.0;
    }
    rows.iter().map(|r| r.overhead_pct).sum::<f64>() / rows.len() as f64
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Renders the benchmark result as the `BENCH_trace.json` document:
/// per-design rows (sample counts, energies, measured overhead) and the
/// full metrics snapshot, per-stage wall clock included. The `engine`
/// key names the wide job's substrate, the compiled tape.
pub fn render_json(
    rows: &[TraceRow],
    scale: Scale,
    sample_period: u32,
    registry: &Registry,
) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"trace\",\n");
    out.push_str(&format!(
        "  \"scale\": \"{}\",\n",
        match scale {
            Scale::Test => "test",
            Scale::Paper => "paper",
        }
    ));
    out.push_str("  \"engine\": \"tape\",\n");
    out.push_str(&format!("  \"sample_period\": {sample_period},\n"));
    out.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"design\": \"{}\", \"cycles\": {}, \"strobe_period\": {}, \
             \"strobes\": {}, \"samples\": {}, \"energy_fj\": {:.6}, \
             \"integral_matches_readback\": {}, \"untraced_seconds\": {:.6}, \
             \"traced_seconds\": {:.6}, \"overhead_pct\": {:.2}, \"digest\": \"{}\"}}{}\n",
            json_escape(&r.design),
            r.cycles,
            r.strobe_period,
            r.strobes,
            r.samples,
            r.energy_fj,
            r.integral_fj.to_bits() == r.energy_fj.to_bits(),
            r.untraced_seconds,
            r.traced_seconds,
            r.overhead_pct,
            r.digest,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"mean_overhead_pct\": {:.2},\n",
        mean_overhead_pct(rows)
    ));
    out.push_str(&format!("  \"metrics\": {}\n", registry.render_json("  ")));
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::NullSink;
    use pe_core::PowerEmulationFlow;
    use pe_designs::suite::benchmark;
    use pe_power::CharacterizeConfig;

    fn fast_flow() -> PowerEmulationFlow {
        PowerEmulationFlow::new().with_characterize(CharacterizeConfig::fast())
    }

    #[test]
    fn trace_rows_hold_the_integral_invariant_and_match_engines() {
        let benches = [benchmark("Bubble_Sort").unwrap()];
        let registry = Registry::new();
        let rows = run_trace_bench(
            &fast_flow,
            &benches,
            Scale::Test,
            64,
            1,
            CaptureMode::Unbounded,
            1,
            None,
            &registry,
            &NullSink,
        )
        .unwrap();
        assert_eq!(rows.len(), 1);
        let (row, waveform) = &rows[0];
        assert_eq!(row.design, "Bubble_Sort");
        // Serial/wide equality and the integral invariant were enforced
        // inside the jobs; the row must reflect that.
        assert_eq!(row.integral_fj.to_bits(), row.energy_fj.to_bits());
        assert!(row.energy_fj > 0.0);
        assert_eq!(row.samples, waveform.len());
        assert_eq!(row.digest, waveform.digest());
        // Every strobe boundary plus the initial sample was retained.
        assert_eq!(waveform.len() as u64, row.strobes + 1);
        // All five flow stages plus the three run phases were timed,
        // once each.
        for stage in [
            "characterize",
            "instrument",
            "map",
            "time",
            "partition",
            "run_untraced",
            "run_traced",
            "run_wide",
        ] {
            let timed = registry.histogram(&format!("trace.{stage}_us"));
            assert_eq!(timed.count(), 1, "missing {stage}");
        }
        // Engine and instrumentation metrics landed in the registry.
        let snap = registry.snapshot();
        for metric in [
            "sim.settle_passes",
            "sim.wide_settle_passes",
            "instrument.terms",
            "trace.samples_total",
        ] {
            assert!(snap.iter().any(|(n, _)| n == metric), "missing {metric}");
        }
    }

    #[test]
    fn a_wider_tape_word_produces_the_identical_waveform() {
        let benches = [benchmark("Bubble_Sort").unwrap()];
        let mut digests = Vec::new();
        // The traced lane-0 waveform must be invariant across the lane
        // width.
        for lanes in [64, 128] {
            let registry = Registry::new();
            let rows = run_trace_bench(
                &fast_flow,
                &benches,
                Scale::Test,
                lanes,
                1,
                CaptureMode::Unbounded,
                1,
                None,
                &registry,
                &NullSink,
            )
            .unwrap();
            // The assemble job already enforced serial == wide
            // sample-for-sample; keep the digest for the cross-width
            // comparison below.
            digests.push(rows[0].0.digest.clone());
        }
        assert_eq!(
            digests[0], digests[1],
            "tape@64 and tape@128 must trace bit-identical lane-0 waveforms"
        );
    }

    #[test]
    fn decimated_capture_still_integrates_exactly() {
        let benches = [benchmark("HVPeakF").unwrap()];
        let registry = Registry::new();
        let rows = run_trace_bench(
            &fast_flow,
            &benches,
            Scale::Test,
            64,
            1,
            CaptureMode::Decimate(32),
            1,
            None,
            &registry,
            &NullSink,
        )
        .unwrap();
        let (row, waveform) = &rows[0];
        assert!(waveform.len() <= 33, "bounded capture: {}", waveform.len());
        assert_eq!(row.integral_fj.to_bits(), row.energy_fj.to_bits());
    }

    #[test]
    fn json_document_is_well_formed() {
        let rows = vec![TraceRow {
            design: "DCT".into(),
            cycles: 1200,
            strobe_period: 1,
            strobes: 1200,
            samples: 1201,
            energy_fj: 12.5,
            integral_fj: 12.5,
            untraced_seconds: 1.0,
            traced_seconds: 1.05,
            overhead_pct: 5.0,
            digest: "0".repeat(32),
        }];
        let registry = Registry::new();
        registry.counter("trace.samples_total").add(1201);
        let doc = render_json(&rows, Scale::Test, 1, &registry);
        assert!(doc.contains("\"bench\": \"trace\""));
        assert!(doc.contains("\"engine\": \"tape\""));
        assert!(doc.contains("\"integral_matches_readback\": true"));
        assert!(doc.contains("\"mean_overhead_pct\": 5.00"));
        assert!(doc.contains("\"trace.samples_total\": 1201"));
        assert_eq!(doc.matches('{').count(), doc.matches('}').count());
    }
}
