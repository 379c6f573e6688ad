//! The serve workloads: closed loops of lockstep waves.
//!
//! A wave is one request from each of 128 logical clients, all for one
//! design and all due when the previous wave has been answered; designs
//! rotate wave by wave, and a wave is served as exactly one 128-lane
//! batch. One generator thread (the caller)
//! submits to an in-process `pe_serve::Scheduler` with a single batch
//! worker, and one collector thread timestamps every response as it
//! arrives. Admission runs on the generator's thread and simulation on
//! the worker's, one after the other, so batch composition is a property
//! of the workload rather than of thread scheduling.

use pe_designs::defects::benchmark_or_defect;
use pe_designs::suite::{benchmark, Benchmark};
use pe_harness::ModelCache;
use pe_serve::{ModelChoice, Response, ResultBody, Scheduler, ServeConfig, SubmitRequest};
use pe_tape::WideTapeSimulator;
use pe_trace::Registry;
use pe_util::rng::Xoshiro;
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::prep::{self, Prepared};
use crate::stats;
use crate::trace::{ms, Trace};
use crate::{flow, Report, FLOW_LAYERS};

/// One serve workload.
pub struct Shape {
    pub designs: &'static [&'static str],
    pub cycles: u64,
    /// Cold set-ups timed per run; `setup_s` is their median.
    pub setups: usize,
    /// The percentile reported as `latency_tail_ms`: the highest whose
    /// run sample leaves at least ten requests beyond it.
    pub tail_pct: f64,
    /// Requests per design whose served energy a serial
    /// `pe_sim::Simulator` run re-derives in every run.
    pub serial_checks: usize,
}

const SMALL: &[&str] = &["Bubble_Sort", "HVPeakF", "Ispq", "Vld"];

/// Clients, so requests per wave, and the batch cap.
const WAVE: usize = 128;

/// Longer than one wave's admission (128 submits at ~5–7 ms each),
/// so the worker never starts a wave before its last request is queued.
const WAVE_LINGER: Duration = Duration::from_secs(5);

/// Slices the measured waves are cut into for the end-to-end metrics.
const SLICES: usize = 5;

/// No response may take longer than this.
const RESULT_TIMEOUT: Duration = Duration::from_secs(120);

pub const WAVE_SMALL: Shape = Shape {
    designs: SMALL,
    cycles: 512,
    setups: 5,
    tail_pct: 99.0,
    serial_checks: 8,
};

pub const WAVE_DCT: Shape = Shape {
    designs: &["DCT"],
    cycles: 2048,
    setups: 3,
    tail_pct: 95.0,
    serial_checks: 1,
};

/// The serve-side probe of a figure3-flow traced run: one measured
/// Bubble_Sort wave, so the serve, tape and simulate layers are traced
/// on every workload.
pub const PROBE: Shape = Shape {
    designs: &["Bubble_Sort"],
    cycles: 512,
    setups: 1,
    tail_pct: 99.0,
    serial_checks: 2,
};

fn config() -> ServeConfig {
    ServeConfig {
        workers: 1,
        lanes: WAVE,
        linger: WAVE_LINGER,
        ..ServeConfig::default()
    }
}

/// Request seed `k` of design `d` in a run seeded `seed` (splitmix64).
fn request_seed(seed: u64, d: usize, k: usize) -> u64 {
    let mut z = (seed ^ ((d as u64) << 40) ^ k as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One submitted request, as the generator saw it.
struct Sent {
    design: usize,
    seed: u64,
    /// The wave it belongs to.
    wave: usize,
    due: Instant,
    start: Instant,
    accepted: Instant,
    measured: bool,
}

#[derive(Default)]
struct Inbox {
    state: Mutex<Answers>,
    changed: Condvar,
}

#[derive(Default)]
struct Answers {
    results: Vec<(ResultBody, Instant)>,
    refused: Vec<String>,
}

/// The collector thread: timestamps every response on arrival.
fn collect(rx: Receiver<Response>, inbox: &Inbox) {
    for resp in rx {
        let at = Instant::now();
        let mut st = inbox.state.lock().expect("inbox lock poisoned");
        match resp {
            Response::Accepted { .. } => continue,
            Response::Result(body) => st.results.push((body, at)),
            other => st.refused.push(other.to_string()),
        }
        drop(st);
        inbox.changed.notify_all();
    }
}

/// A scheduler, its response channel and the collector.
struct Session {
    sched: Arc<Scheduler>,
    registry: Registry,
    tx: Sender<Response>,
    inbox: Arc<Inbox>,
    collector: JoinHandle<()>,
    sent: Vec<Sent>,
    designs: &'static [&'static str],
    cycles: u64,
    /// Answers the generator has waited for so far.
    awaited: usize,
}

/// Everything a finished session saw.
struct Finished {
    sent: Vec<Sent>,
    answers: Answers,
    registry: Registry,
}

impl Session {
    fn start(shape: &Shape) -> Self {
        let registry = Registry::new();
        let sched = Scheduler::start(config(), registry.clone());
        let (tx, rx) = mpsc::channel();
        let inbox = Arc::new(Inbox::default());
        let collector = {
            let inbox = Arc::clone(&inbox);
            std::thread::spawn(move || collect(rx, &inbox))
        };
        Self {
            sched,
            registry,
            tx,
            inbox,
            collector,
            sent: Vec::new(),
            designs: shape.designs,
            cycles: shape.cycles,
            awaited: 0,
        }
    }

    /// Submits one request that was due at `due`.
    fn submit(&mut self, design: usize, seed: u64, due: Instant, wave: usize, client: u64) {
        let req = SubmitRequest {
            id: self.sent.len().to_string(),
            design: self.designs[design].to_string(),
            cycles: self.cycles,
            seed,
            model: ModelChoice::Fast,
        };
        let start = Instant::now();
        self.sched.submit(req, client, &self.tx);
        let accepted = Instant::now();
        self.sent.push(Sent {
            design,
            seed,
            wave,
            due,
            start,
            accepted,
            measured: false,
        });
    }

    /// Blocks until `more` further requests have been answered.
    fn await_answers(&mut self, more: usize) -> Result<(), String> {
        self.awaited += more;
        let deadline = Instant::now() + RESULT_TIMEOUT;
        let mut st = self.inbox.state.lock().expect("inbox lock poisoned");
        while st.results.len() + st.refused.len() < self.awaited {
            let now = Instant::now();
            if now >= deadline {
                return Err(format!(
                    "{} of {} requests unanswered after {RESULT_TIMEOUT:?}",
                    self.awaited - st.results.len() - st.refused.len(),
                    self.awaited
                ));
            }
            st = self
                .inbox
                .changed
                .wait_timeout(st, deadline - now)
                .expect("inbox lock poisoned")
                .0;
        }
        Ok(())
    }

    /// Drains the scheduler, stops both threads, and returns what it saw.
    fn finish(self) -> Finished {
        self.sched.shutdown();
        self.sched.drain();
        self.sched.join();
        drop(self.tx);
        self.collector.join().expect("collector thread panicked");
        let answers = std::mem::take(&mut *self.inbox.state.lock().expect("inbox lock poisoned"));
        Finished {
            sent: self.sent,
            answers,
            registry: self.registry,
        }
    }
}

/// Submits wave `wave` — one request per client, all for design `d` and
/// due now — and waits for its answers. Every wave of a design asks for
/// the same 128 seeds, so each answer can be compared with the first.
/// `queued` clients (a set-up request) are already waiting.
fn wave(s: &mut Session, seed: u64, d: usize, wave: usize, queued: usize) -> Result<(), String> {
    let due = Instant::now();
    for client in queued..WAVE {
        s.submit(d, request_seed(seed, d, client), due, wave, client as u64);
    }
    s.await_answers(WAVE)
}

/// The run's cold set-ups: each a fresh scheduler plus one cold
/// admission per design — characterize, instrument, lint, and tape
/// compile/optimize/validate, all on the submitting thread. The first
/// becomes the measured session; the spares are spread through the run
/// so that one slow host episode cannot cover them all.
struct Setups<'a> {
    shape: &'a Shape,
    seed: u64,
    seconds: Vec<f64>,
    spares: usize,
    refused: Vec<String>,
}

impl Setups<'_> {
    /// A timed set-up. Its requests (client 0 of each design's first
    /// wave) stay queued in the session.
    fn start(&mut self) -> Session {
        let t = Instant::now();
        let mut s = Session::start(self.shape);
        for d in 0..self.shape.designs.len() {
            s.submit(d, request_seed(self.seed, d, 0), Instant::now(), d, 0);
        }
        self.seconds.push(t.elapsed().as_secs_f64());
        s
    }

    /// Times one spare set-up on a throwaway scheduler.
    fn spare(&mut self) {
        self.spares -= 1;
        let s = self.start();
        self.refused.extend(s.finish().answers.refused);
    }
}

/// A warm-up wave per design, then waves until they add up to `seconds`
/// (at least one), with the spare set-ups evenly spaced in between.
fn drive(s: &mut Session, setups: &mut Setups, seconds: Duration) -> Result<(), String> {
    let seed = setups.seed;
    let designs = s.designs.len();
    for d in 0..designs {
        wave(s, seed, d, d, 1)?;
    }
    let first = s.sent.len();
    let spares = setups.spares;
    let mut measured = Duration::ZERO;
    let mut w = designs;
    while w == designs || measured < seconds || setups.spares > 0 {
        let t = Instant::now();
        wave(s, seed, w % designs, w, 0)?;
        measured += t.elapsed();
        w += 1;
        let done = spares - setups.spares;
        if setups.spares > 0 && measured >= seconds.mul_f64((done + 1) as f64 / (spares + 1) as f64)
        {
            setups.spare();
        }
    }
    s.sent[first..].iter_mut().for_each(|r| r.measured = true);
    Ok(())
}

/// Timings of one phase-split replay of a batch, in milliseconds.
#[derive(Default)]
struct Phases {
    drive: f64,
    settle: f64,
    observe: f64,
    capture: f64,
    readout: f64,
}

/// One batch's jobs in lane order: (seed, cycles).
type Jobs = Vec<(u64, u64)>;

/// The lane word the scheduler runs a 128-job batch on.
type WaveWord = [u64; 2];

/// Re-runs a served batch outside the scheduler, the way its worker
/// does: same tape, testbench shards, cycles and lane word.
fn replay_plain(prep: &Prepared, jobs: &Jobs) -> Result<(Vec<f64>, u64), String> {
    let mut tbs: Vec<_> = jobs
        .iter()
        .map(|&(seed, cycles)| prep.bench.testbench_shard(cycles, seed))
        .collect();
    let max_cycles = jobs.iter().map(|j| j.1).max().unwrap_or(0);
    let mut energies = vec![0.0f64; jobs.len()];
    let mut sim = WideTapeSimulator::<WaveWord>::new(&prep.tape);
    for cycle in 0..max_cycles {
        for (lane, tb) in tbs.iter_mut().enumerate() {
            if cycle < jobs[lane].1 {
                tb.apply(cycle, &mut sim.lane(lane));
            }
        }
        for (lane, tb) in tbs.iter_mut().enumerate() {
            if cycle < jobs[lane].1 {
                tb.observe(cycle, &mut sim.lane(lane));
            }
        }
        sim.step();
        for (lane, &(_, cycles)) in jobs.iter().enumerate() {
            if cycle + 1 == cycles {
                energies[lane] = prep
                    .inst
                    .try_read_energy_fj_lane(&mut sim, lane)
                    .map_err(|e| e.to_string())?;
            }
        }
    }
    Ok((energies, sim.settle_count()))
}

/// [`replay_plain`] with a span around each phase. Settling is forced
/// with `settled_planes()` before observe, so the lazy settle is
/// charged to settle rather than to whichever read first triggers it.
fn replay_spanned(prep: &Prepared, jobs: &Jobs, p: &mut Phases) -> Result<(Vec<f64>, u64), String> {
    let mut tbs: Vec<_> = jobs
        .iter()
        .map(|&(seed, cycles)| prep.bench.testbench_shard(cycles, seed))
        .collect();
    let max_cycles = jobs.iter().map(|j| j.1).max().unwrap_or(0);
    let mut energies = vec![0.0f64; jobs.len()];
    let mut sim = WideTapeSimulator::<WaveWord>::new(&prep.tape);
    for cycle in 0..max_cycles {
        let t0 = Instant::now();
        for (lane, tb) in tbs.iter_mut().enumerate() {
            if cycle < jobs[lane].1 {
                tb.apply(cycle, &mut sim.lane(lane));
            }
        }
        let t1 = Instant::now();
        sim.settled_planes();
        let t2 = Instant::now();
        for (lane, tb) in tbs.iter_mut().enumerate() {
            if cycle < jobs[lane].1 {
                tb.observe(cycle, &mut sim.lane(lane));
            }
        }
        let t3 = Instant::now();
        sim.step();
        let t4 = Instant::now();
        for (lane, &(_, cycles)) in jobs.iter().enumerate() {
            if cycle + 1 == cycles {
                energies[lane] = prep
                    .inst
                    .try_read_energy_fj_lane(&mut sim, lane)
                    .map_err(|e| e.to_string())?;
            }
        }
        let t5 = Instant::now();
        p.drive += ms(t1 - t0);
        p.settle += ms(t2 - t1);
        p.observe += ms(t3 - t2);
        p.capture += ms(t4 - t3);
        p.readout += ms(t5 - t4);
    }
    Ok((energies, sim.settle_count()))
}

/// A served request joined with its answer.
struct Served<'a> {
    sent: &'a Sent,
    body: &'a ResultBody,
    at: Instant,
}

/// Runs a serve workload: set-up, warm-up, measurement, output checks,
/// and (traced) the per-layer spans plus a flow probe over its designs
/// for the map and estimate layers.
pub fn run(shape: &Shape, seed: u64, seconds: Duration, traced: bool, scratch: &Path) -> Report {
    let mut report = measure(shape, seed, seconds, traced, scratch);
    if traced {
        let benches: Vec<Benchmark> = shape
            .designs
            .iter()
            .map(|n| benchmark(n).expect("workload designs are suite designs"))
            .collect();
        let mut probe = Trace::default();
        flow::probe(&benches, scratch, &mut probe, &mut report.problems);
        report.trace.adopt(&mut probe, FLOW_LAYERS);
    }
    report
}

/// The serve measurement proper (see [`run`]).
pub fn measure(
    shape: &Shape,
    seed: u64,
    seconds: Duration,
    traced: bool,
    scratch: &Path,
) -> Report {
    let mut report = Report::default();
    let mut setups = Setups {
        shape,
        seed,
        seconds: Vec::new(),
        // The traced run reports no setup_s.
        spares: if traced {
            0
        } else {
            shape.setups.saturating_sub(1)
        },
        refused: Vec::new(),
    };
    let mut s = setups.start();
    let driven = drive(&mut s, &mut setups, seconds);
    let done = s.finish();
    if let Err(e) = driven {
        report.problems.push(e);
    }
    report.problems.append(&mut setups.refused);
    report.problems.extend(done.answers.refused.iter().cloned());

    let served = join_answers(&done, &mut report);
    let measured: Vec<&Served> = served.iter().filter(|r| r.sent.measured).collect();
    report.attempted = done.sent.iter().filter(|r| r.measured).count() as u64;
    report.failed = report.attempted - measured.len() as u64;
    if measured.is_empty() {
        report.problems.push("no request completed".to_string());
        return report;
    }

    check_energies(shape, &served, seed, &mut report.problems);
    check_waves(&served, &mut report.problems);

    // End-to-end metrics. The measured waves are cut into SLICES
    // consecutive slices; each metric is computed within every slice and
    // the run reports its best slice. The host only ever slows the
    // program down, by up to 1.8× in episodes of seconds to minutes, so
    // the best slice is the one it disturbed least.
    let mut units: BTreeMap<usize, Vec<&Served>> = BTreeMap::new();
    for r in &measured {
        units.entry(r.sent.wave).or_default().push(r);
    }
    let units: Vec<Vec<&Served>> = units.into_values().collect();
    let slices = stats::chunks(&units, SLICES);
    let latencies = |chunk: &[Vec<&Served>]| -> Vec<f64> {
        chunk
            .iter()
            .flatten()
            .map(|r| ms(r.at - r.sent.due))
            .collect()
    };
    let per_slice =
        |f: &dyn Fn(&[Vec<&Served>]) -> f64| -> Vec<f64> { slices.iter().map(|c| f(c)).collect() };
    // Requests over their summed wave times (due → last answer).
    let ops_per_s = per_slice(&|c| {
        let secs: f64 = c
            .iter()
            .map(|w| {
                let end = w.iter().map(|r| r.at).max().expect("waves are non-empty");
                (end - w[0].sent.due).as_secs_f64()
            })
            .sum();
        c.iter().map(Vec::len).sum::<usize>() as f64 / secs
    });
    let p50 = per_slice(&|c| stats::median(&latencies(c)).expect("slices are non-empty"));
    let tail = per_slice(&|c| {
        stats::percentile(&latencies(c), shape.tail_pct)
            .expect("slices are non-empty")
            .value
    });
    let whole = stats::percentile(&latencies(&units), shape.tail_pct).expect("non-empty");
    report.notes.push(format!(
        "requests: {} measured in {} waves, {} beyond p{} over the run; each metric is its \
         best over {} slices",
        whole.n,
        units.len(),
        whole.beyond,
        whole.pct,
        slices.len()
    ));
    for (name, values) in [
        ("setup_s", &setups.seconds),
        ("ops_per_s", &ops_per_s),
        ("latency_p50_ms", &p50),
        ("latency_tail_ms", &tail),
    ] {
        let shown: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
        report
            .notes
            .push(format!("  {name} samples: {}", shown.join(" ")));
    }
    let lowest = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    let ops_per_s = ops_per_s.iter().copied().fold(0.0, f64::max);
    report.end_to_end = vec![
        (
            "setup_s",
            stats::median(&setups.seconds).expect("one set-up"),
            "s",
        ),
        ("ops_per_s", ops_per_s, "1/s"),
        ("latency_p50_ms", lowest(&p50), "ms"),
        ("latency_tail_ms", lowest(&tail), "ms"),
    ];

    if traced {
        trace_layers(shape, &done, &measured, scratch, &mut report);
        report.trace.count("trace.ops_per_s", ops_per_s);
    }
    report
}

/// Pairs every answer with the request it answers.
fn join_answers<'a>(done: &'a Finished, report: &mut Report) -> Vec<Served<'a>> {
    let mut served = Vec::with_capacity(done.answers.results.len());
    let mut seen = BTreeSet::new();
    for (body, at) in &done.answers.results {
        let Some(sent) = body
            .req
            .parse::<usize>()
            .ok()
            .and_then(|i| done.sent.get(i))
        else {
            report
                .problems
                .push(format!("answer for unknown request `{}`", body.req));
            continue;
        };
        if !seen.insert(&body.req) {
            report
                .problems
                .push(format!("request `{}` answered twice", body.req));
            continue;
        }
        served.push(Served {
            sent,
            body,
            at: *at,
        });
    }
    if served.len() != done.sent.len() {
        report.problems.push(format!(
            "{} requests sent, {} answered with a result",
            done.sent.len(),
            served.len()
        ));
    }
    served
}

/// Every answer for the same (design, seed) carries the same energy
/// bits, and a sample of them equals a serial `pe_sim::Simulator` run.
fn check_energies(shape: &Shape, served: &[Served], seed: u64, problems: &mut Vec<String>) {
    let mut first: BTreeMap<(usize, u64), u64> = BTreeMap::new();
    for r in served {
        let bits = *first
            .entry((r.sent.design, r.sent.seed))
            .or_insert(r.body.energy_bits);
        if bits != r.body.energy_bits {
            problems.push(format!(
                "{} seed {}: served {:016x} and {:016x} for the same request",
                shape.designs[r.sent.design], r.sent.seed, bits, r.body.energy_bits
            ));
        }
    }
    let mut rng = Xoshiro::new(seed ^ 0x5E71_A15E);
    for (d, name) in shape.designs.iter().enumerate() {
        let mut seeds: Vec<u64> = first
            .keys()
            .filter(|(fd, _)| *fd == d)
            .map(|(_, s)| *s)
            .collect();
        rng.shuffle(&mut seeds);
        seeds.truncate(shape.serial_checks);
        if seeds.is_empty() {
            continue;
        }
        let bench = benchmark(name).expect("workload designs are suite designs");
        let inst = match prep::instrumented(&bench) {
            Ok(inst) => inst,
            Err(e) => {
                problems.push(e);
                continue;
            }
        };
        for s in seeds {
            let served_bits = first[&(d, s)];
            match prep::serial_energy(&bench, &inst, shape.cycles, s) {
                Ok(e) if e.to_bits() == served_bits => {}
                Ok(e) => problems.push(format!(
                    "{name} seed {s}: served {served_bits:016x}, serial reference {:016x}",
                    e.to_bits()
                )),
                Err(e) => problems.push(format!("{name} seed {s}: serial reference failed: {e}")),
            }
        }
    }
}

/// Every wave rode in exactly one batch holding all of its requests.
fn check_waves(served: &[Served], problems: &mut Vec<String>) {
    let mut batches: BTreeMap<usize, BTreeSet<(u64, u64)>> = BTreeMap::new();
    for r in served {
        batches
            .entry(r.sent.wave)
            .or_default()
            .insert((r.body.batch, r.body.occupancy));
    }
    for (w, b) in batches {
        if b.len() != 1 || b.iter().any(|&(_, lanes)| lanes != WAVE as u64) {
            problems.push(format!(
                "wave {w} was not one {WAVE}-lane batch: (batch, lanes) = {b:?}"
            ));
        }
    }
}

/// The traced run's per-layer spans: admission timings from the
/// generator's clock, queue wait, the registry's batch wall, a lookup
/// probe, the admission pipeline re-run under spans, and a phase-split
/// replay of one round of served batches.
fn trace_layers(
    shape: &Shape,
    done: &Finished,
    measured: &[&Served],
    scratch: &Path,
    report: &mut Report,
) {
    let batch_wall = done.registry.histogram("serve.batch_wall_us");
    let batch_ms = batch_wall.mean() / 1e3;
    report.trace.count("serve.batch_ms", batch_ms);
    let trace = &mut report.trace;
    for r in measured {
        let name = shape.designs[r.sent.design];
        trace.record("serve.submit_ms", name, ms(r.sent.accepted - r.sent.start));
        trace.record("gen.late_ms", name, ms(r.sent.start - r.sent.due));
        trace.record(
            "serve.queue_wait_ms",
            name,
            ms(r.at - r.sent.accepted) - batch_ms,
        );
    }
    for name in shape.designs {
        for _ in 0..16 {
            trace.time("designs.lookup_ms", name, || benchmark_or_defect(name));
        }
    }

    let cache = match ModelCache::open(scratch.join("serve-cache")) {
        Ok(c) => c,
        Err(e) => {
            report
                .problems
                .push(format!("cannot open a model cache: {e}"));
            return;
        }
    };
    let mut prepared = Vec::new();
    for name in shape.designs {
        let bench = benchmark(name).expect("workload designs are suite designs");
        match prep::traced(bench, &cache, &mut report.trace, &mut report.problems) {
            Ok(p) => prepared.push(p),
            Err(e) => {
                report.problems.push(e);
                return;
            }
        }
    }

    // The replayed round: the first measured wave (one batch) of each
    // design.
    let mut round: BTreeMap<u64, Vec<&Served>> = BTreeMap::new();
    let mut first_wave = BTreeMap::new();
    for r in measured {
        if *first_wave.entry(r.sent.design).or_insert(r.sent.wave) == r.sent.wave {
            round.entry(r.body.batch).or_default().push(r);
        }
    }
    let mut plain_ms = 0.0;
    let mut spanned_ms = 0.0;
    let mut lanes = 0usize;
    for (batch, mut rs) in round.into_iter() {
        rs.sort_by_key(|r| r.body.lane);
        let prep = &prepared[rs[0].sent.design];
        let jobs: Jobs = rs.iter().map(|r| (r.sent.seed, r.body.cycles)).collect();
        let t = Instant::now();
        let plain = replay_plain(prep, &jobs);
        plain_ms += ms(t.elapsed());
        let mut phases = Phases::default();
        let t = Instant::now();
        let spanned = replay_spanned(prep, &jobs, &mut phases);
        spanned_ms += ms(t.elapsed());
        let ((plain_e, plain_settles), (spanned_e, settles)) = match (plain, spanned) {
            (Ok(a), Ok(b)) => (a, b),
            (Err(e), _) | (_, Err(e)) => {
                report
                    .problems
                    .push(format!("replay of batch {batch} failed: {e}"));
                continue;
            }
        };
        for (r, (a, b)) in rs.iter().zip(plain_e.iter().zip(&spanned_e)) {
            if a.to_bits() != r.body.energy_bits || b.to_bits() != r.body.energy_bits {
                report.problems.push(format!(
                    "batch {batch} lane {}: served {:016x}, replayed {:016x}/{:016x}",
                    r.body.lane,
                    r.body.energy_bits,
                    a.to_bits(),
                    b.to_bits()
                ));
            }
        }
        if plain_settles != settles {
            report.problems.push(format!(
                "batch {batch}: {plain_settles} settles unspanned, {settles} spanned"
            ));
        }
        let key = format!("batch {batch}");
        let trace = &mut report.trace;
        trace.record("sim.drive_ms", &key, phases.drive);
        trace.record("sim.settle_ms", &key, phases.settle);
        trace.record("sim.observe_ms", &key, phases.observe);
        trace.record("sim.capture_ms", &key, phases.capture);
        trace.record("sim.readout_ms", &key, phases.readout);
        trace.count("sim.settle_count", settles as f64);
        trace.count("serve.batches", 1.0);
        lanes += rs.len();
    }
    match report.trace.counted("serve.batches") {
        Some(b) => {
            report
                .trace
                .count("serve.lanes_per_batch", lanes as f64 / b);
            report
                .trace
                .count("trace.overhead_pct", (spanned_ms / plain_ms - 1.0) * 100.0);
        }
        None => report
            .problems
            .push("no served batch was replayed".to_string()),
    }
}
