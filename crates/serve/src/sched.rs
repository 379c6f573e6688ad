//! The batching scheduler: the heart of the daemon.
//!
//! Every accepted job lands in a per-(design, model) group. Worker
//! threads repeatedly take the oldest group, pack up to
//! [`ServeConfig::lanes`] of its jobs into one wide-engine run —
//! round-robin across the group's clients, so no client can starve the
//! others — and demultiplex the per-lane energy readouts back to each
//! job's response channel. The engine width follows the batch: up to 64
//! jobs run on the `u64` lane word, up to 128 on `[u64; 2]`, up to 256
//! on `[u64; 4]` — same core, wider registers. Every batch runs on the
//! group's prepared, translation-validated instruction tape; a group
//! whose tape does not compile or does not validate is refused at
//! admission (`tape_unverified`), never simulated some other way.
//! Because the tape's lanes are bit-independent of each other (the
//! width-sweep differential suite checks every width against the serial
//! oracle), a lane's readout is bit-identical to what a serial
//! `read_energy_fj` run of the same (design, stimulus, cycles) would
//! produce: batching changes throughput, never answers.
//!
//! Backpressure is explicit: the pending queue is bounded by
//! [`ServeConfig::queue_cap`], and a submit over the cap gets a
//! `rejected … retry_after_ms=…` response instead of unbounded memory
//! growth. Shutdown is graceful: new submits are rejected, workers drain
//! everything already accepted, then [`Scheduler::drain`] returns.

use pe_core::{FlowError, PowerEmulationFlow};
use pe_designs::defects::benchmark_or_defect;
use pe_designs::suite::Benchmark;
use pe_harness::{obtain_library, ModelCache};
use pe_instrument::InstrumentedDesign;
use pe_lint::{Denylist, LintReport};
use pe_power::CharacterizeConfig;
use pe_trace::Registry;
use pe_util::lanes::{LaneWord, MAX_LANES};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::proto::{ErrorCode, ModelChoice, RejectReason, Response, ResultBody, SubmitRequest};

/// Scheduler tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Maximum jobs queued (not yet running) before submits are
    /// rejected with `queue_full`.
    pub queue_cap: usize,
    /// Largest `cycles` a request may ask for; above this the submit is
    /// a `cycles_out_of_range` error.
    pub max_cycles: u64,
    /// Batch worker threads.
    pub workers: usize,
    /// How long a worker waits for more same-design jobs to arrive
    /// before running a partially-filled batch. Zero runs immediately.
    pub linger: Duration,
    /// The backoff hint carried on `rejected` responses.
    pub retry_after_ms: u64,
    /// On-disk model-library cache shared by all tenants; `None`
    /// characterizes from scratch per (design, model).
    pub model_cache: Option<ModelCache>,
    /// Lint rules promoted to admission-blocking errors. A submitted
    /// design whose instrumented lint report has any effective error
    /// under this denylist — or that lacks a per-domain activity
    /// certificate — is rejected with `unsound_design` before any
    /// simulation work.
    pub deny: Denylist,
    /// Largest number of jobs packed into one batch. The engine width
    /// follows the batch size (≤ 64 → 64-lane, ≤ 128 → 128-lane, else
    /// 256-lane), so values above 64 let one pass serve more than a
    /// `u64`'s worth of same-design clients. Clamped to
    /// [`MAX_LANES`].
    pub lanes: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            queue_cap: 256,
            max_cycles: 1 << 20,
            workers: 2,
            linger: Duration::from_millis(2),
            retry_after_ms: 50,
            model_cache: None,
            deny: Denylist::All,
            lanes: 128,
        }
    }
}

/// The effective batch-size cap: the configured lane count clamped to
/// what the widest lane word provides.
fn batch_cap(config: &ServeConfig) -> usize {
    config.lanes.clamp(1, MAX_LANES)
}

/// The lane width the engine will run `n` jobs at — the smallest
/// [`LaneWord`] that fits the batch.
fn lane_width_for(n: usize) -> usize {
    if n <= 64 {
        64
    } else if n <= 128 {
        128
    } else {
        256
    }
}

/// What jobs batch together: same design, same characterization config.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
struct GroupKey {
    design: String,
    model: ModelChoice,
}

/// One accepted job waiting for (or riding in) a batch.
struct Job {
    req: SubmitRequest,
    tx: Sender<Response>,
    submitted: Instant,
}

/// A group's pending jobs, queued per client for round-robin fairness.
#[derive(Default)]
struct Group {
    clients: BTreeMap<u64, VecDeque<Job>>,
    /// Next client id the round-robin scan starts from.
    cursor: u64,
    len: usize,
}

/// Everything behind the scheduler's mutex.
#[derive(Default)]
struct SchedState {
    groups: BTreeMap<GroupKey, Group>,
    /// Group service order, oldest first; a group that still has jobs
    /// after a batch goes to the back.
    order: VecDeque<GroupKey>,
    pending: usize,
    in_flight: usize,
    shutting_down: bool,
    next_batch: u64,
    /// Jobs completed after shutdown began (reported on `bye`).
    drained: u64,
}

/// A (design, model) pair resolved all the way to an instrumented
/// design, ready to construct simulators from. Built once, shared by
/// every batch of the group. Carries the static lint report (including
/// per-domain power certificates) the admission gate decides on.
struct PreparedDesign {
    bench: Benchmark,
    inst: InstrumentedDesign,
    report: LintReport,
    /// The instrumented design compiled into an optimized instruction
    /// tape, built once per group so every batch skips straight to
    /// simulator construction. The only engine batches run on.
    tape: pe_tape::Tape,
    /// The translation-validation certificate for `tape`: netlist and
    /// IR digests, per-pass instruction deltas, and whether the
    /// optimized tape was proven equivalent to the source netlist.
    /// Admission refuses to serve a group whose certificate carries
    /// `validated: false` (`tape_unverified`).
    certificate: pe_tape::TapeCertificate,
}

/// Why a (design, model) group cannot be served at all, decided once
/// when the group is prepared: the structured code every submit of the
/// group is refused with, and a message naming the cause.
#[derive(Debug, Clone)]
struct Refusal {
    code: ErrorCode,
    message: String,
}

impl Refusal {
    fn internal(message: String) -> Self {
        Refusal {
            code: ErrorCode::Internal,
            message,
        }
    }
}

impl PreparedDesign {
    /// The total certified energy ceiling over `cycles`, in femtojoules:
    /// the sum of every domain's certificate. Admission guarantees one
    /// certificate per domain, so this is finite for admitted designs.
    fn cert_energy_fj(&self, cycles: u64) -> f64 {
        self.report
            .certs
            .iter()
            .map(|c| c.energy_bound_fj(cycles))
            .sum()
    }

    /// Why this design must not be served, if any reason exists.
    fn admission_error(&self, deny: &Denylist) -> Option<String> {
        if let Some(first) = self.report.errors(deny).next() {
            return Some(format!(
                "design fails static admission ({} effective errors, first: {first})",
                self.report.error_count(deny)
            ));
        }
        if self.report.certs.len() < self.inst.domains.len() {
            return Some(format!(
                "design lacks an activity certificate for {} of {} clock domains",
                self.inst.domains.len() - self.report.certs.len(),
                self.inst.domains.len()
            ));
        }
        None
    }

    /// Why this design's tape must not be trusted, if the translation
    /// validator failed to certify it. The tape is the only engine, so
    /// a group whose tape was not proven equivalent to its netlist is
    /// refused outright.
    fn tape_unverified_error(&self) -> Option<String> {
        let cert = &self.certificate;
        if cert.validated {
            return None;
        }
        Some(format!(
            "tape for design `{}` failed translation validation ({})",
            cert.design,
            cert.reason.as_deref().unwrap_or("unknown reason"),
        ))
    }
}

struct Shared {
    config: ServeConfig,
    state: Mutex<SchedState>,
    /// Signalled on submit and shutdown.
    work_ready: Condvar,
    /// Signalled when the queue and all batches are empty.
    idle: Condvar,
    registry: Registry,
    /// In-memory prepare results (success or failure) per group.
    prepared: Mutex<HashMap<GroupKey, Arc<Result<PreparedDesign, Refusal>>>>,
}

/// A worker panic would poison the state mutex and take the whole
/// daemon down with it; recover the guard instead — counters may be
/// momentarily off after a panic, but the daemon keeps serving.
fn lock_state(shared: &Shared) -> MutexGuard<'_, SchedState> {
    shared
        .state
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// The batching scheduler. Construct with [`Scheduler::start`]; submit
/// jobs from any thread; shut down with
/// [`shutdown`](Scheduler::shutdown) + [`drain`](Scheduler::drain).
pub struct Scheduler {
    shared: Arc<Shared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl Scheduler {
    /// Starts `config.workers` batch workers and returns the scheduler.
    pub fn start(config: ServeConfig, registry: Registry) -> Arc<Self> {
        let workers = config.workers;
        let shared = Arc::new(Shared {
            config,
            state: Mutex::new(SchedState::default()),
            work_ready: Condvar::new(),
            idle: Condvar::new(),
            registry,
            prepared: Mutex::new(HashMap::new()),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("pe-serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn scheduler worker")
            })
            .collect();
        Arc::new(Self {
            shared,
            workers: Mutex::new(handles),
        })
    }

    /// The metrics registry every batch reports into.
    pub fn registry(&self) -> &Registry {
        &self.shared.registry
    }

    /// Submits one job. Exactly one immediate response (`accepted`,
    /// `rejected`, or `error`) is sent on `tx` now; an accepted job
    /// later gets exactly one `result` (or `error`) when its batch runs.
    /// Send failures (the client went away) are ignored — its jobs
    /// still run and are discarded on delivery.
    pub fn submit(&self, req: SubmitRequest, client: u64, tx: &Sender<Response>) {
        let shared = &self.shared;
        shared.registry.counter("serve.requests_submitted").inc();
        let reply = |r: Response| {
            let _ = tx.send(r);
        };
        if benchmark_or_defect(&req.design).is_none() {
            shared.registry.counter("serve.requests_failed").inc();
            reply(Response::Error {
                req: Some(req.id),
                code: ErrorCode::UnknownDesign,
                message: format!("design `{}` is not in the suite", req.design),
            });
            return;
        }
        if req.cycles == 0 || req.cycles > shared.config.max_cycles {
            shared.registry.counter("serve.requests_failed").inc();
            reply(Response::Error {
                req: Some(req.id),
                code: ErrorCode::CyclesOutOfRange,
                message: format!(
                    "cycles must be in 1..={}, got {}",
                    shared.config.max_cycles, req.cycles
                ),
            });
            return;
        }
        // Static admission: resolve (and memoize) the prepared design —
        // characterize, instrument, lint, but never simulate — so an
        // unsound design is turned away before it consumes queue space
        // or a single worker cycle. The first submit of a (design,
        // model) pair pays the characterization here; later submits hit
        // the memo.
        let key = GroupKey {
            design: req.design.clone(),
            model: req.model,
        };
        match prepared(shared, &key).as_ref() {
            Err(refusal) => {
                if refusal.code == ErrorCode::TapeUnverified {
                    shared.registry.counter("serve.tape_unverified").inc();
                }
                shared.registry.counter("serve.requests_failed").inc();
                reply(Response::Error {
                    req: Some(req.id),
                    code: refusal.code,
                    message: refusal.message.clone(),
                });
                return;
            }
            Ok(prep) => {
                if let Some(msg) = prep.admission_error(&shared.config.deny) {
                    shared.registry.counter("serve.requests_unsound").inc();
                    shared.registry.counter("serve.requests_failed").inc();
                    reply(Response::Error {
                        req: Some(req.id),
                        code: ErrorCode::UnsoundDesign,
                        message: msg,
                    });
                    return;
                }
                if let Some(msg) = prep.tape_unverified_error() {
                    shared.registry.counter("serve.tape_unverified").inc();
                    shared.registry.counter("serve.requests_failed").inc();
                    reply(Response::Error {
                        req: Some(req.id),
                        code: ErrorCode::TapeUnverified,
                        message: msg,
                    });
                    return;
                }
                // The proven accumulator bound caps the horizon harder
                // than the configured maximum: past it the served energy
                // could silently wrap.
                if let Some(limit) = prep.report.bounds.iter().map(|b| b.safe_cycles).min() {
                    if req.cycles > limit {
                        shared.registry.counter("serve.requests_failed").inc();
                        reply(Response::Error {
                            req: Some(req.id),
                            code: ErrorCode::CyclesOutOfRange,
                            message: format!(
                                "cycles {} exceeds the certified accumulator-safe \
                                 horizon {limit} for design `{}`",
                                req.cycles, req.design
                            ),
                        });
                        return;
                    }
                }
            }
        }
        let mut st = lock_state(shared);
        let reject = if st.shutting_down {
            Some(RejectReason::ShuttingDown)
        } else if st.pending >= shared.config.queue_cap {
            Some(RejectReason::QueueFull)
        } else {
            None
        };
        if let Some(reason) = reject {
            drop(st);
            shared.registry.counter("serve.requests_rejected").inc();
            reply(Response::Rejected {
                req: req.id,
                reason,
                retry_after_ms: shared.config.retry_after_ms,
            });
            return;
        }
        let id = req.id.clone();
        let job = Job {
            req,
            tx: tx.clone(),
            submitted: Instant::now(),
        };
        if st.groups.get(&key).is_none_or(|g| g.len == 0) {
            st.order.push_back(key.clone());
        }
        let group = st.groups.entry(key).or_default();
        group.clients.entry(client).or_default().push_back(job);
        group.len += 1;
        st.pending += 1;
        let depth = st.pending as u64;
        drop(st);
        shared.registry.gauge("serve.queue_depth").set(depth as f64);
        reply(Response::Accepted {
            req: id,
            queue_depth: depth,
        });
        shared.work_ready.notify_one();
    }

    /// Stops accepting work. Already-accepted jobs still run.
    pub fn shutdown(&self) {
        lock_state(&self.shared).shutting_down = true;
        self.shared.work_ready.notify_all();
    }

    /// True once [`shutdown`](Scheduler::shutdown) has been called.
    pub fn is_shutting_down(&self) -> bool {
        lock_state(&self.shared).shutting_down
    }

    /// Blocks until the queue and all in-flight batches are empty;
    /// returns the number of jobs completed since shutdown began. Call
    /// after [`shutdown`](Scheduler::shutdown).
    pub fn drain(&self) -> u64 {
        let mut st = lock_state(&self.shared);
        while st.pending > 0 || st.in_flight > 0 {
            st = self
                .shared
                .idle
                .wait(st)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
        st.drained
    }

    /// Joins the worker threads (after
    /// [`shutdown`](Scheduler::shutdown); blocks otherwise).
    pub fn join(&self) {
        let handles: Vec<_> = self
            .workers
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .drain(..)
            .collect();
        for h in handles {
            let _ = h.join();
        }
    }

    /// Jobs accepted but not yet running (for tests and transports).
    pub fn pending(&self) -> usize {
        lock_state(&self.shared).pending
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        self.shutdown();
        self.join();
    }
}

/// One worker: take a batch, run it, repeat until shutdown drains the
/// queue dry.
fn worker_loop(shared: &Shared) {
    while let Some((batch_id, key, jobs)) = next_batch(shared) {
        let completed = run_batch(shared, batch_id, &key, jobs);
        let mut st = lock_state(shared);
        st.in_flight -= completed.total;
        if st.shutting_down {
            st.drained += completed.delivered;
        }
        let idle = st.pending == 0 && st.in_flight == 0;
        drop(st);
        if idle {
            shared.idle.notify_all();
        }
    }
}

/// Blocks for work, lingers up to the configured window to let a
/// partial batch fill, then takes up to [`ServeConfig::lanes`] jobs
/// from the oldest group, round-robin across its clients. The linger is a deadline, not
/// a single wait: submits notify the condvar, and a woken worker keeps
/// waiting out the remainder of the window (re-checking fill each time)
/// rather than treating the first wakeup as the whole linger — the
/// difference between full batches and a train of near-empty ones under
/// bursty load. Returns `None` when shutdown has drained the queue.
fn next_batch(shared: &Shared) -> Option<(u64, GroupKey, Vec<Job>)> {
    let mut st = lock_state(shared);
    let mut linger_deadline: Option<Instant> = None;
    loop {
        if st.pending == 0 {
            if st.shutting_down {
                return None;
            }
            linger_deadline = None;
            st = shared
                .work_ready
                .wait(st)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            continue;
        }
        let key = st
            .order
            .front()
            .cloned()
            .expect("pending > 0 implies a group");
        let group_len = st.groups.get(&key).map_or(0, |g| g.len);
        if group_len < batch_cap(&shared.config)
            && !st.shutting_down
            && !shared.config.linger.is_zero()
        {
            let now = Instant::now();
            let deadline = *linger_deadline.get_or_insert(now + shared.config.linger);
            if now < deadline {
                let (guard, _timeout) = shared
                    .work_ready
                    .wait_timeout(st, deadline - now)
                    .unwrap_or_else(|poisoned| poisoned.into_inner());
                st = guard;
                continue;
            }
        }
        return Some(take_batch(shared, &mut st));
    }
}

fn take_batch(shared: &Shared, st: &mut SchedState) -> (u64, GroupKey, Vec<Job>) {
    let key = st.order.pop_front().expect("caller checked pending > 0");
    let group = st.groups.get_mut(&key).expect("ordered group exists");
    let cap = batch_cap(&shared.config);
    let mut jobs = Vec::new();
    while jobs.len() < cap && group.len > 0 {
        // Next non-empty client queue at or after the cursor, wrapping.
        let next = group
            .clients
            .range(group.cursor..)
            .find(|(_, q)| !q.is_empty())
            .or_else(|| group.clients.range(..).find(|(_, q)| !q.is_empty()))
            .map(|(id, _)| *id);
        let Some(id) = next else { break };
        let queue = group.clients.get_mut(&id).expect("client queue exists");
        jobs.push(queue.pop_front().expect("queue is non-empty"));
        group.len -= 1;
        group.cursor = id.wrapping_add(1);
    }
    group.clients.retain(|_, q| !q.is_empty());
    if group.len == 0 {
        st.groups.remove(&key);
    } else {
        st.order.push_back(key.clone());
    }
    st.pending -= jobs.len();
    st.in_flight += jobs.len();
    shared
        .registry
        .gauge("serve.queue_depth")
        .set(st.pending as f64);
    let id = st.next_batch;
    st.next_batch += 1;
    (id, key, jobs)
}

/// Batch outcome counts for in-flight/drain accounting.
struct BatchDone {
    /// Jobs the batch carried (always decremented from in-flight).
    total: usize,
    /// Jobs that got a `result` response.
    delivered: u64,
}

/// Resolves the group's prepared design (building and memoizing it on
/// first use), runs the wide batch, and demultiplexes lane readouts to
/// each job's channel.
fn run_batch(shared: &Shared, batch_id: u64, key: &GroupKey, jobs: Vec<Job>) -> BatchDone {
    let start = Instant::now();
    let total = jobs.len();
    let occupancy = total as u64;
    let prep = prepared(shared, key);
    let outcome = match prep.as_ref() {
        Ok(prep) => run_wide(prep, &jobs),
        Err(refusal) => Err(refusal.message.clone()),
    };
    let mut delivered = 0;
    match outcome {
        Ok(energies) => {
            let p = prep
                .as_ref()
                .as_ref()
                .expect("a successful batch implies a prepared design");
            for (lane, job) in jobs.into_iter().enumerate() {
                let latency = job.submitted.elapsed().as_micros() as u64;
                shared
                    .registry
                    .histogram("serve.request_latency_us")
                    .observe(latency);
                shared.registry.counter("serve.requests_completed").inc();
                delivered += 1;
                let _ = job.tx.send(Response::Result(ResultBody {
                    req: job.req.id,
                    design: job.req.design,
                    cycles: job.req.cycles,
                    seed: job.req.seed,
                    batch: batch_id,
                    lane: lane as u64,
                    occupancy,
                    energy_bits: energies[lane].to_bits(),
                    cert_bits: p.cert_energy_fj(job.req.cycles).to_bits(),
                }));
            }
        }
        Err(message) => {
            for job in jobs {
                shared.registry.counter("serve.requests_failed").inc();
                let _ = job.tx.send(Response::Error {
                    req: Some(job.req.id),
                    code: ErrorCode::Internal,
                    message: message.clone(),
                });
            }
        }
    }
    shared.registry.counter("serve.batches").inc();
    shared
        .registry
        .histogram("serve.batch_lanes")
        .observe(occupancy);
    // Occupancy as a percentage of the lane width the batch actually ran
    // at — a 100-job batch is 79% of a 128-lane pack, not 156% of 64.
    shared
        .registry
        .histogram("serve.lane_occupancy")
        .observe(occupancy * 100 / lane_width_for(total) as u64);
    shared
        .registry
        .histogram("serve.batch_wall_us")
        .observe(start.elapsed().as_micros() as u64);
    BatchDone { total, delivered }
}

/// The memoized characterize → prepare pipeline for a group. Holding
/// the map lock through a build serializes first-touch prepares across
/// workers — deliberate, so concurrent cold batches of the same design
/// characterize once, not twice.
fn prepared(shared: &Shared, key: &GroupKey) -> Arc<Result<PreparedDesign, Refusal>> {
    let mut map = shared
        .prepared
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    if let Some(p) = map.get(key) {
        shared.registry.counter("serve.design_cache_hits").inc();
        return Arc::clone(p);
    }
    shared.registry.counter("serve.design_cache_misses").inc();
    let built = Arc::new(build_prepared(shared, key));
    map.insert(key.clone(), Arc::clone(&built));
    built
}

fn build_prepared(shared: &Shared, key: &GroupKey) -> Result<PreparedDesign, Refusal> {
    let bench = benchmark_or_defect(&key.design)
        .ok_or_else(|| Refusal::internal(format!("design `{}` is not in the suite", key.design)))?;
    let config = match key.model {
        ModelChoice::Fast => CharacterizeConfig::fast(),
        ModelChoice::Standard => CharacterizeConfig::standard(),
    };
    let flow = PowerEmulationFlow::new().with_characterize(config);
    let library = obtain_library(
        &bench.design,
        flow.characterize_config(),
        shared.config.model_cache.as_ref(),
        bench.name,
        &shared.registry,
    )
    .map_err(|e| Refusal::internal(format!("characterize failed: {e}")))?;
    flow.install_library(library);
    // `stage_prepare` returns the lint report ungated: admission owns
    // that decision, so `submit` can answer `unsound_design` with the
    // findings instead of an opaque `internal` failure.
    let prepared = flow
        .stage_prepare(&bench.design, &shared.registry)
        .map_err(|e| prepare_refusal(bench.name, e))?;
    Ok(PreparedDesign {
        bench,
        inst: prepared.instrumented,
        report: prepared.report,
        tape: prepared.tape,
        certificate: prepared.certificate,
    })
}

/// Why a group's prepare failed, as the refusal every submit gets. A
/// design the tape compiler rejects cannot be served — there is no
/// other engine to run it on — so that failure is refused with the same
/// `tape_unverified` code as a tape that fails validation, naming the
/// compiler's diagnosis.
fn prepare_refusal(design: &str, err: FlowError) -> Refusal {
    match err {
        FlowError::Tape(e) => Refusal {
            code: ErrorCode::TapeUnverified,
            message: format!(
                "tape for design `{design}` failed to compile ({}): {e}",
                e.rule()
            ),
        },
        other => Refusal::internal(other.to_string()),
    }
}

/// Runs one packed batch on the group's validated instruction tape at
/// the narrowest lane width that fits it. Lane `l` executes job `l`'s
/// testbench shard for exactly its requested cycles; the batch steps to
/// the longest request, and each lane's energy is read at its own cycle
/// boundary — the accumulator state there is bit-identical to a serial
/// run of the same length, because lanes never interact (enforced
/// against the serial oracle by the width-sweep differential suite).
fn run_wide(prep: &PreparedDesign, jobs: &[Job]) -> Result<Vec<f64>, String> {
    // Admission already refuses unverified tapes; this guard keeps the
    // batch path honest even if a future caller skips admission.
    if let Some(msg) = prep.tape_unverified_error() {
        return Err(msg);
    }
    match lane_width_for(jobs.len()) {
        64 => run_wide_at::<u64>(prep, jobs),
        128 => run_wide_at::<[u64; 2]>(prep, jobs),
        _ => run_wide_at::<[u64; 4]>(prep, jobs),
    }
}

fn run_wide_at<W: LaneWord>(prep: &PreparedDesign, jobs: &[Job]) -> Result<Vec<f64>, String> {
    let mut tbs: Vec<_> = jobs
        .iter()
        .map(|j| prep.bench.testbench_shard(j.req.cycles, j.req.seed))
        .collect();
    let max_cycles = jobs.iter().map(|j| j.req.cycles).max().unwrap_or(0);
    let mut energies = vec![0.0f64; jobs.len()];
    let mut sim = pe_tape::WideTapeSimulator::<W>::new(&prep.tape);
    for cycle in 0..max_cycles {
        for (lane, tb) in tbs.iter_mut().enumerate() {
            if cycle < jobs[lane].req.cycles {
                tb.apply(cycle, &mut sim.lane(lane));
            }
        }
        for (lane, tb) in tbs.iter_mut().enumerate() {
            if cycle < jobs[lane].req.cycles {
                tb.observe(cycle, &mut sim.lane(lane));
            }
        }
        sim.step();
        for (lane, job) in jobs.iter().enumerate() {
            if cycle + 1 == job.req.cycles {
                energies[lane] = prep
                    .inst
                    .try_read_energy_fj_lane(&mut sim, lane)
                    .map_err(|e| e.to_string())?;
            }
        }
    }
    Ok(energies)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    fn submit_req(id: &str, design: &str, cycles: u64, seed: u64) -> SubmitRequest {
        SubmitRequest {
            id: id.to_string(),
            design: design.to_string(),
            cycles,
            seed,
            model: ModelChoice::Fast,
        }
    }

    /// A scheduler with no workers never takes jobs off the queue, so
    /// backpressure is deterministic to exercise.
    fn paused(queue_cap: usize) -> Arc<Scheduler> {
        Scheduler::start(
            ServeConfig {
                queue_cap,
                workers: 0,
                ..ServeConfig::default()
            },
            Registry::new(),
        )
    }

    #[test]
    fn validation_errors_are_structured() {
        let sched = paused(8);
        let (tx, rx) = mpsc::channel();
        sched.submit(submit_req("a", "No_Such_Design", 10, 0), 1, &tx);
        assert!(matches!(
            rx.try_recv().unwrap(),
            Response::Error {
                code: ErrorCode::UnknownDesign,
                ..
            }
        ));
        sched.submit(submit_req("b", "Bubble_Sort", 0, 0), 1, &tx);
        assert!(matches!(
            rx.try_recv().unwrap(),
            Response::Error {
                code: ErrorCode::CyclesOutOfRange,
                ..
            }
        ));
        sched.submit(submit_req("c", "Bubble_Sort", u64::MAX, 0), 1, &tx);
        assert!(matches!(
            rx.try_recv().unwrap(),
            Response::Error {
                code: ErrorCode::CyclesOutOfRange,
                ..
            }
        ));
        assert_eq!(sched.pending(), 0);
    }

    #[test]
    fn unverified_tape_is_refused_at_admission() {
        let sched = paused(8);
        let key = GroupKey {
            design: "Bubble_Sort".to_string(),
            model: ModelChoice::Fast,
        };
        // Build the real prepared design, then doctor its certificate to
        // simulate a tape the translation validator refused to certify.
        let mut prep = build_prepared(&sched.shared, &key)
            .unwrap_or_else(|r| panic!("prepare succeeds: {}", r.message));
        let cert = &mut prep.certificate;
        assert!(cert.validated, "suite design should certify cleanly");
        cert.validated = false;
        cert.reason = Some("signal-mismatch: doctored for test".to_string());
        sched
            .shared
            .prepared
            .lock()
            .unwrap()
            .insert(key, Arc::new(Ok(prep)));
        let (tx, rx) = mpsc::channel();
        sched.submit(submit_req("u0", "Bubble_Sort", 10, 0), 1, &tx);
        let Response::Error { code, message, .. } = rx.try_recv().unwrap() else {
            panic!("expected error");
        };
        assert_eq!(code, ErrorCode::TapeUnverified);
        assert!(message.contains("translation validation"), "{message}");
        assert_eq!(sched.registry().counter("serve.tape_unverified").get(), 1);
        assert_eq!(sched.pending(), 0);
    }

    #[test]
    fn tape_compile_failure_is_refused_at_admission() {
        let sched = paused(8);
        // Instrumentation validates the netlist first, so no served
        // design reaches the tape compiler structurally broken: compile
        // a broken netlist directly and memoize its refusal the way
        // `prepared` would.
        let design = pe_designs::defects::structural_defect_design("Defect_Comb_Cycle")
            .expect("structural defect exists");
        let err = pe_tape::Tape::compile_optimized(&design)
            .map(|_| ())
            .expect_err("a combinational cycle must not compile");
        let refusal = prepare_refusal(design.name(), FlowError::Tape(err));
        assert_eq!(refusal.code, ErrorCode::TapeUnverified);
        assert!(
            refusal.message.contains("comb-cycle"),
            "{}",
            refusal.message
        );
        let key = GroupKey {
            design: "Bubble_Sort".to_string(),
            model: ModelChoice::Fast,
        };
        sched
            .shared
            .prepared
            .lock()
            .unwrap()
            .insert(key, Arc::new(Err(refusal)));
        let (tx, rx) = mpsc::channel();
        sched.submit(submit_req("c0", "Bubble_Sort", 10, 0), 1, &tx);
        let Response::Error { code, message, .. } = rx.try_recv().unwrap() else {
            panic!("expected error");
        };
        assert_eq!(code, ErrorCode::TapeUnverified);
        assert!(
            message.contains("failed to compile (comb-cycle)"),
            "{message}"
        );
        assert_eq!(sched.registry().counter("serve.tape_unverified").get(), 1);
        assert_eq!(sched.registry().counter("serve.requests_failed").get(), 1);
        assert_eq!(sched.pending(), 0);
    }

    #[test]
    fn queue_full_rejects_with_retry_hint() {
        let sched = paused(3);
        let (tx, rx) = mpsc::channel();
        for i in 0..3 {
            sched.submit(submit_req(&format!("r{i}"), "Bubble_Sort", 10, i), 1, &tx);
            let Response::Accepted { queue_depth, .. } = rx.try_recv().unwrap() else {
                panic!("expected accepted");
            };
            assert_eq!(queue_depth, i + 1);
        }
        sched.submit(submit_req("r3", "Bubble_Sort", 10, 3), 1, &tx);
        let Response::Rejected {
            reason,
            retry_after_ms,
            ..
        } = rx.try_recv().unwrap()
        else {
            panic!("expected rejected");
        };
        assert_eq!(reason, RejectReason::QueueFull);
        assert!(retry_after_ms > 0);
        assert_eq!(sched.pending(), 3);
        assert_eq!(sched.registry().counter("serve.requests_rejected").get(), 1);
    }

    #[test]
    fn shutdown_rejects_new_submits() {
        let sched = paused(8);
        sched.shutdown();
        let (tx, rx) = mpsc::channel();
        sched.submit(submit_req("late", "Bubble_Sort", 10, 0), 1, &tx);
        assert!(matches!(
            rx.try_recv().unwrap(),
            Response::Rejected {
                reason: RejectReason::ShuttingDown,
                ..
            }
        ));
    }

    #[test]
    fn batches_round_robin_across_clients() {
        let sched = paused(256);
        let (tx, _rx) = mpsc::channel();
        // Client 1 floods 10 jobs; clients 2 and 3 submit one each.
        for i in 0..10 {
            sched.submit(submit_req(&format!("c1.{i}"), "Bubble_Sort", 10, i), 1, &tx);
        }
        sched.submit(submit_req("c2.0", "Bubble_Sort", 10, 100), 2, &tx);
        sched.submit(submit_req("c3.0", "Bubble_Sort", 10, 200), 3, &tx);
        let mut st = lock_state(&sched.shared);
        let (_, _, jobs) = take_batch(&sched.shared, &mut st);
        drop(st);
        assert_eq!(jobs.len(), 12);
        // Round-robin: the first three lanes come from three distinct
        // clients, despite client 1 submitting first and most.
        let first_three: Vec<&str> = jobs.iter().take(3).map(|j| j.req.id.as_str()).collect();
        assert_eq!(first_three, vec!["c1.0", "c2.0", "c3.0"]);
        assert_eq!(sched.pending(), 0);
    }

    #[test]
    fn take_batch_caps_at_configured_lanes() {
        // Default config packs up to 128 lanes; 140 same-design jobs
        // split into one full 128-lane batch plus a 12-job remainder.
        let sched = paused(256);
        let (tx, _rx) = mpsc::channel();
        for i in 0..140 {
            sched.submit(submit_req(&format!("r{i}"), "Bubble_Sort", 10, i), i, &tx);
        }
        let mut st = lock_state(&sched.shared);
        let (_, _, jobs) = take_batch(&sched.shared, &mut st);
        assert_eq!(jobs.len(), 128);
        assert_eq!(st.pending, 12);
        assert_eq!(st.in_flight, 128);
        // The leftover group is still scheduled.
        assert_eq!(st.order.len(), 1);
    }

    #[test]
    fn lane_width_tracks_batch_size() {
        assert_eq!(lane_width_for(1), 64);
        assert_eq!(lane_width_for(64), 64);
        assert_eq!(lane_width_for(65), 128);
        assert_eq!(lane_width_for(128), 128);
        assert_eq!(lane_width_for(129), 256);
        assert_eq!(lane_width_for(256), 256);
    }
}
