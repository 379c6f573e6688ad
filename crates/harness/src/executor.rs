//! The std-only parallel executor: a dependency-aware job graph fanned
//! out over a fixed pool of worker threads.
//!
//! Design constraints, in order:
//!
//! 1. **Determinism** — outcomes are returned indexed by [`JobId`]
//!    (submission order), so the result of a run is independent of how
//!    jobs interleave across workers. Anything order-sensitive must key
//!    off job ids, never completion order.
//! 2. **Dependency policy** — `std::thread` + `std::sync::mpsc` only
//!    (no rayon/crossbeam). Workers share one task receiver behind a
//!    mutex; the scheduler runs on the calling thread and releases a
//!    job only once every dependency has completed.
//! 3. **Containment** — a failing or panicking job fails only itself
//!    and its transitive dependents ([`JobOutcome::Skipped`]); everything
//!    else still runs.
//!
//! Results are handed to dependents as `Arc<T>`, so one output can fan
//! out to several consumers without cloning.

use crate::events::{Event, EventSink};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Identifies a job within one [`JobGraph`]: its submission index.
pub type JobId = usize;

type Work<'scope, T, E> = Box<dyn FnOnce(&[Arc<T>]) -> Result<T, E> + Send + 'scope>;

struct JobNode<'scope, T, E> {
    stage: String,
    label: String,
    deps: Vec<JobId>,
    work: Work<'scope, T, E>,
}

/// How one job ended.
#[derive(Debug)]
pub enum JobOutcome<T, E> {
    /// The job ran and returned a value.
    Done(Arc<T>),
    /// The job ran and returned an error.
    Failed(E),
    /// The job never ran because a dependency did not complete.
    Skipped {
        /// The (transitively) failing dependency.
        failed_dep: JobId,
    },
    /// The job panicked; the payload is the rendered panic message.
    Panicked(String),
}

impl<T, E> JobOutcome<T, E> {
    /// The produced value, if the job completed.
    pub fn done(&self) -> Option<&T> {
        match self {
            JobOutcome::Done(v) => Some(v),
            _ => None,
        }
    }
}

/// A directed acyclic graph of jobs. Dependencies must point at already
/// added jobs, so cycles are unrepresentable by construction.
pub struct JobGraph<'scope, T, E> {
    jobs: Vec<JobNode<'scope, T, E>>,
}

impl<T, E> Default for JobGraph<'_, T, E> {
    fn default() -> Self {
        Self::new()
    }
}

struct Task<'scope, T, E> {
    id: JobId,
    stage: String,
    label: String,
    inputs: Vec<Arc<T>>,
    work: Work<'scope, T, E>,
}

enum WorkerReport<T, E> {
    Output(Result<T, E>),
    Panic(String),
}

impl<'scope, T, E> JobGraph<'scope, T, E> {
    /// An empty graph.
    pub fn new() -> Self {
        Self { jobs: Vec::new() }
    }

    /// Number of jobs added.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether the graph is empty.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Adds a job and returns its id. `deps` must reference previously
    /// added jobs; the job's closure receives its dependencies' results
    /// in the order `deps` lists them.
    ///
    /// # Panics
    ///
    /// Panics if a dependency id is not smaller than the new job's id —
    /// that is a schedule-construction bug, not a runtime condition.
    pub fn add(
        &mut self,
        stage: &str,
        label: &str,
        deps: Vec<JobId>,
        work: impl FnOnce(&[Arc<T>]) -> Result<T, E> + Send + 'scope,
    ) -> JobId {
        let id = self.jobs.len();
        assert!(
            deps.iter().all(|&d| d < id),
            "job {id} ({stage}/{label}) depends on a job not yet added"
        );
        self.jobs.push(JobNode {
            stage: stage.to_string(),
            label: label.to_string(),
            deps,
            work: Box::new(work),
        });
        id
    }
}

impl<'scope, T, E> JobGraph<'scope, T, E>
where
    T: Send + Sync + 'scope,
    E: std::fmt::Display + Send + 'scope,
{
    /// Executes the graph on `workers` threads (clamped to at least 1
    /// and at most the job count) and returns one outcome per job, in
    /// submission order — independent of scheduling interleavings.
    pub fn run(self, workers: usize, sink: &dyn EventSink) -> Vec<JobOutcome<T, E>> {
        let n = self.jobs.len();
        if n == 0 {
            return Vec::new();
        }
        let workers = workers.clamp(1, n);

        // Decompose nodes: metadata stays with the scheduler, closures
        // travel to workers.
        let mut works: Vec<Option<Work<'scope, T, E>>> = Vec::with_capacity(n);
        let mut meta: Vec<(String, String, Vec<JobId>)> = Vec::with_capacity(n);
        for (id, node) in self.jobs.into_iter().enumerate() {
            sink.emit(&Event::JobQueued {
                id,
                stage: node.stage.clone(),
                label: node.label.clone(),
            });
            works.push(Some(node.work));
            meta.push((node.stage, node.label, node.deps));
        }

        let mut dependents: Vec<Vec<JobId>> = vec![Vec::new(); n];
        let mut missing_deps: Vec<usize> = vec![0; n];
        for (id, (_, _, deps)) in meta.iter().enumerate() {
            missing_deps[id] = deps.len();
            for &d in deps {
                dependents[d].push(id);
            }
        }

        let (task_tx, task_rx) = mpsc::channel::<Task<'scope, T, E>>();
        let task_rx = Arc::new(Mutex::new(task_rx));
        let (done_tx, done_rx) = mpsc::channel::<(JobId, WorkerReport<T, E>)>();

        let mut outcomes: Vec<Option<JobOutcome<T, E>>> = (0..n).map(|_| None).collect();

        std::thread::scope(|scope| {
            for _ in 0..workers {
                let task_rx = Arc::clone(&task_rx);
                let done_tx = done_tx.clone();
                scope.spawn(move || loop {
                    // Hold the lock only for the blocking recv; it is
                    // released as soon as a task (or disconnect) arrives.
                    let task = match task_rx.lock() {
                        Ok(rx) => rx.recv(),
                        Err(_) => break,
                    };
                    let Ok(task) = task else { break };
                    sink.emit(&Event::JobStarted {
                        id: task.id,
                        stage: task.stage.clone(),
                        label: task.label.clone(),
                    });
                    let start = Instant::now();
                    let report = match catch_unwind(AssertUnwindSafe(|| (task.work)(&task.inputs)))
                    {
                        Ok(result) => WorkerReport::Output(result),
                        // `&*panic`: downcast the payload, not the box.
                        Err(panic) => WorkerReport::Panic(render_panic(&*panic)),
                    };
                    let wall = start.elapsed();
                    let event = match &report {
                        WorkerReport::Output(Ok(_)) => Event::JobFinished {
                            id: task.id,
                            stage: task.stage,
                            label: task.label,
                            wall,
                        },
                        WorkerReport::Output(Err(e)) => Event::JobFailed {
                            id: task.id,
                            stage: task.stage,
                            label: task.label,
                            wall,
                            error: e.to_string(),
                        },
                        WorkerReport::Panic(msg) => Event::JobFailed {
                            id: task.id,
                            stage: task.stage,
                            label: task.label,
                            wall,
                            error: format!("panic: {msg}"),
                        },
                    };
                    sink.emit(&event);
                    if done_tx.send((task.id, report)).is_err() {
                        break;
                    }
                });
            }
            drop(done_tx);

            // Scheduler (this thread): dispatch ready jobs, cascade
            // skips, and collect completions until every job is
            // accounted for.
            let mut settled = 0usize;
            let dispatch = |id: JobId,
                            works: &mut [Option<Work<'scope, T, E>>],
                            outcomes: &[Option<JobOutcome<T, E>>]| {
                let (stage, label, deps) = &meta[id];
                let inputs: Vec<Arc<T>> = deps
                    .iter()
                    .map(|&d| match &outcomes[d] {
                        Some(JobOutcome::Done(v)) => Arc::clone(v),
                        _ => unreachable!("dispatched job {id} with unfinished dep {d}"),
                    })
                    .collect();
                let work = works[id].take().expect("job dispatched twice");
                task_tx
                    .send(Task {
                        id,
                        stage: stage.clone(),
                        label: label.clone(),
                        inputs,
                        work,
                    })
                    .expect("workers alive while jobs pending");
            };

            // `ready` holds jobs whose dependencies are all settled.
            let mut ready: VecDeque<JobId> = (0..n).filter(|&id| missing_deps[id] == 0).collect();
            loop {
                while let Some(id) = ready.pop_front() {
                    // A dependency may have failed: skip instead of run.
                    let failed_dep = meta[id]
                        .2
                        .iter()
                        .copied()
                        .find(|&d| !matches!(outcomes[d], Some(JobOutcome::Done(_))));
                    match failed_dep {
                        None => dispatch(id, &mut works, &outcomes),
                        Some(dep) => {
                            let (stage, label, _) = &meta[id];
                            sink.emit(&Event::JobSkipped {
                                id,
                                stage: stage.clone(),
                                label: label.clone(),
                                failed_dep: dep,
                            });
                            outcomes[id] = Some(JobOutcome::Skipped { failed_dep: dep });
                            settled += 1;
                            for &dependent in &dependents[id] {
                                missing_deps[dependent] -= 1;
                                if missing_deps[dependent] == 0 {
                                    ready.push_back(dependent);
                                }
                            }
                        }
                    }
                }
                if settled == n {
                    break;
                }
                let (id, report) = done_rx.recv().expect("a dispatched job always reports");
                outcomes[id] = Some(match report {
                    WorkerReport::Output(Ok(value)) => JobOutcome::Done(Arc::new(value)),
                    WorkerReport::Output(Err(e)) => JobOutcome::Failed(e),
                    WorkerReport::Panic(msg) => JobOutcome::Panicked(msg),
                });
                settled += 1;
                for &dependent in &dependents[id] {
                    missing_deps[dependent] -= 1;
                    if missing_deps[dependent] == 0 {
                        ready.push_back(dependent);
                    }
                }
            }
            drop(task_tx); // workers drain and exit; scope joins them
        });

        outcomes
            .into_iter()
            .map(|o| o.expect("every job settled"))
            .collect()
    }
}

fn render_panic(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::{Collector, NullSink};
    use pe_trace::Registry;

    /// A job chain a → b → c plus an independent d, at several worker
    /// counts: outcomes are always indexed by submission order.
    #[test]
    fn outcomes_are_submission_ordered_at_any_worker_count() {
        for workers in [1, 2, 8] {
            let mut g: JobGraph<'_, u64, String> = JobGraph::new();
            let a = g.add("s", "a", vec![], |_| Ok(10));
            let b = g.add("s", "b", vec![a], |deps| Ok(*deps[0] + 1));
            let _c = g.add("s", "c", vec![b], |deps| Ok(*deps[0] * 2));
            let _d = g.add("s", "d", vec![], |_| Ok(1000));
            let outcomes = g.run(workers, &NullSink);
            let values: Vec<u64> = outcomes.iter().map(|o| *o.done().unwrap()).collect();
            assert_eq!(values, vec![10, 11, 22, 1000], "workers={workers}");
        }
    }

    #[test]
    fn diamond_dependencies_fan_in() {
        let mut g: JobGraph<'_, u64, String> = JobGraph::new();
        let a = g.add("s", "a", vec![], |_| Ok(1));
        let b = g.add("s", "b", vec![a], |d| Ok(*d[0] + 10));
        let c = g.add("s", "c", vec![a], |d| Ok(*d[0] + 100));
        let r = g.add("s", "r", vec![b, c], |d| Ok(*d[0] + *d[1]));
        let outcomes = g.run(4, &NullSink);
        assert_eq!(*outcomes[r].done().unwrap(), 11 + 101);
    }

    #[test]
    fn failure_skips_only_the_dependent_subgraph() {
        let mut g: JobGraph<'_, u64, String> = JobGraph::new();
        let a = g.add("s", "a", vec![], |_| Err("boom".to_string()));
        let b = g.add("s", "b", vec![a], |_| Ok(1));
        let c = g.add("s", "c", vec![b], |_| Ok(2));
        let d = g.add("s", "d", vec![], |_| Ok(3));
        let outcomes = g.run(2, &NullSink);
        assert!(matches!(&outcomes[a], JobOutcome::Failed(e) if e == "boom"));
        assert!(matches!(outcomes[b], JobOutcome::Skipped { failed_dep } if failed_dep == a));
        assert!(matches!(outcomes[c], JobOutcome::Skipped { failed_dep } if failed_dep == b));
        assert_eq!(*outcomes[d].done().unwrap(), 3);
    }

    #[test]
    fn panics_are_contained_as_outcomes() {
        let mut g: JobGraph<'_, u64, String> = JobGraph::new();
        let a = g.add("s", "a", vec![], |_| panic!("kaboom"));
        let b = g.add("s", "b", vec![a], |_| Ok(1));
        let c = g.add("s", "c", vec![], |_| Ok(2));
        let outcomes = g.run(3, &NullSink);
        assert!(matches!(&outcomes[a], JobOutcome::Panicked(msg) if msg.contains("kaboom")));
        assert!(matches!(outcomes[b], JobOutcome::Skipped { .. }));
        assert_eq!(*outcomes[c].done().unwrap(), 2);
    }

    #[test]
    fn results_fan_out_without_cloning() {
        // A non-Clone payload shared by two dependents via Arc.
        struct Big(Vec<u64>);
        let mut g: JobGraph<'_, Big, String> = JobGraph::new();
        let a = g.add("s", "a", vec![], |_| Ok(Big(vec![7; 1024])));
        let b = g.add("s", "b", vec![a], |d| Ok(Big(vec![d[0].0[0] + 1])));
        let c = g.add("s", "c", vec![a], |d| Ok(Big(vec![d[0].0[0] + 2])));
        let outcomes = g.run(2, &NullSink);
        assert_eq!(outcomes[b].done().unwrap().0[0], 8);
        assert_eq!(outcomes[c].done().unwrap().0[0], 9);
    }

    #[test]
    fn borrowed_state_is_usable_inside_jobs() {
        // Jobs may borrow from the enclosing scope (no 'static bound).
        let base = [1u64, 2, 3];
        let mut g: JobGraph<'_, u64, String> = JobGraph::new();
        for (i, value) in base.iter().enumerate() {
            g.add("s", &format!("j{i}"), vec![], move |_| Ok(*value * 10));
        }
        let outcomes = g.run(2, &NullSink);
        let values: Vec<u64> = outcomes.iter().map(|o| *o.done().unwrap()).collect();
        assert_eq!(values, vec![10, 20, 30]);
    }

    #[test]
    fn events_trace_the_run() {
        let collector = Collector::new();
        let registry = Registry::new();
        let sink = crate::events::Fanout(vec![&collector, &registry]);
        let mut g: JobGraph<'_, u64, String> = JobGraph::new();
        let a = g.add("alpha", "x", vec![], |_| Ok(1));
        let _b = g.add("beta", "x", vec![a], |_| Err("nope".to_string()));
        g.run(2, &sink);
        let events = collector.events();
        assert!(events
            .iter()
            .any(|e| matches!(e, Event::JobFinished { stage, .. } if stage == "alpha")));
        assert!(events
            .iter()
            .any(|e| matches!(e, Event::JobFailed { stage, error, .. }
                 if stage == "beta" && error == "nope")));
        assert_eq!(registry.counter("harness.jobs_finished").get(), 1);
        assert_eq!(registry.counter("harness.jobs_failed").get(), 1);
    }

    #[test]
    #[should_panic(expected = "depends on a job not yet added")]
    fn forward_dependencies_are_rejected() {
        let mut g: JobGraph<'_, u64, String> = JobGraph::new();
        g.add("s", "bad", vec![5], |_| Ok(0));
    }
}
