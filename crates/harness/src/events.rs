//! Structured progress and metrics events.
//!
//! Every observable step of a harness run — a job changing state, a
//! cache probe — is emitted as an [`Event`] to an [`EventSink`]. Events
//! render as single `key=value` lines ([`fmt::Display`]), so a binary
//! can stream them to stderr for live progress ([`StderrLines`]) while
//! the run's [`pe_trace::Registry`], itself an [`EventSink`], counts
//! the same stream into `harness.*` job, cache and per-stage wall-clock
//! metrics beside the engine counters.

use std::fmt;
use std::sync::Mutex;
use std::time::Duration;

use crate::cache::MissReason;
use crate::executor::JobId;

/// One observable step of a harness run.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A job was added to the schedule.
    JobQueued {
        /// Job id (stable across runs of the same schedule).
        id: JobId,
        /// Flow stage the job belongs to (`characterize`, `map`, …).
        stage: String,
        /// Human label, usually the design name.
        label: String,
    },
    /// A worker began executing a job.
    JobStarted {
        /// Job id.
        id: JobId,
        /// Flow stage.
        stage: String,
        /// Human label.
        label: String,
    },
    /// A job finished successfully.
    JobFinished {
        /// Job id.
        id: JobId,
        /// Flow stage.
        stage: String,
        /// Human label.
        label: String,
        /// Wall-clock spent inside the job closure.
        wall: Duration,
    },
    /// A job returned an error (or panicked).
    JobFailed {
        /// Job id.
        id: JobId,
        /// Flow stage.
        stage: String,
        /// Human label.
        label: String,
        /// Wall-clock spent inside the job closure.
        wall: Duration,
        /// Rendered error.
        error: String,
    },
    /// A job was skipped because a dependency did not complete.
    JobSkipped {
        /// Job id.
        id: JobId,
        /// Flow stage.
        stage: String,
        /// Human label.
        label: String,
        /// The dependency that failed.
        failed_dep: JobId,
    },
    /// A model library was served from the artifact cache.
    CacheHit {
        /// Human label, usually the design name.
        label: String,
        /// Content address (hex).
        key: String,
    },
    /// A cache probe found nothing usable.
    CacheMiss {
        /// Human label.
        label: String,
        /// Content address (hex).
        key: String,
        /// Why the probe missed.
        reason: MissReason,
    },
    /// A freshly characterized library was written to the cache.
    CacheStored {
        /// Human label.
        label: String,
        /// Content address (hex).
        key: String,
    },
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Event::JobQueued { id, stage, label } => {
                write!(f, "event=queued job={id} stage={stage} label={label}")
            }
            Event::JobStarted { id, stage, label } => {
                write!(f, "event=started job={id} stage={stage} label={label}")
            }
            Event::JobFinished {
                id,
                stage,
                label,
                wall,
            } => write!(
                f,
                "event=finished job={id} stage={stage} label={label} wall_ms={:.1}",
                wall.as_secs_f64() * 1e3
            ),
            Event::JobFailed {
                id,
                stage,
                label,
                wall,
                error,
            } => write!(
                f,
                "event=failed job={id} stage={stage} label={label} wall_ms={:.1} error={error}",
                wall.as_secs_f64() * 1e3
            ),
            Event::JobSkipped {
                id,
                stage,
                label,
                failed_dep,
            } => write!(
                f,
                "event=skipped job={id} stage={stage} label={label} failed_dep={failed_dep}"
            ),
            Event::CacheHit { label, key } => {
                write!(f, "event=cache_hit label={label} key={key}")
            }
            Event::CacheMiss { label, key, reason } => {
                write!(
                    f,
                    "event=cache_miss label={label} key={key} reason={reason}"
                )
            }
            Event::CacheStored { label, key } => {
                write!(f, "event=cache_stored label={label} key={key}")
            }
        }
    }
}

/// A consumer of harness events. Sinks are shared across worker threads,
/// hence the `Sync` bound.
pub trait EventSink: Sync {
    /// Receives one event. Implementations must not panic.
    fn emit(&self, event: &Event);
}

/// Discards everything.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl EventSink for NullSink {
    fn emit(&self, _event: &Event) {}
}

/// Streams each event as one line on stderr, prefixed with a tag —
/// the live-progress view of a run.
#[derive(Debug)]
pub struct StderrLines {
    tag: String,
    /// When false, per-job queued/started lines are suppressed and only
    /// finished/failed/skipped and cache events are printed.
    verbose: bool,
}

impl StderrLines {
    /// A sink printing `[tag] <event line>`.
    pub fn new(tag: &str, verbose: bool) -> Self {
        Self {
            tag: tag.to_string(),
            verbose,
        }
    }
}

impl EventSink for StderrLines {
    fn emit(&self, event: &Event) {
        if !self.verbose && matches!(event, Event::JobQueued { .. } | Event::JobStarted { .. }) {
            return;
        }
        eprintln!("[{}] {event}", self.tag);
    }
}

/// Fans one event stream out to several sinks.
pub struct Fanout<'a>(pub Vec<&'a dyn EventSink>);

impl EventSink for Fanout<'_> {
    fn emit(&self, event: &Event) {
        for sink in &self.0 {
            sink.emit(event);
        }
    }
}

/// Collects raw events for inspection (tests, post-processing).
#[derive(Debug, Default)]
pub struct Collector {
    events: Mutex<Vec<Event>>,
}

impl Collector {
    /// An empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// A snapshot of everything collected so far.
    pub fn events(&self) -> Vec<Event> {
        self.events.lock().expect("collector poisoned").clone()
    }
}

impl EventSink for Collector {
    fn emit(&self, event: &Event) {
        self.events
            .lock()
            .expect("collector poisoned")
            .push(event.clone());
    }
}

/// The run's metrics registry is an event sink: job and cache activity
/// lands in the same table as engine counters and bench gauges.
/// Counters: `harness.jobs_queued`, `harness.jobs_finished`,
/// `harness.jobs_failed`, `harness.jobs_skipped`, `harness.cache_hits`,
/// `harness.cache_misses`, `harness.cache_stores`. Per-stage job
/// wall-clock, finished and failed alike, is observed (in microseconds)
/// into `harness.job_wall_us.<stage>` histograms.
impl EventSink for pe_trace::Registry {
    fn emit(&self, event: &Event) {
        match event {
            Event::JobQueued { .. } => self.counter("harness.jobs_queued").inc(),
            Event::JobStarted { .. } => {}
            Event::JobFinished { stage, wall, .. } => {
                self.counter("harness.jobs_finished").inc();
                self.histogram(&format!("harness.job_wall_us.{stage}"))
                    .observe(wall.as_micros() as u64);
            }
            Event::JobFailed { stage, wall, .. } => {
                self.counter("harness.jobs_failed").inc();
                self.histogram(&format!("harness.job_wall_us.{stage}"))
                    .observe(wall.as_micros() as u64);
            }
            Event::JobSkipped { .. } => self.counter("harness.jobs_skipped").inc(),
            Event::CacheHit { .. } => self.counter("harness.cache_hits").inc(),
            Event::CacheMiss { .. } => self.counter("harness.cache_misses").inc(),
            Event::CacheStored { .. } => self.counter("harness.cache_stores").inc(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_render_as_single_key_value_lines() {
        let e = Event::JobFinished {
            id: 3,
            stage: "characterize".into(),
            label: "DCT".into(),
            wall: Duration::from_millis(1500),
        };
        let line = e.to_string();
        assert_eq!(
            line,
            "event=finished job=3 stage=characterize label=DCT wall_ms=1500.0"
        );
        assert!(!line.contains('\n'));
    }

    #[test]
    fn fanout_reaches_every_sink() {
        let a = Collector::new();
        let b = pe_trace::Registry::new();
        let fan = Fanout(vec![&a, &b]);
        fan.emit(&Event::CacheStored {
            label: "x".into(),
            key: "ff".into(),
        });
        assert_eq!(a.events().len(), 1);
        assert_eq!(b.counter("harness.cache_stores").get(), 1);
    }
}
