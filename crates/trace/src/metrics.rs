//! A thread-safe metrics registry: counters, gauges, and log-scale
//! histograms.
//!
//! Handles are cheap `Arc`-backed clones, so a crate can register a
//! metric once and bump it from worker threads without holding the
//! registry lock; reads happen only at snapshot time. Everything is
//! deterministic to render: snapshots are sorted by metric name.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A monotonically increasing counter.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds `n` to the counter.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-write-wins gauge holding an `f64` (stored as bits, so updates
/// are lock-free).
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, value: f64) {
        self.0.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Number of log-scale histogram buckets: bucket `i` counts values `v`
/// with `floor(log2(v)) == i - 1` (bucket 0 counts zeros), so the full
/// `u64` range is covered.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A log-scale (power-of-two bucket) histogram of `u64` observations.
#[derive(Debug, Clone, Default)]
pub struct Histogram(Arc<HistogramInner>);

#[derive(Debug)]
struct HistogramInner {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for HistogramInner {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Records one observation.
    pub fn observe(&self, value: u64) {
        let bucket = (64 - value.leading_zeros()) as usize;
        self.0.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(value, Ordering::Relaxed);
        self.0.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations (wrapping on overflow).
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    /// Largest observation (0 when empty).
    pub fn max(&self) -> u64 {
        self.0.max.load(Ordering::Relaxed)
    }

    /// Mean observation (0.0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() as f64 / n as f64
        }
    }

    /// Non-empty buckets as `(bucket index, count)`, ascending. Bucket 0
    /// holds zeros; bucket `i ≥ 1` holds values in `[2^(i-1), 2^i)`.
    pub fn buckets(&self) -> Vec<(usize, u64)> {
        self.0
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let n = b.load(Ordering::Relaxed);
                (n > 0).then_some((i, n))
            })
            .collect()
    }
}

/// One registered metric, by kind.
#[derive(Debug, Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// A point-in-time reading of one metric.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Counter reading.
    Counter(u64),
    /// Gauge reading.
    Gauge(f64),
    /// Histogram reading: `(count, sum, max)`.
    Histogram {
        /// Observations recorded.
        count: u64,
        /// Sum of observations.
        sum: u64,
        /// Largest observation.
        max: u64,
    },
}

/// The metrics registry. Cloning shares the underlying store, so one
/// registry can be handed to the harness sink, the flow stages, and
/// every engine adapter of a run.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    metrics: Arc<Mutex<BTreeMap<String, Metric>>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Gets or creates the counter `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different kind.
    pub fn counter(&self, name: &str) -> Counter {
        let mut m = self.metrics.lock().expect("registry poisoned");
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Counter::default()))
        {
            Metric::Counter(c) => c.clone(),
            _ => panic!("metric `{name}` is not a counter"),
        }
    }

    /// Gets or creates the gauge `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different kind.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut m = self.metrics.lock().expect("registry poisoned");
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Gauge::default()))
        {
            Metric::Gauge(g) => g.clone(),
            _ => panic!("metric `{name}` is not a gauge"),
        }
    }

    /// Gets or creates the histogram `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different kind.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut m = self.metrics.lock().expect("registry poisoned");
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Histogram::default()))
        {
            Metric::Histogram(h) => h.clone(),
            _ => panic!("metric `{name}` is not a histogram"),
        }
    }

    /// Runs `f` and records its wall clock, in microseconds, as one
    /// observation of the histogram `name`: the one way flow stages and
    /// run phases are timed.
    pub fn time_us<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.histogram(name)
            .observe(start.elapsed().as_micros() as u64);
        out
    }

    /// A sorted point-in-time snapshot of every registered metric.
    pub fn snapshot(&self) -> Vec<(String, MetricValue)> {
        let m = self.metrics.lock().expect("registry poisoned");
        m.iter()
            .map(|(name, metric)| {
                let value = match metric {
                    Metric::Counter(c) => MetricValue::Counter(c.get()),
                    Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                    Metric::Histogram(h) => MetricValue::Histogram {
                        count: h.count(),
                        sum: h.sum(),
                        max: h.max(),
                    },
                };
                (name.clone(), value)
            })
            .collect()
    }

    /// Renders the snapshot as an aligned human-readable table.
    pub fn render(&self) -> String {
        let snap = self.snapshot();
        let mut out = String::from("metrics:\n");
        for (name, value) in &snap {
            match value {
                MetricValue::Counter(v) => {
                    let _ = writeln!(out, "  {name:<40} {v}");
                }
                MetricValue::Gauge(v) => {
                    let _ = writeln!(out, "  {name:<40} {v:.3}");
                }
                MetricValue::Histogram { count, sum, max } => {
                    let mean = if *count == 0 {
                        0.0
                    } else {
                        *sum as f64 / *count as f64
                    };
                    let _ = writeln!(out, "  {name:<40} count={count} mean={mean:.1} max={max}");
                }
            }
        }
        out
    }

    /// Renders the snapshot as a JSON object (one key per metric;
    /// histograms become `{"count":…,"sum":…,"max":…}` objects).
    pub fn render_json(&self, indent: &str) -> String {
        let snap = self.snapshot();
        let mut out = String::from("{");
        for (i, (name, value)) in snap.iter().enumerate() {
            let _ = write!(out, "\n{indent}  \"{}\": ", json_escape(name));
            match value {
                MetricValue::Counter(v) => {
                    let _ = write!(out, "{v}");
                }
                MetricValue::Gauge(v) => {
                    let _ = write!(out, "{}", json_f64(*v));
                }
                MetricValue::Histogram { count, sum, max } => {
                    let _ = write!(
                        out,
                        "{{\"count\": {count}, \"sum\": {sum}, \"max\": {max}}}"
                    );
                }
            }
            if i + 1 < snap.len() {
                out.push(',');
            }
        }
        let _ = write!(out, "\n{indent}}}");
        out
    }
}

/// Escapes a string for embedding in a JSON document.
fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Renders an `f64` as a JSON number (finite values only; non-finite
/// values render as 0 to keep the document valid).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_gauges_histograms_round_trip() {
        let reg = Registry::new();
        let c = reg.counter("jobs_finished");
        c.add(3);
        c.inc();
        assert_eq!(c.get(), 4);
        // A second lookup shares the same underlying cell.
        assert_eq!(reg.counter("jobs_finished").get(), 4);

        let g = reg.gauge("lane_occupancy");
        g.set(0.75);
        assert!((reg.gauge("lane_occupancy").get() - 0.75).abs() < 1e-12);

        let h = reg.histogram("job_wall_us");
        for v in [0, 1, 2, 3, 1000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1006);
        assert_eq!(h.max(), 1000);
        assert!((h.mean() - 201.2).abs() < 1e-9);
        // Log-scale buckets: 0 → bucket 0, 1 → 1, 2..3 → 2, 1000 → 10.
        assert_eq!(h.buckets(), vec![(0, 1), (1, 1), (2, 2), (10, 1)]);
    }

    #[test]
    fn snapshot_is_sorted_and_render_is_stable() {
        let reg = Registry::new();
        reg.counter("z_last").inc();
        reg.gauge("a_first").set(1.0);
        reg.histogram("m_mid").observe(7);
        let snap = reg.snapshot();
        let names: Vec<&str> = snap.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["a_first", "m_mid", "z_last"]);
        let text = reg.render();
        assert!(text.contains("a_first"));
        assert!(text.contains("count=1 mean=7.0 max=7"));
        let json = reg.render_json("  ");
        assert!(json.contains("\"z_last\": 1"));
        assert!(json.contains("\"m_mid\": {\"count\": 1, \"sum\": 7, \"max\": 7}"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn time_us_records_one_observation_per_call() {
        let reg = Registry::new();
        let v = reg.time_us("stage_us", || 7);
        assert_eq!(v, 7);
        reg.time_us("stage_us", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        let h = reg.histogram("stage_us");
        assert_eq!(h.count(), 2);
        assert!(h.max() >= 2000, "slept 2 ms, recorded {} us", h.max());
    }

    #[test]
    fn registry_clones_share_the_store() {
        let reg = Registry::new();
        let clone = reg.clone();
        clone.counter("shared").add(2);
        assert_eq!(reg.counter("shared").get(), 2);
    }

    #[test]
    fn concurrent_updates_lose_nothing() {
        let reg = Registry::new();
        let c = reg.counter("contended");
        let h = reg.histogram("contended_h");
        std::thread::scope(|s| {
            for _ in 0..8 {
                let c = c.clone();
                let h = h.clone();
                s.spawn(move || {
                    for i in 0..1000 {
                        c.inc();
                        h.observe(i);
                    }
                });
            }
        });
        assert_eq!(c.get(), 8000);
        assert_eq!(h.count(), 8000);
    }

    #[test]
    #[should_panic(expected = "is not a counter")]
    fn kind_mismatch_panics() {
        let reg = Registry::new();
        reg.gauge("x");
        reg.counter("x");
    }
}
