//! Spans the benchmark records around its own calls into each layer.
//!
//! The library crates carry no benchmark instrumentation; every span
//! here wraps one public call (or one phase of a replayed batch) from
//! the benchmark's side. Samples stay in memory, keyed by metric name
//! and then by design, and are reduced when the run ends.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::stats;

/// Milliseconds in `d`, as a float.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Per-layer samples (milliseconds) and exact counts of one run.
#[derive(Debug, Default)]
pub struct Trace {
    spans: BTreeMap<&'static str, BTreeMap<String, Vec<f64>>>,
    counts: BTreeMap<&'static str, f64>,
}

impl Trace {
    /// Runs `f` inside a span of `metric` for `key` (a design, or a
    /// replayed batch).
    pub fn time<T>(&mut self, metric: &'static str, key: &str, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.record(metric, key, ms(t.elapsed()));
        out
    }

    /// Records one sample of `metric` for `key`.
    pub fn record(&mut self, metric: &'static str, key: &str, value_ms: f64) {
        self.spans
            .entry(metric)
            .or_default()
            .entry(key.to_string())
            .or_default()
            .push(value_ms);
    }

    /// Adds `n` to the exact count `metric`.
    pub fn count(&mut self, metric: &'static str, n: f64) {
        *self.counts.entry(metric).or_default() += n;
    }

    /// One pass over every key: the sum of each key's median sample.
    pub fn per_key_sum(&self, metric: &str) -> Option<f64> {
        stats::sum_of_medians(self.spans.get(metric)?.values())
    }

    /// The median over every sample of `metric`, pooled across keys.
    pub fn pooled_median(&self, metric: &str) -> Option<f64> {
        let all: Vec<f64> = self
            .spans
            .get(metric)?
            .values()
            .flatten()
            .copied()
            .collect();
        stats::median(&all)
    }

    /// The exact count `metric`, if anything was counted.
    pub fn counted(&self, metric: &str) -> Option<f64> {
        self.counts.get(metric).copied()
    }

    /// Moves `metrics` (spans and counts) out of `other` into `self`,
    /// replacing what `self` held for them.
    pub fn adopt(&mut self, other: &mut Trace, metrics: &[&'static str]) {
        for &m in metrics {
            if let Some(s) = other.spans.remove(m) {
                self.spans.insert(m, s);
            }
            if let Some(c) = other.counts.remove(m) {
                self.counts.insert(m, c);
            }
        }
    }
}
