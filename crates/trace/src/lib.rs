//! `pe-trace` — the workspace observability layer.
//!
//! The paper's power strobe generator exists so the aggregator can be
//! *sampled mid-run*: the product of an emulation run is a power
//! **waveform**, not just an end-of-run total. This crate makes that
//! waveform — and everything else worth watching during a run — a
//! first-class artifact:
//!
//! * [`waveform`] — strobe-aligned power samples (per clock domain and,
//!   optionally, per component) captured from any engine that can read
//!   the instrumented accumulators, with a decimating capture mode so
//!   arbitrarily long runs stay bounded. Waveforms
//!   serialize to a stable text format with an FNV-1a-128 digest and
//!   diff sample-by-sample, naming the first diverging sample.
//! * [`metrics`] — a thread-safe registry of counters, gauges, and
//!   log-scale histograms. Engine crates expose cheap counters (cycles
//!   settled, gate toggles); harness sinks and benches register them
//!   here and render one unified table or JSON document. Flow stages
//!   and run phases are timed into its histograms with
//!   [`Registry::time_us`].
//!
//! The crate depends only on `pe-util` (dependency policy §6 of
//! DESIGN.md): engines feed raw accumulator readings *into* the
//! recorder, so `pe-trace` sits below every engine crate and all of
//! them can register metrics without dependency cycles.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod metrics;
pub mod waveform;

pub use metrics::{Counter, Gauge, Histogram, MetricValue, Registry};
pub use waveform::{
    CaptureMode, Channel, ChannelKind, Divergence, PowerSample, PowerWaveform, WaveformError,
    WaveformRecorder,
};
