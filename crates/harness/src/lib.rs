//! `pe-harness` — deterministic parallel experiment orchestration.
//!
//! The evaluation binaries all run the same shape of work: a flow of
//! stages (characterize → instrument → map → time → estimate) fanned
//! across (design × configuration × scale) points. This crate turns that
//! shape into infrastructure:
//!
//! * [`executor`] — a std-only thread-pool executor (`std::thread` +
//!   `mpsc`) running a dependency-aware [`executor::JobGraph`]; outcomes
//!   come back in submission order, so reported numbers are independent
//!   of scheduling interleavings.
//! * [`cache`] — a content-addressed on-disk cache of characterized
//!   [`pe_power::ModelLibrary`] artifacts, keyed by the FNV-1a-128 hash
//!   of the flattened netlist text and the characterization config.
//!   Damaged entries silently fall back to recharacterization.
//! * [`events`] — structured progress/metrics events as line-oriented
//!   `key=value` records, streamed live to stderr and counted into the
//!   run's [`pe_trace::Registry`] as `harness.*` job, cache and
//!   per-stage wall-clock metrics.
//! * [`figure3`] — the paper's evaluation rebuilt on the executor: six
//!   jobs per benchmark, rows bit-identical to the serial path.
//! * [`wide`] — the bit-parallel throughput benchmark: 64 testbench
//!   shards per design through the serial RTL engine and the compiled
//!   tape at 64/128/256 lanes, with per-lane waveform digests verified
//!   before any speedup is reported.
//! * [`trace`] — the observability benchmark: strobe-aligned power
//!   waveforms from the serial engine and the tape (bit-exact integral
//!   against the energy readback), flow-stage timings, and measured
//!   tracing overhead, emitted as `BENCH_trace.json` plus per-design
//!   waveform files.
//!
//! Dependency policy (§6 of DESIGN.md) holds: standard library only.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod events;
pub mod executor;
pub mod figure3;
pub mod trace;
pub mod wide;

pub use cache::{obtain_library, CacheKey, MissReason, ModelCache};
pub use events::{Collector, Event, EventSink, Fanout, NullSink, StderrLines};
pub use executor::{JobGraph, JobId, JobOutcome};
pub use figure3::{run_figure3, FlowFactory, HarnessError};
pub use trace::{run_trace_bench, TraceRow};
pub use wide::{run_wide_bench, WideRow};
