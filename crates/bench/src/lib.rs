//! Shared setup for the evaluation binaries and microbenchmarks.
//!
//! Binaries (run with `cargo run -p pe-bench --release --bin <name>`):
//!
//! * `figure3` — regenerates the paper's Figure 3 (execution times and
//!   speedups per design). `--scale test` for a quick pass.
//! * `accuracy` — the "little or no tradeoff in accuracy" cross-check
//!   (gate-level vs. software vs. emulated energy).
//! * `overhead` — instrumentation area overhead per design (the paper's
//!   closing concern), plus coefficient-width and strobe-period ablations.
//! * `capacity` — device-fit and multi-FPGA partitioning study.
//! * `lint` — the `pe-lint` static soundness gate over the suite as it
//!   is served (`--deny all` for CI, `--machine` for `key=value`
//!   output), with every plain and served tape translation-validated.
//! * `trace` — the observability benchmark: per-design power waveforms
//!   (serial engine and compiled tape, bit-exact integral invariant), flow-stage
//!   timings, and measured tracing overhead (`BENCH_trace.json` plus
//!   one `.waveform` file per design).
//!
//! Every binary speaks the shared [`cli`] dialect (`--scale`, `--jobs`,
//! `--cache-dir`, `--help`) and runs on the `pe-harness` executor, so
//! `--jobs N` overlaps per-design work and `--cache-dir` makes repeat
//! runs skip characterization entirely. `--jobs 1` (the default) keeps
//! measured wall-clock columns uncontended.
//!
//! The `[[bench]]` targets use the std-only [`microbench`] runner to
//! measure the genuinely wall-clock-measurable pieces: estimator
//! throughput, simulator throughput, and flow-stage costs.
//!
//! Served-request load lives in the standalone `perfbench/` package
//! (closed-loop clients against the `pe-serve` scheduler); bit-exact
//! lane packing is checked by `pe-serve`'s `differential` test.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod microbench;

use pe_core::PowerEmulationFlow;
use pe_power::CharacterizeConfig;

/// The flow configuration used for all reported numbers.
pub fn standard_flow() -> PowerEmulationFlow {
    PowerEmulationFlow::new().with_characterize(CharacterizeConfig::standard())
}

/// A faster flow for smoke runs and microbenchmarks.
pub fn fast_flow() -> PowerEmulationFlow {
    PowerEmulationFlow::new().with_characterize(CharacterizeConfig::fast())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flows_construct() {
        let _ = standard_flow();
        let _ = fast_flow();
    }
}
