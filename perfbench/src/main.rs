//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads:
//!
//! * `serve-wave-small` — closed loop, 128 logical clients in lockstep
//!   waves against an in-process `pe_serve::Scheduler`; each wave is 128
//!   requests for one small design (rotating Bubble_Sort, HVPeakF, Ispq,
//!   Vld) at 512 cycles, served as exactly one 128-lane batch.
//! * `serve-wave-dct` — the same wave shape on DCT at 2048 cycles.
//! * `figure3-flow` — serial passes of the Figure-3 flow over the six
//!   non-MPEG4 suite designs.
//!
//! With `--trace 0` the run prints the end-to-end metrics; with
//! `--trace 1` it prints the per-layer metrics from spans the benchmark
//! records around its own calls into each layer. Every run checks its
//! outputs against references and prints, as the last line of stdout,
//! one JSON object: `{"correct", "attempted", "failed", "metrics"}`.

mod flow;
mod prep;
mod serve;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Duration;

use trace::Trace;

/// How a per-layer metric is reduced from the run's trace.
#[derive(Clone, Copy)]
enum Reduce {
    /// Σ over designs (or replayed batches) of each one's median span.
    PerKeySum,
    /// Median of every span, pooled (one sample per call or request).
    Median,
    /// An exact count or a single derived value.
    Value,
}

/// Every per-layer metric the traced run reports, with its unit.
const PER_LAYER: &[(&str, &str, Reduce)] = &[
    ("serve.submit_ms", "ms", Reduce::Median),
    ("designs.lookup_ms", "ms", Reduce::Median),
    ("serve.queue_wait_ms", "ms", Reduce::Median),
    ("serve.batches", "count", Reduce::Value),
    ("serve.lanes_per_batch", "count", Reduce::Value),
    ("serve.batch_ms", "ms", Reduce::Value),
    ("gen.late_ms", "ms", Reduce::Median),
    ("characterize.cold_ms", "ms", Reduce::PerKeySum),
    ("characterize.warm_ms", "ms", Reduce::PerKeySum),
    ("instrument.ms", "ms", Reduce::PerKeySum),
    ("lint.ms", "ms", Reduce::PerKeySum),
    ("tape.compile_ms", "ms", Reduce::PerKeySum),
    ("tape.optimize_ms", "ms", Reduce::PerKeySum),
    ("tape.validate_ms", "ms", Reduce::PerKeySum),
    ("tape.instrs", "count", Reduce::Value),
    ("tape.instrs_removed", "count", Reduce::Value),
    ("sim.drive_ms", "ms", Reduce::PerKeySum),
    ("sim.settle_ms", "ms", Reduce::PerKeySum),
    ("sim.observe_ms", "ms", Reduce::PerKeySum),
    ("sim.capture_ms", "ms", Reduce::PerKeySum),
    ("sim.readout_ms", "ms", Reduce::PerKeySum),
    ("sim.settle_count", "count", Reduce::Value),
    ("map.ms", "ms", Reduce::PerKeySum),
    ("timing.ms", "ms", Reduce::PerKeySum),
    ("partition.ms", "ms", Reduce::PerKeySum),
    ("map.luts", "count", Reduce::Value),
    ("estimate.ms", "ms", Reduce::PerKeySum),
    ("trace.ops_per_s", "1/s", Reduce::Value),
    ("trace.overhead_pct", "%", Reduce::Value),
];

/// The per-layer metrics only the serve side of the stack produces; a
/// figure3-flow traced run takes them from its serve probe.
pub const SERVE_LAYERS: &[&str] = &[
    "serve.submit_ms",
    "designs.lookup_ms",
    "serve.queue_wait_ms",
    "serve.batches",
    "serve.lanes_per_batch",
    "serve.batch_ms",
    "gen.late_ms",
    "tape.compile_ms",
    "tape.optimize_ms",
    "tape.validate_ms",
    "tape.instrs",
    "tape.instrs_removed",
    "sim.drive_ms",
    "sim.settle_ms",
    "sim.observe_ms",
    "sim.capture_ms",
    "sim.readout_ms",
    "sim.settle_count",
    "trace.overhead_pct",
];

/// The per-layer metrics only the Figure-3 side produces; a serve
/// traced run takes them from a flow probe over its own designs.
pub const FLOW_LAYERS: &[&str] = &[
    "map.ms",
    "timing.ms",
    "partition.ms",
    "map.luts",
    "estimate.ms",
];

/// What one run measured and checked.
#[derive(Default)]
pub struct Report {
    /// Operations attempted in the measured window.
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    /// Every output-check failure, in words; empty means correct.
    pub problems: Vec<String>,
    /// End-to-end metrics other than `peak_rss_mb`, as (name, value, unit).
    pub end_to_end: Vec<(&'static str, f64, &'static str)>,
    /// Per-layer spans and counts.
    pub trace: Trace,
    /// Human-readable lines for the summary.
    pub notes: Vec<String>,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    ServeWaveSmall,
    ServeWaveDct,
    Figure3Flow,
}

const WORKLOADS: &[(&str, Workload)] = &[
    ("serve-wave-small", Workload::ServeWaveSmall),
    ("serve-wave-dct", Workload::ServeWaveDct),
    ("figure3-flow", Workload::Figure3Flow),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: Duration,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let w = WORKLOADS
                    .iter()
                    .find(|(name, _)| name == value)
                    .ok_or_else(|| format!("unknown workload `{value}`"))?;
                workload = Some(w.1);
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("--seed `{value}` is not a whole number"))?,
                );
            }
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0 && *s <= 3600.0)
                    .ok_or_else(|| format!("--seconds `{value}` is not in 0..=3600"))?;
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace `{value}` is not 0 or 1")),
                });
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// A per-run scratch directory inside the working directory, removed
/// when the run ends (the benchmark writes nowhere else).
struct Scratch(PathBuf);

impl Scratch {
    fn create() -> std::io::Result<Self> {
        let dir = Path::new(".perfbench_tmp").join(std::process::id().to_string());
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(Self(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leaves the parent in place when another run still uses it.
        let _ = std::fs::remove_dir(".perfbench_tmp");
    }
}

/// The process's peak resident set, in MiB, from the kernel's
/// high-water mark.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

fn per_layer_value(trace: &Trace, name: &str, reduce: Reduce) -> Option<f64> {
    match reduce {
        Reduce::PerKeySum => trace.per_key_sum(name),
        Reduce::Median => trace.pooled_median(name),
        Reduce::Value => trace.counted(name),
    }
}

fn json_number(v: f64) -> String {
    // Rust's shortest round-trip form keeps every digit of the measurement.
    format!("{v:?}")
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.iter().map(|w| w.0).collect::<Vec<_>>().join("|")
            );
            std::process::exit(2);
        }
    };
    let scratch = match Scratch::create() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench: cannot create the scratch directory: {e}");
            std::process::exit(1);
        }
    };
    let (seed, seconds, traced, dir) = (args.seed, args.seconds, args.trace, &scratch.0);
    let mut report = match args.workload {
        Workload::ServeWaveSmall => serve::run(&serve::WAVE_SMALL, seed, seconds, traced, dir),
        Workload::ServeWaveDct => serve::run(&serve::WAVE_DCT, seed, seconds, traced, dir),
        Workload::Figure3Flow => flow::run(seed, seconds, traced, dir),
    };
    drop(scratch);

    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if args.trace {
        for &(name, unit, reduce) in PER_LAYER {
            match per_layer_value(&report.trace, name, reduce) {
                Some(v) if v.is_finite() => metrics.push((name, v, unit)),
                _ => report
                    .problems
                    .push(format!("per-layer metric `{name}` was not measured")),
            }
        }
    } else {
        metrics.extend(report.end_to_end.iter().copied());
        match peak_rss_mb() {
            Some(v) => metrics.push(("peak_rss_mb", v, "MB")),
            None => report
                .problems
                .push("peak_rss_mb: no VmHWM in /proc/self/status".to_string()),
        }
    }

    for note in &report.notes {
        println!("{note}");
    }
    for (name, value, unit) in &metrics {
        println!("{name:<24} {value:>14.4} {unit}");
    }
    for p in &report.problems {
        eprintln!("perfbench: CHECK FAILED: {p}");
    }
    let mut json = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        report.problems.is_empty(),
        report.attempted.max(1),
        report.failed
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(*value)
        );
    }
    json.push_str("}}");
    println!("{json}");
}
