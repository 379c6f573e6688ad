//! The observability benchmark: captures strobe-aligned power waveforms
//! for every suite design on the serial engine and the compiled tape,
//! verifies
//! each waveform integrates bit-exactly to the engine's cumulative
//! energy readback, measures the wall-clock cost of tracing, and writes
//! `BENCH_trace.json` plus one `.waveform` file per design.
//!
//! Usage: `cargo run -p pe-bench --release --bin trace --
//! [--scale test|paper] [--jobs N] [--cache-dir DIR] [--out PATH]
//! [--waveform-dir DIR] [--sample-period N] [--capture MODE]
//! [--lanes 64|128|256]`
//!
//! The wide leg runs on the compiled instruction tape and the serial
//! leg on the reference simulator, so every run doubles as a
//! cross-engine bit-exactness check (the assemble stage rejects the
//! first diverging sample). `--lanes` picks the wide leg's lane-word
//! width (default 64); the traced lane-0 waveform must be identical at
//! every width.
//!
//! `--jobs 1` (the default) keeps the overhead columns uncontended.
//! `--sample-period N` samples every Nth strobe boundary; the default 64
//! keeps the accumulator-port readback off the hot path (measured
//! overhead well under 10%), while `--sample-period 1` captures every
//! boundary at roughly the cost of a second simulation. `--capture`
//! takes `unbounded` or `decimate:N`; the default `decimate:4096` bounds
//! file sizes while keeping the waveform integral exact.

use pe_bench::cli::{BenchArgs, CliError, FlagExt};
use pe_bench::standard_flow;
use pe_designs::suite::all_benchmarks;
use pe_harness::trace::{mean_overhead_pct, render_json, run_trace_bench};
use pe_harness::{Fanout, StderrLines};
use pe_trace::{CaptureMode, Registry};
use std::path::PathBuf;

struct TraceExt {
    out: PathBuf,
    waveform_dir: PathBuf,
    sample_period: u32,
    capture: CaptureMode,
    lanes: usize,
}

fn parse_capture(raw: &str) -> Result<CaptureMode, CliError> {
    let invalid = || {
        CliError::Invalid(format!(
            "unknown --capture `{raw}` (expected `unbounded` or `decimate:N`)"
        ))
    };
    if raw == "unbounded" {
        return Ok(CaptureMode::Unbounded);
    }
    match raw.split_once(':') {
        Some(("decimate", n)) => n
            .parse()
            .ok()
            .filter(|&c| c >= 2)
            .map(CaptureMode::Decimate)
            .ok_or_else(invalid),
        _ => Err(invalid()),
    }
}

impl FlagExt for TraceExt {
    fn flag(
        &mut self,
        flag: &str,
        value: &mut dyn FnMut(&str) -> Result<String, CliError>,
    ) -> Result<bool, CliError> {
        match flag {
            "--out" => self.out = PathBuf::from(value("--out")?),
            "--waveform-dir" => self.waveform_dir = PathBuf::from(value("--waveform-dir")?),
            "--sample-period" => {
                let raw = value("--sample-period")?;
                self.sample_period = raw.parse().ok().filter(|&n| n >= 1).ok_or_else(|| {
                    CliError::Invalid(format!("--sample-period `{raw}` is not a positive integer"))
                })?;
            }
            "--capture" => self.capture = parse_capture(&value("--capture")?)?,
            "--lanes" => {
                let raw = value("--lanes")?;
                self.lanes = match raw.as_str() {
                    "64" => 64,
                    "128" => 128,
                    "256" => 256,
                    _ => {
                        return Err(CliError::Invalid(format!(
                            "--lanes `{raw}` is not one of 64, 128, 256"
                        )))
                    }
                };
            }
            _ => return Ok(false),
        }
        Ok(true)
    }
}

fn main() {
    let mut ext = TraceExt {
        out: PathBuf::from("BENCH_trace.json"),
        waveform_dir: PathBuf::from("waveforms"),
        sample_period: 64,
        capture: CaptureMode::Decimate(4096),
        lanes: 64,
    };
    let args = BenchArgs::from_env_with(
        "trace",
        &mut ext,
        "\x20 --out PATH           result JSON path (default: BENCH_trace.json)\n\
         \x20 --waveform-dir DIR   per-design waveform files (default: waveforms/)\n\
         \x20 --sample-period N    sample every N strobes (default: 64)\n\
         \x20 --capture MODE       unbounded | decimate:N (default: decimate:4096)\n\
         \x20 --lanes N            wide-leg lane width, 64 | 128 | 256 (default: 64)\n",
    );
    let cache = args.open_cache();
    let benchmarks = all_benchmarks();

    println!(
        "observability evaluation — power waveforms and tracing overhead \
         ({:?} scale, {} job(s), tape at {} lanes)",
        args.scale, args.jobs, ext.lanes
    );
    println!("(every waveform must integrate bit-exactly to the engine's cumulative energy");
    println!(" readback, and serial vs wide lane 0 must match sample-for-sample)");
    println!();

    let registry = Registry::new();
    let progress = StderrLines::new("trace", false);
    let sink = Fanout(vec![&progress, &registry]);
    let rows = match run_trace_bench(
        &standard_flow,
        &benchmarks,
        args.scale,
        ext.lanes,
        ext.sample_period,
        ext.capture,
        args.jobs,
        cache.as_ref(),
        &registry,
        &sink,
    ) {
        Ok(rows) => rows,
        Err(e) => {
            eprintln!("[trace] {e}");
            std::process::exit(1);
        }
    };

    println!(
        "{:<14} {:>9} {:>8} {:>8} {:>14} {:>10}  digest",
        "design", "cycles", "strobes", "samples", "energy (fJ)", "overhead"
    );
    for (r, _) in &rows {
        println!(
            "{:<14} {:>9} {:>8} {:>8} {:>14.1} {:>9.1}%  {}",
            r.design, r.cycles, r.strobes, r.samples, r.energy_fj, r.overhead_pct, r.digest
        );
    }
    println!();
    println!(
        "mean tracing overhead: {:.1}% (sample period {}, capture {:?})",
        mean_overhead_pct(&rows.iter().map(|(r, _)| r.clone()).collect::<Vec<_>>()),
        ext.sample_period,
        ext.capture
    );

    if let Err(e) = std::fs::create_dir_all(&ext.waveform_dir) {
        eprintln!("[trace] cannot create {}: {e}", ext.waveform_dir.display());
        std::process::exit(1);
    }
    for (r, waveform) in &rows {
        let path = ext.waveform_dir.join(format!("{}.waveform", r.design));
        if let Err(e) = std::fs::write(&path, waveform.to_text()) {
            eprintln!("[trace] cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
        println!("wrote {}", path.display());
    }

    let trace_rows: Vec<_> = rows.iter().map(|(r, _)| r.clone()).collect();
    let doc = render_json(&trace_rows, args.scale, ext.sample_period, &registry);
    match std::fs::write(&ext.out, &doc) {
        Ok(()) => println!("wrote {}", ext.out.display()),
        Err(e) => {
            eprintln!("[trace] cannot write {}: {e}", ext.out.display());
            std::process::exit(1);
        }
    }

    println!();
    print!("{}", registry.render());
}
