//! The bit-parallel throughput benchmark: runs every suite design's
//! testbench through 64 serial single-lane simulations, then through the
//! compiled tape (baseline and optimized) at every requested lane width
//! (64, 128, 256 — lane `l` replays shard `l % 64`), verifies the
//! waveforms bit-identical lane by lane at every width, and writes the
//! measurements to `BENCH_wide.json` with per-width geomeans of the
//! serial-equivalent speedups.
//!
//! Usage: `cargo run -p pe-bench --release --bin wide --
//! [--scale test|paper] [--jobs N] [--lanes LIST] [--cache-dir DIR]
//! [--out PATH]`
//!
//! `--jobs 1` (the default) keeps the measured wall-clock columns
//! uncontended; higher counts overlap designs and are useful only for a
//! quick correctness pass. `--lanes` takes a comma-separated subset of
//! `64,128,256` (default: all three). `--cache-dir` is accepted (every
//! binary speaks the full shared dialect) but has no effect here: the
//! wide benchmark simulates raw designs and never characterizes.

use pe_bench::cli::{BenchArgs, CliError, FlagExt};
use pe_designs::suite::all_benchmarks;
use pe_harness::wide::{
    geomean_opt_speedup, geomean_settle_mlcps, geomean_tape_speedup, render_json, rows_at,
    run_wide_bench, widths_present, WIDE_BENCH_WIDTHS,
};
use pe_harness::{Fanout, StderrLines};
use pe_trace::Registry;
use std::path::PathBuf;

struct WideExt {
    out: PathBuf,
    lanes: Vec<usize>,
}

impl FlagExt for WideExt {
    fn flag(
        &mut self,
        flag: &str,
        value: &mut dyn FnMut(&str) -> Result<String, CliError>,
    ) -> Result<bool, CliError> {
        match flag {
            "--out" => self.out = PathBuf::from(value("--out")?),
            "--lanes" => {
                let raw = value("--lanes")?;
                let mut widths = Vec::new();
                for part in raw.split(',') {
                    match part.trim() {
                        "64" => widths.push(64),
                        "128" => widths.push(128),
                        "256" => widths.push(256),
                        other => {
                            return Err(CliError::Invalid(format!(
                                "--lanes: unsupported width {other:?} (expected a \
                                 comma-separated subset of 64,128,256)"
                            )))
                        }
                    }
                }
                if widths.is_empty() {
                    return Err(CliError::Invalid("--lanes: empty width list".into()));
                }
                self.lanes = widths;
            }
            _ => return Ok(false),
        }
        Ok(true)
    }
}

fn main() {
    let mut ext = WideExt {
        out: PathBuf::from("BENCH_wide.json"),
        lanes: WIDE_BENCH_WIDTHS.to_vec(),
    };
    let args = BenchArgs::from_env_with(
        "wide",
        &mut ext,
        "\x20 --out PATH           result JSON path (default: BENCH_wide.json)\n\
         \x20 --lanes LIST         lane widths to run, comma-separated subset of\n\
         \x20                      64,128,256 (default: 64,128,256)\n",
    );
    let benchmarks = all_benchmarks();

    println!(
        "bit-parallel evaluation — compiled tape at {} lanes vs serial \
         ({:?} scale, {} job(s))",
        ext.lanes
            .iter()
            .map(|w| w.to_string())
            .collect::<Vec<_>>()
            .join("/"),
        args.scale,
        args.jobs
    );
    println!("(each design: 64 seeded testbench shards, lane l replaying shard l%64; every");
    println!(" lane's waveform digest is verified bit-identical to its serial shard at every");
    println!(" width before speedup is reported; speedups are serial-equivalent)");
    println!();

    let progress = StderrLines::new("wide", false);
    let registry = Registry::new();
    let sink = Fanout(vec![&progress, &registry]);
    let rows = match run_wide_bench(&benchmarks, args.scale, args.jobs, &ext.lanes, &sink) {
        Ok(rows) => rows,
        Err(e) => {
            eprintln!("[wide] {e}");
            std::process::exit(1);
        }
    };

    println!(
        "{:<14} {:>9} {:>6} {:>12} {:>12} {:>9} {:>11} {:>9} {:>12}  digest",
        "design",
        "cycles",
        "lanes",
        "serial (s)",
        "tape (s)",
        "tape x",
        "instrs",
        "opt x",
        "settle Mlc/s"
    );
    for r in &rows {
        println!(
            "{:<14} {:>9} {:>6} {:>12.4} {:>12.4} {:>8.1}x {:>5}->{:<4} {:>8.1}x {:>12.1}  {}",
            r.design,
            r.cycles,
            r.lanes,
            r.serial_seconds,
            r.tape_seconds,
            r.tape_speedup,
            r.tape_pre_instructions,
            r.tape_post_instructions,
            r.opt_speedup,
            r.settle_mlcps,
            r.digest
        );
    }
    println!();
    for w in widths_present(&rows) {
        let at = rows_at(&rows, w);
        println!(
            "{w:>4} lanes: geomean speedup over serial: tape {:>6.1}x   optimized tape {:>6.1}x   \
             settle phase {:>8.1} Mlane-cycles/s",
            geomean_tape_speedup(&at),
            geomean_opt_speedup(&at),
            geomean_settle_mlcps(&at)
        );
    }
    println!();

    let doc = render_json(&rows, args.scale);
    match std::fs::write(&ext.out, &doc) {
        Ok(()) => println!("wrote {}", ext.out.display()),
        Err(e) => {
            eprintln!("[wide] cannot write {}: {e}", ext.out.display());
            std::process::exit(1);
        }
    }
    println!();
    print!("{}", registry.render());
}
