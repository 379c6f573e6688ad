//! Regenerates the paper's Figure 3: execution time of RTL power
//! estimation (two software tools, measured) vs. power emulation
//! (modeled), with speedups, for the seven benchmark designs.
//!
//! Usage: `cargo run -p pe-bench --release --bin figure3 --
//! [--scale test|paper] [--jobs N] [--cache-dir DIR]`

use pe_bench::cli::BenchArgs;
use pe_bench::standard_flow;
use pe_core::figure3::format_table;
use pe_designs::suite::all_benchmarks;
use pe_fpga::emulate::EmulationTimeModel;
use pe_harness::{run_figure3, Fanout, StderrLines};
use pe_trace::Registry;

fn main() {
    let args = BenchArgs::from_env("figure3");
    let cache = args.open_cache();
    let time_model = EmulationTimeModel::default();
    let benchmarks = all_benchmarks();

    println!(
        "power emulation evaluation — Figure 3 reproduction ({:?} scale, {} job(s))",
        args.scale, args.jobs
    );
    println!("(software tool times are measured; emulation time is modeled from the");
    println!(" mapped enhanced design's achievable clock, per the paper's methodology)");
    println!();

    let progress = StderrLines::new("figure3", false);
    let registry = Registry::new();
    let sink = Fanout(vec![&progress, &registry]);
    let rows = match run_figure3(
        &standard_flow,
        &benchmarks,
        args.scale,
        &time_model,
        args.jobs,
        cache.as_ref(),
        &sink,
    ) {
        Ok(rows) => rows,
        Err(e) => {
            eprintln!("[figure3] {e}");
            std::process::exit(1);
        }
    };

    println!("{}", format_table(&rows));
    println!("paper reference: speedups of 10X to over 500X, growing with design size;");
    let min = rows
        .iter()
        .map(|r| r.speedup_nec().min(r.speedup_pt()))
        .fold(f64::INFINITY, f64::min);
    let max = rows
        .iter()
        .map(|r| r.speedup_nec().max(r.speedup_pt()))
        .fold(0.0, f64::max);
    println!("measured here: {min:.0}X to {max:.0}X.");
    println!();
    print!("{}", registry.render());
}
