//! The accuracy experiment: quantifies the paper's "little or no
//! tradeoff in accuracy" claim by comparing, per design and identical
//! stimuli, the gate-level reference energy, the software macromodel
//! estimate, and the emulated (fixed-point hardware) readout.
//!
//! Usage: `cargo run -p pe-bench --release --bin accuracy --
//! [--scale test|paper] [--jobs N] [--cache-dir DIR]`

use pe_bench::cli::BenchArgs;
use pe_bench::standard_flow;
use pe_core::accuracy::accuracy_experiment;
use pe_designs::suite::{all_benchmarks, Scale};
use pe_harness::{obtain_library, Fanout, JobGraph, JobOutcome, StderrLines};
use pe_trace::Registry;

fn main() {
    let args = BenchArgs::from_env("accuracy");
    let cache = args.open_cache();
    let benchmarks = all_benchmarks();

    println!(
        "accuracy cross-check (gate-level vs software vs emulated), {:?} scale, {} job(s)",
        args.scale, args.jobs
    );
    println!();
    println!(
        "{:<12} {:>8} {:>12} {:>12} {:>12} {:>10} {:>12} {:>10}",
        "design", "cycles", "gate(nJ)", "soft(nJ)", "emul(nJ)", "model%", "quantize%", "total%"
    );

    let progress = StderrLines::new("accuracy", false);
    let registry = Registry::new();
    let sink = Fanout(vec![&progress, &registry]);
    let cache = cache.as_ref();

    let mut graph: JobGraph<'_, String, String> = JobGraph::new();
    for bench in &benchmarks {
        // Gate-level runs every gate every cycle: cap the biggest design's
        // accuracy run so the experiment stays tractable.
        let cycles = match args.scale {
            Scale::Test => bench.cycles(Scale::Test).min(600),
            Scale::Paper => bench.cycles(Scale::Test) * 2,
        };
        let sink = &sink;
        graph.add("accuracy", bench.name, vec![], move |_| {
            let flow = standard_flow();
            let library = obtain_library(
                &bench.design,
                flow.characterize_config(),
                cache,
                bench.name,
                sink,
            )
            .map_err(|e| e.to_string())?;
            flow.install_library(library);
            let r = accuracy_experiment(
                &flow,
                &bench.design,
                bench.testbench(cycles),
                bench.testbench(cycles),
                bench.testbench(cycles),
            )
            .map_err(|e| e.to_string())?;
            Ok(format!(
                "{:<12} {:>8} {:>12.2} {:>12.2} {:>12.2} {:>9.2}% {:>11.4}% {:>9.2}%",
                r.design,
                r.cycles,
                r.gate_fj / 1e6,
                r.software_fj / 1e6,
                r.emulated_fj / 1e6,
                100.0 * r.model_error(),
                100.0 * r.quantization_error(),
                100.0 * r.total_error(),
            ))
        });
    }

    let outcomes = graph.run(args.jobs, &sink);
    for (bench, outcome) in benchmarks.iter().zip(&outcomes) {
        match outcome {
            JobOutcome::Done(line) => println!("{line}"),
            other => {
                let why = match other {
                    JobOutcome::Failed(e) => e.clone(),
                    JobOutcome::Panicked(msg) => format!("panic: {msg}"),
                    _ => "skipped".to_string(),
                };
                eprintln!("[accuracy] {} failed: {why}", bench.name);
                std::process::exit(1);
            }
        }
    }
    println!();
    println!("quantize% is the loss from moving the models into fixed-point hardware —");
    println!("the paper's accuracy-tradeoff claim concerns exactly this column.");
    println!();
    print!("{}", registry.render());
}
