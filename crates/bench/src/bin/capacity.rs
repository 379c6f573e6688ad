//! Ext-4: FPGA capacity and partitioning study — how the enhanced
//! designs fit across the Virtex-II family, and what multi-device
//! partitioning costs in emulation clock when they don't fit one chip.
//!
//! Usage: `cargo run -p pe-bench --release --bin capacity --
//! [--scale test|paper] [--jobs N] [--cache-dir DIR]`

use pe_bench::cli::BenchArgs;
use pe_bench::fast_flow;
use pe_designs::suite::{all_benchmarks, Scale};
use pe_fpga::device::DeviceModel;
use pe_fpga::partition::partition;
use pe_harness::{obtain_library, Fanout, JobGraph, JobOutcome, StderrLines};
use pe_trace::Registry;

fn main() {
    let args = BenchArgs::from_env("capacity");
    let cache = args.open_cache();
    let devices = [
        DeviceModel::xc2v1000(),
        DeviceModel::xc2v3000(),
        DeviceModel::xc2v6000(),
        DeviceModel::xc2v8000(),
    ];

    println!("device fit of power-model-enhanced designs (Virtex-II family)");
    println!();
    print!("{:<12} {:>10} {:>10}", "design", "LUTs", "FFs");
    for d in &devices {
        print!(" {:>20}", d.name());
    }
    println!();

    let benchmarks: Vec<_> = match args.scale {
        Scale::Paper => all_benchmarks(),
        Scale::Test => all_benchmarks()
            .into_iter()
            .filter(|b| b.name != "MPEG4")
            .collect(),
    };

    let progress = StderrLines::new("capacity", false);
    let registry = Registry::new();
    let sink = Fanout(vec![&progress, &registry]);
    let cache = cache.as_ref();
    let devices = &devices;

    let mut graph: JobGraph<'_, String, String> = JobGraph::new();
    for bench in &benchmarks {
        let sink = &sink;
        graph.add("capacity", bench.name, vec![], move |_| {
            let flow = fast_flow();
            let library = obtain_library(
                &bench.design,
                flow.characterize_config(),
                cache,
                bench.name,
                sink,
            )
            .map_err(|e| e.to_string())?;
            flow.install_library(library);
            let (inst, _overhead) = flow
                .stage_instrument(&bench.design)
                .map_err(|e| e.to_string())?;
            let mapped = flow.stage_map(&inst);
            let timing = flow.stage_time(&mapped);
            let use_ = mapped.resource_use();
            let mut line = format!(
                "{:<12} {:>10} {:>10}",
                bench.name, use_.luts, use_.flip_flops
            );
            for dev in devices {
                match partition(&mapped, dev, 64, 0.9) {
                    Ok(p) => {
                        let f = p.effective_fmax_mhz(timing.fmax_mhz);
                        line.push_str(&format!(" {:>9} dev {:>6.2}MHz", p.devices, f.min(100.0)));
                    }
                    Err(_) => line.push_str(&format!(" {:>20}", "does not fit")),
                }
            }
            Ok(line)
        });
    }

    let outcomes = graph.run(args.jobs, &sink);
    for (bench, outcome) in benchmarks.iter().zip(&outcomes) {
        match outcome {
            JobOutcome::Done(line) => println!("{line}"),
            JobOutcome::Failed(e) => {
                eprintln!("[capacity] {} failed: {e}", bench.name);
                std::process::exit(1);
            }
            other => {
                eprintln!("[capacity] {} did not complete: {other:?}", bench.name);
                std::process::exit(1);
            }
        }
    }
    println!();
    println!("per-device clocks include the inter-chip multiplexing penalty (virtual");
    println!("wires): this is the capacity concern raised in the paper's closing");
    println!("discussion, quantified. Figure 3 follows the paper's methodology and");
    println!("reports the unpartitioned emulation clock.");
    println!();
    print!("{}", registry.render());
}
