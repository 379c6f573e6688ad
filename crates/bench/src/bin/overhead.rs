//! Instrumentation-overhead study — the open problem the paper's closing
//! section identifies ("significant work remains to be done in addressing
//! the area occupied by the power estimation hardware") — plus the design
//! ablations:
//!
//! * Ext-1: power-strobe period vs. estimate deviation,
//! * Ext-2: coefficient fixed-point width vs. accuracy and area,
//! * Ext-3: aggregator topology vs. achievable emulation clock.
//!
//! Usage: `cargo run -p pe-bench --release --bin overhead --
//! [--scale test|paper] [--jobs N] [--cache-dir DIR]`

use pe_bench::cli::BenchArgs;
use pe_bench::fast_flow;
use pe_designs::suite::{all_benchmarks, benchmark, Scale};
use pe_fpga::lut::map_to_luts;
use pe_fpga::timing::analyze_timing;
use pe_gate::expand::expand_design;
use pe_harness::{obtain_library, Fanout, JobGraph, JobOutcome, ModelCache, StderrLines};
use pe_instrument::{instrument, AggregatorTopology, InstrumentConfig, OverheadReport};
use pe_power::ModelLibrary;
use pe_sim::Simulator;
use pe_trace::Registry;

fn main() {
    let args = BenchArgs::from_env("overhead");
    let cache = args.open_cache();

    let progress = StderrLines::new("overhead", false);
    let registry = Registry::new();
    let sink = Fanout(vec![&progress, &registry]);

    // ── Per-design overhead table ────────────────────────────────────────
    println!("instrumentation overhead (per-bit models, 16-bit coefficients, tree aggregator)");
    println!();
    println!(
        "{:<12} {:>8} {:>9} {:>8} {:>10} {:>10} {:>8} {:>9}",
        "design", "comps", "enhanced", "ratio", "LUTs", "LUTs+PE", "ratio", "fmax-loss"
    );
    let benchmarks: Vec<_> = match args.scale {
        Scale::Paper => all_benchmarks(),
        Scale::Test => all_benchmarks()
            .into_iter()
            .filter(|b| b.name != "MPEG4")
            .collect(),
    };

    let mut graph: JobGraph<'_, String, String> = JobGraph::new();
    for bench in &benchmarks {
        let sink = &sink;
        let cache = cache.as_ref();
        graph.add("overhead", bench.name, vec![], move |_| {
            let flow = fast_flow();
            let library = obtain_library(
                &bench.design,
                flow.characterize_config(),
                cache,
                bench.name,
                sink,
            )
            .map_err(|e| e.to_string())?;
            let inst = instrument(&bench.design, &library, &InstrumentConfig::default())
                .map_err(|e| e.to_string())?;
            let report = OverheadReport::measure(&bench.design, &inst);
            let base_mapped = map_to_luts(&expand_design(&bench.design).netlist);
            let pe_mapped = map_to_luts(&expand_design(&inst.design).netlist);
            let base_t = analyze_timing(&base_mapped);
            let pe_t = analyze_timing(&pe_mapped);
            Ok(format!(
                "{:<12} {:>8} {:>9} {:>7.2}x {:>10} {:>10} {:>7.2}x {:>8.1}%",
                bench.name,
                report.original.components,
                report.enhanced.components,
                report.component_ratio(),
                base_mapped.resource_use().luts,
                pe_mapped.resource_use().luts,
                pe_mapped.resource_use().luts as f64
                    / base_mapped.resource_use().luts.max(1) as f64,
                100.0 * (1.0 - pe_t.fmax_mhz / base_t.fmax_mhz),
            ))
        });
    }
    let outcomes = graph.run(args.jobs, &sink);
    for (bench, outcome) in benchmarks.iter().zip(&outcomes) {
        match outcome {
            JobOutcome::Done(line) => println!("{line}"),
            JobOutcome::Failed(e) => {
                eprintln!("[overhead] {} failed: {e}", bench.name);
                std::process::exit(1);
            }
            other => {
                eprintln!("[overhead] {} did not complete: {other:?}", bench.name);
                std::process::exit(1);
            }
        }
    }

    ablations(cache.as_ref(), &sink);
    println!();
    print!("{}", registry.render());
}

/// The DCT ablations (Ext-1/2/3). Serial by nature: each sweeps one
/// parameter over the same design and library.
fn ablations(cache: Option<&ModelCache>, sink: &dyn pe_harness::EventSink) {
    let bench = benchmark("DCT").expect("suite has DCT");
    let flow = fast_flow();
    let library: ModelLibrary = obtain_library(
        &bench.design,
        flow.characterize_config(),
        cache,
        bench.name,
        sink,
    )
    .expect("characterize");
    let cycles = 600;
    let software = {
        use pe_estimators::{PowerEstimator, RtlEventEstimator};
        let mut tb = bench.testbench(cycles);
        RtlEventEstimator::new(&library)
            .estimate(&bench.design, tb.as_mut())
            .expect("software estimate")
            .total_energy_fj
    };

    // ── Ext-2: coefficient width ablation on DCT ─────────────────────────
    println!();
    println!("Ext-2: coefficient width vs accuracy/area (DCT, {cycles} cycles)");
    println!(
        "{:>6} {:>12} {:>10} {:>10}",
        "bits", "energy(nJ)", "error%", "LUTs"
    );
    for bits in [6u32, 8, 10, 12, 16, 20] {
        let cfg = InstrumentConfig {
            coeff_bits: bits,
            ..InstrumentConfig::default()
        };
        let inst = instrument(&bench.design, &library, &cfg).expect("instrument");
        let mut sim = Simulator::new(&inst.design).expect("simulate");
        let mut tb = bench.testbench(cycles);
        pe_sim::run(&mut sim, tb.as_mut());
        let emulated = inst.read_energy_fj(&mut sim);
        let luts = map_to_luts(&expand_design(&inst.design).netlist)
            .resource_use()
            .luts;
        println!(
            "{:>6} {:>12.2} {:>9.3}% {:>10}",
            bits,
            emulated / 1e6,
            100.0 * ((emulated - software) / software).abs(),
            luts
        );
    }

    // ── Ext-1: strobe period ablation on DCT ─────────────────────────────
    println!();
    println!("Ext-1: strobe period vs estimate deviation (DCT, {cycles} cycles)");
    println!("{:>8} {:>12} {:>10}", "period", "energy(nJ)", "dev%");
    for period in [1u32, 2, 4, 8] {
        let cfg = InstrumentConfig {
            strobe_period: period,
            ..InstrumentConfig::default()
        };
        let inst = instrument(&bench.design, &library, &cfg).expect("instrument");
        let mut sim = Simulator::new(&inst.design).expect("simulate");
        let mut tb = bench.testbench(cycles);
        pe_sim::run(&mut sim, tb.as_mut());
        let emulated = inst.read_energy_fj(&mut sim);
        println!(
            "{:>8} {:>12.2} {:>9.2}%",
            period,
            emulated / 1e6,
            100.0 * ((emulated - software) / software).abs()
        );
    }

    // ── Ext-3: aggregator topology vs timing ─────────────────────────────
    println!();
    println!("Ext-3: aggregator topology vs achievable clock (DCT)");
    println!(
        "{:>16} {:>12} {:>10} {:>10}",
        "topology", "crit(ns)", "fmax(MHz)", "LUTs"
    );
    for topo in [
        AggregatorTopology::Chain,
        AggregatorTopology::Tree,
        AggregatorTopology::PipelinedTree,
    ] {
        let cfg = InstrumentConfig {
            aggregator: topo,
            ..InstrumentConfig::default()
        };
        let inst = instrument(&bench.design, &library, &cfg).expect("instrument");
        let mapped = map_to_luts(&expand_design(&inst.design).netlist);
        let t = analyze_timing(&mapped);
        println!(
            "{:>16} {:>12.2} {:>10.1} {:>10}",
            topo.to_string(),
            t.critical_path_ns,
            t.fmax_mhz,
            mapped.resource_use().luts
        );
    }
}
