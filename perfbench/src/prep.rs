//! The serve admission pipeline, rebuilt from the benchmark's side:
//! characterize → instrument → lint → tape compile/optimize/validate.
//!
//! The scheduler keeps its prepared designs private, so the traced run
//! repeats the same public calls here, with a span around each, and
//! keeps the instrumented design and optimized tape for the batch
//! replay and the serial reference.

use pe_designs::suite::Benchmark;
use pe_harness::{obtain_library, ModelCache, NullSink};
use pe_instrument::{InstrumentConfig, InstrumentedDesign};
use pe_power::CharacterizeConfig;
use pe_sim::Simulator;
use pe_tape::Tape;
use std::time::Instant;

use crate::trace::{ms, Trace};

/// A design resolved to what a served batch runs on.
pub struct Prepared {
    pub bench: Benchmark,
    pub inst: InstrumentedDesign,
    pub tape: Tape,
}

/// The characterization a `model=fast` request is served with.
fn serve_characterize() -> CharacterizeConfig {
    CharacterizeConfig::fast()
}

/// Characterizes and instruments `bench` exactly as serve admission does
/// (fast models, the flow's default instrumentation).
pub fn instrumented(bench: &Benchmark) -> Result<InstrumentedDesign, String> {
    let library = obtain_library(
        &bench.design,
        &serve_characterize(),
        None,
        bench.name,
        &NullSink,
    )
    .map_err(|e| format!("{}: characterize failed: {e}", bench.name))?;
    pe_instrument::instrument(&bench.design, &library, &InstrumentConfig::default())
        .map_err(|e| format!("{}: instrument failed: {e}", bench.name))
}

/// The traced prepare: every admission layer under its own span, cold
/// and warm characterization against `cache` (which must not yet hold
/// this design), and the tape pipeline split into compile, optimize and
/// validate. Records the exact counts `tape.instrs` and
/// `tape.instrs_removed`.
pub fn traced(
    bench: Benchmark,
    cache: &ModelCache,
    trace: &mut Trace,
    problems: &mut Vec<String>,
) -> Result<Prepared, String> {
    let name = bench.name;
    let config = serve_characterize();
    let characterize = |trace: &mut Trace, metric| {
        trace.time(metric, name, || {
            obtain_library(&bench.design, &config, Some(cache), name, &NullSink)
        })
    };
    characterize(trace, "characterize.cold_ms")
        .map_err(|e| format!("{name}: characterize failed: {e}"))?;
    let library = characterize(trace, "characterize.warm_ms")
        .map_err(|e| format!("{name}: characterize failed: {e}"))?;
    let inst = trace
        .time("instrument.ms", name, || {
            pe_instrument::instrument(&bench.design, &library, &InstrumentConfig::default())
        })
        .map_err(|e| format!("{name}: instrument failed: {e}"))?;
    let report = trace.time("lint.ms", name, || pe_lint::lint_instrumented(&inst, None));
    if !report.is_clean(&pe_lint::Denylist::All) {
        problems.push(format!("{name}: lint reports admission-blocking errors"));
    }

    let t = Instant::now();
    Tape::compile(&inst.design).map_err(|e| format!("{name}: {e}"))?;
    let compile = ms(t.elapsed());
    let t = Instant::now();
    let (tape, cert) = Tape::compile_optimized(&inst.design).map_err(|e| format!("{name}: {e}"))?;
    let compile_optimized = ms(t.elapsed());
    let t = Instant::now();
    let validated = pe_tape::validate_against(
        &inst.design,
        &tape,
        pe_tape::DEFAULT_PROBE_ROUNDS,
        pe_tape::DEFAULT_PROBE_CYCLES,
    );
    let validate = ms(t.elapsed());
    trace.record("tape.compile_ms", name, compile);
    trace.record("tape.validate_ms", name, validate);
    // compile_optimized = compile + passes + validate; the passes are
    // what is left once the separately timed compile and validate go.
    trace.record(
        "tape.optimize_ms",
        name,
        compile_optimized - compile - validate,
    );

    if !cert.validated || validated.is_err() {
        problems.push(format!(
            "{name}: optimized tape failed translation validation"
        ));
    }
    trace.count("tape.instrs", cert.post_instructions as f64);
    trace.count("tape.instrs_removed", cert.instructions_removed() as f64);
    Ok(Prepared { bench, inst, tape })
}

/// The independent reference: one serial `pe_sim::Simulator` run of
/// the request's testbench shard, read out as the served energy is.
pub fn serial_energy(
    bench: &Benchmark,
    inst: &InstrumentedDesign,
    cycles: u64,
    seed: u64,
) -> Result<f64, String> {
    let mut sim = Simulator::new(&inst.design).map_err(|e| e.to_string())?;
    let mut tb = bench.testbench_shard(cycles, seed);
    for cycle in 0..cycles {
        tb.apply(cycle, &mut sim);
        tb.observe(cycle, &mut sim);
        sim.step();
    }
    inst.try_read_energy_fj(&mut sim).map_err(|e| e.to_string())
}
