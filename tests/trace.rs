//! Power-waveform observability invariants across every engine.
//!
//! The central claim of the pe-trace layer is that a strobe-aligned
//! waveform is not an approximation of the energy readback but an exact
//! decomposition of it: because samples store raw cumulative accumulator
//! values and [`PowerWaveform::integral_fj`] replays the readback's
//! `f64` operation order, the integral of any whole-run capture equals
//! `read_energy_fj` **bit for bit**. This suite enforces that claim:
//!
//! * the serial RTL engine and lane 0 of the compiled tape, all seven
//!   suite designs;
//! * gate-level and LUT-level engines running the *instrumented* design,
//!   all seven suite designs, waveforms cross-checked sample-for-sample
//!   against the RTL capture;
//! * any strobe period, sample period, and decimated capture, on the
//!   suite and on random netlists with random stimulus.

use pe_util::lanes::LANES;
use pe_util::rng::Xoshiro;
use power_emulation::core::PowerEmulationFlow;
use power_emulation::designs::suite::{all_benchmarks, benchmark, Benchmark, Scale};
use power_emulation::fpga::emulate::LutSimulator;
use power_emulation::fpga::lut::map_to_luts;
use power_emulation::gate::cells::CellLibrary;
use power_emulation::gate::expand::expand_design;
use power_emulation::gate::GateSimulator;
use power_emulation::instrument::{instrument, InstrumentConfig, InstrumentedDesign};
use power_emulation::power::{CharacterizeConfig, ModelLibrary};
use power_emulation::rtl::builder::DesignBuilder;
use power_emulation::rtl::Design;
use power_emulation::sim::Simulator;
use power_emulation::tape::{Tape, WideTapeSimulator};
use power_emulation::trace::{CaptureMode, Channel, PowerWaveform, WaveformRecorder};

/// Cycles per design. Tier-1 runs in debug and the tape carries 64
/// lanes, so the big instrumented designs get short workloads — the
/// invariant needs a handful of strobes, not a long run.
fn budget(name: &str) -> u64 {
    match name {
        "MPEG4" => 80,
        "DCT" | "IDCT" => 200,
        _ => 400,
    }
}

/// The instrumented suite (fast characterization), built once and shared
/// by every test in this binary — instrumenting DCT/IDCT/MPEG4 in debug
/// costs tens of seconds, so paying it per test would dominate tier-1.
fn instrumented(bench: &Benchmark) -> &'static InstrumentedDesign {
    static INSTRUMENTED: std::sync::OnceLock<Vec<(String, InstrumentedDesign)>> =
        std::sync::OnceLock::new();
    let all = INSTRUMENTED.get_or_init(|| {
        all_benchmarks()
            .iter()
            .map(|bench| {
                let flow = PowerEmulationFlow::new().with_characterize(CharacterizeConfig::fast());
                flow.prepare_models(&bench.design).expect("characterize");
                let inst = flow.stage_instrument(&bench.design).expect("instrument").0;
                (bench.name.to_string(), inst)
            })
            .collect()
    });
    &all.iter()
        .find(|(name, _)| name == bench.name)
        .expect("suite design")
        .1
}

/// A recorder over the design's domain `power_total` ports only, so
/// serial, wide, gate, and LUT captures share one channel list.
fn domain_recorder(inst: &InstrumentedDesign, name: &str, sample_period: u32) -> WaveformRecorder {
    WaveformRecorder::new(
        name,
        inst.total_ports
            .iter()
            .map(|p| Channel::domain(p.as_str()))
            .collect(),
        inst.format.lsb(),
        inst.strobe_period,
        sample_period,
        CaptureMode::Unbounded,
    )
}

/// Asserts the invariant with a diagnostic naming design and engine.
fn assert_integral(design: &str, engine: &str, waveform: &PowerWaveform, energy_fj: f64) {
    let integral = waveform.integral_fj();
    assert_eq!(
        integral.to_bits(),
        energy_fj.to_bits(),
        "{design} [{engine}]: waveform integral {integral:e} fJ != energy readback \
         {energy_fj:e} fJ over {} sample(s)",
        waveform.len()
    );
}

/// Runs the canonical testbench on the serial engine, capturing every
/// strobe boundary, and returns the waveform plus the energy readback.
fn capture_serial(
    bench: &Benchmark,
    inst: &InstrumentedDesign,
    cycles: u64,
) -> (PowerWaveform, f64) {
    let strobe = u64::from(inst.strobe_period.max(1));
    let mut sim = Simulator::new(&inst.design).expect("serial sim");
    let mut tb = bench.testbench_shard(cycles, 0);
    let mut rec = domain_recorder(inst, bench.name, 1);
    let raw = inst.try_read_raw_totals(&mut sim).expect("raw totals");
    rec.offer(0, &raw).unwrap();
    let mut covered_final = false;
    for cycle in 0..cycles {
        tb.apply(cycle, &mut sim);
        tb.observe(cycle, &mut sim);
        sim.step();
        if (cycle + 1) % strobe == 0 {
            let raw = inst.try_read_raw_totals(&mut sim).expect("raw totals");
            rec.offer(cycle + 1, &raw).unwrap();
            covered_final = cycle + 1 == cycles;
        }
    }
    if !covered_final {
        let raw = inst.try_read_raw_totals(&mut sim).expect("raw totals");
        rec.offer(cycles, &raw).unwrap();
    }
    let energy = inst.try_read_energy_fj(&mut sim).expect("energy readback");
    (rec.finish(), energy)
}

/// Same capture on lane 0 of the 64-lane compiled tape (all lanes
/// driven).
fn capture_wide_lane0(
    bench: &Benchmark,
    inst: &InstrumentedDesign,
    cycles: u64,
) -> (PowerWaveform, f64) {
    let strobe = u64::from(inst.strobe_period.max(1));
    let tape = Tape::compile(&inst.design).expect("instrumented tape compiles");
    let mut sim = WideTapeSimulator::<u64>::new(&tape);
    let mut tbs = bench.testbench_shards(cycles, LANES);
    let mut rec = domain_recorder(inst, bench.name, 1);
    let raw = inst
        .try_read_raw_totals_lane(&mut sim, 0)
        .expect("raw totals");
    rec.offer(0, &raw).unwrap();
    let mut covered_final = false;
    for cycle in 0..cycles {
        for (lane, tb) in tbs.iter_mut().enumerate() {
            tb.apply(cycle, &mut sim.lane(lane));
        }
        for (lane, tb) in tbs.iter_mut().enumerate() {
            tb.observe(cycle, &mut sim.lane(lane));
        }
        sim.step();
        if (cycle + 1) % strobe == 0 {
            let raw = inst
                .try_read_raw_totals_lane(&mut sim, 0)
                .expect("raw totals");
            rec.offer(cycle + 1, &raw).unwrap();
            covered_final = cycle + 1 == cycles;
        }
    }
    if !covered_final {
        let raw = inst
            .try_read_raw_totals_lane(&mut sim, 0)
            .expect("raw totals");
        rec.offer(cycles, &raw).unwrap();
    }
    let energy = inst
        .try_read_energy_fj_lane(&mut sim, 0)
        .expect("energy readback");
    (rec.finish(), energy)
}

/// Samples retained in each committed waveform fixture.
const FIXTURE_SAMPLES: usize = 32;

/// Deterministically subsamples a full capture down to at most `cap`
/// samples for the committed fixture: every `stride`-th sample plus the
/// final one, so the fixture still spans the whole run and its integral
/// still equals the readback.
fn decimate_for_fixture(wf: &PowerWaveform, cap: usize) -> PowerWaveform {
    assert!(!wf.is_empty(), "captures always retain at least one sample");
    let stride = wf.len().div_ceil(cap).max(1);
    let mut out = wf.clone();
    out.samples = wf
        .samples
        .iter()
        .step_by(stride)
        .chain(
            wf.samples
                .last()
                .filter(|_| !(wf.len() - 1).is_multiple_of(stride)),
        )
        .cloned()
        .collect();
    out
}

fn fixture_path(name: &str) -> std::path::PathBuf {
    std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.waveform"))
}

/// Checks `got` against the committed fixture, naming the first
/// diverging sample on mismatch; with `PE_BLESS=1`, rewrites it.
fn check_waveform_fixture(design: &str, engine: &str, got: &PowerWaveform) {
    let path = fixture_path(design);
    if std::env::var_os("PE_BLESS").is_some_and(|v| v == "1") {
        // Serial and wide captures are asserted identical before this
        // point, so blessing twice writes identical bytes.
        std::fs::create_dir_all(path.parent().unwrap()).expect("mkdir tests/golden");
        std::fs::write(&path, got.to_text()).expect("write waveform fixture");
        eprintln!("blessed {}", path.display());
        return;
    }
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "{design}: cannot read {} ({e}); regenerate with \
             PE_BLESS=1 cargo test --test trace",
            path.display()
        )
    });
    let fixture = PowerWaveform::from_text(&text)
        .unwrap_or_else(|e| panic!("{design}: corrupt fixture {}: {e}", path.display()));
    if let Some(div) = got.first_divergence(&fixture) {
        panic!(
            "{design} [{engine}]: waveform diverged from fixture {}: {div}\n\
             (if the change is intentional: PE_BLESS=1 cargo test --test trace)",
            path.display()
        );
    }
}

/// Serial and wide captures integrate bit-exactly to their readbacks,
/// match each other sample-for-sample, and match the committed golden
/// waveform fixture, on every suite design.
#[test]
fn serial_and_wide_waveforms_integrate_exactly_on_the_suite() {
    for bench in all_benchmarks() {
        let cycles = budget(bench.name).min(bench.cycles(Scale::Test));
        let inst = instrumented(&bench);
        let (serial, serial_energy) = capture_serial(&bench, inst, cycles);
        assert_integral(bench.name, "serial", &serial, serial_energy);
        let (wide, wide_energy) = capture_wide_lane0(&bench, inst, cycles);
        assert_integral(bench.name, "wide lane 0", &wide, wide_energy);
        if let Some(div) = serial.first_divergence(&wide) {
            panic!("{}: serial vs wide lane 0: {div}", bench.name);
        }
        // Both engines produced the same waveform; pin it (decimated)
        // against the committed fixture, for each engine's capture.
        let fixture_serial = decimate_for_fixture(&serial, FIXTURE_SAMPLES);
        assert_integral(bench.name, "serial fixture", &fixture_serial, serial_energy);
        check_waveform_fixture(bench.name, "serial", &fixture_serial);
        check_waveform_fixture(
            bench.name,
            "wide lane 0",
            &decimate_for_fixture(&wide, FIXTURE_SAMPLES),
        );
    }
}

/// Gate-level and LUT-level runs of the instrumented design produce the
/// same waveform as the RTL engine and hold the integral invariant, on
/// every suite design.
#[test]
fn gate_and_lut_waveforms_integrate_exactly_on_the_suite() {
    let cells = CellLibrary::cmos130();
    for bench in all_benchmarks() {
        // The instrumented gate/LUT expansions are large and their
        // simulators are the slow ones; a few strobes suffice.
        let cycles = match bench.name {
            "MPEG4" | "DCT" | "IDCT" => 24,
            _ => 100,
        };
        let inst = instrumented(&bench);
        let strobe = u64::from(inst.strobe_period.max(1));
        let expanded = expand_design(&inst.design);
        let mapped = map_to_luts(&expanded.netlist);

        let mut rtl = Simulator::new(&inst.design).expect("rtl sim");
        let mut gate = GateSimulator::new(&expanded, &cells);
        let mut lut = LutSimulator::new(&mapped);
        let mut tb = bench.testbench_shard(cycles, 0);
        let inputs: Vec<_> = inst
            .design
            .inputs()
            .iter()
            .map(|p| (p.name().to_string(), p.signal()))
            .collect();

        let mut rtl_rec = domain_recorder(inst, bench.name, 1);
        let mut gate_rec = domain_recorder(inst, bench.name, 1);
        let mut lut_rec = domain_recorder(inst, bench.name, 1);
        let read_gate = |gate: &mut GateSimulator<'_>| -> Vec<u64> {
            inst.total_ports
                .iter()
                .map(|p| gate.try_output(p).unwrap())
                .collect()
        };
        let read_lut = |lut: &mut LutSimulator<'_>| -> Vec<u64> {
            inst.total_ports.iter().map(|p| lut.output(p)).collect()
        };

        rtl_rec
            .offer(0, &inst.try_read_raw_totals(&mut rtl).unwrap())
            .unwrap();
        gate_rec.offer(0, &read_gate(&mut gate)).unwrap();
        lut_rec.offer(0, &read_lut(&mut lut)).unwrap();
        let mut covered_final = false;
        for cycle in 0..cycles {
            tb.apply(cycle, &mut rtl);
            tb.observe(cycle, &mut rtl);
            for (name, sig) in &inputs {
                let v = rtl.value(*sig);
                gate.try_set_input(name, v).unwrap();
                lut.set_input(name, v);
            }
            rtl.step();
            gate.step();
            lut.step();
            if (cycle + 1) % strobe == 0 {
                rtl_rec
                    .offer(cycle + 1, &inst.try_read_raw_totals(&mut rtl).unwrap())
                    .unwrap();
                gate_rec.offer(cycle + 1, &read_gate(&mut gate)).unwrap();
                lut_rec.offer(cycle + 1, &read_lut(&mut lut)).unwrap();
                covered_final = cycle + 1 == cycles;
            }
        }
        if !covered_final {
            rtl_rec
                .offer(cycles, &inst.try_read_raw_totals(&mut rtl).unwrap())
                .unwrap();
            gate_rec.offer(cycles, &read_gate(&mut gate)).unwrap();
            lut_rec.offer(cycles, &read_lut(&mut lut)).unwrap();
        }

        let energy = inst.try_read_energy_fj(&mut rtl).expect("energy readback");
        let (rtl_wf, gate_wf, lut_wf) = (rtl_rec.finish(), gate_rec.finish(), lut_rec.finish());
        if let Some(div) = rtl_wf.first_divergence(&gate_wf) {
            panic!("{}: RTL vs gate level: {div}", bench.name);
        }
        if let Some(div) = rtl_wf.first_divergence(&lut_wf) {
            panic!("{}: RTL vs LUT level: {div}", bench.name);
        }
        assert_integral(bench.name, "serial", &rtl_wf, energy);
        assert_integral(bench.name, "gate", &gate_wf, energy);
        assert_integral(bench.name, "lut", &lut_wf, energy);
    }
}

/// Captures a serially-run instrumented design with the given sampling
/// parameters (exercising the skip path) and checks the invariant.
fn check_sampled_capture(
    label: &str,
    inst: &InstrumentedDesign,
    drive: &mut dyn FnMut(u64, &mut Simulator<'_>),
    cycles: u64,
    sample_period: u32,
    capture: CaptureMode,
) {
    let strobe = u64::from(inst.strobe_period.max(1));
    let mut sim = Simulator::new(&inst.design).expect("serial sim");
    let mut rec = WaveformRecorder::new(
        label,
        inst.total_ports
            .iter()
            .map(|p| Channel::domain(p.as_str()))
            .collect(),
        inst.format.lsb(),
        inst.strobe_period,
        sample_period,
        capture,
    );
    rec.offer(0, &inst.try_read_raw_totals(&mut sim).unwrap())
        .unwrap();
    let mut covered_final = false;
    for cycle in 0..cycles {
        drive(cycle, &mut sim);
        sim.step();
        if (cycle + 1) % strobe == 0 {
            if rec.wants_next() {
                rec.offer(cycle + 1, &inst.try_read_raw_totals(&mut sim).unwrap())
                    .unwrap();
                covered_final = cycle + 1 == cycles;
            } else {
                rec.skip();
            }
        }
    }
    if !covered_final {
        rec.offer(cycles, &inst.try_read_raw_totals(&mut sim).unwrap())
            .unwrap();
    }
    let energy = inst.try_read_energy_fj(&mut sim).expect("energy readback");
    let wf = rec.finish();
    assert_integral(label, "serial", &wf, energy);
    if let CaptureMode::Decimate(cap) = capture {
        assert!(
            wf.len() <= cap + 1,
            "{label}: decimation cap {cap} exceeded: {} sample(s)",
            wf.len()
        );
    }
}

/// The invariant is independent of the instrumented strobe period, the
/// recorder's sample period, and decimation: checked on suite designs
/// across a period sweep (cycle counts deliberately not multiples of the
/// strobe, so the final partial interval is exercised).
#[test]
fn integral_invariant_holds_for_any_strobe_and_sample_period() {
    for name in ["Bubble_Sort", "Vld"] {
        let bench = benchmark(name).unwrap();
        let mut library = ModelLibrary::new();
        library
            .characterize_design(&bench.design, &CharacterizeConfig::fast())
            .expect("characterize");
        for (strobe_period, sample_period, capture) in [
            (1, 1, CaptureMode::Unbounded),
            (2, 3, CaptureMode::Unbounded),
            (5, 1, CaptureMode::Decimate(16)),
            (7, 4, CaptureMode::Decimate(8)),
        ] {
            let inst = instrument(
                &bench.design,
                &library,
                &InstrumentConfig {
                    strobe_period,
                    ..InstrumentConfig::default()
                },
            )
            .expect("instrument");
            let cycles = 123;
            let mut tb = bench.testbench_shard(cycles, 0);
            check_sampled_capture(
                &format!("{name} strobe={strobe_period} sample={sample_period}"),
                &inst,
                &mut |cycle, sim| {
                    tb.apply(cycle, sim);
                    tb.observe(cycle, sim);
                },
                cycles,
                sample_period,
                capture,
            );
        }
    }
}

/// A small random pipeline (add/mul/xor stages, registered so at least
/// one clock domain hosts estimation hardware).
fn random_pipeline(rng: &mut Xoshiro) -> (Design, u32) {
    let width = rng.range(2, 9) as u32;
    let stages = rng.range(1, 4);
    let mut b = DesignBuilder::new("prop_trace");
    let clk = b.clock("clk");
    let a = b.input("a", width);
    let c = b.input("b", width);
    let (mut x, mut y) = (a, c);
    for i in 0..stages {
        let next = match rng.range(0, 2) {
            0 => b.add(x, y),
            1 => b.mul(x, y, width),
            _ => b.xor(x, y),
        };
        let staged = b.pipeline_reg(&format!("s{i}"), next, 0, clk);
        y = x;
        x = staged;
    }
    b.output("out", x);
    (b.finish().expect("random pipeline is valid"), width)
}

/// The invariant holds on random netlists with random stimulus, strobe
/// periods, sample periods, and capture modes. Every failure names the
/// reproducing case seed.
#[test]
fn integral_invariant_holds_on_random_netlists() {
    for case in 0..10u64 {
        let seed = 0xace1_57a1_9e37_79b9u64 ^ (case << 8);
        let rng = &mut Xoshiro::new(seed);
        let (design, width) = random_pipeline(rng);
        let mut library = ModelLibrary::new();
        library
            .characterize_design(&design, &CharacterizeConfig::fast())
            .unwrap_or_else(|e| panic!("case {case} (seed {seed:#x}): characterize: {e}"));
        let strobe_period = rng.range(1, 8) as u32;
        let inst = instrument(
            &design,
            &library,
            &InstrumentConfig {
                strobe_period,
                ..InstrumentConfig::default()
            },
        )
        .unwrap_or_else(|e| panic!("case {case} (seed {seed:#x}): instrument: {e}"));
        let cycles = rng.range(20, 90);
        let sample_period = rng.range(1, 5) as u32;
        let capture = if rng.range(0, 2) == 0 {
            CaptureMode::Unbounded
        } else {
            CaptureMode::Decimate(rng.range(2, 12) as usize)
        };
        let width_mask = pe_util::bits::mask(width);
        check_sampled_capture(
            &format!("random case {case} (seed {seed:#x}) strobe={strobe_period}"),
            &inst,
            &mut |_, sim| {
                sim.set_input_by_name("a", rng.bits(16) & width_mask);
                sim.set_input_by_name("b", rng.bits(16) & width_mask);
            },
            cycles,
            sample_period,
            capture,
        );
    }
}
