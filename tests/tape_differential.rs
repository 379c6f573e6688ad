//! The width-sweep differential suite: the compiled instruction tape —
//! the workspace's one bit-parallel engine — against the serial
//! reference [`Simulator`], lane for lane, at 1, 64, 128, and 256 lanes.
//!
//! The serial tape is literally the 1-lane (`bool` lane word)
//! instantiation of the wide interpreter, and the same compiled program
//! must run bit-identically at every width. Every lane of a wide run must
//! reproduce a fresh serial run of that lane's stimulus shard:
//!
//! * serial tape vs the serial oracle on every output, every cycle, for
//!   the full seven-design benchmark suite;
//! * compiled and optimized tapes vs the serial oracle (one run per
//!   lane), on every output of every lane, at 1, 64,
//!   128, and 256 lanes;
//! * gate-level switching energy with tape lanes supplying the stimulus
//!   (bit-exact f64 on spot lanes against gate runs fed by the serial
//!   oracle, at every width);
//! * instrumented `read_energy_fj` per lane through the generic readout
//!   (wide tape vs serial oracle runs, at every width);
//! * the two-state defect designs (uninitialized registers) compile and
//!   match the serial oracle at every width;
//! * structurally broken designs are rejected at compile time with the
//!   same diagnosed reason the lint engine reports.
//!
//! `tests/differential.rs` carries the internal-state and served-tape
//! readout checks of the same width sweep.
//!
//! Cycle budgets scale down with lane width so each width instantiation
//! does comparable total work. Every assertion names the design,
//! signal, width, lane, and first diverging cycle, so a red run points
//! straight at the divergence.

use pe_util::lanes::LaneWord;
use power_emulation::designs::defects::{
    defect_benchmark, structural_defect_design, DEFECT_NAMES, STRUCTURAL_DEFECT_NAMES,
};
use power_emulation::designs::suite::{all_benchmarks, benchmark, Benchmark, Scale};
use power_emulation::gate::cells::CellLibrary;
use power_emulation::gate::expand::expand_design;
use power_emulation::gate::GateSimulator;
use power_emulation::sim::Simulator;
use power_emulation::tape::{Tape, TapeSimulator, WideTapeSimulator};

/// Cycles compared per design (MPEG4 is the expensive one), scaled down
/// for the wider lane words so each width costs roughly the same wall
/// clock.
fn budget(name: &str, lanes: usize) -> u64 {
    let base = match name {
        "MPEG4" => 250,
        _ => 600,
    };
    base / (lanes as u64 / 64).max(1)
}

/// Spot lanes probing both ends and the middle of a word, deduplicated
/// for narrow words.
fn spot_lanes(lanes: usize) -> Vec<usize> {
    let mut spots = vec![0usize, lanes / 4, lanes - 1];
    spots.dedup();
    spots
}

/// The design's output ports as `(name, signal)` pairs.
fn outputs(bench: &Benchmark) -> Vec<(String, power_emulation::rtl::SignalId)> {
    bench
        .design
        .outputs()
        .iter()
        .map(|p| (p.name().to_string(), p.signal()))
        .collect()
}

/// Input ports as `(name, signal)` pairs.
fn inputs(bench: &Benchmark) -> Vec<(String, power_emulation::rtl::SignalId)> {
    bench
        .design
        .inputs()
        .iter()
        .map(|p| (p.name().to_string(), p.signal()))
        .collect()
}

/// The serial tape interpreter reproduces the serial oracle on every
/// output, every cycle, across the whole suite.
#[test]
fn serial_tape_matches_serial_oracle_on_every_output() {
    for bench in all_benchmarks() {
        let cycles = budget(bench.name, 64).min(bench.cycles(Scale::Test));
        let outs = outputs(&bench);
        let tape = Tape::compile(&bench.design).expect("tape compiles");

        let mut oracle = Simulator::new(&bench.design).expect("serial sim");
        let mut taped = TapeSimulator::new(&tape);
        let mut oracle_tb = bench.testbench(cycles);
        let mut tape_tb = bench.testbench(cycles);

        for cycle in 0..cycles {
            oracle_tb.apply(cycle, &mut oracle);
            tape_tb.apply(cycle, &mut taped);
            oracle_tb.observe(cycle, &mut oracle);
            tape_tb.observe(cycle, &mut taped);
            for (name, sig) in &outs {
                let got = taped.value(*sig);
                let want = oracle.value(*sig);
                assert_eq!(
                    got, want,
                    "{}::{name} diverged: first at cycle {cycle} \
                     (tape {got:#x}, serial {want:#x})",
                    bench.name
                );
            }
            oracle.step();
            taped.step();
        }
    }
}

/// Every lane of a wide tape reproduces the serial oracle — the
/// reference [`Simulator`], run once per lane on that lane's
/// stimulus shard — output for output, cycle for cycle. With
/// `optimized`, the tape is the verified pass pipeline's output; its
/// certificate must validate and show the passes removed instructions,
/// so the translation validator's probe-based proof is backed by this
/// full differential matrix.
fn tape_matches_oracle_at<W: LaneWord>(optimized: bool) {
    let engine = if optimized { "optimized tape" } else { "tape" };
    for bench in all_benchmarks() {
        let cycles = budget(bench.name, W::LANES).min(bench.cycles(Scale::Test));
        let outs = outputs(&bench);
        let tape = if optimized {
            let (tape, cert) = Tape::compile_optimized(&bench.design).expect("tape compiles");
            assert!(
                cert.validated,
                "{}: optimized tape failed translation validation: {:?}",
                bench.name, cert.reason
            );
            assert!(
                cert.post_instructions < cert.pre_instructions,
                "{}: pass pipeline removed no instructions ({} -> {})",
                bench.name,
                cert.pre_instructions,
                cert.post_instructions
            );
            tape
        } else {
            Tape::compile(&bench.design).expect("tape compiles")
        };

        let mut wide = WideTapeSimulator::<W>::new(&tape);
        let mut oracles: Vec<Simulator<'_>> = (0..W::LANES)
            .map(|_| Simulator::new(&bench.design).expect("serial sim"))
            .collect();
        let mut tape_tbs = bench.testbench_shards(cycles, W::LANES);
        let mut oracle_tbs = bench.testbench_shards(cycles, W::LANES);

        for cycle in 0..cycles {
            for lane in 0..W::LANES {
                tape_tbs[lane].apply(cycle, &mut wide.lane(lane));
                oracle_tbs[lane].apply(cycle, &mut oracles[lane]);
            }
            for lane in 0..W::LANES {
                tape_tbs[lane].observe(cycle, &mut wide.lane(lane));
                oracle_tbs[lane].observe(cycle, &mut oracles[lane]);
            }
            for (name, sig) in &outs {
                for (lane, oracle) in oracles.iter_mut().enumerate() {
                    let got = wide.value_lane(*sig, lane);
                    let want = oracle.value(*sig);
                    assert_eq!(
                        got,
                        want,
                        "{}::{name} diverged on the {engine}: width {}, lane {lane}, \
                         first at cycle {cycle} ({engine} {got:#x}, serial {want:#x})",
                        bench.name,
                        W::LANES
                    );
                }
            }
            wide.step();
            for o in &mut oracles {
                o.step();
            }
        }
    }
}

#[test]
fn wide_tape_matches_serial_oracle_at_1_lane() {
    tape_matches_oracle_at::<bool>(false);
}

#[test]
fn wide_tape_matches_serial_oracle_at_64_lanes() {
    tape_matches_oracle_at::<u64>(false);
}

#[test]
fn wide_tape_matches_serial_oracle_at_128_lanes() {
    tape_matches_oracle_at::<[u64; 2]>(false);
}

#[test]
fn wide_tape_matches_serial_oracle_at_256_lanes() {
    tape_matches_oracle_at::<[u64; 4]>(false);
}

#[test]
fn optimized_tape_matches_serial_oracle_at_1_lane() {
    tape_matches_oracle_at::<bool>(true);
}

#[test]
fn optimized_tape_matches_serial_oracle_at_64_lanes() {
    tape_matches_oracle_at::<u64>(true);
}

#[test]
fn optimized_tape_matches_serial_oracle_at_128_lanes() {
    tape_matches_oracle_at::<[u64; 2]>(true);
}

#[test]
fn optimized_tape_matches_serial_oracle_at_256_lanes() {
    tape_matches_oracle_at::<[u64; 4]>(true);
}

/// Gate-level switching energy is bit-exact when the stimulus comes
/// through tape lanes: on spot lanes, a serial gate run fed by the wide
/// tape's settled input lanes matches a serial gate run fed by the
/// serial oracle's inputs for the same shard, cycle for cycle, and its
/// outputs match the tape's lanes (the synthesis path preserves
/// behaviour lane for lane, not just for one stimulus).
fn gate_energy_from_tape_lanes_at<W: LaneWord>() {
    let cells = CellLibrary::cmos130();
    for name in ["Bubble_Sort", "Vld", "DCT"] {
        let bench = benchmark(name).unwrap();
        let cycles = 200 / (W::LANES as u64 / 64).max(1);
        let expanded = expand_design(&bench.design);
        let ins = inputs(&bench);
        let outs = outputs(&bench);
        let tape = Tape::compile(&bench.design).expect("tape compiles");

        let mut rtl = WideTapeSimulator::<W>::new(&tape);
        let mut tbs = bench.testbench_shards(cycles, W::LANES);
        let spots = spot_lanes(W::LANES);
        let gates = |n: usize| -> Vec<GateSimulator<'_>> {
            (0..n)
                .map(|_| GateSimulator::new(&expanded, &cells))
                .collect()
        };
        let mut tape_fed = gates(spots.len());
        let mut oracle_fed = gates(spots.len());
        let mut serials: Vec<Simulator<'_>> = spots
            .iter()
            .map(|_| Simulator::new(&bench.design).expect("serial sim"))
            .collect();
        let mut serial_tbs: Vec<_> = spots
            .iter()
            .map(|&lane| bench.testbench_shard(cycles, lane as u64))
            .collect();

        for cycle in 0..cycles {
            for (lane, tb) in tbs.iter_mut().enumerate() {
                tb.apply(cycle, &mut rtl.lane(lane));
                tb.observe(cycle, &mut rtl.lane(lane));
            }
            for (si, tb) in serial_tbs.iter_mut().enumerate() {
                tb.apply(cycle, &mut serials[si]);
                tb.observe(cycle, &mut serials[si]);
            }
            for (pname, sig) in &ins {
                for (si, &lane) in spots.iter().enumerate() {
                    tape_fed[si]
                        .try_set_input(pname, rtl.value_lane(*sig, lane))
                        .unwrap();
                    oracle_fed[si]
                        .try_set_input(pname, serials[si].value(*sig))
                        .unwrap();
                }
            }
            for (pname, sig) in &outs {
                for (si, &lane) in spots.iter().enumerate() {
                    let got = tape_fed[si].try_output(pname).unwrap();
                    let want = rtl.value_lane(*sig, lane);
                    assert_eq!(
                        got,
                        want,
                        "{name}::{pname} diverged at gate level: width {}, lane {lane}, \
                         first at cycle {cycle} (gate {got:#x}, tape {want:#x})",
                        W::LANES
                    );
                }
            }
            rtl.step();
            for (si, &lane) in spots.iter().enumerate() {
                serials[si].step();
                tape_fed[si].step();
                oracle_fed[si].step();
                let got = tape_fed[si].last_cycle_energy_fj();
                let want = oracle_fed[si].last_cycle_energy_fj();
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "{name} gate energy diverged: width {}, lane {lane}, \
                     first at cycle {cycle} (tape-fed {got} fJ, serial-fed {want} fJ)",
                    W::LANES
                );
            }
        }
    }
}

#[test]
fn gate_energy_from_tape_lanes_is_bit_exact_at_1_lane() {
    gate_energy_from_tape_lanes_at::<bool>();
}

#[test]
fn gate_energy_from_tape_lanes_is_bit_exact_at_64_lanes() {
    gate_energy_from_tape_lanes_at::<u64>();
}

#[test]
fn gate_energy_from_tape_lanes_is_bit_exact_at_128_lanes() {
    gate_energy_from_tape_lanes_at::<[u64; 2]>();
}

#[test]
fn gate_energy_from_tape_lanes_is_bit_exact_at_256_lanes() {
    gate_energy_from_tape_lanes_at::<[u64; 4]>();
}

/// The instrumented design's hardware energy readout is bit-exactly
/// equal per lane between a wide tape run and fresh serial oracle runs —
/// the same generic readout drives both engines at every width.
fn instrumented_readout_on_tape_at<W: LaneWord>() {
    use power_emulation::core::PowerEmulationFlow;
    use power_emulation::power::CharacterizeConfig;

    for name in ["Bubble_Sort", "HVPeakF"] {
        let bench = benchmark(name).unwrap();
        let cycles = 200 / (W::LANES as u64 / 64).max(1);
        let flow = PowerEmulationFlow::new().with_characterize(CharacterizeConfig::fast());
        flow.prepare_models(&bench.design).expect("characterize");
        let (instrumented, _) = flow.stage_instrument(&bench.design).expect("instrument");
        let tape = Tape::compile(&instrumented.design).expect("instrumented tape compiles");

        let mut wide = WideTapeSimulator::<W>::new(&tape);
        let mut serials: Vec<Simulator<'_>> = (0..W::LANES)
            .map(|_| Simulator::new(&instrumented.design).expect("serial sim"))
            .collect();
        let mut wide_tbs = bench.testbench_shards(cycles, W::LANES);
        let mut serial_tbs = bench.testbench_shards(cycles, W::LANES);

        for cycle in 0..cycles {
            for lane in 0..W::LANES {
                wide_tbs[lane].apply(cycle, &mut wide.lane(lane));
                serial_tbs[lane].apply(cycle, &mut serials[lane]);
            }
            wide.step();
            for s in &mut serials {
                s.step();
            }
            if cycle % 50 != 49 {
                continue;
            }
            for (lane, serial) in serials.iter_mut().enumerate() {
                let got = instrumented.read_energy_fj_lane(&mut wide, lane);
                let want = instrumented.read_energy_fj(serial);
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "{name} instrumented energy diverged: width {}, lane {lane}, \
                     first at cycle {cycle} (tape {got} fJ, serial {want} fJ)",
                    W::LANES
                );
            }
        }
    }
}

#[test]
fn instrumented_energy_readout_matches_per_lane_on_tape_at_1_lane() {
    instrumented_readout_on_tape_at::<bool>();
}

#[test]
fn instrumented_energy_readout_matches_per_lane_on_tape_at_64_lanes() {
    instrumented_readout_on_tape_at::<u64>();
}

#[test]
fn instrumented_energy_readout_matches_per_lane_on_tape_at_128_lanes() {
    instrumented_readout_on_tape_at::<[u64; 2]>();
}

#[test]
fn instrumented_energy_readout_matches_per_lane_on_tape_at_256_lanes() {
    instrumented_readout_on_tape_at::<[u64; 4]>();
}

/// The serial tape also matches the serial oracle through the
/// instrumented serial readout path (same `SimControl` generic).
#[test]
fn instrumented_serial_readout_matches_on_tape() {
    use power_emulation::core::PowerEmulationFlow;
    use power_emulation::power::CharacterizeConfig;

    let bench = benchmark("Bubble_Sort").unwrap();
    let cycles = 200;
    let flow = PowerEmulationFlow::new().with_characterize(CharacterizeConfig::fast());
    flow.prepare_models(&bench.design).expect("characterize");
    let (instrumented, _) = flow.stage_instrument(&bench.design).expect("instrument");
    let tape = Tape::compile(&instrumented.design).expect("instrumented tape compiles");

    let mut serial = Simulator::new(&instrumented.design).expect("serial sim");
    let mut taped = TapeSimulator::new(&tape);
    let mut serial_tb = bench.testbench(cycles);
    let mut tape_tb = bench.testbench(cycles);

    for cycle in 0..cycles {
        serial_tb.apply(cycle, &mut serial);
        tape_tb.apply(cycle, &mut taped);
        serial.step();
        taped.step();
        if cycle % 50 != 49 {
            continue;
        }
        let got = instrumented.read_energy_fj(&mut taped);
        let want = instrumented.read_energy_fj(&mut serial);
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "Bubble_Sort instrumented energy diverged on the serial tape at cycle {cycle} \
             (tape {got} fJ, serial {want} fJ)"
        );
    }
}

/// The two-state defect designs (uninitialized registers, X-steered
/// muxes) compile to tapes and every lane matches a fresh serial oracle
/// run at every lane width — the tape honors two-state power-on
/// semantics.
fn two_state_defects_match_at<W: LaneWord>() {
    for name in DEFECT_NAMES {
        let bench = defect_benchmark(name).unwrap();
        let cycles = 100 / (W::LANES as u64 / 64).max(1);
        let outs = outputs(&bench);
        let tape = Tape::compile(&bench.design)
            .unwrap_or_else(|e| panic!("{name} must compile under two-state semantics: {e}"));

        let mut wide_tape = WideTapeSimulator::<W>::new(&tape);
        let mut serials: Vec<Simulator<'_>> = (0..W::LANES)
            .map(|_| Simulator::new(&bench.design).expect("serial sim"))
            .collect();
        let mut tape_tbs = bench.testbench_shards(cycles, W::LANES);
        let mut serial_tbs = bench.testbench_shards(cycles, W::LANES);
        for cycle in 0..cycles {
            for lane in 0..W::LANES {
                tape_tbs[lane].apply(cycle, &mut wide_tape.lane(lane));
                serial_tbs[lane].apply(cycle, &mut serials[lane]);
            }
            for (pname, sig) in &outs {
                for (lane, serial) in serials.iter_mut().enumerate() {
                    assert_eq!(
                        wide_tape.value_lane(*sig, lane),
                        serial.value(*sig),
                        "{name}::{pname} diverged: width {}, lane {lane}, first at cycle {cycle}",
                        W::LANES
                    );
                }
            }
            wide_tape.step();
            for s in &mut serials {
                s.step();
            }
        }
    }
}

/// Serial leg of the two-state defect matrix: the `TapeSimulator`
/// wrapper (the 1-lane instantiation) against the serial oracle.
#[test]
fn two_state_defect_designs_match_on_serial_tape() {
    for name in DEFECT_NAMES {
        let bench = defect_benchmark(name).unwrap();
        let cycles = 100;
        let outs = outputs(&bench);
        let tape = Tape::compile(&bench.design)
            .unwrap_or_else(|e| panic!("{name} must compile under two-state semantics: {e}"));

        let mut serial = Simulator::new(&bench.design).expect("serial sim");
        let mut taped = TapeSimulator::new(&tape);
        let mut serial_tb = bench.testbench(cycles);
        let mut tape_tb = bench.testbench(cycles);
        for cycle in 0..cycles {
            serial_tb.apply(cycle, &mut serial);
            tape_tb.apply(cycle, &mut taped);
            for (pname, sig) in &outs {
                assert_eq!(
                    taped.value(*sig),
                    serial.value(*sig),
                    "{name}::{pname} diverged: first at cycle {cycle}"
                );
            }
            serial.step();
            taped.step();
        }
    }
}

#[test]
fn two_state_defect_designs_match_on_tape_at_1_lane() {
    two_state_defects_match_at::<bool>();
}

#[test]
fn two_state_defect_designs_match_on_tape_at_64_lanes() {
    two_state_defects_match_at::<u64>();
}

#[test]
fn two_state_defect_designs_match_on_tape_at_128_lanes() {
    two_state_defects_match_at::<[u64; 2]>();
}

#[test]
fn two_state_defect_designs_match_on_tape_at_256_lanes() {
    two_state_defects_match_at::<[u64; 4]>();
}

/// Structurally broken designs fail tape compilation with the same
/// diagnosed reason the lint engine reports — not a panic, not a
/// miscompiled tape.
#[test]
fn structural_defects_fail_tape_compilation_with_diagnosed_reason() {
    use power_emulation::rtl::DesignError;

    for name in STRUCTURAL_DEFECT_NAMES {
        let design = structural_defect_design(name).unwrap();
        let err = Tape::compile(&design)
            .map(|_| ())
            .expect_err(&format!("{name} must be rejected by the tape compiler"));
        match *name {
            "Defect_Comb_Cycle" => {
                assert_eq!(err.rule(), "comb-cycle", "{name}: {err}");
                assert!(
                    matches!(err.cause, DesignError::CombinationalCycle { .. }),
                    "{name}: wrong cause {:?}",
                    err.cause
                );
            }
            "Defect_Undriven" => {
                assert_eq!(err.rule(), "undriven-signal", "{name}: {err}");
                assert!(
                    matches!(err.cause, DesignError::UndrivenSignal { .. }),
                    "{name}: wrong cause {:?}",
                    err.cause
                );
            }
            other => panic!("unknown structural defect {other}"),
        }
        // The serial oracle rejects the same designs with the same cause
        // (the tape adds no new admission holes).
        let serial_err = Simulator::new(&design).expect_err("serial oracle must also reject");
        assert_eq!(format!("{serial_err}"), format!("{}", err.cause), "{name}");
    }
}

/// Every suite design's certificate carries consistent bookkeeping:
/// digests present, per-pass deltas that chain from the pre-count to
/// the post-count, and the probe configuration that proved equivalence.
#[test]
fn certificates_chain_pass_stats_and_carry_digests() {
    for bench in all_benchmarks() {
        let (tape, cert) = Tape::compile_optimized(&bench.design).expect("tape compiles");
        assert_eq!(
            cert.design,
            bench.design.name(),
            "certificate names the design"
        );
        assert_eq!(cert.netlist_fnv128.len(), 32, "{}", bench.name);
        assert_eq!(cert.ir_fnv128.len(), 32, "{}", bench.name);
        assert_eq!(
            cert.post_instructions,
            tape.wide_instructions() as u64,
            "{}: certificate post-count matches the tape",
            bench.name
        );
        assert!(
            cert.probe_rounds > 0 && cert.probe_cycles > 0,
            "{}",
            bench.name
        );
        let mut instrs = cert.pre_instructions;
        for stat in &cert.passes {
            assert_eq!(
                stat.instructions_before, instrs,
                "{}: pass `{}` does not chain from the previous pass",
                bench.name, stat.pass
            );
            instrs = stat.instructions_after;
        }
        assert_eq!(
            instrs, cert.post_instructions,
            "{}: pass chain does not end at the certified post-count",
            bench.name
        );
        assert_eq!(
            cert.instructions_removed(),
            cert.pre_instructions - cert.post_instructions,
            "{}",
            bench.name
        );
    }
}
