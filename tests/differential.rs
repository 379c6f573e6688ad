//! Differential testing of the workspace's one bit-parallel engine — the
//! compiled instruction tape — against the serial reference
//! [`Simulator`] on what the output-level matrix in
//! `tests/tape_differential.rs` does not see, at 1, 64, 128, and 256
//! lanes:
//!
//! * wide RTL vs fresh serial RTL runs on the *full internal state*:
//!   every component-driven signal (registers, memories' read ports,
//!   every combinational net), on spot lanes, every cycle, for the whole
//!   seven-design suite;
//! * instrumented `read_energy_fj` per lane on the *optimized*,
//!   translation-validated tape — the program the server runs — vs
//!   serial instrumented runs.
//!
//! Cycle budgets scale down with lane width so each width instantiation
//! does comparable total work. Every assertion names the design,
//! signal, width, lane, and first diverging cycle, so a red run points
//! straight at the divergence.

use pe_util::lanes::LaneWord;
use power_emulation::designs::suite::{all_benchmarks, benchmark, Scale};
use power_emulation::sim::Simulator;
use power_emulation::tape::{Tape, WideTapeSimulator};

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

/// Every spot lane of the wide tape reproduces a fresh serial RTL run of
/// the same stimulus shard on every component-driven signal, cycle for
/// cycle — not only the outputs: the compiler's operand aliasing and
/// constant folding must leave every net readable with its true value.
fn wide_rtl_matches_serial_rtl_at<W: LaneWord>() {
    for bench in all_benchmarks() {
        let cycles = budget(bench.name, W::LANES).min(bench.cycles(Scale::Test));
        let nets: Vec<_> = bench
            .design
            .components()
            .iter()
            .map(|c| (c.name().to_string(), c.output()))
            .collect();
        let tape = Tape::compile(&bench.design).expect("tape compiles");

        let mut wide = WideTapeSimulator::<W>::new(&tape);
        let mut wide_tbs = bench.testbench_shards(cycles, W::LANES);
        let spots = spot_lanes(W::LANES);
        let mut serials: Vec<Simulator<'_>> = spots
            .iter()
            .map(|_| Simulator::new(&bench.design).expect("serial sim"))
            .collect();
        let mut serial_tbs: Vec<_> = spots
            .iter()
            .map(|&lane| bench.testbench_shard(cycles, lane as u64))
            .collect();

        for cycle in 0..cycles {
            for (lane, tb) in wide_tbs.iter_mut().enumerate() {
                tb.apply(cycle, &mut wide.lane(lane));
            }
            for (si, tb) in serial_tbs.iter_mut().enumerate() {
                tb.apply(cycle, &mut serials[si]);
            }
            for (lane, tb) in wide_tbs.iter_mut().enumerate() {
                tb.observe(cycle, &mut wide.lane(lane));
            }
            for (si, tb) in serial_tbs.iter_mut().enumerate() {
                tb.observe(cycle, &mut serials[si]);
            }
            for (net, sig) in &nets {
                for (si, &lane) in spots.iter().enumerate() {
                    let got = wide.value_lane(*sig, lane);
                    let want = serials[si].value(*sig);
                    assert_eq!(
                        got,
                        want,
                        "{}: net driven by `{net}` diverged: width {}, lane {lane}, \
                         first at cycle {cycle} (wide {got:#x}, serial {want:#x})",
                        bench.name,
                        W::LANES
                    );
                }
            }
            wide.step();
            for s in &mut serials {
                s.step();
            }
        }
    }
}

#[test]
fn wide_rtl_matches_serial_rtl_at_1_lane() {
    wide_rtl_matches_serial_rtl_at::<bool>();
}

#[test]
fn wide_rtl_matches_serial_rtl_at_64_lanes() {
    wide_rtl_matches_serial_rtl_at::<u64>();
}

#[test]
fn wide_rtl_matches_serial_rtl_at_128_lanes() {
    wide_rtl_matches_serial_rtl_at::<[u64; 2]>();
}

#[test]
fn wide_rtl_matches_serial_rtl_at_256_lanes() {
    wide_rtl_matches_serial_rtl_at::<[u64; 4]>();
}

/// The instrumented design's hardware energy readout is bit-exactly
/// equal per lane between a run on the optimized, certified tape (what
/// a served batch runs) and fresh serial runs.
fn instrumented_readout_matches_at<W: LaneWord>() {
    use power_emulation::core::{PowerEmulationFlow, Prepared};
    use power_emulation::power::CharacterizeConfig;
    use power_emulation::trace::Registry;

    for name in ["Bubble_Sort", "HVPeakF"] {
        let bench = benchmark(name).unwrap();
        let cycles = 200 / (W::LANES as u64 / 64).max(1);
        let flow = PowerEmulationFlow::new().with_characterize(CharacterizeConfig::fast());
        flow.prepare_models(&bench.design).expect("characterize");
        let Prepared {
            instrumented,
            tape,
            certificate: cert,
            ..
        } = flow
            .stage_prepare(&bench.design, &Registry::new())
            .expect("instrumented tape compiles");
        assert!(
            cert.validated,
            "{name}: optimized instrumented tape failed translation validation: {:?}",
            cert.reason
        );

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
                     first at cycle {cycle} (optimized tape {got} fJ, serial {want} fJ)",
                    W::LANES
                );
            }
        }
    }
}

#[test]
fn instrumented_energy_readout_matches_per_lane_at_1_lane() {
    instrumented_readout_matches_at::<bool>();
}

#[test]
fn instrumented_energy_readout_matches_per_lane_at_64_lanes() {
    instrumented_readout_matches_at::<u64>();
}

#[test]
fn instrumented_energy_readout_matches_per_lane_at_128_lanes() {
    instrumented_readout_matches_at::<[u64; 2]>();
}

#[test]
fn instrumented_energy_readout_matches_per_lane_at_256_lanes() {
    instrumented_readout_matches_at::<[u64; 4]>();
}
