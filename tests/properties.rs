//! Property-based tests over the core data structures and invariants:
//! RTL/gate/LUT semantic agreement and compiled-tape lanes against the
//! serial simulator on randomized netlists, fixed-point
//! round trips, macromodel evaluation bounds, and netlist-format
//! round-trips — driven by the workspace's own seeded PRNG
//! (`pe_util::rng::Xoshiro`), so the suite needs no external harness,
//! runs fully offline, and every failure reproduces from the printed
//! case seed.

use pe_util::fixed::{Fx, FxFormat};
use pe_util::lanes::{pack_lanes, unpack_lanes, LaneWord, LANES};
use pe_util::rng::Xoshiro;
use power_emulation::fpga::emulate::LutSimulator;
use power_emulation::fpga::lut::map_to_luts;
use power_emulation::gate::cells::CellLibrary;
use power_emulation::gate::expand::expand_design;
use power_emulation::gate::GateSimulator;
use power_emulation::power::{Macromodel, ModelKey, MonitoredLayout};
use power_emulation::rtl::builder::DesignBuilder;
use power_emulation::rtl::{text, ComponentKind, Design};
use power_emulation::sim::Simulator;

/// Runs `cases` independently seeded instances of `property`, naming the
/// failing case seed so a red run is reproducible in isolation.
fn check(name: &str, cases: u64, mut property: impl FnMut(&mut Xoshiro)) {
    for case in 0..cases {
        let seed = 0x9e37_79b9_7f4a_7c15u64 ^ (case << 8);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            property(&mut Xoshiro::new(seed))
        }));
        assert!(
            result.is_ok(),
            "property `{name}` failed at case {case} (seed {seed:#x})"
        );
    }
}

/// One randomly parameterized combinational operation.
#[derive(Debug, Clone, Copy)]
enum Op {
    Add,
    Sub,
    Mul,
    And,
    Or,
    Xor,
    Lt,
    SLt,
    Shl,
    Sar,
    Mux,
}

const ALL_OPS: [Op; 11] = [
    Op::Add,
    Op::Sub,
    Op::Mul,
    Op::And,
    Op::Or,
    Op::Xor,
    Op::Lt,
    Op::SLt,
    Op::Shl,
    Op::Sar,
    Op::Mux,
];

/// Draws 1..=5 random ops.
fn random_ops(rng: &mut Xoshiro) -> Vec<Op> {
    (0..rng.range(1, 5))
        .map(|_| *rng.choose(&ALL_OPS))
        .collect()
}

/// Builds a random two-input pipeline design from an op list.
fn random_design(width: u32, ops: &[Op]) -> Design {
    random_design_regs(width, ops, false)
}

/// As [`random_design`], optionally leaving the pipeline registers
/// uninitialized (no `init` value — the two-state engines power them on
/// as 0, and the tape must agree).
fn random_design_regs(width: u32, ops: &[Op], uninit: bool) -> Design {
    let mut b = DesignBuilder::new("prop");
    let clk = b.clock("clk");
    let a = b.input("a", width);
    let c = b.input("b", width);
    let mut x = a;
    let mut y = c;
    for (i, op) in ops.iter().enumerate() {
        let next = match op {
            Op::Add => b.add(x, y),
            Op::Sub => b.sub(x, y),
            Op::Mul => b.mul(x, y, width),
            Op::And => b.and(x, y),
            Op::Or => b.or(x, y),
            Op::Xor => b.xor(x, y),
            Op::Lt => {
                let bit = b.lt(x, y);
                b.zext(bit, width)
            }
            Op::SLt => {
                let bit = b.slt(x, y);
                b.zext(bit, width)
            }
            Op::Shl => {
                let amt = b.slice(y, 0, 3.min(width));
                let amt_w = b.zext(amt, width);
                b.shl(x, amt_w)
            }
            Op::Sar => {
                let amt = b.slice(y, 0, 3.min(width));
                let amt_w = b.zext(amt, width);
                b.sar(x, amt_w)
            }
            Op::Mux => {
                let sel = b.slice(y, 0, 1);
                b.mux2(sel, x, y)
            }
        };
        // Register every other stage to exercise sequential capture.
        let staged = if i % 2 == 1 {
            if uninit {
                let w = b.width(next);
                let reg = b.register_uninit(&format!("s{i}"), w, clk);
                let q = reg.q();
                b.connect_d(reg, next);
                q
            } else {
                b.pipeline_reg(&format!("s{i}"), next, 0, clk)
            }
        } else {
            next
        };
        y = x;
        x = staged;
    }
    b.output("out", x);
    b.finish().expect("random design is valid")
}

/// RTL, gate, and LUT levels agree on random designs and stimuli.
#[test]
fn levels_agree_on_random_designs() {
    check("levels_agree_on_random_designs", 24, |rng| {
        let width = rng.range(2, 11) as u32;
        let ops = random_ops(rng);
        let design = random_design(width, &ops);
        let expanded = expand_design(&design);
        let mapped = map_to_luts(&expanded.netlist);
        let cells = CellLibrary::cmos130();
        let mut rtl = Simulator::new(&design).unwrap();
        let mut gate = GateSimulator::new(&expanded, &cells);
        let mut lut = LutSimulator::new(&mapped);
        let mask = pe_util::bits::mask(width);
        for _ in 0..rng.range(1, 19) {
            let (a, b) = (rng.bits(12) & mask, rng.bits(12) & mask);
            rtl.set_input_by_name("a", a);
            rtl.set_input_by_name("b", b);
            gate.try_set_input("a", a).unwrap();
            gate.try_set_input("b", b).unwrap();
            lut.set_input("a", a);
            lut.set_input("b", b);
            assert_eq!(rtl.output("out"), gate.try_output("out").unwrap());
            assert_eq!(rtl.output("out"), lut.output("out"));
            rtl.step();
            gate.step();
            lut.step();
        }
    });
}

/// The textual netlist format round-trips random designs.
#[test]
fn netlist_text_round_trips() {
    check("netlist_text_round_trips", 24, |rng| {
        let width = rng.range(2, 9) as u32;
        let ops = random_ops(rng);
        let design = random_design(width, &ops);
        let serialized = text::to_text(&design);
        let reparsed = text::from_text(&serialized).expect("parses");
        assert_eq!(design.components().len(), reparsed.components().len());
        assert_eq!(serialized, text::to_text(&reparsed));
    });
}

/// Fixed-point encode/decode stays within half an LSB for in-range
/// values and saturates cleanly outside.
#[test]
fn fixed_point_quantization_bound() {
    check("fixed_point_quantization_bound", 64, |rng| {
        let value = rng.unit_f64() * 500.0;
        let total = rng.range(4, 23) as u32;
        let frac = (rng.range(0, 11) as u32).min(total);
        let fmt = FxFormat::new(total, frac).unwrap();
        let decoded = fmt.decode(fmt.encode(value));
        if value <= fmt.max_value() {
            assert!((decoded - value).abs() <= fmt.quantization_error_bound() + 1e-12);
        } else {
            assert_eq!(decoded, fmt.max_value());
        }
    });
}

/// Signed fixed-point arithmetic matches real arithmetic when the
/// results stay in range.
#[test]
fn fx_tracks_reals() {
    check("fx_tracks_reals", 64, |rng| {
        let a = rng.range_i64(-100, 100) as i32;
        let b = rng.range_i64(-100, 100) as i32;
        let fmt = FxFormat::new(24, 8).unwrap();
        let fa = Fx::from_f64(a as f64, fmt);
        let fb = Fx::from_f64(b as f64, fmt);
        assert_eq!((fa + fb).to_f64(), (a + b) as f64);
        assert_eq!((fa - fb).to_f64(), (a - b) as f64);
        assert_eq!((fa * fb).to_f64(), (a * b) as f64);
    });
}

/// Lane packing is lossless: packing 64 lane values into bit slices and
/// unpacking them again returns the original values for every width, and
/// the slices hold exactly the lanes' bits (bit `l` of slice `i` is bit
/// `i` of lane `l`).
#[test]
fn lane_pack_unpack_round_trips() {
    check("lane_pack_unpack_round_trips", 64, |rng| {
        let width = rng.range(1, 64) as u32;
        let mask = pe_util::bits::mask(width);
        let mut lanes = [0u64; LANES];
        for v in lanes.iter_mut() {
            *v = rng.bits(64) & mask;
        }
        let mut slices = vec![0u64; width as usize];
        pack_lanes(&lanes, width, &mut slices);
        for (i, &slice) in slices.iter().enumerate() {
            for (l, &lane) in lanes.iter().enumerate() {
                assert_eq!(
                    (slice >> l) & 1,
                    (lane >> i) & 1,
                    "slice bit ({i}, lane {l})"
                );
            }
        }
        let mut back = [0u64; LANES];
        unpack_lanes(&slices, &mut back);
        assert_eq!(back, lanes);
    });
}

/// Drives every lane of a `W::LANES`-wide run of `tape` with an
/// independent random stream for a random number of cycles, then replays
/// each lane on a fresh serial [`Simulator`] of `design` and demands the
/// same output on every cycle.
fn assert_lanes_match_serial<W: LaneWord>(
    design: &Design,
    tape: &power_emulation::tape::Tape,
    width: u32,
    rng: &mut Xoshiro,
    case: &str,
) {
    use power_emulation::sim::SimControl;
    use power_emulation::tape::WideTapeSimulator;

    let mask = pe_util::bits::mask(width);
    let cycles = rng.range(2, 13);
    // Record the stimulus so every lane can be replayed serially.
    let mut wide = WideTapeSimulator::<W>::new(tape);
    let mut stim: Vec<Vec<(u64, u64)>> = Vec::new();
    let mut wide_outs: Vec<Vec<u64>> = Vec::new();
    for _ in 0..cycles {
        let row: Vec<(u64, u64)> = (0..W::LANES)
            .map(|_| (rng.bits(12) & mask, rng.bits(12) & mask))
            .collect();
        for (lane, &(a, b)) in row.iter().enumerate() {
            wide.lane(lane).set_input_by_name("a", a);
            wide.lane(lane).set_input_by_name("b", b);
        }
        wide_outs.push((0..W::LANES).map(|l| wide.output_lane("out", l)).collect());
        stim.push(row);
        wide.step();
    }
    for lane in 0..W::LANES {
        let mut serial = Simulator::new(design).unwrap();
        for (cycle, row) in stim.iter().enumerate() {
            serial.set_input_by_name("a", row[lane].0);
            serial.set_input_by_name("b", row[lane].1);
            assert_eq!(
                wide_outs[cycle][lane],
                serial.output("out"),
                "width {}: lane {lane} diverged from a fresh serial run at cycle {cycle} ({case})",
                W::LANES
            );
            serial.step();
        }
    }
}

/// Drives the serial wrapper over `tape` and a serial [`Simulator`] of
/// `design` with one identical random stream and demands the same
/// output on every cycle.
fn assert_serial_tape_matches_oracle(
    design: &Design,
    tape: &power_emulation::tape::Tape,
    width: u32,
    rng: &mut Xoshiro,
    case: &str,
) {
    use power_emulation::tape::TapeSimulator;

    let mask = pe_util::bits::mask(width);
    let mut oracle = Simulator::new(design).unwrap();
    let mut serial_tape = TapeSimulator::new(tape);
    for cycle in 0..rng.range(2, 13) {
        let (a, b) = (rng.bits(12) & mask, rng.bits(12) & mask);
        oracle.set_input_by_name("a", a);
        oracle.set_input_by_name("b", b);
        serial_tape.set_input_by_name("a", a);
        serial_tape.set_input_by_name("b", b);
        assert_eq!(
            oracle.output("out"),
            serial_tape.output("out"),
            "serial tape diverged at cycle {cycle} ({case})"
        );
        oracle.step();
        serial_tape.step();
    }
}

/// Any single lane of a `W::LANES`-wide tape run behaves exactly like a
/// fresh serial simulation fed that lane's stimulus, on randomized
/// designs — including designs whose pipeline registers have no power-on
/// value (the two-state engines read them as zero, and the tape must
/// agree from reset onward) — and randomized per-lane input streams.
fn wide_lane_equals_serial_at<W: LaneWord>(cases: u64) {
    use power_emulation::tape::Tape;

    let name = format!("any_wide_lane_equals_a_fresh_serial_run[{}]", W::LANES);
    check(&name, cases, |rng| {
        let width = rng.range(2, 11) as u32;
        let ops = random_ops(rng);
        let uninit = rng.bits(1) == 1;
        let design = random_design_regs(width, &ops, uninit);
        let tape = Tape::compile(&design).expect("random design compiles");
        assert_lanes_match_serial::<W>(&design, &tape, width, rng, &format!("uninit: {uninit}"));
    });
}

#[test]
fn any_wide_lane_equals_a_fresh_serial_run() {
    wide_lane_equals_serial_at::<bool>(4);
    wide_lane_equals_serial_at::<u64>(16);
    wide_lane_equals_serial_at::<[u64; 2]>(8);
    wide_lane_equals_serial_at::<[u64; 4]>(4);
}

/// The serial compiled tape agrees with the serial oracle
/// cycle-for-cycle on random netlists, including designs with
/// uninitialized pipeline registers.
#[test]
fn tape_agrees_with_serial_oracle_on_random_designs() {
    use power_emulation::tape::Tape;

    check(
        "tape_agrees_with_serial_oracle_on_random_designs",
        32,
        |rng| {
            let width = rng.range(2, 11) as u32;
            let ops = random_ops(rng);
            let uninit = rng.bits(1) == 1;
            let design = random_design_regs(width, &ops, uninit);
            let tape = Tape::compile(&design).expect("random design compiles");
            assert_serial_tape_matches_oracle(
                &design,
                &tape,
                width,
                rng,
                &format!("uninit: {uninit}"),
            );
        },
    );
}

/// The verified optimization pipeline holds up under randomized
/// netlists: compile → optimize → translation-validate always certifies
/// (the validator never rejects a faithful pipeline output, including
/// designs with uninitialized pipeline registers), the optimized tape
/// never grows the program, and the optimized tape's behaviour matches
/// the serial oracle cycle-for-cycle — on the serial tape,
/// and on every lane of a 64-lane wide run with independent per-lane
/// streams, each replayed serially.
#[test]
fn optimized_tape_certifies_and_agrees_on_random_designs() {
    use power_emulation::tape::Tape;

    check(
        "optimized_tape_certifies_and_agrees_on_random_designs",
        24,
        |rng| {
            let width = rng.range(2, 11) as u32;
            let ops = random_ops(rng);
            let uninit = rng.bits(1) == 1;
            let design = random_design_regs(width, &ops, uninit);
            let (tape, cert) = Tape::compile_optimized(&design).expect("random design compiles");
            assert!(
                cert.validated,
                "validator rejected a faithful optimized tape (uninit: {uninit}): {:?}",
                cert.reason
            );
            assert!(
                cert.post_instructions <= cert.pre_instructions,
                "optimization grew the program: {} -> {}",
                cert.pre_instructions,
                cert.post_instructions
            );
            tape.check_well_formed()
                .expect("optimized tape stays well-formed");
            let case = format!("optimized, uninit: {uninit}");
            assert_serial_tape_matches_oracle(&design, &tape, width, rng, &case);
            assert_lanes_match_serial::<u64>(&design, &tape, width, rng, &case);
        },
    );
}

/// A macromodel's output is bounded by base + Σcoeffs and monotone in
/// the transition set (adding a toggled bit can only add energy for
/// non-negative coefficients).
#[test]
fn macromodel_bounds() {
    check("macromodel_bounds", 32, |rng| {
        let coeffs: Vec<f64> = (0..8).map(|_| rng.unit_f64() * 10.0).collect();
        let prev = rng.bits(8);
        let curr = rng.bits(8);
        let key = ModelKey::distinct(ComponentKind::Not, vec![4], 4);
        let layout = MonitoredLayout::of(&key);
        let model = Macromodel::new(1.0, coeffs, layout);
        let (p, c) = (prev & 0xFF, curr & 0xFF);
        let e = model.eval_fj(&[p & 0xF, p >> 4], &[c & 0xF, c >> 4]);
        assert!(e >= model.base_fj() - 1e-12);
        assert!(e <= model.base_fj() + model.coeff_sum() + 1e-12);
        // No transitions → exactly the base.
        let idle = model.eval_fj(&[p & 0xF, p >> 4], &[p & 0xF, p >> 4]);
        assert!((idle - model.base_fj()).abs() < 1e-12);
    });
}
