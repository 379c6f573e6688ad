//! Golden regression fixtures for the benchmark suite.
//!
//! Each design has a committed fixture under `tests/golden/` pinning
//! deterministic quantities of its canonical (shard 0) workload:
//!
//! * the FNV-1a-128 digest of the full output waveform of a serial RTL
//!   run at test scale (every output port, every cycle, little-endian),
//!   plus rolling-digest checkpoints at [`CHECKPOINTS`] evenly spaced
//!   cycles so a mismatch names the cycle window where the run first
//!   diverged instead of just "digest differs";
//! * the bit-exact gate-level switching energy total over a 200-cycle
//!   prefix (an `f64::to_bits` hex, so any rounding drift is caught);
//! * the compiled-tape engine's full-run waveform digest (asserted
//!   equal to the serial RTL engine's at regeneration time, so cross-engine
//!   bit-exactness is locked into the repo) and the tape's instruction
//!   and plane counts — a compiler change that alters how a suite
//!   design lowers shows up as a reviewable fixture diff;
//! * per-width tape waveform digests over a capped window, one per lane
//!   word (1, 64, 128, and 256 lanes), asserted equal to each other at
//!   regeneration time — the same compiled program must produce the
//!   same waveform at every width, and each instantiation's plane count
//!   must equal the compiler's (width-independent) plane count.
//!
//! The committed *power* waveforms (`tests/golden/*.waveform`) are
//! checked sample-for-sample by `tests/trace.rs`, which names the first
//! diverging sample index and channel on mismatch.
//!
//! A red run here means observable behaviour or the power arithmetic
//! changed. If the change is intentional, regenerate the fixtures with
//! `PE_BLESS=1 cargo test --test golden` and review the diff like any
//! other code change.

use pe_util::hash::Fnv128;
use power_emulation::designs::suite::{all_benchmarks, Benchmark, Scale};
use power_emulation::gate::cells::CellLibrary;
use power_emulation::gate::expand::expand_design;
use power_emulation::gate::GateSimulator;
use power_emulation::sim::Simulator;
use std::fmt::Write as _;
use std::path::PathBuf;

/// Cycles of gate-level energy accumulation per fixture.
const GATE_CYCLES: u64 = 200;

/// Cycles hashed per lane-width tape digest (capped so the four width
/// instantiations stay cheap relative to the full-run serial digests).
const TAPE_WIDTH_CYCLES: u64 = 256;

/// Lane widths pinned by the per-width tape digests.
const TAPE_WIDTHS: [u32; 4] = [1, 64, 128, 256];

/// Rolling-digest checkpoints recorded per fixture (plus the final
/// digest, which doubles as the last checkpoint).
const CHECKPOINTS: u64 = 16;

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.golden"))
}

/// Everything a fixture pins, regenerated or parsed from disk.
#[derive(Debug, PartialEq)]
struct Fixture {
    design: String,
    waveform_cycles: u64,
    /// `(cycles_hashed, rolling_digest)` in ascending cycle order; the
    /// last entry covers the full run.
    checkpoints: Vec<(u64, String)>,
    gate_cycles: u64,
    gate_energy_fj_bits: u64,
    /// Full-run output waveform digest of the compiled-tape serial
    /// engine — must equal the serial RTL engine's final checkpoint, so the
    /// fixture locks cross-engine bit-exactness into the repo.
    tape_waveform_fnv128: String,
    /// Locked instruction and plane counts of the compiled tape: a
    /// compiler change that alters how a suite design lowers shows up
    /// here as a reviewable diff instead of silently. Both counts are
    /// width-independent — every lane-word instantiation runs the same
    /// program over the same number of planes.
    tape_wide_instructions: u64,
    tape_wide_planes: u64,
    /// Locked instruction and plane counts of the *optimized* tape
    /// (after the verified pass pipeline). Regeneration asserts the
    /// optimized tape is translation-validated, strictly smaller than
    /// the unoptimized program, and waveform-identical to the serial
    /// RTL engine — so a pass regression shows up as a fixture diff.
    tape_opt_instructions: u64,
    tape_opt_planes: u64,
    /// Cycles hashed per per-width tape digest.
    tape_width_cycles: u64,
    /// `(lane width, digest)` of the top lane's output waveform over
    /// the capped window, in ascending width order. Regeneration
    /// asserts all four digests are identical — width never changes the
    /// waveform.
    tape_width_digests: Vec<(u32, String)>,
}

impl Fixture {
    fn render(&self) -> String {
        let mut out = String::new();
        writeln!(out, "design {}", self.design).unwrap();
        writeln!(out, "waveform_cycles {}", self.waveform_cycles).unwrap();
        let (_, full) = self.checkpoints.last().expect("at least one checkpoint");
        writeln!(out, "waveform_fnv128 {full}").unwrap();
        for (cycle, digest) in &self.checkpoints {
            writeln!(out, "waveform_fnv128_at {cycle} {digest}").unwrap();
        }
        writeln!(out, "gate_cycles {}", self.gate_cycles).unwrap();
        writeln!(out, "gate_energy_fj_bits {:016x}", self.gate_energy_fj_bits).unwrap();
        writeln!(out, "tape_waveform_fnv128 {}", self.tape_waveform_fnv128).unwrap();
        writeln!(
            out,
            "tape_wide_instructions {}",
            self.tape_wide_instructions
        )
        .unwrap();
        writeln!(out, "tape_wide_planes {}", self.tape_wide_planes).unwrap();
        writeln!(out, "tape_opt_instructions {}", self.tape_opt_instructions).unwrap();
        writeln!(out, "tape_opt_planes {}", self.tape_opt_planes).unwrap();
        writeln!(out, "tape_width_cycles {}", self.tape_width_cycles).unwrap();
        for (width, digest) in &self.tape_width_digests {
            writeln!(out, "tape_waveform_fnv128_at_width {width} {digest}").unwrap();
        }
        out
    }

    /// Field-wise parser; returns a description of the first malformed
    /// line instead of panicking so the caller can name the file.
    fn parse(text: &str) -> Result<Fixture, String> {
        let mut design = None;
        let mut waveform_cycles = None;
        let mut checkpoints = Vec::new();
        let mut gate_cycles = None;
        let mut gate_energy_fj_bits = None;
        let mut tape_waveform_fnv128 = None;
        let mut tape_wide_instructions = None;
        let mut tape_wide_planes = None;
        let mut tape_opt_instructions = None;
        let mut tape_opt_planes = None;
        let mut tape_width_cycles = None;
        let mut tape_width_digests = Vec::new();
        for (i, line) in text.lines().enumerate() {
            let err = |what: &str| format!("line {}: {what}: `{line}`", i + 1);
            let mut fields = line.split_whitespace();
            let key = fields.next().ok_or_else(|| err("empty line"))?;
            let val = fields.next().ok_or_else(|| err("missing value"))?;
            match key {
                "design" => design = Some(val.to_string()),
                "waveform_cycles" => {
                    waveform_cycles = Some(val.parse().map_err(|_| err("bad cycle count"))?);
                }
                "waveform_fnv128" => {} // redundant with the last checkpoint
                "waveform_fnv128_at" => {
                    let cycle = val.parse().map_err(|_| err("bad checkpoint cycle"))?;
                    let digest = fields.next().ok_or_else(|| err("missing digest"))?;
                    checkpoints.push((cycle, digest.to_string()));
                }
                "gate_cycles" => {
                    gate_cycles = Some(val.parse().map_err(|_| err("bad cycle count"))?);
                }
                "gate_energy_fj_bits" => {
                    gate_energy_fj_bits =
                        Some(u64::from_str_radix(val, 16).map_err(|_| err("bad bits"))?);
                }
                "tape_waveform_fnv128" => tape_waveform_fnv128 = Some(val.to_string()),
                "tape_width_cycles" => {
                    tape_width_cycles = Some(val.parse().map_err(|_| err("bad cycle count"))?);
                }
                "tape_waveform_fnv128_at_width" => {
                    let width = val.parse().map_err(|_| err("bad lane width"))?;
                    let digest = fields.next().ok_or_else(|| err("missing digest"))?;
                    tape_width_digests.push((width, digest.to_string()));
                }
                "tape_wide_instructions" => {
                    tape_wide_instructions =
                        Some(val.parse().map_err(|_| err("bad instruction count"))?);
                }
                "tape_wide_planes" => {
                    tape_wide_planes = Some(val.parse().map_err(|_| err("bad plane count"))?);
                }
                "tape_opt_instructions" => {
                    tape_opt_instructions =
                        Some(val.parse().map_err(|_| err("bad instruction count"))?);
                }
                "tape_opt_planes" => {
                    tape_opt_planes = Some(val.parse().map_err(|_| err("bad plane count"))?);
                }
                _ => return Err(err("unknown key")),
            }
        }
        if checkpoints.is_empty() {
            return Err("no waveform_fnv128_at checkpoints".to_string());
        }
        Ok(Fixture {
            design: design.ok_or("missing `design`")?,
            waveform_cycles: waveform_cycles.ok_or("missing `waveform_cycles`")?,
            checkpoints,
            gate_cycles: gate_cycles.ok_or("missing `gate_cycles`")?,
            gate_energy_fj_bits: gate_energy_fj_bits.ok_or("missing `gate_energy_fj_bits`")?,
            tape_waveform_fnv128: tape_waveform_fnv128.ok_or("missing `tape_waveform_fnv128`")?,
            tape_wide_instructions: tape_wide_instructions
                .ok_or("missing `tape_wide_instructions`")?,
            tape_wide_planes: tape_wide_planes.ok_or("missing `tape_wide_planes`")?,
            tape_opt_instructions: tape_opt_instructions
                .ok_or("missing `tape_opt_instructions`")?,
            tape_opt_planes: tape_opt_planes.ok_or("missing `tape_opt_planes`")?,
            tape_width_cycles: tape_width_cycles.ok_or("missing `tape_width_cycles`")?,
            tape_width_digests,
        })
    }
}

/// Serial-RTL waveform digest of the canonical workload at test scale,
/// with rolling checkpoints for divergence localisation.
fn waveform_checkpoints(bench: &Benchmark) -> (u64, Vec<(u64, String)>) {
    let cycles = bench.cycles(Scale::Test);
    let stride = cycles.div_ceil(CHECKPOINTS).max(1);
    let mut sim = Simulator::new(&bench.design).expect("rtl sim");
    let mut tb = bench.testbench(cycles);
    let outs: Vec<_> = bench.design.outputs().iter().map(|p| p.signal()).collect();
    let mut h = Fnv128::new();
    let mut checkpoints = Vec::new();
    for cycle in 0..cycles {
        tb.apply(cycle, &mut sim);
        tb.observe(cycle, &mut sim);
        for &sig in &outs {
            h.update(&sim.value(sig).to_le_bytes());
        }
        sim.step();
        if (cycle + 1) % stride == 0 && cycle + 1 != cycles {
            checkpoints.push((cycle + 1, h.hex()));
        }
    }
    checkpoints.push((cycles, h.hex()));
    (cycles, checkpoints)
}

/// Full-run output waveform digest of the compiled-tape serial engine
/// on the identical workload — hashed exactly like
/// [`waveform_checkpoints`], so it must reproduce that function's final
/// digest bit for bit.
fn tape_waveform_digest(bench: &Benchmark, tape: &power_emulation::tape::Tape) -> String {
    let cycles = bench.cycles(Scale::Test);
    let mut sim = power_emulation::tape::TapeSimulator::new(tape);
    let mut tb = bench.testbench(cycles);
    let outs: Vec<_> = bench.design.outputs().iter().map(|p| p.signal()).collect();
    let mut h = Fnv128::new();
    for cycle in 0..cycles {
        tb.apply(cycle, &mut sim);
        tb.observe(cycle, &mut sim);
        for &sig in &outs {
            h.update(&sim.value(sig).to_le_bytes());
        }
        sim.step();
    }
    h.hex()
}

/// Output waveform digest of the *top* lane of a `W::LANES`-wide tape
/// run over the capped window, hashed exactly like
/// [`waveform_checkpoints`]. Driving the highest lane exercises the
/// word's last backing word, where packing bugs would hide. Also locks
/// the instantiation's plane count to the compiler's width-independent
/// count.
fn tape_width_digest<W: pe_util::lanes::LaneWord>(
    bench: &Benchmark,
    tape: &power_emulation::tape::Tape,
) -> String {
    use power_emulation::sim::SimControl as _;
    let cycles = bench.cycles(Scale::Test).min(TAPE_WIDTH_CYCLES);
    let mut sim = power_emulation::tape::WideTapeSimulator::<W>::new(tape);
    assert_eq!(
        sim.settled_planes().len(),
        tape.wide_planes(),
        "{}: {}-lane tape allocated a different plane count than the compiler reports",
        bench.name,
        W::LANES
    );
    let lane = W::LANES - 1;
    let mut tb = bench.testbench(cycles);
    let outs: Vec<_> = bench.design.outputs().iter().map(|p| p.signal()).collect();
    let mut h = Fnv128::new();
    for cycle in 0..cycles {
        tb.apply(cycle, &mut sim.lane(lane));
        tb.observe(cycle, &mut sim.lane(lane));
        for &sig in &outs {
            h.update(&sim.lane(lane).value(sig).to_le_bytes());
        }
        sim.step();
    }
    h.hex()
}

/// The four per-width digests in ascending width order, asserted
/// identical — the same compiled program must produce the same waveform
/// at 1, 64, 128, and 256 lanes.
fn tape_width_digests(bench: &Benchmark, tape: &power_emulation::tape::Tape) -> Vec<(u32, String)> {
    let digests = vec![
        (1, tape_width_digest::<bool>(bench, tape)),
        (64, tape_width_digest::<u64>(bench, tape)),
        (128, tape_width_digest::<[u64; 2]>(bench, tape)),
        (256, tape_width_digest::<[u64; 4]>(bench, tape)),
    ];
    for (width, digest) in &digests[1..] {
        assert_eq!(
            digest, &digests[0].1,
            "{}: {width}-lane tape waveform diverged from the 1-lane waveform",
            bench.name
        );
    }
    digests
}

/// Gate-level switching energy over the workload prefix, bit-exact.
fn gate_energy_bits(bench: &Benchmark, cells: &CellLibrary) -> u64 {
    let expanded = expand_design(&bench.design);
    let mut gate = GateSimulator::new(&expanded, cells);
    let mut rtl = Simulator::new(&bench.design).expect("rtl sim");
    let mut tb = bench.testbench(GATE_CYCLES);
    let inputs: Vec<_> = bench
        .design
        .inputs()
        .iter()
        .map(|p| (p.name().to_string(), p.signal()))
        .collect();
    for cycle in 0..GATE_CYCLES {
        tb.apply(cycle, &mut rtl);
        tb.observe(cycle, &mut rtl);
        for (name, sig) in &inputs {
            gate.try_set_input(name, rtl.value(*sig)).unwrap();
        }
        rtl.step();
        gate.step();
    }
    gate.total_energy_fj().to_bits()
}

/// Regenerates one design's fixture from scratch.
fn regenerate(bench: &Benchmark, cells: &CellLibrary) -> Fixture {
    let (waveform_cycles, checkpoints) = waveform_checkpoints(bench);
    let tape = power_emulation::tape::Tape::compile(&bench.design).expect("suite design compiles");
    let tape_waveform_fnv128 = tape_waveform_digest(bench, &tape);
    let (_, full) = checkpoints.last().expect("at least one checkpoint");
    assert_eq!(
        &tape_waveform_fnv128, full,
        "{}: tape engine waveform diverged from the serial RTL engine",
        bench.name
    );
    let (opt_tape, cert) = power_emulation::tape::Tape::compile_optimized(&bench.design)
        .expect("suite design compiles");
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
    let opt_waveform = tape_waveform_digest(bench, &opt_tape);
    assert_eq!(
        &opt_waveform, full,
        "{}: optimized tape waveform diverged from the serial RTL engine",
        bench.name
    );
    Fixture {
        design: bench.name.to_string(),
        waveform_cycles,
        checkpoints,
        gate_cycles: GATE_CYCLES,
        gate_energy_fj_bits: gate_energy_bits(bench, cells),
        tape_waveform_fnv128,
        tape_wide_instructions: tape.wide_instructions() as u64,
        tape_wide_planes: tape.wide_planes() as u64,
        tape_opt_instructions: cert.post_instructions,
        tape_opt_planes: cert.post_planes,
        tape_width_cycles: bench.cycles(Scale::Test).min(TAPE_WIDTH_CYCLES),
        tape_width_digests: tape_width_digests(bench, &tape),
    }
}

/// Compares field by field, localising waveform divergence to the first
/// mismatching checkpoint window instead of reporting "digest differs".
fn diff(want: &Fixture, got: &Fixture) -> Vec<String> {
    let mut out = Vec::new();
    if want.design != got.design {
        out.push(format!(
            "design name: fixture `{}`, regenerated `{}`",
            want.design, got.design
        ));
    }
    if want.waveform_cycles != got.waveform_cycles {
        out.push(format!(
            "waveform_cycles: fixture {}, regenerated {}",
            want.waveform_cycles, got.waveform_cycles
        ));
    } else if want.checkpoints != got.checkpoints {
        let mut prev = 0;
        let mut located = false;
        for (w, g) in want.checkpoints.iter().zip(&got.checkpoints) {
            if w != g {
                out.push(format!(
                    "output waveform first diverges in cycles {prev}..{} \
                     (checkpoint digest {} vs {})",
                    w.0.min(g.0),
                    w.1,
                    g.1
                ));
                located = true;
                break;
            }
            prev = w.0;
        }
        if !located {
            out.push(format!(
                "checkpoint counts differ after cycle {prev}: fixture has {}, regenerated {}",
                want.checkpoints.len(),
                got.checkpoints.len()
            ));
        }
    }
    if want.gate_cycles != got.gate_cycles {
        out.push(format!(
            "gate_cycles: fixture {}, regenerated {}",
            want.gate_cycles, got.gate_cycles
        ));
    } else if want.gate_energy_fj_bits != got.gate_energy_fj_bits {
        out.push(format!(
            "gate energy: fixture {} fJ ({:016x}), regenerated {} fJ ({:016x})",
            f64::from_bits(want.gate_energy_fj_bits),
            want.gate_energy_fj_bits,
            f64::from_bits(got.gate_energy_fj_bits),
            got.gate_energy_fj_bits
        ));
    }
    if want.tape_waveform_fnv128 != got.tape_waveform_fnv128 {
        out.push(format!(
            "tape waveform digest: fixture {}, regenerated {}",
            want.tape_waveform_fnv128, got.tape_waveform_fnv128
        ));
    }
    for (label, w, g) in [
        (
            "tape_wide_instructions",
            want.tape_wide_instructions,
            got.tape_wide_instructions,
        ),
        (
            "tape_wide_planes",
            want.tape_wide_planes,
            got.tape_wide_planes,
        ),
        (
            "tape_opt_instructions",
            want.tape_opt_instructions,
            got.tape_opt_instructions,
        ),
        ("tape_opt_planes", want.tape_opt_planes, got.tape_opt_planes),
        (
            "tape_width_cycles",
            want.tape_width_cycles,
            got.tape_width_cycles,
        ),
    ] {
        if w != g {
            out.push(format!("{label}: fixture {w}, regenerated {g}"));
        }
    }
    for &width in &TAPE_WIDTHS {
        let find = |f: &Fixture| {
            f.tape_width_digests
                .iter()
                .find(|(w, _)| *w == width)
                .map(|(_, d)| d.clone())
        };
        let (w, g) = (find(want), find(got));
        if w != g {
            out.push(format!(
                "tape waveform digest at width {width}: fixture {}, regenerated {}",
                w.unwrap_or_else(|| "<missing>".to_string()),
                g.unwrap_or_else(|| "<missing>".to_string())
            ));
        }
    }
    out
}

#[test]
fn suite_matches_golden_fixtures() {
    let bless = std::env::var_os("PE_BLESS").is_some_and(|v| v == "1");
    let cells = CellLibrary::cmos130();
    let mut failures = Vec::new();
    for bench in all_benchmarks() {
        let got = regenerate(&bench, &cells);
        let path = fixture_path(bench.name);
        if bless {
            std::fs::create_dir_all(path.parent().unwrap()).expect("mkdir tests/golden");
            std::fs::write(&path, got.render()).expect("write fixture");
            eprintln!("blessed {}", path.display());
            continue;
        }
        let want = match std::fs::read_to_string(&path) {
            Ok(text) => match Fixture::parse(&text) {
                Ok(want) => want,
                Err(e) => {
                    failures.push(format!("{}: corrupt {}: {e}", bench.name, path.display()));
                    continue;
                }
            },
            Err(e) => {
                failures.push(format!(
                    "{}: cannot read {} ({e}); regenerate with PE_BLESS=1 cargo test --test golden",
                    bench.name,
                    path.display()
                ));
                continue;
            }
        };
        for line in diff(&want, &got) {
            failures.push(format!("{}: {line}", bench.name));
        }
    }
    assert!(
        failures.is_empty(),
        "golden fixtures diverged (if intentional: PE_BLESS=1 cargo test --test golden):\n{}",
        failures.join("\n")
    );
}

#[test]
fn fixture_render_and_parse_round_trip() {
    let fixture = Fixture {
        design: "Sample".to_string(),
        waveform_cycles: 96,
        checkpoints: vec![
            (32, "0123456789abcdef0123456789abcdef".to_string()),
            (96, "fedcba9876543210fedcba9876543210".to_string()),
        ],
        gate_cycles: GATE_CYCLES,
        gate_energy_fj_bits: 0x40a5_5512_3456_789a,
        tape_waveform_fnv128: "fedcba9876543210fedcba9876543210".to_string(),
        tape_wide_instructions: 456,
        tape_wide_planes: 789,
        tape_opt_instructions: 400,
        tape_opt_planes: 700,
        tape_width_cycles: 96,
        tape_width_digests: TAPE_WIDTHS
            .iter()
            .map(|&w| (w, "fedcba9876543210fedcba9876543210".to_string()))
            .collect(),
    };
    let parsed = Fixture::parse(&fixture.render()).expect("round trip");
    assert_eq!(parsed, fixture);
}

#[test]
fn diff_localises_the_first_diverging_checkpoint_window() {
    let mk = |digests: &[&str]| Fixture {
        design: "Sample".to_string(),
        waveform_cycles: 96,
        checkpoints: digests
            .iter()
            .enumerate()
            .map(|(i, d)| (32 * (i as u64 + 1), d.to_string()))
            .collect(),
        gate_cycles: GATE_CYCLES,
        gate_energy_fj_bits: 1,
        tape_waveform_fnv128: "aa".to_string(),
        tape_wide_instructions: 2,
        tape_wide_planes: 3,
        tape_opt_instructions: 2,
        tape_opt_planes: 3,
        tape_width_cycles: 96,
        tape_width_digests: TAPE_WIDTHS.iter().map(|&w| (w, "aa".to_string())).collect(),
    };
    let want = mk(&["aa", "bb", "cc"]);
    let got = mk(&["aa", "ee", "ff"]);
    let lines = diff(&want, &got);
    assert_eq!(lines.len(), 1, "one localised divergence: {lines:?}");
    assert!(
        lines[0].contains("cycles 32..64"),
        "names the first diverging window: {}",
        lines[0]
    );
}
