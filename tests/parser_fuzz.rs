//! Seeded mutation fuzz over the user-reachable text parsers.
//!
//! Netlist text, waveform text and model-library text arrive from files
//! and from the wire, so every malformed input must come back as a
//! structured error, never a panic. Each suite design's `to_text`, a
//! golden `.waveform` and Bubble_Sort's characterized model library are
//! mutated — tokens dropped, tokens swapped, numbers replaced by
//! boundary values — and every mutant is parsed. A netlist that still
//! parses is then built into both engines (`pe_sim::Simulator` and
//! `pe_tape::Tape`), which step it twice: the width rules `validate`
//! accepts are the ones the engines index by.
//!
//! `words=` is never rewritten: a memory near 2³² words is a legal
//! netlist whose simulator honestly allocates tens of gigabytes.

use power_emulation::designs::suite::{all_benchmarks, benchmark};
use power_emulation::power::{CharacterizeConfig, ModelLibrary};
use power_emulation::rtl::text::{from_text, to_text};
use power_emulation::sim::Simulator;
use power_emulation::tape::{Tape, TapeSimulator};
use power_emulation::trace::PowerWaveform;
use power_emulation::util::rng::Xoshiro;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Mutants per input text.
const MUTANTS: usize = 400;

/// Replacements for a number: zero, the 64-bit word boundary, the u32
/// extremes the parser accepts, a non-number, and nothing.
const REPLACEMENTS: &[&str] = &["0", "63", "64", "65", "2147483648", "4294967295", "x", ""];

/// One mutant of `text`: one or two edits, each dropping a token,
/// swapping two tokens, or replacing one digit run in a token.
fn mutate(text: &str, rng: &mut Xoshiro) -> String {
    let mut lines: Vec<Vec<String>> = text
        .lines()
        .map(|l| l.split_whitespace().map(str::to_string).collect())
        .collect();
    let slots: Vec<(usize, usize)> = lines
        .iter()
        .enumerate()
        .flat_map(|(l, toks)| (0..toks.len()).map(move |t| (l, t)))
        .collect();
    for _ in 0..rng.range(1, 2) {
        let (l, t) = *rng.choose(&slots);
        if t >= lines[l].len() {
            continue;
        }
        match rng.below(3) {
            0 => {
                lines[l].remove(t);
            }
            1 => {
                let (l2, t2) = *rng.choose(&slots);
                if t2 < lines[l2].len() {
                    let a = std::mem::take(&mut lines[l][t]);
                    let b = std::mem::replace(&mut lines[l2][t2], a);
                    lines[l][t] = b;
                }
            }
            _ => {
                let tok = &lines[l][t];
                if tok.starts_with("words=") {
                    continue;
                }
                let runs = digit_runs(tok);
                if runs.is_empty() {
                    continue;
                }
                let (lo, hi) = *rng.choose(&runs);
                let with = rng.choose(REPLACEMENTS);
                lines[l][t] = format!("{}{with}{}", &tok[..lo], &tok[hi..]);
            }
        }
    }
    lines
        .iter()
        .map(|toks| toks.join(" "))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Byte ranges of the maximal ASCII digit runs in `tok`.
fn digit_runs(tok: &str) -> Vec<(usize, usize)> {
    let b = tok.as_bytes();
    let mut runs = Vec::new();
    let mut i = 0;
    while i < b.len() {
        if b[i].is_ascii_digit() {
            let start = i;
            while i < b.len() && b[i].is_ascii_digit() {
                i += 1;
            }
            runs.push((start, i));
        } else {
            i += 1;
        }
    }
    runs
}

/// The line of `mutant` that differs from `original` first, for the
/// failure report.
fn first_changed_line(original: &str, mutant: &str) -> String {
    let mut theirs = original.lines();
    for line in mutant.lines() {
        let orig = theirs.next().unwrap_or("");
        if line.split_whitespace().ne(orig.split_whitespace()) {
            return line.to_string();
        }
    }
    "(trailing lines dropped)".to_string()
}

/// Parses one netlist mutant and, when it parses, builds and steps both
/// engines; returns whether it parsed. Any panic is the failure this
/// suite exists to find.
fn exercise_netlist(text: &str) -> bool {
    let Ok(design) = from_text(text) else {
        return false;
    };
    if let Ok(mut sim) = Simulator::new(&design) {
        sim.step();
        sim.step();
    }
    if let Ok(tape) = Tape::compile(&design) {
        let mut sim = TapeSimulator::new(&tape);
        sim.step();
        sim.step();
    }
    true
}

#[test]
fn mutated_netlists_are_rejected_or_simulated_never_panic() {
    let mut rng = Xoshiro::new(0xf022_2025);
    let mut panics = Vec::new();
    let mut parsed = 0usize;
    for bench in all_benchmarks() {
        let text = to_text(&bench.design);
        for _ in 0..MUTANTS {
            let mutant = mutate(&text, &mut rng);
            match catch_unwind(AssertUnwindSafe(|| exercise_netlist(&mutant))) {
                Ok(ok) => parsed += usize::from(ok),
                Err(payload) => {
                    let msg = payload
                        .downcast_ref::<String>()
                        .cloned()
                        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                        .unwrap_or_default();
                    panics.push(format!(
                        "{}: `{}` -> {msg}",
                        bench.name,
                        first_changed_line(&text, &mutant)
                    ));
                }
            }
        }
    }
    assert!(
        panics.is_empty(),
        "{} netlist mutant(s) panicked instead of erroring:\n{}",
        panics.len(),
        panics.join("\n")
    );
    // The mutator must leave some mutants parseable, or the engine legs
    // above never ran.
    assert!(
        parsed > 0,
        "no mutant parsed; the engine legs were never exercised"
    );
}

#[test]
fn mutated_waveforms_are_rejected_or_parsed_never_panic() {
    let golden = include_str!("golden/Bubble_Sort.waveform");
    PowerWaveform::from_text(golden).expect("golden waveform parses");
    let mut rng = Xoshiro::new(0x3a7e_f022);
    for _ in 0..MUTANTS {
        let mutant = mutate(golden, &mut rng);
        let outcome = catch_unwind(|| PowerWaveform::from_text(&mutant).map(|_| ()));
        assert!(
            outcome.is_ok(),
            "waveform mutant panicked at `{}`",
            first_changed_line(golden, &mutant)
        );
    }
}

#[test]
fn mutated_model_libraries_are_rejected_or_round_trip_never_panic() {
    let bench = benchmark("Bubble_Sort").expect("Bubble_Sort is in the suite");
    let mut library = ModelLibrary::new();
    library
        .characterize_design(&bench.design, &CharacterizeConfig::fast())
        .expect("Bubble_Sort characterizes");
    let text = library.to_text();
    let mut rng = Xoshiro::new(0x11b_f022);
    let mut parsed = 0usize;
    for _ in 0..MUTANTS {
        let mutant = mutate(&text, &mut rng);
        let outcome = catch_unwind(|| {
            ModelLibrary::from_text(&mutant)
                .ok()
                .map(|lib| ModelLibrary::from_text(&lib.to_text()) == Ok(lib))
        });
        match outcome {
            Ok(Some(round_trips)) => {
                parsed += 1;
                assert!(
                    round_trips,
                    "library mutant does not round-trip at `{}`",
                    first_changed_line(&text, &mutant)
                );
            }
            Ok(None) => {}
            Err(_) => panic!(
                "library mutant panicked at `{}`",
                first_changed_line(&text, &mutant)
            ),
        }
    }
    assert!(parsed > 0, "no library mutant parsed");
}
