//! Seeded-miscompile suite for the tape translation validator.
//!
//! `pe_designs::defects` seeds *design-level* defects and proves the
//! analysis pipeline catches each one; this suite does the same for the
//! *compiler*: every named IR mutation in
//! [`power_emulation::tape::MISCOMPILE_MUTATIONS`] is injected into an
//! otherwise-certified optimized tape, and the translation validator
//! must reject 100% of the mutants — each with a stable, named
//! rejection reason, never a panic or a silent pass. A validator that
//! cannot catch seeded miscompiles proves nothing about real ones.
//!
//! The four mutations mirror real compiler-bug classes:
//!
//! * `swapped-operands` — a non-commutative instruction's operands
//!   exchanged (wrong subtraction direction, inverted compare);
//! * `dropped-instruction` — the final instruction deleted, leaving a
//!   stale plane feeding the observable frontier;
//! * `stale-alias` — a signal's plane map pointing at the wrong plane
//!   (the alias-elision optimization gone wrong);
//! * `corrupted-mask-group` — a select-mask group rebased off by one
//!   (the mux lowering's arena bookkeeping gone wrong).

use power_emulation::designs::suite::all_benchmarks;
use power_emulation::tape::{validate_against, Tape, MISCOMPILE_MUTATIONS};

/// Every mutation is rejected on every suite design that offers a
/// mutation site, and every mutation finds at least one site across
/// the suite. Rejection must carry a named reason.
#[test]
fn every_seeded_miscompile_is_rejected_with_a_named_reason() {
    let benches = all_benchmarks();
    for &mutation in MISCOMPILE_MUTATIONS {
        let mut applied = Vec::new();
        for bench in &benches {
            let (mut tape, cert) =
                Tape::compile_optimized(&bench.design).expect("suite design compiles");
            assert!(
                cert.validated,
                "{}: clean tape must certify before mutation: {:?}",
                bench.name, cert.reason
            );
            if !tape.seed_miscompile(mutation) {
                continue;
            }
            applied.push(bench.name);
            let err = validate_against(&bench.design, &tape, 3, 6).expect_err(&format!(
                "{}: mutant `{mutation}` passed translation validation",
                bench.name
            ));
            assert!(
                !err.reason.is_empty(),
                "{}: `{mutation}` rejected without a named reason",
                bench.name
            );
            assert!(
                !err.detail.is_empty(),
                "{}: `{mutation}` rejected without a diagnostic detail",
                bench.name
            );
        }
        assert!(
            !applied.is_empty(),
            "no suite design offers a mutation site for `{mutation}`"
        );
    }
}

/// The well-formedness checker alone (no simulation) already catches
/// the structurally detectable mutations; the rest fall through to the
/// validator's probe rounds. Either way no mutant survives.
#[test]
fn mutants_never_survive_structural_check_plus_validation() {
    let benches = all_benchmarks();
    let mut rejected_by_wf = 0usize;
    let mut rejected_by_probe = 0usize;
    for &mutation in MISCOMPILE_MUTATIONS {
        for bench in &benches {
            let (mut tape, _) =
                Tape::compile_optimized(&bench.design).expect("suite design compiles");
            if !tape.seed_miscompile(mutation) {
                continue;
            }
            match tape.check_well_formed() {
                Err(_) => rejected_by_wf += 1,
                Ok(()) => {
                    validate_against(&bench.design, &tape, 3, 6).expect_err(&format!(
                        "{}: well-formed mutant `{mutation}` passed validation",
                        bench.name
                    ));
                    rejected_by_probe += 1;
                }
            }
        }
    }
    assert!(
        rejected_by_wf + rejected_by_probe > 0,
        "no mutants were generated"
    );
    // Behavioural mutations (stale aliases, swapped operands) are
    // structurally sound by construction — some must reach the probes.
    assert!(
        rejected_by_probe > 0,
        "every mutant died structurally; the probe rounds were never exercised"
    );
}

/// A mutation name outside the registry is a no-op: the tape is
/// untouched and still certifies.
#[test]
fn unknown_mutation_leaves_the_tape_certified() {
    let bench = &all_benchmarks()[0];
    let (mut tape, _) = Tape::compile_optimized(&bench.design).expect("suite design compiles");
    assert!(!tape.seed_miscompile("not-a-mutation"));
    validate_against(&bench.design, &tape, 2, 4).expect("untouched tape stays valid");
}
