//! # pe-tape — compiled instruction-tape simulation
//!
//! The workspace's one bit-parallel engine. The serial reference
//! simulator in `pe-sim` re-traverses the netlist every settle pass:
//! each combinational component is fetched from the design, its kind
//! matched, and its operands gathered through `SignalId` indirection.
//! This crate does what the Berkeley Emulation Engine does for
//! netlists in hardware — compile the design **once** into a flat,
//! cache-friendly instruction tape and interpret that instead:
//!
//! * [`Tape::compile`] validates the design (the same diagnosed
//!   [`pe_rtl::DesignError`]s lint reports: undriven signals,
//!   combinational cycles), topologically schedules every combinational
//!   cone, constant-folds cones whose inputs are all constants, and
//!   lowers the remainder to dense instructions with pre-resolved
//!   operand indices — no per-cycle graph walks, no `HashMap` lookups.
//!   [`Tape::compile_optimized`] adds the verified pass pipeline and a
//!   [`TapeCertificate`] from translation validation: seeded probe
//!   rounds co-simulating the optimized tape against
//!   [`pe_sim::Simulator`] on the source netlist.
//! * [`WideTapeSimulator`] interprets the program over a plane arena of
//!   [`pe_util::lanes::LaneWord`]s — generic from 1 (`bool`) through 64
//!   (`u64`) to 128/256 (`[u64; 2]`/`[u64; 4]`) lanes; the compiled
//!   program is width-independent. The compiler additionally *elides*
//!   wiring at compile time: slices, concatenations, zero/sign
//!   extensions, constant-amount shifts, and constant-select muxes
//!   become plane aliases that cost nothing per cycle, and out-of-width
//!   operand reads resolve to a reserved all-zero plane, eliminating
//!   the width branch from the hot loop. Each lane is bit-identical to
//!   a serial [`pe_sim::Simulator`] run of that lane's stimulus.
//! * [`TapeSimulator`] is the serial engine: a thin wrapper fixing the
//!   wide interpreter at one lane (`bool` lane word), bit-identical to
//!   [`pe_sim::Simulator`] — there is no duplicated serial interpreter
//!   to keep in sync.
//!
//! A [`Tape`] owns its whole program (it does not borrow the
//! [`Design`]), so it can be memoized and shared — `pe-serve` keeps one
//! validated tape per prepared design and constructs a fresh
//! interpreter per batch for the cost of an arena allocation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ir;
mod passes;
mod serial;
pub mod verify;
mod wide;

pub use serial::TapeSimulator;
pub use verify::{
    validate_against, PassStat, TapeCertificate, ValidateError, WfError, DEFAULT_PROBE_CYCLES,
    DEFAULT_PROBE_ROUNDS, MISCOMPILE_MUTATIONS,
};
pub use wide::{TapeLane, WideTapeSimulator};

use pe_rtl::{Design, DesignError};
use pe_util::hash::Fnv128;
use std::fmt;

/// Why a design cannot be compiled to a tape.
///
/// Compilation is gated on [`Design::validate`] plus topological
/// scheduling, so every rejection carries the same diagnosed reason the
/// lint engine reports (`undriven-signal`, `comb-cycle`, …) instead of a
/// panic or a miscompiled tape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TapeError {
    /// The underlying structural diagnosis.
    pub cause: DesignError,
}

impl TapeError {
    /// The stable lint rule id this diagnosis corresponds to
    /// (`pe-lint` uses the same ids for its structural findings).
    pub fn rule(&self) -> &'static str {
        match self.cause {
            DesignError::UndrivenSignal { .. } => "undriven-signal",
            DesignError::CombinationalCycle { .. } => "comb-cycle",
            DesignError::MultipleDrivers { .. } => "multiple-drivers",
            _ => "invalid-design",
        }
    }
}

impl fmt::Display for TapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tape compilation rejected design: {}", self.cause)
    }
}

impl std::error::Error for TapeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.cause)
    }
}

impl From<DesignError> for TapeError {
    fn from(cause: DesignError) -> Self {
        TapeError { cause }
    }
}

/// A named port resolved to a dense signal index.
#[derive(Debug, Clone)]
pub(crate) struct TapePort {
    pub name: String,
    pub signal: u32,
}

/// A compiled design: the width-independent lane-word instruction
/// program plus the signal metadata the interpreters need. Owns
/// everything — no borrow of the source [`Design`] — so it can be
/// cached and shared across simulator constructions at any lane width.
#[derive(Debug)]
pub struct Tape {
    pub(crate) name: String,
    pub(crate) widths: Vec<u32>,
    pub(crate) names: Vec<String>,
    pub(crate) outputs: Vec<TapePort>,
    pub(crate) wide: wide::WideProgram,
}

impl Tape {
    /// Compiles `design` into the lane-word instruction tape.
    ///
    /// # Errors
    ///
    /// Returns a [`TapeError`] carrying the design's diagnosed
    /// structural defect (undriven signal, combinational cycle, …) —
    /// exactly the designs [`pe_sim::Simulator::new`] also rejects.
    pub fn compile(design: &Design) -> Result<Self, TapeError> {
        design.validate()?;
        let order = pe_rtl::topo_order(design)?;
        let consts = fold_constants(design, &order);
        let wide = wide::compile_wide(design, &order, &consts);
        Ok(Tape {
            name: design.name().to_string(),
            widths: design.signals().iter().map(|s| s.width()).collect(),
            names: design
                .signals()
                .iter()
                .map(|s| s.name().to_string())
                .collect(),
            outputs: design
                .outputs()
                .iter()
                .map(|p| TapePort {
                    name: p.name().to_string(),
                    signal: p.signal().index() as u32,
                })
                .collect(),
            wide,
        })
    }

    /// Compiles `design`, runs the optimization pipeline (constant
    /// fold-forwarding, dead-instruction elimination with plane
    /// compaction, plane-locality scheduling — each re-proven
    /// well-formed), and translation-validates the optimized tape
    /// against the source netlist. The returned [`TapeCertificate`]
    /// records the netlist and IR digests, per-pass instruction deltas,
    /// and whether validation succeeded; callers that require a
    /// faithful tape (admission in `pe-serve`) must check
    /// `certificate.validated`.
    ///
    /// # Errors
    ///
    /// Returns a [`TapeError`] when the design itself is structurally
    /// invalid — the same rejections as [`Tape::compile`]. A tape that
    /// compiles but fails validation is *returned*, with the failure
    /// named in the certificate.
    pub fn compile_optimized(design: &Design) -> Result<(Self, TapeCertificate), TapeError> {
        let mut tape = Tape::compile(design)?;
        let pre_instructions = tape.wide.instrs.len() as u64;
        let pre_planes = u64::from(tape.wide.n_planes);
        let passes = passes::optimize(&mut tape.wide, &tape.widths);
        let mut netlist_hash = Fnv128::new();
        netlist_hash.update(pe_rtl::text::to_text(design).as_bytes());
        let validation = verify::validate_against(
            design,
            &tape,
            verify::DEFAULT_PROBE_ROUNDS,
            verify::DEFAULT_PROBE_CYCLES,
        );
        let certificate = TapeCertificate {
            design: design.name().to_string(),
            netlist_fnv128: netlist_hash.hex(),
            ir_fnv128: ir::program_digest(&tape.wide),
            pre_instructions,
            post_instructions: tape.wide.instrs.len() as u64,
            pre_planes,
            post_planes: u64::from(tape.wide.n_planes),
            passes,
            validated: validation.is_ok(),
            reason: validation
                .err()
                .map(|e| format!("{}: {}", e.reason, e.detail)),
            probe_rounds: verify::DEFAULT_PROBE_ROUNDS,
            probe_cycles: verify::DEFAULT_PROBE_CYCLES,
        };
        Ok((tape, certificate))
    }

    /// The compiled design's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of instructions on the tape (wiring — slices, concats,
    /// extensions, constant shifts — is aliased away entirely; constant
    /// cones fold to zero instructions). Width-independent: the same
    /// program runs at every lane count.
    pub fn wide_instructions(&self) -> usize {
        self.wide.instrs.len()
    }

    /// Number of bit planes the wide interpreter allocates (including
    /// the reserved all-zeros and all-ones planes).
    pub fn wide_planes(&self) -> usize {
        self.wide.n_planes as usize
    }

    pub(crate) fn find_output(&self, name: &str) -> Option<u32> {
        self.outputs
            .iter()
            .find(|p| p.name == name)
            .map(|p| p.signal)
    }
}

/// Per-signal compile-time constants: `Some(v)` iff the signal is
/// driven by a cone whose leaves are all `Const` components. Those
/// signals need no instructions — the tape aliases their bits to the
/// reserved zero/one planes.
pub(crate) fn fold_constants(design: &Design, order: &[pe_rtl::ComponentId]) -> Vec<Option<u64>> {
    let mut consts: Vec<Option<u64>> = vec![None; design.signals().len()];
    let mut ins: Vec<u64> = Vec::new();
    for &id in order {
        let comp = design.component(id);
        if comp.kind().is_sequential() {
            continue;
        }
        ins.clear();
        let mut all_const = true;
        for &s in comp.inputs() {
            match consts[s.index()] {
                Some(v) => ins.push(v),
                None => {
                    all_const = false;
                    break;
                }
            }
        }
        if !all_const {
            continue;
        }
        let in_widths: Vec<u32> = comp
            .inputs()
            .iter()
            .map(|s| design.signal(*s).width())
            .collect();
        let out_width = design.signal(comp.output()).width();
        consts[comp.output().index()] = Some(comp.kind().eval(&ins, &in_widths, out_width));
    }
    consts
}

/// Convenience used by both compilers: a combinational component's
/// `(input indices, input widths, output index, output width)`.
pub(crate) fn comp_shape(
    design: &Design,
    comp: &pe_rtl::Component,
) -> (Vec<u32>, Vec<u32>, u32, u32) {
    let inputs: Vec<u32> = comp.inputs().iter().map(|s| s.index() as u32).collect();
    let in_widths: Vec<u32> = comp
        .inputs()
        .iter()
        .map(|s| design.signal(*s).width())
        .collect();
    let output = comp.output().index() as u32;
    let out_width = design.signal(comp.output()).width();
    (inputs, in_widths, output, out_width)
}
