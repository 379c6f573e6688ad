//! Static verification of compiled tapes: a well-formedness checker
//! over the tape IR and a translation validator that proves the lowered
//! (and optimized) program equivalent to the source netlist.
//!
//! Two layers, both with *named* rejection reasons so a failure is a
//! diagnosis rather than a panic:
//!
//! 1. [`Tape::check_well_formed`] proves structural soundness without
//!    executing anything: operand and side-table bounds, def-before-use
//!    across the combinational frontier (select-mask arena slots
//!    included, as virtual planes), alias-map soundness (every plane a
//!    signal observes is defined by the end of settle), plane lifetime
//!    and overlap (a plane is written at most once per settle unless
//!    the writer reads it — the n-ary chain contract), and consistency
//!    of the derived fast-path metadata (dense runs, mask-group
//!    bindings) with the pools they summarize.
//! 2. [`validate_against`] co-simulates the tape interpreter against
//!    the serial reference simulator [`pe_sim::Simulator`], the same
//!    oracle every differential test uses: seeded probe rounds drive
//!    random input words through both sides from power-on state and
//!    demand every signal agree, bit for bit, every cycle (output *and*
//!    next-state equivalence — register and memory state evolves
//!    across the probe window). A mutant tape that survives the
//!    structural checks is caught here.
//!
//! [`Tape::compile_optimized`] packages both into a
//! [`TapeCertificate`]: netlist and IR digests, per-pass instruction
//! deltas, and the validated flag `pe-serve` admission requires.

use crate::ir;
use crate::wide::{WInstr, WideProgram};
use crate::Tape;
use pe_rtl::Design;
use pe_util::bits;
use std::fmt;

/// Probe rounds [`Tape::compile_optimized`] drives through the
/// translation validator.
pub const DEFAULT_PROBE_ROUNDS: u32 = 4;
/// Clock cycles per validation probe round.
pub const DEFAULT_PROBE_CYCLES: u32 = 8;

/// A structural defect found by the well-formedness checker. `reason`
/// is a stable machine-readable identifier; `detail` names the
/// offending instruction, plane, or signal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WfError {
    /// Stable defect class: `operand-bounds`, `def-before-use`,
    /// `alias-unsound`, `plane-overlap`, `writes-state-plane`,
    /// `mask-group-mismatch`, `side-table-bounds`, or
    /// `run-inconsistent`.
    pub reason: &'static str,
    /// Human-readable location of the defect.
    pub detail: String,
}

impl fmt::Display for WfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tape ill-formed ({}): {}", self.reason, self.detail)
    }
}

impl std::error::Error for WfError {}

/// Why the translation validator rejected a tape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValidateError {
    /// Stable rejection class: a [`WfError::reason`] when the
    /// structural pre-check failed, `invalid-design` when the reference
    /// simulator rejected the netlist, or `signal-mismatch` when a
    /// probe diverged.
    pub reason: &'static str,
    /// Which signal/cycle/round diverged, with both values.
    pub detail: String,
}

impl fmt::Display for ValidateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "translation validation failed ({}): {}",
            self.reason, self.detail
        )
    }
}

impl std::error::Error for ValidateError {}

impl From<WfError> for ValidateError {
    fn from(e: WfError) -> Self {
        ValidateError {
            reason: e.reason,
            detail: e.detail,
        }
    }
}

/// One optimization pass's effect on the program, recorded in the
/// certificate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PassStat {
    /// Pass name (`fold-forward`, `die-compact`, `schedule`).
    pub pass: &'static str,
    /// Instruction count entering the pass.
    pub instructions_before: u64,
    /// Instruction count leaving the pass.
    pub instructions_after: u64,
    /// Plane count entering the pass.
    pub planes_before: u64,
    /// Plane count leaving the pass.
    pub planes_after: u64,
}

/// The machine-checked equivalence evidence attached to an optimized
/// tape: what was compiled (netlist digest), what came out (IR digest),
/// what each pass did, and whether the translation validator proved the
/// result equivalent to the source netlist. `pe-serve` refuses to serve
/// a design whose tape carries `validated: false`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TapeCertificate {
    /// Design name.
    pub design: String,
    /// FNV-1a-128 of the source netlist's canonical text form.
    pub netlist_fnv128: String,
    /// FNV-1a-128 of the optimized program (see `ir::program_digest`).
    pub ir_fnv128: String,
    /// Instructions straight out of `Tape::compile`.
    pub pre_instructions: u64,
    /// Instructions after the pass pipeline.
    pub post_instructions: u64,
    /// Planes straight out of `Tape::compile`.
    pub pre_planes: u64,
    /// Planes after the pass pipeline.
    pub post_planes: u64,
    /// Per-pass deltas, pipeline order.
    pub passes: Vec<PassStat>,
    /// Whether the optimized tape was proven equivalent to the netlist.
    pub validated: bool,
    /// The rejection reason when `validated` is false.
    pub reason: Option<String>,
    /// Probe rounds the validator drove against the reference simulator.
    pub probe_rounds: u32,
    /// Cycles per probe round.
    pub probe_cycles: u32,
}

impl TapeCertificate {
    /// Instructions removed by the pipeline.
    pub fn instructions_removed(&self) -> u64 {
        self.pre_instructions.saturating_sub(self.post_instructions)
    }

    /// The certificate as space-separated `tape_*` `key=value` fields:
    /// the form the lint bench's `--machine` lines and the served-tape
    /// fixture lock, so the two cannot drift.
    pub fn machine_fields(&self) -> String {
        let mut out = format!(
            "tape_pre_instructions={} tape_post_instructions={} tape_pre_planes={} \
             tape_post_planes={} tape_validated={} tape_netlist_fnv128={} tape_ir_fnv128={}",
            self.pre_instructions,
            self.post_instructions,
            self.pre_planes,
            self.post_planes,
            self.validated,
            self.netlist_fnv128,
            self.ir_fnv128,
        );
        for p in &self.passes {
            out.push_str(&format!(
                " tape_pass={}:{}->{}",
                p.pass, p.instructions_before, p.instructions_after
            ));
        }
        out
    }
}

// ---------------------------------------------------------------------
// Well-formedness
// ---------------------------------------------------------------------

fn wf(reason: &'static str, detail: String) -> WfError {
    WfError { reason, detail }
}

/// Bounds-checks one pooled operand range.
fn check_pool_range(
    p: &WideProgram,
    off: u32,
    w: u32,
    what: &str,
    i: usize,
) -> Result<(), WfError> {
    let end = off as usize + w as usize;
    if end > p.pool.len() {
        return Err(wf(
            "operand-bounds",
            format!(
                "instr {i}: {what} pool range {off}+{w} exceeds pool length {}",
                p.pool.len()
            ),
        ));
    }
    for &pl in &p.pool[off as usize..end] {
        if pl >= p.n_planes {
            return Err(wf(
                "operand-bounds",
                format!("instr {i}: {what} reads plane {pl} >= {}", p.n_planes),
            ));
        }
    }
    Ok(())
}

/// Bounds-checks every operand and side-table reference of one
/// instruction, so the def/use extractors in `ir` cannot panic on it.
fn check_instr_shape(p: &WideProgram, i: usize) -> Result<(), WfError> {
    let dense = |base: u32, w: u32, what: &str| -> Result<(), WfError> {
        if base as usize + w as usize > p.n_planes as usize {
            return Err(wf(
                "operand-bounds",
                format!(
                    "instr {i}: dense {what} run {base}+{w} exceeds {} planes",
                    p.n_planes
                ),
            ));
        }
        Ok(())
    };
    match p.instrs[i] {
        WInstr::Add { a, b, w, .. } | WInstr::Sub { a, b, w, .. } => {
            check_pool_range(p, a, w, "a", i)?;
            check_pool_range(p, b, w, "b", i)
        }
        WInstr::AddD { a, b, w, .. } | WInstr::SubD { a, b, w, .. } => {
            dense(a, w, "a")?;
            dense(b, w, "b")
        }
        WInstr::Mul { a, b, w, bw, .. } | WInstr::MulS { a, b, w, bw, .. } => {
            check_pool_range(p, a, w, "a", i)?;
            check_pool_range(p, b, bw, "b", i)
        }
        WInstr::Neg { a, w, .. }
        | WInstr::Not { a, w, .. }
        | WInstr::RedAnd { a, w, .. }
        | WInstr::RedOr { a, w, .. }
        | WInstr::RedXor { a, w, .. } => check_pool_range(p, a, w, "a", i),
        WInstr::Eq { a, b, w, .. }
        | WInstr::Ne { a, b, w, .. }
        | WInstr::Lt { a, b, w, .. }
        | WInstr::Le { a, b, w, .. }
        | WInstr::SLt { a, b, w, .. }
        | WInstr::SLe { a, b, w, .. }
        | WInstr::And2 { a, b, w, .. }
        | WInstr::Or2 { a, b, w, .. }
        | WInstr::Xor2 { a, b, w, .. } => {
            check_pool_range(p, a, w, "a", i)?;
            check_pool_range(p, b, w, "b", i)
        }
        WInstr::Shl {
            a, amt, w, amt_w, ..
        }
        | WInstr::Shr {
            a, amt, w, amt_w, ..
        }
        | WInstr::Sar {
            a, amt, w, amt_w, ..
        } => {
            check_pool_range(p, a, w, "a", i)?;
            check_pool_range(p, amt, amt_w, "amt", i)
        }
        WInstr::Mux2 { idx } => {
            let Some(mx) = p.mux2s.get(idx as usize) else {
                return Err(wf(
                    "side-table-bounds",
                    format!("instr {i}: mux2 index {idx} out of range"),
                ));
            };
            check_pool_range(p, mx.sel, mx.sel_w, "sel", i)?;
            check_pool_range(p, mx.a, mx.w, "leg a", i)?;
            check_pool_range(p, mx.b, mx.w, "leg b", i)?;
            for (run, off, what) in [(mx.a_run, mx.a, "a_run"), (mx.b_run, mx.b, "b_run")] {
                if run != crate::wide::leg_run(&p.pool, off, mx.w) {
                    return Err(wf(
                        "run-inconsistent",
                        format!("instr {i}: mux2 {what} {run:?} disagrees with its pool"),
                    ));
                }
            }
            Ok(())
        }
        WInstr::MuxN { idx } => {
            let Some(mx) = p.muxes.get(idx as usize) else {
                return Err(wf(
                    "side-table-bounds",
                    format!("instr {i}: muxN index {idx} out of range"),
                ));
            };
            let Some(g) = p.mask_groups.get(mx.group as usize) else {
                return Err(wf(
                    "side-table-bounds",
                    format!("instr {i}: mask group {} out of range", mx.group),
                ));
            };
            if mx.masks != g.base || mx.n != g.n {
                return Err(wf(
                    "mask-group-mismatch",
                    format!(
                        "instr {i}: muxN binds masks@{} n={} but group {} provides masks@{} n={}",
                        mx.masks, mx.n, mx.group, g.base, g.n
                    ),
                ));
            }
            check_pool_range(p, mx.legs, mx.n * mx.w, "legs", i)?;
            let runs_end = mx.runs as usize + mx.n as usize;
            if runs_end > p.leg_runs.len() {
                return Err(wf(
                    "side-table-bounds",
                    format!(
                        "instr {i}: leg runs {}+{} exceed table length {}",
                        mx.runs,
                        mx.n,
                        p.leg_runs.len()
                    ),
                ));
            }
            for d in 0..mx.n {
                let want = crate::wide::leg_run(&p.pool, mx.legs + d * mx.w, mx.w);
                if p.leg_runs[(mx.runs + d) as usize] != want {
                    return Err(wf(
                        "run-inconsistent",
                        format!("instr {i}: muxN leg {d} run disagrees with its pool"),
                    ));
                }
            }
            Ok(())
        }
        WInstr::SelMasks { group } => {
            let Some(g) = p.mask_groups.get(group as usize) else {
                return Err(wf(
                    "side-table-bounds",
                    format!("instr {i}: mask group {group} out of range"),
                ));
            };
            if g.base + g.n > p.masks_len {
                return Err(wf(
                    "mask-group-mismatch",
                    format!(
                        "instr {i}: mask group {group} slots {}+{} exceed arena {}",
                        g.base, g.n, p.masks_len
                    ),
                ));
            }
            check_pool_range(p, g.sel, g.sel_w, "sel", i)
        }
        WInstr::Tbl { idx } => {
            let Some(t) = p.tables.get(idx as usize) else {
                return Err(wf(
                    "side-table-bounds",
                    format!("instr {i}: table index {idx} out of range"),
                ));
            };
            check_pool_range(p, t.addr, t.addr_w, "addr", i)
        }
    }
}

/// The full structural proof over a compiled program. `widths` are the
/// per-signal bit widths (for alias-map shape checking).
pub(crate) fn check_program(p: &WideProgram, widths: &[u32]) -> Result<(), WfError> {
    // Alias-map shape: every signal's slice of plane_map exists and
    // points at real planes.
    if p.plane_base.len() != widths.len() {
        return Err(wf(
            "alias-unsound",
            format!(
                "{} signals but {} alias-map bases",
                widths.len(),
                p.plane_base.len()
            ),
        ));
    }
    for (s, (&base, &w)) in p.plane_base.iter().zip(widths).enumerate() {
        let end = base as usize + w as usize;
        if end > p.plane_map.len() {
            return Err(wf(
                "alias-unsound",
                format!(
                    "signal {s}: alias map {base}+{w} exceeds map length {}",
                    p.plane_map.len()
                ),
            ));
        }
        for &pl in &p.plane_map[base as usize..end] {
            if pl >= p.n_planes {
                return Err(wf(
                    "alias-unsound",
                    format!("signal {s}: aliased to plane {pl} >= {}", p.n_planes),
                ));
            }
        }
    }
    // Sequential record bounds.
    for (r, reg) in p.regs.iter().enumerate() {
        check_pool_range(p, reg.d, reg.w, "reg d", usize::MAX)
            .map_err(|e| wf(e.reason, format!("register {r}: {}", e.detail)))?;
        if reg.q as usize + reg.w as usize > p.n_planes as usize {
            return Err(wf(
                "operand-bounds",
                format!("register {r}: q run exceeds planes"),
            ));
        }
        if reg.d_run != crate::wide::leg_run(&p.pool, reg.d, reg.w) {
            return Err(wf(
                "run-inconsistent",
                format!("register {r}: d_run disagrees with its pool"),
            ));
        }
        if let Some(en) = reg.en {
            if en >= p.n_planes {
                return Err(wf(
                    "operand-bounds",
                    format!("register {r}: enable plane {en} out of range"),
                ));
            }
        }
    }
    for (m, mem) in p.mems.iter().enumerate() {
        for (off, w, what) in [
            (mem.raddr, mem.addr_w, "raddr"),
            (mem.waddr, mem.addr_w, "waddr"),
            (mem.wdata, mem.data_w, "wdata"),
        ] {
            check_pool_range(p, off, w, what, usize::MAX)
                .map_err(|e| wf(e.reason, format!("memory {m}: {}", e.detail)))?;
        }
        if mem.wen >= p.n_planes || mem.rdata as usize + mem.data_w as usize > p.n_planes as usize {
            return Err(wf(
                "operand-bounds",
                format!("memory {m}: wen/rdata planes out of range"),
            ));
        }
    }
    // Def-before-use over the combinational frontier, with write-once
    // lifetimes (chain links excepted) and state-plane immutability.
    let state = ir::state_planes(p);
    let mut defined = state.clone();
    let mut written_by: Vec<Option<usize>> = vec![None; p.n_planes as usize];
    let mut mask_defined = vec![false; p.masks_len as usize];
    let mut uses = Vec::new();
    for i in 0..p.instrs.len() {
        check_instr_shape(p, i)?;
        uses.clear();
        ir::instr_uses(p, i, &mut uses);
        for &u in &uses {
            let ok = if ir::is_mask_plane(u) {
                mask_defined
                    .get((u - ir::MASK_PLANE_BASE) as usize)
                    .copied()
                    .unwrap_or(false)
            } else {
                defined[u as usize]
            };
            if !ok {
                return Err(wf(
                    "def-before-use",
                    format!("instr {i} reads plane {u} before any definition"),
                ));
            }
        }
        let (dst, w) = ir::instr_def(p, i);
        if ir::is_mask_plane(dst) {
            for s in dst - ir::MASK_PLANE_BASE..dst - ir::MASK_PLANE_BASE + w {
                mask_defined[s as usize] = true;
            }
            continue;
        }
        if dst as usize + w as usize > p.n_planes as usize {
            return Err(wf(
                "operand-bounds",
                format!("instr {i}: dst run {dst}+{w} exceeds {} planes", p.n_planes),
            ));
        }
        for pl in dst..dst + w {
            if state[pl as usize] {
                return Err(wf(
                    "writes-state-plane",
                    format!("instr {i} writes plane {pl}, which holds input or sequential state"),
                ));
            }
            if written_by[pl as usize].is_some() && !uses.contains(&pl) {
                return Err(wf(
                    "plane-overlap",
                    format!(
                        "instr {i} overwrites plane {pl} (written by instr {}) without reading it",
                        written_by[pl as usize].expect("checked")
                    ),
                ));
            }
            written_by[pl as usize] = Some(i);
            defined[pl as usize] = true;
        }
    }
    // Alias-map soundness: every observable plane is defined by the end
    // of settle, and so is every plane the sequential capture reads.
    uses.clear();
    ir::root_uses(p, &mut uses);
    for &u in &uses {
        if !defined[u as usize] {
            return Err(wf(
                "alias-unsound",
                format!("plane {u} is observable or state-captured but never defined"),
            ));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Translation validation
// ---------------------------------------------------------------------

/// Deterministic splitmix64 for probe stimulus.
struct Probe(u64);

impl Probe {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Proves `tape` equivalent to `design` by co-simulation against the
/// serial reference simulator [`pe_sim::Simulator`]: `rounds` probe
/// rounds of `cycles` cycles each drive seeded random input words
/// through both sides from power-on state and demand that every signal
/// agree, bit for bit, every cycle — output *and* next-state
/// equivalence, since register and memory state evolves across the
/// probe window. Runs the structural well-formedness proof first, so a
/// malformed tape is rejected by name instead of interpreted.
///
/// # Errors
///
/// A [`ValidateError`] carrying the structural reason,
/// `invalid-design` when the reference simulator rejects the netlist,
/// or `signal-mismatch` naming the first diverging signal, cycle, and
/// round.
pub fn validate_against(
    design: &Design,
    tape: &Tape,
    rounds: u32,
    cycles: u32,
) -> Result<(), ValidateError> {
    tape.check_well_formed()?;
    let mut reference = pe_sim::Simulator::new(design).map_err(|e| ValidateError {
        reason: "invalid-design",
        detail: e.to_string(),
    })?;
    let inputs: Vec<(pe_rtl::SignalId, u32)> = design
        .inputs()
        .iter()
        .map(|port| {
            let s = port.signal();
            (s, design.signal(s).width())
        })
        .collect();
    for round in 0..rounds {
        let mut probe = Probe(0x5eed_0000_0000_0000 ^ (u64::from(round) << 8));
        reference.reset();
        let mut sim = crate::TapeSimulator::new(tape);
        for cycle in 0..cycles {
            for &(sig, w) in &inputs {
                let v = probe.next() & bits::mask(w);
                reference.set_input(sig, v);
                sim.set_input(sig, v);
            }
            for (sig, &want) in design.signal_ids().zip(reference.values()) {
                let got = sim.value(sig);
                if got != want {
                    return Err(ValidateError {
                        reason: "signal-mismatch",
                        detail: format!(
                            "signal `{}` round {round} cycle {cycle}: netlist computed \
                             {want:#x}, tape computed {got:#x}",
                            design.signal(sig).name(),
                        ),
                    });
                }
            }
            reference.step();
            sim.step();
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Seeded miscompiles
// ---------------------------------------------------------------------

/// The IR mutation catalog for the seeded-miscompile suite, mirroring
/// `pe_designs::defects`: each name maps to one deliberate compiler bug
/// [`Tape::seed_miscompile`] can inject, and the verifier must reject
/// every one of them with a named reason.
pub const MISCOMPILE_MUTATIONS: &[&str] = &[
    "swapped-operands",
    "dropped-instruction",
    "stale-alias",
    "corrupted-mask-group",
];

impl Tape {
    /// Runs the structural well-formedness proof over the compiled
    /// program: operand/side-table bounds, def-before-use, alias-map
    /// soundness, plane lifetime/overlap, fast-path-metadata
    /// consistency.
    ///
    /// # Errors
    ///
    /// The first structural defect found, with a stable
    /// [`WfError::reason`].
    pub fn check_well_formed(&self) -> Result<(), WfError> {
        check_program(&self.wide, &self.widths)
    }

    /// Injects the named miscompile into the already-compiled program
    /// (see [`MISCOMPILE_MUTATIONS`]). Returns `false` when the program
    /// has no site for that mutation (e.g. no select-mask groups).
    /// Every injected mutant must be rejected by
    /// [`Tape::check_well_formed`] or [`validate_against`].
    pub fn seed_miscompile(&mut self, mutation: &str) -> bool {
        let p = &mut self.wide;
        match mutation {
            "swapped-operands" => {
                for instr in p.instrs.iter_mut() {
                    match instr {
                        WInstr::Sub { a, b, .. }
                        | WInstr::SubD { a, b, .. }
                        | WInstr::Lt { a, b, .. }
                        | WInstr::Le { a, b, .. }
                        | WInstr::SLt { a, b, .. }
                        | WInstr::SLe { a, b, .. }
                            if a != b =>
                        {
                            std::mem::swap(a, b);
                            return true;
                        }
                        _ => {}
                    }
                }
                for mx in p.mux2s.iter_mut() {
                    if mx.a != mx.b {
                        std::mem::swap(&mut mx.a, &mut mx.b);
                        std::mem::swap(&mut mx.a_run, &mut mx.b_run);
                        return true;
                    }
                }
                false
            }
            "dropped-instruction" => {
                if p.instrs.is_empty() {
                    return false;
                }
                p.instrs.pop();
                true
            }
            "stale-alias" => {
                // Swap two bits of the first signal whose alias map has
                // two distinct planes: the signal now observes a
                // permuted value.
                for (s, &base) in p.plane_base.iter().enumerate() {
                    let w = self.widths[s] as usize;
                    let base = base as usize;
                    for i in 1..w {
                        if p.plane_map[base + i] != p.plane_map[base] {
                            p.plane_map.swap(base, base + i);
                            return true;
                        }
                    }
                }
                false
            }
            "corrupted-mask-group" => {
                // Shift the first consumed group's arena base: its
                // muxes now read someone else's one-hot masks.
                for instr in &p.instrs {
                    if let WInstr::MuxN { idx } = instr {
                        let group = p.muxes[*idx as usize].group as usize;
                        p.mask_groups[group].base += 1;
                        return true;
                    }
                }
                false
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pe_designs::suite::all_benchmarks;

    #[test]
    fn compiled_suite_designs_are_well_formed() {
        for bench in all_benchmarks() {
            let tape = Tape::compile(&bench.design).expect("compiles");
            tape.check_well_formed()
                .unwrap_or_else(|e| panic!("{}: {e}", bench.name));
        }
    }

    #[test]
    fn every_miscompile_mutation_is_rejected_with_a_named_reason() {
        let benches = all_benchmarks();
        for &mutation in MISCOMPILE_MUTATIONS {
            let mut applied = 0usize;
            for bench in &benches {
                let (mut tape, cert) = Tape::compile_optimized(&bench.design).expect("compiles");
                assert!(cert.validated, "{}: {:?}", bench.name, cert.reason);
                if !tape.seed_miscompile(mutation) {
                    continue;
                }
                applied += 1;
                let err = validate_against(&bench.design, &tape, 3, 6).expect_err(&format!(
                    "{}: mutant `{mutation}` slipped past the validator",
                    bench.name
                ));
                assert!(
                    !err.reason.is_empty(),
                    "{}: `{mutation}` rejected without a reason",
                    bench.name
                );
            }
            assert!(
                applied > 0,
                "no suite design offers a site for `{mutation}`"
            );
        }
    }

    #[test]
    fn unknown_mutation_is_a_no_op() {
        let bench = &all_benchmarks()[0];
        let (mut tape, _) = Tape::compile_optimized(&bench.design).expect("compiles");
        assert!(!tape.seed_miscompile("no-such-mutation"));
        tape.check_well_formed()
            .expect("untouched tape stays sound");
    }

    /// Uninitialized registers and X-steered muxes power on at zero in
    /// both the tape and the reference simulator, so they certify.
    #[test]
    fn two_state_defect_designs_certify() {
        for name in pe_designs::defects::DEFECT_NAMES {
            let bench = pe_designs::defects::defect_benchmark(name).expect("defect exists");
            let (_, cert) = Tape::compile_optimized(&bench.design).expect("compiles");
            assert!(cert.validated, "{name}: {:?}", cert.reason);
        }
    }

    #[test]
    fn a_netlist_the_reference_rejects_is_named() {
        let bench = &all_benchmarks()[0];
        let tape = Tape::compile(&bench.design).expect("compiles");
        let broken = pe_designs::defects::structural_defect_design("Defect_Comb_Cycle")
            .expect("defect exists");
        let err = validate_against(&broken, &tape, 1, 1).expect_err("rejected");
        assert_eq!(err.reason, "invalid-design");
    }
}
