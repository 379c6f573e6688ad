//! The optimization pipeline over the tape IR.
//!
//! Three passes, run in order by [`optimize`], each re-proven
//! well-formed by `verify::check_program` before its result is kept
//! (a pass that produces an ill-formed program is reverted and the
//! pipeline stops — the translation validator then decides whether
//! what remains is servable):
//!
//! 1. **`fold-forward`** — copy propagation and constant folding past
//!    the compiler's cone folding, expressed as a per-plane
//!    substitution map: AND/OR/XOR identities against the reserved
//!    zero/one planes, idempotent gates, muxes with constant selects or
//!    identical legs, comparisons of identical or fully-constant
//!    operands, adds/subtracts/shifts by zero, and local value
//!    numbering (CSE) that coalesces instructions computing the same
//!    function of the same resolved planes. Substituted planes lose
//!    every reference (pools, alias maps, sequential captures are
//!    rewritten through the map), so their producers become dead.
//! 2. **`die-compact`** — dead-instruction elimination and plane
//!    compaction: a reverse liveness walk from the observability roots
//!    (every signal's alias map, every sequential capture) drops
//!    instructions no live plane depends on, then rebuilds the operand
//!    pools, side tables, select-mask arena, and plane numbering from
//!    scratch — re-deriving every dense-run fast path (`AddD`/`SubD`,
//!    mux leg runs, register capture runs) on the compacted layout.
//! 3. **`schedule`** — plane-locality list scheduling: instructions are
//!    reordered within their RAW/WAR/WAW hazard partial order (mask
//!    arena slots modelled as virtual planes, so `SelMasks` stays ahead
//!    of its muxes) greedily picking the ready instruction whose
//!    destination is nearest the previously issued one, keeping the
//!    interpreter's plane accesses tight.

use crate::ir::{self, MASK_PLANE_BASE};
use crate::verify::{self, PassStat};
use crate::wide::{dense_base, leg_run, WInstr, WMaskGroup, WMux, WMux2, WideProgram, ONE, ZERO};

/// Runs the full pass pipeline in place, returning per-pass stats for
/// the certificate. Each pass's output must re-prove well-formed; a
/// pass that fails the proof is reverted and the pipeline stops early.
pub(crate) fn optimize(p: &mut WideProgram, widths: &[u32]) -> Vec<PassStat> {
    let pipeline: [(&'static str, Pass); 3] = [
        ("fold-forward", fold_forward),
        ("die-compact", die_compact),
        ("schedule", schedule),
    ];
    let mut stats = Vec::new();
    for (pass, run) in pipeline {
        let snapshot = p.clone();
        let (instructions_before, planes_before) = (p.instrs.len() as u64, u64::from(p.n_planes));
        run(p);
        if verify::check_program(p, widths).is_err() {
            *p = snapshot;
            break;
        }
        stats.push(PassStat {
            pass,
            instructions_before,
            instructions_after: p.instrs.len() as u64,
            planes_before,
            planes_after: u64::from(p.n_planes),
        });
    }
    stats
}

// ---------------------------------------------------------------------
// fold-forward
// ---------------------------------------------------------------------

/// Follows the substitution chain to its representative. Entries are
/// created already-resolved, so chains are short; the loop guards
/// against depth anyway.
fn resolve(subst: &[u32], mut x: u32) -> u32 {
    while subst[x as usize] != x {
        x = subst[x as usize];
    }
    x
}

/// The concrete value of a resolved plane vector when every plane is a
/// reserved constant.
fn const_val(planes: &[u32]) -> Option<u64> {
    let mut v = 0u64;
    for (i, &pl) in planes.iter().enumerate() {
        match pl {
            ZERO => {}
            ONE => v |= 1 << i,
            _ => return None,
        }
    }
    Some(v)
}

/// `value` as a vector of reserved constant planes.
fn const_planes(value: u64, w: u32) -> Vec<u32> {
    (0..w)
        .map(|i| if (value >> i) & 1 == 1 { ONE } else { ZERO })
        .collect()
}

/// A pipeline pass: rewrites the program in place.
type Pass = fn(&mut WideProgram);

/// Value-numbering key: instruction tag, resolved operand planes, and
/// the shape parameters (widths, counts, immediates) that must match
/// for two instructions to compute the same function.
type ValueKey = (u8, Vec<u32>, Vec<u32>);

fn sign_extend(v: u64, w: u32) -> i64 {
    let shift = 64 - w;
    ((v << shift) as i64) >> shift
}

fn fold_forward(p: &mut WideProgram) {
    de_densify(p);
    // Planes written by more than one instruction belong to n-ary
    // chains; their intermediate values are position-dependent and must
    // not be forwarded.
    let mut writes = vec![0u8; p.n_planes as usize];
    for i in 0..p.instrs.len() {
        let (dst, w) = ir::instr_def(p, i);
        if !ir::is_mask_plane(dst) {
            for pl in dst..dst + w {
                writes[pl as usize] = writes[pl as usize].saturating_add(1);
            }
        }
    }
    let mut subst: Vec<u32> = (0..p.n_planes).collect();
    // Value numbering: (tag, resolved operands, shape params) → def.
    let mut seen: std::collections::HashMap<ValueKey, (u32, u32)> =
        std::collections::HashMap::new();
    let mut res_a: Vec<u32> = Vec::new();
    let mut res_b: Vec<u32> = Vec::new();
    for i in 0..p.instrs.len() {
        let (dst, dw) = ir::instr_def(p, i);
        if ir::is_mask_plane(dst) || (dst..dst + dw).any(|pl| writes[pl as usize] > 1) {
            continue;
        }
        let rpool = |res: &mut Vec<u32>, off: u32, w: u32| {
            res.clear();
            res.extend(
                p.pool[off as usize..(off + w) as usize]
                    .iter()
                    .map(|&pl| resolve(&subst, pl)),
            );
        };
        // The forwarded planes for this instruction's destination run,
        // when a rule applies.
        let fwd: Option<Vec<u32>> = match p.instrs[i] {
            WInstr::Add { a, b, w, .. } => {
                rpool(&mut res_a, a, w);
                rpool(&mut res_b, b, w);
                match (const_val(&res_a), const_val(&res_b)) {
                    (Some(va), Some(vb)) => Some(const_planes(va.wrapping_add(vb), w)),
                    (Some(0), _) => Some(res_b.clone()),
                    (_, Some(0)) => Some(res_a.clone()),
                    _ => None,
                }
            }
            WInstr::Sub { a, b, w, .. } => {
                rpool(&mut res_a, a, w);
                rpool(&mut res_b, b, w);
                if res_a == res_b {
                    Some(vec![ZERO; w as usize])
                } else {
                    match (const_val(&res_a), const_val(&res_b)) {
                        (Some(va), Some(vb)) => Some(const_planes(va.wrapping_sub(vb), w)),
                        (_, Some(0)) => Some(res_a.clone()),
                        _ => None,
                    }
                }
            }
            WInstr::Neg { a, w, .. } => {
                rpool(&mut res_a, a, w);
                const_val(&res_a).map(|va| const_planes(va.wrapping_neg(), w))
            }
            WInstr::Mul { a, b, w, bw, .. } | WInstr::MulS { a, b, w, bw, .. } => {
                rpool(&mut res_a, a, w);
                rpool(&mut res_b, b, bw);
                match (const_val(&res_a), const_val(&res_b)) {
                    (Some(0), _) | (_, Some(0)) => Some(vec![ZERO; w as usize]),
                    (Some(va), Some(vb)) => Some(const_planes(va.wrapping_mul(vb), w)),
                    (_, Some(1)) => Some(res_a.clone()),
                    (Some(1), _) => {
                        let mut legs = res_b.clone();
                        legs.resize(w as usize, ZERO);
                        Some(legs)
                    }
                    _ => None,
                }
            }
            WInstr::Eq { a, b, w, .. }
            | WInstr::Ne { a, b, w, .. }
            | WInstr::Lt { a, b, w, .. }
            | WInstr::Le { a, b, w, .. }
            | WInstr::SLt { a, b, w, .. }
            | WInstr::SLe { a, b, w, .. } => {
                rpool(&mut res_a, a, w);
                rpool(&mut res_b, b, w);
                let tag = ir::instr_tag(&p.instrs[i]);
                let (cva, cvb) = (const_val(&res_a), const_val(&res_b));
                let max = pe_util::bits::mask(w);
                if res_a == res_b {
                    // x ⋈ x: reflexive relations hold, strict ones don't.
                    let hit = matches!(
                        p.instrs[i],
                        WInstr::Eq { .. } | WInstr::Le { .. } | WInstr::SLe { .. }
                    );
                    Some(vec![if hit { ONE } else { ZERO }])
                } else if let (Some(va), Some(vb)) = (cva, cvb) {
                    let hit = match tag {
                        7 => va == vb,
                        8 => va != vb,
                        9 => va < vb,
                        10 => va <= vb,
                        11 => sign_extend(va, w) < sign_extend(vb, w),
                        _ => sign_extend(va, w) <= sign_extend(vb, w),
                    };
                    Some(vec![if hit { ONE } else { ZERO }])
                } else {
                    // One-sided constants: signed compares against 0/-1
                    // reduce to the sign plane; unsigned compares
                    // against the range limits decide outright.
                    match tag {
                        // slt(a, 0) and sle(a, -1) are both "a is
                        // negative" — the sign bit.
                        11 if cvb == Some(0) => Some(vec![res_a[w as usize - 1]]),
                        12 if cvb == Some(max) => Some(vec![res_a[w as usize - 1]]),
                        9 if cvb == Some(0) || cva == Some(max) => Some(vec![ZERO]),
                        10 if cva == Some(0) || cvb == Some(max) => Some(vec![ONE]),
                        _ => None,
                    }
                }
            }
            WInstr::And2 { a, b, w, .. } => {
                rpool(&mut res_a, a, w);
                rpool(&mut res_b, b, w);
                bitwise_fwd(&res_a, &res_b, |pa, pb| match (pa, pb) {
                    (ZERO, _) | (_, ZERO) => Some(ZERO),
                    (ONE, x) | (x, ONE) => Some(x),
                    (x, y) if x == y => Some(x),
                    _ => None,
                })
            }
            WInstr::Or2 { a, b, w, .. } => {
                rpool(&mut res_a, a, w);
                rpool(&mut res_b, b, w);
                bitwise_fwd(&res_a, &res_b, |pa, pb| match (pa, pb) {
                    (ONE, _) | (_, ONE) => Some(ONE),
                    (ZERO, x) | (x, ZERO) => Some(x),
                    (x, y) if x == y => Some(x),
                    _ => None,
                })
            }
            WInstr::Xor2 { a, b, w, .. } => {
                rpool(&mut res_a, a, w);
                rpool(&mut res_b, b, w);
                bitwise_fwd(&res_a, &res_b, |pa, pb| match (pa, pb) {
                    (x, y) if x == y => Some(ZERO),
                    (ZERO, x) | (x, ZERO) => Some(x),
                    _ => None,
                })
            }
            WInstr::Not { a, w, .. } => {
                rpool(&mut res_a, a, w);
                if res_a.iter().all(|&pl| pl == ZERO || pl == ONE) {
                    Some(
                        res_a
                            .iter()
                            .map(|&pl| if pl == ZERO { ONE } else { ZERO })
                            .collect(),
                    )
                } else {
                    None
                }
            }
            WInstr::RedAnd { a, w, .. } => {
                rpool(&mut res_a, a, w);
                if res_a.contains(&ZERO) {
                    Some(vec![ZERO])
                } else if res_a.iter().all(|&pl| pl == ONE) {
                    Some(vec![ONE])
                } else if res_a.iter().all(|&pl| pl == res_a[0] || pl == ONE) {
                    Some(vec![res_a[0]])
                } else {
                    None
                }
            }
            WInstr::RedOr { a, w, .. } => {
                rpool(&mut res_a, a, w);
                if res_a.contains(&ONE) {
                    Some(vec![ONE])
                } else if res_a.iter().all(|&pl| pl == ZERO) {
                    Some(vec![ZERO])
                } else if res_a.iter().all(|&pl| pl == res_a[0] || pl == ZERO) {
                    Some(vec![res_a[0]])
                } else {
                    None
                }
            }
            WInstr::RedXor { a, w, .. } => {
                rpool(&mut res_a, a, w);
                if w == 1 {
                    Some(vec![res_a[0]])
                } else {
                    const_val(&res_a)
                        .map(|va| vec![if va.count_ones() % 2 == 1 { ONE } else { ZERO }])
                }
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
                rpool(&mut res_a, a, w);
                rpool(&mut res_b, amt, amt_w);
                if const_val(&res_b) == Some(0) {
                    Some(res_a.clone())
                } else if res_a.iter().all(|&pl| pl == ZERO) {
                    Some(vec![ZERO; w as usize])
                } else {
                    None
                }
            }
            WInstr::Mux2 { idx } => {
                let mx = &p.mux2s[idx as usize];
                rpool(&mut res_a, mx.sel, mx.sel_w);
                let (a, b, w) = (mx.a, mx.b, mx.w);
                let sel = const_val(&res_a);
                // With a single select plane the mux is a per-bit
                // blend of that plane: a (0,1) constant leg pair IS
                // the select.
                let sel_plane = (mx.sel_w == 1).then(|| res_a[0]);
                rpool(&mut res_a, a, w);
                rpool(&mut res_b, b, w);
                match sel {
                    // The serial engine OR-folds the select: any
                    // non-zero value picks leg b.
                    Some(0) => Some(res_a.clone()),
                    Some(_) => Some(res_b.clone()),
                    None => bitwise_fwd(&res_a, &res_b, |pa, pb| {
                        if pa == pb {
                            Some(pa)
                        } else if pa == ZERO && pb == ONE {
                            sel_plane
                        } else {
                            None
                        }
                    }),
                }
            }
            WInstr::MuxN { idx } => {
                let mx = &p.muxes[idx as usize];
                let g = &p.mask_groups[mx.group as usize];
                rpool(&mut res_a, g.sel, g.sel_w);
                let (legs, n, w) = (mx.legs, mx.n, mx.w);
                if let Some(sel) = const_val(&res_a) {
                    let leg = (sel.min(u64::from(n) - 1)) as u32;
                    rpool(&mut res_a, legs + leg * w, w);
                    Some(res_a.clone())
                } else {
                    // All legs agreeing on a bit makes that bit
                    // select-independent.
                    let mut agreed: Vec<u32> = Vec::with_capacity(w as usize);
                    'bits: for bit in 0..w {
                        let first = resolve(&subst, p.pool[(legs + bit) as usize]);
                        for leg in 1..n {
                            if resolve(&subst, p.pool[(legs + leg * w + bit) as usize]) != first {
                                break 'bits;
                            }
                        }
                        agreed.push(first);
                    }
                    (agreed.len() == w as usize).then_some(agreed)
                }
            }
            WInstr::Tbl { idx } => {
                let t = &p.tables[idx as usize];
                rpool(&mut res_a, t.addr, t.addr_w);
                match const_val(&res_a) {
                    Some(va) if (va as usize) < t.table.len() => {
                        Some(const_planes(t.table[va as usize], t.w))
                    }
                    _ => None,
                }
            }
            WInstr::AddD { .. } | WInstr::SubD { .. } | WInstr::SelMasks { .. } => None,
        };
        if let Some(planes) = fwd {
            debug_assert_eq!(planes.len(), dw as usize);
            for (bit, &target) in planes.iter().enumerate() {
                let from = dst + bit as u32;
                if target != from {
                    subst[from as usize] = target;
                }
            }
            continue;
        }
        // Value numbering over the plain computational ops.
        if let Some(key) = value_number_key(p, i, &subst) {
            match seen.get(&key) {
                Some(&(prev_dst, prev_w)) if prev_w == dw => {
                    for bit in 0..dw {
                        subst[(dst + bit) as usize] = prev_dst + bit;
                    }
                }
                Some(_) => {}
                None => {
                    seen.insert(key, (dst, dw));
                }
            }
        }
    }
    // Rewrite every reference through the substitution: operand pools,
    // the per-signal alias maps, and the sequential capture planes.
    // Destinations are never rewritten — a forwarded instruction still
    // executes (harmlessly) until die-compact removes it.
    for off in 0..p.pool.len() {
        p.pool[off] = resolve(&subst, p.pool[off]);
    }
    for entry in p.plane_map.iter_mut() {
        *entry = resolve(&subst, *entry);
    }
    for reg in p.regs.iter_mut() {
        if let Some(en) = reg.en {
            reg.en = Some(resolve(&subst, en));
        }
        reg.d_run = leg_run(&p.pool, reg.d, reg.w);
    }
    for mem in p.mems.iter_mut() {
        mem.wen = resolve(&subst, mem.wen);
    }
    // Derived fast-path metadata follows the rewritten pools.
    for mx in p.mux2s.iter_mut() {
        mx.a_run = leg_run(&p.pool, mx.a, mx.w);
        mx.b_run = leg_run(&p.pool, mx.b, mx.w);
    }
    for mx in p.muxes.iter_mut() {
        for d in 0..mx.n {
            p.leg_runs[(mx.runs + d) as usize] = leg_run(&p.pool, mx.legs + d * mx.w, mx.w);
        }
    }
}

/// Per-bit forwarding over a binary bitwise op: `rule` decides each
/// bit from its two resolved operand planes; all bits must decide.
fn bitwise_fwd(a: &[u32], b: &[u32], rule: impl Fn(u32, u32) -> Option<u32>) -> Option<Vec<u32>> {
    a.iter().zip(b).map(|(&pa, &pb)| rule(pa, pb)).collect()
}

/// The value-numbering key for plain computational instructions:
/// `(tag, resolved operand planes, shape params)`, with commutative
/// operand pairs order-normalized. Side-table and chain instructions
/// are not numbered.
fn value_number_key(p: &WideProgram, i: usize, subst: &[u32]) -> Option<(u8, Vec<u32>, Vec<u32>)> {
    let rp = |off: u32, w: u32| -> Vec<u32> {
        p.pool[off as usize..(off + w) as usize]
            .iter()
            .map(|&pl| resolve(subst, pl))
            .collect()
    };
    let tag = ir::instr_tag(&p.instrs[i]);
    match p.instrs[i] {
        WInstr::Add { a, b, w, .. } => {
            let (mut pa, pb) = (rp(a, w), rp(b, w));
            let mut pb = pb;
            if pb < pa {
                std::mem::swap(&mut pa, &mut pb);
            }
            pa.extend(pb);
            Some((tag, pa, vec![w]))
        }
        WInstr::Sub { a, b, w, .. } => {
            let mut pa = rp(a, w);
            pa.extend(rp(b, w));
            Some((tag, pa, vec![w]))
        }
        WInstr::Mul { a, b, w, bw, .. } | WInstr::MulS { a, b, w, bw, .. } => {
            let mut pa = rp(a, w);
            pa.extend(rp(b, bw));
            Some((tag, pa, vec![w, bw]))
        }
        WInstr::Neg { a, w, .. } | WInstr::Not { a, w, .. } => Some((tag, rp(a, w), vec![w])),
        WInstr::RedAnd { a, w, .. } | WInstr::RedOr { a, w, .. } | WInstr::RedXor { a, w, .. } => {
            Some((tag, rp(a, w), vec![w]))
        }
        WInstr::Eq { a, b, w, .. } | WInstr::Ne { a, b, w, .. } => {
            let (mut pa, mut pb) = (rp(a, w), rp(b, w));
            if pb < pa {
                std::mem::swap(&mut pa, &mut pb);
            }
            pa.extend(pb);
            Some((tag, pa, vec![w]))
        }
        WInstr::Lt { a, b, w, .. }
        | WInstr::Le { a, b, w, .. }
        | WInstr::SLt { a, b, w, .. }
        | WInstr::SLe { a, b, w, .. } => {
            let mut pa = rp(a, w);
            pa.extend(rp(b, w));
            Some((tag, pa, vec![w]))
        }
        WInstr::And2 { a, b, w, .. }
        | WInstr::Or2 { a, b, w, .. }
        | WInstr::Xor2 { a, b, w, .. } => {
            let (mut pa, mut pb) = (rp(a, w), rp(b, w));
            if pb < pa {
                std::mem::swap(&mut pa, &mut pb);
            }
            pa.extend(pb);
            Some((tag, pa, vec![w]))
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
            let mut pa = rp(a, w);
            pa.extend(rp(amt, amt_w));
            Some((tag, pa, vec![w, amt_w]))
        }
        _ => None,
    }
}

/// Converts dense `AddD`/`SubD` operands back to pooled form so the
/// substitution machinery sees every operand uniformly; `die-compact`
/// re-derives the dense forms on the final layout.
fn de_densify(p: &mut WideProgram) {
    for i in 0..p.instrs.len() {
        let replace = match p.instrs[i] {
            WInstr::AddD { a, b, dst, w } => Some((false, a, b, dst, w)),
            WInstr::SubD { a, b, dst, w } => Some((true, a, b, dst, w)),
            _ => None,
        };
        if let Some((is_sub, a, b, dst, w)) = replace {
            let pa = p.pool.len() as u32;
            p.pool.extend(a..a + w);
            let pb = p.pool.len() as u32;
            p.pool.extend(b..b + w);
            p.instrs[i] = if is_sub {
                WInstr::Sub {
                    a: pa,
                    b: pb,
                    dst,
                    w,
                }
            } else {
                WInstr::Add {
                    a: pa,
                    b: pb,
                    dst,
                    w,
                }
            };
        }
    }
}

// ---------------------------------------------------------------------
// die-compact
// ---------------------------------------------------------------------

const DEAD: u32 = u32::MAX;

fn die_compact(p: &mut WideProgram) {
    // Reverse liveness from the observability roots: any signal can be
    // read through its alias map after settle, and the sequential
    // capture reads the D/address/data/enable pools.
    let n = p.n_planes as usize;
    let mut live = vec![false; n];
    let mut group_live = vec![false; p.mask_groups.len()];
    let mut uses = Vec::new();
    ir::root_uses(p, &mut uses);
    for &u in &uses {
        live[u as usize] = true;
    }
    let mut keep = vec![false; p.instrs.len()];
    for i in (0..p.instrs.len()).rev() {
        let (dst, w) = ir::instr_def(p, i);
        let is_live = if ir::is_mask_plane(dst) {
            match p.instrs[i] {
                WInstr::SelMasks { group } => group_live[group as usize],
                _ => unreachable!("only SelMasks defines mask planes"),
            }
        } else {
            (dst..dst + w).any(|pl| live[pl as usize])
        };
        if !is_live {
            continue;
        }
        keep[i] = true;
        if let WInstr::MuxN { idx } = p.instrs[i] {
            group_live[p.muxes[idx as usize].group as usize] = true;
        }
        uses.clear();
        ir::instr_uses(p, i, &mut uses);
        for &u in &uses {
            if !ir::is_mask_plane(u) {
                live[u as usize] = true;
            }
        }
    }
    // Plane renumbering: reserved and state planes survive wholesale
    // (their runs must stay contiguous), plus every destination of a
    // surviving instruction.
    let mut kept_plane = ir::state_planes(p);
    for (i, &k) in keep.iter().enumerate() {
        if !k {
            continue;
        }
        let (dst, w) = ir::instr_def(p, i);
        if !ir::is_mask_plane(dst) {
            for pl in dst..dst + w {
                kept_plane[pl as usize] = true;
            }
        }
    }
    let mut renumber = vec![DEAD; n];
    let mut next = 0u32;
    for (old, &k) in kept_plane.iter().enumerate() {
        if k {
            renumber[old] = next;
            next += 1;
        }
    }
    let map = |pl: u32| -> u32 {
        let new = renumber[pl as usize];
        debug_assert_ne!(new, DEAD, "live reference to dropped plane {pl}");
        new
    };
    // Rebuild pools, side tables, and the mask arena from scratch over
    // the surviving instructions, re-deriving every dense-run fast
    // path on the new layout.
    let old_pool = std::mem::take(&mut p.pool);
    let mut pool: Vec<u32> = Vec::new();
    let mut emit = |pool: &mut Vec<u32>, off: u32, w: u32| -> u32 {
        let new_off = pool.len() as u32;
        pool.extend(
            old_pool[off as usize..(off + w) as usize]
                .iter()
                .map(|&pl| map(pl)),
        );
        new_off
    };
    let mut instrs: Vec<WInstr> = Vec::with_capacity(keep.iter().filter(|&&k| k).count());
    let mut mux2s: Vec<WMux2> = Vec::new();
    let mut muxes: Vec<WMux> = Vec::new();
    let mut mask_groups: Vec<WMaskGroup> = Vec::new();
    let mut leg_runs: Vec<(u32, u32)> = Vec::new();
    let mut tables = Vec::new();
    let mut group_map = vec![DEAD; p.mask_groups.len()];
    let mut masks_len = 0u32;
    for (i, &live) in keep.iter().enumerate() {
        if !live {
            continue;
        }
        let rebuilt = match p.instrs[i] {
            WInstr::Add { a, b, dst, w } => {
                rebuild_addsub(false, &mut pool, &mut emit, a, b, map(dst), w)
            }
            WInstr::Sub { a, b, dst, w } => {
                rebuild_addsub(true, &mut pool, &mut emit, a, b, map(dst), w)
            }
            WInstr::AddD { a, b, dst, w } => WInstr::AddD {
                a: map(a),
                b: map(b),
                dst: map(dst),
                w,
            },
            WInstr::SubD { a, b, dst, w } => WInstr::SubD {
                a: map(a),
                b: map(b),
                dst: map(dst),
                w,
            },
            WInstr::Mul { a, b, dst, w, bw } => WInstr::Mul {
                a: emit(&mut pool, a, w),
                b: emit(&mut pool, b, bw),
                dst: map(dst),
                w,
                bw,
            },
            WInstr::MulS { a, b, dst, w, bw } => WInstr::MulS {
                a: emit(&mut pool, a, w),
                b: emit(&mut pool, b, bw),
                dst: map(dst),
                w,
                bw,
            },
            WInstr::Neg { a, dst, w } => WInstr::Neg {
                a: emit(&mut pool, a, w),
                dst: map(dst),
                w,
            },
            WInstr::Eq { a, b, dst, w } => WInstr::Eq {
                a: emit(&mut pool, a, w),
                b: emit(&mut pool, b, w),
                dst: map(dst),
                w,
            },
            WInstr::Ne { a, b, dst, w } => WInstr::Ne {
                a: emit(&mut pool, a, w),
                b: emit(&mut pool, b, w),
                dst: map(dst),
                w,
            },
            WInstr::Lt { a, b, dst, w } => WInstr::Lt {
                a: emit(&mut pool, a, w),
                b: emit(&mut pool, b, w),
                dst: map(dst),
                w,
            },
            WInstr::Le { a, b, dst, w } => WInstr::Le {
                a: emit(&mut pool, a, w),
                b: emit(&mut pool, b, w),
                dst: map(dst),
                w,
            },
            WInstr::SLt { a, b, dst, w } => WInstr::SLt {
                a: emit(&mut pool, a, w),
                b: emit(&mut pool, b, w),
                dst: map(dst),
                w,
            },
            WInstr::SLe { a, b, dst, w } => WInstr::SLe {
                a: emit(&mut pool, a, w),
                b: emit(&mut pool, b, w),
                dst: map(dst),
                w,
            },
            WInstr::And2 { a, b, dst, w } => WInstr::And2 {
                a: emit(&mut pool, a, w),
                b: emit(&mut pool, b, w),
                dst: map(dst),
                w,
            },
            WInstr::Or2 { a, b, dst, w } => WInstr::Or2 {
                a: emit(&mut pool, a, w),
                b: emit(&mut pool, b, w),
                dst: map(dst),
                w,
            },
            WInstr::Xor2 { a, b, dst, w } => WInstr::Xor2 {
                a: emit(&mut pool, a, w),
                b: emit(&mut pool, b, w),
                dst: map(dst),
                w,
            },
            WInstr::Not { a, dst, w } => WInstr::Not {
                a: emit(&mut pool, a, w),
                dst: map(dst),
                w,
            },
            WInstr::RedAnd { a, dst, w } => WInstr::RedAnd {
                a: emit(&mut pool, a, w),
                dst: map(dst),
                w,
            },
            WInstr::RedOr { a, dst, w } => WInstr::RedOr {
                a: emit(&mut pool, a, w),
                dst: map(dst),
                w,
            },
            WInstr::RedXor { a, dst, w } => WInstr::RedXor {
                a: emit(&mut pool, a, w),
                dst: map(dst),
                w,
            },
            WInstr::Shl {
                a,
                amt,
                dst,
                w,
                amt_w,
            } => WInstr::Shl {
                a: emit(&mut pool, a, w),
                amt: emit(&mut pool, amt, amt_w),
                dst: map(dst),
                w,
                amt_w,
            },
            WInstr::Shr {
                a,
                amt,
                dst,
                w,
                amt_w,
            } => WInstr::Shr {
                a: emit(&mut pool, a, w),
                amt: emit(&mut pool, amt, amt_w),
                dst: map(dst),
                w,
                amt_w,
            },
            WInstr::Sar {
                a,
                amt,
                dst,
                w,
                amt_w,
            } => WInstr::Sar {
                a: emit(&mut pool, a, w),
                amt: emit(&mut pool, amt, amt_w),
                dst: map(dst),
                w,
                amt_w,
            },
            WInstr::Mux2 { idx } => {
                let mx = &p.mux2s[idx as usize];
                let sel = emit(&mut pool, mx.sel, mx.sel_w);
                let a = emit(&mut pool, mx.a, mx.w);
                let b = emit(&mut pool, mx.b, mx.w);
                mux2s.push(WMux2 {
                    sel,
                    sel_w: mx.sel_w,
                    a,
                    b,
                    a_run: leg_run(&pool, a, mx.w),
                    b_run: leg_run(&pool, b, mx.w),
                    dst: map(mx.dst),
                    w: mx.w,
                });
                WInstr::Mux2 {
                    idx: mux2s.len() as u32 - 1,
                }
            }
            WInstr::SelMasks { group } => {
                let g = &p.mask_groups[group as usize];
                let new_group = mask_groups.len() as u32;
                group_map[group as usize] = new_group;
                mask_groups.push(WMaskGroup {
                    sel: emit(&mut pool, g.sel, g.sel_w),
                    sel_w: g.sel_w,
                    n: g.n,
                    base: masks_len,
                });
                masks_len += g.n;
                WInstr::SelMasks { group: new_group }
            }
            WInstr::MuxN { idx } => {
                let mx = &p.muxes[idx as usize];
                let new_group = group_map[mx.group as usize];
                debug_assert_ne!(new_group, DEAD, "muxN consumes a dropped mask group");
                let legs = emit(&mut pool, mx.legs, mx.n * mx.w);
                let runs = leg_runs.len() as u32;
                for d in 0..mx.n {
                    leg_runs.push(leg_run(&pool, legs + d * mx.w, mx.w));
                }
                muxes.push(WMux {
                    group: new_group,
                    masks: mask_groups[new_group as usize].base,
                    legs,
                    runs,
                    n: mx.n,
                    dst: map(mx.dst),
                    w: mx.w,
                });
                WInstr::MuxN {
                    idx: muxes.len() as u32 - 1,
                }
            }
            WInstr::Tbl { idx } => {
                let t = &p.tables[idx as usize];
                tables.push(crate::wide::WTable {
                    addr: emit(&mut pool, t.addr, t.addr_w),
                    addr_w: t.addr_w,
                    table: t.table.clone(),
                    dst: map(t.dst),
                    w: t.w,
                });
                WInstr::Tbl {
                    idx: tables.len() as u32 - 1,
                }
            }
        };
        instrs.push(rebuilt);
    }
    // Sequential records survive unconditionally; their pools and
    // planes move to the new layout.
    for reg in p.regs.iter_mut() {
        reg.d = emit(&mut pool, reg.d, reg.w);
        reg.d_run = leg_run(&pool, reg.d, reg.w);
        reg.q = map(reg.q);
        reg.en = reg.en.map(map);
    }
    for mem in p.mems.iter_mut() {
        mem.raddr = emit(&mut pool, mem.raddr, mem.addr_w);
        mem.waddr = emit(&mut pool, mem.waddr, mem.addr_w);
        mem.wdata = emit(&mut pool, mem.wdata, mem.data_w);
        mem.wen = map(mem.wen);
        mem.rdata = map(mem.rdata);
    }
    for g in p.stage_groups.iter_mut() {
        g.base = map(g.base);
    }
    for entry in p.plane_map.iter_mut() {
        *entry = map(*entry);
    }
    p.instrs = instrs;
    p.pool = pool;
    p.mux2s = mux2s;
    p.muxes = muxes;
    p.mask_groups = mask_groups;
    p.leg_runs = leg_runs;
    p.tables = tables;
    p.masks_len = masks_len;
    p.n_planes = next;
}

/// Re-derives the dense form for an add/sub whose renumbered operands
/// landed on contiguous plane runs; pooled form otherwise.
fn rebuild_addsub(
    is_sub: bool,
    pool: &mut Vec<u32>,
    emit: &mut impl FnMut(&mut Vec<u32>, u32, u32) -> u32,
    a: u32,
    b: u32,
    dst: u32,
    w: u32,
) -> WInstr {
    let pa = emit(pool, a, w);
    let pb = emit(pool, b, w);
    if let (Some(da), Some(db)) = (dense_base(pool, pa, w), dense_base(pool, pb, w)) {
        if is_sub {
            WInstr::SubD {
                a: da,
                b: db,
                dst,
                w,
            }
        } else {
            WInstr::AddD {
                a: da,
                b: db,
                dst,
                w,
            }
        }
    } else if is_sub {
        WInstr::Sub {
            a: pa,
            b: pb,
            dst,
            w,
        }
    } else {
        WInstr::Add {
            a: pa,
            b: pb,
            dst,
            w,
        }
    }
}

// ---------------------------------------------------------------------
// schedule
// ---------------------------------------------------------------------

/// Plane-locality list scheduling: reorders instructions within the
/// RAW/WAR/WAW hazard partial order, greedily issuing the ready
/// instruction whose destination plane is nearest the one just issued.
fn schedule(p: &mut WideProgram) {
    let n = p.instrs.len();
    if n < 2 {
        return;
    }
    // Plane key space: real planes then mask-arena slots.
    let keys = p.n_planes as usize + p.masks_len as usize;
    let key = |pl: u32| -> usize {
        if ir::is_mask_plane(pl) {
            p.n_planes as usize + (pl - MASK_PLANE_BASE) as usize
        } else {
            pl as usize
        }
    };
    let mut last_writer: Vec<Option<usize>> = vec![None; keys];
    let mut readers: Vec<Vec<usize>> = vec![Vec::new(); keys];
    let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut indeg = vec![0u32; n];
    let edge = |from: usize, to: usize, succs: &mut Vec<Vec<usize>>, indeg: &mut Vec<u32>| {
        if from != to {
            succs[from].push(to);
            indeg[to] += 1;
        }
    };
    let mut uses = Vec::new();
    for i in 0..n {
        uses.clear();
        ir::instr_uses(p, i, &mut uses);
        for &u in &uses {
            let k = key(u);
            if let Some(w) = last_writer[k] {
                edge(w, i, &mut succs, &mut indeg);
            }
            readers[k].push(i);
        }
        let (dst, w) = ir::instr_def(p, i);
        for d in dst..dst + w {
            let k = key(d);
            if let Some(w) = last_writer[k] {
                edge(w, i, &mut succs, &mut indeg);
            }
            for r in std::mem::take(&mut readers[k]) {
                edge(r, i, &mut succs, &mut indeg);
            }
            last_writer[k] = Some(i);
        }
    }
    // Kahn with a locality heuristic. The ready scan is capped so wide
    // frontiers stay linear; ties break on original order, keeping the
    // schedule deterministic.
    let dst_of: Vec<i64> = (0..n)
        .map(|i| i64::from(ir::instr_def(p, i).0 & !MASK_PLANE_BASE))
        .collect();
    let mut ready: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
    let mut order: Vec<usize> = Vec::with_capacity(n);
    let mut last_dst = 0i64;
    const SCAN: usize = 64;
    while let Some(&first) = ready.first() {
        let mut best = 0usize;
        let mut best_cost = (dst_of[first] - last_dst).abs();
        for (slot, &cand) in ready.iter().enumerate().take(SCAN).skip(1) {
            let cost = (dst_of[cand] - last_dst).abs();
            if cost < best_cost {
                best = slot;
                best_cost = cost;
            }
        }
        let pick = ready.remove(best);
        last_dst = dst_of[pick];
        order.push(pick);
        for &s in &succs[pick] {
            indeg[s] -= 1;
            if indeg[s] == 0 {
                ready.push(s);
            }
        }
    }
    debug_assert_eq!(order.len(), n, "hazard graph must be acyclic");
    let mut scheduled = Vec::with_capacity(n);
    for &i in &order {
        scheduled.push(p.instrs[i].clone());
    }
    p.instrs = scheduled;
}

#[cfg(test)]
mod tests {
    use crate::{validate_against, Tape};
    use pe_designs::suite::all_benchmarks;
    use pe_rtl::{ComponentKind, Design};

    /// A design exercising fold-forward's bread and butter: an AND with
    /// a constant-zero operand, a mux with identical legs, and two
    /// identical adds (CSE), all feeding outputs.
    fn foldable_design() -> Design {
        let mut d = Design::new("foldable");
        let a = d.add_input("a", 8).expect("input");
        let b = d.add_input("b", 8).expect("input");
        let sel = d.add_input("sel", 1).expect("input");
        let zero = d.add_signal("zero", 8).expect("signal");
        d.add_component("c0", ComponentKind::Const { value: 0 }, &[], zero, None)
            .expect("const");
        let masked = d.add_signal("masked", 8).expect("signal");
        d.add_component("and0", ComponentKind::And, &[a, zero], masked, None)
            .expect("and");
        let muxed = d.add_signal("muxed", 8).expect("signal");
        d.add_component("mux0", ComponentKind::Mux, &[sel, b, b], muxed, None)
            .expect("mux");
        let s1 = d.add_signal("s1", 8).expect("signal");
        let s2 = d.add_signal("s2", 8).expect("signal");
        d.add_component("add1", ComponentKind::Add, &[a, b], s1, None)
            .expect("add");
        d.add_component("add2", ComponentKind::Add, &[a, b], s2, None)
            .expect("add");
        d.add_output("masked_out", masked).expect("output");
        d.add_output("muxed_out", muxed).expect("output");
        d.add_output("s1_out", s1).expect("output");
        d.add_output("s2_out", s2).expect("output");
        d
    }

    #[test]
    fn fold_forward_kills_constant_and_identical_leg_cones() {
        let design = foldable_design();
        let (tape, cert) = Tape::compile_optimized(&design).expect("compiles");
        assert!(cert.validated, "certificate rejected: {:?}", cert.reason);
        // The AND-with-zero and the identical-leg mux fold away; CSE
        // merges the twin adds. Only one Add survives.
        assert_eq!(
            tape.wide_instructions(),
            1,
            "expected exactly the CSE'd add"
        );
        assert!(cert.post_instructions < cert.pre_instructions);
        assert!(cert.post_planes < cert.pre_planes);
    }

    #[test]
    fn pass_stats_cover_the_whole_pipeline() {
        let design = foldable_design();
        let (_, cert) = Tape::compile_optimized(&design).expect("compiles");
        let names: Vec<&str> = cert.passes.iter().map(|p| p.pass).collect();
        assert_eq!(names, ["fold-forward", "die-compact", "schedule"]);
        // fold-forward only substitutes; die-compact is where the
        // instruction count drops.
        let die = &cert.passes[1];
        assert!(die.instructions_after < die.instructions_before);
        // schedule reorders, never adds or removes.
        let sched = &cert.passes[2];
        assert_eq!(sched.instructions_after, sched.instructions_before);
        assert_eq!(sched.planes_after, sched.planes_before);
    }

    #[test]
    fn optimization_is_deterministic() {
        let design = foldable_design();
        let (_, c1) = Tape::compile_optimized(&design).expect("compiles");
        let (_, c2) = Tape::compile_optimized(&design).expect("compiles");
        assert_eq!(c1.ir_fnv128, c2.ir_fnv128);
        assert_eq!(c1.netlist_fnv128, c2.netlist_fnv128);
    }

    #[test]
    fn optimized_tape_stays_well_formed_and_validated_across_the_suite() {
        for bench in all_benchmarks() {
            let (tape, cert) = Tape::compile_optimized(&bench.design).expect("compiles");
            tape.check_well_formed()
                .expect("well-formed after pipeline");
            assert!(
                cert.validated,
                "{}: certificate rejected: {:?}",
                bench.name, cert.reason
            );
            assert!(
                cert.post_instructions < cert.pre_instructions,
                "{}: pipeline removed nothing ({} -> {})",
                bench.name,
                cert.pre_instructions,
                cert.post_instructions
            );
            validate_against(&bench.design, &tape, 2, 4).expect("revalidates");
            eprintln!(
                "{}: {} -> {} instrs, {} -> {} planes",
                bench.name,
                cert.pre_instructions,
                cert.post_instructions,
                cert.pre_planes,
                cert.post_planes
            );
        }
    }
}
