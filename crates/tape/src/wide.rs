//! Lane-word instruction-tape interpreter.
//!
//! Every signal bit is a *plane*: one [`LaneWord`] whose lane `l` is that
//! signal bit's value in lane `l`. The interpreter is generic over the
//! lane word, so one core covers 1 (`bool`, the serial engine), 64
//! (`u64`), 128 (`[u64; 2]`), and 256 (`[u64; 4]`) lanes; the compiled
//! program itself is width-independent — plane counts and instruction
//! streams are identical at every width. Rather than giving each signal
//! one contiguous slot, the tape compiler maps each signal to an
//! arbitrary list of planes, which turns all pure wiring into
//! compile-time aliasing:
//!
//! * `Slice` = a subrange of the source's plane map,
//! * `ZeroExt` = the source map padded with the reserved all-zero plane,
//! * `SignExt` = the source map padded with repeats of its top plane,
//! * `Concat` = the part maps concatenated,
//! * constant-amount shifts = shifted alias maps,
//! * constant-select muxes = the selected leg's map,
//! * constant-folded cones = the reserved all-zero / all-one planes.
//!
//! None of these cost anything per cycle. Instructions read operands through *pools* of pre-resolved plane
//! indices padded to the exact read width with the zero plane, so the
//! interpreter's inner loops have no width branches at all.
//!
//! Per-lane semantics are bit-identical to the serial reference
//! [`pe_sim::Simulator`]: the translation validator and the width-sweep
//! differential suite enforce it lane for lane, cycle for cycle.

use crate::Tape;
use pe_rtl::{ClockId, ComponentKind, Design, SignalId};
use pe_sim::SimControl;
use pe_util::lanes::{LaneWord, MAX_LANES};
use pe_util::{bits, PortError};

/// Reserved plane: all lanes 0. Never written.
pub(crate) const ZERO: u32 = 0;
/// Reserved plane: all lanes 1. Never written.
pub(crate) const ONE: u32 = 1;
/// Sentinel in `leg_runs`: this leg is not a zero-padded contiguous
/// run and must be read through the pool.
pub(crate) const NOT_RUN: u32 = u32::MAX;

/// One compiled 64-lane operation. `a`/`b`/`amt`/`sel` fields are pool
/// offsets (each pool entry is a plane index, zero-padded to the read
/// width); `dst` is the base of a contiguous freshly-allocated plane
/// run.
#[derive(Debug, Clone)]
pub(crate) enum WInstr {
    /// Ripple-carry add over `w` output bits.
    Add { a: u32, b: u32, dst: u32, w: u32 },
    /// Dense add: both operands are contiguous plane runs (`a`/`b` are
    /// plane bases, not pool offsets) — single indirection.
    AddD { a: u32, b: u32, dst: u32, w: u32 },
    /// Ripple-borrow subtract.
    Sub { a: u32, b: u32, dst: u32, w: u32 },
    /// Dense subtract (plane-base operands).
    SubD { a: u32, b: u32, dst: u32, w: u32 },
    /// Shift-add multiply; `a` is the wider operand (pool of `w`),
    /// `b` the narrower (pool of `bw`).
    Mul {
        a: u32,
        b: u32,
        dst: u32,
        w: u32,
        bw: u32,
    },
    /// Wide multiply evaluated per lane: unpack both operands, 64
    /// native multiplies, pack the product. Chosen at compile time when
    /// the bit-plane shift-add would cost more than the transposes.
    MulS {
        a: u32,
        b: u32,
        dst: u32,
        w: u32,
        bw: u32,
    },
    /// Two's-complement negate (`!a + 1` with rippled initial carry).
    Neg { a: u32, dst: u32, w: u32 },
    /// Lane-mask equality compare into a single plane.
    Eq { a: u32, b: u32, dst: u32, w: u32 },
    /// Negated equality.
    Ne { a: u32, b: u32, dst: u32, w: u32 },
    /// Unsigned less-than borrow chain.
    Lt { a: u32, b: u32, dst: u32, w: u32 },
    /// `a <= b` as `!(b < a)`.
    Le { a: u32, b: u32, dst: u32, w: u32 },
    /// Signed less-than (MSB planes complemented).
    SLt { a: u32, b: u32, dst: u32, w: u32 },
    /// Signed `a <= b`.
    SLe { a: u32, b: u32, dst: u32, w: u32 },
    /// Bitwise AND (n-ary gates decompose into chains through `dst`).
    And2 { a: u32, b: u32, dst: u32, w: u32 },
    /// Bitwise OR.
    Or2 { a: u32, b: u32, dst: u32, w: u32 },
    /// Bitwise XOR.
    Xor2 { a: u32, b: u32, dst: u32, w: u32 },
    /// Bitwise NOT.
    Not { a: u32, dst: u32, w: u32 },
    /// AND-fold of the input planes into one plane.
    RedAnd { a: u32, dst: u32, w: u32 },
    /// OR-fold.
    RedOr { a: u32, dst: u32, w: u32 },
    /// XOR-fold (parity).
    RedXor { a: u32, dst: u32, w: u32 },
    /// Barrel shift left by a live amount.
    Shl {
        a: u32,
        amt: u32,
        dst: u32,
        w: u32,
        amt_w: u32,
    },
    /// Barrel shift right.
    Shr {
        a: u32,
        amt: u32,
        dst: u32,
        w: u32,
        amt_w: u32,
    },
    /// Barrel arithmetic shift right (fill = source sign plane).
    Sar {
        a: u32,
        amt: u32,
        dst: u32,
        w: u32,
        amt_w: u32,
    },
    /// Two-leg mux; operands live in the side table.
    Mux2 { idx: u32 },
    /// N-leg mux; operands live in the side table.
    MuxN { idx: u32 },
    /// Computes the one-hot leg masks for a select-mask group into the
    /// mask arena. Emitted once per distinct `(select planes, n)` pair,
    /// right before the first mux that consumes it — muxes sharing a
    /// select (phase counters feeding hundreds of register-file reads)
    /// share one mask computation per settle instead of each paying
    /// their own.
    SelMasks { group: u32 },
    /// Lookup table; operands live in the side table.
    Tbl { idx: u32 },
}

/// A shared select: the one-hot masks for legs `0..n` (last leg
/// absorbing out-of-range values) land in the interpreter's mask arena
/// at `base`. When exactly one mask is non-zero — every lane agrees on
/// the select, the overwhelmingly common case for FSM/phase-counter
/// selects — the interpreter records the winning leg so consuming muxes
/// reduce to a straight plane copy.
#[derive(Debug, Clone)]
pub(crate) struct WMaskGroup {
    pub sel: u32,
    pub sel_w: u32,
    pub n: u32,
    pub base: u32,
}

/// Side table for an n-leg mux. Select masks come precomputed from the
/// mux's [`WMaskGroup`]; the mux itself only accumulates legs.
#[derive(Debug, Clone)]
pub(crate) struct WMux {
    /// Index of the mask group carrying this mux's select masks.
    pub group: u32,
    /// Mask arena base (copied from the group, saves an indirection).
    pub masks: u32,
    /// Pool offset of `n * w` leg plane indices, leg-major.
    pub legs: u32,
    /// Offset of `n` per-leg `(base, len)` runs in `leg_runs`.
    pub runs: u32,
    pub n: u32,
    pub dst: u32,
    pub w: u32,
}

/// Side table for a two-leg mux. The OR-folded select picks leg `b`
/// (the serial clamp-to-last rule makes any non-zero select equivalent
/// to 1). Legs carry their `(base, len)` runs so the blend reads
/// contiguous plane slices when the operands allow it.
#[derive(Debug, Clone)]
pub(crate) struct WMux2 {
    pub sel: u32,
    pub sel_w: u32,
    /// Pool offsets of the two legs' plane indices.
    pub a: u32,
    pub b: u32,
    /// `(base, len)` contiguous-prefix runs, [`NOT_RUN`] when irregular.
    pub a_run: (u32, u32),
    pub b_run: (u32, u32),
    pub dst: u32,
    pub w: u32,
}

/// Side table for a lookup table. Small tables (≤ 64 entries) evaluate
/// bit-parallel via one-hot address masks; larger ones unpack addresses
/// per lane.
#[derive(Debug, Clone)]
pub(crate) struct WTable {
    pub addr: u32,
    pub addr_w: u32,
    pub table: Vec<u64>,
    pub dst: u32,
    pub w: u32,
}

/// A compiled register.
#[derive(Debug, Clone)]
pub(crate) struct WReg {
    /// Pool offset of the `w` D-input planes.
    pub d: u32,
    /// `(base, len)` when the D input is a zero-padded contiguous plane
    /// run — the capture becomes a `memcpy` plus zero fill for
    /// always-enabled registers — else [`NOT_RUN`] twice.
    pub d_run: (u32, u32),
    /// Enable plane, if any.
    pub en: Option<u32>,
    /// Contiguous Q plane base.
    pub q: u32,
    pub w: u32,
    pub clock: u32,
    /// Offset into the register scratch arena.
    pub scratch: u32,
    pub init: u64,
}

/// A compiled memory. State is `state[word * LANES + lane]`.
#[derive(Debug, Clone)]
pub(crate) struct WMem {
    pub raddr: u32,
    pub waddr: u32,
    pub wdata: u32,
    pub addr_w: u32,
    pub data_w: u32,
    /// Write-enable plane.
    pub wen: u32,
    /// Contiguous read-data plane base.
    pub rdata: u32,
    pub words: u32,
    pub clock: u32,
    pub state_index: u32,
    pub init: Vec<u64>,
}

/// A top-level input port. Ports are packed into *stage groups* of up
/// to 64 bits: drives store per-port lane values (a plain compare-and-
/// store), and a dirty group merges its ports into one packed word per
/// lane at settle — paying **one** 64×64 transpose per settle for all
/// its ports rather than one per port.
#[derive(Debug, Clone)]
pub(crate) struct WStagedPort {
    pub name: String,
    /// Bit offset of this port inside the group word.
    pub off: u32,
    pub width: u32,
    pub mask: u64,
}

/// A stage group: `width` total bits across the `n_ports` consecutive
/// input ports starting at `first_port`, packing into the contiguous
/// plane run at `base`.
#[derive(Debug, Clone)]
pub(crate) struct WStageGroup {
    pub base: u32,
    pub width: u32,
    pub first_port: u32,
    pub n_ports: u32,
}

/// The full 64-lane program.
#[derive(Debug, Clone)]
pub(crate) struct WideProgram {
    pub instrs: Vec<WInstr>,
    /// Operand pools: plane indices, zero-plane padded to read widths.
    pub pool: Vec<u32>,
    /// Per-signal offset into `plane_map`; signal `s` occupies
    /// `plane_map[plane_base[s] .. plane_base[s] + width(s)]`.
    pub plane_base: Vec<u32>,
    pub plane_map: Vec<u32>,
    pub n_planes: u32,
    pub mux2s: Vec<WMux2>,
    pub muxes: Vec<WMux>,
    /// Per mux leg: `(plane base, run length)` when the leg is a
    /// contiguous ascending plane run followed by nothing but zero
    /// planes (`len < w` ⇒ the tail bits are constant 0 and cost no
    /// reads at all), or [`NOT_RUN`] twice when it needs pooled reads.
    pub leg_runs: Vec<(u32, u32)>,
    pub mask_groups: Vec<WMaskGroup>,
    /// Total mask arena length (sum of group `n`s).
    pub masks_len: u32,
    pub tables: Vec<WTable>,
    pub regs: Vec<WReg>,
    pub mems: Vec<WMem>,
    pub staged: Vec<WStagedPort>,
    pub stage_groups: Vec<WStageGroup>,
    /// Signal index → index into `staged`, for input-driven signals.
    pub staged_of: Vec<Option<u32>>,
    pub scratch_len: u32,
}

/// A pooled operand whose planes form a contiguous ascending run can
/// be read with single indirection; returns its base plane.
pub(crate) fn dense_base(pool: &[u32], off: u32, w: u32) -> Option<u32> {
    let b = pool[off as usize];
    (1..w)
        .all(|i| pool[(off + i) as usize] == b + i)
        .then_some(b)
}

/// The longest ascending prefix run of a pooled operand, accepted only
/// when everything past it is the zero plane — then the tail bits are
/// constant 0 and never need reading.
pub(crate) fn leg_run(pool: &[u32], off: u32, w: u32) -> (u32, u32) {
    let b = pool[off as usize];
    let mut k = 1;
    while k < w && pool[(off + k) as usize] == b + k {
        k += 1;
    }
    if (k..w).all(|i| pool[(off + i) as usize] == ZERO) {
        (b, k)
    } else {
        (NOT_RUN, NOT_RUN)
    }
}

pub(crate) fn compile_wide(
    design: &Design,
    order: &[pe_rtl::ComponentId],
    consts: &[Option<u64>],
) -> WideProgram {
    let n_signals = design.signals().len();
    let mut maps: Vec<Vec<u32>> = vec![Vec::new(); n_signals];
    let mut n_planes: u32 = 2; // ZERO and ONE are pre-allocated

    // Inputs get fresh contiguous planes, packed into stage groups of
    // up to 64 bits so a whole group settles with a single transpose.
    let mut staged = Vec::with_capacity(design.inputs().len());
    let mut stage_groups: Vec<WStageGroup> = Vec::new();
    let mut staged_of = vec![None; n_signals];
    for port in design.inputs() {
        let sig = port.signal();
        let w = design.signal(sig).width();
        let base = n_planes;
        n_planes += w;
        maps[sig.index()] = (base..base + w).collect();
        let fits = stage_groups.last().is_some_and(|g| g.width + w <= 64);
        if !fits {
            stage_groups.push(WStageGroup {
                base,
                width: 0,
                first_port: staged.len() as u32,
                n_ports: 0,
            });
        }
        let g = stage_groups.last_mut().expect("pushed above");
        let off = g.width;
        g.width += w;
        g.n_ports += 1;
        staged_of[sig.index()] = Some(staged.len() as u32);
        staged.push(WStagedPort {
            name: port.name().to_string(),
            off,
            width: w,
            mask: bits::mask(w),
        });
    }
    // Sequential outputs are sources for the combinational walk.
    for comp in design.components() {
        if comp.kind().is_sequential() {
            let q = comp.output();
            let w = design.signal(q).width();
            let base = n_planes;
            n_planes += w;
            maps[q.index()] = (base..base + w).collect();
        }
    }

    let mut p = WideProgram {
        instrs: Vec::new(),
        pool: Vec::new(),
        plane_base: Vec::new(),
        plane_map: Vec::new(),
        n_planes: 0,
        mux2s: Vec::new(),
        muxes: Vec::new(),
        leg_runs: Vec::new(),
        mask_groups: Vec::new(),
        masks_len: 0,
        tables: Vec::new(),
        regs: Vec::new(),
        mems: Vec::new(),
        staged,
        stage_groups,
        staged_of,
        scratch_len: 0,
    };

    // Pushes `read_w` operand planes for `sig` (zero-padded past its
    // width) and returns the pool offset.
    fn pool_of(pool: &mut Vec<u32>, maps: &[Vec<u32>], sig: u32, read_w: u32) -> u32 {
        let off = pool.len() as u32;
        let m = &maps[sig as usize];
        for i in 0..read_w as usize {
            pool.push(m.get(i).copied().unwrap_or(ZERO));
        }
        off
    }
    fn pool_of_planes(pool: &mut Vec<u32>, base: u32, w: u32) -> u32 {
        let off = pool.len() as u32;
        pool.extend(base..base + w);
        off
    }
    // Select-mask groups: distinct `(select planes, n)` pairs seen so
    // far, so muxes sharing a select share one mask computation.
    let mut group_of: std::collections::HashMap<(Vec<u32>, u32), u32> =
        std::collections::HashMap::new();

    for &id in order {
        let comp = design.component(id);
        let (ins, in_w, dst, out_w) = crate::comp_shape(design, comp);
        if let Some(v) = consts[dst as usize] {
            maps[dst as usize] = (0..out_w)
                .map(|i| if (v >> i) & 1 == 1 { ONE } else { ZERO })
                .collect();
            continue;
        }
        // Wiring elisions: build an alias map, emit no instruction.
        let alias: Option<Vec<u32>> = match comp.kind() {
            ComponentKind::Slice { lo } => {
                let a = &maps[ins[0] as usize];
                Some(a[*lo as usize..(*lo + out_w) as usize].to_vec())
            }
            ComponentKind::ZeroExt => {
                let mut m = maps[ins[0] as usize].clone();
                m.resize(out_w as usize, ZERO);
                Some(m)
            }
            ComponentKind::SignExt => {
                let mut m = maps[ins[0] as usize].clone();
                let sign = *m.last().expect("signals are at least 1 bit");
                m.resize(out_w as usize, sign);
                Some(m)
            }
            ComponentKind::Concat => {
                let mut m = Vec::with_capacity(out_w as usize);
                for &s in &ins {
                    m.extend_from_slice(&maps[s as usize]);
                }
                Some(m)
            }
            ComponentKind::Mux if consts[ins[0] as usize].is_some() => {
                let sel = consts[ins[0] as usize].expect("checked") as usize;
                let idx = sel.min(ins.len() - 2);
                Some(maps[ins[1 + idx] as usize].clone())
            }
            ComponentKind::Shl if consts[ins[1] as usize].is_some() => {
                let k = consts[ins[1] as usize].expect("checked");
                Some(
                    (0..out_w as u64)
                        .map(|i| {
                            if k >= out_w as u64 || i < k {
                                ZERO
                            } else {
                                maps[ins[0] as usize][(i - k) as usize]
                            }
                        })
                        .collect(),
                )
            }
            ComponentKind::Shr if consts[ins[1] as usize].is_some() => {
                let k = consts[ins[1] as usize].expect("checked");
                Some(
                    (0..out_w as u64)
                        .map(|i| {
                            if i + k >= in_w[0] as u64 {
                                ZERO
                            } else {
                                maps[ins[0] as usize][(i + k) as usize]
                            }
                        })
                        .collect(),
                )
            }
            ComponentKind::Sar if consts[ins[1] as usize].is_some() => {
                let k = consts[ins[1] as usize].expect("checked").min(63);
                let a = &maps[ins[0] as usize];
                Some(
                    (0..out_w as u64)
                        .map(|i| a[((i + k).min(in_w[0] as u64 - 1)) as usize])
                        .collect(),
                )
            }
            _ => None,
        };
        if let Some(m) = alias {
            maps[dst as usize] = m;
            continue;
        }

        // Computed output: fresh contiguous planes.
        let base = n_planes;
        n_planes += out_w;
        maps[dst as usize] = (base..base + out_w).collect();
        let instr = match comp.kind() {
            ComponentKind::Add => {
                let a = pool_of(&mut p.pool, &maps, ins[0], out_w);
                let b = pool_of(&mut p.pool, &maps, ins[1], out_w);
                match (dense_base(&p.pool, a, out_w), dense_base(&p.pool, b, out_w)) {
                    (Some(a), Some(b)) => WInstr::AddD {
                        a,
                        b,
                        dst: base,
                        w: out_w,
                    },
                    _ => WInstr::Add {
                        a,
                        b,
                        dst: base,
                        w: out_w,
                    },
                }
            }
            ComponentKind::Sub => {
                let a = pool_of(&mut p.pool, &maps, ins[0], out_w);
                let b = pool_of(&mut p.pool, &maps, ins[1], out_w);
                match (dense_base(&p.pool, a, out_w), dense_base(&p.pool, b, out_w)) {
                    (Some(a), Some(b)) => WInstr::SubD {
                        a,
                        b,
                        dst: base,
                        w: out_w,
                    },
                    _ => WInstr::Sub {
                        a,
                        b,
                        dst: base,
                        w: out_w,
                    },
                }
            }
            ComponentKind::Mul => {
                // Wider operand drives the partial-product loop (ties:
                // `in0 <= in1` picks in1).
                let (wa, nb, nbw) = if in_w[0] <= in_w[1] {
                    (ins[1], ins[0], in_w[0])
                } else {
                    (ins[0], ins[1], in_w[1])
                };
                let bw = nbw.min(out_w);
                let a = pool_of(&mut p.pool, &maps, wa, out_w);
                let b = pool_of(&mut p.pool, &maps, nb, bw);
                // Cost model: the shift-add runs ~6 plane-ops per
                // surviving partial-product bit; the per-lane path pays
                // three 64×64 transposes plus 64 native multiplies
                // (~1300 word-ops) regardless of width. Pick per
                // instruction.
                let bit_cost = 6 * (out_w * bw - bw * bw.saturating_sub(1) / 2);
                if bit_cost > 1300 {
                    WInstr::MulS {
                        a,
                        b,
                        dst: base,
                        w: out_w,
                        bw,
                    }
                } else {
                    WInstr::Mul {
                        a,
                        b,
                        dst: base,
                        w: out_w,
                        bw,
                    }
                }
            }
            ComponentKind::Neg => WInstr::Neg {
                a: pool_of(&mut p.pool, &maps, ins[0], out_w),
                dst: base,
                w: out_w,
            },
            ComponentKind::Eq
            | ComponentKind::Ne
            | ComponentKind::Lt
            | ComponentKind::Le
            | ComponentKind::SLt
            | ComponentKind::SLe => {
                let w = in_w[0];
                let a = pool_of(&mut p.pool, &maps, ins[0], w);
                let b = pool_of(&mut p.pool, &maps, ins[1], w);
                match comp.kind() {
                    ComponentKind::Eq => WInstr::Eq { a, b, dst: base, w },
                    ComponentKind::Ne => WInstr::Ne { a, b, dst: base, w },
                    ComponentKind::Lt => WInstr::Lt { a, b, dst: base, w },
                    ComponentKind::Le => WInstr::Le { a, b, dst: base, w },
                    ComponentKind::SLt => WInstr::SLt { a, b, dst: base, w },
                    _ => WInstr::SLe { a, b, dst: base, w },
                }
            }
            ComponentKind::And | ComponentKind::Or | ComponentKind::Xor => {
                let make = |a: u32, b: u32| match comp.kind() {
                    ComponentKind::And => WInstr::And2 {
                        a,
                        b,
                        dst: base,
                        w: out_w,
                    },
                    ComponentKind::Or => WInstr::Or2 {
                        a,
                        b,
                        dst: base,
                        w: out_w,
                    },
                    _ => WInstr::Xor2 {
                        a,
                        b,
                        dst: base,
                        w: out_w,
                    },
                };
                let a0 = pool_of(&mut p.pool, &maps, ins[0], out_w);
                let b0 = pool_of(&mut p.pool, &maps, ins[1], out_w);
                p.instrs.push(make(a0, b0));
                for &s in &ins[2..] {
                    let a = pool_of_planes(&mut p.pool, base, out_w);
                    let b = pool_of(&mut p.pool, &maps, s, out_w);
                    p.instrs.push(make(a, b));
                }
                continue;
            }
            ComponentKind::Not => WInstr::Not {
                a: pool_of(&mut p.pool, &maps, ins[0], out_w),
                dst: base,
                w: out_w,
            },
            ComponentKind::RedAnd | ComponentKind::RedOr | ComponentKind::RedXor => {
                let w = in_w[0];
                let a = pool_of(&mut p.pool, &maps, ins[0], w);
                match comp.kind() {
                    ComponentKind::RedAnd => WInstr::RedAnd { a, dst: base, w },
                    ComponentKind::RedOr => WInstr::RedOr { a, dst: base, w },
                    _ => WInstr::RedXor { a, dst: base, w },
                }
            }
            ComponentKind::Shl | ComponentKind::Shr | ComponentKind::Sar => {
                let a = pool_of(&mut p.pool, &maps, ins[0], out_w);
                let amt = pool_of(&mut p.pool, &maps, ins[1], in_w[1]);
                let (w, amt_w) = (out_w, in_w[1]);
                match comp.kind() {
                    ComponentKind::Shl => WInstr::Shl {
                        a,
                        amt,
                        dst: base,
                        w,
                        amt_w,
                    },
                    ComponentKind::Shr => WInstr::Shr {
                        a,
                        amt,
                        dst: base,
                        w,
                        amt_w,
                    },
                    _ => WInstr::Sar {
                        a,
                        amt,
                        dst: base,
                        w,
                        amt_w,
                    },
                }
            }
            ComponentKind::Mux => {
                let sel_w = in_w[0];
                let sel = pool_of(&mut p.pool, &maps, ins[0], sel_w);
                if ins.len() == 3 {
                    let a = pool_of(&mut p.pool, &maps, ins[1], out_w);
                    let b = pool_of(&mut p.pool, &maps, ins[2], out_w);
                    let idx = p.mux2s.len() as u32;
                    p.mux2s.push(WMux2 {
                        sel,
                        sel_w,
                        a,
                        b,
                        a_run: leg_run(&p.pool, a, out_w),
                        b_run: leg_run(&p.pool, b, out_w),
                        dst: base,
                        w: out_w,
                    });
                    WInstr::Mux2 { idx }
                } else {
                    let n = (ins.len() - 1) as u32;
                    let key = (p.pool[sel as usize..(sel + sel_w) as usize].to_vec(), n);
                    let group = *group_of.entry(key).or_insert_with(|| {
                        let g = p.mask_groups.len() as u32;
                        p.mask_groups.push(WMaskGroup {
                            sel,
                            sel_w,
                            n,
                            base: p.masks_len,
                        });
                        p.masks_len += n;
                        p.instrs.push(WInstr::SelMasks { group: g });
                        g
                    });
                    let legs = p.pool.len() as u32;
                    for &s in &ins[1..] {
                        pool_of(&mut p.pool, &maps, s, out_w);
                    }
                    let runs = p.leg_runs.len() as u32;
                    for d in 0..n {
                        p.leg_runs.push(leg_run(&p.pool, legs + d * out_w, out_w));
                    }
                    let idx = p.muxes.len() as u32;
                    p.muxes.push(WMux {
                        group,
                        masks: p.mask_groups[group as usize].base,
                        legs,
                        runs,
                        n,
                        dst: base,
                        w: out_w,
                    });
                    WInstr::MuxN { idx }
                }
            }
            ComponentKind::Table { table } => {
                let idx = p.tables.len() as u32;
                let mask = bits::mask(out_w);
                p.tables.push(WTable {
                    addr: pool_of(&mut p.pool, &maps, ins[0], in_w[0]),
                    addr_w: in_w[0],
                    table: table.iter().map(|&v| v & mask).collect(),
                    dst: base,
                    w: out_w,
                });
                WInstr::Tbl { idx }
            }
            ComponentKind::Slice { .. }
            | ComponentKind::Concat
            | ComponentKind::ZeroExt
            | ComponentKind::SignExt
            | ComponentKind::Const { .. } => unreachable!("elided or folded above"),
            ComponentKind::Register { .. } | ComponentKind::Memory { .. } => {
                unreachable!("topo order is combinational-only")
            }
        };
        p.instrs.push(instr);
    }

    // Sequential records: operand pools resolve against the now-complete
    // maps (a register's D input may itself be an alias).
    for comp in design.components() {
        match comp.kind() {
            ComponentKind::Register { init, has_enable } => {
                let w = design.signal(comp.output()).width();
                let scratch = p.scratch_len;
                p.scratch_len += w;
                let d = pool_of(&mut p.pool, &maps, comp.inputs()[0].index() as u32, w);
                p.regs.push(WReg {
                    d,
                    d_run: leg_run(&p.pool, d, w),
                    en: has_enable.then(|| maps[comp.inputs()[1].index()][0]),
                    q: maps[comp.output().index()][0],
                    w,
                    clock: comp.clock().expect("registers are clocked").index() as u32,
                    scratch,
                    init: init.unwrap_or(0),
                });
            }
            ComponentKind::Memory { words, init } => {
                let addr_w = design.signal(comp.inputs()[0]).width();
                let data_w = design.signal(comp.output()).width();
                let state_index = p.mems.len() as u32;
                p.mems.push(WMem {
                    raddr: pool_of(&mut p.pool, &maps, comp.inputs()[0].index() as u32, addr_w),
                    waddr: pool_of(&mut p.pool, &maps, comp.inputs()[1].index() as u32, addr_w),
                    wdata: pool_of(&mut p.pool, &maps, comp.inputs()[2].index() as u32, data_w),
                    addr_w,
                    data_w,
                    wen: maps[comp.inputs()[3].index()][0],
                    rdata: maps[comp.output().index()][0],
                    words: *words,
                    clock: comp.clock().expect("memories are clocked").index() as u32,
                    state_index,
                    init: match init {
                        Some(init) => init.clone(),
                        None => vec![0u64; *words as usize],
                    },
                });
            }
            _ => {}
        }
    }

    // Flatten the per-signal plane maps.
    p.plane_base = Vec::with_capacity(n_signals);
    for m in &maps {
        p.plane_base.push(p.plane_map.len() as u32);
        p.plane_map.extend_from_slice(m);
    }
    p.n_planes = n_planes;
    p
}

/// Pending per-memory capture: every capture lands before any commit,
/// as in the serial engine.
type MemCapture = (u32, Vec<u64>);
type MemWrite<W> = (usize, Vec<u64>, Vec<u64>, W);

/// Lane-word interpreter over a compiled [`Tape`] — the workspace's
/// bit-parallel engine, each lane bit-identical to a serial
/// [`pe_sim::Simulator`] run at every [`LaneWord`] width. `W = bool` is the serial engine (wrapped
/// by [`crate::TapeSimulator`]), `u64` the classic 64-lane pack,
/// `[u64; 2]` / `[u64; 4]` the 128- and 256-lane packs.
#[derive(Debug)]
pub struct WideTapeSimulator<'t, W: LaneWord = u64> {
    tape: &'t Tape,
    planes: Vec<W>,
    /// One-hot select masks, filled by `SelMasks` instructions.
    masks: Vec<W>,
    /// Per mask group: the single active leg when all lanes agree on
    /// the select this settle, else -1.
    uniform: Vec<i32>,
    mem_state: Vec<Vec<u64>>,
    /// Per memory: last captured read-address planes, valid when the
    /// matching `mem_clean` flag is set. A capture whose address planes
    /// match the cache — and with no intervening write — leaves the
    /// read-data planes untouched, skipping both transposes.
    mem_raddr_cache: Vec<Vec<W>>,
    mem_clean: Vec<bool>,
    reg_scratch: Vec<W>,
    /// Per *port*: staged per-lane values, flattened at stride
    /// `W::LANES`. Drives are a plain compare-and-store; a dirty group
    /// merges its ports' lanes into one packed word per lane at settle,
    /// where the loop vectorizes.
    staged_lanes: Vec<u64>,
    /// Per *port* — settle folds members into the owning group's merge
    /// decision, so the drive path never touches port metadata.
    staged_dirty: Vec<bool>,
    /// Rotating guess for the next by-name input lookup — testbenches
    /// drive the same ports in the same order every cycle, so this hits
    /// almost always and the lookup is one string compare.
    stage_hint: usize,
    dirty: bool,
    cycle: u64,
    settles: u64,
}

impl<'t, W: LaneWord> WideTapeSimulator<'t, W> {
    /// Builds an interpreter with every lane at power-on state. Cheap:
    /// validation, topological sort, and per-component lowering were
    /// paid once by the compile, so this is just arena allocation.
    pub fn new(tape: &'t Tape) -> Self {
        let p = &tape.wide;
        let mut sim = Self {
            tape,
            planes: vec![W::zero(); p.n_planes as usize],
            masks: vec![W::zero(); p.masks_len as usize],
            uniform: vec![-1; p.mask_groups.len()],
            mem_state: p
                .mems
                .iter()
                .map(|m| vec![0u64; m.words as usize * W::LANES])
                .collect(),
            mem_raddr_cache: p
                .mems
                .iter()
                .map(|m| vec![W::zero(); m.addr_w as usize])
                .collect(),
            mem_clean: vec![false; p.mems.len()],
            reg_scratch: vec![W::zero(); p.scratch_len as usize],
            staged_lanes: vec![0u64; p.staged.len() * W::LANES],
            staged_dirty: vec![false; p.staged.len()],
            stage_hint: 0,
            dirty: true,
            cycle: 0,
            settles: 0,
        };
        sim.load_power_on_state();
        sim
    }

    fn load_power_on_state(&mut self) {
        let p = &self.tape.wide;
        self.planes[ONE as usize] = W::ones();
        for reg in &p.regs {
            for i in 0..reg.w {
                self.planes[(reg.q + i) as usize] = W::splat((reg.init >> i) & 1 == 1);
            }
        }
        for mem in &p.mems {
            let state = &mut self.mem_state[mem.state_index as usize];
            for (w, &v) in mem.init.iter().enumerate() {
                state[w * W::LANES..(w + 1) * W::LANES].fill(v);
            }
        }
    }

    /// The compiled tape under interpretation.
    pub fn tape(&self) -> &'t Tape {
        self.tape
    }

    /// Number of clock edges stepped so far (shared by all lanes).
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Number of wide settle passes performed so far.
    pub fn settle_count(&self) -> u64 {
        self.settles
    }

    /// Number of lanes this instantiation evaluates per pass.
    pub fn lanes(&self) -> usize {
        W::LANES
    }

    /// Observes run counters into `registry` (`sim.wide_cycles`,
    /// `sim.wide_settle_passes` histograms).
    pub fn record_metrics(&self, registry: &pe_trace::Registry) {
        registry.histogram("sim.wide_cycles").observe(self.cycle);
        registry
            .histogram("sim.wide_settle_passes")
            .observe(self.settles);
    }

    /// Drives a top-level input signal in one lane.
    ///
    /// # Panics
    ///
    /// Panics if `signal` is not input-driven, `value` does not fit its
    /// width, or `lane >= W::LANES`.
    pub fn set_input_lane(&mut self, signal: SignalId, lane: usize, value: u64) {
        assert!(lane < W::LANES, "lane {lane} out of range 0..{}", W::LANES);
        let p = &self.tape.wide;
        let Some(si) = p.staged_of[signal.index()] else {
            panic!(
                "signal `{}` is not a top-level input",
                self.tape.names[signal.index()]
            );
        };
        let st = &p.staged[si as usize];
        assert!(
            value & !st.mask == 0,
            "value {:#x} does not fit `{}` ({} bits)",
            value,
            self.tape.names[signal.index()],
            st.width
        );
        self.stage_port(si as usize, lane, value);
    }

    /// Stages one port's value in one lane: compare-and-store, with the
    /// group merge deferred to settle.
    #[inline]
    fn stage_port(&mut self, si: usize, lane: usize, value: u64) {
        let v = &mut self.staged_lanes[si * W::LANES + lane];
        if *v != value {
            *v = value;
            self.staged_dirty[si] = true;
            self.dirty = true;
        }
    }

    /// Drives a named top-level input in one lane (the by-name path
    /// used by [`TapeLane`]).
    fn stage_by_name(&mut self, name: &str, lane: usize, value: u64) -> Result<(), PortError> {
        let staged = &self.tape.wide.staged;
        let hint = self.stage_hint;
        let si = if staged.get(hint).is_some_and(|s| s.name == name) {
            hint
        } else {
            staged
                .iter()
                .position(|s| s.name == name)
                .ok_or_else(|| PortError::NoSuchInput(name.to_string()))?
        };
        self.stage_hint = if si + 1 == staged.len() { 0 } else { si + 1 };
        let st = &staged[si];
        if value & !st.mask != 0 {
            return Err(PortError::ValueTooWide {
                port: name.to_string(),
                value,
                width: st.width,
            });
        }
        self.stage_port(si, lane, value);
        Ok(())
    }

    /// Drives a top-level input signal to the same value in **all**
    /// lanes.
    ///
    /// # Panics
    ///
    /// As [`WideTapeSimulator::set_input_lane`].
    pub fn broadcast_input(&mut self, signal: SignalId, value: u64) {
        let p = &self.tape.wide;
        let Some(si) = p.staged_of[signal.index()] else {
            panic!(
                "signal `{}` is not a top-level input",
                self.tape.names[signal.index()]
            );
        };
        let st = &p.staged[si as usize];
        assert!(
            value & !st.mask == 0,
            "value {:#x} does not fit `{}` ({} bits)",
            value,
            self.tape.names[signal.index()],
            st.width
        );
        let si = si as usize;
        let lanes = &mut self.staged_lanes[si * W::LANES..(si + 1) * W::LANES];
        if lanes.iter().any(|&v| v != value) {
            lanes.fill(value);
            self.staged_dirty[si] = true;
            self.dirty = true;
        }
    }

    fn settle(&mut self) {
        if !self.dirty {
            return;
        }
        self.settles += 1;
        let p = &self.tape.wide;
        for grp in &p.stage_groups {
            let first = grp.first_port as usize;
            let members = first..first + grp.n_ports as usize;
            if !self.staged_dirty[members.clone()].iter().any(|&d| d) {
                continue;
            }
            self.staged_dirty[members].fill(false);
            let mut merged = [0u64; MAX_LANES];
            let merged = &mut merged[..W::LANES];
            merged.copy_from_slice(&self.staged_lanes[first * W::LANES..(first + 1) * W::LANES]);
            for si in first + 1..first + grp.n_ports as usize {
                let off = p.staged[si].off;
                let lanes = &self.staged_lanes[si * W::LANES..(si + 1) * W::LANES];
                for (m, &v) in merged.iter_mut().zip(lanes.iter()) {
                    *m |= v << off;
                }
            }
            let range = grp.base as usize..(grp.base + grp.width) as usize;
            pe_util::lanes::pack::<W>(merged, grp.width, &mut self.planes[range]);
        }
        let pl = &mut self.planes;
        let masks = &mut self.masks;
        let uni = &mut self.uniform;
        let pool = &p.pool;
        for instr in &p.instrs {
            match *instr {
                WInstr::Add { a, b, dst, w } => {
                    let mut carry = W::zero();
                    for i in 0..w {
                        let ai = pl[pool[(a + i) as usize] as usize];
                        let bi = pl[pool[(b + i) as usize] as usize];
                        pl[(dst + i) as usize] = ai.xor(bi).xor(carry);
                        carry = ai.and(bi).or(carry.and(ai.xor(bi)));
                    }
                }
                WInstr::AddD { a, b, dst, w } => {
                    let (a, b, dst, w) = (a as usize, b as usize, dst as usize, w as usize);
                    assert!(a + w <= pl.len() && b + w <= pl.len() && dst + w <= pl.len());
                    let mut carry = W::zero();
                    for i in 0..w {
                        let ai = pl[a + i];
                        let bi = pl[b + i];
                        pl[dst + i] = ai.xor(bi).xor(carry);
                        carry = ai.and(bi).or(carry.and(ai.xor(bi)));
                    }
                }
                WInstr::Sub { a, b, dst, w } => {
                    let mut borrow = W::zero();
                    for i in 0..w {
                        let ai = pl[pool[(a + i) as usize] as usize];
                        let bi = pl[pool[(b + i) as usize] as usize];
                        pl[(dst + i) as usize] = ai.xor(bi).xor(borrow);
                        borrow = ai.not().and(bi).or(borrow.and(ai.xor(bi).not()));
                    }
                }
                WInstr::SubD { a, b, dst, w } => {
                    let (a, b, dst, w) = (a as usize, b as usize, dst as usize, w as usize);
                    assert!(a + w <= pl.len() && b + w <= pl.len() && dst + w <= pl.len());
                    let mut borrow = W::zero();
                    for i in 0..w {
                        let ai = pl[a + i];
                        let bi = pl[b + i];
                        pl[dst + i] = ai.xor(bi).xor(borrow);
                        borrow = ai.not().and(bi).or(borrow.and(ai.xor(bi).not()));
                    }
                }
                WInstr::Mul { a, b, dst, w, bw } => {
                    for i in 0..w {
                        pl[(dst + i) as usize] = W::zero();
                    }
                    for j in 0..bw {
                        let bj = pl[pool[(b + j) as usize] as usize];
                        let mut carry = W::zero();
                        for i in 0..(w - j) {
                            let pp = pl[pool[(a + i) as usize] as usize].and(bj);
                            let acc = pl[(dst + j + i) as usize];
                            pl[(dst + j + i) as usize] = acc.xor(pp).xor(carry);
                            carry = acc.and(pp).or(carry.and(acc.xor(pp)));
                        }
                    }
                }
                WInstr::MulS { a, b, dst, w, bw } => {
                    let mut av = [0u64; MAX_LANES];
                    let mut bv = [0u64; MAX_LANES];
                    unpack_pool(pl, pool, a, w, &mut av[..W::LANES]);
                    unpack_pool(pl, pool, b, bw, &mut bv[..W::LANES]);
                    let m = bits::mask(w);
                    let mut prod = [0u64; MAX_LANES];
                    for l in 0..W::LANES {
                        prod[l] = av[l].wrapping_mul(bv[l]) & m;
                    }
                    let range = dst as usize..(dst + w) as usize;
                    pe_util::lanes::pack::<W>(&prod[..W::LANES], w, &mut pl[range]);
                }
                WInstr::Neg { a, dst, w } => {
                    let mut carry = W::ones();
                    for i in 0..w {
                        let ai = pl[pool[(a + i) as usize] as usize].not();
                        pl[(dst + i) as usize] = ai.xor(carry);
                        carry = carry.and(ai);
                    }
                }
                WInstr::Eq { a, b, dst, w } => {
                    pl[dst as usize] = eq_chain(pl, pool, a, b, w);
                }
                WInstr::Ne { a, b, dst, w } => {
                    pl[dst as usize] = eq_chain(pl, pool, a, b, w).not();
                }
                WInstr::Lt { a, b, dst, w } => {
                    pl[dst as usize] = lt_chain(pl, pool, a, b, w, false);
                }
                WInstr::Le { a, b, dst, w } => {
                    pl[dst as usize] = lt_chain(pl, pool, b, a, w, false).not();
                }
                WInstr::SLt { a, b, dst, w } => {
                    pl[dst as usize] = lt_chain(pl, pool, a, b, w, true);
                }
                WInstr::SLe { a, b, dst, w } => {
                    pl[dst as usize] = lt_chain(pl, pool, b, a, w, true).not();
                }
                WInstr::And2 { a, b, dst, w } => {
                    for i in 0..w {
                        pl[(dst + i) as usize] = pl[pool[(a + i) as usize] as usize]
                            .and(pl[pool[(b + i) as usize] as usize]);
                    }
                }
                WInstr::Or2 { a, b, dst, w } => {
                    for i in 0..w {
                        pl[(dst + i) as usize] = pl[pool[(a + i) as usize] as usize]
                            .or(pl[pool[(b + i) as usize] as usize]);
                    }
                }
                WInstr::Xor2 { a, b, dst, w } => {
                    for i in 0..w {
                        pl[(dst + i) as usize] = pl[pool[(a + i) as usize] as usize]
                            .xor(pl[pool[(b + i) as usize] as usize]);
                    }
                }
                WInstr::Not { a, dst, w } => {
                    for i in 0..w {
                        pl[(dst + i) as usize] = pl[pool[(a + i) as usize] as usize].not();
                    }
                }
                WInstr::RedAnd { a, dst, w } => {
                    let mut acc = W::ones();
                    for i in 0..w {
                        acc = acc.and(pl[pool[(a + i) as usize] as usize]);
                    }
                    pl[dst as usize] = acc;
                }
                WInstr::RedOr { a, dst, w } => {
                    let mut acc = W::zero();
                    for i in 0..w {
                        acc = acc.or(pl[pool[(a + i) as usize] as usize]);
                    }
                    pl[dst as usize] = acc;
                }
                WInstr::RedXor { a, dst, w } => {
                    let mut acc = W::zero();
                    for i in 0..w {
                        acc = acc.xor(pl[pool[(a + i) as usize] as usize]);
                    }
                    pl[dst as usize] = acc;
                }
                WInstr::Shl {
                    a,
                    amt,
                    dst,
                    w,
                    amt_w,
                } => {
                    for i in 0..w {
                        pl[(dst + i) as usize] = pl[pool[(a + i) as usize] as usize];
                    }
                    for j in 0..amt_w {
                        let aj = pl[pool[(amt + j) as usize] as usize];
                        if aj.is_zero() {
                            continue;
                        }
                        let dist = (1u64 << j.min(32)).min(w as u64) as u32;
                        for i in (0..w).rev() {
                            let src = if i >= dist {
                                pl[(dst + i - dist) as usize]
                            } else {
                                W::zero()
                            };
                            let cur = pl[(dst + i) as usize];
                            pl[(dst + i) as usize] = W::blend(aj, src, cur);
                        }
                    }
                }
                WInstr::Shr {
                    a,
                    amt,
                    dst,
                    w,
                    amt_w,
                }
                | WInstr::Sar {
                    a,
                    amt,
                    dst,
                    w,
                    amt_w,
                } => {
                    let fill = if matches!(instr, WInstr::Sar { .. }) {
                        pl[pool[(a + w - 1) as usize] as usize]
                    } else {
                        W::zero()
                    };
                    for i in 0..w {
                        pl[(dst + i) as usize] = pl[pool[(a + i) as usize] as usize];
                    }
                    for j in 0..amt_w {
                        let aj = pl[pool[(amt + j) as usize] as usize];
                        if aj.is_zero() {
                            continue;
                        }
                        let dist = (1u64 << j.min(32)).min(w as u64) as u32;
                        for i in 0..w {
                            let src = if i + dist < w {
                                pl[(dst + i + dist) as usize]
                            } else {
                                fill
                            };
                            let cur = pl[(dst + i) as usize];
                            pl[(dst + i) as usize] = W::blend(aj, src, cur);
                        }
                    }
                }
                WInstr::Mux2 { idx } => {
                    let mx = &p.mux2s[idx as usize];
                    let w = mx.w as usize;
                    let dst = mx.dst as usize;
                    let mut m1 = W::zero();
                    for j in 0..mx.sel_w {
                        m1 = m1.or(pl[pool[(mx.sel + j) as usize] as usize]);
                    }
                    if m1.is_zero() || m1.is_ones() {
                        // Every lane picks the same leg: straight copy.
                        let (run, off) = if m1.is_zero() {
                            (mx.a_run, mx.a)
                        } else {
                            (mx.b_run, mx.b)
                        };
                        if run.0 != NOT_RUN {
                            let (rb, rl) = (run.0 as usize, run.1 as usize);
                            pl.copy_within(rb..rb + rl, dst);
                            pl[dst + rl..dst + w].fill(W::zero());
                        } else {
                            for i in 0..w as u32 {
                                pl[dst + i as usize] = pl[pool[(off + i) as usize] as usize];
                            }
                        }
                    } else {
                        // Blend through a stack accumulator disjoint from
                        // the plane arena, so the per-leg loops vectorize
                        // (reading and writing `pl` in one loop defeats
                        // the optimizer's aliasing analysis).
                        let mut acc = [W::zero(); 64];
                        if mx.a_run.0 != NOT_RUN {
                            let (ab, al) = (mx.a_run.0 as usize, mx.a_run.1 as usize);
                            for (x, &s) in acc[..al].iter_mut().zip(&pl[ab..ab + al]) {
                                *x = s.andn(m1);
                            }
                        } else {
                            for (i, x) in acc[..w].iter_mut().enumerate() {
                                *x = pl[pool[mx.a as usize + i] as usize].andn(m1);
                            }
                        }
                        if mx.b_run.0 != NOT_RUN {
                            let (bb, bl) = (mx.b_run.0 as usize, mx.b_run.1 as usize);
                            for (x, &s) in acc[..bl].iter_mut().zip(&pl[bb..bb + bl]) {
                                *x = x.or(m1.and(s));
                            }
                        } else {
                            for (i, x) in acc[..w].iter_mut().enumerate() {
                                *x = x.or(m1.and(pl[pool[mx.b as usize + i] as usize]));
                            }
                        }
                        pl[dst..dst + w].copy_from_slice(&acc[..w]);
                    }
                }
                WInstr::SelMasks { group } => {
                    let g = &p.mask_groups[group as usize];
                    let base = g.base as usize;
                    let mut used = W::zero();
                    let mut nonzero = 0u32;
                    let mut win = -1i32;
                    for d in 0..g.n {
                        let m = if d + 1 == g.n {
                            used.not()
                        } else {
                            let m = eq_const_pool(pl, pool, g.sel, g.sel_w, d as u64);
                            used = used.or(m);
                            m
                        };
                        masks[base + d as usize] = m;
                        if !m.is_zero() {
                            nonzero += 1;
                            win = d as i32;
                        }
                    }
                    uni[group as usize] = if nonzero == 1 { win } else { -1 };
                }
                WInstr::MuxN { idx } => {
                    let mx = &p.muxes[idx as usize];
                    let w = mx.w as usize;
                    let dst = mx.dst as usize;
                    let u = uni[mx.group as usize];
                    if u >= 0 {
                        // Every lane agrees on the select — the mux is a
                        // straight copy of the winning leg.
                        let leg = (mx.legs + u as u32 * mx.w) as usize;
                        let (lb, len) = p.leg_runs[mx.runs as usize + u as usize];
                        if lb != NOT_RUN {
                            let (lb, len) = (lb as usize, len as usize);
                            pl.copy_within(lb..lb + len, dst);
                            pl[dst + len..dst + w].fill(W::zero());
                        } else {
                            for i in 0..w {
                                pl[dst + i] = pl[pool[leg + i] as usize];
                            }
                        }
                    } else {
                        // Accumulate active legs into a stack buffer
                        // disjoint from the plane arena — the run loops
                        // vectorize, and the result stores once.
                        let mbase = mx.masks as usize;
                        let mut acc = [W::zero(); 64];
                        for d in 0..mx.n as usize {
                            let m = masks[mbase + d];
                            if m.is_zero() {
                                continue;
                            }
                            let (lb, len) = p.leg_runs[mx.runs as usize + d];
                            if lb != NOT_RUN {
                                let (lb, len) = (lb as usize, len as usize);
                                for (x, &s) in acc[..len].iter_mut().zip(&pl[lb..lb + len]) {
                                    *x = x.or(m.and(s));
                                }
                            } else {
                                let leg = mx.legs as usize + d * w;
                                for (i, x) in acc[..w].iter_mut().enumerate() {
                                    *x = x.or(m.and(pl[pool[leg + i] as usize]));
                                }
                            }
                        }
                        pl[dst..dst + w].copy_from_slice(&acc[..w]);
                    }
                }
                WInstr::Tbl { idx } => {
                    let t = &p.tables[idx as usize];
                    if t.table.len() <= 64 {
                        for i in 0..t.w {
                            pl[(t.dst + i) as usize] = W::zero();
                        }
                        for (entry, &tv) in t.table.iter().enumerate() {
                            if tv == 0 {
                                continue;
                            }
                            let m = eq_const_pool(pl, pool, t.addr, t.addr_w, entry as u64);
                            if m.is_zero() {
                                continue;
                            }
                            let mut v = tv;
                            while v != 0 {
                                let i = v.trailing_zeros();
                                v &= v - 1;
                                if i < t.w {
                                    pl[(t.dst + i) as usize] = pl[(t.dst + i) as usize].or(m);
                                }
                            }
                        }
                    } else {
                        let mut buf = [W::zero(); 64];
                        for i in 0..t.addr_w as usize {
                            buf[i] = pl[pool[t.addr as usize + i] as usize];
                        }
                        let mut addrs = [0u64; MAX_LANES];
                        pe_util::lanes::unpack::<W>(
                            &buf[..t.addr_w as usize],
                            &mut addrs[..W::LANES],
                        );
                        let mut vals = [0u64; MAX_LANES];
                        for l in 0..W::LANES {
                            vals[l] = t.table[addrs[l] as usize];
                        }
                        let range = t.dst as usize..(t.dst + t.w) as usize;
                        pe_util::lanes::pack::<W>(&vals[..W::LANES], t.w, &mut pl[range]);
                    }
                }
            }
        }
        self.dirty = false;
    }

    /// Current value of a signal in one lane (settling first if
    /// needed).
    ///
    /// # Panics
    ///
    /// Panics if `lane >= W::LANES`.
    pub fn value_lane(&mut self, signal: SignalId, lane: usize) -> u64 {
        assert!(lane < W::LANES, "lane {lane} out of range 0..{}", W::LANES);
        self.settle();
        let p = &self.tape.wide;
        let base = p.plane_base[signal.index()] as usize;
        let w = self.tape.widths[signal.index()] as usize;
        let mut v = 0u64;
        for i in 0..w {
            v |= (self.planes[p.plane_map[base + i] as usize].lane(lane) as u64) << i;
        }
        v
    }

    /// Current value of a named output port in one lane.
    ///
    /// # Errors
    ///
    /// [`PortError::NoSuchOutput`] if no such output port exists.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= W::LANES`.
    pub fn try_output_lane(&mut self, name: &str, lane: usize) -> Result<u64, PortError> {
        assert!(lane < W::LANES, "lane {lane} out of range 0..{}", W::LANES);
        let sig = self
            .tape
            .find_output(name)
            .ok_or_else(|| PortError::NoSuchOutput(name.to_string()))?;
        self.settle();
        let p = &self.tape.wide;
        let base = p.plane_base[sig as usize] as usize;
        let w = self.tape.widths[sig as usize] as usize;
        let mut v = 0u64;
        for i in 0..w {
            v |= (self.planes[p.plane_map[base + i] as usize].lane(lane) as u64) << i;
        }
        Ok(v)
    }

    /// Current value of a named output port in one lane.
    ///
    /// # Panics
    ///
    /// Panics if no such output port exists.
    pub fn output_lane(&mut self, name: &str, lane: usize) -> u64 {
        self.try_output_lane(name, lane)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Settles and returns the whole plane arena — the zero-copy read
    /// path for per-cycle digesting. Pair with
    /// [`WideTapeSimulator::plane_indices`] to locate a signal's bits.
    pub fn settled_planes(&mut self) -> &[W] {
        self.settle();
        &self.planes
    }

    /// The plane index of each bit of `signal` (length = signal width).
    /// Indices are stable for the lifetime of the tape, so callers can
    /// resolve them once and read [`settled_planes`] each cycle.
    ///
    /// [`settled_planes`]: WideTapeSimulator::settled_planes
    pub fn plane_indices(&self, signal: SignalId) -> &[u32] {
        let p = &self.tape.wide;
        let base = p.plane_base[signal.index()] as usize;
        let w = self.tape.widths[signal.index()] as usize;
        &p.plane_map[base..base + w]
    }

    /// Advances one clock edge on **all** clock domains in every lane.
    pub fn step(&mut self) {
        self.step_domains(None);
    }

    /// Advances one clock edge on the given domain only.
    pub fn step_clock(&mut self, clock: ClockId) {
        self.step_domains(Some(clock.index() as u32));
    }

    fn step_domains(&mut self, only: Option<u32>) {
        self.settle();
        let p = &self.tape.wide;
        // Capture phase (registers into scratch, memories into lane
        // buffers), then commit — simultaneous edges, exactly as the
        // serial engine.
        for reg in &p.regs {
            if only.is_some_and(|c| c != reg.clock) {
                continue;
            }
            let s0 = reg.scratch as usize;
            match reg.en {
                None => {
                    let (d, len) = reg.d_run;
                    if d != NOT_RUN {
                        let (d, len, w) = (d as usize, len as usize, reg.w as usize);
                        self.reg_scratch[s0..s0 + len].copy_from_slice(&self.planes[d..d + len]);
                        self.reg_scratch[s0 + len..s0 + w].fill(W::zero());
                    } else {
                        for i in 0..reg.w {
                            self.reg_scratch[s0 + i as usize] =
                                self.planes[p.pool[(reg.d + i) as usize] as usize];
                        }
                    }
                }
                Some(e) => {
                    let en = self.planes[e as usize];
                    if en.is_zero() {
                        // No lane captures: hold Q.
                        let (q, w) = (reg.q as usize, reg.w as usize);
                        self.reg_scratch[s0..s0 + w].copy_from_slice(&self.planes[q..q + w]);
                    } else if en.is_ones() {
                        let (d, len) = reg.d_run;
                        if d != NOT_RUN {
                            let (d, len, w) = (d as usize, len as usize, reg.w as usize);
                            self.reg_scratch[s0..s0 + len]
                                .copy_from_slice(&self.planes[d..d + len]);
                            self.reg_scratch[s0 + len..s0 + w].fill(W::zero());
                        } else {
                            for i in 0..reg.w {
                                self.reg_scratch[s0 + i as usize] =
                                    self.planes[p.pool[(reg.d + i) as usize] as usize];
                            }
                        }
                    } else {
                        for i in 0..reg.w {
                            let d = self.planes[p.pool[(reg.d + i) as usize] as usize];
                            let q = self.planes[(reg.q + i) as usize];
                            self.reg_scratch[s0 + i as usize] = W::blend(en, d, q);
                        }
                    }
                }
            }
        }
        let mut mem_rdata: Vec<Option<MemCapture>> = Vec::with_capacity(p.mems.len());
        let mut mem_writes: Vec<MemWrite<W>> = Vec::with_capacity(p.mems.len());
        for mem in &p.mems {
            if only.is_some_and(|c| c != mem.clock) {
                continue;
            }
            let mi = mem.state_index as usize;
            let cache = &mut self.mem_raddr_cache[mi];
            let same_addr = self.mem_clean[mi]
                && (0..mem.addr_w as usize)
                    .all(|i| cache[i] == self.planes[p.pool[mem.raddr as usize + i] as usize]);
            if same_addr {
                // Address and contents unchanged since the last capture:
                // the committed read-data planes are already correct.
                mem_rdata.push(None);
            } else {
                for (i, c) in cache.iter_mut().enumerate() {
                    *c = self.planes[p.pool[mem.raddr as usize + i] as usize];
                }
                self.mem_clean[mi] = true;
                let mut raddr = vec![0u64; W::LANES];
                unpack_pool(&self.planes, &p.pool, mem.raddr, mem.addr_w, &mut raddr);
                let state = &self.mem_state[mi];
                let words = mem.words as usize;
                let mut read = vec![0u64; W::LANES];
                for (l, r) in read.iter_mut().enumerate() {
                    *r = state[(raddr[l] as usize % words) * W::LANES + l];
                }
                mem_rdata.push(Some((mem.rdata, read)));
            }
            let wen = self.planes[mem.wen as usize];
            if !wen.is_zero() {
                let mut waddr = vec![0u64; W::LANES];
                let mut wdata = vec![0u64; W::LANES];
                if wen.count_lanes() <= 8 {
                    // Few lanes write: gathering their bits directly is
                    // cheaper than full per-word transposes.
                    wen.for_each_lane(|l| {
                        let mut a = 0u64;
                        for i in 0..mem.addr_w as usize {
                            a |= (self.planes[p.pool[mem.waddr as usize + i] as usize].lane(l)
                                as u64)
                                << i;
                        }
                        let mut d = 0u64;
                        for i in 0..mem.data_w as usize {
                            d |= (self.planes[p.pool[mem.wdata as usize + i] as usize].lane(l)
                                as u64)
                                << i;
                        }
                        waddr[l] = a;
                        wdata[l] = d;
                    });
                } else {
                    unpack_pool(&self.planes, &p.pool, mem.waddr, mem.addr_w, &mut waddr);
                    unpack_pool(&self.planes, &p.pool, mem.wdata, mem.data_w, &mut wdata);
                }
                mem_writes.push((mi, waddr, wdata, wen));
                self.mem_clean[mi] = false;
            }
        }
        // Commit phase.
        for reg in &p.regs {
            if only.is_some_and(|c| c != reg.clock) {
                continue;
            }
            let (q0, s0) = (reg.q as usize, reg.scratch as usize);
            let w = reg.w as usize;
            self.planes[q0..q0 + w].copy_from_slice(&self.reg_scratch[s0..s0 + w]);
        }
        let mut next_read = mem_rdata.into_iter();
        for mem in &p.mems {
            if only.is_some_and(|c| c != mem.clock) {
                continue;
            }
            let Some((rdata, read)) = next_read.next().expect("captured above") else {
                continue;
            };
            let range = rdata as usize..rdata as usize + mem.data_w as usize;
            pe_util::lanes::pack::<W>(&read, mem.data_w, &mut self.planes[range]);
        }
        for (state_index, waddr, wdata, wen) in mem_writes {
            let words = p.mems[state_index].words as usize;
            let state = &mut self.mem_state[state_index];
            wen.for_each_lane(|l| {
                state[(waddr[l] as usize % words) * W::LANES + l] = wdata[l];
            });
        }
        self.cycle += 1;
        self.dirty = true;
    }

    /// Runs `n` clock edges on all domains.
    pub fn step_n(&mut self, n: u64) {
        for _ in 0..n {
            self.step();
        }
    }

    /// Resets every lane to power-on state: registers to `init`,
    /// memories to initial contents, inputs to zero, cycle counter 0.
    pub fn reset(&mut self) {
        self.planes.fill(W::zero());
        self.masks.fill(W::zero());
        self.uniform.fill(-1);
        self.mem_state.iter_mut().for_each(|s| s.fill(0));
        self.mem_clean.fill(false);
        self.staged_lanes.fill(0);
        self.staged_dirty.fill(false);
        self.stage_hint = 0;
        self.load_power_on_state();
        self.cycle = 0;
        self.dirty = true;
    }

    /// A [`SimControl`] view of one lane, for driving with an
    /// unmodified [`pe_sim::Testbench`].
    ///
    /// # Panics
    ///
    /// Panics if `lane >= W::LANES`.
    pub fn lane<'s>(&'s mut self, lane: usize) -> TapeLane<'s, 't, W> {
        assert!(lane < W::LANES, "lane {lane} out of range 0..{}", W::LANES);
        TapeLane { sim: self, lane }
    }
}

impl<W: LaneWord> pe_sim::WideControl for WideTapeSimulator<'_, W> {
    fn try_output_lane(&mut self, name: &str, lane: usize) -> Result<u64, PortError> {
        WideTapeSimulator::try_output_lane(self, name, lane)
    }

    fn lanes(&self) -> usize {
        W::LANES
    }
}

/// One lane of a [`WideTapeSimulator`], exposed through [`SimControl`]
/// so a [`pe_sim::Testbench`] written for the serial engine can drive it
/// unchanged.
#[derive(Debug)]
pub struct TapeLane<'s, 't, W: LaneWord = u64> {
    sim: &'s mut WideTapeSimulator<'t, W>,
    lane: usize,
}

impl<W: LaneWord> SimControl for TapeLane<'_, '_, W> {
    fn cycle(&self) -> u64 {
        self.sim.cycle()
    }

    fn set_input(&mut self, signal: SignalId, value: u64) {
        self.sim.set_input_lane(signal, self.lane, value);
    }

    fn try_set_input_by_name(&mut self, name: &str, value: u64) -> Result<(), PortError> {
        self.sim.stage_by_name(name, self.lane, value)
    }

    fn try_output(&mut self, name: &str) -> Result<u64, PortError> {
        self.sim.try_output_lane(name, self.lane)
    }

    fn value(&mut self, signal: SignalId) -> u64 {
        self.sim.value_lane(signal, self.lane)
    }
}

/// All-lanes mask of pooled operands `a == b` over `w` bits.
fn eq_chain<W: LaneWord>(planes: &[W], pool: &[u32], a: u32, b: u32, w: u32) -> W {
    let mut m = W::ones();
    for i in 0..w {
        let ai = planes[pool[(a + i) as usize] as usize];
        let bi = planes[pool[(b + i) as usize] as usize];
        m = m.and(ai.xor(bi).not());
    }
    m
}

/// Lane-mask of `a < b` via the final borrow of `a - b`; `signed`
/// complements the MSB planes (two's-complement order is unsigned
/// order with the sign bit inverted).
fn lt_chain<W: LaneWord>(planes: &[W], pool: &[u32], a: u32, b: u32, w: u32, signed: bool) -> W {
    let mut borrow = W::zero();
    for i in 0..w {
        let mut ai = planes[pool[(a + i) as usize] as usize];
        let mut bi = planes[pool[(b + i) as usize] as usize];
        if signed && i == w - 1 {
            ai = ai.not();
            bi = bi.not();
        }
        borrow = ai.not().and(bi).or(borrow.and(ai.xor(bi).not()));
    }
    borrow
}

/// All-lanes mask of `pooled operand == value` for a constant, exiting
/// as soon as no lane can match.
fn eq_const_pool<W: LaneWord>(planes: &[W], pool: &[u32], sel: u32, w: u32, value: u64) -> W {
    let mut m = W::ones();
    for i in 0..w {
        let bit = planes[pool[(sel + i) as usize] as usize];
        m = m.and(if (value >> i) & 1 == 1 {
            bit
        } else {
            bit.not()
        });
        if m.is_zero() {
            return W::zero();
        }
    }
    m
}

/// Unpacks a pooled (possibly non-contiguous) operand into per-lane
/// scalars via a staging copy and the per-word 64×64 transpose.
fn unpack_pool<W: LaneWord>(planes: &[W], pool: &[u32], off: u32, w: u32, lanes: &mut [u64]) {
    let mut buf = [W::zero(); 64];
    for i in 0..w as usize {
        buf[i] = planes[pool[off as usize + i] as usize];
    }
    pe_util::lanes::unpack::<W>(&buf[..w as usize], lanes);
}
