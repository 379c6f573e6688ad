//! Lane-word bit-slicing primitives for bit-parallel simulation.
//!
//! The bit-parallel engine (the compiled tape in `pe-tape`) stores one
//! *lane word* per signal bit: lane `l` of slice `i` holds bit `i` of
//! the value observed by lane `l`. Independent stimulus vectors (testbench
//! shards, strobe windows, or serve-batch jobs) then advance through the
//! netlist with plain word-wide AND/OR/XOR/NOT — the software analogue of
//! the paper's "evaluate everything at once" FPGA datapath.
//!
//! The lane count is a type parameter, not a constant: the tape is generic
//! over a [`LaneWord`], so one core covers
//!
//! * `bool` — a single lane; serial simulation is the 1-lane instantiation
//!   of the wide core, with no duplicated interpreter;
//! * `u64` — the classic 64-lane bit-slice;
//! * `[u64; 2]` / `[u64; 4]` — 128 / 256 lanes. The word ops are plain
//!   array maps that LLVM autovectorizes to SIMD registers (no unsafe, no
//!   intrinsics), so the wider widths amortize per-instruction overhead.
//!
//! Converting between the two layouts — `LANES` scalar values versus a
//! stack of lane words — is a bit-matrix transpose done 64 lanes at a
//! time, implemented with the classic recursive block-swap (no unsafe, no
//! lookup tables).
//!
//! Bit convention: `matrix[row]` bit `col` (LSB = column 0), so for packed
//! slices `slices[bit]` lane `lane` and for unpacked lanes `lanes[lane]`
//! bit `bit`. [`transpose64`] is an involution under this convention.

/// Number of lanes in the default (`u64`) lane word, kept for call sites
/// that still speak the classic 64-lane dialect.
pub const LANES: usize = 64;

/// Largest lane count any [`LaneWord`] impl provides; fixed-size scratch
/// buffers in the engines are sized to this.
pub const MAX_LANES: usize = 256;

/// One machine word holding the same signal bit for `LANES` independent
/// simulation lanes.
///
/// All lane mixing is forbidden by construction: the trait only exposes
/// lane-wise boolean algebra plus per-lane and per-64-lane-word access for
/// packing, memory addressing, and readout. An engine written against this
/// trait is bit-exact at every width if it is bit-exact at one, which is
/// what the width-sweep differential matrix in `tests/differential.rs`
/// enforces.
///
/// Implementations: `bool` (1 lane — the serial engines), `u64` (64),
/// `[u64; 2]` (128), `[u64; 4]` (256). The array impls are written as
/// per-element loops over the backing words so LLVM autovectorizes them;
/// no unsafe, no external crates.
pub trait LaneWord: Copy + PartialEq + Eq + std::fmt::Debug + Send + Sync + 'static {
    /// Number of independent simulation lanes in this word.
    const LANES: usize;
    /// Number of 64-bit backing words (`LANES.div_ceil(64)`, and 1 for
    /// `bool`); lanes `64*i ..` live in backing word `i`.
    const WORDS: usize;

    /// The word with every lane 0.
    fn zero() -> Self;
    /// The word with every lane 1.
    fn ones() -> Self;
    /// Every lane set to `bit`.
    #[inline]
    fn splat(bit: bool) -> Self {
        if bit {
            Self::ones()
        } else {
            Self::zero()
        }
    }

    /// Lane-wise AND.
    fn and(self, other: Self) -> Self;
    /// Lane-wise OR.
    fn or(self, other: Self) -> Self;
    /// Lane-wise XOR.
    fn xor(self, other: Self) -> Self;
    /// Lane-wise NOT.
    fn not(self) -> Self;
    /// `self AND NOT other`, the mask-clear idiom.
    #[inline]
    fn andn(self, other: Self) -> Self {
        self.and(other.not())
    }
    /// Per-lane select: lane `l` of the result is `t`'s lane where `m` is
    /// set, else `f`'s. The tape's mux/enable blend.
    #[inline]
    fn blend(m: Self, t: Self, f: Self) -> Self {
        t.and(m).or(f.andn(m))
    }

    /// Backing word `i` (lanes `64*i .. 64*i+63`); lanes past
    /// `Self::LANES` read 0. For `bool`, word 0 bit 0.
    fn word(self, i: usize) -> u64;
    /// Replaces backing word `i`; bits past `Self::LANES` are ignored.
    fn set_word(&mut self, i: usize, w: u64);

    /// The bit in lane `lane`.
    #[inline]
    fn lane(self, lane: usize) -> bool {
        debug_assert!(lane < Self::LANES);
        (self.word(lane / 64) >> (lane % 64)) & 1 == 1
    }
    /// Sets the bit in lane `lane`.
    #[inline]
    fn set_lane(&mut self, lane: usize, bit: bool) {
        debug_assert!(lane < Self::LANES);
        let w = self.word(lane / 64);
        let m = 1u64 << (lane % 64);
        self.set_word(lane / 64, if bit { w | m } else { w & !m });
    }
    /// The word with only lane `lane` set.
    #[inline]
    fn lane_bit(lane: usize) -> Self {
        let mut w = Self::zero();
        w.set_lane(lane, true);
        w
    }

    /// True when no lane is set.
    #[inline]
    fn is_zero(self) -> bool {
        self == Self::zero()
    }
    /// True when every lane is set.
    #[inline]
    fn is_ones(self) -> bool {
        self == Self::ones()
    }
    /// Number of set lanes.
    #[inline]
    fn count_lanes(self) -> u32 {
        (0..Self::WORDS).map(|i| self.word(i).count_ones()).sum()
    }

    /// Calls `f` with each set lane index in ascending order — the sparse
    /// per-lane dispatch the engines use for memory writes and energy
    /// crediting (iteration order is part of the f64 bit-exactness
    /// contract: ascending lanes, exactly like the 64-lane original).
    #[inline]
    fn for_each_lane(self, mut f: impl FnMut(usize)) {
        for i in 0..Self::WORDS {
            let mut w = self.word(i);
            while w != 0 {
                let l = w.trailing_zeros() as usize;
                w &= w - 1;
                f(i * 64 + l);
            }
        }
    }
}

impl LaneWord for bool {
    const LANES: usize = 1;
    const WORDS: usize = 1;

    #[inline]
    fn zero() -> Self {
        false
    }
    #[inline]
    fn ones() -> Self {
        true
    }
    #[inline]
    fn and(self, other: Self) -> Self {
        self & other
    }
    #[inline]
    fn or(self, other: Self) -> Self {
        self | other
    }
    #[inline]
    fn xor(self, other: Self) -> Self {
        self ^ other
    }
    #[inline]
    fn not(self) -> Self {
        !self
    }
    #[inline]
    fn word(self, i: usize) -> u64 {
        debug_assert_eq!(i, 0);
        self as u64
    }
    #[inline]
    fn set_word(&mut self, i: usize, w: u64) {
        debug_assert_eq!(i, 0);
        *self = w & 1 == 1;
    }
    #[inline]
    fn is_zero(self) -> bool {
        !self
    }
    #[inline]
    fn is_ones(self) -> bool {
        self
    }
}

impl LaneWord for u64 {
    const LANES: usize = 64;
    const WORDS: usize = 1;

    #[inline]
    fn zero() -> Self {
        0
    }
    #[inline]
    fn ones() -> Self {
        !0
    }
    #[inline]
    fn and(self, other: Self) -> Self {
        self & other
    }
    #[inline]
    fn or(self, other: Self) -> Self {
        self | other
    }
    #[inline]
    fn xor(self, other: Self) -> Self {
        self ^ other
    }
    #[inline]
    fn not(self) -> Self {
        !self
    }
    #[inline]
    fn word(self, i: usize) -> u64 {
        debug_assert_eq!(i, 0);
        self
    }
    #[inline]
    fn set_word(&mut self, i: usize, w: u64) {
        debug_assert_eq!(i, 0);
        *self = w;
    }
    #[inline]
    fn is_zero(self) -> bool {
        self == 0
    }
    #[inline]
    fn is_ones(self) -> bool {
        self == !0
    }
    #[inline]
    fn count_lanes(self) -> u32 {
        self.count_ones()
    }
}

/// Implements [`LaneWord`] for `[u64; N]` as straight-line per-element
/// loops — the shape LLVM's autovectorizer turns into SIMD word ops.
macro_rules! lane_word_array {
    ($n:literal) => {
        impl LaneWord for [u64; $n] {
            const LANES: usize = 64 * $n;
            const WORDS: usize = $n;

            #[inline]
            fn zero() -> Self {
                [0; $n]
            }
            #[inline]
            fn ones() -> Self {
                [!0; $n]
            }
            #[inline]
            fn and(mut self, other: Self) -> Self {
                for i in 0..$n {
                    self[i] &= other[i];
                }
                self
            }
            #[inline]
            fn or(mut self, other: Self) -> Self {
                for i in 0..$n {
                    self[i] |= other[i];
                }
                self
            }
            #[inline]
            fn xor(mut self, other: Self) -> Self {
                for i in 0..$n {
                    self[i] ^= other[i];
                }
                self
            }
            #[inline]
            fn not(mut self) -> Self {
                for w in &mut self {
                    *w = !*w;
                }
                self
            }
            #[inline]
            fn word(self, i: usize) -> u64 {
                self[i]
            }
            #[inline]
            fn set_word(&mut self, i: usize, w: u64) {
                self[i] = w;
            }
        }
    };
}

lane_word_array!(2);
lane_word_array!(4);

/// In-place 64×64 bit-matrix transpose (LSB-first columns).
///
/// After the call, bit `j` of `a[i]` equals bit `i` of the original `a[j]`.
/// Applying it twice restores the input.
pub fn transpose64(a: &mut [u64; 64]) {
    let mut j = 32;
    let mut m: u64 = 0x0000_0000_FFFF_FFFF;
    while j != 0 {
        let mut k = 0;
        while k < 64 {
            let t = ((a[k] >> j) ^ a[k | j]) & m;
            a[k | j] ^= t;
            a[k] ^= t << j;
            k = (k + j + 1) & !j;
        }
        j >>= 1;
        m ^= m << j;
    }
}

/// Pack per-lane scalar values into bit-slices.
///
/// `lanes[l]` is the scalar value lane `l` observes; the result's element
/// `i` (for `i < width`) holds bit `i` of every lane. Bits at or above
/// `width` are ignored. `slices.len()` must be `width`.
pub fn pack_lanes(lanes: &[u64; LANES], width: u32, slices: &mut [u64]) {
    debug_assert_eq!(slices.len(), width as usize);
    let mut m = *lanes;
    transpose64(&mut m);
    slices.copy_from_slice(&m[..width as usize]);
}

/// Unpack bit-slices into per-lane scalar values.
///
/// `slices[i]` holds bit `i` of every lane (`slices.len()` bits total, at
/// most 64). The result's element `l` is lane `l`'s scalar value.
pub fn unpack_lanes(slices: &[u64], lanes: &mut [u64; LANES]) {
    debug_assert!(slices.len() <= LANES);
    lanes.fill(0);
    lanes[..slices.len()].copy_from_slice(slices);
    transpose64(lanes);
}

/// Packs per-lane scalar values into lane-word slices at any width.
///
/// `lanes[l]` is the scalar lane `l` observes (`lanes.len()` must be
/// `W::LANES`); after the call, slice `i` (for `i < width`, and
/// `slices.len()` must be `width`) holds bit `i` of every lane. One 64×64
/// transpose per backing word — the W=`u64` instantiation is exactly
/// [`pack_lanes`].
pub fn pack<W: LaneWord>(lanes: &[u64], width: u32, slices: &mut [W]) {
    debug_assert_eq!(lanes.len(), W::LANES);
    debug_assert_eq!(slices.len(), width as usize);
    debug_assert!(width as usize <= LANES);
    for b in 0..W::WORDS {
        let lo = b * 64;
        let n = 64.min(W::LANES - lo);
        let mut m = [0u64; 64];
        m[..n].copy_from_slice(&lanes[lo..lo + n]);
        transpose64(&mut m);
        for (i, s) in slices.iter_mut().enumerate() {
            s.set_word(b, m[i]);
        }
    }
}

/// Unpacks lane-word slices into per-lane scalar values at any width.
///
/// `slices[i]` holds bit `i` of every lane (`slices.len()` bits total, at
/// most 64); element `l` of `lanes` (whose length must be `W::LANES`)
/// becomes lane `l`'s scalar value. The inverse of [`pack`].
pub fn unpack<W: LaneWord>(slices: &[W], lanes: &mut [u64]) {
    debug_assert_eq!(lanes.len(), W::LANES);
    debug_assert!(slices.len() <= LANES);
    for b in 0..W::WORDS {
        let lo = b * 64;
        let n = 64.min(W::LANES - lo);
        let mut m = [0u64; 64];
        for (i, s) in slices.iter().enumerate() {
            m[i] = s.word(b);
        }
        transpose64(&mut m);
        lanes[lo..lo + n].copy_from_slice(&m[..n]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro;

    #[test]
    fn transpose_matches_bit_by_bit_definition() {
        let mut rng = Xoshiro::new(0x1a9e5);
        let mut m = [0u64; 64];
        for w in m.iter_mut() {
            *w = rng.next_u64();
        }
        let orig = m;
        transpose64(&mut m);
        for (i, &row) in m.iter().enumerate() {
            for (j, &col) in orig.iter().enumerate() {
                assert_eq!((row >> j) & 1, (col >> i) & 1, "({i},{j})");
            }
        }
    }

    #[test]
    fn transpose_is_an_involution() {
        let mut rng = Xoshiro::new(0x7777);
        let mut m = [0u64; 64];
        for w in m.iter_mut() {
            *w = rng.next_u64();
        }
        let orig = m;
        transpose64(&mut m);
        transpose64(&mut m);
        assert_eq!(m, orig);
    }

    #[test]
    fn pack_unpack_round_trip() {
        let mut rng = Xoshiro::new(0xbeef);
        for width in [1u32, 3, 17, 32, 63, 64] {
            let mut lanes = [0u64; LANES];
            for l in lanes.iter_mut() {
                *l = rng.bits(width);
            }
            let mut slices = vec![0u64; width as usize];
            pack_lanes(&lanes, width, &mut slices);
            let mut back = [0u64; LANES];
            unpack_lanes(&slices, &mut back);
            assert_eq!(back, lanes, "width {width}");
        }
    }

    fn round_trip<W: LaneWord>(seed: u64) {
        let mut rng = Xoshiro::new(seed);
        for width in [1u32, 3, 17, 32, 63, 64] {
            let mut lanes = vec![0u64; W::LANES];
            for l in lanes.iter_mut() {
                *l = rng.bits(width);
            }
            let mut slices = vec![W::zero(); width as usize];
            pack::<W>(&lanes, width, &mut slices);
            // Slice `i` lane `l` must be bit `i` of lane `l`'s scalar.
            for (i, s) in slices.iter().enumerate() {
                for (l, &v) in lanes.iter().enumerate() {
                    assert_eq!(
                        s.lane(l),
                        (v >> i) & 1 == 1,
                        "lanes={} width={width} bit={i} lane={l}",
                        W::LANES
                    );
                }
            }
            let mut back = vec![0u64; W::LANES];
            unpack::<W>(&slices, &mut back);
            assert_eq!(back, lanes, "lanes={} width={width}", W::LANES);
        }
    }

    #[test]
    fn pack_unpack_round_trip_every_width() {
        round_trip::<bool>(0x511);
        round_trip::<u64>(0x5164);
        round_trip::<[u64; 2]>(0x51128);
        round_trip::<[u64; 4]>(0x51256);
    }

    fn word_algebra<W: LaneWord>(seed: u64) {
        let mut rng = Xoshiro::new(seed);
        let mut rand = || {
            let mut w = W::zero();
            for i in 0..W::WORDS {
                w.set_word(i, rng.next_u64());
            }
            w
        };
        for _ in 0..64 {
            let (a, b) = (rand(), rand());
            for l in 0..W::LANES {
                assert_eq!(a.and(b).lane(l), a.lane(l) & b.lane(l));
                assert_eq!(a.or(b).lane(l), a.lane(l) | b.lane(l));
                assert_eq!(a.xor(b).lane(l), a.lane(l) ^ b.lane(l));
                assert_eq!(a.not().lane(l), !a.lane(l));
                assert_eq!(W::blend(a, b, W::zero()).lane(l), a.lane(l) & b.lane(l));
            }
            assert_eq!(a.count_lanes() + a.not().count_lanes(), W::LANES as u32);
            let mut seen = Vec::new();
            a.for_each_lane(|l| seen.push(l));
            assert_eq!(seen.len(), a.count_lanes() as usize);
            assert!(seen.windows(2).all(|w| w[0] < w[1]), "ascending lanes");
            for &l in &seen {
                assert!(a.lane(l));
            }
        }
        assert!(W::zero().is_zero() && !W::zero().is_ones());
        assert!(W::ones().is_ones() && !W::ones().is_zero());
        for l in [0, W::LANES / 2, W::LANES - 1] {
            let w = W::lane_bit(l);
            assert_eq!(w.count_lanes(), 1);
            assert!(w.lane(l));
        }
    }

    #[test]
    fn lane_word_algebra_every_width() {
        word_algebra::<bool>(0xa11);
        word_algebra::<u64>(0xa164);
        word_algebra::<[u64; 2]>(0xa1128);
        word_algebra::<[u64; 4]>(0xa1256);
    }
}
