//! Bit-twiddling helpers used throughout the workspace.
//!
//! RTL signal values are carried as `u64` words (signals are at most 64 bits
//! wide); these helpers implement the masking and transition operations that
//! both the simulator and the power models rely on.

/// Returns a mask with the low `width` bits set.
///
/// A `width` of 0 yields `0`; a `width` of 64 yields `u64::MAX`.
///
/// # Panics
///
/// Panics if `width > 64`.
///
/// # Example
///
/// ```
/// assert_eq!(pe_util::bits::mask(4), 0b1111);
/// assert_eq!(pe_util::bits::mask(0), 0);
/// assert_eq!(pe_util::bits::mask(64), u64::MAX);
/// ```
#[inline]
pub fn mask(width: u32) -> u64 {
    assert!(width <= 64, "signal width {width} exceeds 64 bits");
    if width == 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

/// Truncates `value` to `width` bits.
///
/// # Panics
///
/// Panics if `width > 64`.
#[inline]
pub fn truncate(value: u64, width: u32) -> u64 {
    value & mask(width)
}

/// Per-bit transition vector: bit `i` of the result is 1 iff bit `i`
/// transitioned between `prev` and `curr`. This is exactly the output of the
/// XOR stage inside a hardware power model.
#[inline]
pub fn transition_bits(prev: u64, curr: u64, width: u32) -> u64 {
    (prev ^ curr) & mask(width)
}

/// Sign-extends the low `width` bits of `value` to a full `i64`.
///
/// # Panics
///
/// Panics if `width` is 0 or greater than 64.
#[inline]
pub fn sign_extend(value: u64, width: u32) -> i64 {
    assert!((1..=64).contains(&width), "invalid width {width}");
    let shift = 64 - width;
    ((value << shift) as i64) >> shift
}

/// Interprets `value` as a signed `width`-bit integer and re-encodes it as
/// the two's-complement bit pattern in a `u64` (inverse of [`sign_extend`]).
#[inline]
pub fn to_unsigned(value: i64, width: u32) -> u64 {
    truncate(value as u64, width)
}

/// Minimum number of bits needed to represent `value` as an unsigned integer.
/// `bit_width(0)` is defined as 1.
///
/// # Example
///
/// ```
/// assert_eq!(pe_util::bits::bit_width(0), 1);
/// assert_eq!(pe_util::bits::bit_width(1), 1);
/// assert_eq!(pe_util::bits::bit_width(255), 8);
/// assert_eq!(pe_util::bits::bit_width(256), 9);
/// ```
#[inline]
pub fn bit_width(value: u64) -> u32 {
    (64 - value.leading_zeros()).max(1)
}

/// Ceiling of log2, with `clog2(0)` and `clog2(1)` defined as 0. This is the
/// width of an address/index that can distinguish `value` states.
///
/// # Example
///
/// ```
/// assert_eq!(pe_util::bits::clog2(1), 0);
/// assert_eq!(pe_util::bits::clog2(2), 1);
/// assert_eq!(pe_util::bits::clog2(5), 3);
/// ```
#[inline]
pub fn clog2(value: u64) -> u32 {
    if value <= 1 {
        0
    } else {
        64 - (value - 1).leading_zeros()
    }
}

/// Extracts bit `index` of `value` as 0 or 1.
#[inline]
pub fn bit(value: u64, index: u32) -> u64 {
    (value >> index) & 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mask_boundaries() {
        assert_eq!(mask(0), 0);
        assert_eq!(mask(1), 1);
        assert_eq!(mask(63), u64::MAX >> 1);
        assert_eq!(mask(64), u64::MAX);
    }

    #[test]
    #[should_panic(expected = "exceeds 64")]
    fn mask_rejects_oversize() {
        mask(65);
    }

    #[test]
    fn truncate_drops_high_bits() {
        assert_eq!(truncate(0xFFFF, 8), 0xFF);
        assert_eq!(truncate(0x1_0000_0000, 32), 0);
    }

    #[test]
    fn transition_bits_is_masked_xor() {
        assert_eq!(transition_bits(0b1100, 0b1010, 3), 0b110);
        assert_eq!(transition_bits(u64::MAX, 0, 64), u64::MAX);
    }

    #[test]
    fn sign_extend_round_trips() {
        assert_eq!(sign_extend(0xFF, 8), -1);
        assert_eq!(sign_extend(0x7F, 8), 127);
        assert_eq!(sign_extend(0x80, 8), -128);
        assert_eq!(to_unsigned(-1, 8), 0xFF);
        assert_eq!(to_unsigned(-128, 8), 0x80);
        for v in [-128i64, -1, 0, 1, 127] {
            assert_eq!(sign_extend(to_unsigned(v, 8), 8), v);
        }
    }

    #[test]
    fn sign_extend_full_width() {
        assert_eq!(sign_extend(u64::MAX, 64), -1);
        assert_eq!(sign_extend(1, 64), 1);
    }

    #[test]
    fn bit_width_values() {
        assert_eq!(bit_width(u64::MAX), 64);
        assert_eq!(bit_width(2), 2);
    }

    #[test]
    fn clog2_values() {
        assert_eq!(clog2(0), 0);
        assert_eq!(clog2(4), 2);
        assert_eq!(clog2(1024), 10);
        assert_eq!(clog2(1025), 11);
    }

    #[test]
    fn bit_extraction() {
        assert_eq!(bit(0b100, 2), 1);
        assert_eq!(bit(0b100, 1), 0);
    }
}
