//! Binary fixed-point arithmetic.
//!
//! Hardware power models cannot hold floating-point coefficients: the
//! instrumentation stage quantizes each characterized coefficient into an
//! unsigned fixed-point word of a configurable format, and the on-chip adder
//! tree accumulates those words. This module provides the format descriptor
//! ([`FxFormat`]), a signed fixed-point value type ([`Fx`]) used for error
//! analysis, and the unsigned hardware encoding helpers
//! ([`FxFormat::encode`] / [`FxFormat::decode`]).

use std::fmt;
use std::ops::{Add, Mul, Neg, Sub};

/// A fixed-point format: `total_bits` bits overall, of which `fraction_bits`
/// are fractional. The represented value of a raw word `r` is
/// `r * 2^-fraction_bits`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FxFormat {
    total_bits: u32,
    fraction_bits: u32,
}

/// Error returned when constructing an invalid [`FxFormat`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FxFormatError {
    total_bits: u32,
    fraction_bits: u32,
}

impl fmt::Display for FxFormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid fixed-point format Q{}.{}: total bits must be 1..=63 and cover the fraction",
            self.total_bits as i64 - self.fraction_bits as i64,
            self.fraction_bits
        )
    }
}

impl std::error::Error for FxFormatError {}

impl FxFormat {
    /// Creates a format with `total_bits` bits, `fraction_bits` of them
    /// fractional.
    ///
    /// # Errors
    ///
    /// Returns [`FxFormatError`] if `total_bits` is 0, exceeds 63 (the raw
    /// word must fit a non-negative `i64`), or is smaller than `fraction_bits`.
    pub fn new(total_bits: u32, fraction_bits: u32) -> Result<Self, FxFormatError> {
        if total_bits == 0 || total_bits > 63 || fraction_bits > total_bits {
            return Err(FxFormatError {
                total_bits,
                fraction_bits,
            });
        }
        Ok(Self {
            total_bits,
            fraction_bits,
        })
    }

    /// Total number of bits in the raw word.
    pub fn total_bits(self) -> u32 {
        self.total_bits
    }

    /// The weight of one least-significant bit, `2^-fraction_bits`.
    pub fn lsb(self) -> f64 {
        (-(self.fraction_bits as f64)).exp2()
    }

    /// Largest representable unsigned value.
    pub fn max_value(self) -> f64 {
        ((1u64 << self.total_bits) - 1) as f64 * self.lsb()
    }

    /// Encodes a non-negative real number into the nearest representable
    /// unsigned raw word, saturating at the format bounds.
    ///
    /// Negative inputs encode as zero (hardware power-model coefficients are
    /// clamped non-negative at instrumentation time; genuinely negative
    /// coefficients are handled by the instrumentation's offset folding).
    pub fn encode(self, value: f64) -> u64 {
        if !value.is_finite() || value <= 0.0 {
            return 0;
        }
        let scaled = (value / self.lsb()).round();
        let max = (1u64 << self.total_bits) - 1;
        if scaled >= max as f64 {
            max
        } else {
            scaled as u64
        }
    }

    /// Decodes a raw word back to a real value.
    pub fn decode(self, raw: u64) -> f64 {
        raw as f64 * self.lsb()
    }

    /// The maximum absolute quantization error for in-range values: half an
    /// LSB.
    pub fn quantization_error_bound(self) -> f64 {
        self.lsb() / 2.0
    }
}

impl fmt::Display for FxFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Q{}.{}",
            self.total_bits - self.fraction_bits,
            self.fraction_bits
        )
    }
}

/// A signed fixed-point number in a given [`FxFormat`].
///
/// Arithmetic saturates at the format's signed bounds; mixing formats in a
/// binary operation panics (formats are a static property of a datapath, so
/// a mismatch is a construction bug, not a runtime condition).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fx {
    raw: i64,
    fmt: FxFormat,
}

impl Fx {
    /// Zero in the given format.
    pub fn zero(fmt: FxFormat) -> Self {
        Self { raw: 0, fmt }
    }

    /// Creates a value from a real number, rounding to the nearest
    /// representable value and saturating at the signed bounds of the format.
    pub fn from_f64(value: f64, fmt: FxFormat) -> Self {
        let max = Self::raw_max(fmt);
        let min = -max - 1;
        let scaled = value / fmt.lsb();
        let raw = if !scaled.is_finite() {
            if scaled.is_sign_positive() {
                max
            } else {
                min
            }
        } else {
            let r = scaled.round();
            if r >= max as f64 {
                max
            } else if r <= min as f64 {
                min
            } else {
                r as i64
            }
        };
        Self { raw, fmt }
    }

    /// Creates a value directly from a raw word.
    pub fn from_raw(raw: i64, fmt: FxFormat) -> Self {
        Self { raw, fmt }
    }

    /// The raw underlying word.
    pub fn raw(self) -> i64 {
        self.raw
    }

    /// The format of this value.
    pub fn format(self) -> FxFormat {
        self.fmt
    }

    /// Converts back to a real number.
    pub fn to_f64(self) -> f64 {
        self.raw as f64 * self.fmt.lsb()
    }

    fn raw_max(fmt: FxFormat) -> i64 {
        ((1u64 << (fmt.total_bits - 1)) - 1) as i64
    }

    fn clamp_raw(raw: i64, fmt: FxFormat) -> i64 {
        let max = Self::raw_max(fmt);
        raw.clamp(-max - 1, max)
    }

    fn check_fmt(self, other: Self) {
        assert_eq!(
            self.fmt, other.fmt,
            "fixed-point format mismatch: {} vs {}",
            self.fmt, other.fmt
        );
    }
}

impl Add for Fx {
    type Output = Fx;
    fn add(self, rhs: Fx) -> Fx {
        self.check_fmt(rhs);
        Fx {
            raw: Self::clamp_raw(self.raw.saturating_add(rhs.raw), self.fmt),
            fmt: self.fmt,
        }
    }
}

impl Sub for Fx {
    type Output = Fx;
    fn sub(self, rhs: Fx) -> Fx {
        self.check_fmt(rhs);
        Fx {
            raw: Self::clamp_raw(self.raw.saturating_sub(rhs.raw), self.fmt),
            fmt: self.fmt,
        }
    }
}

impl Mul for Fx {
    type Output = Fx;
    fn mul(self, rhs: Fx) -> Fx {
        self.check_fmt(rhs);
        let wide = self.raw as i128 * rhs.raw as i128;
        let shifted = wide >> self.fmt.fraction_bits;
        let max = Self::raw_max(self.fmt) as i128;
        let min = -max - 1;
        let raw = shifted.clamp(min, max) as i64;
        Fx { raw, fmt: self.fmt }
    }
}

impl Neg for Fx {
    type Output = Fx;
    fn neg(self) -> Fx {
        Fx {
            raw: Self::clamp_raw(-self.raw, self.fmt),
            fmt: self.fmt,
        }
    }
}

impl fmt::Display for Fx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q16_8() -> FxFormat {
        FxFormat::new(16, 8).unwrap()
    }

    #[test]
    fn format_validation() {
        assert!(FxFormat::new(0, 0).is_err());
        assert!(FxFormat::new(64, 0).is_err());
        assert!(FxFormat::new(8, 9).is_err());
        assert!(FxFormat::new(63, 63).is_ok());
    }

    #[test]
    fn format_display() {
        assert_eq!(q16_8().to_string(), "Q8.8");
    }

    #[test]
    fn lsb_and_bounds() {
        let f = q16_8();
        assert_eq!(f.lsb(), 1.0 / 256.0);
        assert!((f.max_value() - (65535.0 / 256.0)).abs() < 1e-12);
    }

    #[test]
    fn encode_decode_round_trip_within_half_lsb() {
        let f = q16_8();
        for v in [0.0, 0.5, 1.25, 100.0, 255.996] {
            let err = (f.decode(f.encode(v)) - v).abs();
            assert!(
                err <= f.quantization_error_bound() + 1e-12,
                "err {err} for {v}"
            );
        }
    }

    #[test]
    fn encode_saturates_and_clamps_negative() {
        let f = q16_8();
        assert_eq!(f.encode(1e9), (1u64 << 16) - 1);
        assert_eq!(f.encode(-5.0), 0);
        assert_eq!(f.encode(f64::NAN), 0);
    }

    #[test]
    fn arithmetic_matches_reals_when_exact() {
        let f = q16_8();
        let a = Fx::from_f64(1.5, f);
        let b = Fx::from_f64(0.25, f);
        assert_eq!((a + b).to_f64(), 1.75);
        assert_eq!((a - b).to_f64(), 1.25);
        assert_eq!((a * b).to_f64(), 0.375);
        assert_eq!((-a).to_f64(), -1.5);
    }

    #[test]
    fn addition_saturates() {
        let f = q16_8();
        let max = Fx::from_f64(1e9, f);
        assert_eq!((max + max).to_f64(), max.to_f64());
        let min = Fx::from_f64(-1e9, f);
        assert_eq!((min + min).to_f64(), min.to_f64());
    }

    #[test]
    #[should_panic(expected = "format mismatch")]
    fn mixed_formats_panic() {
        let a = Fx::from_f64(1.0, q16_8());
        let b = Fx::from_f64(1.0, FxFormat::new(8, 4).unwrap());
        let _ = a + b;
    }

    #[test]
    fn from_f64_saturates_at_signed_bounds() {
        let f = FxFormat::new(8, 0).unwrap();
        assert_eq!(Fx::from_f64(1000.0, f).to_f64(), 127.0);
        assert_eq!(Fx::from_f64(-1000.0, f).to_f64(), -128.0);
    }
}
