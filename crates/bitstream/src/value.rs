//! The validated value newtype of the unipolar stochastic encoding.
//!
//! Unipolar stochastic numbers encode values in `[0, 1]` (each 1 weighs `+1`,
//! each 0 weighs `0`); see §II.A of the paper. The bipolar reading `2p − 1`
//! of a stream is [`Bitstream::bipolar_value`](crate::Bitstream::bipolar_value).

use crate::error::{Error, Result};
use std::fmt;

/// A unipolar stochastic value in `[0, 1]`.
///
/// `Probability` is the natural "payload" of a unipolar stochastic number: a
/// bitstream of length `N` with `k` ones encodes `Probability(k / N)`.
///
/// # Example
///
/// ```
/// use sc_bitstream::Probability;
///
/// let p = Probability::new(0.25)?;
/// assert_eq!(p.get(), 0.25);
/// # Ok::<(), sc_bitstream::Error>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Probability(f64);

impl Probability {
    /// The probability `0.0`.
    pub const ZERO: Probability = Probability(0.0);
    /// The probability `0.5`.
    pub const HALF: Probability = Probability(0.5);
    /// The probability `1.0`.
    pub const ONE: Probability = Probability(1.0);

    /// Creates a probability, validating the unipolar range.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ProbabilityOutOfRange`] if `value` is NaN or outside `[0, 1]`.
    pub fn new(value: f64) -> Result<Self> {
        if value.is_nan() || !(0.0..=1.0).contains(&value) {
            Err(Error::ProbabilityOutOfRange(value))
        } else {
            Ok(Probability(value))
        }
    }

    /// Creates a probability, clamping `value` into `[0, 1]` (NaN becomes 0).
    #[must_use]
    pub fn saturating(value: f64) -> Self {
        if value.is_nan() {
            Probability(0.0)
        } else {
            Probability(value.clamp(0.0, 1.0))
        }
    }

    /// Creates the probability `k / n`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `k > n`.
    #[must_use]
    pub fn from_ratio(k: u64, n: u64) -> Self {
        assert!(n > 0, "ratio denominator must be non-zero");
        assert!(k <= n, "ratio numerator {k} exceeds denominator {n}");
        Probability(k as f64 / n as f64)
    }

    /// Returns the inner `f64`.
    #[must_use]
    pub fn get(self) -> f64 {
        self.0
    }
}

impl fmt::Display for Probability {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<Probability> for f64 {
    fn from(p: Probability) -> f64 {
        p.0
    }
}

impl TryFrom<f64> for Probability {
    type Error = Error;

    fn try_from(value: f64) -> Result<Self> {
        Probability::new(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probability_validates_range() {
        assert!(Probability::new(0.0).is_ok());
        assert!(Probability::new(1.0).is_ok());
        assert!(Probability::new(0.5).is_ok());
        assert!(Probability::new(-0.001).is_err());
        assert!(Probability::new(1.001).is_err());
        assert!(Probability::new(f64::NAN).is_err());
    }

    #[test]
    fn saturating_clamps() {
        assert_eq!(Probability::saturating(2.0).get(), 1.0);
        assert_eq!(Probability::saturating(-2.0).get(), 0.0);
        assert_eq!(Probability::saturating(f64::NAN).get(), 0.0);
    }

    #[test]
    fn from_ratio_matches_division() {
        assert_eq!(Probability::from_ratio(3, 8).get(), 0.375);
        assert_eq!(Probability::from_ratio(0, 4).get(), 0.0);
        assert_eq!(Probability::from_ratio(4, 4).get(), 1.0);
    }

    #[test]
    #[should_panic(expected = "denominator")]
    fn from_ratio_rejects_zero_denominator() {
        let _ = Probability::from_ratio(1, 0);
    }

    #[test]
    fn display_and_conversions() {
        let p = Probability::new(0.5).unwrap();
        assert_eq!(p.to_string(), "0.5");
        let f: f64 = p.into();
        assert_eq!(f, 0.5);
        let back = Probability::try_from(0.5).unwrap();
        assert_eq!(back, p);
    }
}
