//! The stochastic computing correlation (SCC) metric of Alaghi & Hayes,
//! as used throughout §II.B and Table II of the paper.
//!
//! For two equal-length streams `X` and `Y`, let
//!
//! * `a` = positions where both are 1,
//! * `b` = positions where `X` is 1 and `Y` is 0,
//! * `c` = positions where `X` is 0 and `Y` is 1,
//! * `d` = positions where both are 0,
//! * `N = a + b + c + d`.
//!
//! Then
//!
//! ```text
//!           ⎧ (ad − bc) / (N·min(a+b, a+c) − (a+b)(a+c))              if ad > bc
//! SCC(X,Y) =⎨
//!           ⎩ (ad − bc) / ((a+b)(a+c) − N·max(a+b + a+c − N, 0))      otherwise
//! ```
//!
//! `SCC = +1` means maximal positive correlation (the 1s overlap as much as the
//! values allow), `SCC = −1` means maximal negative correlation (the 1s overlap
//! as little as possible), and `SCC = 0` means the streams look independent.

use crate::bitstream::Bitstream;
use crate::error::{Error, Result};

/// Joint occurrence counts of two equal-length bitstreams.
///
/// # Example
///
/// ```
/// use sc_bitstream::{Bitstream, JointCounts};
///
/// let x = Bitstream::parse("1100")?;
/// let y = Bitstream::parse("1010")?;
/// let j = JointCounts::from_streams(&x, &y)?;
/// assert_eq!((j.a, j.b, j.c, j.d), (1, 1, 1, 1));
/// assert_eq!(j.scc(), 0.0); // independent-looking
/// # Ok::<(), sc_bitstream::Error>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct JointCounts {
    /// Positions where both streams are 1.
    pub a: u64,
    /// Positions where the first stream is 1 and the second is 0.
    pub b: u64,
    /// Positions where the first stream is 0 and the second is 1.
    pub c: u64,
    /// Positions where both streams are 0.
    pub d: u64,
}

impl JointCounts {
    /// Builds the joint counts of two equal-length streams.
    ///
    /// # Errors
    ///
    /// Returns [`Error::LengthMismatch`] if the lengths differ and
    /// [`Error::EmptyStream`] if the streams are empty.
    pub fn from_streams(x: &Bitstream, y: &Bitstream) -> Result<Self> {
        if x.len() != y.len() {
            return Err(Error::LengthMismatch {
                left: x.len(),
                right: y.len(),
            });
        }
        if x.is_empty() {
            return Err(Error::EmptyStream);
        }
        // Word-parallel accumulation: one pass over the packed words, three
        // popcounts per 64 stream bits, no intermediate stream allocation.
        let n = x.len() as u64;
        let (mut a, mut x1, mut y1) = (0u64, 0u64, 0u64);
        for (xw, yw) in x.zip_words(y) {
            a += u64::from((xw & yw).count_ones());
            x1 += u64::from(xw.count_ones());
            y1 += u64::from(yw.count_ones());
        }
        let b = x1 - a;
        let c = y1 - a;
        let d = n - a - b - c;
        Ok(JointCounts { a, b, c, d })
    }

    /// Total number of positions (`N`).
    #[must_use]
    pub fn total(&self) -> u64 {
        self.a + self.b + self.c + self.d
    }

    /// SC correlation of the counted pair; see the module documentation.
    ///
    /// Returns `0.0` when the denominator is zero (either stream is constant),
    /// matching the convention that a constant stream is uncorrelated with
    /// everything.
    #[must_use]
    pub fn scc(&self) -> f64 {
        let a = self.a as f64;
        let b = self.b as f64;
        let c = self.c as f64;
        let d = self.d as f64;
        let n = a + b + c + d;
        let numer = a * d - b * c;
        let px_ones = a + b;
        let py_ones = a + c;
        let denom = if numer > 0.0 {
            n * px_ones.min(py_ones) - px_ones * py_ones
        } else {
            px_ones * py_ones - n * (px_ones + py_ones - n).max(0.0)
        };
        if denom.abs() < f64::EPSILON {
            0.0
        } else {
            (numer / denom).clamp(-1.0, 1.0)
        }
    }
}

/// SC correlation of two equal-length streams.
///
/// # Panics
///
/// Panics if the streams differ in length or are empty; use
/// [`try_scc`] for a fallible variant.
///
/// # Example
///
/// ```
/// use sc_bitstream::{Bitstream, scc};
///
/// // Table I: positively correlated X and Y.
/// let x = Bitstream::parse("10101010")?;
/// let y = Bitstream::parse("10111011")?;
/// assert_eq!(scc(&x, &y), 1.0);
/// # Ok::<(), sc_bitstream::Error>(())
/// ```
#[must_use]
pub fn scc(x: &Bitstream, y: &Bitstream) -> f64 {
    try_scc(x, y).expect("scc requires non-empty equal-length streams")
}

/// Fallible SC correlation of two equal-length streams.
///
/// # Errors
///
/// Returns [`Error::LengthMismatch`] or [`Error::EmptyStream`] as appropriate.
pub fn try_scc(x: &Bitstream, y: &Bitstream) -> Result<f64> {
    Ok(JointCounts::from_streams(x, y)?.scc())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn bs(s: &str) -> Bitstream {
        Bitstream::parse(s).unwrap()
    }

    #[test]
    fn table1_positively_correlated_pair() {
        // Table I row 1: X = 10101010 (0.5), Y = 10111011 (0.75), positively correlated.
        let x = bs("10101010");
        let y = bs("10111011");
        assert_eq!(scc(&x, &y), 1.0);
        // AND implements min under positive correlation.
        assert_eq!(x.and(&y).value(), 0.5);
    }

    #[test]
    fn table1_negatively_correlated_pair() {
        // Table I row 2: X = 10101010 (0.5), Y = 11011101 (0.75), negatively correlated.
        let x = bs("10101010");
        let y = bs("11011101");
        assert_eq!(scc(&x, &y), -1.0);
        // AND implements max(0, pX + pY - 1) under negative correlation.
        assert_eq!(x.and(&y).value(), 0.25);
    }

    #[test]
    fn table1_uncorrelated_pair() {
        // Table I row 3: X = 10101010 (0.5), Y = 11111100 (0.75), uncorrelated.
        let x = bs("10101010");
        let y = bs("11111100");
        assert_eq!(scc(&x, &y), 0.0);
        assert_eq!(x.and(&y).value(), 0.375);
    }

    #[test]
    fn maximal_negative_same_value() {
        let x = bs("1010");
        let y = bs("0101");
        assert_eq!(scc(&x, &y), -1.0);
    }

    #[test]
    fn maximal_negative_overlapping_values() {
        // pX = pY = 0.75: total ones 6 > N = 4, so some overlap is forced;
        // the minimum-overlap arrangement still has SCC = -1.
        let x = bs("1110");
        let y = bs("0111");
        assert_eq!(scc(&x, &y), -1.0);
    }

    #[test]
    fn identical_streams_are_maximally_positive() {
        let x = bs("1100101");
        assert_eq!(scc(&x, &x), 1.0);
    }

    #[test]
    fn constant_stream_is_uncorrelated_with_everything() {
        let ones = Bitstream::ones(16);
        let zeros = Bitstream::zeros(16);
        let x = bs("1010101010101010");
        assert_eq!(scc(&ones, &x), 0.0);
        assert_eq!(scc(&zeros, &x), 0.0);
        assert_eq!(scc(&ones, &zeros), 0.0);
    }

    #[test]
    fn joint_counts_fields() {
        let x = bs("110010");
        let y = bs("101010");
        let j = JointCounts::from_streams(&x, &y).unwrap();
        assert_eq!(j.a, 2); // positions 0 and 4
        assert_eq!(j.b, 1); // position 1
        assert_eq!(j.c, 1); // position 2
        assert_eq!(j.d, 2); // positions 3 and 5
        assert_eq!(j.total(), 6);
    }

    #[test]
    fn length_mismatch_and_empty_errors() {
        let x = bs("1010");
        let y = bs("10100");
        assert!(try_scc(&x, &y).is_err());
        let e = Bitstream::new();
        assert!(JointCounts::from_streams(&e, &e).is_err());
    }

    /// Builds the maximally positively correlated pair of values (px, py):
    /// both streams put their 1s at the start.
    fn max_pos_pair(kx: usize, ky: usize, n: usize) -> (Bitstream, Bitstream) {
        (
            Bitstream::from_fn(n, |i| i < kx),
            Bitstream::from_fn(n, |i| i < ky),
        )
    }

    /// Builds the maximally negatively correlated pair: X puts 1s at the
    /// start, Y puts 1s at the end.
    fn max_neg_pair(kx: usize, ky: usize, n: usize) -> (Bitstream, Bitstream) {
        (
            Bitstream::from_fn(n, |i| i < kx),
            Bitstream::from_fn(n, |i| i >= n - ky),
        )
    }

    #[test]
    fn exhaustive_extremes_small_n() {
        let n = 16;
        for kx in 1..n {
            for ky in 1..n {
                let (x, y) = max_pos_pair(kx, ky, n);
                assert_eq!(scc(&x, &y), 1.0, "positive extreme kx={kx} ky={ky}");
                let (x, y) = max_neg_pair(kx, ky, n);
                assert_eq!(scc(&x, &y), -1.0, "negative extreme kx={kx} ky={ky}");
            }
        }
    }

    proptest! {
        #[test]
        fn prop_scc_in_range(bits_a in proptest::collection::vec(any::<bool>(), 1..400),
                             bits_b in proptest::collection::vec(any::<bool>(), 1..400)) {
            let n = bits_a.len().min(bits_b.len());
            let a = Bitstream::from_bools(bits_a.into_iter().take(n));
            let b = Bitstream::from_bools(bits_b.into_iter().take(n));
            let s = scc(&a, &b);
            prop_assert!((-1.0..=1.0).contains(&s));
        }

        #[test]
        fn prop_scc_symmetric(bits_a in proptest::collection::vec(any::<bool>(), 1..400),
                              bits_b in proptest::collection::vec(any::<bool>(), 1..400)) {
            let n = bits_a.len().min(bits_b.len());
            let a = Bitstream::from_bools(bits_a.into_iter().take(n));
            let b = Bitstream::from_bools(bits_b.into_iter().take(n));
            prop_assert!((scc(&a, &b) - scc(&b, &a)).abs() < 1e-12);
        }

        #[test]
        fn prop_self_correlation_is_one_or_zero(bits in proptest::collection::vec(any::<bool>(), 1..400)) {
            let a = Bitstream::from_bools(bits);
            let s = scc(&a, &a);
            let ones = a.count_ones();
            if ones == 0 || ones == a.len() {
                prop_assert_eq!(s, 0.0);
            } else {
                prop_assert_eq!(s, 1.0);
            }
        }

        #[test]
        fn prop_complement_correlation_is_negative(bits in proptest::collection::vec(any::<bool>(), 2..400)) {
            let a = Bitstream::from_bools(bits);
            let ones = a.count_ones();
            // Exclude constant streams where SCC is 0 by convention.
            prop_assume!(ones > 0 && ones < a.len());
            let s = scc(&a, &a.not());
            prop_assert_eq!(s, -1.0);
        }
    }
}
