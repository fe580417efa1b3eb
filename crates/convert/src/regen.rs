//! Regeneration: the expensive correlation-reset baseline.
//!
//! Regeneration (§II.B, reference \[10\]) converts a stochastic number back to
//! the binary domain with an S/D converter and immediately re-encodes it with
//! a D/S converter driven by a *fresh* random source. The output stream has
//! the same value but a brand-new bit ordering, so any correlation that had
//! accumulated with other streams is reset. The paper's Table IV shows this
//! works well but costs far more area and energy than inserting synchronizers,
//! because S/D and D/S converters are one to two orders of magnitude larger
//! than SC arithmetic gates.
//!
//! The re-encoding is a [`DigitalToStochastic`] conversion of the counted
//! value, so a regenerator reset before each stream re-encodes through its
//! converter's prefix plane: one rank lookup and one mask copy per
//! 256-sample block ([`crate::PrefixPlane`]).

use crate::d2s::DigitalToStochastic;
use crate::s2d::StochasticToDigital;
use sc_bitstream::{Bitstream, Probability};
use sc_rng::RandomSource;

/// A regeneration unit: S/D conversion followed by D/S conversion with a
/// dedicated source.
///
/// # Example
///
/// ```
/// use sc_convert::Regenerator;
/// use sc_rng::VanDerCorput;
/// use sc_bitstream::{scc, Bitstream};
///
/// // Two maximally correlated streams...
/// let x = Bitstream::parse("1111000010100000")?;
/// let y = x.clone();
/// assert_eq!(scc(&x, &y), 1.0);
///
/// // ...become uncorrelated after regenerating one of them with a fresh source.
/// let mut regen = Regenerator::new(VanDerCorput::new());
/// let y2 = regen.regenerate(&y);
/// assert_eq!(y2.value(), y.value());
/// assert!(scc(&x, &y2).abs() < 0.5);
/// # Ok::<(), sc_bitstream::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct Regenerator<S> {
    d2s: DigitalToStochastic<S>,
}

impl<S: RandomSource> Regenerator<S> {
    /// Creates a regenerator that re-encodes with the given source.
    #[must_use]
    pub fn new(source: S) -> Self {
        Regenerator {
            d2s: DigitalToStochastic::new(source),
        }
    }

    /// Regenerates a stream: same value (up to quantization of the new source),
    /// fresh bit order.
    #[must_use]
    pub fn regenerate(&mut self, stream: &Bitstream) -> Bitstream {
        let n = stream.len();
        if n == 0 {
            return Bitstream::new();
        }
        let count = StochasticToDigital::convert_to_count(stream);
        self.d2s
            .generate(Probability::from_ratio(count, n as u64), n)
    }

    /// Resets the underlying re-encoding source.
    pub fn reset(&mut self) {
        self.d2s.reset();
    }

    /// Consumes the regenerator, returning the underlying source.
    #[must_use]
    pub fn into_inner(self) -> S {
        self.d2s.into_inner()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use sc_bitstream::scc;
    use sc_rng::{Halton, Lfsr, VanDerCorput};

    #[test]
    fn regeneration_preserves_value_exactly_with_ld_source() {
        let mut regen = Regenerator::new(VanDerCorput::new());
        let s = Bitstream::parse("1110010010110100").unwrap();
        let r = regen.regenerate(&s);
        assert_eq!(r.len(), s.len());
        assert_eq!(r.count_ones(), s.count_ones());
    }

    #[test]
    fn regeneration_decorrelates_identical_streams() {
        // Build a highly structured stream at N = 256.
        let s = Bitstream::from_fn(256, |i| i % 2 == 0);
        let mut regen = Regenerator::new(Halton::new(3));
        let r = regen.regenerate(&s);
        assert_eq!(scc(&s, &s), 1.0);
        assert!(scc(&s, &r).abs() < 0.3, "scc after regen = {}", scc(&s, &r));
        // Halton (base 3) re-encoding over 256 cycles is exact to within a few bits.
        assert!((r.count_ones() as i64 - s.count_ones() as i64).abs() <= 3);
    }

    #[test]
    fn empty_stream_regenerates_to_empty() {
        let mut regen = Regenerator::new(VanDerCorput::new());
        let r = regen.regenerate(&Bitstream::new());
        assert!(r.is_empty());
    }

    #[test]
    fn reset_and_into_inner() {
        let mut regen = Regenerator::new(VanDerCorput::new());
        let s = Bitstream::from_fn(64, |i| i < 32);
        let a = regen.regenerate(&s);
        regen.reset();
        let b = regen.regenerate(&s);
        assert_eq!(a, b);
        let _src = regen.into_inner();
    }

    proptest! {
        #[test]
        fn prop_regeneration_value_error_at_most_one_bit(bits in proptest::collection::vec(any::<bool>(), 16..300)) {
            let s = Bitstream::from_bools(bits);
            let mut regen = Regenerator::new(VanDerCorput::new());
            let r = regen.regenerate(&s);
            prop_assert_eq!(r.len(), s.len());
            // VDC discrepancy over an arbitrary window of N samples is O(log N / N).
            let bound = (s.len().ilog2() as f64 + 2.0) / s.len() as f64;
            prop_assert!((r.value() - s.value()).abs() <= bound);
        }

        #[test]
        fn prop_regeneration_with_lfsr_value_close(bits in proptest::collection::vec(any::<bool>(), 64..300)) {
            let s = Bitstream::from_bools(bits);
            let mut regen = Regenerator::new(Lfsr::new(16, 0xACE1));
            let r = regen.regenerate(&s);
            prop_assert!((r.value() - s.value()).abs() < 0.15);
        }
    }
}
