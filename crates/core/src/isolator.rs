//! Isolators: the fixed-delay decorrelation baseline of Ting & Hayes \[10\].
//!
//! An isolator is simply a D flip-flop inserted into one operand path, so one
//! stream is delayed by a fixed number of cycles relative to the other. For
//! streams whose autocorrelation decays quickly this reduces the SCC, but —
//! as §II.B and Table II point out — isolators never change the *relative
//! order* of bits, so their effect on SCC can be limited or even perverse
//! (the VDC/VDC row of Table II flips the sign of the correlation instead of
//! removing it). They are included here as the baseline the decorrelator is
//! compared against.

use crate::manipulator::{CorrelationManipulator, DEPTH_RANGE};
use sc_bitstream::BitQueue;

/// A chain of `k` isolator flip-flops in the X operand path (Y passes
/// through untouched).
///
/// The delay line is held as a packed [`BitQueue`], so
/// [`CorrelationManipulator::step_word`] shifts 64 stream bits through the
/// flip-flop chain per operation; the bit-stepped
/// [`CorrelationManipulator::step`] view of the same state remains available
/// for cycle-level simulation.
///
/// # Example
///
/// ```
/// use sc_core::{Isolator, CorrelationManipulator};
/// use sc_bitstream::Bitstream;
///
/// let x = Bitstream::parse("10110010")?;
/// let y = Bitstream::parse("11111111")?;
/// let mut iso = Isolator::new(2);
/// let (x2, y2) = iso.process(&x, &y)?;
/// assert_eq!(x2.to_bit_string(), "00101100"); // delayed two cycles
/// assert_eq!(y2, y);
/// # Ok::<(), sc_bitstream::Error>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Isolator {
    delay: usize,
    pipeline: BitQueue,
}

impl Isolator {
    /// Creates an isolator chain delaying the X operand by `delay ≥ 1` cycles.
    ///
    /// # Panics
    ///
    /// Panics if `delay` is outside [`DEPTH_RANGE`].
    #[must_use]
    pub fn new(delay: usize) -> Self {
        assert!(
            DEPTH_RANGE.contains(&delay),
            "isolator delay {delay} outside supported range {DEPTH_RANGE:?}"
        );
        Isolator {
            delay,
            pipeline: BitQueue::filled(delay, false),
        }
    }

    /// The configured delay in cycles.
    #[must_use]
    pub fn delay(&self) -> usize {
        self.delay
    }
}

impl CorrelationManipulator for Isolator {
    fn name(&self) -> String {
        format!("isolator(k={})", self.delay)
    }

    fn step(&mut self, x: bool, y: bool) -> (bool, bool) {
        self.pipeline.push_bit(x);
        (self.pipeline.pop_bit(), y)
    }

    fn reset(&mut self) {
        self.pipeline = BitQueue::filled(self.delay, false);
    }

    fn step_word(&mut self, x: u64, y: u64, valid: u32) -> (u64, u64) {
        // FIFO order is insertion order, so pushing the whole input word and
        // popping a whole output word is exactly 64 interleaved
        // push-bit/pop-bit cycles.
        if valid == 64 {
            self.pipeline.push_word(x);
            (self.pipeline.pop_word(), y)
        } else {
            let mut out = 0u64;
            for i in 0..valid {
                self.pipeline.push_bit((x >> i) & 1 == 1);
                out |= u64::from(self.pipeline.pop_bit()) << i;
            }
            (out, y)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use sc_bitstream::{scc, Bitstream, Probability};
    use sc_convert::DigitalToStochastic;
    use sc_rng::{Lfsr, VanDerCorput};

    const N: usize = 256;

    #[test]
    fn delays_only_the_first_operand() {
        let x = Bitstream::parse("11010001").unwrap();
        let y = Bitstream::parse("10101010").unwrap();
        let mut iso = Isolator::new(1);
        let (ox, oy) = iso.process(&x, &y).unwrap();
        assert_eq!(ox, x.delayed(1, false));
        assert_eq!(oy, y);
        assert_eq!(iso.delay(), 1);
        assert!(iso.name().contains("k=1"));
    }

    #[test]
    fn reduces_correlation_of_lfsr_generated_pairs() {
        // Identical LFSR streams are maximally correlated; a one-cycle shift
        // of a pseudo-random stream is close to uncorrelated with itself.
        let mut g = DigitalToStochastic::new(Lfsr::new(16, 0xACE1));
        let (x, y) = g.generate_correlated_pair(
            Probability::new(0.5).unwrap(),
            Probability::new(0.5).unwrap(),
            N,
        );
        assert!(scc(&x, &y) > 0.95);
        let mut iso = Isolator::new(1);
        let (ox, oy) = iso.process(&x, &y).unwrap();
        assert!(scc(&ox, &oy).abs() < 0.5, "scc = {}", scc(&ox, &oy));
    }

    #[test]
    fn can_flip_correlation_of_structured_streams() {
        // The Table II VDC/VDC row: delaying a low-discrepancy stream by one
        // cycle produces strong *negative* correlation instead of removing it,
        // illustrating why isolators are a weak decorrelation tool.
        let mut g = DigitalToStochastic::new(VanDerCorput::new());
        let (x, y) = g.generate_correlated_pair(
            Probability::new(0.5).unwrap(),
            Probability::new(0.5).unwrap(),
            N,
        );
        let mut iso = Isolator::new(1);
        let (ox, oy) = iso.process(&x, &y).unwrap();
        assert!(scc(&ox, &oy) < -0.9, "scc = {}", scc(&ox, &oy));
    }

    #[test]
    fn value_bias_bounded_by_delay() {
        let x = Bitstream::from_fn(N, |i| i % 3 != 0);
        let y = Bitstream::zeros(N);
        for delay in [1usize, 2, 4, 8] {
            let mut iso = Isolator::new(delay);
            let (ox, _) = iso.process(&x, &y).unwrap();
            assert!((ox.value() - x.value()).abs() <= delay as f64 / N as f64 + 1e-12);
        }
    }

    #[test]
    fn reset_restores_pipeline() {
        let x = Bitstream::parse("1111").unwrap();
        let y = Bitstream::parse("0000").unwrap();
        let mut iso = Isolator::new(2);
        let (a, _) = iso.process(&x, &y).unwrap();
        iso.reset();
        let (b, _) = iso.process(&x, &y).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "outside supported range")]
    fn zero_delay_panics() {
        let _ = Isolator::new(0);
    }

    proptest! {
        #[test]
        fn prop_output_is_shifted_input(bits in proptest::collection::vec(any::<bool>(), 8..200), delay in 1usize..8) {
            let x = Bitstream::from_bools(bits);
            let y = Bitstream::zeros(x.len());
            let mut iso = Isolator::new(delay);
            let (ox, oy) = iso.process(&x, &y).unwrap();
            prop_assert_eq!(ox, x.delayed(delay, false));
            prop_assert_eq!(oy, y);
        }
    }
}
