//! The shuffle buffer: the building block of the decorrelator (Fig. 4b).
//!
//! A shuffle buffer is a small `D`-entry bit memory. Each cycle an auxiliary
//! random source picks a slot; the bit stored there is emitted and replaced by
//! the incoming bit. Bits therefore leave the buffer in a scrambled order,
//! with a reordering window that grows with the buffer depth — unlike an
//! isolator, which only shifts bits by a fixed offset and never changes their
//! relative order.
//!
//! To reduce value bias the buffer is initialised half 1s / half 0s, so that
//! on average the bits stranded in the buffer at the end of the stream carry
//! the same weight as the bits that seeded it (§III.C).

use crate::manipulator::DEPTH_RANGE;
use sc_bitstream::Bitstream;
use sc_rng::{RandomSource, SourceExt};

/// A randomly addressed `D`-entry bit memory that scrambles the order of a
/// stochastic number's bits.
///
/// # Example
///
/// ```
/// use sc_core::ShuffleBuffer;
/// use sc_rng::Lfsr;
/// use sc_bitstream::Bitstream;
///
/// let input = Bitstream::parse("1111000011110000")?;
/// let mut buf = ShuffleBuffer::new(4, Lfsr::new(16, 0xACE1));
/// let output = buf.process(&input);
/// assert_eq!(output.len(), input.len());
/// // The value survives the scramble to within the buffer depth.
/// assert!((output.value() - input.value()).abs() <= 4.0 / 16.0);
/// # Ok::<(), sc_bitstream::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct ShuffleBuffer<S> {
    slots: Vec<bool>,
    source: S,
}

impl<S: RandomSource> ShuffleBuffer<S> {
    /// Creates a shuffle buffer with `depth` slots addressed by `source`.
    ///
    /// The buffer is initialised with alternating 1s and 0s (half and half).
    ///
    /// # Panics
    ///
    /// Panics if `depth` is outside [`DEPTH_RANGE`].
    #[must_use]
    pub fn new(depth: usize, source: S) -> Self {
        assert!(
            DEPTH_RANGE.contains(&depth),
            "shuffle buffer depth {depth} outside supported range {DEPTH_RANGE:?}"
        );
        let slots = (0..depth).map(|i| i % 2 == 0).collect();
        ShuffleBuffer { slots, source }
    }

    /// The buffer depth `D`.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.slots.len()
    }

    /// Number of 1s currently stored in the buffer.
    #[must_use]
    pub fn stored_ones(&self) -> usize {
        self.slots.iter().filter(|&&b| b).count()
    }

    /// Processes one bit: a random slot is read out and replaced by `input`.
    pub fn step(&mut self, input: bool) -> bool {
        let addr = self.source.next_below(self.slots.len() as u64) as usize;
        let out = self.slots[addr];
        self.slots[addr] = input;
        out
    }

    /// Processes up to 64 bits staged through a register-resident word: bit
    /// `i` of the result is the slot read-out for input bit `(input >> i) & 1`
    /// (`i < valid`). The slot accesses themselves stay serial — they are
    /// randomly addressed — but the stream bits never touch memory.
    pub fn step_word(&mut self, input: u64, valid: u32) -> u64 {
        let mut out = 0u64;
        for i in 0..valid {
            let addr = self.source.next_below(self.slots.len() as u64) as usize;
            out |= u64::from(self.slots[addr]) << i;
            self.slots[addr] = (input >> i) & 1 == 1;
        }
        out
    }

    /// Processes a whole stream, preserving its length.
    #[must_use]
    pub fn process(&mut self, input: &Bitstream) -> Bitstream {
        let n = input.len();
        Bitstream::from_word_fn(n, |w| {
            let valid = input.word_len(w) as u32;
            self.step_word(input.as_words()[w], valid)
        })
    }

    /// Restores the initial buffer contents and resets the address source.
    pub fn reset(&mut self) {
        for (i, slot) in self.slots.iter_mut().enumerate() {
            *slot = i % 2 == 0;
        }
        self.source.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use sc_rng::{Lfsr, Sobol};

    #[test]
    fn initialised_half_ones() {
        let buf = ShuffleBuffer::new(8, Lfsr::new(8, 1));
        assert_eq!(buf.stored_ones(), 4);
        assert_eq!(buf.depth(), 8);
        let buf = ShuffleBuffer::new(5, Lfsr::new(8, 1));
        assert_eq!(buf.stored_ones(), 3); // ceil(5/2)
    }

    #[test]
    fn bit_conservation() {
        // Ones in = ones out + ones still stored - ones initially stored.
        let input = Bitstream::from_fn(128, |i| i % 3 == 0);
        let mut buf = ShuffleBuffer::new(8, Lfsr::new(16, 0xACE1));
        let initially_stored = buf.stored_ones();
        let output = buf.process(&input);
        assert_eq!(
            input.count_ones() + initially_stored,
            output.count_ones() + buf.stored_ones()
        );
    }

    #[test]
    fn scrambles_order_but_preserves_value() {
        let input = Bitstream::from_fn(256, |i| i < 128);
        let mut buf = ShuffleBuffer::new(16, Lfsr::new(16, 0xACE1));
        let output = buf.process(&input);
        assert_ne!(output, input, "order should change");
        assert!((output.value() - input.value()).abs() <= 16.0 / 256.0);
    }

    #[test]
    fn depth_one_buffer_is_a_random_isolator() {
        let input = Bitstream::parse("10110100").unwrap();
        let mut buf = ShuffleBuffer::new(1, Lfsr::new(8, 3));
        let output = buf.process(&input);
        // With one slot every bit is simply delayed by one cycle, after the
        // initial stored bit is flushed out first.
        assert!(output.bit(0)); // initial slot content (index 0 -> 1)
        for i in 1..8 {
            assert_eq!(output.bit(i), input.bit(i - 1));
        }
    }

    #[test]
    fn reset_restores_behaviour() {
        let input = Bitstream::from_fn(64, |i| i % 5 == 0);
        let mut buf = ShuffleBuffer::new(4, Sobol::new(2));
        let a = buf.process(&input);
        buf.reset();
        let b = buf.process(&input);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "outside supported range")]
    fn zero_depth_panics() {
        let _ = ShuffleBuffer::new(0, Lfsr::new(8, 1));
    }

    proptest! {
        #[test]
        fn prop_bit_conservation(bits in proptest::collection::vec(any::<bool>(), 1..300), depth in 1usize..32) {
            let input = Bitstream::from_bools(bits);
            let mut buf = ShuffleBuffer::new(depth, Lfsr::new(16, 0x42A7));
            let initially_stored = buf.stored_ones();
            let output = buf.process(&input);
            prop_assert_eq!(
                input.count_ones() + initially_stored,
                output.count_ones() + buf.stored_ones()
            );
        }

        #[test]
        fn prop_value_bias_bounded_by_depth(bits in proptest::collection::vec(any::<bool>(), 32..300), depth in 1usize..16) {
            let input = Bitstream::from_bools(bits);
            let mut buf = ShuffleBuffer::new(depth, Lfsr::new(16, 0x9D2C));
            let output = buf.process(&input);
            prop_assert!((output.value() - input.value()).abs() <= depth as f64 / input.len() as f64 + 1e-12);
        }
    }
}
