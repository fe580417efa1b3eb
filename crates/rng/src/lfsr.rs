//! Linear feedback shift registers (LFSRs).
//!
//! LFSRs are the traditional compact pseudo-random source in stochastic
//! computing hardware: a `w`-bit shift register with XOR feedback taps chosen
//! from a primitive polynomial cycles through all `2^w − 1` non-zero states.
//! The paper notes (§II.B) that "not all LFSR combinations generate completely
//! uncorrelated SNs", which is why different seeds / rotated outputs — or
//! low-discrepancy sequences — are used instead.

use crate::source::{RandomSource, RngKind};

/// Maximal-length tap masks (primitive polynomials) for register widths 3–24.
///
/// Entry `i` holds the tap mask for width `i + 3`; bit `k` of the mask selects
/// stage `k + 1` (so the mask for x^16 + x^14 + x^13 + x^11 + 1 at width 16 is
/// `0b1011_0100_0000_0000`).
const TAPS: [u64; 22] = [
    0b110,                      // 3: x^3 + x^2 + 1
    0b1100,                     // 4: x^4 + x^3 + 1
    0b10100,                    // 5: x^5 + x^3 + 1
    0b110000,                   // 6: x^6 + x^5 + 1
    0b1100000,                  // 7: x^7 + x^6 + 1
    0b10111000,                 // 8: x^8 + x^6 + x^5 + x^4 + 1
    0b100010000,                // 9: x^9 + x^5 + 1
    0b1001000000,               // 10: x^10 + x^7 + 1
    0b10100000000,              // 11: x^11 + x^9 + 1
    0b111000001000,             // 12: x^12 + x^11 + x^10 + x^4 + 1
    0b1110010000000,            // 13: x^13 + x^12 + x^11 + x^8 + 1
    0b11100000000010,           // 14: x^14 + x^13 + x^12 + x^2 + 1
    0b110000000000000,          // 15: x^15 + x^14 + 1
    0b1011010000000000,         // 16: x^16 + x^14 + x^13 + x^11 + 1
    0b10010000000000000,        // 17: x^17 + x^14 + 1
    0b100000010000000000,       // 18: x^18 + x^11 + 1
    0b1110010000000000000,      // 19: x^19 + x^18 + x^17 + x^14 + 1
    0b10010000000000000000,     // 20: x^20 + x^17 + 1
    0b101000000000000000000,    // 21: x^21 + x^19 + 1
    0b1100000000000000000000,   // 22: x^22 + x^21 + 1
    0b10000100000000000000000,  // 23: x^23 + x^18 + 1
    0b111000010000000000000000, // 24: x^24 + x^23 + x^22 + x^17 + 1
];

/// A maximal-length Fibonacci (external XOR) linear feedback shift register
/// source: each step shifts the register left and feeds in the XOR of the
/// tap bits.
///
/// # Example
///
/// ```
/// use sc_rng::{Lfsr, RandomSource};
///
/// let mut lfsr = Lfsr::new(8, 0x5A);
/// let first: Vec<f64> = (0..4).map(|_| lfsr.next_unit()).collect();
/// lfsr.reset();
/// let again: Vec<f64> = (0..4).map(|_| lfsr.next_unit()).collect();
/// assert_eq!(first, again);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Lfsr {
    width: u32,
    taps: u64,
    seed: u64,
    state: u64,
}

impl Lfsr {
    /// Creates a Fibonacci LFSR of the given width (3–24 bits) and non-zero seed.
    ///
    /// The seed is masked to the register width; a masked value of zero is
    /// replaced by 1 (the all-zeros state is a fixed point of any LFSR).
    ///
    /// # Panics
    ///
    /// Panics if `width` is outside `3..=24`.
    #[must_use]
    pub fn new(width: u32, seed: u64) -> Self {
        assert!(
            (3..=24).contains(&width),
            "LFSR width {width} outside supported range 3..=24"
        );
        let taps = TAPS[(width - 3) as usize];
        let mask = (1u64 << width) - 1;
        let mut seed = seed & mask;
        if seed == 0 {
            seed = 1;
        }
        Lfsr {
            width,
            taps,
            seed,
            state: seed,
        }
    }

    /// The register width in bits.
    #[must_use]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// The period of the register (`2^width − 1`).
    #[must_use]
    pub fn period(&self) -> u64 {
        (1u64 << self.width) - 1
    }

    /// The current register state (non-zero).
    #[must_use]
    pub fn state(&self) -> u64 {
        self.state
    }

    /// The feedback tap mask (primitive polynomial) of this register, as used
    /// by RTL emission of the equivalent hardware LFSR.
    #[must_use]
    pub fn taps(&self) -> u64 {
        self.taps
    }

    /// Advances the register one step and returns the new state.
    pub fn step(&mut self) -> u64 {
        self.state = self.transition(self.state);
        self.state
    }

    /// The one-step state transition, as a pure function. It is *linear*
    /// over GF(2): the next state is an XOR of shifted state bits, which is
    /// what makes the companion-matrix jump of [`Lfsr::jump`] possible.
    fn transition(&self, state: u64) -> u64 {
        let mask = (1u64 << self.width) - 1;
        let feedback = (state & self.taps).count_ones() as u64 & 1;
        // Bit 0 of the shifted state is 0, so OR equals XOR: linear.
        ((state << 1) | feedback) & mask
    }

    /// Applies a linear map (columns = images of the basis vectors) to a state.
    fn apply(matrix: &[u64], state: u64) -> u64 {
        let mut out = 0u64;
        let mut bits = state;
        while bits != 0 {
            let i = bits.trailing_zeros() as usize;
            out ^= matrix[i];
            bits &= bits - 1;
        }
        out
    }

    /// Jumps the register `count` steps ahead in `O(w² log count)` word
    /// operations via square-and-multiply over the companion matrix, instead
    /// of `count` sequential register steps. Equivalent to calling
    /// [`Lfsr::step`] `count` times.
    pub fn jump(&mut self, count: u64) {
        let mut base: Vec<u64> = (0..self.width)
            .map(|i| self.transition(1u64 << i))
            .collect();
        let mut remaining = count;
        let mut scratch = vec![0u64; self.width as usize];
        while remaining != 0 {
            if remaining & 1 == 1 {
                self.state = Self::apply(&base, self.state);
            }
            remaining >>= 1;
            if remaining != 0 {
                for (i, slot) in scratch.iter_mut().enumerate() {
                    *slot = Self::apply(&base, base[i]);
                }
                std::mem::swap(&mut base, &mut scratch);
            }
        }
    }
}

impl RandomSource for Lfsr {
    fn next_unit(&mut self) -> f64 {
        let v = self.step();
        // States are in 1..=2^w - 1; map to [0, 1).
        (v - 1) as f64 / self.period() as f64
    }

    fn reset(&mut self) {
        self.state = self.seed;
    }

    fn kind(&self) -> RngKind {
        RngKind::Lfsr
    }

    fn label(&self) -> String {
        format!("LFSR-{}", self.width)
    }

    /// Companion-matrix fast-forward: `O(w² log count)` instead of `O(count)`.
    fn skip_ahead(&mut self, count: u64) {
        self.jump(count);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceExt;
    use proptest::prelude::*;
    use std::collections::HashSet;

    #[test]
    fn fibonacci_lfsr_has_maximal_period_small_widths() {
        for width in 3..=12u32 {
            let mut lfsr = Lfsr::new(width, 1);
            let period = lfsr.period();
            let mut seen = HashSet::new();
            for _ in 0..period {
                assert!(
                    seen.insert(lfsr.step()),
                    "state repeated early at width {width}"
                );
            }
            // After a full period the register returns to its seed state.
            assert_eq!(lfsr.state(), 1);
            assert_eq!(seen.len() as u64, period);
            assert!(!seen.contains(&0), "all-zero state must never appear");
        }
    }

    #[test]
    fn zero_seed_is_coerced() {
        let lfsr = Lfsr::new(8, 0);
        assert_ne!(lfsr.state(), 0);
        let lfsr = Lfsr::new(8, 0x100); // masked to zero
        assert_ne!(lfsr.state(), 0);
    }

    #[test]
    #[should_panic(expected = "outside supported range")]
    fn invalid_width_panics() {
        let _ = Lfsr::new(2, 1);
    }

    #[test]
    fn reset_restores_sequence() {
        let mut lfsr = Lfsr::new(16, 0xACE1);
        let first: Vec<u64> = (0..64).map(|_| lfsr.step()).collect();
        lfsr.reset();
        let second: Vec<u64> = (0..64).map(|_| lfsr.step()).collect();
        assert_eq!(first, second);
    }

    #[test]
    fn unit_samples_are_in_range_and_roughly_uniform() {
        let mut lfsr = Lfsr::new(16, 0xACE1);
        let n = 4096;
        let mean: f64 = (0..n).map(|_| lfsr.next_unit()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.05, "mean {mean} not near 0.5");
    }

    #[test]
    fn different_seeds_produce_shifted_sequences() {
        let mut a = Lfsr::new(16, 0xACE1);
        let mut b = Lfsr::new(16, 0xBEEF);
        let seq_a: Vec<u64> = (0..32).map(|_| a.step()).collect();
        let seq_b: Vec<u64> = (0..32).map(|_| b.step()).collect();
        assert_ne!(seq_a, seq_b);
    }

    #[test]
    fn label_mentions_width() {
        assert_eq!(Lfsr::new(16, 1).label(), "LFSR-16");
        assert_eq!(Lfsr::new(16, 1).kind(), RngKind::Lfsr);
    }

    #[test]
    fn jump_matches_sequential_stepping() {
        for width in [3u32, 8, 16, 24] {
            for count in [0u64, 1, 2, 63, 64, 65, 1000, 1_000_003] {
                let mut stepped = Lfsr::new(width, 0xACE1);
                for _ in 0..count {
                    stepped.step();
                }
                let mut jumped = Lfsr::new(width, 0xACE1);
                jumped.jump(count);
                assert_eq!(
                    stepped.state(),
                    jumped.state(),
                    "width {width} count {count}"
                );
            }
        }
    }

    #[test]
    fn skip_ahead_uses_jump_and_matches_samples() {
        let mut manual = Lfsr::new(16, 0xBEEF);
        for _ in 0..12345 {
            manual.next_unit();
        }
        let mut skipped = Lfsr::new(16, 0xBEEF);
        skipped.skip_ahead(12345);
        assert_eq!(manual.take_units(8), skipped.take_units(8));
    }

    #[test]
    fn jump_wraps_past_full_period() {
        let mut a = Lfsr::new(8, 0x5A);
        let period = a.period();
        a.jump(period);
        assert_eq!(a.state(), 0x5A, "full period returns to the seed state");
        let mut b = Lfsr::new(8, 0x5A);
        b.jump(period * 3 + 7);
        let mut c = Lfsr::new(8, 0x5A);
        c.jump(7);
        assert_eq!(b.state(), c.state());
    }

    #[test]
    fn next_below_yields_full_range_over_period() {
        let mut lfsr = Lfsr::new(8, 0x5A);
        let mut seen = HashSet::new();
        for _ in 0..lfsr.period() {
            seen.insert(lfsr.next_below(16));
        }
        assert_eq!(seen.len(), 16);
    }

    proptest! {
        #[test]
        fn prop_state_never_zero(width in 3u32..=24, seed in 0u64..1_000_000, steps in 1usize..2000) {
            let mut lfsr = Lfsr::new(width, seed);
            for _ in 0..steps {
                prop_assert_ne!(lfsr.step(), 0);
            }
        }

        #[test]
        fn prop_unit_in_range(width in 3u32..=24, seed in 0u64..1_000_000) {
            let mut lfsr = Lfsr::new(width, seed);
            for _ in 0..256 {
                let v = lfsr.next_unit();
                prop_assert!((0.0..1.0).contains(&v));
            }
        }
    }
}
