//! The decorrelator: two shuffle buffers driving SCC toward zero (Fig. 4a).
//!
//! Each of the two input streams passes through its own [`ShuffleBuffer`]
//! addressed by an independent auxiliary random source. Because the buffers
//! scramble relative bit order over a window proportional to their depth, any
//! alignment between the two streams' 1s is destroyed and the pair becomes
//! (close to) uncorrelated — unlike isolators, which only shift one stream by
//! a fixed offset and leave relative order intact, and unlike regeneration,
//! which needs full S/D + D/S conversions.
//!
//! The default circuit ([`Decorrelator::new`]) addresses its buffers with two
//! fixed-seed LFSRs, so from a reset its run is fixed by the depth alone:
//! each output bit is a power-on slot bit or one input bit at a fixed lag. A
//! whole-stream call from the reset point runs that lag structure as a
//! word-wide shift-and-mask network, built once per process per depth and
//! shared by every such circuit. Those calls are
//! [`CorrelationManipulator::process`] on a fresh or just-reset circuit and
//! [`Decorrelator::process_words`] on a fresh one, as the graph executor
//! makes per job. Such a call leaves the circuit in the state the per-bit
//! chain would. Circuits built [`Decorrelator::with_sources`], calls that
//! continue a run, runs past 32,768 cycles and depths the network does not
//! serve (see [`crate::shuffle_buffer`]) keep the chain.

use crate::manipulator::CorrelationManipulator;
use crate::shuffle_buffer::ShuffleBuffer;
use sc_bitstream::{Bitstream, Error, Result};
use sc_rng::{Lfsr, RandomSource};

/// A decorrelator built from two independently addressed shuffle buffers.
///
/// # Example
///
/// ```
/// use sc_core::{Decorrelator, CorrelationManipulator};
/// use sc_bitstream::{scc, Bitstream};
///
/// // Two identical (maximally correlated) streams.
/// let x = Bitstream::from_fn(256, |i| i % 2 == 0);
/// let y = x.clone();
/// assert_eq!(scc(&x, &y), 1.0);
///
/// let mut deco = Decorrelator::new(4);
/// let (x2, y2) = deco.process(&x, &y)?;
/// assert!(scc(&x2, &y2).abs() < 0.4);
/// # Ok::<(), sc_bitstream::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct Decorrelator<S = Lfsr> {
    buffer_x: ShuffleBuffer<S>,
    buffer_y: ShuffleBuffer<S>,
    depth: usize,
}

impl Decorrelator<Lfsr> {
    /// Creates a decorrelator with the given shuffle-buffer depth, using two
    /// differently seeded 16-bit LFSRs as the auxiliary address sources (the
    /// default hardware configuration).
    ///
    /// # Panics
    ///
    /// Panics if `depth` is outside [`crate::DEPTH_RANGE`].
    #[must_use]
    pub fn new(depth: usize) -> Self {
        Decorrelator {
            buffer_x: ShuffleBuffer::with_lag_network(depth, 0xACE1),
            buffer_y: ShuffleBuffer::with_lag_network(depth, 0x7331),
            depth,
        }
    }
}

impl<S: RandomSource> Decorrelator<S> {
    /// Creates a decorrelator with explicit auxiliary sources for the two
    /// shuffle buffers. The sources should be mutually uncorrelated.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is outside [`crate::DEPTH_RANGE`].
    #[must_use]
    pub fn with_sources(depth: usize, source_x: S, source_y: S) -> Self {
        Decorrelator {
            buffer_x: ShuffleBuffer::new(depth, source_x),
            buffer_y: ShuffleBuffer::new(depth, source_y),
            depth,
        }
    }

    /// The shuffle-buffer depth `D`.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Runs the circuit over the packed words of two `len`-bit streams,
    /// writing the manipulated pair to `out_x` / `out_y`: bit-identical to
    /// [`CorrelationManipulator::process`], without building streams.
    ///
    /// # Panics
    ///
    /// Panics if any slice holds fewer than `len.div_ceil(64)` words.
    pub fn process_words(
        &mut self,
        x: &[u64],
        y: &[u64],
        len: usize,
        out_x: &mut [u64],
        out_y: &mut [u64],
    ) {
        self.buffer_x.process_words(x, len, out_x);
        self.buffer_y.process_words(y, len, out_y);
    }
}

impl<S: RandomSource> CorrelationManipulator for Decorrelator<S> {
    fn name(&self) -> String {
        format!("decorrelator(D={})", self.depth)
    }

    fn step(&mut self, x: bool, y: bool) -> (bool, bool) {
        (self.buffer_x.step(x), self.buffer_y.step(y))
    }

    fn reset(&mut self) {
        self.buffer_x.reset();
        self.buffer_y.reset();
    }

    fn step_word(&mut self, x: u64, y: u64, valid: u32) -> (u64, u64) {
        (
            self.buffer_x.step_word(x, valid),
            self.buffer_y.step_word(y, valid),
        )
    }

    /// Runs each buffer over its whole stream: the buffers share no state,
    /// so this equals stepping them together, and each takes its lag network
    /// where one serves the call.
    fn process(&mut self, x: &Bitstream, y: &Bitstream) -> Result<(Bitstream, Bitstream)> {
        if x.len() != y.len() {
            return Err(Error::LengthMismatch {
                left: x.len(),
                right: y.len(),
            });
        }
        Ok((self.buffer_x.process(x), self.buffer_y.process(y)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use sc_bitstream::{scc, Bitstream, Probability};
    use sc_convert::DigitalToStochastic;
    use sc_rng::{Sobol, VanDerCorput};

    const N: usize = 256;

    fn correlated_pair(px: f64, py: f64) -> (Bitstream, Bitstream) {
        let mut g = DigitalToStochastic::new(VanDerCorput::new());
        g.generate_correlated_pair(
            Probability::new(px).unwrap(),
            Probability::new(py).unwrap(),
            N,
        )
    }

    #[test]
    fn decorrelator_reduces_positive_correlation() {
        // Table II decorrelator rows: input SCC ≈ +0.99 becomes ≈ 0.1-0.25.
        let (x, y) = correlated_pair(0.5, 0.5);
        assert!(scc(&x, &y) > 0.95);
        let mut deco = Decorrelator::new(4);
        let (ox, oy) = deco.process(&x, &y).unwrap();
        let after = scc(&ox, &oy);
        assert!(after.abs() < 0.45, "after = {after}");
    }

    #[test]
    fn decorrelator_reduces_negative_correlation_too() {
        let x = Bitstream::from_fn(N, |i| i % 2 == 0);
        let y = x.not();
        assert_eq!(scc(&x, &y), -1.0);
        let mut deco = Decorrelator::new(8);
        let (ox, oy) = deco.process(&x, &y).unwrap();
        assert!(scc(&ox, &oy).abs() < 0.5, "scc = {}", scc(&ox, &oy));
    }

    #[test]
    fn deeper_buffers_decorrelate_harder() {
        let (x, y) = correlated_pair(0.5, 0.5);
        let shallow = {
            let mut d = Decorrelator::new(2);
            let (ox, oy) = d.process(&x, &y).unwrap();
            scc(&ox, &oy).abs()
        };
        let deep = {
            let mut d = Decorrelator::new(32);
            let (ox, oy) = d.process(&x, &y).unwrap();
            scc(&ox, &oy).abs()
        };
        assert!(deep <= shallow + 0.1, "deep {deep} vs shallow {shallow}");
    }

    #[test]
    fn values_preserved_within_buffer_depth() {
        let (x, y) = correlated_pair(0.75, 0.25);
        let depth = 4;
        let mut deco = Decorrelator::new(depth);
        let (ox, oy) = deco.process(&x, &y).unwrap();
        let bound = depth as f64 / N as f64 + 1e-12;
        assert!((ox.value() - x.value()).abs() <= bound);
        assert!((oy.value() - y.value()).abs() <= bound);
    }

    #[test]
    fn multiplication_repaired_by_decorrelator() {
        // The motivating use: an AND gate fed correlated inputs computes min,
        // but after the decorrelator it computes the product again.
        let (x, y) = correlated_pair(0.5, 0.75);
        let wrong = x.and(&y).value();
        assert!((wrong - 0.5).abs() < 0.05, "correlated AND = min");
        let mut deco = Decorrelator::new(8);
        let (ox, oy) = deco.process(&x, &y).unwrap();
        let repaired = ox.and(&oy).value();
        assert!(
            (repaired - 0.375).abs() < 0.07,
            "decorrelated AND should approach the product, got {repaired}"
        );
    }

    #[test]
    fn custom_sources_and_reset() {
        let (x, y) = correlated_pair(0.5, 0.5);
        let mut deco = Decorrelator::with_sources(4, Sobol::new(2), Sobol::new(3));
        let (a1, b1) = deco.process(&x, &y).unwrap();
        deco.reset();
        let (a2, b2) = deco.process(&x, &y).unwrap();
        assert_eq!(a1, a2);
        assert_eq!(b1, b2);
        assert_eq!(deco.depth(), 4);
        assert!(deco.name().contains("D=4"));
    }

    proptest! {
        #[test]
        fn prop_values_preserved(bits in proptest::collection::vec(any::<bool>(), 64..300), depth in 1usize..16) {
            let x = Bitstream::from_bools(bits.clone());
            let y = Bitstream::from_bools(bits);
            let mut deco = Decorrelator::new(depth);
            let (ox, oy) = deco.process(&x, &y).unwrap();
            let bound = depth as f64 / x.len() as f64 + 1e-12;
            prop_assert!((ox.value() - x.value()).abs() <= bound);
            prop_assert!((oy.value() - y.value()).abs() <= bound);
        }

        #[test]
        fn prop_correlation_magnitude_reduced_for_correlated_pairs(k in 8u64..=56) {
            // Shared-source pairs (SCC = +1) generated from a low-discrepancy
            // sequence, as in the Table II decorrelator rows.
            let (x, y) = correlated_pair(k as f64 / 64.0, k as f64 / 64.0);
            prop_assume!(x.count_ones() > 0 && x.count_ones() < N);
            let before = scc(&x, &y);
            let mut deco = Decorrelator::new(8);
            let (ox, oy) = deco.process(&x, &y).unwrap();
            prop_assume!(ox.count_ones() > 0 && ox.count_ones() < N);
            prop_assume!(oy.count_ones() > 0 && oy.count_ones() < N);
            prop_assert!(scc(&ox, &oy) < before - 0.2, "before {} after {}", before, scc(&ox, &oy));
        }
    }
}
