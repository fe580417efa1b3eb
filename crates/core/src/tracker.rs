//! Streaming SCC estimation.
//!
//! The paper points out (§II.B) that "the quantitative impact of how each SC
//! arithmetic operation changes the SN correlation … is not well-understood",
//! which is why correlation sometimes has to be *measured* and corrected at
//! intermediate points of a computation. [`SccTracker`] is the hardware-style
//! answer: four counters that accumulate the joint statistics of two streams
//! cycle by cycle, from which the SCC (and both stream values) can be read at
//! any time. It is the observability companion to the manipulating circuits —
//! e.g. an adaptive design could enable a synchronizer only when the tracked
//! SCC falls below a threshold.

use sc_bitstream::{Bitstream, Error, JointCounts, Result};

/// A running estimator of the SC correlation between two bit streams.
///
/// # Example
///
/// ```
/// use sc_core::SccTracker;
/// use sc_bitstream::Bitstream;
///
/// let x = Bitstream::parse("10101010")?;
/// let y = Bitstream::parse("10111011")?;
/// let mut tracker = SccTracker::new();
/// for i in 0..x.len() {
///     tracker.observe(x.bit(i), y.bit(i));
/// }
/// assert_eq!(tracker.scc(), 1.0);
/// assert_eq!(tracker.cycles(), 8);
/// # Ok::<(), sc_bitstream::Error>(())
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct SccTracker {
    counts: JointCounts,
}

impl SccTracker {
    /// Creates an empty tracker.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Observes one cycle of the two streams.
    pub fn observe(&mut self, x: bool, y: bool) {
        match (x, y) {
            (true, true) => self.counts.a += 1,
            (true, false) => self.counts.b += 1,
            (false, true) => self.counts.c += 1,
            (false, false) => self.counts.d += 1,
        }
    }

    /// Observes two whole equal-length streams.
    ///
    /// The counters are accumulated word-parallel: three popcounts per 64
    /// stream bits instead of a branch per cycle.
    ///
    /// # Errors
    ///
    /// Returns [`Error::LengthMismatch`] if the lengths differ.
    pub fn observe_streams(&mut self, x: &Bitstream, y: &Bitstream) -> Result<()> {
        if x.len() != y.len() {
            return Err(Error::LengthMismatch {
                left: x.len(),
                right: y.len(),
            });
        }
        for (w, (xw, yw)) in x.zip_words(y).enumerate() {
            let valid = x.word_len(w) as u64;
            let a = u64::from((xw & yw).count_ones());
            let x1 = u64::from(xw.count_ones());
            let y1 = u64::from(yw.count_ones());
            self.counts.a += a;
            self.counts.b += x1 - a;
            self.counts.c += y1 - a;
            self.counts.d += valid + a - x1 - y1;
        }
        Ok(())
    }

    /// Number of cycles observed so far.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.counts.total()
    }

    /// The joint occurrence counts accumulated so far.
    #[must_use]
    pub fn counts(&self) -> JointCounts {
        self.counts
    }

    /// Current SCC estimate (0 before any cycle, by the zero-denominator
    /// convention).
    #[must_use]
    pub fn scc(&self) -> f64 {
        self.counts.scc()
    }

    /// Current value estimate of the first stream.
    #[must_use]
    pub fn value_x(&self) -> f64 {
        let n = self.counts.total();
        if n == 0 {
            0.0
        } else {
            self.counts.ones_x() as f64 / n as f64
        }
    }

    /// Current value estimate of the second stream.
    #[must_use]
    pub fn value_y(&self) -> f64 {
        let n = self.counts.total();
        if n == 0 {
            0.0
        } else {
            self.counts.ones_y() as f64 / n as f64
        }
    }

    /// Clears the counters.
    pub fn reset(&mut self) {
        self.counts = JointCounts::default();
    }
}

/// A correlation-aware wrapper that only engages an inner manipulator while
/// the tracked SCC is on the wrong side of a threshold — a lightweight
/// adaptive-manipulation policy built from the paper's pieces.
///
/// Each cycle the wrapper first updates its tracker with the *input* bits,
/// then either forwards them unchanged (when the running SCC already meets
/// the target) or passes them through the inner circuit.
#[derive(Debug, Clone)]
pub struct AdaptiveManipulator<M> {
    inner: M,
    tracker: SccTracker,
    /// Target: `true` drives toward +1 (engage while SCC < threshold),
    /// `false` drives toward −1 (engage while SCC > −threshold).
    toward_positive: bool,
    threshold: f64,
    /// Number of cycles on which the inner circuit was engaged.
    engaged_cycles: u64,
}

impl<M: crate::CorrelationManipulator> AdaptiveManipulator<M> {
    /// Wraps `inner`, engaging it only while the running SCC has not yet
    /// reached `threshold` in the direction the circuit pushes.
    #[must_use]
    pub fn new(inner: M, toward_positive: bool, threshold: f64) -> Self {
        AdaptiveManipulator {
            inner,
            tracker: SccTracker::new(),
            toward_positive,
            threshold: threshold.clamp(0.0, 1.0),
            engaged_cycles: 0,
        }
    }

    /// How many cycles the inner circuit was active.
    #[must_use]
    pub fn engaged_cycles(&self) -> u64 {
        self.engaged_cycles
    }

    /// The tracker's current SCC estimate.
    #[must_use]
    pub fn tracked_scc(&self) -> f64 {
        self.tracker.scc()
    }
}

impl<M: crate::CorrelationManipulator> crate::CorrelationManipulator for AdaptiveManipulator<M> {
    fn name(&self) -> String {
        format!("adaptive({})", self.inner.name())
    }

    fn step(&mut self, x: bool, y: bool) -> (bool, bool) {
        self.tracker.observe(x, y);
        let scc = self.tracker.scc();
        let engage = if self.toward_positive {
            scc < self.threshold
        } else {
            scc > -self.threshold
        };
        if engage {
            self.engaged_cycles += 1;
            self.inner.step(x, y)
        } else {
            (x, y)
        }
    }

    fn reset(&mut self) {
        self.inner.reset();
        self.tracker.reset();
        self.engaged_cycles = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CorrelationManipulator, Synchronizer};
    use proptest::prelude::*;
    use sc_bitstream::{scc, Probability};
    use sc_convert::DigitalToStochastic;
    use sc_rng::{Halton, VanDerCorput};

    const N: usize = 256;

    fn uncorrelated_pair(px: f64, py: f64) -> (Bitstream, Bitstream) {
        let mut gx = DigitalToStochastic::new(VanDerCorput::new());
        let mut gy = DigitalToStochastic::new(Halton::new(3));
        (
            gx.generate(Probability::saturating(px), N),
            gy.generate(Probability::saturating(py), N),
        )
    }

    #[test]
    fn tracker_matches_batch_scc() {
        let (x, y) = uncorrelated_pair(0.4, 0.7);
        let mut tracker = SccTracker::new();
        tracker.observe_streams(&x, &y).unwrap();
        assert!((tracker.scc() - scc(&x, &y)).abs() < 1e-12);
        assert!((tracker.value_x() - x.value()).abs() < 1e-12);
        assert!((tracker.value_y() - y.value()).abs() < 1e-12);
        assert_eq!(tracker.cycles(), N as u64);
        assert_eq!(tracker.counts().total(), N as u64);
    }

    #[test]
    fn empty_tracker_reports_zero() {
        let t = SccTracker::new();
        assert_eq!(t.scc(), 0.0);
        assert_eq!(t.value_x(), 0.0);
        assert_eq!(t.value_y(), 0.0);
        assert_eq!(t.cycles(), 0);
    }

    #[test]
    fn tracker_rejects_length_mismatch_and_resets() {
        let mut t = SccTracker::new();
        assert!(t
            .observe_streams(&Bitstream::zeros(4), &Bitstream::zeros(5))
            .is_err());
        t.observe(true, true);
        assert_eq!(t.cycles(), 1);
        t.reset();
        assert_eq!(t.cycles(), 0);
    }

    #[test]
    fn adaptive_synchronizer_still_synchronizes() {
        let (x, y) = uncorrelated_pair(0.5, 0.75);
        let mut adaptive = AdaptiveManipulator::new(Synchronizer::new(1), true, 0.95);
        let (ox, oy) = adaptive.process(&x, &y).unwrap();
        assert!(scc(&ox, &oy) > 0.85, "scc {}", scc(&ox, &oy));
        // Values still preserved within the save depth.
        assert!((ox.value() - x.value()).abs() <= 1.0 / N as f64 + 1e-12);
        assert!(adaptive.engaged_cycles() > 0);
        assert!(adaptive.name().contains("adaptive"));
    }

    #[test]
    fn adaptive_wrapper_disengages_on_already_correlated_inputs() {
        // Identical streams: after a brief warm-up the tracked SCC hits +1 and
        // the inner synchronizer is left idle for most of the stream.
        let x = Bitstream::from_fn(N, |i| i % 2 == 0);
        let mut adaptive = AdaptiveManipulator::new(Synchronizer::new(1), true, 0.9);
        let (ox, oy) = adaptive.process(&x, &x.clone()).unwrap();
        assert_eq!(ox, oy);
        assert!(
            adaptive.engaged_cycles() < N as u64 / 4,
            "engaged {} cycles",
            adaptive.engaged_cycles()
        );
        assert!(adaptive.tracked_scc() > 0.9);
        adaptive.reset();
        assert_eq!(adaptive.engaged_cycles(), 0);
    }

    proptest! {
        #[test]
        fn prop_tracker_equals_joint_counts(bits_x in proptest::collection::vec(any::<bool>(), 1..200),
                                            bits_y in proptest::collection::vec(any::<bool>(), 1..200)) {
            let n = bits_x.len().min(bits_y.len());
            let x = Bitstream::from_bools(bits_x.into_iter().take(n));
            let y = Bitstream::from_bools(bits_y.into_iter().take(n));
            let mut t = SccTracker::new();
            t.observe_streams(&x, &y).unwrap();
            let reference = JointCounts::from_streams(&x, &y).unwrap();
            prop_assert_eq!(t.counts(), reference);
        }
    }
}
