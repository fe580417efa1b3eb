//! Tracking forecast memories (TFMs): the re-randomizing baseline of
//! Tehrani et al. \[11\], \[14\].
//!
//! A TFM tracks the running value of a stochastic number with an exponential
//! moving average `P ← P + β(X − P)` held in a small fixed-point register, and
//! re-emits a fresh bitstream by comparing `P` against an auxiliary random
//! source each cycle. Because the output bits are drawn from the tracked
//! probability rather than copied from the input, the output's correlation
//! with other streams is (partially) reset — but the tracking loop itself
//! introduces value error and lag, which is why Table II shows TFMs both
//! decorrelate less than the shuffle-buffer decorrelator and bias the values
//! more (especially the VDC/VDC row).
//!
//! TFMs were designed for LDPC decoding where the tracked value changes
//! slowly; they are included here purely as a published baseline.

use crate::manipulator::CorrelationManipulator;
use sc_rng::{Lfsr, RandomSource};

/// A pair of tracking forecast memories, one per operand.
#[derive(Debug, Clone)]
pub struct TrackingForecastMemory<S = Lfsr> {
    beta: f64,
    estimate_x: f64,
    estimate_y: f64,
    source_x: S,
    source_y: S,
}

impl TrackingForecastMemory<Lfsr> {
    /// Creates a TFM pair with smoothing factor `β = 1/2^shift` and two
    /// differently seeded LFSRs as the re-randomization sources.
    ///
    /// # Panics
    ///
    /// Panics if `shift` is 0 or greater than 16.
    #[must_use]
    pub fn new(shift: u32) -> Self {
        Self::with_sources(shift, Lfsr::new(16, 0xBEEF), Lfsr::new(16, 0x42A7))
    }
}

impl<S: RandomSource> TrackingForecastMemory<S> {
    /// Creates a TFM pair with explicit re-randomization sources.
    ///
    /// # Panics
    ///
    /// Panics if `shift` is 0 or greater than 16.
    #[must_use]
    pub fn with_sources(shift: u32, source_x: S, source_y: S) -> Self {
        assert!(
            (1..=16).contains(&shift),
            "TFM smoothing shift {shift} outside supported range 1..=16"
        );
        TrackingForecastMemory {
            beta: 1.0 / f64::from(1u32 << shift),
            estimate_x: 0.5,
            estimate_y: 0.5,
            source_x,
            source_y,
        }
    }

    /// The smoothing factor `β`.
    #[must_use]
    pub fn beta(&self) -> f64 {
        self.beta
    }

    /// Current tracked estimates `(P_X, P_Y)`.
    #[must_use]
    pub fn estimates(&self) -> (f64, f64) {
        (self.estimate_x, self.estimate_y)
    }
}

impl<S: RandomSource> CorrelationManipulator for TrackingForecastMemory<S> {
    fn name(&self) -> String {
        format!("tfm(beta={})", self.beta)
    }

    fn step(&mut self, x: bool, y: bool) -> (bool, bool) {
        // Update the exponential trackers.
        self.estimate_x += self.beta * (f64::from(u8::from(x)) - self.estimate_x);
        self.estimate_y += self.beta * (f64::from(u8::from(y)) - self.estimate_y);
        // Re-randomize from the tracked probabilities.
        let out_x = self.estimate_x > self.source_x.next_unit();
        let out_y = self.estimate_y > self.source_y.next_unit();
        (out_x, out_y)
    }

    fn reset(&mut self) {
        self.estimate_x = 0.5;
        self.estimate_y = 0.5;
        self.source_x.reset();
        self.source_y.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use sc_bitstream::{scc, Bitstream, Probability};
    use sc_convert::DigitalToStochastic;
    use sc_rng::VanDerCorput;

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
    fn tracker_converges_to_stream_value() {
        let (x, y) = correlated_pair(0.75, 0.25);
        let mut tfm = TrackingForecastMemory::new(3);
        let _ = tfm.process(&x, &y).unwrap();
        let (ex, ey) = tfm.estimates();
        assert!((ex - 0.75).abs() < 0.15, "ex = {ex}");
        assert!((ey - 0.25).abs() < 0.15, "ey = {ey}");
    }

    #[test]
    fn reduces_correlation_but_less_than_decorrelator() {
        let (x, y) = correlated_pair(0.5, 0.5);
        assert!(scc(&x, &y) > 0.95);
        let mut tfm = TrackingForecastMemory::new(3);
        let (tx, ty) = tfm.process(&x, &y).unwrap();
        let tfm_scc = scc(&tx, &ty).abs();
        let mut deco = crate::Decorrelator::new(4);
        let (dx, dy) = deco.process(&x, &y).unwrap();
        let deco_scc = scc(&dx, &dy).abs();
        assert!(
            tfm_scc < 0.95,
            "tfm should reduce correlation, got {tfm_scc}"
        );
        assert!(
            deco_scc <= tfm_scc + 0.15,
            "decorrelator ({deco_scc}) should beat or match TFM ({tfm_scc})"
        );
    }

    #[test]
    fn output_value_roughly_tracks_input() {
        let (x, y) = correlated_pair(0.7, 0.3);
        let mut tfm = TrackingForecastMemory::new(2);
        let (ox, oy) = tfm.process(&x, &y).unwrap();
        // TFM bias is visibly larger than the FSM manipulators' (Table II),
        // but the value should still be in the right neighbourhood.
        assert!((ox.value() - 0.7).abs() < 0.2, "got {}", ox.value());
        assert!((oy.value() - 0.3).abs() < 0.2, "got {}", oy.value());
    }

    #[test]
    fn reset_restores_behaviour() {
        let (x, y) = correlated_pair(0.5, 0.5);
        let mut tfm = TrackingForecastMemory::new(3);
        let (a, _) = tfm.process(&x, &y).unwrap();
        tfm.reset();
        assert_eq!(tfm.estimates(), (0.5, 0.5));
        let (b, _) = tfm.process(&x, &y).unwrap();
        assert_eq!(a, b);
        assert!((tfm.beta() - 0.125).abs() < 1e-12);
        assert!(tfm.name().contains("tfm"));
    }

    #[test]
    #[should_panic(expected = "outside supported range")]
    fn zero_shift_panics() {
        let _ = TrackingForecastMemory::new(0);
    }

    proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]
        #[test]
        fn prop_outputs_stay_in_value_neighbourhood(kx in 8u64..=56, ky in 8u64..=56) {
            let (x, y) = correlated_pair(kx as f64 / 64.0, ky as f64 / 64.0);
            let mut tfm = TrackingForecastMemory::new(3);
            let (ox, oy) = tfm.process(&x, &y).unwrap();
            prop_assert!((ox.value() - x.value()).abs() < 0.25);
            prop_assert!((oy.value() - y.value()).abs() < 0.25);
        }
    }
}
