//! FSM-based stochastic functions (saturating up/down counter designs).
//!
//! Beyond the single-gate operations of Fig. 2, classical stochastic
//! computing realises non-linear functions with small saturating counters
//! (Brown & Card): the counter integrates `+1` for input 1s and `−1` for
//! input 0s, and the output bit is taken from the counter's upper half. The
//! resulting transfer functions — approximately `tanh` and a clamped linear
//! gain — are the standard activation functions of stochastic neural
//! networks, and are included here because they are downstream consumers of
//! exactly the correlation guarantees the paper's circuits provide (the FSM
//! state sequence, and therefore the output, is only meaningful when its
//! input stream is not pathologically bunched).
//!
//! Both operate on **bipolar** streams.

use sc_bitstream::Bitstream;

/// Stochastic `tanh`-like activation (Brown & Card `Stanh`): a saturating
/// counter with `2·half_states` states whose output is 1 while the counter is
/// in its upper half. Approximates `tanh(half_states · x / 2)` for a bipolar
/// input value `x`.
///
/// # Panics
///
/// Panics if `half_states` is 0 or greater than 2048.
///
/// # Example
///
/// ```
/// use sc_arith::fsm_ops::stanh;
/// use sc_bitstream::Bitstream;
///
/// // A strongly positive bipolar input saturates toward +1.
/// let x = Bitstream::from_fn(256, |i| i % 8 != 0); // value ~ +0.75 bipolar
/// let y = stanh(&x, 4);
/// assert!(y.bipolar_value() > 0.8);
/// ```
#[must_use]
pub fn stanh(input: &Bitstream, half_states: u32) -> Bitstream {
    assert!(
        (1..=2048).contains(&half_states),
        "stanh state count {half_states} outside supported range 1..=2048"
    );
    let max = i64::from(2 * half_states - 1);
    let mut state = i64::from(half_states); // start just above the midpoint
                                            // Data-dependent saturating counter: bit-stepped, but staged through
                                            // register-resident words instead of per-bit stream indexing.
    Bitstream::from_word_fn(input.len(), |w| {
        let word = input.as_words()[w];
        let valid = input.word_len(w);
        let mut out = 0u64;
        for i in 0..valid {
            out |= u64::from(state >= i64::from(half_states)) << i;
            state += if (word >> i) & 1 == 1 { 1 } else { -1 };
            state = state.clamp(0, max);
        }
        out
    })
}

/// Stochastic clamped linear gain (Brown & Card `Slinear`-style): a wider
/// saturating counter whose output is a re-randomised copy of the counter's
/// sign region, approximating `clamp(gain · x, -1, 1)` with `gain ≈ 1` for
/// small states. Implemented here in its simplest exponential-smoothing form:
/// the counter output is taken from a comparison against the mid-scale value,
/// so the transfer function is a steeper, clipped version of the identity.
///
/// # Panics
///
/// Panics if `states` is smaller than 2 or greater than 4096.
#[must_use]
pub fn slinear(input: &Bitstream, states: u32) -> Bitstream {
    assert!(
        (2..=4096).contains(&states),
        "slinear state count {states} outside supported range 2..=4096"
    );
    let max = i64::from(states - 1);
    let mut state = max / 2;
    let mut toggle = false;
    Bitstream::from_word_fn(input.len(), |w| {
        let word = input.as_words()[w];
        let valid = input.word_len(w);
        let mut out = 0u64;
        for i in 0..valid {
            // Output: upper half produces 1s, lower half 0s, with the middle
            // two states alternating to represent one half.
            let mid_low = max / 2;
            let mid_high = mid_low + 1;
            let bit = if state > mid_high {
                true
            } else if state < mid_low {
                false
            } else {
                toggle = !toggle;
                toggle
            };
            out |= u64::from(bit) << i;
            state += if (word >> i) & 1 == 1 { 1 } else { -1 };
            state = state.clamp(0, max);
        }
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use sc_bitstream::Probability;
    use sc_convert::DigitalToStochastic;
    use sc_rng::{Lfsr, VanDerCorput};

    const N: usize = 4096;

    fn bipolar_stream(value: f64) -> Bitstream {
        // Bipolar value v corresponds to unipolar probability (v + 1) / 2;
        // use an LFSR so the stream is well mixed (FSM ops need mixing).
        let p = Probability::saturating((value + 1.0) / 2.0);
        DigitalToStochastic::new(Lfsr::new(16, 0xACE1)).generate(p, N)
    }

    #[test]
    fn stanh_saturates_at_the_extremes() {
        let hi = stanh(&bipolar_stream(0.9), 4);
        let lo = stanh(&bipolar_stream(-0.9), 4);
        assert!(hi.bipolar_value() > 0.9, "got {}", hi.bipolar_value());
        assert!(lo.bipolar_value() < -0.9, "got {}", lo.bipolar_value());
    }

    #[test]
    fn stanh_is_near_zero_at_zero() {
        let mid = stanh(&bipolar_stream(0.0), 4);
        assert!(
            mid.bipolar_value().abs() < 0.15,
            "got {}",
            mid.bipolar_value()
        );
    }

    #[test]
    fn stanh_tracks_tanh_shape() {
        // Compare against tanh(k/2 * x) at a few points; the approximation is
        // coarse but must be monotone and within ~0.2 of the analytic curve.
        let k = 4u32;
        let mut last = -1.1;
        for &v in &[-0.8, -0.4, 0.0, 0.4, 0.8] {
            let out = stanh(&bipolar_stream(v), k).bipolar_value();
            let analytic = (f64::from(k) / 2.0 * v).tanh();
            assert!(
                (out - analytic).abs() < 0.2,
                "x={v}: {out} vs tanh {analytic}"
            );
            assert!(out > last, "monotonicity violated at x={v}");
            last = out;
        }
    }

    #[test]
    fn stanh_steepness_grows_with_state_count() {
        let shallow = stanh(&bipolar_stream(0.3), 2).bipolar_value();
        let steep = stanh(&bipolar_stream(0.3), 16).bipolar_value();
        assert!(
            steep >= shallow - 0.05,
            "steep {steep} vs shallow {shallow}"
        );
        assert!(steep > 0.7, "a 32-state FSM saturates quickly, got {steep}");
    }

    #[test]
    fn slinear_passes_sign_and_clamps() {
        let pos = slinear(&bipolar_stream(0.5), 32).bipolar_value();
        let neg = slinear(&bipolar_stream(-0.5), 32).bipolar_value();
        let sat = slinear(&bipolar_stream(0.95), 8).bipolar_value();
        assert!(pos > 0.2, "got {pos}");
        assert!(neg < -0.2, "got {neg}");
        assert!(sat > 0.85, "got {sat}");
    }

    #[test]
    fn fsm_ops_depend_on_bit_order_not_just_value() {
        // The same value presented as one long run behaves differently from a
        // well-mixed stream — the reason FSM-based SC needs decorrelated,
        // well-mixed inputs (and thus the paper's manipulating circuits).
        // Bipolar +0.5: a mixed stream saturates toward tanh(2·0.5) ≈ 0.76,
        // while a fully bunched stream degenerates toward the identity (0.5).
        let ones = 3 * N / 4;
        let bunched = Bitstream::from_fn(N, |i| i < ones);
        let mixed = bipolar_stream(0.5);
        let out_bunched = stanh(&bunched, 4).bipolar_value();
        let out_mixed = stanh(&mixed, 4).bipolar_value();
        assert!(
            out_mixed > 0.65,
            "mixed stream should saturate, got {out_mixed}"
        );
        assert!(
            out_mixed > out_bunched + 0.15,
            "bit order must matter: mixed {out_mixed} vs bunched {out_bunched}"
        );
    }

    #[test]
    #[should_panic(expected = "outside supported range")]
    fn stanh_zero_states_panics() {
        let _ = stanh(&Bitstream::zeros(8), 0);
    }

    #[test]
    #[should_panic(expected = "outside supported range")]
    fn slinear_one_state_panics() {
        let _ = slinear(&Bitstream::zeros(8), 1);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn prop_stanh_output_in_range_and_sign_consistent(k in 0u64..=32) {
            let v = k as f64 / 16.0 - 1.0;
            let p = Probability::saturating((v + 1.0) / 2.0);
            let stream = DigitalToStochastic::new(VanDerCorput::new()).generate(p, 2048);
            let out = stanh(&stream, 3).bipolar_value();
            prop_assert!((-1.0..=1.0).contains(&out));
            if v > 0.4 {
                prop_assert!(out > 0.0);
            }
            if v < -0.4 {
                prop_assert!(out < 0.0);
            }
        }
    }
}
