//! SC maximum and minimum.
//!
//! * **OR max / AND min** — single gates that are exact only when the inputs
//!   are maximally positively correlated; with imperfect correlation the OR
//!   output overshoots (`pZ ≥ max`) and the AND output undershoots
//!   (`pZ ≤ min`). These are the cheap baselines of Table III.
//! * **Correlation-agnostic max** (SC-DCNN, reference \[12\]) — running
//!   counters track how many 1s each input has produced so far and the output
//!   emits a 1 exactly when the running maximum of the two counts advances.
//!   Accurate regardless of correlation but requires counters and a
//!   comparator, which is why the paper measures it as two orders of
//!   magnitude larger than a bare OR gate.
//!
//! The paper's *synchronizer-based* max/min (smaller than the
//! correlation-agnostic design, nearly as accurate) live in `sc-core::ops`.

use sc_bitstream::{Bitstream, Error, Result};

/// SC maximum via a single OR gate (requires positively correlated inputs).
///
/// # Errors
///
/// Returns a length-mismatch error if the streams differ in length.
///
/// # Example
///
/// ```
/// use sc_arith::maxmin::or_max;
/// use sc_bitstream::Bitstream;
///
/// let x = Bitstream::parse("11110000")?; // 0.5, positively correlated with y
/// let y = Bitstream::parse("11000000")?; // 0.25
/// assert_eq!(or_max(&x, &y)?.value(), 0.5);
/// # Ok::<(), sc_bitstream::Error>(())
/// ```
pub fn or_max(x: &Bitstream, y: &Bitstream) -> Result<Bitstream> {
    // Word-parallel: one OR per 64 stream bits via the bulk combinators.
    x.try_or(y)
}

/// SC minimum via a single AND gate (requires positively correlated inputs).
///
/// # Errors
///
/// Returns a length-mismatch error if the streams differ in length.
pub fn and_min(x: &Bitstream, y: &Bitstream) -> Result<Bitstream> {
    x.try_and(y)
}

/// Correlation-agnostic SC maximum (SC-DCNN-style counters + comparator).
///
/// Counters accumulate the 1s of each input; the output emits a 1 whenever
/// `max(countX, countY)` advances, so after `N` cycles the output carries
/// exactly `max(countX, countY)` ones independent of input correlation.
///
/// # Errors
///
/// Returns a length-mismatch error if the streams differ in length.
pub fn ca_max(x: &Bitstream, y: &Bitstream) -> Result<Bitstream> {
    if x.len() != y.len() {
        return Err(Error::LengthMismatch {
            left: x.len(),
            right: y.len(),
        });
    }
    // The counters are data-dependent, but the stream bits are staged through
    // register-resident words: one load/store per 64 cycles.
    let (mut cx, mut cy, mut co) = (0u64, 0u64, 0u64);
    let out = Bitstream::from_word_fn(x.len(), |w| {
        let (xw, yw) = (x.as_words()[w], y.as_words()[w]);
        let valid = x.word_len(w);
        let mut out = 0u64;
        for i in 0..valid {
            cx += (xw >> i) & 1;
            cy += (yw >> i) & 1;
            let target = cx.max(cy);
            out |= u64::from(target > co) << i;
            co = target;
        }
        out
    });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use sc_bitstream::{scc, Probability};
    use sc_convert::DigitalToStochastic;
    use sc_rng::{Halton, VanDerCorput};

    const N: usize = 256;

    fn correlated_pair(px: f64, py: f64) -> (Bitstream, Bitstream) {
        let mut g = DigitalToStochastic::new(VanDerCorput::new());
        g.generate_correlated_pair(
            Probability::new(px).unwrap(),
            Probability::new(py).unwrap(),
            N,
        )
    }

    fn uncorrelated_pair(px: f64, py: f64) -> (Bitstream, Bitstream) {
        let mut gx = DigitalToStochastic::new(VanDerCorput::new());
        let mut gy = DigitalToStochastic::new(Halton::new(3));
        (
            gx.generate(Probability::new(px).unwrap(), N),
            gy.generate(Probability::new(py).unwrap(), N),
        )
    }

    #[test]
    fn or_max_exact_with_positive_correlation() {
        let (x, y) = correlated_pair(0.5, 0.75);
        assert!(scc(&x, &y) > 0.95);
        let z = or_max(&x, &y).unwrap();
        assert!((z.value() - 0.75).abs() < 0.02);
    }

    #[test]
    fn or_max_overshoots_with_uncorrelated_inputs() {
        // This is the 0.087 average error row of Table III: with uncorrelated
        // inputs the OR computes pX + pY - pX·pY, always >= max.
        let (x, y) = uncorrelated_pair(0.5, 0.75);
        let z = or_max(&x, &y).unwrap();
        assert!(z.value() >= 0.75);
        assert!((z.value() - 0.875).abs() < 0.05, "got {}", z.value());
    }

    #[test]
    fn and_min_exact_with_positive_correlation() {
        let (x, y) = correlated_pair(0.5, 0.75);
        let z = and_min(&x, &y).unwrap();
        assert!((z.value() - 0.5).abs() < 0.02);
    }

    #[test]
    fn and_min_undershoots_with_uncorrelated_inputs() {
        let (x, y) = uncorrelated_pair(0.5, 0.75);
        let z = and_min(&x, &y).unwrap();
        assert!(z.value() <= 0.5);
        assert!((z.value() - 0.375).abs() < 0.05);
    }

    #[test]
    fn ca_max_accurate_for_any_correlation() {
        for &(px, py) in &[(0.5, 0.75), (0.9, 0.1), (0.3, 0.3), (0.0, 0.6), (1.0, 0.2)] {
            let (xu, yu) = uncorrelated_pair(px, py);
            let zu = ca_max(&xu, &yu).unwrap();
            assert!(
                (zu.value() - px.max(py)).abs() < 0.03,
                "uncorrelated px={px} py={py}: {}",
                zu.value()
            );
            let (xc, yc) = correlated_pair(px, py);
            let zc = ca_max(&xc, &yc).unwrap();
            assert!(
                (zc.value() - px.max(py)).abs() < 0.03,
                "correlated px={px} py={py}: {}",
                zc.value()
            );
        }
    }

    #[test]
    fn length_mismatch_errors() {
        let a = Bitstream::zeros(8);
        let b = Bitstream::zeros(9);
        assert!(or_max(&a, &b).is_err());
        assert!(and_min(&a, &b).is_err());
        assert!(ca_max(&a, &b).is_err());
    }

    proptest! {
        #[test]
        fn prop_or_max_always_upper_bounds_true_max(kx in 0u64..=64, ky in 0u64..=64) {
            let (x, y) = uncorrelated_pair(kx as f64 / 64.0, ky as f64 / 64.0);
            let z = or_max(&x, &y).unwrap();
            prop_assert!(z.value() + 1e-12 >= x.value().max(y.value()));
        }

        #[test]
        fn prop_and_min_always_lower_bounds_true_min(kx in 0u64..=64, ky in 0u64..=64) {
            let (x, y) = uncorrelated_pair(kx as f64 / 64.0, ky as f64 / 64.0);
            let z = and_min(&x, &y).unwrap();
            prop_assert!(z.value() <= x.value().min(y.value()) + 1e-12);
        }

        #[test]
        fn prop_ca_max_error_small(kx in 0u64..=64, ky in 0u64..=64) {
            let px = kx as f64 / 64.0;
            let py = ky as f64 / 64.0;
            let (x, y) = uncorrelated_pair(px, py);
            let z = ca_max(&x, &y).unwrap();
            prop_assert!((z.value() - px.max(py)).abs() < 0.05);
        }
    }
}
