//! Roberts-cross edge detection: floating-point reference and stochastic
//! implementation.
//!
//! The Roberts cross operator approximates the gradient magnitude at pixel
//! `(x, y)` from the 2×2 neighbourhood as
//! `0.5·(|p(x,y) − p(x+1,y+1)| + |p(x,y+1) − p(x+1,y)|)` (the 0.5 scale keeps
//! the result in `[0, 1]`, matching the SC scaled adder). The stochastic
//! implementation uses two XOR subtractors feeding a MUX adder, and is only
//! accurate when each XOR's two input streams are **positively correlated** —
//! which is exactly what the paper's synchronizer (or the expensive
//! regeneration baseline) provides between the Gaussian-blur and
//! edge-detection kernels.

use crate::image::GrayImage;
use sc_bitstream::{Bitstream, Result};
use sc_rng::RandomSource;

/// Floating-point Roberts-cross edge detector with replicate border padding.
#[must_use]
pub fn roberts_cross_float(image: &GrayImage) -> GrayImage {
    GrayImage::from_fn(image.width(), image.height(), |x, y| {
        let (xi, yi) = (x as isize, y as isize);
        let a = image.get_clamped(xi, yi);
        let b = image.get_clamped(xi + 1, yi);
        let c = image.get_clamped(xi, yi + 1);
        let d = image.get_clamped(xi + 1, yi + 1);
        0.5 * ((a - d).abs() + (b - c).abs())
    })
}

/// Stochastic Roberts-cross kernel for one output pixel: two XOR subtractors
/// and a MUX scaled adder whose select bits come from `select_source`.
///
/// The caller is responsible for the correlation of `(a, d)` and `(b, c)`;
/// feeding uncorrelated streams reproduces the large errors of the
/// "no manipulation" accelerator variant.
///
/// # Errors
///
/// Returns a length-mismatch error if the four streams differ in length.
pub fn sc_edge_detector<S: RandomSource>(
    a: &Bitstream,
    b: &Bitstream,
    c: &Bitstream,
    d: &Bitstream,
    select_source: &mut S,
) -> Result<Bitstream> {
    let diag = a.try_xor(d)?;
    let anti = b.try_xor(c)?;
    // The select bits are packed a word at a time by `Bitstream::from_fn`;
    // the XORs and the MUX all run on the word-parallel combinators.
    let select = sc_arith::add::half_select_stream(select_source, diag.len());
    Bitstream::mux(&anti, &diag, &select)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_bitstream::Probability;
    use sc_convert::DigitalToStochastic;
    use sc_core::{CorrelationManipulator, Synchronizer};
    use sc_rng::{Halton, Lfsr, Sobol, VanDerCorput};

    #[test]
    fn float_edge_detector_finds_edges() {
        let img = GrayImage::checkerboard(12, 12, 4);
        let edges = roberts_cross_float(&img);
        // Inside a flat square the response is zero; across a boundary it is large.
        assert!(edges.get(1, 1) < 1e-9);
        assert!(edges.get(3, 1) > 0.3);
    }

    #[test]
    fn float_edge_detector_is_zero_on_constant_images() {
        let img = GrayImage::filled(6, 6, 0.7);
        let edges = roberts_cross_float(&img);
        assert!(edges.mean() < 1e-12);
    }

    #[test]
    fn sc_edge_detector_accurate_with_correlated_inputs() {
        let n = 2048;
        let values = [0.8, 0.35, 0.55, 0.2];
        // Generate all four streams from shared samples of one source so they
        // are maximally positively correlated.
        let streams: Vec<Bitstream> = {
            use sc_rng::RandomSource;
            let mut out = vec![Bitstream::zeros(n); 4];
            let mut source = VanDerCorput::new();
            for i in 0..n {
                let r = source.next_unit();
                for (k, v) in values.iter().enumerate() {
                    out[k].set(i, *v > r);
                }
            }
            out
        };
        let mut sel = Lfsr::new(16, 0x1D0D);
        let z =
            sc_edge_detector(&streams[0], &streams[1], &streams[2], &streams[3], &mut sel).unwrap();
        let [a, b, c, d] = values;
        let expected = 0.5 * ((a - d).abs() + (b - c).abs());
        assert!(
            (z.value() - expected).abs() < 0.05,
            "sc {} vs float {expected}",
            z.value()
        );
    }

    #[test]
    fn sc_edge_detector_wrong_with_uncorrelated_inputs_and_fixed_by_synchronizer() {
        let n = 2048;
        let values = [0.6, 0.6, 0.6, 0.6];
        // Four mutually uncorrelated streams: the true edge response is 0,
        // but uncorrelated XOR computes 2·p(1−p) ≈ 0.48 instead.
        let sources: [u32; 4] = [1, 3, 5, 7];
        let streams: Vec<Bitstream> = values
            .iter()
            .zip(sources.iter())
            .map(|(&v, &dim)| {
                let mut g = DigitalToStochastic::new(Sobol::new(dim));
                g.generate(Probability::new(v).unwrap(), n)
            })
            .collect();
        let mut sel = Lfsr::new(16, 0x42A7);
        let wrong =
            sc_edge_detector(&streams[0], &streams[1], &streams[2], &streams[3], &mut sel).unwrap();
        assert!(
            wrong.value() > 0.3,
            "uncorrelated inputs give a large spurious edge"
        );

        // Insert synchronizers in front of each XOR pair (the Fig. 5 idea as
        // used by the accelerator's synchronizer variant).
        let mut sync_ad = Synchronizer::new(1);
        let (a2, d2) = sync_ad.process(&streams[0], &streams[3]).unwrap();
        let mut sync_bc = Synchronizer::new(1);
        let (b2, c2) = sync_bc.process(&streams[1], &streams[2]).unwrap();
        let mut sel2 = Lfsr::new(16, 0x42A7);
        let fixed = sc_edge_detector(&a2, &b2, &c2, &d2, &mut sel2).unwrap();
        assert!(
            fixed.value() < 0.08,
            "synchronized inputs should give a near-zero edge, got {}",
            fixed.value()
        );
    }

    #[test]
    fn sc_edge_detector_rejects_length_mismatch() {
        let a = Bitstream::zeros(8);
        let b = Bitstream::zeros(9);
        let mut sel = Halton::new(3);
        assert!(sc_edge_detector(&a, &a, &a, &b, &mut sel).is_err());
        assert!(sc_edge_detector(&a, &b, &a, &a, &mut sel).is_err());
    }
}
