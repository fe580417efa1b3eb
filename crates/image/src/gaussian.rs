//! Gaussian blur: floating-point reference and stochastic implementation.
//!
//! The 3×3 Gaussian kernel `[1 2 1; 2 4 2; 1 2 1] / 16` is the first stage of
//! the §IV pipeline. The stochastic implementation follows the scaled-addition
//! approach of Alaghi et al. (DAC 2013): a weighted multiplexer samples one of
//! the nine neighbour streams each cycle with probability equal to its kernel
//! weight, so the output stream's value is the weighted average. The select
//! distribution is drawn from a dedicated source that must be uncorrelated
//! with the pixel streams.

use crate::image::GrayImage;
use sc_bitstream::Bitstream;
use sc_rng::RandomSource;

/// The 3×3 Gaussian kernel weights in row-major order, summing to 1.
pub const GAUSSIAN_WEIGHTS: [f64; 9] = [
    1.0 / 16.0,
    2.0 / 16.0,
    1.0 / 16.0,
    2.0 / 16.0,
    4.0 / 16.0,
    2.0 / 16.0,
    1.0 / 16.0,
    2.0 / 16.0,
    1.0 / 16.0,
];

/// Floating-point 3×3 Gaussian blur with replicate border padding.
#[must_use]
pub fn gaussian_blur_float(image: &GrayImage) -> GrayImage {
    GrayImage::from_fn(image.width(), image.height(), |x, y| {
        let mut acc = 0.0;
        let mut w = 0;
        for dy in -1..=1isize {
            for dx in -1..=1isize {
                acc += GAUSSIAN_WEIGHTS[w] * image.get_clamped(x as isize + dx, y as isize + dy);
                w += 1;
            }
        }
        acc
    })
}

/// Stochastic 3×3 Gaussian blur kernel: a weighted multiplexer tree.
///
/// # Example
///
/// ```
/// use sc_image::ScGaussianBlur;
/// use sc_rng::Lfsr;
/// use sc_bitstream::Bitstream;
///
/// let streams: Vec<Bitstream> =
///     (0..9).map(|i| Bitstream::from_fn(256, move |t| (t + i) % 2 == 0)).collect();
/// let mut blur = ScGaussianBlur::new(Lfsr::new(16, 0xACE1));
/// let out = blur.apply(&streams.iter().collect::<Vec<_>>());
/// assert_eq!(out.len(), 256);
/// ```
#[derive(Debug, Clone)]
pub struct ScGaussianBlur<S> {
    select_source: S,
}

impl<S: RandomSource> ScGaussianBlur<S> {
    /// Creates the kernel with a dedicated select source (must be
    /// uncorrelated with the pixel streams).
    #[must_use]
    pub fn new(select_source: S) -> Self {
        ScGaussianBlur { select_source }
    }

    /// Applies the kernel to nine equal-length neighbour streams in row-major
    /// order, returning the blurred output stream.
    ///
    /// The selection sequence is data-independent, so the gather runs
    /// word-parallel: per 64 cycles, one selection *mask* is built for each
    /// neighbour and the output word is nine AND-OR operations over the
    /// neighbours' packed words — the streams themselves are never read bit
    /// by bit.
    ///
    /// # Panics
    ///
    /// Panics if fewer than nine streams are supplied or their lengths differ.
    #[must_use]
    pub fn apply(&mut self, neighbours: &[&Bitstream]) -> Bitstream {
        assert_eq!(
            neighbours.len(),
            9,
            "gaussian blur needs exactly 9 neighbour streams"
        );
        let n = neighbours[0].len();
        for s in neighbours {
            assert_eq!(s.len(), n, "neighbour stream length mismatch");
        }
        Bitstream::from_word_fn(n, |w| {
            let valid = neighbours[0].word_len(w);
            let mut masks = [0u64; 9];
            for i in 0..valid {
                let mut u = self.select_source.next_unit();
                let mut selected = 8;
                for (idx, weight) in GAUSSIAN_WEIGHTS.iter().enumerate() {
                    if u < *weight {
                        selected = idx;
                        break;
                    }
                    u -= weight;
                }
                masks[selected] |= 1u64 << i;
            }
            masks.iter().enumerate().fold(0u64, |out, (k, &mask)| {
                out | (neighbours[k].as_words()[w] & mask)
            })
        })
    }

    /// Resets the select source.
    pub fn reset(&mut self) {
        self.select_source.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_bitstream::Probability;
    use sc_convert::DigitalToStochastic;
    use sc_rng::{Halton, Lfsr, Sobol};

    #[test]
    fn weights_sum_to_one() {
        let sum: f64 = GAUSSIAN_WEIGHTS.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert_eq!(GAUSSIAN_WEIGHTS[4], 0.25, "centre weight is 4/16");
    }

    #[test]
    fn float_blur_preserves_constant_images() {
        let img = GrayImage::filled(8, 8, 0.4);
        let blurred = gaussian_blur_float(&img);
        for y in 0..8 {
            for x in 0..8 {
                assert!((blurred.get(x, y) - 0.4).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn float_blur_smooths_edges() {
        let img = GrayImage::checkerboard(12, 12, 3);
        let blurred = gaussian_blur_float(&img);
        // Blur reduces the dynamic range around edges.
        let orig_contrast = (img.get(2, 2) - img.get(3, 2)).abs();
        let blur_contrast = (blurred.get(2, 2) - blurred.get(3, 2)).abs();
        assert!(blur_contrast < orig_contrast);
    }

    #[test]
    fn sc_blur_matches_float_blur_on_uncorrelated_streams() {
        let n = 2048;
        // Nine neighbour values.
        let values = [0.1, 0.3, 0.5, 0.2, 0.8, 0.4, 0.6, 0.9, 0.7];
        let streams: Vec<Bitstream> = values
            .iter()
            .enumerate()
            .map(|(i, &v)| {
                let mut g = DigitalToStochastic::new(Sobol::new(1 + (i as u32 % 8)));
                g.generate(Probability::new(v).unwrap(), n)
            })
            .collect();
        let refs: Vec<&Bitstream> = streams.iter().collect();
        let mut blur = ScGaussianBlur::new(Lfsr::new(16, 0x1D0D));
        let out = blur.apply(&refs);
        let expected: f64 = values
            .iter()
            .zip(GAUSSIAN_WEIGHTS)
            .map(|(v, w)| v * w)
            .sum();
        assert!(
            (out.value() - expected).abs() < 0.04,
            "sc {} vs float {expected}",
            out.value()
        );
    }

    #[test]
    fn sc_blur_reset_reproduces() {
        let n = 256;
        let streams: Vec<Bitstream> = (0..9)
            .map(|i| {
                let mut g = DigitalToStochastic::new(Halton::new(3 + (i % 4) as u32 * 2));
                g.generate(Probability::new(0.5).unwrap(), n)
            })
            .collect();
        let refs: Vec<&Bitstream> = streams.iter().collect();
        let mut blur = ScGaussianBlur::new(Lfsr::new(16, 0x7331));
        let a = blur.apply(&refs);
        blur.reset();
        let b = blur.apply(&refs);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "exactly 9")]
    fn wrong_neighbour_count_panics() {
        let s = Bitstream::zeros(8);
        let mut blur = ScGaussianBlur::new(Lfsr::new(8, 1));
        let _ = blur.apply(&[&s, &s, &s]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let a = Bitstream::zeros(8);
        let b = Bitstream::zeros(9);
        let mut blur = ScGaussianBlur::new(Lfsr::new(8, 1));
        let _ = blur.apply(&[&a, &a, &a, &a, &b, &a, &a, &a, &a]);
    }
}
