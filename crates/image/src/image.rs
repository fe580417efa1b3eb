//! Grayscale images and synthetic workload generation.

use std::fmt;

/// Errors raised by image operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ImageError {
    /// Two images of different dimensions were compared.
    DimensionMismatch {
        /// Dimensions of the left image.
        left: (usize, usize),
        /// Dimensions of the right image.
        right: (usize, usize),
    },
    /// A zero-sized image was requested.
    EmptyImage,
    /// The configured synchronizer save depth is outside
    /// [`sc_core::DEPTH_RANGE`].
    DepthOutOfRange {
        /// The configured depth.
        depth: u32,
    },
    /// The configured source bank is larger than
    /// [`crate::MAX_RNG_BANK_SIZE`], the number of distinct sources the
    /// bank assignment ([`crate::graph::pixel_bank_index`]) can use.
    BankSizeOutOfRange {
        /// The configured bank size.
        size: usize,
    },
}

impl fmt::Display for ImageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ImageError::DimensionMismatch { left, right } => write!(
                f,
                "image dimension mismatch: {}x{} vs {}x{}",
                left.0, left.1, right.0, right.1
            ),
            ImageError::EmptyImage => write!(f, "image dimensions must be non-zero"),
            ImageError::DepthOutOfRange { depth } => write!(
                f,
                "synchronizer save depth {depth} outside supported range {:?}",
                sc_core::DEPTH_RANGE
            ),
            ImageError::BankSizeOutOfRange { size } => write!(
                f,
                "source bank size {size} outside supported range 1..={}",
                crate::MAX_RNG_BANK_SIZE
            ),
        }
    }
}

impl std::error::Error for ImageError {}

/// A grayscale image with pixel intensities in `[0, 1]`, stored row-major.
#[derive(Debug, Clone, PartialEq)]
pub struct GrayImage {
    width: usize,
    height: usize,
    pixels: Vec<f64>,
}

impl GrayImage {
    /// Creates a constant-intensity image.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    #[must_use]
    pub fn filled(width: usize, height: usize, value: f64) -> Self {
        assert!(width > 0 && height > 0, "image dimensions must be non-zero");
        GrayImage {
            width,
            height,
            pixels: vec![value.clamp(0.0, 1.0); width * height],
        }
    }

    /// Creates an image where pixel `(x, y)` is `f(x, y)` clamped into `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    #[must_use]
    pub fn from_fn<F: FnMut(usize, usize) -> f64>(width: usize, height: usize, mut f: F) -> Self {
        assert!(width > 0 && height > 0, "image dimensions must be non-zero");
        let mut pixels = Vec::with_capacity(width * height);
        for y in 0..height {
            for x in 0..width {
                pixels.push(f(x, y).clamp(0.0, 1.0));
            }
        }
        GrayImage {
            width,
            height,
            pixels,
        }
    }

    /// A horizontal-plus-vertical intensity gradient.
    #[must_use]
    pub fn gradient(width: usize, height: usize) -> Self {
        Self::from_fn(width, height, |x, y| {
            (x as f64 / width.max(2) as f64 + y as f64 / height.max(2) as f64) / 2.0
        })
    }

    /// A checkerboard with the given square size (strong edges everywhere).
    #[must_use]
    pub fn checkerboard(width: usize, height: usize, square: usize) -> Self {
        let square = square.max(1);
        Self::from_fn(width, height, |x, y| {
            if (x / square + y / square).is_multiple_of(2) {
                0.85
            } else {
                0.15
            }
        })
    }

    /// A centred Gaussian intensity blob (smooth content, one soft edge ring).
    #[must_use]
    pub fn gaussian_blob(width: usize, height: usize) -> Self {
        let cx = (width as f64 - 1.0) / 2.0;
        let cy = (height as f64 - 1.0) / 2.0;
        let sigma = (width.min(height) as f64 / 4.0).max(1.0);
        Self::from_fn(width, height, |x, y| {
            let dx = x as f64 - cx;
            let dy = y as f64 - cy;
            (-(dx * dx + dy * dy) / (2.0 * sigma * sigma)).exp()
        })
    }

    /// A deterministic pseudo-random texture (reproducible across runs).
    #[must_use]
    pub fn noise(width: usize, height: usize, seed: u64) -> Self {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
        let mut next = move || {
            // xorshift64*
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64
        };
        Self::from_fn(width, height, |_, _| next())
    }

    /// Image width in pixels.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Image height in pixels.
    #[must_use]
    pub fn height(&self) -> usize {
        self.height
    }

    /// Total number of pixels.
    #[must_use]
    pub fn pixel_count(&self) -> usize {
        self.pixels.len()
    }

    /// Pixel intensity at `(x, y)`, with coordinates clamped to the image
    /// borders (replicate padding, as the tiled accelerator does at frame
    /// edges).
    #[must_use]
    pub fn get_clamped(&self, x: isize, y: isize) -> f64 {
        let x = x.clamp(0, self.width as isize - 1) as usize;
        let y = y.clamp(0, self.height as isize - 1) as usize;
        self.pixels[y * self.width + x]
    }

    /// Pixel intensity at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of bounds.
    #[must_use]
    pub fn get(&self, x: usize, y: usize) -> f64 {
        assert!(
            x < self.width && y < self.height,
            "pixel ({x}, {y}) out of bounds"
        );
        self.pixels[y * self.width + x]
    }

    /// Sets pixel `(x, y)` to `value` clamped into `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of bounds.
    pub fn set(&mut self, x: usize, y: usize, value: f64) {
        assert!(
            x < self.width && y < self.height,
            "pixel ({x}, {y}) out of bounds"
        );
        self.pixels[y * self.width + x] = value.clamp(0.0, 1.0);
    }

    /// Mean absolute per-pixel difference against another image of the same size.
    ///
    /// # Errors
    ///
    /// Returns [`ImageError::DimensionMismatch`] if the sizes differ.
    pub fn mean_abs_error(&self, other: &GrayImage) -> Result<f64, ImageError> {
        if self.width != other.width || self.height != other.height {
            return Err(ImageError::DimensionMismatch {
                left: (self.width, self.height),
                right: (other.width, other.height),
            });
        }
        let sum: f64 = self
            .pixels
            .iter()
            .zip(other.pixels.iter())
            .map(|(a, b)| (a - b).abs())
            .sum();
        Ok(sum / self.pixels.len() as f64)
    }

    /// Mean pixel intensity.
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.pixels.iter().sum::<f64>() / self.pixels.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn constructors_and_accessors() {
        let img = GrayImage::filled(4, 3, 0.5);
        assert_eq!(img.width(), 4);
        assert_eq!(img.height(), 3);
        assert_eq!(img.pixel_count(), 12);
        assert_eq!(img.get(3, 2), 0.5);
        assert_eq!(img.mean(), 0.5);

        let f = GrayImage::from_fn(3, 3, |x, y| (x + y) as f64);
        assert_eq!(f.get(2, 2), 1.0, "values are clamped to [0, 1]");
    }

    #[test]
    fn clamped_access_replicates_borders() {
        let img = GrayImage::gradient(5, 5);
        assert_eq!(img.get_clamped(-3, 0), img.get(0, 0));
        assert_eq!(img.get_clamped(10, 10), img.get(4, 4));
    }

    #[test]
    fn set_clamps_values() {
        let mut img = GrayImage::filled(2, 2, 0.0);
        img.set(0, 0, 1.7);
        img.set(1, 1, -0.3);
        assert_eq!(img.get(0, 0), 1.0);
        assert_eq!(img.get(1, 1), 0.0);
    }

    #[test]
    fn synthetic_images_have_expected_character() {
        let grad = GrayImage::gradient(16, 16);
        assert!(grad.get(15, 15) > grad.get(0, 0));

        let check = GrayImage::checkerboard(16, 16, 4);
        assert_ne!(check.get(0, 0), check.get(4, 0));

        let blob = GrayImage::gaussian_blob(17, 17);
        assert!(blob.get(8, 8) > blob.get(0, 0));
        assert!(blob.get(8, 8) > 0.9);

        let n1 = GrayImage::noise(16, 16, 1);
        let n2 = GrayImage::noise(16, 16, 1);
        let n3 = GrayImage::noise(16, 16, 2);
        assert_eq!(n1, n2, "same seed gives the same texture");
        assert_ne!(n1, n3, "different seeds differ");
        assert!(n1.mean() > 0.2 && n1.mean() < 0.8);
    }

    #[test]
    fn mean_abs_error_behaviour() {
        let a = GrayImage::filled(4, 4, 0.25);
        let b = GrayImage::filled(4, 4, 0.75);
        assert_eq!(a.mean_abs_error(&b).unwrap(), 0.5);
        assert_eq!(a.mean_abs_error(&a).unwrap(), 0.0);
        let c = GrayImage::filled(3, 4, 0.75);
        assert!(matches!(
            a.mean_abs_error(&c),
            Err(ImageError::DimensionMismatch { .. })
        ));
        assert!(!a.mean_abs_error(&c).unwrap_err().to_string().is_empty());
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_size_panics() {
        let _ = GrayImage::filled(0, 3, 0.5);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_get_panics() {
        let img = GrayImage::filled(2, 2, 0.5);
        let _ = img.get(2, 0);
    }

    proptest! {
        #[test]
        fn prop_pixels_always_in_unit_range(w in 1usize..12, h in 1usize..12, seed in 0u64..1000) {
            let img = GrayImage::noise(w, h, seed);
            for y in 0..h {
                for x in 0..w {
                    let v = img.get(x, y);
                    prop_assert!((0.0..=1.0).contains(&v));
                }
            }
        }

        #[test]
        fn prop_mae_symmetric(seed_a in 0u64..500, seed_b in 0u64..500) {
            let a = GrayImage::noise(8, 8, seed_a);
            let b = GrayImage::noise(8, 8, seed_b);
            let ab = a.mean_abs_error(&b).unwrap();
            let ba = b.mean_abs_error(&a).unwrap();
            prop_assert!((ab - ba).abs() < 1e-12);
        }
    }
}
