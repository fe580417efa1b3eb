//! Golden output bits of the compiled GB→ED pipeline.
//!
//! Every output pixel's `f64::to_bits()` is folded into one FNV-1a hash per
//! (image, variant). The pinned hashes were captured before
//! the compiler was cut to validate → scc-infer → repair → emit, so any
//! change to the compiler that moves a single output bit fails here.

use sc_image::{run_sc_pipeline, GrayImage, PipelineConfig, PipelineVariant};

/// FNV-1a over the little-endian bytes of every pixel's bit pattern, in
/// raster order.
fn output_hash(image: &GrayImage) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    for y in 0..image.height() {
        for x in 0..image.width() {
            for byte in image.get(x, y).to_bits().to_le_bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    hash
}

/// A ragged and an aligned scene with edges, gradients and noise.
fn scene(width: usize, height: usize) -> GrayImage {
    let blob = GrayImage::gaussian_blob(width, height);
    let noise = GrayImage::noise(width, height, 11);
    GrayImage::from_fn(width, height, |x, y| {
        let base = 0.5 * blob.get(x, y) + 0.2 * noise.get(x, y) + 0.25 * (y as f64 / height as f64);
        if x >= width / 2 {
            (base + 0.3).min(1.0)
        } else {
            base
        }
    })
}

fn hashes() -> Vec<(String, u64)> {
    let config = PipelineConfig::default();
    let mut out = Vec::new();
    for (width, height) in [(33, 27), (40, 40)] {
        let image = scene(width, height);
        for variant in PipelineVariant::all() {
            let result = run_sc_pipeline(&image, variant, &config).expect("pipeline runs");
            out.push((
                format!("{width}x{height} {variant:?}"),
                output_hash(&result),
            ));
        }
    }
    out
}

fn check(expected: &[(&str, u64)]) {
    let got = hashes();
    let got: Vec<(&str, u64)> = got.iter().map(|(k, h)| (k.as_str(), *h)).collect();
    assert_eq!(got, expected, "output bits moved");
}

#[test]
fn structural_planner_output_bits_are_pinned() {
    check(&[
        ("33x27 NoManipulation", 0xbe84_fa96_fe43_4e0e),
        ("33x27 Regeneration", 0x9323_dbef_5378_9b64),
        ("33x27 Synchronizer", 0x76b1_43d3_742a_bec0),
        ("40x40 NoManipulation", 0xd477_f4d8_dbf8_313b),
        ("40x40 Regeneration", 0xc824_eb18_c6dc_ab18),
        ("40x40 Synchronizer", 0xdab5_c4a7_1cd8_3eee),
    ]);
}
