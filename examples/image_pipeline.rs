//! Image-processing pipeline demo: runs the Gaussian-blur → Roberts-cross
//! accelerator on a synthetic image in all three correlation-handling
//! variants and prints quality, area, and energy — a compact version of the
//! paper's Table IV case study.
//!
//! Run with `cargo run --release --example image_pipeline`.

use sc_image::pipeline::compare_variants;
use sc_image::tile_netlist;
use sc_repro::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A synthetic scene with both smooth regions and strong edges.
    let size = 20;
    let blob = GrayImage::gaussian_blob(size, size);
    let image = GrayImage::from_fn(size, size, |x, y| {
        let base = 0.55 * blob.get(x, y) + 0.25 * (y as f64 / size as f64);
        if x > 2 * size / 3 {
            (base + 0.3).min(1.0)
        } else {
            base
        }
    });

    let config = PipelineConfig {
        stream_length: 128,
        tile_size: 10,
        ..PipelineConfig::default()
    };
    println!(
        "GB + ED accelerator on a {size}x{size} synthetic image (N = {}, {}x{} tiles)\n",
        config.stream_length, config.tile_size, config.tile_size
    );

    let reference = run_float_pipeline(&image);
    println!(
        "floating-point reference edge energy (mean |gradient|): {:.4}\n",
        reference.mean()
    );

    let quality = compare_variants(&image, &config)?;
    // Hardware cost: each variant's compiled full-size tile, streamed over
    // every tile of a representative 100x100 frame.
    let frame_cycles = (100usize.div_ceil(config.tile_size).pow(2) * config.stream_length) as u64;
    let mut costs = Vec::new();
    for variant in PipelineVariant::all() {
        let netlist = tile_netlist(variant, &config)?;
        costs.push((netlist.area_um2(), netlist.energy_pj(frame_cycles) / 1000.0));
    }
    // `PipelineVariant::all()` order: no manipulation, regeneration,
    // synchronizer. The variants differ only in their correlation-manipulation
    // hardware, so that hardware's energy is the excess over the first.
    let [(_, none), (_, regen), (_, sync)] = [costs[0], costs[1], costs[2]];

    println!(
        "{:<22} {:>12} {:>14} {:>18} {:>22}",
        "variant", "abs error", "area (um2)", "energy (nJ/frame)", "manip. energy (nJ/frame)"
    );
    for (q, &(area, energy)) in quality.iter().zip(&costs) {
        println!(
            "{:<22} {:>12.4} {:>14.0} {:>18.0} {:>22.0}",
            q.variant.label(),
            q.mean_abs_error,
            area,
            energy,
            energy - none
        );
    }

    println!(
        "\nsynchronizer variant total-energy saving vs regeneration: {:.0}% (paper: 24%)",
        100.0 * (1.0 - sync / regen)
    );
    println!(
        "correlation-manipulation overhead ratio (regeneration / synchronizer): {:.1}x (paper: 3.0x)",
        (regen - none) / (sync - none)
    );
    Ok(())
}
