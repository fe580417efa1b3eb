//! Reproduces Table IV: quality, area, and energy of the Gaussian-blur →
//! Roberts-cross edge-detector accelerator in its three correlation-handling
//! variants (no manipulation, regeneration, synchronizer), plus the §IV.B
//! correlation-manipulation-overhead comparison and the synchronizer's
//! accuracy–energy frontier over its save depth.
//!
//! Area and energy are priced from each variant's compiled full-size tile
//! (`sc_image::tile_netlist`); a variant's manipulation energy is its energy
//! minus the no-manipulation variant's.
//!
//! The paper's input images are not published; a synthetic scene (Gaussian
//! blob over a gradient, plus a checkerboard patch) provides both smooth
//! regions and strong edges. Quality is the mean absolute error against the
//! floating-point pipeline on the same image. Pass `--quick` for a smaller
//! image and shorter streams (useful in debug builds).

use sc_bench::{cell, cell1, print_comparisons, print_table, Comparison};
use sc_image::{
    pipeline::compare_variants, run_float_pipeline, run_sc_pipeline, tile_netlist, GrayImage,
    PipelineConfig, PipelineVariant,
};

/// The representative frame the area / energy columns are priced on.
const FRAME: (usize, usize) = (100, 100);

/// Area (µm²) and energy per [`FRAME`] (nJ) of one variant: its compiled
/// full-size tile, streamed over every tile of the frame for `N` cycles each.
fn cost(variant: PipelineVariant, config: &PipelineConfig) -> (f64, f64) {
    let netlist = tile_netlist(variant, config).expect("valid config");
    let tiles = FRAME.0.div_ceil(config.tile_size) * FRAME.1.div_ceil(config.tile_size);
    let energy_pj = netlist.energy_pj((tiles * config.stream_length) as u64);
    (netlist.area_um2(), energy_pj / 1000.0)
}

fn synthetic_scene(size: usize) -> GrayImage {
    let blob = GrayImage::gaussian_blob(size, size);
    GrayImage::from_fn(size, size, |x, y| {
        let base = 0.5 * blob.get(x, y) + 0.3 * (x as f64 / size as f64);
        // A checkerboard patch in one corner adds hard edges.
        if x < size / 3 && y < size / 3 && (x / 3 + y / 3) % 2 == 0 {
            (base + 0.4).min(1.0)
        } else {
            base
        }
    })
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (image_size, config) = if quick {
        (
            12,
            PipelineConfig {
                stream_length: 64,
                tile_size: 6,
                ..PipelineConfig::default()
            },
        )
    } else {
        (30, PipelineConfig::default())
    };
    let image = synthetic_scene(image_size);
    println!(
        "Table IV — GB + ED accelerator ({}x{} synthetic image, N = {}, {}x{} tiles)",
        image_size, image_size, config.stream_length, config.tile_size, config.tile_size
    );

    // Quality column.
    let quality = compare_variants(&image, &config).expect("pipeline run");
    let err = |v: PipelineVariant| {
        quality
            .iter()
            .find(|q| q.variant == v)
            .expect("quality")
            .mean_abs_error
    };
    // Area / energy columns, in `PipelineVariant::all()` order.
    let costs = PipelineVariant::all().map(|v| cost(v, &config));
    let [(_, none_energy), (_, regen_energy), (_, sync_energy)] = costs;

    let paper = |variant: PipelineVariant| -> (f64, f64, f64) {
        match variant {
            PipelineVariant::NoManipulation => (24313.0, 1383.0, 0.076),
            PipelineVariant::Regeneration => (34802.0, 1971.0, 0.019),
            PipelineVariant::Synchronizer => (36202.0, 1505.0, 0.020),
        }
    };

    // Our absolute energy scale differs from the paper's by a constant factor
    // (the effective cycle time is calibrated against the per-operation energy
    // of Table III, not against Table IV); report both the raw model output
    // and the values normalised so the no-manipulation baseline matches the
    // paper's 1383 nJ/frame, which makes the ratios directly comparable.
    let normalise = 1383.0 / none_energy;

    let rows: Vec<Vec<String>> = PipelineVariant::all()
        .into_iter()
        .zip(costs)
        .map(|(variant, (area, energy))| {
            let (p_area, p_energy, p_err) = paper(variant);
            vec![
                variant.label().to_string(),
                cell1(p_area),
                cell1(area),
                cell1(p_energy),
                cell1(energy * normalise),
                cell(p_err),
                cell(err(variant)),
            ]
        })
        .collect();
    print_table(
        "Table IV (paper vs measured; energy normalised to the paper's no-manipulation baseline)",
        &[
            "design",
            "area p. (um2)",
            "area ours",
            "energy p. (nJ/frame)",
            "energy ours (norm.)",
            "abs err p.",
            "abs err ours",
        ],
        &rows,
    );
    println!(
        "(raw model energies before normalisation: {} nJ/frame for the baseline)",
        cell1(none_energy)
    );

    print_comparisons(
        "Headline claims (Sec. IV.B)",
        &[
            Comparison::new(
                "total energy saving of synchronizer vs regeneration",
                0.24,
                1.0 - sync_energy / regen_energy,
            ),
            Comparison::new(
                "manipulation-overhead energy ratio (regen / sync)",
                3.0,
                (regen_energy - none_energy) / (sync_energy - none_energy),
            ),
            Comparison::new(
                "error ratio: no-manipulation / synchronizer",
                0.076 / 0.020,
                err(PipelineVariant::NoManipulation) / err(PipelineVariant::Synchronizer).max(1e-9),
            ),
            Comparison::new(
                "error gap: |regeneration - synchronizer|",
                0.001,
                (err(PipelineVariant::Regeneration) - err(PipelineVariant::Synchronizer)).abs(),
            ),
        ],
    );

    // The paper's headline pairs regeneration's accuracy with the
    // synchronizer's energy; here that depends on the save depth D.
    let regen_err = err(PipelineVariant::Regeneration);
    let reference = run_float_pipeline(&image);
    let mut rows = vec![vec![
        PipelineVariant::Regeneration.label().to_string(),
        "-".to_string(),
        cell(regen_err),
        cell1(regen_energy),
        "-".to_string(),
    ]];
    let mut matching_depth = None;
    for depth in [1, 2, 4, 8] {
        let config = PipelineConfig {
            synchronizer_depth: depth,
            ..config.clone()
        };
        let error = run_sc_pipeline(&image, PipelineVariant::Synchronizer, &config)
            .expect("pipeline run")
            .mean_abs_error(&reference)
            .expect("same-size images");
        let (_, energy) = cost(PipelineVariant::Synchronizer, &config);
        let saving = 1.0 - energy / regen_energy;
        if matching_depth.is_none() && error <= 1.1 * regen_err {
            matching_depth = Some((depth, saving));
        }
        rows.push(vec![
            PipelineVariant::Synchronizer.label().to_string(),
            depth.to_string(),
            cell(error),
            cell1(energy),
            format!("{:.1}%", 100.0 * saving),
        ]);
    }
    print_table(
        "Synchronizer save depth: accuracy vs raw model energy",
        &[
            "design",
            "D",
            "abs err",
            "energy (nJ/frame)",
            "saving vs regen",
        ],
        &rows,
    );
    match matching_depth {
        Some((depth, saving)) => println!(
            "smallest D with error within 10% of regeneration's: D = {depth} \
             ({:.1}% less energy than regeneration; default D = {})",
            100.0 * saving,
            PipelineConfig::default().synchronizer_depth
        ),
        None => println!("no D in {{1, 2, 4, 8}} brings the error within 10% of regeneration's"),
    }
}
