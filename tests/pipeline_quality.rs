//! Integration tests for the Table IV image-processing case study: quality
//! ordering of the accelerator variants, hardware cost ordering, and the
//! §IV.B energy-overhead claim, at reduced scale so the suite stays fast.

use sc_image::pipeline::compare_variants;
use sc_image::{tile_netlist, ImageError, ImageServer};
use sc_repro::prelude::*;

fn scene() -> GrayImage {
    let blob = GrayImage::gaussian_blob(12, 12);
    GrayImage::from_fn(12, 12, |x, y| {
        let base = 0.55 * blob.get(x, y) + 0.3 * (y as f64 / 12.0);
        if x >= 8 {
            (base + 0.35).min(1.0)
        } else {
            base
        }
    })
}

fn quick_config() -> PipelineConfig {
    // Depth 4 synchronizers: at the reduced stream length used here the
    // Gaussian-blur outputs carry runs that a shallower FSM cannot fully pair
    // (see the ablation_depth experiment).
    PipelineConfig {
        stream_length: 128,
        tile_size: 6,
        synchronizer_depth: 4,
        ..PipelineConfig::default()
    }
}

#[test]
fn quality_ordering_matches_table4() {
    let results = compare_variants(&scene(), &quick_config()).expect("pipeline runs");
    let err = |v: PipelineVariant| {
        results
            .iter()
            .find(|r| r.variant == v)
            .expect("variant present")
            .mean_abs_error
    };
    let none = err(PipelineVariant::NoManipulation);
    let regen = err(PipelineVariant::Regeneration);
    let sync = err(PipelineVariant::Synchronizer);
    // Paper: 0.076 vs 0.019 vs 0.020 — no-manipulation several times worse,
    // regeneration and synchronizer within noise of each other.
    assert!(none > 2.5 * regen, "none {none:.3} vs regen {regen:.3}");
    assert!(none > 2.5 * sync, "none {none:.3} vs sync {sync:.3}");
    assert!(
        (regen - sync).abs() < 0.04,
        "regen {regen:.3} vs sync {sync:.3}"
    );
    assert!(sync < 0.08);
}

#[test]
fn quality_ordering_holds_on_different_content() {
    // Same ordering on a pure-noise image: the claim is content-independent.
    let image = GrayImage::noise(12, 12, 7);
    let results = compare_variants(&image, &quick_config()).expect("pipeline runs");
    let err = |v: PipelineVariant| {
        results
            .iter()
            .find(|r| r.variant == v)
            .expect("variant present")
            .mean_abs_error
    };
    assert!(err(PipelineVariant::NoManipulation) > 1.5 * err(PipelineVariant::Synchronizer));
    assert!(err(PipelineVariant::NoManipulation) > 1.5 * err(PipelineVariant::Regeneration));
}

/// One variant's Table IV cost columns on one frame.
struct Cost {
    area_um2: f64,
    energy_nj: f64,
    manipulation_nj: f64,
}

/// Prices every variant (in [`PipelineVariant::all`] order) from its
/// compiled full-size tile: energy integrates the tile netlist over the
/// frame's `⌈w/t⌉·⌈h/t⌉·N` cycles, and manipulation energy is the excess over
/// the no-manipulation variant.
fn table4_costs(config: &PipelineConfig, width: usize, height: usize) -> Vec<Cost> {
    let t = config.tile_size;
    let cycles = (width.div_ceil(t) * height.div_ceil(t) * config.stream_length) as u64;
    let netlists = PipelineVariant::all().map(|v| tile_netlist(v, config).expect("valid config"));
    let baseline_nj = netlists[0].energy_pj(cycles) / 1000.0;
    netlists
        .iter()
        .map(|net| {
            let energy_nj = net.energy_pj(cycles) / 1000.0;
            Cost {
                area_um2: net.area_um2(),
                energy_nj,
                manipulation_nj: energy_nj - baseline_nj,
            }
        })
        .collect()
}

#[test]
fn energy_and_area_ordering_matches_table4() {
    let costs = table4_costs(&PipelineConfig::default(), 100, 100);
    let [none, regen, sync] = [&costs[0], &costs[1], &costs[2]];

    // Table IV: the no-manipulation accelerator is 24313 µm²; the abstract
    // cell library lands within a factor of ~1.5 of that.
    assert!(
        none.area_um2 > 12_000.0 && none.area_um2 < 40_000.0,
        "baseline area {}",
        none.area_um2
    );

    // Area: both manipulation variants add hardware over the baseline, less
    // than doubling it (Table IV: 25-60% overhead).
    assert!(none.area_um2 < regen.area_um2 && regen.area_um2 < 2.0 * none.area_um2);
    assert!(none.area_um2 < sync.area_um2 && sync.area_um2 < 2.0 * none.area_um2);

    // Energy: none < sync < regen, with a double-digit percentage saving of
    // sync over regen (24% in the paper) that stays in a plausible range.
    assert!(none.energy_nj < sync.energy_nj);
    assert!(sync.energy_nj < regen.energy_nj);
    let saving = 1.0 - sync.energy_nj / regen.energy_nj;
    assert!(saving > 0.1 && saving < 0.6, "saving {saving:.2}");

    // Manipulation-only overhead: regeneration pays at least ~2x more
    // (3.0x in the paper).
    assert!(regen.manipulation_nj > 2.0 * sync.manipulation_nj);
    assert_eq!(none.manipulation_nj, 0.0);

    // Energy is per frame, area per accelerator.
    let small = table4_costs(&PipelineConfig::default(), 50, 50);
    assert!(sync.energy_nj > 3.0 * small[2].energy_nj);
    assert_eq!(sync.area_um2, small[2].area_um2);
}

/// Table IV's cost columns at the default config (N = 256, 10×10 tiles,
/// D = 2) on a 100×100 frame, in NoManipulation / Regeneration /
/// Synchronizer order.
#[test]
fn table4_costs_are_pinned() {
    const AREA_UM2: [f64; 3] = [23_559.36, 40_831.04, 36_087.36];
    const ENERGY_NJ: [f64; 3] = [220_024.012_8, 395_834.982_4, 294_685.900_8];
    const MANIPULATION_NJ: [f64; 3] = [0.0, 175_810.969_6, 74_661.888];
    let close = |got: f64, want: f64| (got - want).abs() <= 1e-9 * want.abs();
    let costs = table4_costs(&PipelineConfig::default(), 100, 100);
    for (i, c) in costs.iter().enumerate() {
        assert!(close(c.area_um2, AREA_UM2[i]), "{i}: area {}", c.area_um2);
        assert!(
            close(c.energy_nj, ENERGY_NJ[i]),
            "{i}: energy {}",
            c.energy_nj
        );
        assert!(
            close(c.manipulation_nj, MANIPULATION_NJ[i]),
            "{i}: manipulation {}",
            c.manipulation_nj
        );
    }
}

#[test]
fn float_reference_is_reproducible_and_sane() {
    let image = scene();
    let a = run_float_pipeline(&image);
    let b = run_float_pipeline(&image);
    assert_eq!(a, b);
    // Edge energy concentrates around the step edge at x = 8.
    let edge_column: f64 = (0..12).map(|y| a.get(7, y)).sum::<f64>() / 12.0;
    let flat_column: f64 = (0..12).map(|y| a.get(2, y)).sum::<f64>() / 12.0;
    assert!(edge_column > flat_column);
}

#[test]
fn sc_pipeline_tracks_reference_on_flat_images() {
    // A constant image has no edges; every variant should report near-zero
    // edge energy (XOR of equal-valued correlated streams).
    let image = GrayImage::filled(12, 12, 0.5);
    let config = quick_config();
    let reference = run_float_pipeline(&image);
    assert!(reference.mean() < 1e-12);
    for variant in [PipelineVariant::Regeneration, PipelineVariant::Synchronizer] {
        let out = run_sc_pipeline(&image, variant, &config).expect("pipeline runs");
        assert!(
            out.mean() < 0.06,
            "{variant:?} should report a nearly edge-free image, got mean {}",
            out.mean()
        );
    }
}

#[test]
fn out_of_range_synchronizer_depth_is_an_error_not_a_panic() {
    for depth in [0, 4097] {
        let config = PipelineConfig {
            synchronizer_depth: depth,
            ..quick_config()
        };
        let err = run_sc_pipeline(&scene(), PipelineVariant::Synchronizer, &config)
            .expect_err("unsupported depth must be rejected");
        assert!(err.to_string().contains("outside supported range"), "{err}");
        let server = ImageServer::start(PipelineVariant::Synchronizer, config);
        assert!(server.is_err(), "server must refuse depth {depth}");
    }
}

#[test]
fn source_bank_above_eight_is_an_error_not_a_clamp() {
    for size in [9, 16] {
        let config = PipelineConfig {
            rng_bank_size: size,
            ..quick_config()
        };
        let err = run_sc_pipeline(&scene(), PipelineVariant::Synchronizer, &config)
            .expect_err("an oversized source bank must be rejected");
        assert_eq!(err, ImageError::BankSizeOutOfRange { size });
        let server = ImageServer::start(PipelineVariant::Synchronizer, config.clone());
        assert!(server.is_err(), "server must refuse bank size {size}");
        assert!(tile_netlist(PipelineVariant::Synchronizer, &config).is_err());
    }
    let largest = PipelineConfig {
        rng_bank_size: sc_image::MAX_RNG_BANK_SIZE,
        ..quick_config()
    };
    assert!(run_sc_pipeline(&scene(), PipelineVariant::Synchronizer, &largest).is_ok());
}
