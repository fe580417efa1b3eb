//! Integration tests for the Table IV image-processing case study: quality
//! ordering of the accelerator variants, hardware cost ordering, and the
//! §IV.B energy-overhead claim, at reduced scale so the suite stays fast.

use sc_image::accelerator::{accelerator_cost, cost_all_variants};
use sc_image::pipeline::compare_variants;
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

#[test]
fn energy_and_area_ordering_matches_table4() {
    let costs = cost_all_variants(&PipelineConfig::default(), 100, 100);
    let cost = |v: PipelineVariant| costs.iter().find(|c| c.variant == v).expect("cost");
    let none = cost(PipelineVariant::NoManipulation);
    let regen = cost(PipelineVariant::Regeneration);
    let sync = cost(PipelineVariant::Synchronizer);

    // Area: both manipulation variants add hardware over the baseline.
    assert!(none.area_um2 < regen.area_um2);
    assert!(none.area_um2 < sync.area_um2);

    // Energy: none < sync < regen, with a double-digit percentage saving of
    // sync over regen (24% in the paper).
    assert!(none.energy_per_frame_nj < sync.energy_per_frame_nj);
    assert!(sync.energy_per_frame_nj < regen.energy_per_frame_nj);
    let saving = 1.0 - sync.energy_per_frame_nj / regen.energy_per_frame_nj;
    assert!(saving > 0.1, "saving {saving:.2}");

    // Manipulation-only overhead: regeneration pays at least ~2x more
    // (3.0x in the paper).
    assert!(regen.manipulation_energy_nj > 2.0 * sync.manipulation_energy_nj);
    assert_eq!(none.manipulation_energy_nj, 0.0);
}

#[test]
fn accelerator_cost_is_deterministic_and_consistent() {
    let config = PipelineConfig::default();
    let a = accelerator_cost(PipelineVariant::Synchronizer, &config, 100, 100);
    let b = accelerator_cost(PipelineVariant::Synchronizer, &config, 100, 100);
    assert_eq!(a.area_um2, b.area_um2);
    assert_eq!(a.energy_per_frame_nj, b.energy_per_frame_nj);
    // The breakdown sums to the totals.
    let total = a.breakdown.total();
    assert!((total.area_um2() - a.area_um2).abs() < 1e-6);
    assert!((total.power_uw() - a.power_uw).abs() < 1e-6);
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
        let server = sc_image::ImageServer::start(PipelineVariant::Synchronizer, config);
        assert!(server.is_err(), "server must refuse depth {depth}");
    }
}
