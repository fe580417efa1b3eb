//! Golden identity of the compiled tile plans.
//!
//! Every tile class of the `gbed_oneshot` benchmark sizes is planned at the
//! default configuration for every variant, and each class's plan is folded
//! into one FNV-1a hash per (size, variant): the `Debug` of its steps, then
//! its slot, value-slot and stream-slot counts, then the `Display` lines of
//! its compile report. The pinned hashes were captured before the compiler's
//! scheduler, slot table and repair records were rewritten, so any change
//! to the compiler that moves a step, a slot or a report line fails here.

use sc_graph::CompiledGraph;
use sc_image::{
    tile_origins, GrayImage, PipelineConfig, PipelineStats, PipelineVariant, TilePlanner,
};

/// The `gbed_oneshot` image sizes: tile-aligned and ragged against the
/// default 10×10 tile.
const SIZES: [(usize, usize); 4] = [(24, 24), (33, 27), (40, 40), (64, 48)];

/// FNV-1a over a byte string, continuing from `hash`.
fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Folds one plan into `hash`.
fn fold_plan(mut hash: u64, plan: &CompiledGraph) -> u64 {
    hash = fnv1a(hash, format!("{:?}", plan.steps()).as_bytes());
    for count in [plan.slot_count(), plan.value_slots(), plan.stream_slots()] {
        hash = fnv1a(hash, &(count as u64).to_le_bytes());
    }
    let report = plan.report();
    for line in &report.inserted {
        hash = fnv1a(hash, format!("inserted: {line}\n").as_bytes());
    }
    for line in &report.unsatisfied {
        hash = fnv1a(hash, format!("unsatisfied: {line}\n").as_bytes());
    }
    hash = fnv1a(hash, &(report.shared_sources as u64).to_le_bytes());
    for delta in &report.pass_deltas {
        let line = format!("{} +{}: {}\n", delta.pass, delta.nodes_added, delta.detail);
        hash = fnv1a(hash, line.as_bytes());
    }
    hash
}

/// One hash and class count per (size, variant), planning every tile of an
/// image of that size in raster order.
fn hashes() -> Vec<(String, usize, u64)> {
    let config = PipelineConfig::default();
    let mut out = Vec::new();
    for (width, height) in SIZES {
        let image = GrayImage::gradient(width, height);
        for variant in PipelineVariant::all() {
            let mut planner = TilePlanner::new(variant, config.clone());
            let mut stats = PipelineStats::default();
            let mut hash = 0xcbf2_9ce4_8422_2325_u64;
            for (i, &(x0, y0)) in tile_origins(&image, config.tile_size).iter().enumerate() {
                let before = stats.compilations;
                let tile = planner.plan_tile(&image, x0, y0, i as u64, &mut stats);
                if stats.compilations > before {
                    hash = fold_plan(hash, &tile.plan);
                }
            }
            out.push((
                format!("{width}x{height} {variant:?}"),
                stats.compilations,
                hash,
            ));
        }
    }
    out
}

#[test]
fn benchmark_tile_plans_are_pinned() {
    let got = hashes();
    let got: Vec<(&str, usize, u64)> = got.iter().map(|(k, n, h)| (k.as_str(), *n, *h)).collect();
    let expected: [(&str, usize, u64); 12] = [
        ("24x24 NoManipulation", 6, 0xb03e_fbca_8b40_03b9),
        ("24x24 Regeneration", 6, 0xe4a6_0ca8_c004_9932),
        ("24x24 Synchronizer", 6, 0x3a5b_5dd1_a296_5281),
        ("33x27 NoManipulation", 6, 0x0743_7739_181f_2930),
        ("33x27 Regeneration", 6, 0xadc7_73f0_5751_4392),
        ("33x27 Synchronizer", 6, 0x406e_47fb_2473_e5b5),
        ("40x40 NoManipulation", 2, 0x0d51_9ff8_4c88_fbfb),
        ("40x40 Regeneration", 2, 0xf05a_d153_fe45_86cf),
        ("40x40 Synchronizer", 2, 0xd314_ba4c_ef1d_63d7),
        ("64x48 NoManipulation", 6, 0x8106_9bc6_b4f5_4ffa),
        ("64x48 Regeneration", 6, 0xfeef_ff71_1ea1_9807),
        ("64x48 Synchronizer", 6, 0xe57d_5597_fb9a_de2a),
    ];
    assert_eq!(got, expected, "a compiled tile plan moved");
}
