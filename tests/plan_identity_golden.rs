//! Golden identity of the compiled tile plans.
//!
//! Every tile class of the `gbed_oneshot` benchmark sizes is planned at the
//! default configuration for every variant, and each class's plan is folded
//! into one FNV-1a hash per (size, variant): the `Debug` of each step with
//! its input slots, then its slot, value-slot and stream-slot counts, then
//! the `Display` lines of its compile report. The hashes were first
//! captured before the compiler's scheduler, slot table and repair records
//! were rewritten, so any change to the compiler that moves a step, a slot
//! or a report line fails here. They were re-captured once, when the plan
//! step became the node's own `NodeOp` over its slots: that changed only
//! the `Debug` text, as rendering every step of these classes back in the
//! old step format reproduced the old steps byte for byte. The four
//! `Regeneration` rows moved once more when `NodeOp::Regenerate` lost its
//! always-zero `skip`: re-inserting `, skip: 0` into those steps' `Debug`
//! lines reproduces their old hashes. All twelve moved when the plan cache
//! came to key a class by tile shape alone (a tile at another source-bank
//! phase binds its pixel sources to the template's): the plans themselves
//! did not change, only which of them compile. Folding, with the previous
//! shape-and-phase cache, only the first class of each shape in raster
//! order reproduces the new hashes, and the class counts fall from
//! 6 / 6 / 2 / 6 to 4 / 4 / 1 / 4.

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
    for step in plan.steps() {
        let line = format!("{step:?} <- {:?}\n", plan.srcs(step));
        hash = fnv1a(hash, line.as_bytes());
    }
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
        ("24x24 NoManipulation", 4, 0x73bb_940b_728d_a579),
        ("24x24 Regeneration", 4, 0x5f21_1609_81d9_f667),
        ("24x24 Synchronizer", 4, 0xf307_9e3d_fcc8_cd2f),
        ("33x27 NoManipulation", 4, 0x5656_82e0_ebf3_ba8b),
        ("33x27 Regeneration", 4, 0x522d_0110_cb85_5510),
        ("33x27 Synchronizer", 4, 0xdf8b_690c_c014_93fd),
        ("40x40 NoManipulation", 1, 0x8728_19ca_8bce_037f),
        ("40x40 Regeneration", 1, 0x3324_c67c_cfba_4062),
        ("40x40 Synchronizer", 1, 0x46e7_12f6_fa08_f9ee),
        ("64x48 NoManipulation", 4, 0xc2c1_b1e6_d561_2ecb),
        ("64x48 Regeneration", 4, 0x9295_68be_4ceb_6876),
        ("64x48 Synchronizer", 4, 0x87c6_2a74_1eb4_97a8),
    ];
    assert_eq!(got, expected, "a compiled tile plan moved");
}
