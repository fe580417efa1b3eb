//! The **planning layer** of the tiled pipeline: [`TilePlanner`] turns one
//! tile position into a dispatch-ready [`PlannedTile`].
//!
//! Planning is done once per tile *class*, and a class is a tile shape.
//! Tiles of one shape build the same circuit up to their sources: their two
//! select-LFSR seeds, and which of the 8 input Sobol generators each pixel
//! reads. That is the paper's hardware: a fixed tile circuit behind shared
//! generators, one select LFSR per kernel family seeded per tile (§II.B,
//! §IV). [`crate::graph::pixel_bank_index`] assigns a pixel's generator
//! from its absolute coordinates with periods 4 (x) and 2 (y), so moving a
//! tile permutes the 8 generators and keeps which pixels share one; the
//! compiler's correlation reasoning only sees that sharing, so the compiled
//! plan is the same. A cache hit therefore builds no graph and touches no
//! plan. It gathers the tile's haloed pixels and returns
//!
//! * the cached template itself (an `Arc` clone),
//! * a [`BatchInput`] whose [`BatchInput::bindings`] map the template's
//!   select specs to this tile's and, when the tile's bank phase (origin
//!   mod 4×2) differs from the template's, the template's 8 Sobol specs to
//!   this tile's permutation of them; the executor (and `sc_rtl`'s
//!   elaborator) resolve them per job, and
//! * the template's shared sink layout at this tile's origin
//!   ([`TileSinks`]).
//!
//! Only a miss builds the tile's circuit (the graph of
//! [`crate::graph::tile_graph`], without a second gather of its pixels) and
//! compiles it.
//!
//! The planner is the piece both execution fronts share: the one-shot
//! streaming pipeline ([`crate::run_sc_pipeline_with_stats`]) creates a
//! fresh planner per call (the historical per-run cache), while the serving
//! tier ([`crate::ImageServer`]) keeps **one planner alive across requests**
//! behind a lock — which is what lets tiles from *different* requests share
//! one compiled template on the warm executor.
//!
//! The cache is never evicted, because it is bounded by construction: a
//! class is a tile width and height in `1..=tile_size`, so one planner holds
//! at most `tile_size²` templates whatever images it sees (100 at the
//! default 10×10 tile).

use crate::assemble::TileSinks;
use crate::graph::{
    blur_select_spec, edge_select_spec, pixel_bank_index, pixel_source_spec, planner_options,
    sink_name, tile_circuit, TileRegion, RNG_BANK_SIZE,
};
use crate::image::GrayImage;
use crate::pipeline::{PipelineConfig, PipelineStats, PipelineVariant};
use sc_graph::{BatchInput, CompiledGraph};
use sc_rng::SourceSpec;
use sc_telemetry::{Counter, Stage};
use std::collections::HashMap;
use std::sync::Arc;

/// Plan-cache key: tile width and height. Plans are brightness- and
/// position-independent, so neither pixel values nor the origin enter the
/// key.
type PlanKey = (usize, usize);

/// A cached compiled template for one tile class: the plan, the origin and
/// the two select specs it was compiled with (the left-hand sides of every
/// hit's source bindings) and its tile-relative sink layout.
struct CacheEntry {
    plan: Arc<CompiledGraph>,
    origin: (usize, usize),
    blur_select: SourceSpec,
    edge_select: SourceSpec,
    layout: Arc<[(usize, usize)]>,
}

impl CacheEntry {
    /// The bindings that run this template as the tile at `(x0, y0)` with
    /// select specs `blur` and `edge`: the two selects, then, when the
    /// tile's bank phase differs from the template's, each template pixel
    /// source to the source of the pixel at the same place in the tile.
    fn bindings(
        &self,
        x0: usize,
        y0: usize,
        blur: SourceSpec,
        edge: SourceSpec,
    ) -> Vec<(SourceSpec, SourceSpec)> {
        let (dx, dy) = (
            x0 as isize - self.origin.0 as isize,
            y0 as isize - self.origin.1 as isize,
        );
        let banks = if pixel_bank_index(dx, dy) == 0 {
            0
        } else {
            RNG_BANK_SIZE as isize
        };
        let mut bindings = Vec::with_capacity(2 + banks as usize);
        bindings.push((self.blur_select.clone(), blur));
        bindings.push((self.edge_select.clone(), edge));
        // One pixel per bank entry: (px, py) over one 4×2 period.
        bindings.extend((0..banks).map(|bank| {
            let (px, py) = (bank % 4, bank / 4);
            (
                pixel_source_spec(px, py),
                pixel_source_spec(px + dx, py + dy),
            )
        }));
        bindings
    }
}

/// One tile ready for dispatch: its class template, its input (pixel values
/// plus source bindings), and where its sink values land.
pub struct PlannedTile {
    /// The tile class's compiled template, shared with the plan cache.
    pub plan: Arc<CompiledGraph>,
    /// The tile's input pixel values, and the bindings of the template's
    /// select and pixel source specs to this tile's.
    pub input: BatchInput,
    /// Output-image coordinates of the tile's value sinks, in sink order.
    pub sinks: TileSinks,
}

/// Tile origins of an image in raster order. Raster order fixes
/// `tile_index`, and therefore every per-tile select seed, to match the
/// sequential reference loop — both execution fronts must enumerate tiles
/// this way for bit-identity.
///
/// # Panics
///
/// If `tile_size` is 0.
#[must_use]
pub fn tile_origins(image: &GrayImage, tile_size: usize) -> Vec<(usize, usize)> {
    (0..image.height())
        .step_by(tile_size)
        .flat_map(|y0| {
            (0..image.width())
                .step_by(tile_size)
                .map(move |x0| (x0, y0))
        })
        .collect()
}

/// The shared tile planner: one accelerator configuration plus its per-class
/// plan cache. See the [module docs](self) for the cache and its bound.
pub struct TilePlanner {
    variant: PipelineVariant,
    config: PipelineConfig,
    cache: HashMap<PlanKey, CacheEntry>,
}

impl TilePlanner {
    /// A planner for one variant + configuration, with an empty cache.
    #[must_use]
    pub fn new(variant: PipelineVariant, config: PipelineConfig) -> Self {
        TilePlanner {
            variant,
            config,
            cache: HashMap::new(),
        }
    }

    /// The variant this planner plans for.
    #[must_use]
    pub fn variant(&self) -> PipelineVariant {
        self.variant
    }

    /// The configuration this planner plans with.
    #[must_use]
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// Number of compiled tile classes currently cached.
    #[must_use]
    pub fn cached_classes(&self) -> usize {
        self.cache.len()
    }

    /// Plans the tile whose top-left corner is `(x0, y0)`, recording
    /// plan-cache and compile accounting into `stats` and the configuration's
    /// telemetry sink. One [`Stage::PlanCacheHit`] or [`Stage::PlanCacheMiss`]
    /// span covers the whole call.
    pub fn plan_tile(
        &mut self,
        image: &GrayImage,
        x0: usize,
        y0: usize,
        tile_index: u64,
        stats: &mut PipelineStats,
    ) -> PlannedTile {
        // Cloning the sink (an `Arc` handle) unties its span guard from the
        // `self.config` borrow, so the cache can be borrowed mutably below
        // while the span is open.
        let telemetry = self.config.telemetry.clone();
        let mut span = telemetry.span(Stage::PlanCacheHit);
        stats.tiles += 1;
        telemetry.add(Counter::Tiles, 1);
        let region = TileRegion::new(image, x0, y0, self.config.tile_size);
        let mut input = BatchInput::with_values(region.halo_values(image));
        // Cache key: the tile shape alone (see the module docs).
        let key = region.shape();
        if let Some(entry) = self.cache.get(&key) {
            // Tiles sharing a key build the same graph up to their two
            // select seeds, which never collide (see the seed tests), and a
            // permutation of the pixel sources, so binding the template's
            // specs to this tile's runs this tile's circuit.
            telemetry.add(Counter::PlanCacheHits, 1);
            input.bindings = entry.bindings(
                x0,
                y0,
                blur_select_spec(tile_index),
                edge_select_spec(tile_index),
            );
            return PlannedTile {
                plan: Arc::clone(&entry.plan),
                input,
                sinks: TileSinks::new(x0, y0, Arc::clone(&entry.layout)),
            };
        }

        span.set_stage(Stage::PlanCacheMiss);
        telemetry.add(Counter::PlanCacheMisses, 1);
        stats.compilations += 1;
        // The input values were gathered above; a miss builds only the
        // circuit.
        let tile = tile_circuit(&region, self.variant, &self.config, tile_index);
        let options = planner_options(self.variant, &self.config);
        let plan = Arc::new(
            tile.graph
                .compile_with_telemetry(&options, &telemetry)
                .expect("tile graphs are structurally valid by construction"),
        );
        // The sink layout, resolved by name once per class: entry `i` is the
        // tile-relative pixel of the plan's `i`-th value sink.
        let mut layout = vec![(0, 0); tile.sinks.len()];
        for &(x, y, sink) in &tile.sinks {
            let position = plan
                .value_sink_index(sink_name(&tile.graph, sink))
                .expect("every tile pixel has a value sink");
            layout[position] = (x - x0, y - y0);
        }
        let layout: Arc<[(usize, usize)]> = layout.into();
        self.cache.insert(
            key,
            CacheEntry {
                plan: Arc::clone(&plan),
                origin: (x0, y0),
                blur_select: blur_select_spec(tile_index),
                edge_select: edge_select_spec(tile_index),
                layout: Arc::clone(&layout),
            },
        );
        PlannedTile {
            plan,
            input,
            sinks: TileSinks::new(x0, y0, layout),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assemble::scatter_sinks;
    use crate::graph::tile_graph;
    use sc_graph::Executor;
    use sc_telemetry::TelemetrySink;

    /// A hit binds the template's two select specs to the tile's, which is
    /// only well-defined if a tile's two seeds never coincide. Both seeds
    /// depend on the tile index only modulo 2^16 (the low 16 bits of a
    /// product depend only on the low 16 bits of its operands), so checking
    /// every residue covers every tile index there is.
    #[test]
    fn select_seeds_never_collide() {
        for residue in 0..1u64 << 16 {
            let (blur, edge) = (blur_select_spec(residue), edge_select_spec(residue));
            assert_ne!(
                blur, edge,
                "tile index {residue}: blur and edge seeds collide"
            );
            for wrap in [1u64, 7, 1 << 20, u64::MAX >> 16] {
                let index = residue.wrapping_add(wrap << 16);
                assert_eq!(blur_select_spec(index), blur, "blur seed of {index}");
                assert_eq!(edge_select_spec(index), edge, "edge seed of {index}");
            }
        }
    }

    /// A planned tile — a bound template on a hit — executes bit-identically
    /// to a direct compile of that tile's own graph, for every variant, over
    /// the benchmark's aligned and ragged image sizes at the default
    /// configuration and at tile indices far from 0. Every size has hits at
    /// another bank phase than their template's, which bind all 8 pixel
    /// sources.
    #[test]
    fn bound_templates_match_direct_per_tile_compiles() {
        const FIRST_INDEX: u64 = 3 * (1 << 16) + 40_000;
        let config = PipelineConfig::default();
        for (width, height) in [(24, 24), (33, 27), (40, 40), (64, 48)] {
            // Two flat halves with a fine texture: a genuine vertical edge.
            let image = GrayImage::from_fn(width, height, |x, y| {
                let half = if 2 * x < width { 0.25 } else { 0.7 };
                half + 0.01 * ((x + 2 * y) % 3) as f64
            });
            for variant in PipelineVariant::all() {
                let what = format!("{variant:?} at {width}x{height}");
                let exec = Executor::new(config.stream_length);
                let mut planner = TilePlanner::new(variant, config.clone());
                let mut stats = PipelineStats::default();
                let mut planned_out = GrayImage::filled(width, height, 0.0);
                let mut direct_out = GrayImage::filled(width, height, 0.0);
                let mut phase_shifted_hits = 0;
                for (i, &(x0, y0)) in tile_origins(&image, config.tile_size).iter().enumerate() {
                    let index = FIRST_INDEX + i as u64;
                    let planned = planner.plan_tile(&image, x0, y0, index, &mut stats);
                    let tile = tile_graph(&image, x0, y0, variant, &config, index);
                    let direct = tile
                        .graph
                        .compile(&planner_options(variant, &config))
                        .unwrap();
                    assert_eq!(planned.input.values, tile.input.values, "{what}: gather");
                    let bindings = &planned.input.bindings;
                    let sobol = bindings
                        .iter()
                        .filter(|(from, _)| matches!(from, SourceSpec::Sobol { .. }))
                        .count();
                    assert!(
                        [0, 2, 2 + RNG_BANK_SIZE].contains(&bindings.len()),
                        "{what}: tile {index} binds {bindings:?}"
                    );
                    assert_eq!(
                        sobol,
                        bindings.len().saturating_sub(2),
                        "{what}: {bindings:?}"
                    );
                    if sobol > 0 {
                        phase_shifted_hits += 1;
                        assert!(
                            bindings[2..].iter().all(|(from, to)| from != to),
                            "{what}: a bank permutation moves every source"
                        );
                    }
                    let planned_result = exec.run(&planned.plan, &planned.input).unwrap();
                    let direct_result = exec.run(&direct, &tile.input).unwrap();
                    assert_eq!(planned_result, direct_result, "{what}: tile {index}");
                    scatter_sinks(
                        &mut planned_out,
                        &[planned.sinks],
                        &[planned_result],
                        &TelemetrySink::disabled(),
                    );
                    for (x, y, name) in &tile.sinks {
                        direct_out.set(*x, *y, direct_result.value(name).unwrap());
                    }
                }
                assert!(
                    phase_shifted_hits > 0,
                    "{what}: the image must exercise phase-shifted hits"
                );
                assert_eq!(planned_out, direct_out, "{what}: scattered image");
            }
        }
    }

    #[test]
    #[should_panic]
    fn tile_origins_rejects_a_zero_tile_size() {
        let _ = tile_origins(&GrayImage::gradient(4, 4), 0);
    }

    /// A hit hands out the cached template itself, not a copy, and opens
    /// exactly one planner span: no nested retarget span. A hit at another
    /// bank phase binds the pixel sources as well as the selects.
    #[test]
    fn hits_return_the_cached_template_under_one_span() {
        let sink = TelemetrySink::new();
        let config = PipelineConfig::quick().with_telemetry(sink.clone());
        // 12×12 in 6-pixel tiles: four tiles of one shape, at origins
        // (0, 0), (6, 0), (0, 6) and (6, 6); x0 = 6 is bank phase 2.
        let image = GrayImage::gradient(12, 12);
        let mut planner = TilePlanner::new(PipelineVariant::Synchronizer, config.clone());
        let mut stats = PipelineStats::default();
        let planned: Vec<PlannedTile> = tile_origins(&image, config.tile_size)
            .iter()
            .enumerate()
            .map(|(i, &(x0, y0))| planner.plan_tile(&image, x0, y0, i as u64, &mut stats))
            .collect();
        assert_eq!((stats.tiles, stats.compilations), (4, 1));
        assert!(planned
            .iter()
            .all(|tile| Arc::ptr_eq(&tile.plan, &planned[0].plan)));
        assert!(
            planned[0].input.bindings.is_empty(),
            "a miss is its own template"
        );
        let bound: Vec<usize> = planned.iter().map(|t| t.input.bindings.len()).collect();
        assert_eq!(
            bound,
            [0, 2 + RNG_BANK_SIZE, 2, 2 + RNG_BANK_SIZE],
            "a hit binds both selects, and at another bank phase every pixel source"
        );
        let report = sink.drain();
        assert_eq!(report.stage_totals(Stage::PlanCacheHit).0, 3);
        assert_eq!(report.stage_totals(Stage::PlanCacheMiss).0, 1);
        assert_eq!(report.stage_totals(Stage::Retarget).0, 0);
        assert_eq!(report.counter(Counter::PlanCacheHits), 3);
        assert_eq!(report.counter(Counter::PlanCacheMisses), 1);
    }
}
