//! The **planning layer** of the tiled pipeline: [`TilePlanner`] turns one
//! tile position into a dispatch-ready [`PlannedTile`].
//!
//! Planning is done once per tile *class*: tile shape, source-bank phase
//! and, in measured-SCC mode, the quantised brightness bucket. Tiles of one
//! class build the same circuit up to their two select-LFSR seeds, which is
//! the paper's hardware: a fixed circuit behind one shared select LFSR per
//! kernel family, seeded per tile (§II.B, §IV). So a cache hit builds no
//! graph and touches no plan. It computes the class key from the tile
//! position, gathers the tile's haloed pixels, and returns
//!
//! * the cached template itself (an `Arc` clone),
//! * a [`BatchInput`] whose [`BatchInput::bindings`] map the template's
//!   select specs to this tile's, which the executor (and `sc_rtl`'s
//!   elaborator) resolve per job, and
//! * the template's shared sink layout at this tile's origin
//!   ([`TileSinks`]).
//!
//! Only a miss builds the tile's graph ([`crate::graph::tile_graph`]) and
//! compiles it.
//!
//! The planner is the piece both execution fronts share: the one-shot
//! streaming pipeline ([`crate::run_sc_pipeline_with_stats`]) creates a
//! fresh planner per call (the historical per-run cache), while the serving
//! tier ([`crate::ImageServer`]) keeps **one planner alive across requests**
//! behind a lock — which is what lets tiles from *different* requests share
//! one compiled template on the warm executor.
//!
//! Long-lived planners can bound the cache with
//! [`TilePlanner::with_capacity`]: a per-class LRU that evicts the
//! least-recently-used template once the class count exceeds the cap.
//! Templates still held by in-flight work (every planned tile, hit or miss,
//! holds its template's `Arc`) are pinned — never evicted, even if that
//! temporarily overshoots the cap — so a class inside the live window is
//! never re-planned mid-stream. The default is the historical unbounded
//! cache.

use crate::assemble::TileSinks;
use crate::graph::{
    blur_select_spec, edge_select_spec, measured_planner_options, planner_options, tile_graph,
    tile_mean, TileRegion,
};
use crate::image::GrayImage;
use crate::pipeline::{PipelineConfig, PipelineStats, PipelineVariant, MEASURE_BUCKETS};
use sc_graph::{BatchInput, CompiledGraph, PlannerOptions};
use sc_rng::SourceSpec;
use sc_telemetry::{Counter, Stage};
use std::collections::HashMap;
use std::sync::Arc;

/// Plan-cache key: tile width, tile height, source-bank phase (x0 mod 4,
/// y0 mod 2), and — in measured-SCC mode — the quantised probe-stimulus
/// bucket (`None` for the structural planner, whose plans are
/// brightness-independent).
type PlanKey = (usize, usize, usize, usize, Option<usize>);

/// A cached compiled template for one tile class: the plan, the two select
/// specs it was compiled with (the left-hand sides of every hit's seed
/// bindings), its tile-relative sink layout, and its LRU recency stamp.
struct CacheEntry {
    plan: Arc<CompiledGraph>,
    blur_select: SourceSpec,
    edge_select: SourceSpec,
    layout: Arc<[(usize, usize)]>,
    last_used: u64,
}

/// One tile ready for dispatch: its class template, its input (pixel values
/// plus select-seed bindings), and where its sink values land.
pub struct PlannedTile {
    /// The tile class's compiled template, shared with the plan cache.
    pub plan: Arc<CompiledGraph>,
    /// The tile's input pixel values, and the bindings of the template's
    /// select specs to this tile's.
    pub input: BatchInput,
    /// Output-image coordinates of the tile's value sinks, in sink order.
    pub sinks: TileSinks,
}

/// The measured-SCC brightness bucket of a tile whose mean input is `mean`.
fn measure_bucket(mean: f64) -> usize {
    ((mean * MEASURE_BUCKETS as f64).floor() as usize).min(MEASURE_BUCKETS - 1)
}

/// The compile options of a tile class. A measured class probes at its
/// bucket's midpoint, so every tile the bucket covers gets one set of
/// planner decisions and the cached template serves all of them.
fn class_options(
    variant: PipelineVariant,
    config: &PipelineConfig,
    bucket: Option<usize>,
) -> PlannerOptions {
    match bucket {
        Some(b) => {
            measured_planner_options(variant, config, (b as f64 + 0.5) / MEASURE_BUCKETS as f64)
        }
        None => planner_options(variant, config),
    }
}

/// Tile origins of an image in raster order. Raster order fixes
/// `tile_index`, and therefore every per-tile select seed, to match the
/// sequential reference loop — both execution fronts must enumerate tiles
/// this way for bit-identity.
#[must_use]
pub fn tile_origins(image: &GrayImage, tile_size: usize) -> Vec<(usize, usize)> {
    let mut origins = Vec::new();
    let mut y0 = 0;
    while y0 < image.height() {
        let mut x0 = 0;
        while x0 < image.width() {
            origins.push((x0, y0));
            x0 += tile_size;
        }
        y0 += tile_size;
    }
    origins
}

/// The shared tile planner: one accelerator configuration plus its per-class
/// plan cache. See the [module docs](self) for the cache and LRU semantics.
pub struct TilePlanner {
    variant: PipelineVariant,
    config: PipelineConfig,
    capacity: Option<usize>,
    cache: HashMap<PlanKey, CacheEntry>,
    tick: u64,
    evictions: u64,
}

impl TilePlanner {
    /// An unbounded planner for one variant + configuration (the historical
    /// per-run cache behavior).
    #[must_use]
    pub fn new(variant: PipelineVariant, config: PipelineConfig) -> Self {
        TilePlanner {
            variant,
            config,
            capacity: None,
            cache: HashMap::new(),
            tick: 0,
            evictions: 0,
        }
    }

    /// Bounds the cache to at most `capacity` compiled tile classes,
    /// evicting least-recently-used unpinned templates past the cap
    /// (`None` restores the unbounded default). A capacity of zero keeps
    /// nothing cached beyond pinned in-flight templates.
    #[must_use]
    pub fn with_capacity(mut self, capacity: Option<usize>) -> Self {
        self.capacity = capacity;
        self
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

    /// Number of templates evicted by the LRU bound so far.
    #[must_use]
    pub fn evictions(&self) -> u64 {
        self.evictions
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
        // Cache key: the tile shape *and* the tile origin's phase in the
        // input source-bank pattern. `pixel_bank_index` assigns each input
        // pixel's Sobol dimension from its absolute coordinates with periods
        // 4 (x) and 2 (y), so only tiles whose origins agree modulo those
        // periods build identical `Generate` layouts; two equal-shape tiles
        // at different phases must not share a plan. In measured-SCC mode
        // the quantised probe-stimulus bucket joins the key, so tiles whose
        // mean brightness lands in different buckets never share a measured
        // compile.
        let bucket = self
            .config
            .measure_scc
            .is_some()
            .then(|| measure_bucket(tile_mean(&input)));
        let (width, height) = region.shape();
        let key = (width, height, x0 % 4, y0 % 2, bucket);
        self.tick += 1;
        if let Some(entry) = self.cache.get_mut(&key) {
            // Tiles sharing a key build the same graph up to their two
            // select seeds, which never collide (see the seed tests), so
            // binding the template's specs to this tile's runs this tile's
            // circuit. (A measured class keeps its template's probe
            // verdicts for every tile it serves.)
            entry.last_used = self.tick;
            telemetry.add(Counter::PlanCacheHits, 1);
            input.bindings = vec![
                (entry.blur_select.clone(), blur_select_spec(tile_index)),
                (entry.edge_select.clone(), edge_select_spec(tile_index)),
            ];
            return PlannedTile {
                plan: Arc::clone(&entry.plan),
                input,
                sinks: TileSinks::new(x0, y0, Arc::clone(&entry.layout)),
            };
        }

        span.set_stage(Stage::PlanCacheMiss);
        telemetry.add(Counter::PlanCacheMisses, 1);
        stats.compilations += 1;
        let tile = tile_graph(image, x0, y0, self.variant, &self.config, tile_index);
        debug_assert_eq!(tile.input, input, "one gather feeds hits and misses");
        let options = class_options(self.variant, &self.config, bucket);
        let plan = Arc::new(
            tile.graph
                .compile_with_telemetry(&options, &telemetry)
                .expect("tile graphs are structurally valid by construction"),
        );
        stats.shared_sources += plan.report().shared_sources;
        // The sink layout, resolved by name once per class: entry `i` is the
        // tile-relative pixel of the plan's `i`-th value sink.
        let mut layout = vec![(0, 0); tile.sinks.len()];
        for (x, y, name) in &tile.sinks {
            let position = plan
                .value_sink_index(name)
                .expect("every tile pixel has a value sink");
            layout[position] = (x - x0, y - y0);
        }
        let layout: Arc<[(usize, usize)]> = layout.into();
        self.cache.insert(
            key,
            CacheEntry {
                plan: Arc::clone(&plan),
                blur_select: blur_select_spec(tile_index),
                edge_select: edge_select_spec(tile_index),
                layout: Arc::clone(&layout),
                last_used: self.tick,
            },
        );
        self.enforce_capacity(&key);
        PlannedTile {
            plan,
            input,
            sinks: TileSinks::new(x0, y0, layout),
        }
    }

    /// Evicts least-recently-used unpinned templates while the class count
    /// exceeds the capacity. The just-inserted key and any template whose
    /// `Arc` is still held outside the cache (every planned tile in the live
    /// dispatch window executes its template itself) are pinned, so
    /// the cache may transiently overshoot the cap rather than drop a class
    /// the window still holds.
    fn enforce_capacity(&mut self, just_inserted: &PlanKey) {
        let Some(cap) = self.capacity else { return };
        while self.cache.len() > cap.max(1) {
            let victim = self
                .cache
                .iter()
                .filter(|(key, entry)| *key != just_inserted && Arc::strong_count(&entry.plan) == 1)
                .min_by_key(|(_, entry)| entry.last_used)
                .map(|(key, _)| *key);
            match victim {
                Some(key) => {
                    self.cache.remove(&key);
                    self.evictions += 1;
                    self.config.telemetry.add(Counter::PlanCacheEvictions, 1);
                }
                None => break,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assemble::scatter_sinks;
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
    /// to a direct compile of that tile's own graph, for every variant, in
    /// structural and measured-SCC mode, on ragged image sizes and at tile
    /// indices far from 0.
    ///
    /// Measured mode caches a class's probe *verdicts*: a probe runs the
    /// tile's real select sources, and every tile of the class gets the
    /// template's repair decisions (the contract
    /// `tests/compiler_golden_bits.rs` pins). A direct per-tile compile is
    /// therefore only a reference where the verdicts do not depend on the
    /// seeds. That holds at a full-length probe; at 32 cycles about one XOR
    /// pair in twenty flips its verdict from tile to tile.
    #[test]
    fn bound_templates_match_direct_per_tile_compiles() {
        const FIRST_INDEX: u64 = 3 * (1 << 16) + 40_000;
        let structural = PipelineConfig {
            stream_length: 64,
            ..PipelineConfig::default()
        };
        let measured = PipelineConfig {
            measure_scc: Some(256),
            ..structural.clone()
        };
        for config in [structural, measured] {
            for (width, height) in [(33, 27), (64, 48)] {
                // Two flat halves with a fine texture: a genuine vertical
                // edge, and tile means that share measured buckets.
                let image = GrayImage::from_fn(width, height, |x, y| {
                    let half = if 2 * x < width { 0.25 } else { 0.7 };
                    half + 0.01 * ((x + 2 * y) % 3) as f64
                });
                for variant in PipelineVariant::all() {
                    let what = format!(
                        "{variant:?} at {width}x{height}, measure_scc {:?}",
                        config.measure_scc
                    );
                    let exec = Executor::new(config.stream_length);
                    let mut planner = TilePlanner::new(variant, config.clone());
                    let mut stats = PipelineStats::default();
                    let mut planned_out = GrayImage::filled(width, height, 0.0);
                    let mut direct_out = GrayImage::filled(width, height, 0.0);
                    let mut bound_hits = 0;
                    for (i, &(x0, y0)) in tile_origins(&image, config.tile_size).iter().enumerate()
                    {
                        let index = FIRST_INDEX + i as u64;
                        let planned = planner.plan_tile(&image, x0, y0, index, &mut stats);
                        let tile = tile_graph(&image, x0, y0, variant, &config, index);
                        let bucket = config
                            .measure_scc
                            .map(|_| measure_bucket(tile_mean(&tile.input)));
                        let options = class_options(variant, &config, bucket);
                        let direct = tile.graph.compile(&options).unwrap();
                        assert_eq!(planned.input.values, tile.input.values, "{what}: gather");
                        bound_hits += usize::from(!planned.input.bindings.is_empty());
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
                    assert!(bound_hits > 0, "{what}: the image must exercise cache hits");
                    assert_eq!(planned_out, direct_out, "{what}: scattered image");
                }
            }
        }
    }

    /// A hit hands out the cached template itself, not a copy, and opens
    /// exactly one planner span: no nested retarget span.
    #[test]
    fn hits_return_the_cached_template_under_one_span() {
        let sink = TelemetrySink::new();
        let config = PipelineConfig::quick().with_telemetry(sink.clone());
        // 12×12 in 6-pixel tiles: tiles 0 and 2 share a class, as do 1 and 3.
        let image = GrayImage::gradient(12, 12);
        let mut planner = TilePlanner::new(PipelineVariant::Synchronizer, config.clone());
        let mut stats = PipelineStats::default();
        let planned: Vec<PlannedTile> = tile_origins(&image, config.tile_size)
            .iter()
            .enumerate()
            .map(|(i, &(x0, y0))| planner.plan_tile(&image, x0, y0, i as u64, &mut stats))
            .collect();
        assert_eq!((stats.tiles, stats.compilations), (4, 2));
        assert!(Arc::ptr_eq(&planned[0].plan, &planned[2].plan));
        assert!(Arc::ptr_eq(&planned[1].plan, &planned[3].plan));
        assert!(!Arc::ptr_eq(&planned[0].plan, &planned[1].plan));
        assert!(
            planned[0].input.bindings.is_empty(),
            "a miss is its own template"
        );
        assert_eq!(
            planned[2].input.bindings.len(),
            2,
            "a hit binds both selects"
        );
        let report = sink.drain();
        assert_eq!(report.stage_totals(Stage::PlanCacheHit).0, 2);
        assert_eq!(report.stage_totals(Stage::PlanCacheMiss).0, 2);
        assert_eq!(report.stage_totals(Stage::Retarget).0, 0);
        assert_eq!(report.counter(Counter::PlanCacheHits), 2);
        assert_eq!(report.counter(Counter::PlanCacheMisses), 2);
    }
}
