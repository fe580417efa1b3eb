//! The tiled Gaussian-blur → edge-detector accelerator pipeline (§IV.A) and
//! its three correlation-handling variants (Table IV).
//!
//! Since the `sc_graph` subsystem landed, [`run_sc_pipeline`] is a thin
//! wrapper over the dataflow engine: each tile is built as a graph
//! ([`crate::graph::tile_graph`]), compiled with the variant's planner
//! options (the synchronizer variant's correlation repair is *inserted by
//! the planner*, not by hand), and executed. Execution is **streamed in
//! bounded windows** ([`run_sc_pipeline_with_stats`], with the worker count
//! taken from [`PipelineConfig`] and the executor's default window): tiles
//! are planned *lazily*, in raster order, inside the streaming dispatch —
//! every tile of a class (shape + source-bank phase) runs the class's one
//! compiled template, with its own select seeds bound as job inputs — and
//! at most `window` planned-but-unfinished tiles are alive at any moment on
//! the executor's persistent worker pool, so arbitrarily large images run
//! in O(window) tile inputs while every core runs tiles concurrently,
//! bit-identical to sequential raster-order processing. The pre-graph per-tile loop is retained in `crate::graph`'s
//! tests as the bit-identity reference.

use crate::assemble::{scatter_sinks, TileSinks};
use crate::edge::roberts_cross_float;
use crate::gaussian::gaussian_blur_float;
use crate::graph::MAX_RNG_BANK_SIZE;
use crate::image::{GrayImage, ImageError};
use crate::planner::TilePlanner;
use sc_graph::{Executor, StreamJob};
use sc_telemetry::TelemetrySink;
use std::hash::{Hash, Hasher};

/// How the accelerator handles correlation between the Gaussian-blur outputs
/// and the edge-detector inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PipelineVariant {
    /// GB outputs feed the ED directly (Table IV "SC No Manipulation").
    NoManipulation,
    /// Every GB output is S/D converted and re-encoded from a shared source
    /// (Table IV "SC Regeneration").
    Regeneration,
    /// A synchronizer is inserted in front of each ED subtractor pair
    /// (Table IV "SC Synchronizer").
    Synchronizer,
}

impl PipelineVariant {
    /// All three variants in the paper's column order.
    #[must_use]
    pub fn all() -> [PipelineVariant; 3] {
        [
            PipelineVariant::NoManipulation,
            PipelineVariant::Regeneration,
            PipelineVariant::Synchronizer,
        ]
    }

    /// Table IV column label.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            PipelineVariant::NoManipulation => "SC No Manipulation",
            PipelineVariant::Regeneration => "SC Regeneration",
            PipelineVariant::Synchronizer => "SC Synchronizer",
        }
    }
}

/// Configuration of the stochastic accelerator.
///
/// Equality and hashing cover only the *configuration* fields: the attached
/// [`telemetry`](PipelineConfig::telemetry) sink is an observer, not part of
/// the accelerator's identity, so two configs that differ only in their sink
/// compare equal (and plan caching, which keys on configuration, is
/// unaffected by instrumentation).
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Stochastic stream length `N` (the paper uses 256).
    pub stream_length: usize,
    /// Square tile size processed in parallel (the paper uses 10×10).
    pub tile_size: usize,
    /// Number of independent sources in the input D/S converter bank, at
    /// most [`crate::MAX_RNG_BANK_SIZE`].
    pub rng_bank_size: usize,
    /// Save depth of the synchronizers in the synchronizer variant.
    pub synchronizer_depth: u32,
    /// Telemetry sink the whole pipeline records into: plan-cache hits and
    /// misses (misses with nested per-stage compile spans), the executor's
    /// dispatch, per-tile execution, worker activity, and the final sink
    /// scatter. The default sink is disabled and records nothing;
    /// attach an enabled [`TelemetrySink`] (see
    /// [`PipelineConfig::with_telemetry`]) and drain it after the run for a
    /// per-stage breakdown. Ignored by `PartialEq`/`Hash`.
    pub telemetry: TelemetrySink,
    /// Worker threads of a one-shot run and of an [`crate::ImageServer`];
    /// `None` uses the available parallelism. An execution setting, not
    /// accelerator identity, so it is ignored by `PartialEq`/`Hash` (and by
    /// the plan cache).
    pub threads: Option<usize>,
}

impl PartialEq for PipelineConfig {
    fn eq(&self, other: &Self) -> bool {
        self.stream_length == other.stream_length
            && self.tile_size == other.tile_size
            && self.rng_bank_size == other.rng_bank_size
            && self.synchronizer_depth == other.synchronizer_depth
    }
}

impl Eq for PipelineConfig {}

impl Hash for PipelineConfig {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.stream_length.hash(state);
        self.tile_size.hash(state);
        self.rng_bank_size.hash(state);
        self.synchronizer_depth.hash(state);
    }
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            stream_length: 256,
            tile_size: 10,
            rng_bank_size: 8,
            // The Gaussian-blur outputs carry longer runs of identical bits
            // than raw generator streams, so a save depth of 2 roughly halves
            // the synchronizer variant's error against the minimal 1. It does
            // not reach regeneration's accuracy: at N = 256 the 30×30 Table IV
            // scene reads 0.0475 at D = 2 against regeneration's 0.0206, and
            // only D ≥ 4 comes close; see the ablation_depth experiment.
            synchronizer_depth: 2,
            telemetry: TelemetrySink::disabled(),
            threads: None,
        }
    }
}

impl PipelineConfig {
    /// A reduced configuration for fast unit tests.
    #[must_use]
    pub fn quick() -> Self {
        PipelineConfig {
            stream_length: 64,
            tile_size: 6,
            ..PipelineConfig::default()
        }
    }

    /// Sets the worker threads (clamped to ≥ 1).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
        self
    }

    /// Attaches a telemetry sink; every pipeline run with this config records
    /// its per-stage spans, counters, and histograms into it.
    #[must_use]
    pub fn with_telemetry(mut self, sink: TelemetrySink) -> Self {
        self.telemetry = sink;
        self
    }

    /// Rejects the configurations no accelerator can be built from.
    ///
    /// # Errors
    ///
    /// [`ImageError::EmptyImage`] for degenerate configurations (zero tile
    /// size, stream length, or source-bank size),
    /// [`ImageError::BankSizeOutOfRange`] for a source bank larger than
    /// [`crate::MAX_RNG_BANK_SIZE`], and [`ImageError::DepthOutOfRange`] for
    /// a synchronizer depth outside [`sc_core::DEPTH_RANGE`].
    pub(crate) fn validate(&self) -> Result<(), ImageError> {
        if self.tile_size == 0 || self.stream_length == 0 || self.rng_bank_size == 0 {
            return Err(ImageError::EmptyImage);
        }
        if self.rng_bank_size > MAX_RNG_BANK_SIZE {
            return Err(ImageError::BankSizeOutOfRange {
                size: self.rng_bank_size,
            });
        }
        if !sc_core::DEPTH_RANGE.contains(&(self.synchronizer_depth as usize)) {
            return Err(ImageError::DepthOutOfRange {
                depth: self.synchronizer_depth,
            });
        }
        Ok(())
    }

    /// The worker-thread count of a one-shot run or an
    /// [`crate::ImageServer`] built from this config: [`Self::threads`], or
    /// the available parallelism when unset.
    ///
    /// # Errors
    ///
    /// The configurations [`Self::validate`] rejects.
    pub(crate) fn checked_threads(&self) -> Result<usize, ImageError> {
        self.validate()?;
        Ok(self.threads.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        }))
    }
}

/// Floating-point reference pipeline: Gaussian blur followed by Roberts cross.
#[must_use]
pub fn run_float_pipeline(image: &GrayImage) -> GrayImage {
    roberts_cross_float(&gaussian_blur_float(image))
}

/// Planning tallies of one [`run_sc_pipeline_with_stats`] call or one
/// [`crate::ImageServer`] request. What execution did is recorded on the
/// configuration's [`TelemetrySink`], not here.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PipelineStats {
    /// Number of tiles processed.
    pub tiles: usize,
    /// Number of graph compilations actually run. Tiles of equal shape and
    /// equal source-bank phase (tile origin modulo the bank pattern's 4×2
    /// period) share one compiled template and bind their own select-LFSR
    /// seeds as job inputs, so this counts *distinct tile classes*, not
    /// tiles.
    pub compilations: usize,
}

/// Runs the stochastic accelerator over the whole image, tile by tile, and
/// returns the edge-magnitude output image.
///
/// # Errors
///
/// Returns an [`ImageError`] only for degenerate configurations (zero-sized
/// tiles or streams are rejected as [`ImageError::EmptyImage`], a source
/// bank over [`crate::MAX_RNG_BANK_SIZE`] as
/// [`ImageError::BankSizeOutOfRange`], an unsupported synchronizer depth as
/// [`ImageError::DepthOutOfRange`]).
pub fn run_sc_pipeline(
    image: &GrayImage,
    variant: PipelineVariant,
    config: &PipelineConfig,
) -> Result<GrayImage, ImageError> {
    run_sc_pipeline_with_stats(image, variant, config).map(|(out, _)| out)
}

/// [`run_sc_pipeline_with_stats`] at an explicit worker count (overriding
/// [`PipelineConfig::threads`]).
///
/// # Errors
///
/// Same conditions as [`run_sc_pipeline`].
pub fn run_sc_pipeline_with_threads(
    image: &GrayImage,
    variant: PipelineVariant,
    config: &PipelineConfig,
    threads: usize,
) -> Result<(GrayImage, PipelineStats), ImageError> {
    run_sc_pipeline_with_stats(image, variant, &config.clone().with_threads(threads))
}

/// Like [`run_sc_pipeline`], also reporting the tiles planned and the tile
/// classes compiled — the one config-driven run: [`PipelineConfig::threads`]
/// picks the worker count, and the window is the executor's
/// [`Executor::default_window`]. Everything else the dispatch did (jobs
/// pulled, the window's peak occupancy, per-class tallies) is recorded on
/// the configuration's [`TelemetrySink`].
///
/// The streaming tile dispatcher walks the image's tiles in raster order,
/// planning each tile **lazily inside the stream** ([`TilePlanner`]): a tile
/// whose class (tile shape plus source-bank phase) is cached gets the
/// class's compiled template plus its own pixel values and select-LFSR seed
/// bindings; a tile of a new class builds its dataflow graph and compiles
/// the template. Meanwhile the executor's persistent worker pool executes
/// planned tiles concurrently. At most `window` planned-but-unfinished
/// tiles are alive at any moment ([`Executor::run_stream`]), so peak memory
/// is O(window) tile inputs plus the per-class templates, regardless of
/// image size; the per-class cache is never evicted, so a window never
/// re-plans a class it already holds. Every tile runs solo on the
/// executor. Sink values are scattered into the output image as the final
/// step.
///
/// Every tile executes with fresh FSMs and deterministic source samples, so
/// the result is bit-identical to processing the tiles one at a time in raster
/// order, at any worker count.
///
/// # Errors
///
/// Returns an [`ImageError`] only for degenerate configurations (zero-sized
/// tiles or streams are rejected as [`ImageError::EmptyImage`], a source
/// bank over [`crate::MAX_RNG_BANK_SIZE`] as
/// [`ImageError::BankSizeOutOfRange`], an unsupported synchronizer depth as
/// [`ImageError::DepthOutOfRange`]).
pub fn run_sc_pipeline_with_stats(
    image: &GrayImage,
    variant: PipelineVariant,
    config: &PipelineConfig,
) -> Result<(GrayImage, PipelineStats), ImageError> {
    let executor = Executor::new(config.stream_length)
        .with_threads(config.checked_threads()?)
        .with_telemetry(config.telemetry.clone());
    let mut output = GrayImage::filled(image.width(), image.height(), 0.0);
    // A fresh planner caches this run's classes only; the serving tier
    // ([`crate::ImageServer`]) is the front that holds one planner across
    // many requests.
    let mut planner = TilePlanner::new(variant, config.clone());
    let mut stats = PipelineStats::default();
    let tile = config.tile_size;

    // Tile origins in raster order: raster order keeps tile_index, and
    // therefore every select seed, identical to the sequential reference
    // loop. The origin list is O(tiles) coordinates — the per-tile state
    // (input values, seed bindings, input streams) only lives in the window.
    let origins = crate::planner::tile_origins(image, tile);

    // Stream the tiles: the executor pulls this iterator lazily (on the
    // caller's thread, so the cache and stats need no locking) whenever the
    // window has room, and the planned tile's sinks are recorded on the way
    // past for the scatter phase.
    let mut sinks: Vec<TileSinks> = Vec::with_capacity(origins.len());
    let jobs = origins.iter().enumerate().map(|(tile_index, &(x0, y0))| {
        let planned = planner.plan_tile(image, x0, y0, tile_index as u64, &mut stats);
        sinks.push(planned.sinks);
        StreamJob {
            plan: planned.plan,
            input: planned.input,
        }
    });
    let results = executor
        .run_stream(jobs, executor.default_window())
        .expect("tile graphs execute over their own batch input");

    // Scatter the per-tile sink values into the output image.
    scatter_sinks(&mut output, &sinks, &results, &config.telemetry);
    Ok((output, stats))
}

/// Quality summary of one accelerator variant against the float reference.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineQuality {
    /// Variant evaluated.
    pub variant: PipelineVariant,
    /// Mean absolute per-pixel error versus the floating-point pipeline.
    pub mean_abs_error: f64,
}

/// Runs every variant on the given image and reports the Table IV error column.
///
/// # Errors
///
/// Propagates configuration errors from [`run_sc_pipeline`].
pub fn compare_variants(
    image: &GrayImage,
    config: &PipelineConfig,
) -> Result<Vec<PipelineQuality>, ImageError> {
    let reference = run_float_pipeline(image);
    PipelineVariant::all()
        .into_iter()
        .map(|variant| {
            let out = run_sc_pipeline(image, variant, config)?;
            Ok(PipelineQuality {
                variant,
                mean_abs_error: out.mean_abs_error(&reference)?,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_image() -> GrayImage {
        // A blob plus a gradient: smooth regions and genuine edges.
        let blob = GrayImage::gaussian_blob(12, 12);
        GrayImage::from_fn(12, 12, |x, y| {
            0.6 * blob.get(x, y) + 0.4 * (x as f64 / 12.0)
        })
    }

    #[test]
    fn float_pipeline_composes_blur_and_edges() {
        let img = GrayImage::checkerboard(12, 12, 4);
        let out = run_float_pipeline(&img);
        assert_eq!(out.width(), 12);
        assert!(out.mean() > 0.0, "a checkerboard has edges");
    }

    #[test]
    fn variant_labels_and_all() {
        assert_eq!(PipelineVariant::all().len(), 3);
        assert!(PipelineVariant::Regeneration
            .label()
            .contains("Regeneration"));
        assert!(PipelineVariant::Synchronizer
            .label()
            .contains("Synchronizer"));
        assert!(PipelineVariant::NoManipulation
            .label()
            .contains("No Manipulation"));
    }

    #[test]
    fn degenerate_configs_rejected() {
        let img = GrayImage::filled(4, 4, 0.5);
        let bad = PipelineConfig {
            tile_size: 0,
            ..PipelineConfig::quick()
        };
        assert!(run_sc_pipeline(&img, PipelineVariant::NoManipulation, &bad).is_err());
        let bad = PipelineConfig {
            stream_length: 0,
            ..PipelineConfig::quick()
        };
        assert!(run_sc_pipeline(&img, PipelineVariant::Synchronizer, &bad).is_err());
    }

    #[test]
    fn sc_pipeline_output_dimensions_match() {
        let img = test_image();
        let config = PipelineConfig::quick();
        let out = run_sc_pipeline(&img, PipelineVariant::Synchronizer, &config).unwrap();
        assert_eq!(out.width(), img.width());
        assert_eq!(out.height(), img.height());
    }

    #[test]
    fn table4_error_ordering() {
        // The central Table IV quality claim: without correlation manipulation
        // the error is several times larger; regeneration and synchronizers
        // are comparable to each other.
        let img = test_image();
        let config = PipelineConfig {
            stream_length: 128,
            ..PipelineConfig::quick()
        };
        let results = compare_variants(&img, &config).unwrap();
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
        assert!(
            none > 2.0 * regen,
            "no-manipulation ({none:.3}) should be far worse than regeneration ({regen:.3})"
        );
        assert!(
            none > 2.0 * sync,
            "no-manipulation ({none:.3}) should be far worse than synchronizer ({sync:.3})"
        );
        assert!(
            (regen - sync).abs() < 0.05,
            "regeneration ({regen:.3}) and synchronizer ({sync:.3}) should be comparable"
        );
        assert!(
            sync < 0.08,
            "synchronizer variant error should be small, got {sync:.3}"
        );
    }

    #[test]
    fn plan_cache_compiles_once_per_tile_shape() {
        // An 8x8 image with 6-pixel tiles has 4 tiles in 4 distinct shapes
        // (full, right edge, bottom edge, corner): every tile compiles.
        let img = GrayImage::gradient(8, 8);
        let config = PipelineConfig::quick();
        let (_, stats) =
            run_sc_pipeline_with_stats(&img, PipelineVariant::Synchronizer, &config).unwrap();
        assert_eq!(stats.tiles, 4);
        assert_eq!(stats.compilations, 4);
        // A 12x12 image has 4 full-size tiles but only 2 bank phases
        // (x0 ∈ {0, 6} ⇒ x0 % 4 ∈ {0, 2}); an 18x6 strip has 3 tiles in the
        // same 2 phases: the cache collapses the repeats.
        let img = GrayImage::gradient(12, 12);
        let (_, stats) =
            run_sc_pipeline_with_stats(&img, PipelineVariant::Synchronizer, &config).unwrap();
        assert_eq!(stats.tiles, 4);
        assert_eq!(stats.compilations, 2);
        let img = GrayImage::gradient(18, 6);
        let (_, stats) =
            run_sc_pipeline_with_stats(&img, PipelineVariant::Synchronizer, &config).unwrap();
        assert_eq!(stats.tiles, 3);
        assert_eq!(stats.compilations, 2);
    }

    #[test]
    fn deterministic_across_runs() {
        let img = GrayImage::gradient(8, 8);
        let config = PipelineConfig::quick();
        let a = run_sc_pipeline(&img, PipelineVariant::Synchronizer, &config).unwrap();
        let b = run_sc_pipeline(&img, PipelineVariant::Synchronizer, &config).unwrap();
        assert_eq!(a, b);
    }

    /// The cross-tile dispatcher is bit-identical at every worker count for
    /// every variant (including a cache-hitting 12×12 image whose templates
    /// are shared across tiles), so the parallelism is purely a throughput
    /// lever, and planning work is thread-invariant.
    #[test]
    fn cross_tile_dispatch_is_thread_count_invariant() {
        let config = PipelineConfig {
            stream_length: 96, // partial final word, on purpose
            ..PipelineConfig::quick()
        };
        let blob = GrayImage::gaussian_blob(12, 12);
        let img = GrayImage::from_fn(12, 12, |x, y| {
            0.6 * blob.get(x, y) + 0.4 * (x as f64 / 12.0)
        });
        for variant in PipelineVariant::all() {
            let (sequential, seq_stats) =
                run_sc_pipeline_with_threads(&img, variant, &config, 1).unwrap();
            for threads in [2usize, 8] {
                let (sharded, stats) = run_sc_pipeline_with_stats(
                    &img,
                    variant,
                    &config.clone().with_threads(threads),
                )
                .unwrap();
                assert_eq!(
                    sharded, sequential,
                    "{variant:?} at {threads} threads diverged from 1 thread"
                );
                assert_eq!(stats, seq_stats, "{variant:?} planning is thread-invariant");
            }
        }
    }
}
