//! The tiled Gaussian-blur → edge-detector accelerator pipeline (§IV.A) and
//! its three correlation-handling variants (Table IV).
//!
//! Since the `sc_graph` subsystem landed, [`run_sc_pipeline`] is a thin
//! wrapper over the dataflow engine: each tile is built as a graph
//! ([`crate::graph::tile_graph`]), compiled with the variant's planner
//! options (the synchronizer variant's correlation repair is *inserted by
//! the planner*, not by hand), and executed. Execution is **streamed in
//! bounded windows** ([`run_sc_pipeline_with_stats`], with the worker count
//! and window taken from [`PipelineConfig`]): tiles are planned
//! *lazily*, in raster order, inside the streaming dispatch — every tile of
//! a class (shape + source-bank phase) runs the class's one compiled
//! template, with its own select seeds bound as job inputs — and at most
//! `window` planned-but-unfinished tiles are alive at any moment on the
//! executor's persistent worker pool, so arbitrarily large images run in
//! O(window) tile inputs while every core runs tiles concurrently,
//! bit-identical to sequential raster-order processing. The pre-graph per-tile loop is retained in `crate::graph`'s
//! tests as the bit-identity reference.

use crate::assemble::{scatter_sinks, TileSinks};
use crate::edge::roberts_cross_float;
use crate::gaussian::gaussian_blur_float;
use crate::image::{GrayImage, ImageError};
use crate::planner::TilePlanner;
use sc_graph::{Executor, StreamJob, StreamStats};
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
    /// Number of independent sources in the input D/S converter bank.
    pub rng_bank_size: usize,
    /// Save depth of the synchronizers in the synchronizer variant.
    pub synchronizer_depth: u32,
    /// Measured-SCC planner feedback: when `Some(probe_length)`, tiles
    /// compile under measurement ([`sc_graph::PlannerOptions`]'s
    /// `measure_unknown`) with the **tile's mean pixel value** as the probe
    /// stimulus (`probe_value`), so repair decisions are driven by the batch
    /// statistics of the data actually flowing through the tile rather than
    /// the maximum-entropy 0.5 default. The stimulus is quantised to
    /// [`MEASURE_BUCKETS`] brightness buckets and the bucket joins the
    /// cross-tile plan-cache key: tiles of the same shape, bank phase, and
    /// brightness bucket share one measured compile (probed at the bucket's
    /// midpoint) with their select seeds bound per tile — so measured mode
    /// keeps the per-class cache instead of recompiling per tile. `None` (the
    /// default) keeps the purely structural planner.
    pub measure_scc: Option<usize>,
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
    /// Dispatch window of a one-shot run and of an [`crate::ImageServer`]:
    /// at most this many planned tiles are in flight (admitted and not yet
    /// finished) at once. `None` uses the
    /// executor default (`threads ×`[`sc_graph::DEFAULT_WINDOW_FACTOR`]).
    /// Ignored by `PartialEq`/`Hash`.
    pub window: Option<usize>,
}

impl PartialEq for PipelineConfig {
    fn eq(&self, other: &Self) -> bool {
        self.stream_length == other.stream_length
            && self.tile_size == other.tile_size
            && self.rng_bank_size == other.rng_bank_size
            && self.synchronizer_depth == other.synchronizer_depth
            && self.measure_scc == other.measure_scc
    }
}

impl Eq for PipelineConfig {}

impl Hash for PipelineConfig {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.stream_length.hash(state);
        self.tile_size.hash(state);
        self.rng_bank_size.hash(state);
        self.synchronizer_depth.hash(state);
        self.measure_scc.hash(state);
    }
}

/// Number of brightness buckets the measured-SCC probe stimulus is quantised
/// into ([`PipelineConfig::measure_scc`]): a tile's mean pixel value maps to
/// bucket `⌊mean × 64⌋` (clamped to 63) and the probe runs at the bucket's
/// midpoint `(bucket + 0.5) / 64`. A step of 1/64 is far below the stimulus
/// swing the probe verdict is robust to (the decision-parity test holds from
/// 0.23 to 0.5), so quantisation changes no repair decisions — it only makes
/// equal-class tiles of similar brightness share one compiled plan.
pub const MEASURE_BUCKETS: usize = 64;

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            stream_length: 256,
            tile_size: 10,
            rng_bank_size: 8,
            // The Gaussian-blur outputs carry longer runs of identical bits
            // than raw generator streams, so a save depth of 2 (rather than
            // the minimal 1) is needed for the synchronizer variant to match
            // regeneration accuracy; see the ablation_depth experiment.
            synchronizer_depth: 2,
            measure_scc: None,
            telemetry: TelemetrySink::disabled(),
            threads: None,
            window: None,
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

    /// Sets the dispatch window (clamped to ≥ 1).
    #[must_use]
    pub fn with_window(mut self, window: usize) -> Self {
        self.window = Some(window.max(1));
        self
    }

    /// Attaches a telemetry sink; every pipeline run with this config records
    /// its per-stage spans, counters, and histograms into it.
    #[must_use]
    pub fn with_telemetry(mut self, sink: TelemetrySink) -> Self {
        self.telemetry = sink;
        self
    }

    /// The worker-thread count of a one-shot run or an
    /// [`crate::ImageServer`] built from this config: [`Self::threads`], or
    /// the available parallelism when unset.
    ///
    /// # Errors
    ///
    /// [`ImageError::EmptyImage`] for degenerate configurations (zero tile
    /// size, stream length, or source-bank size).
    pub(crate) fn checked_threads(&self) -> Result<usize, ImageError> {
        if self.tile_size == 0 || self.stream_length == 0 || self.rng_bank_size == 0 {
            return Err(ImageError::EmptyImage);
        }
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

/// Execution statistics of one [`run_sc_pipeline_with_stats`] call.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PipelineStats {
    /// Number of tiles processed.
    pub tiles: usize,
    /// Number of graph compilations actually run. Tiles of equal shape and
    /// equal source-bank phase (tile origin modulo the bank pattern's 4×2
    /// period) — and, in measured-SCC mode, equal quantised brightness
    /// bucket — share one compiled template and bind their own select-LFSR
    /// seeds as job inputs, so this counts *distinct tile classes*, not
    /// tiles.
    pub compilations: usize,
    /// What the streaming tile dispatch did ([`sc_graph::StreamStats`]):
    /// `stream.peak_in_flight` bounds the simultaneously-live planned tiles
    /// (their inputs; the per-class templates they share are counted by
    /// `compilations`) and never exceeds the dispatch window, which is how
    /// streaming keeps whole-image memory at O(window) instead of
    /// O(tiles); `stream.jobs == tiles`. The peak depends on the worker
    /// count, so it is excluded from cross-thread comparisons. Per-class tallies live on the attached
    /// [`TelemetrySink`]'s report ([`sc_telemetry::TelemetryReport::classes`]).
    pub stream: StreamStats,
    /// Duplicate source generators the emitted plans share — one physical
    /// generator per distinct spec, the shared-RNG hardware of §II.B —
    /// across all tile-class compiles (summed
    /// [`sc_graph::CompileReport::shared_sources`]).
    pub shared_sources: usize,
}

/// Runs the stochastic accelerator over the whole image, tile by tile, and
/// returns the edge-magnitude output image.
///
/// # Errors
///
/// Returns an [`ImageError`] only for degenerate configurations (zero-sized
/// tiles or streams are rejected as [`ImageError::EmptyImage`]).
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

/// Like [`run_sc_pipeline`], also reporting how much compilation work the
/// plan cache saved and how many planned tiles the streaming window kept
/// live at its peak — the one config-driven run: [`PipelineConfig::threads`]
/// and [`PipelineConfig::window`] pick the worker count and the window.
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
/// order, at any worker count and any window.
///
/// # Errors
///
/// Returns an [`ImageError`] only for degenerate configurations (zero-sized
/// tiles or streams are rejected as [`ImageError::EmptyImage`]).
pub fn run_sc_pipeline_with_stats(
    image: &GrayImage,
    variant: PipelineVariant,
    config: &PipelineConfig,
) -> Result<(GrayImage, PipelineStats), ImageError> {
    let executor = Executor::new(config.stream_length)
        .with_threads(config.checked_threads()?)
        .with_telemetry(config.telemetry.clone());
    let window = config.window.unwrap_or_else(|| executor.default_window());
    let mut output = GrayImage::filled(image.width(), image.height(), 0.0);
    // A fresh per-run planner keeps the historical unbounded per-run cache;
    // the serving tier ([`crate::ImageServer`]) is the front that holds one
    // planner across many requests.
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
    let (results, stream) = executor
        .run_stream_with_stats(jobs, window)
        .expect("tile graphs execute over their own batch input");
    stats.stream = stream;

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

    /// The cross-tile dispatcher is bit-identical at every worker count and
    /// window for every variant (including a cache-hitting 12×12 image whose
    /// templates are shared across tiles), so the parallelism is
    /// purely a throughput lever, and the window bounds the live plans: at
    /// most `window` at once, and every tile at once when it is unbounded.
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
            let seq_window = Executor::new(config.stream_length)
                .with_threads(1)
                .default_window();
            assert!(
                seq_stats.stream.peak_in_flight <= seq_window,
                "inline path holds at most the window ({seq_window}) of plans, \
                 saw {}",
                seq_stats.stream.peak_in_flight
            );
            for threads in [2usize, 8] {
                let default_window = threads * sc_graph::DEFAULT_WINDOW_FACTOR;
                for window in [1, threads, default_window, usize::MAX] {
                    let (sharded, stats) = run_sc_pipeline_with_stats(
                        &img,
                        variant,
                        &config.clone().with_threads(threads).with_window(window),
                    )
                    .unwrap();
                    assert_eq!(
                        sharded, sequential,
                        "{variant:?} at {threads} threads, window {window} diverged \
                         from 1 thread"
                    );
                    // Planning work is thread-invariant; the peak of live
                    // plans is a property of the window, not of the results,
                    // so it is compared against its bound rather than across
                    // thread counts.
                    assert_eq!(stats.tiles, seq_stats.tiles, "{variant:?} tile count");
                    assert_eq!(
                        stats.compilations, seq_stats.compilations,
                        "{variant:?} compilations are thread-invariant"
                    );
                    let peak = stats.stream.peak_in_flight;
                    assert!(
                        peak <= window,
                        "{variant:?} at {threads} threads: {peak} live plans exceed \
                         window {window}"
                    );
                    // The pool path admits the whole image before the first
                    // result when nothing bounds it: the O(tiles) exposure
                    // the bounded windows avoid.
                    if window == usize::MAX {
                        assert_eq!(
                            peak, stats.tiles,
                            "{variant:?} at {threads} threads: an unbounded window \
                             plans every tile ahead of the first result"
                        );
                    }
                }
            }
        }
    }
}
