//! # sc-image
//!
//! The image-processing case study of §IV: a stochastic-computing accelerator
//! that runs a Gaussian blur (GB) followed by a Roberts-cross edge detector
//! (ED) over an image in 10×10 tiles.
//!
//! The pipeline is the paper's motivating example for correlation
//! manipulation: the SC Gaussian blur wants *uncorrelated* inputs while the
//! SC edge detector's XOR subtractors want *positively correlated* inputs, so
//! something has to fix up correlation between the two kernels. Three
//! accelerator variants are modelled (Table IV):
//!
//! * [`PipelineVariant::NoManipulation`] — GB outputs feed the ED directly
//!   (cheap but inaccurate),
//! * [`PipelineVariant::Regeneration`] — every GB output is converted back to
//!   binary and re-encoded from a shared source (accurate but expensive),
//! * [`PipelineVariant::Synchronizer`] — a synchronizer is inserted in front
//!   of each ED subtractor pair (accurate and far cheaper).
//!
//! The stochastic pipeline is implemented on the `sc_graph` dataflow engine:
//! every tile is built as a graph ([`graph::tile_graph`]) whose XOR
//! subtractors declare their SCC +1 precondition, and the synchronizer
//! variant's correlation repair is **auto-inserted by the graph planner**
//! rather than wired by hand. [`run_sc_pipeline`] is a thin wrapper over
//! build → compile → execute; the pre-graph per-tile loop is retained in
//! `graph`'s tests as the bit-identity reference.
//!
//! **Hardware cost.** Table IV's area and energy columns come from the same
//! compiled plans: [`tile_netlist`] compiles a full-size tile and prices it
//! with [`sc_graph::CompiledGraph::shared_netlist`], one physical generator
//! per distinct source spec (§II.B). Energy per frame integrates that
//! netlist over `⌈w/t⌉·⌈h/t⌉·N` cycles, and a variant's manipulation
//! overhead is its energy minus the no-manipulation variant's.
//!
//! **Observability.** [`PipelineConfig::with_telemetry`] attaches an
//! [`sc_telemetry::TelemetrySink`] that the whole run records into: per-tile
//! plan-cache hits and misses (one span per planned tile; misses nest
//! per-stage compile spans), the executor's dispatch / per-tile execute /
//! worker activity, and the final sink scatter. Draining the sink yields one
//! [`sc_telemetry::TelemetryReport`] with the per-stage time breakdown,
//! counters (jobs pulled, tiles, plan-cache hits and misses), the dispatch
//! window's peak occupancy, and the per-class job table; [`PipelineStats`]
//! holds only the run's planning tallies (tiles, compilations).
//!
//! The paper's input images are not published, so workloads are synthetic
//! ([`GrayImage::gradient`], [`GrayImage::checkerboard`],
//! [`GrayImage::gaussian_blob`], [`GrayImage::noise`]); accuracy is always
//! reported relative to the floating-point pipeline run on the *same* image,
//! so the ranking between variants is insensitive to image content.
//!
//! # Example
//!
//! ```
//! use sc_image::{GrayImage, PipelineConfig, PipelineVariant, run_sc_pipeline, run_float_pipeline};
//!
//! let image = GrayImage::gaussian_blob(20, 20);
//! let reference = run_float_pipeline(&image);
//! let config = PipelineConfig { stream_length: 64, ..PipelineConfig::default() };
//! let sc = run_sc_pipeline(&image, PipelineVariant::Synchronizer, &config)?;
//! let err = sc.mean_abs_error(&reference)?;
//! assert!(err < 0.1);
//! # Ok::<(), sc_image::ImageError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod assemble;
pub mod edge;
pub mod gaussian;
pub mod graph;
pub mod image;
pub mod pipeline;
pub mod planner;
pub mod serve;

pub use assemble::{scatter_sinks, TileSinks};
pub use edge::{roberts_cross_float, sc_edge_detector};
pub use gaussian::{gaussian_blur_float, ScGaussianBlur, GAUSSIAN_WEIGHTS};
pub use graph::{planner_options, tile_graph, tile_netlist, TileGraph, MAX_RNG_BANK_SIZE};
pub use image::{GrayImage, ImageError};
pub use pipeline::{
    run_float_pipeline, run_sc_pipeline, run_sc_pipeline_with_stats, run_sc_pipeline_with_threads,
    PipelineConfig, PipelineStats, PipelineVariant,
};
pub use planner::{tile_origins, PlannedTile, TilePlanner};
pub use sc_telemetry::{TelemetryReport, TelemetrySink};
pub use serve::{ImageHandle, ImageResponse, ImageServer, ImageServerBuilder, ImageSubmitError};
