//! The **results-assembly layer** of the tiled pipeline: scattering per-tile
//! sink values back into the output image.
//!
//! Both execution fronts end here — the one-shot streaming pipeline after
//! its dispatch drains, and the serving tier when a request's
//! [`sc_graph::RequestReport`] arrives — so the scatter is one shared,
//! telemetry-instrumented function rather than two copies.

use crate::image::GrayImage;
use sc_graph::ExecOutput;
use sc_telemetry::{Stage, TelemetrySink};
use std::sync::Arc;

/// Where one tile's value sinks land in the output image: the tile origin
/// plus its plan's tile-relative pixel layout, in the plan's sink order
/// ([`ExecOutput::sink_values`]). The layout is built once per compiled tile
/// class and shared by every tile of that class, so a planned tile carries
/// no per-pixel data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TileSinks {
    x0: usize,
    y0: usize,
    layout: Arc<[(usize, usize)]>,
}

impl TileSinks {
    pub(crate) fn new(x0: usize, y0: usize, layout: Arc<[(usize, usize)]>) -> Self {
        TileSinks { x0, y0, layout }
    }

    /// Output-image coordinates of the tile's value sinks, in sink order.
    pub(crate) fn pixels(&self) -> impl ExactSizeIterator<Item = (usize, usize)> + '_ {
        self.layout
            .iter()
            .map(|&(dx, dy)| (self.x0 + dx, self.y0 + dy))
    }
}

/// Scatters each tile's sink values into the output image. `sinks[i]` holds
/// tile `i`'s sink layout and `results[i]` the tile's executed outputs, in
/// the same tile order; values are placed by position, with no name lookup.
///
/// # Panics
///
/// Panics if a tile's output holds a different number of values than its
/// layout has pixels — tile graphs emit one value sink per pixel by
/// construction, so a mismatch is a planner/executor contract violation, not
/// a runtime condition.
pub fn scatter_sinks(
    output: &mut GrayImage,
    sinks: &[TileSinks],
    results: &[ExecOutput],
    telemetry: &TelemetrySink,
) {
    let _collect = telemetry.span(Stage::SinkCollect);
    for (tile, result) in sinks.iter().zip(results) {
        let values = result.sink_values();
        assert_eq!(
            values.len(),
            tile.layout.len(),
            "every tile pixel has a value sink"
        );
        for ((x, y), &value) in tile.pixels().zip(values) {
            output.set(x, y, value);
        }
    }
}
