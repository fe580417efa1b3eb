//! The tiled GB→ED accelerator expressed as `sc_graph` dataflow graphs.
//!
//! Since the graph subsystem landed, this module is the *primary*
//! implementation of the stochastic pipeline: [`crate::run_sc_pipeline`] is a
//! thin wrapper that builds one graph per tile class (the circuit of
//! [`tile_graph`]), compiles it with the variant's [`planner_options`], and
//! executes it for every tile of the class. The hand-rolled
//! per-tile loop it replaced is retained in this module's tests as the
//! bit-identity reference.
//!
//! The translation is exact, not approximate:
//!
//! * each haloed input pixel becomes a `Generate` node whose Sobol dimension
//!   is chosen by the same bank-assignment rule as before
//!   ([`pixel_bank_index`]);
//! * each blurred pixel becomes a 9-way `WeightedMux` node. The hardware
//!   shares one select LFSR across the tile's blur kernels, which the graph
//!   expresses by giving the `k`-th kernel the same [`SourceSpec`] advanced
//!   by `k·N` samples ([`sc_rng::SourceSpec::build_skipped`]) — bit-identical
//!   to streaming the kernels sequentially off one source. The executor
//!   reads each kernel's window as an offset into one memoized cycle table
//!   of the 16-bit LFSR, shared by every kernel, tile index and request, so
//!   a skip costs one table lookup;
//! * the regeneration variant inserts explicit `Regenerate` nodes, whose
//!   equal source specs the planner recognises as producing positively
//!   correlated outputs — so it leaves the XOR subtractors alone;
//! * the synchronizer variant inserts **nothing by hand**: the XOR
//!   subtractors declare their SCC +1 precondition and the planner
//!   auto-inserts a depth-`config.synchronizer_depth` synchronizer in front
//!   of each one, reproducing Fig. 5 automatically;
//! * the no-manipulation variant compiles with auto-repair off, which leaves
//!   the precondition violations in the compile report (and the accuracy loss
//!   in the output — Table IV's first column).
//!
//! The same compiled tile is the accelerator's hardware: [`tile_netlist`]
//! prices a variant from its full-size tile plan (Table IV's area and energy
//! columns).

use crate::gaussian::GAUSSIAN_WEIGHTS;
use crate::image::{GrayImage, ImageError};
use crate::pipeline::{PipelineConfig, PipelineVariant};
use sc_graph::{BatchInput, BinaryOp, Graph, NodeId, PlannerOptions, Wire};
use sc_hwcost::Netlist;
use sc_rng::SourceSpec;

/// The largest source bank [`pixel_bank_index`] can use: its pattern has
/// periods 4 (x) and 2 (y), so it addresses at most 8 distinct sources.
/// Larger [`PipelineConfig::rng_bank_size`]s are configuration errors.
pub const MAX_RNG_BANK_SIZE: usize = 8;

/// Assigns a source-bank entry to an input pixel so that horizontally and
/// vertically adjacent pixels draw from different (mutually uncorrelated)
/// Sobol dimensions.
#[must_use]
pub fn pixel_bank_index(px: isize, py: isize, config: &PipelineConfig) -> u32 {
    let bank = config.rng_bank_size.clamp(1, MAX_RNG_BANK_SIZE);
    (((px.rem_euclid(4) as usize) + 4 * (py.rem_euclid(2) as usize)) % bank) as u32
}

/// The select LFSR shared by a tile's Gaussian-blur kernels, seeded per
/// tile.
#[must_use]
pub fn blur_select_spec(tile_index: u64) -> SourceSpec {
    SourceSpec::Lfsr {
        width: 16,
        seed: 0xACE1 ^ (tile_index.wrapping_mul(2654435761) & 0xFFFF).max(1),
    }
}

/// The select LFSR shared by a tile's edge-detector MUX adders, seeded per
/// tile.
#[must_use]
pub fn edge_select_spec(tile_index: u64) -> SourceSpec {
    SourceSpec::Lfsr {
        width: 16,
        seed: 0x7331 ^ (tile_index.wrapping_mul(40503) & 0xFFFF).max(1),
    }
}

/// The pixel extent of the tile whose top-left corner is `(x0, y0)`:
/// `x0..x_end` × `y0..y_end`, truncated at the image border.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TileRegion {
    pub(crate) x0: usize,
    pub(crate) y0: usize,
    pub(crate) x_end: usize,
    pub(crate) y_end: usize,
}

impl TileRegion {
    pub(crate) fn new(image: &GrayImage, x0: usize, y0: usize, tile_size: usize) -> Self {
        TileRegion {
            x0,
            y0,
            x_end: (x0 + tile_size).min(image.width()),
            y_end: (y0 + tile_size).min(image.height()),
        }
    }

    /// Tile width and height.
    pub(crate) fn shape(&self) -> (usize, usize) {
        (self.x_end - self.x0, self.y_end - self.y0)
    }

    /// The haloed input pixels in raster order, which is the order of the
    /// tile's `Generate` value slots. GB needs one extra ring and the ED
    /// needs GB outputs one past the tile edge, so the halo is one pixel
    /// wide on the low side and two on the high side.
    pub(crate) fn halo(&self) -> impl Iterator<Item = (isize, isize)> {
        let xs = (self.x0 as isize - 1)..=(self.x_end as isize + 1);
        let ys = (self.y0 as isize - 1)..=(self.y_end as isize + 1);
        ys.flat_map(move |py| xs.clone().map(move |px| (px, py)))
    }

    /// The tile's input values: the image (edge-clamped) over [`Self::halo`].
    pub(crate) fn halo_values(&self, image: &GrayImage) -> Vec<f64> {
        let (width, height) = self.shape();
        let mut values = Vec::with_capacity((width + 3) * (height + 3));
        values.extend(self.halo().map(|(px, py)| image.get_clamped(px, py)));
        values
    }
}

/// The planner configuration of each accelerator variant.
///
/// * [`PipelineVariant::NoManipulation`] — auto-repair off: precondition
///   violations are reported, not fixed.
/// * [`PipelineVariant::Regeneration`] — auto-repair on but structurally
///   idle: the regenerated streams satisfy the XORs' +1 precondition.
/// * [`PipelineVariant::Synchronizer`] — auto-repair on with the variant's
///   save depth: the planner inserts one synchronizer per XOR subtractor.
#[must_use]
pub fn planner_options(variant: PipelineVariant, config: &PipelineConfig) -> PlannerOptions {
    match variant {
        PipelineVariant::NoManipulation => PlannerOptions::no_repair(),
        PipelineVariant::Regeneration | PipelineVariant::Synchronizer => PlannerOptions {
            synchronizer_depth: config.synchronizer_depth,
            ..PlannerOptions::default()
        },
    }
}

/// A built tile graph: the graph itself, the batch item carrying the tile's
/// input pixel values, and the `(x, y, sink name)` triple of every output
/// pixel.
#[derive(Debug, Clone)]
pub struct TileGraph {
    /// The dataflow graph of the tile.
    pub graph: Graph,
    /// The input values feeding the tile's `Generate` nodes.
    pub input: BatchInput,
    /// Output pixel coordinates and their sink names.
    pub sinks: Vec<(usize, usize, String)>,
}

/// Builds the dataflow graph of one tile whose top-left corner is `(x0, y0)`.
#[must_use]
pub fn tile_graph(
    image: &GrayImage,
    x0: usize,
    y0: usize,
    variant: PipelineVariant,
    config: &PipelineConfig,
    tile_index: u64,
) -> TileGraph {
    let region = TileRegion::new(image, x0, y0, config.tile_size);
    let TileCircuit { graph, sinks } = tile_circuit(&region, variant, config, tile_index);
    let sinks = sinks
        .into_iter()
        .map(|(x, y, sink)| (x, y, sink_name(&graph, sink).to_string()))
        .collect();
    TileGraph {
        graph,
        input: BatchInput::with_values(region.halo_values(image)),
        sinks,
    }
}

/// A tile's circuit without its input values: the graph, and the sink node
/// of every output pixel `(x, y)` in raster order. This is the part of a
/// tile a plan-cache miss builds ([`crate::TilePlanner::plan_tile`] has
/// gathered the values already).
pub(crate) struct TileCircuit {
    pub(crate) graph: Graph,
    pub(crate) sinks: Vec<(usize, usize, NodeId)>,
}

/// The name of a tile circuit's sink node.
pub(crate) fn sink_name(graph: &Graph, sink: NodeId) -> &str {
    graph
        .node(sink)
        .op
        .sink_name()
        .expect("tile circuits record sink nodes")
}

/// Builds the circuit of the tile over `region`. Wires are kept in dense
/// grids: the haloed input pixels in raster order (the order of the value
/// slots), and the blurred pixels `x0..=x_end` × `y0..=y_end`.
pub(crate) fn tile_circuit(
    region: &TileRegion,
    variant: PipelineVariant,
    config: &PipelineConfig,
    tile_index: u64,
) -> TileCircuit {
    let n = config.stream_length as u64;
    let (x0, y0) = (region.x0, region.y0);
    let (width, height) = region.shape();
    let mut g = Graph::new();

    // 1. Input pixel streams for the haloed region, one value slot each:
    //    pixel (x0 - 1 + hx, y0 - 1 + hy) is `inputs[hy * halo_width + hx]`.
    let halo_width = width + 3;
    let mut inputs: Vec<Wire> = Vec::with_capacity(halo_width * (height + 3));
    for (slot, (px, py)) in region.halo().enumerate() {
        let dimension = pixel_bank_index(px, py, config) + 1;
        inputs.push(g.generate(slot, SourceSpec::Sobol { dimension }));
    }

    // 2. Gaussian blur for every pixel the edge detector will touch:
    //    pixel (x0 + bx, y0 + by) is `blurred[by * blur_width + bx]`, and
    //    its 3×3 neighbourhood lies inside the halo. One select LFSR is
    //    shared across the tile's kernels in raster order, expressed as
    //    per-node skips of N samples each.
    let blur_spec = blur_select_spec(tile_index);
    let blur_width = width + 1;
    let mut blurred: Vec<Wire> = Vec::with_capacity(blur_width * (height + 1));
    for by in 0..=height {
        for bx in 0..=width {
            let neighbours: [Wire; 9] =
                std::array::from_fn(|k| inputs[(by + k / 3) * halo_width + bx + k % 3]);
            let kernel_index = blurred.len() as u64;
            blurred.push(g.weighted_mux_skipped(
                &neighbours,
                &GAUSSIAN_WEIGHTS,
                blur_spec.clone(),
                kernel_index * n,
            ));
        }
    }

    // 3. Regeneration variant: re-encode every blurred stream from a fresh
    //    instance of one shared sample sequence (§II.B). The planner sees
    //    the equal specs and derives SCC +1 for every regenerated pair.
    //    Column by column, which fixes the regeneration nodes' order.
    if variant == PipelineVariant::Regeneration {
        for bx in 0..=width {
            for by in 0..=height {
                let wire = &mut blurred[by * blur_width + bx];
                *wire = g.regenerate(SourceSpec::VanDerCorput { offset: 0 }, *wire);
            }
        }
    }

    // 4. Roberts cross for every tile pixel: two XOR subtractors feeding a
    //    MUX scaled adder whose select LFSR is shared in raster order. The
    //    XORs' SCC +1 precondition is the planner's problem, not ours.
    let select_spec = edge_select_spec(tile_index);
    let mut sinks = Vec::with_capacity(width * height);
    for ty in 0..height {
        for tx in 0..width {
            let at = |dx: usize, dy: usize| blurred[(ty + dy) * blur_width + tx + dx];
            let diagonal = g.binary(BinaryOp::XorSubtract, at(0, 0), at(1, 1));
            let anti = g.binary(BinaryOp::XorSubtract, at(1, 0), at(0, 1));
            let pixel_index = sinks.len() as u64;
            let z = g.mux_add_skipped(diagonal, anti, select_spec.clone(), pixel_index * n);
            // Tile-relative sink names, so tiles of equal shape build
            // *identical* graphs up to their select-LFSR seeds and one
            // compiled plan serves them all through per-tile seed bindings.
            let sink = g.sink_value(format!("edge_{tx}_{ty}"), z);
            sinks.push((x0 + tx, y0 + ty, sink));
        }
    }

    TileCircuit { graph: g, sinks }
}

/// The hardware of one accelerator variant: the compiled plan of a
/// full-size tile, priced with one physical generator per distinct source
/// spec ([`sc_graph::CompiledGraph::shared_netlist`]).
///
/// The accelerator processes one tile at a time (§IV.A), so streaming a
/// `w`×`h` frame costs `energy_pj(⌈w/t⌉·⌈h/t⌉·N)` of this netlist. The
/// variants differ only in their correlation-manipulation hardware, so a
/// variant's manipulation overhead is its energy minus
/// [`PipelineVariant::NoManipulation`]'s.
///
/// # Errors
///
/// The configurations [`crate::run_sc_pipeline`] rejects.
pub fn tile_netlist(
    variant: PipelineVariant,
    config: &PipelineConfig,
) -> Result<Netlist, ImageError> {
    config.validate()?;
    let image = GrayImage::filled(config.tile_size, config.tile_size, 0.0);
    let region = TileRegion::new(&image, 0, 0, config.tile_size);
    let plan = tile_circuit(&region, variant, config, 0)
        .graph
        .compile(&planner_options(variant, config))
        .expect("tile graphs are structurally valid by construction");
    Ok(plan.shared_netlist(variant.label()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::run_sc_pipeline;
    use sc_graph::Executor;

    #[test]
    fn tile_graph_shape() {
        let img = GrayImage::gradient(8, 8);
        let config = PipelineConfig::quick();
        let tg = tile_graph(&img, 0, 0, PipelineVariant::Synchronizer, &config, 0);
        let t = config.tile_size;
        // (t+3)^2 inputs, (t+1)^2 blurs, t^2 × (2 xor + 1 mux + 1 sink)... for
        // an 8x8 image with t = 6 the first tile is full-sized.
        assert_eq!(tg.input.values.len(), (t + 3) * (t + 3));
        assert_eq!(tg.sinks.len(), t * t);
        let plan = tg
            .graph
            .compile(&planner_options(PipelineVariant::Synchronizer, &config))
            .unwrap();
        // One synchronizer auto-inserted per XOR subtractor.
        assert_eq!(tg.graph.node_count() + 2 * t * t, plan.step_count());
        assert_eq!(plan.report().inserted.len(), 2 * t * t);
    }

    #[test]
    fn regeneration_needs_no_repair() {
        let img = GrayImage::gradient(8, 8);
        let config = PipelineConfig::quick();
        let tg = tile_graph(&img, 0, 0, PipelineVariant::Regeneration, &config, 0);
        let plan = tg
            .graph
            .compile(&planner_options(PipelineVariant::Regeneration, &config))
            .unwrap();
        assert!(plan.report().inserted.is_empty());
        assert!(plan.report().unsatisfied.is_empty());
    }

    #[test]
    fn no_manipulation_reports_unsatisfied_preconditions() {
        let img = GrayImage::gradient(8, 8);
        let config = PipelineConfig::quick();
        let tg = tile_graph(&img, 0, 0, PipelineVariant::NoManipulation, &config, 0);
        let plan = tg
            .graph
            .compile(&planner_options(PipelineVariant::NoManipulation, &config))
            .unwrap();
        assert!(plan.report().inserted.is_empty());
        assert!(!plan.report().unsatisfied.is_empty());
    }

    /// The retained pre-graph implementation of one tile, verbatim: the
    /// executable specification the graph translation is checked against.
    mod reference {
        use crate::edge::sc_edge_detector;
        use crate::gaussian::ScGaussianBlur;
        use crate::image::GrayImage;
        use crate::pipeline::{PipelineConfig, PipelineVariant};
        use sc_bitstream::{Bitstream, Probability};
        use sc_convert::DigitalToStochastic;
        use sc_core::{CorrelationManipulator, Synchronizer};
        use sc_rng::{Lfsr, Sobol, VanDerCorput};
        use std::collections::HashMap;

        fn generate_pixel_stream(
            value: f64,
            px: isize,
            py: isize,
            config: &PipelineConfig,
        ) -> Bitstream {
            let bank = config.rng_bank_size.clamp(1, 8);
            let idx = ((px.rem_euclid(4) as usize) + 4 * (py.rem_euclid(2) as usize)) % bank;
            let mut generator = DigitalToStochastic::new(Sobol::new(idx as u32 + 1));
            generator.generate(Probability::saturating(value), config.stream_length)
        }

        pub fn process_tile(
            image: &GrayImage,
            output: &mut GrayImage,
            x0: usize,
            y0: usize,
            variant: PipelineVariant,
            config: &PipelineConfig,
            tile_index: u64,
        ) {
            let tile = config.tile_size;
            let n = config.stream_length;
            let x_end = (x0 + tile).min(image.width());
            let y_end = (y0 + tile).min(image.height());

            let mut inputs: HashMap<(isize, isize), Bitstream> = HashMap::new();
            for py in (y0 as isize - 1)..=(y_end as isize + 1) {
                for px in (x0 as isize - 1)..=(x_end as isize + 1) {
                    let value = image.get_clamped(px, py);
                    inputs.insert((px, py), generate_pixel_stream(value, px, py, config));
                }
            }

            let mut blur = ScGaussianBlur::new(Lfsr::new(
                16,
                0xACE1 ^ (tile_index.wrapping_mul(2654435761) & 0xFFFF).max(1),
            ));
            let mut blurred: HashMap<(isize, isize), Bitstream> = HashMap::new();
            for gy in (y0 as isize)..=(y_end as isize) {
                for gx in (x0 as isize)..=(x_end as isize) {
                    let mut neighbours: Vec<&Bitstream> = Vec::with_capacity(9);
                    for dy in -1..=1isize {
                        for dx in -1..=1isize {
                            let key = (
                                (gx + dx).clamp(x0 as isize - 1, x_end as isize + 1),
                                (gy + dy).clamp(y0 as isize - 1, y_end as isize + 1),
                            );
                            neighbours.push(&inputs[&key]);
                        }
                    }
                    blurred.insert((gx, gy), blur.apply(&neighbours));
                }
            }

            if variant == PipelineVariant::Regeneration {
                for stream in blurred.values_mut() {
                    let ones = stream.count_ones() as u64;
                    let mut regen = DigitalToStochastic::new(VanDerCorput::new());
                    *stream = regen.generate(Probability::from_ratio(ones, n as u64), n);
                }
            }

            let mut select_source = Lfsr::new(
                16,
                0x7331 ^ (tile_index.wrapping_mul(40503) & 0xFFFF).max(1),
            );
            for y in y0..y_end {
                for x in x0..x_end {
                    let clamp_key = |px: isize, py: isize| {
                        (
                            (px).clamp(x0 as isize, x_end as isize),
                            (py).clamp(y0 as isize, y_end as isize),
                        )
                    };
                    let a = &blurred[&clamp_key(x as isize, y as isize)];
                    let b = &blurred[&clamp_key(x as isize + 1, y as isize)];
                    let c = &blurred[&clamp_key(x as isize, y as isize + 1)];
                    let d = &blurred[&clamp_key(x as isize + 1, y as isize + 1)];

                    let result = if variant == PipelineVariant::Synchronizer {
                        let mut sync_ad = Synchronizer::new(config.synchronizer_depth);
                        let (a2, d2) = sync_ad.process(a, d).expect("equal-length tile streams");
                        let mut sync_bc = Synchronizer::new(config.synchronizer_depth);
                        let (b2, c2) = sync_bc.process(b, c).expect("equal-length tile streams");
                        sc_edge_detector(&a2, &b2, &c2, &d2, &mut select_source)
                    } else {
                        sc_edge_detector(a, b, c, d, &mut select_source)
                    }
                    .expect("equal-length tile streams");

                    output.set(x, y, result.value());
                }
            }
        }
    }

    /// The headline regression: the graph-compiled pipeline is bit-identical
    /// (and therefore value-identical per pixel) to the retained hand-rolled
    /// implementation, for every variant, including truncated border tiles —
    /// and including image sizes where the per-shape plan cache actually
    /// *hits*, so retargeted cached plans are pinned against the reference
    /// too (a 12×12 image with 6-pixel tiles reuses plans across tiles).
    #[test]
    fn graph_pipeline_is_bit_identical_to_reference_loop() {
        let config = PipelineConfig {
            stream_length: 96, // a partial final word, on purpose
            tile_size: 6,      // 8x8 image → 4 tiles, 3 of them truncated
            rng_bank_size: 8,
            synchronizer_depth: 2,
            ..PipelineConfig::quick()
        };
        for size in [8usize, 12] {
            let blob = GrayImage::gaussian_blob(size, size);
            let img = GrayImage::from_fn(size, size, |x, y| {
                0.7 * blob.get(x, y) + 0.3 * (y as f64 / size as f64)
            });
            for variant in PipelineVariant::all() {
                let via_graph = run_sc_pipeline(&img, variant, &config).unwrap();
                let mut reference_out = GrayImage::filled(img.width(), img.height(), 0.0);
                let mut tile_index = 0u64;
                let mut y0 = 0;
                while y0 < img.height() {
                    let mut x0 = 0;
                    while x0 < img.width() {
                        reference::process_tile(
                            &img,
                            &mut reference_out,
                            x0,
                            y0,
                            variant,
                            &config,
                            tile_index,
                        );
                        tile_index += 1;
                        x0 += config.tile_size;
                    }
                    y0 += config.tile_size;
                }
                assert_eq!(
                    via_graph, reference_out,
                    "{variant:?} at {size}x{size}: graph pipeline diverged from the reference loop"
                );
                // The streaming dispatcher must match the retained
                // sequential reference at one worker and at many.
                for threads in [1usize, 4] {
                    let (dispatched, _) = crate::pipeline::run_sc_pipeline_with_threads(
                        &img, variant, &config, threads,
                    )
                    .unwrap();
                    assert_eq!(
                        dispatched, reference_out,
                        "{variant:?} at {size}x{size}, {threads} threads: streaming \
                         dispatch diverged from the reference loop"
                    );
                }
            }
        }
    }

    #[test]
    fn tile_graph_executes_standalone() {
        let img = GrayImage::checkerboard(8, 8, 2);
        let config = PipelineConfig::quick();
        let tg = tile_graph(&img, 0, 0, PipelineVariant::Synchronizer, &config, 0);
        let plan = tg
            .graph
            .compile(&planner_options(PipelineVariant::Synchronizer, &config))
            .unwrap();
        let out = Executor::new(config.stream_length)
            .run(&plan, &tg.input)
            .unwrap();
        for (_, _, name) in &tg.sinks {
            let v = out.value(name).expect("every sink produced a value");
            assert!((0.0..=1.0).contains(&v));
        }
    }
}
