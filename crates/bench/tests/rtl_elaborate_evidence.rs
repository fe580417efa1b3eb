//! The committed `BENCH_rtl_elaborate.json` describes the design the
//! elaborator builds today.
//!
//! The full-size synchronizer tile is elaborated exactly as the
//! `rtl_elaborate` binary does it, and every deterministic field of the
//! committed file — plan steps, cells, nets, primitive instances and the
//! cell histogram — must equal it. Every select line a `wsel` cell drives
//! must be read by a mux, so a select tree leaves no dangling net. Timings and the rest of the host block
//! move with the machine and are not compared; the host block must not carry
//! the `lanes` field the executor no longer has. Regenerate the file with
//! `cargo run --release -p sc_bench --bin rtl_elaborate` from the
//! repository root.

use sc_image::{planner_options, tile_graph, GrayImage, PipelineConfig, PipelineVariant};
use sc_rtl::{elaborate, sink_counter_bits, CellKind, NetRef};
use sc_telemetry::json::{parse, Json};
use std::collections::HashSet;

const EVIDENCE: &str = include_str!("../../../BENCH_rtl_elaborate.json");

#[test]
fn committed_evidence_matches_the_elaborated_tile() {
    let variant = PipelineVariant::Synchronizer;
    let config = PipelineConfig::default();
    let image = GrayImage::gaussian_blob(config.tile_size + 4, config.tile_size + 4);
    let tile = tile_graph(&image, 0, 0, variant, &config, 0);
    let plan = tile
        .graph
        .compile(&planner_options(variant, &config))
        .expect("tile graph compiles");
    let design = elaborate(&plan, &tile.input, config.stream_length).expect("tile plan lowers");
    let netlist = design.netlist("gb-ed-tile", sink_counter_bits(config.stream_length));

    let evidence = parse(EVIDENCE).expect("BENCH_rtl_elaborate.json parses");
    let field = |key: &str| evidence.get(key).and_then(Json::as_u64);
    assert_eq!(field("plan_steps"), Some(plan.step_count() as u64));
    assert_eq!(field("cells"), Some(design.cell_count() as u64));
    assert_eq!(field("nets"), Some(design.net_count() as u64));
    assert_eq!(
        field("primitive_instances"),
        Some(netlist.cell_count() as u64)
    );
    let Some(Json::Obj(histogram)) = evidence.get("cell_histogram") else {
        panic!("cell_histogram is an object");
    };
    let committed: Vec<(&str, Option<u64>)> = histogram
        .iter()
        .map(|(kind, count)| (kind.as_str(), count.as_u64()))
        .collect();
    let elaborated: Vec<(&str, Option<u64>)> = design
        .kind_histogram()
        .into_iter()
        .map(|(kind, count)| (kind, Some(count as u64)))
        .collect();
    assert_eq!(committed, elaborated, "cell histogram");
    let read: HashSet<NetRef> = design
        .cells()
        .iter()
        .flat_map(|cell| cell.inputs.iter().copied())
        .collect();
    for cell in design.cells() {
        if matches!(cell.kind, CellKind::SelectOneHot { .. }) {
            for line in &cell.outputs {
                assert!(read.contains(line), "select line {line:?} is never read");
            }
        }
    }
    let host = evidence.get("host").expect("host block");
    assert!(host.get("lanes").is_none(), "stale host field `lanes`");
}
