//! The **emit** stage: dense slot assignment and step emission in
//! topological order, one step per node.

use super::repair::Repaired;
use crate::compile::{CompileReport, CompiledGraph, PassDelta, Step};
use crate::node::NodeOp;
use sc_rng::SourceSpec;
use std::collections::HashSet;

/// Walks the topological order and emits one step per node of the repaired
/// graph: the node's op over its input slots, looked up, and its output
/// ports, each given the next fresh slot.
pub(crate) fn emit_steps(
    repaired: &Repaired<'_>,
    order: &[usize],
    mut report: CompileReport,
) -> CompiledGraph {
    // Slot of each `(node, port)` output, at `2 · node + port` (a node has
    // at most two outputs). A producer is emitted before its consumers, so
    // slots are numbered in order of first use and a node's output slots
    // are consecutive.
    const UNASSIGNED: usize = usize::MAX;
    let mut slots = vec![UNASSIGNED; 2 * repaired.len()];
    let mut slot_count = 0usize;

    let mut steps = Vec::with_capacity(order.len());
    let wires = order.iter().map(|&i| repaired.inputs(i).len()).sum();
    let mut srcs = Vec::with_capacity(wires);
    let mut value_slots = 0usize;
    let mut stream_slots = 0usize;

    for &i in order {
        let start = srcs.len();
        srcs.extend(repaired.inputs(i).iter().map(|w| {
            let slot = slots[2 * w.node().index() + w.port() as usize];
            debug_assert_ne!(slot, UNASSIGNED, "{w} is read before it is emitted");
            slot
        }));
        let op = repaired.op(i);
        let dst = slot_count;
        for port in 0..op.output_ports() {
            slots[2 * i + port] = slot_count;
            slot_count += 1;
        }
        if let NodeOp::InputStream { slot } = op {
            stream_slots = stream_slots.max(slot + 1);
        }
        if let NodeOp::Generate { slot, .. } = op {
            value_slots = value_slots.max(slot + 1);
        }
        steps.push(Step {
            op: op.clone(),
            srcs: start..srcs.len(),
            dst,
        });
    }

    // Shared-source accounting: under the shared-RNG hardware of §II.B each
    // distinct spec drives one physical sample generator; count the
    // generator instances the sharing saves. Runs of one spec (a blur's or
    // an edge detector's select steps) compare against their predecessor
    // instead of hashing again.
    let mut seen: HashSet<&SourceSpec> = HashSet::with_capacity(steps.len());
    let mut previous = None;
    report.shared_sources = steps
        .iter()
        .filter_map(|step| step.op.source())
        .filter(|&(spec, _)| {
            let repeat = previous == Some(spec) || !seen.insert(spec);
            previous = Some(spec);
            repeat
        })
        .count();

    report.pass_deltas.push(PassDelta {
        pass: "emit",
        nodes_added: 0,
        detail: format!("{} steps", steps.len()),
    });

    CompiledGraph::assemble(steps, srcs, slot_count, value_slots, stream_slots, report)
}
