//! The **emit** stage: dense slot assignment and step emission in
//! topological order, one step per node.

use super::repair::Repaired;
use crate::compile::{CompileReport, CompiledGraph, PassDelta, Step};
use crate::node::{NodeOp, Wire};
use sc_rng::SourceSpec;
use std::collections::HashSet;
use std::sync::Arc;

/// Walks the topological order, assigns dense slots, and emits one step per
/// node of the repaired graph.
pub(crate) fn emit_steps(
    repaired: &Repaired<'_>,
    order: &[usize],
    mut report: CompileReport,
) -> CompiledGraph {
    let port = |i: usize, p: u8| Wire {
        node: crate::node::NodeId(i),
        port: p,
    };

    // Slot of each `(node, port)` output, at `2 · node + port` (a node has
    // at most two outputs); slots are numbered in order of first use.
    const UNASSIGNED: usize = usize::MAX;
    let mut slots = vec![UNASSIGNED; 2 * repaired.len()];
    let mut slot_count = 0usize;
    let mut slot_of = |w: Wire, slots: &mut [usize]| -> usize {
        let slot = &mut slots[2 * w.node().index() + w.port() as usize];
        if *slot == UNASSIGNED {
            *slot = slot_count;
            slot_count += 1;
        }
        *slot
    };

    let mut steps = Vec::with_capacity(order.len());
    let mut value_slots = 0usize;
    let mut stream_slots = 0usize;

    for &i in order {
        let inputs = repaired.inputs(i);
        let step = match repaired.op(i) {
            NodeOp::InputStream { slot } => {
                stream_slots = stream_slots.max(slot + 1);
                let dst = slot_of(port(i, 0), &mut slots);
                Step::Input { slot: *slot, dst }
            }
            NodeOp::Generate { slot, source, skip } => {
                value_slots = value_slots.max(slot + 1);
                let dst = slot_of(port(i, 0), &mut slots);
                Step::Generate {
                    slot: *slot,
                    source: source.clone(),
                    skip: *skip,
                    dst,
                }
            }
            NodeOp::ConstStream {
                probability,
                source,
                skip,
            } => {
                let dst = slot_of(port(i, 0), &mut slots);
                Step::Constant {
                    probability: *probability,
                    source: source.clone(),
                    skip: *skip,
                    dst,
                }
            }
            NodeOp::Manipulate(kind) => {
                let x = slot_of(inputs[0], &mut slots);
                let y = slot_of(inputs[1], &mut slots);
                let dst_x = slot_of(port(i, 0), &mut slots);
                let dst_y = slot_of(port(i, 1), &mut slots);
                Step::Manipulate {
                    kind: *kind,
                    x,
                    y,
                    dst_x,
                    dst_y,
                }
            }
            NodeOp::Regenerate { source, skip } => {
                let src = slot_of(inputs[0], &mut slots);
                let dst = slot_of(port(i, 0), &mut slots);
                Step::Regenerate {
                    source: source.clone(),
                    skip: *skip,
                    src,
                    dst,
                }
            }
            NodeOp::Not => {
                let src = slot_of(inputs[0], &mut slots);
                let dst = slot_of(port(i, 0), &mut slots);
                Step::Not { src, dst }
            }
            NodeOp::Binary(op) => {
                let x = slot_of(inputs[0], &mut slots);
                let y = slot_of(inputs[1], &mut slots);
                let dst = slot_of(port(i, 0), &mut slots);
                Step::Binary { op: *op, x, y, dst }
            }
            NodeOp::UnaryFsm(op) => {
                let src = slot_of(inputs[0], &mut slots);
                let dst = slot_of(port(i, 0), &mut slots);
                Step::UnaryFsm { op: *op, src, dst }
            }
            NodeOp::Divide {
                source,
                skip,
                counter_bits,
            } => {
                let x = slot_of(inputs[0], &mut slots);
                let y = slot_of(inputs[1], &mut slots);
                let dst = slot_of(port(i, 0), &mut slots);
                Step::Divide {
                    source: source.clone(),
                    skip: *skip,
                    counter_bits: *counter_bits,
                    x,
                    y,
                    dst,
                }
            }
            NodeOp::MuxAdd { select, skip } => {
                let x = slot_of(inputs[0], &mut slots);
                let y = slot_of(inputs[1], &mut slots);
                let dst = slot_of(port(i, 0), &mut slots);
                Step::MuxAdd {
                    select: select.clone(),
                    skip: *skip,
                    x,
                    y,
                    dst,
                }
            }
            NodeOp::WeightedMux {
                weights,
                select,
                skip,
            } => {
                let srcs: Vec<usize> = inputs.iter().map(|w| slot_of(*w, &mut slots)).collect();
                let dst = slot_of(port(i, 0), &mut slots);
                Step::WeightedMux {
                    weights: weights.clone(),
                    select: select.clone(),
                    skip: *skip,
                    srcs,
                    dst,
                }
            }
            NodeOp::SinkStream { name } => {
                let src = slot_of(inputs[0], &mut slots);
                Step::SinkStream {
                    name: Arc::from(name.as_str()),
                    src,
                }
            }
            NodeOp::SinkValue { name } => {
                let src = slot_of(inputs[0], &mut slots);
                Step::SinkValue {
                    name: Arc::from(name.as_str()),
                    src,
                }
            }
            NodeOp::SinkCount { name } => {
                let src = slot_of(inputs[0], &mut slots);
                Step::SinkCount {
                    name: Arc::from(name.as_str()),
                    src,
                }
            }
            NodeOp::SinkSum { name } => {
                let srcs: Vec<usize> = inputs.iter().map(|w| slot_of(*w, &mut slots)).collect();
                Step::SinkSum {
                    name: Arc::from(name.as_str()),
                    srcs,
                }
            }
            NodeOp::SccProbe { name } => {
                let x = slot_of(inputs[0], &mut slots);
                let y = slot_of(inputs[1], &mut slots);
                Step::SccProbe {
                    name: Arc::from(name.as_str()),
                    x,
                    y,
                }
            }
        };
        steps.push(step);
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
        .filter_map(crate::cost::step_source)
        .filter(|&spec| {
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

    CompiledGraph::assemble(steps, slot_count, value_slots, stream_slots, report)
}
