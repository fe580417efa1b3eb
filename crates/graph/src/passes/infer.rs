//! The **scc-infer** stage: structural SCC class derivation.

use crate::compile::{CompileReport, PassDelta};
use crate::graph::Graph;
use crate::node::{NodeOp, SccClass, Wire};

/// Derives every correlation-tracked operator's input-pair SCC class for
/// the repair stage, from structure alone, as a dense per-node table
/// (`None` for untracked nodes), and counts the tracked operators: a pair
/// the rules of [`pair_class`] cannot place is [`SccClass::Unknown`], which
/// satisfies no operator's requirement, so repair always fixes it.
///
/// Classes are derived on the pre-repair graph; repair later only redirects
/// the failing operator's own inputs, which cannot change any other pair's
/// structural class, so inferring everything up front matches an
/// interleaved derivation exactly.
pub(crate) fn infer(graph: &Graph, report: &mut CompileReport) -> (Vec<Option<SccClass>>, usize) {
    let classes: Vec<Option<SccClass>> = graph
        .nodes()
        .map(|(id, node)| {
            node.op.correlation_requirement().map(|_| {
                let inputs = graph.inputs(id);
                pair_class(graph, inputs[0], inputs[1])
            })
        })
        .collect();
    let classified = classes.iter().flatten().count();
    report.pass_deltas.push(PassDelta {
        pass: "scc-infer",
        nodes_added: 0,
        detail: format!("{classified} pairs classified"),
    });
    (classes, classified)
}

/// Structural SCC class of a pair of wires (see the crate docs for rules).
fn pair_class(graph: &Graph, a: Wire, b: Wire) -> SccClass {
    if a == b {
        return SccClass::Positive;
    }
    let na = graph.node(a.node());
    let nb = graph.node(b.node());
    // The two output ports of one manipulator carry the class it establishes.
    if a.node() == b.node() {
        if let NodeOp::Manipulate(kind) = &na.op {
            return kind.output_class();
        }
        return SccClass::Unknown;
    }
    // Two D/S-converted streams (generated or regenerated): equal
    // spec + position ⇒ every comparator sample is shared ⇒ maximal positive
    // correlation (§II.B); otherwise the sample sequences are independent ⇒
    // (close to) uncorrelated.
    let converted = |op: &NodeOp| matches!(op, NodeOp::Generate { .. } | NodeOp::Regenerate { .. });
    if converted(&na.op) && converted(&nb.op) {
        return if na.op.source() == nb.op.source() {
            SccClass::Positive
        } else {
            SccClass::Uncorrelated
        };
    }
    SccClass::Unknown
}
