//! The **scc-infer** stage: structural SCC class derivation.

use crate::compile::{CompileReport, PassDelta};
use crate::node::{ManipulatorKind, Node, NodeOp, SccClass, Wire};
use sc_rng::SourceSpec;

/// Derives every correlation-tracked operator's input-pair SCC class for
/// the repair stage, from structure alone, as a dense per-node table
/// (`None` for untracked nodes): a pair the rules of [`pair_class`] cannot
/// place is [`SccClass::Unknown`], which only an agnostic operator accepts.
///
/// Classes are derived on the pre-repair graph; repair later only rewires
/// the failing operator's own inputs, which cannot change any other pair's
/// structural class, so inferring everything up front matches an
/// interleaved derivation exactly.
pub(crate) fn infer(nodes: &[Node], report: &mut CompileReport) -> Vec<Option<SccClass>> {
    let classes: Vec<Option<SccClass>> = nodes
        .iter()
        .map(|node| {
            node.op
                .correlation_requirement()
                .map(|_| pair_class(nodes, node.inputs[0], node.inputs[1]))
        })
        .collect();
    let classified = classes.iter().flatten().count();
    report.pass_deltas.push(PassDelta {
        pass: "scc-infer",
        nodes_added: 0,
        detail: format!("{classified} pairs classified"),
    });
    classes
}

/// Structural SCC class of a pair of wires (see the crate docs for rules).
pub(crate) fn pair_class(nodes: &[Node], a: Wire, b: Wire) -> SccClass {
    if a == b {
        return SccClass::Positive;
    }
    let na = &nodes[a.node().index()];
    let nb = &nodes[b.node().index()];
    // Unwrap identity manipulators: they preserve their input pair's class.
    if let NodeOp::Manipulate(ManipulatorKind::Identity) = na.op {
        return pair_class(nodes, na.inputs[a.port() as usize], b);
    }
    if let NodeOp::Manipulate(ManipulatorKind::Identity) = nb.op {
        return pair_class(nodes, a, nb.inputs[b.port() as usize]);
    }
    // The two output ports of one manipulator carry the class it establishes.
    if a.node() == b.node() {
        if let NodeOp::Manipulate(kind) = &na.op {
            return kind.output_class().unwrap_or(SccClass::Unknown);
        }
        return SccClass::Unknown;
    }
    // Two generated streams: equal spec + position ⇒ every comparator sample
    // is shared ⇒ maximal positive correlation (§II.B); otherwise the sample
    // sequences are independent ⇒ (close to) uncorrelated.
    if let (Some(sa), Some(sb)) = (source_of(&na.op), source_of(&nb.op)) {
        return if sa == sb {
            SccClass::Positive
        } else {
            SccClass::Uncorrelated
        };
    }
    // Two regenerated streams behave like generated streams of their
    // re-encoding source.
    if let (
        NodeOp::Regenerate {
            source: sa,
            skip: ka,
        },
        NodeOp::Regenerate {
            source: sb,
            skip: kb,
        },
    ) = (&na.op, &nb.op)
    {
        return if sa == sb && ka == kb {
            SccClass::Positive
        } else {
            SccClass::Uncorrelated
        };
    }
    SccClass::Unknown
}

/// The sample source and position of a D/S-converted stream.
fn source_of(op: &NodeOp) -> Option<(&SourceSpec, u64)> {
    match op {
        NodeOp::Generate { source, skip, .. } | NodeOp::ConstStream { source, skip, .. } => {
            Some((source, *skip))
        }
        _ => None,
    }
}
