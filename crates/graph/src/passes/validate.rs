//! The **validate** stage: structural checks before any transformation.

use super::schedule;
use crate::compile::{CompileReport, PassDelta, PlannerOptions};
use crate::graph::GraphError;
use crate::node::{CorrRequirement, Node, NodeOp};
use std::collections::HashSet;

/// Arity, sink-uniqueness, manipulator-range, and cycle checks (wires are
/// builder-validated; arity and sink uniqueness are re-checked here to cover
/// future mutation APIs). With auto-repair on, the depths repair would
/// insert are range-checked too.
pub(crate) fn validate(
    nodes: &[Node],
    options: &PlannerOptions,
    report: &mut CompileReport,
) -> Result<(), GraphError> {
    if options.auto_repair {
        for requirement in [
            CorrRequirement::Positive,
            CorrRequirement::Negative,
            CorrRequirement::Uncorrelated,
        ] {
            if let Some(kind) = requirement.establishing_manipulator(options) {
                if !kind.in_range() {
                    return Err(GraphError::ManipulatorOutOfRange { kind });
                }
            }
        }
    }
    let mut sink_names: HashSet<&str> = HashSet::new();
    let mut forward_edge = false;
    for (i, node) in nodes.iter().enumerate() {
        if let NodeOp::Manipulate(kind) = node.op {
            if !kind.in_range() {
                return Err(GraphError::ManipulatorOutOfRange { kind });
            }
        }
        if let Some(expected) = node.op.input_arity() {
            if node.inputs.len() != expected {
                return Err(GraphError::BadArity {
                    node: i,
                    expected,
                    got: node.inputs.len(),
                });
            }
        }
        if let Some(name) = node.op.sink_name() {
            if !sink_names.insert(name) {
                return Err(GraphError::DuplicateSink {
                    name: name.to_string(),
                });
            }
        }
        forward_edge |= node.inputs.iter().any(|wire| wire.node().index() >= i);
    }
    // Cycle check up front: scc-infer's class derivation recurses through
    // identity manipulators and must only ever see a DAG. A graph whose
    // every wire points to a lower index is one; only a rewired forward
    // edge can close a cycle, and only then is the full order needed.
    if forward_edge {
        schedule(nodes.len(), |i| &nodes[i].inputs)?;
    }
    report.pass_deltas.push(PassDelta {
        pass: "validate",
        nodes_added: 0,
        detail: format!("{} nodes, {} sinks valid", nodes.len(), sink_names.len()),
    });
    Ok(())
}
