//! The **validate** stage: structural checks before any transformation.

use super::topo_order;
use crate::compile::{CompileReport, PassDelta, PlannerOptions};
use crate::graph::GraphError;
use crate::node::{CorrRequirement, Node, NodeOp};

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
    let mut sink_names: Vec<&str> = Vec::new();
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
            if sink_names.contains(&name) {
                return Err(GraphError::DuplicateSink {
                    name: name.to_string(),
                });
            }
            sink_names.push(name);
        }
    }
    // Cycle check up front: scc-infer's class derivation recurses through
    // identity manipulators and must only ever see a DAG.
    topo_order(nodes)?;
    report.pass_deltas.push(PassDelta {
        pass: "validate",
        nodes_added: 0,
        detail: format!("{} nodes, {} sinks valid", nodes.len(), sink_names.len()),
    });
    Ok(())
}
