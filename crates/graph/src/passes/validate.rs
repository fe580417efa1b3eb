//! The **validate** stage: structural checks before any transformation.

use super::topo_order;
use crate::compile::{CompileReport, PassDelta};
use crate::graph::GraphError;
use crate::node::Node;

/// Arity, sink-uniqueness, and cycle checks (wires are builder-validated;
/// arity and sink uniqueness are re-checked here to cover future mutation
/// APIs).
pub(crate) fn validate(nodes: &[Node], report: &mut CompileReport) -> Result<(), GraphError> {
    let mut sink_names: Vec<&str> = Vec::new();
    for (i, node) in nodes.iter().enumerate() {
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
