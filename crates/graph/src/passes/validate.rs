//! The **validate** stage: structural checks before any transformation.

use crate::compile::{CompileReport, PassDelta, PlannerOptions};
use crate::graph::GraphError;
use crate::node::{CorrRequirement, Node, NodeOp};
use std::collections::HashSet;

/// Sink-uniqueness and manipulator-range checks. Wires, ports and arities
/// need none here: the builder checks them as each node is added, and a
/// node never changes after that. With auto-repair on, the depths repair
/// would insert are range-checked too.
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
    for node in nodes {
        if let NodeOp::Manipulate(kind) = node.op {
            if !kind.in_range() {
                return Err(GraphError::ManipulatorOutOfRange { kind });
            }
        }
        if let Some(name) = node.op.sink_name() {
            if !sink_names.insert(name) {
                return Err(GraphError::DuplicateSink {
                    name: name.to_string(),
                });
            }
        }
    }
    report.pass_deltas.push(PassDelta {
        pass: "validate",
        nodes_added: 0,
        detail: format!("{} nodes, {} sinks valid", nodes.len(), sink_names.len()),
    });
    Ok(())
}
