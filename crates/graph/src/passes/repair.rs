//! The **repair** stage: insertion of correlation-establishing manipulators.

use crate::compile::{CompileReport, PassDelta, PlannerOptions};
use crate::node::{Node, NodeId, NodeOp, SccClass, Wire};
use std::collections::HashMap;

/// For every correlation-tracked operator whose inferred input class misses
/// its precondition, splices the one manipulator that establishes the
/// required class ([`crate::CorrRequirement::establishing_manipulator`]) in
/// front of the operator. With [`PlannerOptions::auto_repair`] off the miss is only
/// recorded in [`CompileReport::unsatisfied`]. Returns the node list with
/// the repairs appended (existing indices unchanged).
pub(crate) fn repair(
    nodes: &[Node],
    classes: &HashMap<usize, SccClass>,
    options: &PlannerOptions,
    report: &mut CompileReport,
) -> Vec<Node> {
    let mut nodes = nodes.to_vec();
    // Repairs appended below sit past this bound and are never themselves
    // correlation-tracked (manipulators have no requirement).
    let tracked = nodes.len();
    for i in 0..tracked {
        let Some((label, requirement)) = nodes[i].op.correlation_requirement() else {
            continue;
        };
        let class = classes.get(&i).copied().unwrap_or(SccClass::Unknown);
        if requirement.satisfied_by(class) {
            continue;
        }
        let Some(kind) = requirement.establishing_manipulator(options) else {
            continue;
        };
        if !options.auto_repair {
            report.unsatisfied.push(format!(
                "{label} (node n{i}) requires {requirement:?} inputs but gets {class:?}"
            ));
            continue;
        }
        let node = NodeId(nodes.len());
        let repaired = vec![Wire { node, port: 0 }, Wire { node, port: 1 }];
        let inputs = std::mem::replace(&mut nodes[i].inputs, repaired);
        nodes.push(Node {
            op: NodeOp::Manipulate(kind),
            inputs,
        });
        report.inserted.push(format!(
            "{kind} inserted before {label} (node n{i}): inputs are {class:?}, {requirement:?} required"
        ));
    }
    let added = nodes.len() - tracked;
    report.pass_deltas.push(PassDelta {
        pass: "repair",
        nodes_added: added,
        detail: format!("{added} repairs inserted"),
    });
    nodes
}
