//! The **repair** stage: insertion of correlation-establishing manipulators.

use crate::compile::{CompileReport, PassDelta, PlannerOptions, RepairRecord};
use crate::node::{Node, NodeId, NodeOp, SccClass, Wire};

/// The repaired graph, read in place: the source graph's `n` nodes, plus
/// one appended manipulator per splice. Splice `k` is node `n + k`; it reads
/// the inputs its operator had, and the operator reads its two outputs
/// instead. No source node is copied.
pub(crate) struct Repaired<'a> {
    nodes: &'a [Node],
    splices: Vec<Splice>,
    /// Per source node: `k + 1` for the operator splice `k` feeds, else 0.
    spliced: Vec<u32>,
}

/// One manipulator spliced in front of an operator.
struct Splice {
    /// The manipulator (a [`NodeOp::Manipulate`]).
    op: NodeOp,
    /// The operator it feeds.
    before: usize,
    /// The operator's new inputs: the manipulator's two outputs.
    outputs: [Wire; 2],
}

impl Repaired<'_> {
    /// Nodes of the repaired graph: source nodes plus splices.
    pub(crate) fn len(&self) -> usize {
        self.nodes.len() + self.splices.len()
    }

    fn splice_feeding(&self, i: usize) -> Option<&Splice> {
        match self.spliced.get(i).copied().unwrap_or(0) {
            0 => None,
            k => Some(&self.splices[k as usize - 1]),
        }
    }

    /// The operation of node `i`.
    pub(crate) fn op(&self, i: usize) -> &NodeOp {
        match self.nodes.get(i) {
            Some(node) => &node.op,
            None => &self.splices[i - self.nodes.len()].op,
        }
    }

    /// The input wires of node `i` in the repaired graph.
    pub(crate) fn inputs(&self, i: usize) -> &[Wire] {
        match self.nodes.get(i) {
            Some(node) => match self.splice_feeding(i) {
                Some(splice) => &splice.outputs,
                None => &node.inputs,
            },
            None => &self.nodes[self.splices[i - self.nodes.len()].before].inputs,
        }
    }
}

/// For every correlation-tracked operator whose inferred input class misses
/// its precondition, splices the one manipulator that establishes the
/// required class ([`crate::CorrRequirement::establishing_manipulator`]) in
/// front of the operator, and records it in [`CompileReport::inserted`].
/// With [`PlannerOptions::auto_repair`] off the miss is only recorded in
/// [`CompileReport::unsatisfied`].
pub(crate) fn repair<'a>(
    nodes: &'a [Node],
    classes: &[Option<SccClass>],
    options: &PlannerOptions,
    report: &mut CompileReport,
) -> Repaired<'a> {
    let mut repaired = Repaired {
        nodes,
        splices: Vec::new(),
        spliced: Vec::new(),
    };
    for (i, node) in nodes.iter().enumerate() {
        let Some((operator, requirement)) = node.op.correlation_requirement() else {
            continue;
        };
        let class = classes[i].unwrap_or(SccClass::Unknown);
        if requirement.satisfied_by(class) {
            continue;
        }
        let Some(kind) = requirement.establishing_manipulator(options) else {
            continue;
        };
        let mut record = RepairRecord {
            operator,
            node: i,
            class,
            requirement,
            inserted: None,
        };
        if !options.auto_repair {
            report.unsatisfied.push(record);
            continue;
        }
        let id = NodeId(repaired.len());
        if repaired.spliced.is_empty() {
            repaired.spliced = vec![0; nodes.len()];
        }
        repaired.splices.push(Splice {
            op: NodeOp::Manipulate(kind),
            before: i,
            outputs: [Wire { node: id, port: 0 }, Wire { node: id, port: 1 }],
        });
        repaired.spliced[i] = u32::try_from(repaired.splices.len()).expect("splices fit u32");
        record.inserted = Some(kind);
        report.inserted.push(record);
    }
    let added = repaired.splices.len();
    report.pass_deltas.push(PassDelta {
        pass: "repair",
        nodes_added: added,
        detail: format!("{added} repairs inserted"),
    });
    repaired
}
