//! The **repair** stage: insertion of correlation-establishing manipulators.

use crate::compile::{CompileReport, PassDelta, PlannerOptions, RepairRecord};
use crate::graph::Graph;
use crate::node::{NodeId, NodeOp, SccClass, Wire};

/// The repaired graph, read in place: the source graph's `n` nodes, plus
/// one appended manipulator per splice. Splice `k` is node `n + k`; it reads
/// the inputs its operator had, and the operator reads its two outputs
/// instead. No source node is copied.
pub(crate) struct Repaired<'a> {
    graph: &'a Graph,
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
        self.graph.node_count() + self.splices.len()
    }

    /// The splice feeding source node `i`, if any.
    fn splice_feeding(&self, i: usize) -> Option<usize> {
        match self.spliced.get(i).copied().unwrap_or(0) {
            0 => None,
            k => Some(k as usize - 1),
        }
    }

    /// The repaired graph's nodes in a topological order: the source nodes
    /// in index order, each splice directly before the operator it feeds. A
    /// splice reads its operator's original inputs, which all precede the
    /// operator.
    pub(crate) fn order(&self) -> impl Iterator<Item = usize> + '_ {
        let n = self.graph.node_count();
        (0..n).flat_map(move |i| self.splice_feeding(i).map(|k| n + k).into_iter().chain([i]))
    }

    /// The operation of node `i`.
    pub(crate) fn op(&self, i: usize) -> &NodeOp {
        match self.graph.nodes.get(i) {
            Some(node) => &node.op,
            None => &self.splices[i - self.graph.node_count()].op,
        }
    }

    /// The input wires of node `i` in the repaired graph.
    pub(crate) fn inputs(&self, i: usize) -> &[Wire] {
        let n = self.graph.node_count();
        if i >= n {
            return self.graph.inputs(NodeId(self.splices[i - n].before));
        }
        match self.splice_feeding(i) {
            Some(k) => &self.splices[k].outputs,
            None => self.graph.inputs(NodeId(i)),
        }
    }
}

/// For every correlation-tracked operator whose inferred input class misses
/// its precondition, splices the one manipulator that establishes the
/// required class ([`crate::CorrRequirement::establishing_manipulator`]) in
/// front of the operator, and records it in [`CompileReport::inserted`].
/// With [`PlannerOptions::auto_repair`] off the miss is only recorded in
/// [`CompileReport::unsatisfied`]. The lists are sized once, at the first
/// miss, for all `tracked` operators.
pub(crate) fn repair<'a>(
    graph: &'a Graph,
    classes: &[Option<SccClass>],
    tracked: usize,
    options: &PlannerOptions,
    report: &mut CompileReport,
) -> Repaired<'a> {
    let mut repaired = Repaired {
        graph,
        splices: Vec::new(),
        spliced: Vec::new(),
    };
    let misses = if options.auto_repair {
        &mut report.inserted
    } else {
        &mut report.unsatisfied
    };
    for (i, node) in graph.nodes.iter().enumerate() {
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
        if misses.is_empty() {
            misses.reserve_exact(tracked);
        }
        let mut record = RepairRecord {
            operator,
            node: i,
            class,
            requirement,
            inserted: None,
        };
        if options.auto_repair {
            let id = NodeId(repaired.len());
            if repaired.spliced.is_empty() {
                repaired.spliced = vec![0; graph.node_count()];
                repaired.splices.reserve_exact(tracked);
            }
            repaired.splices.push(Splice {
                op: NodeOp::Manipulate(kind),
                before: i,
                outputs: [Wire { node: id, port: 0 }, Wire { node: id, port: 1 }],
            });
            repaired.spliced[i] = u32::try_from(repaired.splices.len()).expect("splices fit u32");
            record.inserted = Some(kind);
        }
        misses.push(record);
    }
    let added = repaired.splices.len();
    report.pass_deltas.push(PassDelta {
        pass: "repair",
        nodes_added: added,
        detail: format!("{added} repairs inserted"),
    });
    repaired
}
