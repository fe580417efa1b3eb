//! The four compile stages behind [`crate::Graph::compile`].
//!
//! Compilation runs four stages over the graph's node list. Each stage
//! records one telemetry span against the static stage registry and reports
//! its delta into the plan's [`CompileReport`]. For `n` nodes and `e` input
//! wires, a compile costs O(n + e) time. The graph is append-only, so its
//! node order is already a topological order, and no stage sorts:
//!
//! 1. **validate** ([`Stage::CompileValidate`]) — sink-uniqueness (one
//!    hash-set insert per sink) and manipulator-range checks, O(n). Wires
//!    and arities are checked as each node is added.
//! 2. **scc-infer** ([`Stage::CompilePlan`]) — derives every tracked
//!    operator's input-pair SCC class from structure alone, into a dense
//!    per-node table, O(n) plus the identity-manipulator chains it unwraps.
//! 3. **repair** ([`Stage::CompileRepair`]) — where an inferred class misses
//!    an operator's precondition, records a splice of the one manipulator
//!    that establishes the required class: synchronizer, desynchronizer, or
//!    decorrelator, O(n). The source graph is read in place, never copied
//!    ([`repair::Repaired`]).
//! 4. **emit** ([`Stage::CompileEmit`]) — walks the source nodes in index
//!    order and emits each repair splice directly before the operator it
//!    feeds, with dense slot assignment through a `(node, port)` table, one
//!    step per node, O(n + e). A splice reads only its operator's inputs,
//!    which all have lower indices, so the walk is a topological order.

pub(crate) mod emit;
pub(crate) mod infer;
pub(crate) mod repair;
pub(crate) mod validate;

use crate::compile::{CompileReport, CompiledGraph, PlannerOptions};
use crate::graph::{Graph, GraphError};
use sc_telemetry::{Counter, Stage, TelemetrySink};

/// Runs validate → scc-infer → repair → emit over a graph: the engine
/// behind [`Graph::compile_with_telemetry`].
pub(crate) fn run_pipeline(
    graph: &Graph,
    options: &PlannerOptions,
    telemetry: &TelemetrySink,
) -> Result<CompiledGraph, GraphError> {
    let _compile = telemetry.span(Stage::Compile);
    let nodes = &graph.nodes;
    if nodes.is_empty() {
        return Err(GraphError::EmptyGraph);
    }
    let mut report = CompileReport::default();
    {
        let _span = telemetry.span(Stage::CompileValidate);
        validate::validate(nodes, options, &mut report)?;
    }
    let (classes, tracked) = {
        let _span = telemetry.span(Stage::CompilePlan);
        infer::infer(graph, &mut report)
    };
    let repaired = {
        let _span = telemetry.span(Stage::CompileRepair);
        repair::repair(graph, &classes, tracked, options, &mut report)
    };
    let plan = {
        let _span = telemetry.span(Stage::CompileEmit);
        emit::emit_steps(&repaired, report)
    };
    if telemetry.is_enabled() {
        telemetry.add(Counter::Compilations, 1);
        telemetry.add(
            Counter::RepairsInserted,
            plan.report().inserted.len() as u64,
        );
    }
    Ok(plan)
}

#[cfg(test)]
mod tests {
    use crate::compile::{CompiledGraph, PlannerOptions};
    use crate::graph::Graph;
    use crate::node::{BinaryOp, ManipulatorKind, NodeOp, Wire};
    use proptest::prelude::*;
    use sc_rng::SourceSpec;

    /// A random builder-made graph of `len` operator nodes over three
    /// generators that share two source specs, so that some operator pairs
    /// are positive, some uncorrelated and some unknown: the XOR, OR-max and
    /// saturating-add operators among them make the repair stage fire.
    fn random_graph(seed: u64, len: usize) -> Graph {
        let mut state = seed;
        let mut next = move |bound: usize| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % bound as u64) as usize
        };
        let sobol = |dimension| SourceSpec::Sobol { dimension };
        let mut g = Graph::new();
        let mut wires: Vec<Wire> = (0..3)
            .map(|i| g.generate(i, sobol(1 + i as u32 % 2)))
            .collect();
        for _ in 0..len {
            let x = wires[next(wires.len())];
            let y = wires[next(wires.len())];
            match next(6) {
                0 => wires.push(g.not(x)),
                1 => wires.push(g.regenerate(sobol(1 + next(2) as u32), x)),
                2 => wires.push(g.mux_add(x, y, sobol(3))),
                3 => {
                    let kind = [
                        ManipulatorKind::Identity,
                        ManipulatorKind::Synchronizer { depth: 1 },
                        ManipulatorKind::Decorrelator { depth: 2 },
                    ][next(3)];
                    let (mx, my) = g.manipulate(kind, x, y);
                    wires.extend([mx, my]);
                }
                _ => {
                    let op = [
                        BinaryOp::XorSubtract,
                        BinaryOp::OrMax,
                        BinaryOp::SaturatingAdd,
                        BinaryOp::AndMultiply,
                        BinaryOp::CaAdd,
                    ][next(5)];
                    wires.push(g.binary(op, x, y));
                }
            }
        }
        for (k, &wire) in wires.iter().enumerate().skip(3).step_by(4) {
            g.sink_value(format!("z{k}"), wire);
        }
        g
    }

    /// Checks the emit contract of `plan` against its source graph: the
    /// steps are the source nodes in index order with each inserted
    /// manipulator directly before its operator, which reads that
    /// manipulator's two outputs; every input slot was written by an
    /// earlier step; and `inserted` holds one record per splice.
    fn assert_emit_contract(g: &Graph, plan: &CompiledGraph) -> Result<(), TestCaseError> {
        let steps = plan.steps();
        let inserted = &plan.report().inserted;
        prop_assert_eq!(steps.len(), g.node_count() + inserted.len());
        let mut records = inserted.iter().peekable();
        let mut at = 0;
        for (id, node) in g.nodes() {
            if let Some(record) = records.next_if(|r| r.node == id.index()) {
                let kind = record
                    .inserted
                    .expect("an inserted repair names its manipulator");
                let splice = &steps[at];
                prop_assert_eq!(&splice.op, &NodeOp::Manipulate(kind));
                prop_assert_eq!(plan.srcs(&steps[at + 1]), [splice.dst, splice.dst + 1]);
                at += 1;
            }
            prop_assert_eq!(&steps[at].op, &node.op);
            prop_assert_eq!(plan.srcs(&steps[at]).len(), g.inputs(id).len());
            at += 1;
        }
        prop_assert!(records.next().is_none(), "a record names no source node");
        let mut written = vec![false; plan.slot_count()];
        for (k, step) in steps.iter().enumerate() {
            for &slot in plan.srcs(step) {
                prop_assert!(written[slot], "step {} reads unwritten slot {}", k, slot);
            }
            for port in 0..step.op.output_ports() {
                written[step.dst + port] = true;
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn steps_follow_node_order_with_each_repair_before_its_operator(
            seed in any::<u64>(),
            len in 1usize..60,
        ) {
            let g = random_graph(seed, len);
            let plan = g.compile(&PlannerOptions::default()).unwrap();
            let tracked = g
                .nodes()
                .filter(|(_, node)| node.op.correlation_requirement().is_some())
                .count();
            prop_assert!(plan.report().inserted.len() <= tracked);
            assert_emit_contract(&g, &plan)?;
            let unrepaired = g.compile(&PlannerOptions::no_repair()).unwrap();
            prop_assert_eq!(unrepaired.step_count(), g.node_count());
            prop_assert_eq!(
                unrepaired.report().unsatisfied.len(),
                plan.report().inserted.len()
            );
        }
    }

    #[test]
    fn random_graphs_exercise_repair() {
        let repaired = (0..32)
            .map(|seed| random_graph(seed, 40))
            .filter(|g| {
                let plan = g.compile(&PlannerOptions::default()).unwrap();
                !plan.report().inserted.is_empty()
            })
            .count();
        assert!(
            repaired > 16,
            "only {repaired} of 32 graphs needed a repair"
        );
    }
}
