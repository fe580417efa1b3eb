//! The four compile stages behind [`crate::Graph::compile`].
//!
//! Compilation runs four stages over the graph's node list. Each stage
//! records one telemetry span against the static stage registry and reports
//! its delta into the plan's [`CompileReport`]. For `n` nodes and `e` input
//! wires, a compile costs O((n + e) log n) time, and one order is computed:
//!
//! 1. **validate** ([`Stage::CompileValidate`]) — arity, sink-uniqueness
//!    (one hash-set insert per sink), manipulator-range, and acyclicity
//!    checks, O(n + e). A graph whose every wire points to a lower node
//!    index is acyclic as built; only a graph with a
//!    [`crate::Graph::rewire`]d forward edge pays a full [`schedule`] to
//!    find a cycle.
//! 2. **scc-infer** ([`Stage::CompilePlan`]) — derives every tracked
//!    operator's input-pair SCC class from structure alone, into a dense
//!    per-node table, O(n) plus the identity-manipulator chains it unwraps.
//! 3. **repair** ([`Stage::CompileRepair`]) — where an inferred class misses
//!    an operator's precondition, records a splice of the one manipulator
//!    that establishes the required class: synchronizer, desynchronizer, or
//!    decorrelator, O(n). The source graph is read in place, never copied
//!    ([`repair::Repaired`]).
//! 4. **emit** ([`Stage::CompileEmit`]) — the repaired graph's one
//!    topological order ([`schedule`], O((n + e) log n)), then dense slot
//!    assignment through a `(node, port)` table and step emission, one step
//!    per node, O(n + e).

pub(crate) mod emit;
pub(crate) mod infer;
pub(crate) mod repair;
pub(crate) mod validate;

use crate::compile::{CompileReport, CompiledGraph, PlannerOptions};
use crate::graph::{Graph, GraphError};
use crate::node::Wire;
use sc_telemetry::{Counter, Stage, TelemetrySink};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

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
    let classes = {
        let _span = telemetry.span(Stage::CompilePlan);
        infer::infer(nodes, &mut report)
    };
    let repaired = {
        let _span = telemetry.span(Stage::CompileRepair);
        repair::repair(nodes, &classes, options, &mut report)
    };
    let emit_span = telemetry.span(Stage::CompileEmit);
    // The one order of the compile, taken after repair so the spliced
    // manipulators are scheduled too (a splice cannot create a cycle: it
    // only cuts into an existing edge).
    let order = schedule(repaired.len(), |i| repaired.inputs(i))?;
    let plan = emit::emit_steps(&repaired, &order, report);
    drop(emit_span);
    if telemetry.is_enabled() {
        telemetry.add(Counter::Compilations, 1);
        telemetry.add(
            Counter::RepairsInserted,
            plan.report().inserted.len() as u64,
        );
    }
    Ok(plan)
}

/// The min-index-first topological order of a graph of `len` nodes whose
/// node `i` reads the wires `inputs(i)`: Kahn's algorithm over a min-heap
/// of ready nodes, so among the nodes whose producers are all scheduled the
/// lowest index always goes next. Consumers are kept as one CSR table, so
/// the order costs O((n + e) log n) time and five allocations.
///
/// # Errors
///
/// [`GraphError::Cycle`] naming a node that lies on a cycle.
pub(crate) fn schedule<'a>(
    len: usize,
    inputs: impl Fn(usize) -> &'a [Wire],
) -> Result<Vec<usize>, GraphError> {
    // CSR consumer lists: the nodes in `consumers[start[p]..start[p + 1]]`
    // read node p. Each count goes to `start[p + 1]`, the prefix sum makes
    // it the end of list p, and filling each list from its end walks it
    // back to the list's start.
    let mut start = vec![0usize; len + 1];
    let mut indegree = Vec::with_capacity(len);
    for i in 0..len {
        let wires = inputs(i);
        indegree.push(wires.len());
        for wire in wires {
            start[wire.node().index() + 1] += 1;
        }
    }
    for p in 0..len {
        start[p + 1] += start[p];
    }
    let mut consumers = vec![0usize; start[len]];
    for i in (0..len).rev() {
        for wire in inputs(i) {
            let end = &mut start[wire.node().index() + 1];
            *end -= 1;
            consumers[*end] = i;
        }
    }
    // `start[p + 1]` now holds the start of list p: shift the table down.
    start.rotate_left(1);
    start[len] = consumers.len();

    let mut ready: BinaryHeap<Reverse<usize>> = BinaryHeap::with_capacity(len);
    ready.extend((0..len).filter(|&i| indegree[i] == 0).map(Reverse));
    let mut order = Vec::with_capacity(len);
    while let Some(Reverse(next)) = ready.pop() {
        order.push(next);
        for &consumer in &consumers[start[next]..start[next + 1]] {
            indegree[consumer] -= 1;
            if indegree[consumer] == 0 {
                ready.push(Reverse(consumer));
            }
        }
    }
    if order.len() != len {
        return Err(GraphError::Cycle {
            node: node_on_cycle(len, &inputs, &indegree),
        });
    }
    Ok(order)
}

/// A node on a cycle of a graph whose Kahn pass stalled with `indegree`
/// left: every unscheduled node still has an unscheduled producer, so
/// walking producers from any stuck node must come back to a node already
/// walked, and that node is on a cycle.
fn node_on_cycle<'a>(
    len: usize,
    inputs: &impl Fn(usize) -> &'a [Wire],
    indegree: &[usize],
) -> usize {
    let mut walked = vec![false; len];
    let mut node = (0..len)
        .find(|&i| indegree[i] > 0)
        .expect("a stalled order leaves a node with remaining indegree");
    while !walked[node] {
        walked[node] = true;
        node = inputs(node)
            .iter()
            .map(|wire| wire.node().index())
            .find(|&producer| indegree[producer] > 0)
            .expect("a stuck node has an unscheduled producer");
    }
    node
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{Node, NodeId, NodeOp};
    use proptest::prelude::*;

    /// The scheduler this module's [`schedule`] replaced, kept as the
    /// reference order: Kahn's algorithm over a sorted ready list, popped
    /// from the front, O(n · ready).
    fn reference_order(nodes: &[Node]) -> Result<Vec<usize>, GraphError> {
        let mut indegree: Vec<usize> = nodes.iter().map(|n| n.inputs.len()).collect();
        let mut consumers: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
        for (i, node) in nodes.iter().enumerate() {
            for wire in &node.inputs {
                consumers[wire.node().index()].push(i);
            }
        }
        let mut ready: Vec<usize> = (0..nodes.len()).filter(|&i| indegree[i] == 0).collect();
        let mut order = Vec::with_capacity(nodes.len());
        while let Some(&next) = ready.first() {
            ready.remove(0);
            order.push(next);
            for &consumer in &consumers[next] {
                indegree[consumer] -= 1;
                if indegree[consumer] == 0 {
                    let pos = ready.binary_search(&consumer).unwrap_err();
                    ready.insert(pos, consumer);
                }
            }
        }
        if order.len() != nodes.len() {
            let node = (0..nodes.len()).find(|&i| indegree[i] > 0).unwrap();
            return Err(GraphError::Cycle { node });
        }
        Ok(order)
    }

    /// Whether `node` can reach itself through input wires.
    fn on_cycle(nodes: &[Node], node: usize) -> bool {
        let mut seen = vec![false; nodes.len()];
        let mut stack: Vec<usize> = nodes[node]
            .inputs
            .iter()
            .map(|w| w.node().index())
            .collect();
        while let Some(n) = stack.pop() {
            if n == node {
                return true;
            }
            if !std::mem::replace(&mut seen[n], true) {
                stack.extend(nodes[n].inputs.iter().map(|w| w.node().index()));
            }
        }
        false
    }

    fn wire(node: usize) -> Wire {
        Wire {
            node: NodeId(node),
            port: 0,
        }
    }

    /// A random graph of `len` nodes with up to three inputs each, wired
    /// mostly backward as the builder wires, plus `forward` rewired edges
    /// to any node (itself included).
    fn random_graph(seed: u64, len: usize, forward: usize) -> Vec<Node> {
        let mut state = seed;
        let mut next = move |bound: usize| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % bound as u64) as usize
        };
        let mut nodes: Vec<Node> = (0..len)
            .map(|i| Node {
                op: NodeOp::Not,
                inputs: if i == 0 {
                    Vec::new()
                } else {
                    (0..next(4)).map(|_| wire(next(i))).collect()
                },
            })
            .collect();
        for _ in 0..forward {
            let node = next(len);
            let input = wire(next(len));
            match nodes[node].inputs.len() {
                0 => nodes[node].inputs.push(input),
                k => nodes[node].inputs[next(k)] = input,
            }
        }
        nodes
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn schedule_matches_the_reference_order(
            seed in any::<u64>(),
            len in 1usize..40,
            forward in 0usize..4,
        ) {
            let nodes = random_graph(seed, len, forward);
            let got = schedule(nodes.len(), |i| &nodes[i].inputs);
            match reference_order(&nodes) {
                Ok(order) => prop_assert_eq!(got, Ok(order)),
                Err(_) => match got {
                    Err(GraphError::Cycle { node }) => prop_assert!(
                        on_cycle(&nodes, node),
                        "n{} is not on a cycle of {:?}",
                        node,
                        nodes
                    ),
                    other => prop_assert!(false, "cyclic graph scheduled as {:?}", other),
                },
            }
        }
    }

    #[test]
    fn builder_wired_graphs_schedule_in_index_order() {
        let nodes = random_graph(7, 200, 0);
        let order = schedule(nodes.len(), |i| &nodes[i].inputs).unwrap();
        assert_eq!(order, (0..200).collect::<Vec<_>>());
    }

    #[test]
    fn the_reported_node_lies_on_the_cycle() {
        // n1 and n2 both read n3, and n3 reads n2: the cycle is n2 ↔ n3,
        // and n1 only hangs off it.
        let node = |inputs: Vec<usize>| Node {
            op: NodeOp::Not,
            inputs: inputs.into_iter().map(wire).collect(),
        };
        let nodes = vec![
            node(vec![]),
            node(vec![3]),
            node(vec![3]),
            node(vec![2]),
            node(vec![1]),
        ];
        assert_eq!(
            reference_order(&nodes),
            Err(GraphError::Cycle { node: 1 }),
            "the reference names a node off the cycle"
        );
        assert_eq!(
            schedule(nodes.len(), |i| &nodes[i].inputs),
            Err(GraphError::Cycle { node: 3 })
        );
    }
}
