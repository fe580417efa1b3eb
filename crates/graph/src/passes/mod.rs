//! The four compile stages behind [`crate::Graph::compile`].
//!
//! Compilation runs four stages over the graph's node list. Each stage
//! records one telemetry span against the static stage registry and reports
//! its delta into the plan's [`CompileReport`]:
//!
//! 1. **validate** ([`Stage::CompileValidate`]) — arity, sink-uniqueness,
//!    manipulator-range, and cycle checks.
//! 2. **scc-infer** ([`Stage::CompilePlan`]) — derives every tracked
//!    operator's input-pair SCC class from structure alone.
//! 3. **repair** ([`Stage::CompileRepair`]) — where an inferred class misses
//!    an operator's precondition, appends the one manipulator that
//!    establishes the required class: synchronizer, desynchronizer, or
//!    decorrelator.
//! 4. **emit** ([`Stage::CompileEmit`]) — topological scheduling, dense
//!    slot assignment, and step emission, one step per node.

pub(crate) mod emit;
pub(crate) mod infer;
pub(crate) mod repair;
pub(crate) mod validate;

use crate::compile::{CompileReport, CompiledGraph, PlannerOptions};
use crate::graph::{Graph, GraphError};
use crate::node::Node;
use sc_telemetry::{Counter, Stage, TelemetrySink};

/// Runs validate → scc-infer → repair → emit over a graph: the engine
/// behind [`Graph::compile_with_telemetry`].
pub(crate) fn run_pipeline(
    graph: &Graph,
    options: &PlannerOptions,
    telemetry: &TelemetrySink,
) -> Result<CompiledGraph, GraphError> {
    let _compile = telemetry.span(Stage::Compile);
    if graph.nodes.is_empty() {
        return Err(GraphError::EmptyGraph);
    }
    let mut report = CompileReport::default();
    {
        let _span = telemetry.span(Stage::CompileValidate);
        validate::validate(&graph.nodes, options, &mut report)?;
    }
    let classes = {
        let _span = telemetry.span(Stage::CompilePlan);
        infer::infer(&graph.nodes, &mut report)
    };
    let nodes = {
        let _span = telemetry.span(Stage::CompileRepair);
        repair::repair(&graph.nodes, &classes, options, &mut report)
    };
    let emit_span = telemetry.span(Stage::CompileEmit);
    // Topological order recomputed after repair so inserted nodes
    // participate in scheduling (insertion cannot create cycles: a repair
    // only splices into existing edges).
    let order = topo_order(&nodes)?;
    let plan = emit::emit_steps(&nodes, &order, report);
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

/// Kahn topological sort; errors with a node on a cycle if one exists.
pub(crate) fn topo_order(nodes: &[Node]) -> Result<Vec<usize>, GraphError> {
    let mut indegree: Vec<usize> = nodes.iter().map(|n| n.inputs.len()).collect();
    let mut consumers: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
    for (i, node) in nodes.iter().enumerate() {
        for wire in &node.inputs {
            consumers[wire.node().index()].push(i);
        }
    }
    let mut ready: Vec<usize> = (0..nodes.len()).filter(|&i| indegree[i] == 0).collect();
    // Keep deterministic (insertion-order) scheduling: treat `ready` as a
    // min-ordered queue over node indices.
    ready.sort_unstable();
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
        let node = (0..nodes.len())
            .find(|&i| indegree[i] > 0)
            .expect("incomplete order implies a node with remaining indegree");
        return Err(GraphError::Cycle { node });
    }
    Ok(order)
}
