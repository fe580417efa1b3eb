//! Build → compile → batched execute on the `sc_graph` dataflow engine.
//!
//! Demonstrates the SCC-aware planning rule: `|pX − pY|` via an XOR gate
//! needs positively correlated inputs (paper Fig. 2c), but the two D/S
//! converters draw from independent sources — so the compiler inserts a
//! synchronizer in front of the XOR automatically. The compiled plan then
//! runs word-parallel over a batch of independent input sets, sharded across
//! worker threads spawned for each call, and is costed through the
//! `sc_hwcost` bridge.
//!
//! Run with `cargo run --release --example graph_pipeline`.

use sc_repro::prelude::*;
use std::sync::Arc;

fn build_graph() -> Graph {
    let mut g = Graph::new();
    // Two uncorrelated stream sources (different Sobol dimensions).
    let x = g.generate(0, SourceSpec::Sobol { dimension: 1 });
    let y = g.generate(1, SourceSpec::Sobol { dimension: 3 });
    // XOR subtraction declares its SCC +1 precondition; the planner fixes it.
    let diff = g.binary(BinaryOp::XorSubtract, x, y);
    g.sink_value("diff", diff);
    g.scc_probe("scc_in", x, y);
    g
}

fn main() -> Result<(), GraphError> {
    let n = 2048;
    let graph = build_graph();

    // --- Compile with the planner on: the synchronizer is auto-inserted.
    let plan = graph.compile(&PlannerOptions::default())?;
    println!("== compile report ==");
    for line in &plan.report().inserted {
        println!("  inserted: {line}");
    }
    for delta in &plan.report().pass_deltas {
        println!("  {}: {}", delta.pass, delta.detail);
    }

    // --- Compile with auto-repair off, as the broken baseline.
    let broken = graph.compile(&PlannerOptions::no_repair())?;
    for line in &broken.report().unsatisfied {
        println!("  unrepaired: {line}");
    }

    // --- Batched execution over 8 independent input sets, 2 worker threads:
    // a batch is a job stream with an unbounded window.
    let (plan, broken) = (Arc::new(plan), Arc::new(broken));
    let batch = |plan: &Arc<CompiledGraph>| {
        let plan = Arc::clone(plan);
        (0..8).map(move |i| StreamJob {
            plan: Arc::clone(&plan),
            input: BatchInput::with_values(vec![0.8, i as f64 / 8.0]),
        })
    };
    let exec = Executor::new(n).with_threads(2);
    let repaired_out = exec.run_stream(batch(&plan), usize::MAX)?;
    let broken_out = exec.run_stream(batch(&broken), usize::MAX)?;

    println!("\n== |0.8 - pY| over a batch of 8 (N = {n}) ==");
    println!(
        "{:>6} {:>10} {:>12} {:>12} {:>10}",
        "pY", "expected", "planned", "unrepaired", "scc_in"
    );
    let mut planned_err = 0.0f64;
    let mut broken_err = 0.0f64;
    for (i, (good, bad)) in repaired_out.iter().zip(broken_out.iter()).enumerate() {
        let py = i as f64 / 8.0;
        let expected = (0.8 - py).abs();
        let planned = good.value("diff").expect("diff sink");
        let unrepaired = bad.value("diff").expect("diff sink");
        planned_err += (planned - expected).abs();
        broken_err += (unrepaired - expected).abs();
        println!(
            "{py:>6.3} {expected:>10.3} {planned:>12.3} {unrepaired:>12.3} {:>10.3}",
            good.value("scc_in").expect("scc probe")
        );
    }
    println!(
        "\nmean abs error: planned {:.4} vs unrepaired {:.4}",
        planned_err / 8.0,
        broken_err / 8.0
    );
    assert!(
        planned_err < broken_err,
        "the auto-inserted synchronizer must improve accuracy"
    );

    // --- Hardware cost of the compiled plan (sc_hwcost bridge).
    let netlist = plan.netlist("xor-subtract-planned");
    let baseline = broken.netlist("xor-subtract-unrepaired");
    println!("\n== hardware cost (sc_hwcost bridge) ==");
    println!(
        "planned:    {:>8.1} um^2  {:>6.2} uW   ({} cells)",
        netlist.area_um2(),
        netlist.power_uw(),
        netlist.cell_count()
    );
    println!(
        "unrepaired: {:>8.1} um^2  {:>6.2} uW   ({} cells)",
        baseline.area_um2(),
        baseline.power_uw(),
        baseline.cell_count()
    );
    println!(
        "correlation repair overhead: {:.1} um^2 (one synchronizer)",
        netlist.area_um2() - baseline.area_um2()
    );
    Ok(())
}
