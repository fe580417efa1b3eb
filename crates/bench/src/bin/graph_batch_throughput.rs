//! Measures the sharded batch executor of `sc_graph` and records the
//! evidence in `BENCH_graph_batch.json`.
//!
//! Run with `cargo run --release -p sc_bench --bin graph_batch_throughput`.
//! The JSON file is written to the current directory (or to the path given as
//! the first argument). One representative pipeline — two D/S converters, a
//! fused two-stage synchronizer chain, a correlation-agnostic adder, and S/D
//! sinks — is compiled once and executed over batches of 1, 8, and 64
//! independent input sets at 1 worker thread and at the machine's available
//! parallelism, reporting input sets (stream pairs) per second.
//!
//! Gate: at batch 64 the sharded configuration must beat the single-thread
//! configuration when more than one CPU is available; on a single-CPU
//! machine (where sharding can only break even) it must stay within 15% of
//! single-thread throughput, demonstrating that the persistent worker pool
//! adds no meaningful overhead.

use sc_bench::host_context;
use sc_graph::{
    BatchInput, BinaryOp, CompiledGraph, Executor, Graph, ManipulatorKind, PlannerOptions,
    StreamJob,
};
use sc_rng::SourceSpec;
use std::sync::Arc;
use std::time::Instant;

const STREAM_BITS: usize = 4096;
const BATCH_SIZES: [usize; 3] = [1, 8, 64];

fn build_plan() -> Arc<CompiledGraph> {
    let mut g = Graph::new();
    let x = g.generate(0, SourceSpec::Sobol { dimension: 1 });
    let y = g.generate(1, SourceSpec::Halton { base: 3, offset: 0 });
    // Two manipulators in series: compiles to one fused chain step.
    let (sx, sy) = g.manipulate(ManipulatorKind::Synchronizer { depth: 1 }, x, y);
    let (dx, dy) = g.manipulate(ManipulatorKind::Synchronizer { depth: 2 }, sx, sy);
    let z = g.binary(BinaryOp::CaAdd, dx, dy);
    g.sink_value("sum", z);
    g.scc_probe("scc", dx, dy);
    let plan = g
        .compile(&PlannerOptions::default())
        .expect("benchmark graph is valid");
    assert_eq!(plan.report().fused_runs, 1, "chain fusion should engage");
    Arc::new(plan)
}

/// One batch dispatch: every input set as a job on `plan`, unbounded window.
fn run_batch(exec: &Executor, plan: &Arc<CompiledGraph>, inputs: &[BatchInput]) {
    let jobs = inputs.iter().map(|input| StreamJob {
        plan: Arc::clone(plan),
        input: input.clone(),
    });
    let out = exec
        .run_stream(jobs, usize::MAX)
        .expect("benchmark executes");
    std::hint::black_box(out);
}

fn batch(size: usize) -> Vec<BatchInput> {
    (0..size)
        .map(|i| {
            let p = (i % 17) as f64 / 17.0;
            BatchInput::with_values(vec![p, 1.0 - 0.5 * p])
        })
        .collect()
}

/// Best observed throughput (input sets per second) over several samples,
/// with the repetition count calibrated so each sample is long enough to
/// time reliably.
fn measure(exec: &Executor, plan: &Arc<CompiledGraph>, inputs: &[BatchInput]) -> f64 {
    let mut reps = 1u64;
    loop {
        let start = Instant::now();
        for _ in 0..reps {
            run_batch(exec, plan, inputs);
        }
        let ns = start.elapsed().as_nanos() as u64;
        if ns >= 20_000_000 || reps >= 1 << 16 {
            break;
        }
        reps = (reps * 20_000_000 / ns.max(1)).clamp(reps + 1, reps * 16);
    }
    let mut best = 0.0f64;
    for _ in 0..7 {
        let start = Instant::now();
        for _ in 0..reps {
            run_batch(exec, plan, inputs);
        }
        let secs = start.elapsed().as_secs_f64();
        let throughput = (reps as usize * inputs.len()) as f64 / secs;
        best = best.max(throughput);
    }
    best
}

struct Row {
    batch: usize,
    threads: usize,
    items_per_sec: f64,
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_graph_batch.json".into());
    let cpus = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    // On a single-CPU machine still exercise the sharded path (2 workers);
    // the gate below adapts.
    let sharded_threads = cpus.clamp(2, 8);
    let plan = build_plan();

    let mut rows: Vec<Row> = Vec::new();
    for &size in &BATCH_SIZES {
        let inputs = batch(size);
        for threads in [1usize, sharded_threads] {
            let exec = Executor::new(STREAM_BITS).with_threads(threads);
            let items_per_sec = measure(&exec, &plan, &inputs);
            println!("batch {size:>3}  threads {threads}  {items_per_sec:>12.0} input sets/sec");
            rows.push(Row {
                batch: size,
                threads,
                items_per_sec,
            });
        }
    }

    let throughput = |size: usize, threads: usize| {
        rows.iter()
            .find(|r| r.batch == size && r.threads == threads)
            .expect("configuration measured")
            .items_per_sec
    };
    let single = throughput(64, 1);
    let sharded = throughput(64, sharded_threads);
    let speedup = sharded / single;

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!("  \"stream_bits\": {STREAM_BITS},\n"));
    json.push_str(&format!(
        "  \"host\": {},\n",
        host_context().to_string_compact()
    ));
    json.push_str(&format!("  \"cpus\": {cpus},\n"));
    json.push_str(&format!("  \"sharded_threads\": {sharded_threads},\n"));
    json.push_str("  \"unit\": \"independent input sets per second, best of 7 samples\",\n");
    json.push_str(&format!("  \"batch64_sharded_speedup\": {speedup:.3},\n"));
    json.push_str("  \"results\": [\n");
    for (i, row) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"batch\": {}, \"threads\": {}, \"items_per_sec\": {:.1}}}{}\n",
            row.batch,
            row.threads,
            row.items_per_sec,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, &json).expect("write BENCH_graph_batch.json");
    println!("\nwrote {out_path}");

    if cpus > 1 {
        assert!(
            sharded > single,
            "batch-64 sharded throughput ({sharded:.0}/s on {sharded_threads} threads) \
             must beat single-thread ({single:.0}/s) on a {cpus}-CPU machine"
        );
        println!("sharded batch-64 beats single-thread: {speedup:.2}x");
    } else {
        assert!(
            speedup >= 0.85,
            "on a single CPU, sharding must stay within 15% of single-thread \
             throughput (got {speedup:.2}x)"
        );
        println!("single CPU: sharded batch-64 within tolerance of single-thread ({speedup:.2}x)");
    }
}
