//! # sc-graph
//!
//! A dataflow-graph compiler and sharded batch executor for
//! stochastic-computing pipelines.
//!
//! The paper's accelerator (§IV) is a *circuit*: a wired graph of stream
//! generators, correlation-manipulating circuits, and arithmetic gates. This
//! crate makes that structure first-class. A [`Graph`] is built from typed
//! nodes — stream sources ([`Graph::generate`] D/S conversion,
//! [`Graph::input_stream`]), correlation manipulators
//! ([`Graph::manipulate`]), arithmetic operators ([`Graph::binary`],
//! [`Graph::mux_add`], [`Graph::weighted_mux`]), and sinks (S/D value and
//! count converters, APC sums, SCC probes) — connected by stream-valued
//! [`Wire`]s.
//!
//! [`Graph::compile`] runs four stages: validate → scc-infer → repair →
//! emit (see `passes` internals and the README's compiler section). Every
//! binary operator declares the SCC class its inputs must have
//! (AND-multiply wants SCC 0, XOR-subtract and OR-max want +1,
//! OR-saturating-add wants −1 — paper Fig. 2). The scc-infer stage derives
//! each input pair's class structurally: shared-source streams are +1,
//! independent-source streams are 0, and each manipulator pins its output
//! pair to the class it establishes. Where a precondition is not met, the
//! repair stage **auto-inserts** the establishing circuit — synchronizer,
//! desynchronizer, or decorrelator (§III), the paper's core insight applied
//! automatically. A pair the rules cannot place is unknown and gets the
//! repair too. The emit stage lays out one step per node.
//!
//! The [`Executor`] then runs the compiled plan word-parallel over **streams**
//! of independent input sets, dispatched across a persistent [`WorkerPool`]
//! of long-lived threads (no external dependencies). The engine is
//! **bounded-window streaming** ([`Executor::run_stream`]): jobs are pulled
//! lazily from an iterator with at most `window` planned-but-unfinished jobs
//! alive at once, so arbitrarily long job streams run in O(window) plan
//! memory; a batch is a materialised job list streamed with an unbounded
//! window. The warm serving tier ([`Service`]) multiplexes many requests
//! over one pool with no dispatcher thread: each submitted job becomes one
//! pool task, which takes the next job from the bounded intake round-robin.
//! Every job runs solo through the one per-job engine. Plans are
//! `Send + Sync` plain data: every execution runs fresh FSMs over one word
//! arena per job, and reads the samples its [`sc_rng::SourceSpec`]s would
//! draw from a bounded process-wide store of planes (D/S conversions copy a
//! prefix mask, LFSR selects read windows of one cycle table per width),
//! through handles each plan resolves once per stream length. So parallel
//! results are bit-identical to sequential ones at any worker count and any
//! window.
//!
//! A compiled plan also bridges to the gate-level cost model:
//! [`CompiledGraph::netlist`] sums the `sc_hwcost` netlists of every executed
//! operation, auto-inserted repairs included.
//!
//! **Observability.** Both the compiler and the executor accept an
//! [`sc_telemetry::TelemetrySink`] ([`Graph::compile_with_telemetry`],
//! [`Executor::with_telemetry`]): compile stages, dispatches, per-job
//! executions, and worker park/run cycles record named spans,
//! counters, gauges, and histograms into it, drainable as one
//! [`sc_telemetry::TelemetryReport`]. The default sink is a no-op and the
//! instrumentation sits at step/job granularity — never inside the word
//! kernels — so uninstrumented runs pay (gated) near-zero overhead.
//!
//! # Example
//!
//! ```
//! use sc_graph::{BatchInput, BinaryOp, Executor, Graph, PlannerOptions, StreamJob};
//! use sc_rng::SourceSpec;
//! use std::sync::Arc;
//!
//! // |pX − pY| needs positively correlated inputs, but the two D/S
//! // converters draw from independent Sobol dimensions...
//! let mut g = Graph::new();
//! let x = g.generate(0, SourceSpec::Sobol { dimension: 1 });
//! let y = g.generate(1, SourceSpec::Sobol { dimension: 2 });
//! let z = g.binary(BinaryOp::XorSubtract, x, y);
//! g.sink_value("diff", z);
//!
//! // ...so the planner inserts a synchronizer in front of the XOR.
//! let plan = Arc::new(g.compile(&PlannerOptions::default())?);
//! assert_eq!(plan.report().inserted.len(), 1);
//!
//! // Batched execution: 4 independent input sets, sharded over 2 workers.
//! let jobs = (0..4).map(|i| StreamJob {
//!     plan: Arc::clone(&plan),
//!     input: BatchInput::with_values(vec![0.8, 0.2 + 0.1 * i as f64]),
//! });
//! let outs = Executor::new(1024).with_threads(2).run_stream(jobs, usize::MAX)?;
//! for (i, out) in outs.iter().enumerate() {
//!     let expected = (0.8f64 - (0.2 + 0.1 * i as f64)).abs();
//!     assert!((out.value("diff").unwrap() - expected).abs() < 0.07);
//! }
//! # Ok::<(), sc_graph::GraphError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compile;
pub mod cost;
pub mod exec;
#[cfg(any(test, feature = "fault-injection"))]
pub mod fault;
pub mod graph;
pub mod node;
mod passes;
mod planes;
pub mod serve;

pub use compile::{CompileReport, CompiledGraph, PassDelta, PlannerOptions, RepairRecord, Step};
pub use exec::{
    BatchInput, ExecOutput, Executor, StreamJob, StreamStats, WorkerPool, DEFAULT_WINDOW_FACTOR,
};
pub use graph::{Graph, GraphError};
pub use node::{
    BinaryOp, CorrRequirement, ManipulatorKind, Node, NodeId, NodeOp, SccClass, UnaryFsmOp, Wire,
};
pub use sc_telemetry::{TelemetryReport, TelemetrySink};
pub use serve::{
    Request, RequestAttribution, RequestError, RequestHandle, RequestReport, Service,
    ServiceConfig, SubmitError,
};
