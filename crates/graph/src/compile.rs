//! The graph compiler: public plan types and the entry point of the
//! four-stage compile pipeline.
//!
//! Compilation runs the stages in `crate::passes`:
//!
//! 1. **validate** — sink names must be unique and manipulator depths in
//!    range. Wires, ports and arities are checked as each node is added,
//!    and the graph is append-only, so it is acyclic as built.
//! 2. **scc-infer** — every binary operator declares the SCC class its
//!    inputs must have (paper Fig. 2). The stage derives the class of each
//!    input pair *structurally*: streams from equal source specs are
//!    positively correlated (shared-RNG, §II.B), streams from different
//!    specs are uncorrelated, and a manipulator pins its output pair to the
//!    class it establishes (+1 synchronizer / −1 desynchronizer / 0
//!    decorrelator, §III). Any other pair is [`crate::SccClass::Unknown`],
//!    which meets no precondition.
//! 3. **repair** — where a precondition is not met and
//!    [`PlannerOptions::auto_repair`] is on, the manipulator that
//!    establishes the required class is inserted in front of the operator
//!    (the paper's core insight, applied automatically); every miss is a
//!    [`RepairRecord`] in the report.
//! 4. **emit** — nodes are laid out in index order, each inserted
//!    manipulator directly before its operator, as a flat step list over
//!    dense stream slots, ready for the batch executor. A [`Step`] is the node's own [`NodeOp`] plus its slots: its
//!    input slots live in one flat per-plan list ([`CompiledGraph::srcs`]),
//!    and its outputs are consecutive slots from the step's `dst`.

use crate::exec::SinkNames;
use crate::graph::{Graph, GraphError};
use crate::node::{CorrRequirement, ManipulatorKind, NodeOp, SccClass};
use crate::planes::PlanCache;
use sc_telemetry::TelemetrySink;
use std::fmt;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Process-wide monotonic counter behind [`CompiledGraph::plan_class`]: every
/// `compile` call mints a fresh class, and clones keep their template's
/// class.
static PLAN_CLASS: AtomicU64 = AtomicU64::new(0);

/// Mints the class id for a freshly compiled plan: a process-unique
/// sequence number.
pub(crate) fn next_plan_class() -> u64 {
    PLAN_CLASS.fetch_add(1, Ordering::Relaxed)
}

/// Knobs of the compile pipeline's planning stages.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannerOptions {
    /// Insert correlation-establishing manipulators where a binary operator's
    /// SCC precondition is not structurally guaranteed (default `true`).
    /// When `false`, unmet preconditions are only recorded in the
    /// [`CompileReport`].
    pub auto_repair: bool,
    /// Save depth of auto-inserted synchronizers.
    pub synchronizer_depth: u32,
}

impl Default for PlannerOptions {
    fn default() -> Self {
        PlannerOptions {
            auto_repair: true,
            synchronizer_depth: 1,
        }
    }
}

impl PlannerOptions {
    /// Options with auto-repair disabled (preconditions only reported).
    #[must_use]
    pub fn no_repair() -> Self {
        PlannerOptions {
            auto_repair: false,
            ..PlannerOptions::default()
        }
    }
}

/// What one compile stage did to the IR.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PassDelta {
    /// The stage name (e.g. `repair`).
    pub pass: &'static str,
    /// Nodes the stage appended (repair circuits).
    pub nodes_added: usize,
    /// Short human-readable summary of the stage's effect.
    pub detail: String,
}

/// One correlation-tracked operator whose structurally inferred input class
/// misses its precondition, as the repair stage found it. Its `Display` is
/// the report line: `synchronizer(D=1) inserted before xor_subtract (node
/// n2): inputs are Uncorrelated, Positive required` for a repair, and
/// `xor_subtract (node n2) requires Positive inputs but gets Uncorrelated`
/// for a miss left standing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RepairRecord {
    /// The operator's label (`xor_subtract`, `or_max`, ...).
    pub operator: &'static str,
    /// The operator's node index in the source graph.
    pub node: usize,
    /// The inferred class of the operator's input pair.
    pub class: SccClass,
    /// The class the operator's precondition requires.
    pub requirement: CorrRequirement,
    /// The manipulator spliced in front of the operator, or `None` when
    /// auto-repair is off and the miss is only recorded.
    pub inserted: Option<ManipulatorKind>,
}

impl fmt::Display for RepairRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let RepairRecord {
            operator,
            node,
            class,
            requirement,
            inserted,
        } = self;
        match inserted {
            Some(kind) => write!(
                f,
                "{kind} inserted before {operator} (node n{node}): inputs are {class:?}, {requirement:?} required"
            ),
            None => write!(
                f,
                "{operator} (node n{node}) requires {requirement:?} inputs but gets {class:?}"
            ),
        }
    }
}

/// What the pipeline did to a graph during compilation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CompileReport {
    /// One record per auto-inserted repair manipulator, in node order. The
    /// `k`-th record's manipulator is the plan's node `n + k` of an
    /// `n`-node source graph.
    pub inserted: Vec<RepairRecord>,
    /// One record per binary operator whose precondition is not
    /// structurally guaranteed and was *not* repaired (auto-repair off).
    pub unsatisfied: Vec<RepairRecord>,
    /// Source-drawing steps whose [`SourceSpec`](sc_rng::SourceSpec) is
    /// shared with an earlier step — generator hardware the plan does not
    /// have to duplicate.
    pub shared_sources: usize,
    /// Per-stage deltas, in execution order.
    pub pass_deltas: Vec<PassDelta>,
}

/// One executable step of a compiled plan: a node of the repaired graph —
/// its own [`NodeOp`], planner-inserted repairs included — over dense
/// stream slots (`0..CompiledGraph::slot_count()`).
///
/// The step's input slots, one per input port, are a range of the plan's
/// one flat slot list, read through [`CompiledGraph::srcs`]. Its outputs
/// are the `op.output_ports()` consecutive slots from `dst`: a
/// manipulator writes its X output to `dst` and its Y output to `dst + 1`,
/// and a sink writes none.
///
/// Steps are public so lowering backends (the `sc_rtl` gate-level elaborator
/// in particular) can walk a plan's exact execution structure without
/// re-deriving it from the source graph.
#[derive(Debug, Clone, PartialEq)]
pub struct Step {
    /// The operation the step performs.
    pub op: NodeOp,
    /// The step's range of the plan's input-slot list.
    pub(crate) srcs: Range<usize>,
    /// The first output slot.
    pub dst: usize,
}

/// A validated, repaired, topologically ordered execution plan.
///
/// Produced by [`Graph::compile`]; executed by [`crate::Executor`]. The plan
/// is immutable and `Send + Sync`, so one compiled graph can drive many
/// worker threads at once.
#[derive(Debug, Clone)]
pub struct CompiledGraph {
    pub(crate) steps: Vec<Step>,
    /// Every step's input slots, back to back in step order.
    srcs: Vec<usize>,
    pub(crate) slot_count: usize,
    pub(crate) value_slots: usize,
    pub(crate) stream_slots: usize,
    report: CompileReport,
    /// Template-class id: fresh per `compile` call, preserved by `Clone`.
    /// Jobs of one class run one step list (their sources may differ only
    /// through [`BatchInput::bindings`](crate::BatchInput::bindings)).
    class: u64,
    /// The sinks' names in emit order with a by-name index, shared with
    /// every execution's [`ExecOutput`](crate::ExecOutput).
    pub(crate) sinks: Arc<SinkNames>,
    /// The source-drawing steps' plane handles, resolved once per stream
    /// length on the first job at it and shared by clones.
    pub(crate) planes: Arc<PlanCache>,
}

impl CompiledGraph {
    /// Builds a plan from the emit stage's artifacts, minting its class id.
    pub(crate) fn assemble(
        steps: Vec<Step>,
        srcs: Vec<usize>,
        slot_count: usize,
        value_slots: usize,
        stream_slots: usize,
        report: CompileReport,
    ) -> CompiledGraph {
        CompiledGraph {
            sinks: Arc::new(SinkNames::of(&steps)),
            steps,
            srcs,
            slot_count,
            value_slots,
            stream_slots,
            report,
            class: next_plan_class(),
            planes: Arc::default(),
        }
    }

    /// What the pipeline inserted and left unrepaired.
    #[must_use]
    pub fn report(&self) -> &CompileReport {
        &self.report
    }

    /// Number of executable steps: one per node, repairs included.
    #[must_use]
    pub fn step_count(&self) -> usize {
        self.steps.len()
    }

    /// The executable steps, in emit order — the exact structure the
    /// executor runs and lowering backends elaborate.
    #[must_use]
    pub fn steps(&self) -> &[Step] {
        &self.steps
    }

    /// The input slots of one of this plan's steps, one per input port.
    #[must_use]
    pub fn srcs(&self, step: &Step) -> &[usize] {
        &self.srcs[step.srcs.clone()]
    }

    /// Number of dense stream slots an execution environment needs.
    #[must_use]
    pub fn slot_count(&self) -> usize {
        self.slot_count
    }

    /// The plan's template class: a process-unique id minted per
    /// [`Graph::compile`] call and *shared* by every clone of that plan.
    /// Jobs of one class run the same steps, slots and scheduling; their
    /// source seeding may differ only through their inputs'
    /// [`BatchInput::bindings`](crate::BatchInput::bindings). Telemetry keys
    /// its per-class job and latency table by it.
    #[must_use]
    pub fn plan_class(&self) -> u64 {
        self.class
    }

    /// The position of the named value-producing sink (`SinkValue` or
    /// `SccProbe`) among the plan's value sinks:
    /// the index its result takes in every execution's
    /// [`ExecOutput::sink_values`](crate::ExecOutput::sink_values).
    #[must_use]
    pub fn value_sink_index(&self, name: &str) -> Option<usize> {
        self.sinks.value_position(name)
    }

    /// Number of digital value slots the batch items must provide.
    #[must_use]
    pub fn value_slots(&self) -> usize {
        self.value_slots
    }

    /// Number of input stream slots the batch items must provide.
    #[must_use]
    pub fn stream_slots(&self) -> usize {
        self.stream_slots
    }
}

impl Graph {
    /// Compiles the graph into an executable plan by running validate →
    /// scc-infer → repair → emit (see the `crate::passes` module).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::EmptyGraph`], [`GraphError::DuplicateSink`], or
    /// [`GraphError::ManipulatorOutOfRange`] for a `Manipulate` node, or an
    /// auto-repair depth in `options`, outside [`sc_core::DEPTH_RANGE`].
    pub fn compile(&self, options: &PlannerOptions) -> Result<CompiledGraph, GraphError> {
        self.compile_with_telemetry(options, &TelemetrySink::default())
    }

    /// [`Graph::compile`] with per-stage profiling: records one
    /// [`sc_telemetry::Stage::Compile`] span over the whole call with one
    /// nested span per stage ([`sc_telemetry::Stage::CompileValidate`],
    /// [`sc_telemetry::Stage::CompilePlan`],
    /// [`sc_telemetry::Stage::CompileRepair`],
    /// [`sc_telemetry::Stage::CompileEmit`]), and on success bumps the
    /// sink's compilation and repair-insertion counters straight from the
    /// plan's [`CompileReport`] — the counters are derived from the report,
    /// so the two cannot drift.
    ///
    /// # Errors
    ///
    /// Exactly as [`Graph::compile`].
    pub fn compile_with_telemetry(
        &self,
        options: &PlannerOptions,
        telemetry: &TelemetrySink,
    ) -> Result<CompiledGraph, GraphError> {
        crate::passes::run_pipeline(self, options, telemetry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{BinaryOp, ManipulatorKind};
    use sc_rng::SourceSpec;

    fn sobol(d: u32) -> SourceSpec {
        SourceSpec::Sobol { dimension: d }
    }

    #[test]
    fn empty_graph_rejected() {
        let g = Graph::new();
        assert!(matches!(
            g.compile(&PlannerOptions::default()),
            Err(GraphError::EmptyGraph)
        ));
    }

    #[test]
    fn plan_class_marks_templates() {
        let build = || {
            let mut g = Graph::new();
            let x = g.generate(0, sobol(1));
            let y = g.generate(1, sobol(2));
            let (sx, sy) = g.manipulate(ManipulatorKind::Synchronizer { depth: 1 }, x, y);
            g.sink_stream("x", sx);
            g.sink_stream("y", sy);
            g
        };
        let a = build().compile(&PlannerOptions::default()).unwrap();
        let b = build().compile(&PlannerOptions::default()).unwrap();
        // Every compile mints a fresh class; clones keep their template's
        // class.
        assert_ne!(a.plan_class(), b.plan_class());
        assert_eq!(a.clone().plan_class(), a.plan_class());
    }

    #[test]
    fn duplicate_sink_rejected() {
        let mut g = Graph::new();
        let x = g.generate(0, sobol(1));
        g.sink_value("z", x);
        g.sink_value("z", x);
        assert!(matches!(
            g.compile(&PlannerOptions::default()),
            Err(GraphError::DuplicateSink { .. })
        ));
    }

    #[test]
    fn planner_inserts_synchronizer_for_xor_on_uncorrelated_inputs() {
        let mut g = Graph::new();
        let x = g.generate(0, sobol(1));
        let y = g.generate(1, sobol(2));
        let z = g.binary(BinaryOp::XorSubtract, x, y);
        g.sink_value("z", z);
        let plan = g.compile(&PlannerOptions::default()).unwrap();
        assert_eq!(plan.report().inserted.len(), 1);
        assert!(plan.report().inserted[0]
            .to_string()
            .contains("synchronizer"));
        assert!(plan.steps().iter().any(|step| matches!(
            step.op,
            NodeOp::Manipulate(ManipulatorKind::Synchronizer { .. })
        )));
    }

    #[test]
    fn planner_skips_satisfied_preconditions() {
        let mut g = Graph::new();
        // Shared spec ⇒ positively correlated ⇒ or_max satisfied directly.
        let x = g.generate(0, sobol(1));
        let y = g.generate(1, sobol(1));
        let z = g.binary(BinaryOp::OrMax, x, y);
        g.sink_value("max", z);
        // Different specs ⇒ uncorrelated ⇒ and_multiply satisfied directly.
        let a = g.generate(2, sobol(3));
        let b = g.generate(3, sobol(4));
        let m = g.binary(BinaryOp::AndMultiply, a, b);
        g.sink_value("prod", m);
        let plan = g.compile(&PlannerOptions::default()).unwrap();
        assert!(plan.report().inserted.is_empty());
        assert!(plan.report().unsatisfied.is_empty());
    }

    #[test]
    fn planner_tracks_manipulator_output_classes() {
        let mut g = Graph::new();
        let x = g.generate(0, sobol(1));
        let y = g.generate(1, sobol(2));
        // Desynchronizer pins the pair to Negative: saturating add satisfied.
        let (dx, dy) = g.manipulate(ManipulatorKind::Desynchronizer { depth: 1 }, x, y);
        let s = g.binary(BinaryOp::SaturatingAdd, dx, dy);
        g.sink_value("sat", s);
        // Synchronizer pins the pair to Positive: or_max satisfied.
        let (sx, sy) = g.manipulate(ManipulatorKind::Synchronizer { depth: 2 }, x, y);
        let m = g.binary(BinaryOp::OrMax, sx, sy);
        g.sink_value("max", m);
        // Decorrelator pins a positive pair to Uncorrelated: and_multiply
        // satisfied.
        let (cx, cy) = g.manipulate(ManipulatorKind::Decorrelator { depth: 4 }, sx, sy);
        let p = g.binary(BinaryOp::AndMultiply, cx, cy);
        g.sink_value("prod", p);
        let plan = g.compile(&PlannerOptions::default()).unwrap();
        assert!(
            plan.report().inserted.is_empty(),
            "unexpected inserts: {:?}",
            plan.report().inserted
        );
    }

    #[test]
    fn a_generated_and_a_regenerated_stream_of_one_source_are_positive() {
        use crate::exec::{BatchInput, Executor};
        let mut g = Graph::new();
        let x = g.generate(0, sobol(1));
        let y = g.generate(1, sobol(2));
        // Both compare against the same samples of one source.
        let r = g.regenerate(sobol(1), y);
        let z = g.binary(BinaryOp::XorSubtract, x, r);
        g.sink_value("z", z);
        g.scc_probe("scc", x, r);
        let plan = g.compile(&PlannerOptions::default()).unwrap();
        assert!(plan.report().inserted.is_empty());
        let out = Executor::new(256)
            .run(&plan, &BatchInput::with_values(vec![0.7, 0.3]))
            .unwrap();
        assert!(out.value("scc").unwrap() > 0.99);
    }

    #[test]
    fn no_repair_records_unsatisfied() {
        let mut g = Graph::new();
        let x = g.generate(0, sobol(1));
        let y = g.generate(1, sobol(2));
        let z = g.binary(BinaryOp::XorSubtract, x, y);
        g.sink_value("z", z);
        let plan = g.compile(&PlannerOptions::no_repair()).unwrap();
        assert!(plan.report().inserted.is_empty());
        assert_eq!(plan.report().unsatisfied.len(), 1);
        assert!(plan.report().unsatisfied[0]
            .to_string()
            .contains("Positive"));
    }

    #[test]
    fn bound_plan_matches_directly_compiled_plan() {
        use crate::exec::{BatchInput, Executor};
        let lfsr = |seed: u64| SourceSpec::Lfsr { width: 16, seed };
        let build = |seed: u64| {
            let mut g = Graph::new();
            let x = g.generate(0, sobol(1));
            let y = g.generate(1, sobol(2));
            let z = g.mux_add(x, y, lfsr(seed));
            g.sink_stream("z", z);
            g.compile(&PlannerOptions::default()).unwrap()
        };
        let template = build(0xACE1);
        let direct = build(0xBEEF);
        let input = BatchInput::with_values(vec![0.3, 0.8]);
        let bound = BatchInput {
            bindings: vec![(lfsr(0xACE1), lfsr(0xBEEF))],
            ..input.clone()
        };
        let exec = Executor::new(257);
        assert_eq!(
            exec.run(&template, &bound).unwrap(),
            exec.run(&direct, &input).unwrap()
        );
        // And the binding really changes what the template draws.
        assert_ne!(
            exec.run(&template, &bound).unwrap(),
            exec.run(&template, &input).unwrap()
        );
        // A binding for a spec the plan never holds changes nothing.
        let unrelated = BatchInput {
            bindings: vec![(lfsr(7), lfsr(9))],
            ..input.clone()
        };
        assert_eq!(
            exec.run(&template, &unrelated).unwrap(),
            exec.run(&template, &input).unwrap()
        );
    }

    #[test]
    fn steps_are_introspectable() {
        let mut g = Graph::new();
        let x = g.generate(0, sobol(1));
        let y = g.generate(1, sobol(2));
        let z = g.binary(BinaryOp::AndMultiply, x, y);
        g.sink_value("z", z);
        let plan = g.compile(&PlannerOptions::default()).unwrap();
        assert_eq!(plan.steps().len(), plan.step_count());
        assert!(plan.slot_count() >= 3);
        assert!(plan
            .steps()
            .iter()
            .any(|s| s.op == NodeOp::Binary(BinaryOp::AndMultiply) && plan.srcs(s).len() == 2));
    }

    #[test]
    fn manipulator_runs_emit_one_step_per_node() {
        let mut g = Graph::new();
        let x = g.input_stream(0);
        let y = g.input_stream(1);
        let (a0, a1) = g.manipulate(ManipulatorKind::Synchronizer { depth: 1 }, x, y);
        let (b0, b1) = g.manipulate(ManipulatorKind::Synchronizer { depth: 2 }, a0, a1);
        let (c0, c1) = g.manipulate(ManipulatorKind::Decorrelator { depth: 2 }, b0, b1);
        g.sink_stream("x", c0);
        g.sink_stream("y", c1);
        let plan = g.compile(&PlannerOptions::default()).unwrap();
        // 2 inputs + 3 manipulator steps + 2 sinks.
        assert_eq!(plan.step_count(), 7);
        let kinds: Vec<ManipulatorKind> = plan
            .steps()
            .iter()
            .filter_map(|s| match s.op {
                NodeOp::Manipulate(kind) => Some(kind),
                _ => None,
            })
            .collect();
        assert_eq!(
            kinds,
            vec![
                ManipulatorKind::Synchronizer { depth: 1 },
                ManipulatorKind::Synchronizer { depth: 2 },
                ManipulatorKind::Decorrelator { depth: 2 },
            ]
        );
        // Each manipulator writes its pair to `dst` and `dst + 1`, which the
        // next one reads; the sinks read the last pair.
        let slots: Vec<(&[usize], usize)> =
            plan.steps().iter().map(|s| (plan.srcs(s), s.dst)).collect();
        let expected: [(&[usize], usize); 7] = [
            (&[], 0),
            (&[], 1),
            (&[0, 1], 2),
            (&[2, 3], 4),
            (&[4, 5], 6),
            (&[6], 8),
            (&[7], 8),
        ];
        assert_eq!(slots, expected);
        assert_eq!(plan.slot_count(), 8);
    }

    #[test]
    fn slot_counts_reflect_batch_requirements() {
        let mut g = Graph::new();
        let x = g.generate(3, sobol(1));
        let s = g.input_stream(1);
        let z = g.binary(BinaryOp::AndMultiply, x, s);
        g.sink_value("z", z);
        let plan = g.compile(&PlannerOptions::default()).unwrap();
        assert_eq!(plan.value_slots(), 4);
        assert_eq!(plan.stream_slots(), 2);
    }

    #[test]
    fn pass_deltas_record_the_executed_pipeline() {
        let mut g = Graph::new();
        let x = g.generate(0, sobol(1));
        let y = g.generate(1, sobol(2));
        let z = g.binary(BinaryOp::XorSubtract, x, y);
        g.sink_value("z", z);
        let plan = g.compile(&PlannerOptions::default()).unwrap();
        let passes: Vec<&str> = plan.report().pass_deltas.iter().map(|d| d.pass).collect();
        assert_eq!(passes, vec!["validate", "scc-infer", "repair", "emit"]);
        let repair = &plan.report().pass_deltas[2];
        assert_eq!(repair.nodes_added, 1);
        assert_eq!(repair.detail, "1 repairs inserted");
    }
}
