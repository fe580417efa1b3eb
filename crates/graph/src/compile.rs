//! The graph compiler: public plan types and the entry point of the
//! four-stage compile pipeline.
//!
//! Compilation runs the stages in `crate::passes`:
//!
//! 1. **validate** — wires must reference existing nodes/ports, arities
//!    must match, sink names must be unique, and the graph must be acyclic
//!    (Kahn topological sort; only [`crate::Graph::rewire`] can introduce a
//!    cycle).
//! 2. **scc-infer** — every binary operator declares the SCC class its
//!    inputs must have (paper Fig. 2). The stage derives the class of each
//!    input pair *structurally*: streams from equal source specs are
//!    positively correlated (shared-RNG, §II.B), streams from different
//!    specs are uncorrelated, and a manipulator pins its output pair to the
//!    class it establishes (+1 synchronizer / −1 desynchronizer / 0
//!    decorrelator, §III). Structurally unknown pairs can be resolved by a
//!    measured-SCC probe execution ([`PlannerOptions::measure_unknown`]).
//! 3. **repair** — where a precondition is not met and
//!    [`PlannerOptions::auto_repair`] is on, the manipulator that
//!    establishes the required class is inserted in front of the operator
//!    (the paper's core insight, applied automatically).
//! 4. **emit** — nodes are laid out in topological order as a flat step
//!    list over dense stream slots, ready for the batch executor. Maximal
//!    linear runs of manipulator nodes collapse into one
//!    [`sc_core::ManipulatorChain`] step, so a run of `k` circuits makes a
//!    single register-staged pass per 64-bit word.

use crate::exec::SinkNames;
use crate::graph::{Graph, GraphError};
use crate::node::{BinaryOp, ManipulatorKind, NodeOp, SccClass, UnaryFsmOp};
use sc_rng::SourceSpec;
use sc_telemetry::TelemetrySink;
use std::fmt;
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
    /// Save depth of auto-inserted desynchronizers.
    pub desynchronizer_depth: u32,
    /// Shuffle-buffer depth of auto-inserted decorrelators.
    pub decorrelator_depth: usize,
    /// Measured-SCC feedback: when an operator's input pair has structural
    /// class [`SccClass::Unknown`], run a short [`sc_core::SccTracker`]-style
    /// probe execution of this length over representative inputs and use the
    /// *measured* class for the repair decision instead of pessimistically
    /// treating the pair as unknown. `None` (the default) keeps the purely
    /// structural behaviour.
    pub measure_unknown: Option<usize>,
    /// The digital value fed to every `Generate` slot during a measured-SCC
    /// probe execution (default `0.5`, the maximum-entropy stimulus). Set
    /// this to a representative batch statistic — e.g. the mean pixel value
    /// of the images a tile pipeline will process — so repair decisions are
    /// driven by the operating point the design actually sees.
    pub probe_value: f64,
}

impl Default for PlannerOptions {
    fn default() -> Self {
        PlannerOptions {
            auto_repair: true,
            synchronizer_depth: 1,
            desynchronizer_depth: 1,
            decorrelator_depth: 4,
            measure_unknown: None,
            probe_value: 0.5,
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

    /// Options with measured-SCC feedback enabled at the given probe length.
    #[must_use]
    pub fn with_measurement(probe_length: usize) -> Self {
        PlannerOptions {
            measure_unknown: Some(probe_length.max(1)),
            ..PlannerOptions::default()
        }
    }
}

/// One structurally-unknown input pair whose class was resolved by a
/// measured-SCC probe ([`PlannerOptions::measure_unknown`]). The `Display`
/// impl reproduces the pre-structured report text.
#[derive(Debug, Clone, PartialEq)]
pub struct MeasuredPair {
    /// The operator whose input pair was probed (e.g. `xor_subtract`).
    pub label: String,
    /// The operator's node index.
    pub node: usize,
    /// The measured stochastic cross-correlation, in `[-1, 1]`.
    pub scc: f64,
    /// Probe execution length in cycles.
    pub probe_length: usize,
    /// The class the measurement resolved the pair to.
    pub class: SccClass,
}

impl fmt::Display for MeasuredPair {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let MeasuredPair {
            label,
            node,
            scc,
            probe_length,
            class,
        } = self;
        write!(
            f,
            "inputs of {label} (node n{node}) measured SCC {scc:.3} over {probe_length} \
             cycles: treating pair as {class:?}"
        )
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

/// What the pipeline did to a graph during compilation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CompileReport {
    /// One entry per auto-inserted repair manipulator.
    pub inserted: Vec<String>,
    /// One entry per binary operator whose precondition is not structurally
    /// guaranteed and was *not* repaired (auto-repair off).
    pub unsatisfied: Vec<String>,
    /// Number of fused manipulator runs of length ≥ 2.
    pub fused_runs: usize,
    /// One entry per structurally-unknown input pair whose class was resolved
    /// by a measured-SCC probe ([`PlannerOptions::measure_unknown`]).
    pub measured: Vec<MeasuredPair>,
    /// Source-drawing steps whose [`SourceSpec`] is shared with an earlier
    /// step — generator hardware the plan does not have to duplicate.
    pub shared_sources: usize,
    /// Per-stage deltas, in execution order.
    pub pass_deltas: Vec<PassDelta>,
}

/// One executable step of a compiled plan. Slot indices address the dense
/// per-execution stream environment (`0..CompiledGraph::slot_count()`).
///
/// Steps are public so lowering backends (the `sc_rtl` gate-level elaborator
/// in particular) can walk a plan's exact execution structure — including
/// fused manipulator runs and planner-inserted repairs —
/// without re-deriving it from the source graph. The enum is
/// `#[non_exhaustive]`: consumers must handle unknown future step kinds
/// (typically by reporting the plan as unsupported).
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Step {
    /// Copy `BatchInput::streams[slot]` into `dst`.
    Input {
        /// Index into the batch item's stream list.
        slot: usize,
        /// Destination stream slot.
        dst: usize,
    },
    /// D/S-convert `BatchInput::values[slot]` into `dst`.
    Generate {
        /// Index into the batch item's value list.
        slot: usize,
        /// Comparator sample source.
        source: SourceSpec,
        /// Samples the source has already served to earlier consumers.
        skip: u64,
        /// Destination stream slot.
        dst: usize,
    },
    /// D/S-convert a constant probability into `dst`.
    Constant {
        /// The encoded probability.
        probability: f64,
        /// Comparator sample source.
        source: SourceSpec,
        /// Samples the source has already served to earlier consumers.
        skip: u64,
        /// Destination stream slot.
        dst: usize,
    },
    /// Run a (possibly fused) chain of correlation manipulators.
    Manipulate {
        /// The chained circuit kinds, in dataflow order.
        kinds: Vec<ManipulatorKind>,
        /// X input slot.
        x: usize,
        /// Y input slot.
        y: usize,
        /// Manipulated-X destination slot.
        dst_x: usize,
        /// Manipulated-Y destination slot.
        dst_y: usize,
    },
    /// S/D + D/S regeneration from a fresh source.
    Regenerate {
        /// Re-encoding sample source.
        source: SourceSpec,
        /// Samples the source has already served to earlier consumers.
        skip: u64,
        /// Input stream slot.
        src: usize,
        /// Destination stream slot.
        dst: usize,
    },
    /// Stream complement.
    Not {
        /// Input stream slot.
        src: usize,
        /// Destination stream slot.
        dst: usize,
    },
    /// A two-input arithmetic operator.
    Binary {
        /// The operator.
        op: BinaryOp,
        /// X input slot.
        x: usize,
        /// Y input slot.
        y: usize,
        /// Destination stream slot.
        dst: usize,
    },
    /// A saturating-counter FSM activation.
    UnaryFsm {
        /// The FSM design.
        op: UnaryFsmOp,
        /// Input stream slot.
        src: usize,
        /// Destination stream slot.
        dst: usize,
    },
    /// The feedback SC divider.
    Divide {
        /// Comparison sample source.
        source: SourceSpec,
        /// Samples the source has already served to earlier consumers.
        skip: u64,
        /// Integration counter width.
        counter_bits: u32,
        /// Numerator input slot.
        x: usize,
        /// Denominator input slot.
        y: usize,
        /// Destination stream slot.
        dst: usize,
    },
    /// MUX scaled adder with a dedicated 0.5-valued select source.
    MuxAdd {
        /// Select-stream source.
        select: SourceSpec,
        /// Samples the source has already served to earlier consumers.
        skip: u64,
        /// X input slot (picked when the select bit is 1).
        x: usize,
        /// Y input slot.
        y: usize,
        /// Destination stream slot.
        dst: usize,
    },
    /// Weighted multiplexer tree.
    WeightedMux {
        /// Per-input selection probabilities, in input order.
        weights: Vec<f64>,
        /// Selection sample source.
        select: SourceSpec,
        /// Samples the source has already served to earlier consumers.
        skip: u64,
        /// Input stream slots, one per weight.
        srcs: Vec<usize>,
        /// Destination stream slot.
        dst: usize,
    },
    /// Sink: expose the stream itself.
    SinkStream {
        /// Output name, shared with every execution's
        /// [`ExecOutput`](crate::ExecOutput).
        name: Arc<str>,
        /// Input stream slot.
        src: usize,
    },
    /// Sink: S/D conversion to the stream's unipolar value.
    SinkValue {
        /// Output name, shared with every execution's
        /// [`ExecOutput`](crate::ExecOutput).
        name: Arc<str>,
        /// Input stream slot.
        src: usize,
    },
    /// Sink: S/D conversion to the raw 1s count.
    SinkCount {
        /// Output name, shared with every execution's
        /// [`ExecOutput`](crate::ExecOutput).
        name: Arc<str>,
        /// Input stream slot.
        src: usize,
    },
    /// Sink: accumulative parallel counter over all inputs.
    SinkSum {
        /// Output name, shared with every execution's
        /// [`ExecOutput`](crate::ExecOutput).
        name: Arc<str>,
        /// Input stream slots.
        srcs: Vec<usize>,
    },
    /// Sink: SCC probe over a stream pair.
    SccProbe {
        /// Output name, shared with every execution's
        /// [`ExecOutput`](crate::ExecOutput).
        name: Arc<str>,
        /// X input slot.
        x: usize,
        /// Y input slot.
        y: usize,
    },
}

/// A validated, repaired, topologically ordered execution plan.
///
/// Produced by [`Graph::compile`]; executed by [`crate::Executor`]. The plan
/// is immutable and `Send + Sync`, so one compiled graph can drive many
/// worker threads at once.
#[derive(Debug, Clone)]
pub struct CompiledGraph {
    pub(crate) steps: Vec<Step>,
    pub(crate) slot_count: usize,
    pub(crate) value_slots: usize,
    pub(crate) stream_slots: usize,
    report: CompileReport,
    /// Every operation the plan executes (graph nodes plus planner-inserted
    /// repairs), for introspection and the `sc_hwcost` bridge.
    ops: Vec<NodeOp>,
    /// Template-class id: fresh per `compile` call, preserved by `Clone`.
    /// Jobs of one class run one step list (their sources may differ only
    /// through [`BatchInput::bindings`](crate::BatchInput::bindings)).
    class: u64,
    /// The sinks' names in emit order with a by-name index, shared with
    /// every execution's [`ExecOutput`](crate::ExecOutput).
    pub(crate) sinks: Arc<SinkNames>,
}

impl CompiledGraph {
    /// Builds a plan from the emit stage's artifacts, minting its class id.
    pub(crate) fn assemble(
        steps: Vec<Step>,
        slot_count: usize,
        value_slots: usize,
        stream_slots: usize,
        report: CompileReport,
        ops: Vec<NodeOp>,
    ) -> CompiledGraph {
        CompiledGraph {
            sinks: Arc::new(SinkNames::of(&steps)),
            steps,
            slot_count,
            value_slots,
            stream_slots,
            report,
            ops,
            class: next_plan_class(),
        }
    }

    /// What the pipeline inserted, left unrepaired, measured, and fused.
    #[must_use]
    pub fn report(&self) -> &CompileReport {
        &self.report
    }

    /// Every operation the plan executes, including auto-inserted repair
    /// manipulators.
    #[must_use]
    pub fn ops(&self) -> &[NodeOp] {
        &self.ops
    }

    /// Number of executable steps (a fused manipulator run counts once).
    #[must_use]
    pub fn step_count(&self) -> usize {
        self.steps.len()
    }

    /// The executable steps, in scheduled order — the exact structure the
    /// executor runs and lowering backends elaborate.
    #[must_use]
    pub fn steps(&self) -> &[Step] {
        &self.steps
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

    /// The position of the named value-producing sink (`SinkValue`,
    /// `SinkCount`, `SinkSum` or `SccProbe`) among the plan's value sinks:
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
    /// Returns [`GraphError::EmptyGraph`], [`GraphError::Cycle`],
    /// [`GraphError::BadArity`] (a `WeightedMux` whose weight count drifted
    /// from its input count via [`Graph::rewire`] misuse cannot occur, but
    /// the check is kept for defence), or [`GraphError::DuplicateSink`].
    pub fn compile(&self, options: &PlannerOptions) -> Result<CompiledGraph, GraphError> {
        self.compile_with_telemetry(options, &TelemetrySink::default())
    }

    /// [`Graph::compile`] with per-stage profiling: records one
    /// [`sc_telemetry::Stage::Compile`] span over the whole call with one
    /// nested span per stage ([`sc_telemetry::Stage::CompileValidate`],
    /// [`sc_telemetry::Stage::CompilePlan`],
    /// [`sc_telemetry::Stage::CompileRepair`],
    /// [`sc_telemetry::Stage::CompileEmit`], plus one
    /// [`sc_telemetry::Stage::MeasuredProbe`] span per planner probe
    /// execution), and on success bumps the sink's compilation,
    /// repair-insertion, measured-probe, and fused-run counters straight
    /// from the plan's [`CompileReport`] — the counters are derived from
    /// the report, so the two cannot drift.
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
        g.sink_count("z", x);
        assert!(matches!(
            g.compile(&PlannerOptions::default()),
            Err(GraphError::DuplicateSink { .. })
        ));
    }

    #[test]
    fn rewired_cycle_detected() {
        let mut g = Graph::new();
        let x = g.input_stream(0);
        let y = g.input_stream(1);
        let a = g.binary(BinaryOp::CaAdd, x, y);
        let b = g.not(a);
        // Make a depend on b: a → b → a.
        g.rewire(a.node(), 0, b).unwrap();
        assert!(matches!(
            g.compile(&PlannerOptions::default()),
            Err(GraphError::Cycle { .. })
        ));
    }

    #[test]
    fn identity_cycle_is_rejected_not_overflowed() {
        // Regression: pair_class recurses through identity manipulators, so a
        // rewired identity self-loop must be caught by the up-front cycle
        // check instead of overflowing the stack inside the planner.
        let mut g = Graph::new();
        let x = g.generate(0, sobol(1));
        let y = g.generate(1, sobol(2));
        let (i0, i1) = g.manipulate(ManipulatorKind::Identity, x, y);
        let z = g.binary(BinaryOp::AndMultiply, i0, i1);
        g.sink_value("z", z);
        // Make the identity node consume its own output.
        g.rewire(i0.node(), 0, i0).unwrap();
        assert!(matches!(
            g.compile(&PlannerOptions::default()),
            Err(GraphError::Cycle { .. })
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
        assert!(plan.report().inserted[0].contains("synchronizer"));
        assert!(plan
            .ops()
            .iter()
            .any(|op| matches!(op, NodeOp::Manipulate(ManipulatorKind::Synchronizer { .. }))));
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
        // Identity preserves the underlying Uncorrelated class.
        let (ix, iy) = g.manipulate(ManipulatorKind::Identity, x, y);
        let p = g.binary(BinaryOp::AndMultiply, ix, iy);
        g.sink_value("prod", p);
        let plan = g.compile(&PlannerOptions::default()).unwrap();
        assert!(
            plan.report().inserted.is_empty(),
            "unexpected inserts: {:?}",
            plan.report().inserted
        );
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
        assert!(plan.report().unsatisfied[0].contains("Positive"));
    }

    #[test]
    fn measured_scc_feedback_resolves_unknown_pairs() {
        // or_max and and_min over a shared-spec (positively correlated) pair
        // produce two operator outputs whose mutual class is structurally
        // Unknown — but their actual SCC is strongly positive (both outputs
        // are supersets/subsets of the same streams). The XOR subtractor over
        // them therefore needs no repair once the pair is measured.
        let build = |options: &PlannerOptions| {
            let mut g = Graph::new();
            let x = g.generate(0, sobol(1));
            let y = g.generate(1, sobol(1)); // shared spec ⇒ SCC +1
            let hi = g.binary(BinaryOp::OrMax, x, y);
            let lo = g.binary(BinaryOp::AndMin, x, y);
            let z = g.binary(BinaryOp::XorSubtract, hi, lo);
            g.sink_value("range", z);
            g.compile(options).unwrap()
        };
        let structural = build(&PlannerOptions::default());
        assert_eq!(
            structural.report().inserted.len(),
            1,
            "without measurement the Unknown pair is pessimistically repaired"
        );
        assert!(structural.report().measured.is_empty());
        let measured = build(&PlannerOptions::with_measurement(256));
        assert!(
            measured.report().inserted.is_empty(),
            "measured SCC ≈ +1 satisfies the XOR precondition: {:?}",
            measured.report().inserted
        );
        assert_eq!(measured.report().measured.len(), 1);
        assert_eq!(measured.report().measured[0].class, SccClass::Positive);
        assert!(measured.report().measured[0]
            .to_string()
            .contains("Positive"));
    }

    #[test]
    fn measurement_still_repairs_truly_uncorrelated_pairs() {
        // Two unrelated multiplies: the pair really is uncorrelated, so the
        // measured class must still trigger a synchronizer for the XOR.
        let mut g = Graph::new();
        let a = g.generate(0, sobol(1));
        let b = g.generate(1, sobol(2));
        let c = g.generate(2, sobol(3));
        let d = g.generate(3, sobol(4));
        let p = g.binary(BinaryOp::AndMultiply, a, b);
        let q = g.binary(BinaryOp::AndMultiply, c, d);
        let z = g.binary(BinaryOp::XorSubtract, p, q);
        g.sink_value("z", z);
        let plan = g.compile(&PlannerOptions::with_measurement(256)).unwrap();
        assert_eq!(plan.report().measured.len(), 1);
        assert_eq!(plan.report().measured[0].class, SccClass::Uncorrelated);
        assert!(plan.report().measured[0]
            .to_string()
            .contains("Uncorrelated"));
        assert_eq!(plan.report().inserted.len(), 1);
    }

    /// The structured [`MeasuredPair`] record renders exactly the legacy
    /// report line, so log consumers see unchanged text.
    #[test]
    fn measured_pair_display_reproduces_legacy_text() {
        let pair = MeasuredPair {
            label: "xor_subtract".to_string(),
            node: 7,
            scc: 0.98765,
            probe_length: 256,
            class: SccClass::Positive,
        };
        assert_eq!(
            pair.to_string(),
            "inputs of xor_subtract (node n7) measured SCC 0.988 over 256 cycles: \
             treating pair as Positive"
        );
    }

    /// The configurable probe stimulus defaults to 0.5 and, at 0.5,
    /// reproduces the decisions the planner made before the knob existed —
    /// for both the skip-repair and the must-repair measured outcomes.
    #[test]
    fn probe_value_half_reproduces_current_decisions() {
        assert!((PlannerOptions::default().probe_value - 0.5).abs() < f64::EPSILON);
        let build = |options: &PlannerOptions| {
            let mut g = Graph::new();
            let x = g.generate(0, sobol(1));
            let y = g.generate(1, sobol(1));
            let hi = g.binary(BinaryOp::OrMax, x, y);
            let lo = g.binary(BinaryOp::AndMin, x, y);
            let z = g.binary(BinaryOp::XorSubtract, hi, lo);
            g.sink_value("range", z);
            g.compile(options).unwrap()
        };
        let implicit = build(&PlannerOptions::with_measurement(256));
        let explicit = build(&PlannerOptions {
            probe_value: 0.5,
            ..PlannerOptions::with_measurement(256)
        });
        assert_eq!(implicit.report(), explicit.report());
        assert!(explicit.report().inserted.is_empty());
        // A different stimulus still measures (and here reaches the same
        // strongly-positive verdict — the pair is shared-source at any value).
        let shifted = build(&PlannerOptions {
            probe_value: 0.8,
            ..PlannerOptions::with_measurement(256)
        });
        assert_eq!(shifted.report().measured.len(), 1);
        assert_eq!(shifted.report().measured[0].class, SccClass::Positive);
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
        let z = g.binary(BinaryOp::CaAdd, x, y);
        g.sink_value("z", z);
        let plan = g.compile(&PlannerOptions::default()).unwrap();
        assert_eq!(plan.steps().len(), plan.step_count());
        assert!(plan.slot_count() >= 3);
        assert!(plan.steps().iter().any(|s| matches!(
            s,
            Step::Binary {
                op: BinaryOp::CaAdd,
                ..
            }
        )));
    }

    #[test]
    fn linear_manipulator_runs_fuse() {
        let mut g = Graph::new();
        let x = g.input_stream(0);
        let y = g.input_stream(1);
        let (a0, a1) = g.manipulate(ManipulatorKind::Synchronizer { depth: 1 }, x, y);
        let (b0, b1) = g.manipulate(ManipulatorKind::Synchronizer { depth: 2 }, a0, a1);
        let (c0, c1) = g.manipulate(ManipulatorKind::Isolator { delay: 2 }, b0, b1);
        g.sink_stream("x", c0);
        g.sink_stream("y", c1);
        let plan = g.compile(&PlannerOptions::default()).unwrap();
        assert_eq!(plan.report().fused_runs, 1);
        // 2 inputs + 1 fused manipulator step + 2 sinks.
        assert_eq!(plan.step_count(), 5);
    }

    #[test]
    fn branching_runs_do_not_fuse() {
        let mut g = Graph::new();
        let x = g.input_stream(0);
        let y = g.input_stream(1);
        let (a0, a1) = g.manipulate(ManipulatorKind::Synchronizer { depth: 1 }, x, y);
        let (_, b1) = g.manipulate(ManipulatorKind::Synchronizer { depth: 1 }, a0, a1);
        // a0 feeds the second manipulator AND a sink: the run must not fuse.
        g.sink_stream("tap", a0);
        g.sink_stream("out", b1);
        let plan = g.compile(&PlannerOptions::default()).unwrap();
        assert_eq!(plan.report().fused_runs, 0);
    }

    #[test]
    fn slot_counts_reflect_batch_requirements() {
        let mut g = Graph::new();
        let x = g.generate(3, sobol(1));
        let s = g.input_stream(1);
        let z = g.binary(BinaryOp::CaAdd, x, s);
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
