//! The node vocabulary of the dataflow graph: sources, correlation
//! manipulators, arithmetic operators, and sinks.

use sc_core::{
    CorrelationManipulator, Decorrelator, Desynchronizer, Identity, Isolator, Synchronizer,
    DEPTH_RANGE,
};
use sc_rng::SourceSpec;
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

/// Identifier of a node inside one [`crate::Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) usize);

impl NodeId {
    /// The node's index in graph insertion order.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A stream-valued edge endpoint: output `port` of `node`.
///
/// Wires are only handed out by the [`crate::Graph`] builder methods, so a
/// wire is always a valid reference into the graph that produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Wire {
    pub(crate) node: NodeId,
    pub(crate) port: u8,
}

impl Wire {
    /// The producing node.
    #[must_use]
    pub fn node(self) -> NodeId {
        self.node
    }

    /// The output port on the producing node.
    #[must_use]
    pub fn port(self) -> u8 {
        self.port
    }
}

impl fmt::Display for Wire {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.node, self.port)
    }
}

/// The correlation-manipulating circuit family a manipulator node instantiates.
///
/// Kinds are plain data (no live FSM state): every execution of a compiled
/// plan runs a fresh instance per step ([`ManipulatorKind::process_words`]),
/// so batch items never share FSM state and sharded execution is
/// deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum ManipulatorKind {
    /// Pass-through (no manipulation).
    Identity,
    /// `delay` isolator flip-flops on the X stream (Ting & Hayes baseline).
    Isolator {
        /// Number of flip-flop stages.
        delay: usize,
    },
    /// Synchronizer FSM driving SCC toward +1 (Fig. 3a).
    Synchronizer {
        /// Save depth `D ≥ 1`.
        depth: u32,
    },
    /// Desynchronizer FSM driving SCC toward −1 (Fig. 3b).
    Desynchronizer {
        /// Save depth `D ≥ 1`.
        depth: u32,
    },
    /// Decorrelator (two shuffle buffers) driving SCC toward 0 (Fig. 4).
    Decorrelator {
        /// Shuffle-buffer depth.
        depth: usize,
    },
}

impl ManipulatorKind {
    /// Builds a fresh manipulator instance in its power-on state.
    #[must_use]
    pub fn build(&self) -> Box<dyn CorrelationManipulator> {
        match *self {
            ManipulatorKind::Identity => Box::new(Identity::new()),
            ManipulatorKind::Isolator { delay } => Box::new(Isolator::new(delay)),
            ManipulatorKind::Synchronizer { depth } => Box::new(Synchronizer::new(depth)),
            ManipulatorKind::Desynchronizer { depth } => Box::new(Desynchronizer::new(depth)),
            ManipulatorKind::Decorrelator { depth } => Box::new(Decorrelator::new(depth)),
        }
    }

    /// Runs a fresh instance over the packed words of two `len`-bit streams,
    /// writing the manipulated pair to `out_x` / `out_y`: the circuit is
    /// built on the stack as its concrete type and driven by
    /// [`sc_core::drive_words`], bit-identical to
    /// [`CorrelationManipulator::process`] on the built circuit.
    ///
    /// # Panics
    ///
    /// Panics if any slice holds fewer than `len.div_ceil(64)` words, or if
    /// the kind is not [`ManipulatorKind::in_range`].
    pub fn process_words(
        &self,
        x: &[u64],
        y: &[u64],
        len: usize,
        out_x: &mut [u64],
        out_y: &mut [u64],
    ) {
        fn drive(
            mut circuit: impl CorrelationManipulator,
            x: &[u64],
            y: &[u64],
            len: usize,
            out_x: &mut [u64],
            out_y: &mut [u64],
        ) {
            sc_core::drive_words(x, y, len, out_x, out_y, |xw, yw, valid| {
                circuit.step_word(xw, yw, valid)
            });
        }
        match *self {
            ManipulatorKind::Identity => drive(Identity::new(), x, y, len, out_x, out_y),
            ManipulatorKind::Isolator { delay } => {
                drive(Isolator::new(delay), x, y, len, out_x, out_y);
            }
            ManipulatorKind::Synchronizer { depth } => {
                drive(Synchronizer::new(depth), x, y, len, out_x, out_y);
            }
            ManipulatorKind::Desynchronizer { depth } => {
                drive(Desynchronizer::new(depth), x, y, len, out_x, out_y);
            }
            ManipulatorKind::Decorrelator { depth } => {
                drive(Decorrelator::new(depth), x, y, len, out_x, out_y);
            }
        }
    }

    /// Whether the depth or delay lies in [`DEPTH_RANGE`], the range
    /// [`ManipulatorKind::build`] accepts. [`crate::Graph::compile`] rejects
    /// kinds outside it, so a compiled plan never panics building one.
    #[must_use]
    pub fn in_range(&self) -> bool {
        let size = match *self {
            ManipulatorKind::Identity => return true,
            ManipulatorKind::Isolator { delay: size }
            | ManipulatorKind::Decorrelator { depth: size } => size,
            ManipulatorKind::Synchronizer { depth } | ManipulatorKind::Desynchronizer { depth } => {
                depth as usize
            }
        };
        DEPTH_RANGE.contains(&size)
    }

    /// The SCC class this circuit establishes between its two outputs, or
    /// `None` for [`ManipulatorKind::Identity`], which preserves whatever
    /// class its inputs had.
    #[must_use]
    pub fn output_class(&self) -> Option<SccClass> {
        match self {
            ManipulatorKind::Identity => None,
            ManipulatorKind::Isolator { .. } | ManipulatorKind::Decorrelator { .. } => {
                Some(SccClass::Uncorrelated)
            }
            ManipulatorKind::Synchronizer { .. } => Some(SccClass::Positive),
            ManipulatorKind::Desynchronizer { .. } => Some(SccClass::Negative),
        }
    }
}

impl fmt::Display for ManipulatorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ManipulatorKind::Identity => write!(f, "identity"),
            ManipulatorKind::Isolator { delay } => write!(f, "isolator(k={delay})"),
            ManipulatorKind::Synchronizer { depth } => write!(f, "synchronizer(D={depth})"),
            ManipulatorKind::Desynchronizer { depth } => write!(f, "desynchronizer(D={depth})"),
            ManipulatorKind::Decorrelator { depth } => write!(f, "decorrelator(D={depth})"),
        }
    }
}

/// Abstract SCC class of a pair of streams, as tracked by the planner.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SccClass {
    /// SCC ≈ +1 (1s aligned).
    Positive,
    /// SCC ≈ −1 (1s anti-aligned).
    Negative,
    /// SCC ≈ 0 (independent bit order).
    Uncorrelated,
    /// Nothing is known structurally about the pair.
    Unknown,
}

/// The input-correlation precondition of a binary operator (paper Fig. 2):
/// the SCC class under which the gate computes its intended function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CorrRequirement {
    /// Inputs must be positively correlated (SCC +1).
    Positive,
    /// Inputs must be negatively correlated (SCC −1).
    Negative,
    /// Inputs must be uncorrelated (SCC 0).
    Uncorrelated,
    /// The operator is correlation-agnostic.
    Agnostic,
}

impl CorrRequirement {
    /// Whether a pair of the given class satisfies this requirement.
    #[must_use]
    pub fn satisfied_by(&self, class: SccClass) -> bool {
        match self {
            CorrRequirement::Agnostic => true,
            CorrRequirement::Positive => class == SccClass::Positive,
            CorrRequirement::Negative => class == SccClass::Negative,
            CorrRequirement::Uncorrelated => class == SccClass::Uncorrelated,
        }
    }

    /// The manipulator family that *establishes* this requirement, used by
    /// the planner's auto-repair pass. `None` for agnostic ops. Synchronizers
    /// take the options' save depth; desynchronizers save one bit and
    /// decorrelators shuffle through four slots.
    #[must_use]
    pub fn establishing_manipulator(
        &self,
        options: &crate::PlannerOptions,
    ) -> Option<ManipulatorKind> {
        match self {
            CorrRequirement::Agnostic => None,
            CorrRequirement::Positive => Some(ManipulatorKind::Synchronizer {
                depth: options.synchronizer_depth,
            }),
            CorrRequirement::Negative => Some(ManipulatorKind::Desynchronizer { depth: 1 }),
            CorrRequirement::Uncorrelated => Some(ManipulatorKind::Decorrelator { depth: 4 }),
        }
    }
}

/// A two-input, one-output arithmetic operator drawn from `sc_arith`.
///
/// Each operator carries the *intent* of the circuit (e.g. OR used as max vs
/// OR used as saturating add), because the intent determines the correlation
/// precondition the planner must establish.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum BinaryOp {
    /// AND-gate unipolar multiply (`pX·pY`, needs SCC 0).
    AndMultiply,
    /// XNOR-gate bipolar multiply (`x·y`, needs SCC 0).
    XnorMultiply,
    /// OR-gate maximum (`max(pX, pY)`, needs SCC +1).
    OrMax,
    /// AND-gate minimum (`min(pX, pY)`, needs SCC +1).
    AndMin,
    /// OR-gate saturating add (`min(1, pX + pY)`, needs SCC −1).
    SaturatingAdd,
    /// XOR-gate absolute difference (`|pX − pY|`, needs SCC +1).
    XorSubtract,
    /// Correlation-agnostic parallel-counter scaled add (`0.5(pX + pY)`).
    CaAdd,
    /// Correlation-agnostic counter-based maximum (SC-DCNN baseline).
    CaMax,
    /// Correlation-agnostic counter-based minimum.
    CaMin,
}

impl BinaryOp {
    /// The input-correlation precondition of this operator.
    #[must_use]
    pub fn requirement(&self) -> CorrRequirement {
        match self {
            BinaryOp::AndMultiply | BinaryOp::XnorMultiply => CorrRequirement::Uncorrelated,
            BinaryOp::OrMax | BinaryOp::AndMin | BinaryOp::XorSubtract => CorrRequirement::Positive,
            BinaryOp::SaturatingAdd => CorrRequirement::Negative,
            BinaryOp::CaAdd | BinaryOp::CaMax | BinaryOp::CaMin => CorrRequirement::Agnostic,
        }
    }
}

/// A one-input, one-output saturating-counter FSM operator drawn from
/// `sc_arith::fsm_ops` (Brown & Card activation designs; bipolar streams).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnaryFsmOp {
    /// Stochastic `tanh`-like activation: a saturating counter with
    /// `2·half_states` states whose output is 1 in the upper half.
    Stanh {
        /// Half the FSM state count (`1..=2048`).
        half_states: u32,
    },
    /// Stochastic clamped linear gain: a saturating counter with mid-state
    /// toggling.
    Slinear {
        /// Total FSM state count (`2..=4096`).
        states: u32,
    },
}

impl fmt::Display for UnaryFsmOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            UnaryFsmOp::Stanh { half_states } => write!(f, "stanh(S={})", 2 * half_states),
            UnaryFsmOp::Slinear { states } => write!(f, "slinear(S={states})"),
        }
    }
}

impl BinaryOp {
    /// The operator's name, as its `Display` prints it.
    pub(crate) fn name(self) -> &'static str {
        match self {
            BinaryOp::AndMultiply => "and_multiply",
            BinaryOp::XnorMultiply => "xnor_multiply",
            BinaryOp::OrMax => "or_max",
            BinaryOp::AndMin => "and_min",
            BinaryOp::SaturatingAdd => "saturating_add",
            BinaryOp::XorSubtract => "xor_subtract",
            BinaryOp::CaAdd => "ca_add",
            BinaryOp::CaMax => "ca_max",
            BinaryOp::CaMin => "ca_min",
        }
    }
}

impl fmt::Display for BinaryOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The operation a graph node performs.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum NodeOp {
    /// A ready stochastic stream supplied by the batch item
    /// (`BatchInput::streams[slot]`). 0 inputs, 1 output.
    InputStream {
        /// Index into the batch item's stream list.
        slot: usize,
    },
    /// D/S conversion of the batch item's digital value
    /// (`BatchInput::values[slot]`), Fig. 2g. 0 inputs, 1 output.
    Generate {
        /// Index into the batch item's value list.
        slot: usize,
        /// Comparator sample source.
        source: SourceSpec,
        /// Samples the source has already served to earlier consumers.
        skip: u64,
    },
    /// D/S conversion of a constant probability. 0 inputs, 1 output.
    ConstStream {
        /// The encoded probability, clamped to `[0, 1]`.
        probability: f64,
        /// Comparator sample source.
        source: SourceSpec,
        /// Samples the source has already served to earlier consumers.
        skip: u64,
    },
    /// A correlation-manipulating circuit. 2 inputs, 2 outputs
    /// (port 0 = manipulated X, port 1 = manipulated Y).
    Manipulate(
        /// The circuit family.
        ManipulatorKind,
    ),
    /// S/D + D/S regeneration from a fresh source (§II.B baseline).
    /// 1 input, 1 output.
    Regenerate {
        /// Re-encoding sample source.
        source: SourceSpec,
        /// Samples the source has already served to earlier consumers.
        skip: u64,
    },
    /// Stream complement (`1 − pX`). 1 input, 1 output.
    Not,
    /// A two-input arithmetic operator. 2 inputs, 1 output.
    Binary(
        /// The operator.
        BinaryOp,
    ),
    /// A saturating-counter FSM activation. 1 input, 1 output.
    UnaryFsm(
        /// The FSM design.
        UnaryFsmOp,
    ),
    /// The feedback SC divider `pZ = min(1, pX / pY)` (Fig. 2e), with its
    /// dedicated comparison sample source. Prefers *positively correlated*
    /// inputs, which the planner establishes like any other precondition.
    /// 2 inputs, 1 output.
    Divide {
        /// Comparison sample source for the output bit decision.
        source: SourceSpec,
        /// Samples the source has already served to earlier consumers.
        skip: u64,
        /// Width of the saturating integration counter (`1..=20`).
        counter_bits: u32,
    },
    /// Weighted multiplexer tree: each cycle one input stream is sampled with
    /// probability equal to its weight, so the output value is the weighted
    /// average of the inputs (the Gaussian-blur kernel shape of §IV). The
    /// MUX scaled adder of Fig. 2a is the two-input tree under weights
    /// `[½, ½]` ([`crate::Graph::mux_add`]). `weights.len()` inputs,
    /// 1 output. Any weight mass missing from 1.0 falls to the last input.
    WeightedMux {
        /// Per-input selection probabilities, in input order, shared by
        /// every node and step built with the same weights.
        weights: Arc<[f64]>,
        /// Selection sample source.
        select: SourceSpec,
        /// Samples the source has already served to earlier consumers.
        skip: u64,
    },
    /// Sink: expose the stream itself. 1 input, 0 outputs.
    SinkStream {
        /// Output name in [`crate::ExecOutput`], shared with every
        /// execution's output.
        name: Arc<str>,
    },
    /// Sink: S/D conversion to the stream's unipolar value (Fig. 2f).
    /// 1 input, 0 outputs.
    SinkValue {
        /// Output name in [`crate::ExecOutput`], shared with every
        /// execution's output.
        name: Arc<str>,
    },
    /// Sink: S/D conversion to the raw 1s count. 1 input, 0 outputs.
    SinkCount {
        /// Output name in [`crate::ExecOutput`], shared with every
        /// execution's output.
        name: Arc<str>,
    },
    /// Sink: accumulative parallel counter over all inputs, exposing the
    /// unscaled sum of values (Ting & Hayes APC). ≥1 inputs, 0 outputs.
    SinkSum {
        /// Output name in [`crate::ExecOutput`], shared with every
        /// execution's output.
        name: Arc<str>,
    },
    /// Sink: SCC probe over a pair of streams. 2 inputs, 0 outputs.
    SccProbe {
        /// Output name in [`crate::ExecOutput`], shared with every
        /// execution's output.
        name: Arc<str>,
    },
}

impl NodeOp {
    /// Number of output stream ports.
    #[must_use]
    pub fn output_ports(&self) -> usize {
        match self {
            NodeOp::Manipulate(_) => 2,
            NodeOp::SinkStream { .. }
            | NodeOp::SinkValue { .. }
            | NodeOp::SinkCount { .. }
            | NodeOp::SinkSum { .. }
            | NodeOp::SccProbe { .. } => 0,
            _ => 1,
        }
    }

    /// Number of input streams, or `None` for variadic ops
    /// ([`NodeOp::SinkSum`]).
    #[must_use]
    pub fn input_arity(&self) -> Option<usize> {
        match self {
            NodeOp::InputStream { .. } | NodeOp::Generate { .. } | NodeOp::ConstStream { .. } => {
                Some(0)
            }
            NodeOp::Regenerate { .. }
            | NodeOp::Not
            | NodeOp::UnaryFsm(_)
            | NodeOp::SinkStream { .. }
            | NodeOp::SinkValue { .. }
            | NodeOp::SinkCount { .. } => Some(1),
            NodeOp::Manipulate(_)
            | NodeOp::Binary(_)
            | NodeOp::Divide { .. }
            | NodeOp::SccProbe { .. } => Some(2),
            NodeOp::WeightedMux { weights, .. } => Some(weights.len()),
            NodeOp::SinkSum { .. } => None,
        }
    }

    /// The correlation precondition this operation imposes on its two data
    /// inputs, with a display label, if it is a two-input arithmetic operator
    /// the planner tracks (binary ops and the feedback divider).
    #[must_use]
    pub fn correlation_requirement(&self) -> Option<(&'static str, CorrRequirement)> {
        match self {
            NodeOp::Binary(op) => Some((op.name(), op.requirement())),
            // Fig. 2e: the feedback divider wants positively correlated
            // inputs; uncorrelated inputs increase convergence noise.
            NodeOp::Divide { .. } => Some(("divide", CorrRequirement::Positive)),
            _ => None,
        }
    }

    /// The sample source the node's hardware draws from, and the samples
    /// that source has already served to earlier consumers: the comparator
    /// source of a D/S conversion (`Generate`, `ConstStream`,
    /// `Regenerate`), the divider's comparison source, or the select source
    /// of a `WeightedMux`.
    #[must_use]
    pub fn source(&self) -> Option<(&SourceSpec, u64)> {
        match self {
            NodeOp::Generate { source, skip, .. }
            | NodeOp::ConstStream { source, skip, .. }
            | NodeOp::Regenerate { source, skip }
            | NodeOp::Divide { source, skip, .. }
            | NodeOp::WeightedMux {
                select: source,
                skip,
                ..
            } => Some((source, *skip)),
            _ => None,
        }
    }

    /// Whether the node is a sink (has a named result and no outputs).
    #[must_use]
    pub fn is_sink(&self) -> bool {
        self.output_ports() == 0
    }

    /// The sink's output name, if this is a sink.
    #[must_use]
    pub fn sink_name(&self) -> Option<&str> {
        match self {
            NodeOp::SinkStream { name }
            | NodeOp::SinkValue { name }
            | NodeOp::SinkCount { name }
            | NodeOp::SinkSum { name }
            | NodeOp::SccProbe { name } => Some(name),
            _ => None,
        }
    }

    /// Short human-readable label (used in compile reports and cost tables).
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            NodeOp::InputStream { slot } => format!("input[{slot}]"),
            NodeOp::Generate { slot, source, .. } => format!("d2s[{slot}]({source})"),
            NodeOp::ConstStream {
                probability,
                source,
                ..
            } => format!("const({probability})({source})"),
            NodeOp::Manipulate(kind) => kind.to_string(),
            NodeOp::Regenerate { source, .. } => format!("regenerate({source})"),
            NodeOp::Not => "not".to_string(),
            NodeOp::Binary(op) => op.to_string(),
            NodeOp::UnaryFsm(op) => op.to_string(),
            NodeOp::Divide { source, .. } => format!("divide({source})"),
            NodeOp::WeightedMux { weights, .. } => format!("weighted_mux[{}]", weights.len()),
            NodeOp::SinkStream { name } => format!("sink_stream({name})"),
            NodeOp::SinkValue { name } => format!("sink_value({name})"),
            NodeOp::SinkCount { name } => format!("sink_count({name})"),
            NodeOp::SinkSum { name } => format!("sink_sum({name})"),
            NodeOp::SccProbe { name } => format!("scc_probe({name})"),
        }
    }
}

/// A node: its operation plus the wires feeding each input, in port order,
/// which [`crate::Graph::inputs`] reads.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    /// The operation.
    pub op: NodeOp,
    /// The node's range of its graph's one flat wire list.
    pub(crate) inputs: Range<usize>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PlannerOptions;

    #[test]
    fn arities_and_ports() {
        assert_eq!(NodeOp::Not.input_arity(), Some(1));
        assert_eq!(NodeOp::Binary(BinaryOp::CaAdd).input_arity(), Some(2));
        assert_eq!(
            NodeOp::Manipulate(ManipulatorKind::Identity).output_ports(),
            2
        );
        assert_eq!(NodeOp::SinkSum { name: "s".into() }.input_arity(), None);
        assert!(NodeOp::SinkValue { name: "v".into() }.is_sink());
        assert_eq!(NodeOp::SccProbe { name: "p".into() }.sink_name(), Some("p"));
    }

    #[test]
    fn requirements_match_paper_fig2() {
        assert_eq!(
            BinaryOp::AndMultiply.requirement(),
            CorrRequirement::Uncorrelated
        );
        assert_eq!(BinaryOp::OrMax.requirement(), CorrRequirement::Positive);
        assert_eq!(
            BinaryOp::SaturatingAdd.requirement(),
            CorrRequirement::Negative
        );
        assert_eq!(
            BinaryOp::XorSubtract.requirement(),
            CorrRequirement::Positive
        );
        assert_eq!(BinaryOp::CaAdd.requirement(), CorrRequirement::Agnostic);
    }

    #[test]
    fn establishing_manipulators() {
        let options = PlannerOptions::default();
        assert!(matches!(
            CorrRequirement::Positive.establishing_manipulator(&options),
            Some(ManipulatorKind::Synchronizer { .. })
        ));
        assert!(matches!(
            CorrRequirement::Negative.establishing_manipulator(&options),
            Some(ManipulatorKind::Desynchronizer { .. })
        ));
        assert!(matches!(
            CorrRequirement::Uncorrelated.establishing_manipulator(&options),
            Some(ManipulatorKind::Decorrelator { .. })
        ));
        assert_eq!(
            CorrRequirement::Agnostic.establishing_manipulator(&options),
            None
        );
    }

    #[test]
    fn manipulator_kinds_build_and_classify() {
        let kinds = [
            ManipulatorKind::Identity,
            ManipulatorKind::Isolator { delay: 2 },
            ManipulatorKind::Synchronizer { depth: 1 },
            ManipulatorKind::Desynchronizer { depth: 1 },
            ManipulatorKind::Decorrelator { depth: 4 },
        ];
        for kind in kinds {
            let m = kind.build();
            assert!(!m.name().is_empty());
        }
        assert_eq!(ManipulatorKind::Identity.output_class(), None);
        assert_eq!(
            ManipulatorKind::Synchronizer { depth: 2 }.output_class(),
            Some(SccClass::Positive)
        );
        assert_eq!(
            ManipulatorKind::Desynchronizer { depth: 2 }.output_class(),
            Some(SccClass::Negative)
        );
        assert_eq!(
            ManipulatorKind::Decorrelator { depth: 2 }.output_class(),
            Some(SccClass::Uncorrelated)
        );
    }

    #[test]
    fn labels_are_informative() {
        assert!(NodeOp::Binary(BinaryOp::XorSubtract)
            .label()
            .contains("xor"));
        assert!(ManipulatorKind::Synchronizer { depth: 3 }
            .to_string()
            .contains("D=3"));
        let w = Wire {
            node: NodeId(4),
            port: 1,
        };
        assert_eq!(w.to_string(), "n4.1");
        assert_eq!(w.node().index(), 4);
        assert_eq!(w.port(), 1);
    }
}
