//! The node vocabulary of the dataflow graph: sources, correlation
//! manipulators, arithmetic operators, and sinks.

use sc_core::{CorrelationManipulator, Decorrelator, Desynchronizer, Synchronizer, DEPTH_RANGE};
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

/// The correlation-manipulating circuit family a manipulator node
/// instantiates: the three circuits of the paper (§III), which are also the
/// three the planner's repair stage inserts.
///
/// Kinds are plain data (no live FSM state): every execution of a compiled
/// plan runs a fresh instance per step ([`ManipulatorKind::process_words`]),
/// so batch items never share FSM state and sharded execution is
/// deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ManipulatorKind {
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
            ManipulatorKind::Synchronizer { depth } => Box::new(Synchronizer::new(depth)),
            ManipulatorKind::Desynchronizer { depth } => Box::new(Desynchronizer::new(depth)),
            ManipulatorKind::Decorrelator { depth } => Box::new(Decorrelator::new(depth)),
        }
    }

    /// Runs a fresh instance over the packed words of two `len`-bit streams,
    /// writing the manipulated pair to `out_x` / `out_y`: the circuit is
    /// built on the stack as its concrete type and driven by
    /// [`sc_core::drive_words`], bit-identical to
    /// [`CorrelationManipulator::process`] on the built circuit. A fresh
    /// decorrelator runs its own [`Decorrelator::process_words`], which takes
    /// the memoized lag network of its depth where one serves.
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
            ManipulatorKind::Synchronizer { depth } => {
                drive(Synchronizer::new(depth), x, y, len, out_x, out_y);
            }
            ManipulatorKind::Desynchronizer { depth } => {
                drive(Desynchronizer::new(depth), x, y, len, out_x, out_y);
            }
            ManipulatorKind::Decorrelator { depth } => {
                Decorrelator::new(depth).process_words(x, y, len, out_x, out_y);
            }
        }
    }

    /// Whether the depth lies in [`DEPTH_RANGE`], the range
    /// [`ManipulatorKind::build`] accepts. [`crate::Graph::compile`] rejects
    /// kinds outside it, so a compiled plan never panics building one.
    #[must_use]
    pub fn in_range(&self) -> bool {
        let depth = match *self {
            ManipulatorKind::Decorrelator { depth } => depth,
            ManipulatorKind::Synchronizer { depth } | ManipulatorKind::Desynchronizer { depth } => {
                depth as usize
            }
        };
        DEPTH_RANGE.contains(&depth)
    }

    /// The SCC class this circuit establishes between its two outputs.
    #[must_use]
    pub fn output_class(&self) -> SccClass {
        match self {
            ManipulatorKind::Synchronizer { .. } => SccClass::Positive,
            ManipulatorKind::Desynchronizer { .. } => SccClass::Negative,
            ManipulatorKind::Decorrelator { .. } => SccClass::Uncorrelated,
        }
    }
}

impl fmt::Display for ManipulatorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
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
}

impl CorrRequirement {
    /// Whether a pair of the given class satisfies this requirement.
    #[must_use]
    pub fn satisfied_by(&self, class: SccClass) -> bool {
        match self {
            CorrRequirement::Positive => class == SccClass::Positive,
            CorrRequirement::Negative => class == SccClass::Negative,
            CorrRequirement::Uncorrelated => class == SccClass::Uncorrelated,
        }
    }

    /// The manipulator family that *establishes* this requirement, used by
    /// the planner's auto-repair pass. Synchronizers take the options' save
    /// depth; desynchronizers save one bit and decorrelators shuffle through
    /// four slots.
    #[must_use]
    pub fn establishing_manipulator(&self, options: &crate::PlannerOptions) -> ManipulatorKind {
        match self {
            CorrRequirement::Positive => ManipulatorKind::Synchronizer {
                depth: options.synchronizer_depth,
            },
            CorrRequirement::Negative => ManipulatorKind::Desynchronizer { depth: 1 },
            CorrRequirement::Uncorrelated => ManipulatorKind::Decorrelator { depth: 4 },
        }
    }
}

/// A two-input, one-output arithmetic gate drawn from `sc_arith` (paper
/// Fig. 2).
///
/// Each operator carries the *intent* of the gate (e.g. OR used as max vs
/// OR used as saturating add), because the intent determines the correlation
/// precondition the planner must establish.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
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
}

impl BinaryOp {
    /// The input-correlation precondition of this operator.
    #[must_use]
    pub fn requirement(&self) -> CorrRequirement {
        match self {
            BinaryOp::AndMultiply | BinaryOp::XnorMultiply => CorrRequirement::Uncorrelated,
            BinaryOp::OrMax | BinaryOp::AndMin | BinaryOp::XorSubtract => CorrRequirement::Positive,
            BinaryOp::SaturatingAdd => CorrRequirement::Negative,
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
    /// A correlation-manipulating circuit. 2 inputs, 2 outputs
    /// (port 0 = manipulated X, port 1 = manipulated Y).
    Manipulate(
        /// The circuit family.
        ManipulatorKind,
    ),
    /// S/D + D/S regeneration from a fresh source (§II.B baseline), which
    /// draws the source from its start. 1 input, 1 output.
    Regenerate {
        /// Re-encoding sample source.
        source: SourceSpec,
    },
    /// Stream complement (`1 − pX`). 1 input, 1 output.
    Not,
    /// A two-input arithmetic operator. 2 inputs, 1 output.
    Binary(
        /// The operator.
        BinaryOp,
    ),
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
            NodeOp::SinkStream { .. } | NodeOp::SinkValue { .. } | NodeOp::SccProbe { .. } => 0,
            _ => 1,
        }
    }

    /// Number of input streams.
    #[must_use]
    pub fn input_arity(&self) -> usize {
        match self {
            NodeOp::InputStream { .. } | NodeOp::Generate { .. } => 0,
            NodeOp::Regenerate { .. }
            | NodeOp::Not
            | NodeOp::SinkStream { .. }
            | NodeOp::SinkValue { .. } => 1,
            NodeOp::Manipulate(_) | NodeOp::Binary(_) | NodeOp::SccProbe { .. } => 2,
            NodeOp::WeightedMux { weights, .. } => weights.len(),
        }
    }

    /// The correlation precondition this operation imposes on its two data
    /// inputs, with a display label, if it is a binary operator the planner
    /// tracks.
    #[must_use]
    pub fn correlation_requirement(&self) -> Option<(&'static str, CorrRequirement)> {
        match self {
            NodeOp::Binary(op) => Some((op.name(), op.requirement())),
            _ => None,
        }
    }

    /// The sample source the node's hardware draws from, and the samples
    /// that source has already served to earlier consumers: the comparator
    /// source of a D/S conversion (`Generate`, `Regenerate`) or the select
    /// source of a `WeightedMux`. A regeneration unit draws from the start.
    #[must_use]
    pub fn source(&self) -> Option<(&SourceSpec, u64)> {
        match self {
            NodeOp::Generate { source, skip, .. }
            | NodeOp::WeightedMux {
                select: source,
                skip,
                ..
            } => Some((source, *skip)),
            NodeOp::Regenerate { source } => Some((source, 0)),
            _ => None,
        }
    }

    /// The sink's output name, if this is a sink.
    #[must_use]
    pub fn sink_name(&self) -> Option<&str> {
        match self {
            NodeOp::SinkStream { name }
            | NodeOp::SinkValue { name }
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
            NodeOp::Manipulate(kind) => kind.to_string(),
            NodeOp::Regenerate { source, .. } => format!("regenerate({source})"),
            NodeOp::Not => "not".to_string(),
            NodeOp::Binary(op) => op.to_string(),
            NodeOp::WeightedMux { weights, .. } => format!("weighted_mux[{}]", weights.len()),
            NodeOp::SinkStream { name } => format!("sink_stream({name})"),
            NodeOp::SinkValue { name } => format!("sink_value({name})"),
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
        assert_eq!(NodeOp::Not.input_arity(), 1);
        assert_eq!(NodeOp::Binary(BinaryOp::AndMin).input_arity(), 2);
        assert_eq!(
            NodeOp::Manipulate(ManipulatorKind::Decorrelator { depth: 4 }).output_ports(),
            2
        );
        assert_eq!(NodeOp::SccProbe { name: "p".into() }.input_arity(), 2);
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
    }

    #[test]
    fn establishing_manipulators() {
        let options = PlannerOptions::default();
        for requirement in [
            CorrRequirement::Positive,
            CorrRequirement::Negative,
            CorrRequirement::Uncorrelated,
        ] {
            let kind = requirement.establishing_manipulator(&options);
            assert!(requirement.satisfied_by(kind.output_class()), "{kind}");
        }
        assert!(matches!(
            CorrRequirement::Positive.establishing_manipulator(&options),
            ManipulatorKind::Synchronizer { .. }
        ));
    }

    #[test]
    fn manipulator_kinds_build_and_classify() {
        let kinds = [
            ManipulatorKind::Synchronizer { depth: 1 },
            ManipulatorKind::Desynchronizer { depth: 1 },
            ManipulatorKind::Decorrelator { depth: 4 },
        ];
        for kind in kinds {
            let m = kind.build();
            assert!(!m.name().is_empty());
        }
        assert_eq!(
            ManipulatorKind::Synchronizer { depth: 2 }.output_class(),
            SccClass::Positive
        );
        assert_eq!(
            ManipulatorKind::Desynchronizer { depth: 2 }.output_class(),
            SccClass::Negative
        );
        assert_eq!(
            ManipulatorKind::Decorrelator { depth: 2 }.output_class(),
            SccClass::Uncorrelated
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
