//! The dataflow-graph builder.

use crate::node::{BinaryOp, ManipulatorKind, Node, NodeId, NodeOp, UnaryFsmOp, Wire};
use crate::planes::half_select_weights;
use sc_rng::SourceSpec;
use std::fmt;
use std::sync::Arc;

/// Errors raised while building, compiling, or executing a graph.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum GraphError {
    /// Two sinks share the same output name.
    DuplicateSink {
        /// The duplicated name.
        name: String,
    },
    /// The graph has no nodes.
    EmptyGraph,
    /// A `Generate` node's value slot is outside the batch item's value list.
    ValueSlotOutOfRange {
        /// The requested slot.
        slot: usize,
        /// Number of values the batch item provided.
        provided: usize,
    },
    /// An `InputStream` node's slot is outside the batch item's stream list.
    StreamSlotOutOfRange {
        /// The requested slot.
        slot: usize,
        /// Number of streams the batch item provided.
        provided: usize,
    },
    /// A manipulator's depth or delay is outside [`sc_core::DEPTH_RANGE`]:
    /// a `Manipulate` node's, or an auto-repair depth of the
    /// [`crate::PlannerOptions`].
    ManipulatorOutOfRange {
        /// The offending manipulator.
        kind: ManipulatorKind,
    },
    /// A node received input streams of different lengths.
    Stream(
        /// The underlying bitstream error.
        sc_bitstream::Error,
    ),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::DuplicateSink { name } => write!(f, "duplicate sink name {name:?}"),
            GraphError::EmptyGraph => write!(f, "graph has no nodes"),
            GraphError::ValueSlotOutOfRange { slot, provided } => write!(
                f,
                "generate node reads value slot {slot} but the batch item has {provided} values"
            ),
            GraphError::StreamSlotOutOfRange { slot, provided } => write!(
                f,
                "input node reads stream slot {slot} but the batch item has {provided} streams"
            ),
            GraphError::ManipulatorOutOfRange { kind } => write!(
                f,
                "{kind}: depth or delay outside supported range {:?}",
                sc_core::DEPTH_RANGE
            ),
            GraphError::Stream(e) => write!(f, "stream error during execution: {e}"),
        }
    }
}

impl std::error::Error for GraphError {}

impl From<sc_bitstream::Error> for GraphError {
    fn from(e: sc_bitstream::Error) -> Self {
        GraphError::Stream(e)
    }
}

/// A typed dataflow graph of stochastic-computing operations.
///
/// Nodes are added through builder methods that return the [`Wire`]s carrying
/// the node's output streams; wires are then fed to downstream builders.
/// The graph is append-only: a wire can only name an already-inserted node,
/// and a node's inputs never change after it is added, so every graph is
/// acyclic by construction and its insertion order is a topological order.
///
/// # Example
///
/// ```
/// use sc_graph::{Graph, BinaryOp, Executor, PlannerOptions, BatchInput};
/// use sc_rng::SourceSpec;
///
/// let mut g = Graph::new();
/// let x = g.generate(0, SourceSpec::Sobol { dimension: 1 });
/// let y = g.generate(1, SourceSpec::Halton { base: 3, offset: 0 });
/// let z = g.binary(BinaryOp::CaAdd, x, y);
/// g.sink_value("sum", z);
///
/// let plan = g.compile(&PlannerOptions::default())?;
/// let out = Executor::new(256).run(&plan, &BatchInput::with_values(vec![0.5, 0.25]))?;
/// assert!((out.value("sum").unwrap() - 0.375).abs() < 0.02);
/// # Ok::<(), sc_graph::GraphError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct Graph {
    pub(crate) nodes: Vec<Node>,
    /// Every node's input wires, back to back in node order.
    wires: Vec<Wire>,
}

impl Graph {
    /// Creates an empty graph.
    #[must_use]
    pub fn new() -> Self {
        Graph::default()
    }

    /// Number of nodes added so far.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The node behind an id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not from this graph.
    #[must_use]
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0]
    }

    /// Iterates over `(id, node)` pairs in insertion order.
    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, &Node)> {
        self.nodes.iter().enumerate().map(|(i, n)| (NodeId(i), n))
    }

    /// The wires feeding a node's inputs, in port order.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not from this graph.
    #[must_use]
    pub fn inputs(&self, id: NodeId) -> &[Wire] {
        &self.wires[self.nodes[id.0].inputs.clone()]
    }

    /// Low-level node insertion shared by the typed builders.
    ///
    /// # Panics
    ///
    /// Panics if an input wire does not belong to this graph or the input
    /// count does not match the operation's arity — a structural programming
    /// error, not a data error.
    fn add(&mut self, op: NodeOp, inputs: &[Wire]) -> NodeId {
        for wire in inputs {
            assert!(
                wire.node.0 < self.nodes.len(),
                "wire {wire} does not belong to this graph"
            );
            let ports = self.nodes[wire.node.0].op.output_ports();
            assert!(
                (wire.port as usize) < ports,
                "wire {wire} names a missing output port (node has {ports})"
            );
        }
        if let Some(expected) = op.input_arity() {
            assert_eq!(
                inputs.len(),
                expected,
                "{} expects {expected} inputs, got {}",
                op.label(),
                inputs.len()
            );
        } else {
            assert!(
                !inputs.is_empty(),
                "{} needs at least one input",
                op.label()
            );
        }
        let id = NodeId(self.nodes.len());
        let start = self.wires.len();
        self.wires.extend_from_slice(inputs);
        self.nodes.push(Node {
            op,
            inputs: start..self.wires.len(),
        });
        id
    }

    fn out(&self, id: NodeId, port: u8) -> Wire {
        Wire { node: id, port }
    }

    /// Adds a stream input fed from `BatchInput::streams[slot]`.
    pub fn input_stream(&mut self, slot: usize) -> Wire {
        let id = self.add(NodeOp::InputStream { slot }, &[]);
        self.out(id, 0)
    }

    /// Adds a D/S converter generating a stream from `BatchInput::values[slot]`.
    pub fn generate(&mut self, slot: usize, source: SourceSpec) -> Wire {
        self.generate_skipped(slot, source, 0)
    }

    /// Like [`Graph::generate`], with the source advanced by `skip` samples
    /// first (for sources logically shared with earlier consumers).
    pub fn generate_skipped(&mut self, slot: usize, source: SourceSpec, skip: u64) -> Wire {
        let id = self.add(NodeOp::Generate { slot, source, skip }, &[]);
        self.out(id, 0)
    }

    /// Adds a D/S converter generating a constant-probability stream.
    pub fn constant(&mut self, probability: f64, source: SourceSpec) -> Wire {
        let id = self.add(
            NodeOp::ConstStream {
                probability,
                source,
                skip: 0,
            },
            &[],
        );
        self.out(id, 0)
    }

    /// Adds a correlation manipulator over a stream pair; returns the
    /// manipulated `(x, y)` pair.
    pub fn manipulate(&mut self, kind: ManipulatorKind, x: Wire, y: Wire) -> (Wire, Wire) {
        let id = self.add(NodeOp::Manipulate(kind), &[x, y]);
        (self.out(id, 0), self.out(id, 1))
    }

    /// Adds a regeneration unit (S/D + D/S from `source`) over a stream.
    pub fn regenerate(&mut self, source: SourceSpec, x: Wire) -> Wire {
        self.regenerate_skipped(source, 0, x)
    }

    /// Like [`Graph::regenerate`], with the source advanced by `skip` samples.
    pub fn regenerate_skipped(&mut self, source: SourceSpec, skip: u64, x: Wire) -> Wire {
        let id = self.add(NodeOp::Regenerate { source, skip }, &[x]);
        self.out(id, 0)
    }

    /// Adds a NOT gate (`1 − pX`).
    pub fn not(&mut self, x: Wire) -> Wire {
        let id = self.add(NodeOp::Not, &[x]);
        self.out(id, 0)
    }

    /// Adds a binary arithmetic operator.
    pub fn binary(&mut self, op: BinaryOp, x: Wire, y: Wire) -> Wire {
        let id = self.add(NodeOp::Binary(op), &[x, y]);
        self.out(id, 0)
    }

    /// Adds a saturating-counter FSM activation over a (bipolar) stream.
    ///
    /// # Panics
    ///
    /// Panics if the FSM state count is outside the ranges the `sc_arith`
    /// implementations support (`stanh` half-states `1..=2048`, `slinear`
    /// states `2..=4096`) — a structural programming error caught at build
    /// time instead of mid-execution.
    pub fn unary_fsm(&mut self, op: UnaryFsmOp, x: Wire) -> Wire {
        match op {
            UnaryFsmOp::Stanh { half_states } => assert!(
                (1..=2048).contains(&half_states),
                "stanh state count {half_states} outside supported range 1..=2048"
            ),
            UnaryFsmOp::Slinear { states } => assert!(
                (2..=4096).contains(&states),
                "slinear state count {states} outside supported range 2..=4096"
            ),
        }
        let id = self.add(NodeOp::UnaryFsm(op), &[x]);
        self.out(id, 0)
    }

    /// Adds a stochastic `tanh`-like activation (`2·half_states`-state FSM).
    ///
    /// # Panics
    ///
    /// Panics if `half_states` is outside `1..=2048` (see
    /// [`Graph::unary_fsm`]).
    pub fn stanh(&mut self, half_states: u32, x: Wire) -> Wire {
        self.unary_fsm(UnaryFsmOp::Stanh { half_states }, x)
    }

    /// Adds a stochastic clamped linear gain (`states`-state FSM).
    ///
    /// # Panics
    ///
    /// Panics if `states` is outside `2..=4096` (see [`Graph::unary_fsm`]).
    pub fn slinear(&mut self, states: u32, x: Wire) -> Wire {
        self.unary_fsm(UnaryFsmOp::Slinear { states }, x)
    }

    /// Adds a feedback SC divider (`pZ = min(1, pX / pY)`) with the default
    /// 6-bit integration counter.
    pub fn divide(&mut self, x: Wire, y: Wire, source: SourceSpec) -> Wire {
        self.divide_skipped(x, y, source, 0, 6)
    }

    /// Like [`Graph::divide`], with the comparison source advanced by `skip`
    /// samples first and an explicit integration-counter width.
    ///
    /// # Panics
    ///
    /// Panics if `counter_bits` is outside the `1..=20` range the
    /// `sc_arith` divider supports.
    pub fn divide_skipped(
        &mut self,
        x: Wire,
        y: Wire,
        source: SourceSpec,
        skip: u64,
        counter_bits: u32,
    ) -> Wire {
        assert!(
            (1..=20).contains(&counter_bits),
            "divider counter width {counter_bits} outside supported range 1..=20"
        );
        let id = self.add(
            NodeOp::Divide {
                source,
                skip,
                counter_bits,
            },
            &[x, y],
        );
        self.out(id, 0)
    }

    /// Adds a MUX scaled adder (`0.5(pX + pY)`, Fig. 2a): the two-input
    /// [`Graph::weighted_mux`] over `[x, y]` under weights `[½, ½]`, whose
    /// select bit is 1 (picking `x`) exactly when the select sample is below
    /// ½ — the rule of `sc_arith::add::mux_add` over
    /// `sc_arith::add::half_select_stream`. The select source must be
    /// uncorrelated with the data inputs.
    pub fn mux_add(&mut self, x: Wire, y: Wire, select: SourceSpec) -> Wire {
        self.mux_add_skipped(x, y, select, 0)
    }

    /// Like [`Graph::mux_add`], with the select source advanced by `skip`
    /// samples first.
    pub fn mux_add_skipped(&mut self, x: Wire, y: Wire, select: SourceSpec, skip: u64) -> Wire {
        self.weighted_mux_skipped(&[x, y], half_select_weights(), select, skip)
    }

    /// Adds a weighted multiplexer tree over `inputs` (one weight per input).
    /// Nodes built from clones of one `Arc` share its weights.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` and `weights` differ in length or are empty.
    pub fn weighted_mux(
        &mut self,
        inputs: &[Wire],
        weights: impl Into<Arc<[f64]>>,
        select: SourceSpec,
    ) -> Wire {
        self.weighted_mux_skipped(inputs, weights, select, 0)
    }

    /// Like [`Graph::weighted_mux`], with the select source advanced by
    /// `skip` samples first.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` and `weights` differ in length or are empty.
    pub fn weighted_mux_skipped(
        &mut self,
        inputs: &[Wire],
        weights: impl Into<Arc<[f64]>>,
        select: SourceSpec,
        skip: u64,
    ) -> Wire {
        let weights = weights.into();
        assert!(!inputs.is_empty(), "weighted mux needs at least one input");
        assert_eq!(
            inputs.len(),
            weights.len(),
            "weighted mux needs one weight per input"
        );
        let id = self.add(
            NodeOp::WeightedMux {
                weights,
                select,
                skip,
            },
            inputs,
        );
        self.out(id, 0)
    }

    /// Adds a sink exposing the raw stream under `name`.
    pub fn sink_stream(&mut self, name: impl Into<Arc<str>>, x: Wire) -> NodeId {
        self.add(NodeOp::SinkStream { name: name.into() }, &[x])
    }

    /// Adds an S/D sink exposing the stream's unipolar value under `name`.
    pub fn sink_value(&mut self, name: impl Into<Arc<str>>, x: Wire) -> NodeId {
        self.add(NodeOp::SinkValue { name: name.into() }, &[x])
    }

    /// Adds an S/D sink exposing the stream's 1s count under `name`.
    pub fn sink_count(&mut self, name: impl Into<Arc<str>>, x: Wire) -> NodeId {
        self.add(NodeOp::SinkCount { name: name.into() }, &[x])
    }

    /// Adds an APC sink exposing the unscaled sum of the inputs' values.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is empty.
    pub fn sink_sum(&mut self, name: impl Into<Arc<str>>, inputs: &[Wire]) -> NodeId {
        self.add(NodeOp::SinkSum { name: name.into() }, inputs)
    }

    /// Adds an SCC probe over a stream pair.
    pub fn scc_probe(&mut self, name: impl Into<Arc<str>>, x: Wire, y: Wire) -> NodeId {
        self.add(NodeOp::SccProbe { name: name.into() }, &[x, y])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_wires_reference_created_nodes() {
        let mut g = Graph::new();
        let x = g.input_stream(0);
        let y = g.generate(0, SourceSpec::Sobol { dimension: 1 });
        let (mx, my) = g.manipulate(ManipulatorKind::Synchronizer { depth: 1 }, x, y);
        let z = g.binary(BinaryOp::OrMax, mx, my);
        let s = g.sink_value("z", z);
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.inputs(s), [z]);
        assert_eq!(g.inputs(z.node()), [mx, my]);
        assert!(g.inputs(x.node()).is_empty());
        assert_eq!(g.nodes().count(), 5);
    }

    #[test]
    #[should_panic(expected = "missing output port")]
    fn fabricated_port_panics() {
        let mut g = Graph::new();
        let x = g.input_stream(0);
        let bad = Wire {
            node: x.node(),
            port: 1,
        };
        let _ = g.not(bad);
    }

    #[test]
    #[should_panic(expected = "outside supported range")]
    fn zero_counter_divider_panics_at_build_time() {
        let mut g = Graph::new();
        let x = g.input_stream(0);
        let y = g.input_stream(1);
        let _ = g.divide_skipped(x, y, SourceSpec::Sobol { dimension: 1 }, 0, 0);
    }

    #[test]
    #[should_panic(expected = "outside supported range")]
    fn zero_state_stanh_panics_at_build_time() {
        let mut g = Graph::new();
        let x = g.input_stream(0);
        let _ = g.stanh(0, x);
    }

    #[test]
    #[should_panic(expected = "outside supported range")]
    fn one_state_slinear_panics_at_build_time() {
        let mut g = Graph::new();
        let x = g.input_stream(0);
        let _ = g.slinear(1, x);
    }

    #[test]
    fn error_display() {
        let errors: Vec<GraphError> = vec![
            GraphError::DuplicateSink {
                name: "z".to_string(),
            },
            GraphError::EmptyGraph,
            GraphError::ValueSlotOutOfRange {
                slot: 1,
                provided: 0,
            },
            GraphError::StreamSlotOutOfRange {
                slot: 1,
                provided: 0,
            },
            GraphError::Stream(sc_bitstream::Error::EmptyStream),
        ];
        for e in errors {
            assert!(!e.to_string().is_empty());
        }
    }
}
