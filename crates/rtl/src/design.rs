//! The lowered-design IR: a flat netlist of hardware cells over single-bit
//! nets, produced by [`crate::elaborate()`] from a compiled dataflow plan.
//!
//! The IR is deliberately small: gate-level primitives (logic gates,
//! multiplexers, counters) plus a handful of *behavioural* cells for blocks
//! whose cycle-level semantics are data-dependent state machines (source
//! comparators, manipulator FSMs). Every cell knows its
//! `sc_hwcost` primitive content, so [`Design::netlist`] derives the plan's
//! hardware cost by counting the *actually elaborated* structure instead of a
//! per-op lookup table.

use sc_graph::{cost as graph_cost, ManipulatorKind};
use sc_hwcost::{Netlist, Primitive};
use sc_rng::SourceSpec;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Identifier of a single-bit net in a [`Design`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NetRef(pub(crate) usize);

impl NetRef {
    /// Raw dense index of the net.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

/// The hardware block a [`Cell`] instantiates.
#[derive(Debug, Clone, PartialEq)]
pub enum CellKind {
    /// Two-input AND gate.
    And2,
    /// Two-input OR gate.
    Or2,
    /// Two-input XOR gate.
    Xor2,
    /// Two-input XNOR gate.
    Xnor2,
    /// Inverter.
    Inv,
    /// Two-to-one multiplexer: inputs `(in0, in1, select)`.
    Mux2,
    /// Up counter with a combinational increment read path: one enable
    /// input, `bits` output bits (LSB first).
    Counter {
        /// Output bus width.
        bits: u32,
    },
    /// D/S source: an RNG/sequence generator compared against a digital
    /// threshold every cycle (Fig. 2g). No inputs, one output bit.
    Source {
        /// The generator family and configuration.
        spec: SourceSpec,
        /// Samples already served to earlier consumers of a shared generator.
        skip: u64,
        /// The encoded probability (comparator threshold).
        threshold: f64,
    },
    /// Weighted one-hot selection source: each cycle exactly one of the
    /// `k = weights.len()` select lines is high, line `i` with probability
    /// `weights[i]` (cumulative-threshold comparison network). The cell
    /// drives only the lines its mux chain reads: lines `1..k` (line 0 is
    /// the chain's default), or the one line of a degenerate 1-way tree.
    SelectOneHot {
        /// The generator.
        spec: SourceSpec,
        /// Samples already served to earlier consumers.
        skip: u64,
        /// Per-output selection probabilities, shared with the plan step.
        weights: Arc<[f64]>,
    },
    /// A correlation-manipulating FSM (synchronizer / desynchronizer /
    /// decorrelator), kept as one sequential block. Two inputs, two outputs.
    Fsm {
        /// The circuit family and depth.
        kind: ManipulatorKind,
    },
}

/// The select lines a `k`-way weighted mux chain reads, which are the
/// lines its [`CellKind::SelectOneHot`] cell drives: `1..k` when `k > 1`,
/// else the one line `0..1`.
pub(crate) fn select_lines(k: usize) -> std::ops::Range<usize> {
    usize::from(k > 1)..k
}

impl CellKind {
    /// Short instance-name stem used in traces and Verilog.
    #[must_use]
    pub fn stem(&self) -> &'static str {
        match self {
            CellKind::And2 => "and2",
            CellKind::Or2 => "or2",
            CellKind::Xor2 => "xor2",
            CellKind::Xnor2 => "xnor2",
            CellKind::Inv => "inv",
            CellKind::Mux2 => "mux2",
            CellKind::Counter { .. } => "counter",
            CellKind::Source { .. } => "source",
            CellKind::SelectOneHot { .. } => "wsel",
            CellKind::Fsm { .. } => "fsm",
        }
    }

    /// Number of input ports.
    #[must_use]
    pub fn num_inputs(&self) -> usize {
        match self {
            CellKind::Source { .. } | CellKind::SelectOneHot { .. } => 0,
            CellKind::Inv | CellKind::Counter { .. } => 1,
            CellKind::And2
            | CellKind::Or2
            | CellKind::Xor2
            | CellKind::Xnor2
            | CellKind::Fsm { .. } => 2,
            CellKind::Mux2 => 3,
        }
    }

    /// Number of output ports.
    #[must_use]
    pub fn num_outputs(&self) -> usize {
        match self {
            CellKind::Fsm { .. } => 2,
            CellKind::Counter { bits } => *bits as usize,
            CellKind::SelectOneHot { weights, .. } => select_lines(weights.len()).len(),
            _ => 1,
        }
    }

    /// The `sc_hwcost` primitive content of this cell, at the given
    /// converter precision (used for comparator/register/counter widths of
    /// the *modelled* blocks, mirroring the table-driven bridge's
    /// convention; gate-level cells count as themselves).
    #[must_use]
    pub fn primitives(&self, converter_bits: u32) -> Netlist {
        match self {
            CellKind::And2 => Netlist::new("and2").with(Primitive::And2, 1),
            CellKind::Or2 => Netlist::new("or2").with(Primitive::Or2, 1),
            CellKind::Xor2 => Netlist::new("xor2").with(Primitive::Xor2, 1),
            CellKind::Xnor2 => Netlist::new("xnor2").with(Primitive::Xnor2, 1),
            CellKind::Inv => Netlist::new("inv").with(Primitive::Inverter, 1),
            CellKind::Mux2 => Netlist::new("mux2").with(Primitive::Mux2, 1),
            CellKind::Counter { bits } => {
                Netlist::new("counter").with(Primitive::Counter(*bits), 1)
            }
            CellKind::Source { spec, .. } => {
                // Comparator + value register (the D/S converter) plus the
                // generator itself — exactly the table bridge's composition.
                let mut n = Netlist::new("source")
                    .with(Primitive::Comparator(converter_bits), 1)
                    .with(Primitive::Register(converter_bits), 1);
                n.merge(&graph_cost::source_netlist(spec, converter_bits));
                n
            }
            CellKind::SelectOneHot { spec, .. } => graph_cost::source_netlist(spec, converter_bits),
            CellKind::Fsm { kind } => graph_cost::manipulator_netlist(kind),
        }
    }
}

/// One instantiated hardware block.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// What the cell is.
    pub kind: CellKind,
    /// Input nets, in port order.
    pub inputs: Vec<NetRef>,
    /// Output nets, in port order.
    pub outputs: Vec<NetRef>,
}

/// How a plan sink is read back out of the lowered circuit.
#[derive(Debug, Clone, PartialEq)]
pub enum SinkPlan {
    /// `SinkStream`: the stream on `net` is the named result.
    Stream {
        /// Sink name.
        name: String,
        /// The observed net.
        net: NetRef,
    },
    /// `SinkValue`: S/D conversion of the stream on `net`; `count_bus` is the
    /// elaborated counter's read bus (LSB first).
    Value {
        /// Sink name.
        name: String,
        /// The counted net.
        net: NetRef,
        /// Counter read bus.
        count_bus: Vec<NetRef>,
    },
    /// `SccProbe`: joint counters over the pair `(x, y)`.
    Scc {
        /// Sink name.
        name: String,
        /// Probed X net.
        x: NetRef,
        /// Probed Y net.
        y: NetRef,
        /// Counter bus of the AND (joint-1) count.
        a_bus: Vec<NetRef>,
        /// Counter bus of the X count.
        x_bus: Vec<NetRef>,
        /// Counter bus of the Y count.
        y_bus: Vec<NetRef>,
    },
}

/// A fully elaborated gate-level design: nets, cells, primary I/O, and the
/// sink read-back plan. Produced by [`crate::elaborate()`]; consumed by the
/// co-simulation harness ([`Design::cosimulate`]), the Verilog emitter
/// ([`crate::to_verilog`]), and the structural cost bridge
/// ([`Design::netlist`]).
#[derive(Debug, Clone)]
pub struct Design {
    pub(crate) name: String,
    pub(crate) net_count: usize,
    pub(crate) cells: Vec<Cell>,
    /// Primary inputs: `(name, net, batch stream slot)`.
    pub(crate) inputs: Vec<(String, NetRef, usize)>,
    pub(crate) sinks: Vec<SinkPlan>,
    pub(crate) stream_length: usize,
}

impl Design {
    pub(crate) fn new(name: impl Into<String>, stream_length: usize) -> Self {
        Design {
            name: name.into(),
            net_count: 0,
            cells: Vec::new(),
            inputs: Vec::new(),
            sinks: Vec::new(),
            stream_length,
        }
    }

    pub(crate) fn add_net(&mut self) -> NetRef {
        let id = NetRef(self.net_count);
        self.net_count += 1;
        id
    }

    /// Instantiates a cell over the given input nets, allocating and
    /// returning its output nets.
    pub(crate) fn cell(&mut self, kind: CellKind, inputs: &[NetRef]) -> Vec<NetRef> {
        debug_assert_eq!(inputs.len(), kind.num_inputs(), "{kind:?}");
        let outputs: Vec<NetRef> = (0..kind.num_outputs()).map(|_| self.add_net()).collect();
        self.cells.push(Cell {
            kind,
            inputs: inputs.to_vec(),
            outputs: outputs.clone(),
        });
        outputs
    }

    /// The design name (taken from the elaboration call).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of single-bit nets.
    #[must_use]
    pub fn net_count(&self) -> usize {
        self.net_count
    }

    /// Number of instantiated cells.
    #[must_use]
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// The stream length (clock cycles per run) the design was elaborated for.
    #[must_use]
    pub fn stream_length(&self) -> usize {
        self.stream_length
    }

    /// The instantiated cells, in elaboration (topological) order.
    #[must_use]
    pub fn cells(&self) -> &[Cell] {
        &self.cells
    }

    /// The sink read-back plan.
    #[must_use]
    pub fn sinks(&self) -> &[SinkPlan] {
        &self.sinks
    }

    /// Primary input names with their batch stream slots.
    pub fn inputs(&self) -> impl Iterator<Item = (&str, usize)> {
        self.inputs.iter().map(|(n, _, slot)| (n.as_str(), *slot))
    }

    /// Per-cell-kind instance counts (by name stem), for reports and benches.
    #[must_use]
    pub fn kind_histogram(&self) -> BTreeMap<&'static str, usize> {
        let mut histogram = BTreeMap::new();
        for cell in &self.cells {
            *histogram.entry(cell.kind.stem()).or_insert(0) += 1;
        }
        histogram
    }

    /// The structural `sc_hwcost` netlist of the design: the sum of every
    /// instantiated cell's primitive content. Unlike the table-driven
    /// [`sc_graph::cost::compiled_netlist`], which costs each plan *op* from
    /// a lookup, this counts what the elaborator actually built — the two
    /// agree exactly for every block whose elaboration matches the table's
    /// model (sources, manipulators, muxes, counters, single-gate
    /// arithmetic).
    #[must_use]
    pub fn netlist(&self, name: impl Into<String>, converter_bits: u32) -> Netlist {
        let mut total = Netlist::new(name);
        for cell in &self.cells {
            total.merge(&cell.kind.primitives(converter_bits));
        }
        total
    }
}
