//! Structural lowering: [`sc_graph::CompiledGraph`] → [`Design`], and the
//! cycle-level co-simulation harness that runs the lowered circuit against
//! the same batch input the word-parallel executor consumes.

use crate::components::{
    ApcCell, CaAddCell, CaMaxMinCell, DividerCell, SelectOneHot, SourceBit, UnaryFsmCell,
};
use crate::design::{Cell, CellKind, Design, NetRef, SinkPlan};
use sc_bitstream::Bitstream;
use sc_core::sim_adapter::ManipulatorComponent;
use sc_graph::{BatchInput, BinaryOp, CompiledGraph, ManipulatorKind, NodeOp};
use sc_sim::components::{
    AndGate, DFlipFlop, FullAdder, Mux2, NotGate, OrGate, UpCounter, XnorGate, XorGate,
};
use sc_sim::{Circuit, NetId, SimError};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Errors raised while lowering or co-simulating a plan.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum RtlError {
    /// A `Generate` step reads a value slot the batch item does not provide.
    ValueSlotOutOfRange {
        /// Requested slot.
        slot: usize,
        /// Values provided.
        provided: usize,
    },
    /// An `InputStream` step reads a stream slot the batch item does not provide.
    StreamSlotOutOfRange {
        /// Requested slot.
        slot: usize,
        /// Streams provided.
        provided: usize,
    },
    /// The plan contains a step with no single-pass gate-level equivalent.
    ///
    /// Regeneration is the only current case: its S/D → D/S round trip needs
    /// the *complete* input stream before the first output bit exists, i.e. a
    /// full extra stream period of latency that the functional executor
    /// elides. A lowered circuit cannot reproduce that timeline in one pass.
    Unsupported(
        /// Human-readable description of the offending step.
        String,
    ),
    /// The cycle-level simulation itself failed.
    Sim(
        /// The underlying simulator error.
        SimError,
    ),
}

impl fmt::Display for RtlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RtlError::ValueSlotOutOfRange { slot, provided } => write!(
                f,
                "generate step reads value slot {slot} but the batch item has {provided} values"
            ),
            RtlError::StreamSlotOutOfRange { slot, provided } => write!(
                f,
                "input step reads stream slot {slot} but the batch item has {provided} streams"
            ),
            RtlError::Unsupported(what) => write!(f, "no gate-level lowering for {what}"),
            RtlError::Sim(e) => write!(f, "co-simulation failed: {e}"),
        }
    }
}

impl std::error::Error for RtlError {}

impl From<SimError> for RtlError {
    fn from(e: SimError) -> Self {
        RtlError::Sim(e)
    }
}

/// Width in bits of a counter that must represent values up to `max`.
fn counter_bits(max: u64) -> u32 {
    (64 - max.leading_zeros()).max(1)
}

/// The width of the sink counters [`elaborate()`] builds for a given stream
/// length (lossless: the count can reach `stream_length` inclusive).
///
/// Exposed so cost cross-checks size the table-driven
/// [`sc_graph::cost::compiled_netlist`] bridge to the same precision the
/// elaborated hardware actually uses, instead of re-deriving the rule.
#[must_use]
pub fn sink_counter_bits(stream_length: usize) -> u32 {
    counter_bits(stream_length as u64)
}

/// Lowers a compiled plan into a flat gate-level [`Design`].
///
/// `input` supplies the digital values consumed by `Generate` steps — in
/// hardware those are the D/S converters' value registers, so they are part
/// of the elaborated configuration, while `InputStream` slots stay dynamic
/// (they become primary inputs driven at co-simulation time). Every source
/// cell takes its spec through `input`'s
/// [`BatchInput::bindings`](sc_graph::BatchInput::bindings), so a bound
/// template's per-job seeds become the design's seed registers.
/// `stream_length` sizes the sink counters (and is the cycle count the
/// lowered circuit is meant to run for).
///
/// # Errors
///
/// Returns [`RtlError::ValueSlotOutOfRange`] when `input` is narrower than
/// the plan requires, and [`RtlError::Unsupported`] for plan steps with no
/// single-pass gate-level equivalent (see the error's documentation).
pub fn elaborate(
    plan: &CompiledGraph,
    input: &BatchInput,
    stream_length: usize,
) -> Result<Design, RtlError> {
    let mut design = Design::new("plan", stream_length);
    let mut slots: Vec<Option<NetRef>> = vec![None; plan.slot_count()];
    let slot = |slots: &[Option<NetRef>], idx: usize| -> NetRef {
        slots[idx].expect("topological step order guarantees producers are lowered first")
    };
    let sink_counter_bits = counter_bits(stream_length as u64);

    for step in plan.steps() {
        let srcs = plan.srcs(step);
        let dst = step.dst;
        match &step.op {
            NodeOp::InputStream { slot: s } => {
                // Stream slots stay dynamic: they become primary inputs and
                // are only resolved (and validated) at co-simulation time.
                let net = design.add_net();
                design.inputs.push((format!("in{s}"), net, *s));
                slots[dst] = Some(net);
            }
            NodeOp::Generate {
                slot: s,
                source,
                skip,
            } => {
                let value = *input.values.get(*s).ok_or(RtlError::ValueSlotOutOfRange {
                    slot: *s,
                    provided: input.values.len(),
                })?;
                let out = design.cell(
                    CellKind::Source {
                        spec: input.resolve(source).clone(),
                        skip: *skip,
                        threshold: value,
                    },
                    &[],
                );
                slots[dst] = Some(out[0]);
            }
            NodeOp::ConstStream {
                probability,
                source,
                skip,
            } => {
                let out = design.cell(
                    CellKind::Source {
                        spec: input.resolve(source).clone(),
                        skip: *skip,
                        threshold: *probability,
                    },
                    &[],
                );
                slots[dst] = Some(out[0]);
            }
            NodeOp::Manipulate(kind) => {
                let (mut nx, mut ny) = (slot(&slots, srcs[0]), slot(&slots, srcs[1]));
                match kind {
                    ManipulatorKind::Identity => {}
                    ManipulatorKind::Isolator { delay } => {
                        // A k-stage isolator is literally k flip-flops in the
                        // X path; Y passes through untouched.
                        for _ in 0..*delay {
                            nx = design.cell(CellKind::Dff, &[nx])[0];
                        }
                    }
                    _ => {
                        let outs = design.cell(CellKind::Fsm { kind: *kind }, &[nx, ny]);
                        nx = outs[0];
                        ny = outs[1];
                    }
                }
                slots[dst] = Some(nx);
                slots[dst + 1] = Some(ny);
            }
            NodeOp::Regenerate { source, .. } => {
                return Err(RtlError::Unsupported(format!(
                    "regenerate({source}): S/D → D/S regeneration needs a full extra stream \
                     period of latency and has no single-pass cycle-level equivalent"
                )));
            }
            NodeOp::Not => {
                let out = design.cell(CellKind::Inv, &[slot(&slots, srcs[0])]);
                slots[dst] = Some(out[0]);
            }
            NodeOp::Binary(op) => {
                let (nx, ny) = (slot(&slots, srcs[0]), slot(&slots, srcs[1]));
                let out = match op {
                    BinaryOp::AndMultiply | BinaryOp::AndMin => {
                        design.cell(CellKind::And2, &[nx, ny])
                    }
                    BinaryOp::OrMax | BinaryOp::SaturatingAdd => {
                        design.cell(CellKind::Or2, &[nx, ny])
                    }
                    BinaryOp::XnorMultiply => design.cell(CellKind::Xnor2, &[nx, ny]),
                    BinaryOp::XorSubtract => design.cell(CellKind::Xor2, &[nx, ny]),
                    BinaryOp::CaAdd => design.cell(CellKind::CaAdd, &[nx, ny]),
                    BinaryOp::CaMax => design.cell(CellKind::CaMax, &[nx, ny]),
                    BinaryOp::CaMin => design.cell(CellKind::CaMin, &[nx, ny]),
                    other => return Err(RtlError::Unsupported(format!("binary operator {other}"))),
                };
                slots[dst] = Some(out[0]);
            }
            NodeOp::UnaryFsm(op) => {
                let out = design.cell(CellKind::UnaryFsm { op: *op }, &[slot(&slots, srcs[0])]);
                slots[dst] = Some(out[0]);
            }
            NodeOp::Divide {
                source,
                skip,
                counter_bits: cb,
            } => {
                let (nx, ny) = (slot(&slots, srcs[0]), slot(&slots, srcs[1]));
                let out = design.cell(
                    CellKind::Divider {
                        spec: input.resolve(source).clone(),
                        skip: *skip,
                        counter_bits: *cb,
                    },
                    &[nx, ny],
                );
                slots[dst] = Some(out[0]);
            }
            NodeOp::WeightedMux {
                weights,
                select,
                skip,
            } => {
                // A priority chain of k − 1 two-way muxes: mux i passes input
                // i when select line i is high, so the select cell drives
                // lines 1..k only (line 0 is the chain's default). A
                // degenerate 1-way tree still instantiates one mux, matching
                // the cost model's floor, over the one line it has.
                let sels = design.cell(
                    CellKind::SelectOneHot {
                        spec: input.resolve(select).clone(),
                        skip: *skip,
                        weights: Arc::clone(weights),
                    },
                    &[],
                );
                let first = slot(&slots, srcs[0]);
                let mut acc = first;
                if srcs.len() == 1 {
                    acc = design.cell(CellKind::Mux2, &[first, first, sels[0]])[0];
                } else {
                    for (&s, &line) in srcs[1..].iter().zip(&sels) {
                        let input = slot(&slots, s);
                        acc = design.cell(CellKind::Mux2, &[acc, input, line])[0];
                    }
                }
                slots[dst] = Some(acc);
            }
            NodeOp::SinkStream { name } => {
                design.sinks.push(SinkPlan::Stream {
                    name: name.to_string(),
                    net: slot(&slots, srcs[0]),
                });
            }
            NodeOp::SinkValue { name } => {
                let net = slot(&slots, srcs[0]);
                let bus = design.cell(
                    CellKind::Counter {
                        bits: sink_counter_bits,
                    },
                    &[net],
                );
                design.sinks.push(SinkPlan::Value {
                    name: name.to_string(),
                    net,
                    count_bus: bus,
                });
            }
            NodeOp::SinkCount { name } => {
                let net = slot(&slots, srcs[0]);
                let bus = design.cell(
                    CellKind::Counter {
                        bits: sink_counter_bits,
                    },
                    &[net],
                );
                design.sinks.push(SinkPlan::Count {
                    name: name.to_string(),
                    net,
                    count_bus: bus,
                });
            }
            NodeOp::SinkSum { name } => {
                let lanes: Vec<NetRef> = srcs.iter().map(|s| slot(&slots, *s)).collect();
                let bits = counter_bits(stream_length as u64 * srcs.len() as u64);
                let bus = design.cell(
                    CellKind::Apc {
                        lanes: lanes.len(),
                        bits,
                    },
                    &lanes,
                );
                design.sinks.push(SinkPlan::Sum {
                    name: name.to_string(),
                    total_bus: bus,
                });
            }
            NodeOp::SccProbe { name } => {
                let (nx, ny) = (slot(&slots, srcs[0]), slot(&slots, srcs[1]));
                let joint = design.cell(CellKind::And2, &[nx, ny])[0];
                let bits = sink_counter_bits;
                let a_bus = design.cell(CellKind::Counter { bits }, &[joint]);
                let x_bus = design.cell(CellKind::Counter { bits }, &[nx]);
                let y_bus = design.cell(CellKind::Counter { bits }, &[ny]);
                design.sinks.push(SinkPlan::Scc {
                    name: name.to_string(),
                    x: nx,
                    y: ny,
                    a_bus,
                    x_bus,
                    y_bus,
                });
            }
            other => {
                return Err(RtlError::Unsupported(format!("plan step {other:?}")));
            }
        }
    }
    Ok(design)
}

/// The named results of co-simulating a lowered design, mirroring
/// [`sc_graph::ExecOutput`] so the two can be compared field by field.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RtlOutput {
    streams: BTreeMap<String, Bitstream>,
    values: BTreeMap<String, f64>,
}

impl RtlOutput {
    /// The stream captured by the `SinkStream` sink of that name.
    #[must_use]
    pub fn stream(&self, name: &str) -> Option<&Bitstream> {
        self.streams.get(name)
    }

    /// The value produced by the value-producing sink of that name.
    #[must_use]
    pub fn value(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Iterates over `(name, stream)` results in name order.
    pub fn streams(&self) -> impl Iterator<Item = (&str, &Bitstream)> {
        self.streams.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Iterates over `(name, value)` results in name order.
    pub fn values(&self) -> impl Iterator<Item = (&str, f64)> {
        self.values.iter().map(|(k, v)| (k.as_str(), *v))
    }
}

/// Reads a counter bus's value at the final simulated cycle.
fn bus_final_value(
    outputs: &std::collections::HashMap<String, Bitstream>,
    prefix: &str,
    cycles: usize,
) -> u64 {
    if cycles == 0 {
        return 0;
    }
    let mut value = 0u64;
    let mut bit = 0usize;
    while let Some(stream) = outputs.get(&format!("{prefix}[{bit}]")) {
        if stream.bit(cycles - 1) {
            value |= 1u64 << bit;
        }
        bit += 1;
    }
    value
}

impl Design {
    /// Builds a fresh [`sc_sim::Circuit`] of the design, returning the
    /// circuit plus the mapping from design nets to circuit nets. Every sink
    /// observable (streams and counter buses) is marked as a primary output.
    ///
    /// # Panics
    ///
    /// Panics only on internal inconsistencies of the elaborated design
    /// (every cell input must already be driven), which would be a bug in
    /// [`elaborate`].
    #[must_use]
    pub fn to_circuit(&self) -> (Circuit, Vec<Option<NetId>>) {
        let mut circuit = Circuit::new();
        let mut map: Vec<Option<NetId>> = vec![None; self.net_count];
        for (name, net, _) in &self.inputs {
            map[net.index()] = Some(circuit.add_input(name.clone()));
        }
        for cell in &self.cells {
            let inputs: Vec<NetId> = cell
                .inputs
                .iter()
                .map(|n| map[n.index()].expect("cell inputs are driven in elaboration order"))
                .collect();
            let outputs = instantiate(&mut circuit, cell, &inputs);
            for (net, id) in cell.outputs.iter().zip(outputs) {
                map[net.index()] = Some(id);
            }
        }
        // Bus ports use the simulator's canonical `{prefix}[{i}]` naming
        // (Circuit::mark_output_bus), which `bus_final_value` reads back.
        let mark_bus =
            |circuit: &mut Circuit, map: &[Option<NetId>], prefix: &str, bus: &[NetRef]| {
                let ids: Vec<NetId> = bus
                    .iter()
                    .map(|net| map[net.index()].expect("bus nets are driven"))
                    .collect();
                circuit.mark_output_bus(prefix, &ids);
            };
        for sink in &self.sinks {
            match sink {
                SinkPlan::Stream { name, net } => {
                    circuit.mark_output(name.clone(), map[net.index()].expect("driven"));
                }
                SinkPlan::Value {
                    name,
                    net,
                    count_bus,
                }
                | SinkPlan::Count {
                    name,
                    net,
                    count_bus,
                } => {
                    circuit.mark_output(format!("{name}#s"), map[net.index()].expect("driven"));
                    mark_bus(&mut circuit, &map, &format!("{name}#cnt"), count_bus);
                }
                SinkPlan::Sum { name, total_bus } => {
                    mark_bus(&mut circuit, &map, &format!("{name}#sum"), total_bus);
                }
                SinkPlan::Scc {
                    name,
                    x,
                    y,
                    a_bus,
                    x_bus,
                    y_bus,
                } => {
                    circuit.mark_output(format!("{name}#x"), map[x.index()].expect("driven"));
                    circuit.mark_output(format!("{name}#y"), map[y.index()].expect("driven"));
                    mark_bus(&mut circuit, &map, &format!("{name}#a"), a_bus);
                    mark_bus(&mut circuit, &map, &format!("{name}#cx"), x_bus);
                    mark_bus(&mut circuit, &map, &format!("{name}#cy"), y_bus);
                }
            }
        }
        (circuit, map)
    }

    /// Clock-cycle co-simulates the design over the batch item's input
    /// streams and reconstructs the named sink results exactly as the
    /// word-parallel executor reports them (same conversions, same
    /// floating-point operations). Counter buses are additionally checked
    /// against the captured streams, so a divergence between the gate-level
    /// S/D hardware and the stream it counts is an error, not a silent skew.
    ///
    /// # Errors
    ///
    /// Returns [`RtlError::StreamSlotOutOfRange`] for missing input streams
    /// and [`RtlError::Sim`] for simulation failures (including counter /
    /// stream divergence, reported as an unsupported-step error).
    pub fn cosimulate(&self, input: &BatchInput) -> Result<RtlOutput, RtlError> {
        let n = self.stream_length;
        let (mut circuit, _) = self.to_circuit();
        let mut stimuli: Vec<(&str, Bitstream)> = Vec::with_capacity(self.inputs.len());
        for (name, _, slot) in &self.inputs {
            let stream = input
                .streams
                .get(*slot)
                .ok_or(RtlError::StreamSlotOutOfRange {
                    slot: *slot,
                    provided: input.streams.len(),
                })?;
            stimuli.push((name.as_str(), stream.clone()));
        }
        let outputs = circuit.run_cycles(&stimuli, n)?;

        let mut result = RtlOutput::default();
        let check = |captured: &Bitstream, counted: u64, what: &str| -> Result<(), RtlError> {
            if captured.count_ones() as u64 != counted {
                return Err(RtlError::Unsupported(format!(
                    "internal divergence: {what} counter holds {counted} but the stream carries \
                     {} ones",
                    captured.count_ones()
                )));
            }
            Ok(())
        };
        for sink in &self.sinks {
            match sink {
                SinkPlan::Stream { name, .. } => {
                    result.streams.insert(name.clone(), outputs[name].clone());
                }
                SinkPlan::Value { name, .. } => {
                    let stream = &outputs[&format!("{name}#s")];
                    let count = bus_final_value(&outputs, &format!("{name}#cnt"), n);
                    check(stream, count, name)?;
                    let value = sc_convert::StochasticToDigital::convert(stream).get();
                    result.values.insert(name.clone(), value);
                }
                SinkPlan::Count { name, .. } => {
                    let stream = &outputs[&format!("{name}#s")];
                    let count = bus_final_value(&outputs, &format!("{name}#cnt"), n);
                    check(stream, count, name)?;
                    result.values.insert(name.clone(), count as f64);
                }
                SinkPlan::Sum { name, .. } => {
                    let total = bus_final_value(&outputs, &format!("{name}#sum"), n);
                    let sum = if n == 0 { 0.0 } else { total as f64 / n as f64 };
                    result.values.insert(name.clone(), sum);
                }
                SinkPlan::Scc { name, .. } => {
                    let x = &outputs[&format!("{name}#x")];
                    let y = &outputs[&format!("{name}#y")];
                    let a = bus_final_value(&outputs, &format!("{name}#a"), n);
                    check(&x.and(y), a, name)?;
                    check(x, bus_final_value(&outputs, &format!("{name}#cx"), n), name)?;
                    check(y, bus_final_value(&outputs, &format!("{name}#cy"), n), name)?;
                    result.values.insert(name.clone(), sc_bitstream::scc(x, y));
                }
            }
        }
        Ok(result)
    }
}

/// Instantiates one IR cell as a simulator component.
#[allow(clippy::too_many_lines)]
fn instantiate(circuit: &mut Circuit, cell: &Cell, inputs: &[NetId]) -> Vec<NetId> {
    match &cell.kind {
        CellKind::And2 => circuit.add_component(AndGate::new(), inputs),
        CellKind::Or2 => circuit.add_component(OrGate::new(), inputs),
        CellKind::Xor2 => circuit.add_component(XorGate::new(), inputs),
        CellKind::Xnor2 => circuit.add_component(XnorGate::new(), inputs),
        CellKind::Inv => circuit.add_component(NotGate::new(), inputs),
        CellKind::Mux2 => circuit.add_component(Mux2::new(), inputs),
        CellKind::Dff => circuit.add_component(DFlipFlop::new(), inputs),
        CellKind::FullAdder => circuit.add_component(FullAdder::new(), inputs),
        CellKind::Counter { bits } => circuit.add_component(UpCounter::new(*bits), inputs),
        CellKind::Source {
            spec,
            skip,
            threshold,
        } => circuit.add_component(SourceBit::new(spec, *skip, *threshold), inputs),
        CellKind::SelectOneHot {
            spec,
            skip,
            weights,
        } => circuit.add_component(SelectOneHot::new(spec, *skip, weights), inputs),
        CellKind::Fsm { kind } => {
            circuit.add_component(ManipulatorComponent::new(kind.build()), inputs)
        }
        CellKind::CaAdd => circuit.add_component(CaAddCell::new(), inputs),
        CellKind::CaMax => circuit.add_component(CaMaxMinCell::new(true), inputs),
        CellKind::CaMin => circuit.add_component(CaMaxMinCell::new(false), inputs),
        CellKind::UnaryFsm { op } => circuit.add_component(UnaryFsmCell::new(*op), inputs),
        CellKind::Divider {
            spec,
            skip,
            counter_bits,
        } => circuit.add_component(DividerCell::new(spec, *skip, *counter_bits), inputs),
        CellKind::Apc { lanes, bits } => circuit.add_component(ApcCell::new(*lanes, *bits), inputs),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_graph::{Executor, Graph, PlannerOptions};
    use sc_rng::SourceSpec;

    fn sobol(d: u32) -> SourceSpec {
        SourceSpec::Sobol { dimension: d }
    }

    #[test]
    fn regenerate_is_reported_unsupported() {
        let mut g = Graph::new();
        let x = g.generate(0, sobol(1));
        let r = g.regenerate(SourceSpec::VanDerCorput { offset: 0 }, x);
        g.sink_value("v", r);
        let plan = g.compile(&PlannerOptions::default()).unwrap();
        let err = elaborate(&plan, &BatchInput::with_values(vec![0.5]), 64).unwrap_err();
        assert!(matches!(err, RtlError::Unsupported(_)));
        assert!(err.to_string().contains("regenerate"));
    }

    #[test]
    fn missing_batch_slots_are_reported() {
        let mut g = Graph::new();
        let x = g.generate(1, sobol(1));
        g.sink_value("v", x);
        let plan = g.compile(&PlannerOptions::default()).unwrap();
        assert!(matches!(
            elaborate(&plan, &BatchInput::with_values(vec![0.5]), 64),
            Err(RtlError::ValueSlotOutOfRange {
                slot: 1,
                provided: 1
            })
        ));

        let mut g = Graph::new();
        let s = g.input_stream(0);
        g.sink_value("v", s);
        let plan = g.compile(&PlannerOptions::default()).unwrap();
        let design = elaborate(&plan, &BatchInput::new(), 64).unwrap();
        assert!(matches!(
            design.cosimulate(&BatchInput::new()),
            Err(RtlError::StreamSlotOutOfRange { .. })
        ));
    }

    #[test]
    fn identity_and_isolator_lower_structurally() {
        let mut g = Graph::new();
        let x = g.input_stream(0);
        let y = g.input_stream(1);
        let (i0, i1) = g.manipulate(sc_graph::ManipulatorKind::Identity, x, y);
        let (k0, k1) = g.manipulate(sc_graph::ManipulatorKind::Isolator { delay: 3 }, i0, i1);
        g.sink_stream("x", k0);
        g.sink_stream("y", k1);
        let plan = g.compile(&PlannerOptions::default()).unwrap();
        let design = elaborate(&plan, &BatchInput::new(), 64).unwrap();
        // Identity is pure wiring; the isolator is exactly 3 flip-flops.
        assert_eq!(design.kind_histogram().get("dff"), Some(&3));
        assert_eq!(design.cell_count(), 3);
        let input = BatchInput::with_streams(vec![
            Bitstream::from_fn(64, |i| i % 3 == 0),
            Bitstream::from_fn(64, |i| i % 5 == 0),
        ]);
        let rtl = design.cosimulate(&input).unwrap();
        let exec = Executor::new(64).run(&plan, &input).unwrap();
        assert_eq!(rtl.stream("x").unwrap(), exec.stream("x").unwrap());
        assert_eq!(rtl.stream("y").unwrap(), exec.stream("y").unwrap());
    }

    #[test]
    fn counter_bits_sizes_hold_the_count() {
        assert_eq!(counter_bits(1), 1);
        assert_eq!(counter_bits(63), 6);
        assert_eq!(counter_bits(64), 7);
        assert_eq!(counter_bits(256), 9);
        assert_eq!(counter_bits(1000), 10);
    }

    #[test]
    fn output_accessors_round_trip() {
        let mut g = Graph::new();
        let x = g.generate(0, sobol(1));
        g.sink_value("v", x);
        g.sink_stream("s", x);
        let plan = g.compile(&PlannerOptions::default()).unwrap();
        let input = BatchInput::with_values(vec![0.25]);
        let design = elaborate(&plan, &input, 128).unwrap();
        let out = design.cosimulate(&input).unwrap();
        assert_eq!(out.streams().count(), 1);
        assert_eq!(out.values().count(), 1);
        assert!((out.value("v").unwrap() - 0.25).abs() < 0.05);
        assert_eq!(out.stream("s").unwrap().len(), 128);
    }
}
