//! # sc-rtl
//!
//! The gate-level lowering backend of the workspace: structural elaboration
//! of compiled `sc_graph` dataflow plans into flat [`sc_sim`] circuits,
//! Verilog-2005 export of the same designs, and a *structural* cost bridge
//! that derives `sc_hwcost` netlists by counting the actually elaborated
//! primitives.
//!
//! The paper evaluates correlation-manipulating hardware with "a cycle-level
//! simulator which uses models that have been verified against RTL
//! simulation traces" (§IV.A). This crate closes that loop for the whole
//! repository: a [`sc_graph::CompiledGraph`] — sources, planner-inserted
//! repair FSMs, arithmetic, sinks, everything — lowers to one flat netlist
//! that can be
//!
//! 1. **co-simulated clock cycle by clock cycle** ([`Design::cosimulate`])
//!    and compared *bit for bit* against the word-parallel
//!    [`sc_graph::Executor`] (the workspace `rtl_cosim` suite pins this for
//!    every node kind and for the full Gaussian-blur → edge-detect tile
//!    pipeline),
//! 2. **emitted as synthesizable Verilog** ([`to_verilog`]), one leaf module
//!    per cell kind (gates, muxes, counters, source comparators, and one
//!    FSM block per manipulator) with a deterministic, snapshot-testable
//!    layout, and
//! 3. **costed structurally** ([`Design::netlist`]): the hardware estimate
//!    comes from the instantiated cells, cross-checked against the
//!    table-driven [`sc_graph::cost`] bridge so per-op estimates become
//!    per-design measurements.
//!
//! Lowering is *total* over plan steps except S/D → D/S regeneration, which
//! needs a full extra stream period of latency and therefore has no
//! single-pass cycle-level equivalent (see [`RtlError::Unsupported`]).
//!
//! # Example
//!
//! ```
//! use sc_graph::{BatchInput, BinaryOp, Executor, Graph, PlannerOptions};
//! use sc_rng::SourceSpec;
//!
//! // |pX − pY| with planner-inserted synchronizer repair...
//! let mut g = Graph::new();
//! let x = g.generate(0, SourceSpec::Sobol { dimension: 1 });
//! let y = g.generate(1, SourceSpec::Sobol { dimension: 2 });
//! let z = g.binary(BinaryOp::XorSubtract, x, y);
//! g.sink_value("diff", z);
//! let plan = g.compile(&PlannerOptions::default())?;
//!
//! // ...lowers to one gate-level circuit that co-simulates bit-identically.
//! let input = BatchInput::with_values(vec![0.8, 0.25]);
//! let lowered = sc_rtl::elaborate(&plan, &input, 256).expect("supported plan");
//! let gate_level = lowered.cosimulate(&input).expect("co-simulation runs");
//! let word_parallel = Executor::new(256).run(&plan, &input)?;
//! assert_eq!(gate_level.value("diff"), word_parallel.value("diff"));
//!
//! // The same design exports as Verilog and costs itself structurally.
//! let verilog = sc_rtl::to_verilog(&lowered, "diff_top");
//! assert!(verilog.contains("module sc_synchronizer"));
//! assert!(lowered.netlist("diff", 8).area_um2() > 0.0);
//! # Ok::<(), sc_graph::GraphError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod components;
pub mod design;
pub mod elaborate;
pub mod verilog;

pub use design::{Cell, CellKind, Design, NetRef, SinkPlan};
pub use elaborate::{elaborate, sink_counter_bits, RtlError, RtlOutput};
pub use verilog::to_verilog;
