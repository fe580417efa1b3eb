//! # sc-sim
//!
//! A small cycle-level simulation framework for stochastic-computing circuits.
//!
//! The paper models accelerator quality with "a cycle-level simulator which
//! uses models that have been verified against RTL simulation traces" (§IV.A).
//! This crate provides that layer: circuits are netlists of [`Component`]s
//! (gates, flip-flops, and arbitrary streaming state machines) connected by
//! nets, evaluated one clock cycle at a time with proper sequential /
//! combinational ordering.
//!
//! The higher-level crates use it two ways:
//!
//! * to cross-check the bitstream-level functional models of the correlation
//!   manipulating circuits against gate/FSM-level implementations, and
//! * to cross-check **compiled `sc_graph` dataflow plans** — not only
//!   hand-built circuits — against gate-level netlists of the same design
//!   (see the workspace `graph_equivalence` suite, which runs a compiled
//!   graph node and a simulated gate over the same streams and demands
//!   bit-identical output).
//!
//! # Example
//!
//! ```
//! use sc_sim::{Circuit, components::AndGate};
//! use sc_bitstream::Bitstream;
//!
//! // Build the SC multiplier of Fig. 1a: a single AND gate.
//! let mut circuit = Circuit::new();
//! let x = circuit.add_input("x");
//! let y = circuit.add_input("y");
//! let z = circuit.add_component(AndGate::new(), &[x, y])[0];
//! circuit.mark_output("z", z);
//!
//! let sx = Bitstream::parse("01010101")?;
//! let sy = Bitstream::parse("00111111")?;
//! let out = circuit.run(&[("x", sx), ("y", sy)])?;
//! assert_eq!(out["z"].value(), 0.375);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod circuit;
pub mod component;
pub mod components;

pub use circuit::{Circuit, NetId, SimError};
pub use component::Component;
