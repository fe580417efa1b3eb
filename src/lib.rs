//! # sc-repro
//!
//! Workspace façade for the reproduction of *"Correlation Manipulating
//! Circuits for Stochastic Computing"* (Lee, Alaghi, Ceze — DATE 2018).
//!
//! This crate re-exports the workspace member crates under one roof so the
//! runnable examples and the cross-crate integration tests can use a single
//! dependency. Library users should depend on the individual crates instead:
//!
//! * [`sc_bitstream`] — stochastic numbers, encodings, and the SCC metric,
//! * [`sc_rng`] — LFSR, Van der Corput, Halton, and Sobol sources,
//! * [`sc_convert`] — D/S and S/D converters and the regeneration baseline,
//! * [`sc_sim`] — cycle-level circuit simulation,
//! * [`sc_arith`] — SC arithmetic and correlation-agnostic baselines,
//! * [`sc_core`] — the synchronizer, desynchronizer, decorrelator, and the
//!   improved max/min/saturating-add operators (the paper's contribution),
//! * [`sc_graph`] — the dataflow-graph compiler (validate → scc-infer →
//!   repair → emit) and sharded batch executor,
//! * [`sc_hwcost`] — the gate-level area/power/energy model,
//! * [`sc_image`] — the Gaussian-blur → edge-detector accelerator case study,
//!   implemented on the graph engine.
//!
//! # Example
//!
//! ```
//! use sc_repro::prelude::*;
//!
//! let mut gx = DigitalToStochastic::new(VanDerCorput::new());
//! let mut gy = DigitalToStochastic::new(Halton::new(3));
//! let x = gx.generate(Probability::new(0.5)?, 256);
//! let y = gy.generate(Probability::new(0.75)?, 256);
//!
//! let mut sync = Synchronizer::new(1);
//! let (x2, y2) = sync.process(&x, &y)?;
//! assert!(scc(&x2, &y2) > 0.9);
//! # Ok::<(), sc_bitstream::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use sc_arith;
pub use sc_bitstream;
pub use sc_convert;
pub use sc_core;
pub use sc_graph;
pub use sc_hwcost;
pub use sc_image;
pub use sc_rng;
pub use sc_sim;

/// Convenience re-exports of the most commonly used items across the workspace.
pub mod prelude {
    pub use sc_arith::{
        add::{ca_add, mux_add, saturating_add},
        maxmin::{and_min, ca_max, or_max},
        multiply::and_multiply,
        subtract::xor_subtract,
    };
    pub use sc_bitstream::{scc, Bitstream, ErrorStats, JointCounts, Probability};
    pub use sc_convert::{DigitalToStochastic, Regenerator, StochasticToDigital, StreamGenerator};
    pub use sc_core::{
        ops::{desync_saturating_add, sync_max, sync_min},
        CorrelationManipulator, Decorrelator, Desynchronizer, Isolator, ManipulatorChain,
        Synchronizer, TrackingForecastMemory,
    };
    pub use sc_graph::{
        BatchInput, BinaryOp, CompiledGraph, ExecOutput, Executor, Graph, GraphError,
        ManipulatorKind, PlannerOptions, StreamJob,
    };
    pub use sc_hwcost::{characterize, Netlist, Primitive};
    pub use sc_image::{
        run_float_pipeline, run_sc_pipeline, GrayImage, PipelineConfig, PipelineVariant,
    };
    pub use sc_rng::{
        build_source_variant, CounterSource, Halton, Lfsr, RandomSource, RngKind, Sobol,
        SourceSpec, VanDerCorput,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_items_are_usable_together() {
        let mut g = StreamGenerator::of_kind_variant(RngKind::VanDerCorput, 0);
        let x = g.generate(Probability::new(0.5).unwrap(), 128);
        assert_eq!(StochasticToDigital::convert(&x).get(), x.value());
        let report = characterize::or_max();
        assert!(report.area_um2 > 0.0);
        let img = GrayImage::gradient(4, 4);
        assert_eq!(run_float_pipeline(&img).width(), 4);
    }
}
