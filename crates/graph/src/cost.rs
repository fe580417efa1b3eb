//! The `sc_graph` → `sc_hwcost` bridge: derive a gate-level area / power /
//! energy report for a compiled plan.
//!
//! Every scheduled [`Step`] of a [`CompiledGraph`] — including manipulators
//! the planner auto-inserted — maps to the netlist of the hardware block that
//! would implement it (the `sc_hwcost::characterize` library), and the plan's
//! cost is the merge of all of them. Sinks that merely observe streams in
//! software (`SinkStream`) are free; value sinks are S/D converters; probes
//! are costed as the pair of counters they would need.
//!
//! [`CompiledGraph::shared_netlist`] is the one cost model of the GB→ED
//! accelerator: Table IV's area and energy columns are the shared netlist of
//! the compiled full-size tile (`sc_image::tile_netlist`).
//!
//! The absolute numbers inherit the calibration caveats of `sc_hwcost`:
//! consume them as ratios between designs, exactly like the paper's
//! Table III / Table IV columns.

use crate::compile::{CompiledGraph, Step};
use crate::node::{BinaryOp, ManipulatorKind, UnaryFsmOp};
use sc_hwcost::{characterize, Netlist, Primitive};
use sc_rng::SourceSpec;

/// Default binary precision assumed for converters (`log2 N` for the paper's
/// `N = 256`).
pub const DEFAULT_CONVERTER_BITS: u32 = 8;

/// Netlist of the hardware source a [`SourceSpec`] describes.
#[must_use]
pub fn source_netlist(spec: &SourceSpec, converter_bits: u32) -> Netlist {
    match spec {
        SourceSpec::Lfsr { width, .. } => characterize::lfsr_rng(*width),
        SourceSpec::VanDerCorput { .. } | SourceSpec::Halton { .. } | SourceSpec::Sobol { .. } => {
            characterize::low_discrepancy_rng(converter_bits)
        }
        SourceSpec::Counter { .. } => {
            Netlist::new("counter-src").with(Primitive::Counter(converter_bits), 1)
        }
        // SourceSpec is non_exhaustive: cost any future family like the
        // low-discrepancy generators until a dedicated model exists.
        _ => characterize::low_discrepancy_rng(converter_bits),
    }
}

/// Netlist of one manipulator node.
#[must_use]
pub fn manipulator_netlist(kind: &ManipulatorKind) -> Netlist {
    match *kind {
        ManipulatorKind::Identity => Netlist::new("identity"),
        ManipulatorKind::Isolator { delay } => characterize::isolator(delay as u32),
        ManipulatorKind::Synchronizer { depth } => characterize::synchronizer(depth),
        ManipulatorKind::Desynchronizer { depth } => characterize::desynchronizer(depth),
        ManipulatorKind::Decorrelator { depth } => characterize::decorrelator(depth as u32),
    }
}

/// Netlist of one saturating-counter FSM activation.
#[must_use]
pub fn unary_fsm_netlist(op: UnaryFsmOp) -> Netlist {
    let state_bits = |states: u32| 32 - states.saturating_sub(1).leading_zeros();
    match op {
        // Saturating up/down counter plus the upper-half output comparison.
        UnaryFsmOp::Stanh { half_states } => {
            let bits = state_bits(2 * half_states).max(1);
            Netlist::new(format!("stanh-{}s", 2 * half_states))
                .with(Primitive::Counter(bits), 1)
                .with(Primitive::Comparator(bits), 1)
        }
        // As stanh, plus the mid-state toggle flip-flop.
        UnaryFsmOp::Slinear { states } => {
            let bits = state_bits(states).max(1);
            Netlist::new(format!("slinear-{states}s"))
                .with(Primitive::Counter(bits), 1)
                .with(Primitive::Comparator(bits), 1)
                .with(Primitive::DFlipFlop, 1)
        }
    }
}

/// Netlist of the feedback SC divider (excluding its comparison source):
/// integration counter, output comparator, and the feedback AND gate.
#[must_use]
pub fn divider_netlist(counter_bits: u32) -> Netlist {
    Netlist::new(format!("divider-{counter_bits}b"))
        .with(Primitive::Counter(counter_bits), 1)
        .with(Primitive::Comparator(counter_bits), 1)
        .with(Primitive::And2, 1)
}

/// Netlist of one binary arithmetic operator.
#[must_use]
pub fn binary_netlist(op: BinaryOp) -> Netlist {
    match op {
        BinaryOp::AndMultiply | BinaryOp::AndMin => {
            Netlist::new(op.to_string()).with(Primitive::And2, 1)
        }
        BinaryOp::XnorMultiply => Netlist::new(op.to_string()).with(Primitive::Xnor2, 1),
        BinaryOp::OrMax | BinaryOp::SaturatingAdd => {
            Netlist::new(op.to_string()).with(Primitive::Or2, 1)
        }
        BinaryOp::XorSubtract => characterize::xor_subtract_netlist(),
        BinaryOp::CaAdd => characterize::correlation_agnostic_adder_netlist(),
        BinaryOp::CaMax | BinaryOp::CaMin => characterize::correlation_agnostic_max_netlist(),
    }
}

/// The dedicated sample source a step draws from, if it has one.
#[must_use]
pub fn step_source(step: &Step) -> Option<&SourceSpec> {
    match step {
        Step::Generate { source, .. }
        | Step::Constant { source, .. }
        | Step::Regenerate { source, .. }
        | Step::Divide { source, .. } => Some(source),
        Step::MuxAdd { select, .. } | Step::WeightedMux { select, .. } => Some(select),
        _ => None,
    }
}

/// Netlist of one step's *logic* — everything except its sample source
/// (see [`step_source`]).
#[must_use]
pub fn step_logic_netlist(step: &Step, converter_bits: u32) -> Netlist {
    match step {
        Step::Input { .. } | Step::SinkStream { .. } => Netlist::new("wire"),
        Step::Generate { .. } | Step::Constant { .. } => characterize::ds_converter(converter_bits),
        Step::Manipulate { kind, .. } => manipulator_netlist(kind),
        Step::Regenerate { .. } => characterize::regeneration_unit(converter_bits),
        Step::Not { .. } => Netlist::new("not").with(Primitive::Inverter, 1),
        Step::Binary { op, .. } => binary_netlist(*op),
        Step::UnaryFsm { op, .. } => unary_fsm_netlist(*op),
        Step::Divide { counter_bits, .. } => divider_netlist(*counter_bits),
        Step::MuxAdd { .. } => characterize::mux_adder_netlist(),
        Step::WeightedMux { weights, .. } => Netlist::new("weighted-mux").with(
            Primitive::Mux2,
            weights.len().saturating_sub(1).max(1) as u64,
        ),
        Step::SinkValue { .. } | Step::SinkCount { .. } => {
            characterize::sd_converter(converter_bits)
        }
        // A k-lane APC: full-adder reduction tree into one wider accumulator.
        Step::SinkSum { srcs, .. } => characterize::sd_converter(converter_bits + 2)
            .with(Primitive::FullAdder, srcs.len().saturating_sub(1) as u64),
        Step::SccProbe { .. } => characterize::sd_converter(converter_bits)
            .scaled("scc-probe", 3)
            .with(Primitive::And2, 1),
    }
}

/// Netlist of one *scheduled step* of a compiled plan: its logic plus its
/// own sample source. An APC sum sink over `k` lanes includes its
/// `k − 1`-adder reduction tree.
#[must_use]
pub fn step_netlist(step: &Step, converter_bits: u32) -> Netlist {
    let mut n = step_logic_netlist(step, converter_bits);
    if let Some(spec) = step_source(step) {
        n.merge(&source_netlist(spec, converter_bits));
    }
    n
}

/// Netlist of everything a compiled plan executes, including auto-inserted
/// repair manipulators, derived from the scheduled steps (see
/// [`step_netlist`]). Every step is priced in full — each source-drawing
/// step carries its own generator, the paper's per-converter baseline.
#[must_use]
pub fn compiled_netlist(plan: &CompiledGraph, name: &str, converter_bits: u32) -> Netlist {
    let mut total = Netlist::new(name);
    for step in plan.steps() {
        total.merge(&step_netlist(step, converter_bits));
    }
    total
}

/// [`compiled_netlist`] under the shared-RNG hardware model of §II.B: every
/// step's logic is priced in full, but each distinct [`SourceSpec`] is priced
/// **once** — exactly one physical sample generator per spec, whose
/// consumers read consecutive `skip` ranges of its one sample sequence.
#[must_use]
pub fn compiled_netlist_shared(plan: &CompiledGraph, name: &str, converter_bits: u32) -> Netlist {
    let mut total = Netlist::new(name);
    let mut seen = std::collections::HashSet::new();
    for step in plan.steps() {
        total.merge(&step_logic_netlist(step, converter_bits));
        if let Some(spec) = step_source(step) {
            if seen.insert(spec) {
                total.merge(&source_netlist(spec, converter_bits));
            }
        }
    }
    total
}

impl CompiledGraph {
    /// The plan's hardware netlist at the default converter precision
    /// (see [`compiled_netlist`]).
    #[must_use]
    pub fn netlist(&self, name: &str) -> Netlist {
        compiled_netlist(self, name, DEFAULT_CONVERTER_BITS)
    }

    /// The plan's netlist with one physical generator per distinct source
    /// spec, at the default converter precision (see
    /// [`compiled_netlist_shared`]).
    #[must_use]
    pub fn shared_netlist(&self, name: &str) -> Netlist {
        compiled_netlist_shared(self, name, DEFAULT_CONVERTER_BITS)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BinaryOp, Graph, PlannerOptions};
    use sc_rng::SourceSpec;

    /// Satellite acceptance check: a 2-op graph's bridged netlist equals the
    /// hand-computed sum of the `sc_hwcost` blocks it is made of.
    #[test]
    fn two_op_graph_matches_hand_computed_hwcost() {
        let mut g = Graph::new();
        let x = g.generate(0, SourceSpec::Sobol { dimension: 1 });
        let y = g.generate(1, SourceSpec::Halton { base: 3, offset: 0 });
        let p = g.binary(BinaryOp::AndMultiply, x, y); // op 1: AND multiply
        let q = g.binary(BinaryOp::CaAdd, p, x); // op 2: CA adder
        g.sink_value("q", q);
        let plan = g.compile(&PlannerOptions::default()).unwrap();
        // and_multiply sees (generated, generated-from-different-spec) =
        // Uncorrelated: satisfied, nothing inserted. ca_add is agnostic.
        assert!(plan.report().inserted.is_empty());

        let bridged = plan.netlist("two-op");

        // Hand-computed from the sc_hwcost characterisation library:
        // 2 × (D/S converter + low-discrepancy source) feeding one AND gate
        // and one CA adder, drained by one S/D converter.
        let mut expected = Netlist::new("expected");
        expected.merge(&characterize::ds_converter(8));
        expected.merge(&characterize::low_discrepancy_rng(8));
        expected.merge(&characterize::ds_converter(8));
        expected.merge(&characterize::low_discrepancy_rng(8));
        expected.merge(&Netlist::new("and").with(Primitive::And2, 1));
        expected.merge(&characterize::correlation_agnostic_adder_netlist());
        expected.merge(&characterize::sd_converter(8));

        assert!((bridged.area_um2() - expected.area_um2()).abs() < 1e-9);
        assert!((bridged.power_uw() - expected.power_uw()).abs() < 1e-9);
        assert_eq!(bridged.cell_count(), expected.cell_count());
        // And against fully hand-expanded numbers, so a characterisation
        // regression cannot silently cancel out:
        // D/S = CMP8 (24.0) + REG8 (46.08); LD-RNG8 = 80.0; AND2 = 2.16;
        // CA adder = FA (6.48) + REG2 (11.52) + 2×INV (1.44); S/D = CNT8 (72.0).
        let hand = 2.0 * (24.0 + 46.08 + 80.0) + 2.16 + (6.48 + 11.52 + 1.44) + 72.0;
        assert!(
            (bridged.area_um2() - hand).abs() < 1e-9,
            "bridged {} vs hand {hand}",
            bridged.area_um2()
        );
    }

    #[test]
    fn inserted_repairs_are_costed() {
        let build = |options: &PlannerOptions| {
            let mut g = Graph::new();
            let x = g.generate(0, SourceSpec::Sobol { dimension: 1 });
            let y = g.generate(1, SourceSpec::Sobol { dimension: 2 });
            let z = g.binary(BinaryOp::XorSubtract, x, y);
            g.sink_value("z", z);
            g.compile(options).unwrap()
        };
        let without = build(&PlannerOptions::no_repair()).netlist("no-repair");
        let with = build(&PlannerOptions::default()).netlist("repaired");
        let sync = characterize::synchronizer(1);
        assert!(
            (with.area_um2() - without.area_um2() - sync.area_um2()).abs() < 1e-9,
            "repair cost should be exactly one synchronizer"
        );
    }

    #[test]
    fn source_netlists_cover_families() {
        assert!(source_netlist(&SourceSpec::Lfsr { width: 16, seed: 1 }, 8).area_um2() > 0.0);
        assert!(source_netlist(&SourceSpec::VanDerCorput { offset: 0 }, 8).area_um2() > 0.0);
        assert!(
            source_netlist(
                &SourceSpec::Counter {
                    modulus: 256,
                    phase: 0
                },
                8
            )
            .area_um2()
                > 0.0
        );
    }

    #[test]
    fn binary_netlists_match_characterization() {
        assert!(
            (binary_netlist(BinaryOp::OrMax).area_um2()
                - characterize::or_max_netlist().area_um2())
            .abs()
                < 1e-12
        );
        assert!(
            (binary_netlist(BinaryOp::CaMax).area_um2()
                - characterize::correlation_agnostic_max_netlist().area_um2())
            .abs()
                < 1e-12
        );
        assert!(
            binary_netlist(BinaryOp::CaAdd).area_um2()
                > binary_netlist(BinaryOp::AndMin).area_um2()
        );
    }

    /// The shared-source view prices each distinct spec once, so a plan
    /// drawing twice from one spec costs one generator less than the
    /// per-step view — and never more.
    #[test]
    fn shared_netlist_prices_each_source_once() {
        let mut g = Graph::new();
        let x = g.generate(0, SourceSpec::Sobol { dimension: 1 });
        let y = g.generate(1, SourceSpec::Sobol { dimension: 1 }); // same spec
        let z = g.binary(BinaryOp::OrMax, x, y); // Positive: satisfied
        g.sink_value("z", z);
        let plan = g.compile(&PlannerOptions::default()).unwrap();
        let per_step = plan.netlist("per-step");
        let shared = plan.shared_netlist("shared");
        let rng = characterize::low_discrepancy_rng(8);
        assert!(
            (per_step.area_um2() - shared.area_um2() - rng.area_um2()).abs() < 1e-9,
            "sharing should save exactly one generator: per-step {} shared {}",
            per_step.area_um2(),
            shared.area_um2()
        );
    }

    #[test]
    fn identity_and_wires_are_free() {
        assert_eq!(
            manipulator_netlist(&ManipulatorKind::Identity).cell_count(),
            0
        );
        assert_eq!(
            step_netlist(&Step::Not { src: 0, dst: 1 }, 8).cell_count(),
            1
        );
        assert_eq!(
            step_netlist(
                &Step::SinkStream {
                    name: "s".into(),
                    src: 0
                },
                8
            )
            .cell_count(),
            0
        );
    }
}
