//! Netlists and cost reports for every design evaluated in the paper.
//!
//! Each function returns either a [`Netlist`] (when the design is composed
//! into larger systems, e.g. by the image-processing accelerator) or a
//! [`CostReport`] for the standard 256-cycle operation of Table III.

use crate::gates::Primitive;
use crate::netlist::Netlist;
use crate::report::CostReport;

/// Stream length used for the per-operation energy numbers of Table III.
pub const TABLE3_CYCLES: u64 = 256;

/// Number of FSM state bits needed to hold `2·depth + 1` synchronizer states.
fn fsm_state_bits(depth: u32) -> u32 {
    let states = 2 * depth + 1;
    32 - (states - 1).leading_zeros()
}

/// Netlist of a save-depth-`depth` synchronizer FSM (Fig. 3a).
#[must_use]
pub fn synchronizer(depth: u32) -> Netlist {
    let s = fsm_state_bits(depth).max(2);
    Netlist::new(format!("synchronizer-d{depth}"))
        .with(Primitive::DFlipFlop, u64::from(s))
        .with(Primitive::Nand2, u64::from(10 * s + 4))
        .with(Primitive::Inverter, u64::from(2 * s))
        .with(Primitive::Or2, 2)
}

/// Netlist of a save-depth-`depth` desynchronizer FSM (Fig. 3b).
#[must_use]
pub fn desynchronizer(depth: u32) -> Netlist {
    let s = fsm_state_bits(depth).max(2);
    Netlist::new(format!("desynchronizer-d{depth}"))
        .with(Primitive::DFlipFlop, u64::from(s))
        .with(Primitive::Nand2, u64::from(10 * s + 6))
        .with(Primitive::Inverter, u64::from(2 * s))
        .with(Primitive::Or2, 2)
}

/// Netlist of one shuffle buffer of the given depth (Fig. 4b), excluding the
/// auxiliary RNG (which is typically shared and amortised).
#[must_use]
pub fn shuffle_buffer(depth: u32) -> Netlist {
    Netlist::new(format!("shuffle-buffer-d{depth}"))
        .with(Primitive::BitMemory(depth), 1)
        .with(Primitive::Nand2, u64::from(depth))
        .with(Primitive::Mux2, u64::from(depth.saturating_sub(1).max(1)))
}

/// Netlist of a decorrelator (two shuffle buffers, Fig. 4a).
#[must_use]
pub fn decorrelator(depth: u32) -> Netlist {
    let mut n = Netlist::new(format!("decorrelator-d{depth}"));
    n.merge(&shuffle_buffer(depth));
    n.merge(&shuffle_buffer(depth));
    n
}

/// Netlist of a `k`-stage isolator chain (one flip-flop per stage).
#[must_use]
pub fn isolator(stages: u32) -> Netlist {
    Netlist::new(format!("isolator-k{stages}")).with(Primitive::DFlipFlop, u64::from(stages))
}

/// Netlist of a tracking forecast memory (per operand).
#[must_use]
pub fn tracking_forecast_memory() -> Netlist {
    Netlist::new("tfm")
        .with(Primitive::Register(8), 1)
        .with(Primitive::FullAdder, 4)
        .with(Primitive::Comparator(8), 1)
}

/// Netlist of the OR-gate maximum (Table III "OR Max.").
#[must_use]
pub fn or_max_netlist() -> Netlist {
    Netlist::new("or-max").with(Primitive::Or2, 1)
}

/// Netlist of the AND-gate minimum (Table III "AND Min.").
#[must_use]
pub fn and_min_netlist() -> Netlist {
    Netlist::new("and-min").with(Primitive::And2, 1)
}

/// Netlist of the synchronizer-based maximum (Fig. 5a).
#[must_use]
pub fn synchronizer_max_netlist(depth: u32) -> Netlist {
    let mut n = Netlist::new(format!("sync-max-d{depth}"));
    n.merge(&synchronizer(depth));
    n.add(Primitive::Or2, 1);
    n
}

/// Netlist of the synchronizer-based minimum (Fig. 5b).
#[must_use]
pub fn synchronizer_min_netlist(depth: u32) -> Netlist {
    let mut n = Netlist::new(format!("sync-min-d{depth}"));
    n.merge(&synchronizer(depth));
    n.add(Primitive::And2, 1);
    n
}

/// Netlist of the desynchronizer-based saturating adder (Fig. 5c).
#[must_use]
pub fn desynchronizer_saturating_adder_netlist(depth: u32) -> Netlist {
    let mut n = Netlist::new(format!("desync-satadd-d{depth}"));
    n.merge(&desynchronizer(depth));
    n.add(Primitive::Or2, 1);
    n
}

/// Netlist of the correlation-agnostic maximum of SC-DCNN (reference \[12\]):
/// two activity counters, a comparator, an output register and selection logic.
#[must_use]
pub fn correlation_agnostic_max_netlist() -> Netlist {
    Netlist::new("ca-max")
        .with(Primitive::Counter(8), 2)
        .with(Primitive::Comparator(8), 1)
        .with(Primitive::Register(8), 1)
        .with(Primitive::Nand2, 8)
        .with(Primitive::Mux2, 1)
}

/// Netlist of the MUX-based scaled adder (Fig. 2a), excluding the select RNG.
#[must_use]
pub fn mux_adder_netlist() -> Netlist {
    Netlist::new("mux-adder").with(Primitive::Mux2, 1)
}

/// Netlist of the correlation-agnostic adder of reference \[9\]
/// (parallel counter plus carry state).
#[must_use]
pub fn correlation_agnostic_adder_netlist() -> Netlist {
    Netlist::new("ca-adder")
        .with(Primitive::FullAdder, 1)
        .with(Primitive::Register(2), 1)
        .with(Primitive::Inverter, 2)
}

/// Netlist of the XOR subtractor (Fig. 2c).
#[must_use]
pub fn xor_subtract_netlist() -> Netlist {
    Netlist::new("xor-subtract").with(Primitive::Xor2, 1)
}

/// Netlist of an `bits`-bit stochastic-to-digital converter (Fig. 2f).
#[must_use]
pub fn sd_converter(bits: u32) -> Netlist {
    Netlist::new(format!("sd-converter-{bits}b")).with(Primitive::Counter(bits), 1)
}

/// Netlist of an `bits`-bit digital-to-stochastic converter (Fig. 2g),
/// excluding the RNG (counted separately so it can be shared).
#[must_use]
pub fn ds_converter(bits: u32) -> Netlist {
    Netlist::new(format!("ds-converter-{bits}b"))
        .with(Primitive::Comparator(bits), 1)
        .with(Primitive::Register(bits), 1)
}

/// Netlist of an `bits`-bit LFSR random number generator.
#[must_use]
pub fn lfsr_rng(bits: u32) -> Netlist {
    Netlist::new(format!("lfsr-{bits}b")).with(Primitive::Lfsr(bits), 1)
}

/// Netlist of an `bits`-bit low-discrepancy sequence generator (VDC/Halton/Sobol).
#[must_use]
pub fn low_discrepancy_rng(bits: u32) -> Netlist {
    Netlist::new(format!("ld-gen-{bits}b")).with(Primitive::LowDiscrepancyGenerator(bits), 1)
}

/// Netlist of one regeneration unit: an S/D converter feeding a D/S converter
/// (§II.B), excluding the shared RNG.
#[must_use]
pub fn regeneration_unit(bits: u32) -> Netlist {
    let mut n = Netlist::new(format!("regeneration-{bits}b"));
    n.merge(&sd_converter(bits));
    n.merge(&ds_converter(bits));
    n
}

/// Cost report of the OR maximum (Table III row 1).
#[must_use]
pub fn or_max() -> CostReport {
    or_max_netlist().report(TABLE3_CYCLES)
}

/// Cost report of the correlation-agnostic maximum (Table III row 2).
#[must_use]
pub fn correlation_agnostic_max() -> CostReport {
    correlation_agnostic_max_netlist().report(TABLE3_CYCLES)
}

/// Cost report of the synchronizer-based maximum (Table III row 3).
#[must_use]
pub fn synchronizer_max(depth: u32) -> CostReport {
    synchronizer_max_netlist(depth).report(TABLE3_CYCLES)
}

/// Cost report of the AND minimum (Table III row 4).
#[must_use]
pub fn and_min() -> CostReport {
    and_min_netlist().report(TABLE3_CYCLES)
}

/// Cost report of the synchronizer-based minimum (Table III row 5).
#[must_use]
pub fn synchronizer_min(depth: u32) -> CostReport {
    synchronizer_min_netlist(depth).report(TABLE3_CYCLES)
}

/// Cost report of the MUX adder (for the §II.B adder-overhead comparison).
#[must_use]
pub fn mux_adder() -> CostReport {
    mux_adder_netlist().report(TABLE3_CYCLES)
}

/// Cost report of the correlation-agnostic adder of reference \[9\].
#[must_use]
pub fn correlation_agnostic_adder() -> CostReport {
    correlation_agnostic_adder_netlist().report(TABLE3_CYCLES)
}

/// All five Table III hardware rows, in the paper's order.
#[must_use]
pub fn table3_reports(depth: u32) -> Vec<CostReport> {
    vec![
        or_max(),
        correlation_agnostic_max(),
        synchronizer_max(depth),
        and_min(),
        synchronizer_min(depth),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fsm_state_bits_formula() {
        assert_eq!(fsm_state_bits(1), 2); // 3 states
        assert_eq!(fsm_state_bits(2), 3); // 5 states
        assert_eq!(fsm_state_bits(4), 4); // 9 states
        assert_eq!(fsm_state_bits(8), 5); // 17 states
    }

    #[test]
    fn or_max_matches_paper_row() {
        let r = or_max();
        assert!((r.area_um2 - 2.16).abs() < 1e-9);
        assert!((r.power_uw - 0.26).abs() < 1e-9);
        assert!((r.energy_pj - 165.0).abs() < 5.0);
    }

    #[test]
    fn and_min_matches_paper_row() {
        let r = and_min();
        assert!((r.area_um2 - 2.16).abs() < 1e-9);
        assert!((r.power_uw - 0.25).abs() < 1e-9);
        assert!((r.energy_pj - 158.0).abs() < 5.0);
    }

    #[test]
    fn table3_shape_sync_max_between_or_and_ca() {
        // The headline hardware claim: the synchronizer max is much bigger
        // than a bare OR gate but several times smaller and more energy
        // efficient than the correlation-agnostic max (paper: 5.2x / 11.6x).
        let or = or_max();
        let sync = synchronizer_max(1);
        let ca = correlation_agnostic_max();
        assert!(sync.area_um2 > 10.0 * or.area_um2);
        assert!(sync.area_um2 < 80.0, "sync area {}", sync.area_um2);
        let rel = sync.relative_to(&ca);
        assert!(
            rel.area_ratio > 3.5 && rel.area_ratio < 8.0,
            "area ratio {}",
            rel.area_ratio
        );
        assert!(rel.energy_ratio > 5.0, "energy ratio {}", rel.energy_ratio);
    }

    #[test]
    fn table3_sync_min_similar_to_sync_max() {
        let mx = synchronizer_max(1);
        let mn = synchronizer_min(1);
        assert!((mx.area_um2 - mn.area_um2).abs() < 1.0);
    }

    #[test]
    fn ca_adder_overhead_matches_section2_claim() {
        // §II.B: the correlation-agnostic adder is 5.6x larger and 10.7x more
        // power hungry than the MUX adder; our model reproduces the order.
        let mux = mux_adder();
        let ca = correlation_agnostic_adder();
        let area_ratio = ca.area_um2 / mux.area_um2;
        let power_ratio = ca.power_uw / mux.power_uw;
        assert!(
            area_ratio > 4.0 && area_ratio < 9.0,
            "area ratio {area_ratio}"
        );
        assert!(
            power_ratio > 5.0 && power_ratio < 14.0,
            "power ratio {power_ratio}"
        );
    }

    #[test]
    fn deeper_synchronizers_cost_more() {
        let d1 = synchronizer(1);
        let d4 = synchronizer(4);
        let d16 = synchronizer(16);
        assert!(d1.area_um2() < d4.area_um2());
        assert!(d4.area_um2() < d16.area_um2());
        assert!(d1.power_uw() < d16.power_uw());
    }

    #[test]
    fn converters_dominate_arithmetic_gates() {
        // The economic argument for correlation manipulation: converters and
        // RNGs are one to two orders of magnitude larger than SC arithmetic.
        let and_gate = and_min_netlist();
        for big in [
            sd_converter(8),
            ds_converter(8),
            lfsr_rng(16),
            low_discrepancy_rng(8),
        ] {
            assert!(
                big.area_um2() > 20.0 * and_gate.area_um2(),
                "{} should dwarf an AND gate",
                big.name()
            );
        }
    }

    #[test]
    fn regeneration_costs_more_than_synchronizer_pair() {
        // Table IV's energy argument, at the unit level: one regeneration unit
        // costs more than the two synchronizers that replace it.
        let regen = regeneration_unit(8);
        let two_syncs = synchronizer(1).scaled("2x-sync", 2);
        assert!(regen.area_um2() > two_syncs.area_um2() * 0.9);
        assert!(regen.power_uw() > two_syncs.power_uw());
    }

    #[test]
    fn decorrelator_and_baselines() {
        let deco = decorrelator(4);
        let iso = isolator(1);
        let tfm = tracking_forecast_memory();
        assert!(deco.area_um2() > iso.area_um2());
        assert!(
            tfm.area_um2() > deco.area_um2(),
            "TFMs are larger (partly binary)"
        );
        assert!(shuffle_buffer(8).area_um2() > shuffle_buffer(2).area_um2());
    }

    #[test]
    fn table3_reports_has_five_rows() {
        let rows = table3_reports(1);
        assert_eq!(rows.len(), 5);
        assert!(rows[0].design.contains("or-max"));
        assert!(rows[2].design.contains("sync-max"));
    }

    #[test]
    fn desync_satadd_netlist_contains_fsm_and_or() {
        let n = desynchronizer_saturating_adder_netlist(1);
        assert!(n.area_um2() > desynchronizer(1).area_um2());
    }
}
