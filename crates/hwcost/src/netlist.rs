//! Netlists: named bags of primitives that can be costed and composed.

use crate::gates::Primitive;
use crate::report::CostReport;
use std::collections::BTreeMap;
use std::fmt;

/// A design described as a multiset of primitives.
///
/// Netlists compose: a tile-level accelerator netlist is the sum of its
/// kernel netlists plus converters and generators, scaled by instance counts.
///
/// # Example
///
/// ```
/// use sc_hwcost::{Netlist, Primitive};
///
/// let mut sc_multiplier = Netlist::new("sc-multiplier");
/// sc_multiplier.add(Primitive::And2, 1);
/// assert_eq!(sc_multiplier.area_um2(), 2.16);
///
/// // A 3x3 multiplier array.
/// let array = sc_multiplier.scaled("multiplier-array", 9);
/// assert!((array.area_um2() - 9.0 * 2.16).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Netlist {
    name: String,
    cells: BTreeMap<String, (Primitive, u64)>,
}

impl Netlist {
    /// Creates an empty netlist with the given design name.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Netlist {
            name: name.into(),
            cells: BTreeMap::new(),
        }
    }

    /// The design name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds `count` instances of a primitive.
    pub fn add(&mut self, primitive: Primitive, count: u64) {
        if count == 0 {
            return;
        }
        let entry = self
            .cells
            .entry(primitive.to_string())
            .or_insert((primitive, 0));
        entry.1 += count;
    }

    /// Builder-style variant of [`Netlist::add`].
    #[must_use]
    pub fn with(mut self, primitive: Primitive, count: u64) -> Self {
        self.add(primitive, count);
        self
    }

    /// Merges every cell of `other` into this netlist (`other` is unchanged).
    pub fn merge(&mut self, other: &Netlist) {
        for &(primitive, count) in other.cells.values() {
            self.add(primitive, count);
        }
    }

    /// Returns a new netlist containing `copies` instances of this design.
    #[must_use]
    pub fn scaled(&self, name: impl Into<String>, copies: u64) -> Netlist {
        let mut out = Netlist::new(name);
        for &(primitive, count) in self.cells.values() {
            out.add(primitive, count * copies);
        }
        out
    }

    /// Total number of primitive instances.
    #[must_use]
    pub fn cell_count(&self) -> u64 {
        self.cells.values().map(|&(_, c)| c).sum()
    }

    /// Total area in µm².
    #[must_use]
    pub fn area_um2(&self) -> f64 {
        self.cells
            .values()
            .map(|&(p, c)| p.area_um2() * c as f64)
            .sum()
    }

    /// Total power in µW.
    #[must_use]
    pub fn power_uw(&self) -> f64 {
        self.cells
            .values()
            .map(|&(p, c)| p.power_uw() * c as f64)
            .sum()
    }

    /// Energy in pJ for an operation lasting `cycles` clock cycles of the
    /// effective cycle time ([`crate::CYCLE_TIME_NS`]).
    #[must_use]
    pub fn energy_pj(&self, cycles: u64) -> f64 {
        // µW × ns = femtojoules; divide by 1000 for picojoules.
        self.power_uw() * cycles as f64 * crate::CYCLE_TIME_NS / 1000.0
    }

    /// Summarises the netlist as a [`CostReport`] for an operation of
    /// `cycles` clock cycles.
    #[must_use]
    pub fn report(&self, cycles: u64) -> CostReport {
        CostReport {
            design: self.name.clone(),
            area_um2: self.area_um2(),
            power_uw: self.power_uw(),
            energy_pj: self.energy_pj(cycles),
        }
    }

    /// Iterates over `(primitive, count)` pairs in a stable order.
    pub fn cells(&self) -> impl Iterator<Item = (Primitive, u64)> + '_ {
        self.cells.values().copied()
    }
}

impl fmt::Display for Netlist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [", self.name)?;
        let mut first = true;
        for (p, c) in self.cells() {
            if !first {
                write!(f, ", ")?;
            }
            write!(f, "{c}x{p}")?;
            first = false;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn or_gate_energy_matches_table3() {
        // One OR gate over 256 cycles ≈ 165 pJ (Table III "OR Max.").
        let netlist = Netlist::new("or-max").with(Primitive::Or2, 1);
        let report = netlist.report(256);
        assert!((report.area_um2 - 2.16).abs() < 1e-9);
        assert!((report.power_uw - 0.26).abs() < 1e-9);
        assert!(
            (report.energy_pj - 165.0).abs() < 2.0,
            "energy {}",
            report.energy_pj
        );
    }

    #[test]
    fn add_merge_and_scale() {
        let mut a = Netlist::new("a");
        a.add(Primitive::And2, 2);
        a.add(Primitive::DFlipFlop, 1);
        a.add(Primitive::And2, 1);
        assert_eq!(a.cell_count(), 4);

        let b = Netlist::new("b").with(Primitive::Or2, 3);
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.cell_count(), 7);
        assert!((merged.area_um2() - (3.0 * 2.16 + 5.76 + 3.0 * 2.16)).abs() < 1e-9);

        let scaled = a.scaled("a-x10", 10);
        assert_eq!(scaled.cell_count(), 40);
        assert!((scaled.area_um2() - 10.0 * a.area_um2()).abs() < 1e-9);
        assert_eq!(scaled.name(), "a-x10");
    }

    #[test]
    fn zero_count_is_ignored() {
        let mut n = Netlist::new("n");
        n.add(Primitive::Or2, 0);
        assert_eq!(n.cell_count(), 0);
        assert_eq!(n.area_um2(), 0.0);
        assert_eq!(n.power_uw(), 0.0);
    }

    #[test]
    fn display_lists_cells() {
        let n = Netlist::new("demo")
            .with(Primitive::Or2, 2)
            .with(Primitive::DFlipFlop, 1);
        let s = n.to_string();
        assert!(s.contains("demo"));
        assert!(s.contains("2xOR2"));
        assert!(s.contains("1xDFF"));
    }

    proptest! {
        #[test]
        fn prop_area_additive_under_merge(c1 in 0u64..50, c2 in 0u64..50, c3 in 0u64..50) {
            let a = Netlist::new("a").with(Primitive::And2, c1).with(Primitive::DFlipFlop, c2);
            let b = Netlist::new("b").with(Primitive::Xor2, c3);
            let mut m = a.clone();
            m.merge(&b);
            prop_assert!((m.area_um2() - (a.area_um2() + b.area_um2())).abs() < 1e-9);
            prop_assert!((m.power_uw() - (a.power_uw() + b.power_uw())).abs() < 1e-9);
            prop_assert!((m.energy_pj(256) - (a.energy_pj(256) + b.energy_pj(256))).abs() < 1e-6);
        }

        #[test]
        fn prop_energy_linear_in_cycles(cycles in 1u64..10_000) {
            let n = Netlist::new("n").with(Primitive::Or2, 1);
            let e1 = n.energy_pj(cycles);
            let e2 = n.energy_pj(cycles * 2);
            prop_assert!((e2 - 2.0 * e1).abs() < 1e-6);
        }
    }
}
