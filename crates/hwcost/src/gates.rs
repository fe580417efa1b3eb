//! The abstract standard-cell / macro library.

use std::fmt;

/// A primitive cell or small macro with fixed area and power characteristics.
///
/// Areas are in µm² and powers in µW at the one switching activity the
/// library is characterised at; both are calibrated to a 65 nm-class library
/// so that the paper's Table III baselines reproduce (a 2-input gate is
/// 2.16 µm² / ~0.26 µW).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Primitive {
    /// Inverter.
    Inverter,
    /// Two-input NAND.
    Nand2,
    /// Two-input NOR.
    Nor2,
    /// Two-input AND.
    And2,
    /// Two-input OR.
    Or2,
    /// Two-input XOR.
    Xor2,
    /// Two-input XNOR.
    Xnor2,
    /// Two-to-one multiplexer.
    Mux2,
    /// D flip-flop.
    DFlipFlop,
    /// One-bit full adder.
    FullAdder,
    /// `n`-bit magnitude comparator.
    Comparator(u32),
    /// `n`-bit up (or up/down) counter, including its register.
    Counter(u32),
    /// `n`-bit register (flip-flops only).
    Register(u32),
    /// `n`-bit linear feedback shift register (register + feedback taps).
    Lfsr(u32),
    /// `n`-bit low-discrepancy sequence generator (counter + digit-reversal network).
    LowDiscrepancyGenerator(u32),
    /// `n`-bit random-access bit memory with read/write addressing (per-bit cost).
    BitMemory(u32),
}

impl Primitive {
    /// Cell area in µm².
    #[must_use]
    pub fn area_um2(&self) -> f64 {
        match *self {
            Primitive::Inverter => 0.72,
            Primitive::Nand2 | Primitive::Nor2 => 1.08,
            Primitive::And2 | Primitive::Or2 => 2.16,
            Primitive::Xor2 | Primitive::Xnor2 => 2.88,
            Primitive::Mux2 => 2.88,
            Primitive::DFlipFlop => 5.76,
            Primitive::FullAdder => 6.48,
            Primitive::Comparator(bits) => 3.0 * f64::from(bits),
            Primitive::Counter(bits) => 9.0 * f64::from(bits),
            Primitive::Register(bits) => 5.76 * f64::from(bits),
            Primitive::Lfsr(bits) => 7.0 * f64::from(bits),
            Primitive::LowDiscrepancyGenerator(bits) => 10.0 * f64::from(bits),
            Primitive::BitMemory(bits) => 2.5 * f64::from(bits),
        }
    }

    /// Dynamic power in µW.
    #[must_use]
    pub fn power_uw(&self) -> f64 {
        match *self {
            Primitive::Inverter => 0.04,
            Primitive::Nand2 | Primitive::Nor2 => 0.08,
            Primitive::And2 => 0.25,
            Primitive::Or2 => 0.26,
            Primitive::Xor2 | Primitive::Xnor2 => 0.30,
            Primitive::Mux2 => 0.30,
            Primitive::DFlipFlop => 0.80,
            Primitive::FullAdder => 0.90,
            Primitive::Comparator(bits) => 0.45 * f64::from(bits),
            Primitive::Counter(bits) => 1.60 * f64::from(bits),
            Primitive::Register(bits) => 0.80 * f64::from(bits),
            Primitive::Lfsr(bits) => 1.00 * f64::from(bits),
            Primitive::LowDiscrepancyGenerator(bits) => 1.30 * f64::from(bits),
            Primitive::BitMemory(bits) => 0.20 * f64::from(bits),
        }
    }
}

impl fmt::Display for Primitive {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Primitive::Inverter => write!(f, "INV"),
            Primitive::Nand2 => write!(f, "NAND2"),
            Primitive::Nor2 => write!(f, "NOR2"),
            Primitive::And2 => write!(f, "AND2"),
            Primitive::Or2 => write!(f, "OR2"),
            Primitive::Xor2 => write!(f, "XOR2"),
            Primitive::Xnor2 => write!(f, "XNOR2"),
            Primitive::Mux2 => write!(f, "MUX2"),
            Primitive::DFlipFlop => write!(f, "DFF"),
            Primitive::FullAdder => write!(f, "FA"),
            Primitive::Comparator(b) => write!(f, "CMP{b}"),
            Primitive::Counter(b) => write!(f, "CNT{b}"),
            Primitive::Register(b) => write!(f, "REG{b}"),
            Primitive::Lfsr(b) => write!(f, "LFSR{b}"),
            Primitive::LowDiscrepancyGenerator(b) => write!(f, "LDGEN{b}"),
            Primitive::BitMemory(b) => write!(f, "MEM{b}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn or_gate_matches_paper_calibration() {
        assert!((Primitive::Or2.area_um2() - 2.16).abs() < 1e-12);
        assert!((Primitive::Or2.power_uw() - 0.26).abs() < 1e-12);
        assert!((Primitive::And2.power_uw() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn areas_and_powers_are_positive_and_ordered() {
        let gates = [
            Primitive::Inverter,
            Primitive::Nand2,
            Primitive::And2,
            Primitive::Xor2,
            Primitive::Mux2,
            Primitive::DFlipFlop,
            Primitive::FullAdder,
            Primitive::Comparator(8),
            Primitive::Counter(8),
            Primitive::Register(8),
            Primitive::Lfsr(16),
            Primitive::LowDiscrepancyGenerator(8),
            Primitive::BitMemory(4),
        ];
        for g in gates {
            assert!(g.area_um2() > 0.0, "{g}");
            assert!(g.power_uw() > 0.0, "{g}");
        }
        assert!(Primitive::Inverter.area_um2() < Primitive::Nand2.area_um2());
        assert!(Primitive::Nand2.area_um2() < Primitive::And2.area_um2());
        assert!(Primitive::DFlipFlop.area_um2() > Primitive::Xor2.area_um2());
    }

    #[test]
    fn macro_costs_scale_with_width() {
        assert!(Primitive::Counter(16).area_um2() > Primitive::Counter(8).area_um2());
        assert!(Primitive::Comparator(16).power_uw() > Primitive::Comparator(8).power_uw());
        assert_eq!(
            Primitive::Register(8).area_um2(),
            8.0 * Primitive::DFlipFlop.area_um2()
        );
    }

    #[test]
    fn display_names() {
        assert_eq!(Primitive::Or2.to_string(), "OR2");
        assert_eq!(Primitive::Counter(8).to_string(), "CNT8");
        assert_eq!(Primitive::Lfsr(16).to_string(), "LFSR16");
    }
}
