//! Primitive component library: logic gates, multiplexers, flip-flops, a full
//! adder, an up-counter and constant drivers.

use crate::component::Component;

macro_rules! define_gate {
    ($(#[$doc:meta])* $name:ident, $inputs:literal, $label:literal, |$in:ident| $expr:expr) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
        pub struct $name;

        impl $name {
            /// Creates the gate.
            #[must_use]
            pub fn new() -> Self {
                $name
            }
        }

        impl Component for $name {
            fn name(&self) -> &str {
                $label
            }

            fn num_inputs(&self) -> usize {
                $inputs
            }

            fn num_outputs(&self) -> usize {
                1
            }

            fn evaluate(&mut self, $in: &[bool], outputs: &mut [bool]) {
                outputs[0] = $expr;
            }
        }
    };
}

define_gate!(
    /// Two-input AND gate — the SC unipolar multiplier (Fig. 1a) and, with
    /// positively correlated inputs, the SC minimum (Table I).
    AndGate, 2, "and2", |i| i[0] && i[1]
);
define_gate!(
    /// Two-input OR gate — the SC saturating adder (negatively correlated
    /// inputs, Fig. 2b) and the SC maximum (positively correlated inputs).
    OrGate, 2, "or2", |i| i[0] || i[1]
);
define_gate!(
    /// Two-input XOR gate — the SC subtractor `|pX − pY|` with positively
    /// correlated inputs (Fig. 2c).
    XorGate, 2, "xor2", |i| i[0] ^ i[1]
);
define_gate!(
    /// Two-input XNOR gate — the bipolar SC multiplier.
    XnorGate, 2, "xnor2", |i| !(i[0] ^ i[1])
);
define_gate!(
    /// Inverter — computes `1 − pX` (unipolar) or `−x` (bipolar).
    NotGate, 1, "inv", |i| !i[0]
);
define_gate!(
    /// Two-input NAND gate.
    NandGate, 2, "nand2", |i| !(i[0] && i[1])
);
define_gate!(
    /// Two-input NOR gate.
    NorGate, 2, "nor2", |i| !(i[0] || i[1])
);

/// Two-to-one multiplexer: ports are `(in0, in1, select)`; the output is
/// `in1` when `select` is 1 — the SC scaled adder of Fig. 2a when `select`
/// carries an uncorrelated 0.5-valued stream.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct Mux2;

impl Mux2 {
    /// Creates the multiplexer.
    #[must_use]
    pub fn new() -> Self {
        Mux2
    }
}

impl Component for Mux2 {
    fn name(&self) -> &str {
        "mux2"
    }

    fn num_inputs(&self) -> usize {
        3
    }

    fn num_outputs(&self) -> usize {
        1
    }

    fn evaluate(&mut self, inputs: &[bool], outputs: &mut [bool]) {
        outputs[0] = if inputs[2] { inputs[1] } else { inputs[0] };
    }
}

/// A D flip-flop: the output is the value captured at the end of the previous
/// cycle. Non-transparent, so it legally breaks feedback loops — it is also
/// the *isolator* primitive of Ting & Hayes used as a decorrelation baseline.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct DFlipFlop {
    state: bool,
}

impl DFlipFlop {
    /// Creates a flip-flop initialised to 0.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a flip-flop with an explicit power-on value.
    #[must_use]
    pub fn with_initial(initial: bool) -> Self {
        DFlipFlop { state: initial }
    }

    /// Current stored value.
    #[must_use]
    pub fn state(&self) -> bool {
        self.state
    }
}

impl Component for DFlipFlop {
    fn name(&self) -> &str {
        "dff"
    }

    fn num_inputs(&self) -> usize {
        1
    }

    fn num_outputs(&self) -> usize {
        1
    }

    fn is_transparent(&self) -> bool {
        false
    }

    fn evaluate(&mut self, _inputs: &[bool], outputs: &mut [bool]) {
        outputs[0] = self.state;
    }

    fn commit(&mut self, inputs: &[bool]) {
        self.state = inputs[0];
    }
}

/// A one-bit full adder: ports are `(a, b, carry_in)`, outputs are
/// `(sum, carry_out)`: the correlation-agnostic adder's majority/sum pair.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct FullAdder;

impl FullAdder {
    /// Creates the adder.
    #[must_use]
    pub fn new() -> Self {
        FullAdder
    }
}

impl Component for FullAdder {
    fn name(&self) -> &str {
        "fa"
    }

    fn num_inputs(&self) -> usize {
        3
    }

    fn num_outputs(&self) -> usize {
        2
    }

    fn evaluate(&mut self, inputs: &[bool], outputs: &mut [bool]) {
        let ones = inputs.iter().filter(|&&b| b).count();
        outputs[0] = ones & 1 == 1; // sum
        outputs[1] = ones >= 2; // carry
    }
}

/// A `bits`-wide up counter with a combinational increment path: the output
/// bus carries `state + enable` (LSB first), so at the final cycle of a run
/// the bus holds the total number of enabled cycles *including* the current
/// one — the S/D converter counter of Fig. 2f readable without an extra
/// drain cycle. The register commits at the end of the cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct UpCounter {
    bits: u32,
    state: u64,
}

impl UpCounter {
    /// Creates a zeroed counter with `bits` output bits (1–63).
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or greater than 63.
    #[must_use]
    pub fn new(bits: u32) -> Self {
        assert!(
            (1..=63).contains(&bits),
            "counter width {bits} outside supported range 1..=63"
        );
        UpCounter { bits, state: 0 }
    }

    /// The configured output width in bits.
    #[must_use]
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// The committed count (excluding any in-flight cycle).
    #[must_use]
    pub fn count(&self) -> u64 {
        self.state
    }
}

impl Component for UpCounter {
    fn name(&self) -> &str {
        "counter"
    }

    fn num_inputs(&self) -> usize {
        1
    }

    fn num_outputs(&self) -> usize {
        self.bits as usize
    }

    fn evaluate(&mut self, inputs: &[bool], outputs: &mut [bool]) {
        let value = (self.state + u64::from(inputs[0])) & ((1u64 << self.bits) - 1);
        for (i, out) in outputs.iter_mut().enumerate() {
            *out = (value >> i) & 1 == 1;
        }
    }

    fn commit(&mut self, inputs: &[bool]) {
        self.state = (self.state + u64::from(inputs[0])) & ((1u64 << self.bits) - 1);
    }
}

/// A constant-value source component with no inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Constant(bool);

impl Constant {
    /// Creates a constant driving the given value.
    #[must_use]
    pub fn new(value: bool) -> Self {
        Constant(value)
    }
}

impl Component for Constant {
    fn name(&self) -> &str {
        "const"
    }

    fn num_inputs(&self) -> usize {
        0
    }

    fn num_outputs(&self) -> usize {
        1
    }

    fn evaluate(&mut self, _inputs: &[bool], outputs: &mut [bool]) {
        outputs[0] = self.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eval1(c: &mut impl Component, inputs: &[bool]) -> bool {
        let mut out = vec![false; c.num_outputs()];
        c.evaluate(inputs, &mut out);
        out[0]
    }

    #[test]
    fn gate_truth_tables() {
        let cases = [(false, false), (false, true), (true, false), (true, true)];
        for (a, b) in cases {
            assert_eq!(eval1(&mut AndGate::new(), &[a, b]), a && b);
            assert_eq!(eval1(&mut OrGate::new(), &[a, b]), a || b);
            assert_eq!(eval1(&mut XorGate::new(), &[a, b]), a ^ b);
            assert_eq!(eval1(&mut XnorGate::new(), &[a, b]), !(a ^ b));
            assert_eq!(eval1(&mut NandGate::new(), &[a, b]), !(a && b));
            assert_eq!(eval1(&mut NorGate::new(), &[a, b]), !(a || b));
        }
        assert!(!eval1(&mut NotGate::new(), &[true]));
        assert!(eval1(&mut NotGate::new(), &[false]));
    }

    #[test]
    fn mux_selects() {
        let mut m = Mux2::new();
        assert!(eval1(&mut m, &[true, false, false]));
        assert!(!eval1(&mut m, &[true, false, true]));
        assert_eq!(m.num_inputs(), 3);
    }

    #[test]
    fn dff_delays_by_one_cycle() {
        let mut d = DFlipFlop::new();
        assert!(!d.is_transparent());
        let mut out = [true];
        d.evaluate(&[], &mut out);
        assert!(!out[0]); // power-on 0
        d.commit(&[true]);
        d.evaluate(&[], &mut out);
        assert!(out[0]);
        assert!(d.state());
        let d1 = DFlipFlop::with_initial(true);
        assert!(d1.state());
    }

    #[test]
    fn full_adder_truth_table() {
        let mut fa = FullAdder::new();
        for a in [false, true] {
            for b in [false, true] {
                for cin in [false, true] {
                    let mut out = [false, false];
                    fa.evaluate(&[a, b, cin], &mut out);
                    let ones = usize::from(a) + usize::from(b) + usize::from(cin);
                    assert_eq!(out[0], ones & 1 == 1, "sum for {a}{b}{cin}");
                    assert_eq!(out[1], ones >= 2, "carry for {a}{b}{cin}");
                }
            }
        }
        assert_eq!(fa.num_inputs(), 3);
        assert_eq!(fa.num_outputs(), 2);
    }

    #[test]
    fn up_counter_counts_and_wraps() {
        let mut c = UpCounter::new(2);
        assert_eq!(c.bits(), 2);
        let mut out = [false, false];
        c.evaluate(&[true], &mut out);
        assert_eq!(out, [true, false], "combinational increment visible");
        c.commit(&[true]);
        assert_eq!(c.count(), 1);
        c.commit(&[true]);
        c.commit(&[true]);
        c.commit(&[true]);
        assert_eq!(c.count(), 0, "2-bit counter wraps at 4");
        c.commit(&[true]);
    }

    #[test]
    #[should_panic(expected = "outside supported range")]
    fn zero_width_counter_panics() {
        let _ = UpCounter::new(0);
    }

    #[test]
    fn constant_drives_value() {
        assert!(eval1(&mut Constant::new(true), &[]));
        assert!(!eval1(&mut Constant::new(false), &[]));
    }
}
