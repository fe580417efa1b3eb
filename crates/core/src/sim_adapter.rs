//! Adapters that expose the correlation manipulating circuits as `sc-sim`
//! [`Component`]s, so the functional (bitstream-level) models can be dropped
//! into gate-level netlists and cross-checked cycle by cycle — the role the
//! paper's RTL-verified cycle-level simulator plays in §IV.A.

use crate::manipulator::CorrelationManipulator;
use sc_sim::Component;

/// Wraps any [`CorrelationManipulator`] as a two-input / two-output Mealy
/// component for the cycle-level simulator.
///
/// # Example
///
/// ```
/// use sc_core::{sim_adapter::ManipulatorComponent, Synchronizer};
/// use sc_sim::{components::OrGate, Circuit};
/// use sc_bitstream::Bitstream;
///
/// // Build the Fig. 5a synchronizer-based maximum as a gate-level netlist.
/// let mut circuit = Circuit::new();
/// let x = circuit.add_input("x");
/// let y = circuit.add_input("y");
/// let sync = circuit.add_component(
///     ManipulatorComponent::new(Synchronizer::new(1)),
///     &[x, y],
/// );
/// let z = circuit.add_component(OrGate::new(), &[sync[0], sync[1]])[0];
/// circuit.mark_output("max", z);
///
/// let sx = Bitstream::from_fn(64, |i| i % 2 == 0);       // 0.5
/// let sy = Bitstream::from_fn(64, |i| i % 4 != 3);        // 0.75
/// let out = circuit.run(&[("x", sx), ("y", sy)])?;
/// assert!((out["max"].value() - 0.75).abs() < 0.05);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct ManipulatorComponent<M> {
    inner: M,
    name: String,
}

impl<M: CorrelationManipulator> ManipulatorComponent<M> {
    /// Wraps the manipulator.
    #[must_use]
    pub fn new(inner: M) -> Self {
        let name = inner.name();
        ManipulatorComponent { inner, name }
    }

    /// Returns the wrapped manipulator.
    #[must_use]
    pub fn into_inner(self) -> M {
        self.inner
    }
}

impl<M: CorrelationManipulator> std::fmt::Debug for ManipulatorComponent<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ManipulatorComponent")
            .field("name", &self.name)
            .finish()
    }
}

impl<M: CorrelationManipulator> Component for ManipulatorComponent<M> {
    fn name(&self) -> &str {
        &self.name
    }

    fn num_inputs(&self) -> usize {
        2
    }

    fn num_outputs(&self) -> usize {
        2
    }

    fn evaluate(&mut self, inputs: &[bool], outputs: &mut [bool]) {
        let (ox, oy) = self.inner.step(inputs[0], inputs[1]);
        outputs[0] = ox;
        outputs[1] = oy;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{sync_max, sync_min};
    use crate::{Decorrelator, Desynchronizer, Synchronizer};
    use sc_bitstream::{scc, Bitstream, Probability};
    use sc_convert::DigitalToStochastic;
    use sc_rng::{Halton, VanDerCorput};
    use sc_sim::components::{AndGate, OrGate};
    use sc_sim::Circuit;

    const N: usize = 256;

    fn uncorrelated_pair() -> (Bitstream, Bitstream) {
        let mut gx = DigitalToStochastic::new(VanDerCorput::new());
        let mut gy = DigitalToStochastic::new(Halton::new(3));
        (
            gx.generate(Probability::saturating(0.5), N),
            gy.generate(Probability::saturating(0.75), N),
        )
    }

    #[test]
    fn simulated_synchronizer_matches_functional_model() {
        let (x, y) = uncorrelated_pair();
        let mut reference = Synchronizer::new(2);
        let (rx, ry) = reference.process(&x, &y).unwrap();

        let mut circuit = Circuit::new();
        let nx = circuit.add_input("x");
        let ny = circuit.add_input("y");
        let outs =
            circuit.add_component(ManipulatorComponent::new(Synchronizer::new(2)), &[nx, ny]);
        circuit.mark_output("ox", outs[0]);
        circuit.mark_output("oy", outs[1]);
        let sim = circuit.run(&[("x", x), ("y", y)]).unwrap();
        assert_eq!(sim["ox"], rx);
        assert_eq!(sim["oy"], ry);
    }

    #[test]
    fn gate_level_sync_max_matches_functional_sync_max() {
        let (x, y) = uncorrelated_pair();
        let expected = sync_max(&x, &y, 1).unwrap();

        let mut circuit = Circuit::new();
        let nx = circuit.add_input("x");
        let ny = circuit.add_input("y");
        let s = circuit.add_component(ManipulatorComponent::new(Synchronizer::new(1)), &[nx, ny]);
        let z = circuit.add_component(OrGate::new(), &[s[0], s[1]])[0];
        circuit.mark_output("max", z);
        let sim = circuit.run(&[("x", x), ("y", y)]).unwrap();
        assert_eq!(sim["max"], expected);
    }

    #[test]
    fn gate_level_sync_min_matches_functional_sync_min() {
        let (x, y) = uncorrelated_pair();
        let expected = sync_min(&x, &y, 1).unwrap();

        let mut circuit = Circuit::new();
        let nx = circuit.add_input("x");
        let ny = circuit.add_input("y");
        let s = circuit.add_component(ManipulatorComponent::new(Synchronizer::new(1)), &[nx, ny]);
        let z = circuit.add_component(AndGate::new(), &[s[0], s[1]])[0];
        circuit.mark_output("min", z);
        let sim = circuit.run(&[("x", x), ("y", y)]).unwrap();
        assert_eq!(sim["min"], expected);
    }

    #[test]
    fn simulated_desynchronizer_and_decorrelator_work_in_circuits() {
        let (x, y) = uncorrelated_pair();

        let mut circuit = Circuit::new();
        let nx = circuit.add_input("x");
        let ny = circuit.add_input("y");
        let d = circuit.add_component(ManipulatorComponent::new(Desynchronizer::new(1)), &[nx, ny]);
        circuit.mark_output("dx", d[0]);
        circuit.mark_output("dy", d[1]);
        let sim = circuit.run(&[("x", x.clone()), ("y", y.clone())]).unwrap();
        assert!(scc(&sim["dx"], &sim["dy"]) < -0.5);

        // Decorrelator on a maximally correlated pair.
        let mut shared = DigitalToStochastic::new(VanDerCorput::new());
        let (cx, cy) = shared.generate_correlated_pair(
            Probability::saturating(0.5),
            Probability::saturating(0.5),
            N,
        );
        let mut circuit = Circuit::new();
        let nx = circuit.add_input("x");
        let ny = circuit.add_input("y");
        let d = circuit.add_component(ManipulatorComponent::new(Decorrelator::new(4)), &[nx, ny]);
        circuit.mark_output("dx", d[0]);
        circuit.mark_output("dy", d[1]);
        let sim = circuit.run(&[("x", cx), ("y", cy)]).unwrap();
        assert!(scc(&sim["dx"], &sim["dy"]).abs() < 0.5);
    }

    #[test]
    fn adapter_accessors() {
        let mut adapter = ManipulatorComponent::new(Synchronizer::new(1));
        assert_eq!(adapter.num_inputs(), 2);
        assert_eq!(adapter.num_outputs(), 2);
        assert!(adapter.name().contains("synchronizer"));
        let mut out = [false, false];
        adapter.evaluate(&[true, false], &mut out);
        assert_eq!(out, [false, false], "lone 1 is saved by the FSM");
        let inner = adapter.into_inner();
        assert_eq!(inner.saved_bits(), 1, "into_inner keeps the FSM's state");
        assert!(format!("{:?}", ManipulatorComponent::new(Synchronizer::new(1))).contains("sync"));
    }
}
