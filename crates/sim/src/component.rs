//! The [`Component`] trait: the unit of structure in a simulated circuit.

/// A hardware component evaluated once per clock cycle.
///
/// Components fall into two classes:
///
/// * **transparent** components (gates, multiplexers, Mealy state machines):
///   their outputs for the current cycle depend on the current-cycle inputs
///   (and possibly internal state);
/// * **non-transparent** components (D flip-flops, Moore machines): their
///   outputs depend only on internal state, which makes them legal points to
///   break feedback loops.
///
/// The simulator calls [`Component::evaluate`] for every component each cycle
/// (non-transparent components first, then transparent components in
/// topological order) and then [`Component::commit`] for every component with
/// the final input values of the cycle so sequential state can advance.
pub trait Component: Send {
    /// Short human-readable name used in error messages.
    fn name(&self) -> &str;

    /// Number of input ports.
    fn num_inputs(&self) -> usize;

    /// Number of output ports.
    fn num_outputs(&self) -> usize;

    /// Whether the outputs combinationally depend on the current-cycle inputs.
    fn is_transparent(&self) -> bool {
        true
    }

    /// Computes this cycle's outputs.
    ///
    /// For non-transparent components the `inputs` slice contents are
    /// unspecified and must be ignored.
    fn evaluate(&mut self, inputs: &[bool], outputs: &mut [bool]);

    /// Commits end-of-cycle state given the settled input values.
    ///
    /// The default implementation does nothing (purely combinational logic).
    fn commit(&mut self, inputs: &[bool]) {
        let _ = inputs;
    }
}

impl Component for Box<dyn Component> {
    fn name(&self) -> &str {
        self.as_ref().name()
    }

    fn num_inputs(&self) -> usize {
        self.as_ref().num_inputs()
    }

    fn num_outputs(&self) -> usize {
        self.as_ref().num_outputs()
    }

    fn is_transparent(&self) -> bool {
        self.as_ref().is_transparent()
    }

    fn evaluate(&mut self, inputs: &[bool], outputs: &mut [bool]) {
        self.as_mut().evaluate(inputs, outputs);
    }

    fn commit(&mut self, inputs: &[bool]) {
        self.as_mut().commit(inputs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Buf;

    impl Component for Buf {
        fn name(&self) -> &str {
            "buf"
        }
        fn num_inputs(&self) -> usize {
            1
        }
        fn num_outputs(&self) -> usize {
            1
        }
        fn evaluate(&mut self, inputs: &[bool], outputs: &mut [bool]) {
            outputs[0] = inputs[0];
        }
    }

    #[test]
    fn boxed_component_forwards() {
        let mut b: Box<dyn Component> = Box::new(Buf);
        assert_eq!(b.name(), "buf");
        assert_eq!(b.num_inputs(), 1);
        assert_eq!(b.num_outputs(), 1);
        assert!(b.is_transparent());
        let mut out = [false];
        b.evaluate(&[true], &mut out);
        assert!(out[0]);
        b.commit(&[true]);
    }
}
