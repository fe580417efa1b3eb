//! The [`CorrelationManipulator`] trait implemented by every correlation
//! manipulating circuit in this crate.

use crate::kernel::{bit_serial_step_word, StreamKernel};
use sc_bitstream::{Bitstream, Error, Result};

/// A circuit that transforms a pair of stochastic numbers cycle by cycle,
/// changing their mutual correlation while (ideally) preserving their values.
///
/// Implementors are Mealy machines: [`CorrelationManipulator::step`] consumes
/// one bit from each input stream and produces one bit for each output stream.
/// The default [`CorrelationManipulator::process`] drives the FSM over two
/// whole streams on the word-parallel engine: input bits are staged through
/// register-resident `u64` words (64 stream bits per load/store) instead of
/// per-bit stream indexing. Circuits with genuinely word-level semantics
/// additionally implement [`StreamKernel`] with a true 64-bits-per-operation
/// fast path and route `process` through it.
pub trait CorrelationManipulator: Send {
    /// Short human-readable name (used in experiment tables).
    fn name(&self) -> String;

    /// Processes one clock cycle.
    fn step(&mut self, x: bool, y: bool) -> (bool, bool);

    /// Restores the power-on state.
    fn reset(&mut self);

    /// Processes two equal-length streams and returns the manipulated pair.
    ///
    /// The manipulator is *not* reset first, so chained calls continue from
    /// the current state; call [`CorrelationManipulator::reset`] explicitly
    /// when independent runs are required.
    ///
    /// The default drives the engine loop through
    /// [`CorrelationManipulator::step_word_dyn`], so a circuit that
    /// overrides that one hook gets its word-level fast path on every entry
    /// point — direct `process`, boxed dispatch, and fused chains — at once.
    ///
    /// # Errors
    ///
    /// Returns [`Error::LengthMismatch`] if the streams differ in length.
    fn process(&mut self, x: &Bitstream, y: &Bitstream) -> Result<(Bitstream, Bitstream)> {
        crate::kernel::drive_step_word(x, y, |xw, yw, valid| self.step_word_dyn(xw, yw, valid))
    }

    /// Word-level stepping through dynamic dispatch: the hook that lets the
    /// default [`CorrelationManipulator::process`] and a
    /// `Box<dyn CorrelationManipulator>` reach a concrete circuit's
    /// [`StreamKernel::step_word`] fast path (object safety prevents the
    /// blanket box impl from seeing it directly). The default stages the bits
    /// through [`bit_serial_step_word`]; circuits with a faster word path —
    /// the speculative-table FSMs, the shift-register and shuffle-buffer
    /// circuits — override it to delegate to their [`StreamKernel`]
    /// implementation.
    fn step_word_dyn(&mut self, x: u64, y: u64, valid: u32) -> (u64, u64) {
        bit_serial_step_word(self, x, y, valid)
    }

    /// The original one-bit-per-cycle `process` formulation, retained as the
    /// executable specification the word-parallel paths are verified against.
    ///
    /// # Errors
    ///
    /// Returns [`Error::LengthMismatch`] if the streams differ in length.
    fn process_bit_serial(
        &mut self,
        x: &Bitstream,
        y: &Bitstream,
    ) -> Result<(Bitstream, Bitstream)> {
        if x.len() != y.len() {
            return Err(Error::LengthMismatch {
                left: x.len(),
                right: y.len(),
            });
        }
        let mut out_x = Bitstream::zeros(x.len());
        let mut out_y = Bitstream::zeros(y.len());
        for i in 0..x.len() {
            let (bx, by) = self.step(x.bit(i), y.bit(i));
            out_x.set(i, bx);
            out_y.set(i, by);
        }
        Ok((out_x, out_y))
    }
}

impl CorrelationManipulator for Box<dyn CorrelationManipulator> {
    fn name(&self) -> String {
        self.as_ref().name()
    }

    fn step(&mut self, x: bool, y: bool) -> (bool, bool) {
        self.as_mut().step(x, y)
    }

    fn reset(&mut self) {
        self.as_mut().reset();
    }

    fn process(&mut self, x: &Bitstream, y: &Bitstream) -> Result<(Bitstream, Bitstream)> {
        self.as_mut().process(x, y)
    }

    fn step_word_dyn(&mut self, x: u64, y: u64, valid: u32) -> (u64, u64) {
        self.as_mut().step_word_dyn(x, y, valid)
    }
}

impl StreamKernel for Box<dyn CorrelationManipulator> {
    fn step_word(&mut self, x: u64, y: u64, valid: u32) -> (u64, u64) {
        self.as_mut().step_word_dyn(x, y, valid)
    }
}

/// The identity manipulator: passes both streams through unchanged. Useful as
/// the "no manipulation" arm of experiments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct Identity;

impl Identity {
    /// Creates the identity manipulator.
    #[must_use]
    pub fn new() -> Self {
        Identity
    }
}

impl CorrelationManipulator for Identity {
    fn name(&self) -> String {
        "identity".to_string()
    }

    fn step(&mut self, x: bool, y: bool) -> (bool, bool) {
        (x, y)
    }

    fn reset(&mut self) {}

    fn process(&mut self, x: &Bitstream, y: &Bitstream) -> Result<(Bitstream, Bitstream)> {
        if x.len() != y.len() {
            return Err(Error::LengthMismatch {
                left: x.len(),
                right: y.len(),
            });
        }
        Ok((x.clone(), y.clone()))
    }

    fn step_word_dyn(&mut self, x: u64, y: u64, valid: u32) -> (u64, u64) {
        StreamKernel::step_word(self, x, y, valid)
    }
}

impl StreamKernel for Identity {
    fn step_word(&mut self, x: u64, y: u64, _valid: u32) -> (u64, u64) {
        (x, y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_passes_streams_through() {
        let x = Bitstream::parse("10110010").unwrap();
        let y = Bitstream::parse("01011101").unwrap();
        let mut id = Identity::new();
        let (ox, oy) = id.process(&x, &y).unwrap();
        assert_eq!(ox, x);
        assert_eq!(oy, y);
        assert_eq!(id.name(), "identity");
        id.reset();
    }

    #[test]
    fn process_rejects_length_mismatch() {
        let mut id = Identity::new();
        let err = id
            .process(&Bitstream::zeros(4), &Bitstream::zeros(5))
            .unwrap_err();
        assert!(matches!(err, Error::LengthMismatch { .. }));
    }

    #[test]
    fn boxed_manipulator_forwards() {
        let mut boxed: Box<dyn CorrelationManipulator> = Box::new(Identity::new());
        assert_eq!(boxed.name(), "identity");
        assert_eq!(boxed.step(true, false), (true, false));
        boxed.reset();
        let x = Bitstream::parse("01").unwrap();
        let (ox, _) = boxed.process(&x, &x).unwrap();
        assert_eq!(ox, x);
    }
}
