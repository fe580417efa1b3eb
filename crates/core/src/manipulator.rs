//! The [`CorrelationManipulator`] trait implemented by every correlation
//! manipulating circuit in this crate, and [`DEPTH_RANGE`], the size range
//! every circuit constructor accepts.

use crate::kernel::{bit_serial_step_word, drive_step_word};
use sc_bitstream::{Bitstream, Error, Result};
use std::ops::RangeInclusive;

/// The supported size of every circuit: the save depth of a
/// [`crate::Synchronizer`] or [`crate::Desynchronizer`], the delay of an
/// [`crate::Isolator`] and the shuffle-buffer depth of a
/// [`crate::Decorrelator`]. Their constructors panic outside it, so callers
/// that take sizes from configuration check them against it first.
pub const DEPTH_RANGE: RangeInclusive<usize> = 1..=4096;

/// A circuit that transforms a pair of stochastic numbers cycle by cycle,
/// changing their mutual correlation while (ideally) preserving their values.
///
/// Implementors are Mealy machines: [`CorrelationManipulator::step`] consumes
/// one bit from each input stream and produces one bit for each output stream.
/// [`CorrelationManipulator::step_word`] runs the same FSM for up to 64
/// cycles per call on packed words, and the default
/// [`CorrelationManipulator::process`] drives whole streams through it on the
/// word-parallel engine ([`drive_step_word`]). A circuit only has to provide
/// `name`, `step` and `reset`; circuits with a faster word path override
/// `step_word`, and every entry point (direct `process`, boxed dispatch and
/// chains) then takes it.
pub trait CorrelationManipulator: Send {
    /// Short human-readable name (used in experiment tables).
    fn name(&self) -> String;

    /// Processes one clock cycle.
    fn step(&mut self, x: bool, y: bool) -> (bool, bool);

    /// Restores the power-on state.
    fn reset(&mut self);

    /// Processes up to 64 stream cycles: bit `i` of the returned pair is the
    /// output for input bits `(x >> i) & 1` / `(y >> i) & 1`, for
    /// `i < valid`.
    ///
    /// `valid` is the number of meaningful low bits in `x`/`y` (64 except
    /// possibly for the final word of a stream); bits at positions
    /// `>= valid` are zero on input and are ignored on output. The default
    /// stages the bits through [`bit_serial_step_word`], one
    /// [`CorrelationManipulator::step`] per cycle.
    fn step_word(&mut self, x: u64, y: u64, valid: u32) -> (u64, u64) {
        bit_serial_step_word(self, x, y, valid)
    }

    /// Processes two equal-length streams and returns the manipulated pair.
    ///
    /// The manipulator is *not* reset first, so chained calls continue from
    /// the current state; call [`CorrelationManipulator::reset`] explicitly
    /// when independent runs are required. The default drives
    /// [`CorrelationManipulator::step_word`] over the streams' packed words.
    ///
    /// # Errors
    ///
    /// Returns [`Error::LengthMismatch`] if the streams differ in length.
    fn process(&mut self, x: &Bitstream, y: &Bitstream) -> Result<(Bitstream, Bitstream)> {
        drive_step_word(x, y, |xw, yw, valid| self.step_word(xw, yw, valid))
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

/// Forwards every method, `process` as one whole-stream call: a boxed
/// circuit costs one dynamic dispatch per stream, not one per word.
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

    fn step_word(&mut self, x: u64, y: u64, valid: u32) -> (u64, u64) {
        self.as_mut().step_word(x, y, valid)
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
