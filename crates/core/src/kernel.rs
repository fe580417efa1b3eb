//! The word-parallel execution engine for correlation manipulators.
//!
//! [`CorrelationManipulator::step`] models hardware faithfully — one pair of
//! bits per clock — but executing a whole stream that way wastes the 64×
//! parallelism latent in [`Bitstream`]'s packed representation. This module
//! adds a second execution interface, [`StreamKernel::step_word`], that
//! consumes and produces 64 stream bits per call:
//!
//! * stateless or shift-register circuits ([`crate::Identity`],
//!   [`crate::Isolator`]) implement it with genuine whole-word operations;
//! * data-dependent FSMs (synchronizer, desynchronizer) keep their bit-stepped
//!   transition functions but run them on register-resident words via
//!   [`bit_serial_step_word`], avoiding per-bit stream indexing and bounds
//!   checks;
//! * [`BitSerial`] wraps *any* manipulator into a kernel, giving every
//!   circuit a word-driven execution path for free.
//!
//! [`process_with_kernel`] is the engine loop: it walks the packed words of
//! both input streams, feeds them through a kernel, and assembles the outputs
//! word by word. [`crate::ManipulatorChain`] uses the same interface to fuse
//! a whole pipeline of manipulators into a single pass per word.
//!
//! For the data-dependent FSMs whose state space is *small* — the
//! synchronizer's signed credit (`2D + 1` states) and the desynchronizer's
//! banked-bit pair — the module additionally provides **speculative multi-bit
//! stepping** ([`SpeculativeTable`]): the FSM's transition function is
//! precomputed for every `(state, input symbol)` pair at 1-, 4- and 5-cycle
//! granularity, and [`SpeculativeTable::step_word`] resolves all 64 output
//! bits of a word by table-driven state propagation (thirteen chunk lookups:
//! twelve 5-cycle chunks plus one 4-cycle chunk) instead of 64 branchy
//! per-bit transitions. Tables are built once per FSM configuration and
//! shared between instances and threads.

use crate::manipulator::CorrelationManipulator;
use sc_bitstream::{Bitstream, Error, Result, WORD_BITS};

/// A circuit that transforms streams one packed 64-bit word at a time.
///
/// `valid` is the number of meaningful low bits in `x`/`y` (always 64 except
/// possibly for the final word of a stream); bits at positions `>= valid` are
/// zero on input and are ignored on output.
pub trait StreamKernel: Send {
    /// Processes up to 64 stream cycles: bit `i` of the returned pair is the
    /// output for input bits `(x >> i) & 1` / `(y >> i) & 1`, for `i < valid`.
    fn step_word(&mut self, x: u64, y: u64, valid: u32) -> (u64, u64);
}

/// Width of the retired lane dimension, which batched four stream pairs per
/// pass.
///
/// Nothing in the workspace reads it any more: every stream pair runs solo.
/// It stays only because the benchmark crate sizes an (always-zero) lane-fill
/// histogram with it, and is retired by the next benchmark change.
pub const LANES: usize = 4;

/// Runs a manipulator's bit-stepped FSM over one register-resident word.
///
/// This is the bit-serial fallback used by FSM circuits whose transition
/// function is inherently data-dependent: the bits are staged through local
/// `u64` registers, so the per-cycle cost is two shifts and two OR-merges
/// instead of bounds-checked stream indexing.
pub fn bit_serial_step_word<M: CorrelationManipulator + ?Sized>(
    manipulator: &mut M,
    x: u64,
    y: u64,
    valid: u32,
) -> (u64, u64) {
    let (mut out_x, mut out_y) = (0u64, 0u64);
    for i in 0..valid {
        let (bx, by) = manipulator.step((x >> i) & 1 == 1, (y >> i) & 1 == 1);
        out_x |= u64::from(bx) << i;
        out_y |= u64::from(by) << i;
    }
    (out_x, out_y)
}

/// Adapter giving any [`CorrelationManipulator`] a [`StreamKernel`] view via
/// the bit-serial fallback. Used by equivalence tests and benchmarks as the
/// baseline the word-level fast paths are checked and measured against.
#[derive(Debug, Clone)]
pub struct BitSerial<M>(pub M);

impl<M: CorrelationManipulator> StreamKernel for BitSerial<M> {
    fn step_word(&mut self, x: u64, y: u64, valid: u32) -> (u64, u64) {
        bit_serial_step_word(&mut self.0, x, y, valid)
    }
}

impl<M: CorrelationManipulator> CorrelationManipulator for BitSerial<M> {
    fn name(&self) -> String {
        format!("bit-serial({})", self.0.name())
    }

    fn step(&mut self, x: bool, y: bool) -> (bool, bool) {
        self.0.step(x, y)
    }

    fn reset(&mut self) {
        self.0.reset();
    }
}

/// Drives a kernel over two equal-length streams: the word-parallel engine
/// loop behind every manipulator's `process`.
///
/// # Errors
///
/// Returns [`Error::LengthMismatch`] if the streams differ in length.
pub fn process_with_kernel<K: StreamKernel + ?Sized>(
    kernel: &mut K,
    x: &Bitstream,
    y: &Bitstream,
) -> Result<(Bitstream, Bitstream)> {
    drive_step_word(x, y, |xw, yw, valid| kernel.step_word(xw, yw, valid))
}

/// Drives an arbitrary word-level step closure over two equal-length streams:
/// the single engine loop shared by [`process_with_kernel`] and the default
/// [`CorrelationManipulator::process`].
///
/// # Errors
///
/// Returns [`Error::LengthMismatch`] if the streams differ in length.
pub fn drive_step_word<F: FnMut(u64, u64, u32) -> (u64, u64)>(
    x: &Bitstream,
    y: &Bitstream,
    mut step: F,
) -> Result<(Bitstream, Bitstream)> {
    if x.len() != y.len() {
        return Err(Error::LengthMismatch {
            left: x.len(),
            right: y.len(),
        });
    }
    let n = x.len();
    let mut out_x = Vec::with_capacity(x.as_words().len());
    let mut out_y = Vec::with_capacity(x.as_words().len());
    for (w, (xw, yw)) in x.zip_words(y).enumerate() {
        let valid = (n - w * WORD_BITS).min(WORD_BITS) as u32;
        let (ox, oy) = step(xw, yw, valid);
        out_x.push(ox);
        out_y.push(oy);
    }
    Ok((
        Bitstream::from_words(out_x, n),
        Bitstream::from_words(out_y, n),
    ))
}

/// Largest FSM state count for which speculative transition tables are built.
///
/// The 5-cycle table holds `states × 1024` entries, so this bound keeps the
/// per-configuration tables cache-resident (≤ ~320 KiB at the bound, a few
/// KiB at the depths planners actually insert), where the chunk lookups that
/// replace per-bit branching actually pay off. FSMs whose configured depth
/// exceeds the bound simply keep the exact [`bit_serial_step_word`] path.
pub const MAX_SPECULATIVE_STATES: usize = 64;

/// Precomputed speculative-stepping tables of a small-state Mealy FSM.
///
/// A table is built from the FSM's own single-cycle transition function (so
/// the speculative path is bit-identical to bit-serial stepping *by
/// construction*) and is immutable afterwards: one `Arc<SpeculativeTable>`
/// per FSM configuration is shared by every instance on every thread.
///
/// Three granularities are stored: a 1-cycle table (`states × 4` symbols)
/// for trailing cycles of a partial word, a 4-cycle table (`states × 256`
/// symbols, the low nibble of X and Y packed into one byte), and a 5-cycle
/// table (`states × 1024` symbols) so a full 64-bit word resolves in just
/// thirteen lookups — twelve 5-cycle chunks plus one 4-cycle chunk.
///
/// The tables are laid out for the shortest possible dependent chain through
/// the word walk: next-state row bases are stored in their own dense `u16`
/// array, *pre-scaled* by the symbol count, so advancing a chunk on the
/// critical path is one OR and one 2-byte load (`next_row | symbol` indexes
/// the following entry directly), while the output bits live in a parallel
/// array whose loads resolve off the chain.
#[derive(Debug, Clone)]
pub struct SpeculativeTable {
    states: usize,
    /// `state * 4 + (x | y << 1)` → `next_state * 4` (one cycle).
    step1_next: Vec<u16>,
    /// Same index → output bits: X in bit 0, Y in bit 8.
    step1_out: Vec<u16>,
    /// `state * 256 + (x_nibble | y_nibble << 4)` → `next_state * 256`
    /// (four cycles).
    step4_next: Vec<u16>,
    /// Same index → output bits: X nibble in bits 0–3, Y nibble in 8–11.
    step4_out: Vec<u16>,
    /// `state * 1024 + (x_5bits | y_5bits << 5)` → `next_state * 1024`
    /// (five cycles).
    step5_next: Vec<u16>,
    /// Same index → output bits: X chunk in bits 0–4, Y chunk in 8–12.
    step5_out: Vec<u16>,
}

impl SpeculativeTable {
    /// Builds the tables from a pure single-cycle transition function
    /// `step(state, x, y) -> (next_state, out_x, out_y)` over `states`
    /// consecutively numbered states.
    ///
    /// # Panics
    ///
    /// Panics if `states` is 0, exceeds [`MAX_SPECULATIVE_STATES`], or if
    /// `step` returns a state index `>= states`.
    #[must_use]
    pub fn build<F>(states: usize, mut step: F) -> SpeculativeTable
    where
        F: FnMut(usize, bool, bool) -> (usize, bool, bool),
    {
        assert!(
            (1..=MAX_SPECULATIVE_STATES).contains(&states),
            "speculative FSM state count {states} outside 1..={MAX_SPECULATIVE_STATES}"
        );
        let mut step1_next = Vec::with_capacity(states * 4);
        let mut step1_out = Vec::with_capacity(states * 4);
        for state in 0..states {
            for sym in 0..4u8 {
                let (next, ox, oy) = step(state, sym & 1 == 1, sym & 2 == 2);
                assert!(next < states, "transition leaves the declared state space");
                step1_next.push((next * 4) as u16);
                step1_out.push(u16::from(ox) | u16::from(oy) << 8);
            }
        }
        // The wider tables are composed from the 1-cycle table, so every
        // granularity agrees with the generating transition function.
        let compose = |cycles: usize| {
            let symbols = 1usize << cycles;
            let mut next = Vec::with_capacity(states * symbols * symbols);
            let mut outs = Vec::with_capacity(states * symbols * symbols);
            for state in 0..states {
                for sym in 0..symbols * symbols {
                    let (mut row, mut out) = (state * 4, 0u16);
                    for cycle in 0..cycles {
                        let bx = (sym >> cycle) & 1;
                        let by = (sym >> (cycles + cycle)) & 1;
                        let idx = row | bx | by << 1;
                        out |= step1_out[idx] << cycle;
                        row = step1_next[idx] as usize;
                    }
                    next.push(((row / 4) * symbols * symbols) as u16);
                    outs.push(out);
                }
            }
            (next, outs)
        };
        let (step4_next, step4_out) = compose(4);
        let (step5_next, step5_out) = compose(5);
        SpeculativeTable {
            states,
            step1_next,
            step1_out,
            step4_next,
            step4_out,
            step5_next,
            step5_out,
        }
    }

    /// Number of FSM states the tables cover.
    #[must_use]
    pub fn states(&self) -> usize {
        self.states
    }

    /// Processes up to 64 cycles by table-driven state propagation, updating
    /// `state` in place. Semantics match [`bit_serial_step_word`] driven by
    /// the generating transition function: bits at positions `>= valid` are
    /// ignored and the FSM advances exactly `valid` cycles.
    ///
    /// # Panics
    ///
    /// Panics (via indexing) if `state >= self.states()`.
    #[must_use]
    pub fn step_word(&self, state: &mut usize, x: u64, y: u64, valid: u32) -> (u64, u64) {
        let (mut out_x, mut out_y) = (0u64, 0u64);
        // The dependent chain through the walk is row → load → row (one OR,
        // one 2-byte load per chunk): symbol extraction and output assembly
        // run ahead of / behind it. A full word is dispatched with
        // compile-time chunk counts — twelve 5-cycle chunks plus one 4-cycle
        // chunk, thirteen serial lookups in total — so the walk fully
        // unrolls; partial final words take the general 4/1-cycle path.
        if valid == 64 {
            let mut row = *state * 1024;
            for c in 0..12 {
                let i = c * 5;
                let sym = (((x >> i) & 0x1F) | (((y >> i) & 0x1F) << 5)) as usize;
                let idx = row | sym;
                let out = self.step5_out[idx];
                out_x |= u64::from(out & 0x1F) << i;
                out_y |= u64::from(out >> 8) << i;
                row = self.step5_next[idx] as usize;
            }
            let sym = ((x >> 60) | ((y >> 60) << 4)) as usize;
            let idx = ((row / 1024) * 256) | sym;
            let out = self.step4_out[idx];
            out_x |= u64::from(out & 0xF) << 60;
            out_y |= u64::from(out >> 8) << 60;
            *state = self.step4_next[idx] as usize / 256;
            return (out_x, out_y);
        }
        let chunks = (valid / 4) as usize;
        let mut row = *state * 256;
        for c in 0..chunks {
            let i = c * 4;
            let sym = (((x >> i) & 0xF) | (((y >> i) & 0xF) << 4)) as usize;
            let idx = row | sym;
            let out = self.step4_out[idx];
            out_x |= u64::from(out & 0xF) << i;
            out_y |= u64::from(out >> 8) << i;
            row = self.step4_next[idx] as usize;
        }
        let mut row1 = (row / 256) * 4;
        for i in (chunks * 4)..(valid as usize) {
            let sym = (((x >> i) & 1) | (((y >> i) & 1) << 1)) as usize;
            let idx = row1 | sym;
            let out = self.step1_out[idx];
            out_x |= u64::from(out & 1) << i;
            out_y |= u64::from(out >> 8) << i;
            row1 = self.step1_next[idx] as usize;
        }
        *state = row1 / 4;
        (out_x, out_y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Decorrelator, Desynchronizer, Identity, Isolator, Synchronizer};

    fn streams(n: usize) -> (Bitstream, Bitstream) {
        (
            Bitstream::from_fn(n, |i| (i * 7 + 1) % 3 == 0),
            Bitstream::from_fn(n, |i| (i * 5 + 2) % 4 < 2),
        )
    }

    #[test]
    fn bit_serial_wrapper_matches_direct_process() {
        for n in [1usize, 63, 64, 65, 300] {
            let (x, y) = streams(n);
            let mut direct = Synchronizer::new(2);
            let expected = direct.process_bit_serial(&x, &y).unwrap();
            let mut wrapped = BitSerial(Synchronizer::new(2));
            let got = process_with_kernel(&mut wrapped, &x, &y).unwrap();
            assert_eq!(got, expected, "n={n}");
        }
    }

    #[test]
    fn kernels_match_bit_serial_reference() {
        for n in [1usize, 63, 64, 65, 129, 1000] {
            let (x, y) = streams(n);

            let mut id_fast = Identity::new();
            let mut id_ref = BitSerial(Identity::new());
            assert_eq!(
                process_with_kernel(&mut id_fast, &x, &y).unwrap(),
                process_with_kernel(&mut id_ref, &x, &y).unwrap(),
                "identity n={n}"
            );

            for k in [1usize, 2, 63, 64, 65, 200] {
                let mut iso_fast = Isolator::new(k);
                let mut iso_ref = BitSerial(Isolator::new(k));
                assert_eq!(
                    process_with_kernel(&mut iso_fast, &x, &y).unwrap(),
                    process_with_kernel(&mut iso_ref, &x, &y).unwrap(),
                    "isolator n={n} k={k}"
                );
            }

            for d in [1usize, 4, 16] {
                let mut deco_fast = Decorrelator::new(d);
                let mut deco_ref = BitSerial(Decorrelator::new(d));
                assert_eq!(
                    process_with_kernel(&mut deco_fast, &x, &y).unwrap(),
                    process_with_kernel(&mut deco_ref, &x, &y).unwrap(),
                    "decorrelator n={n} d={d}"
                );
            }

            let mut desync_fast = Desynchronizer::new(3);
            let mut desync_ref = BitSerial(Desynchronizer::new(3));
            assert_eq!(
                process_with_kernel(&mut desync_fast, &x, &y).unwrap(),
                process_with_kernel(&mut desync_ref, &x, &y).unwrap(),
                "desynchronizer n={n}"
            );
        }
    }

    #[test]
    fn engine_rejects_length_mismatch() {
        let mut id = Identity::new();
        assert!(process_with_kernel(&mut id, &Bitstream::zeros(4), &Bitstream::zeros(5)).is_err());
    }

    /// A toy 2-state FSM (state toggles on x, output depends on state and y):
    /// the table-driven word stepper must agree with direct stepping at every
    /// chunk-boundary-straddling `valid` count.
    #[test]
    fn speculative_table_matches_direct_stepping() {
        let step = |s: usize, x: bool, y: bool| {
            let next = if x { 1 - s } else { s };
            (next, (s == 1) ^ y, x & y)
        };
        let table = SpeculativeTable::build(2, step);
        assert_eq!(table.states(), 2);
        let (x, y) = streams(64);
        let (xw, yw) = (x.as_words()[0], y.as_words()[0]);
        for valid in [1u32, 2, 3, 4, 5, 7, 8, 9, 31, 63, 64] {
            let mut table_state = 1usize;
            let (ox, oy) = table.step_word(&mut table_state, xw, yw, valid);
            let (mut s, mut ex, mut ey) = (1usize, 0u64, 0u64);
            for i in 0..valid {
                let (next, bx, by) = step(s, (xw >> i) & 1 == 1, (yw >> i) & 1 == 1);
                ex |= u64::from(bx) << i;
                ey |= u64::from(by) << i;
                s = next;
            }
            assert_eq!((ox, oy), (ex, ey), "outputs at valid={valid}");
            assert_eq!(table_state, s, "end state at valid={valid}");
        }
    }

    #[test]
    #[should_panic(expected = "outside 1..=")]
    fn speculative_table_rejects_oversized_state_space() {
        let _ = SpeculativeTable::build(MAX_SPECULATIVE_STATES + 1, |s, _, _| (s, false, false));
    }
}
