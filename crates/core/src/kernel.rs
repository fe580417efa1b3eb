//! The word-parallel execution engine for correlation manipulators.
//!
//! [`CorrelationManipulator::step`] models hardware faithfully — one pair of
//! bits per clock — but executing a whole stream that way wastes the 64×
//! parallelism latent in [`Bitstream`]'s packed representation. Every
//! circuit therefore also steps 64 cycles per call through
//! [`CorrelationManipulator::step_word`]:
//!
//! * stateless or shift-register circuits ([`crate::Identity`],
//!   [`crate::Isolator`]) override it with genuine whole-word operations;
//! * every other circuit keeps the default, [`bit_serial_step_word`], which
//!   runs its bit-stepped transition function on register-resident words,
//!   avoiding per-bit stream indexing and bounds checks;
//! * [`BitSerial`] pins any circuit to that default, the baseline the fast
//!   paths are checked and measured against.
//!
//! [`drive_words`] is the one engine loop: it walks the packed words of
//! both input streams, feeds them through a word step, and writes the
//! outputs word by word into caller-owned buffers. [`drive_step_word`] runs
//! it over [`Bitstream`]s, the default [`CorrelationManipulator::process`]
//! is built on that, and [`crate::ManipulatorChain`] passes each word
//! through all of its stages in one walk.
//!
//! For the data-dependent FSMs whose state space is *small* — the
//! synchronizer's signed credit (`2D + 1` states) and the desynchronizer's
//! banked-bit pair — the module additionally provides **speculative multi-bit
//! stepping** ([`SpeculativeTable`]): the FSM's transition function is
//! precomputed for every `(state, input symbol)` pair at 1-, 4- and 5-cycle
//! granularity, and [`SpeculativeTable::step_word`] resolves all 64 output
//! bits of a word by table-driven state propagation instead of 64 branchy
//! per-bit transitions. A full word is zipped once into its 5-cycle chunk
//! symbols, each chunk's X bits with its Y bits directly above them; the walk
//! is then thirteen lookups (twelve 5-cycle chunks plus one 4-cycle chunk)
//! of one shift, one mask and one OR each, and one unzip of the outputs.
//! Tables are built once per FSM configuration and shared between instances
//! and threads.

use crate::manipulator::CorrelationManipulator;
use sc_bitstream::{Bitstream, Error, Result, WORD_BITS};

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

/// Runs any [`CorrelationManipulator`] on the bit-serial default
/// [`CorrelationManipulator::step_word`], whatever fast path the wrapped
/// circuit has: the baseline the equivalence tests check the word-level fast
/// paths against.
#[derive(Debug, Clone)]
pub struct BitSerial<M>(pub M);

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

/// Drives a word-level step closure over two equal-length streams: the
/// default [`CorrelationManipulator::process`], on [`drive_words`].
///
/// # Errors
///
/// Returns [`Error::LengthMismatch`] if the streams differ in length.
pub fn drive_step_word<F: FnMut(u64, u64, u32) -> (u64, u64)>(
    x: &Bitstream,
    y: &Bitstream,
    step: F,
) -> Result<(Bitstream, Bitstream)> {
    if x.len() != y.len() {
        return Err(Error::LengthMismatch {
            left: x.len(),
            right: y.len(),
        });
    }
    let n = x.len();
    let mut out_x = vec![0; x.as_words().len()];
    let mut out_y = vec![0; x.as_words().len()];
    drive_words(x.as_words(), y.as_words(), n, &mut out_x, &mut out_y, step);
    Ok((
        Bitstream::from_words(out_x, n),
        Bitstream::from_words(out_y, n),
    ))
}

/// The one engine loop, on caller-owned words: feeds the packed words of two
/// `len`-bit streams through a word step and writes the outputs to `out_x`
/// / `out_y`, whose bits past `len` it leaves zero. Executors that keep
/// their streams in their own word buffers call it directly.
///
/// # Panics
///
/// Panics if any slice holds fewer than `len.div_ceil(64)` words.
pub fn drive_words<F: FnMut(u64, u64, u32) -> (u64, u64)>(
    x: &[u64],
    y: &[u64],
    len: usize,
    out_x: &mut [u64],
    out_y: &mut [u64],
    mut step: F,
) {
    let words = len.div_ceil(WORD_BITS);
    let ins = x[..words].iter().zip(&y[..words]);
    let outs = out_x[..words].iter_mut().zip(&mut out_y[..words]);
    for (w, ((&xw, &yw), (ox, oy))) in ins.zip(outs).enumerate() {
        let valid = (len - w * WORD_BITS).min(WORD_BITS) as u32;
        (*ox, *oy) = step(xw, yw, valid);
    }
    if !len.is_multiple_of(WORD_BITS) {
        let mask = u64::MAX >> (WORD_BITS - len % WORD_BITS);
        out_x[words - 1] &= mask;
        out_y[words - 1] &= mask;
    }
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
/// construction*) and is immutable afterwards: one table per FSM
/// configuration is shared by every instance on every thread.
///
/// Three granularities are stored: a 1-cycle table (`states × 4` symbols)
/// for trailing cycles of a partial word, a 4-cycle table (`states × 256`
/// symbols) and a 5-cycle table (`states × 1024` symbols), so a full 64-bit
/// word resolves in thirteen lookups — twelve 5-cycle chunks plus one
/// 4-cycle chunk. Every symbol and every output is *chunk-zipped*: a chunk's
/// X bits with its Y bits directly above them. A full word is zipped once,
/// into its even and its odd 5-cycle chunks, so each chunk's symbol is one
/// shift and one mask, each output one shift and one OR, and the outputs
/// are unzipped once per word.
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
    /// Same index → output bits: X in bit 0, Y in bit 1.
    step1_out: Vec<u16>,
    /// `state * 256 + (x_nibble | y_nibble << 4)` → `next_state * 256`
    /// (four cycles).
    step4_next: Vec<u16>,
    /// Same index → output bits: X nibble in bits 0–3, Y nibble in 4–7.
    step4_out: Vec<u16>,
    /// `state * 1024 + (x_5bits | y_5bits << 5)` → `next_state * 1024`
    /// (five cycles).
    step5_next: Vec<u16>,
    /// Same index → output bits: X chunk in bits 0–4, Y chunk in 5–9.
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
                step1_out.push(u16::from(ox) | u16::from(oy) << 1);
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
                        let bits = step1_out[idx];
                        out |= (bits & 1) << cycle | (bits >> 1) << (cycles + cycle);
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
        // The dependent chain through the walk is row → load → row (one OR,
        // one 2-byte load per chunk): symbol extraction and output assembly
        // run beside it. A full word is zipped once into its even chunks
        // (chunk `2j` at bit `10j`, Y above X) and its odd chunks (chunk
        // `2j + 1` likewise at bit `10j`) and walked with compile-time chunk
        // counts — twelve 5-cycle chunks plus one 4-cycle chunk — so the walk
        // fully unrolls; partial final words take the general 4/1-cycle path.
        if valid == 64 {
            // Chunks 0, 2, …, 10 (bits `10j..10j + 5`) and 1, 3, …, 11.
            const EVEN_CHUNKS: u64 = 0x007C_1F07_C1F0_7C1F;
            const ODD_CHUNKS: u64 = EVEN_CHUNKS << 5;
            let even = (x & EVEN_CHUNKS) | (y & EVEN_CHUNKS) << 5;
            let odd = (x & ODD_CHUNKS) >> 5 | (y & ODD_CHUNKS);
            let (mut out_even, mut out_odd) = (0u64, 0u64);
            let mut row = *state * 1024;
            for j in 0..6 {
                let i = 10 * j;
                let idx = row | ((even >> i) & 0x3FF) as usize;
                out_even |= u64::from(self.step5_out[idx]) << i;
                row = self.step5_next[idx] as usize;
                let idx = row | ((odd >> i) & 0x3FF) as usize;
                out_odd |= u64::from(self.step5_out[idx]) << i;
                row = self.step5_next[idx] as usize;
            }
            let idx = (row / 4) | ((x >> 60) | (y >> 60) << 4) as usize;
            let last = u64::from(self.step4_out[idx]);
            *state = self.step4_next[idx] as usize / 256;
            let out_x = (out_even & EVEN_CHUNKS) | (out_odd << 5 & ODD_CHUNKS) | (last & 0xF) << 60;
            let out_y = (out_even >> 5 & EVEN_CHUNKS) | (out_odd & ODD_CHUNKS) | (last >> 4) << 60;
            return (out_x, out_y);
        }
        let (mut out_x, mut out_y) = (0u64, 0u64);
        let chunks = (valid / 4) as usize;
        let mut row = *state * 256;
        for c in 0..chunks {
            let i = c * 4;
            let sym = (((x >> i) & 0xF) | (((y >> i) & 0xF) << 4)) as usize;
            let idx = row | sym;
            let out = u64::from(self.step4_out[idx]);
            out_x |= (out & 0xF) << i;
            out_y |= (out >> 4) << i;
            row = self.step4_next[idx] as usize;
        }
        let mut row1 = (row / 256) * 4;
        for i in (chunks * 4)..(valid as usize) {
            let sym = (((x >> i) & 1) | (((y >> i) & 1) << 1)) as usize;
            let idx = row1 | sym;
            let out = u64::from(self.step1_out[idx]);
            out_x |= (out & 1) << i;
            out_y |= (out >> 1) << i;
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
            let got = wrapped.process(&x, &y).unwrap();
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
                id_fast.process(&x, &y).unwrap(),
                id_ref.process(&x, &y).unwrap(),
                "identity n={n}"
            );

            for k in [1usize, 2, 63, 64, 65, 200] {
                let mut iso_fast = Isolator::new(k);
                let mut iso_ref = BitSerial(Isolator::new(k));
                assert_eq!(
                    iso_fast.process(&x, &y).unwrap(),
                    iso_ref.process(&x, &y).unwrap(),
                    "isolator n={n} k={k}"
                );
            }

            for d in [1usize, 4, 16] {
                let mut deco_fast = Decorrelator::new(d);
                let mut deco_ref = BitSerial(Decorrelator::new(d));
                assert_eq!(
                    deco_fast.process(&x, &y).unwrap(),
                    deco_ref.process(&x, &y).unwrap(),
                    "decorrelator n={n} d={d}"
                );
            }

            let mut desync_fast = Desynchronizer::new(3);
            let mut desync_ref = BitSerial(Desynchronizer::new(3));
            assert_eq!(
                desync_fast.process(&x, &y).unwrap(),
                desync_ref.process(&x, &y).unwrap(),
                "desynchronizer n={n}"
            );
        }
    }

    #[test]
    fn engine_rejects_length_mismatch() {
        let mut id = BitSerial(Identity::new());
        assert!(id
            .process(&Bitstream::zeros(4), &Bitstream::zeros(5))
            .is_err());
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
