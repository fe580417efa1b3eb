//! The shuffle buffer: the building block of the decorrelator (Fig. 4b).
//!
//! A shuffle buffer is a small `D`-entry bit memory. Each cycle an auxiliary
//! random source picks a slot; the bit stored there is emitted and replaced by
//! the incoming bit. Bits therefore leave the buffer in a scrambled order,
//! with a reordering window that grows with the buffer depth — unlike an
//! isolator, which only shifts bits by a fixed offset and never changes their
//! relative order.
//!
//! To reduce value bias the buffer is initialised half 1s / half 0s, so that
//! on average the bits stranded in the buffer at the end of the stream carry
//! the same weight as the bits that seeded it (§III.C).
//!
//! The slots are one `u64` mask for depth ≤ 64 and a word bitset above that,
//! so a bit costs a bit test, a bit clear and an insert. The slot addresses
//! depend only on the source, never on the data, so the buffer draws them
//! through a [`Replay`] log: after a reset the same addresses come again,
//! and the buffer reads them from the log instead of stepping the source and
//! scaling its sample. The log holds the addresses drawn since the source's
//! last real reset, and the source stands at the end of the log. Recording
//! starts at the first [`ShuffleBuffer::reset`], because a source may
//! arrive mid-sequence; [`ShuffleBuffer::reset`] then restores the slots and
//! rewinds the log without touching the source. A run of more than
//! 32,768 addresses (the log's 64 KiB bound) stops recording, and every later
//! reset really resets the source. [`ShuffleBuffer::step`] is
//! [`ShuffleBuffer::step_word`] on one bit, so the two can be mixed. Before
//! the first reset, and once recording has stopped, each address is drawn
//! from the source as its bit is shuffled.

use crate::manipulator::DEPTH_RANGE;
use sc_bitstream::Bitstream;
use sc_rng::{Draws, RandomSource, Replay, SourceExt};

/// The power-on slot contents: slot `i` holds a 1 when `i` is even.
const ALTERNATING: u64 = 0x5555_5555_5555_5555;

/// The stored bits: slot `i` is bit `i % 64` of word `i / 64`.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Slots {
    /// Depth ≤ 64: one register-resident mask.
    Word(u64),
    /// Deeper buffers: a word bitset.
    Bitset(Box<[u64]>),
}

impl Slots {
    /// Word `w` of the power-on contents of a `depth`-slot buffer.
    fn initial_word(depth: usize, w: usize) -> u64 {
        ALTERNATING & (u64::MAX >> (64 - (depth - 64 * w).min(64)))
    }

    fn initial(depth: usize) -> Self {
        let mut slots = if depth <= 64 {
            Slots::Word(0)
        } else {
            Slots::Bitset(vec![0; depth.div_ceil(64)].into())
        };
        slots.reset(depth);
        slots
    }

    /// Restores the power-on contents in place.
    fn reset(&mut self, depth: usize) {
        match self {
            Slots::Word(mask) => *mask = Self::initial_word(depth, 0),
            Slots::Bitset(words) => {
                for (w, word) in words.iter_mut().enumerate() {
                    *word = Self::initial_word(depth, w);
                }
            }
        }
    }

    /// Reads out the slot at each address in turn and stores the next input
    /// bit (bit 0 of `input` first) in its place.
    ///
    /// On a one-word buffer each bit is a bit test, a bit clear and an
    /// insert. The read-outs enter the result from the top and the input
    /// leaves from the bottom, so the only variable shifts are by the slot.
    #[inline(always)]
    fn shuffle(&mut self, input: u64, addrs: impl ExactSizeIterator<Item = u16>) -> u64 {
        let valid = addrs.len() as u32;
        let Slots::Word(mask) = self else {
            return addrs
                .enumerate()
                .fold(0, |out, (i, a)| out | self.swap(input >> i & 1, a) << i);
        };
        let (mut m, mut rest, mut out) = (*mask, input, 0u64);
        for a in addrs {
            out = out >> 1 | (m >> a & 1) << 63;
            m = m & !(1 << a) | (rest & 1) << a;
            rest >>= 1;
        }
        *mask = m;
        out.checked_shr(64 - valid).unwrap_or(0)
    }

    /// Reads out the slot at `addr` and stores `bit` (0 or 1) in its place.
    #[inline]
    fn swap(&mut self, bit: u64, addr: u16) -> u64 {
        let (word, a) = match self {
            Slots::Word(mask) => (mask, addr),
            Slots::Bitset(words) => (&mut words[usize::from(addr / 64)], addr % 64),
        };
        let out = *word >> a & 1;
        *word = *word & !(1 << a) | bit << a;
        out
    }

    fn count_ones(&self) -> usize {
        match self {
            Slots::Word(mask) => mask.count_ones() as usize,
            Slots::Bitset(words) => words.iter().map(|w| w.count_ones() as usize).sum(),
        }
    }
}

/// A randomly addressed `D`-entry bit memory that scrambles the order of a
/// stochastic number's bits.
///
/// # Example
///
/// ```
/// use sc_core::ShuffleBuffer;
/// use sc_rng::Lfsr;
/// use sc_bitstream::Bitstream;
///
/// let input = Bitstream::parse("1111000011110000")?;
/// let mut buf = ShuffleBuffer::new(4, Lfsr::new(16, 0xACE1));
/// let output = buf.process(&input);
/// assert_eq!(output.len(), input.len());
/// // The value survives the scramble to within the buffer depth.
/// assert!((output.value() - input.value()).abs() <= 4.0 / 16.0);
/// # Ok::<(), sc_bitstream::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct ShuffleBuffer<S> {
    slots: Slots,
    depth: usize,
    addrs: Replay<S, u16>,
}

impl<S: RandomSource> ShuffleBuffer<S> {
    /// Creates a shuffle buffer with `depth` slots addressed by `source`.
    ///
    /// The buffer is initialised with alternating 1s and 0s (half and half).
    ///
    /// # Panics
    ///
    /// Panics if `depth` is outside [`DEPTH_RANGE`].
    #[must_use]
    pub fn new(depth: usize, source: S) -> Self {
        assert!(
            DEPTH_RANGE.contains(&depth),
            "shuffle buffer depth {depth} outside supported range {DEPTH_RANGE:?}"
        );
        ShuffleBuffer {
            slots: Slots::initial(depth),
            depth,
            addrs: Replay::new(source),
        }
    }

    /// The buffer depth `D`.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Number of 1s currently stored in the buffer.
    #[must_use]
    pub fn stored_ones(&self) -> usize {
        self.slots.count_ones()
    }

    /// The slot address the source maps to: its next sample scaled to the
    /// depth. Depths stay within [`DEPTH_RANGE`], so an address fits a `u16`.
    fn address(depth: usize) -> impl Fn(&mut S) -> u16 {
        move |source| source.next_below(depth as u64) as u16
    }

    /// Processes one bit: a random slot is read out and replaced by `input`.
    #[inline]
    pub fn step(&mut self, input: bool) -> bool {
        self.step_word(u64::from(input), 1) == 1
    }

    /// Processes up to 64 bits staged through a register-resident word: bit
    /// `i` of the result is the slot read-out for input bit `(input >> i) & 1`
    /// (`i < valid`). A replayed word reads its `valid` addresses from the
    /// log as one slice; otherwise each address is drawn as its bit is
    /// shuffled.
    // Always inlined: `step`'s one-bit call then runs a loop of one.
    #[inline(always)]
    pub fn step_word(&mut self, input: u64, valid: u32) -> u64 {
        let address = Self::address(self.depth);
        match self.addrs.take(valid as usize, &address) {
            Draws::Logged(addrs) => self.slots.shuffle(input, addrs.iter().copied()),
            Draws::Live(source) => self
                .slots
                .shuffle(input, (0..valid).map(|_| address(source))),
        }
    }

    /// Processes a whole stream, preserving its length.
    #[must_use]
    pub fn process(&mut self, input: &Bitstream) -> Bitstream {
        let n = input.len();
        Bitstream::from_word_fn(n, |w| {
            let valid = input.word_len(w) as u32;
            self.step_word(input.as_words()[w], valid)
        })
    }

    /// Restores the initial buffer contents and restarts the address
    /// sequence: from the log once it is recording, otherwise by resetting
    /// the source.
    pub fn reset(&mut self) {
        self.slots.reset(self.depth);
        self.addrs.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CorrelationManipulator, Decorrelator};
    use proptest::prelude::*;
    use sc_rng::{Lfsr, Sobol};

    /// The per-bit shuffle buffer the word path replaced, kept as the
    /// reference model: a `Vec<bool>` of slots, each address drawn from the
    /// source by `next_below`.
    struct ReferenceBuffer<S> {
        slots: Vec<bool>,
        source: S,
    }

    impl<S: RandomSource> ReferenceBuffer<S> {
        fn new(depth: usize, source: S) -> Self {
            ReferenceBuffer {
                slots: (0..depth).map(|i| i % 2 == 0).collect(),
                source,
            }
        }

        fn step(&mut self, input: bool) -> bool {
            let addr = self.source.next_below(self.slots.len() as u64) as usize;
            let out = self.slots[addr];
            self.slots[addr] = input;
            out
        }

        fn process(&mut self, input: &Bitstream) -> Bitstream {
            Bitstream::from_fn(input.len(), |i| self.step(input.bit(i)))
        }

        fn reset(&mut self) {
            for (i, slot) in self.slots.iter_mut().enumerate() {
                *slot = i % 2 == 0;
            }
            self.source.reset();
        }
    }

    /// Every depth the replay proptests cover: each one-word depth, the first
    /// bitset depth, a middling one and the deepest buffer.
    fn replay_depths() -> impl Iterator<Item = usize> {
        (1..=64).chain([65, 100, 4096])
    }

    /// A small xorshift stream that picks the stimulus and the call mix.
    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    fn random_stream(len: usize, state: &mut u64) -> Bitstream {
        Bitstream::from_word_fn(len, |_| xorshift(state))
    }

    /// Drives `len` cycles through chunks of 1..=64 cycles, each run either
    /// as one word call, `step(start, valid, true)`, or as single-cycle
    /// calls, `step(i, 1, false)`, as the mix state picks; returns the
    /// outputs.
    fn run_mixed(
        len: usize,
        mix: &mut u64,
        mut step: impl FnMut(usize, u32, bool) -> u64,
    ) -> Bitstream {
        let mut out = Bitstream::new();
        let mut i = 0;
        while i < len {
            let pick = xorshift(mix);
            let chunk = ((pick >> 8) % 64 + 1).min((len - i) as u64) as usize;
            if pick & 1 == 0 {
                out.push_word(step(i, chunk as u32, true), chunk);
            } else {
                for k in i..i + chunk {
                    out.push_word(step(k, 1, false), 1);
                }
            }
            i += chunk;
        }
        out
    }

    /// The stream's `valid` bits from position `start`, packed low first.
    fn bits_at(stream: &Bitstream, start: usize, valid: u32) -> u64 {
        (0..valid as usize).fold(0, |w, k| w | u64::from(stream.bit(start + k)) << k)
    }

    /// Runs one bare buffer over `lengths.len()` runs with a reset between
    /// runs, mixing `step` and `step_word`, against the reference model. The
    /// source may arrive mid-sequence.
    fn check_buffer<S: RandomSource + Clone>(
        depth: usize,
        source: S,
        lengths: &[usize],
        seed: u64,
    ) {
        let mut buf = ShuffleBuffer::new(depth, source.clone());
        let mut reference = ReferenceBuffer::new(depth, source);
        let (mut stimulus, mut mix) = (seed | 1, seed.rotate_left(17) | 1);
        for (run, &len) in lengths.iter().enumerate() {
            if run > 0 {
                buf.reset();
                reference.reset();
            }
            let input = random_stream(len, &mut stimulus);
            let got = run_mixed(len, &mut mix, |i, valid, word| {
                if word {
                    buf.step_word(bits_at(&input, i, valid), valid)
                } else {
                    u64::from(buf.step(input.bit(i)))
                }
            });
            assert_eq!(
                got,
                reference.process(&input),
                "buffer depth {depth} run {run} len {len}"
            );
            assert_eq!(
                buf.stored_ones(),
                reference.slots.iter().filter(|&&b| b).count()
            );
        }
    }

    /// Runs one decorrelator across resets, mixing `step` and `step_word`,
    /// against a fresh circuit's `process_bit_serial` and two reference
    /// buffers.
    fn check_decorrelator<S: RandomSource + Clone>(
        depth: usize,
        (sx, sy): (S, S),
        fresh: impl Fn() -> Decorrelator<S>,
        lengths: &[usize],
        seed: u64,
    ) {
        let mut deco = Decorrelator::with_sources(depth, sx.clone(), sy.clone());
        let mut ref_x = ReferenceBuffer::new(depth, sx);
        let mut ref_y = ReferenceBuffer::new(depth, sy);
        let (mut stimulus, mut mix) = (seed | 1, seed.rotate_left(29) | 1);
        for (run, &len) in lengths.iter().enumerate() {
            if run > 0 {
                deco.reset();
                ref_x.reset();
                ref_y.reset();
            }
            let (x, y) = (
                random_stream(len, &mut stimulus),
                random_stream(len, &mut stimulus),
            );
            let mut out_y = Bitstream::new();
            let out_x = run_mixed(len, &mut mix, |i, valid, word| {
                let (ox, oy) = if word {
                    deco.step_word(bits_at(&x, i, valid), bits_at(&y, i, valid), valid)
                } else {
                    let (bx, by) = deco.step(x.bit(i), y.bit(i));
                    (u64::from(bx), u64::from(by))
                };
                out_y.push_word(oy, valid as usize);
                ox
            });
            let expected = (ref_x.process(&x), ref_y.process(&y));
            assert_eq!(
                (&out_x, &out_y),
                (&expected.0, &expected.1),
                "decorrelator depth {depth} run {run} len {len}"
            );
            if run > 0 {
                assert_eq!(
                    fresh().process_bit_serial(&x, &y).unwrap(),
                    expected,
                    "fresh circuit, depth {depth}"
                );
            }
        }
    }

    #[test]
    fn initialised_half_ones() {
        let buf = ShuffleBuffer::new(8, Lfsr::new(8, 1));
        assert_eq!(buf.stored_ones(), 4);
        assert_eq!(buf.depth(), 8);
        let buf = ShuffleBuffer::new(5, Lfsr::new(8, 1));
        assert_eq!(buf.stored_ones(), 3); // ceil(5/2)
    }

    #[test]
    fn bit_conservation() {
        // Ones in = ones out + ones still stored - ones initially stored.
        let input = Bitstream::from_fn(128, |i| i % 3 == 0);
        let mut buf = ShuffleBuffer::new(8, Lfsr::new(16, 0xACE1));
        let initially_stored = buf.stored_ones();
        let output = buf.process(&input);
        assert_eq!(
            input.count_ones() + initially_stored,
            output.count_ones() + buf.stored_ones()
        );
    }

    #[test]
    fn scrambles_order_but_preserves_value() {
        let input = Bitstream::from_fn(256, |i| i < 128);
        let mut buf = ShuffleBuffer::new(16, Lfsr::new(16, 0xACE1));
        let output = buf.process(&input);
        assert_ne!(output, input, "order should change");
        assert!((output.value() - input.value()).abs() <= 16.0 / 256.0);
    }

    #[test]
    fn depth_one_buffer_is_a_random_isolator() {
        let input = Bitstream::parse("10110100").unwrap();
        let mut buf = ShuffleBuffer::new(1, Lfsr::new(8, 3));
        let output = buf.process(&input);
        // With one slot every bit is simply delayed by one cycle, after the
        // initial stored bit is flushed out first.
        assert!(output.bit(0)); // initial slot content (index 0 -> 1)
        for i in 1..8 {
            assert_eq!(output.bit(i), input.bit(i - 1));
        }
    }

    #[test]
    fn reset_restores_behaviour() {
        let input = Bitstream::from_fn(64, |i| i % 5 == 0);
        let mut buf = ShuffleBuffer::new(4, Sobol::new(2));
        let a = buf.process(&input);
        buf.reset();
        let b = buf.process(&input);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "outside supported range")]
    fn zero_depth_panics() {
        let _ = ShuffleBuffer::new(0, Lfsr::new(8, 1));
    }

    #[test]
    fn a_run_past_the_log_bound_replays_exactly() {
        // The first run after a reset fills the log's 32,768 addresses; the
        // 33,000-cycle run then crosses the bound partway through a replay.
        for depth in [4, 100] {
            check_buffer(
                depth,
                Lfsr::new(16, 0xACE1),
                &[32_768, 300, 33_000, 64, 2_000],
                7,
            );
            check_decorrelator(
                depth,
                (Lfsr::new(16, 0xACE1), Lfsr::new(16, 0x7331)),
                || Decorrelator::new(depth),
                &[500, 32_768, 300, 33_000, 64],
                11,
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        #[test]
        fn prop_replay_matches_the_reference_across_resets(
            lengths in proptest::collection::vec(1usize..=1100, 4..=5),
            skip in 0u64..40,
            seed in any::<u64>(),
        ) {
            for depth in replay_depths() {
                // A source handed over mid-sequence: the first run draws from
                // there, every run after a reset from the start.
                let mut lfsr = Lfsr::new(16, 0x42A7);
                lfsr.skip_ahead(skip);
                let mut sobol = Sobol::new(3);
                sobol.skip_ahead(skip);
                check_buffer(depth, lfsr, &lengths, seed);
                check_buffer(depth, sobol, &lengths, seed);
                check_decorrelator(
                    depth,
                    (Lfsr::new(16, 0xACE1), Lfsr::new(16, 0x7331)),
                    || Decorrelator::new(depth),
                    &lengths,
                    seed,
                );
                check_decorrelator(
                    depth,
                    (Sobol::new(2), Sobol::new(3)),
                    || Decorrelator::with_sources(depth, Sobol::new(2), Sobol::new(3)),
                    &lengths,
                    seed,
                );
            }
        }
    }

    proptest! {
        #[test]
        fn prop_bit_conservation(bits in proptest::collection::vec(any::<bool>(), 1..300), depth in 1usize..32) {
            let input = Bitstream::from_bools(bits);
            let mut buf = ShuffleBuffer::new(depth, Lfsr::new(16, 0x42A7));
            let initially_stored = buf.stored_ones();
            let output = buf.process(&input);
            prop_assert_eq!(
                input.count_ones() + initially_stored,
                output.count_ones() + buf.stored_ones()
            );
        }

        #[test]
        fn prop_value_bias_bounded_by_depth(bits in proptest::collection::vec(any::<bool>(), 32..300), depth in 1usize..16) {
            let input = Bitstream::from_bools(bits);
            let mut buf = ShuffleBuffer::new(depth, Lfsr::new(16, 0x9D2C));
            let output = buf.process(&input);
            prop_assert!((output.value() - input.value()).abs() <= depth as f64 / input.len() as f64 + 1e-12);
        }
    }
}
