//! Prefix planes: D/S conversion as one rank lookup and one mask copy per
//! 256-sample block.
//!
//! The D/S converter of Fig. 2g compares its target `p` against the samples
//! of its source, and those samples depend only on the source, never on the
//! target. So bit `i` of a stream is set exactly when sample `i` is among the
//! samples below `p`, and in a block of samples those are a prefix of the
//! block's sorted order. A [`PrefixPlane`] splits a run of samples into
//! blocks of [`BLOCK_SAMPLES`] and keeps, per block:
//!
//! - its samples in stable ascending order;
//! - its prefix masks: mask `k` holds the bits of the block's `k` smallest
//!   samples, four words each;
//! - `256 + 2` bucket starts: the number of samples below each bucket edge
//!   `b / 256`. Every edge and `p·256` are exact in `f64`.
//!
//! A conversion from a block-aligned position is then, per block, one
//! bucket lookup, a search for the rank `k` within that bucket and a copy of
//! mask `k`. A stream that ends inside a block takes the same mask with its
//! tail bits cleared. The bits equal the per-bit compares of [`compare`],
//! which serves every position a plane does not.

use sc_bitstream::WORD_BITS;
use std::mem::size_of;

/// Samples per block of a [`PrefixPlane`].
pub const BLOCK_SAMPLES: usize = 256;

/// Stream words one block's masks cover.
const BLOCK_WORDS: usize = BLOCK_SAMPLES / WORD_BITS;

/// Bucket edges per block: `b / BUCKETS` for `b` in `0..=BUCKETS`. A power of
/// two, so every edge and `p·BUCKETS` are exact in `f64`.
const BUCKETS: usize = BLOCK_SAMPLES;

/// The prefix masks, sorted samples and bucket starts of up to
/// [`BLOCK_SAMPLES`] samples.
#[derive(Clone)]
struct Block {
    /// Mask `k` has bit `i` set iff sample `i` is among the `k` smallest.
    masks: [[u64; BLOCK_WORDS]; BLOCK_SAMPLES + 1],
    /// The block's samples in stable ascending order; entries past the
    /// block's length are unused.
    sorted: [f64; BLOCK_SAMPLES],
    /// `start[b]` is the number of samples below `b / BUCKETS`, and
    /// `start[BUCKETS + 1]` the block's length.
    start: [u16; BUCKETS + 2],
}

impl Block {
    /// The block of `samples`, 1 to [`BLOCK_SAMPLES`] of them, each in
    /// `[0, 1)`.
    fn build(samples: &[f64]) -> Box<Self> {
        let len = samples.len();
        debug_assert!((1..=BLOCK_SAMPLES).contains(&len));
        let mut order: [u8; BLOCK_SAMPLES] = std::array::from_fn(|i| i as u8);
        let order = &mut order[..len];
        order.sort_by(|&a, &b| samples[usize::from(a)].total_cmp(&samples[usize::from(b)]));
        let mut block = Box::new(Block {
            masks: [[0; BLOCK_WORDS]; BLOCK_SAMPLES + 1],
            sorted: [0.0; BLOCK_SAMPLES],
            start: [0; BUCKETS + 2],
        });
        for (k, &i) in order.iter().enumerate() {
            let i = usize::from(i);
            let mut mask = block.masks[k];
            mask[i / WORD_BITS] |= 1 << (i % WORD_BITS);
            block.masks[k + 1] = mask;
            block.sorted[k] = samples[i];
        }
        let sorted = &block.sorted[..len];
        let below = |edge: f64| sorted.partition_point(|&s| s < edge) as u16;
        let starts: [u16; BUCKETS + 2] = std::array::from_fn(|b| match b {
            b if b <= BUCKETS => below(b as f64 / BUCKETS as f64),
            _ => len as u16,
        });
        block.start = starts;
        block
    }

    /// The number of samples below `p` (in `[0, 1]`): those below `p`'s
    /// bucket, plus a search of that bucket alone.
    #[inline]
    fn rank(&self, p: f64) -> usize {
        let b = (p * BUCKETS as f64) as usize;
        let (lo, hi) = (usize::from(self.start[b]), usize::from(self.start[b + 1]));
        lo + self.sorted[lo..hi].partition_point(|&s| s < p)
    }
}

/// The prefix masks of a run of samples, one block of [`BLOCK_SAMPLES`] at
/// a time. The default plane is empty; [`crate::DigitalToStochastic`] grows
/// its own a block at a time.
///
/// # Example
///
/// ```
/// use sc_convert::plane::{compare, PrefixPlane};
/// use sc_rng::{RandomSource, Sobol};
///
/// let mut source = Sobol::new(2);
/// let samples: Vec<f64> = (0..300).map(|_| source.next_unit()).collect();
/// let plane = PrefixPlane::from_samples(&samples);
/// let (mut planed, mut compared) = ([0u64; 5], [0u64; 5]);
/// plane.convert(0.3, 0, 300, &mut planed);
/// compare(0.3, &samples, &mut compared);
/// assert_eq!(planed, compared);
/// ```
#[derive(Clone, Default)]
pub struct PrefixPlane {
    blocks: Vec<Box<Block>>,
    len: usize,
}

impl std::fmt::Debug for PrefixPlane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PrefixPlane")
            .field("samples", &self.len)
            .finish_non_exhaustive()
    }
}

impl PrefixPlane {
    /// Bytes one block holds: 257 masks of four words, 256 sorted samples
    /// and 258 bucket starts, 10,792 bytes with padding.
    const BLOCK_BYTES: usize = size_of::<Block>();

    /// The plane of `samples`, each in `[0, 1)`: full blocks, and a partial
    /// last block when the length is not a multiple of [`BLOCK_SAMPLES`].
    #[must_use]
    pub fn from_samples(samples: &[f64]) -> Self {
        let mut plane = PrefixPlane {
            blocks: Vec::with_capacity(samples.len().div_ceil(BLOCK_SAMPLES)),
            len: 0,
        };
        for block in samples.chunks(BLOCK_SAMPLES) {
            plane.push_block(block);
        }
        plane
    }

    /// Heap bytes of an `n`-sample plane: its blocks and their pointers.
    #[must_use]
    pub fn bytes(n: usize) -> usize {
        n.div_ceil(BLOCK_SAMPLES) * (Self::BLOCK_BYTES + size_of::<Box<Block>>())
    }

    /// Samples covered.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Appends the block of the next 1 to [`BLOCK_SAMPLES`] samples, each in
    /// `[0, 1)`.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty or longer than a block, or if the last
    /// block is partial.
    pub(crate) fn push_block(&mut self, samples: &[f64]) {
        assert!(
            (1..=BLOCK_SAMPLES).contains(&samples.len()),
            "a block holds 1 to {BLOCK_SAMPLES} samples, not {}",
            samples.len()
        );
        assert!(
            self.len.is_multiple_of(BLOCK_SAMPLES),
            "a partial block ends the plane"
        );
        self.blocks.push(Block::build(samples));
        self.len += samples.len();
    }

    /// D/S conversion of `p` (in `[0, 1]`) into `out`, the stream of the `n`
    /// samples from sample `start`: bit `i` is 1 iff `p` exceeds sample
    /// `start + i`. `out` holds `⌈n/64⌉` words.
    ///
    /// # Panics
    ///
    /// Panics if `start` is not a multiple of [`BLOCK_SAMPLES`], or if the
    /// plane holds fewer than `start + n` samples.
    #[inline]
    pub fn convert(&self, p: f64, start: usize, n: usize, out: &mut [u64]) {
        assert!(
            start.is_multiple_of(BLOCK_SAMPLES) && start + n <= self.len,
            "samples {start}..{} outside the plane's block-aligned {}",
            start + n,
            self.len
        );
        let words = &mut out[..n.div_ceil(WORD_BITS)];
        let blocks = &self.blocks[start / BLOCK_SAMPLES..];
        for (block, out) in blocks.iter().zip(words.chunks_mut(BLOCK_WORDS)) {
            // The samples below `p` are exactly a prefix of the block's
            // sorted order, so its bits are the mask of that prefix.
            out.copy_from_slice(&block.masks[block.rank(p)][..out.len()]);
        }
        if let Some(last) = words.last_mut().filter(|_| !n.is_multiple_of(WORD_BITS)) {
            *last &= u64::MAX >> (WORD_BITS - n % WORD_BITS);
        }
    }
}

/// Bit `i` of the word is the comparator output `target > samples[i]`, for
/// up to 64 samples. A full word is eight fixed 8-sample loops, which LLVM
/// unrolls into branch-free compares.
#[inline]
fn comparator_word(target: f64, samples: &[f64]) -> u64 {
    let bit = |(i, &r): (usize, &f64)| u64::from(target > r) << i;
    let Ok(full) = <&[f64; WORD_BITS]>::try_from(samples) else {
        return samples
            .iter()
            .enumerate()
            .map(bit)
            .fold(0, |word, b| word | b);
    };
    let mut word = 0u64;
    for (j, eight) in full.chunks_exact(8).enumerate() {
        let byte = eight
            .iter()
            .enumerate()
            .map(bit)
            .fold(0, |byte, b| byte | b);
        word |= byte << (8 * j);
    }
    word
}

/// D/S conversion by per-bit compares: bit `i` of `out` is 1 iff `p`
/// exceeds `samples[i]`. `out` holds `⌈samples.len()/64⌉` words.
#[inline]
pub fn compare(p: f64, samples: &[f64], out: &mut [u64]) {
    for (out, chunk) in out.iter_mut().zip(samples.chunks(WORD_BITS)) {
        *out = comparator_word(p, chunk);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_block_is_about_ten_kib() {
        assert_eq!(PrefixPlane::BLOCK_BYTES, 10_792);
        assert_eq!(PrefixPlane::bytes(0), 0);
        assert_eq!(PrefixPlane::bytes(257), 2 * 10_800);
    }

    #[test]
    #[should_panic(expected = "a partial block ends the plane")]
    fn nothing_follows_a_partial_block() {
        let mut plane = PrefixPlane::from_samples(&[0.5; 100]);
        plane.push_block(&[0.5; 10]);
    }

    #[test]
    #[should_panic(expected = "block-aligned")]
    fn a_conversion_starts_on_a_block() {
        let plane = PrefixPlane::from_samples(&[0.5; 512]);
        plane.convert(0.5, 64, 64, &mut [0]);
    }
}
