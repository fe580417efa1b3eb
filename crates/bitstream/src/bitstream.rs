//! The bit-packed stochastic number type.

use crate::error::{Error, Result};
use crate::value::Probability;
use std::fmt;

/// Number of stream bits packed into one storage word.
///
/// This is the parallelism factor of the word-parallel kernel layer: every
/// bulk combinator ([`Bitstream::map_words`], [`Bitstream::zip_with_words`],
/// the logic ops, `scc` accumulation, ...) processes `WORD_BITS` stream bits
/// per machine operation.
pub const WORD_BITS: usize = 64;

/// A stochastic number (SN): a finite unary bitstream of 1s and 0s.
///
/// The value of the stream under the **unipolar** encoding is the fraction of
/// 1s ([`Bitstream::value`]); under the **bipolar** encoding it is
/// `2·(fraction of 1s) − 1` ([`Bitstream::bipolar_value`]).
///
/// Bits are stored packed, 64 per word, in stream order (bit `i` of the stream
/// is bit `i % 64` of word `i / 64`).
///
/// # Example
///
/// ```
/// use sc_bitstream::Bitstream;
///
/// let x = Bitstream::parse("01000100")?;
/// assert_eq!(x.len(), 8);
/// assert_eq!(x.count_ones(), 2);
/// assert_eq!(x.value(), 0.25); // paper §I example
/// # Ok::<(), sc_bitstream::Error>(())
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct Bitstream {
    words: Vec<u64>,
    len: usize,
}

impl Bitstream {
    /// Creates an empty bitstream.
    #[must_use]
    pub fn new() -> Self {
        Bitstream {
            words: Vec::new(),
            len: 0,
        }
    }

    /// Creates an all-zeros bitstream of length `len`.
    #[must_use]
    pub fn zeros(len: usize) -> Self {
        Bitstream {
            words: vec![0u64; len.div_ceil(WORD_BITS)],
            len,
        }
    }

    /// Creates an all-ones bitstream of length `len`.
    #[must_use]
    pub fn ones(len: usize) -> Self {
        let mut s = Bitstream {
            words: vec![u64::MAX; len.div_ceil(WORD_BITS)],
            len,
        };
        s.mask_tail();
        s
    }

    /// Creates a bitstream from an iterator of booleans.
    #[must_use]
    pub fn from_bools<I: IntoIterator<Item = bool>>(bits: I) -> Self {
        let mut s = Bitstream::new();
        for b in bits {
            s.push(b);
        }
        s
    }

    /// Creates a bitstream of length `len` where bit `i` is `f(i)`.
    ///
    /// `f` is called once per bit in stream order; the produced bits are
    /// packed through a register and stored a whole word at a time, so
    /// sequential generators (RNG comparators, select-stream builders) get
    /// word-batched stores for free.
    #[must_use]
    pub fn from_fn<F: FnMut(usize) -> bool>(len: usize, mut f: F) -> Self {
        Self::from_word_fn(len, |w| {
            let start = w * WORD_BITS;
            let valid = (len - start).min(WORD_BITS);
            let mut word = 0u64;
            for i in 0..valid {
                word |= u64::from(f(start + i)) << i;
            }
            word
        })
    }

    /// Parses a bitstream from a string of `'0'` and `'1'` characters.
    ///
    /// Whitespace and `_` separators are ignored; the first character is the
    /// first bit emitted in time.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidCharacter`] for the first character that is
    /// not `0`, `1`, whitespace or `_`, and [`Error::EmptyStream`] if the
    /// string holds no bits.
    pub fn parse(s: &str) -> Result<Self> {
        let mut out = Bitstream::new();
        for (position, c) in s.chars().enumerate() {
            match c {
                '0' => out.push(false),
                '1' => out.push(true),
                c if c.is_whitespace() || c == '_' => {}
                character => {
                    return Err(Error::InvalidCharacter {
                        character,
                        position,
                    })
                }
            }
        }
        if out.is_empty() {
            Err(Error::EmptyStream)
        } else {
            Ok(out)
        }
    }

    /// Number of bits in the stream.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the stream contains no bits.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends a bit to the end of the stream.
    pub fn push(&mut self, bit: bool) {
        let word = self.len / WORD_BITS;
        let offset = self.len % WORD_BITS;
        if word == self.words.len() {
            self.words.push(0);
        }
        if bit {
            self.words[word] |= 1u64 << offset;
        }
        self.len += 1;
    }

    /// Returns bit `index`, or `None` if out of bounds.
    #[must_use]
    pub fn get(&self, index: usize) -> Option<bool> {
        if index >= self.len {
            return None;
        }
        let word = index / WORD_BITS;
        let offset = index % WORD_BITS;
        Some((self.words[word] >> offset) & 1 == 1)
    }

    /// Returns bit `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    #[must_use]
    pub fn bit(&self, index: usize) -> bool {
        self.get(index)
            .unwrap_or_else(|| panic!("bit index {index} out of bounds for length {}", self.len))
    }

    /// Sets bit `index` to `bit`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    pub fn set(&mut self, index: usize, bit: bool) {
        assert!(
            index < self.len,
            "bit index {index} out of bounds for length {}",
            self.len
        );
        let word = index / WORD_BITS;
        let offset = index % WORD_BITS;
        if bit {
            self.words[word] |= 1u64 << offset;
        } else {
            self.words[word] &= !(1u64 << offset);
        }
    }

    /// Number of 1s in the stream.
    #[must_use]
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The packed storage words, 64 stream bits per word in stream order.
    ///
    /// Bit `i` of the stream is bit `i % 64` of word `i / 64`. Bits at
    /// positions `>= len()` in the final word are always 0.
    #[must_use]
    pub fn as_words(&self) -> &[u64] {
        &self.words
    }

    /// Number of valid stream bits in storage word `word_index` (64 for every
    /// full word, `len % 64` for a partial final word, 0 past the end).
    #[must_use]
    pub fn word_len(&self, word_index: usize) -> usize {
        let start = word_index * WORD_BITS;
        self.len.saturating_sub(start).min(WORD_BITS)
    }

    /// Builds a stream of length `len` directly from packed words.
    ///
    /// Bits beyond `len` in the final word are cleared.
    ///
    /// # Panics
    ///
    /// Panics if `words.len() != len.div_ceil(64)`.
    #[must_use]
    pub fn from_words(words: Vec<u64>, len: usize) -> Self {
        assert_eq!(
            words.len(),
            len.div_ceil(WORD_BITS),
            "word count {} does not match stream length {len}",
            words.len()
        );
        let mut s = Bitstream { words, len };
        s.mask_tail();
        s
    }

    /// Builds a stream of length `len` where storage word `w` is `f(w)`
    /// (the word-parallel analogue of [`Bitstream::from_fn`]).
    ///
    /// Only the low `word_len(w)` bits of each produced word are kept.
    #[must_use]
    pub fn from_word_fn<F: FnMut(usize) -> u64>(len: usize, f: F) -> Self {
        let words = (0..len.div_ceil(WORD_BITS)).map(f).collect();
        Self::from_words(words, len)
    }

    /// Appends the low `nbits` bits of `word` to the stream (bit 0 first).
    ///
    /// # Panics
    ///
    /// Panics if `nbits > 64`.
    pub fn push_word(&mut self, word: u64, nbits: usize) {
        assert!(
            nbits <= WORD_BITS,
            "cannot push {nbits} bits from a 64-bit word"
        );
        if nbits == 0 {
            return;
        }
        let word = word & tail_mask_for(nbits);
        let offset = self.len % WORD_BITS;
        if offset == 0 {
            self.words.push(word);
        } else {
            *self
                .words
                .last_mut()
                .expect("offset > 0 implies a partial word") |= word << offset;
            if offset + nbits > WORD_BITS {
                self.words.push(word >> (WORD_BITS - offset));
            }
        }
        self.len += nbits;
    }

    /// Applies `f` to every storage word, producing a stream of the same
    /// length. Tail bits beyond the length are cleared afterwards, so `f` may
    /// freely produce them (e.g. `|w| !w` for NOT).
    #[must_use]
    pub fn map_words<F: FnMut(u64) -> u64>(&self, mut f: F) -> Bitstream {
        let mut out = Bitstream {
            words: self.words.iter().map(|&w| f(w)).collect(),
            len: self.len,
        };
        out.mask_tail();
        out
    }

    /// Iterates over paired storage words of two streams.
    ///
    /// The iterator yields `min(word-count)` pairs; use
    /// [`Bitstream::zip_with_words`] when a length check and a combined output
    /// stream are wanted. This is the accumulation primitive behind the
    /// word-parallel `scc` joint counting.
    pub fn zip_words<'a>(&'a self, other: &'a Bitstream) -> impl Iterator<Item = (u64, u64)> + 'a {
        self.words.iter().copied().zip(other.words.iter().copied())
    }

    /// Combines two equal-length streams word by word with `f`, the bulk
    /// combinator every binary logic op is built on. Tail bits beyond the
    /// length are cleared afterwards.
    ///
    /// # Errors
    ///
    /// Returns [`Error::LengthMismatch`] if the lengths differ.
    pub fn zip_with_words<F: FnMut(u64, u64) -> u64>(
        &self,
        other: &Bitstream,
        mut f: F,
    ) -> Result<Bitstream> {
        if self.len != other.len {
            return Err(Error::LengthMismatch {
                left: self.len,
                right: other.len,
            });
        }
        let mut out = Bitstream {
            words: self
                .words
                .iter()
                .zip(other.words.iter())
                .map(|(&a, &b)| f(a, b))
                .collect(),
            len: self.len,
        };
        out.mask_tail();
        Ok(out)
    }

    /// Unipolar value of the stream (fraction of 1s). Returns 0 for an empty stream.
    #[must_use]
    pub fn value(&self) -> f64 {
        if self.len == 0 {
            0.0
        } else {
            self.count_ones() as f64 / self.len as f64
        }
    }

    /// Unipolar value as a validated [`Probability`].
    #[must_use]
    pub fn probability(&self) -> Probability {
        Probability::saturating(self.value())
    }

    /// Bipolar value of the stream (`2·value − 1`). Returns −1 for an empty stream.
    #[must_use]
    pub fn bipolar_value(&self) -> f64 {
        2.0 * self.value() - 1.0
    }

    /// Iterates over the bits in stream order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            stream: self,
            index: 0,
        }
    }

    /// Renders the stream as a string of `0`/`1` characters in stream order.
    #[must_use]
    pub fn to_bit_string(&self) -> String {
        self.iter().map(|b| if b { '1' } else { '0' }).collect()
    }

    /// Bitwise AND of two equal-length streams.
    ///
    /// With uncorrelated unipolar inputs this is SC multiplication (paper Fig. 1a).
    ///
    /// # Panics
    ///
    /// Panics if the streams have different lengths; use [`Bitstream::try_and`]
    /// for a fallible variant.
    #[must_use]
    pub fn and(&self, other: &Bitstream) -> Bitstream {
        self.try_and(other)
            .expect("bitstream length mismatch in and()")
    }

    /// Fallible bitwise AND.
    ///
    /// # Errors
    ///
    /// Returns [`Error::LengthMismatch`] if the lengths differ.
    pub fn try_and(&self, other: &Bitstream) -> Result<Bitstream> {
        self.zip_with_words(other, |a, b| a & b)
    }

    /// Bitwise OR of two equal-length streams.
    ///
    /// With negatively correlated unipolar inputs this is SC saturating
    /// addition; with positively correlated inputs it is SC maximum.
    ///
    /// # Panics
    ///
    /// Panics if the streams have different lengths.
    #[must_use]
    pub fn or(&self, other: &Bitstream) -> Bitstream {
        self.try_or(other)
            .expect("bitstream length mismatch in or()")
    }

    /// Fallible bitwise OR.
    ///
    /// # Errors
    ///
    /// Returns [`Error::LengthMismatch`] if the lengths differ.
    pub fn try_or(&self, other: &Bitstream) -> Result<Bitstream> {
        self.zip_with_words(other, |a, b| a | b)
    }

    /// Bitwise XOR of two equal-length streams.
    ///
    /// With positively correlated unipolar inputs this computes `|pX − pY|`
    /// (SC subtraction, paper Fig. 2c).
    ///
    /// # Panics
    ///
    /// Panics if the streams have different lengths.
    #[must_use]
    pub fn xor(&self, other: &Bitstream) -> Bitstream {
        self.try_xor(other)
            .expect("bitstream length mismatch in xor()")
    }

    /// Fallible bitwise XOR.
    ///
    /// # Errors
    ///
    /// Returns [`Error::LengthMismatch`] if the lengths differ.
    pub fn try_xor(&self, other: &Bitstream) -> Result<Bitstream> {
        self.zip_with_words(other, |a, b| a ^ b)
    }

    /// Bitwise XNOR of two equal-length streams (bipolar SC multiplication).
    ///
    /// # Panics
    ///
    /// Panics if the streams have different lengths.
    #[must_use]
    pub fn xnor(&self, other: &Bitstream) -> Bitstream {
        self.try_xnor(other)
            .expect("bitstream length mismatch in xnor()")
    }

    /// Fallible bitwise XNOR.
    ///
    /// # Errors
    ///
    /// Returns [`Error::LengthMismatch`] if the lengths differ.
    pub fn try_xnor(&self, other: &Bitstream) -> Result<Bitstream> {
        self.zip_with_words(other, |a, b| !(a ^ b))
    }

    /// Bitwise NOT of the stream (computes `1 − pX` in unipolar, `−x` in bipolar).
    #[must_use]
    pub fn not(&self) -> Bitstream {
        self.map_words(|w| !w)
    }

    /// Multiplexes two equal-length streams with a select stream:
    /// output bit `i` is `hi[i]` when `select[i]` is 1, else `lo[i]`.
    ///
    /// With an uncorrelated 0.5-valued select this is the SC scaled adder
    /// (paper Fig. 1b / 2a).
    ///
    /// # Errors
    ///
    /// Returns [`Error::LengthMismatch`] if any of the lengths differ.
    pub fn mux(lo: &Bitstream, hi: &Bitstream, select: &Bitstream) -> Result<Bitstream> {
        if lo.len != hi.len {
            return Err(Error::LengthMismatch {
                left: lo.len,
                right: hi.len,
            });
        }
        if lo.len != select.len {
            return Err(Error::LengthMismatch {
                left: lo.len,
                right: select.len,
            });
        }
        let mut out = Bitstream::zeros(lo.len);
        for i in 0..out.words.len() {
            out.words[i] = (select.words[i] & hi.words[i]) | (!select.words[i] & lo.words[i]);
        }
        out.mask_tail();
        Ok(out)
    }

    /// Returns a stream delayed by `k` cycles: the first `k` output bits are
    /// `fill`, and bit `i + k` of the output equals bit `i` of the input; the
    /// last `k` input bits are dropped so the length is preserved.
    ///
    /// This is the behaviour of `k` isolator flip-flops in series.
    #[must_use]
    pub fn delayed(&self, k: usize, fill: bool) -> Bitstream {
        if k >= self.len {
            return if fill {
                Bitstream::ones(self.len)
            } else {
                Bitstream::zeros(self.len)
            };
        }
        let word_shift = k / WORD_BITS;
        let bit_shift = (k % WORD_BITS) as u32;
        let mut words = vec![0u64; self.words.len()];
        for w in word_shift..self.words.len() {
            let lo = self.words[w - word_shift];
            words[w] = if bit_shift == 0 {
                lo
            } else {
                let carry = if w > word_shift {
                    self.words[w - word_shift - 1] >> (64 - bit_shift)
                } else {
                    0
                };
                (lo << bit_shift) | carry
            };
        }
        if fill {
            for word in words.iter_mut().take(k / WORD_BITS) {
                *word = u64::MAX;
            }
            if !k.is_multiple_of(WORD_BITS) {
                words[k / WORD_BITS] |= tail_mask_for(k % WORD_BITS);
            }
        }
        let mut out = Bitstream {
            words,
            len: self.len,
        };
        out.mask_tail();
        out
    }

    /// Clears any set bits beyond `len` in the last storage word.
    fn mask_tail(&mut self) {
        if let Some(last) = self.words.last_mut() {
            *last &= tail_mask_for(self.len);
        }
        // Drop any excess words (possible after not()) — keep invariant tight.
        let needed = self.len.div_ceil(WORD_BITS);
        self.words.truncate(needed);
    }
}

/// Mask selecting the low `len % 64` bits: all 64 when `len` is a *positive*
/// multiple of 64, and `0` for a zero-length stream, which has no valid bits
/// at all (`0 % 64 == 0` must not select the full word).
fn tail_mask_for(len: usize) -> u64 {
    let rem = len % WORD_BITS;
    if len == 0 {
        0
    } else if rem == 0 {
        u64::MAX
    } else {
        (1u64 << rem) - 1
    }
}

impl fmt::Debug for Bitstream {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.len <= 64 {
            write!(
                f,
                "Bitstream({}, p={:.4})",
                self.to_bit_string(),
                self.value()
            )
        } else {
            write!(
                f,
                "Bitstream(len={}, ones={}, p={:.4})",
                self.len,
                self.count_ones(),
                self.value()
            )
        }
    }
}

impl fmt::Display for Bitstream {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_bit_string())
    }
}

impl FromIterator<bool> for Bitstream {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        Bitstream::from_bools(iter)
    }
}

impl Extend<bool> for Bitstream {
    fn extend<I: IntoIterator<Item = bool>>(&mut self, iter: I) {
        for b in iter {
            self.push(b);
        }
    }
}

impl<'a> IntoIterator for &'a Bitstream {
    type Item = bool;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

/// Iterator over the bits of a [`Bitstream`] in stream order.
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    stream: &'a Bitstream,
    index: usize,
}

impl Iterator for Iter<'_> {
    type Item = bool;

    fn next(&mut self) -> Option<bool> {
        let bit = self.stream.get(self.index)?;
        self.index += 1;
        Some(bit)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.stream.len - self.index.min(self.stream.len);
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for Iter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn paper_intro_example_value() {
        // X = 01000100 encodes 0.25 (paper §I).
        let x = Bitstream::parse("01000100").unwrap();
        assert_eq!(x.len(), 8);
        assert_eq!(x.count_ones(), 2);
        assert_eq!(x.value(), 0.25);
    }

    #[test]
    fn paper_intro_example_multiplication() {
        // X = 01010101 (0.5), Y = 11111100 (0.75), Z = X & Y = 01010100 (0.375).
        let x = Bitstream::parse("01010101").unwrap();
        let y = Bitstream::parse("11111100").unwrap();
        let z = x.and(&y);
        assert_eq!(z.to_bit_string(), "01010100");
        assert_eq!(z.value(), 0.375);
    }

    #[test]
    fn bipolar_encoding_example() {
        // X = 01100001 has unipolar 3/8 and bipolar -1/4 (paper §II.A).
        let x = Bitstream::parse("01100001").unwrap();
        assert_eq!(x.value(), 3.0 / 8.0);
        assert!((x.bipolar_value() - (-0.25)).abs() < 1e-12);
    }

    #[test]
    fn zeros_ones_and_counts() {
        let z = Bitstream::zeros(100);
        let o = Bitstream::ones(100);
        assert_eq!(z.count_ones(), 0);
        assert_eq!(o.count_ones(), 100);
        assert_eq!(z.value(), 0.0);
        assert_eq!(o.value(), 1.0);
        assert_eq!(o.len() - o.count_ones(), 0);
    }

    #[test]
    fn ones_masks_tail_bits() {
        let o = Bitstream::ones(70);
        assert_eq!(o.count_ones(), 70);
        let n = o.not();
        assert_eq!(n.count_ones(), 0);
        assert_eq!(n.len(), 70);
    }

    #[test]
    fn push_get_set_round_trip() {
        let mut s = Bitstream::new();
        for i in 0..200 {
            s.push(i % 3 == 0);
        }
        assert_eq!(s.len(), 200);
        for i in 0..200 {
            assert_eq!(s.bit(i), i % 3 == 0, "bit {i}");
        }
        s.set(7, true);
        assert!(s.bit(7));
        s.set(7, false);
        assert!(!s.bit(7));
        assert_eq!(s.get(200), None);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn set_out_of_bounds_panics() {
        let mut s = Bitstream::zeros(8);
        s.set(8, true);
    }

    #[test]
    fn parse_rejects_empty() {
        assert_eq!(Bitstream::parse("   "), Err(Error::EmptyStream));
    }

    #[test]
    fn parse_skips_separators() {
        let s = Bitstream::parse("1010_1010 11").unwrap();
        assert_eq!(s.len(), 10);
        assert_eq!(s.count_ones(), 6);
    }

    #[test]
    fn parse_rejects_unknown_characters() {
        assert_eq!(
            Bitstream::parse("10x1"),
            Err(Error::InvalidCharacter {
                character: 'x',
                position: 2
            })
        );
        assert_eq!(
            Bitstream::parse("0b101"),
            Err(Error::InvalidCharacter {
                character: 'b',
                position: 1
            })
        );
    }

    #[test]
    fn not_computes_complement_value() {
        let x = Bitstream::parse("11110000").unwrap();
        let n = x.not();
        assert_eq!(n.value(), 0.5);
        assert_eq!(n.to_bit_string(), "00001111");
        assert_eq!(x.and(&n).count_ones(), 0);
        assert_eq!(x.or(&n).count_ones(), 8);
    }

    #[test]
    fn mux_selects_bitwise() {
        // Paper Fig. 1b: X = 01110111 (0.75), Y = 11000000 (0.25), R = 10100110 (0.5).
        let x = Bitstream::parse("01110111").unwrap();
        let y = Bitstream::parse("11000000").unwrap();
        let r = Bitstream::parse("10100110").unwrap();
        // select = R: output takes X when R=1 else Y.
        let z = Bitstream::mux(&y, &x, &r).unwrap();
        assert_eq!(z.value(), 0.5);
    }

    #[test]
    fn mux_length_mismatch_errors() {
        let a = Bitstream::zeros(8);
        let b = Bitstream::zeros(9);
        let r = Bitstream::zeros(8);
        assert!(matches!(
            Bitstream::mux(&a, &b, &r),
            Err(Error::LengthMismatch { .. })
        ));
        assert!(matches!(
            Bitstream::mux(&a, &a, &b),
            Err(Error::LengthMismatch { .. })
        ));
    }

    #[test]
    fn binary_op_length_mismatch_errors() {
        let a = Bitstream::zeros(8);
        let b = Bitstream::zeros(16);
        assert!(a.try_and(&b).is_err());
        assert!(a.try_or(&b).is_err());
        assert!(a.try_xor(&b).is_err());
        assert!(a.try_xnor(&b).is_err());
    }

    #[test]
    fn xnor_is_not_of_xor() {
        let a = Bitstream::parse("1100110011").unwrap();
        let b = Bitstream::parse("1010101010").unwrap();
        assert_eq!(a.xnor(&b), a.xor(&b).not());
    }

    #[test]
    fn delayed_shifts_and_preserves_length() {
        let x = Bitstream::parse("10110011").unwrap();
        let d = x.delayed(2, false);
        assert_eq!(d.to_bit_string(), "00101100");
        assert_eq!(d.len(), 8);
        let d0 = x.delayed(0, true);
        assert_eq!(d0, x);
    }

    #[test]
    fn iterator_round_trip() {
        let x = Bitstream::parse("1001110").unwrap();
        let collected: Bitstream = x.iter().collect();
        assert_eq!(collected, x);
        assert_eq!(x.iter().len(), 7);
        let bools: Vec<bool> = x.iter().collect();
        assert_eq!(bools.len(), 7);
        assert_eq!(Bitstream::from_bools(bools), x);
    }

    #[test]
    fn extend_appends() {
        let mut x = Bitstream::parse("10").unwrap();
        x.extend([true, false, true]);
        assert_eq!(x.to_bit_string(), "10101");
    }

    #[test]
    fn debug_format_short_and_long() {
        let short = Bitstream::parse("1010").unwrap();
        assert!(format!("{short:?}").contains("1010"));
        let long = Bitstream::zeros(200);
        assert!(format!("{long:?}").contains("len=200"));
    }

    #[test]
    fn from_fn_matches_definition() {
        let s = Bitstream::from_fn(10, |i| i % 2 == 0);
        assert_eq!(s.to_bit_string(), "1010101010");
    }

    #[test]
    fn word_api_round_trip() {
        let x = Bitstream::from_fn(130, |i| i % 7 == 0);
        assert_eq!(x.as_words().len(), 3);
        assert_eq!(x.word_len(0), 64);
        assert_eq!(x.word_len(2), 2);
        assert_eq!(x.word_len(3), 0);
        assert_eq!(tail_mask_for(x.len()), 0b11);
        let rebuilt = Bitstream::from_words(x.as_words().to_vec(), x.len());
        assert_eq!(rebuilt, x);
        let by_fn = Bitstream::from_word_fn(x.len(), |w| x.as_words()[w]);
        assert_eq!(by_fn, x);
    }

    /// Regression: a zero-length stream has **no** valid bits, so its tail
    /// mask is `0` — the `0 % 64 == 0` case used to fall into the full-word
    /// branch and claim all 64 bits were valid.
    #[test]
    fn empty_stream_tail_mask_is_zero() {
        assert_eq!(tail_mask_for(0), 0);
        // Positive multiples of 64 still claim the full word; partial words
        // still mask exactly their valid bits.
        assert_eq!(tail_mask_for(64), u64::MAX);
        assert_eq!(tail_mask_for(128), u64::MAX);
        assert_eq!(tail_mask_for(1), 1);
        assert_eq!(tail_mask_for(65), 1);
        // Masking an arbitrary word selects nothing for an empty stream.
        assert_eq!(0xDEAD_BEEF_u64 & tail_mask_for(0), 0);
    }

    /// Regression companion: word iteration over zero-length streams is
    /// empty and stays consistent through the word-level constructors and
    /// combinators.
    #[test]
    fn empty_stream_word_iteration() {
        let empty = Bitstream::zeros(0);
        assert_eq!(empty.len(), 0);
        assert!(empty.as_words().is_empty());
        assert_eq!(empty.word_len(0), 0);
        assert_eq!(empty.count_ones(), 0);
        assert_eq!(Bitstream::from_word_fn(0, |_| u64::MAX), empty);
        assert_eq!(Bitstream::from_words(Vec::new(), 0), empty);
        assert_eq!(empty.not(), empty, "complement of nothing is nothing");
        assert_eq!(empty.map_words(|w| !w), empty);
        assert_eq!(empty.zip_words(&empty).count(), 0);
        let mut pushed = Bitstream::new();
        pushed.push_word(u64::MAX, 0);
        assert_eq!(pushed, empty);
    }

    #[test]
    fn push_word_matches_bit_pushes() {
        for initial in [0usize, 1, 63, 64, 65] {
            for nbits in [0usize, 1, 37, 63, 64] {
                let word = 0xDEAD_BEEF_CAFE_F00Du64;
                let mut a = Bitstream::from_fn(initial, |i| i % 3 == 0);
                let mut b = a.clone();
                a.push_word(word, nbits);
                for i in 0..nbits {
                    b.push((word >> i) & 1 == 1);
                }
                assert_eq!(a, b, "initial {initial} nbits {nbits}");
            }
        }
    }

    #[test]
    fn map_and_zip_combinators() {
        let x = Bitstream::from_fn(100, |i| i % 2 == 0);
        let y = Bitstream::from_fn(100, |i| i % 3 == 0);
        assert_eq!(x.map_words(|w| !w), x.not());
        assert_eq!(x.zip_with_words(&y, |a, b| a & b).unwrap(), x.and(&y));
        assert_eq!(x.zip_words(&y).count(), 2);
        assert!(x.zip_with_words(&Bitstream::zeros(7), |a, _| a).is_err());
    }

    #[test]
    fn word_parallel_matches_reference_at_odd_lengths() {
        use crate::reference;
        for n in [1usize, 2, 63, 64, 65, 127, 128, 129, 1000] {
            let x = Bitstream::from_fn(n, |i| (i * 7 + 3) % 5 < 2);
            let y = Bitstream::from_fn(n, |i| (i * 11 + 1) % 3 == 0);
            assert_eq!(x.and(&y), reference::and(&x, &y).unwrap(), "and n={n}");
            assert_eq!(x.or(&y), reference::or(&x, &y).unwrap(), "or n={n}");
            assert_eq!(x.xor(&y), reference::xor(&x, &y).unwrap(), "xor n={n}");
            assert_eq!(x.xnor(&y), reference::xnor(&x, &y).unwrap(), "xnor n={n}");
            assert_eq!(x.not(), reference::not(&x), "not n={n}");
            assert_eq!(x.count_ones(), reference::count_ones(&x), "count n={n}");
            let sel = Bitstream::from_fn(n, |i| i % 2 == 1);
            assert_eq!(
                Bitstream::mux(&x, &y, &sel).unwrap(),
                reference::mux(&x, &y, &sel).unwrap(),
                "mux n={n}"
            );
            for k in [0usize, 1, 63, 64, 65, n / 2, n, n + 3] {
                assert_eq!(
                    x.delayed(k, false),
                    reference::delayed(&x, k, false),
                    "delay n={n} k={k}"
                );
                assert_eq!(
                    x.delayed(k, true),
                    reference::delayed(&x, k, true),
                    "delay-fill n={n} k={k}"
                );
            }
        }
    }

    proptest! {
        #[test]
        fn prop_and_value_never_exceeds_either_input(bits_a in proptest::collection::vec(any::<bool>(), 1..300),
                                                     bits_b in proptest::collection::vec(any::<bool>(), 1..300)) {
            let n = bits_a.len().min(bits_b.len());
            let a = Bitstream::from_bools(bits_a.into_iter().take(n));
            let b = Bitstream::from_bools(bits_b.into_iter().take(n));
            let z = a.and(&b);
            prop_assert!(z.value() <= a.value() + 1e-12);
            prop_assert!(z.value() <= b.value() + 1e-12);
        }

        #[test]
        fn prop_or_value_at_least_either_input(bits_a in proptest::collection::vec(any::<bool>(), 1..300),
                                               bits_b in proptest::collection::vec(any::<bool>(), 1..300)) {
            let n = bits_a.len().min(bits_b.len());
            let a = Bitstream::from_bools(bits_a.into_iter().take(n));
            let b = Bitstream::from_bools(bits_b.into_iter().take(n));
            let z = a.or(&b);
            prop_assert!(z.value() + 1e-12 >= a.value());
            prop_assert!(z.value() + 1e-12 >= b.value());
        }

        #[test]
        fn prop_not_complements_value(bits in proptest::collection::vec(any::<bool>(), 1..300)) {
            let a = Bitstream::from_bools(bits);
            prop_assert!((a.not().value() - (1.0 - a.value())).abs() < 1e-12);
        }

        #[test]
        fn prop_inclusion_exclusion(bits_a in proptest::collection::vec(any::<bool>(), 1..300),
                                    bits_b in proptest::collection::vec(any::<bool>(), 1..300)) {
            let n = bits_a.len().min(bits_b.len());
            let a = Bitstream::from_bools(bits_a.into_iter().take(n));
            let b = Bitstream::from_bools(bits_b.into_iter().take(n));
            let and_ones = a.and(&b).count_ones();
            let or_ones = a.or(&b).count_ones();
            prop_assert_eq!(and_ones + or_ones, a.count_ones() + b.count_ones());
        }

        #[test]
        fn prop_parse_round_trip(bits in proptest::collection::vec(any::<bool>(), 1..300)) {
            let a = Bitstream::from_bools(bits);
            let s = a.to_bit_string();
            prop_assert_eq!(Bitstream::parse(&s).unwrap(), a);
        }

        /// Every constructor and combinator holds exactly `len.div_ceil(64)`
        /// words with every bit past `len` zero; the word kernels
        /// (`count_ones`, `scc`, equality) count those bits as stream bits.
        #[test]
        fn prop_every_constructor_keeps_a_zero_tail(len in 0usize..=300, multiple in 0usize..=4) {
            for n in [len, multiple * WORD_BITS] {
                let ones = Bitstream::ones(n);
                let zeros = Bitstream::zeros(n);
                let mut pushed = Bitstream::new();
                for _ in 0..n {
                    pushed.push(true);
                }
                let mut pushed_words = Bitstream::new();
                while pushed_words.len() < n {
                    pushed_words.push_word(u64::MAX, (n - pushed_words.len()).min(37));
                }
                let mut built = vec![
                    ("zeros", zeros.clone()),
                    ("ones", ones.clone()),
                    ("from_bools", Bitstream::from_bools(std::iter::repeat_n(true, n))),
                    ("from_fn", Bitstream::from_fn(n, |_| true)),
                    ("from_word_fn", Bitstream::from_word_fn(n, |_| u64::MAX)),
                    ("from_words", Bitstream::from_words(vec![u64::MAX; n.div_ceil(WORD_BITS)], n)),
                    ("push", pushed),
                    ("push_word", pushed_words),
                    ("map_words", zeros.map_words(|w| !w)),
                    ("not", zeros.not()),
                    ("and", ones.and(&ones)),
                    ("or", ones.or(&zeros)),
                    ("xor", ones.xor(&zeros)),
                    ("xnor", zeros.xnor(&zeros)),
                    ("mux", Bitstream::mux(&ones, &ones, &zeros).unwrap()),
                    ("zip_with_words", zeros.zip_with_words(&zeros, |a, b| !(a | b)).unwrap()),
                ];
                if n > 0 {
                    built.push(("parse", Bitstream::parse(&"1".repeat(n)).unwrap()));
                }
                for k in [0, 1, 63, 64, 65, n / 2, n + 1] {
                    built.push(("delayed", zeros.delayed(k, true)));
                }
                for (name, s) in built {
                    prop_assert_eq!(s.len(), n, "{} len", name);
                    prop_assert_eq!(s.as_words().len(), n.div_ceil(WORD_BITS), "{} words at n={}", name, n);
                    if let (Some(&last), rem @ 1..) = (s.as_words().last(), n % WORD_BITS) {
                        prop_assert_eq!(last >> rem, 0, "{} dirty tail at n={}", name, n);
                    }
                }
            }
        }
    }
}
