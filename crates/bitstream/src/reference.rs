//! Retained bit-serial reference implementations.
//!
//! Every operator in this crate (and the downstream arithmetic/manipulator
//! crates) runs on the word-parallel kernel layer: 64 stream bits per machine
//! operation. The functions here are the original one-bit-per-step
//! formulations, kept as an executable specification. Equivalence tests
//! assert bit-identical output between each word-parallel path and its
//! reference here — including at lengths that are not multiples of 64 — and
//! the benchmark suite uses them as the baseline the speedups are measured
//! against.

use crate::bitstream::Bitstream;
use crate::correlation::JointCounts;
use crate::error::{Error, Result};

/// Bit-serial binary combinator: `out[i] = f(x[i], y[i])`.
///
/// # Errors
///
/// Returns [`Error::LengthMismatch`] if the lengths differ.
pub fn zip_bits<F: FnMut(bool, bool) -> bool>(
    x: &Bitstream,
    y: &Bitstream,
    mut f: F,
) -> Result<Bitstream> {
    if x.len() != y.len() {
        return Err(Error::LengthMismatch {
            left: x.len(),
            right: y.len(),
        });
    }
    let mut out = Bitstream::zeros(x.len());
    for i in 0..x.len() {
        out.set(i, f(x.bit(i), y.bit(i)));
    }
    Ok(out)
}

/// Bit-serial AND.
///
/// # Errors
///
/// Returns [`Error::LengthMismatch`] if the lengths differ.
pub fn and(x: &Bitstream, y: &Bitstream) -> Result<Bitstream> {
    zip_bits(x, y, |a, b| a && b)
}

/// Bit-serial OR.
///
/// # Errors
///
/// Returns [`Error::LengthMismatch`] if the lengths differ.
pub fn or(x: &Bitstream, y: &Bitstream) -> Result<Bitstream> {
    zip_bits(x, y, |a, b| a || b)
}

/// Bit-serial XOR.
///
/// # Errors
///
/// Returns [`Error::LengthMismatch`] if the lengths differ.
pub fn xor(x: &Bitstream, y: &Bitstream) -> Result<Bitstream> {
    zip_bits(x, y, |a, b| a != b)
}

/// Bit-serial XNOR.
///
/// # Errors
///
/// Returns [`Error::LengthMismatch`] if the lengths differ.
pub fn xnor(x: &Bitstream, y: &Bitstream) -> Result<Bitstream> {
    zip_bits(x, y, |a, b| a == b)
}

/// Bit-serial NOT.
#[must_use]
pub fn not(x: &Bitstream) -> Bitstream {
    Bitstream::from_fn(x.len(), |i| !x.bit(i))
}

/// Bit-serial MUX: `out[i] = if select[i] { hi[i] } else { lo[i] }`.
///
/// # Errors
///
/// Returns [`Error::LengthMismatch`] if any length differs.
pub fn mux(lo: &Bitstream, hi: &Bitstream, select: &Bitstream) -> Result<Bitstream> {
    if lo.len() != hi.len() {
        return Err(Error::LengthMismatch {
            left: lo.len(),
            right: hi.len(),
        });
    }
    if lo.len() != select.len() {
        return Err(Error::LengthMismatch {
            left: lo.len(),
            right: select.len(),
        });
    }
    let mut out = Bitstream::zeros(lo.len());
    for i in 0..lo.len() {
        out.set(i, if select.bit(i) { hi.bit(i) } else { lo.bit(i) });
    }
    Ok(out)
}

/// Bit-serial delay: first `k` bits are `fill`, bit `i + k` is input bit `i`.
#[must_use]
pub fn delayed(x: &Bitstream, k: usize, fill: bool) -> Bitstream {
    let mut out = Bitstream::zeros(x.len());
    for i in 0..x.len() {
        let bit = if i < k { fill } else { x.bit(i - k) };
        out.set(i, bit);
    }
    out
}

/// Bit-serial 1s count.
#[must_use]
pub fn count_ones(x: &Bitstream) -> usize {
    (0..x.len()).filter(|&i| x.bit(i)).count()
}

/// Bit-serial joint-occurrence counting (the `scc` accumulation loop).
///
/// # Errors
///
/// Returns [`Error::LengthMismatch`] or [`Error::EmptyStream`] as appropriate.
pub fn joint_counts(x: &Bitstream, y: &Bitstream) -> Result<JointCounts> {
    if x.len() != y.len() {
        return Err(Error::LengthMismatch {
            left: x.len(),
            right: y.len(),
        });
    }
    if x.is_empty() {
        return Err(Error::EmptyStream);
    }
    let mut counts = JointCounts::default();
    for i in 0..x.len() {
        match (x.bit(i), y.bit(i)) {
            (true, true) => counts.a += 1,
            (true, false) => counts.b += 1,
            (false, true) => counts.c += 1,
            (false, false) => counts.d += 1,
        }
    }
    Ok(counts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_ops_match_small_examples() {
        let x = Bitstream::parse("1100").unwrap();
        let y = Bitstream::parse("1010").unwrap();
        assert_eq!(and(&x, &y).unwrap().to_bit_string(), "1000");
        assert_eq!(or(&x, &y).unwrap().to_bit_string(), "1110");
        assert_eq!(xor(&x, &y).unwrap().to_bit_string(), "0110");
        assert_eq!(xnor(&x, &y).unwrap().to_bit_string(), "1001");
        assert_eq!(not(&x).to_bit_string(), "0011");
        assert_eq!(count_ones(&x), 2);
        let j = joint_counts(&x, &y).unwrap();
        assert_eq!((j.a, j.b, j.c, j.d), (1, 1, 1, 1));
    }

    #[test]
    fn reference_errors_match() {
        let x = Bitstream::zeros(4);
        let y = Bitstream::zeros(5);
        assert!(and(&x, &y).is_err());
        assert!(mux(&x, &x, &y).is_err());
        assert!(joint_counts(&x, &y).is_err());
    }
}
