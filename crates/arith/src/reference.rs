//! Retained bit-serial reference implementations of the arithmetic operators.
//!
//! Mirrors `sc_bitstream::reference`: these are the original
//! one-bit-per-cycle formulations, kept as the executable specification the
//! word-parallel operators are verified against (bit-identical, including at
//! lengths that are not multiples of 64) and as the baseline the benchmark
//! suite measures speedups from. Single-gate operators (AND multiply, OR max,
//! XOR subtract, ...) have their bit-serial references in
//! `sc_bitstream::reference`; this module covers the counter-based designs.

use sc_bitstream::{Bitstream, Error, Result};

/// Bit-serial correlation-agnostic scaled addition (the original `ca_add`).
///
/// # Errors
///
/// Returns a length-mismatch error if the streams differ in length.
pub fn ca_add(x: &Bitstream, y: &Bitstream) -> Result<Bitstream> {
    if x.len() != y.len() {
        return Err(Error::LengthMismatch {
            left: x.len(),
            right: y.len(),
        });
    }
    let mut acc = 0u32;
    let out = Bitstream::from_fn(x.len(), |i| {
        acc += u32::from(x.bit(i)) + u32::from(y.bit(i));
        if acc >= 2 {
            acc -= 2;
            true
        } else {
            false
        }
    });
    Ok(out)
}

/// Bit-serial correlation-agnostic maximum (the original `ca_max`).
///
/// # Errors
///
/// Returns a length-mismatch error if the streams differ in length.
pub fn ca_max(x: &Bitstream, y: &Bitstream) -> Result<Bitstream> {
    if x.len() != y.len() {
        return Err(Error::LengthMismatch {
            left: x.len(),
            right: y.len(),
        });
    }
    let (mut cx, mut cy, mut co) = (0u64, 0u64, 0u64);
    let out = Bitstream::from_fn(x.len(), |i| {
        cx += u64::from(x.bit(i));
        cy += u64::from(y.bit(i));
        let target = cx.max(cy);
        let bit = target > co;
        co = target;
        bit
    });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn references_agree_with_word_parallel_operators_at_odd_lengths() {
        for n in [1usize, 63, 64, 65, 130, 1000] {
            let x = Bitstream::from_fn(n, |i| (i * 13 + 5) % 7 < 3);
            let y = Bitstream::from_fn(n, |i| (i * 17 + 2) % 5 < 2);
            assert_eq!(
                crate::add::ca_add(&x, &y).unwrap(),
                ca_add(&x, &y).unwrap(),
                "ca_add n={n}"
            );
            assert_eq!(
                crate::maxmin::ca_max(&x, &y).unwrap(),
                ca_max(&x, &y).unwrap(),
                "ca_max n={n}"
            );
        }
    }
}
