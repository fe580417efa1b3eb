//! # sc-rng
//!
//! Random and low-discrepancy number sources used to generate stochastic
//! numbers (SNs) for the reproduction of *"Correlation Manipulating Circuits
//! for Stochastic Computing"* (DATE 2018).
//!
//! The paper's experiments draw stochastic numbers from four source families
//! (§II.B, Table II):
//!
//! * [`Lfsr`] — linear feedback shift registers, the classic compact SC source,
//! * [`VanDerCorput`] — the base-2 Van der Corput low-discrepancy sequence,
//! * [`Halton`] — Van der Corput sequences in arbitrary (usually prime) bases,
//! * [`Sobol`] — Sobol sequences (Liu & Han, DATE 2017).
//!
//! All sources implement [`RandomSource`], which yields values in `[0, 1)`.
//! A digital-to-stochastic converter compares the target value against these
//! samples to emit bits (see the `sc-convert` crate). [`Replay`] wraps a
//! source so that the draws made after a reset are logged and read back
//! after the next one, instead of stepping the source again.
//!
//! # Example
//!
//! ```
//! use sc_rng::{RandomSource, VanDerCorput, Halton};
//!
//! let mut vdc = VanDerCorput::new();
//! let mut halton = Halton::new(3);
//! // Low-discrepancy sources fill the unit interval evenly.
//! let a: Vec<f64> = (0..4).map(|_| vdc.next_unit()).collect();
//! assert_eq!(a, vec![0.5, 0.25, 0.75, 0.125]);
//! let b: f64 = halton.next_unit();
//! assert!((0.0..1.0).contains(&b));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod counter;
pub mod halton;
pub mod lfsr;
pub mod replay;
pub mod sobol;
pub mod source;
pub mod spec;
pub mod vandercorput;

pub use counter::CounterSource;
pub use halton::Halton;
pub use lfsr::{Lfsr, LfsrStructure};
pub use replay::{Draws, Replay};
pub use sobol::Sobol;
pub use source::{RandomSource, RngKind, SourceExt};
pub use spec::{SourceGateModel, SourceSpec};
pub use vandercorput::VanDerCorput;

/// Constructs a boxed source of the requested kind with sensible defaults,
/// matching the configurations used in the paper's Table II.
///
/// * [`RngKind::Lfsr`] — 16-bit Fibonacci LFSR, seed `0xACE1`,
/// * [`RngKind::VanDerCorput`] — base-2 Van der Corput,
/// * [`RngKind::Halton`] — Halton base 3,
/// * [`RngKind::Sobol`] — Sobol dimension 1,
/// * [`RngKind::Counter`] — 256-state ramp counter.
///
/// # Example
///
/// ```
/// use sc_rng::{build_source, RngKind};
///
/// let mut src = build_source(RngKind::Halton);
/// assert!(src.next_unit() < 1.0);
/// ```
#[must_use]
pub fn build_source(kind: RngKind) -> Box<dyn RandomSource> {
    match kind {
        RngKind::Lfsr => Box::new(Lfsr::new(16, 0xACE1)),
        RngKind::VanDerCorput => Box::new(VanDerCorput::new()),
        RngKind::Halton => Box::new(Halton::new(3)),
        RngKind::Sobol => Box::new(Sobol::new(1)),
        RngKind::Counter => Box::new(CounterSource::new(256)),
    }
}

/// Constructs a boxed source of the requested kind with a variant index, so
/// that several *mutually uncorrelated* sources of the same family can be
/// instantiated (different LFSR seeds, phase-shifted Van der Corput sequences,
/// different Halton bases, different Sobol dimensions, phase-shifted counters).
///
/// Variant 0 is identical to [`build_source`].
#[must_use]
pub fn build_source_variant(kind: RngKind, variant: usize) -> Box<dyn RandomSource> {
    match kind {
        RngKind::Lfsr => {
            let seeds = [0xACE1u64, 0xBEEF, 0x1D0D, 0x7331, 0x42A7, 0x9D2C];
            Box::new(Lfsr::new(16, seeds[variant % seeds.len()]))
        }
        RngKind::VanDerCorput => {
            if variant == 0 {
                Box::new(VanDerCorput::new())
            } else {
                Box::new(VanDerCorput::with_offset(variant as u64 * 7919))
            }
        }
        RngKind::Halton => {
            let bases = [3u32, 5, 7, 11, 13, 17, 19, 23];
            Box::new(Halton::new(bases[variant % bases.len()]))
        }
        RngKind::Sobol => Box::new(Sobol::new(variant as u32 + 1)),
        RngKind::Counter => {
            if variant == 0 {
                Box::new(CounterSource::new(256))
            } else {
                Box::new(CounterSource::with_phase(256, (variant * 61) as u64))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_source_covers_all_kinds() {
        for kind in [
            RngKind::Lfsr,
            RngKind::VanDerCorput,
            RngKind::Halton,
            RngKind::Sobol,
            RngKind::Counter,
        ] {
            let mut src = build_source(kind);
            for _ in 0..100 {
                let v = src.next_unit();
                assert!((0.0..1.0).contains(&v), "{kind:?} produced {v}");
            }
        }
    }

    #[test]
    fn variants_differ() {
        for kind in [
            RngKind::Lfsr,
            RngKind::VanDerCorput,
            RngKind::Halton,
            RngKind::Sobol,
            RngKind::Counter,
        ] {
            let mut a = build_source_variant(kind, 0);
            let mut b = build_source_variant(kind, 1);
            let seq_a: Vec<f64> = (0..32).map(|_| a.next_unit()).collect();
            let seq_b: Vec<f64> = (0..32).map(|_| b.next_unit()).collect();
            assert_ne!(seq_a, seq_b, "{kind:?} variants should differ");
        }
    }

    #[test]
    fn variant_zero_matches_default() {
        for kind in [
            RngKind::Lfsr,
            RngKind::VanDerCorput,
            RngKind::Halton,
            RngKind::Sobol,
            RngKind::Counter,
        ] {
            let mut a = build_source(kind);
            let mut b = build_source_variant(kind, 0);
            let seq_a: Vec<f64> = (0..32).map(|_| a.next_unit()).collect();
            let seq_b: Vec<f64> = (0..32).map(|_| b.next_unit()).collect();
            assert_eq!(seq_a, seq_b, "{kind:?} variant 0 should match default");
        }
    }
}
