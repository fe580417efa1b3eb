//! Declarative source specifications.
//!
//! A [`SourceSpec`] is a plain-data description of a random source — family
//! plus configuration — that can be stored, compared, hashed, and turned into
//! a live [`RandomSource`] with [`SourceSpec::build`]. Higher layers (the
//! `sc_graph` dataflow compiler in particular) attach specs to graph nodes
//! instead of live sources so that:
//!
//! * plans stay `Send + Sync` and can be executed on many threads at once,
//!   each execution building its own deterministic source instances;
//! * two streams' correlation can be *reasoned about structurally*: streams
//!   generated from equal specs share every sample (maximally positively
//!   correlated, the shared-RNG technique of §II.B), while different specs
//!   give (close to) uncorrelated streams;
//! * a node can be placed mid-sequence via [`SourceSpec::build_skipped`],
//!   reproducing the state a shared hardware source would have after serving
//!   earlier consumers.

use crate::{CounterSource, Halton, Lfsr, RandomSource, RngKind, Sobol, VanDerCorput};
use std::fmt;

/// A buildable, comparable description of a [`RandomSource`].
///
/// # Example
///
/// ```
/// use sc_rng::{SourceSpec, RandomSource};
///
/// let spec = SourceSpec::VanDerCorput { offset: 0 };
/// let mut a = spec.build();
/// let mut b = spec.build();
/// // Equal specs build sources that emit identical sample sequences.
/// assert_eq!(a.next_unit(), b.next_unit());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum SourceSpec {
    /// A Fibonacci LFSR of the given register width and seed.
    Lfsr {
        /// Register width in bits.
        width: u32,
        /// Non-zero initial state.
        seed: u64,
    },
    /// The base-2 Van der Corput sequence, starting `offset` samples in.
    VanDerCorput {
        /// Number of leading samples to skip at construction.
        offset: u64,
    },
    /// A Halton (generalised Van der Corput) sequence.
    Halton {
        /// Radix of the digit reversal (usually a prime).
        base: u32,
        /// Number of leading samples to skip at construction.
        offset: u64,
    },
    /// A Sobol sequence dimension.
    Sobol {
        /// Sobol dimension index (1-based, as in `Sobol::new`).
        dimension: u32,
    },
    /// A deterministic ramp counter.
    Counter {
        /// Counter modulus (period).
        modulus: u64,
        /// Initial phase.
        phase: u64,
    },
}

impl SourceSpec {
    /// The family this spec describes.
    #[must_use]
    pub fn kind(&self) -> RngKind {
        match self {
            SourceSpec::Lfsr { .. } => RngKind::Lfsr,
            SourceSpec::VanDerCorput { .. } => RngKind::VanDerCorput,
            SourceSpec::Halton { .. } => RngKind::Halton,
            SourceSpec::Sobol { .. } => RngKind::Sobol,
            SourceSpec::Counter { .. } => RngKind::Counter,
        }
    }

    /// Builds a fresh source in the spec's initial state.
    #[must_use]
    pub fn build(&self) -> Box<dyn RandomSource> {
        match *self {
            SourceSpec::Lfsr { width, seed } => Box::new(Lfsr::new(width, seed)),
            SourceSpec::VanDerCorput { offset } => {
                if offset == 0 {
                    Box::new(VanDerCorput::new())
                } else {
                    Box::new(VanDerCorput::with_offset(offset))
                }
            }
            SourceSpec::Halton { base, offset } => {
                if offset == 0 {
                    Box::new(Halton::new(base))
                } else {
                    Box::new(Halton::with_offset(base, offset))
                }
            }
            SourceSpec::Sobol { dimension } => Box::new(Sobol::new(dimension)),
            SourceSpec::Counter { modulus, phase } => {
                if phase == 0 {
                    Box::new(CounterSource::new(modulus))
                } else {
                    Box::new(CounterSource::with_phase(modulus, phase))
                }
            }
        }
    }

    /// Gate-model parameters of the hardware generator this spec describes,
    /// used by the RTL lowering backend to size state registers and emit
    /// Verilog parameters, and by the structural cost bridge.
    #[must_use]
    pub fn gate_model(&self) -> SourceGateModel {
        match *self {
            SourceSpec::Lfsr { width, .. } => SourceGateModel {
                state_bits: width,
                sequential: true,
            },
            // A base-2 Van der Corput generator is a bit-reversed counter;
            // Halton generalises it to digit reversal in another radix. Both
            // are modelled at the default 16-bit hardware resolution.
            SourceSpec::VanDerCorput { .. } | SourceSpec::Halton { .. } => SourceGateModel {
                state_bits: 16,
                sequential: true,
            },
            // A Sobol generator keeps the previous sample and a direction
            // vector bank; 32 state bits is the usual hardware configuration.
            SourceSpec::Sobol { .. } => SourceGateModel {
                state_bits: 32,
                sequential: true,
            },
            SourceSpec::Counter { modulus, .. } => SourceGateModel {
                state_bits: (64 - modulus.saturating_sub(1).leading_zeros()).max(1),
                sequential: true,
            },
        }
    }

    /// Builds a fresh source and advances it by `skip` samples, reproducing
    /// the state a shared source instance would have after `skip` earlier
    /// draws by other consumers.
    ///
    /// Index-addressable families (Van der Corput, Halton, counters) jump to
    /// the skipped position in O(1) via their offset/phase constructors; the
    /// state-iterated families jump through [`RandomSource::skip_ahead`]
    /// (LFSR: companion-matrix power; Sobol: closed-form Gray-code state).
    #[must_use]
    pub fn build_skipped(&self, skip: u64) -> Box<dyn RandomSource> {
        match *self {
            SourceSpec::VanDerCorput { offset } => {
                return SourceSpec::VanDerCorput {
                    offset: offset + skip,
                }
                .build()
            }
            SourceSpec::Halton { base, offset } => {
                return SourceSpec::Halton {
                    base,
                    offset: offset + skip,
                }
                .build()
            }
            SourceSpec::Counter { modulus, phase } => {
                return SourceSpec::Counter {
                    modulus,
                    phase: (phase + (skip % modulus)) % modulus,
                }
                .build()
            }
            SourceSpec::Lfsr { .. } | SourceSpec::Sobol { .. } => {}
        }
        let mut source = self.build();
        source.skip_ahead(skip);
        source
    }
}

/// Hardware parameters of the gate-level generator behind a [`SourceSpec`]
/// (see [`SourceSpec::gate_model`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SourceGateModel {
    /// Number of sequential state bits (register width) of the generator.
    pub state_bits: u32,
    /// Whether the generator holds clocked state (all current families do).
    pub sequential: bool,
}

impl fmt::Display for SourceSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            SourceSpec::Lfsr { width, seed } => write!(f, "LFSR{width}(seed={seed:#x})"),
            SourceSpec::VanDerCorput { offset } => write!(f, "VDC(+{offset})"),
            SourceSpec::Halton { base, offset } => write!(f, "Halton-{base}(+{offset})"),
            SourceSpec::Sobol { dimension } => write!(f, "Sobol-{dimension}"),
            SourceSpec::Counter { modulus, phase } => write!(f, "Counter{modulus}(+{phase})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SourceExt;

    #[test]
    fn equal_specs_build_identical_sources() {
        let specs = [
            SourceSpec::Lfsr {
                width: 16,
                seed: 0xACE1,
            },
            SourceSpec::VanDerCorput { offset: 3 },
            SourceSpec::Halton { base: 5, offset: 0 },
            SourceSpec::Sobol { dimension: 4 },
            SourceSpec::Counter {
                modulus: 64,
                phase: 7,
            },
        ];
        for spec in &specs {
            let a: Vec<f64> = spec.build().take_units(32);
            let b: Vec<f64> = spec.build().take_units(32);
            assert_eq!(a, b, "{spec}");
            assert_eq!(spec.kind(), spec.build().kind(), "{spec}");
        }
    }

    #[test]
    fn build_skipped_matches_manual_skip() {
        // Covers both the O(1) jump families (VDC, Halton, counter) and the
        // sample-stepped families (LFSR, Sobol).
        let specs = [
            SourceSpec::Lfsr {
                width: 16,
                seed: 0xBEEF,
            },
            SourceSpec::Sobol { dimension: 3 },
            SourceSpec::VanDerCorput { offset: 5 },
            SourceSpec::Halton { base: 7, offset: 2 },
            SourceSpec::Counter {
                modulus: 100,
                phase: 11,
            },
        ];
        for spec in &specs {
            for skip in [0u64, 1, 99, 100, 257] {
                let mut manual = spec.build();
                for _ in 0..skip {
                    manual.next_unit();
                }
                let mut skipped = spec.build_skipped(skip);
                assert_eq!(
                    manual.take_units(8),
                    skipped.take_units(8),
                    "{spec} skip={skip}"
                );
            }
        }
        // Sobol's Gray-code jump on every dimension, across word and
        // power-of-two boundaries of the running index: a skip of `k` equals
        // `k` calls to `next_unit`.
        for dimension in 1..=8u32 {
            let spec = SourceSpec::Sobol { dimension };
            let mut manual = Sobol::new(dimension);
            let mut drawn = 0u64;
            for skip in [0u64, 1, 2, 63, 64, 65, 1000, 12_345, (1 << 20) + 3] {
                while drawn < skip {
                    manual.next_unit();
                    drawn += 1;
                }
                assert_eq!(
                    manual.clone().take_units(8),
                    spec.build_skipped(skip).take_units(8),
                    "{spec} skip={skip}"
                );
            }
        }
    }

    #[test]
    fn gate_models_cover_families() {
        assert_eq!(
            SourceSpec::Lfsr {
                width: 16,
                seed: 0xACE1
            }
            .gate_model()
            .state_bits,
            16
        );
        assert_eq!(
            SourceSpec::VanDerCorput { offset: 0 }
                .gate_model()
                .state_bits,
            16
        );
        assert_eq!(
            SourceSpec::Sobol { dimension: 1 }.gate_model().state_bits,
            32
        );
        assert_eq!(
            SourceSpec::Counter {
                modulus: 256,
                phase: 0
            }
            .gate_model()
            .state_bits,
            8
        );
        assert_eq!(
            SourceSpec::Counter {
                modulus: 1,
                phase: 0
            }
            .gate_model()
            .state_bits,
            1
        );
        assert!(
            SourceSpec::Halton { base: 3, offset: 0 }
                .gate_model()
                .sequential
        );
    }

    #[test]
    fn display_labels() {
        assert!(SourceSpec::Sobol { dimension: 2 }
            .to_string()
            .contains("Sobol-2"));
        assert!(SourceSpec::Halton { base: 7, offset: 1 }
            .to_string()
            .contains("Halton-7"));
    }
}
