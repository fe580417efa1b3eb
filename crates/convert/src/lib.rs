//! # sc-convert
//!
//! Digital ↔ stochastic domain converters for the DATE 2018 correlation
//! manipulation reproduction.
//!
//! * [`DigitalToStochastic`] — the D/S converter (stochastic number generator)
//!   of Fig. 2g: a binary value is compared against a random source sample each
//!   cycle to emit a bit.
//! * [`StochasticToDigital`] — the S/D converter of Fig. 2f: a counter that
//!   sums the 1s of a stream back into a binary value.
//! * [`Regenerator`] — the *regeneration* correlation-reset technique
//!   (S/D followed by D/S with a fresh source, §II.B), the expensive baseline
//!   our synchronizer competes against in Table IV.
//! * [`PrefixPlane`] — D/S conversion as a memo: per 256-sample block, the
//!   masks of the samples below each rank, so a stream is one rank lookup
//!   and one mask copy per block. The converter above and the `sc_graph`
//!   executor both convert through it.
//!
//! # Example
//!
//! ```
//! use sc_convert::DigitalToStochastic;
//! use sc_rng::VanDerCorput;
//! use sc_bitstream::Probability;
//!
//! let mut d2s = DigitalToStochastic::new(VanDerCorput::new());
//! let sn = d2s.generate(Probability::new(0.25)?, 256);
//! assert_eq!(sn.value(), 0.25); // low-discrepancy source: exact at N=256
//! # Ok::<(), sc_bitstream::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod d2s;
pub mod plane;
pub mod regen;
pub mod s2d;

pub use d2s::{DigitalToStochastic, StreamGenerator};
pub use plane::PrefixPlane;
pub use regen::Regenerator;
pub use s2d::StochasticToDigital;
