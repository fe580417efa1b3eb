//! # sc-bitstream
//!
//! Stochastic number (SN) substrate for the reproduction of
//! *"Correlation Manipulating Circuits for Stochastic Computing"* (Lee, Alaghi,
//! Ceze — DATE 2018).
//!
//! In stochastic computing (SC), a value is encoded as a **unary bitstream**: a
//! time series of 1s and 0s whose *fraction of 1s* is the encoded value. This
//! crate provides:
//!
//! * [`Bitstream`] — a bit-packed stochastic number with unipolar and bipolar
//!   value accessors and the usual bitwise combinators. All bulk operations
//!   run on the **word-parallel kernel layer**: 64 stream bits per machine
//!   operation via the packed-word API ([`Bitstream::as_words`],
//!   [`Bitstream::map_words`], [`Bitstream::zip_with_words`], ...). The
//!   original one-bit-per-step formulations are retained in [`reference`](mod@reference) as
//!   an executable specification,
//! * [`BitQueue`] — a packed bit FIFO used as the word-parallel delay-line
//!   primitive by the manipulator kernels in `sc-core`,
//! * [`Probability`] — the validated unipolar value newtype,
//! * [`JointCounts`] and [`scc`] — the SC correlation (SCC) metric of
//!   Alaghi & Hayes used throughout the paper (§II.B),
//! * [`metrics`] — bias / absolute-error accumulators used by every
//!   experiment harness.
//!
//! # Example
//!
//! ```
//! use sc_bitstream::{Bitstream, scc};
//!
//! // X = 01010101 encodes 0.5, Y = 11111100 encodes 0.75 (paper §I).
//! let x = Bitstream::from_bools([false, true, false, true, false, true, false, true]);
//! let y = Bitstream::from_bools([true, true, true, true, true, true, false, false]);
//! assert_eq!(x.value(), 0.5);
//! assert_eq!(y.value(), 0.75);
//!
//! // Uncorrelated AND multiplies: Z = X & Y encodes 0.375.
//! let z = x.and(&y);
//! assert_eq!(z.value(), 0.375);
//!
//! // These particular streams are (close to) uncorrelated.
//! assert!(scc(&x, &y).abs() < 0.35);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitqueue;
pub mod bitstream;
pub mod correlation;
pub mod error;
pub mod metrics;
pub mod reference;
pub mod value;

pub use bitqueue::BitQueue;
pub use bitstream::{Bitstream, WORD_BITS};
pub use correlation::{scc, JointCounts};
pub use error::{Error, Result};
pub use metrics::{ErrorStats, StreamPairStats};
pub use value::Probability;
