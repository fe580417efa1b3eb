//! # sc-arith
//!
//! Stochastic-computing arithmetic circuits: the correlation-*sensitive*
//! operation set of Fig. 2 of the paper plus the correlation-*agnostic*
//! baselines the paper compares against.
//!
//! | module | operation | circuit | required input correlation |
//! |--------|-----------|---------|----------------------------|
//! | [`multiply`] | `pX · pY` (unipolar), `x · y` (bipolar) | AND / XNOR | uncorrelated |
//! | [`add`] | `0.5(pX + pY)` scaled add | MUX | uncorrelated with select |
//! | [`add`] | `min(1, pX + pY)` saturating add | OR | negative |
//! | [`subtract`] | `\|pX − pY\|` | XOR | positive |
//! | [`divide`] | `pX / pY` | counter + feedback | positive |
//! | [`maxmin`] | `max(pX, pY)`, `min(pX, pY)` | OR / AND | positive |
//! | [`maxmin`] | correlation-agnostic max (SC-DCNN \[12\]) | counter + mux | agnostic |
//! | [`add`] | correlation-agnostic add (\[9\]) | parallel counter | agnostic |
//!
//! The correlation-manipulating circuits that *create* the required
//! correlations live in the `sc-core` crate; this crate only assumes its
//! inputs already have whatever correlation each operator needs, which is why
//! several accuracy tests here deliberately show the operators failing on
//! wrongly-correlated inputs (that failure is Table I of the paper).
//!
//! # Example
//!
//! ```
//! use sc_arith::multiply::and_multiply;
//! use sc_bitstream::Bitstream;
//!
//! let x = Bitstream::parse("01010101")?; // 0.5
//! let y = Bitstream::parse("11111100")?; // 0.75, uncorrelated with x
//! assert_eq!(and_multiply(&x, &y)?.value(), 0.375);
//! # Ok::<(), sc_bitstream::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod add;
pub mod divide;
pub mod maxmin;
pub mod multiply;
pub mod reference;
pub mod subtract;

pub use add::{ca_add, mux_add, saturating_add, MuxAdder};
pub use divide::Divider;
pub use maxmin::{and_min, ca_max, or_max};
pub use multiply::{and_multiply, xnor_multiply};
pub use subtract::xor_subtract;
