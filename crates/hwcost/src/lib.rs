//! # sc-hwcost
//!
//! Gate-level area / power / energy cost model for stochastic-computing
//! circuit designs.
//!
//! The paper evaluates its designs with a TSMC 65 nm standard-cell flow
//! (Synopsys Design Compiler, IC Compiler, PrimeTime). That flow is not
//! reproducible in a pure-software environment, so this crate substitutes an
//! abstract standard-cell library: every design is described as a
//! [`Netlist`] of [`Primitive`]s, each with a fixed area (µm²) and a dynamic
//! power (µW at one reference switching activity), calibrated so the
//! *relative* costs reported in Table III / Table IV are preserved — e.g. a
//! 2-input OR gate occupies 2.16 µm² and burns 0.26 µW, exactly the paper's
//! "OR Max." row, and energy is integrated over `N` cycles of the calibrated
//! effective cycle time ([`CYCLE_TIME_NS`]) so that the OR maximum costs
//! ≈165 pJ per 256-cycle operation, again matching Table III.
//!
//! The absolute numbers are calibrated estimates, not silicon measurements;
//! every experiment that consumes them reports ratios.
//!
//! # Example
//!
//! ```
//! use sc_hwcost::{characterize, CostReport};
//!
//! let or_max = characterize::or_max();
//! let ca_max = characterize::correlation_agnostic_max();
//! let sync_max = characterize::synchronizer_max(1);
//!
//! // Table III shape: the synchronizer-based max sits between the bare OR
//! // gate and the correlation-agnostic design, ~5x smaller than CA max.
//! assert!(or_max.area_um2 < sync_max.area_um2);
//! assert!(sync_max.area_um2 * 4.0 < ca_max.area_um2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod characterize;
pub mod gates;
pub mod netlist;
pub mod report;

pub use gates::Primitive;
pub use netlist::Netlist;
pub use report::{CostReport, RelativeCost};

/// Effective per-cycle time used to convert power to energy, in nanoseconds.
///
/// This is a pure calibration constant, back-computed from the paper's own
/// Table III columns (165 pJ ÷ 0.26 µW ÷ 256 cycles ≈ 2.48 µs per cycle): the
/// paper's per-operation energy evidently folds in system-level time and
/// overheads beyond a raw gate-delay clock. Using the same effective value
/// keeps our energy column on the paper's scale while leaving every ratio —
/// which is what the conclusions rest on — independent of this constant.
pub const CYCLE_TIME_NS: f64 = 2480.0;
