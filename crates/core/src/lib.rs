//! # sc-core
//!
//! The primary contribution of *"Correlation Manipulating Circuits for
//! Stochastic Computing"* (Lee, Alaghi, Ceze — DATE 2018): circuits that
//! adjust the correlation between two stochastic numbers **in the stochastic
//! domain**, without the expensive round trip through binary that
//! regeneration requires.
//!
//! | circuit | effect on SCC | paper |
//! |---------|---------------|-------|
//! | [`Synchronizer`] | drives SCC toward **+1** (pairs up 1s) | Fig. 3a |
//! | [`Desynchronizer`] | drives SCC toward **−1** (unpairs 1s) | Fig. 3b |
//! | [`Decorrelator`] | drives SCC toward **0** (scrambles bit order) | Fig. 4 |
//! | [`Isolator`] | baseline: fixed delay of one operand | Ting & Hayes \[10\] |
//! | [`TrackingForecastMemory`] | baseline: probability-tracking re-randomizer | Tehrani et al. \[11\] |
//!
//! On top of the manipulators the crate provides the paper's improved SC
//! operators (Fig. 5): [`ops::sync_max`], [`ops::sync_min`] and
//! [`ops::desync_saturating_add`], plus series composition
//! ([`compose::ManipulatorChain`]) and the Table II evaluation harness
//! ([`analysis`]).
//!
//! Execution runs on the **word-parallel engine** ([`kernel`]): every
//! manipulator processes streams 64 packed bits at a time via
//! [`StreamKernel::step_word`]. Stateless and shift-register circuits
//! ([`manipulator::Identity`], [`Isolator`]) have true whole-word fast paths;
//! the data-dependent FSMs keep their cycle-accurate transition functions but
//! stage bits through machine registers instead of per-bit stream indexing,
//! and [`ManipulatorChain`] fuses all its stages into a single pass per word.
//! The original per-bit execution is retained as
//! [`CorrelationManipulator::process_bit_serial`] and verified bit-identical
//! by equivalence tests.
//!
//! Every stream pair runs solo: the paper's circuits are per-pair FSMs, and
//! callers that have many pairs run them one after another (or on separate
//! threads) through the same word path.
//!
//! # Example
//!
//! ```
//! use sc_core::{Synchronizer, CorrelationManipulator};
//! use sc_convert::DigitalToStochastic;
//! use sc_rng::{VanDerCorput, Halton};
//! use sc_bitstream::{scc, Probability};
//!
//! // Two uncorrelated streams...
//! let mut gx = DigitalToStochastic::new(VanDerCorput::new());
//! let mut gy = DigitalToStochastic::new(Halton::new(3));
//! let x = gx.generate(Probability::new(0.5)?, 256);
//! let y = gy.generate(Probability::new(0.75)?, 256);
//! assert!(scc(&x, &y).abs() < 0.2);
//!
//! // ...become positively correlated after the synchronizer, with the same values.
//! let mut sync = Synchronizer::new(1);
//! let (x2, y2) = sync.process(&x, &y)?;
//! assert!(scc(&x2, &y2) > 0.9);
//! assert!((x2.value() - x.value()).abs() <= 1.0 / 256.0);
//! assert!((y2.value() - y.value()).abs() <= 1.0 / 256.0);
//! # Ok::<(), sc_bitstream::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod compose;
pub mod decorrelator;
pub mod desynchronizer;
pub mod isolator;
pub mod kernel;
pub mod manipulator;
pub mod ops;
pub mod shuffle_buffer;
pub mod sim_adapter;
pub mod synchronizer;
pub mod tfm;
pub mod tracker;

pub use compose::{ChainStage, ManipulatorChain};
pub use decorrelator::Decorrelator;
pub use desynchronizer::Desynchronizer;
pub use isolator::Isolator;
pub use kernel::{
    bit_serial_step_word, drive_step_word, process_with_kernel, BitSerial, SpeculativeTable,
    StreamKernel, LANES, MAX_SPECULATIVE_STATES,
};
pub use manipulator::{CorrelationManipulator, Identity};
pub use shuffle_buffer::ShuffleBuffer;
pub use synchronizer::Synchronizer;
pub use tfm::TrackingForecastMemory;
pub use tracker::{AdaptiveManipulator, SccTracker};
