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
//! Every circuit implements one trait, [`CorrelationManipulator`]: `step`
//! is one clock of the Mealy FSM, and [`CorrelationManipulator::step_word`]
//! runs the same FSM for 64 packed cycles per call on the word-parallel
//! engine ([`kernel`]). Stateless and shift-register circuits
//! ([`manipulator::Identity`], [`Isolator`]) override `step_word` with
//! whole-word operations; the synchronizer and desynchronizer resolve a word
//! by speculative table lookups; the decorrelator steps its shuffle buffers
//! a word at a time; every other circuit keeps the default, which stages
//! bits through machine registers instead of per-bit stream indexing.
//! [`ManipulatorChain`] passes each word through all its stages in one walk.
//! The original per-bit execution is retained as
//! [`CorrelationManipulator::process_bit_serial`] (and [`BitSerial`] pins a
//! circuit to the default `step_word`); equivalence tests check every fast
//! path against them bit for bit.
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

pub use compose::ManipulatorChain;
pub use decorrelator::Decorrelator;
pub use desynchronizer::Desynchronizer;
pub use isolator::Isolator;
pub use kernel::{
    bit_serial_step_word, drive_step_word, drive_words, BitSerial, SpeculativeTable, LANES,
    MAX_SPECULATIVE_STATES,
};
pub use manipulator::{CorrelationManipulator, Identity, DEPTH_RANGE};
pub use shuffle_buffer::ShuffleBuffer;
pub use synchronizer::Synchronizer;
pub use tfm::TrackingForecastMemory;
