//! Series composition of correlation manipulating circuits (§III.B).
//!
//! Instead of building one deep-FSM synchronizer, several minimal-depth
//! (`D = 1`) circuits can be chained in series; each stage improves the
//! correlation further, with diminishing returns. The same applies to
//! desynchronizers and decorrelators. Residual bits stranded in each stage's
//! FSM compound, which §III.B suggests mitigating by giving alternating
//! stages opposite initial states ([`crate::Synchronizer::with_initial_credit`]).

use crate::manipulator::CorrelationManipulator;

/// A series chain of correlation manipulators applied left to right.
///
/// Processing is **fused**: each packed 64-bit word of the inputs travels
/// through every stage's [`CorrelationManipulator::step_word`] while still
/// in registers, so a chain of `k` stages makes one pass over the streams
/// instead of materialising `k − 1` intermediate stream pairs.
///
/// # Example
///
/// ```
/// use sc_core::{ManipulatorChain, Synchronizer, CorrelationManipulator};
/// use sc_bitstream::{scc, Bitstream};
///
/// let x = Bitstream::from_fn(256, |i| i % 2 == 0);
/// let y = Bitstream::from_fn(256, |i| i % 3 == 0);
///
/// let mut chain = ManipulatorChain::new();
/// chain.push(Synchronizer::new(1));
/// chain.push(Synchronizer::new(1));
/// let (x2, y2) = chain.process(&x, &y)?;
/// assert!(scc(&x2, &y2) > 0.8);
/// # Ok::<(), sc_bitstream::Error>(())
/// ```
#[derive(Default)]
pub struct ManipulatorChain {
    stages: Vec<Box<dyn CorrelationManipulator>>,
}

impl std::fmt::Debug for ManipulatorChain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ManipulatorChain")
            .field(
                "stages",
                &self.stages.iter().map(|s| s.name()).collect::<Vec<_>>(),
            )
            .finish()
    }
}

impl ManipulatorChain {
    /// Creates an empty chain (which behaves as the identity).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a chain of `count` stages produced by `make(stage_index)`.
    #[must_use]
    pub fn repeated<M, F>(count: usize, mut make: F) -> Self
    where
        M: CorrelationManipulator + 'static,
        F: FnMut(usize) -> M,
    {
        let mut chain = Self::new();
        for i in 0..count {
            chain.push(make(i));
        }
        chain
    }

    /// Appends a stage to the end of the chain. A
    /// `Box<dyn CorrelationManipulator>` is a stage too, stepped through its
    /// circuit's own [`CorrelationManipulator::step_word`].
    pub fn push<M: CorrelationManipulator + 'static>(&mut self, stage: M) {
        self.stages.push(Box::new(stage));
    }

    /// The names of the stages, in processing order.
    #[must_use]
    pub fn stage_names(&self) -> Vec<String> {
        self.stages.iter().map(|s| s.name()).collect()
    }

    /// Number of stages in the chain.
    #[must_use]
    pub fn len(&self) -> usize {
        self.stages.len()
    }

    /// Whether the chain has no stages.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }
}

impl CorrelationManipulator for ManipulatorChain {
    fn name(&self) -> String {
        if self.stages.is_empty() {
            "chain(identity)".to_string()
        } else {
            format!(
                "chain[{}]",
                self.stages
                    .iter()
                    .map(|s| s.name())
                    .collect::<Vec<_>>()
                    .join(" -> ")
            )
        }
    }

    fn step(&mut self, x: bool, y: bool) -> (bool, bool) {
        self.stages
            .iter_mut()
            .fold((x, y), |(a, b), stage| stage.step(a, b))
    }

    fn reset(&mut self) {
        for stage in &mut self.stages {
            stage.reset();
        }
    }

    /// One fused pass: the word pair flows through every stage while still in
    /// registers.
    fn step_word(&mut self, x: u64, y: u64, valid: u32) -> (u64, u64) {
        self.stages
            .iter_mut()
            .fold((x, y), |(a, b), stage| stage.step_word(a, b, valid))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Decorrelator, Desynchronizer, Synchronizer};
    use sc_bitstream::{scc, Bitstream, Probability};
    use sc_convert::DigitalToStochastic;
    use sc_rng::{Halton, Lfsr, VanDerCorput};

    const N: usize = 256;

    fn uncorrelated_pair(px: f64, py: f64) -> (Bitstream, Bitstream) {
        let mut gx = DigitalToStochastic::new(VanDerCorput::new());
        let mut gy = DigitalToStochastic::new(Halton::new(3));
        (
            gx.generate(Probability::new(px).unwrap(), N),
            gy.generate(Probability::new(py).unwrap(), N),
        )
    }

    #[test]
    fn empty_chain_is_identity() {
        let x = Bitstream::parse("1011").unwrap();
        let y = Bitstream::parse("0101").unwrap();
        let mut chain = ManipulatorChain::new();
        assert!(chain.is_empty());
        let (ox, oy) = chain.process(&x, &y).unwrap();
        assert_eq!(ox, x);
        assert_eq!(oy, y);
        assert_eq!(chain.name(), "chain(identity)");
    }

    #[test]
    fn composed_synchronizers_improve_correlation_monotonically() {
        // Use LFSR inputs, whose single-stage synchronization is imperfect
        // (Table II second row: 0.903), so composition has headroom.
        let mut gx = DigitalToStochastic::new(Lfsr::new(16, 0xACE1));
        let mut gy = DigitalToStochastic::new(Lfsr::new(16, 0xBEEF));
        let x = gx.generate(Probability::new(0.4).unwrap(), N);
        let y = gy.generate(Probability::new(0.65).unwrap(), N);
        let mut last = scc(&x, &y);
        let mut improved = 0;
        for stages in 1..=4usize {
            let mut chain = ManipulatorChain::repeated(stages, |_| Synchronizer::new(1));
            let (ox, oy) = chain.process(&x, &y).unwrap();
            let s = scc(&ox, &oy);
            if s >= last - 1e-9 {
                improved += 1;
            }
            last = s;
        }
        assert!(improved >= 3, "composition should not regress correlation");
        assert!(
            last > 0.9,
            "final SCC should be strongly positive, got {last}"
        );
    }

    #[test]
    fn composed_desynchronizers_drive_scc_negative() {
        let (x, y) = uncorrelated_pair(0.5, 0.6);
        let mut chain = ManipulatorChain::repeated(3, |_| Desynchronizer::new(1));
        let (ox, oy) = chain.process(&x, &y).unwrap();
        assert!(scc(&ox, &oy) < -0.7, "scc = {}", scc(&ox, &oy));
        assert_eq!(chain.len(), 3);
    }

    #[test]
    fn mixed_chain_name_lists_stages() {
        let mut chain = ManipulatorChain::new();
        chain.push(Synchronizer::new(1));
        chain.push(Decorrelator::new(4));
        assert!(chain.name().contains("synchronizer"));
        assert!(chain.name().contains("decorrelator"));
        assert!(format!("{chain:?}").contains("synchronizer"));
    }

    #[test]
    fn boxed_stages_match_typed_stages() {
        let (x, y) = uncorrelated_pair(0.4, 0.6);
        let mut typed = ManipulatorChain::new();
        typed.push(Synchronizer::new(1));
        typed.push(Decorrelator::new(4));
        let stages: [Box<dyn CorrelationManipulator>; 2] = [
            Box::new(Synchronizer::new(1)),
            Box::new(Decorrelator::new(4)),
        ];
        let mut boxed = ManipulatorChain::new();
        for stage in stages {
            boxed.push(stage);
        }
        assert_eq!(
            typed.process(&x, &y).unwrap(),
            boxed.process(&x, &y).unwrap()
        );
        assert_eq!(boxed.stage_names().len(), 2);
        assert!(boxed.stage_names()[0].contains("synchronizer"));
    }

    #[test]
    fn reset_resets_every_stage() {
        let (x, y) = uncorrelated_pair(0.5, 0.5);
        let mut chain = ManipulatorChain::repeated(2, |_| Synchronizer::new(2));
        let (a, _) = chain.process(&x, &y).unwrap();
        chain.reset();
        let (b, _) = chain.process(&x, &y).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn bias_compounds_with_chain_length_but_stays_bounded() {
        let (x, y) = uncorrelated_pair(0.3, 0.7);
        for stages in [1usize, 2, 4] {
            let mut chain = ManipulatorChain::repeated(stages, |_| Synchronizer::new(1));
            let (ox, oy) = chain.process(&x, &y).unwrap();
            let bound = stages as f64 / N as f64 + 1e-12;
            assert!((ox.value() - x.value()).abs() <= bound, "stages {stages}");
            assert!((oy.value() - y.value()).abs() <= bound, "stages {stages}");
        }
    }
}
