//! Digital-to-stochastic (D/S) conversion — the stochastic number generator.
//!
//! The D/S converter of Fig. 2g compares a binary target value `x ∈ [0, N]`
//! against a fresh sample `r` of a random source every cycle and emits a 1
//! whenever `x > r`. Over `N` cycles the emitted stream encodes `x / N`.
//!
//! Correlation between generated streams is controlled by the choice of
//! sources: streams generated from the *same* source instance are maximally
//! positively correlated; streams generated from independent (or
//! low-discrepancy, different-base) sources are close to uncorrelated.
//!
//! The comparator samples depend only on the source, never on the target, so
//! the converter draws them through a [`Replay`] log: after a reset the same
//! samples come again, and a replayed stream compares `p` against the logged
//! slice, 64 samples to a word, instead of stepping the source once per bit.
//! The log holds the samples drawn since the source's last real reset, and
//! the source stands at the end of the log. Recording starts at the first
//! [`DigitalToStochastic::reset`], because a source may arrive mid-sequence;
//! `reset` then rewinds the log without touching the source.
//! [`DigitalToStochastic::into_inner`] still hands the source back at its
//! logical position. A run of more than 8,192 samples (the log's 64 KiB
//! bound) stops recording, and every later reset really resets the source.
//! Before the first reset, and once recording has stopped, the samples are
//! drawn from the source 64 to a chunk and compared as a logged chunk is.

use sc_bitstream::{Bitstream, Probability, WORD_BITS};
use sc_rng::{Draws, RandomSource, Replay, RngKind};

/// Bit `i` of the word is the comparator output `target > samples[i]`, for
/// up to 64 samples. A full word is eight fixed 8-sample loops, which LLVM
/// unrolls into branch-free compares.
#[inline]
fn comparator_word(target: f64, samples: &[f64]) -> u64 {
    let bit = |(i, &r): (usize, &f64)| u64::from(target > r) << i;
    let Ok(full) = <&[f64; WORD_BITS]>::try_from(samples) else {
        return samples
            .iter()
            .enumerate()
            .map(bit)
            .fold(0, |word, b| word | b);
    };
    let mut word = 0u64;
    for (j, eight) in full.chunks_exact(8).enumerate() {
        let byte = eight
            .iter()
            .enumerate()
            .map(bit)
            .fold(0, |byte, b| byte | b);
        word |= byte << (8 * j);
    }
    word
}

/// Appends the comparator word of each target against `samples` (up to 64)
/// to that target's words.
#[inline]
fn push_comparator_words<const K: usize>(
    words: &mut [Vec<u64>; K],
    targets: [f64; K],
    samples: &[f64],
) {
    for (words, target) in words.iter_mut().zip(targets) {
        words.push(comparator_word(target, samples));
    }
}

/// A digital-to-stochastic converter wrapping a random source.
///
/// # Example
///
/// ```
/// use sc_convert::DigitalToStochastic;
/// use sc_rng::{Halton, VanDerCorput};
/// use sc_bitstream::{scc, Probability};
///
/// // Streams generated from different low-discrepancy bases are uncorrelated.
/// let mut gx = DigitalToStochastic::new(VanDerCorput::new());
/// let mut gy = DigitalToStochastic::new(Halton::new(3));
/// let x = gx.generate(Probability::new(0.5)?, 256);
/// let y = gy.generate(Probability::new(0.75)?, 256);
/// assert!(scc(&x, &y).abs() < 0.15);
/// # Ok::<(), sc_bitstream::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct DigitalToStochastic<S> {
    samples: Replay<S, f64>,
}

impl<S: RandomSource> DigitalToStochastic<S> {
    /// Creates a converter around the given source.
    #[must_use]
    pub fn new(source: S) -> Self {
        DigitalToStochastic {
            samples: Replay::new(source),
        }
    }

    /// Consumes the converter and returns the underlying source, positioned
    /// after the samples drawn since the last reset.
    #[must_use]
    pub fn into_inner(self) -> S {
        self.samples.into_inner()
    }

    /// The family of the wrapped source.
    #[must_use]
    pub fn kind(&self) -> RngKind {
        self.samples.kind()
    }

    /// Restarts the sample sequence: from the log once it is recording,
    /// otherwise by resetting the source.
    pub fn reset(&mut self) {
        self.samples.reset();
    }

    /// The packed comparator words of every target against the same next
    /// `n` samples. A replayed run reads the samples from the log as one
    /// slice; otherwise they are drawn 64 to a chunk, and each chunk is
    /// compared as a logged one is.
    fn comparator_words<const K: usize>(&mut self, targets: [f64; K], n: usize) -> [Vec<u64>; K] {
        let mut words = std::array::from_fn(|_| Vec::with_capacity(n.div_ceil(WORD_BITS)));
        match self.samples.take(n, S::next_unit) {
            Draws::Logged(samples) => {
                for chunk in samples.chunks(WORD_BITS) {
                    push_comparator_words(&mut words, targets, chunk);
                }
            }
            Draws::Live(source) => {
                let mut chunk = [0.0; WORD_BITS];
                for start in (0..n).step_by(WORD_BITS) {
                    let chunk = &mut chunk[..(n - start).min(WORD_BITS)];
                    chunk.fill_with(|| source.next_unit());
                    push_comparator_words(&mut words, targets, chunk);
                }
            }
        }
        words
    }

    /// Generates a length-`n` stochastic number encoding `p`.
    ///
    /// The stream's exact value is `p` quantized to the grid `{0/n, …, n/n}`
    /// only when the source is a full-period low-discrepancy sequence; with an
    /// LFSR the value fluctuates around `p` as in real hardware.
    #[must_use]
    pub fn generate(&mut self, p: Probability, n: usize) -> Bitstream {
        let [words] = self.comparator_words([p.get()], n);
        Bitstream::from_words(words, n)
    }

    /// Generates a length-`n` stream for the binary value `x` out of `max`
    /// (i.e. the probability `x / max`), mirroring the hardware comparator
    /// interface of Fig. 2g.
    ///
    /// # Panics
    ///
    /// Panics if `max == 0` or `x > max`.
    #[must_use]
    pub fn generate_binary(&mut self, x: u64, max: u64, n: usize) -> Bitstream {
        assert!(max > 0, "binary range must be non-zero");
        assert!(x <= max, "binary value {x} exceeds range {max}");
        self.generate(Probability::from_ratio(x, max), n)
    }

    /// Generates two streams from the *same* source samples, producing a
    /// maximally positively correlated pair — the "shared RNG" technique of
    /// §II.B. Both streams are assembled in one pass over the samples.
    #[must_use]
    pub fn generate_correlated_pair(
        &mut self,
        px: Probability,
        py: Probability,
        n: usize,
    ) -> (Bitstream, Bitstream) {
        let [x_words, y_words] = self.comparator_words([px.get(), py.get()], n);
        (
            Bitstream::from_words(x_words, n),
            Bitstream::from_words(y_words, n),
        )
    }
}

/// Convenience generator owning a boxed source, used by experiment harnesses
/// that select the source family at run time (Table II rows).
pub struct StreamGenerator {
    inner: DigitalToStochastic<Box<dyn RandomSource>>,
    label: String,
}

impl std::fmt::Debug for StreamGenerator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamGenerator")
            .field("label", &self.label)
            .finish()
    }
}

impl StreamGenerator {
    /// Creates a generator from any boxed source.
    #[must_use]
    pub fn new(source: Box<dyn RandomSource>) -> Self {
        let label = source.label();
        StreamGenerator {
            inner: DigitalToStochastic::new(source),
            label,
        }
    }

    /// Creates a generator for a source family with the default configuration.
    #[must_use]
    pub fn of_kind(kind: RngKind) -> Self {
        Self::new(sc_rng::build_source(kind))
    }

    /// Creates a generator for the `variant`-th member of a source family.
    #[must_use]
    pub fn of_kind_variant(kind: RngKind, variant: usize) -> Self {
        Self::new(sc_rng::build_source_variant(kind, variant))
    }

    /// Short label of the wrapped source (e.g. `"Halton-3"`).
    #[must_use]
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Generates a length-`n` stream encoding `p`.
    #[must_use]
    pub fn generate(&mut self, p: Probability, n: usize) -> Bitstream {
        self.inner.generate(p, n)
    }

    /// Generates a maximally positively correlated pair from shared samples.
    #[must_use]
    pub fn generate_correlated_pair(
        &mut self,
        px: Probability,
        py: Probability,
        n: usize,
    ) -> (Bitstream, Bitstream) {
        self.inner.generate_correlated_pair(px, py, n)
    }

    /// Resets the underlying source.
    pub fn reset(&mut self) {
        self.inner.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use sc_bitstream::scc;
    use sc_rng::{CounterSource, Halton, Lfsr, Sobol, VanDerCorput};

    #[test]
    fn vdc_generation_is_exact_at_power_of_two_lengths() {
        let mut g = DigitalToStochastic::new(VanDerCorput::new());
        for k in 0..=16u64 {
            g.reset();
            let p = Probability::from_ratio(k, 16);
            let s = g.generate(p, 256);
            assert!(
                (s.value() - p.get()).abs() < 1e-12,
                "k={k}: got {} expected {}",
                s.value(),
                p.get()
            );
        }
    }

    #[test]
    fn counter_generation_is_exact_and_bunched() {
        let mut g = DigitalToStochastic::new(CounterSource::new(256));
        let s = g.generate(Probability::new(0.25).unwrap(), 256);
        assert_eq!(s.count_ones(), 64);
    }

    #[test]
    fn lfsr_generation_is_close() {
        let mut g = DigitalToStochastic::new(Lfsr::new(16, 0xACE1));
        let s = g.generate(Probability::new(0.7).unwrap(), 1024);
        assert!((s.value() - 0.7).abs() < 0.05);
    }

    #[test]
    fn sobol_generation_is_accurate() {
        let mut g = DigitalToStochastic::new(Sobol::new(2));
        let s = g.generate(Probability::new(0.3).unwrap(), 256);
        assert!((s.value() - 0.3).abs() < 0.02);
    }

    #[test]
    fn shared_source_pair_is_positively_correlated() {
        let mut g = DigitalToStochastic::new(Lfsr::new(16, 0xACE1));
        let (x, y) = g.generate_correlated_pair(
            Probability::new(0.5).unwrap(),
            Probability::new(0.75).unwrap(),
            256,
        );
        assert!(scc(&x, &y) > 0.95, "scc = {}", scc(&x, &y));
        // Correlated-pair AND realises min (Table I).
        assert!((x.and(&y).value() - 0.5).abs() < 0.05);
    }

    #[test]
    fn independent_sources_are_uncorrelated() {
        let mut gx = DigitalToStochastic::new(VanDerCorput::new());
        let mut gy = DigitalToStochastic::new(Halton::new(3));
        let x = gx.generate(Probability::new(0.5).unwrap(), 256);
        let y = gy.generate(Probability::new(0.75).unwrap(), 256);
        assert!(scc(&x, &y).abs() < 0.15, "scc = {}", scc(&x, &y));
        // Uncorrelated AND realises the product (Table I).
        assert!((x.and(&y).value() - 0.375).abs() < 0.05);
    }

    #[test]
    fn generate_binary_matches_probability() {
        let mut g = DigitalToStochastic::new(VanDerCorput::new());
        let s = g.generate_binary(64, 256, 256);
        assert!((s.value() - 0.25).abs() < 1e-12);
        assert_eq!(g.kind(), sc_rng::RngKind::VanDerCorput);
    }

    #[test]
    #[should_panic(expected = "exceeds range")]
    fn generate_binary_rejects_overflow() {
        let mut g = DigitalToStochastic::new(VanDerCorput::new());
        let _ = g.generate_binary(300, 256, 256);
    }

    #[test]
    fn stream_generator_by_kind() {
        use sc_rng::RngKind;
        for kind in [
            RngKind::Lfsr,
            RngKind::VanDerCorput,
            RngKind::Halton,
            RngKind::Sobol,
            RngKind::Counter,
        ] {
            let mut g = StreamGenerator::of_kind(kind);
            let s = g.generate(Probability::new(0.5).unwrap(), 256);
            assert!((s.value() - 0.5).abs() < 0.1, "{kind:?}");
            assert!(!g.label().is_empty());
            g.reset();
        }
    }

    #[test]
    fn extreme_probabilities_give_constant_streams() {
        let mut g = DigitalToStochastic::new(VanDerCorput::new());
        let zeros = g.generate(Probability::ZERO, 128);
        assert_eq!(zeros.count_ones(), 0);
        g.reset();
        let ones = g.generate(Probability::ONE, 128);
        assert_eq!(ones.count_ones(), 128);
    }

    #[test]
    fn into_inner_returns_source() {
        let g = DigitalToStochastic::new(VanDerCorput::new());
        let src = g.into_inner();
        assert_eq!(src.index(), 1);
    }

    #[test]
    fn into_inner_after_a_partial_replay_is_at_the_logical_position() {
        let p = Probability::new(0.4).unwrap();
        let mut g = DigitalToStochastic::new(Lfsr::new(16, 0xACE1));
        g.reset();
        let _ = g.generate(p, 100);
        g.reset();
        let _ = g.generate(p, 40);
        let mut expected = Lfsr::new(16, 0xACE1);
        expected.skip_ahead(40);
        assert_eq!(g.into_inner().next_unit(), expected.next_unit());

        let mut regen = crate::Regenerator::new(VanDerCorput::new());
        regen.reset();
        let _ = regen.regenerate(&Bitstream::from_fn(64, |i| i % 3 == 0));
        regen.reset();
        let _ = regen.regenerate(&Bitstream::from_fn(10, |i| i % 2 == 0));
        assert_eq!(regen.into_inner().index(), 11);
    }

    /// The per-bit D/S loop the replayed path replaced, kept as the
    /// reference: one comparator per sample, straight from the source.
    fn reference_generate(source: &mut dyn RandomSource, p: f64, n: usize) -> Bitstream {
        Bitstream::from_fn(n, |_| p > source.next_unit())
    }

    fn reference_pair(
        source: &mut dyn RandomSource,
        px: f64,
        py: f64,
        n: usize,
    ) -> (Bitstream, Bitstream) {
        let samples: Vec<f64> = (0..n).map(|_| source.next_unit()).collect();
        (
            Bitstream::from_fn(n, |i| px > samples[i]),
            Bitstream::from_fn(n, |i| py > samples[i]),
        )
    }

    const KINDS: [RngKind; 5] = [
        RngKind::Lfsr,
        RngKind::VanDerCorput,
        RngKind::Halton,
        RngKind::Sobol,
        RngKind::Counter,
    ];

    /// Runs a call sequence (length, pair or single, reset first) through a
    /// generator of every kind and through the reference on a fresh source.
    fn check_calls(calls: &[(usize, bool, bool)], seed: u64) {
        for kind in KINDS {
            let mut generator = StreamGenerator::of_kind(kind);
            let mut reference = sc_rng::build_source(kind);
            let mut state = seed | 1;
            let mut value = || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 11) as f64 / (1u64 << 53) as f64
            };
            for (call, &(n, pair, reset)) in calls.iter().enumerate() {
                if reset {
                    generator.reset();
                    reference.reset();
                }
                let (px, py) = (value(), value());
                let (p, q) = (Probability::new(px).unwrap(), Probability::new(py).unwrap());
                if pair {
                    let got = generator.generate_correlated_pair(p, q, n);
                    assert_eq!(
                        got,
                        reference_pair(&mut *reference, px, py, n),
                        "{kind:?} call {call}"
                    );
                } else {
                    let got = generator.generate(p, n);
                    assert_eq!(
                        got,
                        reference_generate(&mut *reference, px, n),
                        "{kind:?} call {call}"
                    );
                }
            }
        }
    }

    #[test]
    fn a_run_past_the_log_bound_replays_exactly() {
        // 8,192 samples fill the log; the 9,000-sample run then outgrows it
        // from the start of a replay, and later runs draw live.
        check_calls(
            &[
                (300, false, false),
                (8_192, true, true),
                (100, false, true),
                (9_000, false, true),
                (5_000, true, false),
                (64, true, true),
            ],
            5,
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn prop_replay_matches_the_per_bit_reference(
            lengths in proptest::collection::vec(1usize..=1100, 4..=10),
            flags in any::<u64>(),
            seed in any::<u64>(),
        ) {
            // Bit 2i picks a pair, bit 2i + 1 a reset before call i; the first
            // calls may run before any reset.
            let calls: Vec<(usize, bool, bool)> = lengths
                .iter()
                .enumerate()
                .map(|(i, &n)| (n, flags >> (2 * i) & 1 == 1, flags >> (2 * i + 1) & 1 == 1))
                .collect();
            check_calls(&calls, seed);
        }
    }

    proptest! {
        #[test]
        fn prop_vdc_value_error_bounded(k in 0u64..=256) {
            let mut g = DigitalToStochastic::new(VanDerCorput::new());
            let p = Probability::from_ratio(k, 256);
            let s = g.generate(p, 256);
            // Low-discrepancy generation error is at most one bit.
            prop_assert!((s.value() - p.get()).abs() <= 1.5 / 256.0);
        }

        #[test]
        fn prop_correlated_pair_preserves_values(
            px in 0u64..=64, py in 0u64..=64
        ) {
            let mut g = DigitalToStochastic::new(CounterSource::new(64));
            let (x, y) = g.generate_correlated_pair(
                Probability::from_ratio(px, 64),
                Probability::from_ratio(py, 64),
                64,
            );
            prop_assert_eq!(x.count_ones() as u64, px);
            prop_assert_eq!(y.count_ones() as u64, py);
            if px > 0 && py > 0 && px < 64 && py < 64 {
                prop_assert_eq!(scc(&x, &y), 1.0);
            }
        }
    }
}
