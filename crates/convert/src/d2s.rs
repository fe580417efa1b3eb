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
//! after a reset the same samples come again. The converter keeps the
//! [`PrefixPlane`] of the samples since the reset point, built lazily one
//! 256-sample block at a time as runs reach them, and a stream from a
//! block-aligned position is one rank lookup and one mask copy per block
//! instead of a compare per bit. The plane is bounded by
//! [`DigitalToStochastic::MAX_PLANE_SAMPLES`]. Every other run compares per
//! bit, with the samples drawn from the source 64 to a chunk: a run before the
//! first reset (a source may arrive mid-sequence), a run that continues from
//! inside a block, and a run that would reach past the bound. The source
//! itself stands wherever the last block build or per-bit run left it, and
//! is moved to the logical position ([`RandomSource::skip_ahead`], after a
//! real reset when it stands past it) only when a per-bit run, a new block
//! or [`DigitalToStochastic::into_inner`] needs it there.

use crate::plane::{compare, PrefixPlane, BLOCK_SAMPLES};
use sc_bitstream::{Bitstream, Probability, WORD_BITS};
use sc_rng::{RandomSource, RngKind};

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
    source: S,
    /// The plane of the samples since the reset point; empty before the
    /// first reset.
    plane: PrefixPlane,
    /// Samples since the last reset, the logical position; `None` before the
    /// first reset, while the source stands at the logical position.
    pos: Option<usize>,
    /// Samples the source has drawn since its last real reset.
    drawn: u64,
}

impl<S: RandomSource> DigitalToStochastic<S> {
    /// Most samples the plane covers: 32 blocks, 345,600 bytes
    /// ([`PrefixPlane::bytes`]). A run that would reach past them compares
    /// per bit.
    pub const MAX_PLANE_SAMPLES: usize = 32 * BLOCK_SAMPLES;

    /// Creates a converter around the given source.
    #[must_use]
    pub fn new(source: S) -> Self {
        DigitalToStochastic {
            source,
            plane: PrefixPlane::default(),
            pos: None,
            drawn: 0,
        }
    }

    /// Consumes the converter and returns the underlying source, positioned
    /// after the samples drawn since the last reset.
    #[must_use]
    pub fn into_inner(mut self) -> S {
        if let Some(pos) = self.pos {
            self.seek(pos);
        }
        self.source
    }

    /// The family of the wrapped source.
    #[must_use]
    pub fn kind(&self) -> RngKind {
        self.source.kind()
    }

    /// Restarts the sample sequence. The first reset resets the source and
    /// starts the plane; later ones only move the logical position back.
    pub fn reset(&mut self) {
        if self.pos.is_none() {
            self.source.reset();
            self.drawn = 0;
        }
        self.pos = Some(0);
    }

    /// Moves the source to `to` samples past the reset point.
    fn seek(&mut self, to: usize) {
        let to = to as u64;
        if self.drawn > to {
            self.source.reset();
            self.drawn = 0;
        }
        if to > self.drawn {
            self.source.skip_ahead(to - self.drawn);
            self.drawn = to;
        }
    }

    /// Extends the plane, a block at a time, until it covers `end` samples.
    #[cold]
    #[inline(never)]
    fn grow(&mut self, end: usize) {
        let mut samples = [0.0; BLOCK_SAMPLES];
        while self.plane.len() < end {
            self.seek(self.plane.len());
            samples.fill_with(|| self.source.next_unit());
            self.drawn += BLOCK_SAMPLES as u64;
            self.plane.push_block(&samples);
        }
    }

    /// The packed comparator words of every target against the same next
    /// `n` samples: from the plane when the run starts on a block after a
    /// reset and stays within the bound, otherwise by per-bit compares of
    /// samples drawn 64 to a chunk.
    fn comparator_words<const K: usize>(&mut self, targets: [f64; K], n: usize) -> [Vec<u64>; K] {
        let mut words = std::array::from_fn(|_| vec![0; n.div_ceil(WORD_BITS)]);
        match self.pos {
            Some(pos)
                if pos.is_multiple_of(BLOCK_SAMPLES) && pos + n <= Self::MAX_PLANE_SAMPLES =>
            {
                if self.plane.len() < pos + n {
                    self.grow(pos + n);
                }
                for (words, target) in words.iter_mut().zip(targets) {
                    self.plane.convert(target, pos, n, words);
                }
            }
            pos => {
                if let Some(pos) = pos {
                    self.seek(pos);
                    self.drawn += n as u64;
                }
                let mut chunk = [0.0; WORD_BITS];
                for (w, start) in (0..n).step_by(WORD_BITS).enumerate() {
                    let chunk = &mut chunk[..(n - start).min(WORD_BITS)];
                    chunk.fill_with(|| self.source.next_unit());
                    for (words, target) in words.iter_mut().zip(targets) {
                        compare(target, chunk, &mut words[w..=w]);
                    }
                }
            }
        }
        if let Some(pos) = &mut self.pos {
            *pos += n;
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

    /// Creates a generator for the `variant`-th member of a source family;
    /// variant 0 is the family's default configuration.
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
    fn stream_generator_by_kind() {
        use sc_rng::RngKind;
        for kind in [
            RngKind::Lfsr,
            RngKind::VanDerCorput,
            RngKind::Halton,
            RngKind::Sobol,
            RngKind::Counter,
        ] {
            let mut g = StreamGenerator::of_kind_variant(kind, 0);
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
    fn into_inner_after_a_partial_run_is_at_the_logical_position() {
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

    const KINDS: [RngKind; 5] = [
        RngKind::Lfsr,
        RngKind::VanDerCorput,
        RngKind::Halton,
        RngKind::Sobol,
        RngKind::Counter,
    ];

    /// The lengths the plane tests run: each side of a word edge, of the
    /// first block edge, a few blocks, and each side of the plane bound.
    const LENGTHS: [usize; 11] = [1, 63, 64, 65, 255, 256, 257, 1024, 4096, 8192, 8193];

    /// How one call picks a target from its own samples, so that `p` can sit
    /// exactly on a sample the comparator sees.
    #[derive(Debug, Clone, Copy)]
    enum Target {
        Zero,
        One,
        /// Any value in `[0, 1)`.
        Value(f64),
        /// The sample at this fraction of the call's run: the strict `>`
        /// leaves that sample's bit 0.
        Sample(f64),
        /// The next float above that sample, which sets its bit.
        AboveSample(f64),
    }

    impl Target {
        fn pick(self, samples: &[f64]) -> f64 {
            let at = |fraction: f64| samples[(fraction * samples.len() as f64) as usize];
            match self {
                Target::Zero => 0.0,
                Target::One => 1.0,
                Target::Value(v) => v,
                Target::Sample(f) => at(f),
                Target::AboveSample(f) => at(f).next_up(),
            }
        }

        /// The target of a drawn `(kind, fraction)` pair: kind 0 to 4 in
        /// declaration order, the fraction the value or the sample's place.
        fn drawn((kind, fraction): (u8, f64)) -> Target {
            match kind {
                0 => Target::Zero,
                1 => Target::One,
                2 => Target::Value(fraction),
                3 => Target::Sample(fraction),
                _ => Target::AboveSample(fraction),
            }
        }
    }

    /// One call of a run: its length, a single stream or a correlated pair,
    /// whether a reset comes first, and its two targets.
    #[derive(Debug, Clone, Copy)]
    struct Call {
        n: usize,
        pair: bool,
        reset: bool,
        targets: (Target, Target),
    }

    /// Runs `calls` through a generator of every family and checks each
    /// stream against the per-bit comparator over the same samples, drawn
    /// from a second source that is reset with it.
    fn check_calls(calls: &[Call]) {
        for kind in KINDS {
            let mut generator = StreamGenerator::of_kind_variant(kind, 0);
            let mut reference = sc_rng::build_source_variant(kind, 0);
            for (i, call) in calls.iter().enumerate() {
                if call.reset {
                    generator.reset();
                    reference.reset();
                }
                let samples: Vec<f64> = (0..call.n).map(|_| reference.next_unit()).collect();
                let expected = |p: f64| Bitstream::from_fn(call.n, |i| p > samples[i]);
                let (px, py) = (call.targets.0.pick(&samples), call.targets.1.pick(&samples));
                let (p, q) = (Probability::new(px).unwrap(), Probability::new(py).unwrap());
                let context = format!("{kind:?} call {i}: {call:?}, p {px} q {py}");
                if call.pair {
                    let got = generator.generate_correlated_pair(p, q, call.n);
                    assert_eq!(got, (expected(px), expected(py)), "{context}");
                } else {
                    assert_eq!(generator.generate(p, call.n), expected(px), "{context}");
                }
            }
        }
    }

    /// Every block-aligned conversion of a plane, over every remaining
    /// length and a short one, against the per-bit compares, word for word:
    /// a stream that ends inside a block must clear the mask's tail bits.
    fn check_plane_words(samples: &[f64], p: f64) {
        let plane = PrefixPlane::from_samples(samples);
        for start in (0..samples.len()).step_by(BLOCK_SAMPLES) {
            let rest = samples.len() - start;
            for n in [rest, rest.min(BLOCK_SAMPLES + 1), rest.min(65), rest.min(1)] {
                let mut got = vec![u64::MAX; n.div_ceil(WORD_BITS)];
                let mut expected = vec![0; n.div_ceil(WORD_BITS)];
                plane.convert(p, start, n, &mut got);
                compare(p, &samples[start..start + n], &mut expected);
                assert_eq!(got, expected, "start {start} n {n} p {p}");
            }
        }
    }

    #[test]
    fn runs_around_the_plane_bound_match_the_per_bit_reference() {
        // A plane grown to its bound from a reset; a run that would reach
        // past it; a continuation at the bound; a run before the first
        // reset; and a reset run continued from inside a block.
        let target = (Target::Value(0.37), Target::Sample(0.5));
        let call = |n, pair, reset| Call {
            n,
            pair,
            reset,
            targets: target,
        };
        check_calls(&[
            call(300, false, false),
            call(8_192, true, true),
            call(1, false, false),
            call(100, false, true),
            call(9_000, false, true),
            call(5_000, true, false),
            call(64, true, true),
            call(8_193, false, true),
            call(256, true, true),
            call(300, false, false),
        ]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn prop_planes_match_the_per_bit_reference(
            calls in proptest::collection::vec(
                (0..LENGTHS.len(), 0u8..4, (0u8..5, 0.0..1.0f64), (0u8..5, 0.0..1.0f64)),
                3..=6,
            ),
            kind in 0..KINDS.len(),
            length in 0..LENGTHS.len(),
            target in (0u8..5, 0.0..1.0f64),
        ) {
            // Calls may come before any reset, start a run after a reset on
            // a block, or continue one from wherever the last call ended.
            // Flag bit 0 picks a pair, bit 1 a reset first.
            let calls: Vec<Call> = calls
                .into_iter()
                .map(|(n, flags, p, q)| Call {
                    n: LENGTHS[n],
                    pair: flags & 1 == 1,
                    reset: flags & 2 == 2,
                    targets: (Target::drawn(p), Target::drawn(q)),
                })
                .collect();
            check_calls(&calls);
            let mut source = sc_rng::build_source_variant(KINDS[kind], 0);
            let samples: Vec<f64> = (0..LENGTHS[length]).map(|_| source.next_unit()).collect();
            check_plane_words(&samples, Target::drawn(target).pick(&samples));
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
