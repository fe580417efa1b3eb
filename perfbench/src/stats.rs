//! The benchmark's own arithmetic: the seeded generator its inputs come
//! from, nearest-rank percentiles, medians and the tracing overhead.

/// SplitMix64: a tiny seeded generator, so every workload input is a pure
/// function of `--seed` and nothing depends on the library's own sources.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed ^ 0x6A09_E667_F3BC_C908)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The 1-based nearest rank of the `q` quantile among `n` samples:
/// the smallest rank whose share of samples at or below it reaches `q`.
pub fn nearest_rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Samples strictly above the `q` quantile's nearest rank. A percentile is
/// resolved only when at least ten samples lie beyond it.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n.saturating_sub(nearest_rank(n, q))
}

/// Nearest-rank percentile of ascending `sorted` samples (0 when empty).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[nearest_rank(sorted.len(), q) - 1]
}

/// Median (mean of the middle pair for an even count; 0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Arithmetic mean (0 when empty).
pub fn mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (mut sum, mut n) = (0.0, 0usize);
    for v in values {
        sum += v;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// Nearest-rank `q` quantile of unsorted samples (0 when empty).
pub fn quantile_of(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, q)
}

/// Sum and count of one input's request times, so a traced and an untraced
/// phase can be compared over the same inputs however far each phase got
/// through the input cycle.
#[derive(Debug, Clone, Default)]
pub struct PerInput {
    ns: Vec<(u64, u64)>,
}

impl PerInput {
    pub fn new(inputs: usize) -> Self {
        PerInput {
            ns: vec![(0, 0); inputs],
        }
    }

    pub fn add(&mut self, input: usize, ns: u64) {
        let e = &mut self.ns[input];
        e.0 += ns;
        e.1 += 1;
    }

    pub fn merge(&mut self, other: &PerInput) {
        for (a, b) in self.ns.iter_mut().zip(&other.ns) {
            a.0 += b.0;
            a.1 += b.1;
        }
    }

    /// `Σ mean(traced) / Σ mean(untraced) − 1` over the inputs both phases
    /// reached: the share by which tracing slowed a request.
    pub fn overhead_vs(&self, untraced: &PerInput) -> f64 {
        let (mut t, mut u) = (0.0, 0.0);
        for (a, b) in self.ns.iter().zip(&untraced.ns) {
            if a.1 > 0 && b.1 > 0 {
                t += a.0 as f64 / a.1 as f64;
                u += b.0 as f64 / b.1 as f64;
            }
        }
        if u > 0.0 {
            t / u - 1.0
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 100.0);
        assert_eq!(percentile(&v, 0.95), 190.0);
        assert_eq!(percentile(&v, 1.0), 200.0);
        assert_eq!(percentile(&[7.0], 0.95), 7.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    /// p95 needs 200 samples before ten of them lie beyond its rank.
    #[test]
    fn p95_is_resolved_from_200_samples() {
        assert_eq!(samples_beyond(200, 0.95), 10);
        assert_eq!(samples_beyond(199, 0.95), 9);
        assert_eq!(samples_beyond(100, 0.5), 50);
        assert_eq!(samples_beyond(0, 0.95), 0);
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        let p95 = percentile(&v, 0.95);
        assert_eq!(v.iter().filter(|&&x| x > p95).count(), 10);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn per_input_overhead_ignores_partial_cycles() {
        let mut untraced = PerInput::new(2);
        let mut traced = PerInput::new(2);
        // Input 1 is 9× input 0; the untraced phase saw input 0 more often.
        for _ in 0..5 {
            untraced.add(0, 100);
        }
        untraced.add(1, 900);
        traced.add(0, 110);
        traced.add(1, 990);
        traced.add(1, 990);
        assert!((traced.overhead_vs(&untraced) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn generator_repeats_per_seed() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut g = SplitMix64::new(9);
                move |_| g.next_u64()
            })
            .collect();
        let mut g = SplitMix64::new(9);
        assert_eq!(a, (0..4).map(|_| g.next_u64()).collect::<Vec<_>>());
        assert_ne!(
            SplitMix64::new(9).next_u64(),
            SplitMix64::new(10).next_u64()
        );
        let mut g = SplitMix64::new(3);
        for _ in 0..1000 {
            let x = g.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }
}
