//! Error and bias accumulators used by every experiment harness.
//!
//! The paper reports two quality metrics:
//!
//! * **average absolute error** — mean of `|measured − expected|` over a sweep,
//! * **average bias** — mean of `measured − expected` (signed), used to show
//!   that correlation manipulating circuits preserve SN values (Table II).

use crate::bitstream::Bitstream;
use crate::correlation::try_scc;
use crate::error::Result;

/// Streaming accumulator of signed and absolute error statistics.
///
/// # Example
///
/// ```
/// use sc_bitstream::ErrorStats;
///
/// let mut stats = ErrorStats::new();
/// stats.record(0.52, 0.50);
/// stats.record(0.47, 0.50);
/// assert_eq!(stats.count(), 2);
/// assert!((stats.mean_abs_error() - 0.025).abs() < 1e-12);
/// assert!((stats.mean_bias() - (-0.005)).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ErrorStats {
    count: u64,
    sum_error: f64,
    sum_abs_error: f64,
    max_abs_error: f64,
}

impl ErrorStats {
    /// Creates an empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one `(measured, expected)` observation.
    pub fn record(&mut self, measured: f64, expected: f64) {
        let e = measured - expected;
        self.count += 1;
        self.sum_error += e;
        self.sum_abs_error += e.abs();
        if e.abs() > self.max_abs_error {
            self.max_abs_error = e.abs();
        }
    }

    /// Merges another accumulator into this one.
    pub fn merge(&mut self, other: &ErrorStats) {
        self.count += other.count;
        self.sum_error += other.sum_error;
        self.sum_abs_error += other.sum_abs_error;
        self.max_abs_error = self.max_abs_error.max(other.max_abs_error);
    }

    /// Number of observations recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean signed error (bias). Returns 0 when empty.
    #[must_use]
    pub fn mean_bias(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_error / self.count as f64
        }
    }

    /// Mean absolute error. Returns 0 when empty.
    #[must_use]
    pub fn mean_abs_error(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_abs_error / self.count as f64
        }
    }

    /// Largest absolute error observed.
    #[must_use]
    pub fn max_abs_error(&self) -> f64 {
        self.max_abs_error
    }
}

impl FromIterator<(f64, f64)> for ErrorStats {
    fn from_iter<I: IntoIterator<Item = (f64, f64)>>(iter: I) -> Self {
        let mut s = ErrorStats::new();
        for (measured, expected) in iter {
            s.record(measured, expected);
        }
        s
    }
}

/// Aggregated before/after statistics for a pair of streams passed through a
/// correlation manipulating circuit — exactly the quantities of Table II.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StreamPairStats {
    count: u64,
    sum_input_scc: f64,
    sum_output_scc: f64,
    sum_bias_x: f64,
    sum_bias_y: f64,
}

impl StreamPairStats {
    /// Creates an empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one manipulated pair: the original inputs and the circuit outputs.
    ///
    /// # Errors
    ///
    /// Returns an error if any pair of streams has mismatched lengths or is empty.
    pub fn record(
        &mut self,
        input_x: &Bitstream,
        input_y: &Bitstream,
        output_x: &Bitstream,
        output_y: &Bitstream,
    ) -> Result<()> {
        let in_scc = try_scc(input_x, input_y)?;
        let out_scc = try_scc(output_x, output_y)?;
        self.count += 1;
        self.sum_input_scc += in_scc;
        self.sum_output_scc += out_scc;
        let bx = output_x.value() - input_x.value();
        let by = output_y.value() - input_y.value();
        self.sum_bias_x += bx;
        self.sum_bias_y += by;
        Ok(())
    }

    /// Merges another accumulator into this one.
    pub fn merge(&mut self, other: &StreamPairStats) {
        self.count += other.count;
        self.sum_input_scc += other.sum_input_scc;
        self.sum_output_scc += other.sum_output_scc;
        self.sum_bias_x += other.sum_bias_x;
        self.sum_bias_y += other.sum_bias_y;
    }

    /// Number of pairs recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean SCC of the input pairs.
    #[must_use]
    pub fn mean_input_scc(&self) -> f64 {
        self.mean(self.sum_input_scc)
    }

    /// Mean SCC of the output pairs.
    #[must_use]
    pub fn mean_output_scc(&self) -> f64 {
        self.mean(self.sum_output_scc)
    }

    /// Mean signed value change of the first stream (`X'` bias in Table II).
    #[must_use]
    pub fn mean_bias_x(&self) -> f64 {
        self.mean(self.sum_bias_x)
    }

    /// Mean signed value change of the second stream (`Y'` bias in Table II).
    #[must_use]
    pub fn mean_bias_y(&self) -> f64 {
        self.mean(self.sum_bias_y)
    }

    fn mean(&self, sum: f64) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            sum / self.count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitstream::Bitstream;
    use proptest::prelude::*;

    #[test]
    fn empty_stats_are_zero() {
        let s = ErrorStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean_bias(), 0.0);
        assert_eq!(s.mean_abs_error(), 0.0);
        assert_eq!(s.max_abs_error(), 0.0);
    }

    #[test]
    fn stats_accumulate_correctly() {
        let mut s = ErrorStats::new();
        s.record(1.0, 0.5); // +0.5
        s.record(0.0, 0.5); // -0.5
        assert_eq!(s.count(), 2);
        assert_eq!(s.mean_bias(), 0.0);
        assert_eq!(s.mean_abs_error(), 0.5);
        assert_eq!(s.max_abs_error(), 0.5);
    }

    #[test]
    fn stats_merge_matches_sequential() {
        let mut a = ErrorStats::new();
        a.record(0.3, 0.25);
        let mut b = ErrorStats::new();
        b.record(0.8, 0.75);
        b.record(0.1, 0.5);
        let mut merged = a;
        merged.merge(&b);

        let seq: ErrorStats = [(0.3, 0.25), (0.8, 0.75), (0.1, 0.5)].into_iter().collect();
        assert_eq!(merged.count(), seq.count());
        assert!((merged.mean_abs_error() - seq.mean_abs_error()).abs() < 1e-12);
        assert!((merged.mean_bias() - seq.mean_bias()).abs() < 1e-12);
    }

    #[test]
    fn pair_stats_identity_circuit_has_zero_bias() {
        let x = Bitstream::parse("10101010").unwrap();
        let y = Bitstream::parse("11111100").unwrap();
        let mut s = StreamPairStats::new();
        s.record(&x, &y, &x, &y).unwrap();
        assert_eq!(s.count(), 1);
        assert_eq!(s.mean_bias_x(), 0.0);
        assert_eq!(s.mean_bias_y(), 0.0);
        assert_eq!(s.mean_input_scc(), s.mean_output_scc());
    }

    #[test]
    fn pair_stats_detects_value_change_and_scc_change() {
        let x = Bitstream::parse("10101010").unwrap();
        let y = Bitstream::parse("11111100").unwrap();
        // Fake "output": drop one 1 from x and force y to match x exactly.
        let xo = Bitstream::parse("00101010").unwrap();
        let yo = xo.clone();
        let mut s = StreamPairStats::new();
        s.record(&x, &y, &xo, &yo).unwrap();
        assert!(s.mean_bias_x() < 0.0);
        assert!(s.mean_bias_y() < 0.0);
        assert_eq!(s.mean_output_scc(), 1.0);
    }

    #[test]
    fn pair_stats_merge() {
        let x = Bitstream::parse("1100").unwrap();
        let y = Bitstream::parse("1010").unwrap();
        let mut a = StreamPairStats::new();
        a.record(&x, &y, &x, &y).unwrap();
        let mut b = StreamPairStats::new();
        b.record(&y, &x, &y, &x).unwrap();
        a.merge(&b);
        assert_eq!(a.count(), 2);
    }

    #[test]
    fn pair_stats_rejects_mismatched_lengths() {
        let x = Bitstream::parse("1100").unwrap();
        let y = Bitstream::parse("10100").unwrap();
        let mut s = StreamPairStats::new();
        assert!(s.record(&x, &y, &x, &y).is_err());
    }

    proptest! {
        #[test]
        fn prop_mean_abs_error_at_least_abs_bias(pairs in proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0), 1..50)) {
            let stats: ErrorStats = pairs.into_iter().collect();
            prop_assert!(stats.mean_abs_error() + 1e-12 >= stats.mean_bias().abs());
            prop_assert!(stats.max_abs_error() + 1e-12 >= stats.mean_abs_error());
        }
    }
}
