//! Reproduces Table I: the functions implemented by a two-input AND gate when
//! its input stochastic numbers are positively correlated, negatively
//! correlated, or uncorrelated.
//!
//! The table is reproduced twice: once on the paper's literal 8-bit example
//! streams, and once as a sweep over a grid of values at N = 256 where the
//! required correlation is produced by the paper's own circuits (synchronizer
//! for +1, desynchronizer for −1, independent low-discrepancy sources for 0).

use sc_bench::{cell, print_comparisons, print_table, Comparison, PAPER_STREAM_LENGTH};
use sc_bitstream::{scc, Bitstream, ErrorStats, Probability};
use sc_convert::DigitalToStochastic;
use sc_core::{CorrelationManipulator, Desynchronizer, Synchronizer};
use sc_rng::{Halton, VanDerCorput};

/// One literal 8-bit Table I row: the correlation, the function the AND
/// gate realises and its value, and what `X & Y` measured.
struct LiteralRow {
    label: &'static str,
    function: &'static str,
    expected: f64,
    scc: f64,
    and: Bitstream,
}

/// The paper's three literal rows: X = 10101010 (0.5) against a positively
/// correlated, a negatively correlated and an uncorrelated Y of value 0.75.
fn literal_rows() -> Result<Vec<LiteralRow>, sc_bitstream::Error> {
    let x = Bitstream::parse("10101010")?;
    let cases = [
        ("positively correlated", "10111011", "min(pX, pY)", 0.5),
        (
            "negatively correlated",
            "11011101",
            "max(0, pX + pY - 1)",
            0.25,
        ),
        ("uncorrelated", "11111100", "pX * pY", 0.375),
    ];
    cases
        .into_iter()
        .map(|(label, y_bits, function, expected)| {
            let y = Bitstream::parse(y_bits)?;
            Ok(LiteralRow {
                label,
                function,
                expected,
                scc: scc(&x, &y),
                and: x.and(&y),
            })
        })
        .collect()
}

/// The swept rows at stream length `n` over a 15×15 value grid: the error of
/// AND as min on synchronized inputs, as saturating subtract on
/// desynchronized inputs, and as multiply on uncorrelated inputs.
fn swept_errors(n: usize) -> [ErrorStats; 3] {
    let steps = 16u64;
    let mut min_stats = ErrorStats::new();
    let mut sat_stats = ErrorStats::new();
    let mut mul_stats = ErrorStats::new();
    for i in 1..steps {
        for j in 1..steps {
            let px = i as f64 / steps as f64;
            let py = j as f64 / steps as f64;
            let mut gx = DigitalToStochastic::new(VanDerCorput::new());
            let mut gy = DigitalToStochastic::new(Halton::new(3));
            let x = gx.generate(Probability::saturating(px), n);
            let y = gy.generate(Probability::saturating(py), n);

            // Positive correlation via the synchronizer: AND computes min.
            let mut sync = Synchronizer::new(1);
            let (sx, sy) = sync.process(&x, &y).expect("equal lengths");
            min_stats.record(sx.and(&sy).value(), px.min(py));

            // Negative correlation via the desynchronizer: AND computes max(0, px+py-1).
            let mut desync = Desynchronizer::new(1);
            let (dx, dy) = desync.process(&x, &y).expect("equal lengths");
            sat_stats.record(dx.and(&dy).value(), (px + py - 1.0).max(0.0));

            // Uncorrelated: AND computes the product.
            mul_stats.record(x.and(&y).value(), px * py);
        }
    }
    [min_stats, sat_stats, mul_stats]
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("Table I — SC functions implemented by a two-input AND gate");
    let rows: Vec<Vec<String>> = literal_rows()?
        .iter()
        .map(|row| {
            vec![
                row.label.to_string(),
                format!("{:+.2}", row.scc),
                row.and.to_bit_string(),
                row.function.to_string(),
                cell(row.expected),
                cell(row.and.value()),
            ]
        })
        .collect();
    print_table(
        "Table I — literal 8-bit examples (X = 10101010, pX = 0.5, pY = 0.75)",
        &[
            "correlation",
            "SCC",
            "X & Y",
            "function",
            "expected",
            "measured",
        ],
        &rows,
    );

    let [min_stats, sat_stats, mul_stats] = swept_errors(PAPER_STREAM_LENGTH);
    print_comparisons(
        "Table I — swept at N = 256 (mean absolute error of each realised function)",
        &[
            Comparison::new(
                "AND as min (synchronized inputs)",
                0.0,
                min_stats.mean_abs_error(),
            ),
            Comparison::new(
                "AND as saturating subtract (desynchronized)",
                0.0,
                sat_stats.mean_abs_error(),
            ),
            Comparison::new(
                "AND as multiply (uncorrelated)",
                0.0,
                mul_stats.mean_abs_error(),
            ),
        ],
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The literal rows are exact: each 8-bit pair sits at its correlation
    /// extreme (or, for the third, at SCC 0 with the product representable
    /// in 8 bits), so the AND gate realises its function with no rounding.
    #[test]
    fn literal_rows_are_exact() {
        let rows = literal_rows().unwrap();
        let values: Vec<f64> = rows.iter().map(|row| row.and.value()).collect();
        assert_eq!(values, [0.5, 0.25, 0.375]);
        for row in &rows {
            assert_eq!(row.and.value(), row.expected, "{}", row.label);
        }
        assert_eq!(rows[0].scc, 1.0, "positively correlated pair");
        assert_eq!(rows[1].scc, -1.0, "negatively correlated pair");
    }

    /// Swept at N = 256, each function's mean absolute error is at most
    /// 0.01: measured 0.0023 (min), 0.0035 (saturating subtract) and 0.0026
    /// (multiply). The band is about 3x the largest, so rounding at N = 256
    /// stays inside it, while a row whose inputs lose the correlation its
    /// function needs lands far outside.
    #[test]
    fn swept_functions_track_their_targets() {
        let names = ["min", "saturating subtract", "multiply"];
        for (name, stats) in names.iter().zip(swept_errors(PAPER_STREAM_LENGTH)) {
            let error = stats.mean_abs_error();
            assert!(error <= 0.01, "AND as {name}: mean abs error {error}");
        }
    }
}
