//! Reproduces Table III: average absolute error, bias, area, power, and
//! energy of the SC maximum and minimum designs (OR max, correlation-agnostic
//! max, synchronizer max, AND min, synchronizer min) at N = 256, plus the
//! §II.B correlation-agnostic-adder overhead comparison.
//!
//! Accuracy follows the paper's methodology: inputs are generated exhaustively
//! from a Van der Corput sequence (X) and a base-3 Halton sequence (Y). Pass
//! `--full` for the exhaustive 257×257 value grid; the default uses a 65×65
//! grid, which reproduces the averages to three decimal places.

use sc_arith::maxmin::{and_min, ca_max, or_max};
use sc_bench::{cell, cell1, print_comparisons, print_table, Comparison, PAPER_STREAM_LENGTH};
use sc_bitstream::{Bitstream, ErrorStats, Probability};
use sc_convert::DigitalToStochastic;
use sc_core::ops::{sync_max, sync_min};
use sc_hwcost::characterize;
use sc_hwcost::CostReport;
use sc_rng::{Halton, VanDerCorput};

/// One Table III design: the paper's columns and ours.
struct DesignRow {
    name: &'static str,
    paper_error: f64,
    paper_bias: f64,
    paper_area: f64,
    paper_power: f64,
    paper_energy: f64,
    error: ErrorStats,
    cost: CostReport,
}

/// The input grid: every count `0..=n` with `--full`, else every fourth.
fn input_grid(n: usize, full: bool) -> Vec<u64> {
    let step = if full { 1 } else { 4 };
    (0..=n as u64).step_by(step).collect()
}

/// The five Table III designs in the paper's order (OR max, CA max, sync
/// max, AND min, sync min), each priced by the cost model and swept over
/// every `(x, y)` pair of `grid` at stream length `n`.
fn table3_rows(n: usize, grid: &[u64]) -> [DesignRow; 5] {
    let mut rows = [
        DesignRow {
            name: "OR Max.",
            paper_error: 0.087,
            paper_bias: 0.087,
            paper_area: 2.16,
            paper_power: 0.26,
            paper_energy: 165.0,
            error: ErrorStats::new(),
            cost: characterize::or_max(),
        },
        DesignRow {
            name: "CA Max.",
            paper_error: 0.006,
            paper_bias: 0.001,
            paper_area: 252.36,
            paper_power: 56.7,
            paper_energy: 36288.0,
            error: ErrorStats::new(),
            cost: characterize::correlation_agnostic_max(),
        },
        DesignRow {
            name: "Sync. Max.",
            paper_error: 0.003,
            paper_bias: 0.003,
            paper_area: 48.6,
            paper_power: 4.89,
            paper_energy: 3130.0,
            error: ErrorStats::new(),
            cost: characterize::synchronizer_max(1),
        },
        DesignRow {
            name: "AND Min.",
            paper_error: 0.082,
            paper_bias: -0.082,
            paper_area: 2.16,
            paper_power: 0.25,
            paper_energy: 158.0,
            error: ErrorStats::new(),
            cost: characterize::and_min(),
        },
        DesignRow {
            name: "Sync. Min.",
            paper_error: 0.005,
            paper_bias: 0.005,
            paper_area: 45.0,
            paper_power: 8.38,
            paper_energy: 5363.0,
            error: ErrorStats::new(),
            cost: characterize::synchronizer_min(1),
        },
    ];

    // Accuracy sweep with the paper's VDC + Halton(3) input generation.
    for &kx in grid {
        for &ky in grid {
            let px = Probability::from_ratio(kx, n as u64);
            let py = Probability::from_ratio(ky, n as u64);
            let mut gx = DigitalToStochastic::new(VanDerCorput::new());
            let mut gy = DigitalToStochastic::new(Halton::new(3));
            let x: Bitstream = gx.generate(px, n);
            let y: Bitstream = gy.generate(py, n);
            let expected_max = px.get().max(py.get());
            let expected_min = px.get().min(py.get());

            rows[0]
                .error
                .record(or_max(&x, &y).expect("lengths").value(), expected_max);
            rows[1]
                .error
                .record(ca_max(&x, &y).expect("lengths").value(), expected_max);
            rows[2]
                .error
                .record(sync_max(&x, &y, 1).expect("lengths").value(), expected_max);
            rows[3]
                .error
                .record(and_min(&x, &y).expect("lengths").value(), expected_min);
            rows[4]
                .error
                .record(sync_min(&x, &y, 1).expect("lengths").value(), expected_min);
        }
    }
    rows
}

fn main() {
    let n = PAPER_STREAM_LENGTH;
    let full = std::env::args().any(|a| a == "--full");
    let grid = input_grid(n, full);
    println!(
        "Table III — SC maximum / minimum designs (N = {n}, {}x{} input grid)",
        grid.len(),
        grid.len()
    );
    let rows = table3_rows(n, &grid);

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.name.to_string(),
                cell(r.paper_error),
                cell(r.error.mean_abs_error()),
                cell(r.paper_bias),
                cell(r.error.mean_bias()),
                cell1(r.paper_area),
                cell1(r.cost.area_um2),
                cell1(r.paper_power),
                cell1(r.cost.power_uw),
                cell1(r.paper_energy),
                cell1(r.cost.energy_pj),
            ]
        })
        .collect();
    print_table(
        "Table III (paper vs measured)",
        &[
            "design",
            "err (paper)",
            "err (ours)",
            "bias (paper)",
            "bias (ours)",
            "area p.",
            "area ours",
            "power p.",
            "power ours",
            "energy p.",
            "energy ours",
        ],
        &table,
    );

    // Headline ratios.
    let sync_vs_ca = rows[2].cost.relative_to(&rows[1].cost);
    print_comparisons(
        "Headline claims",
        &[
            Comparison::new(
                "Sync. max area reduction vs CA max (x)",
                5.2,
                sync_vs_ca.area_ratio,
            ),
            Comparison::new(
                "Sync. max energy efficiency vs CA max (x)",
                11.6,
                sync_vs_ca.energy_ratio,
            ),
            Comparison::new(
                "OR max error / Sync. max error (x)",
                0.087 / 0.003,
                rows[0].error.mean_abs_error() / rows[2].error.mean_abs_error().max(1e-6),
            ),
        ],
    );

    // §II.B adder overhead comparison.
    let mux = characterize::mux_adder();
    let ca = characterize::correlation_agnostic_adder();
    print_comparisons(
        "Correlation-agnostic adder overhead (Sec. II.B)",
        &[
            Comparison::new(
                "CA adder area / MUX adder area (x)",
                5.6,
                ca.area_um2 / mux.area_um2,
            ),
            Comparison::new(
                "CA adder power / MUX adder power (x)",
                10.7,
                ca.power_uw / mux.power_uw,
            ),
        ],
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The claims Table III prints, on the default 65x65 grid. Each band sits
    /// well inside the measured value, so only a change to a design, its
    /// sweep or its price (not rounding) moves a claim across it.
    #[test]
    fn table3_claims_hold_on_the_default_grid() {
        let n = PAPER_STREAM_LENGTH;
        let [or_max, ca_max, sync_max, and_min, sync_min] = table3_rows(n, &input_grid(n, false));
        let err = |r: &DesignRow| r.error.mean_abs_error();

        // The synchronizer repairs the correlation the OR / AND gates need:
        // the paper reports 29x (max) and 16x (min) less error, measured
        // 29.7x and 42x. An order of magnitude is the claim.
        assert!(
            10.0 * err(&sync_max) <= err(&or_max),
            "sync max vs OR max error"
        );
        assert!(
            10.0 * err(&sync_min) <= err(&and_min),
            "sync min vs AND min error"
        );

        // On uncorrelated inputs the OR gate overestimates the maximum and
        // the AND gate underestimates the minimum.
        assert!(or_max.error.mean_bias() > 0.0, "OR max bias sign");
        assert!(and_min.error.mean_bias() < 0.0, "AND min bias sign");

        // Sync max against the correlation-agnostic max: paper 5.2x area and
        // 11.6x energy, measured 4.82x and 8.19x. The bands keep the claim
        // (several times cheaper) with room for the cost model's calibration.
        let rel = sync_max.cost.relative_to(&ca_max.cost);
        assert!(rel.area_ratio >= 4.0, "area ratio {}", rel.area_ratio);
        assert!(rel.energy_ratio >= 6.0, "energy ratio {}", rel.energy_ratio);

        // Sec. II.B: the correlation-agnostic adder costs more than the MUX
        // adder it replaces (paper 5.6x area, 10.7x power).
        let mux = characterize::mux_adder();
        let ca = characterize::correlation_agnostic_adder();
        assert!(ca.area_um2 > mux.area_um2, "CA adder area");
        assert!(ca.power_uw > mux.power_uw, "CA adder power");
    }
}
