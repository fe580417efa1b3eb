//! §III.B ablation: how the synchronizer's and desynchronizer's save depth
//! `D` trades induced correlation and value bias against hardware cost, and
//! how the flush extension removes end-of-stream bias.

use sc_bench::{cell, cell1, print_table, PAPER_STREAM_LENGTH};
use sc_bitstream::{Bitstream, Probability, StreamPairStats};
use sc_convert::DigitalToStochastic;
use sc_core::analysis::{evaluate_manipulator, ManipulatorEvaluation, SweepConfig};
use sc_core::{CorrelationManipulator, Desynchronizer, Synchronizer};
use sc_hwcost::{characterize, CostReport};
use sc_rng::{Lfsr, RngKind};

/// The save depths of the sweep.
const DEPTHS: [u32; 5] = [1, 2, 4, 8, 16];

/// The sweep of the depth table: the paper's stream length over a 15×15
/// value grid.
const CONFIG: SweepConfig = SweepConfig {
    stream_length: PAPER_STREAM_LENGTH,
    value_steps: 16,
};

/// One depth of the sweep: both FSMs on LFSR / VDC inputs, and the
/// synchronizer's price over one stream.
struct DepthRow {
    depth: u32,
    sync: ManipulatorEvaluation,
    desync: ManipulatorEvaluation,
    sync_cost: CostReport,
}

fn depth_sweep() -> Vec<DepthRow> {
    DEPTHS
        .into_iter()
        .map(|depth| DepthRow {
            depth,
            sync: evaluate_manipulator(
                || Synchronizer::new(depth),
                RngKind::Lfsr,
                RngKind::VanDerCorput,
                CONFIG,
            )
            .expect("sweep"),
            desync: evaluate_manipulator(
                || Desynchronizer::new(depth),
                RngKind::Lfsr,
                RngKind::VanDerCorput,
                CONFIG,
            )
            .expect("sweep"),
            sync_cost: characterize::synchronizer(depth).report(PAPER_STREAM_LENGTH as u64),
        })
        .collect()
}

/// The larger of an evaluation's two value biases, in magnitude.
fn max_bias(eval: &ManipulatorEvaluation) -> f64 {
    eval.bias_x.abs().max(eval.bias_y.abs())
}

/// The D = 16 synchronizer on an adversarial input with a run of lone 1s at
/// the end of the stream, where saved bits would otherwise be stranded:
/// `(input value, plain output value, flushed output value)` of `X`.
fn flush_extension() -> (f64, f64, f64) {
    let n = PAPER_STREAM_LENGTH;
    let x = Bitstream::from_fn(n, |i| i >= n - 24);
    let y = Bitstream::zeros(n);
    let (plain, _) = Synchronizer::new(16).process(&x, &y).expect("lengths");
    let (flushed, _) = Synchronizer::new(16)
        .process_with_flush(&x, &y)
        .expect("lengths");
    (x.value(), plain.value(), flushed.value())
}

fn main() {
    println!("Ablation — save depth D of the synchronizer / desynchronizer FSMs");

    let rows: Vec<Vec<String>> = depth_sweep()
        .iter()
        .map(|row| {
            vec![
                row.depth.to_string(),
                cell(row.sync.output_scc),
                cell(max_bias(&row.sync)),
                cell(row.desync.output_scc),
                cell(max_bias(&row.desync)),
                cell1(row.sync_cost.area_um2),
                cell1(row.sync_cost.energy_pj),
            ]
        })
        .collect();
    print_table(
        "Save depth sweep (LFSR / VDC inputs, N = 256)",
        &[
            "D",
            "sync out SCC",
            "sync |bias|",
            "desync out SCC",
            "desync |bias|",
            "sync area (um2)",
            "sync energy (pJ)",
        ],
        &rows,
    );

    println!("\nFlush extension on an adversarial end-of-stream run (D = 16):");
    let (input, plain, flushed) = flush_extension();
    println!("  input value {input:.4}  plain output {plain:.4}  flushed output {flushed:.4}");

    // Depth also matters downstream: the synchronizer-based max accuracy.
    let n = PAPER_STREAM_LENGTH;
    let mut rows = Vec::new();
    for d in DEPTHS {
        let mut stats = StreamPairStats::new();
        let mut err = 0.0;
        let mut count = 0u32;
        for kx in (0..=16u64).map(|k| k as f64 / 16.0) {
            for ky in (0..=16u64).map(|k| k as f64 / 16.0) {
                let mut gx = DigitalToStochastic::new(Lfsr::new(16, 0xACE1));
                let mut gy = DigitalToStochastic::new(Lfsr::new(16, 0xBEEF));
                let x = gx.generate(Probability::saturating(kx), n);
                let y = gy.generate(Probability::saturating(ky), n);
                let mut sync = Synchronizer::new(d);
                let (sx, sy) = sync.process(&x, &y).expect("lengths");
                stats.record(&x, &y, &sx, &sy).expect("lengths");
                err += (sx.or(&sy).value() - kx.max(ky)).abs();
                count += 1;
            }
        }
        rows.push(vec![
            d.to_string(),
            cell(stats.mean_output_scc()),
            cell(err / f64::from(count)),
        ]);
    }
    print_table(
        "Synchronizer-max accuracy vs depth (LFSR-generated inputs)",
        &["D", "mean output SCC", "sync-max mean abs error"],
        &rows,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The claims the depth sweep and the flush line print. The trends are
    /// the claim; each level band sits below the weakest measured depth.
    #[test]
    fn save_depth_claims_hold() {
        let rows = depth_sweep();
        for pair in rows.windows(2) {
            let (shallow, deep) = (&pair[0], &pair[1]);
            let d = deep.depth;
            // A deeper synchronizer pairs more lone 1s, so its output
            // correlation never falls (measured 0.9578 at D = 1 up to
            // 1.0000 at D = 8 and 16); the desynchronizer, its mirror,
            // never rises (-0.8261 down to -0.9997).
            assert!(
                deep.sync.output_scc >= shallow.sync.output_scc,
                "sync SCC falls at D = {d}"
            );
            assert!(
                deep.desync.output_scc <= shallow.desync.output_scc,
                "desync SCC rises at D = {d}"
            );
            // The price of depth: more bits held at the end of the stream
            // (sync |bias| 0.0012 at D = 1 to 0.0286 at D = 16) and more
            // state to hold them in.
            assert!(
                max_bias(&deep.sync) > max_bias(&shallow.sync),
                "sync |bias| does not rise at D = {d}"
            );
            assert!(
                deep.sync_cost.area_um2 > shallow.sync_cost.area_um2,
                "sync area does not rise at D = {d}"
            );
        }
        for row in &rows {
            // Every depth establishes its class: the weakest measured are
            // D = 1's 0.9578 and -0.8261.
            let d = row.depth;
            assert!(row.sync.output_scc >= 0.95, "sync SCC at D = {d}");
            assert!(row.desync.output_scc <= -0.8, "desync SCC at D = {d}");
        }

        // Flushing returns stranded bits to the output: 0.0469 against the
        // plain 0.0312, for an input of 0.0938.
        let (input, plain, flushed) = flush_extension();
        assert!(
            (flushed - input).abs() < (plain - input).abs(),
            "flushed {flushed} is no closer to {input} than plain {plain}"
        );
    }
}
