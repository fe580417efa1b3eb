//! §II.A ablation: stream length N versus accuracy for the designs the paper
//! evaluates at N = 256. SC precision grows like log2(N) (each bit position
//! carries equal weight), so halving the error costs roughly 4× the latency —
//! the fundamental SC trade-off the correlation circuits have to live inside.

use sc_bench::{cell, print_table};
use sc_bitstream::{ErrorStats, Probability};
use sc_convert::DigitalToStochastic;
use sc_core::ops::{desync_saturating_add, sync_max};
use sc_core::{CorrelationManipulator, Synchronizer};
use sc_rng::{Halton, VanDerCorput};

const STEPS: u64 = 16;

/// The stream lengths swept, shortest first.
const LENGTHS: [usize; 7] = [16, 32, 64, 128, 256, 512, 1024];

struct LengthResult {
    n: usize,
    multiply_error: f64,
    sync_max_error: f64,
    satadd_error: f64,
    sync_scc: f64,
}

fn sweep(n: usize) -> LengthResult {
    let mut multiply = ErrorStats::new();
    let mut max = ErrorStats::new();
    let mut satadd = ErrorStats::new();
    let mut scc_sum = 0.0;
    let mut scc_count = 0u32;
    for i in 1..STEPS {
        for j in 1..STEPS {
            let px = i as f64 / STEPS as f64;
            let py = j as f64 / STEPS as f64;
            let mut gx = DigitalToStochastic::new(VanDerCorput::new());
            let mut gy = DigitalToStochastic::new(Halton::new(3));
            let x = gx.generate(Probability::saturating(px), n);
            let y = gy.generate(Probability::saturating(py), n);
            multiply.record(x.and(&y).value(), px * py);
            max.record(sync_max(&x, &y, 1).expect("lengths").value(), px.max(py));
            satadd.record(
                desync_saturating_add(&x, &y, 1).expect("lengths").value(),
                (px + py).min(1.0),
            );
            let mut sync = Synchronizer::new(1);
            let (sx, sy) = sync.process(&x, &y).expect("lengths");
            if sx.count_ones() > 0
                && sx.count_ones() < n
                && sy.count_ones() > 0
                && sy.count_ones() < n
            {
                scc_sum += sc_bitstream::scc(&sx, &sy);
                scc_count += 1;
            }
        }
    }
    LengthResult {
        n,
        multiply_error: multiply.mean_abs_error(),
        sync_max_error: max.mean_abs_error(),
        satadd_error: satadd.mean_abs_error(),
        sync_scc: scc_sum / f64::from(scc_count.max(1)),
    }
}

fn main() {
    println!("Ablation — stream length N vs accuracy (15x15 value grid per N)");
    let results: Vec<LengthResult> = LENGTHS.into_iter().map(sweep).collect();
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            vec![
                r.n.to_string(),
                format!("{:.1}", (r.n as f64).log2()),
                cell(r.multiply_error),
                cell(r.sync_max_error),
                cell(r.satadd_error),
                cell(r.sync_scc),
            ]
        })
        .collect();
    print_table(
        "Accuracy vs stream length",
        &[
            "N",
            "eq. bits",
            "AND multiply err",
            "sync-max err",
            "desync-satadd err",
            "sync output SCC",
        ],
        &rows,
    );
    let first = &results[0];
    let last = &results[results.len() - 1];
    println!(
        "\nMultiply error improves {:.1}x while latency grows {}x — the linear-latency cost of SC precision (Sec. II.A).",
        first.multiply_error / last.multiply_error.max(1e-9),
        last.n / first.n
    );
    println!(
        "The synchronizer's induced correlation is already > 0.9 at N = 64, so the correlation"
    );
    println!("circuits do not limit how short the streams can be; quantization does.");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The two claims `main` prints under the table.
    #[test]
    fn precision_grows_with_n_and_the_synchronizer_needs_no_long_streams() {
        let results: Vec<LengthResult> = LENGTHS.into_iter().map(sweep).collect();
        // Quantization dominates the AND multiply's error, so it falls with
        // N: 38.9x from N = 16 to 1024 (0.0281 against 0.0007). 10x keeps
        // the claim with room for the sources' discrepancy; streams that did
        // not encode their values would not fall at all.
        let (first, last) = (&results[0], &results[results.len() - 1]);
        assert!(
            first.multiply_error >= 10.0 * last.multiply_error,
            "multiply error {} at N = {} vs {} at N = {}",
            first.multiply_error,
            first.n,
            last.multiply_error,
            last.n
        );
        // The synchronizer's output correlation: above 0.9 from N = 64 on.
        for r in results.iter().filter(|r| r.n >= 64) {
            assert!(
                r.sync_scc > 0.9,
                "sync output SCC {} at N = {}",
                r.sync_scc,
                r.n
            );
        }
    }
}
