//! # sc-bench
//!
//! Experiment harness for the DATE 2018 correlation-manipulation reproduction.
//!
//! Every table and figure of the paper's evaluation has a dedicated binary in
//! `src/bin/` that regenerates it and prints a paper-vs-measured comparison:
//!
//! | binary | reproduces |
//! |--------|------------|
//! | `fig1_basics` | Fig. 1 — SC multiply and scaled add worked examples |
//! | `table1_and_functions` | Table I — AND-gate functions under ±1 / 0 correlation |
//! | `fig2_operations` | Fig. 2 — accuracy of each correlation-sensitive operation |
//! | `table2_scc` | Table II — SCC before/after each manipulating circuit |
//! | `table3_maxmin` | Table III — accuracy/area/power/energy of max/min designs |
//! | `table4_pipeline` | Table IV — GB→ED accelerator quality, area and energy |
//! | `ablation_depth` | §III.B — save-depth sweep of the synchronizer/desynchronizer |
//! | `ablation_decorrelator` | Fig. 4 — shuffle-buffer depth sweep |
//! | `ablation_compose` | §III.B — series composition of D = 1 circuits |
//! | `ablation_satadd` | Fig. 5c — saturating adder accuracy sweep |
//! | `ablation_length` | §II.A — stream length vs. precision sweep |
//!
//! Two kernel perf-trajectory binaries record engine evidence as JSON:
//! `word_parallel_speedup` (`BENCH_word_parallel.json`, bit-serial vs
//! word-parallel kernels and speculative FSM word-stepping, plus `u64×4`
//! lane-group columns for the FSM laggards) and `lane_batch_throughput`
//! (`BENCH_lane_batch.json`, scalar vs lane-batched kernels vs the
//! executor's same-class stream transposition for `ca_max`,
//! `synchronizer_d1` and `decorrelator_d4`). End-to-end throughput of the
//! GB→ED pipeline and the warm image server is measured by the separate
//! `perfbench` package (`BENCHMARK.json` at the repository root), not here.
//!
//! Criterion throughput benchmarks live in `benches/`.
//!
//! This library crate only holds the small shared reporting helpers used by
//! those binaries.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use sc_telemetry::Json;
use std::fmt;

/// The stream length used throughout the paper's evaluation.
pub const PAPER_STREAM_LENGTH: usize = 256;

/// One row of a paper-vs-measured comparison table.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// Quantity being compared (e.g. `"Sync. Max abs. error"`).
    pub label: String,
    /// Value reported by the paper.
    pub paper: f64,
    /// Value measured by this reproduction.
    pub measured: f64,
}

impl Comparison {
    /// Creates a comparison row.
    #[must_use]
    pub fn new(label: impl Into<String>, paper: f64, measured: f64) -> Self {
        Comparison {
            label: label.into(),
            paper,
            measured,
        }
    }

    /// Relative deviation `|measured − paper| / |paper|`, or the absolute
    /// deviation when the paper value is zero.
    #[must_use]
    pub fn relative_error(&self) -> f64 {
        if self.paper.abs() < f64::EPSILON {
            (self.measured - self.paper).abs()
        } else {
            ((self.measured - self.paper) / self.paper).abs()
        }
    }

    /// Whether paper and measured values agree in sign (treating zero as
    /// matching anything), which is the minimal "shape" requirement for
    /// signed quantities like SCC and bias.
    #[must_use]
    pub fn same_sign(&self) -> bool {
        self.paper == 0.0 || self.measured == 0.0 || (self.paper > 0.0) == (self.measured > 0.0)
    }
}

impl fmt::Display for Comparison {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<44} paper {:>12.4}   measured {:>12.4}",
            self.label, self.paper, self.measured
        )
    }
}

/// Prints a titled block of comparison rows to stdout.
pub fn print_comparisons(title: &str, rows: &[Comparison]) {
    println!("\n=== {title} ===");
    for row in rows {
        println!("{row}");
    }
}

/// Prints a titled free-form table with a header row and aligned columns.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>width$}", c, width = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!(
        "{}",
        fmt_row(&header.iter().map(|s| (*s).to_string()).collect::<Vec<_>>())
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Formats a float with four significant decimals for table cells.
#[must_use]
pub fn cell(v: f64) -> String {
    format!("{v:.4}")
}

/// Formats a float with one decimal for large-magnitude table cells.
#[must_use]
pub fn cell1(v: f64) -> String {
    format!("{v:.1}")
}

/// The host context every `BENCH_*.json` evidence file embeds under a
/// `"host"` key, so a committed number can be read against the machine shape
/// that produced it: worker-thread budget, cargo profile, and the kernel
/// word/lane geometry the engine compiled with.
#[must_use]
pub fn host_context() -> Json {
    let worker_threads = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let cargo_profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    Json::obj(vec![
        ("worker_threads", Json::u64(worker_threads as u64)),
        ("cargo_profile", Json::str(cargo_profile)),
        ("word_bits", Json::u64(64)),
        ("lanes", Json::u64(sc_core::LANES as u64)),
        ("arch", Json::str(std::env::consts::ARCH)),
        ("os", Json::str(std::env::consts::OS)),
    ])
}

/// Best observed call rate (calls per second) of `f` over seven samples,
/// with the repetition count first calibrated so each sample runs for at
/// least ~20 ms and times reliably.
///
/// The throughput helper of the `telemetry_overhead` binary.
pub fn measure_rate<F: FnMut()>(mut f: F) -> f64 {
    use std::time::Instant;
    let mut reps = 1u64;
    loop {
        let start = Instant::now();
        for _ in 0..reps {
            f();
        }
        let ns = start.elapsed().as_nanos() as u64;
        if ns >= 20_000_000 || reps >= 1 << 16 {
            break;
        }
        reps = (reps * 20_000_000 / ns.max(1)).clamp(reps + 1, reps * 16);
    }
    let mut best = 0.0f64;
    for _ in 0..7 {
        let start = Instant::now();
        for _ in 0..reps {
            f();
        }
        best = best.max(reps as f64 / start.elapsed().as_secs_f64());
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comparison_relative_error() {
        let c = Comparison::new("x", 2.0, 2.2);
        assert!((c.relative_error() - 0.1).abs() < 1e-12);
        let z = Comparison::new("zero", 0.0, 0.05);
        assert!((z.relative_error() - 0.05).abs() < 1e-12);
    }

    #[test]
    fn comparison_same_sign() {
        assert!(Comparison::new("a", 0.9, 0.8).same_sign());
        assert!(!Comparison::new("b", 0.9, -0.8).same_sign());
        assert!(Comparison::new("c", 0.0, -0.8).same_sign());
    }

    #[test]
    fn display_contains_both_values() {
        let c = Comparison::new("metric", 1.0, 2.0);
        let s = c.to_string();
        assert!(s.contains("metric"));
        assert!(s.contains("1.0000"));
        assert!(s.contains("2.0000"));
    }

    #[test]
    fn cells_format() {
        assert_eq!(cell(0.5), "0.5000");
        assert_eq!(cell1(1234.56), "1234.6");
    }

    #[test]
    fn host_context_records_the_machine_shape() {
        let host = host_context();
        assert!(host.get("worker_threads").and_then(Json::as_u64).unwrap() >= 1);
        assert_eq!(host.get("word_bits").and_then(Json::as_u64), Some(64));
        assert_eq!(
            host.get("lanes").and_then(Json::as_u64),
            Some(sc_core::LANES as u64)
        );
        let profile = host.get("cargo_profile").and_then(Json::as_str).unwrap();
        assert!(profile == "debug" || profile == "release");
        // The rendered fragment is itself valid JSON — the hand-assembled
        // bench documents splice it in as text.
        sc_telemetry::json::parse(&host.to_string_compact()).unwrap();
    }

    #[test]
    fn print_helpers_do_not_panic() {
        print_comparisons("demo", &[Comparison::new("a", 1.0, 1.0)]);
        print_table(
            "demo",
            &["col1", "column2"],
            &[
                vec!["1".to_string(), "2".to_string()],
                vec!["longer".to_string(), "4".to_string()],
            ],
        );
    }
}
