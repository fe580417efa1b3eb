//! Reproduces Table II: average SCC before and after each correlation
//! manipulating circuit, and the value bias it introduces, for the paper's
//! RNG configurations at N = 256.
//!
//! Rows whose two sources are the same family *and* whose paper input SCC is
//! close to +1 (the decorrelator/isolator/TFM rows and the third
//! synchronizer/desynchronizer rows) are generated from shared source
//! samples, exactly as sharing one hardware RNG between two D/S converters
//! would; all other rows use two independent sources.
//!
//! Pass `--quick` to run a coarser value grid (useful in debug builds). The
//! run exits non-zero unless every row's output-SCC sign agrees with the
//! paper's.

use sc_bench::{cell, print_table, PAPER_STREAM_LENGTH};
use sc_core::analysis::{
    evaluate_manipulator, evaluate_manipulator_on_correlated_inputs, ManipulatorEvaluation,
    SweepConfig,
};
use sc_core::{
    CorrelationManipulator, Decorrelator, Desynchronizer, Isolator, Synchronizer,
    TrackingForecastMemory,
};
use sc_rng::RngKind;

struct Row {
    design: &'static str,
    x_rng: &'static str,
    y_rng: &'static str,
    paper_input_scc: f64,
    paper_output_scc: f64,
    paper_bias_x: f64,
    paper_bias_y: f64,
    eval: ManipulatorEvaluation,
}

fn kind(label: &str) -> RngKind {
    match label {
        "VDC" => RngKind::VanDerCorput,
        "Halton" => RngKind::Halton,
        "LFSR" => RngKind::Lfsr,
        other => panic!("unknown source label {other}"),
    }
}

fn evaluate<M, F>(
    make: F,
    x: &'static str,
    y: &'static str,
    shared: bool,
    config: SweepConfig,
) -> ManipulatorEvaluation
where
    M: CorrelationManipulator,
    F: FnMut() -> M,
{
    if shared {
        evaluate_manipulator_on_correlated_inputs(make, kind(x), config)
            .expect("sweep with shared source")
    } else {
        evaluate_manipulator(make, kind(x), kind(y), config).expect("sweep")
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let config = if quick {
        SweepConfig::quick()
    } else {
        SweepConfig {
            stream_length: PAPER_STREAM_LENGTH,
            value_steps: 32,
        }
    };
    println!(
        "Table II — SCC before/after correlation manipulating circuits (N = {}, {} value pairs/row)",
        config.stream_length,
        (config.value_steps - 1) * (config.value_steps - 1)
    );

    let depth = 1;
    let rows = vec![
        // Synchronizer (Fig. 3a).
        Row {
            design: "Synchronizer",
            x_rng: "VDC",
            y_rng: "Halton",
            paper_input_scc: -0.048,
            paper_output_scc: 0.996,
            paper_bias_x: -0.001,
            paper_bias_y: -0.002,
            eval: evaluate(|| Synchronizer::new(depth), "VDC", "Halton", false, config),
        },
        Row {
            design: "Synchronizer",
            x_rng: "LFSR",
            y_rng: "VDC",
            paper_input_scc: -0.062,
            paper_output_scc: 0.903,
            paper_bias_x: -0.002,
            paper_bias_y: -0.001,
            eval: evaluate(|| Synchronizer::new(depth), "LFSR", "VDC", false, config),
        },
        Row {
            design: "Synchronizer",
            x_rng: "Halton",
            y_rng: "Halton",
            paper_input_scc: 0.984,
            paper_output_scc: 0.992,
            paper_bias_x: -0.002,
            paper_bias_y: -0.002,
            eval: evaluate(
                || Synchronizer::new(depth),
                "Halton",
                "Halton",
                true,
                config,
            ),
        },
        // Desynchronizer (Fig. 3b).
        Row {
            design: "Desynchronizer",
            x_rng: "VDC",
            y_rng: "Halton",
            paper_input_scc: -0.048,
            paper_output_scc: -0.981,
            paper_bias_x: -0.002,
            paper_bias_y: 0.0,
            eval: evaluate(
                || Desynchronizer::new(depth),
                "VDC",
                "Halton",
                false,
                config,
            ),
        },
        Row {
            design: "Desynchronizer",
            x_rng: "LFSR",
            y_rng: "VDC",
            paper_input_scc: -0.062,
            paper_output_scc: -0.788,
            paper_bias_x: -0.002,
            paper_bias_y: 0.0,
            eval: evaluate(|| Desynchronizer::new(depth), "LFSR", "VDC", false, config),
        },
        Row {
            design: "Desynchronizer",
            x_rng: "Halton",
            y_rng: "Halton",
            paper_input_scc: 0.984,
            paper_output_scc: -0.930,
            paper_bias_x: -0.003,
            paper_bias_y: 0.0,
            eval: evaluate(
                || Desynchronizer::new(depth),
                "Halton",
                "Halton",
                true,
                config,
            ),
        },
        // Decorrelator (Fig. 4a).
        Row {
            design: "Decorrelator",
            x_rng: "LFSR",
            y_rng: "LFSR",
            paper_input_scc: 0.992,
            paper_output_scc: 0.249,
            paper_bias_x: 0.000,
            paper_bias_y: -0.004,
            eval: evaluate(|| Decorrelator::new(4), "LFSR", "LFSR", true, config),
        },
        Row {
            design: "Decorrelator",
            x_rng: "VDC",
            y_rng: "VDC",
            paper_input_scc: 0.992,
            paper_output_scc: 0.168,
            paper_bias_x: 0.001,
            paper_bias_y: 0.003,
            eval: evaluate(|| Decorrelator::new(4), "VDC", "VDC", true, config),
        },
        Row {
            design: "Decorrelator",
            x_rng: "Halton",
            y_rng: "Halton",
            paper_input_scc: 0.984,
            paper_output_scc: 0.067,
            paper_bias_x: 0.001,
            paper_bias_y: 0.002,
            eval: evaluate(|| Decorrelator::new(4), "Halton", "Halton", true, config),
        },
        // Isolator insertion baseline.
        Row {
            design: "Isolator",
            x_rng: "LFSR",
            y_rng: "LFSR",
            paper_input_scc: 0.992,
            paper_output_scc: 0.600,
            paper_bias_x: -0.002,
            paper_bias_y: 0.000,
            eval: evaluate(|| Isolator::new(1), "LFSR", "LFSR", true, config),
        },
        Row {
            design: "Isolator",
            x_rng: "VDC",
            y_rng: "VDC",
            paper_input_scc: 0.992,
            paper_output_scc: -0.637,
            paper_bias_x: -0.004,
            paper_bias_y: 0.000,
            eval: evaluate(|| Isolator::new(1), "VDC", "VDC", true, config),
        },
        Row {
            design: "Isolator",
            x_rng: "Halton",
            y_rng: "Halton",
            paper_input_scc: 0.984,
            paper_output_scc: -0.353,
            paper_bias_x: 0.002,
            paper_bias_y: 0.000,
            eval: evaluate(|| Isolator::new(1), "Halton", "Halton", true, config),
        },
        // Tracking forecast memory baseline.
        Row {
            design: "TFM",
            x_rng: "LFSR",
            y_rng: "LFSR",
            paper_input_scc: 0.992,
            paper_output_scc: 0.654,
            paper_bias_x: -0.014,
            paper_bias_y: -0.051,
            eval: evaluate(
                || TrackingForecastMemory::new(3),
                "LFSR",
                "LFSR",
                true,
                config,
            ),
        },
        Row {
            design: "TFM",
            x_rng: "VDC",
            y_rng: "VDC",
            paper_input_scc: 0.992,
            paper_output_scc: 0.779,
            paper_bias_x: 0.246,
            paper_bias_y: 0.363,
            eval: evaluate(
                || TrackingForecastMemory::new(3),
                "VDC",
                "VDC",
                true,
                config,
            ),
        },
        Row {
            design: "TFM",
            x_rng: "Halton",
            y_rng: "Halton",
            paper_input_scc: 0.984,
            paper_output_scc: 0.353,
            paper_bias_x: -0.005,
            paper_bias_y: -0.007,
            eval: evaluate(
                || TrackingForecastMemory::new(3),
                "Halton",
                "Halton",
                true,
                config,
            ),
        },
    ];

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.design.to_string(),
                format!("{}/{}", r.x_rng, r.y_rng),
                cell(r.paper_input_scc),
                cell(r.eval.input_scc),
                cell(r.paper_output_scc),
                cell(r.eval.output_scc),
                cell(r.paper_bias_x),
                cell(r.eval.bias_x),
                cell(r.paper_bias_y),
                cell(r.eval.bias_y),
            ]
        })
        .collect();

    print_table(
        "Table II (paper vs measured)",
        &[
            "design",
            "X/Y RNG",
            "in SCC (paper)",
            "in SCC (ours)",
            "out SCC (paper)",
            "out SCC (ours)",
            "X' bias (paper)",
            "X' bias (ours)",
            "Y' bias (paper)",
            "Y' bias (ours)",
        ],
        &table,
    );

    // Shape summary: the sign and ordering of the output SCC is what the
    // paper's argument rests on, so any disagreeing row fails the run.
    let disagreeing: Vec<&Row> = rows
        .iter()
        .filter(|r| {
            !(r.paper_output_scc == 0.0
                || (r.paper_output_scc > 0.0) == (r.eval.output_scc > 0.0)
                || r.eval.output_scc.abs() < 0.3)
        })
        .collect();
    println!(
        "\nOutput-SCC sign/shape agreement: {}/{} rows",
        rows.len() - disagreeing.len(),
        rows.len()
    );
    if !disagreeing.is_empty() {
        for r in &disagreeing {
            eprintln!(
                "sign disagreement: {} {}/{}: paper {:+.3}, measured {:+.3}",
                r.design, r.x_rng, r.y_rng, r.paper_output_scc, r.eval.output_scc
            );
        }
        std::process::exit(1);
    }
}
