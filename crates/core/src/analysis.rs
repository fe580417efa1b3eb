//! The Table II evaluation harness: average SCC before/after a correlation
//! manipulating circuit, and the value bias it introduces, averaged over a
//! grid of input values for a given pair of stochastic-number sources.

use crate::manipulator::CorrelationManipulator;
use sc_bitstream::{Probability, Result, StreamPairStats};
use sc_convert::StreamGenerator;
use sc_rng::RngKind;

/// Aggregated result of sweeping a manipulator over a grid of input values —
/// one row of Table II.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ManipulatorEvaluation {
    /// Mean SCC of the generated input pairs.
    pub input_scc: f64,
    /// Mean SCC of the manipulated output pairs.
    pub output_scc: f64,
    /// Mean signed value change of the first stream (`X'` bias).
    pub bias_x: f64,
    /// Mean signed value change of the second stream (`Y'` bias).
    pub bias_y: f64,
    /// Number of value pairs evaluated.
    pub pairs: u64,
}

/// Configuration of one Table II sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepConfig {
    /// Stream length `N` (the paper uses 256).
    pub stream_length: usize,
    /// Grid step over the value range: value pairs `(i/steps, j/steps)` for
    /// `i, j` in `1..steps` are evaluated (endpoints are skipped because a
    /// constant stream has no defined correlation).
    pub value_steps: usize,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            stream_length: 256,
            value_steps: 16,
        }
    }
}

impl SweepConfig {
    /// A quick configuration for unit tests (shorter streams, coarser grid).
    #[must_use]
    pub fn quick() -> Self {
        SweepConfig {
            stream_length: 128,
            value_steps: 8,
        }
    }
}

/// Sweeps a manipulator over the value grid with the given source pair and
/// reports the Table II quantities.
///
/// `make_manipulator` is invoked once per value pair so every pair starts from
/// a fresh FSM state, matching the per-computation usage in hardware.
///
/// # Errors
///
/// Propagates any stream-length errors from the manipulator (none occur with
/// well-formed generators).
///
/// # Example
///
/// ```
/// use sc_core::analysis::{evaluate_manipulator, SweepConfig};
/// use sc_core::Synchronizer;
/// use sc_rng::RngKind;
///
/// let eval = evaluate_manipulator(
///     || Synchronizer::new(1),
///     RngKind::VanDerCorput,
///     RngKind::Halton,
///     SweepConfig::quick(),
/// )?;
/// assert!(eval.output_scc > 0.9);
/// assert!(eval.bias_x.abs() < 0.02);
/// # Ok::<(), sc_bitstream::Error>(())
/// ```
pub fn evaluate_manipulator<M, F>(
    mut make_manipulator: F,
    source_x: RngKind,
    source_y: RngKind,
    config: SweepConfig,
) -> Result<ManipulatorEvaluation>
where
    M: CorrelationManipulator,
    F: FnMut() -> M,
{
    let mut gen_x = StreamGenerator::of_kind_variant(source_x, 0);
    // When both operands use the same source family, pick a different variant
    // for the second operand (different seed / base / dimension), matching the
    // "LFSR / LFSR" style rows of Table II which use two distinct generators.
    let y_variant = usize::from(source_x == source_y);
    let mut gen_y = StreamGenerator::of_kind_variant(source_y, y_variant);
    evaluate_manipulator_with(&mut make_manipulator, &mut gen_x, &mut gen_y, config)
}

/// Like [`evaluate_manipulator`] but with caller-supplied generators, so
/// correlated generator configurations (e.g. both operands from the *same*
/// low-discrepancy sequence) can be evaluated too.
///
/// # Errors
///
/// Propagates any stream-length errors from the manipulator.
pub fn evaluate_manipulator_with<M, F>(
    make_manipulator: &mut F,
    gen_x: &mut StreamGenerator,
    gen_y: &mut StreamGenerator,
    config: SweepConfig,
) -> Result<ManipulatorEvaluation>
where
    M: CorrelationManipulator,
    F: FnMut() -> M,
{
    let n = config.stream_length;
    let steps = config.value_steps;
    let mut stats = StreamPairStats::new();
    for i in 1..steps {
        for j in 1..steps {
            let px = Probability::from_ratio(i as u64, steps as u64);
            let py = Probability::from_ratio(j as u64, steps as u64);
            gen_x.reset();
            gen_y.reset();
            let x = gen_x.generate(px, n);
            let y = gen_y.generate(py, n);
            let mut manipulator = make_manipulator();
            let (ox, oy) = manipulator.process(&x, &y)?;
            stats.record(&x, &y, &ox, &oy)?;
        }
    }
    Ok(ManipulatorEvaluation {
        input_scc: stats.mean_input_scc(),
        output_scc: stats.mean_output_scc(),
        bias_x: stats.mean_bias_x(),
        bias_y: stats.mean_bias_y(),
        pairs: stats.count(),
    })
}

/// Sweeps a manipulator with both operands generated from the *same* source
/// instance, i.e. maximally positively correlated inputs — the configuration
/// of the decorrelator rows of Table II.
///
/// # Errors
///
/// Propagates any stream-length errors from the manipulator.
pub fn evaluate_manipulator_on_correlated_inputs<M, F>(
    mut make_manipulator: F,
    source: RngKind,
    config: SweepConfig,
) -> Result<ManipulatorEvaluation>
where
    M: CorrelationManipulator,
    F: FnMut() -> M,
{
    let n = config.stream_length;
    let steps = config.value_steps;
    let mut gen = StreamGenerator::of_kind_variant(source, 0);
    let mut stats = StreamPairStats::new();
    for i in 1..steps {
        for j in 1..steps {
            let px = Probability::from_ratio(i as u64, steps as u64);
            let py = Probability::from_ratio(j as u64, steps as u64);
            gen.reset();
            let (x, y) = gen.generate_correlated_pair(px, py, n);
            let mut manipulator = make_manipulator();
            let (ox, oy) = manipulator.process(&x, &y)?;
            stats.record(&x, &y, &ox, &oy)?;
        }
    }
    Ok(ManipulatorEvaluation {
        input_scc: stats.mean_input_scc(),
        output_scc: stats.mean_output_scc(),
        bias_x: stats.mean_bias_x(),
        bias_y: stats.mean_bias_y(),
        pairs: stats.count(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Decorrelator, Desynchronizer, Isolator, Synchronizer, TrackingForecastMemory};

    #[test]
    fn synchronizer_row_vdc_halton() {
        // Table II row 1: VDC / Halton inputs, SCC -0.05 -> 0.996, |bias| <= 0.002.
        let eval = evaluate_manipulator(
            || Synchronizer::new(1),
            RngKind::VanDerCorput,
            RngKind::Halton,
            SweepConfig::default(),
        )
        .unwrap();
        assert!(eval.input_scc.abs() < 0.2, "input scc {}", eval.input_scc);
        assert!(eval.output_scc > 0.93, "output scc {}", eval.output_scc);
        assert!(eval.bias_x.abs() < 0.01, "bias x {}", eval.bias_x);
        assert!(eval.bias_y.abs() < 0.01, "bias y {}", eval.bias_y);
        assert_eq!(eval.pairs, 15 * 15);
    }

    #[test]
    fn synchronizer_row_lfsr_vdc() {
        // Table II row 2: LFSR / VDC, output SCC ≈ 0.90.
        let eval = evaluate_manipulator(
            || Synchronizer::new(1),
            RngKind::Lfsr,
            RngKind::VanDerCorput,
            SweepConfig::default(),
        )
        .unwrap();
        assert!(eval.output_scc > 0.8, "output scc {}", eval.output_scc);
        assert!(eval.bias_x.abs() < 0.01 && eval.bias_y.abs() < 0.01);
    }

    #[test]
    fn desynchronizer_row_vdc_halton() {
        // Table II: desynchronizer drives the SCC strongly negative.
        let eval = evaluate_manipulator(
            || Desynchronizer::new(1),
            RngKind::VanDerCorput,
            RngKind::Halton,
            SweepConfig::default(),
        )
        .unwrap();
        assert!(eval.output_scc < -0.85, "output scc {}", eval.output_scc);
        assert!(eval.bias_x.abs() < 0.01 && eval.bias_y.abs() < 0.01);
    }

    #[test]
    fn decorrelator_row_on_correlated_inputs() {
        // Table II decorrelator rows: input ≈ +0.99, output well below.
        let eval = evaluate_manipulator_on_correlated_inputs(
            || Decorrelator::new(4),
            RngKind::VanDerCorput,
            SweepConfig::default(),
        )
        .unwrap();
        assert!(eval.input_scc > 0.9, "input scc {}", eval.input_scc);
        assert!(
            eval.output_scc.abs() < 0.4,
            "output scc {}",
            eval.output_scc
        );
        assert!(eval.bias_x.abs() < 0.02 && eval.bias_y.abs() < 0.02);
    }

    #[test]
    fn isolator_is_weaker_than_decorrelator() {
        let config = SweepConfig::quick();
        let iso =
            evaluate_manipulator_on_correlated_inputs(|| Isolator::new(1), RngKind::Lfsr, config)
                .unwrap();
        let deco = evaluate_manipulator_on_correlated_inputs(
            || Decorrelator::new(4),
            RngKind::Lfsr,
            config,
        )
        .unwrap();
        assert!(
            deco.output_scc.abs() <= iso.output_scc.abs() + 0.1,
            "decorrelator {} vs isolator {}",
            deco.output_scc,
            iso.output_scc
        );
    }

    #[test]
    fn tfm_biases_values_more_than_fsm_designs() {
        let config = SweepConfig::quick();
        let tfm = evaluate_manipulator_on_correlated_inputs(
            || TrackingForecastMemory::new(3),
            RngKind::VanDerCorput,
            config,
        )
        .unwrap();
        let deco = evaluate_manipulator_on_correlated_inputs(
            || Decorrelator::new(4),
            RngKind::VanDerCorput,
            config,
        )
        .unwrap();
        let tfm_bias = tfm.bias_x.abs() + tfm.bias_y.abs();
        let deco_bias = deco.bias_x.abs() + deco.bias_y.abs();
        assert!(
            tfm_bias + 1e-9 >= deco_bias,
            "tfm bias {tfm_bias} should be at least decorrelator bias {deco_bias}"
        );
    }

    #[test]
    fn quick_config_is_smaller() {
        let q = SweepConfig::quick();
        let d = SweepConfig::default();
        assert!(q.stream_length < d.stream_length);
        assert!(q.value_steps < d.value_steps);
    }
}
