//! Measures the lane-batched `u64×4` kernels and the executor's stream
//! transposition against scalar execution, and records the evidence in
//! `BENCH_lane_batch.json`.
//!
//! Run with `cargo run --release -p sc_bench --bin lane_batch_throughput`.
//! The JSON file is written to the current directory (or to the path given
//! as the first argument). For each of the three FSM laggards — `ca_max`,
//! `synchronizer_d1`, `decorrelator_d4` — at 4096-bit streams it reports,
//! per stream:
//!
//! * `scalar_ns` — one solo word-parallel call;
//! * `lane_ns` — a `LANES`-wide kernel-level lane group, time / 4;
//! * `executor_scalar_ns` — one of four same-class [`StreamJob`]s streamed
//!   through [`Executor::run_stream`] with a window of 1, which forces the
//!   scalar dispatch path;
//! * `executor_lane_ns` — the same four jobs with a window of `LANES`, which
//!   lets the executor transpose them into lanes and step their FSM stages
//!   together.
//!
//! The bin asserts bit-identity between the two executor configurations
//! before timing anything, then gates the kernel-level lane speedups and the
//! end-to-end executor transposition gain. Each scalar/lane comparison is
//! timed in interleaved pairs and gated on the median per-pair ratio, so a
//! host that changes clock speed between samples shifts both sides of a pair
//! together instead of one side of the whole comparison.

use sc_arith::maxmin::{ca_max, ca_max_lanes};
use sc_bitstream::{Bitstream, Probability};
use sc_convert::DigitalToStochastic;
use sc_core::{
    process_lane_pairs, CorrelationManipulator, Decorrelator, DecorrelatorLanes, LaneBank,
    Synchronizer, LANES,
};
use sc_graph::{
    BatchInput, BinaryOp, CompiledGraph, Executor, Graph, ManipulatorKind, PlannerOptions,
    StreamJob,
};
use sc_rng::{Halton, VanDerCorput};
use sc_telemetry::{Json, TelemetrySink};
use std::sync::Arc;
use std::time::Instant;

const STREAM_BITS: usize = 4096;

fn input_pair(n: usize) -> (Bitstream, Bitstream) {
    let mut gx = DigitalToStochastic::new(VanDerCorput::new());
    let mut gy = DigitalToStochastic::new(Halton::new(3));
    (
        gx.generate(Probability::saturating(0.5), n),
        gy.generate(Probability::saturating(0.75), n),
    )
}

/// Interleaved scalar/lane sample pairs per comparison.
const PAIRS: usize = 15;

/// A batch size that makes one timed sample of `f` last ~2 ms, long enough
/// for the clock to be meaningful.
fn batch_size<F: FnMut()>(f: &mut F) -> u64 {
    let mut iters = 1u64;
    loop {
        let ns = time_batch(f, iters) * iters as f64;
        if ns >= 2e6 || iters >= 1 << 22 {
            return iters;
        }
        iters = ((iters as f64 * 2e6 / ns.max(1.0)) as u64).clamp(iters + 1, iters * 16);
    }
}

/// Mean ns per call of `f` over one batch of `iters` calls.
fn time_batch<F: FnMut()>(f: &mut F, iters: u64) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
    samples[samples.len() / 2]
}

/// One scalar-vs-lane comparison, in ns per stream.
struct Pair {
    /// Median scalar sample.
    scalar_ns: f64,
    /// Median lane sample.
    lane_ns: f64,
    /// Median over the pairs of `scalar / lane`: the gated speedup.
    speedup: f64,
}

/// Times `scalar` and `lane` in [`PAIRS`] back-to-back sample pairs,
/// alternating which side runs first so a drifting clock favours neither.
/// `streams` is how many streams one call of each side processes.
fn measure_pair<S: FnMut(), L: FnMut()>(mut scalar: S, mut lane: L, streams: [f64; 2]) -> Pair {
    let (scalar_iters, lane_iters) = (batch_size(&mut scalar), batch_size(&mut lane));
    let (mut scalars, mut lanes, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    for k in 0..PAIRS {
        let (s, l) = if k % 2 == 0 {
            let s = time_batch(&mut scalar, scalar_iters);
            (s, time_batch(&mut lane, lane_iters))
        } else {
            let l = time_batch(&mut lane, lane_iters);
            (time_batch(&mut scalar, scalar_iters), l)
        };
        let (s, l) = (s / streams[0], l / streams[1]);
        scalars.push(s);
        lanes.push(l);
        ratios.push(s / l);
    }
    Pair {
        scalar_ns: median(scalars),
        lane_ns: median(lanes),
        speedup: median(ratios),
    }
}

/// A two-input plan exercising one lane-batchable operator, fed by raw input
/// streams so the measurement is the operator itself, not source generation.
fn plan_for(op: &str) -> Arc<CompiledGraph> {
    let mut g = Graph::new();
    let a = g.input_stream(0);
    let b = g.input_stream(1);
    match op {
        "ca_max" => {
            let z = g.binary(BinaryOp::CaMax, a, b);
            g.sink_stream("out_x", z);
        }
        "synchronizer_d1" => {
            let (mx, my) = g.manipulate(ManipulatorKind::Synchronizer { depth: 1 }, a, b);
            g.sink_stream("out_x", mx);
            g.sink_stream("out_y", my);
        }
        "decorrelator_d4" => {
            let (mx, my) = g.manipulate(ManipulatorKind::Decorrelator { depth: 4 }, a, b);
            g.sink_stream("out_x", mx);
            g.sink_stream("out_y", my);
        }
        other => unreachable!("unknown op {other}"),
    }
    // No auto-repair: the plan must contain exactly the operator under test.
    Arc::new(
        g.compile(&PlannerOptions::no_repair())
            .expect("two-input bench graphs are valid"),
    )
}

struct Row {
    op: &'static str,
    /// Solo kernel call vs a kernel-level lane group.
    kernel: Pair,
    /// Executor window 1 (scalar dispatch) vs window `LANES` (transposed).
    executor: Pair,
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_lane_batch.json".into());
    let (x, y) = input_pair(STREAM_BITS);
    let executor = Executor::new(STREAM_BITS).with_threads(1);
    let mut rows: Vec<Row> = Vec::new();

    for op in ["ca_max", "synchronizer_d1", "decorrelator_d4"] {
        let plan = plan_for(op);
        let jobs = || {
            (0..LANES).map(|_| StreamJob {
                plan: Arc::clone(&plan),
                input: BatchInput::with_streams(vec![x.clone(), y.clone()]),
            })
        };
        // Bit-identity first: the transposed window must reproduce the
        // scalar window's outputs exactly, and the stats must prove each
        // configuration took the path it claims to measure.
        let (scalar_out, scalar_stats) = executor
            .run_stream_with_stats(jobs(), 1)
            .expect("bench jobs execute");
        let (lane_out, lane_stats) = executor
            .run_stream_with_stats(jobs(), LANES)
            .expect("bench jobs execute");
        assert_eq!(
            scalar_out, lane_out,
            "{op}: transposed execution diverged from scalar execution"
        );
        assert_eq!(scalar_stats.lane_batched_jobs, 0, "{op}: window 1 batched");
        assert_eq!(
            lane_stats.lane_batched_jobs, LANES,
            "{op}: window {LANES} did not lane-batch"
        );

        let lanes = LANES as f64;
        let pairs: Vec<(&Bitstream, &Bitstream)> = (0..LANES).map(|_| (&x, &y)).collect();
        let kernel = match op {
            "ca_max" => measure_pair(
                || {
                    std::hint::black_box(ca_max(&x, &y).expect("lengths"));
                },
                || {
                    std::hint::black_box(ca_max_lanes(&pairs).expect("lengths"));
                },
                [1.0, lanes],
            ),
            "synchronizer_d1" => measure_pair(
                || {
                    std::hint::black_box(Synchronizer::new(1).process(&x, &y).expect("lengths"));
                },
                || {
                    let mut bank = LaneBank::new(
                        (0..LANES)
                            .map(|_| {
                                Box::new(Synchronizer::new(1)) as Box<dyn CorrelationManipulator>
                            })
                            .collect(),
                    );
                    std::hint::black_box(process_lane_pairs(&mut bank, &pairs).expect("lengths"));
                },
                [1.0, lanes],
            ),
            "decorrelator_d4" => measure_pair(
                || {
                    std::hint::black_box(Decorrelator::new(4).process(&x, &y).expect("lengths"));
                },
                || {
                    let mut bank = DecorrelatorLanes::new(4, LANES);
                    std::hint::black_box(process_lane_pairs(&mut bank, &pairs).expect("lengths"));
                },
                [1.0, lanes],
            ),
            other => unreachable!("unknown op {other}"),
        };
        let executor = measure_pair(
            || {
                std::hint::black_box(executor.run_stream(jobs(), 1).expect("bench jobs execute"));
            },
            || {
                std::hint::black_box(
                    executor
                        .run_stream(jobs(), LANES)
                        .expect("bench jobs execute"),
                );
            },
            [lanes, lanes],
        );

        let row = Row {
            op,
            kernel,
            executor,
        };
        println!(
            "{:<16} scalar {:>9.1} ns   lane {:>9.1} ns ({:>5.2}x)   executor scalar {:>9.1} ns   executor lane {:>9.1} ns ({:>5.2}x)",
            row.op,
            row.kernel.scalar_ns,
            row.kernel.lane_ns,
            row.kernel.speedup,
            row.executor.scalar_ns,
            row.executor.lane_ns,
            row.executor.speedup,
        );
        rows.push(row);
    }

    // One instrumented lane-batched dispatch per op for the machine-readable
    // summary: the same TelemetryReport JSON every instrumented consumer
    // gets, instead of a hand-rolled writer.
    let sink = TelemetrySink::new();
    let instrumented = Executor::new(STREAM_BITS).with_telemetry(sink.clone());
    for op in ["ca_max", "synchronizer_d1", "decorrelator_d4"] {
        let plan = plan_for(op);
        let jobs = (0..LANES).map(|_| StreamJob {
            plan: Arc::clone(&plan),
            input: BatchInput::with_streams(vec![x.clone(), y.clone()]),
        });
        instrumented
            .run_stream(jobs, LANES)
            .expect("bench jobs execute");
    }
    let telemetry = sink.drain().to_json();

    let doc = Json::obj(vec![
        ("stream_bits", Json::u64(STREAM_BITS as u64)),
        ("lanes", Json::u64(LANES as u64)),
        ("host", sc_bench::host_context()),
        (
            "unit",
            Json::str(
                "ns per stream, medians of 15 interleaved scalar/lane sample \
                 pairs; speedups are the median per-pair ratio; executor \
                 columns run 4 same-class StreamJobs",
            ),
        ),
        (
            "results",
            Json::Arr(
                rows.iter()
                    .map(|row| {
                        Json::obj(vec![
                            ("op", Json::str(row.op)),
                            ("scalar_ns", Json::fixed(row.kernel.scalar_ns, 1)),
                            ("lane_ns", Json::fixed(row.kernel.lane_ns, 1)),
                            ("lane_speedup", Json::fixed(row.kernel.speedup, 2)),
                            ("executor_scalar_ns", Json::fixed(row.executor.scalar_ns, 1)),
                            ("executor_lane_ns", Json::fixed(row.executor.lane_ns, 1)),
                            ("executor_speedup", Json::fixed(row.executor.speedup, 2)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("telemetry", telemetry),
    ]);
    std::fs::write(&out_path, doc.to_string_pretty()).expect("write BENCH_lane_batch.json");
    println!("\nwrote {out_path}");

    // Acceptance bars, conservative halves of the measured gains so a noisy
    // shared 1-CPU runner still clears them (see BENCH_lane_batch.json for
    // the measured values on the development box).
    for (required, lane_bar, exec_bar) in [
        ("ca_max", 3.0, 1.5),
        ("synchronizer_d1", 1.2, 1.0),
        ("decorrelator_d4", 1.7, 1.3),
    ] {
        let row = rows
            .iter()
            .find(|r| r.op == required)
            .expect("required op measured");
        assert!(
            row.kernel.speedup >= lane_bar,
            "{required} kernel lane speedup {:.2}x is below the {lane_bar}x bar",
            row.kernel.speedup
        );
        assert!(
            row.executor.speedup >= exec_bar,
            "{required} executor transposition speedup {:.2}x is below the {exec_bar}x bar",
            row.executor.speedup
        );
    }
    println!("all lane kernels and the executor transposition meet their bars");
}
