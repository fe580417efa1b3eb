//! Equivalence suite for the `sc_graph` dataflow engine.
//!
//! A compiled graph is only a *schedule* of the underlying crate operations,
//! so executing it must be **bit-identical** to calling those operations
//! directly — at awkward stream lengths (1, 63, 64, 65, 1000) that exercise
//! partial final words, for every manipulator family, in chains, under
//! sharding, and against both the `sc_image` kernels and a gate-level
//! `sc_sim` circuit. This extends the `word_parallel_equivalence` pattern one
//! layer up the stack.

use proptest::prelude::*;
use sc_repro::{sc_arith, sc_bitstream, sc_convert, sc_core, sc_graph, sc_image, sc_rng, sc_sim};

use sc_arith::add::ca_add;
use sc_bitstream::{Bitstream, Probability};
use sc_convert::{DigitalToStochastic, StochasticToDigital};
use sc_core::CorrelationManipulator;
use sc_graph::{BatchInput, BinaryOp, Executor, Graph, ManipulatorKind, PlannerOptions};
use sc_rng::SourceSpec;

/// The satellite's mandated lengths: single-bit, the word boundary, and a
/// long non-multiple-of-64 stream.
const LENGTHS: [usize; 5] = [1, 63, 64, 65, 1000];

const MANIPULATORS: [ManipulatorKind; 5] = [
    ManipulatorKind::Identity,
    ManipulatorKind::Isolator { delay: 3 },
    ManipulatorKind::Synchronizer { depth: 2 },
    ManipulatorKind::Desynchronizer { depth: 1 },
    ManipulatorKind::Decorrelator { depth: 4 },
];

/// Builds the satellite pipeline {d2s → manipulator → ca_add → s2d} as a
/// graph and executes it.
fn run_graph_pipeline(
    kind: ManipulatorKind,
    px: f64,
    py: f64,
    n: usize,
) -> (Bitstream, Bitstream, Bitstream, f64) {
    let mut g = Graph::new();
    let x = g.generate(0, SourceSpec::Sobol { dimension: 2 });
    let y = g.generate(1, SourceSpec::Halton { base: 5, offset: 0 });
    let (mx, my) = g.manipulate(kind, x, y);
    let z = g.binary(BinaryOp::CaAdd, mx, my);
    g.sink_stream("mx", mx);
    g.sink_stream("my", my);
    g.sink_stream("z", z);
    g.sink_value("value", z);
    let plan = g.compile(&PlannerOptions::default()).expect("valid graph");
    assert!(
        plan.report().inserted.is_empty(),
        "ca_add is agnostic: nothing to repair"
    );
    let out = Executor::new(n)
        .run(&plan, &BatchInput::with_values(vec![px, py]))
        .expect("pipeline executes");
    (
        out.stream("mx").unwrap().clone(),
        out.stream("my").unwrap().clone(),
        out.stream("z").unwrap().clone(),
        out.value("value").unwrap(),
    )
}

/// The same pipeline via direct crate calls.
fn run_direct_pipeline(
    kind: ManipulatorKind,
    px: f64,
    py: f64,
    n: usize,
) -> (Bitstream, Bitstream, Bitstream, f64) {
    let mut gx = DigitalToStochastic::new(sc_rng::Sobol::new(2));
    let mut gy = DigitalToStochastic::new(sc_rng::Halton::new(5));
    let x = gx.generate(Probability::saturating(px), n);
    let y = gy.generate(Probability::saturating(py), n);
    let mut manipulator = kind.build();
    let (mx, my) = manipulator.process(&x, &y).expect("equal lengths");
    let z = ca_add(&mx, &my).expect("equal lengths");
    let value = StochasticToDigital::convert(&z).get();
    (mx, my, z, value)
}

#[test]
fn compiled_pipeline_is_bit_identical_to_direct_crate_calls() {
    for &n in &LENGTHS {
        for kind in MANIPULATORS {
            let graph = run_graph_pipeline(kind, 0.4, 0.7, n);
            let direct = run_direct_pipeline(kind, 0.4, 0.7, n);
            assert_eq!(graph, direct, "{kind} n={n}");
        }
    }
}

/// Acceptance criterion: a Gaussian-blur graph executed via `sc_graph` is
/// bit-identical to `sc_image::gaussian`'s kernel.
#[test]
fn gaussian_blur_graph_is_bit_identical_to_sc_image() {
    use sc_image::{ScGaussianBlur, GAUSSIAN_WEIGHTS};
    for &n in &LENGTHS {
        let streams: Vec<Bitstream> = (0..9)
            .map(|k| Bitstream::from_fn(n, move |i| (i * (k + 2) + k) % 4 < 2))
            .collect();

        let mut g = Graph::new();
        let wires: Vec<_> = (0..9).map(|slot| g.input_stream(slot)).collect();
        let select = SourceSpec::Lfsr {
            width: 16,
            seed: 0x1D0D,
        };
        let blurred = g.weighted_mux(&wires, &GAUSSIAN_WEIGHTS, select);
        g.sink_stream("blur", blurred);
        let plan = g.compile(&PlannerOptions::default()).unwrap();
        let out = Executor::new(n)
            .run(&plan, &BatchInput::with_streams(streams.clone()))
            .unwrap();

        let refs: Vec<&Bitstream> = streams.iter().collect();
        let mut kernel = ScGaussianBlur::new(sc_rng::Lfsr::new(16, 0x1D0D));
        let expected = kernel.apply(&refs);
        assert_eq!(out.stream("blur").unwrap(), &expected, "n={n}");
    }
}

/// Chained manipulator nodes must match both an explicit
/// `sc_core::ManipulatorChain` and the stagewise reference: the same
/// `sc_core` circuits run one after another.
#[test]
fn chained_runs_match_explicit_chain() {
    use sc_core::ManipulatorChain;
    for &n in &LENGTHS {
        let x = Bitstream::from_fn(n, |i| (i * 7 + 3) % 5 < 2);
        let y = Bitstream::from_fn(n, |i| (i * 11 + 1) % 3 == 0);

        let mut g = Graph::new();
        let (a, b) = (g.input_stream(0), g.input_stream(1));
        let (s0, s1) = g.manipulate(ManipulatorKind::Synchronizer { depth: 1 }, a, b);
        let (d0, d1) = g.manipulate(ManipulatorKind::Desynchronizer { depth: 2 }, s0, s1);
        let (i0, i1) = g.manipulate(ManipulatorKind::Isolator { delay: 2 }, d0, d1);
        g.sink_stream("x", i0);
        g.sink_stream("y", i1);
        let plan = g.compile(&PlannerOptions::default()).unwrap();
        let input = BatchInput::with_streams(vec![x.clone(), y.clone()]);
        let out = Executor::new(n).run(&plan, &input).unwrap();

        let mut chain = ManipulatorChain::new();
        chain.push(sc_core::Synchronizer::new(1));
        chain.push(sc_core::Desynchronizer::new(2));
        chain.push(sc_core::Isolator::new(2));
        let (ex, ey) = chain.process(&x, &y).unwrap();
        assert_eq!(out.stream("x").unwrap(), &ex, "n={n}");
        assert_eq!(out.stream("y").unwrap(), &ey, "n={n}");

        let (sx, sy) = sc_core::Synchronizer::new(1).process(&x, &y).unwrap();
        let (dx, dy) = sc_core::Desynchronizer::new(2).process(&sx, &sy).unwrap();
        let (ux, uy) = sc_core::Isolator::new(2).process(&dx, &dy).unwrap();
        assert_eq!(out.stream("x").unwrap(), &ux, "stagewise n={n}");
        assert_eq!(out.stream("y").unwrap(), &uy, "stagewise n={n}");
    }
}

/// Sharded batch execution must be bit-identical to sequential execution —
/// worker count is a performance knob, never a semantics knob.
#[test]
fn sharded_batches_are_bit_identical_to_sequential() {
    let mut g = Graph::new();
    let x = g.generate(0, SourceSpec::Sobol { dimension: 1 });
    let y = g.generate(1, SourceSpec::Sobol { dimension: 3 });
    let z = g.binary(BinaryOp::XorSubtract, x, y); // planner inserts a synchronizer
    g.sink_stream("z", z);
    let plan = std::sync::Arc::new(g.compile(&PlannerOptions::default()).unwrap());
    assert_eq!(plan.report().inserted.len(), 1);
    let batch = || {
        (0..23).map(|i| sc_graph::StreamJob {
            plan: std::sync::Arc::clone(&plan),
            input: BatchInput::with_values(vec![(i as f64) / 23.0, 0.9 - (i as f64) / 46.0]),
        })
    };
    for n in [65usize, 256] {
        let sequential = Executor::new(n).run_stream(batch(), usize::MAX).unwrap();
        for threads in [2usize, 5, 32] {
            let sharded = Executor::new(n)
                .with_threads(threads)
                .run_stream(batch(), usize::MAX)
                .unwrap();
            assert_eq!(sequential, sharded, "n={n} threads={threads}");
        }
    }
}

/// The sim cross-check, one layer up: a compiled graph's AND node matches a
/// gate-level `sc_sim` circuit of the same netlist.
#[test]
fn graph_and_node_matches_gate_level_sim_circuit() {
    use sc_sim::{components::AndGate, Circuit};
    let n = 256;
    let x = Bitstream::from_fn(n, |i| (i * 3 + 1) % 4 < 2);
    let y = Bitstream::from_fn(n, |i| (i * 5 + 2) % 3 == 0);

    let mut g = Graph::new();
    let (a, b) = (g.input_stream(0), g.input_stream(1));
    let z = g.binary(BinaryOp::AndMultiply, a, b);
    g.sink_stream("z", z);
    // Input streams have unknown provenance: without repair the graph is the
    // bare AND gate, exactly the simulated circuit.
    let plan = g.compile(&PlannerOptions::no_repair()).unwrap();
    let out = Executor::new(n)
        .run(&plan, &BatchInput::with_streams(vec![x.clone(), y.clone()]))
        .unwrap();

    let mut circuit = Circuit::new();
    let nx = circuit.add_input("x");
    let ny = circuit.add_input("y");
    let nz = circuit.add_component(AndGate::new(), &[nx, ny])[0];
    circuit.mark_output("z", nz);
    let simulated = circuit.run(&[("x", x), ("y", y)]).unwrap();
    assert_eq!(out.stream("z").unwrap(), &simulated["z"]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Satellite property test: the graph pipeline matches direct crate
    /// calls for random values, depths, and lengths.
    #[test]
    fn prop_graph_pipeline_bit_identical(
        px in 0.0f64..=1.0,
        py in 0.0f64..=1.0,
        depth in 1u32..6,
        n in 1usize..300,
    ) {
        for kind in [
            ManipulatorKind::Synchronizer { depth },
            ManipulatorKind::Desynchronizer { depth },
        ] {
            let graph = run_graph_pipeline(kind, px, py, n);
            let direct = run_direct_pipeline(kind, px, py, n);
            prop_assert_eq!(&graph, &direct, "{} n={}", kind, n);
        }
    }

    /// Batch inputs through `InputStream` nodes round-trip losslessly into
    /// binary ops.
    #[test]
    fn prop_input_stream_binary_ops_bit_identical(
        bits_x in proptest::collection::vec(any::<bool>(), 1..300),
        bits_y in proptest::collection::vec(any::<bool>(), 1..300),
    ) {
        let n = bits_x.len().min(bits_y.len());
        let x = Bitstream::from_bools(bits_x.into_iter().take(n));
        let y = Bitstream::from_bools(bits_y.into_iter().take(n));
        let mut g = Graph::new();
        let (a, b) = (g.input_stream(0), g.input_stream(1));
        let sum = g.binary(BinaryOp::CaAdd, a, b);
        let max = g.binary(BinaryOp::CaMax, a, b);
        g.sink_stream("sum", sum);
        g.sink_stream("max", max);
        let plan = g.compile(&PlannerOptions::default()).unwrap();
        let out = Executor::new(n)
            .run(&plan, &BatchInput::with_streams(vec![x.clone(), y.clone()]))
            .unwrap();
        prop_assert_eq!(out.stream("sum").unwrap(), &ca_add(&x, &y).unwrap());
        prop_assert_eq!(
            out.stream("max").unwrap(),
            &sc_arith::maxmin::ca_max(&x, &y).unwrap()
        );
    }
}

/// A manipulator size outside `sc_core::DEPTH_RANGE` is a compile error, not
/// a panic once the plan executes: both a `Manipulate` node's own depth or
/// delay and, with auto-repair on, the depth repair would insert.
#[test]
fn out_of_range_manipulators_fail_compile_instead_of_execution() {
    let compile_and_run = |kind: Option<ManipulatorKind>, op: BinaryOp, options: PlannerOptions| {
        let mut g = Graph::new();
        let mut x = g.generate(0, SourceSpec::Sobol { dimension: 1 });
        let mut y = g.generate(1, SourceSpec::Sobol { dimension: 2 });
        if let Some(kind) = kind {
            (x, y) = g.manipulate(kind, x, y);
        }
        let z = g.binary(op, x, y);
        g.sink_value("z", z);
        g.compile(&options).and_then(|plan| {
            Executor::new(64).run(&plan, &BatchInput::with_values(vec![0.5, 0.25]))
        })
    };
    for kind in [
        ManipulatorKind::Synchronizer { depth: 0 },
        ManipulatorKind::Desynchronizer { depth: 4097 },
        ManipulatorKind::Isolator { delay: 0 },
        ManipulatorKind::Decorrelator { depth: 4097 },
    ] {
        let err = compile_and_run(Some(kind), BinaryOp::CaAdd, PlannerOptions::default())
            .expect_err("out-of-range node must not compile");
        assert!(
            err.to_string().contains("outside supported range"),
            "{kind}: {err}"
        );
    }
    let options = PlannerOptions {
        synchronizer_depth: 0,
        ..PlannerOptions::default()
    };
    let err = compile_and_run(None, BinaryOp::OrMax, options.clone())
        .expect_err("out-of-range repair depth must not compile");
    assert!(err.to_string().contains("outside supported range"), "{err}");
    // Without auto-repair the depth is never built, so the graph compiles.
    let options = PlannerOptions {
        auto_repair: false,
        ..options
    };
    assert!(compile_and_run(None, BinaryOp::OrMax, options).is_ok());
}
