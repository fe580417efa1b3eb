//! Measures the word-parallel execution engine against the retained
//! bit-serial references and records the evidence in
//! `BENCH_word_parallel.json`.
//!
//! Run with `cargo run --release -p sc_bench --bin word_parallel_speedup`.
//! The JSON file is written to the current directory (or to the path given
//! as the first argument) and is the perf trajectory record for the
//! word-parallel refactor: per operator, median ns per call at 4096-bit
//! streams for both paths, plus the speedup factor. The speculative
//! table-driven FSM word-stepping is gated at the depths the planner and the
//! pipeline insert (`synchronizer_d2`, `desynchronizer_d1`), on fixed
//! periodic inputs (`fsm_input_pair`). The decorrelator's word path runs a
//! whole stream from a reset through its depth's memoized lag network. Its
//! two rows, `decorrelator_d4` (a fresh circuit per call, as the graph
//! executor builds one per job) and `decorrelator_d4_reset` (one circuit
//! reset before each call, as a harness reuses it), time that same path: a
//! reset circuit draws exactly as a fresh one does. Both are gated at 5x.
//! `d2s_sobol_reset` reuses one D/S generator reset before each call, which
//! converts through the prefix plane it built on the first: one rank lookup
//! and one mask copy per 256-sample block. It is gated at 20x.

use sc_arith::add::ca_add;
use sc_arith::maxmin::{ca_max, or_max};
use sc_arith::multiply::and_multiply;
use sc_bench::host_context;
use sc_bitstream::{scc, Bitstream, Probability};
use sc_convert::{DigitalToStochastic, StreamGenerator};
use sc_core::{CorrelationManipulator, Decorrelator, Desynchronizer, Isolator, Synchronizer};
use sc_rng::{Halton, RandomSource, Sobol, VanDerCorput};
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

/// The speculative-FSM rows' inputs: two periodic patterns (densities 2/5
/// and 1/3) whose runs exercise the save/emit transitions of the
/// synchronizer and desynchronizer tables.
fn fsm_input_pair(n: usize) -> (Bitstream, Bitstream) {
    (
        Bitstream::from_fn(n, |i| (i * 7 + 3) % 5 < 2),
        Bitstream::from_fn(n, |i| (i * 11 + 1) % 3 == 0),
    )
}

/// Median ns per call over several timed samples, with adaptive batching so
/// each sample lasts long enough for the clock to be meaningful.
fn measure<F: FnMut()>(mut f: F) -> f64 {
    // Calibrate the batch size to ~2 ms.
    let mut iters = 1u64;
    loop {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        let ns = start.elapsed().as_nanos() as u64;
        if ns >= 2_000_000 || iters >= 1 << 22 {
            break;
        }
        iters = (iters * 2_000_000 / ns.max(1)).clamp(iters + 1, iters * 16);
    }
    let mut samples: Vec<f64> = (0..9)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                f();
            }
            start.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
    samples[samples.len() / 2]
}

struct Row {
    op: &'static str,
    bit_serial_ns: f64,
    word_parallel_ns: f64,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.bit_serial_ns / self.word_parallel_ns
    }
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_word_parallel.json".into());
    let (x, y) = input_pair(STREAM_BITS);
    let mut rows: Vec<Row> = Vec::new();

    let mut bench = |op: &'static str, mut serial: Box<dyn FnMut()>, mut word: Box<dyn FnMut()>| {
        let row = Row {
            op,
            bit_serial_ns: measure(&mut *serial),
            word_parallel_ns: measure(&mut *word),
        };
        println!(
            "{:<24} bit-serial {:>12.1} ns   word-parallel {:>12.1} ns   speedup {:>8.1}x",
            row.op,
            row.bit_serial_ns,
            row.word_parallel_ns,
            row.speedup()
        );
        rows.push(row);
    };

    {
        let (xs, ys) = (x.clone(), y.clone());
        let (xw, yw) = (x.clone(), y.clone());
        bench(
            "and_multiply",
            Box::new(move || {
                std::hint::black_box(sc_bitstream::reference::and(&xs, &ys).expect("lengths"));
            }),
            Box::new(move || {
                std::hint::black_box(and_multiply(&xw, &yw).expect("lengths"));
            }),
        );
    }
    {
        let (xs, ys) = (x.clone(), y.clone());
        let (xw, yw) = (x.clone(), y.clone());
        bench(
            "or_max",
            Box::new(move || {
                std::hint::black_box(sc_bitstream::reference::or(&xs, &ys).expect("lengths"));
            }),
            Box::new(move || {
                std::hint::black_box(or_max(&xw, &yw).expect("lengths"));
            }),
        );
    }
    {
        let (xs, ys) = (x.clone(), y.clone());
        let (xw, yw) = (x.clone(), y.clone());
        bench(
            "scc",
            Box::new(move || {
                std::hint::black_box(
                    sc_bitstream::reference::joint_counts(&xs, &ys)
                        .expect("lengths")
                        .scc(),
                );
            }),
            Box::new(move || {
                std::hint::black_box(scc(&xw, &yw));
            }),
        );
    }
    {
        let (xs, ys) = (x.clone(), y.clone());
        let (xw, yw) = (x.clone(), y.clone());
        bench(
            "ca_add",
            Box::new(move || {
                std::hint::black_box(sc_arith::reference::ca_add(&xs, &ys).expect("lengths"));
            }),
            Box::new(move || {
                std::hint::black_box(ca_add(&xw, &yw).expect("lengths"));
            }),
        );
    }
    {
        let (xs, ys) = (x.clone(), y.clone());
        let (xw, yw) = (x.clone(), y.clone());
        bench(
            "ca_max",
            Box::new(move || {
                std::hint::black_box(sc_arith::reference::ca_max(&xs, &ys).expect("lengths"));
            }),
            Box::new(move || {
                std::hint::black_box(ca_max(&xw, &yw).expect("lengths"));
            }),
        );
    }
    {
        let (xs, ys) = (x.clone(), y.clone());
        let (xw, yw) = (x.clone(), y.clone());
        bench(
            "isolator_k17",
            Box::new(move || {
                std::hint::black_box(
                    Isolator::new(17)
                        .process_bit_serial(&xs, &ys)
                        .expect("lengths"),
                );
            }),
            Box::new(move || {
                std::hint::black_box(Isolator::new(17).process(&xw, &yw).expect("lengths"));
            }),
        );
    }
    {
        let (xs, ys) = (x.clone(), y.clone());
        let (xw, yw) = (x.clone(), y.clone());
        bench(
            "synchronizer_d1",
            Box::new(move || {
                std::hint::black_box(
                    Synchronizer::new(1)
                        .process_bit_serial(&xs, &ys)
                        .expect("lengths"),
                );
            }),
            Box::new(move || {
                std::hint::black_box(Synchronizer::new(1).process(&xw, &yw).expect("lengths"));
            }),
        );
    }
    {
        let (xs, ys) = (x.clone(), y.clone());
        let (xw, yw) = (x.clone(), y.clone());
        bench(
            "decorrelator_d4",
            Box::new(move || {
                std::hint::black_box(
                    Decorrelator::new(4)
                        .process_bit_serial(&xs, &ys)
                        .expect("lengths"),
                );
            }),
            Box::new(move || {
                std::hint::black_box(Decorrelator::new(4).process(&xw, &yw).expect("lengths"));
            }),
        );
    }
    // One circuit reset before each call, as a harness reusing it runs it:
    // each call starts at the reset point, so it runs the lag network too.
    {
        let (xs, ys) = (x.clone(), y.clone());
        let (xw, yw) = (x.clone(), y.clone());
        let mut serial = Decorrelator::new(4);
        let mut word = Decorrelator::new(4);
        bench(
            "decorrelator_d4_reset",
            Box::new(move || {
                serial.reset();
                std::hint::black_box(serial.process_bit_serial(&xs, &ys).expect("lengths"));
            }),
            Box::new(move || {
                word.reset();
                std::hint::black_box(word.process(&xw, &yw).expect("lengths"));
            }),
        );
    }
    // One generator reset before each call; the bit-serial side is the
    // per-bit comparator loop over the reset source.
    {
        let p = Probability::saturating(0.3);
        let mut source = Sobol::new(2);
        let mut generator = StreamGenerator::new(Box::new(Sobol::new(2)));
        bench(
            "d2s_sobol_reset",
            Box::new(move || {
                source.reset();
                std::hint::black_box(Bitstream::from_fn(STREAM_BITS, |_| {
                    p.get() > source.next_unit()
                }));
            }),
            Box::new(move || {
                generator.reset();
                std::hint::black_box(generator.generate(p, STREAM_BITS));
            }),
        );
    }

    // Speculative word-stepping at the depths the planner inserts
    // (synchronizer D = 2, desynchronizer D = 1).
    {
        let (x, y) = fsm_input_pair(STREAM_BITS);
        let (xw, yw) = (x.clone(), y.clone());
        bench(
            "synchronizer_d2",
            Box::new(move || {
                std::hint::black_box(
                    Synchronizer::new(2)
                        .process_bit_serial(&x, &y)
                        .expect("lengths"),
                );
            }),
            Box::new(move || {
                std::hint::black_box(Synchronizer::new(2).process(&xw, &yw).expect("lengths"));
            }),
        );
    }
    {
        let (x, y) = fsm_input_pair(STREAM_BITS);
        let (xw, yw) = (x.clone(), y.clone());
        bench(
            "desynchronizer_d1",
            Box::new(move || {
                std::hint::black_box(
                    Desynchronizer::new(1)
                        .process_bit_serial(&x, &y)
                        .expect("lengths"),
                );
            }),
            Box::new(move || {
                std::hint::black_box(Desynchronizer::new(1).process(&xw, &yw).expect("lengths"));
            }),
        );
    }

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!("  \"stream_bits\": {STREAM_BITS},\n"));
    json.push_str(&format!(
        "  \"host\": {},\n",
        host_context().to_string_compact()
    ));
    json.push_str("  \"unit\": \"ns per whole-stream call, median of 9 samples\",\n");
    json.push_str("  \"results\": [\n");
    for (i, row) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"op\": \"{}\", \"bit_serial_ns\": {:.1}, \"word_parallel_ns\": {:.1}, \"speedup\": {:.1}}}{}\n",
            row.op,
            row.bit_serial_ns,
            row.word_parallel_ns,
            row.speedup(),
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, &json).expect("write BENCH_word_parallel.json");
    println!("\nwrote {out_path}");

    // The refactor's acceptance bar: the single-gate operators, the SCC
    // metric and the speculative FSM word-stepping must gain at least 5x
    // from word-parallel execution.
    for required in [
        "and_multiply",
        "or_max",
        "scc",
        "synchronizer_d2",
        "desynchronizer_d1",
    ] {
        let row = rows
            .iter()
            .find(|r| r.op == required)
            .expect("required op measured");
        assert!(
            row.speedup() >= 5.0,
            "{required} speedup {:.1}x is below the 5x acceptance bar",
            row.speedup()
        );
    }
    println!("all required ops meet the 5x speedup bar");

    // The lag network must beat stepping the circuit bit by bit at least
    // 5x, fresh or reset.
    for op in ["decorrelator_d4", "decorrelator_d4_reset"] {
        let row = rows
            .iter()
            .find(|r| r.op == op)
            .expect("decorrelator measured");
        assert!(
            row.speedup() >= 5.0,
            "{op} speedup {:.1}x is below the 5x bar",
            row.speedup()
        );
        println!("{op} meets the 5x lag-network bar");
    }

    // The prefix plane must beat the per-bit comparator loop at least 20x.
    let row = rows
        .iter()
        .find(|r| r.op == "d2s_sobol_reset")
        .expect("D/S measured");
    assert!(
        row.speedup() >= 20.0,
        "d2s_sobol_reset speedup {:.1}x is below the 20x prefix-plane bar",
        row.speedup()
    );
    println!("d2s_sobol_reset meets the 20x prefix-plane bar");
}
