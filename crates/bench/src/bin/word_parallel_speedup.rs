//! Measures the word-parallel execution engine against the retained
//! bit-serial references and records the evidence in
//! `BENCH_word_parallel.json`.
//!
//! Run with `cargo run --release -p sc_bench --bin word_parallel_speedup`.
//! The JSON file is written to the current directory (or to the path given
//! as the first argument) and is the perf trajectory record for the
//! word-parallel refactor: per operator, median ns per call at 4096-bit
//! streams for both paths, plus the speedup factor. Operators with a
//! lane-batched `u64×4` kernel (the FSM laggards: `ca_max`,
//! `synchronizer_d1`, `decorrelator_d4`) additionally report the per-stream
//! cost of a four-stream lane group and its speedup over the live solo word
//! path — the gap the lane dimension was built to close. The speculative
//! table-driven FSM word-stepping is gated at the depths the planner and the
//! pipeline insert (`synchronizer_d2`, `desynchronizer_d1`), on fixed
//! periodic inputs (`fsm_input_pair`).

use sc_arith::add::ca_add;
use sc_arith::maxmin::{ca_max, ca_max_lanes, or_max};
use sc_arith::multiply::and_multiply;
use sc_bench::host_context;
use sc_bitstream::{scc, Bitstream, Probability};
use sc_convert::DigitalToStochastic;
use sc_core::{
    process_lane_pairs, CorrelationManipulator, Decorrelator, DecorrelatorLanes, Desynchronizer,
    Isolator, LaneBank, Synchronizer, LANES,
};
use sc_rng::{Halton, VanDerCorput};
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
    /// Per-stream cost of a `LANES`-wide lane-batched call (group time / 4),
    /// for the ops that have a lane kernel.
    lane_ns: Option<f64>,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.bit_serial_ns / self.word_parallel_ns
    }

    /// Lane-batching gain over the live solo word path.
    fn lane_speedup(&self) -> Option<f64> {
        self.lane_ns.map(|lane| self.word_parallel_ns / lane)
    }
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_word_parallel.json".into());
    let (x, y) = input_pair(STREAM_BITS);
    let mut rows: Vec<Row> = Vec::new();

    let mut bench = |op: &'static str,
                     mut serial: Box<dyn FnMut()>,
                     mut word: Box<dyn FnMut()>,
                     lane: Option<Box<dyn FnMut()>>| {
        let bit_serial_ns = measure(&mut *serial);
        let word_parallel_ns = measure(&mut *word);
        // A lane closure runs one LANES-wide group; per-stream cost is the
        // group time split across the lanes.
        let lane_ns = lane.map(|mut group| measure(&mut *group) / LANES as f64);
        let row = Row {
            op,
            bit_serial_ns,
            word_parallel_ns,
            lane_ns,
        };
        match row.lane_speedup() {
            Some(gain) => println!(
                "{:<24} bit-serial {:>12.1} ns   word-parallel {:>12.1} ns   speedup {:>8.1}x   lane {:>10.1} ns   lane gain {:>6.2}x",
                row.op,
                row.bit_serial_ns,
                row.word_parallel_ns,
                row.speedup(),
                row.lane_ns.expect("lane gain implies lane time"),
                gain,
            ),
            None => println!(
                "{:<24} bit-serial {:>12.1} ns   word-parallel {:>12.1} ns   speedup {:>8.1}x",
                row.op,
                row.bit_serial_ns,
                row.word_parallel_ns,
                row.speedup()
            ),
        }
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
            None,
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
            None,
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
            None,
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
            None,
        );
    }
    {
        let (xs, ys) = (x.clone(), y.clone());
        let (xw, yw) = (x.clone(), y.clone());
        let (xl, yl) = (x.clone(), y.clone());
        bench(
            "ca_max",
            Box::new(move || {
                std::hint::black_box(sc_arith::reference::ca_max(&xs, &ys).expect("lengths"));
            }),
            Box::new(move || {
                std::hint::black_box(ca_max(&xw, &yw).expect("lengths"));
            }),
            Some(Box::new(move || {
                let pairs: Vec<(&Bitstream, &Bitstream)> = (0..LANES).map(|_| (&xl, &yl)).collect();
                std::hint::black_box(ca_max_lanes(&pairs).expect("lengths"));
            })),
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
            None,
        );
    }
    {
        let (xs, ys) = (x.clone(), y.clone());
        let (xw, yw) = (x.clone(), y.clone());
        let (xl, yl) = (x.clone(), y.clone());
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
            // The lane group includes bank construction, exactly as the
            // executor pays it per batched group.
            Some(Box::new(move || {
                let pairs: Vec<(&Bitstream, &Bitstream)> = (0..LANES).map(|_| (&xl, &yl)).collect();
                let mut bank = LaneBank::new(
                    (0..LANES)
                        .map(|_| Box::new(Synchronizer::new(1)) as Box<dyn CorrelationManipulator>)
                        .collect(),
                );
                std::hint::black_box(process_lane_pairs(&mut bank, &pairs).expect("lengths"));
            })),
        );
    }
    {
        let (xs, ys) = (x.clone(), y.clone());
        let (xw, yw) = (x.clone(), y.clone());
        let (xl, yl) = (x.clone(), y.clone());
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
            Some(Box::new(move || {
                let pairs: Vec<(&Bitstream, &Bitstream)> = (0..LANES).map(|_| (&xl, &yl)).collect();
                let mut bank = DecorrelatorLanes::new(4, LANES);
                std::hint::black_box(process_lane_pairs(&mut bank, &pairs).expect("lengths"));
            })),
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
            None,
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
            None,
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
        let lane_cols = match (row.lane_ns, row.lane_speedup()) {
            (Some(lane_ns), Some(gain)) => {
                format!(", \"lane_ns\": {lane_ns:.1}, \"lane_speedup\": {gain:.2}")
            }
            _ => String::new(),
        };
        json.push_str(&format!(
            "    {{\"op\": \"{}\", \"bit_serial_ns\": {:.1}, \"word_parallel_ns\": {:.1}, \"speedup\": {:.1}{}}}{}\n",
            row.op,
            row.bit_serial_ns,
            row.word_parallel_ns,
            row.speedup(),
            lane_cols,
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

    // Lane-batching acceptance bars, per-stream versus the live solo word
    // path (conservative halves of the measured gains, so a noisy shared
    // 1-CPU runner still clears them):
    //
    // * `ca_max` — counter updates vectorise across lanes; measured ~11x,
    //   gated at 3x.
    // * `decorrelator_d4` — the staged shift-register walk amortises its
    //   table lookups across lanes; measured ~3.3-3.5x, gated at 1.7x.
    // * `synchronizer_d1` — the solo speculative word path is *already*
    //   ~3.2x faster than the seed's, so the remaining lane gain is bounded
    //   by µop throughput, not latency: measured ~1.5-2.0x (the lane path
    //   is ~12x the bit-serial reference), gated at 1.2x.
    for (required, bar) in [
        ("ca_max", 3.0),
        ("decorrelator_d4", 1.7),
        ("synchronizer_d1", 1.2),
    ] {
        let row = rows
            .iter()
            .find(|r| r.op == required)
            .expect("required op measured");
        let gain = row
            .lane_speedup()
            .expect("lane-batched ops measure a lane group");
        assert!(
            gain >= bar,
            "{required} lane speedup {gain:.2}x is below the {bar}x acceptance bar"
        );
    }
    println!("all lane-batched ops meet their lane speedup bars");
}
