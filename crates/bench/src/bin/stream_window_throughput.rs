//! Measures the bounded-window streaming tile dispatcher of `sc_image`,
//! recording the evidence in `BENCH_stream_window.json`.
//!
//! Run with `cargo run --release -p sc_bench --bin stream_window_throughput`.
//! The JSON file is written to the current directory (or to the path given
//! as the first argument).
//!
//! Two claims are gated:
//!
//! * **Bounded memory** — for every window in {1, threads, 4×threads}, the
//!   peak number of simultaneously-live retargeted tile plans reported by
//!   `run_sc_pipeline_with_stats` must not exceed the window. This is the
//!   O(window) memory model: the full dispatch of PR 4 held O(tiles) plans
//!   live, the streaming engine holds at most the window.
//! * **No throughput regression** — streaming at the default window
//!   (threads × 4) must stay within 10% of the full dispatch (an
//!   effectively unbounded window over the same engine) on a multi-core
//!   machine, i.e. bounding memory is (nearly) free. On a single-CPU
//!   machine both paths run the same inline sequential loop, so the same
//!   bar applies.

use sc_bench::measure_rate as measure;
use sc_image::{run_sc_pipeline_with_stats, GrayImage, PipelineConfig, PipelineVariant};
use sc_telemetry::{Json, TelemetrySink};

fn bench_image() -> GrayImage {
    let blob = GrayImage::gaussian_blob(40, 40);
    GrayImage::from_fn(40, 40, |x, y| {
        0.6 * blob.get(x, y) + 0.4 * (x as f64 / 40.0)
    })
}

struct WindowRow {
    window: usize,
    label: String,
    images_per_sec: f64,
    peak_live_plans: usize,
    tiles: usize,
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_stream_window.json".into());
    let cpus = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    // On a single-CPU machine still exercise the pool path (2 workers).
    let threads = cpus.clamp(2, 8);

    // 40×40 image, 10-pixel tiles → 16 tiles: enough for the default
    // window (threads × 4, at most 32 here) and the unbounded dispatch to
    // genuinely differ in how many plans they keep alive.
    let img = bench_image();
    let config = PipelineConfig {
        stream_length: 256,
        tile_size: 10,
        ..PipelineConfig::default()
    };
    let variant = PipelineVariant::Synchronizer;
    let default_window = threads * sc_graph::DEFAULT_WINDOW_FACTOR;

    let config = config.with_threads(threads);
    let run = |window: usize| {
        run_sc_pipeline_with_stats(&img, variant, &config.clone().with_window(window))
            .expect("benchmark pipeline executes")
    };

    // --- Memory gate: peak live plans never exceeds the window.
    let mut rows: Vec<WindowRow> = Vec::new();
    for (window, label) in [
        (1usize, "1".to_string()),
        (threads, format!("threads ({threads})")),
        (default_window, format!("4 x threads ({default_window})")),
        (usize::MAX, "unbounded (full dispatch)".to_string()),
    ] {
        let (_, stats) = run(window);
        let images_per_sec = measure(|| {
            std::hint::black_box(run(window));
        });
        println!(
            "window {label:<28} {images_per_sec:>8.2} images/sec   peak live plans {} / {} tiles",
            stats.peak_live_plans, stats.tiles
        );
        rows.push(WindowRow {
            window,
            label,
            images_per_sec,
            peak_live_plans: stats.peak_live_plans,
            tiles: stats.tiles,
        });
    }
    let streaming = rows
        .iter()
        .find(|r| r.window == default_window)
        .expect("default-window row present")
        .images_per_sec;
    let full = rows
        .iter()
        .find(|r| r.window == usize::MAX)
        .expect("unbounded row present")
        .images_per_sec;
    let ratio = streaming / full;

    // One instrumented run at the default window for the machine-readable
    // per-stage summary: the same TelemetryReport JSON every instrumented
    // consumer gets, instead of a hand-rolled writer.
    let sink = TelemetrySink::new();
    let instrumented = config
        .clone()
        .with_telemetry(sink.clone())
        .with_window(default_window);
    run_sc_pipeline_with_stats(&img, variant, &instrumented)
        .expect("instrumented pipeline executes");
    let telemetry = sink.drain().to_json();

    let doc = Json::obj(vec![
        ("cpus", Json::u64(cpus as u64)),
        ("threads", Json::u64(threads as u64)),
        ("host", sc_bench::host_context()),
        ("default_window", Json::u64(default_window as u64)),
        (
            "image",
            Json::str("40x40, 10px tiles (16 tiles), N=256, synchronizer variant"),
        ),
        (
            "unit",
            Json::str("whole images per second, best of 7 samples"),
        ),
        ("streaming_vs_full_dispatch", Json::fixed(ratio, 3)),
        (
            "results",
            Json::Arr(
                rows.iter()
                    .map(|row| {
                        Json::obj(vec![
                            ("window", Json::str(&row.label)),
                            ("images_per_sec", Json::fixed(row.images_per_sec, 2)),
                            ("peak_live_plans", Json::u64(row.peak_live_plans as u64)),
                            ("tiles", Json::u64(row.tiles as u64)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("telemetry", telemetry),
    ]);
    std::fs::write(&out_path, doc.to_string_pretty()).expect("write BENCH_stream_window.json");
    println!("\nwrote {out_path}");

    // Gate 1: the window bounds the number of simultaneously-live plans
    // (peak_live_plans is the engine's upper bound: jobs submitted but not
    // yet reported back, each of which may hold a live plan).
    for row in &rows {
        assert!(
            row.peak_live_plans <= row.window,
            "window {}: up to {} retargeted plans were live at once, exceeding the window",
            row.label,
            row.peak_live_plans
        );
    }
    // The unbounded dispatch plans every tile ahead of the first result —
    // the O(tiles) exposure the bounded rows above avoid by construction.
    let unbounded = rows.last().expect("rows recorded");
    assert!(
        unbounded.peak_live_plans == unbounded.tiles,
        "unbounded dispatch should plan all {} tiles ahead of the first result, saw {}",
        unbounded.tiles,
        unbounded.peak_live_plans
    );
    println!("peak live plans stay within every window");

    // Gate 2: bounding memory must not cost meaningful throughput.
    assert!(
        ratio >= 0.9,
        "streaming at the default window ({streaming:.2} images/s) fell below 90% of the \
         full dispatch ({full:.2} images/s) on {cpus} CPUs"
    );
    println!("streaming holds >= 0.9x full-dispatch throughput ({ratio:.2}x)");
}
