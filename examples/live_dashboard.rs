//! Continuous-telemetry demo: a multi-frame accelerator workload through one
//! executor and one **warm** tile planner, observed live while it runs — a sampler loop prints
//! interval deltas ([`TelemetrySink::snapshot_delta`]) and a
//! [`TelemetryServer`] answers Prometheus/JSON scrapes over real TCP the
//! whole time — then prints the cumulative per-plan-class attribution
//! table.
//!
//! Run with `cargo run --release --example live_dashboard [frames]`
//! (default 6 frames). The process performs one self-scrape of its own
//! `/metrics` endpoint before exiting, so it is CI-smokeable end to end.

use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use sc_graph::{Executor, StreamJob};
use sc_image::{
    scatter_sinks, tile_origins, GrayImage, PipelineConfig, PipelineStats, PipelineVariant,
    TilePlanner,
};
use sc_telemetry::serve::TelemetryServer;
use sc_telemetry::{Counter, Gauge, Hist, TelemetryReport, TelemetrySink};

/// One frame of the synthetic scene: the Gaussian blob over a gradient, with
/// a per-frame brightness swing so successive frames exercise the same plan
/// classes on different data.
fn frame_image(size: usize, frame: usize) -> GrayImage {
    let blob = GrayImage::gaussian_blob(size, size);
    let swing = 0.35 + 0.25 * (frame as f64 * 0.9).sin().abs();
    GrayImage::from_fn(size, size, |x, y| {
        swing * blob.get(x, y) + 0.3 * (x as f64 / size as f64)
    })
}

/// Runs `frames` frames through one executor and one tile planner,
/// returning each frame's mean edge magnitude (proof the streamed results
/// were consumed). The planner's cache lives across frames, so every frame
/// after the first plans from cache hits (the warm part of the demo); each
/// frame's dispatch runs on worker threads spawned for that frame.
fn run_frames(frames: usize, size: usize, config: &PipelineConfig) -> Vec<f64> {
    let threads = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let executor = Executor::new(config.stream_length)
        .with_threads(threads)
        .with_telemetry(config.telemetry.clone());
    let window = executor.default_window();
    let mut planner = TilePlanner::new(PipelineVariant::Synchronizer, config.clone());
    let mut stats = PipelineStats::default();
    let mut means = Vec::with_capacity(frames);
    for frame in 0..frames {
        let image = frame_image(size, frame);
        let origins = tile_origins(&image, config.tile_size);
        let mut sinks = Vec::with_capacity(origins.len());
        let jobs = origins.iter().enumerate().map(|(tile_index, &(x0, y0))| {
            let planned = planner.plan_tile(&image, x0, y0, tile_index as u64, &mut stats);
            sinks.push(planned.sinks);
            StreamJob {
                plan: planned.plan,
                input: planned.input,
            }
        });
        let results = executor
            .run_stream(jobs, window)
            .expect("tile graphs execute over their own batch input");
        let mut output = GrayImage::filled(image.width(), image.height(), 0.0);
        scatter_sinks(&mut output, &sinks, &results, &config.telemetry);
        means.push(output.mean());
    }
    means
}

/// One interval line of the live view: jobs, latency quantiles, window
/// pressure, per-class jobs.
fn print_interval(tick: usize, delta: &TelemetryReport) {
    let latency = delta.histogram(Hist::JobLatencyNs);
    let (window_now, window_peak) = delta.gauge(Gauge::WindowOccupancy);
    let classes: Vec<String> = delta
        .classes()
        .iter()
        .map(|c| format!("{}:{}", c.label(), c.jobs))
        .collect();
    println!(
        "[t{tick:>2} {:>7.1} ms] jobs {:>3} | p50 ≤ {} ns, p99 ≤ {} ns | window {window_now} (peak {window_peak}) | class jobs {{{}}}",
        delta.elapsed_ns as f64 / 1e6,
        delta.counter(Counter::JobsPulled),
        latency.quantile(0.5),
        latency.quantile(0.99),
        classes.join(", "),
    );
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let frames: usize = std::env::args()
        .nth(1)
        .map(|arg| arg.parse())
        .transpose()?
        .unwrap_or(6);
    let size = 40;

    let sink = TelemetrySink::new();
    let config = PipelineConfig {
        stream_length: 1024,
        ..PipelineConfig::default()
    }
    .with_telemetry(sink.clone());

    // Scrape endpoint first: it serves snapshots the whole run, so an
    // external Prometheus could watch this process live.
    let server = TelemetryServer::start(sink.clone(), "127.0.0.1:0")?;
    println!(
        "live dashboard: {frames} frames of {size}x{size}, N = {} | scrape http://{}/metrics or /json\n",
        config.stream_length,
        server.local_addr(),
    );

    // The workload thread streams frames through one executor and one warm
    // planner while the main thread samples interval deltas.
    let done = Arc::new(AtomicBool::new(false));
    let finished = Arc::clone(&done);
    let worker_config = config.clone();
    let workload = std::thread::Builder::new()
        .name("sc-dashboard-workload".into())
        .spawn(move || {
            let means = run_frames(frames, size, &worker_config);
            finished.store(true, Ordering::Release);
            means
        })?;

    let mut tick = 0;
    loop {
        let workload_finished = done.load(Ordering::Acquire);
        tick += 1;
        let delta = sink.snapshot_delta();
        if delta.counter(Counter::JobsPulled) > 0 || !delta.classes().is_empty() {
            print_interval(tick, &delta);
        }
        if workload_finished {
            break;
        }
        std::thread::sleep(Duration::from_millis(100));
    }

    let means = workload.join().expect("the workload thread completes");
    let mean_list: Vec<String> = means.iter().map(|m| format!("{m:.4}")).collect();
    println!("\nframe mean edge magnitudes: [{}]", mean_list.join(", "));

    // Self-scrape over real TCP: what a Prometheus poller would have seen.
    let mut scrape = TcpStream::connect(server.local_addr())?;
    scrape.write_all(b"GET /metrics HTTP/1.1\r\nHost: dashboard\r\nConnection: close\r\n\r\n")?;
    let mut response = String::new();
    scrape.read_to_string(&mut response)?;
    let body = response.split_once("\r\n\r\n").map_or("", |(_, body)| body);
    let preview: Vec<&str> = body.lines().take(8).collect();
    println!(
        "\nself-scrape of /metrics ({} lines; first {}):",
        body.lines().count(),
        preview.len(),
    );
    for line in preview {
        println!("  {line}");
    }

    // Cumulative per-plan-class attribution (non-destructive snapshot).
    let report = sink.snapshot();
    println!(
        "\ncumulative: {} tiles | cache hits {} / misses {} | dropped spans {}",
        report.counter(Counter::Tiles),
        report.counter(Counter::PlanCacheHits),
        report.counter(Counter::PlanCacheMisses),
        report.dropped_spans,
    );
    println!(
        "{:<10} {:>6} {:>12} {:>12}",
        "class", "jobs", "p50 ≤ ns", "p99 ≤ ns"
    );
    for class in report.classes() {
        println!(
            "{:<10} {:>6} {:>12} {:>12}",
            class.label(),
            class.jobs,
            class.latency.quantile(0.5),
            class.latency.quantile(0.99),
        );
    }
    Ok(())
}
