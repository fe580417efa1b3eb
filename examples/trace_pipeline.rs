//! Observability demo: runs the Gaussian-blur → edge-detector accelerator
//! with a [`TelemetrySink`] attached and prints where the time went — the
//! per-stage span breakdown (plan-cache hits vs misses vs per-tile
//! execution), and the counters behind the [`sc_image::PipelineStats`]
//! view — then writes a chrome://tracing trace-event file of the whole run.
//!
//! Run with `cargo run --release --example trace_pipeline`. The trace is
//! written to `trace_pipeline.json` in the current directory (or to the path
//! given as the first argument); load it at chrome://tracing or
//! <https://ui.perfetto.dev> to see the timeline.

use sc_repro::prelude::*;
use sc_telemetry::{Counter, Stage, TelemetrySink};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let trace_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "trace_pipeline.json".into());

    // A 40×40 synthetic scene in 10-pixel tiles: 16 tiles in a handful of
    // plan classes, so the run shows cache hits (each binding one tile's
    // select seeds to a cached template) — not just compiles.
    let size = 40;
    let blob = GrayImage::gaussian_blob(size, size);
    let image = GrayImage::from_fn(size, size, |x, y| {
        0.6 * blob.get(x, y) + 0.4 * (x as f64 / size as f64)
    });

    let sink = TelemetrySink::new();
    let config = PipelineConfig {
        stream_length: 256,
        ..PipelineConfig::default()
    }
    .with_telemetry(sink.clone());

    let (_, stats) =
        sc_image::run_sc_pipeline_with_stats(&image, PipelineVariant::Synchronizer, &config)?;
    let report = sink.drain();

    println!(
        "GB + ED accelerator, {size}x{size} image, N = {}, synchronizer variant\n",
        config.stream_length
    );

    // Per-stage time breakdown, widest stages first.
    let mut stages: Vec<(&str, u64, u64)> = Stage::ALL
        .iter()
        .filter_map(|&stage| {
            let (count, total_ns) = report.stage_totals(stage);
            (count > 0).then(|| (stage.name(), count, total_ns))
        })
        .collect();
    stages.sort_by_key(|&(_, _, total_ns)| std::cmp::Reverse(total_ns));
    println!("{:<24} {:>8} {:>14}", "stage", "spans", "total");
    for (name, count, total_ns) in &stages {
        println!("{name:<24} {count:>8} {:>12.3} ms", *total_ns as f64 / 1e6);
    }

    println!(
        "\ntiles {} | plan-cache hits {} / misses {} | repairs inserted {}",
        report.counter(Counter::Tiles),
        report.counter(Counter::PlanCacheHits),
        report.counter(Counter::PlanCacheMisses),
        report.counter(Counter::RepairsInserted),
    );
    println!(
        "jobs: {} of {} tiles (peak {} in flight)",
        stats.stream.jobs, stats.tiles, stats.stream.peak_in_flight
    );

    std::fs::write(&trace_path, report.to_chrome_trace())?;
    println!("\nwrote {trace_path} — open it at chrome://tracing or ui.perfetto.dev");
    Ok(())
}
