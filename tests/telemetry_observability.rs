//! End-to-end observability acceptance tests: an image-pipeline run under an
//! attached [`TelemetrySink`] yields a report whose per-stage span totals
//! cover the run's wall-clock, whose counters agree with the returned
//! [`sc_image::PipelineStats`] view, and whose chrome://tracing export is
//! structurally valid JSON.
//! The continuous-telemetry layer is pinned end to end too: interval deltas
//! sampled while the pipeline dispatches must sum to the cumulative report,
//! the per-plan-class breakdown must surface through both
//! [`sc_image::PipelineStats`] and the sink, and the scrape endpoint must
//! serve well-formed Prometheus text over real TCP.

use sc_image::{
    run_sc_pipeline_with_threads, GrayImage, PipelineConfig, PipelineVariant, TelemetrySink,
};
use sc_telemetry::serve::TelemetryServer;
use sc_telemetry::{json, Counter, Hist, Stage};
use std::collections::HashMap;
use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A 24×24 blob-plus-gradient image: 16 full-size 6-pixel tiles in 2 bank
/// phases, so the plan cache hits 14 times.
fn test_image() -> GrayImage {
    let blob = GrayImage::gaussian_blob(24, 24);
    GrayImage::from_fn(24, 24, |x, y| {
        0.6 * blob.get(x, y) + 0.4 * (x as f64 / 24.0)
    })
}

fn instrumented_config(sink: &TelemetrySink) -> PipelineConfig {
    PipelineConfig {
        stream_length: 256,
        ..PipelineConfig::quick()
    }
    .with_telemetry(sink.clone())
}

/// Jobs a report says were executed: one `execute.scalar` span per job.
fn executed_jobs(report: &sc_telemetry::TelemetryReport) -> u64 {
    report.stage_totals(Stage::ScalarExecute).0
}

/// At one thread the whole run is sequential on the caller's thread, so the
/// two top-level stages — the streaming dispatch (which nests planning,
/// compilation, and execution) and the sink scatter — tile the pipeline
/// call: their span totals must sum to within 10% of the measured
/// wall-clock, and the nested execution stages must fit inside the dispatch.
#[test]
fn pipeline_span_totals_cover_wall_clock() {
    let sink = TelemetrySink::new();
    let config = instrumented_config(&sink);
    let img = test_image();

    let started = Instant::now();
    let (_, _) =
        run_sc_pipeline_with_threads(&img, PipelineVariant::Synchronizer, &config, 1).unwrap();
    let wall = started.elapsed().as_nanos() as u64;

    let report = sink.drain();
    let (dispatch_count, dispatch_ns) = report.stage_totals(Stage::Dispatch);
    let (collect_count, collect_ns) = report.stage_totals(Stage::SinkCollect);
    assert_eq!(dispatch_count, 1);
    assert_eq!(collect_count, 1);
    let covered = dispatch_ns + collect_ns;
    assert!(
        covered <= wall,
        "spans nest inside the measured call: covered {covered}ns > wall {wall}ns"
    );
    assert!(
        10 * covered >= 9 * wall,
        "per-stage totals should cover ≥ 90% of the wall-clock, \
         got {covered}ns of {wall}ns"
    );

    // The execution/planning leaves nest inside the dispatch span.
    let nested: u64 = [
        Stage::PlanCacheHit,
        Stage::PlanCacheMiss,
        Stage::ScalarExecute,
    ]
    .into_iter()
    .map(|stage| report.stage_totals(stage).1)
    .sum();
    assert!(nested > 0, "the run records execution and planning spans");
    assert!(
        nested <= dispatch_ns,
        "nested stage totals ({nested}ns) exceed their parent dispatch ({dispatch_ns}ns)"
    );
}

/// The report's counters and the returned [`sc_image::PipelineStats`] are
/// views over the same tallies: tiles, cache hits/misses, and jobs all
/// agree, and every pulled job closed exactly one span.
#[test]
fn pipeline_report_agrees_with_stats_view() {
    let sink = TelemetrySink::new();
    let config = instrumented_config(&sink);
    let (_, stats) =
        run_sc_pipeline_with_threads(&test_image(), PipelineVariant::Synchronizer, &config, 1)
            .unwrap();
    let report = sink.drain();

    assert_eq!(stats.tiles, 16);
    assert_eq!(report.counter(Counter::Tiles), 16);
    assert_eq!(
        report.counter(Counter::PlanCacheMisses),
        stats.compilations as u64
    );
    assert_eq!(
        report.counter(Counter::PlanCacheHits),
        (stats.tiles - stats.compilations) as u64
    );
    assert_eq!(
        report.counter(Counter::Compilations),
        stats.compilations as u64
    );
    assert!(
        report.counter(Counter::RepairsInserted) >= 1,
        "the synchronizer variant's repairs are planner-inserted"
    );

    // Every pulled job closed exactly one execute span and one latency sample.
    let pulled = report.counter(Counter::JobsPulled);
    assert_eq!(pulled, stats.tiles as u64);
    assert_eq!(executed_jobs(&report), pulled);
    assert_eq!(report.histogram(Hist::JobLatencyNs).count, pulled);
    assert_eq!(report.counter(Counter::JobsFailed), 0);
}

/// The chrome://tracing export (the same function
/// `examples/trace_pipeline.rs` writes to disk) is structurally valid: a
/// parseable JSON object whose `traceEvents` hold "M" metadata events
/// (process name plus one thread name per distinct tid) followed by
/// complete "X" events with name/ts/dur/pid/tid, one per recorded span.
#[test]
fn chrome_trace_export_is_structurally_valid() {
    let sink = TelemetrySink::new();
    let config = instrumented_config(&sink);
    run_sc_pipeline_with_threads(&test_image(), PipelineVariant::Synchronizer, &config, 1).unwrap();
    let report = sink.drain();
    let span_count = report.spans.len();
    assert!(span_count > 0);

    let trace = json::parse(&report.to_chrome_trace()).expect("trace export parses");
    let events = trace
        .get("traceEvents")
        .and_then(json::Json::as_array)
        .expect("trace has a traceEvents array");
    let (metadata, spans): (Vec<_>, Vec<_>) = events
        .iter()
        .partition(|e| e.get("ph").and_then(json::Json::as_str) == Some("M"));
    assert_eq!(spans.len(), span_count);
    let stage_names: Vec<&str> = Stage::ALL.iter().map(|s| s.name()).collect();
    for event in &spans {
        let name = event
            .get("name")
            .and_then(json::Json::as_str)
            .expect("event has a name");
        assert!(stage_names.contains(&name), "unknown stage {name:?}");
        assert_eq!(
            event.get("ph").and_then(json::Json::as_str),
            Some("X"),
            "spans export as complete events"
        );
        let ts = event
            .get("ts")
            .and_then(json::Json::as_f64)
            .expect("event has a timestamp");
        let dur = event
            .get("dur")
            .and_then(json::Json::as_f64)
            .expect("event has a duration");
        assert!(ts >= 0.0 && dur >= 0.0);
        assert_eq!(event.get("pid").and_then(json::Json::as_u64), Some(1));
        assert!(event.get("tid").and_then(json::Json::as_u64).is_some());
    }

    // Satellite: metadata events name the process and every thread that
    // recorded a span, and they precede the span events so viewers apply
    // them to the whole timeline.
    let process_names: Vec<&str> = metadata
        .iter()
        .filter(|e| e.get("name").and_then(json::Json::as_str) == Some("process_name"))
        .filter_map(|e| e.get("args").and_then(|a| a.get("name")))
        .filter_map(json::Json::as_str)
        .collect();
    assert_eq!(process_names, vec!["sc-repro"]);
    let mut span_tids: Vec<u64> = spans
        .iter()
        .filter_map(|e| e.get("tid").and_then(json::Json::as_u64))
        .collect();
    span_tids.sort_unstable();
    span_tids.dedup();
    let mut named_tids: Vec<u64> = metadata
        .iter()
        .filter(|e| e.get("name").and_then(json::Json::as_str) == Some("thread_name"))
        .filter_map(|e| e.get("tid").and_then(json::Json::as_u64))
        .collect();
    named_tids.sort_unstable();
    assert_eq!(named_tids, span_tids, "every span tid gets a thread_name");
    for event in &metadata {
        let thread_name = event.get("args").and_then(|a| a.get("name"));
        assert!(
            thread_name.and_then(json::Json::as_str).is_some(),
            "metadata events carry args.name"
        );
    }
    let first_span_index = events
        .iter()
        .position(|e| e.get("ph").and_then(json::Json::as_str) == Some("X"))
        .expect("there are span events");
    assert!(
        first_span_index >= metadata.len(),
        "metadata events precede span events"
    );

    // The JSON-lines export round-trips too: a summary line plus one line
    // per span, every line independently parseable.
    let jsonl = report.to_json_lines();
    let mut lines = jsonl.lines();
    let summary = json::parse(lines.next().expect("summary line")).expect("summary parses");
    assert_eq!(
        summary.get("type").and_then(json::Json::as_str),
        Some("summary")
    );
    assert_eq!(
        summary
            .get("report")
            .and_then(|r| r.get("counters"))
            .and_then(|c| c.get(Counter::JobsPulled.name()))
            .and_then(json::Json::as_u64),
        Some(report.counter(Counter::JobsPulled))
    );
    assert_eq!(lines.count(), span_count);
}

/// Tentpole acceptance: interval deltas sampled *while the pipeline
/// dispatches on worker threads* telescope exactly — summing every
/// `snapshot_delta` (including one final drain-up after the run) reproduces
/// the cumulative snapshot's counters, latency-histogram count, and
/// per-class job tallies, with no samples lost or double-counted.
#[test]
fn snapshot_deltas_sum_to_cumulative_across_a_live_run() {
    let sink = TelemetrySink::new();
    let config = instrumented_config(&sink);
    let img = test_image();

    let done = Arc::new(AtomicBool::new(false));
    let workload = {
        let finished = Arc::clone(&done);
        let config = config.clone();
        std::thread::spawn(move || {
            for _ in 0..3 {
                run_sc_pipeline_with_threads(&img, PipelineVariant::Synchronizer, &config, 4)
                    .unwrap();
            }
            finished.store(true, Ordering::Release);
        })
    };

    let mut counter_sums: HashMap<&str, u64> = HashMap::new();
    let mut latency_count_sum = 0u64;
    let mut class_job_sums: HashMap<Option<u64>, u64> = HashMap::new();
    let mut intervals = 0u64;
    loop {
        let finished = done.load(Ordering::Acquire);
        let delta = sink.snapshot_delta();
        intervals += 1;
        for counter in Counter::ALL {
            *counter_sums.entry(counter.name()).or_default() += delta.counter(counter);
        }
        latency_count_sum += delta.histogram(Hist::JobLatencyNs).count;
        for class in delta.classes() {
            *class_job_sums.entry(class.plan_class).or_default() += class.jobs;
        }
        if finished {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    workload.join().expect("the workload thread completes");
    assert!(intervals >= 1);

    let cumulative = sink.snapshot();
    for counter in Counter::ALL {
        assert_eq!(
            counter_sums[counter.name()],
            cumulative.counter(counter),
            "interval {} increments must sum to the cumulative value",
            counter.name()
        );
    }
    assert_eq!(
        latency_count_sum,
        cumulative.histogram(Hist::JobLatencyNs).count
    );
    assert_eq!(cumulative.counter(Counter::Tiles), 48, "3 runs x 16 tiles");
    for class in cumulative.classes() {
        assert_eq!(
            class_job_sums.get(&class.plan_class).copied().unwrap_or(0),
            class.jobs,
            "per-class deltas for {:?} must sum to the cumulative tally",
            class.plan_class
        );
    }
}

/// The sink's bounded class table is the one per-class view of a pipeline
/// run: its rows partition [`sc_image::PipelineStats`]' execution tally —
/// one row per compiled template, jobs summing to the run's total — with one
/// latency sample per job.
#[test]
fn pipeline_stats_expose_the_per_class_breakdown() {
    let sink = TelemetrySink::new();
    let config = instrumented_config(&sink);
    let (_, stats) =
        run_sc_pipeline_with_threads(&test_image(), PipelineVariant::Synchronizer, &config, 2)
            .unwrap();
    let report = sink.drain();
    let classes = report.classes();

    assert!(!classes.is_empty());
    assert!(
        classes
            .windows(2)
            .all(|w| w[0].plan_class < w[1].plan_class),
        "classes are reported in class-id order without duplicates"
    );
    assert_eq!(
        classes.len(),
        stats.compilations,
        "one compiled template per executed class"
    );
    let sum = |f: fn(&sc_telemetry::ClassReport) -> u64| classes.iter().map(f).sum::<u64>();
    assert_eq!(
        sum(|c| c.jobs),
        stats.tiles as u64,
        "classes partition the run's jobs"
    );
    assert_eq!(
        sum(|c| c.latency.count),
        stats.tiles as u64,
        "one latency sample per job"
    );
}

/// A parsed exposition series: metric name, `key=value` labels, sample value.
type Series = (String, Vec<(String, String)>, f64);

/// One parsed exposition line: `name{labels} value`.
fn parse_series(line: &str) -> Option<Series> {
    if line.starts_with('#') || line.is_empty() {
        return None;
    }
    let (series, value) = line.rsplit_once(' ')?;
    let value: f64 = value.parse().ok()?;
    let (name, labels) = match series.split_once('{') {
        Some((name, rest)) => {
            let inner = rest.strip_suffix('}')?;
            let labels = inner
                .split(',')
                .map(|pair| {
                    let (k, v) = pair.split_once('=').expect("label has key=value");
                    (k.to_string(), v.trim_matches('"').to_string())
                })
                .collect();
            (name.to_string(), labels)
        }
        None => (series.to_string(), Vec::new()),
    };
    Some((name, labels, value))
}

/// Satellite acceptance: a real-TCP GET against the scrape endpoint returns
/// valid Prometheus text — `# TYPE` lines, the counters the run produced,
/// and histogram `_bucket` series that are cumulative (non-decreasing in
/// `le` order) with the `+Inf` bucket equal to `_count` — and `/json`
/// returns a parseable document with the same counters.
#[test]
fn scrape_endpoint_serves_valid_prometheus_over_tcp() {
    let sink = TelemetrySink::new();
    let config = instrumented_config(&sink);
    run_sc_pipeline_with_threads(&test_image(), PipelineVariant::Synchronizer, &config, 2).unwrap();
    let server = TelemetryServer::start(sink.clone(), "127.0.0.1:0").expect("server binds");

    let get = |path: &str| -> (String, String) {
        let mut stream = TcpStream::connect(server.local_addr()).expect("connects");
        stream
            .write_all(
                format!("GET {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n")
                    .as_bytes(),
            )
            .expect("request writes");
        let mut response = String::new();
        stream
            .read_to_string(&mut response)
            .expect("response reads");
        let (head, body) = response
            .split_once("\r\n\r\n")
            .expect("response has a body");
        (head.to_string(), body.to_string())
    };

    let (head, body) = get("/metrics");
    assert!(head.starts_with("HTTP/1.1 200"), "status line: {head}");
    assert!(
        head.contains("text/plain; version=0.0.4"),
        "Prometheus content type: {head}"
    );
    assert!(body.contains("# TYPE sc_jobs_pulled counter"));

    let report = sink.snapshot();
    let series: Vec<_> = body.lines().filter_map(parse_series).collect();
    let find = |name: &str| {
        series
            .iter()
            .find(|(n, labels, _)| n == name && labels.is_empty())
            .map(|&(_, _, v)| v)
    };
    assert_eq!(
        find("sc_jobs_pulled"),
        Some(report.counter(Counter::JobsPulled) as f64)
    );
    assert_eq!(
        find("sc_tiles"),
        Some(report.counter(Counter::Tiles) as f64)
    );

    // Histogram buckets: group every `<name>_bucket` series by name plus its
    // non-`le` labels, preserving emission order; each group must be
    // non-decreasing and end at `+Inf` with the matching `_count` value.
    let mut groups: Vec<(String, Vec<(String, f64)>)> = Vec::new();
    for (name, labels, value) in &series {
        let Some(base) = name.strip_suffix("_bucket") else {
            continue;
        };
        let le = labels
            .iter()
            .find(|(k, _)| k == "le")
            .map(|(_, v)| v.clone())
            .expect("bucket series carry le");
        let others: Vec<String> = labels
            .iter()
            .filter(|(k, _)| k != "le")
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        let key = format!("{base}|{}", others.join(","));
        match groups.iter_mut().find(|(k, _)| *k == key) {
            Some((_, buckets)) => buckets.push((le, *value)),
            None => groups.push((key, vec![(le, *value)])),
        }
    }
    assert!(
        groups
            .iter()
            .any(|(k, _)| k.starts_with("sc_hist_job_latency_ns|")),
        "the job-latency histogram is exposed"
    );
    for (key, buckets) in &groups {
        assert!(
            buckets.windows(2).all(|w| w[0].1 <= w[1].1),
            "{key}: bucket series must be cumulative, got {buckets:?}"
        );
        let (last_le, last_value) = buckets.last().expect("at least the +Inf bucket");
        assert_eq!(last_le, "+Inf", "{key}: the +Inf bucket is mandatory");
        let (base, labels) = key.split_once('|').expect("key shape");
        let count = series
            .iter()
            .find(|(n, ls, _)| {
                *n == format!("{base}_count")
                    && ls
                        .iter()
                        .map(|(k, v)| format!("{k}={v}"))
                        .collect::<Vec<_>>()
                        .join(",")
                        == labels
            })
            .map(|&(_, _, v)| v)
            .expect("every histogram has a _count");
        assert_eq!(*last_value, count, "{key}: +Inf bucket equals _count");
    }

    // The JSON endpoint parses and agrees on the counters.
    let (json_head, json_body) = get("/json");
    assert!(json_head.starts_with("HTTP/1.1 200"));
    let doc = json::parse(json_body.trim()).expect("/json parses");
    assert_eq!(
        doc.get("counters")
            .and_then(|c| c.get(Counter::JobsPulled.name()))
            .and_then(json::Json::as_u64),
        Some(report.counter(Counter::JobsPulled))
    );
}

/// The compile pipeline's per-stage spans partition the parent `compile`
/// span: each compile records exactly one span per mandatory stage
/// (validate, scc-infer, repair, emit), no other `compile.*` stage records
/// anything, and the stage time nests inside `compile`.
#[test]
fn compile_pass_spans_partition_under_compile() {
    let sink = TelemetrySink::new();
    let config = instrumented_config(&sink);
    run_sc_pipeline_with_threads(&test_image(), PipelineVariant::Synchronizer, &config, 1).unwrap();
    let report = sink.drain();

    let (compiles, compile_ns) = report.stage_totals(Stage::Compile);
    assert!(compiles > 0, "the run compiles at least one tile class");
    let mandatory = [
        Stage::CompileValidate,
        Stage::CompilePlan,
        Stage::CompileRepair,
        Stage::CompileEmit,
    ];
    let mut nested = 0;
    for stage in Stage::ALL {
        if !stage.name().starts_with("compile.") {
            continue;
        }
        let (count, ns) = report.stage_totals(stage);
        let expected = if mandatory.contains(&stage) {
            compiles
        } else {
            0
        };
        assert_eq!(count, expected, "{}: spans per run", stage.name());
        nested += ns;
    }
    assert!(
        nested <= compile_ns,
        "stage spans ({nested}ns) exceed their parent compile span ({compile_ns}ns)"
    );
}
