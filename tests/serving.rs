//! Serving-tier integration tests: the warm [`sc_graph::Service`] edge cases
//! (deadlines, cancellation, bounded intake, first-error ordering,
//! attribution, panics) and the [`sc_image::ImageServer`] front
//! (bit-identity with the one-shot pipeline under sequential and concurrent
//! requests, config-driven sizing, the plan cache's bound).

use sc_graph::{
    BatchInput, BinaryOp, Graph, GraphError, PlannerOptions, Request, RequestError, RequestHandle,
    Service, ServiceConfig, StreamJob, SubmitError,
};
use sc_image::{
    run_sc_pipeline, tile_origins, GrayImage, ImageServer, ImageSubmitError, PipelineConfig,
    PipelineStats, PipelineVariant, TilePlanner,
};
use sc_rng::SourceSpec;
use sc_telemetry::{Counter, Stage, TelemetrySink};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One compiled two-source XOR plan; every job built from it shares a
/// `plan_class`.
fn xor_plan() -> Arc<sc_graph::CompiledGraph> {
    let mut g = Graph::new();
    let x = g.generate(0, SourceSpec::Sobol { dimension: 1 });
    let y = g.generate(1, SourceSpec::Sobol { dimension: 2 });
    let z = g.binary(BinaryOp::XorSubtract, x, y);
    g.sink_value("z", z);
    Arc::new(g.compile(&PlannerOptions::default()).unwrap())
}

fn ok_job(plan: &Arc<sc_graph::CompiledGraph>) -> StreamJob {
    StreamJob {
        plan: Arc::clone(plan),
        input: BatchInput::with_values(vec![0.8, 0.3]),
    }
}

/// A job that fails deterministically at execution: the plan reads value
/// slots 0 and 1 but the input provides only `provided` values.
fn failing_job(plan: &Arc<sc_graph::CompiledGraph>, provided: usize) -> StreamJob {
    StreamJob {
        plan: Arc::clone(plan),
        input: BatchInput::with_values(vec![0.5; provided]),
    }
}

#[test]
fn deadline_expired_at_submit_fails_fast() {
    let sink = TelemetrySink::new();
    let service = Service::start(ServiceConfig::new(64).with_telemetry(sink.clone()));
    let plan = xor_plan();
    let request =
        Request::new(vec![ok_job(&plan)]).with_deadline(Instant::now() - Duration::from_secs(1));
    match service.submit(request) {
        Err(SubmitError::Expired(returned)) => {
            assert_eq!(returned.jobs.len(), 1, "the request is handed back");
        }
        other => panic!("expected Expired, got {other:?}"),
    }
    // The same fast path applies to the non-blocking submit.
    let request =
        Request::new(vec![ok_job(&plan)]).with_deadline(Instant::now() - Duration::from_secs(1));
    assert!(matches!(
        service.try_submit(request),
        Err(SubmitError::Expired(_))
    ));
    drop(service);
    let report = sink.drain();
    assert_eq!(report.counter(Counter::RequestsExpired), 2);
    assert_eq!(report.counter(Counter::RequestsSubmitted), 0);
}

#[test]
fn cancellation_drops_remaining_jobs_and_discards_results() {
    let sink = TelemetrySink::new();
    // One worker, slow jobs: cancellation lands while most of the request
    // is still queued.
    let service = Service::start(
        ServiceConfig::new(1 << 21)
            .with_threads(1)
            .with_telemetry(sink.clone()),
    );
    let plan = xor_plan();
    let handle = service
        .submit(Request::new((0..8).map(|_| ok_job(&plan)).collect()))
        .expect("intake admits the first request");
    handle.cancel();
    match handle.wait() {
        Err(RequestError::Cancelled) => {}
        other => panic!("expected Cancelled, got {other:?}"),
    }
    // The service survives and serves the next request normally.
    let handle = service
        .submit(Request::new(vec![ok_job(&plan)]))
        .expect("service still accepts work after a cancellation");
    let report = handle.wait().expect("follow-up request completes");
    assert_eq!(report.outputs.len(), 1);
    drop(service);
    let report = sink.drain();
    assert_eq!(report.counter(Counter::RequestsCancelled), 1);
    assert_eq!(report.counter(Counter::RequestsCompleted), 1);
    // Cancellation dropped at least one of the eight jobs before dispatch.
    assert!(
        report.counter(Counter::JobsPulled) < 9,
        "cancelled request should not dispatch all its jobs (pulled {})",
        report.counter(Counter::JobsPulled)
    );
}

#[test]
fn full_intake_blocks_submit_and_fails_try_submit() {
    let sink = TelemetrySink::new();
    // Slow jobs + one worker + intake 1: the first (oversized) request is
    // admitted because the intake is empty, then keeps it full for a while.
    let service = Arc::new(Service::start(
        ServiceConfig::new(1 << 21)
            .with_threads(1)
            .with_intake_capacity(1)
            .with_telemetry(sink.clone()),
    ));
    let plan = xor_plan();
    let first = service
        .submit(Request::new((0..4).map(|_| ok_job(&plan)).collect()))
        .expect("an empty intake admits an oversized request");
    match service.try_submit(Request::new(vec![ok_job(&plan)])) {
        Err(SubmitError::Rejected(returned)) => assert_eq!(returned.jobs.len(), 1),
        other => panic!("expected Rejected on a full intake, got {other:?}"),
    }
    // A blocking submit from another thread parks until the intake drains,
    // then completes normally.
    let blocked = {
        let service = Arc::clone(&service);
        let plan = Arc::clone(&plan);
        std::thread::spawn(move || {
            let handle = service
                .submit(Request::new(vec![ok_job(&plan)]))
                .expect("blocking submit eventually admits");
            handle.wait().expect("blocked request completes").outputs[0]
                .value("z")
                .unwrap()
        })
    };
    let first_report = first.wait().expect("first request completes");
    assert_eq!(first_report.outputs.len(), 4);
    let blocked_value = blocked.join().expect("blocked submitter thread");
    assert!((blocked_value - 0.5).abs() < 0.1, "XOR |0.8-0.3| ≈ 0.5");
    drop(service);
    let report = sink.drain();
    assert_eq!(report.counter(Counter::RequestsRejected), 1);
    assert_eq!(report.counter(Counter::RequestsSubmitted), 2);
}

#[test]
fn first_error_is_the_smallest_failing_job_index() {
    let service = Service::start(ServiceConfig::new(64).with_threads(2));
    let plan = xor_plan();
    // Jobs 1 and 3 both fail, with distinguishable errors (provided = 0
    // vs 1). Every job still executes, so the reported error is job 1's
    // regardless of scheduling.
    for _ in 0..8 {
        let handle = service
            .submit(Request::new(vec![
                ok_job(&plan),
                failing_job(&plan, 0),
                ok_job(&plan),
                failing_job(&plan, 1),
            ]))
            .expect("submit succeeds");
        match handle.wait() {
            Err(RequestError::Job(GraphError::ValueSlotOutOfRange { provided, .. })) => {
                assert_eq!(provided, 0, "job 1 (provided=0) is the first failure");
            }
            other => panic!("expected job 1's error, got {other:?}"),
        }
    }
}

#[test]
fn attribution_segments_sum_to_request_wall_clock() {
    let sink = TelemetrySink::new();
    let service = Service::start(
        ServiceConfig::new(256)
            .with_threads(2)
            .with_telemetry(sink.clone()),
    );
    let plan = xor_plan();
    let handle = service
        .submit(Request::new((0..6).map(|_| ok_job(&plan)).collect()))
        .expect("submit succeeds");
    let report = handle.wait().expect("request completes");
    let a = report.attribution;
    assert_eq!(
        a.submit_ns + a.queue_wait_ns + a.execute_ns + a.assemble_ns,
        a.wall_ns,
        "attribution segments partition the request wall-clock exactly"
    );
    assert!(a.wall_ns > 0, "a real request takes nonzero time");
    assert_eq!(report.outputs.len(), 6);
    drop(service);
    let report = sink.drain();
    // The serving stages are first-class members of the static registry.
    for stage in [
        Stage::ServeSubmit,
        Stage::ServeQueueWait,
        Stage::ServeCoalesce,
        Stage::ServeAssemble,
    ] {
        assert!(
            Stage::ALL.contains(&stage),
            "{} missing from the stage registry",
            stage.name()
        );
    }
    assert!(
        report.histogram(sc_telemetry::Hist::RequestLatencyNs).count > 0,
        "completed requests record a latency observation"
    );
}

/// A plan with no FSM step: one AND gate over two generated sources.
fn and_plan() -> Arc<sc_graph::CompiledGraph> {
    let mut g = Graph::new();
    let x = g.generate(0, SourceSpec::Sobol { dimension: 1 });
    let y = g.generate(1, SourceSpec::Sobol { dimension: 2 });
    let z = g.binary(BinaryOp::AndMultiply, x, y);
    g.sink_value("z", z);
    Arc::new(g.compile(&PlannerOptions::default()).unwrap())
}

/// A long-lived service sees a fresh plan class on every compile (a new
/// tile class, a caller's new plan): many freshly
/// compiled plans through one service all resolve bit-identical to solo
/// runs, while the sink's per-class table stays bounded.
#[test]
fn many_freshly_compiled_plans_through_one_service() {
    let sink = TelemetrySink::new();
    let service = Service::start(
        ServiceConfig::new(128)
            .with_threads(2)
            .with_telemetry(sink.clone()),
    );
    let requests = 96;
    let plans: Vec<_> = (0..requests).map(|_| xor_plan()).collect();
    let handles: Vec<RequestHandle> = plans
        .iter()
        .map(|plan| {
            service
                .submit(Request::new((0..3).map(|_| ok_job(plan)).collect()))
                .expect("submit succeeds")
        })
        .collect();
    for (plan, handle) in plans.iter().zip(handles) {
        let solo = sc_graph::Executor::new(128)
            .run(plan, &ok_job(plan).input)
            .unwrap();
        let report = handle.wait().expect("request completes");
        assert_eq!(report.outputs, vec![solo; 3]);
    }
    drop(service);
    let report = sink.drain();
    assert_eq!(report.counter(Counter::RequestsCompleted), requests as u64);
    assert!(report.classes().len() <= sc_telemetry::MAX_PLAN_CLASSES + 1);
}

/// The text of a caught panic payload.
fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
        .unwrap_or_default()
}

#[test]
fn fault_marked_class_panic_resolves_its_request_and_drop_returns() {
    // A worker runs each job under one `catch_unwind`: a panicking job
    // resolves exactly its own request, a concurrent request of another
    // class completes with the one-shot bits, and the service still drains
    // and shuts down.
    let faulty = xor_plan();
    let healthy = xor_plan();
    sc_graph::fault::panic_on_class(faulty.plan_class());
    let sink = TelemetrySink::new();
    let service = Service::start(
        ServiceConfig::new(256)
            .with_threads(2)
            .with_telemetry(sink.clone()),
    );
    let doomed = service
        .submit(Request::new((0..3).map(|_| ok_job(&faulty)).collect()))
        .expect("submit the faulty request");
    let fine = service
        .submit(Request::new((0..3).map(|_| ok_job(&healthy)).collect()))
        .expect("submit the healthy request");
    let payload = catch_unwind(AssertUnwindSafe(|| doomed.wait()))
        .expect_err("a request with a panicked job resumes the panic");
    assert!(panic_text(&*payload).contains("injected fault"));
    let one_shot = sc_graph::Executor::new(256)
        .run(&healthy, &ok_job(&healthy).input)
        .unwrap();
    let report = fine.wait().expect("a request of another class completes");
    assert_eq!(report.outputs, vec![one_shot; 3]);
    // Dropping the service joins its workers: this returns only if every
    // picked job delivered.
    drop(service);
    sc_graph::fault::clear_class(faulty.plan_class());
    let report = sink.drain();
    assert_eq!(report.counter(Counter::RequestsSubmitted), 2);
    assert_eq!(report.counter(Counter::RequestsPanicked), 1);
    assert_eq!(report.counter(Counter::RequestsCompleted), 1);
}

#[test]
fn in_flight_deadline_fires_while_jobs_still_run() {
    // One worker, slow jobs: the deadline passes while the first job is
    // still running, and the waiter is released at the deadline instead of
    // after the request's remaining jobs.
    let sink = TelemetrySink::new();
    let service = Service::start(
        ServiceConfig::new(1 << 21)
            .with_threads(1)
            .with_telemetry(sink.clone()),
    );
    let plan = xor_plan();
    let timeout = Duration::from_millis(20);
    let started = Instant::now();
    let handle = service
        .submit(
            Request::new((0..16).map(|_| ok_job(&plan)).collect())
                .with_deadline(Instant::now() + timeout),
        )
        .expect("submit succeeds");
    assert!(matches!(handle.wait(), Err(RequestError::DeadlineExceeded)));
    let elapsed = started.elapsed();
    assert!(elapsed >= timeout, "expired early after {elapsed:?}");
    // The service keeps serving after an expiry.
    let handle = service
        .submit(Request::new(vec![ok_job(&plan)]))
        .expect("submit after expiry");
    assert_eq!(handle.wait().expect("completes").outputs.len(), 1);
    drop(service);
    let report = sink.drain();
    assert_eq!(report.counter(Counter::RequestsExpired), 1);
    assert_eq!(report.counter(Counter::RequestsCompleted), 1);
}

/// A plan with six generated sources ANDed in a chain: several times the
/// work of [`xor_plan`] per job.
fn slow_plan() -> Arc<sc_graph::CompiledGraph> {
    let mut g = Graph::new();
    let mut z = g.generate(0, SourceSpec::Sobol { dimension: 1 });
    for slot in 1..6 {
        let x = g.generate(
            slot,
            SourceSpec::Sobol {
                dimension: slot as u32 + 1,
            },
        );
        z = g.binary(BinaryOp::AndMultiply, z, x);
    }
    g.sink_value("z", z);
    Arc::new(g.compile(&PlannerOptions::default()).unwrap())
}

#[test]
fn expired_queued_request_frees_intake_room_for_a_blocked_submit() {
    // One worker busy on a slow job, intake capacity 1. A queued request with
    // a short deadline and no waiter holds the intake; a blocked submit must
    // get through at about that deadline, not when the worker next picks.
    let sink = TelemetrySink::new();
    let service = Service::start(
        ServiceConfig::new(1 << 21)
            .with_threads(1)
            .with_intake_capacity(1)
            .with_telemetry(sink.clone()),
    );
    let plan = xor_plan();
    let slow = service
        .submit(Request::new(vec![StreamJob {
            plan: slow_plan(),
            input: BatchInput::with_values(vec![0.9; 6]),
        }]))
        .expect("an empty intake admits the slow request");
    // Wait until the worker has taken the slow job, leaving the intake empty.
    while sink.snapshot().counter(Counter::JobsPulled) == 0 {
        std::thread::yield_now();
    }
    let deadline = Instant::now() + Duration::from_millis(20);
    let queued = service
        .submit(Request::new(vec![ok_job(&plan)]).with_deadline(deadline))
        .expect("an empty intake admits the short-deadline request");
    let blocked = service
        .submit(Request::new(vec![ok_job(&plan)]))
        .expect("a blocked submit gets in once the expired request is dropped");
    let freed = Instant::now();
    assert!(
        !slow.is_finished(),
        "room was freed only when the slow job finished"
    );
    assert!(freed >= deadline, "room was freed before the deadline");
    assert!(matches!(queued.wait(), Err(RequestError::DeadlineExceeded)));
    slow.cancel();
    blocked.cancel();
    drop(service);
    let report = sink.drain();
    assert_eq!(report.counter(Counter::RequestsExpired), 1);
    assert_eq!(report.counter(Counter::RequestsSubmitted), 3);
}

#[test]
fn every_request_resolves_exactly_once_under_random_faults() {
    // Seeded random traffic over one service: short, already-expired, and
    // open deadlines; cancellations; panicking jobs; rejected
    // submits; and a shutdown with requests still in flight. Every admitted
    // request must resolve (no waiter hangs), and the `Requests*` counters
    // must partition the submissions and agree with what the waiters saw.
    let faulty = xor_plan();
    let healthy = xor_plan();
    let and = and_plan();
    sc_graph::fault::panic_on_class(faulty.plan_class());
    let sink = TelemetrySink::new();
    let service = Service::start(
        ServiceConfig::new(256)
            .with_threads(2)
            .with_intake_capacity(12)
            .with_telemetry(sink.clone()),
    );
    let mut state = 0x5EED_u64;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut handles = Vec::new();
    let (mut rejected, mut expired_at_submit) = (0u64, 0u64);
    for i in 0..80 {
        let r = next();
        let jobs = (0..r % 6)
            .map(|j| match (r >> (8 + 3 * j)) % 8 {
                0 => ok_job(&faulty),
                1 | 2 => ok_job(&and),
                _ => ok_job(&healthy),
            })
            .collect();
        let request = match (r >> 40) % 6 {
            0 => Request::new(jobs).with_deadline(Instant::now() + Duration::from_micros(r % 400)),
            1 => Request::new(jobs).with_deadline(Instant::now() - Duration::from_millis(1)),
            _ => Request::new(jobs),
        };
        let submitted = if i % 2 == 0 {
            service.try_submit(request)
        } else {
            service.submit(request)
        };
        match submitted {
            Ok(handle) => {
                if (r >> 50) % 5 == 0 {
                    handle.cancel();
                }
                handles.push(handle);
            }
            Err(SubmitError::Rejected(_)) => rejected += 1,
            Err(SubmitError::Expired(_)) => expired_at_submit += 1,
            Err(SubmitError::ShutDown(_)) => panic!("the service is still running"),
        }
    }
    // Wait on two thirds, then shut down with the rest possibly in flight.
    let late = handles.split_off(handles.len() * 2 / 3);
    let mut seen = [0u64; 5]; // completed, panicked, cancelled, expired, shut down
    let mut classify = |handle: RequestHandle| {
        let slot = match catch_unwind(AssertUnwindSafe(|| handle.wait())) {
            Ok(Ok(_) | Err(RequestError::Job(_))) => 0,
            Err(_) => 1,
            Ok(Err(RequestError::Cancelled)) => 2,
            Ok(Err(RequestError::DeadlineExceeded)) => 3,
            Ok(Err(RequestError::ShutDown)) => 4,
        };
        seen[slot] += 1;
    };
    for handle in handles.drain(..) {
        classify(handle);
    }
    drop(service);
    let late_count = late.len() as u64;
    for handle in late {
        classify(handle);
    }
    sc_graph::fault::clear_class(faulty.plan_class());

    let report = sink.drain();
    let submitted = report.counter(Counter::RequestsSubmitted);
    assert_eq!(submitted, seen.iter().sum::<u64>());
    assert!(late_count > 0 && submitted > 0);
    assert_eq!(report.counter(Counter::RequestsRejected), rejected);
    assert_eq!(report.counter(Counter::RequestsCompleted), seen[0]);
    assert_eq!(report.counter(Counter::RequestsPanicked), seen[1]);
    assert_eq!(report.counter(Counter::RequestsCancelled), seen[2]);
    assert_eq!(
        report.counter(Counter::RequestsExpired),
        seen[3] + expired_at_submit
    );
    assert_eq!(report.counter(Counter::RequestsShutDown), seen[4]);
    assert!(seen[1] > 0, "the seed exercises panicking jobs");
    assert!(seen[2] > 0, "the seed exercises cancellation");
}

#[test]
fn image_server_matches_the_one_shot_pipeline_bit_for_bit() {
    let blob = GrayImage::gaussian_blob(12, 12);
    let image = GrayImage::from_fn(12, 12, |x, y| {
        0.6 * blob.get(x, y) + 0.4 * (x as f64 / 12.0)
    });
    let config = PipelineConfig::quick();
    for variant in PipelineVariant::all() {
        let expected = run_sc_pipeline(&image, variant, &config).unwrap();
        let server = ImageServer::builder(variant, config.clone())
            .with_threads(2)
            .start()
            .unwrap();
        // Twice through the same warm server: the second submission runs
        // entirely on cached plans and must render the same pixels.
        for round in 0..2 {
            let response = server.submit(&image).unwrap().wait().unwrap();
            assert_eq!(
                response.image, expected,
                "{variant:?} round {round}: served image diverged from the pipeline"
            );
            assert_eq!(response.tiles, 4);
        }
        assert!(server.cached_classes() > 0, "the plan cache stays warm");
    }
}

/// Images submitted concurrently to one warm server — their tiles share the
/// intake and the workers — each equal their one-shot image.
#[test]
fn concurrent_image_requests_equal_their_one_shot_images() {
    let config = PipelineConfig::quick();
    let images = [
        GrayImage::gradient(12, 12),
        GrayImage::checkerboard(12, 12, 3),
        GrayImage::gaussian_blob(12, 12),
        GrayImage::noise(12, 12, 7),
    ];
    let server = ImageServer::builder(PipelineVariant::Synchronizer, config.clone())
        .with_threads(2)
        .start()
        .unwrap();
    let handles: Vec<_> = images
        .iter()
        .map(|image| server.submit(image).unwrap())
        .collect();
    for (image, handle) in images.iter().zip(handles) {
        let expected = run_sc_pipeline(image, PipelineVariant::Synchronizer, &config).unwrap();
        assert_eq!(handle.wait().unwrap().image, expected);
    }
}

/// The server takes its worker count from the same `PipelineConfig` field
/// the one-shot pipeline reads: with one thread, every tile runs on one
/// worker thread.
#[test]
fn image_server_reads_threads_from_the_config() {
    let image = GrayImage::gradient(12, 12);
    let sink = TelemetrySink::new();
    let config = PipelineConfig::quick().with_threads(1);
    let expected = run_sc_pipeline(&image, PipelineVariant::Synchronizer, &config).unwrap();
    let server = ImageServer::start(
        PipelineVariant::Synchronizer,
        config.with_telemetry(sink.clone()),
    )
    .unwrap();
    let response = server.submit(&image).unwrap().wait().unwrap();
    assert_eq!(response.image, expected);
    drop(server);
    let report = sink.drain();
    let workers: std::collections::HashSet<u32> = report
        .spans
        .iter()
        .filter(|s| s.stage == Stage::WorkerRun)
        .map(|s| s.thread)
        .collect();
    assert_eq!(workers.len(), 1, "one configured thread, one worker");
    assert_eq!(
        report.stage_totals(Stage::WorkerRun).0,
        response.tiles as u64
    );
}

#[test]
fn image_server_rejects_degenerate_configs_and_expired_deadlines() {
    let bad = PipelineConfig {
        tile_size: 0,
        ..PipelineConfig::quick()
    };
    assert!(ImageServer::start(PipelineVariant::Synchronizer, bad).is_err());
    let server =
        ImageServer::start(PipelineVariant::Synchronizer, PipelineConfig::quick()).unwrap();
    let image = GrayImage::gradient(8, 8);
    let err = server
        .submit_with_deadline(&image, Instant::now() - Duration::from_secs(1))
        .unwrap_err();
    assert_eq!(err, ImageSubmitError::Expired);
}

/// The plan cache is never evicted because it is bounded by construction:
/// a class is a tile shape in `1..=t` × `1..=t` and one of the 4×2
/// source-bank phases, so planning every image size up to two tiles a side
/// caches at most `8·t²` templates, and a second pass over the same sizes
/// compiles nothing.
#[test]
fn plan_cache_is_bounded_by_tile_shapes_and_bank_phases() {
    for variant in PipelineVariant::all() {
        let sink = TelemetrySink::new();
        let config = PipelineConfig::quick().with_telemetry(sink.clone());
        let t = config.tile_size;
        let mut planner = TilePlanner::new(variant, config);
        let mut plan_every_size = || {
            let mut stats = PipelineStats::default();
            for width in 1..=2 * t {
                for height in 1..=2 * t {
                    let image = GrayImage::gradient(width, height);
                    for (i, &(x0, y0)) in tile_origins(&image, t).iter().enumerate() {
                        drop(planner.plan_tile(&image, x0, y0, i as u64, &mut stats));
                    }
                }
            }
            stats.compilations
        };
        let misses = || sink.snapshot().counter(Counter::PlanCacheMisses);
        let compiled = plan_every_size();
        assert!(compiled > 0, "{variant:?}: the first pass compiles");
        assert_eq!(misses(), compiled as u64);
        assert_eq!(plan_every_size(), 0, "{variant:?}: no second-pass compiles");
        assert_eq!(
            misses(),
            compiled as u64,
            "{variant:?}: no second-pass misses"
        );
        assert_eq!(planner.cached_classes(), compiled);
        assert!(
            planner.cached_classes() <= 8 * t * t,
            "{variant:?}: {} classes exceed 8·t² = {}",
            planner.cached_classes(),
            8 * t * t
        );
    }
}
