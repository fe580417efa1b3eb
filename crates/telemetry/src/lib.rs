//! # sc-telemetry
//!
//! Zero-cost tracing, metrics, and per-stage profiling for the SC execution
//! stack — vendored and dependency-free, like the rest of the workspace (the
//! build environment is offline).
//!
//! The recorder has three parts:
//!
//! * **Spans** — monotonic-clock scoped timers ([`TelemetrySink::span`])
//!   against a static registry of stage names ([`Stage`]): compile stages,
//!   plan-cache hits/misses, stream dispatch, per-job execution, worker
//!   park/run, serving segments, and image sink collection. Each thread records into its own fixed-capacity
//!   ring buffer (owner-thread locks are uncontended), merged and
//!   time-sorted on [`TelemetrySink::drain`].
//! * **Metrics** — atomic [`Counter`]s, [`Gauge`]s (current value + peak),
//!   fixed-bucket log2 [`Hist`]ograms (job latency, window occupancy,
//!   per-worker busy/idle time, request latency).
//! * **Export** — a drained [`TelemetryReport`] renders as chrome://tracing
//!   trace-event JSON ([`TelemetryReport::to_chrome_trace`]) for
//!   flamegraph-style inspection; [`TelemetryReport::to_json`] is the
//!   machine-readable summary the bench binaries embed in their
//!   `BENCH_*.json` evidence.
//! * **Live observation** — [`TelemetrySink::snapshot`] reads the current
//!   state without consuming anything, [`TelemetrySink::snapshot_delta`]
//!   returns the change since the previous delta (counters and histograms
//!   diffed, gauges sampled with per-interval peaks, span rings drained
//!   incrementally), and both are safe to call from a background thread
//!   while a dispatch is mid-flight. The [`serve`] module exposes the
//!   current snapshot over HTTP in Prometheus text exposition format.
//! * **Attribution** — job counts and job latency are additionally keyed by `CompiledGraph::plan_class` in a bounded lock-free
//!   class table ([`TelemetrySink::class_latency`] and friends), so a report
//!   names *which* plan class is slow ([`TelemetryReport::classes`]).
//!
//! The handle is designed for **always-on plumbing with a no-op default**:
//! [`TelemetrySink::default`] holds no allocation at all, every record method
//! early-returns on one branch, and `span` does not even read the clock — so
//! instrumented code paths (at step/job granularity, never inside word
//! kernels) cost a predictable near-zero when disabled. The
//! `telemetry_overhead` bench bin gates that claim in CI.
//!
//! # Example
//!
//! ```
//! use sc_telemetry::{Counter, Stage, TelemetrySink};
//!
//! let sink = TelemetrySink::new();
//! {
//!     let _span = sink.span(Stage::Compile);
//!     sink.add(Counter::Compilations, 1);
//! }
//! let report = sink.drain();
//! assert_eq!(report.counter(Counter::Compilations), 1);
//! let (count, total_ns) = report.stage_totals(Stage::Compile);
//! assert_eq!(count, 1);
//! assert!(total_ns > 0);
//! assert!(report.to_chrome_trace().contains("traceEvents"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod serve;

pub use json::Json;

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The static registry of instrumented stages. Every span names one of
/// these, so reports aggregate by stage without string interning and the
/// export formats share one vocabulary ([`Stage::name`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// A whole `Graph::compile` call (all stages).
    Compile,
    /// Compile stage: structural validation + cycle check.
    CompileValidate,
    /// Compile stage: structural SCC inference.
    CompilePlan,
    /// Compile stage: correlation-repair insertion.
    CompileRepair,
    /// Compile stage: scheduling and step emission.
    CompileEmit,
    /// Tile planning served from the per-class plan cache.
    PlanCacheHit,
    /// Tile planning that compiled (and cached) a fresh class template.
    PlanCacheMiss,
    /// Unused: nothing records it. Plan-cache hits bind per-tile seeds as
    /// job inputs inside [`Stage::PlanCacheHit`] instead of rewriting the
    /// template. The variant stays so existing readers of the stage
    /// vocabulary keep working; its totals are always zero.
    Retarget,
    /// A whole streaming dispatch (`Executor::run_stream`), job pulls
    /// included.
    Dispatch,
    /// Unused: nothing records it since lane batching was removed, so its
    /// totals are always zero. The variant stays only because the benchmark
    /// crate reads it; it is retired by the next benchmark change.
    LaneGroupExecute,
    /// Execution of one dispatched job (every job runs solo).
    ScalarExecute,
    /// One job run by a worker thread: a scoped worker of a parallel
    /// `run_stream` call, or a serving-tier worker.
    WorkerRun,
    /// A worker thread parked waiting for its next job: on the call's job
    /// channel, or on the serving tier's intake.
    WorkerPark,
    /// Scattering per-tile sink values into the output image.
    SinkCollect,
    /// Admitting one request into the serving tier's intake queue
    /// (decomposition into tile jobs included).
    ServeSubmit,
    /// Time one request's jobs spent queued before their first execution
    /// (recorded once per request with the measured duration).
    ServeQueueWait,
    /// One serving worker taking the next job from the intake, round-robin
    /// across requests (`arg` = jobs taken: 1, or 0 when the intake held
    /// none).
    ServeCoalesce,
    /// Re-assembling one request's tile results into its response.
    ServeAssemble,
}

impl Stage {
    /// Every stage, in declaration order.
    pub const ALL: [Stage; 18] = [
        Stage::Compile,
        Stage::CompileValidate,
        Stage::CompilePlan,
        Stage::CompileRepair,
        Stage::CompileEmit,
        Stage::PlanCacheHit,
        Stage::PlanCacheMiss,
        Stage::Retarget,
        Stage::Dispatch,
        Stage::LaneGroupExecute,
        Stage::ScalarExecute,
        Stage::WorkerRun,
        Stage::WorkerPark,
        Stage::SinkCollect,
        Stage::ServeSubmit,
        Stage::ServeQueueWait,
        Stage::ServeCoalesce,
        Stage::ServeAssemble,
    ];

    /// The stage's stable export name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Stage::Compile => "compile",
            Stage::CompileValidate => "compile.validate",
            Stage::CompilePlan => "compile.plan",
            Stage::CompileRepair => "compile.repair",
            Stage::CompileEmit => "compile.emit",
            Stage::PlanCacheHit => "plan_cache.hit",
            Stage::PlanCacheMiss => "plan_cache.miss",
            Stage::Retarget => "retarget",
            Stage::Dispatch => "dispatch",
            Stage::LaneGroupExecute => "execute.lane_group",
            Stage::ScalarExecute => "execute.scalar",
            Stage::WorkerRun => "worker.run",
            Stage::WorkerPark => "worker.park",
            Stage::SinkCollect => "sink.collect",
            Stage::ServeSubmit => "serve.submit",
            Stage::ServeQueueWait => "serve.queue_wait",
            Stage::ServeCoalesce => "serve.coalesce",
            Stage::ServeAssemble => "serve.assemble",
        }
    }
}

/// Monotonic event counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Counter {
    /// Jobs pulled from a streaming dispatch's iterator.
    JobsPulled,
    /// Jobs whose execution returned an error.
    JobsFailed,
    /// `Graph::compile` calls completed.
    Compilations,
    /// Repair manipulators auto-inserted by the correlation planner.
    RepairsInserted,
    /// Tile plans served from the image pipeline's per-class cache.
    PlanCacheHits,
    /// Tile plans compiled fresh (and cached) by the image pipeline.
    PlanCacheMisses,
    /// Image tiles planned.
    Tiles,
    /// Requests admitted into the serving tier's intake queue.
    RequestsSubmitted,
    /// Requests that completed (successfully or with a job error).
    RequestsCompleted,
    /// Requests rejected by a non-blocking submit on a full intake queue.
    RequestsRejected,
    /// Requests cancelled before completion.
    RequestsCancelled,
    /// Requests whose deadline expired (at submit or in flight).
    RequestsExpired,
    /// Requests resolved by a worker panic in one of their jobs.
    RequestsPanicked,
    /// Requests failed by the serving tier shutting down.
    RequestsShutDown,
}

impl Counter {
    /// Every counter, in declaration order.
    pub const ALL: [Counter; 14] = [
        Counter::JobsPulled,
        Counter::JobsFailed,
        Counter::Compilations,
        Counter::RepairsInserted,
        Counter::PlanCacheHits,
        Counter::PlanCacheMisses,
        Counter::Tiles,
        Counter::RequestsSubmitted,
        Counter::RequestsCompleted,
        Counter::RequestsRejected,
        Counter::RequestsCancelled,
        Counter::RequestsExpired,
        Counter::RequestsPanicked,
        Counter::RequestsShutDown,
    ];

    /// The counter's stable export name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Counter::JobsPulled => "jobs_pulled",
            Counter::JobsFailed => "jobs_failed",
            Counter::Compilations => "compilations",
            Counter::RepairsInserted => "repairs_inserted",
            Counter::PlanCacheHits => "plan_cache_hits",
            Counter::PlanCacheMisses => "plan_cache_misses",
            Counter::Tiles => "tiles",
            Counter::RequestsSubmitted => "requests_submitted",
            Counter::RequestsCompleted => "requests_completed",
            Counter::RequestsRejected => "requests_rejected",
            Counter::RequestsCancelled => "requests_cancelled",
            Counter::RequestsExpired => "requests_expired",
            Counter::RequestsPanicked => "requests_panicked",
            Counter::RequestsShutDown => "requests_shut_down",
        }
    }
}

/// Instantaneous-value gauges; the sink tracks the last set value and the
/// peak ever set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Gauge {
    /// Pulled-but-unfinished jobs inside one streaming dispatch window
    /// (`run_stream` only).
    WindowOccupancy,
    /// Jobs queued on the serving tier's intake, not yet taken by a worker.
    IntakeDepth,
}

impl Gauge {
    /// Every gauge, in declaration order.
    pub const ALL: [Gauge; 2] = [Gauge::WindowOccupancy, Gauge::IntakeDepth];

    /// The gauge's stable export name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Gauge::WindowOccupancy => "window_occupancy",
            Gauge::IntakeDepth => "intake_depth",
        }
    }
}

/// Fixed-bucket log2 histograms: a value `v` lands in bucket
/// `bit_length(v)` (so bucket `b` covers `[2^(b-1), 2^b)`; zero lands in
/// bucket 0), which makes recording one `fetch_add` with no configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Hist {
    /// Wall-clock nanoseconds one job spent executing.
    JobLatencyNs,
    /// Window occupancy sampled at every job pull (`run_stream` only).
    WindowOccupancy,
    /// Nanoseconds a worker thread spent running one job.
    WorkerBusyNs,
    /// Nanoseconds a worker thread spent parked waiting for a job.
    WorkerIdleNs,
    /// Wall-clock nanoseconds one serving-tier request took end to end
    /// (submit to response).
    RequestLatencyNs,
}

impl Hist {
    /// Every histogram, in declaration order.
    pub const ALL: [Hist; 5] = [
        Hist::JobLatencyNs,
        Hist::WindowOccupancy,
        Hist::WorkerBusyNs,
        Hist::WorkerIdleNs,
        Hist::RequestLatencyNs,
    ];

    /// The histogram's stable export name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Hist::JobLatencyNs => "job_latency_ns",
            Hist::WindowOccupancy => "window_occupancy",
            Hist::WorkerBusyNs => "worker_busy_ns",
            Hist::WorkerIdleNs => "worker_idle_ns",
            Hist::RequestLatencyNs => "request_latency_ns",
        }
    }
}

/// Number of log2 histogram buckets (bit lengths of a `u64`, 0 through 63+).
pub const HIST_BUCKETS: usize = 64;

/// Maximum number of distinct plan classes the attribution table tracks
/// exactly; classes seen after every slot is claimed aggregate into one
/// shared overflow bucket (reported with `plan_class: None`).
pub const MAX_PLAN_CLASSES: usize = 32;

/// Default per-thread span ring capacity (events). At ~40 bytes per event
/// this bounds each recording thread at ~0.6 MiB; older events are
/// overwritten once the ring is full and counted as dropped.
pub const DEFAULT_SPAN_CAPACITY: usize = 16 * 1024;

/// One closed span: a stage, the recording thread, when it started (relative
/// to the sink's epoch), how long it ran, and a stage-specific argument
/// (jobs taken for [`Stage::ServeCoalesce`], the request id for
/// [`Stage::ServeQueueWait`], zero elsewhere).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanEvent {
    /// The stage this span timed.
    pub stage: Stage,
    /// Dense id of the recording thread (process-wide, starting at 1).
    pub thread: u32,
    /// Start time in nanoseconds since the sink's creation.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Stage-specific argument.
    pub arg: u64,
}

/// One thread's fixed-capacity span ring. It carries its thread's id and
/// name, so the name lives exactly as long as some ring or report of that
/// thread does.
struct SpanBuf {
    thread: u32,
    name: Arc<str>,
    events: Vec<SpanEvent>,
    /// Overwrite cursor once `events` reaches capacity.
    next: usize,
    dropped: u64,
}

impl SpanBuf {
    fn record(&mut self, event: SpanEvent, capacity: usize) {
        if self.events.len() < capacity {
            self.events.push(event);
        } else {
            self.events[self.next] = event;
            self.next = (self.next + 1) % capacity.max(1);
            self.dropped += 1;
        }
    }
}

/// One histogram's atomic cells.
struct HistCells {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; HIST_BUCKETS],
}

impl HistCells {
    fn new() -> Self {
        HistCells {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    fn observe(&self, value: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.buckets[log2_bucket(value)].fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot(&self) -> HistSnapshot {
        HistSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            buckets: std::array::from_fn(|b| self.buckets[b].load(Ordering::Relaxed)),
        }
    }
}

/// One plan class's atomic attribution cells.
struct ClassCells {
    /// Claimed plan-class id plus one; zero marks a free slot (plan-class
    /// ids start at zero, so a raw id cannot be its own empty sentinel).
    key: AtomicU64,
    jobs: AtomicU64,
    latency: HistCells,
}

impl ClassCells {
    fn new() -> Self {
        ClassCells {
            key: AtomicU64::new(0),
            jobs: AtomicU64::new(0),
            latency: HistCells::new(),
        }
    }

    fn snapshot(&self, plan_class: Option<u64>) -> ClassReport {
        ClassReport {
            plan_class,
            jobs: self.jobs.load(Ordering::Relaxed),
            latency: self.latency.snapshot(),
        }
    }
}

/// The bounded per-plan-class attribution table: [`MAX_PLAN_CLASSES`]
/// CAS-claimed slots plus a shared overflow bucket. Lookup is a linear scan
/// over a cache-resident array — recording stays lock-free and allocation-free
/// on the hot path.
struct ClassTable {
    slots: [ClassCells; MAX_PLAN_CLASSES],
    overflow: ClassCells,
}

impl ClassTable {
    fn new() -> Self {
        ClassTable {
            slots: std::array::from_fn(|_| ClassCells::new()),
            overflow: ClassCells::new(),
        }
    }

    /// The cells attributed to `class`, claiming the first free slot on
    /// first sight; once every slot is claimed, later classes share the
    /// overflow bucket.
    fn cells(&self, class: u64) -> &ClassCells {
        let key = class.saturating_add(1);
        for slot in &self.slots {
            let current = slot.key.load(Ordering::Acquire);
            if current == key {
                return slot;
            }
            if current == 0 {
                match slot
                    .key
                    .compare_exchange(0, key, Ordering::AcqRel, Ordering::Acquire)
                {
                    Ok(_) => return slot,
                    Err(actual) if actual == key => return slot,
                    Err(_) => {} // lost the race to a different class; keep scanning
                }
            }
        }
        &self.overflow
    }

    /// Every claimed class in id order, the overflow bucket (if populated)
    /// last.
    fn snapshot(&self) -> Vec<ClassReport> {
        let mut classes: Vec<ClassReport> = self
            .slots
            .iter()
            .filter_map(|slot| {
                let key = slot.key.load(Ordering::Acquire);
                (key != 0).then(|| slot.snapshot(Some(key - 1)))
            })
            .collect();
        classes.sort_by_key(|c| c.plan_class);
        let overflow = self.overflow.snapshot(None);
        if !overflow.is_empty() {
            classes.push(overflow);
        }
        classes
    }
}

/// Bucket index of a value: its bit length, clamped to the last bucket.
fn log2_bucket(value: u64) -> usize {
    ((u64::BITS - value.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
}

/// Shared state of an enabled sink.
struct Inner {
    /// Process-unique sink id, keying the thread-local buffer cache.
    id: u64,
    /// The sink's time zero; span `start_ns` values are relative to it.
    epoch: Instant,
    span_capacity: usize,
    counters: [AtomicU64; Counter::ALL.len()],
    gauge_current: [AtomicU64; Gauge::ALL.len()],
    gauge_peak: [AtomicU64; Gauge::ALL.len()],
    /// Per-interval gauge peaks, reset by each [`TelemetrySink::snapshot_delta`].
    gauge_window_peak: [AtomicU64; Gauge::ALL.len()],
    hists: [HistCells; Hist::ALL.len()],
    classes: ClassTable,
    /// Every thread's span ring, registered on that thread's first record.
    buffers: Mutex<Vec<Arc<Mutex<SpanBuf>>>>,
    /// Cumulative metric values as of the previous
    /// [`TelemetrySink::snapshot_delta`], used to diff the next one.
    delta: Mutex<DeltaBaseline>,
}

/// The cumulative metric values captured by the previous delta snapshot.
#[derive(Default)]
struct DeltaBaseline {
    elapsed_ns: u64,
    counters: [u64; Counter::ALL.len()],
    hists: [HistSnapshot; Hist::ALL.len()],
    classes: Vec<ClassReport>,
}

static NEXT_SINK_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD_ID: AtomicU32 = AtomicU32::new(1);

thread_local! {
    /// Dense process-wide id of this thread (0 = unassigned).
    static THREAD_ID: Cell<u32> = const { Cell::new(0) };
    /// This thread's span buffers, keyed by sink id.
    static THREAD_BUFFERS: RefCell<Vec<(u64, Arc<Mutex<SpanBuf>>)>> =
        const { RefCell::new(Vec::new()) };
}

fn current_thread_id() -> u32 {
    THREAD_ID.with(|cell| {
        let id = cell.get();
        if id != 0 {
            return id;
        }
        let id = NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed);
        cell.set(id);
        id
    })
}

/// The calling thread's name for chrome-trace exports, or `thread-{id}`
/// for an unnamed thread.
fn current_thread_name(id: u32) -> Arc<str> {
    match std::thread::current().name() {
        Some(name) => name.into(),
        None => format!("thread-{id}").into(),
    }
}

impl Inner {
    /// Appends `event` to this thread's span buffer for this sink, creating
    /// and registering the buffer on first use. The buffer is cached
    /// thread-locally so the steady state is one vector scan plus one
    /// uncontended lock.
    fn record_span(&self, event: SpanEvent) {
        THREAD_BUFFERS.with(|cache| {
            let mut cache = cache.borrow_mut();
            let i = match cache.iter().position(|(id, _)| *id == self.id) {
                Some(i) => i,
                None => {
                    // Drop cache entries whose sink is gone (only this cache
                    // still holds the buffer) so long-lived worker threads
                    // stay bounded.
                    cache.retain(|(_, buf)| Arc::strong_count(buf) > 1);
                    let buf = Arc::new(Mutex::new(SpanBuf {
                        thread: event.thread,
                        name: current_thread_name(event.thread),
                        events: Vec::new(),
                        next: 0,
                        dropped: 0,
                    }));
                    self.buffers
                        .lock()
                        .expect("telemetry buffer registry lock is never poisoned")
                        .push(Arc::clone(&buf));
                    cache.push((self.id, buf));
                    cache.len() - 1
                }
            };
            cache[i]
                .1
                .lock()
                .expect("telemetry span buffer lock is never poisoned")
                .record(event, self.span_capacity);
        });
    }
}

/// A cheaply clonable handle to one telemetry recorder — or to nothing.
///
/// The default sink is **disabled**: it holds no allocation, and every
/// record method returns after a single branch ([`TelemetrySink::span`]
/// does not even read the clock). An enabled sink ([`TelemetrySink::new`])
/// shares one recorder across all its clones, so a sink threaded through an
/// executor and its worker threads aggregates into one report.
#[derive(Clone, Default)]
pub struct TelemetrySink {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for TelemetrySink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TelemetrySink")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl PartialEq for TelemetrySink {
    /// Two sinks are equal when they record to the same recorder (or both
    /// record to none).
    fn eq(&self, other: &Self) -> bool {
        match (&self.inner, &other.inner) {
            (None, None) => true,
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

impl Eq for TelemetrySink {}

impl TelemetrySink {
    /// An enabled sink with the default per-thread span capacity.
    #[must_use]
    pub fn new() -> Self {
        TelemetrySink::with_span_capacity(DEFAULT_SPAN_CAPACITY)
    }

    /// An enabled sink whose per-thread span rings hold `capacity` events
    /// (clamped to ≥ 1); once full, the oldest events are overwritten and
    /// counted in [`TelemetryReport::dropped_spans`].
    #[must_use]
    pub fn with_span_capacity(capacity: usize) -> Self {
        TelemetrySink {
            inner: Some(Arc::new(Inner {
                id: NEXT_SINK_ID.fetch_add(1, Ordering::Relaxed),
                epoch: Instant::now(),
                span_capacity: capacity.max(1),
                counters: std::array::from_fn(|_| AtomicU64::new(0)),
                gauge_current: std::array::from_fn(|_| AtomicU64::new(0)),
                gauge_peak: std::array::from_fn(|_| AtomicU64::new(0)),
                gauge_window_peak: std::array::from_fn(|_| AtomicU64::new(0)),
                hists: std::array::from_fn(|_| HistCells::new()),
                classes: ClassTable::new(),
                buffers: Mutex::new(Vec::new()),
                delta: Mutex::new(DeltaBaseline::default()),
            })),
        }
    }

    /// The no-op sink (same as [`TelemetrySink::default`]).
    #[must_use]
    pub fn disabled() -> Self {
        TelemetrySink::default()
    }

    /// Whether this sink records anything.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Opens a scoped timer for `stage`; the span is recorded when the
    /// returned guard drops (or [`SpanGuard::finish`] is called). Disabled
    /// sinks return an inert guard without reading the clock.
    pub fn span(&self, stage: Stage) -> SpanGuard<'_> {
        SpanGuard {
            state: self.inner.as_ref().map(|inner| GuardState {
                inner,
                stage,
                arg: 0,
                start: Instant::now(),
            }),
        }
    }

    /// Records a span with an explicitly measured duration, ending now —
    /// for intervals measured across threads (e.g. the serving tier's
    /// queue-wait, whose start and end are observed by different threads),
    /// where a scoped [`TelemetrySink::span`] guard cannot bracket the
    /// interval. The event is attributed to the calling thread's ring.
    pub fn record_span_ns(&self, stage: Stage, dur_ns: u64, arg: u64) {
        if let Some(inner) = &self.inner {
            let end_ns = inner.epoch.elapsed().as_nanos() as u64;
            let event = SpanEvent {
                stage,
                thread: current_thread_id(),
                start_ns: end_ns.saturating_sub(dur_ns),
                dur_ns,
                arg,
            };
            inner.record_span(event);
        }
    }

    /// Adds `n` to a counter.
    pub fn add(&self, counter: Counter, n: u64) {
        if let Some(inner) = &self.inner {
            inner.counters[counter as usize].fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Sets a gauge's current value, raising its all-time and per-interval
    /// peaks if exceeded.
    pub fn gauge_set(&self, gauge: Gauge, value: u64) {
        if let Some(inner) = &self.inner {
            let i = gauge as usize;
            inner.gauge_current[i].store(value, Ordering::Relaxed);
            // Most sets raise no peak: a load is cheaper than the RMW.
            for peak in [&inner.gauge_peak[i], &inner.gauge_window_peak[i]] {
                if value > peak.load(Ordering::Relaxed) {
                    peak.fetch_max(value, Ordering::Relaxed);
                }
            }
        }
    }

    /// Records one observation into a histogram.
    pub fn observe(&self, hist: Hist, value: u64) {
        if let Some(inner) = &self.inner {
            inner.hists[hist as usize].observe(value);
        }
    }

    /// Records one job-latency observation attributed to a plan class. The
    /// global [`Hist::JobLatencyNs`] histogram is recorded separately by the
    /// executor; this feeds the per-class breakdown
    /// ([`TelemetryReport::classes`]).
    pub fn class_latency(&self, plan_class: u64, latency_ns: u64) {
        if let Some(inner) = &self.inner {
            inner.classes.cells(plan_class).latency.observe(latency_ns);
        }
    }

    /// Attributes `jobs` dispatched jobs to a plan class.
    pub fn class_add_jobs(&self, plan_class: u64, jobs: u64) {
        if let Some(inner) = &self.inner {
            if jobs > 0 {
                inner
                    .classes
                    .cells(plan_class)
                    .jobs
                    .fetch_add(jobs, Ordering::Relaxed);
            }
        }
    }

    /// Drains every thread's recorded spans into a time-sorted report,
    /// together with a snapshot of the (cumulative) counters, gauges,
    /// histograms, and per-class table. Spans are
    /// consumed; metrics are not reset, so back-to-back drains see monotonic
    /// counters. For live observation without consuming anything, use
    /// [`TelemetrySink::snapshot`]; for interval views, use
    /// [`TelemetrySink::snapshot_delta`].
    #[must_use]
    pub fn drain(&self) -> TelemetryReport {
        let Some(inner) = &self.inner else {
            return TelemetryReport::default();
        };
        inner.report(true)
    }

    /// A non-destructive snapshot of the current state: spans are copied out
    /// of the rings (a later [`TelemetrySink::drain`] still reports them),
    /// overwrite counts are read without being reset, and metrics are the
    /// same cumulative values a drain would return. Safe to call from a
    /// background thread while recording threads are mid-dispatch; for a
    /// completed run it is field-for-field equal to the final drain (modulo
    /// `elapsed_ns`, which keeps advancing with the wall clock).
    #[must_use]
    pub fn snapshot(&self) -> TelemetryReport {
        let Some(inner) = &self.inner else {
            return TelemetryReport::default();
        };
        inner.report(false)
    }

    /// The change since the previous `snapshot_delta` (or since the sink's
    /// creation, for the first call): counters, histograms, and per-class
    /// tallies are diffed against the previous cumulative
    /// values; gauges report their sampled current value and their peak
    /// within the interval; spans are drained incrementally (each delta
    /// carries the spans recorded since the last consume, with ring
    /// overwrite counts preserved); `elapsed_ns` is the interval length.
    ///
    /// A sequence of deltas therefore sums to the cumulative report:
    /// concatenated spans, summed counters/histograms, and the max
    /// over interval gauge peaks equals the all-time peak. Concurrent
    /// callers are serialized on an internal baseline lock.
    #[must_use]
    pub fn snapshot_delta(&self) -> TelemetryReport {
        let Some(inner) = &self.inner else {
            return TelemetryReport::default();
        };
        let mut baseline = inner
            .delta
            .lock()
            .expect("telemetry delta baseline lock is never poisoned");
        let now = inner.report(true);
        let report = TelemetryReport {
            spans: now.spans,
            threads: now.threads,
            dropped_spans: now.dropped_spans,
            elapsed_ns: now.elapsed_ns.saturating_sub(baseline.elapsed_ns),
            counters: std::array::from_fn(|i| now.counters[i].saturating_sub(baseline.counters[i])),
            gauges: std::array::from_fn(|i| {
                let current = inner.gauge_current[i].load(Ordering::Relaxed);
                // Swapping in the current value restarts the interval peak:
                // a gauge that holds a level across deltas keeps reporting it.
                let window_peak = inner.gauge_window_peak[i].swap(current, Ordering::Relaxed);
                (current, window_peak.max(current))
            }),
            hists: std::array::from_fn(|i| now.hists[i].delta_since(&baseline.hists[i])),
            classes: now
                .classes
                .iter()
                .filter_map(|cur| {
                    let delta = match baseline
                        .classes
                        .iter()
                        .find(|prev| prev.plan_class == cur.plan_class)
                    {
                        Some(prev) => cur.delta_since(prev),
                        None => cur.clone(),
                    };
                    (!delta.is_empty()).then_some(delta)
                })
                .collect(),
        };
        *baseline = DeltaBaseline {
            elapsed_ns: now.elapsed_ns,
            counters: now.counters,
            hists: now.hists,
            classes: now.classes,
        };
        report
    }
}

impl Inner {
    /// Collects every thread's spans (consuming them when `consume_spans`)
    /// and the cumulative metric values into a report. A consuming report
    /// also releases the rings of threads that have exited: once the
    /// registry holds a ring's only handle, nothing can record into it
    /// again, so after its events are taken it is dropped, with the
    /// thread's name. The report keeps the names of the threads it read.
    fn report(&self, consume_spans: bool) -> TelemetryReport {
        let mut spans = Vec::new();
        let mut dropped = 0u64;
        let mut threads = Vec::new();
        self.buffers
            .lock()
            .expect("telemetry buffer registry lock is never poisoned")
            .retain(|handle| {
                let mut buf = handle
                    .lock()
                    .expect("telemetry span buffer lock is never poisoned");
                threads.push((buf.thread, Arc::clone(&buf.name)));
                if !consume_spans {
                    spans.extend_from_slice(&buf.events);
                    dropped += buf.dropped;
                    return true;
                }
                spans.append(&mut buf.events);
                buf.next = 0;
                dropped += std::mem::take(&mut buf.dropped);
                // Checked under the ring's lock, after the take: an owner
                // that recorded before exiting did so before this lock.
                Arc::strong_count(handle) > 1
            });
        spans.sort_by_key(|s| (s.start_ns, s.thread));
        threads.sort_unstable_by_key(|&(id, _)| id);
        TelemetryReport {
            spans,
            threads,
            dropped_spans: dropped,
            elapsed_ns: self.epoch.elapsed().as_nanos() as u64,
            counters: std::array::from_fn(|i| self.counters[i].load(Ordering::Relaxed)),
            gauges: std::array::from_fn(|i| {
                (
                    self.gauge_current[i].load(Ordering::Relaxed),
                    self.gauge_peak[i].load(Ordering::Relaxed),
                )
            }),
            hists: std::array::from_fn(|i| self.hists[i].snapshot()),
            classes: self.classes.snapshot(),
        }
    }
}

/// Live state of an open span on an enabled sink.
struct GuardState<'a> {
    inner: &'a Arc<Inner>,
    stage: Stage,
    arg: u64,
    start: Instant,
}

/// A scoped span timer: records its stage's duration into the owning
/// thread's ring buffer when dropped. Inert (no clock reads, no recording)
/// when the sink is disabled.
#[must_use = "a span guard records on drop; binding it to _ closes it immediately"]
pub struct SpanGuard<'a> {
    state: Option<GuardState<'a>>,
}

impl SpanGuard<'_> {
    /// Updates the stage-specific argument recorded with the span.
    pub fn set_arg(&mut self, arg: u64) {
        if let Some(state) = &mut self.state {
            state.arg = arg;
        }
    }

    /// Re-labels the open span — for work whose stage is only known part
    /// way through (a plan-cache lookup that turns out to be a miss).
    pub fn set_stage(&mut self, stage: Stage) {
        if let Some(state) = &mut self.state {
            state.stage = stage;
        }
    }

    /// Closes the span now and returns its duration in nanoseconds (zero on
    /// a disabled sink) — for callers that also feed the duration into a
    /// histogram.
    pub fn finish(mut self) -> u64 {
        self.record()
    }

    fn record(&mut self) -> u64 {
        let Some(state) = self.state.take() else {
            return 0;
        };
        let dur_ns = state.start.elapsed().as_nanos() as u64;
        let start_ns = state
            .start
            .saturating_duration_since(state.inner.epoch)
            .as_nanos() as u64;
        let event = SpanEvent {
            stage: state.stage,
            thread: current_thread_id(),
            start_ns,
            dur_ns,
            arg: state.arg,
        };
        state.inner.record_span(event);
        dur_ns
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        self.record();
    }
}

/// An immutable snapshot of one histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    buckets: [u64; HIST_BUCKETS],
}

impl Default for HistSnapshot {
    fn default() -> Self {
        HistSnapshot {
            count: 0,
            sum: 0,
            buckets: [0; HIST_BUCKETS],
        }
    }
}

impl HistSnapshot {
    /// Mean observed value (zero when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The non-empty buckets as `(lower_bound, count)` pairs, in value
    /// order: bucket `b > 0` covers values in `[2^(b-1), 2^b)` and reports
    /// lower bound `2^(b-1)`; the zero bucket reports lower bound 0.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &count)| count > 0)
            .map(|(b, &count)| (if b == 0 { 0 } else { 1u64 << (b - 1) }, count))
    }

    /// The raw per-bucket counts; bucket `b`'s value range is bounded above
    /// by [`bucket_upper_bound`]`(b)`.
    #[must_use]
    pub fn bucket_counts(&self) -> &[u64; HIST_BUCKETS] {
        &self.buckets
    }

    /// An upper bound on the `q`-quantile observation (`q` clamped to
    /// `[0, 1]`): the inclusive upper edge of the first bucket whose
    /// cumulative count reaches rank `ceil(q × count)`. Zero when the
    /// histogram is empty. Resolution is the log2 bucket width, which is
    /// what makes recording one `fetch_add` — a p99 read of `16383` means
    /// "the 99th percentile is at most 16383".
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (b, &count) in self.buckets.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return bucket_upper_bound(b);
            }
        }
        u64::MAX
    }

    /// This snapshot's change since an earlier snapshot of the same
    /// histogram (saturating per cell, so a torn concurrent read cannot
    /// underflow).
    #[must_use]
    pub fn delta_since(&self, baseline: &HistSnapshot) -> HistSnapshot {
        HistSnapshot {
            count: self.count.saturating_sub(baseline.count),
            sum: self.sum.saturating_sub(baseline.sum),
            buckets: std::array::from_fn(|b| self.buckets[b].saturating_sub(baseline.buckets[b])),
        }
    }
}

/// Inclusive upper value bound of log2 histogram bucket `b`: 0 for the zero
/// bucket, `2^b - 1` in between, and `u64::MAX` for the last (clamping)
/// bucket.
#[must_use]
pub fn bucket_upper_bound(bucket: usize) -> u64 {
    if bucket == 0 {
        0
    } else if bucket >= HIST_BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << bucket) - 1
    }
}

/// One plan class's slice of the execution tallies: how many jobs ran and
/// their latency histogram — so a report names *which* compiled class is
/// slow, not just that something is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassReport {
    /// The `CompiledGraph::plan_class` id, or `None` for the shared
    /// overflow bucket (classes beyond [`MAX_PLAN_CLASSES`]).
    pub plan_class: Option<u64>,
    /// Jobs of this class dispatched.
    pub jobs: u64,
    /// Job-latency histogram for this class.
    pub latency: HistSnapshot,
}

impl ClassReport {
    /// A label for display and export: the class id, or `"overflow"`.
    #[must_use]
    pub fn label(&self) -> String {
        match self.plan_class {
            Some(id) => id.to_string(),
            None => "overflow".to_string(),
        }
    }

    fn is_empty(&self) -> bool {
        self.jobs == 0 && self.latency.count == 0
    }

    fn delta_since(&self, baseline: &ClassReport) -> ClassReport {
        ClassReport {
            plan_class: self.plan_class,
            jobs: self.jobs.saturating_sub(baseline.jobs),
            latency: self.latency.delta_since(&baseline.latency),
        }
    }
}

/// A drained telemetry snapshot: time-sorted spans plus cumulative metrics.
///
/// Produced by [`TelemetrySink::drain`]; renders as JSON, JSON lines, or a
/// chrome://tracing trace-event document.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TelemetryReport {
    /// Every drained span, sorted by start time.
    pub spans: Vec<SpanEvent>,
    /// The id and name of each thread whose ring the report read, by id.
    threads: Vec<(u32, Arc<str>)>,
    /// Spans lost to ring-buffer overwrites since the last drain.
    pub dropped_spans: u64,
    /// Nanoseconds between the sink's creation and this drain.
    pub elapsed_ns: u64,
    counters: [u64; Counter::ALL.len()],
    gauges: [(u64, u64); Gauge::ALL.len()],
    hists: [HistSnapshot; Hist::ALL.len()],
    classes: Vec<ClassReport>,
}

impl TelemetryReport {
    /// A counter's cumulative value.
    #[must_use]
    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters[counter as usize]
    }

    /// A gauge's `(current, peak)` values.
    #[must_use]
    pub fn gauge(&self, gauge: Gauge) -> (u64, u64) {
        self.gauges[gauge as usize]
    }

    /// A histogram's snapshot.
    #[must_use]
    pub fn histogram(&self, hist: Hist) -> &HistSnapshot {
        &self.hists[hist as usize]
    }

    /// Always all-zero: lane groups are never formed since lane batching
    /// was removed. Kept only because the benchmark crate reads it; retired
    /// by the next benchmark change.
    #[must_use]
    pub fn lane_group_fill(&self) -> &'static [u64; 4] {
        &[0; 4]
    }

    /// The per-plan-class attribution breakdown, in class-id order with the
    /// overflow bucket (if populated) last. Empty when the executor never
    /// recorded class tallies (e.g. a sink used only for compile spans).
    #[must_use]
    pub fn classes(&self) -> &[ClassReport] {
        &self.classes
    }

    /// One plan class's breakdown, if attributed exactly (overflowed classes
    /// share the `plan_class: None` bucket and are not addressable by id).
    #[must_use]
    pub fn class(&self, plan_class: u64) -> Option<&ClassReport> {
        self.classes
            .iter()
            .find(|c| c.plan_class == Some(plan_class))
    }

    /// `(span count, total nanoseconds)` across this report's spans of one
    /// stage.
    #[must_use]
    pub fn stage_totals(&self, stage: Stage) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.stage == stage)
            .fold((0, 0), |(count, total), s| (count + 1, total + s.dur_ns))
    }

    /// The machine-readable summary as a [`Json`] value: per-stage totals,
    /// counters, gauges, histograms, and plan classes (spans
    /// are summarised, not listed — use [`TelemetryReport::to_chrome_trace`]
    /// for the full event stream).
    #[must_use]
    pub fn to_json(&self) -> Json {
        let stages = Stage::ALL
            .iter()
            .filter_map(|&stage| {
                let (count, total_ns) = self.stage_totals(stage);
                (count > 0).then(|| {
                    (
                        stage.name().to_string(),
                        Json::obj(vec![
                            ("count", Json::u64(count)),
                            ("total_ns", Json::u64(total_ns)),
                        ]),
                    )
                })
            })
            .collect();
        let counters = Counter::ALL
            .iter()
            .map(|&c| (c.name().to_string(), Json::u64(self.counter(c))))
            .collect();
        let gauges = Gauge::ALL
            .iter()
            .map(|&g| {
                let (current, peak) = self.gauge(g);
                (
                    g.name().to_string(),
                    Json::obj(vec![
                        ("current", Json::u64(current)),
                        ("peak", Json::u64(peak)),
                    ]),
                )
            })
            .collect();
        let hists = Hist::ALL
            .iter()
            .map(|&h| {
                let snap = self.histogram(h);
                let buckets = snap
                    .nonzero_buckets()
                    .map(|(lo, count)| Json::Arr(vec![Json::u64(lo), Json::u64(count)]))
                    .collect();
                (
                    h.name().to_string(),
                    Json::obj(vec![
                        ("count", Json::u64(snap.count)),
                        ("sum", Json::u64(snap.sum)),
                        ("buckets", Json::Arr(buckets)),
                    ]),
                )
            })
            .collect();
        let classes = self
            .classes
            .iter()
            .map(|class| {
                let buckets = class
                    .latency
                    .nonzero_buckets()
                    .map(|(lo, count)| Json::Arr(vec![Json::u64(lo), Json::u64(count)]))
                    .collect();
                Json::obj(vec![
                    (
                        "plan_class",
                        match class.plan_class {
                            Some(id) => Json::u64(id),
                            None => Json::str("overflow"),
                        },
                    ),
                    ("jobs", Json::u64(class.jobs)),
                    (
                        "latency",
                        Json::obj(vec![
                            ("count", Json::u64(class.latency.count)),
                            ("sum", Json::u64(class.latency.sum)),
                            ("buckets", Json::Arr(buckets)),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::obj(vec![
            ("elapsed_ns", Json::u64(self.elapsed_ns)),
            ("span_count", Json::u64(self.spans.len() as u64)),
            ("dropped_spans", Json::u64(self.dropped_spans)),
            ("stages", Json::Obj(stages)),
            ("counters", Json::Obj(counters)),
            ("gauges", Json::Obj(gauges)),
            ("histograms", Json::Obj(hists)),
            ("classes", Json::Arr(classes)),
        ])
    }

    /// A chrome://tracing / Perfetto compatible trace-event document: every
    /// span becomes one complete (`"ph": "X"`) event with microsecond
    /// timestamps, the recording thread as `tid`, and the stage argument
    /// under `args` — preceded by `process_name`/`thread_name` metadata
    /// (`"ph": "M"`) events so the viewer shows real thread names instead
    /// of bare tids.
    #[must_use]
    pub fn to_chrome_trace(&self) -> String {
        let mut events = vec![Json::obj(vec![
            ("name", Json::str("process_name")),
            ("ph", Json::str("M")),
            ("pid", Json::u64(1)),
            ("args", Json::obj(vec![("name", Json::str("sc-repro"))])),
        ])];
        let mut tids: Vec<u32> = self.spans.iter().map(|s| s.thread).collect();
        tids.sort_unstable();
        tids.dedup();
        for tid in tids {
            let label = match self.threads.binary_search_by_key(&tid, |&(id, _)| id) {
                Ok(i) => self.threads[i].1.to_string(),
                Err(_) => format!("thread-{tid}"),
            };
            events.push(Json::obj(vec![
                ("name", Json::str("thread_name")),
                ("ph", Json::str("M")),
                ("pid", Json::u64(1)),
                ("tid", Json::u64(u64::from(tid))),
                ("args", Json::obj(vec![("name", Json::Str(label))])),
            ]));
        }
        events.extend(self.spans.iter().map(|span| {
            Json::obj(vec![
                ("name", Json::str(span.stage.name())),
                ("cat", Json::str("sc")),
                ("ph", Json::str("X")),
                ("ts", Json::fixed(span.start_ns as f64 / 1e3, 3)),
                ("dur", Json::fixed(span.dur_ns as f64 / 1e3, 3)),
                ("pid", Json::u64(1)),
                ("tid", Json::u64(u64::from(span.thread))),
                ("args", Json::obj(vec![("arg", Json::u64(span.arg))])),
            ])
        }));
        Json::obj(vec![
            ("traceEvents", Json::Arr(events)),
            ("displayTimeUnit", Json::str("ms")),
        ])
        .to_string_pretty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sink_is_inert() {
        let sink = TelemetrySink::default();
        assert!(!sink.is_enabled());
        assert_eq!(sink, TelemetrySink::disabled());
        {
            let mut guard = sink.span(Stage::Dispatch);
            guard.set_arg(7);
            assert_eq!(guard.finish(), 0);
        }
        sink.add(Counter::JobsPulled, 3);
        sink.gauge_set(Gauge::IntakeDepth, 9);
        sink.observe(Hist::JobLatencyNs, 1000);
        sink.class_add_jobs(1, 1);
        let report = sink.drain();
        assert_eq!(report, TelemetryReport::default());
        assert!(report.spans.is_empty());
        assert_eq!(report.counter(Counter::JobsPulled), 0);
    }

    #[test]
    fn spans_record_and_aggregate_by_stage() {
        let sink = TelemetrySink::new();
        for i in 0..3 {
            let mut span = sink.span(Stage::ServeCoalesce);
            span.set_arg(i + 2);
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        {
            let _span = sink.span(Stage::ScalarExecute);
        }
        let report = sink.drain();
        let (count, total_ns) = report.stage_totals(Stage::ServeCoalesce);
        assert_eq!(count, 3);
        assert!(total_ns >= 3_000_000, "three ≥1ms spans, got {total_ns} ns");
        assert_eq!(report.stage_totals(Stage::ScalarExecute).0, 1);
        assert_eq!(report.stage_totals(Stage::Compile), (0, 0));
        // Spans are time-sorted and were consumed by the drain.
        assert!(report
            .spans
            .windows(2)
            .all(|w| w[0].start_ns <= w[1].start_ns));
        assert!(sink.drain().spans.is_empty());
    }

    #[test]
    fn sink_clones_share_one_recorder() {
        let sink = TelemetrySink::new();
        let clone = sink.clone();
        assert_eq!(sink, clone);
        assert_ne!(sink, TelemetrySink::new());
        clone.add(Counter::Tiles, 5);
        sink.add(Counter::Tiles, 2);
        assert_eq!(sink.drain().counter(Counter::Tiles), 7);
    }

    #[test]
    fn counters_persist_across_drains_spans_do_not() {
        let sink = TelemetrySink::new();
        sink.add(Counter::Compilations, 1);
        {
            let _span = sink.span(Stage::Compile);
        }
        let first = sink.drain();
        assert_eq!(first.spans.len(), 1);
        let second = sink.drain();
        assert_eq!(second.counter(Counter::Compilations), 1, "cumulative");
        assert!(second.spans.is_empty(), "spans were consumed");
        assert!(second.elapsed_ns >= first.elapsed_ns);
    }

    #[test]
    fn gauges_track_current_and_peak() {
        let sink = TelemetrySink::new();
        sink.gauge_set(Gauge::WindowOccupancy, 3);
        sink.gauge_set(Gauge::WindowOccupancy, 8);
        sink.gauge_set(Gauge::WindowOccupancy, 2);
        assert_eq!(sink.drain().gauge(Gauge::WindowOccupancy), (2, 8));
    }

    #[test]
    fn histograms_bucket_by_log2() {
        assert_eq!(log2_bucket(0), 0);
        assert_eq!(log2_bucket(1), 1);
        assert_eq!(log2_bucket(2), 2);
        assert_eq!(log2_bucket(3), 2);
        assert_eq!(log2_bucket(4), 3);
        assert_eq!(log2_bucket(u64::MAX), HIST_BUCKETS - 1);
        let sink = TelemetrySink::new();
        for v in [0u64, 1, 2, 3, 1000] {
            sink.observe(Hist::WindowOccupancy, v);
        }
        let report = sink.drain();
        let snap = report.histogram(Hist::WindowOccupancy);
        assert_eq!(snap.count, 5);
        assert_eq!(snap.sum, 1006);
        assert!((snap.mean() - 201.2).abs() < 1e-9);
        let buckets: Vec<(u64, u64)> = snap.nonzero_buckets().collect();
        assert_eq!(buckets, vec![(0, 1), (1, 1), (2, 2), (512, 1)]);
    }

    #[test]
    fn ring_buffer_drops_oldest_beyond_capacity() {
        let sink = TelemetrySink::with_span_capacity(4);
        for _ in 0..10 {
            let _span = sink.span(Stage::ScalarExecute);
        }
        let report = sink.drain();
        assert_eq!(report.spans.len(), 4);
        assert_eq!(report.dropped_spans, 6);
        // The drain reset the ring: new spans record from a clean slate.
        {
            let _span = sink.span(Stage::ScalarExecute);
        }
        let next = sink.drain();
        assert_eq!(next.spans.len(), 1);
        assert_eq!(next.dropped_spans, 0);
    }

    #[test]
    fn cross_thread_spans_merge_with_distinct_thread_ids() {
        let sink = TelemetrySink::new();
        {
            let _span = sink.span(Stage::Dispatch);
        }
        std::thread::scope(|scope| {
            for _ in 0..2 {
                let sink = sink.clone();
                scope.spawn(move || {
                    let _span = sink.span(Stage::WorkerRun);
                });
            }
        });
        let report = sink.drain();
        assert_eq!(report.spans.len(), 3);
        assert_eq!(report.stage_totals(Stage::WorkerRun).0, 2);
        let worker_threads: std::collections::HashSet<u32> = report
            .spans
            .iter()
            .filter(|s| s.stage == Stage::WorkerRun)
            .map(|s| s.thread)
            .collect();
        assert_eq!(worker_threads.len(), 2, "two workers, two thread ids");
    }

    /// Consuming reports release the rings of threads that have exited, so
    /// short-lived recording threads leave nothing registered; a snapshot
    /// releases nothing, and the spans it only copied reach the next drain.
    #[test]
    fn consuming_reports_release_the_rings_of_exited_threads() {
        let sink = TelemetrySink::new();
        let rings = || sink.inner.as_ref().unwrap().buffers.lock().unwrap().len();
        let record_on_threads = |threads: usize| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    let sink = sink.clone();
                    std::thread::spawn(move || {
                        for _ in 0..100 {
                            let _span = sink.span(Stage::WorkerRun);
                        }
                    })
                })
                .collect();
            for handle in handles {
                handle.join().unwrap();
            }
        };
        for round in 0..4 {
            record_on_threads(2);
            assert_eq!(rings(), 2, "round {round}: one ring per thread");
            let report = if round % 2 == 0 {
                sink.drain()
            } else {
                sink.snapshot_delta()
            };
            assert_eq!(report.stage_totals(Stage::WorkerRun).0, 200);
            assert_eq!(rings(), 0, "round {round}: no recording thread is alive");
        }
        // A live thread's ring stays registered across drains.
        {
            let _span = sink.span(Stage::Dispatch);
        }
        assert_eq!(sink.drain().spans.len(), 1);
        assert_eq!(rings(), 1);
        record_on_threads(1);
        let seen = sink.snapshot();
        assert_eq!(seen.stage_totals(Stage::WorkerRun).0, 100);
        assert_eq!(rings(), 2, "a snapshot keeps an exited thread's ring");
        let drained = sink.drain();
        assert_eq!(drained.stage_totals(Stage::WorkerRun).0, 100);
        assert_eq!(rings(), 1, "the drain released it");
    }

    /// A ring holds its thread's name, so releasing the rings of exited
    /// threads releases their names too: recording threads that come and go
    /// leave no name behind. A report drained before the release keeps the
    /// names of the threads it read, and its trace still labels them.
    #[test]
    fn released_rings_release_their_thread_names() {
        let sink = TelemetrySink::new();
        let rings = || sink.inner.as_ref().unwrap().buffers.lock().unwrap().len();
        let start = rings();
        let handles: Vec<_> = (0..200)
            .map(|i| {
                let sink = sink.clone();
                std::thread::Builder::new()
                    .name(format!("recorder-{i}"))
                    .spawn(move || drop(sink.span(Stage::WorkerRun)))
                    .unwrap()
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
        let names: Vec<std::sync::Weak<str>> = {
            let buffers = sink.inner.as_ref().unwrap().buffers.lock().unwrap();
            buffers
                .iter()
                .map(|b| Arc::downgrade(&b.lock().unwrap().name))
                .collect()
        };
        assert_eq!(names.len(), start + 200, "one named ring per thread");
        let report = sink.drain();
        assert_eq!(report.spans.len(), 200);
        assert_eq!(rings(), start, "the drain released every ring");
        let trace = report.to_chrome_trace();
        for i in 0..200 {
            assert!(
                trace.contains(&format!("\"recorder-{i}\"")),
                "recorder-{i} is labelled"
            );
        }
        drop(report);
        assert!(
            names.iter().all(|name| name.strong_count() == 0),
            "no name outlives its ring and the reports that read it"
        );
    }

    #[test]
    fn report_exports_are_structurally_valid() {
        let sink = TelemetrySink::new();
        sink.add(Counter::JobsPulled, 2);
        sink.gauge_set(Gauge::IntakeDepth, 1);
        sink.observe(Hist::JobLatencyNs, 1500);
        sink.class_add_jobs(5, 3);
        {
            let mut span = sink.span(Stage::ServeCoalesce);
            span.set_arg(3);
        }
        {
            let _span = sink.span(Stage::Dispatch);
        }
        let report = sink.drain();

        let doc = json::parse(&report.to_json().to_string_pretty()).unwrap();
        assert_eq!(
            doc.get("counters")
                .and_then(|c| c.get("jobs_pulled"))
                .and_then(Json::as_u64),
            Some(2)
        );
        assert_eq!(doc.get("span_count").and_then(Json::as_u64), Some(2));

        let trace = json::parse(&report.to_chrome_trace()).unwrap();
        let events = trace.get("traceEvents").and_then(Json::as_array).unwrap();
        let (meta, spans): (Vec<_>, Vec<_>) = events
            .iter()
            .partition(|e| e.get("ph").and_then(Json::as_str) == Some("M"));
        assert_eq!(spans.len(), 2);
        for event in spans {
            assert_eq!(event.get("ph").and_then(Json::as_str), Some("X"));
            assert!(event.get("ts").and_then(Json::as_f64).is_some());
            assert!(event.get("dur").and_then(Json::as_f64).is_some());
            assert!(event.get("tid").and_then(Json::as_u64).is_some());
        }
        // One process_name plus one thread_name per distinct recording tid
        // (both spans were recorded on this test thread).
        assert_eq!(meta.len(), 2);
        assert_eq!(
            meta[0].get("name").and_then(Json::as_str),
            Some("process_name")
        );
        assert_eq!(
            meta[1].get("name").and_then(Json::as_str),
            Some("thread_name")
        );
        assert!(meta[1]
            .get("args")
            .and_then(|a| a.get("name"))
            .and_then(Json::as_str)
            .is_some());
    }

    #[test]
    fn snapshot_is_non_destructive_and_matches_final_drain() {
        let sink = TelemetrySink::new();
        sink.add(Counter::JobsPulled, 4);
        sink.gauge_set(Gauge::IntakeDepth, 3);
        sink.observe(Hist::JobLatencyNs, 900);
        sink.class_latency(7, 900);
        sink.class_add_jobs(7, 1);
        for _ in 0..3 {
            let _span = sink.span(Stage::ScalarExecute);
        }

        let snapshot = sink.snapshot();
        assert_eq!(snapshot.spans.len(), 3);
        // The snapshot consumed nothing: a second snapshot and the final
        // drain both still see every span and the same cumulative metrics.
        let mut drained = sink.drain();
        assert_eq!(drained.spans, snapshot.spans);
        drained.elapsed_ns = snapshot.elapsed_ns; // the wall clock kept advancing
        assert_eq!(drained, snapshot, "snapshot equals the final drain");
        // The drain did consume: nothing left afterwards.
        assert!(sink.drain().spans.is_empty());
    }

    #[test]
    fn snapshot_does_not_reset_overwrite_accounting() {
        let sink = TelemetrySink::with_span_capacity(2);
        for _ in 0..5 {
            let _span = sink.span(Stage::ScalarExecute);
        }
        let snapshot = sink.snapshot();
        assert_eq!(snapshot.spans.len(), 2);
        assert_eq!(snapshot.dropped_spans, 3);
        let drained = sink.drain();
        assert_eq!(drained.dropped_spans, 3, "snapshot left the drop count");
        assert_eq!(sink.drain().dropped_spans, 0);
    }

    #[test]
    fn snapshot_deltas_sum_to_cumulative() {
        let sink = TelemetrySink::new();
        sink.add(Counter::JobsPulled, 2);
        sink.observe(Hist::JobLatencyNs, 100);
        sink.gauge_set(Gauge::IntakeDepth, 9);
        sink.class_add_jobs(3, 2);
        {
            let _span = sink.span(Stage::Dispatch);
        }
        let cumulative = sink.snapshot();

        let first = sink.snapshot_delta();
        assert_eq!(first.counter(Counter::JobsPulled), 2);
        assert_eq!(first.spans.len(), 1);
        assert_eq!(first.gauge(Gauge::IntakeDepth).1, 9, "interval peak");

        sink.add(Counter::JobsPulled, 5);
        sink.observe(Hist::JobLatencyNs, 3000);
        sink.gauge_set(Gauge::IntakeDepth, 4);
        sink.class_add_jobs(3, 1);
        sink.class_add_jobs(8, 1);
        {
            let _span = sink.span(Stage::ScalarExecute);
        }
        let second = sink.snapshot_delta();
        assert_eq!(second.counter(Counter::JobsPulled), 5, "diffed");
        assert_eq!(second.spans.len(), 1, "only the new span");
        assert_eq!(second.histogram(Hist::JobLatencyNs).count, 1);
        assert_eq!(second.histogram(Hist::JobLatencyNs).sum, 3000);
        assert_eq!(
            second.gauge(Gauge::IntakeDepth),
            (4, 9),
            "the gauge held 9 at the interval's start before dropping to 4, \
             so the carried-in level is the interval peak"
        );
        assert_eq!(second.class(3).unwrap().jobs, 1, "diffed");
        assert_eq!(second.class(8).unwrap().jobs, 1);

        // The two deltas sum to the cumulative view at the first snapshot
        // plus everything recorded after it.
        assert_eq!(
            first.counter(Counter::JobsPulled) + second.counter(Counter::JobsPulled),
            7
        );
        assert_eq!(
            first.spans.len() + second.spans.len(),
            cumulative.spans.len() + 1
        );
        assert_eq!(
            first
                .gauge(Gauge::IntakeDepth)
                .1
                .max(second.gauge(Gauge::IntakeDepth).1),
            sink.snapshot().gauge(Gauge::IntakeDepth).1,
            "max interval peak equals the all-time peak"
        );
        // An idle interval produces an all-zero delta.
        let idle = sink.snapshot_delta();
        assert_eq!(idle.counter(Counter::JobsPulled), 0);
        assert!(idle.spans.is_empty());
        assert!(idle.classes().is_empty());
    }

    #[test]
    fn class_table_attributes_and_overflows() {
        let sink = TelemetrySink::new();
        // Claim every slot, then two more classes: both share the overflow
        // bucket.
        for class in 0..(MAX_PLAN_CLASSES as u64 + 2) {
            sink.class_add_jobs(class, 1);
            sink.class_latency(class, 50 * (class + 1));
        }
        let report = sink.drain();
        let classes = report.classes();
        assert_eq!(classes.len(), MAX_PLAN_CLASSES + 1);
        for (i, class) in classes.iter().take(MAX_PLAN_CLASSES).enumerate() {
            assert_eq!(class.plan_class, Some(i as u64), "sorted by class id");
            assert_eq!(class.jobs, 1);
            assert_eq!(class.latency.count, 1);
        }
        let overflow = classes.last().unwrap();
        assert_eq!(overflow.plan_class, None);
        assert_eq!(overflow.label(), "overflow");
        assert_eq!(overflow.jobs, 2, "both overflowed classes aggregated");
        assert!(
            report.class(MAX_PLAN_CLASSES as u64).is_none(),
            "overflowed"
        );
        // The exports carry the breakdown.
        let doc = json::parse(&report.to_json().to_string_compact()).unwrap();
        let exported = doc.get("classes").and_then(Json::as_array).unwrap();
        assert_eq!(exported.len(), MAX_PLAN_CLASSES + 1);
    }

    #[test]
    fn quantiles_are_bucket_upper_bounds() {
        assert_eq!(bucket_upper_bound(0), 0);
        assert_eq!(bucket_upper_bound(1), 1);
        assert_eq!(bucket_upper_bound(5), 31);
        assert_eq!(bucket_upper_bound(HIST_BUCKETS - 1), u64::MAX);
        let sink = TelemetrySink::new();
        for _ in 0..99 {
            sink.observe(Hist::JobLatencyNs, 3); // bucket 2, upper bound 3
        }
        sink.observe(Hist::JobLatencyNs, 1000); // bucket 10, upper bound 1023
        let report = sink.drain();
        let hist = report.histogram(Hist::JobLatencyNs);
        assert_eq!(hist.quantile(0.5), 3);
        assert_eq!(hist.quantile(0.99), 3);
        assert_eq!(hist.quantile(1.0), 1023);
        assert_eq!(hist.quantile(0.0), 3, "clamped to the first observation");
        assert_eq!(HistSnapshot::default().quantile(0.99), 0);
    }

    #[test]
    fn stage_registry_is_consistent() {
        let mut names = std::collections::HashSet::new();
        for stage in Stage::ALL {
            assert!(
                names.insert(stage.name()),
                "duplicate name {}",
                stage.name()
            );
        }
        let mut counter_names = std::collections::HashSet::new();
        for counter in Counter::ALL {
            assert!(counter_names.insert(counter.name()));
        }
        for (i, gauge) in Gauge::ALL.iter().enumerate() {
            assert_eq!(*gauge as usize, i);
        }
        for (i, hist) in Hist::ALL.iter().enumerate() {
            assert_eq!(*hist as usize, i);
        }
        for (i, counter) in Counter::ALL.iter().enumerate() {
            assert_eq!(*counter as usize, i);
        }
    }
}
