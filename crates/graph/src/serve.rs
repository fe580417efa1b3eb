//! The serving tier: one warm executor shared by many concurrent request
//! streams.
//!
//! `run_stream` is a *call*: it owns the dispatch loop until its job
//! iterator drains, so two concurrent images either serialise behind one
//! call or split across two executors (and two worker pools, and two
//! windows that can never coalesce). [`Service`] inverts that shape into a
//! long-lived tier:
//!
//! * **One warm pool.** A dedicated dispatcher thread owns a persistent
//!   [`WorkerPool`] and the same coalescing core `run_stream` drives (lane
//!   buckets, window, flush decision, tally); every request multiplexes
//!   over the same threads, so back-to-back images reuse warm workers
//!   instead of respawning them.
//! * **Bounded intake with backpressure.** [`Service::submit`] blocks until
//!   the intake queue has room; [`Service::try_submit`] fails fast and
//!   returns the request, so open-loop producers slow down instead of
//!   buffering unboundedly ahead of the dispatch window. Intake depth is
//!   exported through [`Gauge::IntakeDepth`] for `watch`-driven shedding.
//! * **Cross-request tile coalescing.** The dispatcher drains admitted jobs
//!   round-robin across requests into the same heterogeneous dispatch
//!   window, so same-[`plan_class`](crate::CompiledGraph::plan_class) tiles
//!   from *different* requests fill one lane group and execute in lockstep
//!   — under concurrent traffic, per-image parallelism becomes sustained
//!   multi-user throughput. [`Counter::CrossRequestLaneJobs`] counts the
//!   lane-batched jobs whose group mixed two or more requests.
//! * **Deadlines and cancellation.** A [`Request`] may carry an absolute
//!   deadline: expired-at-submit requests are rejected without queueing,
//!   and in-flight expiry purges the request's remaining jobs — the
//!   dispatcher sleeps until the earliest pending deadline, so expiry fires
//!   when it is due, not on a polling tick. [`RequestHandle::cancel`]
//!   resolves the request at once and wakes the dispatcher to purge it;
//!   results of already-executed tiles are discarded cleanly.
//! * **Failure contract.** Every admitted request resolves exactly once —
//!   completed, panicked, cancelled, expired, or shut down — and counts
//!   into exactly one of the matching `Requests*` counters. A panic inside
//!   a lane group resolves *every* request with a job in that group, and
//!   `Drop` always returns: each pool task reports its whole group once,
//!   panic or not.
//! * **Attribution.** Every request's life is cut into consecutive
//!   segments — submit, queue-wait, execute, assemble — whose sum is the
//!   request's wall clock *by construction* ([`RequestAttribution`]), with
//!   matching [`Stage::ServeSubmit`] / [`Stage::ServeQueueWait`] /
//!   [`Stage::ServeCoalesce`] / [`Stage::ServeAssemble`] spans and a
//!   [`Hist::RequestLatencyNs`] histogram in the shared
//!   [`TelemetrySink`].
//!
//! Results are bit-identical to solo execution: the dispatcher reuses the
//! executor's own lane-group and scalar engines, and grouping never changes
//! a job's output, only its schedule.

use crate::coalesce::{Coalescer, Group};
use crate::exec::{spawn_group, GroupReport, StreamJob, WorkerPool};
use crate::graph::GraphError;
use crate::ExecOutput;
use sc_telemetry::{Counter, Gauge, Hist, Stage, TelemetrySink};
use std::collections::{HashMap, VecDeque};
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Default intake capacity multiplier: the intake queue admits
/// `window × DEFAULT_INTAKE_FACTOR` jobs ahead of the dispatch window,
/// enough to keep the dispatcher fed across request-size jitter while
/// keeping producer memory bounded.
pub const DEFAULT_INTAKE_FACTOR: usize = 4;

/// Configuration of a [`Service`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Stream length `N` every job executes at.
    pub stream_length: usize,
    /// Worker threads in the shared pool (clamped to ≥ 1; the dispatcher
    /// thread is extra).
    pub threads: usize,
    /// Dispatch-window size: the maximum number of admitted-but-unfinished
    /// jobs (pool-submitted plus coalescing-buffered). `None` uses
    /// `threads ×`[`DEFAULT_WINDOW_FACTOR`](crate::exec::DEFAULT_WINDOW_FACTOR).
    pub window: Option<usize>,
    /// Intake capacity: the maximum number of admitted-but-undispatched
    /// jobs across all queued requests. `None` uses
    /// `window ×`[`DEFAULT_INTAKE_FACTOR`].
    pub intake_capacity: Option<usize>,
    /// The sink every serving stage, counter, and histogram records into
    /// (workers and compile calls included when callers share it).
    pub telemetry: TelemetrySink,
}

impl ServiceConfig {
    /// A single-threaded service at stream length `n` with default window
    /// and intake bounds and no telemetry.
    #[must_use]
    pub fn new(stream_length: usize) -> Self {
        ServiceConfig {
            stream_length,
            threads: 1,
            window: None,
            intake_capacity: None,
            telemetry: TelemetrySink::default(),
        }
    }

    /// Sets the worker-thread count.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Sets the dispatch-window size.
    #[must_use]
    pub fn with_window(mut self, window: usize) -> Self {
        self.window = Some(window.max(1));
        self
    }

    /// Sets the intake capacity.
    #[must_use]
    pub fn with_intake_capacity(mut self, capacity: usize) -> Self {
        self.intake_capacity = Some(capacity.max(1));
        self
    }

    /// Attaches a telemetry sink.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: TelemetrySink) -> Self {
        self.telemetry = telemetry;
        self
    }
}

/// One whole-request submission: an ordered list of jobs (an image's tiles,
/// say) plus an optional absolute deadline.
#[derive(Debug)]
pub struct Request {
    /// The jobs, in result order.
    pub jobs: Vec<StreamJob>,
    /// Absolute deadline: expired-at-submit requests are rejected without
    /// queueing, in-flight expiry drops the request's remaining jobs.
    pub deadline: Option<Instant>,
}

impl Request {
    /// A request with no deadline.
    #[must_use]
    pub fn new(jobs: Vec<StreamJob>) -> Self {
        Request {
            jobs,
            deadline: None,
        }
    }

    /// Sets an absolute deadline.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets a deadline `timeout` from now.
    #[must_use]
    pub fn with_timeout(self, timeout: Duration) -> Self {
        let deadline = Instant::now() + timeout;
        self.with_deadline(deadline)
    }
}

/// Why a submission did not enter the intake queue. Every variant returns
/// the request so the producer can retry, shed, or re-deadline it.
#[derive(Debug)]
pub enum SubmitError {
    /// Non-blocking submit on a full intake queue.
    Rejected(Request),
    /// The request's deadline had already expired at submit time.
    Expired(Request),
    /// The service is shutting down.
    ShutDown(Request),
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Rejected(_) => write!(f, "intake queue full"),
            SubmitError::Expired(_) => write!(f, "deadline expired at submit"),
            SubmitError::ShutDown(_) => write!(f, "service shut down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Why a request produced no outputs.
#[derive(Debug, Clone, PartialEq)]
pub enum RequestError {
    /// A job failed; deterministically the error of the *smallest* failing
    /// job index — every job of the request still executes, so the report
    /// does not depend on scheduling.
    Job(GraphError),
    /// The request was cancelled via [`RequestHandle::cancel`].
    Cancelled,
    /// The request's deadline expired while it was queued or in flight.
    DeadlineExceeded,
    /// The service shut down before the request completed.
    ShutDown,
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RequestError::Job(e) => write!(f, "job failed: {e}"),
            RequestError::Cancelled => write!(f, "request cancelled"),
            RequestError::DeadlineExceeded => write!(f, "deadline exceeded"),
            RequestError::ShutDown => write!(f, "service shut down"),
        }
    }
}

impl std::error::Error for RequestError {}

/// Consecutive wall-clock segments of one request's life. The segments
/// partition `[submit start, response assembled]` exactly:
/// `submit_ns + queue_wait_ns + execute_ns + assemble_ns == wall_ns`
/// by construction (each is the difference of consecutive timestamps).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RequestAttribution {
    /// Submit-call entry → admission into the intake queue (includes any
    /// time the producer spent blocked on backpressure).
    pub submit_ns: u64,
    /// Admission → the dispatcher moving the request's first job into the
    /// dispatch window.
    pub queue_wait_ns: u64,
    /// First job dispatched → last job's result received.
    pub execute_ns: u64,
    /// Last result → response assembled by [`RequestHandle::wait`].
    pub assemble_ns: u64,
    /// Submit-call entry → response assembled.
    pub wall_ns: u64,
}

/// A completed request's outputs plus its serving-tier accounting.
#[derive(Debug, Clone)]
pub struct RequestReport {
    /// Per-job outputs, in submission order.
    pub outputs: Vec<ExecOutput>,
    /// Wall-clock attribution across the serving stages.
    pub attribution: RequestAttribution,
    /// Jobs of this request executed through the lane-batched path.
    pub lane_batched_jobs: usize,
    /// Jobs of this request executed through the scalar path.
    pub scalar_jobs: usize,
    /// Lane-batched jobs of this request whose group mixed jobs from two or
    /// more requests — the cross-request coalescing the tier exists for.
    pub cross_request_lane_jobs: usize,
}

/// How a request ended. Set exactly once, under the completion lock, by
/// whichever of the dispatcher, the handle, or the submitter gets there
/// first; each verdict counts into its own `Requests*` counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Completed,
    Panicked,
    Cancelled,
    Expired,
    ShutDown,
}

/// A worker panic payload.
type Payload = Box<dyn std::any::Any + Send>;

/// Per-request state shared by the submitting thread, the handle, and the
/// dispatcher.
struct RequestState {
    id: u64,
    deadline: Option<Instant>,
    done: Mutex<Completion>,
    finished_cv: Condvar,
}

/// The dispatcher-written half of a request's state.
struct Completion {
    /// One slot per job, filled as results arrive.
    results: Vec<Option<Result<ExecOutput, GraphError>>>,
    /// Results still outstanding.
    remaining: usize,
    verdict: Option<Verdict>,
    /// A worker panic payload, resumed on the waiter's thread.
    panic: Option<Payload>,
    t_start: Instant,
    t_admitted: Instant,
    t_first_dispatch: Option<Instant>,
    t_last_done: Option<Instant>,
    lane_batched: usize,
    scalar: usize,
    cross_request: usize,
}

impl RequestState {
    fn lock(&self) -> MutexGuard<'_, Completion> {
        self.done
            .lock()
            .expect("request completion lock is never poisoned")
    }

    fn finished(&self) -> bool {
        self.lock().verdict.is_some()
    }

    /// Resolves the request with `verdict` unless it already has one:
    /// counts it, wakes the waiter, and returns whether this call decided.
    fn resolve(&self, verdict: Verdict, telemetry: &TelemetrySink, panic: Option<Payload>) -> bool {
        self.resolve_locked(&mut self.lock(), verdict, telemetry, panic)
    }

    fn resolve_locked(
        &self,
        done: &mut Completion,
        verdict: Verdict,
        telemetry: &TelemetrySink,
        panic: Option<Payload>,
    ) -> bool {
        if done.verdict.is_some() {
            return false;
        }
        done.verdict = Some(verdict);
        done.panic = panic;
        let counter = match verdict {
            Verdict::Completed => {
                telemetry.observe(
                    Hist::RequestLatencyNs,
                    ns_between(done.t_start, Instant::now()),
                );
                Counter::RequestsCompleted
            }
            Verdict::Panicked => Counter::RequestsPanicked,
            Verdict::Cancelled => Counter::RequestsCancelled,
            Verdict::Expired => Counter::RequestsExpired,
            Verdict::ShutDown => Counter::RequestsShutDown,
        };
        telemetry.add(counter, 1);
        self.finished_cv.notify_all();
        true
    }

    /// Resolves the request as expired once its deadline has passed;
    /// returns whether it is finished, for any reason.
    fn settle_deadline(&self, now: Instant, telemetry: &TelemetrySink) -> bool {
        let mut done = self.lock();
        if self.deadline.is_some_and(|d| d <= now) {
            self.resolve_locked(&mut done, Verdict::Expired, telemetry, None);
        }
        done.verdict.is_some()
    }

    /// Files one job's result; the last one completes the request.
    fn deliver(
        &self,
        index: usize,
        result: Result<ExecOutput, GraphError>,
        now: Instant,
        telemetry: &TelemetrySink,
    ) {
        let mut done = self.lock();
        done.results[index] = Some(result);
        done.remaining -= 1;
        done.t_last_done = Some(now);
        if done.remaining == 0 {
            self.resolve_locked(&mut done, Verdict::Completed, telemetry, None);
        }
    }
}

/// A handle to one submitted request: wait for the response, or cancel it.
pub struct RequestHandle {
    state: Arc<RequestState>,
    telemetry: TelemetrySink,
    wake: mpsc::Sender<Msg>,
}

impl std::fmt::Debug for RequestHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RequestHandle")
            .field("id", &self.state.id)
            .field("finished", &self.state.finished())
            .finish_non_exhaustive()
    }
}

impl RequestHandle {
    /// Process-unique request id.
    #[must_use]
    pub fn id(&self) -> u64 {
        self.state.id
    }

    /// Whether the request has finished (completed, failed, cancelled, or
    /// expired).
    #[must_use]
    pub fn is_finished(&self) -> bool {
        self.state.finished()
    }

    /// Cancels the request: it resolves as cancelled at once, the
    /// dispatcher drops its remaining jobs, and results of already-executed
    /// jobs are discarded. A no-op once the request has finished.
    pub fn cancel(&self) {
        if self
            .state
            .resolve(Verdict::Cancelled, &self.telemetry, None)
        {
            let _ = self.wake.send(Msg::Wake);
        }
    }

    /// Blocks until the request finishes and assembles the response,
    /// recording a [`Stage::ServeAssemble`] span.
    ///
    /// # Errors
    ///
    /// [`RequestError::Job`] with the smallest failing job index's error,
    /// [`RequestError::Cancelled`], [`RequestError::DeadlineExceeded`], or
    /// [`RequestError::ShutDown`].
    ///
    /// # Panics
    ///
    /// If a job of this request panicked on a worker thread, the panic is
    /// resumed here: with the original payload on the request owning the
    /// group's first job, with its message on every other request that had
    /// a job in the same lane group.
    pub fn wait(self) -> Result<RequestReport, RequestError> {
        let mut done = self.state.lock();
        while done.verdict.is_none() {
            done = self
                .state
                .finished_cv
                .wait(done)
                .expect("request completion lock is never poisoned");
        }
        match done.verdict.expect("loop exits only with a verdict") {
            Verdict::Panicked => {
                let payload = done
                    .panic
                    .take()
                    .expect("a panicked request holds its payload");
                drop(done);
                resume_unwind(payload);
            }
            Verdict::Cancelled => return Err(RequestError::Cancelled),
            Verdict::Expired => return Err(RequestError::DeadlineExceeded),
            Verdict::ShutDown => return Err(RequestError::ShutDown),
            Verdict::Completed => {}
        }
        let assemble = self.telemetry.span(Stage::ServeAssemble);
        // First-error ordering: every job of the request executed, so the
        // smallest failing index is deterministic at any thread count.
        let mut outputs = Vec::with_capacity(done.results.len());
        let mut first_error = None;
        for slot in done.results.drain(..) {
            match slot.expect("a completed request filled every slot") {
                Ok(output) => outputs.push(output),
                Err(e) => {
                    if first_error.is_none() {
                        first_error = Some(e);
                    }
                }
            }
        }
        drop(assemble);
        let t_done = Instant::now();
        if let Some(e) = first_error {
            return Err(RequestError::Job(e));
        }
        let t_first = done.t_first_dispatch.unwrap_or(done.t_admitted);
        let t_last = done.t_last_done.unwrap_or(t_first);
        let attribution = RequestAttribution {
            submit_ns: ns_between(done.t_start, done.t_admitted),
            queue_wait_ns: ns_between(done.t_admitted, t_first),
            execute_ns: ns_between(t_first, t_last),
            assemble_ns: ns_between(t_last, t_done),
            wall_ns: ns_between(done.t_start, t_done),
        };
        Ok(RequestReport {
            outputs,
            attribution,
            lane_batched_jobs: done.lane_batched,
            scalar_jobs: done.scalar,
            cross_request_lane_jobs: done.cross_request,
        })
    }
}

/// Saturating nanoseconds from `a` to `b`.
fn ns_between(a: Instant, b: Instant) -> u64 {
    b.saturating_duration_since(a).as_nanos() as u64
}

/// One queued request inside the intake: its shared state plus the jobs not
/// yet moved into the dispatch window.
struct PendingRequest {
    state: Arc<RequestState>,
    jobs: VecDeque<(usize, StreamJob)>,
}

/// The intake queue the submitters and dispatcher share.
struct Intake {
    queue: VecDeque<PendingRequest>,
    /// Admitted-but-undispatched jobs across all queued requests.
    pending_jobs: usize,
    shutdown: bool,
}

/// Everything the submitters and the dispatcher share.
struct Shared {
    intake: Mutex<Intake>,
    /// Signalled when intake room frees up (blocking submit waits here).
    room: Condvar,
    capacity: usize,
    telemetry: TelemetrySink,
}

impl Shared {
    fn intake(&self) -> MutexGuard<'_, Intake> {
        self.intake.lock().expect("intake lock is never poisoned")
    }
}

/// A message to the dispatcher thread.
enum Msg {
    /// One finished group's report.
    Done(GroupReport),
    /// Intake changed (new request, cancellation, shutdown): re-scan.
    Wake,
}

impl From<GroupReport> for Msg {
    fn from(report: GroupReport) -> Self {
        Msg::Done(report)
    }
}

/// The long-lived serving tier: a dispatcher thread multiplexing many
/// concurrent requests over one warm [`WorkerPool`], with bounded intake
/// and cross-request lane coalescing. See the [module docs](self).
pub struct Service {
    shared: Arc<Shared>,
    tx: mpsc::Sender<Msg>,
    dispatcher: Option<std::thread::JoinHandle<()>>,
    next_id: AtomicU64,
}

impl std::fmt::Debug for Service {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Service")
            .field("capacity", &self.shared.capacity)
            .finish_non_exhaustive()
    }
}

impl Service {
    /// Starts the serving tier: spawns the worker pool (lazily warm from
    /// the first dispatch on) and the dispatcher thread.
    #[must_use]
    pub fn start(config: ServiceConfig) -> Self {
        let threads = config.threads.max(1);
        let window = config
            .window
            .unwrap_or(threads * crate::exec::DEFAULT_WINDOW_FACTOR)
            .max(1);
        let capacity = config
            .intake_capacity
            .unwrap_or(window * DEFAULT_INTAKE_FACTOR)
            .max(1);
        let shared = Arc::new(Shared {
            intake: Mutex::new(Intake {
                queue: VecDeque::new(),
                pending_jobs: 0,
                shutdown: false,
            }),
            room: Condvar::new(),
            capacity,
            telemetry: config.telemetry.clone(),
        });
        let (tx, rx) = mpsc::channel::<Msg>();
        let dispatcher = {
            let shared = Arc::clone(&shared);
            let tx = tx.clone();
            let n = config.stream_length;
            std::thread::Builder::new()
                .name("sc-serve-dispatch".to_string())
                .spawn(move || dispatcher_loop(&shared, &tx, &rx, n, threads, window))
                .expect("dispatcher thread spawns")
        };
        Service {
            shared,
            tx,
            dispatcher: Some(dispatcher),
            next_id: AtomicU64::new(1),
        }
    }

    /// The sink the service records into.
    #[must_use]
    pub fn telemetry(&self) -> &TelemetrySink {
        &self.shared.telemetry
    }

    /// Blocking submit: waits until the intake queue has room for all of
    /// the request's jobs, then admits it. A request larger than the whole
    /// intake capacity is admitted once the queue is empty (temporarily
    /// exceeding the bound) so it cannot deadlock.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Expired`] if the deadline has already passed,
    /// [`SubmitError::ShutDown`] if the service is stopping. Both return
    /// the request.
    pub fn submit(&self, request: Request) -> Result<RequestHandle, SubmitError> {
        self.admit(request, true)
    }

    /// Non-blocking submit: fails fast with [`SubmitError::Rejected`] when
    /// the intake queue cannot take all of the request's jobs right now, so
    /// open-loop producers shed instead of stalling.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Rejected`] on a full intake queue,
    /// [`SubmitError::Expired`] / [`SubmitError::ShutDown`] as for
    /// [`Service::submit`]. All return the request.
    pub fn try_submit(&self, request: Request) -> Result<RequestHandle, SubmitError> {
        self.admit(request, false)
    }

    fn admit(&self, request: Request, block: bool) -> Result<RequestHandle, SubmitError> {
        let telemetry = &self.shared.telemetry;
        let t_start = Instant::now();
        if request.deadline.is_some_and(|d| d <= t_start) {
            telemetry.add(Counter::RequestsExpired, 1);
            return Err(SubmitError::Expired(request));
        }
        let span = telemetry.span(Stage::ServeSubmit);
        let mut intake = self.shared.intake();
        loop {
            if intake.shutdown {
                drop(span);
                return Err(SubmitError::ShutDown(request));
            }
            let fits = intake.pending_jobs + request.jobs.len() <= self.shared.capacity
                || intake.pending_jobs == 0;
            if fits {
                break;
            }
            if !block {
                drop(span);
                telemetry.add(Counter::RequestsRejected, 1);
                return Err(SubmitError::Rejected(request));
            }
            intake = self
                .shared
                .room
                .wait(intake)
                .expect("intake lock is never poisoned");
            // Re-check the deadline after a blocked wait: backpressure can
            // outlast the request's budget.
            if request.deadline.is_some_and(|d| d <= Instant::now()) {
                drop(span);
                telemetry.add(Counter::RequestsExpired, 1);
                return Err(SubmitError::Expired(request));
            }
        }
        let t_admitted = Instant::now();
        let jobs = request.jobs.len();
        let state = Arc::new(RequestState {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            deadline: request.deadline,
            done: Mutex::new(Completion {
                results: (0..jobs).map(|_| None).collect(),
                remaining: jobs,
                verdict: None,
                panic: None,
                t_start,
                t_admitted,
                t_first_dispatch: None,
                t_last_done: None,
                lane_batched: 0,
                scalar: 0,
                cross_request: 0,
            }),
            finished_cv: Condvar::new(),
        });
        if jobs > 0 {
            intake.queue.push_back(PendingRequest {
                state: Arc::clone(&state),
                jobs: request.jobs.into_iter().enumerate().collect(),
            });
            intake.pending_jobs += jobs;
            telemetry.gauge_set(Gauge::IntakeDepth, intake.pending_jobs as u64);
        }
        drop(intake);
        drop(span);
        telemetry.add(Counter::RequestsSubmitted, 1);
        if jobs == 0 {
            state.resolve(Verdict::Completed, telemetry, None);
        } else {
            let _ = self.tx.send(Msg::Wake);
        }
        Ok(RequestHandle {
            state,
            telemetry: telemetry.clone(),
            wake: self.tx.clone(),
        })
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.shared.intake().shutdown = true;
        self.shared.room.notify_all();
        let _ = self.tx.send(Msg::Wake);
        if let Some(handle) = self.dispatcher.take() {
            let _ = handle.join();
        }
    }
}

/// One live request's dispatcher-side bookkeeping.
struct LiveRequest {
    state: Arc<RequestState>,
    /// Jobs moved into the window (buffered or pool-side) but not yet
    /// reported or purged.
    outstanding: usize,
}

/// The dispatcher: drains the intake round-robin into the coalescing core,
/// submits the groups it releases to the pool, routes each group's report
/// back into its requests' states, and enforces deadlines and
/// cancellation. Single-threaded by design — all scheduling state is
/// thread-local to this loop.
fn dispatcher_loop(
    shared: &Shared,
    tx: &mpsc::Sender<Msg>,
    rx: &mpsc::Receiver<Msg>,
    n: usize,
    threads: usize,
    window: usize,
) {
    let telemetry = &shared.telemetry;
    let pool = WorkerPool::with_telemetry(threads, telemetry.clone());
    let mut core = Coalescer::new(window, threads, telemetry.clone());
    let mut live: HashMap<u64, LiveRequest> = HashMap::new();
    loop {
        // Phase 1: settle deadlines and drop finished requests' remaining
        // jobs — queued and in-window alike. Jobs already on the pool
        // finish and their results are discarded on arrival.
        let now = Instant::now();
        let mut next_deadline: Option<Instant> = None;
        let mut pending_deadline = |state: &RequestState| {
            if let Some(d) = state.deadline {
                next_deadline = Some(next_deadline.map_or(d, |earliest| earliest.min(d)));
            }
        };
        {
            let mut intake = shared.intake();
            let before = intake.pending_jobs;
            let mut pending_jobs = before;
            intake.queue.retain(|pending| {
                let finished = pending.state.settle_deadline(now, telemetry);
                if finished {
                    pending_jobs -= pending.jobs.len();
                } else {
                    pending_deadline(&pending.state);
                }
                !finished
            });
            intake.pending_jobs = pending_jobs;
            telemetry.gauge_set(Gauge::IntakeDepth, pending_jobs as u64);
            if pending_jobs != before {
                shared.room.notify_all();
            }
        }
        for (&id, req) in &mut live {
            if req.state.settle_deadline(now, telemetry) {
                req.outstanding -= core.purge(id);
            } else {
                pending_deadline(&req.state);
            }
        }

        // Phase 2: the coalesce pass — move intake jobs into the window,
        // round-robin across requests so concurrent same-class requests
        // interleave into the same lane buckets; then let the core flush
        // partial buckets to idle workers.
        let mut ready: Vec<Group> = Vec::new();
        let shutdown;
        {
            let mut span = telemetry.span_with(Stage::ServeCoalesce, 0);
            let mut intake = shared.intake();
            shutdown = intake.shutdown;
            let mut moved = 0u64;
            let t_dispatch = Instant::now();
            while core.has_room() {
                let Some(mut pending) = intake.queue.pop_front() else {
                    break;
                };
                let Some((index, job)) = pending.jobs.pop_front() else {
                    continue; // drained request: drop it from the rotation
                };
                intake.pending_jobs -= 1;
                moved += 1;
                let id = pending.state.id;
                let entry = live.entry(id).or_insert_with(|| LiveRequest {
                    state: Arc::clone(&pending.state),
                    outstanding: 0,
                });
                entry.outstanding += 1;
                {
                    let mut done = pending.state.lock();
                    if done.t_first_dispatch.is_none() {
                        done.t_first_dispatch = Some(t_dispatch);
                        telemetry.record_span_ns(
                            Stage::ServeQueueWait,
                            ns_between(done.t_admitted, t_dispatch),
                            id,
                        );
                    }
                }
                if !pending.jobs.is_empty() {
                    intake.queue.push_back(pending);
                }
                ready.extend(core.admit(id, index, job));
            }
            telemetry.gauge_set(Gauge::IntakeDepth, intake.pending_jobs as u64);
            drop(intake);
            if moved > 0 {
                shared.room.notify_all();
            }
            span.set_arg(moved);
        }
        ready.extend(core.flush(shutdown));
        for group in ready {
            attribute(&group, &live);
            spawn_group(&pool, tx, n, group, telemetry);
        }

        // Phase 3: shutdown — stop admitting, fail every still-queued
        // request so its waiter unblocks, keep draining in-window jobs.
        if shutdown {
            let mut intake = shared.intake();
            for pending in intake.queue.drain(..) {
                pending.state.resolve(Verdict::ShutDown, telemetry, None);
            }
            intake.pending_jobs = 0;
            drop(intake);
            shared.room.notify_all();
            if core.is_empty() {
                for req in live.values() {
                    req.state.resolve(Verdict::ShutDown, telemetry, None);
                }
                break;
            }
        }

        // Phase 4: sleep until the next event — a group report, a
        // submission, a cancellation — or the earliest pending deadline.
        let first = match next_deadline {
            Some(deadline) => rx
                .recv_timeout(deadline.saturating_duration_since(Instant::now()))
                .ok(),
            None => rx.recv().ok(),
        };
        for msg in first
            .into_iter()
            .chain(std::iter::from_fn(|| rx.try_recv().ok()))
        {
            if let Msg::Done(report) = msg {
                settle(report, &mut core, &mut live, telemetry);
            }
        }
        live.retain(|_, req| req.outstanding > 0 || !req.state.finished());
    }
}

/// Copies one released group's classification (from the core's tally)
/// into each member request's accounting.
fn attribute(group: &Group, live: &HashMap<u64, LiveRequest>) {
    for member in group.members() {
        if let Some(req) = live.get(&member.owner) {
            let mut done = req.state.lock();
            if group.lane_batched() {
                done.lane_batched += 1;
            } else {
                done.scalar += 1;
            }
            if group.cross_request() {
                done.cross_request += 1;
            }
        }
    }
}

/// Routes one group report: every member leaves the window and its request
/// gets the result — or, for a panicked group, every member's request
/// resolves as panicked (the first with the original payload, the others
/// with its message).
fn settle(
    report: GroupReport,
    core: &mut Coalescer,
    live: &mut HashMap<u64, LiveRequest>,
    telemetry: &TelemetrySink,
) {
    let GroupReport { keys, outcome } = report;
    let failures = outcome
        .as_ref()
        .map_or(0, |results| results.iter().filter(|r| r.is_err()).count());
    core.done(keys.len(), failures);
    let now = Instant::now();
    match outcome {
        Ok(results) => {
            for ((id, index), result) in keys.into_iter().zip(results) {
                if let Some(req) = live.get_mut(&id) {
                    req.outstanding -= 1;
                    req.state.deliver(index, result, now, telemetry);
                }
            }
        }
        Err(payload) => {
            let message = panic_message(&payload);
            let mut payload = Some(payload);
            for (id, _) in keys {
                if let Some(req) = live.get_mut(&id) {
                    req.outstanding -= 1;
                    let payload = payload.take().unwrap_or_else(|| Box::new(message.clone()));
                    req.state
                        .resolve(Verdict::Panicked, telemetry, Some(payload));
                }
            }
        }
    }
}

/// The text of a panic payload (`panic!` payloads are `&str` or `String`).
fn panic_message(payload: &Payload) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "a job in this request's lane group panicked".to_string())
}
