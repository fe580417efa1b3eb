//! The serving tier: one warm worker pool shared by many concurrent request
//! streams.
//!
//! `run_stream` is a *call*: it owns the dispatch loop until its job
//! iterator drains, so two concurrent images either serialise behind one
//! call or split across two executors (and two worker pools). [`Service`]
//! inverts that shape into a long-lived tier:
//!
//! * **One warm pool, nothing else.** [`Service::start`] spawns the pool's
//!   `threads` workers and no other thread. [`Service::submit`] queues the
//!   request on the intake and hands the [`WorkerPool`] one task per job;
//!   each task takes the next intake job, runs it solo, and files its result
//!   straight into the request's state. Every request multiplexes over the
//!   same threads, so back-to-back images reuse warm workers instead of
//!   respawning them.
//! * **Bounded intake with backpressure.** [`Service::submit`] blocks until
//!   the intake queue has room; [`Service::try_submit`] fails fast and
//!   returns the request, so open-loop producers slow down instead of
//!   buffering unboundedly. Intake depth is exported through
//!   [`Gauge::IntakeDepth`].
//! * **Round-robin FIFO.** Workers take queued jobs one request at a time in
//!   rotation, so a large request cannot starve a small one queued behind
//!   it.
//! * **Deadlines and cancellation.** A [`Request`] may carry an absolute
//!   deadline: expired-at-submit requests are rejected without queueing.
//!   Later expiry is settled by whatever touches the request next: its
//!   handle ([`RequestHandle::wait`] sleeps until the deadline, so a waiter
//!   is released when it is due), a worker's pick, a submit (a blocked
//!   submit sleeps until the earliest queued deadline, so expired jobs stop
//!   holding intake room), or shutdown. [`RequestHandle::cancel`] resolves
//!   the request at once. Either way the request's queued jobs leave the
//!   intake, and results of jobs already running are discarded.
//! * **Failure contract.** Every admitted request resolves exactly once —
//!   completed, panicked, cancelled, expired, or shut down — and counts
//!   into exactly one of the matching `Requests*` counters. A panic inside
//!   a job resolves exactly that job's request, and `Drop` always returns:
//!   each pool task runs at most one job under one `catch_unwind`, and
//!   delivers its result or panic payload, panic or not.
//! * **Attribution.** Every request's life is cut into consecutive
//!   segments — submit, queue-wait, execute, assemble — whose sum is the
//!   request's wall clock *by construction* ([`RequestAttribution`]), with
//!   matching [`Stage::ServeSubmit`] / [`Stage::ServeQueueWait`] /
//!   [`Stage::ServeCoalesce`] / [`Stage::ServeAssemble`] spans and a
//!   [`Hist::RequestLatencyNs`] histogram in the shared
//!   [`TelemetrySink`].
//!
//! Results are bit-identical to solo execution: the workers run every job
//! through the executor's own per-job engine.

use crate::exec::{execute_job, StreamJob, WorkerPool};
use crate::graph::GraphError;
use crate::ExecOutput;
use sc_telemetry::{Counter, Gauge, Hist, Stage, TelemetrySink};
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Default intake capacity per worker thread: the intake queue admits
/// `threads × DEFAULT_INTAKE_FACTOR` queued jobs, enough to keep every
/// worker fed across request-size jitter while keeping producer memory
/// bounded.
pub const DEFAULT_INTAKE_FACTOR: usize = 16;

/// Configuration of a [`Service`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Stream length `N` every job executes at.
    pub stream_length: usize,
    /// Worker threads in the shared pool (clamped to ≥ 1); the service
    /// spawns no other thread.
    pub threads: usize,
    /// Intake capacity: the maximum number of queued jobs (submitted, not
    /// yet taken by a worker) across all requests. `None` uses
    /// `threads ×`[`DEFAULT_INTAKE_FACTOR`].
    pub intake_capacity: Option<usize>,
    /// The sink every serving stage, counter, and histogram records into
    /// (workers and compile calls included when callers share it).
    pub telemetry: TelemetrySink,
}

impl ServiceConfig {
    /// A single-threaded service at stream length `n` with the default
    /// intake bound and no telemetry.
    #[must_use]
    pub fn new(stream_length: usize) -> Self {
        ServiceConfig {
            stream_length,
            threads: 1,
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
    /// Admission → a worker taking the request's first job from the intake.
    pub queue_wait_ns: u64,
    /// First job taken → last job's result filed.
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
}

/// How a request ended. Set exactly once, under the completion lock, by
/// whichever of a worker, the handle, a submitter, or shutdown gets there
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
/// workers.
struct RequestState {
    id: u64,
    deadline: Option<Instant>,
    done: Mutex<Completion>,
    finished_cv: Condvar,
}

/// The worker-written half of a request's state.
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
}

impl RequestState {
    fn new(
        id: u64,
        deadline: Option<Instant>,
        jobs: usize,
        t_start: Instant,
        t_admitted: Instant,
    ) -> Self {
        RequestState {
            id,
            deadline,
            done: Mutex::new(Completion {
                results: (0..jobs).map(|_| None).collect(),
                remaining: jobs,
                verdict: None,
                panic: None,
                t_start,
                t_admitted,
                t_first_dispatch: None,
                t_last_done: None,
            }),
            finished_cv: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Completion> {
        self.done
            .lock()
            .expect("request completion lock is never poisoned")
    }

    fn finished(&self) -> bool {
        self.lock().verdict.is_some()
    }

    fn expired(&self, now: Instant) -> bool {
        self.deadline.is_some_and(|d| d <= now)
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

    /// Files one job's result. The last one completes the request, or
    /// expires it when it lands past the deadline.
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
            let verdict = if self.expired(now) {
                Verdict::Expired
            } else {
                Verdict::Completed
            };
            self.resolve_locked(&mut done, verdict, telemetry, None);
        }
    }
}

/// A handle to one submitted request: wait for the response, or cancel it.
pub struct RequestHandle {
    state: Arc<RequestState>,
    shared: Arc<Shared>,
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
    /// expired). A request past its deadline resolves as expired here.
    #[must_use]
    pub fn is_finished(&self) -> bool {
        if self.state.expired(Instant::now()) {
            self.shared.resolve(&self.state, Verdict::Expired, None);
        }
        self.state.finished()
    }

    /// Cancels the request: it resolves as cancelled at once, its queued
    /// jobs leave the intake, and results of already-running jobs are
    /// discarded. A no-op once the request has finished.
    pub fn cancel(&self) {
        self.shared.resolve(&self.state, Verdict::Cancelled, None);
    }

    /// Blocks until the request finishes — or its deadline passes, which
    /// resolves it as expired — and assembles the response, recording a
    /// [`Stage::ServeAssemble`] span.
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
    /// resumed here with its original payload.
    pub fn wait(self) -> Result<RequestReport, RequestError> {
        let mut done = self.state.lock();
        while done.verdict.is_none() {
            let now = Instant::now();
            done = match self.state.deadline {
                // Resolve outside the completion lock: the intake lock is
                // always taken first.
                Some(deadline) if deadline <= now => {
                    drop(done);
                    self.shared.resolve(&self.state, Verdict::Expired, None);
                    self.state.lock()
                }
                Some(deadline) => {
                    self.state
                        .finished_cv
                        .wait_timeout(done, deadline - now)
                        .expect("request completion lock is never poisoned")
                        .0
                }
                None => self
                    .state
                    .finished_cv
                    .wait(done)
                    .expect("request completion lock is never poisoned"),
            };
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
        let assemble = self.shared.telemetry.span(Stage::ServeAssemble);
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
        })
    }
}

/// Saturating nanoseconds from `a` to `b`.
fn ns_between(a: Instant, b: Instant) -> u64 {
    b.saturating_duration_since(a).as_nanos() as u64
}

/// One queued request inside the intake: its shared state plus the jobs no
/// worker has taken yet.
struct PendingRequest {
    state: Arc<RequestState>,
    jobs: VecDeque<(usize, StreamJob)>,
}

/// The intake queue: a thread-free state machine that the submitters, the
/// handles and the pool's workers drive under one lock. Lock order: the
/// intake lock before any request's completion lock.
#[derive(Default)]
struct Intake {
    /// Requests with queued jobs, in round-robin order.
    queue: VecDeque<PendingRequest>,
    /// Queued jobs across all queued requests.
    pending_jobs: usize,
    shutdown: bool,
}

impl Intake {
    /// Queues a request's jobs at the back of the rotation.
    fn push(&mut self, state: Arc<RequestState>, jobs: Vec<StreamJob>) {
        self.pending_jobs += jobs.len();
        self.queue.push_back(PendingRequest {
            state,
            jobs: jobs.into_iter().enumerate().collect(),
        });
    }

    /// Takes the next job in round-robin order: the front request's first
    /// queued job, rotating the request to the back while it has more.
    /// Front requests that already have a verdict are dropped with their
    /// jobs; so are those past their deadline, which resolve as expired
    /// here. A request's first pick records its queue wait.
    fn pick(
        &mut self,
        now: Instant,
        telemetry: &TelemetrySink,
    ) -> Option<(Arc<RequestState>, usize, StreamJob)> {
        while let Some(mut pending) = self.queue.pop_front() {
            {
                let state = &pending.state;
                let mut done = state.lock();
                if state.expired(now) {
                    state.resolve_locked(&mut done, Verdict::Expired, telemetry, None);
                }
                if done.verdict.is_some() {
                    self.pending_jobs -= pending.jobs.len();
                    continue;
                }
                if done.t_first_dispatch.is_none() {
                    done.t_first_dispatch = Some(now);
                    telemetry.record_span_ns(
                        Stage::ServeQueueWait,
                        ns_between(done.t_admitted, now),
                        state.id,
                    );
                }
            }
            let (index, job) = pending
                .jobs
                .pop_front()
                .expect("a queued request holds a job");
            self.pending_jobs -= 1;
            let state = Arc::clone(&pending.state);
            if !pending.jobs.is_empty() {
                self.queue.push_back(pending);
            }
            return Some((state, index, job));
        }
        None
    }

    /// Resolves a request with `verdict` unless it already has one; if this
    /// call decided, drops the request's queued jobs.
    fn resolve(
        &mut self,
        state: &RequestState,
        verdict: Verdict,
        telemetry: &TelemetrySink,
        panic: Option<Payload>,
    ) {
        if state.resolve(verdict, telemetry, panic) {
            if let Some(at) = self.queue.iter().position(|p| p.state.id == state.id) {
                let pending = self.queue.remove(at).expect("position is in range");
                self.pending_jobs -= pending.jobs.len();
            }
        }
    }

    /// Resolves every queued request past its deadline as expired and drops
    /// its jobs; returns the earliest deadline still queued.
    fn expire(&mut self, now: Instant, telemetry: &TelemetrySink) -> Option<Instant> {
        let mut earliest: Option<Instant> = None;
        let mut dropped = 0;
        self.queue.retain(|pending| match pending.state.deadline {
            Some(deadline) if deadline <= now => {
                pending.state.resolve(Verdict::Expired, telemetry, None);
                dropped += pending.jobs.len();
                false
            }
            Some(deadline) => {
                earliest = Some(earliest.map_or(deadline, |e| e.min(deadline)));
                true
            }
            None => true,
        });
        self.pending_jobs -= dropped;
        earliest
    }

    /// Stops admission and resolves every still-queued request: expired if
    /// its deadline has passed, shut down otherwise.
    fn shut_down(&mut self, now: Instant, telemetry: &TelemetrySink) {
        self.shutdown = true;
        for pending in self.queue.drain(..) {
            let verdict = if pending.state.expired(now) {
                Verdict::Expired
            } else {
                Verdict::ShutDown
            };
            pending.state.resolve(verdict, telemetry, None);
        }
        self.pending_jobs = 0;
    }
}

/// Everything the submitters, the handles and the pool's tasks share.
struct Shared {
    intake: Mutex<Intake>,
    /// Signalled when intake room frees up (blocking submit waits here).
    room: Condvar,
    capacity: usize,
    stream_length: usize,
    telemetry: TelemetrySink,
}

impl Shared {
    fn intake(&self) -> MutexGuard<'_, Intake> {
        self.intake.lock().expect("intake lock is never poisoned")
    }

    /// Publishes the intake depth, and wakes blocked submitters when it fell
    /// below `before`.
    fn depth_changed(&self, intake: &Intake, before: usize) {
        self.telemetry
            .gauge_set(Gauge::IntakeDepth, intake.pending_jobs as u64);
        if intake.pending_jobs < before {
            self.room.notify_all();
        }
    }

    /// [`Intake::resolve`] under the intake lock, signalling freed room.
    fn resolve(&self, state: &RequestState, verdict: Verdict, panic: Option<Payload>) {
        let mut intake = self.intake();
        let before = intake.pending_jobs;
        intake.resolve(state, verdict, &self.telemetry, panic);
        self.depth_changed(&intake, before);
    }

    /// One pool task: takes the next intake job, runs it under one
    /// `catch_unwind`, and files its result — or resolves its request with
    /// the panic payload. A task that finds the intake empty (its job was
    /// dropped by a cancel, an expiry or shutdown) does nothing.
    fn run_next(&self) {
        let telemetry = &self.telemetry;
        let picked = {
            let mut span = telemetry.span(Stage::ServeCoalesce);
            let mut intake = self.intake();
            let before = intake.pending_jobs;
            let picked = intake.pick(Instant::now(), telemetry);
            self.depth_changed(&intake, before);
            drop(intake);
            span.set_arg(u64::from(picked.is_some()));
            picked
        };
        let Some((state, index, job)) = picked else {
            return;
        };
        telemetry.add(Counter::JobsPulled, 1);
        telemetry.class_add_jobs(job.plan.plan_class(), 1);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            execute_job(self.stream_length, &job, telemetry)
        }));
        drop(job);
        match outcome {
            Ok(result) => {
                if result.is_err() {
                    telemetry.add(Counter::JobsFailed, 1);
                }
                state.deliver(index, result, Instant::now(), telemetry);
            }
            Err(payload) => self.resolve(&state, Verdict::Panicked, Some(payload)),
        }
    }
}

/// The long-lived serving tier: many concurrent requests over one warm
/// [`WorkerPool`], with bounded intake and round-robin FIFO. See the
/// [module docs](self).
pub struct Service {
    shared: Arc<Shared>,
    /// Dropped after [`Service::drop`] has drained the intake.
    pool: WorkerPool,
    next_id: AtomicU64,
}

impl std::fmt::Debug for Service {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Service")
            .field("capacity", &self.shared.capacity)
            .field("workers", &self.pool.workers())
            .finish_non_exhaustive()
    }
}

impl Service {
    /// Starts the serving tier: spawns the pool's worker threads.
    #[must_use]
    pub fn start(config: ServiceConfig) -> Self {
        let threads = config.threads.max(1);
        let capacity = config
            .intake_capacity
            .unwrap_or(threads * DEFAULT_INTAKE_FACTOR)
            .max(1);
        let shared = Arc::new(Shared {
            intake: Mutex::new(Intake::default()),
            room: Condvar::new(),
            capacity,
            stream_length: config.stream_length,
            telemetry: config.telemetry.clone(),
        });
        Service {
            shared,
            pool: WorkerPool::with_telemetry(threads, config.telemetry),
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
    /// [`SubmitError::Expired`] if the deadline has passed (at submit, or
    /// while blocked), [`SubmitError::ShutDown`] if the service is stopping.
    /// Both return the request.
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
        let shared = &self.shared;
        let telemetry = &shared.telemetry;
        let t_start = Instant::now();
        if request.deadline.is_some_and(|d| d <= t_start) {
            telemetry.add(Counter::RequestsExpired, 1);
            return Err(SubmitError::Expired(request));
        }
        let span = telemetry.span(Stage::ServeSubmit);
        let mut intake = shared.intake();
        let mut now = t_start;
        loop {
            if intake.shutdown {
                drop(span);
                return Err(SubmitError::ShutDown(request));
            }
            // Expired requests stop holding intake room.
            let before = intake.pending_jobs;
            let next_deadline = intake.expire(now, telemetry);
            shared.depth_changed(&intake, before);
            let fits = intake.pending_jobs + request.jobs.len() <= shared.capacity
                || intake.pending_jobs == 0;
            if fits {
                break;
            }
            if !block {
                drop(span);
                telemetry.add(Counter::RequestsRejected, 1);
                return Err(SubmitError::Rejected(request));
            }
            // Sleep until room frees up, a queued request's deadline frees
            // it, or this request's own deadline passes.
            intake = match next_deadline.into_iter().chain(request.deadline).min() {
                Some(wake) => {
                    shared
                        .room
                        .wait_timeout(intake, wake.saturating_duration_since(now))
                        .expect("intake lock is never poisoned")
                        .0
                }
                None => shared
                    .room
                    .wait(intake)
                    .expect("intake lock is never poisoned"),
            };
            now = Instant::now();
            if request.deadline.is_some_and(|d| d <= now) {
                drop(span);
                telemetry.add(Counter::RequestsExpired, 1);
                return Err(SubmitError::Expired(request));
            }
        }
        let jobs = request.jobs.len();
        let state = Arc::new(RequestState::new(
            self.next_id.fetch_add(1, Ordering::Relaxed),
            request.deadline,
            jobs,
            t_start,
            Instant::now(),
        ));
        if jobs > 0 {
            intake.push(Arc::clone(&state), request.jobs);
            telemetry.gauge_set(Gauge::IntakeDepth, intake.pending_jobs as u64);
        }
        drop(intake);
        drop(span);
        telemetry.add(Counter::RequestsSubmitted, 1);
        if jobs == 0 {
            state.resolve(Verdict::Completed, telemetry, None);
        }
        // One task per queued job, so every queued job has a task to take
        // it; a task whose job was dropped meanwhile finds nothing.
        for _ in 0..jobs {
            let shared = Arc::clone(shared);
            self.pool.submit(Box::new(move || shared.run_next()));
        }
        Ok(RequestHandle {
            state,
            shared: Arc::clone(shared),
        })
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        // Never panic in drop: `shut_down` leaves a valid, empty intake
        // whatever state a poisoned lock holds.
        let mut intake = self
            .shared
            .intake
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        intake.shut_down(Instant::now(), &self.shared.telemetry);
        self.shared.telemetry.gauge_set(Gauge::IntakeDepth, 0);
        drop(intake);
        self.shared.room.notify_all();
        // The pool drops next: its leftover tasks find the intake empty,
        // running jobs deliver their results, and the workers join.
    }
}

#[cfg(test)]
mod tests {
    //! A randomized model-based harness over the thread-free intake: a model
    //! interleaves the events the submitters, the handles and the pool's
    //! workers drive — submit, pick, complete, panic, cancel, expire, clock
    //! ticks and shutdown — and checks the intake against it after every
    //! step.

    use super::*;
    use crate::exec::BatchInput;
    use crate::node::{BinaryOp, ManipulatorKind};
    use crate::{CompiledGraph, Executor, Graph, PlannerOptions};
    use proptest::prelude::*;
    use sc_rng::SourceSpec;
    use std::collections::{BTreeMap, HashSet};

    const N: usize = 33;

    /// Two synchronizer plan classes and one bitwise-only class.
    fn plans() -> Vec<Arc<CompiledGraph>> {
        let sobol = |dimension| SourceSpec::Sobol { dimension };
        let synchronized = |dimension| {
            let mut g = Graph::new();
            let x = g.generate(0, sobol(1));
            let y = g.generate(1, sobol(dimension));
            let (sx, sy) = g.manipulate(ManipulatorKind::Synchronizer { depth: 1 }, x, y);
            g.sink_stream("x", sx);
            g.sink_stream("y", sy);
            Arc::new(g.compile(&PlannerOptions::default()).unwrap())
        };
        let mut g = Graph::new();
        let x = g.generate(0, sobol(1));
        let y = g.generate(1, sobol(2));
        let z = g.binary(BinaryOp::AndMultiply, x, y);
        g.sink_stream("z", z);
        let bitwise = Arc::new(g.compile(&PlannerOptions::default()).unwrap());
        vec![synchronized(2), synchronized(3), bitwise]
    }

    /// One request as the model tracks it.
    struct ModelRequest {
        state: Arc<RequestState>,
        solo: Vec<Result<ExecOutput, GraphError>>,
        /// Job indices neither picked nor dropped, in order.
        queued: VecDeque<usize>,
    }

    /// The model around one intake.
    struct Model {
        intake: Intake,
        telemetry: TelemetrySink,
        base: Instant,
        /// Model time, in milliseconds after `base`.
        clock: u64,
        requests: BTreeMap<u64, ModelRequest>,
        /// Requests with queued jobs, in the order the intake must serve.
        rotation: VecDeque<u64>,
        running: Vec<(Arc<RequestState>, usize, StreamJob)>,
        /// Every picked `(request, job)` key.
        picked: HashSet<(u64, usize)>,
    }

    impl Model {
        fn now(&self) -> Instant {
            self.base + Duration::from_millis(self.clock)
        }

        /// Drops a request from the model's rotation with its queued jobs.
        fn forget(&mut self, id: u64) {
            self.requests.get_mut(&id).unwrap().queued.clear();
            self.rotation.retain(|&o| o != id);
        }

        fn submit(&mut self, plans: &[Arc<CompiledGraph>], arg: u64) {
            if self.intake.shutdown {
                return;
            }
            let id = self.requests.len() as u64 + 1;
            let jobs: Vec<StreamJob> = (0..(arg % 7) as usize)
                .map(|j| StreamJob {
                    plan: Arc::clone(&plans[(arg as usize / 7 + j) % plans.len()]),
                    input: BatchInput::with_values(vec![
                        (j as f64 + 1.0) / 9.0,
                        (id % 5) as f64 / 5.0,
                    ]),
                })
                .collect();
            let solo = jobs
                .iter()
                .map(|job| Executor::new(N).run(&job.plan, &job.input))
                .collect();
            let now = self.now();
            let deadline = (arg >> 8)
                .is_multiple_of(3)
                .then(|| now + Duration::from_millis(1 + (arg >> 16) % 5));
            let state = Arc::new(RequestState::new(id, deadline, jobs.len(), now, now));
            let queued = (0..jobs.len()).collect();
            if jobs.is_empty() {
                state.resolve(Verdict::Completed, &self.telemetry, None);
            } else {
                self.intake.push(Arc::clone(&state), jobs);
                self.rotation.push_back(id);
            }
            self.requests.insert(
                id,
                ModelRequest {
                    state,
                    solo,
                    queued,
                },
            );
        }

        /// One worker's pick, against the model's round-robin expectation.
        fn pick(&mut self) {
            let now = self.now();
            let expected = loop {
                let Some(&id) = self.rotation.front() else {
                    break None;
                };
                if self.requests[&id].state.expired(now) {
                    self.forget(id);
                    continue;
                }
                break Some(id);
            };
            let picked = self.intake.pick(now, &self.telemetry);
            let Some((state, index, job)) = picked else {
                assert_eq!(expected, None, "the intake ran dry early");
                return;
            };
            assert_eq!(Some(state.id), expected, "round-robin order");
            let request = self.requests.get_mut(&state.id).unwrap();
            assert_eq!(request.queued.pop_front(), Some(index), "in-request order");
            self.rotation.pop_front();
            if !request.queued.is_empty() {
                self.rotation.push_back(state.id);
            }
            assert!(self.picked.insert((state.id, index)), "picked twice");
            self.running.push((state, index, job));
        }

        /// A picked job finishes; `panicked` fails it without a result.
        fn complete(&mut self, arg: u64, panicked: bool) {
            if self.running.is_empty() {
                return;
            }
            let (state, index, job) = self.running.swap_remove(arg as usize % self.running.len());
            if panicked {
                self.resolve(state.id, Verdict::Panicked);
                return;
            }
            let result = execute_job(N, &job, &TelemetrySink::default());
            assert_eq!(
                result, self.requests[&state.id].solo[index],
                "picked result differs from solo"
            );
            state.deliver(index, result, self.now(), &self.telemetry);
        }

        /// Resolves a request through the intake, checking the purge.
        fn resolve(&mut self, id: u64, verdict: Verdict) {
            let before = self.intake.pending_jobs;
            let state = Arc::clone(&self.requests[&id].state);
            let decides = !state.finished();
            self.intake.resolve(&state, verdict, &self.telemetry, None);
            let dropped = if decides {
                self.requests[&id].queued.len()
            } else {
                0
            };
            assert_eq!(
                self.intake.pending_jobs,
                before - dropped,
                "a purge drops exactly the resolved request's jobs"
            );
            if decides {
                self.forget(id);
            }
        }

        fn lapse(&mut self, arg: u64) {
            let open: Vec<u64> = self
                .requests
                .iter()
                .filter(|(_, r)| !r.state.finished())
                .map(|(&id, _)| id)
                .collect();
            if !open.is_empty() {
                let verdict = if arg.is_multiple_of(2) {
                    Verdict::Cancelled
                } else {
                    Verdict::Expired
                };
                self.resolve(open[arg as usize % open.len()], verdict);
            }
        }

        /// A submitter's sweep of expired requests.
        fn expire(&mut self) {
            let now = self.now();
            let earliest = self.intake.expire(now, &self.telemetry);
            let lapsed: Vec<u64> = self
                .rotation
                .iter()
                .copied()
                .filter(|id| self.requests[id].state.expired(now))
                .collect();
            for id in lapsed {
                self.forget(id);
            }
            let expected = self
                .rotation
                .iter()
                .filter_map(|id| self.requests[id].state.deadline)
                .min();
            assert_eq!(earliest, expected, "earliest queued deadline");
        }

        fn shut_down(&mut self) {
            self.intake.shut_down(self.now(), &self.telemetry);
            for id in std::mem::take(&mut self.rotation) {
                self.requests.get_mut(&id).unwrap().queued.clear();
            }
        }

        fn check(&self) {
            let queued: usize = self.requests.values().map(|r| r.queued.len()).sum();
            assert_eq!(self.intake.pending_jobs, queued, "pending = jobs queued");
            let held: usize = self.intake.queue.iter().map(|p| p.jobs.len()).sum();
            assert_eq!(self.intake.pending_jobs, held, "pending = jobs held");
            let order: Vec<u64> = self.intake.queue.iter().map(|p| p.state.id).collect();
            assert!(order.iter().eq(self.rotation.iter()), "rotation order");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Random interleavings of every intake event keep its invariants:
        /// each job is picked at most once, the pending count equals the
        /// jobs still queued, picks follow round-robin order, a purge on
        /// resolve drops exactly that request's jobs, picked results are
        /// bit-identical to solo runs, and after the shutdown drain every
        /// request has exactly one verdict.
        #[test]
        fn random_interleavings_keep_the_intake_invariants(
            ops in collection::vec((0u8..10, any::<u64>()), 1..80),
        ) {
            let plans = plans();
            let mut model = Model {
                intake: Intake::default(),
                telemetry: TelemetrySink::new(),
                base: Instant::now(),
                clock: 0,
                requests: BTreeMap::new(),
                rotation: VecDeque::new(),
                running: Vec::new(),
                picked: HashSet::new(),
            };
            for (op, arg) in ops {
                match op {
                    0 | 1 => model.submit(&plans, arg),
                    2 | 3 => model.pick(),
                    4 | 5 => model.complete(arg, false),
                    6 => model.complete(arg, arg % 5 == 0),
                    7 => model.lapse(arg),
                    8 => {
                        model.clock += arg % 3;
                        model.expire();
                    }
                    _ => {
                        if arg % 8 == 0 {
                            model.shut_down();
                        }
                    }
                }
                model.check();
            }
            // The shutdown drain, then every running job finishes.
            model.shut_down();
            prop_assert_eq!(model.intake.pick(model.now(), &model.telemetry).map(|p| p.1), None);
            while !model.running.is_empty() {
                model.complete(0, false);
            }
            model.check();
            let report = model.telemetry.drain();
            let verdicts: u64 = [
                Counter::RequestsCompleted,
                Counter::RequestsPanicked,
                Counter::RequestsCancelled,
                Counter::RequestsExpired,
                Counter::RequestsShutDown,
            ]
            .into_iter()
            .map(|c| report.counter(c))
            .sum();
            for (id, request) in &model.requests {
                prop_assert!(request.state.finished(), "request {} never resolved", id);
            }
            prop_assert_eq!(verdicts, model.requests.len() as u64, "one verdict per request");
        }
    }
}
