//! The batch executor: runs a [`CompiledGraph`] word-parallel over streams
//! of independent input sets, inline or sharded across worker threads that
//! live for one call.

use crate::compile::{CompiledGraph, Step};
use crate::graph::GraphError;
use crate::node::NodeOp;
use crate::planes::{self, JobPlanes, PlaneStore};
use sc_bitstream::{scc, Bitstream, Probability, WORD_BITS};
use sc_core::LANES;
use sc_rng::SourceSpec;
use sc_telemetry::{Counter, Gauge, Hist, Stage, TelemetrySink};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc, Mutex};

/// One independent input set of a batch: the digital values consumed by
/// `Generate` nodes, the ready streams consumed by `InputStream` nodes, and
/// the source bindings every source-drawing step resolves its spec through.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BatchInput {
    /// Digital values in `[0, 1]`, indexed by the `Generate` nodes' slots.
    pub values: Vec<f64>,
    /// Ready streams, indexed by the `InputStream` nodes' slots.
    pub streams: Vec<Bitstream>,
    /// `(template spec, this job's spec)` pairs. Every source-drawing step
    /// (`Generate`, `Regenerate` and the select of `WeightedMux`, the one
    /// select step, MUX adders included) draws from its spec's binding, or
    /// from its own spec when the table has none ([`BatchInput::resolve`]).
    /// This is how one compiled template serves a family of jobs that differ
    /// only in source seeding, such as the per-tile select-LFSR seeds of the
    /// tiled image pipeline. A binding must keep the spec equality structure
    /// the compiler reasoned about: equal specs stay equal, distinct specs
    /// stay distinct.
    pub bindings: Vec<(SourceSpec, SourceSpec)>,
}

impl BatchInput {
    /// An input set with no values and no streams.
    #[must_use]
    pub fn new() -> Self {
        BatchInput::default()
    }

    /// An input set of digital values only.
    #[must_use]
    pub fn with_values(values: Vec<f64>) -> Self {
        BatchInput {
            values,
            ..BatchInput::default()
        }
    }

    /// An input set of ready streams only.
    #[must_use]
    pub fn with_streams(streams: Vec<Bitstream>) -> Self {
        BatchInput {
            streams,
            ..BatchInput::default()
        }
    }

    /// The spec a plan step holding `spec` draws from for this input set:
    /// its binding, or `spec` itself when none is bound.
    #[must_use]
    pub fn resolve<'a>(&'a self, spec: &'a SourceSpec) -> &'a SourceSpec {
        self.bindings
            .iter()
            .find(|(template, _)| template == spec)
            .map_or(spec, |(_, bound)| bound)
    }
}

/// One sink kind's names in emit order, plus that order sorted by name.
#[derive(Debug, Default, PartialEq, Eq)]
struct NameIndex {
    names: Vec<Arc<str>>,
    by_name: Vec<usize>,
}

impl NameIndex {
    fn new(names: Vec<Arc<str>>) -> Self {
        let mut by_name: Vec<usize> = (0..names.len()).collect();
        by_name.sort_by(|&a, &b| names[a].cmp(&names[b]));
        NameIndex { names, by_name }
    }

    fn position(&self, name: &str) -> Option<usize> {
        self.by_name
            .binary_search_by(|&i| (*self.names[i]).cmp(name))
            .ok()
            .map(|k| self.by_name[k])
    }

    fn sorted(&self) -> impl Iterator<Item = (usize, &str)> {
        self.by_name.iter().map(|&i| (i, &*self.names[i]))
    }
}

/// The sink names of one compiled plan, built once at emit. An execution
/// produces its sink results in step order, so a result's position in
/// [`ExecOutput`] *is* its sink's emit position, and names are only looked
/// up when a caller asks by name.
#[derive(Debug, Default, PartialEq, Eq)]
pub(crate) struct SinkNames {
    streams: NameIndex,
    values: NameIndex,
}

impl SinkNames {
    /// Indexes the sinks of an emitted step list.
    pub(crate) fn of(steps: &[Step]) -> SinkNames {
        let (mut streams, mut values) = (Vec::new(), Vec::new());
        for step in steps {
            match &step.op {
                NodeOp::SinkStream { name } => streams.push(Arc::clone(name)),
                NodeOp::SinkValue { name } | NodeOp::SccProbe { name } => {
                    values.push(Arc::clone(name));
                }
                _ => {}
            }
        }
        SinkNames {
            streams: NameIndex::new(streams),
            values: NameIndex::new(values),
        }
    }

    /// The emit position of the named value-producing sink.
    pub(crate) fn value_position(&self, name: &str) -> Option<usize> {
        self.values.position(name)
    }
}

/// The results of executing a plan over one input set, held by sink
/// position: each kind's results in the plan's emit order, next to the
/// plan's shared name index.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExecOutput {
    names: Arc<SinkNames>,
    streams: Vec<Bitstream>,
    values: Vec<f64>,
}

impl ExecOutput {
    fn for_plan(plan: &CompiledGraph) -> Self {
        ExecOutput {
            names: Arc::clone(&plan.sinks),
            streams: Vec::with_capacity(plan.sinks.streams.names.len()),
            values: Vec::with_capacity(plan.sinks.values.names.len()),
        }
    }

    /// The stream captured by the `SinkStream` sink of that name.
    #[must_use]
    pub fn stream(&self, name: &str) -> Option<&Bitstream> {
        self.names
            .streams
            .position(name)
            .and_then(|i| self.streams.get(i))
    }

    /// The value captured by the value-producing sink of that name
    /// (`SinkValue` or `SccProbe`).
    #[must_use]
    pub fn value(&self, name: &str) -> Option<f64> {
        self.names
            .values
            .position(name)
            .and_then(|i| self.values.get(i).copied())
    }

    /// The value-producing sinks' results in the plan's sink order: entry
    /// `i` belongs to the sink [`CompiledGraph::value_sink_index`] maps to
    /// `i`. Positional consumers resolve names once per plan and then zip.
    #[must_use]
    pub fn sink_values(&self) -> &[f64] {
        &self.values
    }

    /// Iterates over `(name, stream)` sink results in name order.
    pub fn streams(&self) -> impl Iterator<Item = (&str, &Bitstream)> {
        self.names
            .streams
            .sorted()
            .map(|(i, name)| (name, &self.streams[i]))
    }

    /// Iterates over `(name, value)` sink results in name order.
    pub fn values(&self) -> impl Iterator<Item = (&str, f64)> {
        self.names
            .values
            .sorted()
            .map(|(i, name)| (name, self.values[i]))
    }
}

/// The span stage and histogram of a worker thread running one job.
pub(crate) const WORKER_RUN: (Stage, Hist) = (Stage::WorkerRun, Hist::WorkerBusyNs);

/// The span stage and histogram of a worker thread parked waiting for work.
pub(crate) const WORKER_PARK: (Stage, Hist) = (Stage::WorkerPark, Hist::WorkerIdleNs);

/// Times one phase of a worker thread ([`WORKER_RUN`] or [`WORKER_PARK`]) as
/// a span and one histogram observation. The executor's scoped workers and
/// the [`crate::Service`] workers both record through it.
pub(crate) fn worker_phase<T>(
    telemetry: &TelemetrySink,
    (stage, hist): (Stage, Hist),
    phase: impl FnOnce() -> T,
) -> T {
    let span = telemetry.span(stage);
    let out = phase();
    telemetry.observe(hist, span.finish());
    out
}

/// One owned job of a streaming [`Executor::run_stream`] dispatch: a shared
/// handle to the compiled plan plus the input set to feed it.
///
/// Jobs are owned because the streaming engine hands them to worker
/// threads: the job — and with it the plan handle — is dropped on the
/// worker *before* its result is reported, so a bounded submission window
/// really does bound the number of simultaneously-live plans.
#[derive(Debug, Clone)]
pub struct StreamJob {
    /// The compiled plan to execute.
    pub plan: Arc<CompiledGraph>,
    /// The input set to feed it.
    pub input: BatchInput,
}

/// What one [`Executor::run_stream_with_stats`] call actually did.
///
/// `StreamStats` is the call's one tally. When the executor carries an
/// enabled [`TelemetrySink`] ([`Executor::with_telemetry`]), the call adds
/// each job to the sink at the moment it counts it (`jobs` →
/// `Counter::JobsPulled` and the job's plan class → the sink's bounded
/// class table, the one per-class view) —
/// `StreamStats` is the per-call view and the sink the cumulative view of
/// **one** set of tallies, so the two reporting paths cannot drift.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Total jobs pulled from the iterator; every one runs solo.
    pub jobs: usize,
    /// Peak number of jobs *in flight* — pulled from the iterator but not
    /// yet completed (executed inline, or reported back by a worker). This
    /// is **exact** on both dispatch paths and it never exceeds
    /// `window.max(1)` — on the error path too — which is what makes the
    /// bound useful: each worker drops its job (and plan handle) before
    /// reporting, so live-plan memory is provably O(window).
    pub peak_in_flight: usize,
    /// Always 0: lane batching was removed and every job runs solo. Kept
    /// only because the benchmark crate reads it; retired by the next
    /// benchmark change.
    pub lane_batched_jobs: usize,
    /// Always all-zero: lane groups are never formed any more. Kept only
    /// because the benchmark crate reads it; retired by the next benchmark
    /// change.
    pub lane_group_fill: [usize; LANES],
}

/// Executes compiled plans over streams of input sets.
///
/// Every job is independent: each execution runs fresh FSM instances over
/// its own word arena and reads its source samples from memoized planes
/// that hold exactly what the plan's specs would draw (through the plan's
/// handles, resolved on its first job at each stream length), so results
/// are deterministic and identical whether the jobs run on one thread or
/// many. A parallel dispatch spawns its worker threads for the call
/// (`std::thread::scope`, no external dependencies) and joins them before it
/// returns; the warm tier that keeps threads across requests is
/// [`crate::Service`]. [`Executor::run`] executes one job in place;
/// everything else goes through [`Executor::run_stream`] — a batch is a
/// materialised job list streamed with an unbounded window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Executor {
    stream_length: usize,
    threads: usize,
    telemetry: TelemetrySink,
}

/// Default streaming-window factor: [`Executor::default_window`] admits
/// `threads × DEFAULT_WINDOW_FACTOR` planned-but-unfinished jobs, enough to
/// keep every worker busy across job-size imbalance while holding memory at
/// O(window) plans.
pub const DEFAULT_WINDOW_FACTOR: usize = 4;

impl Executor {
    /// An executor generating streams of `stream_length` bits, single-threaded.
    #[must_use]
    pub fn new(stream_length: usize) -> Self {
        Executor {
            stream_length,
            threads: 1,
            telemetry: TelemetrySink::default(),
        }
    }

    /// Sets the number of worker threads a dispatch runs its jobs on
    /// (clamped to at least 1; 1 runs them inline on the caller's thread).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Attaches a [`TelemetrySink`]: subsequent dispatches record per-stage
    /// spans (dispatch, per-job execute, worker park/run), counters, the
    /// window-occupancy gauge, and job-latency histograms into it. The
    /// default sink is a no-op; instrumentation sits at step/job
    /// granularity, never inside the word kernels.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: TelemetrySink) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// The attached telemetry sink (the no-op default unless
    /// [`Executor::with_telemetry`] replaced it).
    #[must_use]
    pub fn telemetry(&self) -> &TelemetrySink {
        &self.telemetry
    }

    /// The configured stream length `N`.
    #[must_use]
    pub fn stream_length(&self) -> usize {
        self.stream_length
    }

    /// The configured worker count.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Executes the plan over one input set.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::ValueSlotOutOfRange`] /
    /// [`GraphError::StreamSlotOutOfRange`] if the input set is narrower than
    /// the plan requires, and [`GraphError::Stream`] if input streams have
    /// mismatched lengths.
    pub fn run(&self, plan: &CompiledGraph, input: &BatchInput) -> Result<ExecOutput, GraphError> {
        execute_plan(planes::global(), self.stream_length, plan, input)
    }
}

/// One job's stream slots in one word arena: `slot_count` rows of `stride`
/// words, and the length of the stream each row holds. A row's words past
/// its stream's last are unused, and the bits past its length in that last
/// word are zero. Emit gives every wire its slot when its producer is
/// emitted, so a step's operands always sit in rows below its destinations:
/// a step reads the rows below its first destination and writes its own.
struct Arena {
    words: Vec<u64>,
    lens: Vec<usize>,
    stride: usize,
}

/// Read access to an arena's rows.
#[derive(Clone, Copy)]
struct Slots<'a> {
    words: &'a [u64],
    lens: &'a [usize],
    stride: usize,
}

impl<'a> Slots<'a> {
    fn len(self, slot: usize) -> usize {
        self.lens[slot]
    }

    /// The packed words of the stream in `slot`.
    fn words(self, slot: usize) -> &'a [u64] {
        let start = slot * self.stride;
        &self.words[start..start + self.lens[slot].div_ceil(WORD_BITS)]
    }

    /// The number of 1s of the stream in `slot`.
    fn count_ones(self, slot: usize) -> u64 {
        self.words(slot)
            .iter()
            .map(|w| u64::from(w.count_ones()))
            .sum()
    }

    /// An owned copy of the stream in `slot`, for the kernels that take
    /// [`Bitstream`]s.
    fn stream(self, slot: usize) -> Bitstream {
        Bitstream::from_words(self.words(slot).to_vec(), self.len(slot))
    }

    /// The common length of the streams in `x` and `y`; otherwise the
    /// mismatch error a kernel taking `(x, y)` reports.
    fn common_len(self, x: usize, y: usize) -> Result<usize, GraphError> {
        match (self.len(x), self.len(y)) {
            (left, right) if left == right => Ok(left),
            (left, right) => Err(mismatch(left, right)),
        }
    }
}

impl Arena {
    fn new(slots: usize, stride: usize) -> Self {
        Arena {
            words: vec![0; slots * stride],
            lens: vec![0; slots],
            stride,
        }
    }

    fn slots(&self) -> Slots<'_> {
        Slots {
            words: &self.words,
            lens: &self.lens,
            stride: self.stride,
        }
    }

    /// Makes row `dst` hold a `len`-bit stream: the rows below it to read,
    /// and the stream's words to write.
    fn row(&mut self, dst: usize, len: usize) -> (Slots<'_>, &mut [u64]) {
        self.lens[dst] = len;
        let (below, rows) = self.words.split_at_mut(dst * self.stride);
        let slots = Slots {
            words: below,
            lens: &self.lens,
            stride: self.stride,
        };
        (slots, &mut rows[..len.div_ceil(WORD_BITS)])
    }

    /// [`Arena::row`] for the pair of destinations `dst` and `dst + 1`.
    fn rows(&mut self, dst: usize, len: usize) -> (Slots<'_>, &mut [u64], &mut [u64]) {
        let words = len.div_ceil(WORD_BITS);
        self.lens[dst] = len;
        self.lens[dst + 1] = len;
        let (below, rows) = self.words.split_at_mut(dst * self.stride);
        let (row_x, row_y) = rows.split_at_mut(self.stride);
        let slots = Slots {
            words: below,
            lens: &self.lens,
            stride: self.stride,
        };
        (slots, &mut row_x[..words], &mut row_y[..words])
    }

    /// Copies `stream` into row `dst`.
    fn put(&mut self, dst: usize, stream: &Bitstream) {
        self.row(dst, stream.len())
            .1
            .copy_from_slice(stream.as_words());
    }
}

/// The length-mismatch error of two operand streams.
fn mismatch(left: usize, right: usize) -> GraphError {
    GraphError::Stream(sc_bitstream::Error::LengthMismatch { left, right })
}

/// Clears the bits past `len` in the last word of a `len`-bit stream.
fn mask_tail(words: &mut [u64], len: usize) {
    if let Some(last) = words.last_mut() {
        *last &= u64::MAX >> ((WORD_BITS - len % WORD_BITS) % WORD_BITS);
    }
}

/// Executes one plan over one input set at stream length `n`, reading
/// samples from `planes` through the plan's handles. Free-standing so tests
/// can run it against a plane store of their own.
fn execute_plan(
    planes: &PlaneStore,
    n: usize,
    plan: &CompiledGraph,
    input: &BatchInput,
) -> Result<ExecOutput, GraphError> {
    let resolved = plan.planes.get(planes, &plan.steps, n);
    let mut draws = resolved.for_job(planes, input);
    let longest = input.streams.iter().map(Bitstream::len).fold(n, usize::max);
    let mut arena = Arena::new(plan.slot_count, longest.div_ceil(WORD_BITS));
    let mut out = ExecOutput::for_plan(plan);
    for step in &plan.steps {
        let srcs = plan.srcs(step);
        execute_step(n, step, srcs, input, &mut draws, &mut arena, &mut out)?;
    }
    Ok(out)
}

/// Executes one plan step against one job's arena — the unit
/// [`execute_plan`] is built from. Gates, multiplexers, manipulators and
/// conversions run as word loops on the arena's rows; the SCC probe runs on
/// [`Bitstream`] copies.
fn execute_step(
    n: usize,
    step: &Step,
    srcs: &[usize],
    input: &BatchInput,
    draws: &mut JobPlanes,
    arena: &mut Arena,
    out: &mut ExecOutput,
) -> Result<(), GraphError> {
    let dst = step.dst;
    match &step.op {
        NodeOp::InputStream { slot } => {
            let stream = input
                .streams
                .get(*slot)
                .ok_or(GraphError::StreamSlotOutOfRange {
                    slot: *slot,
                    provided: input.streams.len(),
                })?;
            arena.put(dst, stream);
        }
        NodeOp::Generate { slot, source, skip } => {
            let value = *input
                .values
                .get(*slot)
                .ok_or(GraphError::ValueSlotOutOfRange {
                    slot: *slot,
                    provided: input.values.len(),
                })?;
            let p = Probability::saturating(value).get();
            draws
                .comparator(source, *skip, n)
                .convert(p, n, arena.row(dst, n).1);
        }
        NodeOp::Manipulate(kind) => {
            let (x, y) = (srcs[0], srcs[1]);
            let len = arena.slots().common_len(x, y)?;
            let (slots, out_x, out_y) = arena.rows(dst, len);
            kind.process_words(slots.words(x), slots.words(y), len, out_x, out_y);
        }
        NodeOp::Regenerate { source } => {
            // S/D conversion of the stream, then D/S conversion afresh.
            let slots = arena.slots();
            let len = slots.len(srcs[0]);
            let p = match len {
                0 => 0.0,
                len => Probability::from_ratio(slots.count_ones(srcs[0]), len as u64).get(),
            };
            draws
                .comparator(source, 0, len)
                .convert(p, len, arena.row(dst, len).1);
        }
        NodeOp::Not => {
            let len = arena.slots().len(srcs[0]);
            let (slots, row) = arena.row(dst, len);
            for (z, &a) in row.iter_mut().zip(slots.words(srcs[0])) {
                *z = !a;
            }
            mask_tail(row, len);
        }
        NodeOp::Binary(op) => {
            use crate::node::BinaryOp as B;
            let (x, y) = (srcs[0], srcs[1]);
            match op {
                B::AndMultiply | B::AndMin => gate(arena, x, y, dst, |a, b| a & b),
                B::OrMax | B::SaturatingAdd => gate(arena, x, y, dst, |a, b| a | b),
                B::XorSubtract => gate(arena, x, y, dst, |a, b| a ^ b),
                B::XnorMultiply => gate(arena, x, y, dst, |a, b| !(a ^ b)),
            }?;
        }
        NodeOp::WeightedMux {
            weights,
            select,
            skip,
        } => {
            // A tree whose inputs differ in length fails with the error the
            // first mismatching input raises against the first.
            let slots = arena.slots();
            let len = slots.len(srcs[0]);
            if let Some(&s) = srcs.iter().find(|&&s| slots.len(s) != len) {
                return Err(mismatch(len, slots.len(s)));
            }
            let window = draws.select(select, *skip, weights, len);
            let (slots, row) = arena.row(dst, len);
            window.weighted_mux(weights, |k| slots.words(srcs[k]), len, row);
        }
        NodeOp::SinkStream { .. } => {
            out.streams.push(arena.slots().stream(srcs[0]));
        }
        NodeOp::SinkValue { .. } => {
            // The value `StochasticToDigital::convert` reads off the stream.
            let slots = arena.slots();
            let value = match slots.len(srcs[0]) {
                0 => 0.0,
                len => slots.count_ones(srcs[0]) as f64 / len as f64,
            };
            out.values.push(Probability::saturating(value).get());
        }
        NodeOp::SccProbe { .. } => {
            let slots = arena.slots();
            out.values
                .push(scc(&slots.stream(srcs[0]), &slots.stream(srcs[1])));
        }
    }
    Ok(())
}

/// Executes one dispatched job under a [`Stage::ScalarExecute`] span,
/// observing its duration in [`Hist::JobLatencyNs`] (globally and keyed by
/// the job's plan class).
pub(crate) fn execute_job(
    n: usize,
    job: &StreamJob,
    telemetry: &TelemetrySink,
) -> Result<ExecOutput, GraphError> {
    #[cfg(any(test, feature = "fault-injection"))]
    crate::fault::check(job);
    let span = telemetry.span(Stage::ScalarExecute);
    let result = execute_plan(planes::global(), n, &job.plan, &job.input);
    let dur_ns = span.finish();
    if telemetry.is_enabled() {
        telemetry.observe(Hist::JobLatencyNs, dur_ns);
        telemetry.class_latency(job.plan.plan_class(), dur_ns);
    }
    result
}

impl Executor {
    /// The default streaming window for this executor's worker count:
    /// `threads × `[`DEFAULT_WINDOW_FACTOR`].
    #[must_use]
    pub fn default_window(&self) -> usize {
        (self.threads * DEFAULT_WINDOW_FACTOR).max(1)
    }

    /// Streaming dispatch: pulls jobs from the iterator lazily, keeping at
    /// most `window` planned-but-unfinished jobs alive at any moment, and
    /// returns the results in job order.
    ///
    /// See [`Executor::run_stream_with_stats`] for the full contract.
    ///
    /// # Errors
    ///
    /// Propagates the first per-job (in job order) error.
    pub fn run_stream<I>(&self, jobs: I, window: usize) -> Result<Vec<ExecOutput>, GraphError>
    where
        I: IntoIterator<Item = StreamJob>,
    {
        self.run_stream_with_stats(jobs, window)
            .map(|(outputs, _)| outputs)
    }

    /// The streaming dispatch engine, also reporting what it did.
    ///
    /// The iterator is pulled on the **caller's thread** — so lazy job
    /// construction (plan compilation, plan-cache lookups) is naturally
    /// serialised and needs no synchronisation — but only when fewer than
    /// `window` jobs are in flight: at most `window` (clamped to ≥ 1)
    /// planned-but-unfinished jobs exist at any moment, and each worker
    /// drops a job (and with it the plan handle) *before* reporting its
    /// result, so the window genuinely bounds live-plan memory at
    /// O(window), not O(total jobs). Results are collected in job order and
    /// are bit-identical at any worker count and any window, because every
    /// job executes with fresh FSMs and deterministic source samples.
    ///
    /// With one configured thread the jobs run inline on the caller's
    /// thread, one at a time, which is also the sequential reference the
    /// parallel path is tested against. With more, the call spawns that many
    /// scoped worker threads, hands them `(index, job)` pairs over one
    /// channel, and joins them before it returns.
    ///
    /// The window count, the [`Gauge::WindowOccupancy`] gauge and histogram
    /// and the tally live here alone: every job runs solo through the one
    /// per-job engine, and [`StreamStats`] reports what the call did.
    ///
    /// # Errors
    ///
    /// Propagates the first per-job (in job order) error. Once a job fails,
    /// no further jobs are pulled from the iterator; already-submitted jobs
    /// are drained so the returned error is deterministically the failing
    /// job with the smallest index.
    ///
    /// # Panics
    ///
    /// If a job panics on a worker thread, the original panic payload is
    /// resumed on the caller's thread once the call's workers have finished
    /// the jobs already handed to them.
    pub fn run_stream_with_stats<I>(
        &self,
        jobs: I,
        window: usize,
    ) -> Result<(Vec<ExecOutput>, StreamStats), GraphError>
    where
        I: IntoIterator<Item = StreamJob>,
    {
        let _dispatch = self.telemetry.span(Stage::Dispatch);
        let jobs = jobs.into_iter();
        if self.threads == 1 {
            return self.pull(jobs, window, None);
        }
        let (job_tx, job_rx) = mpsc::channel();
        let (report_tx, report_rx) = mpsc::channel();
        let job_rx = Mutex::new(job_rx);
        std::thread::scope(|scope| {
            for i in 0..self.threads {
                let (job_rx, report_tx) = (&job_rx, report_tx.clone());
                std::thread::Builder::new()
                    .name(format!("sc-graph-worker-{i}"))
                    .spawn_scoped(scope, move || self.work(job_rx, &report_tx))
                    .expect("worker threads spawn");
            }
            drop(report_tx);
            // `pull` drops the job sender when it returns or unwinds, which
            // lets the workers run out of jobs and the scope join them.
            self.pull(jobs, window, Some((job_tx, &report_rx)))
        })
    }

    /// The pull loop of [`Executor::run_stream_with_stats`]: runs each pulled
    /// job inline, or sends it to the call's workers and waits for their
    /// reports while the window is full.
    fn pull(
        &self,
        mut jobs: impl Iterator<Item = StreamJob>,
        window: usize,
        workers: Option<(mpsc::Sender<IndexedJob>, &mpsc::Receiver<JobReport>)>,
    ) -> Result<(Vec<ExecOutput>, StreamStats), GraphError> {
        let n = self.stream_length;
        let telemetry = &self.telemetry;
        let window = window.max(1);
        let mut slots: Vec<Slot> = Vec::with_capacity(jobs.size_hint().0);
        let mut stats = StreamStats::default();
        // Pulled but not yet finished: the window count.
        let mut in_flight = 0;
        let mut exhausted = false;
        let mut failed = false;
        loop {
            while !exhausted && !failed && in_flight < window {
                let Some(job) = jobs.next() else {
                    exhausted = true;
                    break;
                };
                in_flight += 1;
                stats.jobs += 1;
                stats.peak_in_flight = stats.peak_in_flight.max(in_flight);
                telemetry.add(Counter::JobsPulled, 1);
                telemetry.class_add_jobs(job.plan.plan_class(), 1);
                telemetry.gauge_set(Gauge::WindowOccupancy, in_flight as u64);
                telemetry.observe(Hist::WindowOccupancy, in_flight as u64);
                let index = slots.len();
                slots.push(None);
                match &workers {
                    Some((job_tx, _)) => job_tx
                        .send((index, job))
                        .expect("the workers' job receiver outlives the pull loop"),
                    None => {
                        let result = execute_job(n, &job, telemetry);
                        failed |= finish(&mut slots[index], result, &mut in_flight, telemetry);
                    }
                }
            }
            // Pulling stopped on a full window, the iterator's end, or a
            // failure; an empty window therefore means nothing is left.
            if in_flight == 0 {
                break;
            }
            let (_, reports) = workers
                .as_ref()
                .expect("inline jobs finish as they are pulled");
            let report = reports
                .recv()
                .expect("the workers hold a report sender until the pull loop ends");
            // A worker panic is resumed on the caller with its original
            // payload; the workers finish the jobs already sent and exit.
            let result = report
                .outcome
                .unwrap_or_else(|payload| resume_unwind(payload));
            failed |= finish(&mut slots[report.index], result, &mut in_flight, telemetry);
        }
        let outputs = slots
            .into_iter()
            .map(|slot| slot.expect("every pulled job reported"))
            .collect::<Result<_, _>>()?;
        Ok((outputs, stats))
    }

    /// One scoped worker of a parallel dispatch: takes `(index, job)` pairs
    /// until the pull loop drops the sender, runs each under one
    /// `catch_unwind`, and sends exactly one [`JobReport`] per job.
    fn work(&self, jobs: &Mutex<mpsc::Receiver<IndexedJob>>, reports: &mpsc::Sender<JobReport>) {
        let telemetry = &self.telemetry;
        loop {
            let next = worker_phase(telemetry, WORKER_PARK, || {
                jobs.lock()
                    .expect("the job receiver lock is never poisoned: jobs run outside it")
                    .recv()
            });
            let Ok((index, job)) = next else {
                return;
            };
            let outcome = worker_phase(telemetry, WORKER_RUN, || {
                catch_unwind(AssertUnwindSafe(|| {
                    execute_job(self.stream_length, &job, telemetry)
                }))
            });
            // Free the job — and its plan handle — *before* the report
            // becomes visible, so the window bounds live-plan memory.
            drop(job);
            let _ = reports.send(JobReport { index, outcome });
        }
    }
}

/// Files one finished job's result into its slot and takes the job out of
/// the window, returning whether it failed.
fn finish(
    slot: &mut Slot,
    result: Result<ExecOutput, GraphError>,
    in_flight: &mut usize,
    telemetry: &TelemetrySink,
) -> bool {
    *in_flight -= 1;
    let failed = result.is_err();
    if failed {
        telemetry.add(Counter::JobsFailed, 1);
    }
    telemetry.gauge_set(Gauge::WindowOccupancy, *in_flight as u64);
    *slot = Some(result);
    failed
}

/// One job's result slot in a `run_stream` call's result list.
type Slot = Option<Result<ExecOutput, GraphError>>;

/// A pulled job and its index in the call's result list.
type IndexedJob = (usize, StreamJob);

/// A worker's report back to its `run_stream` call: the job's index, plus
/// either its result or the panic payload that took it down — so a panic
/// still reports, and the call never waits on a report that never comes.
struct JobReport {
    index: usize,
    outcome: std::thread::Result<Result<ExecOutput, GraphError>>,
}

/// A two-input gate as a word loop from rows `x` and `y` into row `dst`.
fn gate(
    arena: &mut Arena,
    x: usize,
    y: usize,
    dst: usize,
    f: impl Fn(u64, u64) -> u64,
) -> Result<(), GraphError> {
    let len = arena.slots().common_len(x, y)?;
    let (slots, row) = arena.row(dst, len);
    for ((z, &a), &b) in row.iter_mut().zip(slots.words(x)).zip(slots.words(y)) {
        *z = f(a, b);
    }
    mask_tail(row, len);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{BinaryOp, ManipulatorKind};
    use crate::{Graph, PlannerOptions};
    use proptest::prelude::*;
    use sc_rng::SourceSpec;
    use sc_telemetry::Counter;
    use std::collections::HashMap;

    fn sobol(d: u32) -> SourceSpec {
        SourceSpec::Sobol { dimension: d }
    }

    /// One job per input set, all on `plan`.
    fn jobs_for<'a>(
        plan: &'a Arc<CompiledGraph>,
        inputs: &'a [BatchInput],
    ) -> impl Iterator<Item = StreamJob> + 'a {
        inputs.iter().map(|input| StreamJob {
            plan: Arc::clone(plan),
            input: input.clone(),
        })
    }

    /// One job per `(plan, input)` pair.
    fn paired<'a>(
        plans: &'a [Arc<CompiledGraph>],
        inputs: &'a [BatchInput],
    ) -> impl Iterator<Item = StreamJob> + 'a {
        plans.iter().zip(inputs).map(|(plan, input)| StreamJob {
            plan: Arc::clone(plan),
            input: input.clone(),
        })
    }

    #[test]
    fn generate_and_sink_round_trip() {
        let mut g = Graph::new();
        let x = g.generate(0, SourceSpec::VanDerCorput { offset: 0 });
        g.sink_value("v", x);
        g.sink_value("c", x);
        g.sink_stream("s", x);
        let plan = g.compile(&PlannerOptions::default()).unwrap();
        let out = Executor::new(256)
            .run(&plan, &BatchInput::with_values(vec![0.25]))
            .unwrap();
        assert!((out.value("v").unwrap() - 0.25).abs() < 1e-12);
        assert_eq!(out.value("c").unwrap() * 256.0, 64.0, "64 ones in 256 bits");
        assert_eq!(out.stream("s").unwrap().len(), 256);
        assert_eq!(out.streams().count(), 1);
        assert_eq!(out.values().count(), 2);
    }

    #[test]
    fn missing_inputs_are_reported() {
        let mut g = Graph::new();
        let x = g.generate(2, sobol(1));
        g.sink_value("v", x);
        let plan = g.compile(&PlannerOptions::default()).unwrap();
        let err = Executor::new(64)
            .run(&plan, &BatchInput::with_values(vec![0.5]))
            .unwrap_err();
        assert!(matches!(err, GraphError::ValueSlotOutOfRange { .. }));

        let mut g = Graph::new();
        let s = g.input_stream(0);
        g.sink_value("v", s);
        let plan = g.compile(&PlannerOptions::default()).unwrap();
        let err = Executor::new(64)
            .run(&plan, &BatchInput::new())
            .unwrap_err();
        assert!(matches!(err, GraphError::StreamSlotOutOfRange { .. }));
    }

    #[test]
    fn mismatched_input_streams_error() {
        // A gate, a manipulator step and a MUX adder report the operands'
        // exact lengths, in input order.
        let bad = BatchInput::with_streams(vec![Bitstream::zeros(64), Bitstream::zeros(65)]);
        let mismatch = Err(GraphError::Stream(sc_bitstream::Error::LengthMismatch {
            left: 64,
            right: 65,
        }));
        let mut g = Graph::new();
        let a = g.input_stream(0);
        let b = g.input_stream(1);
        let z = g.binary(BinaryOp::AndMultiply, a, b);
        g.sink_value("z", z);
        let gate = g.compile(&PlannerOptions::no_repair()).unwrap();
        assert_eq!(Executor::new(64).run(&gate, &bad), mismatch);
        let mut g = Graph::new();
        let a = g.input_stream(0);
        let b = g.input_stream(1);
        let (sa, sb) = g.manipulate(ManipulatorKind::Synchronizer { depth: 2 }, a, b);
        g.sink_stream("a", sa);
        g.sink_stream("b", sb);
        let manipulate = g.compile(&PlannerOptions::default()).unwrap();
        assert_eq!(Executor::new(64).run(&manipulate, &bad), mismatch);
        let mut g = Graph::new();
        let a = g.input_stream(0);
        let b = g.input_stream(1);
        let select = SourceSpec::Lfsr {
            width: 16,
            seed: 0xACE1,
        };
        let z = g.mux_add(a, b, select);
        g.sink_stream("z", z);
        let mux_add = g.compile(&PlannerOptions::default()).unwrap();
        assert_eq!(Executor::new(64).run(&mux_add, &bad), mismatch);
    }

    #[test]
    fn scc_probe_sink() {
        let mut g = Graph::new();
        let x = g.generate(0, sobol(1));
        let y = g.generate(1, sobol(1)); // shared spec: positively correlated
        g.scc_probe("scc", x, y);
        let plan = g.compile(&PlannerOptions::default()).unwrap();
        let out = Executor::new(256)
            .run(&plan, &BatchInput::with_values(vec![0.5, 0.5]))
            .unwrap();
        assert!(out.value("scc").unwrap() > 0.99);
    }

    #[test]
    fn auto_inserted_synchronizer_fixes_xor_accuracy() {
        let (px, py) = (0.6, 0.6);
        let build = |options: &PlannerOptions| {
            let mut g = Graph::new();
            let x = g.generate(0, sobol(1));
            let y = g.generate(1, sobol(3));
            let z = g.binary(BinaryOp::XorSubtract, x, y);
            g.sink_value("z", z);
            g.compile(options).unwrap()
        };
        let exec = Executor::new(1024);
        let input = BatchInput::with_values(vec![px, py]);
        let broken = exec
            .run(&build(&PlannerOptions::no_repair()), &input)
            .unwrap();
        let repaired = exec
            .run(&build(&PlannerOptions::default()), &input)
            .unwrap();
        // |0.6 − 0.6| = 0: uncorrelated XOR instead computes ≈ 2·p(1−p).
        assert!(broken.value("z").unwrap() > 0.3);
        assert!(repaired.value("z").unwrap() < 0.05);
    }

    #[test]
    fn chained_manipulators_match_stagewise_bits() {
        use sc_core::CorrelationManipulator;
        let mut g = Graph::new();
        let x = g.input_stream(0);
        let y = g.input_stream(1);
        let (a0, a1) = g.manipulate(ManipulatorKind::Synchronizer { depth: 2 }, x, y);
        let (b0, b1) = g.manipulate(ManipulatorKind::Desynchronizer { depth: 1 }, a0, a1);
        g.sink_stream("x", b0);
        g.sink_stream("y", b1);
        let plan = g.compile(&PlannerOptions::default()).unwrap();
        let (sx, sy) = (
            Bitstream::from_fn(301, |i| (i * 7 + 1) % 3 == 0),
            Bitstream::from_fn(301, |i| (i * 5 + 2) % 4 < 2),
        );
        let input = BatchInput::with_streams(vec![sx.clone(), sy.clone()]);
        let out = Executor::new(301).run(&plan, &input).unwrap();
        // Reference: the two circuits run one after another.
        let (ix, iy) = sc_core::Synchronizer::new(2).process(&sx, &sy).unwrap();
        let (ex, ey) = sc_core::Desynchronizer::new(1).process(&ix, &iy).unwrap();
        assert_eq!(out.stream("x").unwrap(), &ex);
        assert_eq!(out.stream("y").unwrap(), &ey);
    }

    #[test]
    fn shared_select_source_matches_per_step_positioning() {
        // Two MUX adders drawing from one logically shared select LFSR via
        // per-node skips, in one plan (consecutive windows of one sequence)
        // vs in two separate plans (each positioned on its own): identical.
        let n = 301usize;
        let select = SourceSpec::Lfsr {
            width: 16,
            seed: 0x1234,
        };
        let mut shared = Graph::new();
        let a = shared.generate(0, sobol(1));
        let b = shared.generate(1, sobol(2));
        let z0 = shared.mux_add_skipped(a, b, select.clone(), 0);
        let z1 = shared.mux_add_skipped(a, b, select.clone(), n as u64);
        shared.sink_stream("z0", z0);
        shared.sink_stream("z1", z1);
        let plan = shared.compile(&PlannerOptions::default()).unwrap();
        let out = Executor::new(n)
            .run(&plan, &BatchInput::with_values(vec![0.4, 0.7]))
            .unwrap();

        let solo = |skip: u64| {
            let mut g = Graph::new();
            let a = g.generate(0, sobol(1));
            let b = g.generate(1, sobol(2));
            let z = g.mux_add_skipped(a, b, select.clone(), skip);
            g.sink_stream("z", z);
            let plan = g.compile(&PlannerOptions::default()).unwrap();
            Executor::new(n)
                .run(&plan, &BatchInput::with_values(vec![0.4, 0.7]))
                .unwrap()
                .stream("z")
                .unwrap()
                .clone()
        };
        assert_eq!(out.stream("z0").unwrap(), &solo(0));
        assert_eq!(out.stream("z1").unwrap(), &solo(n as u64));
    }

    /// One compiled template, run with per-job bindings on a `Generate`
    /// spec, a `Regenerate` spec and two selects — one rebinding within its
    /// cycle table, one to a register of another width — at 64, then 256,
    /// then 64 bits again, and unbound in between: every output equals a
    /// fresh compile of the equivalent unbound graph, so the plan's resolved
    /// handles never serve another length or the template's spec. Streams
    /// of another length than the executor's read the store, not the plan.
    #[test]
    fn resolved_planes_never_go_stale() {
        let lfsr = |width: u32, seed: u64| SourceSpec::Lfsr { width, seed };
        let build =
            |pixel: &SourceSpec, regen: &SourceSpec, blur: &SourceSpec, edge: &SourceSpec| {
                let mut g = Graph::new();
                let x = g.generate(0, pixel.clone());
                let y = g.generate(1, sobol(2));
                let c = g.generate(2, pixel.clone());
                let w = g.weighted_mux(&[x, y, c], [0.25, 0.5, 0.25], blur.clone());
                let r = g.regenerate(regen.clone(), w);
                let z = g.mux_add(r, y, edge.clone());
                for (name, wire) in [("x", x), ("c", c), ("w", w), ("r", r), ("z", z)] {
                    g.sink_stream(name, wire);
                }
                g.compile(&PlannerOptions::default()).unwrap()
            };
        let template_specs = [
            sobol(1),
            SourceSpec::VanDerCorput { offset: 0 },
            lfsr(16, 0xACE1),
            lfsr(16, 0x7331),
        ];
        let bound_specs = [
            SourceSpec::Halton { base: 3, offset: 1 },
            SourceSpec::VanDerCorput { offset: 7 },
            lfsr(16, 0xBEEF),
            lfsr(12, 0x0123),
        ];
        let [a, b, c, d] = &template_specs;
        let template = build(a, b, c, d);
        let values = vec![0.3, 0.8, 0.375];
        let unbound = BatchInput::with_values(values.clone());
        let bound = BatchInput {
            bindings: template_specs
                .iter()
                .cloned()
                .zip(bound_specs.clone())
                .collect(),
            ..unbound.clone()
        };
        for n in [64, 256, 64] {
            let exec = Executor::new(n);
            let [a, b, c, d] = &bound_specs;
            let direct = exec.run(&build(a, b, c, d), &unbound).unwrap();
            assert_eq!(exec.run(&template, &bound).unwrap(), direct, "bound, n {n}");
            let [a, b, c, d] = &template_specs;
            let direct = exec.run(&build(a, b, c, d), &unbound).unwrap();
            assert_eq!(
                exec.run(&template, &unbound).unwrap(),
                direct,
                "unbound, n {n}"
            );
            assert_ne!(
                exec.run(&template, &bound).unwrap(),
                direct,
                "the bindings change the bits at n {n}"
            );
        }

        // Input streams of another length than the executor's, in as many
        // words: the conversions and sample-plane selects over them cannot
        // use the plan's handles, which were resolved for the executor's
        // length (a shorter stream would read a tail bit, a longer one miss
        // its last samples).
        let mut g = Graph::new();
        let a = g.input_stream(0);
        let b = g.input_stream(1);
        let r = g.regenerate(SourceSpec::VanDerCorput { offset: 0 }, a);
        let z = g.mux_add(a, b, lfsr(16, 0xACE1));
        let halton = SourceSpec::Halton { base: 5, offset: 0 };
        let w = g.weighted_mux(&[a, b, r], [0.25, 0.5, 0.25], halton);
        for (name, wire) in [("r", r), ("z", z), ("w", w)] {
            g.sink_stream(name, wire);
            g.sink_value(format!("{name} value"), wire);
        }
        let plan = g.compile(&PlannerOptions::default()).unwrap();
        for (n, len) in [(64, 63), (250, 255), (64, 63)] {
            let input = BatchInput::with_streams(vec![
                Bitstream::from_fn(len, |i| (i * 7 + 1) % 3 == 0),
                Bitstream::from_fn(len, |i| (i * 5 + 2) % 4 < 2),
            ]);
            let fresh = g.compile(&PlannerOptions::default()).unwrap();
            assert_eq!(
                Executor::new(n).run(&plan, &input).unwrap(),
                Executor::new(len).run(&fresh, &input).unwrap(),
                "{len}-bit inputs at n {n}"
            );
        }
    }

    /// A full 10×10 tile of the GB→ED accelerator with the sources, skips
    /// and seeds `sc_image`'s tile graph gives it: Sobol-bank pixel
    /// generators, 3×3 Gaussian MUX trees sharing one select LFSR through
    /// `k·N` skips, optional regeneration, and XOR/MUX-adder edge pixels
    /// sharing a second select LFSR.
    fn gbed_tile(
        x0: isize,
        y0: isize,
        tile_index: u64,
        regenerate: bool,
        n: u64,
    ) -> (Graph, BatchInput) {
        const TILE: isize = 10;
        let gaussian = [1.0, 2.0, 1.0, 2.0, 4.0, 2.0, 1.0, 2.0, 1.0].map(|w: f64| w / 16.0);
        let mut g = Graph::new();
        let mut input = BatchInput::new();
        let mut pixels = HashMap::new();
        for py in -1..=TILE + 1 {
            for px in -1..=TILE + 1 {
                let (x, y) = (x0 + px, y0 + py);
                input
                    .values
                    .push((x * 7 + y * 3).rem_euclid(17) as f64 / 16.0);
                let dimension = (x.rem_euclid(4) + 4 * y.rem_euclid(2)) as u32 + 1;
                let wire = g.generate(input.values.len() - 1, sobol(dimension));
                pixels.insert((px, py), wire);
            }
        }
        let blur = SourceSpec::Lfsr {
            width: 16,
            seed: 0xACE1 ^ (tile_index.wrapping_mul(2_654_435_761) & 0xFFFF).max(1),
        };
        let mut blurred = HashMap::new();
        for gy in 0..=TILE {
            for gx in 0..=TILE {
                let taps: Vec<_> = (-1..=1)
                    .flat_map(|dy| (-1..=1).map(move |dx| (gx + dx, gy + dy)))
                    .map(|key| pixels[&key])
                    .collect();
                let k = blurred.len() as u64;
                let mut wire = g.weighted_mux_skipped(&taps, gaussian, blur.clone(), k * n);
                if regenerate {
                    wire = g.regenerate(SourceSpec::VanDerCorput { offset: 0 }, wire);
                }
                blurred.insert((gx, gy), wire);
            }
        }
        let edge = SourceSpec::Lfsr {
            width: 16,
            seed: 0x7331 ^ (tile_index.wrapping_mul(40_503) & 0xFFFF).max(1),
        };
        for y in 0..TILE {
            for x in 0..TILE {
                let b = |dx: isize, dy: isize| blurred[&(x + dx, y + dy)];
                let diagonal = g.binary(BinaryOp::XorSubtract, b(0, 0), b(1, 1));
                let anti = g.binary(BinaryOp::XorSubtract, b(1, 0), b(0, 1));
                let p = (y * TILE + x) as u64;
                let z = g.mux_add_skipped(diagonal, anti, edge.clone(), p * n);
                g.sink_value(format!("edge_{x}_{y}"), z);
            }
        }
        (g, input)
    }

    /// The plane store stays bounded under the GB→ED accelerator: a 40×40
    /// image in all three variants fills it, and a 120×120 image — tile
    /// indices 0..144, each a new pair of select seeds — adds no cycle-table
    /// bytes, with the whole store within 512 KiB.
    #[test]
    fn gbed_images_keep_the_plane_store_bounded() {
        let store = PlaneStore::default();
        let n = 256;
        let run_image = |side: isize, options: &PlannerOptions, regenerate: bool| {
            let tiles = side / 10;
            for ty in 0..tiles {
                for tx in 0..tiles {
                    let tile_index = (ty * tiles + tx) as u64;
                    let (g, input) = gbed_tile(tx * 10, ty * 10, tile_index, regenerate, n as u64);
                    let plan = g.compile(options).unwrap();
                    let out = execute_plan(&store, n, &plan, &input).unwrap();
                    assert_eq!(out.values().count(), 100);
                }
            }
        };
        let variants = [
            (PlannerOptions::no_repair(), false),
            (PlannerOptions::default(), true),
            (PlannerOptions::default(), false),
        ];
        for (options, regenerate) in &variants {
            run_image(40, options, *regenerate);
        }
        let first = store.retained_bytes();
        assert!(first.cycles > 0, "the select LFSRs read cycle tables");
        run_image(120, &PlannerOptions::no_repair(), false);
        let second = store.retained_bytes();
        assert_eq!(
            second.cycles, first.cycles,
            "new tile indices reuse the tables"
        );
        assert!(second.total() <= 512 << 10, "{second:?}");
    }

    #[test]
    fn sharded_batch_matches_sequential() {
        let mut g = Graph::new();
        let x = g.generate(0, sobol(1));
        let y = g.generate(1, SourceSpec::Halton { base: 3, offset: 0 });
        let (sx, sy) = g.manipulate(ManipulatorKind::Synchronizer { depth: 1 }, x, y);
        let z = g.binary(BinaryOp::OrMax, sx, sy);
        g.sink_stream("z", z);
        g.sink_value("zv", z);
        let plan = Arc::new(g.compile(&PlannerOptions::default()).unwrap());
        let inputs: Vec<BatchInput> = (0..13)
            .map(|i| BatchInput::with_values(vec![i as f64 / 13.0, 1.0 - i as f64 / 13.0]))
            .collect();
        let sequential = Executor::new(257)
            .run_stream(jobs_for(&plan, &inputs), usize::MAX)
            .unwrap();
        let sharded = Executor::new(257)
            .with_threads(4)
            .run_stream(jobs_for(&plan, &inputs), usize::MAX)
            .unwrap();
        assert_eq!(sequential, sharded);
        assert_eq!(sequential.len(), 13);
    }

    #[test]
    fn batch_error_propagates_from_workers() {
        let mut g = Graph::new();
        let x = g.generate(0, sobol(1));
        g.sink_value("v", x);
        let plan = Arc::new(g.compile(&PlannerOptions::default()).unwrap());
        let mut inputs = vec![BatchInput::with_values(vec![0.5]); 6];
        inputs[4] = BatchInput::new(); // missing value slot
        let err = Executor::new(64)
            .with_threads(3)
            .run_stream(jobs_for(&plan, &inputs), usize::MAX)
            .unwrap_err();
        assert!(matches!(err, GraphError::ValueSlotOutOfRange { .. }));
    }

    /// Heterogeneous dispatch: different plans — and jobs of one plan with
    /// different stream lengths — in one stream produce exactly what running
    /// each job alone produces, in job order, at any thread count.
    #[test]
    fn heterogeneous_stream_matches_individual_runs() {
        let make_plan = |flip: bool| {
            let mut g = Graph::new();
            let x = g.generate(0, sobol(1));
            let y = g.generate(1, sobol(2));
            let z = if flip {
                g.binary(BinaryOp::AndMultiply, x, y)
            } else {
                g.binary(BinaryOp::XnorMultiply, x, y)
            };
            g.sink_value("z", z);
            Arc::new(g.compile(&PlannerOptions::default()).unwrap())
        };
        let plans: Vec<Arc<CompiledGraph>> = (0..7).map(|i| make_plan(i % 2 == 0)).collect();
        let inputs: Vec<BatchInput> = (0..7)
            .map(|i| BatchInput::with_values(vec![i as f64 / 7.0, 1.0 - i as f64 / 9.0]))
            .collect();
        let solo: Vec<ExecOutput> = plans
            .iter()
            .zip(&inputs)
            .map(|(plan, input)| Executor::new(193).run(plan, input).unwrap())
            .collect();
        for threads in [1usize, 3, 8] {
            let streamed = Executor::new(193)
                .with_threads(threads)
                .run_stream(paired(&plans, &inputs), usize::MAX)
                .unwrap();
            assert_eq!(streamed, solo, "threads={threads}");
        }

        // Jobs of one stream may carry streams of different lengths:
        // sub-word, word-straddling and multi-word inputs through a
        // synchronizer, a depth-4 decorrelator and an AND gate.
        let mut g = Graph::new();
        let a = g.input_stream(0);
        let b = g.input_stream(1);
        let (sa, sb) = g.manipulate(ManipulatorKind::Synchronizer { depth: 1 }, a, b);
        let (da, db) = g.manipulate(ManipulatorKind::Decorrelator { depth: 4 }, sa, sb);
        let z = g.binary(BinaryOp::AndMultiply, da, db);
        g.sink_stream("z", z);
        let plan = Arc::new(g.compile(&PlannerOptions::default()).unwrap());
        let inputs: Vec<BatchInput> = [1usize, 63, 64, 65, 1000, 65, 1]
            .iter()
            .enumerate()
            .map(|(salt, &n)| {
                BatchInput::with_streams(vec![
                    Bitstream::from_fn(n, move |i| (i * 7 + salt * 13 + 1) % 3 == 0),
                    Bitstream::from_fn(n, move |i| (i * 5 + salt * 11 + 2) % 4 < 2),
                ])
            })
            .collect();
        let solo: Vec<ExecOutput> = inputs
            .iter()
            .map(|input| Executor::new(193).run(&plan, input).unwrap())
            .collect();
        for threads in [1usize, 3] {
            for window in [1usize, 4, usize::MAX] {
                let streamed = Executor::new(193)
                    .with_threads(threads)
                    .run_stream(jobs_for(&plan, &inputs), window)
                    .unwrap();
                assert_eq!(streamed, solo, "threads={threads}, window={window}");
            }
        }
    }

    /// A poisoned `InputStream` (length mismatch) on one shard must surface
    /// as an error — not a panic — while a run without the poisoned item
    /// keeps every shard's results in input order.
    #[test]
    fn poisoned_shard_errors_while_others_stay_ordered() {
        let mut g = Graph::new();
        let s = g.input_stream(0);
        let t = g.input_stream(1);
        let z = g.binary(BinaryOp::SaturatingAdd, s, t);
        g.sink_value("ones", z);
        let plan = Arc::new(g.compile(&PlannerOptions::no_repair()).unwrap());
        let n = 96usize;
        let item = |ones: usize| {
            BatchInput::with_streams(vec![
                Bitstream::from_fn(n, |i| i < ones),
                Bitstream::zeros(n),
            ])
        };
        // 9 items on 8 workers; item 3's second stream is poisoned with a
        // bad length.
        let mut inputs: Vec<BatchInput> = (0..9).map(item).collect();
        inputs[3].streams[1] = Bitstream::zeros(n + 1);
        let exec = Executor::new(n).with_threads(8);
        let err = exec
            .run_stream(jobs_for(&plan, &inputs), usize::MAX)
            .unwrap_err();
        assert!(matches!(err, GraphError::Stream(_)), "errors, not panics");
        // Healthy inputs: results arrive in input order across all workers,
        // identical to the sequential reference, and item-distinct (so a
        // mis-stitched order could not pass by coincidence).
        let inputs: Vec<BatchInput> = (0..9).map(item).collect();
        let sharded = exec
            .run_stream(jobs_for(&plan, &inputs), usize::MAX)
            .unwrap();
        let sequential = Executor::new(n)
            .run_stream(jobs_for(&plan, &inputs), usize::MAX)
            .unwrap();
        assert_eq!(sharded, sequential, "shard results stitched in input order");
        let counts: Vec<f64> = sharded.iter().map(|o| o.value("ones").unwrap()).collect();
        let mut sorted = counts.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(counts, sorted, "per-item counts grow with input index");
    }

    #[test]
    fn executor_accessors() {
        let exec = Executor::new(128).with_threads(0);
        assert_eq!(exec.stream_length(), 128);
        assert_eq!(exec.threads(), 1);
        assert_eq!(exec.default_window(), DEFAULT_WINDOW_FACTOR);
        assert_eq!(
            Executor::new(128).with_threads(3).default_window(),
            3 * DEFAULT_WINDOW_FACTOR
        );
        assert_eq!(Executor::new(128), Executor::new(128).clone());
        assert_ne!(Executor::new(128), Executor::new(129));
    }

    /// A small family of distinct plans plus inputs for streaming tests.
    fn stream_fixture(len: usize) -> (Vec<Arc<CompiledGraph>>, Vec<BatchInput>) {
        let make_plan = |flip: bool| {
            let mut g = Graph::new();
            let x = g.generate(0, sobol(1));
            let y = g.generate(1, sobol(2));
            let z = if flip {
                g.binary(BinaryOp::AndMultiply, x, y)
            } else {
                g.binary(BinaryOp::XnorMultiply, x, y)
            };
            g.sink_value("z", z);
            g.sink_stream("s", z);
            Arc::new(g.compile(&PlannerOptions::default()).unwrap())
        };
        let plans: Vec<Arc<CompiledGraph>> = (0..len).map(|i| make_plan(i % 2 == 0)).collect();
        let inputs: Vec<BatchInput> = (0..len)
            .map(|i| {
                BatchInput::with_values(vec![
                    (i + 1) as f64 / (len + 1) as f64,
                    1.0 - i as f64 / (len + 2) as f64,
                ])
            })
            .collect();
        (plans, inputs)
    }

    /// The acceptance matrix: heterogeneous plans streamed with windows {1,
    /// threads, 4×threads, unbounded} are bit-identical to the sequential
    /// per-job loop, in job order, at 1 and N threads, and the engine never
    /// reports more in-flight jobs than the window admits.
    #[test]
    fn run_stream_matches_sequential_at_all_windows() {
        let n = 193usize;
        let (plans, inputs) = stream_fixture(11);
        let solo: Vec<ExecOutput> = plans
            .iter()
            .zip(&inputs)
            .map(|(plan, input)| Executor::new(n).run(plan, input).unwrap())
            .collect();
        for threads in [1usize, 3, 8] {
            let exec = Executor::new(n).with_threads(threads);
            for window in [1usize, threads, 4 * threads, usize::MAX] {
                let (streamed, stats) = exec
                    .run_stream_with_stats(paired(&plans, &inputs), window)
                    .unwrap();
                assert_eq!(streamed, solo, "threads={threads}, window={window}");
                assert_eq!(stats.jobs, plans.len());
                assert!(
                    stats.peak_in_flight <= window.max(1),
                    "threads={threads}, window={window}: peak {} in flight",
                    stats.peak_in_flight
                );
                assert!(stats.peak_in_flight >= 1);
            }
        }
    }

    /// Streaming edge case: an empty job iterator completes immediately with
    /// no results — on the inline path and on the worker path alike.
    #[test]
    fn run_stream_empty_job_list() {
        for threads in [1usize, 4] {
            let exec = Executor::new(64).with_threads(threads);
            let (outputs, stats) = exec.run_stream_with_stats(std::iter::empty(), 7).unwrap();
            assert!(outputs.is_empty());
            assert_eq!(stats, StreamStats::default());
        }
    }

    /// Streaming edge case: zero-length streams execute (every op, the
    /// decorrelator repair inserts included, yields an empty stream; values
    /// are 0) rather than panicking in the word kernels.
    #[test]
    fn run_stream_zero_length_streams() {
        let mut g = Graph::new();
        let a = g.input_stream(0);
        let b = g.input_stream(1);
        let z = g.binary(BinaryOp::AndMultiply, a, b);
        g.sink_stream("s", z);
        g.sink_value("c", z);
        let plan = Arc::new(g.compile(&PlannerOptions::default()).unwrap());
        for threads in [1usize, 3] {
            let exec = Executor::new(0).with_threads(threads);
            let jobs = (0..5).map(|_| StreamJob {
                plan: Arc::clone(&plan),
                input: BatchInput::with_streams(vec![Bitstream::zeros(0), Bitstream::zeros(0)]),
            });
            let (outputs, stats) = exec.run_stream_with_stats(jobs, 2).unwrap();
            assert_eq!(outputs.len(), 5);
            assert!(stats.peak_in_flight <= 2);
            for out in &outputs {
                assert_eq!(out.stream("s").unwrap().len(), 0);
                assert_eq!(out.value("c").unwrap(), 0.0);
            }
        }
    }

    /// A window of 1 serialises planning against execution completely and
    /// still matches the unbounded dispatch bit for bit.
    #[test]
    fn run_stream_window_of_one() {
        let n = 257usize;
        let (plans, inputs) = stream_fixture(6);
        let job_iter = || {
            plans
                .iter()
                .zip(&inputs)
                .map(|(plan, input)| StreamJob {
                    plan: Arc::clone(plan),
                    input: input.clone(),
                })
                .collect::<Vec<_>>()
        };
        let exec = Executor::new(n).with_threads(4);
        let (narrow, narrow_stats) = exec.run_stream_with_stats(job_iter(), 1).unwrap();
        let (wide, _) = exec.run_stream_with_stats(job_iter(), usize::MAX).unwrap();
        assert_eq!(narrow, wide);
        assert_eq!(narrow_stats.peak_in_flight, 1);
    }

    /// A family of same-class FSM-heavy jobs (one shared plan with a
    /// synchronizer, a depth-4 decorrelator, an AND multiply and a second
    /// synchronizer over its output)
    /// streams bit-identically to solo execution at 1 and N threads, at a
    /// bounded, an unbounded and a unit window.
    #[test]
    fn fsm_plan_stream_matches_solo() {
        let mut g = Graph::new();
        let x = g.generate(0, sobol(1));
        let y = g.generate(1, SourceSpec::Halton { base: 3, offset: 0 });
        let (sx, sy) = g.manipulate(ManipulatorKind::Synchronizer { depth: 1 }, x, y);
        let (dx, dy) = g.manipulate(ManipulatorKind::Decorrelator { depth: 4 }, sx, sy);
        let z = g.binary(BinaryOp::AndMultiply, dx, dy);
        let (t, _) = g.manipulate(ManipulatorKind::Synchronizer { depth: 2 }, z, dx);
        g.sink_stream("z", z);
        g.sink_stream("t", t);
        let plan = Arc::new(g.compile(&PlannerOptions::default()).unwrap());
        let n = 257usize;
        let inputs: Vec<BatchInput> = (0..11)
            .map(|i| BatchInput::with_values(vec![i as f64 / 11.0, 1.0 - i as f64 / 13.0]))
            .collect();
        let solo: Vec<ExecOutput> = inputs
            .iter()
            .map(|input| Executor::new(n).run(&plan, input).unwrap())
            .collect();
        for threads in [1usize, 4] {
            let exec = Executor::new(n).with_threads(threads);
            let jobs = inputs.iter().map(|input| StreamJob {
                plan: Arc::clone(&plan),
                input: input.clone(),
            });
            let (streamed, stats) = exec.run_stream_with_stats(jobs, 8).unwrap();
            assert_eq!(streamed, solo, "threads={threads}");
            assert_eq!(stats.jobs, inputs.len());
            assert_eq!(
                exec.run_stream(jobs_for(&plan, &inputs), usize::MAX)
                    .unwrap(),
                solo
            );
        }
        let jobs = inputs.iter().map(|input| StreamJob {
            plan: Arc::clone(&plan),
            input: input.clone(),
        });
        let (narrow, stats) = Executor::new(n).run_stream_with_stats(jobs, 1).unwrap();
        assert_eq!(narrow, solo);
        assert_eq!(stats.jobs, inputs.len());
    }

    /// Once a job fails, the error returned is deterministically the failing
    /// job with the smallest index, regardless of scheduling.
    #[test]
    fn run_stream_reports_first_error_in_job_order() {
        let mut g = Graph::new();
        let x = g.generate(0, sobol(1));
        g.sink_value("v", x);
        let plan = Arc::new(g.compile(&PlannerOptions::default()).unwrap());
        let exec = Executor::new(64).with_threads(4);
        for _ in 0..16 {
            let jobs = (0..12).map(|i| StreamJob {
                plan: Arc::clone(&plan),
                // Jobs 3 and 7 are missing their value slot.
                input: if i == 3 || i == 7 {
                    BatchInput::new()
                } else {
                    BatchInput::with_values(vec![0.5])
                },
            });
            let err = exec.run_stream(jobs, 4).unwrap_err();
            assert!(
                matches!(err, GraphError::ValueSlotOutOfRange { provided: 0, .. }),
                "unexpected error {err:?}"
            );
        }
    }

    /// A synchronizer plan for the streaming tests.
    fn synchronizer_plan() -> Arc<CompiledGraph> {
        let mut g = Graph::new();
        let x = g.generate(0, sobol(1));
        let y = g.generate(1, sobol(2));
        let (sx, sy) = g.manipulate(ManipulatorKind::Synchronizer { depth: 1 }, x, y);
        g.sink_stream("x", sx);
        g.sink_stream("y", sy);
        Arc::new(g.compile(&PlannerOptions::default()).unwrap())
    }

    /// Jobs a report says were executed: one [`Stage::ScalarExecute`] span
    /// per job.
    fn executed_jobs(report: &sc_telemetry::TelemetryReport) -> u64 {
        report.stage_totals(Stage::ScalarExecute).0
    }

    /// `peak_in_flight` is exact on the inline path: each job runs on the
    /// caller's thread as soon as it is pulled, so the peak is 1 at any
    /// window, and every pulled job is counted.
    #[test]
    fn inline_peak_in_flight_is_exact() {
        let plan = synchronizer_plan();
        let exec = Executor::new(64);
        for window in [1usize, 3, usize::MAX] {
            let jobs = (0..9).map(|_| StreamJob {
                plan: Arc::clone(&plan),
                input: BatchInput::with_values(vec![0.4, 0.7]),
            });
            let (_, stats) = exec.run_stream_with_stats(jobs, window).unwrap();
            assert_eq!(stats.peak_in_flight, 1, "window {window}");
            assert_eq!(stats.jobs, 9);
        }
    }

    /// The sink's bounded class table — the one per-class view — partitions
    /// a call's [`StreamStats`] tally on both dispatch paths: per-class job
    /// counts sum to the global count, and each class carries one latency
    /// sample per job.
    #[test]
    fn stream_stats_attribute_jobs_per_plan_class() {
        let a = synchronizer_plan();
        let b = synchronizer_plan(); // same shape, fresh compile → distinct class
        assert_ne!(a.plan_class(), b.plan_class());
        for threads in [1usize, 4] {
            let sink = TelemetrySink::new();
            let exec = Executor::new(64)
                .with_threads(threads)
                .with_telemetry(sink.clone());
            let jobs = (0..12).map(|i| StreamJob {
                plan: Arc::clone(if i % 3 == 0 { &a } else { &b }),
                input: BatchInput::with_values(vec![0.4, 0.7]),
            });
            let (_, stats) = exec.run_stream_with_stats(jobs, usize::MAX).unwrap();

            let report = sink.drain();
            let classes = report.classes();
            assert_eq!(classes.len(), 2, "{threads} threads");
            assert!(
                classes
                    .windows(2)
                    .all(|w| w[0].plan_class < w[1].plan_class),
                "classes are sorted by id"
            );
            let sum = |f: fn(&sc_telemetry::ClassReport) -> u64| {
                classes.iter().map(f).sum::<u64>() as usize
            };
            assert_eq!(sum(|c| c.jobs), stats.jobs);
            assert_eq!(sum(|c| c.latency.count), stats.jobs);
            let jobs_of = |class: u64| report.class(class).map_or(0, |c| c.jobs);
            assert_eq!(jobs_of(a.plan_class()), 4);
            assert_eq!(jobs_of(b.plan_class()), 8);
        }
    }

    /// The documented window bound `peak_in_flight ≤ window.max(1)` holds on
    /// both dispatch paths, for successful runs and for runs whose k-th job
    /// fails. On the error path the stats struct never comes back, so the
    /// bound is read from the sink's window-occupancy gauge peak — the same
    /// tally, sampled at the same points.
    #[test]
    fn peak_in_flight_bounded_by_window_on_both_paths() {
        let plan = synchronizer_plan();
        for threads in [1usize, 4] {
            for window in [1usize, 3, usize::MAX] {
                for fail_at in [None, Some(5usize)] {
                    let sink = TelemetrySink::new();
                    let exec = Executor::new(64)
                        .with_threads(threads)
                        .with_telemetry(sink.clone());
                    let jobs = (0..10).map(|i| StreamJob {
                        plan: Arc::clone(&plan),
                        input: if fail_at == Some(i) {
                            BatchInput::new() // missing both value slots
                        } else {
                            BatchInput::with_values(vec![0.4, 0.7])
                        },
                    });
                    let result = exec.run_stream_with_stats(jobs, window);
                    let peak = match (&result, fail_at) {
                        (Ok((_, stats)), None) => stats.peak_in_flight as u64,
                        (Err(GraphError::ValueSlotOutOfRange { .. }), Some(_)) => {
                            sink.drain().gauge(Gauge::WindowOccupancy).1
                        }
                        other => panic!(
                            "unexpected outcome at {threads} threads, \
                             window {window}: {other:?}"
                        ),
                    };
                    assert!(
                        peak as usize <= window.clamp(1, 10),
                        "{threads} threads, window {window}, fail {fail_at:?}: \
                         peak {peak} exceeds the window"
                    );
                    assert!(peak >= 1);
                }
            }
        }
    }

    /// A stream whose k-th job fails still yields a drainable, *consistent*
    /// report: every pulled job was executed under a closed span
    /// (execute-span count == `JobsPulled` == the job-latency histogram
    /// count) and exactly one failure is counted — at 1 and 4 threads,
    /// window 1 and unbounded.
    #[test]
    fn failing_stream_telemetry_is_consistent() {
        let plan = synchronizer_plan();
        for threads in [1usize, 4] {
            for window in [1usize, usize::MAX] {
                let sink = TelemetrySink::new();
                let exec = Executor::new(64)
                    .with_threads(threads)
                    .with_telemetry(sink.clone());
                let jobs = (0..10).map(|i| StreamJob {
                    plan: Arc::clone(&plan),
                    input: if i == 5 {
                        BatchInput::new()
                    } else {
                        BatchInput::with_values(vec![0.4, 0.7])
                    },
                });
                let err = exec.run_stream(jobs, window).unwrap_err();
                assert!(matches!(err, GraphError::ValueSlotOutOfRange { .. }));

                let report = sink.drain();
                let pulled = report.counter(Counter::JobsPulled);
                assert!(
                    pulled >= 6,
                    "the failing job itself must have been pulled, got {pulled}"
                );
                assert_eq!(
                    executed_jobs(&report),
                    pulled,
                    "{threads} threads, window {window}: every pulled job \
                     closes a span even when the stream errors"
                );
                assert_eq!(report.histogram(Hist::JobLatencyNs).count, pulled);
                assert_eq!(report.counter(Counter::JobsFailed), 1);
            }
        }
    }

    /// The sink's counters are *derived from* [`StreamStats`] — one flush per
    /// dispatch — so after any number of dispatches the cumulative counters
    /// equal the sum of the per-call stats, field for field.
    #[test]
    fn sink_counters_are_derived_from_stream_stats() {
        let plan = synchronizer_plan();
        let sink = TelemetrySink::new();
        let exec = Executor::new(64).with_telemetry(sink.clone());
        let mut total_jobs = 0u64;
        for count in [9usize, 5] {
            let jobs = (0..count).map(|_| StreamJob {
                plan: Arc::clone(&plan),
                input: BatchInput::with_values(vec![0.4, 0.7]),
            });
            let (_, stats) = exec.run_stream_with_stats(jobs, usize::MAX).unwrap();
            total_jobs += stats.jobs as u64;
        }
        let report = sink.drain();
        assert_eq!(report.counter(Counter::JobsPulled), total_jobs);
        assert_eq!(report.counter(Counter::JobsFailed), 0);
        assert_eq!(executed_jobs(&report), total_jobs);
    }

    /// Repeated parallel dispatches on one executor, each on its own scoped
    /// workers, stay bit-identical call after call.
    #[test]
    fn repeated_dispatches_on_one_executor_are_bit_identical() {
        let n = 129usize;
        let (plans, inputs) = stream_fixture(9);
        let exec = Executor::new(n).with_threads(4);
        let first = exec
            .run_stream(paired(&plans, &inputs), usize::MAX)
            .unwrap();
        for _ in 0..5 {
            assert_eq!(
                exec.run_stream(paired(&plans, &inputs), usize::MAX)
                    .unwrap(),
                first
            );
        }
    }

    /// An injected panic in a job surfaces on the caller with its payload —
    /// inline and from a worker — and the executor keeps serving afterwards.
    #[test]
    fn injected_job_panic_resumes_on_the_caller() {
        let faulty = synchronizer_plan();
        let healthy = synchronizer_plan();
        crate::fault::panic_on_class(faulty.plan_class());
        let input = BatchInput::with_values(vec![0.4, 0.7]);
        for threads in [1usize, 3] {
            let exec = Executor::new(64).with_threads(threads);
            let jobs = (0..6).map(|i| StreamJob {
                plan: Arc::clone(if i % 3 == 1 { &faulty } else { &healthy }),
                input: input.clone(),
            });
            let payload = std::panic::catch_unwind(AssertUnwindSafe(|| exec.run_stream(jobs, 8)))
                .expect_err("the injected fault propagates to the caller");
            let message = payload
                .downcast_ref::<String>()
                .expect("the injected payload is a formatted message");
            assert!(message.contains("injected fault"), "{message}");
            let again = exec
                .run_stream(jobs_for(&healthy, &vec![input.clone(); 5]), 8)
                .unwrap();
            assert_eq!(again.len(), 5, "{threads} threads: executor still serves");
        }
        crate::fault::clear_class(faulty.plan_class());
    }

    proptest! {
        /// Random job counts, windows, and thread counts: streaming always
        /// matches the sequential per-job reference.
        #[test]
        fn run_stream_random_shapes_match_sequential(
            len in 0usize..20,
            window in 1usize..8,
            threads in 1usize..6,
        ) {
            let n = 97usize;
            let (plans, inputs) = stream_fixture(len);
            let solo: Vec<ExecOutput> = plans
                .iter()
                .zip(&inputs)
                .map(|(plan, input)| Executor::new(n).run(plan, input).unwrap())
                .collect();
            let jobs = plans.iter().zip(&inputs).map(|(plan, input)| StreamJob {
                plan: Arc::clone(plan),
                input: input.clone(),
            });
            let (streamed, stats) = Executor::new(n)
                .with_threads(threads)
                .run_stream_with_stats(jobs, window)
                .unwrap();
            prop_assert_eq!(streamed, solo);
            prop_assert!(stats.peak_in_flight <= window);
        }
    }
}
