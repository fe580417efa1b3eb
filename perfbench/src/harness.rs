//! What every workload shares: the metric map, the closed request loop,
//! repeated set-up, the telemetry tally of a traced run, and the memory
//! high-water mark.

use crate::stats::{median, percentile, quantile_of, samples_beyond, PerInput};
use sc_telemetry::{Stage, TelemetryReport};
use std::collections::{BTreeMap, VecDeque};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Fewest requests in a latency window: p95 of 200 has ten samples beyond it.
const MIN_WINDOW: usize = 200;

/// Loop time between two host-speed slices.
const SEGMENT: Duration = Duration::from_millis(25);

/// Work in one host-speed slice.
const SLICE_STEPS: usize = 100_000;

/// A slice's usual time on the reference host, a shared 2-vCPU Xeon VM at
/// 2.0 GHz. Host times are reported as if every slice had taken this long:
/// the host's other tenants slow it by a quarter or more for seconds at a
/// time, and the slice, timed next to the requests, slows with them.
const REFERENCE_SLICE_S: f64 = 0.45e-3;

/// Metric values by name; units live with the declarations in `main.rs`.
#[derive(Debug, Default)]
pub struct Metrics(pub BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0
            .insert(name, if value.is_finite() { value } else { 0.0 });
    }
}

/// A workload's result: what it attempted, what failed, and its metrics.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// Why operations failed, for the log.
    pub failures: Vec<String>,
    /// Sample counts and the like, printed with the host context.
    pub notes: Vec<(&'static str, f64)>,
}

impl Outcome {
    /// Counts one checked operation, failed unless `ok`.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(why());
        }
    }

    pub fn absorb(&mut self, stats: &LoopStats) {
        self.attempted += stats.attempted;
        self.failed += stats.failed;
        if stats.failed > 0 {
            self.failures
                .push(format!("{} requests failed or mismatched", stats.failed));
        }
    }
}

/// What one request of a closed loop did.
pub struct Step {
    pub latency_ns: u64,
    pub ok: bool,
    /// Input stream bits the request consumed.
    pub bits: f64,
}

/// Counts, latencies and wall time of one closed request loop. Request
/// times, and the cycle and window figures made of them, are
/// host-normalized (see [`closed_loop`]).
#[derive(Debug, Clone)]
pub struct LoopStats {
    pub attempted: u64,
    pub failed: u64,
    /// p50 and p95 latency (ms) of every latency window: the last requests
    /// of the fewest whole cycles holding at least `MIN_WINDOW` requests,
    /// taken at every cycle's end.
    pub window_p50: Vec<f64>,
    pub window_p95: Vec<f64>,
    pub window_len: usize,
    pub per_input: PerInput,
    pub start: Instant,
    pub end: Instant,
    /// Loops merged in (one per client thread).
    pub clients: usize,
    /// Requests and megabits per second over the median full cycle through
    /// the client's inputs, a cycle's time being the sum of its request
    /// times, summed over clients.
    pub cycle_rate: f64,
    pub cycle_mbits: f64,
    pub cycles: usize,
    /// Every host-speed slice's wall time.
    pub slices_s: Vec<f64>,
    /// Wall time spent on the slices and on scaling request times, summed
    /// over clients.
    pub gauge_s: f64,
}

impl LoopStats {
    pub fn wall_s(&self) -> f64 {
        self.end.duration_since(self.start).as_secs_f64()
    }

    /// Client-thread seconds spent on requests: the time the layers' self
    /// time is shared of.
    pub fn thread_s(&self) -> f64 {
        self.wall_s() * self.clients as f64 - self.gauge_s
    }

    pub fn merge(&mut self, other: &LoopStats) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.window_p50.extend_from_slice(&other.window_p50);
        self.window_p95.extend_from_slice(&other.window_p95);
        self.per_input.merge(&other.per_input);
        self.start = self.start.min(other.start);
        self.end = self.end.max(other.end);
        self.clients += other.clients;
        self.cycle_rate += other.cycle_rate;
        self.cycle_mbits += other.cycle_mbits;
        self.cycles += other.cycles;
        self.slices_s.extend_from_slice(&other.slices_s);
        self.gauge_s += other.gauge_s;
    }

    /// Throughput over the median cycle and latency percentiles of the
    /// median window, all in host-normalized time. Every cycle, and so every
    /// window, runs the same inputs, so the medians discard the odd slow
    /// cycle; sliding the window by one cycle uses every request in several
    /// windows.
    pub fn report(&self, m: &mut Metrics, out: &mut Outcome) {
        let wall = self.wall_s();
        m.set("requests_per_s", self.cycle_rate);
        m.set("mbits_per_s", self.cycle_mbits);
        out.notes.push(("cycles", self.cycles as f64));
        out.notes.push((
            "requests_per_s_over_wall",
            (self.attempted - self.failed) as f64 / wall,
        ));
        m.set("latency_p50_ms", median(&self.window_p50));
        m.set("latency_p95_ms", median(&self.window_p95));
        out.notes.push(("requests", self.attempted as f64));
        out.notes
            .push(("latency_windows", self.window_p50.len() as f64));
        out.notes
            .push(("latency_window_requests", self.window_len as f64));
        out.notes.push((
            "latency_p95_samples_beyond_per_window",
            samples_beyond(self.window_len, 0.95) as f64,
        ));
        out.notes.push(("measured_s", wall));
        out.notes
            .push(("host_slice_ms_p50", median(&self.slices_s) * 1e3));
        out.notes.push(("host_slices", self.slices_s.len() as f64));
    }
}

/// Runs requests back to back on the calling thread until `until`: the next
/// request starts only when the previous one has returned. Client `first`
/// of `stride` takes inputs `first, first + stride, …` cyclically; each
/// pass through its share of the inputs is one cycle. A run too short for
/// one latency window reports the percentiles of the requests it made.
///
/// Request times are host-normalized: after every `SEGMENT` of requests
/// the loop times a host-speed slice, and scales the segment's request times
/// by the reference slice time over the mean of the slices on either side.
pub fn closed_loop(
    inputs: usize,
    first: usize,
    stride: usize,
    until: Instant,
    step: impl FnMut(usize) -> Step,
) -> LoopStats {
    gauged_loop(inputs, first, stride, until, step, host_slice_s)
}

/// [`closed_loop`] with the host-speed slice timed by `slice_s`.
fn gauged_loop(
    inputs: usize,
    first: usize,
    stride: usize,
    until: Instant,
    mut step: impl FnMut(usize) -> Step,
    mut slice_s: impl FnMut() -> f64,
) -> LoopStats {
    let cycle_len = inputs.div_ceil(stride).max(1);
    let window_len = MIN_WINDOW.div_ceil(cycle_len) * cycle_len;
    let mut window = VecDeque::with_capacity(window_len + 1);
    let mut sorted = Vec::with_capacity(window_len);
    let mut stats = LoopStats {
        attempted: 0,
        failed: 0,
        window_p50: Vec::new(),
        window_p95: Vec::new(),
        window_len,
        per_input: PerInput::new(inputs),
        start: Instant::now(),
        end: Instant::now(),
        clients: 1,
        cycle_rate: 0.0,
        cycle_mbits: 0.0,
        cycles: 0,
        slices_s: Vec::new(),
        gauge_s: 0.0,
    };
    let mut cycle_s = Vec::new();
    let (mut cycle_ns, mut cycle_bits, mut bits_per_cycle) = (0.0, 0.0, 0.0);
    let mut recorded = 0u64;
    // The current segment's requests, scaled once the slice after it ran.
    let mut pending: Vec<(usize, u64, f64)> = Vec::new();
    let mut before = slice_s();
    let mut segment_start = Instant::now();
    stats.gauge_s = segment_start.duration_since(stats.start).as_secs_f64();
    let mut k = first;
    loop {
        let running = Instant::now() < until;
        if running {
            let input = k % inputs;
            k += stride;
            let s = step(input);
            stats.attempted += 1;
            stats.failed += u64::from(!s.ok);
            pending.push((input, s.latency_ns, s.bits));
            if segment_start.elapsed() < SEGMENT {
                continue;
            }
        }
        let gauge_start = Instant::now();
        let after = slice_s();
        stats.slices_s.push(after);
        let scale = host_scale(before, after);
        for (input, ns, bits) in pending.drain(..) {
            let ns = ns as f64 * scale;
            window.push_back(ns / 1e6);
            if window.len() > window_len {
                window.pop_front();
            }
            stats.per_input.add(input, ns as u64);
            cycle_ns += ns;
            cycle_bits += bits;
            recorded += 1;
            if recorded.is_multiple_of(cycle_len as u64) {
                cycle_s.push(cycle_ns / 1e9);
                // Every cycle runs the same inputs, so carries the same bits.
                bits_per_cycle = cycle_bits;
                (cycle_ns, cycle_bits) = (0.0, 0.0);
                if window.len() == window_len {
                    window_percentiles(&window, &mut sorted, &mut stats);
                }
            }
        }
        segment_start = Instant::now();
        stats.gauge_s += segment_start.duration_since(gauge_start).as_secs_f64();
        if !running {
            break;
        }
        before = after;
    }
    stats.end = Instant::now();
    if stats.window_p50.is_empty() && !window.is_empty() {
        window_percentiles(&window, &mut sorted, &mut stats);
    }
    let cycles = cycle_s.len();
    if cycles > 0 {
        let t = median(&cycle_s);
        stats.cycle_rate = cycle_len as f64 / t;
        stats.cycle_mbits = bits_per_cycle / t / 1e6;
    }
    stats.cycles = cycles;
    stats
}

/// The factor that turns a time measured between two host-speed slices
/// into reference-host time.
fn host_scale(before_s: f64, after_s: f64) -> f64 {
    REFERENCE_SLICE_S * 2.0 / (before_s + after_s)
}

/// Times one host-speed slice: a fixed piece of integer and L1 work that
/// calls nothing outside this crate, so the program's code cannot change it.
fn host_slice_s() -> f64 {
    let t = Instant::now();
    black_box(slice_work(black_box(SLICE_STEPS)));
    t.elapsed().as_secs_f64()
}

/// Xorshift steps feeding scattered read-modify-writes of a 4 KiB table and
/// population counts: the kind of work the circuits and the graph executor
/// do on stream words.
fn slice_work(steps: usize) -> u64 {
    let mut table = [0u64; 512];
    let (mut x, mut acc) = (0x9E37_79B9_7F4A_7C15u64, 0u64);
    for i in 0..steps {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let j = (x as usize) & 511;
        table[j] = table[j].wrapping_add(x) ^ table[i & 511].rotate_left(7);
        acc = acc.wrapping_add(u64::from((table[j] & x).count_ones()));
    }
    acc
}

fn window_percentiles(window: &VecDeque<f64>, sorted: &mut Vec<f64>, stats: &mut LoopStats) {
    sorted.clear();
    sorted.extend(window);
    sorted.sort_by(f64::total_cmp);
    stats.window_p50.push(percentile(sorted, 0.5));
    stats.window_p95.push(percentile(sorted, 0.95));
}

pub fn deadline(seconds: f64) -> Instant {
    Instant::now() + Duration::from_secs_f64(seconds)
}

/// Runs `setup` `repeats` times and returns the last result with the median
/// set-up time, each repeat host-normalized by the slices on either side of
/// it. Every repeat must produce the same inputs (the first element) from
/// the same seed; a repeat that does not counts as a failure.
pub fn repeated_setup<I: PartialEq, X>(
    repeats: usize,
    out: &mut Outcome,
    mut setup: impl FnMut(&mut Outcome) -> (I, X),
) -> (I, X, f64) {
    let mut times = Vec::with_capacity(repeats);
    let mut last: Option<(I, X)> = None;
    let mut before = host_slice_s();
    for _ in 0..repeats.max(1) {
        let t = Instant::now();
        let made = setup(out);
        let took = t.elapsed().as_secs_f64();
        let after = host_slice_s();
        times.push(took * host_scale(before, after));
        before = after;
        // The previous repeat's state is dropped outside the timed region.
        if let Some((prev, _)) = last.take() {
            out.check(prev == made.0, || {
                "set-up generated different inputs from the same seed".into()
            });
        }
        last = Some(made);
    }
    let (inputs, extra) = last.expect("at least one set-up ran");
    (inputs, extra, median(&times))
}

/// Telemetry stages reported per traced request, next to the outside spans.
pub const TELEMETRY_STAGES: [(Stage, &str); 5] = [
    (Stage::Compile, "telemetry.compile.ms_per_request"),
    (Stage::Retarget, "telemetry.retarget.ms_per_request"),
    (
        Stage::LaneGroupExecute,
        "telemetry.execute.lane_group.ms_per_request",
    ),
    (
        Stage::ScalarExecute,
        "telemetry.execute.scalar.ms_per_request",
    ),
    (
        Stage::ServeCoalesce,
        "telemetry.serve.coalesce.ms_per_request",
    ),
];

/// What the traced run reads from an attached telemetry sink's spans.
#[derive(Debug, Clone, Default)]
pub struct SinkTally {
    pub stage_ns: [u64; TELEMETRY_STAGES.len()],
    /// Per-tile execution time: scalar spans whole, lane-group spans split
    /// evenly over their fill.
    pub tile_ns: Vec<f64>,
    pub hit_ns: Vec<f64>,
    pub miss_ns: Vec<f64>,
}

impl SinkTally {
    pub fn absorb(&mut self, report: &TelemetryReport) {
        for s in &report.spans {
            if let Some(k) = TELEMETRY_STAGES.iter().position(|(st, _)| *st == s.stage) {
                self.stage_ns[k] += s.dur_ns;
            }
            match s.stage {
                Stage::ScalarExecute => self.tile_ns.push(s.dur_ns as f64),
                Stage::LaneGroupExecute if s.arg > 0 => {
                    let per = s.dur_ns as f64 / s.arg as f64;
                    self.tile_ns
                        .extend(std::iter::repeat_n(per, s.arg as usize));
                }
                Stage::PlanCacheHit => self.hit_ns.push(s.dur_ns as f64),
                Stage::PlanCacheMiss => self.miss_ns.push(s.dur_ns as f64),
                _ => {}
            }
        }
    }

    pub fn merge(&mut self, other: &SinkTally) {
        for (a, b) in self.stage_ns.iter_mut().zip(other.stage_ns) {
            *a += b;
        }
        self.tile_ns.extend_from_slice(&other.tile_ns);
        self.hit_ns.extend_from_slice(&other.hit_ns);
        self.miss_ns.extend_from_slice(&other.miss_ns);
    }

    pub fn report(&self, requests: u64, m: &mut Metrics) {
        for ((_, name), ns) in TELEMETRY_STAGES.iter().zip(self.stage_ns) {
            m.set(name, ns as f64 / 1e6 / requests.max(1) as f64);
        }
        m.set(
            "sc_graph.exec.tile_us_p50",
            quantile_of(&self.tile_ns, 0.5) / 1e3,
        );
    }
}

/// Mean lane-group fill of a fill histogram (`fill[k]` groups of `k + 1`).
pub fn lane_fill_mean(fill: impl IntoIterator<Item = u64>) -> f64 {
    let (mut groups, mut jobs) = (0u64, 0u64);
    for (k, n) in fill.into_iter().enumerate() {
        groups += n;
        jobs += (k as u64 + 1) * n;
    }
    if groups == 0 {
        0.0
    } else {
        jobs as f64 / groups as f64
    }
}

/// The process's resident-memory high-water mark in MiB (Linux `VmHWM`).
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_fill_mean_weights_groups_by_size() {
        // Two singletons and one full group of four: (1 + 1 + 4) / 3.
        assert!((lane_fill_mean([2, 0, 0, 1]) - 2.0).abs() < 1e-12);
        assert_eq!(lane_fill_mean([0; 4]), 0.0);
    }

    #[test]
    fn closed_loop_cycles_inputs_by_stride() {
        let mut seen = Vec::new();
        let stats = closed_loop(3, 1, 2, deadline(0.02), |i| {
            seen.push(i);
            Step {
                latency_ns: 1000,
                ok: seen.len() != 2,
                bits: 8.0,
            }
        });
        assert_eq!(&seen[..5], &[1, 0, 2, 1, 0]);
        assert_eq!(stats.attempted, seen.len() as u64);
        assert_eq!(stats.failed, 1);
    }

    /// Latency windows are whole cycles of at least 200 requests, so each
    /// holds every input equally often and resolves p95; a window closes at
    /// every cycle once the first is full.
    #[test]
    fn latency_windows_hold_whole_cycles() {
        let step = |i: usize| Step {
            latency_ns: (i as u64 + 1) * 1_000_000,
            ok: true,
            bits: 1.0,
        };
        let stats = gauged_loop(50, 0, 1, deadline(0.02), step, || REFERENCE_SLICE_S);
        assert_eq!(stats.window_len, 200);
        assert!(!stats.window_p50.is_empty());
        // Inputs 1..=50 ms, four times each: ranks 100 and 190 of 200.
        assert!(stats.window_p50.iter().all(|&p| p == 25.0));
        assert!(stats.window_p95.iter().all(|&p| p == 48.0));
        assert_eq!(stats.cycles as u64, stats.attempted / 50);
        assert_eq!(stats.window_p50.len(), stats.cycles - 3);
        // A cycle is 1 + 2 + … + 50 ms of requests.
        assert!((stats.cycle_rate - 50.0 / 1.275).abs() < 1e-9);
    }

    /// On a host running at half speed the slices take twice the reference
    /// time, and every request time is halved back to reference-host time.
    #[test]
    fn request_times_are_host_normalized() {
        let step = |_| Step {
            latency_ns: 4_000_000,
            ok: true,
            bits: 1e6,
        };
        let stats = gauged_loop(8, 0, 1, deadline(0.05), step, || 2.0 * REFERENCE_SLICE_S);
        assert!(stats.cycles > 0);
        assert!(!stats.slices_s.is_empty());
        assert!(stats.window_p50.iter().all(|&p| (p - 2.0).abs() < 1e-9));
        assert!((stats.cycle_rate - 500.0).abs() < 1e-6);
        assert!((stats.cycle_mbits - 500.0).abs() < 1e-6);
        assert_eq!(host_scale(REFERENCE_SLICE_S, 3.0 * REFERENCE_SLICE_S), 0.5);
    }
}
