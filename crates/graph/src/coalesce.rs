//! The coalescing core: one single-threaded, thread-free state machine
//! behind every dispatch loop — [`Executor::run_stream`]'s inline and pool
//! paths and the [`Service`](crate::Service) dispatcher.
//!
//! A dispatch loop *admits* jobs while the window has room, executes the
//! groups the core releases (on the caller's thread or on a worker pool),
//! and reports each group back once it has finished. Everything else lives
//! here, once: the per-class lane buckets, the window count, the flush
//! decision, purging a cancelled owner's buffered jobs, and the one tally
//! every report is derived from — [`StreamStats`], the sink's counters, and
//! the lane/scalar/cross-request split of each released [`Group`].
//!
//! [`Executor::run_stream`]: crate::Executor::run_stream

use crate::exec::{StreamJob, StreamStats};
use sc_core::LANES;
use sc_telemetry::{Counter, Gauge, Hist, TelemetrySink};

/// One admitted job plus where its result goes.
pub(crate) struct Member {
    /// The submitting request (always 0 inside one `run_stream` call).
    pub owner: u64,
    /// The job's position in its owner's result list.
    pub index: usize,
    /// Admission order: the smallest `seq` is the oldest job in the window.
    seq: u64,
    /// The job itself.
    pub job: StreamJob,
}

/// A released group: 1..=[`LANES`] jobs of one plan class that execute
/// together — in lockstep lanes when it holds two or more, solo otherwise.
pub(crate) enum Group {
    /// One job, executed solo: a plan that cannot lane-batch, a window of
    /// 1, or a bucket flushed before a partner arrived. Held inline, so the
    /// common scalar job costs the dispatch loop no allocation.
    Solo(Member),
    /// 2..=[`LANES`] jobs, in admission order, executed in lockstep lanes.
    Lanes {
        /// The members, in admission order.
        members: Vec<Member>,
        /// Whether the members belong to two or more owners.
        cross_request: bool,
    },
}

impl Group {
    /// A bucket's members as a group: solo when only one is left.
    fn from_bucket(mut members: Vec<Member>) -> Self {
        if members.len() == 1 {
            return Group::Solo(members.pop().expect("one member"));
        }
        let owner = members[0].owner;
        Group::Lanes {
            cross_request: members.iter().any(|m| m.owner != owner),
            members,
        }
    }

    /// The members, in admission order.
    pub fn members(&self) -> &[Member] {
        match self {
            Group::Solo(member) => std::slice::from_ref(member),
            Group::Lanes { members, .. } => members,
        }
    }

    /// Whether the group executes through the lane-batched path.
    pub fn lane_batched(&self) -> bool {
        matches!(self, Group::Lanes { .. })
    }

    /// Whether the members belong to two or more owners.
    pub fn cross_request(&self) -> bool {
        matches!(
            self,
            Group::Lanes {
                cross_request: true,
                ..
            }
        )
    }
}

/// Jobs of one plan class waiting for lane partners, oldest first.
struct Bucket {
    class: u64,
    members: Vec<Member>,
}

/// The coalescing state machine; see the [module docs](self).
pub(crate) struct Coalescer {
    window: usize,
    workers: usize,
    buckets: Vec<Bucket>,
    next_seq: u64,
    /// Admitted jobs not yet reported done or purged: buffered plus running.
    in_window: usize,
    /// Released groups not yet reported done.
    running: usize,
    stats: StreamStats,
    telemetry: TelemetrySink,
}

impl Coalescer {
    /// A core admitting at most `window` (clamped to ≥ 1) unfinished jobs
    /// and flushing partial buckets to `workers` (clamped to ≥ 1) executors.
    /// Lane grouping needs a window of at least 2.
    pub fn new(window: usize, workers: usize, telemetry: TelemetrySink) -> Self {
        Coalescer {
            window: window.max(1),
            workers: workers.max(1),
            buckets: Vec::new(),
            next_seq: 0,
            in_window: 0,
            running: 0,
            stats: StreamStats::default(),
            telemetry,
        }
    }

    /// Whether another job may be admitted.
    pub fn has_room(&self) -> bool {
        self.in_window < self.window
    }

    /// Whether no admitted job is buffered or running.
    pub fn is_empty(&self) -> bool {
        self.in_window == 0
    }

    /// Released groups not yet reported done.
    pub fn running(&self) -> usize {
        self.running
    }

    /// Admits one job into the window. Returns the group it completes: a
    /// full lane bucket, or the job alone when it cannot lane-batch (a plan
    /// without FSM steps, or a window of 1).
    pub fn admit(&mut self, owner: u64, index: usize, job: StreamJob) -> Option<Group> {
        debug_assert!(self.has_room(), "admit past the window bound");
        self.in_window += 1;
        self.stats.jobs += 1;
        self.stats.peak_in_flight = self.stats.peak_in_flight.max(self.in_window);
        self.telemetry.add(Counter::JobsPulled, 1);
        self.telemetry
            .gauge_set(Gauge::WindowOccupancy, self.in_window as u64);
        self.telemetry
            .observe(Hist::WindowOccupancy, self.in_window as u64);
        let member = Member {
            owner,
            index,
            seq: self.next_seq,
            job,
        };
        self.next_seq += 1;
        if self.window < 2 || !member.job.plan.lane_batchable() {
            return Some(self.release(Group::Solo(member), false));
        }
        let class = member.job.plan.plan_class();
        let i = match self.buckets.iter().position(|b| b.class == class) {
            Some(i) => i,
            None => {
                self.buckets.push(Bucket {
                    class,
                    members: Vec::with_capacity(LANES),
                });
                self.buckets.len() - 1
            }
        };
        self.buckets[i].members.push(member);
        if self.buckets[i].members.len() < LANES {
            return None;
        }
        let bucket = self.buckets.swap_remove(i);
        Some(self.release(Group::from_bucket(bucket.members), true))
    }

    /// The flush decision, made once the dispatch loop can admit nothing more.
    /// While `draining` (no further job will arrive) every partial bucket
    /// is released; otherwise one per idle worker, oldest first — so the
    /// oldest buffered job always makes progress, and a straggler never
    /// waits behind a busy group while a worker sits idle.
    pub fn flush(&mut self, draining: bool) -> Vec<Group> {
        let idle = self.workers.saturating_sub(self.running);
        let mut released = Vec::new();
        while !self.buckets.is_empty() && (draining || released.len() < idle) {
            let oldest = (0..self.buckets.len())
                .min_by_key(|&i| self.buckets[i].members[0].seq)
                .expect("buckets are non-empty");
            let bucket = self.buckets.swap_remove(oldest);
            released.push(self.release(Group::from_bucket(bucket.members), true));
        }
        released
    }

    /// Reports one released group finished: its `jobs` leave the window,
    /// `failures` of them with an error.
    pub fn done(&mut self, jobs: usize, failures: usize) {
        self.running -= 1;
        self.in_window -= jobs;
        if failures > 0 {
            self.telemetry.add(Counter::JobsFailed, failures as u64);
        }
        self.telemetry
            .gauge_set(Gauge::WindowOccupancy, self.in_window as u64);
    }

    /// Drops `owner`'s buffered jobs (a cancelled, expired, or failed
    /// request), returning how many left the window. Its released jobs
    /// still run and report through [`Coalescer::done`].
    pub fn purge(&mut self, owner: u64) -> usize {
        let mut dropped = 0;
        for bucket in &mut self.buckets {
            let before = bucket.members.len();
            bucket.members.retain(|m| m.owner != owner);
            dropped += before - bucket.members.len();
        }
        self.buckets.retain(|b| !b.members.is_empty());
        self.in_window -= dropped;
        dropped
    }

    /// The tally so far.
    pub fn stats(&self) -> StreamStats {
        self.stats.clone()
    }

    /// The one tally: classifies a released group — lane-batched or scalar,
    /// bucket fill, plan class, cross-request — into the stats and the sink.
    /// `grouped` marks bucket-origin groups: lane fill is a grouping metric,
    /// so directly released scalar jobs stay out of it.
    fn release(&mut self, group: Group, grouped: bool) -> Group {
        let len = group.members().len();
        let class = group.members()[0].job.plan.plan_class();
        let lane = group.lane_batched();
        if grouped {
            self.stats.lane_group_fill[len - 1] += 1;
            self.telemetry.lane_fill_n(len, 1);
            self.telemetry.class_fill_n(class, len, 1);
        }
        if lane {
            self.stats.lane_batched_jobs += len;
            self.telemetry.add(Counter::LaneBatchedJobs, len as u64);
            self.telemetry.class_add_jobs(class, len as u64, 0);
        } else {
            self.stats.scalar_jobs += len;
            self.telemetry.add(Counter::ScalarJobs, len as u64);
            self.telemetry.class_add_jobs(class, 0, len as u64);
        }
        if group.cross_request() {
            self.telemetry
                .add(Counter::CrossRequestLaneJobs, len as u64);
        }
        self.running += 1;
        group
    }
}

#[cfg(test)]
mod tests {
    //! A randomized model-based harness over the pure core: a model dispatcher
    //! (the shape of the `Service` dispatcher, minus threads) interleaves
    //! submit, admit + flush, complete, panic, cancel, expire, and shutdown,
    //! and checks the core's invariants after every step.

    use super::*;
    use crate::exec::{execute_group, BatchInput, ExecOutput};
    use crate::node::{BinaryOp, ManipulatorKind};
    use crate::{CompiledGraph, Executor, Graph, GraphError, PlannerOptions};
    use proptest::prelude::*;
    use sc_rng::SourceSpec;
    use std::collections::{BTreeMap, HashSet, VecDeque};
    use std::sync::Arc;

    const N: usize = 33;

    /// Two lane-batchable plan classes and one scalar-only class.
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
        let scalar = Arc::new(g.compile(&PlannerOptions::default()).unwrap());
        assert!(!scalar.lane_batchable());
        vec![synchronized(2), synchronized(3), scalar]
    }

    /// How a model request ended.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Fate {
        Completed,
        Panicked,
        Cancelled,
        Expired,
        ShutDown,
    }

    /// One request as the model dispatcher tracks it.
    struct Request {
        jobs: Vec<StreamJob>,
        solo: Vec<Result<ExecOutput, GraphError>>,
        queued: VecDeque<usize>,
        remaining: usize,
        fate: Option<Fate>,
    }

    /// The model dispatcher around one core.
    struct Model {
        core: Coalescer,
        window: usize,
        workers: usize,
        requests: BTreeMap<u64, Request>,
        /// Owners with queued jobs, in round-robin order.
        intake: VecDeque<u64>,
        running: Vec<Group>,
        shutdown: bool,
        /// Every admitted `(owner, index)` key.
        admitted: HashSet<(u64, usize)>,
        /// Every admitted key that has since reported or been purged.
        settled: HashSet<(u64, usize)>,
        purged: usize,
    }

    impl Model {
        fn buffered(&self) -> usize {
            self.core.buckets.iter().map(|b| b.members.len()).sum()
        }

        fn oldest_buffered(&self) -> Option<u64> {
            self.core
                .buckets
                .iter()
                .flat_map(|b| b.members.iter().map(|m| m.seq))
                .min()
        }

        fn submit(&mut self, plans: &[Arc<CompiledGraph>], arg: u64) {
            if self.shutdown {
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
            let mut request = Request {
                queued: (0..jobs.len()).collect(),
                remaining: jobs.len(),
                jobs,
                solo,
                fate: None,
            };
            if request.remaining == 0 {
                request.fate = Some(Fate::Completed);
            } else {
                self.intake.push_back(id);
            }
            self.requests.insert(id, request);
        }

        /// One dispatcher pass: admit round-robin while the window has
        /// room, then let the core make its flush decision.
        fn pass(&mut self) {
            while self.core.has_room() {
                let Some(owner) = self.intake.pop_front() else {
                    break;
                };
                let request = self.requests.get_mut(&owner).unwrap();
                let index = request.queued.pop_front().unwrap();
                let job = request.jobs[index].clone();
                if !request.queued.is_empty() {
                    self.intake.push_back(owner);
                }
                assert!(self.admitted.insert((owner, index)), "admitted twice");
                self.running.extend(self.core.admit(owner, index, job));
            }
            let idle = self.workers.saturating_sub(self.core.running());
            let oldest = self.oldest_buffered();
            let released = self.core.flush(self.shutdown);
            if let (true, Some(seq)) = (idle > 0, oldest) {
                assert_ne!(
                    self.oldest_buffered(),
                    Some(seq),
                    "an idle worker must take the oldest buffered job"
                );
            }
            if self.shutdown {
                assert_eq!(self.buffered(), 0, "draining releases every bucket");
            }
            self.running.extend(released);
        }

        /// A running group reports; `panicked` fails the whole group.
        fn complete(&mut self, arg: u64, panicked: bool) {
            if self.running.is_empty() {
                return;
            }
            let group = self.running.swap_remove(arg as usize % self.running.len());
            let keys: Vec<(u64, usize)> =
                group.members().iter().map(|m| (m.owner, m.index)).collect();
            let results = (!panicked).then(|| {
                let mut results = Vec::new();
                execute_group(N, &group, &TelemetrySink::default(), |_, result| {
                    results.push(result);
                });
                results
            });
            let failures = results
                .iter()
                .flatten()
                .filter(|result| result.is_err())
                .count();
            self.core.done(keys.len(), failures);
            for (i, &(owner, index)) in keys.iter().enumerate() {
                assert!(self.settled.insert((owner, index)), "reported twice");
                let request = self.requests.get_mut(&owner).unwrap();
                request.remaining -= 1;
                match &results {
                    Some(results) => {
                        assert_eq!(
                            results[i], request.solo[index],
                            "grouped result differs from solo"
                        );
                        if request.remaining == 0 && request.fate.is_none() {
                            request.fate = Some(Fate::Completed);
                        }
                    }
                    None => self.resolve(owner, Fate::Panicked),
                }
            }
        }

        /// Resolves a request (first verdict wins) and drops its queued and
        /// buffered jobs, as the dispatcher does for a finished request.
        fn resolve(&mut self, owner: u64, fate: Fate) {
            let request = self.requests.get_mut(&owner).unwrap();
            if request.fate.is_some() {
                return;
            }
            request.fate = Some(fate);
            request.queued.clear();
            self.intake.retain(|&o| o != owner);
            let buffered: Vec<(u64, usize)> = self
                .core
                .buckets
                .iter()
                .flat_map(|b| b.members.iter())
                .filter(|m| m.owner == owner)
                .map(|m| (m.owner, m.index))
                .collect();
            assert_eq!(self.core.purge(owner), buffered.len());
            self.purged += buffered.len();
            for key in buffered {
                assert!(self.settled.insert(key), "purged twice");
            }
        }

        fn lapse(&mut self, arg: u64, fate: Fate) {
            let open: Vec<u64> = self
                .requests
                .iter()
                .filter(|(_, r)| r.fate.is_none())
                .map(|(&id, _)| id)
                .collect();
            if !open.is_empty() {
                self.resolve(open[arg as usize % open.len()], fate);
            }
        }

        fn shut_down(&mut self) {
            self.shutdown = true;
            let queued: Vec<u64> = self.intake.iter().copied().collect();
            for owner in queued {
                self.resolve(owner, Fate::ShutDown);
            }
        }

        fn check(&self) {
            let stats = &self.core.stats;
            let running_jobs: usize = self.running.iter().map(|g| g.members().len()).sum();
            assert!(self.core.in_window <= self.window, "window bound");
            assert_eq!(self.core.in_window, self.buffered() + running_jobs);
            assert_eq!(self.core.running(), self.running.len());
            assert!(stats.peak_in_flight <= self.window);
            assert_eq!(
                stats.jobs,
                stats.lane_batched_jobs + stats.scalar_jobs + self.purged + self.buffered(),
                "the tally partitions admitted jobs"
            );
            assert_eq!(
                self.admitted.len() - self.settled.len(),
                self.core.in_window,
                "unsettled keys are exactly the window"
            );
            for group in &self.running {
                let members = group.members();
                assert!((1..=LANES).contains(&members.len()));
                assert_eq!(group.lane_batched(), members.len() >= 2);
                let class = members[0].job.plan.plan_class();
                assert!(members.iter().all(|m| m.job.plan.plan_class() == class));
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Random interleavings of every dispatch event keep the core's
        /// invariants: the window bound holds, the tally partitions the
        /// admitted jobs, every admitted job settles exactly once, an idle
        /// worker always takes the oldest buffered job, grouped results are
        /// bit-identical to solo runs, and after shutdown drains every
        /// request has resolved exactly once.
        #[test]
        fn random_interleavings_keep_the_core_invariants(
            window in 1usize..10,
            workers in 1usize..4,
            ops in collection::vec((0u8..9, any::<u64>()), 1..80),
        ) {
            let plans = plans();
            let mut model = Model {
                core: Coalescer::new(window, workers, TelemetrySink::default()),
                window,
                workers,
                requests: BTreeMap::new(),
                intake: VecDeque::new(),
                running: Vec::new(),
                shutdown: false,
                admitted: HashSet::new(),
                settled: HashSet::new(),
                purged: 0,
            };
            for (op, arg) in ops {
                match op {
                    0 | 1 => model.submit(&plans, arg),
                    2 | 3 => model.pass(),
                    4 | 5 => model.complete(arg, false),
                    6 => model.complete(arg, arg % 5 == 0),
                    7 => model.lapse(arg, if arg % 2 == 0 { Fate::Cancelled } else { Fate::Expired }),
                    _ => {
                        if arg % 8 == 0 {
                            model.shut_down();
                        }
                    }
                }
                model.check();
            }
            // Shutdown drains: every admitted job reports, then the core is
            // empty and every request has its one verdict.
            model.shut_down();
            while !model.core.is_empty() || !model.running.is_empty() {
                model.pass();
                model.complete(0, false);
                model.check();
            }
            prop_assert_eq!(&model.admitted, &model.settled);
            for (id, request) in &model.requests {
                prop_assert!(request.fate.is_some(), "request {} never resolved", id);
            }
        }
    }
}
