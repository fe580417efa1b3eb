//! The dispatch core: one single-threaded, thread-free state machine behind
//! every dispatch loop — [`Executor::run_stream`]'s inline and pool paths
//! and the [`Service`](crate::Service) dispatcher.
//!
//! A dispatch loop *admits* jobs while the window has room, executes each
//! one (on the caller's thread or on a worker pool), and reports it back
//! once it has finished. Every admitted job is released at once and runs
//! solo; nothing is buffered. What lives here, once, is the window count
//! and the one tally every report is derived from — [`StreamStats`] and the
//! sink's counters and per-class table.
//!
//! [`Executor::run_stream`]: crate::Executor::run_stream

use crate::exec::{StreamJob, StreamStats};
use sc_telemetry::{Counter, Gauge, Hist, TelemetrySink};

/// One admitted job plus where its result goes.
pub(crate) struct Member {
    /// The submitting request (always 0 inside one `run_stream` call).
    pub owner: u64,
    /// The job's position in its owner's result list.
    pub index: usize,
    /// The job itself.
    pub job: StreamJob,
}

/// The dispatch core; see the [module docs](self).
pub(crate) struct DispatchCore {
    window: usize,
    /// Admitted jobs not yet reported done.
    in_window: usize,
    stats: StreamStats,
    telemetry: TelemetrySink,
}

impl DispatchCore {
    /// A core admitting at most `window` (clamped to ≥ 1) unfinished jobs.
    pub fn new(window: usize, telemetry: TelemetrySink) -> Self {
        DispatchCore {
            window: window.max(1),
            in_window: 0,
            stats: StreamStats::default(),
            telemetry,
        }
    }

    /// Whether another job may be admitted.
    pub fn has_room(&self) -> bool {
        self.in_window < self.window
    }

    /// Whether no admitted job is still running.
    pub fn is_empty(&self) -> bool {
        self.in_window == 0
    }

    /// Admits one job into the window and tallies it, globally and under
    /// its plan class. The job is released at once for solo execution.
    pub fn admit(&mut self, owner: u64, index: usize, job: StreamJob) -> Member {
        debug_assert!(self.has_room(), "admit past the window bound");
        self.in_window += 1;
        self.stats.jobs += 1;
        self.stats.peak_in_flight = self.stats.peak_in_flight.max(self.in_window);
        self.telemetry.add(Counter::JobsPulled, 1);
        self.telemetry.class_add_jobs(job.plan.plan_class(), 1);
        self.telemetry
            .gauge_set(Gauge::WindowOccupancy, self.in_window as u64);
        self.telemetry
            .observe(Hist::WindowOccupancy, self.in_window as u64);
        Member { owner, index, job }
    }

    /// Reports one admitted job finished, with an error when `failed`.
    pub fn done(&mut self, failed: bool) {
        self.in_window -= 1;
        if failed {
            self.telemetry.add(Counter::JobsFailed, 1);
        }
        self.telemetry
            .gauge_set(Gauge::WindowOccupancy, self.in_window as u64);
    }

    /// The tally so far.
    pub fn stats(&self) -> StreamStats {
        self.stats.clone()
    }
}

#[cfg(test)]
mod tests {
    //! A randomized model-based harness over the pure core: a model dispatcher
    //! (the shape of the `Service` dispatcher, minus threads) interleaves
    //! submit, admit, complete, panic, cancel, expire, and shutdown, and
    //! checks the core's invariants after every step.

    use super::*;
    use crate::exec::{execute_job, BatchInput, ExecOutput};
    use crate::node::{BinaryOp, ManipulatorKind};
    use crate::{CompiledGraph, Executor, Graph, GraphError, PlannerOptions};
    use proptest::prelude::*;
    use sc_rng::SourceSpec;
    use std::collections::{BTreeMap, HashSet, VecDeque};
    use std::sync::Arc;

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
        core: DispatchCore,
        window: usize,
        requests: BTreeMap<u64, Request>,
        /// Owners with queued jobs, in round-robin order.
        intake: VecDeque<u64>,
        running: Vec<Member>,
        shutdown: bool,
        /// Every admitted `(owner, index)` key.
        admitted: HashSet<(u64, usize)>,
        /// Every admitted key that has since reported.
        settled: HashSet<(u64, usize)>,
    }

    impl Model {
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

        /// One dispatcher pass: admit round-robin while the window has room.
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
                self.running.push(self.core.admit(owner, index, job));
            }
        }

        /// A running job reports; `panicked` fails it without a result.
        fn complete(&mut self, arg: u64, panicked: bool) {
            if self.running.is_empty() {
                return;
            }
            let member = self.running.swap_remove(arg as usize % self.running.len());
            let (owner, index) = (member.owner, member.index);
            let result =
                (!panicked).then(|| execute_job(N, &member.job, &TelemetrySink::default()));
            self.core
                .done(result.as_ref().is_some_and(|result| result.is_err()));
            assert!(self.settled.insert((owner, index)), "reported twice");
            let request = self.requests.get_mut(&owner).unwrap();
            request.remaining -= 1;
            match result {
                Some(result) => {
                    assert_eq!(
                        result, request.solo[index],
                        "dispatched result differs from solo"
                    );
                    if request.remaining == 0 && request.fate.is_none() {
                        request.fate = Some(Fate::Completed);
                    }
                }
                None => self.resolve(owner, Fate::Panicked),
            }
        }

        /// Resolves a request (first verdict wins) and drops its queued jobs,
        /// as the dispatcher does for a finished request.
        fn resolve(&mut self, owner: u64, fate: Fate) {
            let request = self.requests.get_mut(&owner).unwrap();
            if request.fate.is_some() {
                return;
            }
            request.fate = Some(fate);
            request.queued.clear();
            self.intake.retain(|&o| o != owner);
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
            assert!(self.core.in_window <= self.window, "window bound");
            assert_eq!(self.core.in_window, self.running.len());
            assert!(stats.peak_in_flight <= self.window);
            assert_eq!(
                stats.jobs,
                self.admitted.len(),
                "the tally counts admitted jobs"
            );
            assert_eq!(
                self.admitted.len() - self.settled.len(),
                self.core.in_window,
                "unsettled keys are exactly the window"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Random interleavings of every dispatch event keep the core's
        /// invariants: the window bound holds, the tally counts the admitted
        /// jobs, every admitted job settles exactly once, dispatched results
        /// are bit-identical to solo runs, and after shutdown drains every
        /// request has resolved exactly once.
        #[test]
        fn random_interleavings_keep_the_core_invariants(
            window in 1usize..10,
            ops in collection::vec((0u8..9, any::<u64>()), 1..80),
        ) {
            let plans = plans();
            let mut model = Model {
                core: DispatchCore::new(window, TelemetrySink::default()),
                window,
                requests: BTreeMap::new(),
                intake: VecDeque::new(),
                running: Vec::new(),
                shutdown: false,
                admitted: HashSet::new(),
                settled: HashSet::new(),
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
            while !model.core.is_empty() {
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
