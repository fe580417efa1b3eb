//! The process-wide store of data-independent sample planes, and each
//! plan's handles into it.
//!
//! Every D/S comparator, regenerator and MUX select of a plan reads a source
//! whose samples depend only on its [`SourceSpec`], its `skip` and the stream
//! length — never on the data. There is one select step, `WeightedMux`: the
//! MUX scaled adder is its two-input case under weights `[½, ½]`. The
//! executor therefore reads them from memoized planes instead of drawing
//! them per bit, per job:
//!
//! * **Sample planes** hold the `n` values `spec.build_skipped(skip)` returns,
//!   keyed by `(spec, skip, n)`. A MUX select whose source has no cycle
//!   table reads one.
//! * **Prefix planes** serve `Generate` and `Regenerate`. The paper's D/S
//!   converter (§II.B) compares `p` against a shared sample sequence, so
//!   bit `i` of its stream is set exactly when sample `i` is among the
//!   samples below `p`. A prefix plane is `sc_convert`'s [`PrefixPlane`] of
//!   a sample plane, the one the library converter also runs: per
//!   256-sample block, its prefix masks, sorted samples and bucket starts.
//!   A conversion is one bucket lookup, a search for the rank within that
//!   bucket and one copy of its mask per block, bit-identical to the per-bit
//!   compares. At the GB→ED default `n` = 256 a plane is one block.
//! * **Cycle tables** serve MUX selects driven by an LFSR of width ≤ 16. Its
//!   taps are primitive, so every seed walks the same maximal-length cycle
//!   and every `(seed, skip)` window is an offset into it: a `u16`
//!   state→position map per width finds the offset. A select rule (the
//!   cumulative walk over the tree's weights) maps each cycle position to
//!   one input; one bit-plane per input, laid over two laps of the cycle,
//!   turns each select word into one funnel shift, and a MUX tree into one
//!   pass per plane. One table per `(width, weights)` serves every seed and
//!   skip — the tile-shared select LFSRs of the GB→ED accelerator hit it for
//!   every tile index; a job binding a step to another seed looks that
//!   seed's cycle position up once.
//!
//! Planes are built once and shared across jobs and threads: a hit takes the
//! store's lock shared, only an insert takes it exclusively. The store is
//! bounded by const byte budgets; past them, planes are computed per use and
//! not kept, and a comparator without a prefix plane compares per bit. Either
//! way a plane holds exactly the samples the source would draw, so the output
//! bits never depend on what the store retains.
//!
//! A plan does not look its planes up per step: [`PlanPlanes`] resolves
//! every source-drawing step's handle once per stream length, and the plan
//! keeps the result in its [`PlanCache`].

use crate::compile::Step;
use crate::exec::BatchInput;
use crate::node::NodeOp;
use sc_bitstream::{Probability, WORD_BITS};
use sc_convert::plane::{compare, PrefixPlane};
use sc_rng::{Lfsr, RandomSource, SourceSpec};
use std::collections::HashMap;
use std::mem::size_of;
use std::sync::{Arc, Mutex, OnceLock, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Widest LFSR served from a cycle table: its positions fit a `u16`.
const MAX_CYCLE_WIDTH: u32 = 16;

/// Byte budget of the retained `(spec, skip, n)` sample planes, sized for
/// the GB→ED accelerator at `n` = 256 (its planes take ~20 KiB there).
const SAMPLE_BUDGET_BYTES: usize = 256 << 10;

/// What one retained sample plane costs beyond its samples: the map's key
/// and value slots and the `Arc` header (strong and weak counts). Charged
/// against the budget, so planes of a few samples cannot pile up unbounded.
const SAMPLE_ENTRY_BYTES: usize =
    size_of::<SampleKey>() + size_of::<SampleEntry>() + 2 * size_of::<usize>();

/// Byte budget of the retained prefix planes. One takes ~10.5 KiB per
/// 256-sample block ([`PrefixPlane::bytes`]): one block at `n` = 256, where
/// the GB→ED accelerator needs nine (~95 KiB). A plane longer than the whole
/// budget (more than 24 blocks, `n` > 6,144) is never built.
const PREFIX_BUDGET_BYTES: usize = 256 << 10;

/// What one retained prefix plane costs beyond its blocks: the plane's
/// header and its `Arc` counts.
const PREFIX_ENTRY_BYTES: usize = size_of::<PrefixPlane>() + 2 * size_of::<usize>();

/// Byte budget of the retained cycle tables (position maps and select
/// bit-planes). The GB→ED accelerator needs ~270 KiB of it: the 16-bit
/// position map, the Gaussian blur's eight planes and the edge adders' one.
const CYCLE_BUDGET_BYTES: usize = 1 << 20;

/// Stream lengths a plan keeps resolved handles for; a plan run at more
/// lengths than that resolves the rest per job.
const PLAN_LENGTHS: usize = 4;

/// The select rule of a multiplexer tree: sample `u` picks the first input
/// whose cumulative weight exceeds it; leftover mass falls to the last input.
fn select_index(u: f64, weights: &[f64]) -> usize {
    let mut u = u;
    for (idx, weight) in weights.iter().enumerate() {
        if u < *weight {
            return idx;
        }
        u -= weight;
    }
    weights.len() - 1
}

/// A MUX adder's select rule: it is the two-input tree [`Window::weighted_mux`]
/// runs under these weights, whose first input is picked exactly when
/// `u < ½`, the rule of `sc_arith::add::half_select_stream`. One allocation
/// serves every adder of the process.
pub(crate) fn half_select_weights() -> Arc<[f64]> {
    static HALF: OnceLock<Arc<[f64]>> = OnceLock::new();
    let half = Probability::HALF.get();
    Arc::clone(HALF.get_or_init(|| Arc::new([half, half])))
}

/// Number of stream bits word `w` of an `n`-bit stream holds.
fn valid_bits(n: usize, w: usize) -> usize {
    (n - w * WORD_BITS).min(WORD_BITS)
}

/// The cycle of one LFSR width: cycle index `j` is the state `j + 1` steps
/// after state 1.
struct CycleTable {
    width: u32,
    /// `position[state]` is the cycle index of `state` (entry 0 unused).
    position: Box<[u16]>,
}

impl CycleTable {
    fn bytes(width: u32) -> usize {
        (1 << width) * size_of::<u16>()
    }

    fn build(width: u32) -> Self {
        let mut lfsr = Lfsr::new(width, 1);
        let mut position = vec![0u16; 1 << width];
        for j in 0..lfsr.period() {
            lfsr.step();
            position[lfsr.state() as usize] = j as u16;
        }
        CycleTable {
            width,
            position: position.into(),
        }
    }

    fn period(&self) -> usize {
        (1 << self.width) - 1
    }
}

/// The select bit-planes of one `(width, weights)` pair.
pub(crate) struct SelectPlanes {
    cycle: Arc<CycleTable>,
    weights: Box<[f64]>,
    /// One plane per input but the last, whose mask is the complement of
    /// theirs: bit `j` of plane `k` is set iff the sample at cycle index
    /// `j mod period` selects input `k`. Two laps plus a padding word, so
    /// any window of fewer than `period` bits reads without wrapping.
    planes: Box<[Box<[u64]>]>,
}

impl SelectPlanes {
    /// Words per plane over a cycle of `period` states.
    fn plane_words(period: usize) -> usize {
        (2 * period).div_ceil(WORD_BITS) + 1
    }

    fn bytes(width: u32, inputs: usize) -> usize {
        (inputs - 1) * Self::plane_words((1 << width) - 1) * size_of::<u64>()
    }

    fn build(cycle: Arc<CycleTable>, weights: &[f64]) -> Self {
        let period = cycle.period();
        let mut planes = vec![vec![0u64; Self::plane_words(period)]; weights.len() - 1];
        // The same register and `next_unit` the executor's source would
        // run, walked once around the cycle from state 1.
        let mut lfsr = Lfsr::new(cycle.width, 1);
        for j in 0..period {
            let k = select_index(lfsr.next_unit(), weights);
            if let Some(plane) = planes.get_mut(k) {
                for bit in [j, j + period] {
                    plane[bit / WORD_BITS] |= 1 << (bit % WORD_BITS);
                }
            }
        }
        SelectPlanes {
            cycle,
            weights: weights.into(),
            planes: planes.into_iter().map(Vec::into_boxed_slice).collect(),
        }
    }

    fn serves(&self, width: u32, weights: &[f64]) -> bool {
        self.cycle.width == width
            && self.weights.len() == weights.len()
            && self
                .weights
                .iter()
                .zip(weights)
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }

    /// The cycle index of the state an LFSR of this width seeded with
    /// `seed` starts in. `Lfsr::new` applies the seed-masking rule.
    fn position(&self, seed: u64) -> usize {
        let start = Lfsr::new(self.cycle.width, seed).state() as usize;
        usize::from(self.cycle.position[start])
    }

    /// How many cycle indices past its start state a window's first sample
    /// lies after `skip` draws: the first draw steps once past the start.
    fn advance(&self, skip: u64) -> usize {
        let period = self.cycle.period() as u64;
        ((1 + skip % period) % period) as usize
    }

    /// The cycle index `advance` steps past `position`; both are below the
    /// period, so one conditional subtract wraps it.
    fn offset(&self, position: usize, advance: usize) -> usize {
        let (offset, period) = (position + advance, self.cycle.period());
        if offset >= period {
            offset - period
        } else {
            offset
        }
    }

    /// The first `words` select words of plane `k`'s window starting at
    /// cycle index `offset`: one funnel shift of two plane words each.
    fn words(&self, k: usize, offset: usize, words: usize) -> impl Iterator<Item = u64> + '_ {
        let (i, shift) = (offset / WORD_BITS, offset % WORD_BITS);
        let plane = &self.planes[k][i..=i + words];
        plane
            .iter()
            .zip(&plane[1..])
            .map(move |(&lo, &hi)| ((u128::from(hi) << WORD_BITS | u128::from(lo)) >> shift) as u64)
    }
}

/// The samples a select source draws for one step.
pub(crate) enum Select {
    /// The window starting at `offset` in a shared cycle table, `advance`
    /// indices past its register's start state.
    Cycle {
        planes: Arc<SelectPlanes>,
        offset: usize,
        advance: usize,
    },
    /// The raw samples, for sources without a cycle table.
    Samples(Arc<[f64]>),
}

impl Select {
    /// The window this handle reads.
    fn window(&self) -> Window<'_> {
        match self {
            Select::Cycle { planes, offset, .. } => Window::Cycle(planes, *offset),
            Select::Samples(samples) => Window::Samples(samples),
        }
    }
}

/// A borrowed [`Select`]: the planes one step's select words come from.
#[derive(Clone, Copy)]
pub(crate) enum Window<'a> {
    /// Select planes and the cycle index the window starts at.
    Cycle(&'a SelectPlanes, usize),
    /// The raw samples.
    Samples(&'a [f64]),
}

impl Window<'_> {
    /// The weighted multiplexer tree over `n`-bit streams: each cycle one
    /// input is sampled with probability equal to its weight, by
    /// [`select_index`] over this window's samples. `input(k)` is input
    /// `k`'s words, one input per weight. On a cycle table the output starts
    /// as the last input and takes one pass per other input's select plane.
    pub(crate) fn weighted_mux<'s>(
        self,
        weights: &[f64],
        input: impl Fn(usize) -> &'s [u64],
        n: usize,
        out: &mut [u64],
    ) {
        let last = weights.len() - 1;
        match self {
            Window::Cycle(planes, offset) => {
                // The select masks are disjoint, so on top of the last input
                // each other input flips exactly the bits its mask selects.
                let words = out.len();
                let last_words = &input(last)[..words];
                out.copy_from_slice(last_words);
                for k in 0..last {
                    let masks = planes.words(k, offset, words);
                    let flips = input(k).iter().zip(last_words).zip(masks);
                    for (out, ((&a, &b), mask)) in out.iter_mut().zip(flips) {
                        *out ^= (a ^ b) & mask;
                    }
                }
            }
            Window::Samples(samples) => {
                for (w, out) in out.iter_mut().enumerate() {
                    *out = (0..valid_bits(n, w)).fold(0, |word, i| {
                        let k = select_index(samples[w * WORD_BITS + i], weights);
                        word | (input(k)[w] & 1 << i)
                    });
                }
            }
        }
    }
}

/// The planes of one D/S comparator (`Generate` or `Regenerate`).
pub(crate) enum Comparator {
    /// Prefix masks: per block, one bucket lookup, a search of one bucket
    /// and one copy.
    Prefix(Arc<PrefixPlane>),
    /// The raw samples, compared per bit.
    Samples(Arc<[f64]>),
}

impl Comparator {
    /// D/S conversion of `p` into the `n`-bit stream `out`: bit `i` is 1
    /// iff `p` exceeds sample `i`.
    pub(crate) fn convert(&self, p: f64, n: usize, out: &mut [u64]) {
        match self {
            Comparator::Prefix(plane) => plane.convert(p, 0, n, out),
            Comparator::Samples(samples) => compare(p, samples, out),
        }
    }
}

/// Bytes the store currently retains, by kind.
#[cfg(test)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Retained {
    /// Cycle tables: position maps and select bit-planes.
    pub cycles: usize,
    /// `(spec, skip, n)` sample planes.
    pub samples: usize,
    /// Prefix planes.
    pub prefixes: usize,
}

#[cfg(test)]
impl Retained {
    pub(crate) fn total(self) -> usize {
        self.cycles + self.samples + self.prefixes
    }
}

/// A sample plane's key: the source, the draws it skips, the plane length.
type SampleKey = (SourceSpec, u64, usize);

/// A retained sample plane and, once built, its prefix plane.
struct SampleEntry {
    samples: Arc<[f64]>,
    prefix: Option<Arc<PrefixPlane>>,
}

#[derive(Default)]
struct Store {
    cycles: Vec<Arc<CycleTable>>,
    selects: Vec<Arc<SelectPlanes>>,
    samples: HashMap<SampleKey, SampleEntry>,
    cycle_bytes: usize,
    sample_bytes: usize,
    prefix_bytes: usize,
}

/// A bounded store of sample planes; [`global`] is the executor's.
#[derive(Default)]
pub(crate) struct PlaneStore {
    store: RwLock<Store>,
}

/// The process-wide plane store every execution reads.
pub(crate) fn global() -> &'static PlaneStore {
    static STORE: OnceLock<PlaneStore> = OnceLock::new();
    STORE.get_or_init(PlaneStore::default)
}

impl PlaneStore {
    // Plane builders never leave the store half-updated, so a panic
    // elsewhere while it was held leaves it usable.
    fn read(&self) -> RwLockReadGuard<'_, Store> {
        self.store.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn write(&self) -> RwLockWriteGuard<'_, Store> {
        self.store.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Bytes currently retained.
    #[cfg(test)]
    pub(crate) fn retained_bytes(&self) -> Retained {
        let store = self.read();
        Retained {
            cycles: store.cycle_bytes,
            samples: store.sample_bytes,
            prefixes: store.prefix_bytes,
        }
    }

    /// The `n` samples `spec.build_skipped(skip)` draws first, and whether
    /// the store retains them.
    fn samples(&self, spec: &SourceSpec, skip: u64, n: usize) -> (Arc<[f64]>, bool) {
        if n == 0 {
            return (Arc::new([]), false);
        }
        let key = (spec.clone(), skip, n);
        if let Some(entry) = self.read().samples.get(&key) {
            return (Arc::clone(&entry.samples), true);
        }
        // Drawn outside the lock: a plane past the budget is drawn per use.
        let mut source = spec.build_skipped(skip);
        let plane: Arc<[f64]> = (0..n).map(|_| source.next_unit()).collect();
        let bytes = SAMPLE_ENTRY_BYTES + n * size_of::<f64>();
        let mut guard = self.write();
        let store = &mut *guard;
        if store.sample_bytes + bytes <= SAMPLE_BUDGET_BYTES {
            let kept = store.samples.entry(key).or_insert_with(|| {
                store.sample_bytes += bytes;
                SampleEntry {
                    samples: Arc::clone(&plane),
                    prefix: None,
                }
            });
            return (Arc::clone(&kept.samples), true);
        }
        (plane, false)
    }

    /// The comparator planes of `(spec, skip, n)` — its prefix plane when
    /// the sample plane is retained and the prefix budget has room, else its
    /// samples — and whether the store retains them.
    pub(crate) fn comparator(&self, spec: &SourceSpec, skip: u64, n: usize) -> (Comparator, bool) {
        let (samples, kept) = self.samples(spec, skip, n);
        if !kept {
            return (Comparator::Samples(samples), false);
        }
        let key = (spec.clone(), skip, n);
        let bytes = PREFIX_ENTRY_BYTES + PrefixPlane::bytes(n);
        {
            let store = self.read();
            if let Some(prefix) = store.samples.get(&key).and_then(|e| e.prefix.as_ref()) {
                return (Comparator::Prefix(Arc::clone(prefix)), true);
            }
            if store.prefix_bytes + bytes > PREFIX_BUDGET_BYTES {
                return (Comparator::Samples(samples), true);
            }
        }
        // Built outside the lock; a racing thread's plane wins the insert.
        let built = Arc::new(PrefixPlane::from_samples(&samples));
        let mut guard = self.write();
        let store = &mut *guard;
        match store.samples.get_mut(&key) {
            Some(SampleEntry {
                prefix: Some(prefix),
                ..
            }) => (Comparator::Prefix(Arc::clone(prefix)), true),
            Some(entry) if store.prefix_bytes + bytes <= PREFIX_BUDGET_BYTES => {
                store.prefix_bytes += bytes;
                entry.prefix = Some(Arc::clone(&built));
                (Comparator::Prefix(built), true)
            }
            _ => (Comparator::Samples(samples), true),
        }
    }

    /// The select planes of `(width, weights)`, built on first use; `None`
    /// when they would not fit the cycle budget.
    fn select_planes(&self, width: u32, weights: &[f64]) -> Option<Arc<SelectPlanes>> {
        let find = |store: &Store| {
            store
                .selects
                .iter()
                .find(|p| p.serves(width, weights))
                .cloned()
        };
        if let Some(planes) = find(&self.read()) {
            return Some(planes);
        }
        let mut guard = self.write();
        let store = &mut *guard;
        // Another thread may have built them since the shared lookup.
        if let Some(planes) = find(store) {
            return Some(planes);
        }
        let cycle = store.cycles.iter().find(|c| c.width == width).cloned();
        let mut bytes = SelectPlanes::bytes(width, weights.len());
        if cycle.is_none() {
            bytes += CycleTable::bytes(width);
        }
        if store.cycle_bytes + bytes > CYCLE_BUDGET_BYTES {
            return None;
        }
        // Built under the lock: at most a few per process, bounded by the
        // budget, each one pass around a cycle of ≤ 65 535 states.
        let cycle = cycle.unwrap_or_else(|| {
            let cycle = Arc::new(CycleTable::build(width));
            store.cycles.push(Arc::clone(&cycle));
            cycle
        });
        let planes = Arc::new(SelectPlanes::build(cycle, weights));
        store.cycle_bytes += bytes;
        store.selects.push(Arc::clone(&planes));
        Some(planes)
    }

    /// The samples of `select` advanced by `skip` for an `n`-bit window,
    /// mapped through `weights`' select rule, and whether the store retains
    /// them.
    pub(crate) fn select(
        &self,
        select: &SourceSpec,
        skip: u64,
        weights: &[f64],
        n: usize,
    ) -> (Select, bool) {
        if let SourceSpec::Lfsr { width, seed } = *select {
            if (3..=MAX_CYCLE_WIDTH).contains(&width) && n < (1 << width) - 1 {
                if let Some(planes) = self.select_planes(width, weights) {
                    let advance = planes.advance(skip);
                    let offset = planes.offset(planes.position(seed), advance);
                    let select = Select::Cycle {
                        planes,
                        offset,
                        advance,
                    };
                    return (select, true);
                }
            }
        }
        let (samples, kept) = self.samples(select, skip, n);
        (Select::Samples(samples), kept)
    }
}

/// One source-drawing step's planes, resolved for one stream length.
enum Draw {
    Comparator(Comparator),
    Select(Select),
    /// The store did not retain the planes: the step reads it per use.
    PerUse,
}

/// A plan's source-drawing steps — the comparators of `Generate` and
/// `Regenerate`, and the selects of `WeightedMux`, the one select step —
/// resolved against the store for one stream length `n`: one handle per
/// step, in step order, plus each step's index into the plan's distinct
/// specs, which a job's bindings are matched against once per job.
pub(crate) struct PlanPlanes {
    n: usize,
    draws: Box<[(Draw, usize)]>,
    specs: Box<[SourceSpec]>,
}

impl PlanPlanes {
    fn resolve(store: &PlaneStore, steps: &[Step], n: usize) -> PlanPlanes {
        let mut specs: Vec<SourceSpec> = Vec::new();
        let mut draws = Vec::new();
        for step in steps {
            let Some((spec, skip)) = step.op.source() else {
                continue;
            };
            let draw = match &step.op {
                NodeOp::WeightedMux { weights, .. } => {
                    let (select_planes, kept) = store.select(spec, skip, weights, n);
                    kept.then_some(Draw::Select(select_planes))
                }
                _ => {
                    let (comparator, kept) = store.comparator(spec, skip, n);
                    kept.then_some(Draw::Comparator(comparator))
                }
            };
            let id = specs.iter().position(|s| s == spec).unwrap_or_else(|| {
                specs.push(spec.clone());
                specs.len() - 1
            });
            draws.push((draw.unwrap_or(Draw::PerUse), id));
        }
        PlanPlanes {
            n,
            draws: draws.into(),
            specs: specs.into(),
        }
    }

    /// A job's view: the handles in step order, with `input`'s bindings
    /// matched to the plan's specs.
    pub(crate) fn for_job<'a>(
        &'a self,
        store: &'a PlaneStore,
        input: &'a BatchInput,
    ) -> JobPlanes<'a> {
        let mut bound = Vec::new();
        if !input.bindings.is_empty() {
            bound = self
                .specs
                .iter()
                .map(|spec| Some((input.resolve(spec), None)).filter(|(b, _)| *b != spec))
                .collect();
        }
        JobPlanes {
            plan: self,
            store,
            bound,
            next: 0,
            fetched_comparator: None,
            fetched_select: None,
        }
    }
}

/// One job's handles: the plan's, taken one per source-drawing step (a
/// comparator, or the select of a `WeightedMux`) in step order, except where
/// the job binds a step's spec to another.
pub(crate) struct JobPlanes<'a> {
    plan: &'a PlanPlanes,
    store: &'a PlaneStore,
    /// Per plan spec, this job's binding of it (empty when it has none) and,
    /// once a select step has read it, the cycle position of the bound
    /// register's start state.
    bound: Vec<Option<(&'a SourceSpec, Option<usize>)>>,
    next: usize,
    /// The last handle read from the store rather than the plan.
    fetched_comparator: Option<Comparator>,
    fetched_select: Option<Select>,
}

impl<'a> JobPlanes<'a> {
    /// The next step's handle and its spec's binding.
    fn take(&mut self) -> (&'a Draw, Option<&mut (&'a SourceSpec, Option<usize>)>) {
        let (draw, spec) = &self.plan.draws[self.next];
        self.next += 1;
        (draw, self.bound.get_mut(*spec).and_then(Option::as_mut))
    }

    /// The comparator the next step (a `Generate` or `Regenerate` of
    /// `spec`) converts against at length `n`. The plan's handle serves it
    /// unless the spec is bound, the plane was not retained, or `n` is not
    /// the length the plan was resolved for.
    pub(crate) fn comparator(&mut self, spec: &SourceSpec, skip: u64, n: usize) -> &Comparator {
        let planned = self.plan.n == n;
        match self.take() {
            (Draw::Comparator(comparator), None) if planned => comparator,
            (_, bound) => {
                let spec = bound.map_or(spec, |(bound, _)| *bound);
                let fetched = self.store.comparator(spec, skip, n).0;
                self.fetched_comparator.insert(fetched)
            }
        }
    }

    /// The select window the next step (a `WeightedMux` of `spec`) reads at
    /// length `n`. A bound spec still reads the plan's handle when that is a
    /// cycle table of its register width: only the offset depends on the
    /// seed, through the bound register's start position, which the job
    /// looks up once.
    pub(crate) fn select(
        &mut self,
        spec: &SourceSpec,
        skip: u64,
        weights: &[f64],
        n: usize,
    ) -> Window<'_> {
        let planned = self.plan.n == n;
        let (draw, bound) = self.take();
        let spec = match (draw, bound) {
            (Draw::Select(select), None) if planned => return select.window(),
            (
                Draw::Select(Select::Cycle {
                    planes, advance, ..
                }),
                Some((&SourceSpec::Lfsr { width, seed }, position)),
            ) if planned && width == planes.cycle.width => {
                let position = *position.get_or_insert_with(|| planes.position(seed));
                return Window::Cycle(planes, planes.offset(position, *advance));
            }
            (_, bound) => bound.map_or(spec, |(bound, _)| *bound),
        };
        let fetched = self.store.select(spec, skip, weights, n).0;
        self.fetched_select.insert(fetched).window()
    }
}

/// A plan's resolved planes, one [`PlanPlanes`] per stream length it ran
/// at, built lazily on the first job of each length. Past
/// [`PLAN_LENGTHS`] lengths a job resolves its own.
#[derive(Default)]
pub(crate) struct PlanCache {
    lengths: Mutex<Vec<Arc<PlanPlanes>>>,
}

impl PlanCache {
    /// The plan's handles at length `n`, resolving them on first use.
    pub(crate) fn get(&self, store: &PlaneStore, steps: &[Step], n: usize) -> Arc<PlanPlanes> {
        // Entries are pushed whole, so a panic elsewhere leaves the list
        // usable.
        let mut lengths = self.lengths.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(planes) = lengths.iter().find(|p| p.n == n) {
            return Arc::clone(planes);
        }
        let planes = Arc::new(PlanPlanes::resolve(store, steps, n));
        if lengths.len() < PLAN_LENGTHS {
            lengths.push(Arc::clone(&planes));
        }
        planes
    }
}

impl std::fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlanCache").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphError;
    use sc_arith::add::half_select_stream;
    use sc_bitstream::Bitstream;
    use sc_convert::{DigitalToStochastic, Regenerator};

    /// The `Bitstream` faces of the store's word writers, as the executor
    /// drives them.
    impl PlaneStore {
        fn generate(&self, spec: &SourceSpec, skip: u64, p: Probability, n: usize) -> Bitstream {
            let mut words = vec![0; n.div_ceil(WORD_BITS)];
            self.comparator(spec, skip, n)
                .0
                .convert(p.get(), n, &mut words);
            Bitstream::from_words(words, n)
        }

        fn regenerate(&self, spec: &SourceSpec, skip: u64, stream: &Bitstream) -> Bitstream {
            let n = stream.len();
            if n == 0 {
                return Bitstream::new();
            }
            let p = Probability::from_ratio(stream.count_ones() as u64, n as u64);
            self.generate(spec, skip, p, n)
        }

        /// The select stream itself: a MUX adder of all-ones over all-zeros.
        fn half_select(&self, select: &SourceSpec, skip: u64, n: usize) -> Bitstream {
            let (ones, zeros) = (Bitstream::ones(n), Bitstream::zeros(n));
            self.weighted_mux(&[&ones, &zeros], &half_select_weights(), select, skip)
        }

        fn weighted_mux(
            &self,
            inputs: &[&Bitstream],
            weights: &[f64],
            select: &SourceSpec,
            skip: u64,
        ) -> Bitstream {
            let n = inputs[0].len();
            let mut words = vec![0; n.div_ceil(WORD_BITS)];
            self.select(select, skip, weights, n)
                .0
                .window()
                .weighted_mux(weights, |k| inputs[k].as_words(), n, &mut words);
            Bitstream::from_words(words, n)
        }
    }

    /// The per-bit weighted multiplexer reference: one `next_unit` and one
    /// cumulative walk per stream bit.
    fn weighted_mux_reference(
        inputs: &[&Bitstream],
        weights: &[f64],
        source: &mut dyn RandomSource,
    ) -> Result<Bitstream, GraphError> {
        let n = inputs[0].len();
        for s in inputs {
            if s.len() != n {
                return Err(GraphError::Stream(sc_bitstream::Error::LengthMismatch {
                    left: n,
                    right: s.len(),
                }));
            }
        }
        let mut masks = vec![0u64; weights.len()];
        Ok(Bitstream::from_word_fn(n, |w| {
            let valid = inputs[0].word_len(w);
            masks.iter_mut().for_each(|m| *m = 0);
            for i in 0..valid {
                let mut u = source.next_unit();
                let mut selected = weights.len() - 1;
                for (idx, weight) in weights.iter().enumerate() {
                    if u < *weight {
                        selected = idx;
                        break;
                    }
                    u -= weight;
                }
                masks[selected] |= 1u64 << i;
            }
            masks.iter().enumerate().fold(0u64, |out, (k, &mask)| {
                out | (inputs[k].as_words()[w] & mask)
            })
        }))
    }

    /// The per-bit MUX adder select reference.
    fn half_select_reference(select: &SourceSpec, skip: u64, n: usize) -> Bitstream {
        half_select_stream(&mut select.build_skipped(skip), n)
    }

    const GAUSSIAN: [f64; 9] = [
        1.0 / 16.0,
        2.0 / 16.0,
        1.0 / 16.0,
        2.0 / 16.0,
        4.0 / 16.0,
        2.0 / 16.0,
        1.0 / 16.0,
        2.0 / 16.0,
        1.0 / 16.0,
    ];

    /// Weight sets: a 3×3 Gaussian kernel, weights summing to < 1 (the
    /// leftover mass falls to the last input), and a single input.
    const WEIGHT_SETS: [&[f64]; 3] = [&GAUSSIAN, &[0.3, 0.25, 0.05, 0.1], &[1.0]];

    /// Deterministic, structure-free input streams: stream `k` of `count`.
    fn inputs(count: usize, n: usize) -> Vec<Bitstream> {
        (0..count)
            .map(|k| {
                let mut x = 0x9E37_79B9_7F4A_7C15u64 ^ (k as u64 + 1).wrapping_mul(0xBF58_476D);
                Bitstream::from_fn(n, |_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x & 1 == 1
                })
            })
            .collect()
    }

    /// Every `(seed, skip, n)` window of an LFSR select, through the cycle
    /// tables (width ≤ 16, `n` < period) and through the sample-plane
    /// fallback (wider registers, `n` ≥ period), against the per-bit
    /// references. Windows of a period or more are drawn for the widths with
    /// cycle tables; above them a period is ~10⁵–10⁷ reference draws.
    #[test]
    fn lfsr_select_windows_match_the_per_bit_references() {
        for width in 3..=24u32 {
            let period = (1u64 << width) - 1;
            let mask = period;
            let seeds = [0, 1, mask, mask + 5, 0x5DEE_CE66_D1CE_4E5B];
            let skips = [0, 1, period - 1, period, 3 * period + 5];
            let mut lengths = vec![1usize, 63, 64, 65, 256];
            if width <= MAX_CYCLE_WIDTH {
                lengths.extend([period as usize, period as usize + 1]);
            }
            let store = PlaneStore::default();
            for &n in &lengths {
                let streams = inputs(GAUSSIAN.len(), n);
                for seed in seeds {
                    let select = SourceSpec::Lfsr { width, seed };
                    for skip in skips {
                        let case = format!("width {width} seed {seed:#x} skip {skip} n {n}");
                        assert_eq!(
                            store.half_select(&select, skip, n),
                            half_select_reference(&select, skip, n),
                            "half select, {case}"
                        );
                        for weights in WEIGHT_SETS {
                            let refs: Vec<&Bitstream> =
                                streams.iter().take(weights.len()).collect();
                            let reference = weighted_mux_reference(
                                &refs,
                                weights,
                                &mut select.build_skipped(skip),
                            )
                            .unwrap();
                            assert_eq!(
                                store.weighted_mux(&refs, weights, &select, skip),
                                reference,
                                "weights {weights:?}, {case}"
                            );
                        }
                    }
                }
            }
            // Non-vacuity: exactly the narrow registers took the cycle path.
            let retained = store.retained_bytes();
            assert_eq!(
                retained.cycles > 0,
                width <= MAX_CYCLE_WIDTH,
                "width {width}"
            );
        }
    }

    /// Selects from the other families read `(spec, skip, n)` sample planes.
    #[test]
    fn non_lfsr_selects_match_the_per_bit_references() {
        let store = PlaneStore::default();
        let selects = [
            SourceSpec::VanDerCorput { offset: 3 },
            SourceSpec::Halton { base: 3, offset: 1 },
            SourceSpec::Sobol { dimension: 5 },
            SourceSpec::Counter {
                modulus: 100,
                phase: 7,
            },
        ];
        for select in &selects {
            for n in [1usize, 63, 64, 65, 257] {
                let streams = inputs(GAUSSIAN.len(), n);
                for skip in [0u64, 1, 1000] {
                    assert_eq!(
                        store.half_select(select, skip, n),
                        half_select_reference(select, skip, n),
                        "{select} skip {skip} n {n}"
                    );
                    for weights in WEIGHT_SETS {
                        let refs: Vec<&Bitstream> = streams.iter().take(weights.len()).collect();
                        let reference =
                            weighted_mux_reference(&refs, weights, &mut select.build_skipped(skip))
                                .unwrap();
                        assert_eq!(
                            store.weighted_mux(&refs, weights, select, skip),
                            reference,
                            "{select} skip {skip} n {n} weights {weights:?}"
                        );
                    }
                }
            }
        }
        assert_eq!(store.retained_bytes().cycles, 0);
    }

    /// `Generate` and `Regenerate` against `DigitalToStochastic` and
    /// `Regenerator` over the positioned source, for every family: through
    /// prefix planes of one to 16 blocks and by per-bit compares past the
    /// prefix budget, at `p` = 0, 1 and exactly a drawn sample (the
    /// converter's strict `>` leaves that sample's bit 0). At the lengths of
    /// `BUCKETED`, `p` also takes every bucket edge `b / 256` of a block's
    /// search table (and, at 300, every `b / 512`) and both its neighbours;
    /// Sobol's first 256 samples sit exactly on the edges `k / 256`.
    #[test]
    fn generate_and_regenerate_match_the_converters_for_every_family() {
        let specs = [
            SourceSpec::Lfsr {
                width: 16,
                seed: 0xBEEF,
            },
            SourceSpec::Lfsr {
                width: 21,
                seed: 0x1_2345,
            },
            SourceSpec::VanDerCorput { offset: 5 },
            SourceSpec::Halton { base: 7, offset: 2 },
            SourceSpec::Sobol { dimension: 3 },
            SourceSpec::Counter {
                modulus: 100,
                phase: 11,
            },
        ];
        // Past the budget: one plane of 8192 samples takes 32 blocks, more
        // than the whole prefix budget.
        let past_budget = 8192;
        assert!(PrefixPlane::bytes(past_budget) > PREFIX_BUDGET_BYTES);
        const BUCKETED: [usize; 6] = [63, 64, 65, 96, 256, 300];
        // The first 256 Sobol draws are points 1..=256 of the sequence:
        // points 1..=255 sit on the edges `k / 256`, `k` ≥ 1.
        let mut sobol = SourceSpec::Sobol { dimension: 3 }.build_skipped(0);
        let on_edges = (0..256)
            .map(|_| sobol.next_unit() * 256.0)
            .filter(|s| s.fract() == 0.0)
            .count();
        assert_eq!(on_edges, 255);
        for n in [
            0usize,
            1,
            63,
            64,
            65,
            96,
            256,
            300,
            512,
            2048,
            4096,
            past_budget,
        ] {
            let buckets = n.next_power_of_two().max(256);
            let edges: Vec<f64> = (0..=buckets)
                .filter(|_| BUCKETED.contains(&n))
                .map(|b| b as f64 / buckets as f64)
                .flat_map(|edge| [edge.next_down(), edge, edge.next_up()])
                .collect();
            // One store per length, so every length builds prefix planes
            // until the budget runs out.
            let store = PlaneStore::default();
            let mut prefixed = 0;
            for spec in &specs {
                for skip in [0u64, 1, 999, 65_535] {
                    let mut source = spec.build_skipped(skip);
                    let drawn: Vec<f64> = (0..n).map(|_| source.next_unit()).collect();
                    let ties = drawn.get(n / 2).into_iter().chain(drawn.first());
                    let ps = [0.0, 0.3, 0.5, 0.77, 1.0]
                        .into_iter()
                        .chain(ties.copied())
                        .chain(edges.iter().copied());
                    for p in ps {
                        let p = Probability::saturating(p);
                        let expected =
                            DigitalToStochastic::new(spec.build_skipped(skip)).generate(p, n);
                        assert_eq!(
                            store.generate(spec, skip, p, n),
                            expected,
                            "{spec} skip {skip} n {n} p {p:?}"
                        );
                    }
                    prefixed += usize::from(matches!(
                        store.comparator(spec, skip, n).0,
                        Comparator::Prefix(_)
                    ));
                    for stream in inputs(2, n) {
                        let expected =
                            Regenerator::new(spec.build_skipped(skip)).regenerate(&stream);
                        assert_eq!(
                            store.regenerate(spec, skip, &stream),
                            expected,
                            "{spec} skip {skip} n {n}"
                        );
                    }
                    assert!(store.retained_bytes().prefixes <= PREFIX_BUDGET_BYTES);
                }
            }
            // Non-vacuity: up to 4096 samples the prefix path ran, past the
            // budget only the compare path.
            match n {
                0 => assert_eq!(prefixed, 0),
                n if n == past_budget => assert_eq!(prefixed, 0, "n {n}"),
                n => assert!(prefixed > 0, "n {n}"),
            }
            assert_eq!(
                store.retained_bytes().prefixes,
                prefixed * (PREFIX_ENTRY_BYTES + PrefixPlane::bytes(n)),
                "n {n}"
            );
        }
    }

    /// Planes of a few samples are charged their entry overhead, so a flood
    /// of distinct tiny keys stays within the budget; empty planes are never
    /// kept.
    #[test]
    fn tiny_planes_are_charged_their_entry_overhead() {
        let store = PlaneStore::default();
        let spec = SourceSpec::VanDerCorput { offset: 1 };
        for skip in 0..1000 {
            assert!(store.samples(&spec, skip, 0).0.is_empty());
        }
        assert_eq!(store.retained_bytes().samples, 0);
        let per_plane = SAMPLE_ENTRY_BYTES + size_of::<f64>();
        let fits = SAMPLE_BUDGET_BYTES / per_plane;
        for skip in 0..fits as u64 + 100 {
            let expected = spec.build_skipped(skip).next_unit();
            assert_eq!(*store.samples(&spec, skip, 1).0, [expected], "skip {skip}");
        }
        let kept = store.read();
        assert_eq!(kept.samples.len(), fits);
        assert_eq!(kept.sample_bytes, fits * per_plane);
        assert!(kept.sample_bytes <= SAMPLE_BUDGET_BYTES);
    }

    /// Past their budgets the stores keep nothing more, and the planes they
    /// compute per use give the same bits.
    #[test]
    fn full_stores_retain_nothing_more_and_stay_bit_identical() {
        let store = PlaneStore::default();
        let n = 4096;
        let streams = inputs(GAUSSIAN.len(), n);
        let refs: Vec<&Bitstream> = streams.iter().collect();
        let select = SourceSpec::Halton { base: 5, offset: 0 };
        let plane_bytes = SAMPLE_ENTRY_BYTES + n * size_of::<f64>();
        let fits = SAMPLE_BUDGET_BYTES / plane_bytes;
        let mut previous = store.retained_bytes();
        for i in 0..fits as u64 + 4 {
            let skip = i * 10_007;
            let reference =
                weighted_mux_reference(&refs, &GAUSSIAN, &mut select.build_skipped(skip)).unwrap();
            assert_eq!(
                store.weighted_mux(&refs, &GAUSSIAN, &select, skip),
                reference
            );
            let retained = store.retained_bytes();
            let kept = if i < fits as u64 { plane_bytes } else { 0 };
            assert_eq!(retained.samples, previous.samples + kept, "plane {i}");
            previous = retained;
        }
        assert!(previous.samples <= SAMPLE_BUDGET_BYTES);
        // A retained plane still serves its key.
        let reference =
            weighted_mux_reference(&refs, &GAUSSIAN, &mut select.build_skipped(0)).unwrap();
        assert_eq!(store.weighted_mux(&refs, &GAUSSIAN, &select, 0), reference);

        // The cycle budget: distinct select rules on the 16-bit register
        // until one no longer fits, then windows drawn per use.
        let n = 300;
        let streams = inputs(GAUSSIAN.len(), n);
        let refs: Vec<&Bitstream> = streams.iter().collect();
        let select = SourceSpec::Lfsr {
            width: 16,
            seed: 0xACE1,
        };
        let mut refused = 0;
        for i in 0..24u32 {
            let mut weights = GAUSSIAN;
            weights[0] += f64::from(i) * 1e-3;
            let before = store.retained_bytes();
            let reference =
                weighted_mux_reference(&refs, &weights, &mut select.build_skipped(77)).unwrap();
            assert_eq!(store.weighted_mux(&refs, &weights, &select, 77), reference);
            let after = store.retained_bytes();
            assert!(after.cycles <= CYCLE_BUDGET_BYTES);
            if after.cycles == before.cycles {
                refused += 1;
            }
        }
        assert!(refused > 0, "the cycle budget was never reached");
        let full = store.retained_bytes().cycles;
        let mut weights = GAUSSIAN;
        weights[8] = 0.5;
        let reference =
            weighted_mux_reference(&refs, &weights, &mut select.build_skipped(5)).unwrap();
        assert_eq!(store.weighted_mux(&refs, &weights, &select, 5), reference);
        assert_eq!(store.retained_bytes().cycles, full);
    }
}
