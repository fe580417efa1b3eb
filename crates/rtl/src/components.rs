//! Cycle-level [`sc_sim::Component`] implementations of the behavioural
//! cells in the lowered-design IR.
//!
//! Each component replicates, bit for bit, the computation the word-parallel
//! [`sc_graph::Executor`] performs for the same plan step — same sample
//! order, same floating-point comparisons — so a lowered circuit
//! co-simulates bit-identically to the executor (the property pinned by the
//! workspace `rtl_cosim` suite).

use crate::design::select_lines;
use sc_bitstream::Probability;
use sc_rng::{RandomSource, SourceSpec};
use sc_sim::Component;

/// D/S source comparator: emits `threshold > sample` each cycle (Fig. 2g).
pub struct SourceBit {
    source: Box<dyn RandomSource>,
    spec: SourceSpec,
    skip: u64,
    threshold: f64,
}

impl SourceBit {
    /// Builds the source positioned `skip` samples into its sequence.
    #[must_use]
    pub fn new(spec: &SourceSpec, skip: u64, threshold: f64) -> Self {
        SourceBit {
            source: spec.build_skipped(skip),
            spec: spec.clone(),
            skip,
            threshold: Probability::saturating(threshold).get(),
        }
    }
}

impl Component for SourceBit {
    fn name(&self) -> &str {
        "source"
    }

    fn num_inputs(&self) -> usize {
        0
    }

    fn num_outputs(&self) -> usize {
        1
    }

    fn evaluate(&mut self, _inputs: &[bool], outputs: &mut [bool]) {
        outputs[0] = self.threshold > self.source.next_unit();
    }

    fn reset(&mut self) {
        self.source = self.spec.build_skipped(self.skip);
    }
}

/// Weighted one-hot selection: each cycle a cumulative walk over the weights
/// against one fresh sample raises exactly one select line — the select
/// network of the weighted multiplexer tree, with leftover probability mass
/// falling to the last line (identical to the executor's selection rule).
/// The outputs are the lines the tree's mux chain reads (line 0 is the
/// chain's default, so a `k > 1`-way tree's outputs are lines `1..k`).
pub struct SelectOneHot {
    source: Box<dyn RandomSource>,
    spec: SourceSpec,
    skip: u64,
    weights: Vec<f64>,
}

impl SelectOneHot {
    /// Builds the selection source positioned `skip` samples in.
    #[must_use]
    pub fn new(spec: &SourceSpec, skip: u64, weights: &[f64]) -> Self {
        SelectOneHot {
            source: spec.build_skipped(skip),
            spec: spec.clone(),
            skip,
            weights: weights.to_vec(),
        }
    }
}

impl Component for SelectOneHot {
    fn name(&self) -> &str {
        "wsel"
    }

    fn num_inputs(&self) -> usize {
        0
    }

    fn num_outputs(&self) -> usize {
        select_lines(self.weights.len()).len()
    }

    fn evaluate(&mut self, _inputs: &[bool], outputs: &mut [bool]) {
        let mut u = self.source.next_unit();
        let mut selected = self.weights.len() - 1;
        for (idx, weight) in self.weights.iter().enumerate() {
            if u < *weight {
                selected = idx;
                break;
            }
            u -= weight;
        }
        for (line, out) in select_lines(self.weights.len()).zip(outputs) {
            *out = line == selected;
        }
    }

    fn reset(&mut self) {
        self.source = self.spec.build_skipped(self.skip);
    }
}

/// The correlation-agnostic adder: full adder over `(x, y, residue)` whose
/// carry (majority) is the output and whose sum becomes the next residue.
#[derive(Debug, Clone, Copy, Default)]
pub struct CaAddCell {
    residue: bool,
}

impl CaAddCell {
    /// Creates the adder with a zero residue.
    #[must_use]
    pub fn new() -> Self {
        CaAddCell::default()
    }
}

impl Component for CaAddCell {
    fn name(&self) -> &str {
        "caadd"
    }

    fn num_inputs(&self) -> usize {
        2
    }

    fn num_outputs(&self) -> usize {
        1
    }

    fn evaluate(&mut self, inputs: &[bool], outputs: &mut [bool]) {
        let (x, y) = (inputs[0], inputs[1]);
        let ones = usize::from(x) + usize::from(y) + usize::from(self.residue);
        outputs[0] = ones >= 2; // majority = carry
        self.residue = ones & 1 == 1; // sum = next residue
    }

    fn reset(&mut self) {
        self.residue = false;
    }
}

/// Correlation-agnostic max/min: two activity counters and an output that
/// pulses whenever the running max (respectively min) advances.
#[derive(Debug, Clone, Copy)]
pub struct CaMaxMinCell {
    max: bool,
    count_x: u64,
    count_y: u64,
    count_out: u64,
}

impl CaMaxMinCell {
    /// Creates the block; `max` selects maximum (else minimum).
    #[must_use]
    pub fn new(max: bool) -> Self {
        CaMaxMinCell {
            max,
            count_x: 0,
            count_y: 0,
            count_out: 0,
        }
    }
}

impl Component for CaMaxMinCell {
    fn name(&self) -> &str {
        if self.max {
            "camax"
        } else {
            "camin"
        }
    }

    fn num_inputs(&self) -> usize {
        2
    }

    fn num_outputs(&self) -> usize {
        1
    }

    fn evaluate(&mut self, inputs: &[bool], outputs: &mut [bool]) {
        self.count_x += u64::from(inputs[0]);
        self.count_y += u64::from(inputs[1]);
        let target = if self.max {
            self.count_x.max(self.count_y)
        } else {
            self.count_x.min(self.count_y)
        };
        outputs[0] = target > self.count_out;
        self.count_out = target;
    }

    fn reset(&mut self) {
        self.count_x = 0;
        self.count_y = 0;
        self.count_out = 0;
    }
}

/// Saturating-counter FSM activations (`stanh` / `slinear`), bit-stepped with
/// exactly the state rules of `sc_arith::fsm_ops`.
#[derive(Debug, Clone, Copy)]
pub struct UnaryFsmCell {
    op: sc_graph::UnaryFsmOp,
    state: i64,
    toggle: bool,
}

impl UnaryFsmCell {
    /// Creates the FSM in its power-on state.
    #[must_use]
    pub fn new(op: sc_graph::UnaryFsmOp) -> Self {
        let mut cell = UnaryFsmCell {
            op,
            state: 0,
            toggle: false,
        };
        cell.reset();
        cell
    }
}

impl Component for UnaryFsmCell {
    fn name(&self) -> &str {
        match self.op {
            sc_graph::UnaryFsmOp::Stanh { .. } => "stanh",
            sc_graph::UnaryFsmOp::Slinear { .. } => "slinear",
        }
    }

    fn num_inputs(&self) -> usize {
        1
    }

    fn num_outputs(&self) -> usize {
        1
    }

    fn evaluate(&mut self, inputs: &[bool], outputs: &mut [bool]) {
        match self.op {
            sc_graph::UnaryFsmOp::Stanh { half_states } => {
                let max = i64::from(2 * half_states - 1);
                outputs[0] = self.state >= i64::from(half_states);
                self.state += if inputs[0] { 1 } else { -1 };
                self.state = self.state.clamp(0, max);
            }
            sc_graph::UnaryFsmOp::Slinear { states } => {
                let max = i64::from(states - 1);
                let mid_low = max / 2;
                let mid_high = mid_low + 1;
                outputs[0] = if self.state > mid_high {
                    true
                } else if self.state < mid_low {
                    false
                } else {
                    self.toggle = !self.toggle;
                    self.toggle
                };
                self.state += if inputs[0] { 1 } else { -1 };
                self.state = self.state.clamp(0, max);
            }
        }
    }

    fn reset(&mut self) {
        match self.op {
            sc_graph::UnaryFsmOp::Stanh { half_states } => {
                self.state = i64::from(half_states);
            }
            sc_graph::UnaryFsmOp::Slinear { states } => {
                self.state = i64::from(states - 1) / 2;
            }
        }
        self.toggle = false;
    }
}

/// The feedback SC divider: integration counter + threshold comparison
/// against a fresh sample each cycle (`sc_arith::divide::Divider` semantics).
pub struct DividerCell {
    source: Box<dyn RandomSource>,
    spec: SourceSpec,
    skip: u64,
    counter_bits: u32,
    state: i64,
}

impl DividerCell {
    /// Builds the divider with its comparison source positioned `skip`
    /// samples in.
    #[must_use]
    pub fn new(spec: &SourceSpec, skip: u64, counter_bits: u32) -> Self {
        DividerCell {
            source: spec.build_skipped(skip),
            spec: spec.clone(),
            skip,
            counter_bits,
            state: 0,
        }
    }
}

impl Component for DividerCell {
    fn name(&self) -> &str {
        "divider"
    }

    fn num_inputs(&self) -> usize {
        2
    }

    fn num_outputs(&self) -> usize {
        1
    }

    fn evaluate(&mut self, inputs: &[bool], outputs: &mut [bool]) {
        let max = (1i64 << self.counter_bits) - 1;
        let threshold = self.source.next_unit();
        let z = (self.state as f64 / max as f64) > threshold;
        outputs[0] = z;
        let delta = i64::from(inputs[0]) - i64::from(z && inputs[1]);
        self.state = (self.state + delta).clamp(0, max);
    }

    fn reset(&mut self) {
        self.state = 0;
        self.source = self.spec.build_skipped(self.skip);
    }
}

/// Accumulative parallel counter: the output bus carries the running total of
/// 1s across all lanes *including* the current cycle, so the final-cycle bus
/// value is the APC total.
#[derive(Debug, Clone)]
pub struct ApcCell {
    lanes: usize,
    bits: u32,
    total: u64,
}

impl ApcCell {
    /// Creates a zeroed APC over `lanes` inputs with a `bits`-wide read bus.
    #[must_use]
    pub fn new(lanes: usize, bits: u32) -> Self {
        ApcCell {
            lanes,
            bits,
            total: 0,
        }
    }
}

impl Component for ApcCell {
    fn name(&self) -> &str {
        "apc"
    }

    fn num_inputs(&self) -> usize {
        self.lanes
    }

    fn num_outputs(&self) -> usize {
        self.bits as usize
    }

    fn evaluate(&mut self, inputs: &[bool], outputs: &mut [bool]) {
        let value = self.total + inputs.iter().filter(|&&b| b).count() as u64;
        for (i, out) in outputs.iter_mut().enumerate() {
            *out = (value >> i) & 1 == 1;
        }
    }

    fn commit(&mut self, inputs: &[bool]) {
        self.total += inputs.iter().filter(|&&b| b).count() as u64;
    }

    fn reset(&mut self) {
        self.total = 0;
    }
}
