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
    threshold: f64,
}

impl SourceBit {
    /// Builds the source positioned `skip` samples into its sequence.
    #[must_use]
    pub fn new(spec: &SourceSpec, skip: u64, threshold: f64) -> Self {
        SourceBit {
            source: spec.build_skipped(skip),
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
}

/// Weighted one-hot selection: each cycle a cumulative walk over the weights
/// against one fresh sample raises exactly one select line — the select
/// network of the weighted multiplexer tree, with leftover probability mass
/// falling to the last line (identical to the executor's selection rule).
/// The outputs are the lines the tree's mux chain reads (line 0 is the
/// chain's default, so a `k > 1`-way tree's outputs are lines `1..k`).
pub struct SelectOneHot {
    source: Box<dyn RandomSource>,
    weights: Vec<f64>,
}

impl SelectOneHot {
    /// Builds the selection source positioned `skip` samples in.
    #[must_use]
    pub fn new(spec: &SourceSpec, skip: u64, weights: &[f64]) -> Self {
        SelectOneHot {
            source: spec.build_skipped(skip),
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
}
