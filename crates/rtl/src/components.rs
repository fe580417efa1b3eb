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
