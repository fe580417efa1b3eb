//! The desynchronizer: an FSM that increases *negative* correlation between
//! two stochastic numbers (paper §III.A, Fig. 3b).
//!
//! The desynchronizer is the dual of the synchronizer: instead of pairing 1s
//! it deliberately *unpairs* them. When both inputs are 1 it banks one of the
//! 1s (emitting only the other); when both inputs are 0 it releases a banked 1
//! onto one of the outputs; already-unpaired inputs pass through. Minimising
//! the joint-1 count `a` drives the SCC toward −1 while preserving stream
//! values up to the bits still banked at the end of the stream.
//!
//! The FSM alternates which stream's 1 it banks so the residual bias is
//! balanced between the two outputs, matching the four-state cycle of
//! Fig. 3b. The save depth `D` generalises the design to bank up to `D` bits.

use crate::kernel::{bit_serial_step_word, SpeculativeTable, MAX_SPECULATIVE_STATES};
use crate::manipulator::{CorrelationManipulator, DEPTH_RANGE};
use std::sync::OnceLock;

/// Number of `(saved_x, saved_y)` pairs with `saved_x + saved_y ≤ D`: the
/// FSM never banks more than `D` bits in total, so its bank states form a
/// triangle, not a square.
fn triangle(depth: u32) -> usize {
    let d = depth as usize;
    (d + 1) * (d + 2) / 2
}

/// State index of `(saved_x, saved_y, bank_x_next)` in the triangular
/// `(saved_x + saved_y ≤ D) × 2` encoding the speculative table is built
/// over: rows are enumerated by `saved_y` (row `sy` holds `D + 1 − sy`
/// entries), and the bank-alternation flag selects the upper half. Keeping
/// the encoding tight keeps the hot next-state array small enough to stay
/// L1-resident during a word walk.
fn state_index(depth: u32, saved_x: u32, saved_y: u32, bank_x_next: bool) -> usize {
    let (d, sx, sy) = (depth as usize, saved_x as usize, saved_y as usize);
    debug_assert!(sx + sy <= d);
    let row_offset = sy * (d + 1) - sy * sy.saturating_sub(1) / 2;
    usize::from(bank_x_next) * triangle(depth) + row_offset + sx
}

/// Inverse of [`state_index`]: recovers `(saved_x, saved_y, bank_x_next)`.
/// Runs a tiny per-row loop (≤ D + 1 iterations), called once per processed
/// word — off the hot chunk chain.
fn state_decode(depth: u32, state: usize) -> (u32, u32, bool) {
    let t = triangle(depth);
    let bank_x_next = state >= t;
    let mut rest = state - usize::from(bank_x_next) * t;
    let mut sy = 0usize;
    let mut row_len = depth as usize + 1;
    while rest >= row_len {
        rest -= row_len;
        row_len -= 1;
        sy += 1;
    }
    (rest as u32, sy as u32, bank_x_next)
}

/// Deepest save depth with a speculative table: its `(D+1)(D+2)` encoded
/// states must fit [`MAX_SPECULATIVE_STATES`].
const TABLE_DEPTHS: usize = {
    let mut depth = 0;
    while (depth + 2) * (depth + 3) <= MAX_SPECULATIVE_STATES {
        depth += 1;
    }
    depth
};

/// Returns the shared speculative-stepping table for save depth `depth`, or
/// `None` when the `(D+1)(D+2)` encoded states exceed
/// [`MAX_SPECULATIVE_STATES`] (deep FSMs keep the bit-serial path). Built
/// once per depth, process-wide, from the desynchronizer's own
/// [`CorrelationManipulator::step`], into one `OnceLock` slot per depth: a
/// lookup after the first is one load, with no lock and no reference count.
fn speculative_table(depth: u32) -> Option<&'static SpeculativeTable> {
    static TABLES: [OnceLock<SpeculativeTable>; TABLE_DEPTHS] =
        [const { OnceLock::new() }; TABLE_DEPTHS];
    let slot = TABLES.get((depth as usize).checked_sub(1)?)?;
    Some(slot.get_or_init(|| {
        SpeculativeTable::build(2 * triangle(depth), |state, x, y| {
            let (saved_x, saved_y, bank_x_next) = state_decode(depth, state);
            let mut scratch = Desynchronizer {
                depth,
                saved_x,
                saved_y,
                bank_x_next,
                table: None,
            };
            let (ox, oy) = scratch.step(x, y);
            (
                state_index(depth, scratch.saved_x, scratch.saved_y, scratch.bank_x_next),
                ox,
                oy,
            )
        })
    }))
}

/// FSM desynchronizer with configurable save depth.
///
/// # Example
///
/// ```
/// use sc_core::{Desynchronizer, CorrelationManipulator};
/// use sc_bitstream::{scc, Bitstream};
///
/// let x = Bitstream::parse("11001100")?; // 0.5
/// let y = x.clone();                     // maximally positive SCC
/// assert_eq!(scc(&x, &y), 1.0);
///
/// let mut desync = Desynchronizer::new(2);
/// let (x2, y2) = desync.process(&x, &y)?;
/// assert!(scc(&x2, &y2) <= -0.9);
/// assert_eq!(x2.value(), 0.5);
/// assert_eq!(y2.value(), 0.5);
/// # Ok::<(), sc_bitstream::Error>(())
/// ```
#[derive(Clone)]
pub struct Desynchronizer {
    depth: u32,
    /// Number of X 1s currently banked (X is owed this many output 1s).
    saved_x: u32,
    /// Number of Y 1s currently banked.
    saved_y: u32,
    /// Which stream banks its 1 on the next doubly-1 input; alternates to
    /// balance bias between the outputs (the S0→S1→S2→S3 cycle of Fig. 3b).
    bank_x_next: bool,
    /// Shared speculative word-stepping table (`None` for very deep FSMs);
    /// pure acceleration state, excluded from equality and hashing.
    table: Option<&'static SpeculativeTable>,
}

impl std::fmt::Debug for Desynchronizer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Desynchronizer")
            .field("depth", &self.depth)
            .field("saved_x", &self.saved_x)
            .field("saved_y", &self.saved_y)
            .field("bank_x_next", &self.bank_x_next)
            .finish()
    }
}

impl PartialEq for Desynchronizer {
    fn eq(&self, other: &Self) -> bool {
        (self.depth, self.saved_x, self.saved_y, self.bank_x_next)
            == (other.depth, other.saved_x, other.saved_y, other.bank_x_next)
    }
}

impl Eq for Desynchronizer {}

impl std::hash::Hash for Desynchronizer {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        (self.depth, self.saved_x, self.saved_y, self.bank_x_next).hash(state);
    }
}

impl Desynchronizer {
    /// Creates a desynchronizer with the given save depth `D ≥ 1`.
    ///
    /// The FSM banks at most `D` bits in total across the two streams.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is outside [`DEPTH_RANGE`].
    #[must_use]
    pub fn new(depth: u32) -> Self {
        assert!(
            DEPTH_RANGE.contains(&(depth as usize)),
            "desynchronizer save depth {depth} outside supported range {DEPTH_RANGE:?}"
        );
        Desynchronizer {
            depth,
            saved_x: 0,
            saved_y: 0,
            bank_x_next: true,
            table: speculative_table(depth),
        }
    }

    /// The configured save depth `D`.
    #[must_use]
    pub fn depth(&self) -> u32 {
        self.depth
    }

    /// The net number of bits currently banked (positive: more X bits banked,
    /// negative: more Y bits banked).
    #[must_use]
    pub fn banked_bits(&self) -> i32 {
        self.saved_x as i32 - self.saved_y as i32
    }

    /// Total number of bits currently banked across both streams.
    #[must_use]
    pub fn total_banked(&self) -> u32 {
        self.saved_x + self.saved_y
    }
}

impl CorrelationManipulator for Desynchronizer {
    fn name(&self) -> String {
        format!("desynchronizer(D={})", self.depth)
    }

    fn step(&mut self, x: bool, y: bool) -> (bool, bool) {
        match (x, y) {
            // Already unpaired: pass through (Fig. 3b "X ^ Y == 1" self-loops).
            (true, false) | (false, true) => (x, y),
            // Both 1: bank one of them if there is room, alternating streams.
            (true, true) => {
                if self.saved_x + self.saved_y < self.depth {
                    if self.bank_x_next {
                        self.saved_x += 1;
                        self.bank_x_next = false;
                        (false, true)
                    } else {
                        self.saved_y += 1;
                        self.bank_x_next = true;
                        (true, false)
                    }
                } else {
                    (true, true)
                }
            }
            // Both 0: release a banked 1 onto the stream that is owed one,
            // preferring whichever stream currently has more bits stranded.
            (false, false) => {
                if self.saved_x >= self.saved_y && self.saved_x > 0 {
                    self.saved_x -= 1;
                    (true, false)
                } else if self.saved_y > 0 {
                    self.saved_y -= 1;
                    (false, true)
                } else {
                    (false, false)
                }
            }
        }
    }

    fn reset(&mut self) {
        self.saved_x = 0;
        self.saved_y = 0;
        self.bank_x_next = true;
    }

    /// Speculative multi-bit stepping, taken by every entry point (`process`,
    /// a boxed circuit, a chain stage): the `(saved_x, saved_y, bank)` state
    /// space is small, so all 64 output bits are resolved by table-driven
    /// state propagation (the word zipped once into 5-cycle chunk symbols,
    /// then thirteen chunk lookups of one shift, one mask and one OR each)
    /// instead of 64 data-dependent branchy transitions — bit-identical to
    /// [`bit_serial_step_word`], which remains the in-tree reference (and the
    /// fallback for depths whose state space exceeds the table bound).
    fn step_word(&mut self, x: u64, y: u64, valid: u32) -> (u64, u64) {
        let stepped = self.table.map(|table| {
            let mut state = state_index(self.depth, self.saved_x, self.saved_y, self.bank_x_next);
            let out = table.step_word(&mut state, x, y, valid);
            (out, state)
        });
        match stepped {
            Some((out, state)) => {
                let (saved_x, saved_y, bank_x_next) = state_decode(self.depth, state);
                self.saved_x = saved_x;
                self.saved_y = saved_y;
                self.bank_x_next = bank_x_next;
                out
            }
            None => bit_serial_step_word(self, x, y, valid),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use sc_bitstream::{scc, Bitstream, Probability};
    use sc_convert::DigitalToStochastic;
    use sc_rng::{Halton, VanDerCorput};

    const N: usize = 256;

    fn uncorrelated_pair(px: f64, py: f64) -> (Bitstream, Bitstream) {
        let mut gx = DigitalToStochastic::new(VanDerCorput::new());
        let mut gy = DigitalToStochastic::new(Halton::new(3));
        (
            gx.generate(Probability::new(px).unwrap(), N),
            gy.generate(Probability::new(py).unwrap(), N),
        )
    }

    fn correlated_pair(px: f64, py: f64) -> (Bitstream, Bitstream) {
        let mut g = DigitalToStochastic::new(VanDerCorput::new());
        g.generate_correlated_pair(
            Probability::new(px).unwrap(),
            Probability::new(py).unwrap(),
            N,
        )
    }

    /// The depth-1 desynchronizer follows the four-state cycle of Fig. 3b.
    #[test]
    fn depth_one_fsm_cycle() {
        let mut d = Desynchronizer::new(1);
        // S0 --(1,1): bank X, emit (0,1)--> S1
        assert_eq!(d.step(true, true), (false, true));
        assert_eq!(d.banked_bits(), 1);
        // S1 --(1,1): bank full, pass (1,1)--> S1
        assert_eq!(d.step(true, true), (true, true));
        // S1 --(0,0): emit banked X, (1,0)--> S2
        assert_eq!(d.step(false, false), (true, false));
        assert_eq!(d.banked_bits(), 0);
        // S2 --(1,1): bank Y this time, emit (1,0)--> S3
        assert_eq!(d.step(true, true), (true, false));
        assert_eq!(d.banked_bits(), -1);
        // S3 --(0,0): emit banked Y, (0,1)--> S0
        assert_eq!(d.step(false, false), (false, true));
        assert_eq!(d.banked_bits(), 0);
        // Unpaired inputs always pass through, any state.
        assert_eq!(d.step(true, false), (true, false));
        assert_eq!(d.step(false, true), (false, true));
        // (0,0) with nothing banked passes through.
        assert_eq!(d.step(false, false), (false, false));
    }

    #[test]
    fn desynchronizer_drives_identical_streams_negative() {
        let x = Bitstream::from_fn(N, |i| i % 2 == 0); // 0.5
        let y = x.clone();
        assert_eq!(scc(&x, &y), 1.0);
        let mut d = Desynchronizer::new(1);
        let (ox, oy) = d.process(&x, &y).unwrap();
        assert!(scc(&ox, &oy) <= -0.95, "scc = {}", scc(&ox, &oy));
        assert_eq!(ox.count_ones(), x.count_ones());
        assert_eq!(oy.count_ones(), y.count_ones());
    }

    #[test]
    fn desynchronizer_handles_uncorrelated_inputs() {
        // Table II: VDC/Halton inputs with SCC ≈ -0.05 end up around -0.98.
        let (x, y) = uncorrelated_pair(0.5, 0.5);
        let before = scc(&x, &y);
        let mut d = Desynchronizer::new(1);
        let (ox, oy) = d.process(&x, &y).unwrap();
        let after = scc(&ox, &oy);
        assert!(before.abs() < 0.2);
        assert!(after < -0.8, "after = {after}");
    }

    #[test]
    fn desynchronizer_handles_positively_correlated_inputs() {
        // Table II third desynchronizer row: Halton/Halton inputs start at ~+0.98.
        let (x, y) = correlated_pair(0.5, 0.75);
        assert!(scc(&x, &y) > 0.9);
        let mut d = Desynchronizer::new(1);
        let (ox, oy) = d.process(&x, &y).unwrap();
        assert!(scc(&ox, &oy) < -0.5, "scc = {}", scc(&ox, &oy));
    }

    #[test]
    fn values_preserved_up_to_save_depth() {
        let (x, y) = correlated_pair(0.7, 0.6);
        for depth in [1u32, 2, 4, 8] {
            let mut d = Desynchronizer::new(depth);
            let (ox, oy) = d.process(&x, &y).unwrap();
            let bound = depth as f64 / N as f64 + 1e-12;
            assert!((ox.value() - x.value()).abs() <= bound, "depth {depth}");
            assert!((oy.value() - y.value()).abs() <= bound, "depth {depth}");
        }
    }

    #[test]
    fn saturation_value_cannot_exceed_one() {
        // Both streams all 1s: nothing can be unpaired, outputs must stay all 1s
        // apart from the first banked bit.
        let x = Bitstream::ones(N);
        let y = Bitstream::ones(N);
        let mut d = Desynchronizer::new(1);
        let (ox, oy) = d.process(&x, &y).unwrap();
        assert!(ox.count_ones() >= N - 1);
        assert_eq!(oy.count_ones(), N);
    }

    #[test]
    fn reset_restores_initial_state() {
        let mut d = Desynchronizer::new(2);
        let _ = d.step(true, true);
        assert_ne!(d.banked_bits(), 0);
        d.reset();
        assert_eq!(d.banked_bits(), 0);
        assert_eq!(d.depth(), 2);
        assert!(d.name().contains("D=2"));
    }

    #[test]
    #[should_panic(expected = "outside supported range")]
    fn zero_depth_panics() {
        let _ = Desynchronizer::new(0);
    }

    /// The speculative table path must be bit-identical to the retained
    /// bit-serial reference at awkward lengths, across depths (including one
    /// past the table bound, which falls back to bit-serial) and from
    /// mid-stream FSM states.
    #[test]
    fn speculative_word_stepping_matches_bit_serial() {
        for n in [1usize, 63, 64, 65, 1000] {
            let x = Bitstream::from_fn(n, |i| (i * 7 + 3) % 5 < 2);
            let y = Bitstream::from_fn(n, |i| (i * 11 + 1) % 3 == 0);
            for depth in [1u32, 2, 4, 6, 7] {
                let mut fast = Desynchronizer::new(depth);
                // Randomize the starting state with a prefix of (1,1) inputs.
                for _ in 0..depth.min(3) {
                    let _ = fast.step(true, true);
                }
                let mut slow = fast.clone();
                assert_eq!(fast.table.is_some(), depth <= 6, "table bound at D=6");
                let a = fast.process(&x, &y).unwrap();
                let b = slow.process_bit_serial(&x, &y).unwrap();
                assert_eq!(a, b, "n={n} depth={depth}");
                assert_eq!(
                    (fast.saved_x, fast.saved_y, fast.bank_x_next),
                    (slow.saved_x, slow.saved_y, slow.bank_x_next),
                    "end state n={n} depth={depth}"
                );
            }
        }
    }

    /// Word-level entry points (direct and via dynamic dispatch) both take
    /// the speculative path and agree with the reference.
    #[test]
    fn speculative_step_word_entry_points_agree() {
        let (x, y) = (0x5A5A_1234_FFFF_0001u64, 0xA5A5_4321_0000_FFFEu64);
        for valid in [1u32, 3, 4, 17, 63, 64] {
            let mut direct = Desynchronizer::new(2);
            let mut reference = direct.clone();
            let mut boxed: Box<dyn CorrelationManipulator> = Box::new(Desynchronizer::new(2));
            let fast = direct.step_word(x, y, valid);
            let via_box = boxed.step_word(x, y, valid);
            let slow = bit_serial_step_word(&mut reference, x, y, valid);
            assert_eq!(fast, slow, "valid={valid}");
            assert_eq!(via_box, slow, "boxed valid={valid}");
            assert_eq!(direct.banked_bits(), reference.banked_bits());
        }
    }

    #[test]
    fn alternation_balances_bias_between_streams() {
        // Feed many (1,1) / (0,0) pairs: banked bits should alternate streams so
        // neither output systematically loses more than the other.
        let x = Bitstream::from_fn(N, |i| i % 2 == 0);
        let y = x.clone();
        let mut d = Desynchronizer::new(1);
        let (ox, oy) = d.process(&x, &y).unwrap();
        let bias_x = ox.value() - x.value();
        let bias_y = oy.value() - y.value();
        assert!((bias_x - bias_y).abs() <= 1.0 / N as f64);
    }

    proptest! {
        /// The table of every depth that has one, from every start state,
        /// against bit-serial stepping on random words and `valid` counts.
        #[test]
        fn prop_table_walk_matches_bit_serial(
            x in any::<u64>(),
            y in any::<u64>(),
            valid in 1u32..=64,
        ) {
            for depth in 1..=TABLE_DEPTHS as u32 {
                let table = speculative_table(depth).unwrap();
                for state in 0..table.states() {
                    let mut walked = state;
                    let got = table.step_word(&mut walked, x, y, valid);
                    let (saved_x, saved_y, bank_x_next) = state_decode(depth, state);
                    let mut reference = Desynchronizer {
                        depth,
                        saved_x,
                        saved_y,
                        bank_x_next,
                        table: None,
                    };
                    prop_assert_eq!(got, bit_serial_step_word(&mut reference, x, y, valid));
                    let end = (reference.saved_x, reference.saved_y, reference.bank_x_next);
                    prop_assert_eq!(state_decode(depth, walked), end);
                }
            }
        }

        #[test]
        fn prop_values_preserved_within_depth(
            bits_x in proptest::collection::vec(any::<bool>(), 64..300),
            bits_y in proptest::collection::vec(any::<bool>(), 64..300),
            depth in 1u32..8,
        ) {
            let n = bits_x.len().min(bits_y.len());
            let x = Bitstream::from_bools(bits_x.into_iter().take(n));
            let y = Bitstream::from_bools(bits_y.into_iter().take(n));
            let mut d = Desynchronizer::new(depth);
            let (ox, oy) = d.process(&x, &y).unwrap();
            // A stream can only lose 1s that remain banked at the end.
            prop_assert!(x.count_ones().abs_diff(ox.count_ones()) <= depth as usize);
            prop_assert!(y.count_ones().abs_diff(oy.count_ones()) <= depth as usize);
        }

        #[test]
        fn prop_overlap_never_increases(
            bits_x in proptest::collection::vec(any::<bool>(), 64..300),
            bits_y in proptest::collection::vec(any::<bool>(), 64..300),
        ) {
            let n = bits_x.len().min(bits_y.len());
            let x = Bitstream::from_bools(bits_x.into_iter().take(n));
            let y = Bitstream::from_bools(bits_y.into_iter().take(n));
            let overlap_before = x.and(&y).count_ones();
            let mut d = Desynchronizer::new(4);
            let (ox, oy) = d.process(&x, &y).unwrap();
            let overlap_after = ox.and(&oy).count_ones();
            prop_assert!(overlap_after <= overlap_before);
        }

        #[test]
        fn prop_scc_decreases_for_correlated_inputs(kx in 8u64..=56, ky in 8u64..=56) {
            let (x, y) = {
                let mut g = DigitalToStochastic::new(VanDerCorput::new());
                g.generate_correlated_pair(
                    Probability::from_ratio(kx, 64),
                    Probability::from_ratio(ky, 64),
                    N,
                )
            };
            let before = scc(&x, &y);
            let mut d = Desynchronizer::new(2);
            let (ox, oy) = d.process(&x, &y).unwrap();
            prop_assume!(ox.count_ones() > 0 && ox.count_ones() < N);
            prop_assume!(oy.count_ones() > 0 && oy.count_ones() < N);
            let after = scc(&ox, &oy);
            prop_assert!(after <= before + 1e-9, "before {before} after {after}");
        }
    }
}
