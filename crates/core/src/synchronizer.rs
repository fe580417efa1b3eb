//! The synchronizer: an FSM that increases *positive* correlation between two
//! stochastic numbers (paper §III.A, Fig. 3a).
//!
//! The key idea is to dynamically pair up 1s from the two input streams as
//! often as possible. When the inputs agree they are passed through; when they
//! disagree the lone 1 is either *saved* (both outputs emit 0) or *paired*
//! with a previously saved 1 from the other stream (both outputs emit 1).
//! Pairing 1s maximises the joint-1 count `a`, which drives the SCC toward +1
//! while each output carries the same number of 1s as its input — except for
//! bits still saved in the FSM when the stream ends, which is the small
//! negative bias reported in Table II.
//!
//! The FSM is generalised by the *save depth* `D` (§III.B): a depth-`D`
//! synchronizer can hold up to `D` unpaired bits from either stream, making it
//! resilient to longer runs of mismatching inputs. `D = 1` is exactly the
//! three-state FSM of Fig. 3a. An optional *flush* mode force-emits saved bits
//! when the remaining stream length would otherwise strand them.

use crate::kernel::{bit_serial_step_word, SpeculativeTable, StreamKernel, MAX_SPECULATIVE_STATES};
use crate::manipulator::CorrelationManipulator;
use sc_bitstream::{Bitstream, Error, Result};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// Returns the shared speculative-stepping table for save depth `depth`, or
/// `None` when the `2·D + 1` credit states exceed
/// [`MAX_SPECULATIVE_STATES`] (very deep FSMs keep the bit-serial path).
/// Tables are built once per depth, process-wide, from the synchronizer's own
/// [`CorrelationManipulator::step`], and shared across instances and threads.
fn speculative_table(depth: u32) -> Option<Arc<SpeculativeTable>> {
    let states = 2 * depth as usize + 1;
    if states > MAX_SPECULATIVE_STATES {
        return None;
    }
    static TABLES: OnceLock<Mutex<HashMap<u32, Arc<SpeculativeTable>>>> = OnceLock::new();
    let mut cache = TABLES
        .get_or_init(|| Mutex::new(HashMap::new()))
        .lock()
        .expect("synchronizer table cache poisoned");
    Some(Arc::clone(cache.entry(depth).or_insert_with(|| {
        Arc::new(SpeculativeTable::build(states, |state, x, y| {
            let mut scratch = Synchronizer {
                depth: depth as i32,
                credit: state as i32 - depth as i32,
                initial_credit: 0,
                table: None,
            };
            let (ox, oy) = scratch.step(x, y);
            ((scratch.credit + depth as i32) as usize, ox, oy)
        }))
    })))
}

/// FSM synchronizer with configurable save depth.
///
/// See the [module documentation](self) for the algorithm; see
/// [`Synchronizer::process_with_flush`] for the flush extension.
///
/// # Example
///
/// ```
/// use sc_core::{Synchronizer, CorrelationManipulator};
/// use sc_bitstream::{scc, Bitstream};
///
/// let x = Bitstream::parse("10101010")?; // 0.5
/// let y = Bitstream::parse("01010101")?; // 0.5, maximally negative SCC
/// assert_eq!(scc(&x, &y), -1.0);
///
/// let mut sync = Synchronizer::new(1);
/// let (x2, y2) = sync.process(&x, &y)?;
/// assert_eq!(scc(&x2, &y2), 1.0);
/// # Ok::<(), sc_bitstream::Error>(())
/// ```
#[derive(Clone)]
pub struct Synchronizer {
    depth: i32,
    /// Saved-bit credit: positive means `credit` unpaired X 1s are being held
    /// (X is owed that many output 1s), negative means Y 1s are held.
    credit: i32,
    initial_credit: i32,
    /// Shared speculative word-stepping table (`None` for very deep FSMs);
    /// pure acceleration state, excluded from equality and hashing.
    table: Option<Arc<SpeculativeTable>>,
}

impl std::fmt::Debug for Synchronizer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Synchronizer")
            .field("depth", &self.depth)
            .field("credit", &self.credit)
            .field("initial_credit", &self.initial_credit)
            .finish()
    }
}

impl PartialEq for Synchronizer {
    fn eq(&self, other: &Self) -> bool {
        (self.depth, self.credit, self.initial_credit)
            == (other.depth, other.credit, other.initial_credit)
    }
}

impl Eq for Synchronizer {}

impl std::hash::Hash for Synchronizer {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        (self.depth, self.credit, self.initial_credit).hash(state);
    }
}

impl Synchronizer {
    /// Creates a synchronizer with the given save depth `D ≥ 1`.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is 0 or greater than 4096.
    #[must_use]
    pub fn new(depth: u32) -> Self {
        assert!(
            (1..=4096).contains(&depth),
            "synchronizer save depth {depth} outside supported range 1..=4096"
        );
        Synchronizer {
            depth: depth as i32,
            credit: 0,
            initial_credit: 0,
            table: speculative_table(depth),
        }
    }

    /// Creates a synchronizer whose FSM starts with `initial_credit` bits
    /// already marked as saved (positive: X bits, negative: Y bits). §III.B
    /// suggests this to cancel the systematic bias of composed synchronizers.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is outside `1..=4096` or `|initial_credit| > depth`.
    #[must_use]
    pub fn with_initial_credit(depth: u32, initial_credit: i32) -> Self {
        let mut s = Self::new(depth);
        assert!(
            initial_credit.unsigned_abs() <= depth,
            "initial credit {initial_credit} exceeds save depth {depth}"
        );
        s.credit = initial_credit;
        s.initial_credit = initial_credit;
        s
    }

    /// The configured save depth `D`.
    #[must_use]
    pub fn depth(&self) -> u32 {
        self.depth as u32
    }

    /// The number of bits currently saved in the FSM (positive: X, negative: Y).
    #[must_use]
    pub fn saved_bits(&self) -> i32 {
        self.credit
    }

    /// Processes two streams with the flush extension enabled: once the
    /// number of remaining cycles is no larger than the number of saved bits,
    /// the FSM force-emits saved bits so they are not stranded at the end of
    /// the stream (§III.B). This reduces end-of-stream bias at the cost of
    /// slightly weaker induced correlation on the final cycles.
    ///
    /// # Errors
    ///
    /// Returns [`Error::LengthMismatch`] if the streams differ in length.
    pub fn process_with_flush(
        &mut self,
        x: &Bitstream,
        y: &Bitstream,
    ) -> Result<(Bitstream, Bitstream)> {
        if x.len() != y.len() {
            return Err(Error::LengthMismatch {
                left: x.len(),
                right: y.len(),
            });
        }
        let n = x.len();
        let mut out_x = Bitstream::zeros(n);
        let mut out_y = Bitstream::zeros(n);
        for i in 0..n {
            let remaining = (n - i) as i32;
            let (bx, by) = if self.credit != 0 && remaining <= self.credit.abs() {
                self.flush_step(x.bit(i), y.bit(i))
            } else {
                self.step(x.bit(i), y.bit(i))
            };
            out_x.set(i, bx);
            out_y.set(i, by);
        }
        Ok((out_x, out_y))
    }

    /// One cycle of the flush behaviour: emit a saved bit on the owed stream
    /// and pass the other stream through.
    fn flush_step(&mut self, x: bool, y: bool) -> (bool, bool) {
        if self.credit > 0 {
            // X is owed 1s. If the current X bit is itself a 1 it simply
            // passes (the owed bit stays saved for the next flush cycle).
            if !x {
                self.credit -= 1;
            }
            (true, y)
        } else {
            if !y {
                self.credit += 1;
            }
            (x, true)
        }
    }
}

impl CorrelationManipulator for Synchronizer {
    fn name(&self) -> String {
        format!("synchronizer(D={})", self.depth)
    }

    fn step(&mut self, x: bool, y: bool) -> (bool, bool) {
        match (x, y) {
            // Inputs agree: pass them through, state unchanged (Fig. 3a self-loops).
            (false, false) | (true, true) => (x, y),
            // Lone X 1.
            (true, false) => {
                if self.credit < 0 {
                    // A Y 1 is saved: pair it with the current X 1.
                    self.credit += 1;
                    (true, true)
                } else if self.credit < self.depth {
                    // Save the X 1 for later pairing.
                    self.credit += 1;
                    (false, false)
                } else {
                    // Saturated: pass the mismatch through.
                    (true, false)
                }
            }
            // Lone Y 1 (mirror image).
            (false, true) => {
                if self.credit > 0 {
                    self.credit -= 1;
                    (true, true)
                } else if self.credit > -self.depth {
                    self.credit -= 1;
                    (false, false)
                } else {
                    (false, true)
                }
            }
        }
    }

    fn reset(&mut self) {
        self.credit = self.initial_credit;
    }

    /// Routes every entry point — `process`, boxed dispatch, fused chains —
    /// onto the speculative table path.
    fn step_word_dyn(&mut self, x: u64, y: u64, valid: u32) -> (u64, u64) {
        StreamKernel::step_word(self, x, y, valid)
    }
}

impl StreamKernel for Synchronizer {
    /// Speculative multi-bit stepping: the credit FSM has only `2D + 1`
    /// states, so all 64 output bits are resolved by table-driven state
    /// propagation (thirteen chunk lookups per word) instead of 64
    /// data-dependent branchy transitions — bit-identical to
    /// [`bit_serial_step_word`], which remains the in-tree reference (and the
    /// fallback for depths whose state space exceeds the table bound).
    fn step_word(&mut self, x: u64, y: u64, valid: u32) -> (u64, u64) {
        let stepped = self.table.as_ref().map(|table| {
            let mut state = (self.credit + self.depth) as usize;
            let out = table.step_word(&mut state, x, y, valid);
            (out, state as i32 - self.depth)
        });
        match stepped {
            Some((out, credit)) => {
                self.credit = credit;
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
    use sc_bitstream::{scc, Probability};
    use sc_convert::DigitalToStochastic;
    use sc_rng::{Halton, Lfsr, VanDerCorput};

    const N: usize = 256;

    fn uncorrelated_pair(px: f64, py: f64) -> (Bitstream, Bitstream) {
        let mut gx = DigitalToStochastic::new(VanDerCorput::new());
        let mut gy = DigitalToStochastic::new(Halton::new(3));
        (
            gx.generate(Probability::new(px).unwrap(), N),
            gy.generate(Probability::new(py).unwrap(), N),
        )
    }

    /// The depth-1 synchronizer is exactly the three-state FSM of Fig. 3a;
    /// check every transition of the state table.
    #[test]
    fn depth_one_fsm_transition_table() {
        // (state, x, y) -> (out_x, out_y, next_state), states: -1 = saved Y, 0, +1 = saved X.
        let table = [
            (0, false, false, false, false, 0),
            (0, true, true, true, true, 0),
            (0, true, false, false, false, 1),
            (0, false, true, false, false, -1),
            (1, false, false, false, false, 1),
            (1, true, true, true, true, 1),
            (1, false, true, true, true, 0),  // pair saved X bit
            (1, true, false, true, false, 1), // saturated: pass through
            (-1, false, false, false, false, -1),
            (-1, true, true, true, true, -1),
            (-1, true, false, true, true, 0),   // pair saved Y bit
            (-1, false, true, false, true, -1), // saturated: pass through
        ];
        for (state, x, y, ex, ey, next) in table {
            let mut s = Synchronizer::new(1);
            s.credit = state;
            let (ox, oy) = s.step(x, y);
            assert_eq!((ox, oy), (ex, ey), "outputs for state {state} x={x} y={y}");
            assert_eq!(s.credit, next, "next state for state {state} x={x} y={y}");
        }
    }

    #[test]
    fn synchronizer_maximises_correlation_on_alternating_inputs() {
        let x = Bitstream::parse("10101010").unwrap();
        let y = Bitstream::parse("01010101").unwrap();
        let mut sync = Synchronizer::new(1);
        let (ox, oy) = sync.process(&x, &y).unwrap();
        assert_eq!(scc(&ox, &oy), 1.0);
        assert_eq!(ox.count_ones(), 4);
        assert_eq!(oy.count_ones(), 4);
    }

    #[test]
    fn synchronizer_increases_scc_of_uncorrelated_streams() {
        let (x, y) = uncorrelated_pair(0.5, 0.75);
        let before = scc(&x, &y);
        let mut sync = Synchronizer::new(1);
        let (ox, oy) = sync.process(&x, &y).unwrap();
        let after = scc(&ox, &oy);
        assert!(before.abs() < 0.2);
        assert!(after > 0.9, "after = {after}");
    }

    #[test]
    fn values_preserved_up_to_save_depth() {
        let (x, y) = uncorrelated_pair(0.3, 0.8);
        for depth in [1u32, 2, 4, 8] {
            let mut sync = Synchronizer::new(depth);
            let (ox, oy) = sync.process(&x, &y).unwrap();
            let bound = depth as f64 / N as f64 + 1e-12;
            assert!(
                (ox.value() - x.value()).abs() <= bound,
                "depth {depth} x bias {}",
                ox.value() - x.value()
            );
            assert!(
                (oy.value() - y.value()).abs() <= bound,
                "depth {depth} y bias {}",
                oy.value() - y.value()
            );
            // Outputs never gain 1s relative to inputs (bias is always negative or zero).
            assert!(ox.count_ones() <= x.count_ones());
            assert!(oy.count_ones() <= y.count_ones());
        }
    }

    #[test]
    fn deeper_fsm_handles_runs_better() {
        // Adversarial input: long run of lone X 1s followed by lone Y 1s.
        let x = Bitstream::from_fn(64, |i| i < 16);
        let y = Bitstream::from_fn(64, |i| (32..48).contains(&i));
        let shallow_scc = {
            let mut s = Synchronizer::new(1);
            let (ox, oy) = s.process(&x, &y).unwrap();
            scc(&ox, &oy)
        };
        let deep_scc = {
            let mut s = Synchronizer::new(16);
            let (ox, oy) = s.process(&x, &y).unwrap();
            scc(&ox, &oy)
        };
        assert!(deep_scc >= shallow_scc);
        assert_eq!(deep_scc, 1.0);
    }

    #[test]
    fn flush_reduces_end_of_stream_bias() {
        // Input where X has extra 1s near the end that get stuck in a deep FSM.
        let x = Bitstream::from_fn(64, |i| i >= 48);
        let y = Bitstream::zeros(64);
        let mut no_flush = Synchronizer::new(16);
        let (nx, _) = no_flush.process(&x, &y).unwrap();
        let mut with_flush = Synchronizer::new(16);
        let (fx, fy) = with_flush.process_with_flush(&x, &y).unwrap();
        let bias_no_flush = (nx.value() - x.value()).abs();
        let bias_flush = (fx.value() - x.value()).abs();
        assert!(
            bias_flush < bias_no_flush,
            "{bias_flush} vs {bias_no_flush}"
        );
        assert_eq!(fy.count_ones(), 0);
    }

    #[test]
    fn flush_is_noop_when_nothing_saved() {
        let (x, y) = uncorrelated_pair(0.5, 0.5);
        let mut a = Synchronizer::new(1);
        let mut b = Synchronizer::new(1);
        let (ax, ay) = a.process(&x, &y).unwrap();
        let (bx, by) = b.process_with_flush(&x, &y).unwrap();
        // With depth 1 at most the final cycle differs.
        let diff_x = ax.xor(&bx).count_ones();
        let diff_y = ay.xor(&by).count_ones();
        assert!(diff_x <= 1 && diff_y <= 1);
    }

    #[test]
    fn reset_and_initial_credit() {
        let mut s = Synchronizer::with_initial_credit(2, 1);
        assert_eq!(s.saved_bits(), 1);
        let _ = s.step(false, true); // pairs the pre-loaded X bit
        assert_eq!(s.saved_bits(), 0);
        s.reset();
        assert_eq!(s.saved_bits(), 1);
        assert_eq!(s.depth(), 2);
        assert!(s.name().contains("D=2"));
    }

    #[test]
    #[should_panic(expected = "outside supported range")]
    fn zero_depth_panics() {
        let _ = Synchronizer::new(0);
    }

    #[test]
    #[should_panic(expected = "exceeds save depth")]
    fn excessive_initial_credit_panics() {
        let _ = Synchronizer::with_initial_credit(1, 2);
    }

    #[test]
    fn length_mismatch_errors() {
        let mut s = Synchronizer::new(1);
        assert!(s
            .process(&Bitstream::zeros(4), &Bitstream::zeros(5))
            .is_err());
        assert!(s
            .process_with_flush(&Bitstream::zeros(4), &Bitstream::zeros(5))
            .is_err());
    }

    /// The speculative table path must be bit-identical to the retained
    /// bit-serial reference at awkward lengths, across depths (including one
    /// past the table bound, which falls back to bit-serial) and non-zero
    /// starting credits.
    #[test]
    fn speculative_word_stepping_matches_bit_serial() {
        for n in [1usize, 63, 64, 65, 1000] {
            let x = Bitstream::from_fn(n, |i| (i * 7 + 3) % 5 < 2);
            let y = Bitstream::from_fn(n, |i| (i * 11 + 1) % 3 == 0);
            for depth in [1u32, 2, 4, 31, 32] {
                for credit in [-(depth.min(2) as i32), 0, 1] {
                    let mut fast = Synchronizer::with_initial_credit(depth, credit);
                    let mut slow = fast.clone();
                    assert_eq!(fast.table.is_some(), depth <= 31, "table bound at D=31");
                    let a = fast.process(&x, &y).unwrap();
                    let b = slow.process_bit_serial(&x, &y).unwrap();
                    assert_eq!(a, b, "n={n} depth={depth} credit={credit}");
                    assert_eq!(
                        fast.saved_bits(),
                        slow.saved_bits(),
                        "end state n={n} depth={depth} credit={credit}"
                    );
                }
            }
        }
    }

    /// Word-level entry points (direct, via the kernel trait, and via dynamic
    /// dispatch) all take the speculative path and agree with the reference.
    #[test]
    fn speculative_step_word_entry_points_agree() {
        let (x, y) = (0x5A5A_1234_FFFF_0001u64, 0xA5A5_4321_0000_FFFEu64);
        for valid in [1u32, 3, 4, 17, 63, 64] {
            let mut direct = Synchronizer::with_initial_credit(2, 1);
            let mut reference = direct.clone();
            let mut boxed: Box<dyn CorrelationManipulator> =
                Box::new(Synchronizer::with_initial_credit(2, 1));
            let fast = StreamKernel::step_word(&mut direct, x, y, valid);
            let via_box = StreamKernel::step_word(&mut boxed, x, y, valid);
            let slow = bit_serial_step_word(&mut reference, x, y, valid);
            assert_eq!(fast, slow, "valid={valid}");
            assert_eq!(via_box, slow, "boxed valid={valid}");
            assert_eq!(direct.saved_bits(), reference.saved_bits());
        }
    }

    #[test]
    fn table2_row_vdc_halton() {
        // Table II, synchronizer, VDC / Halton row: input SCC ≈ -0.05,
        // output SCC ≈ 0.996, biases ≈ -0.001/-0.002 when averaged over all
        // input values. Spot-check a representative value pair here; the full
        // sweep is regenerated by the table2_scc experiment binary.
        let (x, y) = uncorrelated_pair(0.5, 0.5);
        let mut sync = Synchronizer::new(1);
        let (ox, oy) = sync.process(&x, &y).unwrap();
        assert!(scc(&ox, &oy) > 0.95);
        assert!((ox.value() - 0.5).abs() <= 1.0 / N as f64);
        assert!((oy.value() - 0.5).abs() <= 1.0 / N as f64);
    }

    proptest! {
        #[test]
        fn prop_values_preserved_within_depth(
            bits_x in proptest::collection::vec(any::<bool>(), 64..300),
            bits_y in proptest::collection::vec(any::<bool>(), 64..300),
            depth in 1u32..8,
        ) {
            let n = bits_x.len().min(bits_y.len());
            let x = Bitstream::from_bools(bits_x.into_iter().take(n));
            let y = Bitstream::from_bools(bits_y.into_iter().take(n));
            let mut sync = Synchronizer::new(depth);
            let (ox, oy) = sync.process(&x, &y).unwrap();
            prop_assert!(x.count_ones() - ox.count_ones() <= depth as usize);
            prop_assert!(y.count_ones() - oy.count_ones() <= depth as usize);
            // The two streams cannot both have stranded bits: saved credit is signed.
            let stranded = (x.count_ones() - ox.count_ones()) + (y.count_ones() - oy.count_ones());
            prop_assert!(stranded <= depth as usize);
        }

        #[test]
        fn prop_scc_never_decreases_for_random_streams(
            bits_x in proptest::collection::vec(any::<bool>(), 128..300),
            bits_y in proptest::collection::vec(any::<bool>(), 128..300),
        ) {
            let n = bits_x.len().min(bits_y.len());
            let x = Bitstream::from_bools(bits_x.into_iter().take(n));
            let y = Bitstream::from_bools(bits_y.into_iter().take(n));
            prop_assume!(x.count_ones() > 0 && x.count_ones() < n);
            prop_assume!(y.count_ones() > 0 && y.count_ones() < n);
            let before = scc(&x, &y);
            let mut sync = Synchronizer::new(4);
            let (ox, oy) = sync.process(&x, &y).unwrap();
            prop_assume!(ox.count_ones() > 0 && oy.count_ones() > 0);
            let after = scc(&ox, &oy);
            // Small tolerance: stranded end-of-stream bits can cost a little SCC.
            prop_assert!(after >= before - 0.1, "before {before} after {after}");
        }

        #[test]
        fn prop_lfsr_pair_synchronizes(seed_a in 1u64..10_000, seed_b in 10_000u64..20_000) {
            let mut gx = DigitalToStochastic::new(Lfsr::new(16, seed_a));
            let mut gy = DigitalToStochastic::new(Lfsr::new(16, seed_b));
            let x = gx.generate(Probability::new(0.5).unwrap(), 256);
            let y = gy.generate(Probability::new(0.5).unwrap(), 256);
            prop_assume!(x.count_ones() > 0 && y.count_ones() > 0);
            let mut sync = Synchronizer::new(1);
            let (ox, oy) = sync.process(&x, &y).unwrap();
            prop_assume!(ox.count_ones() > 0 && oy.count_ones() > 0);
            // Table II reports 0.90 on average for LFSR-generated inputs; the
            // worst individual seed pairs land somewhat lower.
            prop_assert!(scc(&ox, &oy) > 0.45, "scc {}", scc(&ox, &oy));
        }
    }
}
