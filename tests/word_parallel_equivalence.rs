//! Equivalence suite for the word-parallel execution engine.
//!
//! Every word-parallel path introduced by the packed-word kernel layer must
//! produce **bit-identical** output to its retained bit-serial reference —
//! on random streams and at awkward lengths (1, 63, 64, 65, 1000) that
//! exercise partial final words. A mismatch of even one bit is a correctness
//! bug: stochastic computing results are exact functions of bit positions,
//! not just of stream values.

use proptest::prelude::*;
use sc_repro::prelude::*;
use sc_repro::{sc_arith, sc_bitstream, sc_core, sc_image, sc_rng};

use sc_bitstream::{reference as bs_ref, Bitstream};
use sc_core::{
    BitSerial, CorrelationManipulator, Decorrelator, Desynchronizer, Isolator, ManipulatorChain,
    Synchronizer, TrackingForecastMemory,
};
use sc_rng::{Halton, Lfsr, RandomSource, Sobol, VanDerCorput};

/// The stream lengths every equivalence check runs at: single-bit, one-off-64
/// boundaries, and a long non-multiple-of-64 stream.
const LENGTHS: [usize; 7] = [1, 2, 63, 64, 65, 129, 1000];

/// Deterministic but irregular test streams.
fn stream_pair(n: usize, salt: usize) -> (Bitstream, Bitstream) {
    (
        Bitstream::from_fn(n, |i| (i * 7 + salt * 13 + 3) % 5 < 2),
        Bitstream::from_fn(n, |i| (i * 11 + salt * 17 + 1).is_multiple_of(3)),
    )
}

#[test]
fn logic_ops_match_bit_serial_reference() {
    for (salt, &n) in LENGTHS.iter().enumerate() {
        let (x, y) = stream_pair(n, salt);
        assert_eq!(
            and_multiply(&x, &y).unwrap(),
            bs_ref::and(&x, &y).unwrap(),
            "and n={n}"
        );
        assert_eq!(
            or_max(&x, &y).unwrap(),
            bs_ref::or(&x, &y).unwrap(),
            "or n={n}"
        );
        assert_eq!(
            xor_subtract(&x, &y).unwrap(),
            bs_ref::xor(&x, &y).unwrap(),
            "xor n={n}"
        );
        assert_eq!(
            sc_arith::multiply::xnor_multiply(&x, &y).unwrap(),
            bs_ref::xnor(&x, &y).unwrap(),
            "xnor n={n}"
        );
        assert_eq!(x.not(), bs_ref::not(&x), "not n={n}");
        let sel = Bitstream::from_fn(n, |i| i % 2 == 0);
        assert_eq!(
            Bitstream::mux(&x, &y, &sel).unwrap(),
            bs_ref::mux(&x, &y, &sel).unwrap(),
            "mux n={n}"
        );
    }
}

#[test]
fn scc_joint_counts_match_bit_serial_reference() {
    for (salt, &n) in LENGTHS.iter().enumerate() {
        let (x, y) = stream_pair(n, salt);
        let word = JointCounts::from_streams(&x, &y).unwrap();
        let serial = bs_ref::joint_counts(&x, &y).unwrap();
        assert_eq!(word, serial, "joint counts n={n}");
        assert_eq!(scc(&x, &y), serial.scc(), "scc n={n}");
    }
}

#[test]
fn counter_operators_match_bit_serial_reference() {
    for (salt, &n) in LENGTHS.iter().enumerate() {
        let (x, y) = stream_pair(n, salt);
        assert_eq!(
            ca_add(&x, &y).unwrap(),
            sc_arith::reference::ca_add(&x, &y).unwrap(),
            "ca_add n={n}"
        );
        assert_eq!(
            ca_max(&x, &y).unwrap(),
            sc_arith::reference::ca_max(&x, &y).unwrap(),
            "ca_max n={n}"
        );
    }
}

/// Asserts that `make()`-built manipulators produce bit-identical results via
/// the word-parallel `process`, the retained `process_bit_serial`, the
/// engine driving a `BitSerial` wrapper, and the circuit boxed as a
/// `Box<dyn CorrelationManipulator>` — both its whole-stream `process` and
/// its `step_word` driven word by word.
fn assert_manipulator_equivalence<M, F>(label: &str, make: F)
where
    M: CorrelationManipulator + 'static,
    F: Fn() -> M,
{
    for (salt, &n) in LENGTHS.iter().enumerate() {
        let (x, y) = stream_pair(n, salt);
        let word = make().process(&x, &y).unwrap();
        let serial = make().process_bit_serial(&x, &y).unwrap();
        assert_eq!(word, serial, "{label}: process vs bit-serial, n={n}");
        let mut wrapped = BitSerial(make());
        let via_kernel = wrapped.process(&x, &y).unwrap();
        assert_eq!(
            word, via_kernel,
            "{label}: kernel engine vs bit-serial, n={n}"
        );
        let mut boxed: Box<dyn CorrelationManipulator> = Box::new(make());
        assert_eq!(
            boxed.process(&x, &y).unwrap(),
            serial,
            "{label}: boxed process vs bit-serial, n={n}"
        );
        let mut boxed: Box<dyn CorrelationManipulator> = Box::new(make());
        let (mut out_x, mut out_y) = (Vec::new(), Vec::new());
        for (w, (xw, yw)) in x.zip_words(&y).enumerate() {
            let (ox, oy) = boxed.step_word(xw, yw, (n - w * 64).min(64) as u32);
            out_x.push(ox);
            out_y.push(oy);
        }
        assert_eq!(
            (
                Bitstream::from_words(out_x, n),
                Bitstream::from_words(out_y, n)
            ),
            serial,
            "{label}: boxed step_word vs bit-serial, n={n}"
        );
    }
}

#[test]
fn manipulators_match_bit_serial_reference() {
    assert_manipulator_equivalence("identity", sc_core::Identity::new);
    for k in [1usize, 2, 63, 64, 65, 300] {
        assert_manipulator_equivalence(&format!("isolator-k{k}"), move || Isolator::new(k));
    }
    for d in [1u32, 2, 16, 64] {
        assert_manipulator_equivalence(&format!("synchronizer-d{d}"), move || Synchronizer::new(d));
        assert_manipulator_equivalence(&format!("desynchronizer-d{d}"), move || {
            Desynchronizer::new(d)
        });
    }
    assert_manipulator_equivalence("synchronizer-credit", || {
        Synchronizer::with_initial_credit(4, -2)
    });
    for d in [1usize, 4, 32] {
        assert_manipulator_equivalence(&format!("decorrelator-d{d}"), move || Decorrelator::new(d));
    }
    assert_manipulator_equivalence("tfm", || TrackingForecastMemory::new(3));
    assert_manipulator_equivalence("chain", || {
        let mut chain = ManipulatorChain::new();
        chain.push(Synchronizer::new(1));
        chain.push(Isolator::new(2));
        chain.push(Decorrelator::new(4));
        chain
    });
}

/// Speculative FSM word-stepping (the table-driven synchronizer /
/// desynchronizer `step_word`) is bit-identical to [`bit_serial_step_word`]
/// at the canonical awkward lengths, driven word by word with the exact
/// per-word `valid` counts the engine uses.
#[test]
fn speculative_fsm_word_stepping_matches_bit_serial_fallback() {
    use sc_core::bit_serial_step_word;
    for (salt, &n) in [1usize, 63, 64, 65, 1000].iter().enumerate() {
        let (x, y) = stream_pair(n, salt);
        for depth in [1u32, 2, 4] {
            let mut sync_fast = Synchronizer::new(depth);
            let mut sync_slow = Synchronizer::new(depth);
            let mut desync_fast = Desynchronizer::new(depth);
            let mut desync_slow = Desynchronizer::new(depth);
            for (w, (xw, yw)) in x.zip_words(&y).enumerate() {
                let valid = (n - w * 64).min(64) as u32;
                assert_eq!(
                    sync_fast.step_word(xw, yw, valid),
                    bit_serial_step_word(&mut sync_slow, xw, yw, valid),
                    "synchronizer d={depth} n={n} word={w}"
                );
                assert_eq!(
                    desync_fast.step_word(xw, yw, valid),
                    bit_serial_step_word(&mut desync_slow, xw, yw, valid),
                    "desynchronizer d={depth} n={n} word={w}"
                );
            }
            assert_eq!(sync_fast.saved_bits(), sync_slow.saved_bits());
            assert_eq!(desync_fast.banked_bits(), desync_slow.banked_bits());
        }
    }
}

#[test]
fn fused_chain_matches_stagewise_processing() {
    for (salt, &n) in LENGTHS.iter().enumerate() {
        let (x, y) = stream_pair(n, salt);
        // Fused: one pass through the chain kernel.
        let mut chain = ManipulatorChain::new();
        chain.push(Synchronizer::new(2));
        chain.push(Desynchronizer::new(1));
        let fused = chain.process(&x, &y).unwrap();
        // Stage-wise: materialise the intermediate pair.
        let mut s1 = Synchronizer::new(2);
        let (ix, iy) = s1.process(&x, &y).unwrap();
        let mut s2 = Desynchronizer::new(1);
        let stagewise = s2.process(&ix, &iy).unwrap();
        assert_eq!(fused, stagewise, "n={n}");
    }
}

#[test]
fn word_batched_generation_matches_bit_serial_generation() {
    fn check<S: RandomSource + Clone>(label: &str, source: S) {
        for &n in &LENGTHS {
            for &p in &[0.0, 0.25, 0.5, 0.8, 1.0] {
                let p = Probability::saturating(p);
                let mut batched = DigitalToStochastic::new(source.clone());
                let got = batched.generate(p, n);
                let mut serial_source = source.clone();
                let expected = Bitstream::from_fn(n, |_| p.get() > serial_source.next_unit());
                assert_eq!(got, expected, "{label} generate n={n} p={}", p.get());
            }
            // Correlated pairs share one sample per cycle.
            let (px, py) = (Probability::saturating(0.3), Probability::saturating(0.7));
            let mut batched = DigitalToStochastic::new(source.clone());
            let (gx, gy) = batched.generate_correlated_pair(px, py, n);
            let mut serial_source = source.clone();
            let mut ex = Bitstream::zeros(n);
            let mut ey = Bitstream::zeros(n);
            for i in 0..n {
                let r = serial_source.next_unit();
                ex.set(i, px.get() > r);
                ey.set(i, py.get() > r);
            }
            assert_eq!((gx, gy), (ex, ey), "{label} correlated pair n={n}");
        }
    }
    check("lfsr", Lfsr::new(16, 0xACE1));
    check("vdc", VanDerCorput::new());
    check("halton", Halton::new(3));
    check("sobol", Sobol::new(2));
}

#[test]
fn gaussian_blur_gather_matches_bit_serial_selection() {
    use sc_image::{ScGaussianBlur, GAUSSIAN_WEIGHTS};
    for &n in &[1usize, 63, 64, 65, 500] {
        let streams: Vec<Bitstream> = (0..9)
            .map(|k| Bitstream::from_fn(n, move |i| (i * (k + 2) + k) % 4 < 2))
            .collect();
        let refs: Vec<&Bitstream> = streams.iter().collect();
        let mut blur = ScGaussianBlur::new(Lfsr::new(16, 0x1D0D));
        let got = blur.apply(&refs);
        // Bit-serial reference: same source, same selection walk.
        let mut source = Lfsr::new(16, 0x1D0D);
        let expected = Bitstream::from_fn(n, |i| {
            let mut u = source.next_unit();
            let mut selected = 8;
            for (idx, w) in GAUSSIAN_WEIGHTS.iter().enumerate() {
                if u < *w {
                    selected = idx;
                    break;
                }
                u -= w;
            }
            streams[selected].bit(i)
        });
        assert_eq!(got, expected, "gaussian blur n={n}");
    }
}

#[test]
fn regeneration_matches_bit_serial_reencoding() {
    for &n in &LENGTHS {
        let input = Bitstream::from_fn(n, |i| (i * 3 + 1) % 4 == 0);
        let mut regen = Regenerator::new(VanDerCorput::new());
        let got = regen.regenerate(&input);
        let p = Probability::from_ratio(input.count_ones() as u64, n as u64);
        let mut source = VanDerCorput::new();
        let expected = Bitstream::from_fn(n, |_| p.get() > source.next_unit());
        assert_eq!(got, expected, "regenerate n={n}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn prop_logic_ops_bit_identical(bits_x in proptest::collection::vec(any::<bool>(), 1..400),
                                    bits_y in proptest::collection::vec(any::<bool>(), 1..400)) {
        let n = bits_x.len().min(bits_y.len());
        let x = Bitstream::from_bools(bits_x.into_iter().take(n));
        let y = Bitstream::from_bools(bits_y.into_iter().take(n));
        prop_assert_eq!(x.and(&y), bs_ref::and(&x, &y).unwrap());
        prop_assert_eq!(x.or(&y), bs_ref::or(&x, &y).unwrap());
        prop_assert_eq!(x.xor(&y), bs_ref::xor(&x, &y).unwrap());
        prop_assert_eq!(x.not(), bs_ref::not(&x));
        prop_assert_eq!(
            JointCounts::from_streams(&x, &y).unwrap(),
            bs_ref::joint_counts(&x, &y).unwrap()
        );
    }

    #[test]
    fn prop_counter_ops_bit_identical(bits_x in proptest::collection::vec(any::<bool>(), 1..400),
                                      bits_y in proptest::collection::vec(any::<bool>(), 1..400)) {
        let n = bits_x.len().min(bits_y.len());
        let x = Bitstream::from_bools(bits_x.into_iter().take(n));
        let y = Bitstream::from_bools(bits_y.into_iter().take(n));
        prop_assert_eq!(ca_add(&x, &y).unwrap(), sc_arith::reference::ca_add(&x, &y).unwrap());
        prop_assert_eq!(ca_max(&x, &y).unwrap(), sc_arith::reference::ca_max(&x, &y).unwrap());
    }

    #[test]
    fn prop_manipulators_bit_identical(bits_x in proptest::collection::vec(any::<bool>(), 1..300),
                                       bits_y in proptest::collection::vec(any::<bool>(), 1..300),
                                       depth in 1u32..8,
                                       delay in 1usize..80) {
        let n = bits_x.len().min(bits_y.len());
        let x = Bitstream::from_bools(bits_x.into_iter().take(n));
        let y = Bitstream::from_bools(bits_y.into_iter().take(n));

        let word = Synchronizer::new(depth).process(&x, &y).unwrap();
        let serial = Synchronizer::new(depth).process_bit_serial(&x, &y).unwrap();
        prop_assert_eq!(word, serial);

        let word = Desynchronizer::new(depth).process(&x, &y).unwrap();
        let serial = Desynchronizer::new(depth).process_bit_serial(&x, &y).unwrap();
        prop_assert_eq!(word, serial);

        let word = Isolator::new(delay).process(&x, &y).unwrap();
        let serial = Isolator::new(delay).process_bit_serial(&x, &y).unwrap();
        prop_assert_eq!(word, serial);

        let word = Decorrelator::new(delay.min(32)).process(&x, &y).unwrap();
        let serial = Decorrelator::new(delay.min(32)).process_bit_serial(&x, &y).unwrap();
        prop_assert_eq!(word, serial);
    }

    /// Speculative FSM stepping from a *random mid-stream state*: a random
    /// warm-up prefix drives the FSM into an arbitrary reachable state before
    /// the compared segment, so table-driven propagation must agree with the
    /// bit-serial reference from every starting state, not just power-on.
    #[test]
    fn prop_speculative_fsm_random_state_bit_identical(
        warm_x in proptest::collection::vec(any::<bool>(), 0..150),
        warm_y in proptest::collection::vec(any::<bool>(), 0..150),
        bits_x in proptest::collection::vec(any::<bool>(), 1..300),
        bits_y in proptest::collection::vec(any::<bool>(), 1..300),
        depth in 1u32..8,
    ) {
        let w = warm_x.len().min(warm_y.len());
        let n = bits_x.len().min(bits_y.len());
        let x = Bitstream::from_bools(bits_x.into_iter().take(n));
        let y = Bitstream::from_bools(bits_y.into_iter().take(n));

        let mut sync_fast = Synchronizer::new(depth);
        let mut desync_fast = Desynchronizer::new(depth);
        for i in 0..w {
            let _ = sync_fast.step(warm_x[i], warm_y[i]);
            let _ = desync_fast.step(warm_x[i], warm_y[i]);
        }
        let mut sync_slow = sync_fast.clone();
        let mut desync_slow = desync_fast.clone();

        prop_assert_eq!(
            sync_fast.process(&x, &y).unwrap(),
            sync_slow.process_bit_serial(&x, &y).unwrap()
        );
        prop_assert_eq!(sync_fast.saved_bits(), sync_slow.saved_bits());
        prop_assert_eq!(
            desync_fast.process(&x, &y).unwrap(),
            desync_slow.process_bit_serial(&x, &y).unwrap()
        );
        prop_assert_eq!(desync_fast.banked_bits(), desync_slow.banked_bits());
    }
}
