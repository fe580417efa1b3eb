//! End-to-end integration tests spanning every workspace crate: generation,
//! correlation manipulation, arithmetic, conversion, and cost modelling used
//! together the way an application would.

use sc_repro::prelude::*;
use sc_sim::{components::AndGate, Circuit};

const N: usize = 256;

fn uncorrelated_pair(px: f64, py: f64) -> (Bitstream, Bitstream) {
    let mut gx = DigitalToStochastic::new(VanDerCorput::new());
    let mut gy = DigitalToStochastic::new(Halton::new(3));
    (
        gx.generate(Probability::saturating(px), N),
        gy.generate(Probability::saturating(py), N),
    )
}

#[test]
fn generate_manipulate_compute_convert_round_trip() {
    // The full life of a stochastic computation: D/S conversion, correlation
    // manipulation, gate-level arithmetic, S/D conversion.
    let (x, y) = uncorrelated_pair(0.5, 0.75);

    // Multiply while uncorrelated.
    let product = and_multiply(&x, &y).expect("equal lengths");
    assert!((StochasticToDigital::convert(&product).get() - 0.375).abs() < 0.05);

    // Synchronize, then take the maximum with a single OR gate.
    let mut sync = Synchronizer::new(1);
    let (xs, ys) = sync.process(&x, &y).expect("equal lengths");
    assert!(scc(&xs, &ys) > 0.9);
    let max = xs.or(&ys);
    assert!((max.value() - 0.75).abs() < 0.03);

    // Desynchronize, then saturating-add with the same OR gate.
    let mut desync = Desynchronizer::new(1);
    let (xd, yd) = desync.process(&x, &y).expect("equal lengths");
    assert!(scc(&xd, &yd) < -0.5);
    let sat = xd.or(&yd);
    assert!((sat.value() - 1.0).abs() < 0.05);
}

#[test]
fn functional_model_matches_gate_level_simulation() {
    // The bitstream-level operators must agree with the cycle-level circuit
    // simulator on the same netlist.
    let (x, y) = uncorrelated_pair(0.4, 0.6);
    let expected = and_multiply(&x, &y).expect("equal lengths");

    let mut circuit = Circuit::new();
    let nx = circuit.add_input("x");
    let ny = circuit.add_input("y");
    let nz = circuit.add_component(AndGate::new(), &[nx, ny])[0];
    circuit.mark_output("z", nz);
    let outputs = circuit.run(&[("x", x), ("y", y)]).expect("valid netlist");
    assert_eq!(outputs["z"], expected);
}

#[test]
fn synchronizer_repairs_a_two_stage_computation() {
    // Stage 1 produces streams whose correlation is "whatever fell out";
    // stage 2 (XOR subtraction) needs positive correlation. The synchronizer
    // inserted between the stages fixes the result without touching stage 1.
    let (a, b) = uncorrelated_pair(0.9, 0.3);
    let (c, d) = uncorrelated_pair(0.6, 0.5);

    // Stage 1: two scaled additions on independent operand pairs.
    let mut adder = sc_arith::add::MuxAdder::new(Lfsr::new(16, 0xACE1));
    let s1 = adder.add(&a, &c).expect("equal lengths"); // (0.9 + 0.6) / 2 = 0.75
    let s2 = adder.add(&b, &d).expect("equal lengths"); // (0.3 + 0.5) / 2 = 0.40
    let expected = 0.75 - 0.40;

    // Stage 2 without manipulation: wrong.
    let wrong = xor_subtract(&s1, &s2).expect("equal lengths");
    assert!(
        (wrong.value() - expected).abs() > 0.1,
        "uncorrelated XOR should be off"
    );

    // Stage 2 with a synchronizer: close to the true |difference|.
    let mut sync = Synchronizer::new(2);
    let (s1s, s2s) = sync.process(&s1, &s2).expect("equal lengths");
    let fixed = xor_subtract(&s1s, &s2s).expect("equal lengths");
    assert!(
        (fixed.value() - expected).abs() < 0.06,
        "synchronized XOR value {} should be near {expected}",
        fixed.value()
    );
}

#[test]
fn regeneration_and_decorrelator_agree_on_the_goal() {
    // Both regeneration (expensive) and the decorrelator (cheap) should make a
    // correlated pair usable for multiplication again.
    let mut shared = DigitalToStochastic::new(VanDerCorput::new());
    let (x, y) = shared.generate_correlated_pair(
        Probability::saturating(0.5),
        Probability::saturating(0.5),
        N,
    );
    assert!(
        (x.and(&y).value() - 0.5).abs() < 0.02,
        "correlated AND computes min"
    );

    let mut deco = Decorrelator::new(8);
    let (dx, dy) = deco.process(&x, &y).expect("equal lengths");
    assert!(
        (dx.and(&dy).value() - 0.25).abs() < 0.07,
        "decorrelated AND computes the product"
    );

    let mut rx = Regenerator::new(VanDerCorput::with_offset(1234));
    let mut ry = Regenerator::new(Halton::new(3));
    let gx = rx.regenerate(&x);
    let gy = ry.regenerate(&y);
    assert!(
        (gx.and(&gy).value() - 0.25).abs() < 0.05,
        "regenerated AND computes the product"
    );
}

#[test]
fn cost_model_tracks_every_design_used_in_the_flow() {
    // Every hardware block exercised above has a cost entry, and the ordering
    // of costs matches the paper's qualitative claims.
    let or_gate = characterize::or_max();
    let sync = characterize::synchronizer_max(1);
    let ca = characterize::correlation_agnostic_max();
    let regen = characterize::regeneration_unit(8);
    let deco = characterize::decorrelator(8);

    assert!(or_gate.area_um2 < sync.area_um2);
    assert!(sync.area_um2 < ca.area_um2);
    assert!(deco.area_um2() < regen.area_um2());
    // Two synchronizers (the replacement for one regeneration point in the
    // image pipeline) still cost less energy than one regeneration unit.
    let two_syncs = characterize::synchronizer(1).scaled("2x", 2);
    assert!(two_syncs.power_uw() < regen.power_uw());
}
