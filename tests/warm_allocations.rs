//! Deterministic cost gate of the circuits' warm paths from a reset.
//!
//! A generator reset before every call converts through the prefix plane it
//! built on its first calls, and a default decorrelator, fresh or reset,
//! runs the lag network its depth shares process-wide, so a warm call
//! allocates only its output streams: one for `StreamGenerator::generate`,
//! two for `generate_correlated_pair` and for `Decorrelator::process`, one
//! for each improved operator, which writes the gate of its circuit's two
//! outputs straight into one stream. A plane or a network that was copied
//! per call, or an operator that built its circuit's two output streams
//! before gating them, would allocate more and fail here. This is a test
//! binary of its own because it installs a counting global allocator.

use sc_bitstream::{Bitstream, Probability};
use sc_convert::StreamGenerator;
use sc_core::ops::{desync_saturating_add, sync_max, sync_min};
use sc_core::{CorrelationManipulator, Decorrelator};
use sc_rng::Sobol;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations made by the current thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting allocations per thread.
struct CountingAlloc;

fn count_one() {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to the system
// allocator, so the caller's `GlobalAlloc` guarantees carry over as they
// are. The count lives in a const-initialised thread-local `Cell`, which
// itself never allocates, so counting cannot re-enter the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const N: usize = 1024;

/// Heap allocations made by `f`, whose result is dropped after counting.
fn allocations<T>(f: impl FnOnce() -> T) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    let made = ALLOCATIONS.with(Cell::get) - before;
    drop(out);
    made
}

/// A pair of uncorrelated inputs and the warm generator that drew them.
fn inputs() -> (StreamGenerator, Bitstream, Bitstream) {
    let mut generator = StreamGenerator::new(Box::new(Sobol::new(2)));
    let mut other = StreamGenerator::new(Box::new(Sobol::new(3)));
    let p = Probability::new(0.6).unwrap();
    generator.reset();
    let x = generator.generate(p, N);
    other.reset();
    let y = other.generate(Probability::new(0.3).unwrap(), N);
    (generator, x, y)
}

#[test]
fn warm_reset_generate_allocates_only_its_streams() {
    let (mut generator, _, _) = inputs();
    let (p, q) = (
        Probability::new(0.45).unwrap(),
        Probability::new(0.8).unwrap(),
    );
    // One block and a multi-block run: the plane is warmed to 4,096 samples
    // first, so no call below grows it.
    generator.reset();
    let _ = generator.generate(p, 4096);
    for n in [N, 4096] {
        let made = allocations(|| {
            generator.reset();
            generator.generate(p, n)
        });
        assert_eq!(
            made, 1,
            "a warm generate of {n} bits allocates its words only"
        );
        let made = allocations(|| {
            generator.reset();
            generator.generate_correlated_pair(p, q, n)
        });
        assert_eq!(
            made, 2,
            "a warm correlated pair of {n} bits allocates its two streams only"
        );
    }
}

#[test]
fn warm_reset_decorrelator_allocates_only_its_two_streams() {
    let (_, x, y) = inputs();
    let mut deco = Decorrelator::new(4);
    deco.reset();
    let first = deco.process(&x, &y).unwrap();
    let made = allocations(|| {
        deco.reset();
        let out = deco.process(&x, &y).unwrap();
        assert_eq!(out, first, "a reset run repeats the first");
        out
    });
    assert_eq!(
        made, 2,
        "a reset decorrelator allocates its two output streams only"
    );
}

#[test]
fn fresh_decorrelator_with_a_warm_network_allocates_only_its_two_streams() {
    let (_, x, y) = inputs();
    let first = Decorrelator::new(4).process(&x, &y).unwrap();
    let made = allocations(|| {
        let out = Decorrelator::new(4).process(&x, &y).unwrap();
        assert_eq!(out, first, "a fresh circuit repeats the first");
        out
    });
    assert_eq!(
        made, 2,
        "a fresh decorrelator allocates its two output streams only"
    );
}

#[test]
fn improved_operators_allocate_only_their_output() {
    let (_, x, y) = inputs();
    let _warm = (sync_max(&x, &y, 1), desync_saturating_add(&x, &y, 1));
    assert_eq!(allocations(|| sync_max(&x, &y, 1).unwrap()), 1, "sync_max");
    assert_eq!(allocations(|| sync_min(&x, &y, 1).unwrap()), 1, "sync_min");
    assert_eq!(
        allocations(|| desync_saturating_add(&x, &y, 1).unwrap()),
        1,
        "desync_saturating_add"
    );
}
