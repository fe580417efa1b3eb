//! Deterministic cost gate of the plan-cache hit path.
//!
//! A warm hit of `TilePlanner::plan_tile` makes a fixed number of heap
//! allocations — the tile's input values and its source binding table —
//! whatever the tile size, and whether or not the tile sits at another bank
//! phase than its template (which binds the 8 pixel sources as well as the
//! two select seeds). A hit that built the tile's graph, cloned a plan or
//! formatted sink names would allocate per pixel and fail here. This is a
//! test binary of its own because it installs a counting global allocator.

use sc_image::{GrayImage, PipelineConfig, PipelineStats, PipelineVariant, TilePlanner};
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

/// Heap allocations of one warm cache hit on a `tile_size`² tile at
/// `origin`, planned after the tile at (0, 0), and the hit's binding count.
fn warm_hit_allocations(tile_size: usize, origin: (usize, usize)) -> (u64, usize) {
    let config = PipelineConfig {
        tile_size,
        stream_length: 64,
        ..PipelineConfig::default()
    };
    let image = GrayImage::gradient(2 * tile_size, 2 * tile_size);
    let mut planner = TilePlanner::new(PipelineVariant::Synchronizer, config);
    let mut stats = PipelineStats::default();
    let miss = planner.plan_tile(&image, 0, 0, 0, &mut stats);
    let before = ALLOCATIONS.with(Cell::get);
    let hit = planner.plan_tile(&image, origin.0, origin.1, 2, &mut stats);
    let allocations = ALLOCATIONS.with(Cell::get) - before;
    assert_eq!(stats.compilations, 1, "the second tile is a cache hit");
    let bindings = hit.input.bindings.len();
    drop((miss, hit));
    (allocations, bindings)
}

#[test]
fn warm_plan_cache_hit_allocates_a_constant_two_blocks() {
    for tile_size in [6, 10] {
        // (0, t) has the bank phase of (0, 0) for an even tile size: the hit
        // binds the two select seeds. (t, 0) has x0 mod 4 = 2: it binds the
        // 8 pixel sources too, in the same table.
        for (origin, bindings) in [((0, tile_size), 2), ((tile_size, 0), 10)] {
            assert_eq!(
                warm_hit_allocations(tile_size, origin),
                (2, bindings),
                "a warm hit at {origin:?} on a {tile_size}x{tile_size} tile allocates its \
                 input values and its source bindings, nothing else"
            );
        }
    }
}
