//! Deterministic cost gate of the executor's per-job path.
//!
//! A warm job — `Executor::run` on a plan that has already run once at this
//! stream length — makes a fixed number of heap allocations whatever the
//! tile size, and whether it binds only the select seeds or the 8 pixel
//! sources too: the job's word arena and its slot lengths, its table of
//! bound specs, and its output values. An executor that allocated a stream
//! per step, built a boxed circuit per manipulator or looked planes up per
//! step would allocate per pixel and fail here. This is a test binary of
//! its own because it installs a counting global allocator.

use sc_graph::Executor;
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

/// Heap allocations of one warm synchronizer-variant job on a
/// `tile_size`² tile at `origin` at the default stream length, run on the
/// plan compiled for the tile at (0, 0) with `bindings` source bindings.
fn warm_job_allocations(tile_size: usize, origin: (usize, usize), bindings: usize) -> u64 {
    let config = PipelineConfig {
        tile_size,
        ..PipelineConfig::default()
    };
    let image = GrayImage::gradient(2 * tile_size, 2 * tile_size);
    let mut planner = TilePlanner::new(PipelineVariant::Synchronizer, config.clone());
    let mut stats = PipelineStats::default();
    let first = planner.plan_tile(&image, 0, 0, 0, &mut stats);
    let tile = planner.plan_tile(&image, origin.0, origin.1, 2, &mut stats);
    assert_eq!(stats.compilations, 1, "the second tile reuses the plan");
    assert_eq!(tile.input.bindings.len(), bindings, "and binds its sources");
    assert!(
        tile.plan.report().inserted.len() >= tile_size * tile_size,
        "the planner inserted the variant's synchronizers"
    );
    let exec = Executor::new(config.stream_length);
    // The first job resolves the plan's plane handles.
    exec.run(&first.plan, &first.input).unwrap();
    let cold = exec.run(&tile.plan, &tile.input).unwrap();
    let before = ALLOCATIONS.with(Cell::get);
    let warm = exec.run(&tile.plan, &tile.input).unwrap();
    let allocations = ALLOCATIONS.with(Cell::get) - before;
    assert_eq!(warm, cold, "a warm job repeats the last one bit for bit");
    assert_eq!(warm.sink_values().len(), tile_size * tile_size);
    allocations
}

#[test]
fn warm_tile_job_allocates_a_constant_four_blocks() {
    for tile_size in [6, 10] {
        // (0, t) has the bank phase of (0, 0) for an even tile size: the job
        // binds the two select seeds. (t, 0) has x0 mod 4 = 2: it binds the
        // 8 pixel sources too, through the plan's own resolved comparators.
        for (origin, bindings) in [((0, tile_size), 2), ((tile_size, 0), 10)] {
            assert_eq!(
                warm_job_allocations(tile_size, origin, bindings),
                4,
                "a warm job at {origin:?} on a {tile_size}x{tile_size} tile allocates its \
                 arena words, its slot lengths, its bound-spec table and its output \
                 values, nothing else"
            );
        }
    }
}
