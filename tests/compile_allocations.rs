//! Deterministic cost gates of a plan-cache miss: the tile's graph build
//! and its compile.
//!
//! `Graph::compile` of a full-size 10×10 tile makes fewer than one heap
//! allocation per sixteen steps it emits, for every variant (38 / 31 / 46
//! for 690 / 811 / 890 steps). A compiler that cloned every node, kept a
//! consumer list per node, or gave a step its own input list or sink name
//! would allocate at least once per such node and fail here. `tile_graph` of the same tile makes fewer than one
//! per node plus one per sink (each sink owns its name), so a per-kernel
//! copy of the blur weights fails it. This is a test binary of its own
//! because it installs a counting global allocator.

use sc_image::{planner_options, tile_graph, GrayImage, PipelineConfig, PipelineVariant};
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

#[test]
fn compiling_a_full_tile_allocates_less_than_once_per_sixteen_steps() {
    let config = PipelineConfig::default();
    assert_eq!(
        config.tile_size, 10,
        "the gate is sized for the default tile"
    );
    let image = GrayImage::gradient(config.tile_size, config.tile_size);
    let mut counts = Vec::new();
    for variant in PipelineVariant::all() {
        let tile = tile_graph(&image, 0, 0, variant, &config, 0);
        let options = planner_options(variant, &config);
        let before = ALLOCATIONS.with(Cell::get);
        let plan = tile.graph.compile(&options).expect("tile graphs compile");
        let allocations = ALLOCATIONS.with(Cell::get) - before;
        counts.push((variant, allocations, plan.step_count() as u64));
    }
    for &(variant, allocations, steps) in &counts {
        eprintln!("{variant:?}: {allocations} allocations for {steps} steps");
    }
    for (variant, allocations, steps) in counts {
        assert!(
            16 * allocations < steps,
            "{variant:?}: compile made {allocations} allocations for {steps} steps"
        );
    }
}

#[test]
fn building_a_full_tile_graph_allocates_less_than_once_per_node_and_sink() {
    let config = PipelineConfig::default();
    assert_eq!(
        config.tile_size, 10,
        "the gate is sized for the default tile"
    );
    let image = GrayImage::gradient(config.tile_size, config.tile_size);
    let mut counts = Vec::new();
    for variant in PipelineVariant::all() {
        let before = ALLOCATIONS.with(Cell::get);
        let tile = tile_graph(&image, 0, 0, variant, &config, 0);
        let allocations = ALLOCATIONS.with(Cell::get) - before;
        let limit = (tile.graph.node_count() + tile.sinks.len()) as u64;
        counts.push((variant, allocations, limit));
    }
    for &(variant, allocations, limit) in &counts {
        eprintln!("{variant:?}: {allocations} allocations, limit {limit}");
    }
    for (variant, allocations, limit) in counts {
        assert!(
            allocations < limit,
            "{variant:?}: tile_graph made {allocations} allocations, limit {limit}"
        );
    }
}
