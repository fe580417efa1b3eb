//! Concurrency guarantees of the sink's span rings and snapshots: overwrite
//! accounting stays exact under parallel writers, and a non-destructive
//! [`TelemetrySink::snapshot`] never consumes spans a later
//! [`TelemetrySink::drain`] is entitled to report.

use sc_telemetry::{Stage, TelemetrySink};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

/// Every span a writer opens is accounted for exactly once: it either
/// survives in its thread's ring or is counted in `dropped_spans`. With the
/// rings deliberately far smaller than the workload, most spans overwrite —
/// and `retained + dropped` must still equal the total written.
#[test]
fn overwrite_accounting_is_exact_under_concurrent_writers() {
    const WRITERS: usize = 8;
    const SPANS_PER_WRITER: usize = 500;
    const RING_CAPACITY: usize = 32;

    let sink = TelemetrySink::with_span_capacity(RING_CAPACITY);
    let barrier = Arc::new(Barrier::new(WRITERS));
    let handles: Vec<_> = (0..WRITERS)
        .map(|_| {
            let sink = sink.clone();
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                for _ in 0..SPANS_PER_WRITER {
                    let _span = sink.span(Stage::ScalarExecute);
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().expect("writer threads complete");
    }

    let report = sink.drain();
    let total = (WRITERS * SPANS_PER_WRITER) as u64;
    assert_eq!(
        report.spans.len() as u64 + report.dropped_spans,
        total,
        "retained {} + dropped {} spans must equal the {} written",
        report.spans.len(),
        report.dropped_spans,
        total
    );
    assert!(
        report.dropped_spans > 0,
        "the {RING_CAPACITY}-slot rings must overflow under {total} spans"
    );
    // Each writer thread keeps at most one ring of survivors.
    assert!(report.spans.len() <= WRITERS * RING_CAPACITY);
}

/// Snapshots taken while writers are mid-flight are internally consistent
/// (accounting holds on every observation) and non-destructive: the final
/// drain still reports every span the rings retained, no matter how many
/// snapshots were taken before it.
#[test]
fn snapshots_interleaved_with_writers_do_not_consume_drained_spans() {
    const RING_CAPACITY: usize = 64;
    const TOTAL_SPANS: usize = 2000;

    let sink = TelemetrySink::with_span_capacity(RING_CAPACITY);
    let stop = Arc::new(AtomicBool::new(false));
    let sampler = {
        let sink = sink.clone();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            // Snapshot before the first `stop` check: the writer may finish
            // before this thread is first scheduled.
            let mut observations = 0u64;
            loop {
                let snapshot = sink.snapshot();
                // Mid-flight invariant: a snapshot never invents or loses
                // spans — retained + dropped covers exactly what had been
                // recorded by some point of the interleaving.
                assert!(snapshot.spans.len() as u64 + snapshot.dropped_spans <= TOTAL_SPANS as u64);
                observations += 1;
                if stop.load(Ordering::Acquire) {
                    break observations;
                }
                std::thread::yield_now();
            }
        })
    };

    for _ in 0..TOTAL_SPANS {
        let _span = sink.span(Stage::ScalarExecute);
    }
    stop.store(true, Ordering::Release);
    let observations = sampler.join().expect("sampler thread completes");
    assert!(observations > 0, "the sampler observed the run");

    // The writer is single-threaded, so the ring holds the last
    // RING_CAPACITY spans and dropped counts the rest — snapshots along the
    // way must not have consumed any of them.
    let report = sink.drain();
    assert_eq!(report.spans.len(), RING_CAPACITY);
    assert_eq!(
        report.dropped_spans,
        (TOTAL_SPANS - RING_CAPACITY) as u64,
        "concurrent snapshots must leave drain's overwrite accounting intact"
    );

    // And the drain *did* consume: a fresh snapshot afterwards starts empty.
    let after = sink.snapshot();
    assert_eq!(after.spans.len(), 0);
    assert_eq!(after.dropped_spans, 0);
}
