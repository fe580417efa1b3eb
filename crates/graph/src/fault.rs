//! Test-only fault injection: makes every dispatched job of a marked plan
//! class panic when it executes, on whichever dispatch loop runs it —
//! [`Executor::run_stream`](crate::Executor::run_stream)'s inline or pool
//! path, or the [`Service`](crate::Service) dispatcher — so the failure
//! contracts (a panicked job still reports, every request resolves exactly
//! once, `Drop` returns) are pinned deterministically.
//!
//! Compiled into this crate's own tests, and into other crates' tests
//! through the `fault-injection` feature. Marks are keyed by plan class, so
//! tests running in parallel only ever fault their own plans. While no
//! class is marked, the per-job check is one relaxed atomic load.

use crate::exec::StreamJob;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

static PANIC_CLASSES: Mutex<Vec<u64>> = Mutex::new(Vec::new());

/// How many marks `PANIC_CLASSES` holds, readable without the lock.
static MARKED: AtomicUsize = AtomicUsize::new(0);

fn marked() -> MutexGuard<'static, Vec<u64>> {
    PANIC_CLASSES.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Makes every dispatched job of `plan_class` panic when it executes.
pub fn panic_on_class(plan_class: u64) {
    let mut marked = marked();
    marked.push(plan_class);
    MARKED.store(marked.len(), Ordering::Release);
}

/// Undoes [`panic_on_class`].
pub fn clear_class(plan_class: u64) {
    let mut marked = marked();
    marked.retain(|&class| class != plan_class);
    MARKED.store(marked.len(), Ordering::Release);
}

/// Panics if the job belongs to a marked plan class.
pub(crate) fn check(job: &StreamJob) {
    if MARKED.load(Ordering::Acquire) == 0 {
        return;
    }
    let class = job.plan.plan_class();
    if marked().contains(&class) {
        panic!("injected fault in plan class {class}");
    }
}
