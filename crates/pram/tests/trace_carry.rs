//! The pool carries its submitter's trace id onto the threads that run its
//! slots: a slot that runs on a worker emits its `pool.range` span under
//! the submitting batch's id, not under the worker's own (empty) ambient
//! id.
//!
//! A single `#[test]` in its own integration binary: tracing and the pool
//! width override are process-global, so no other test may share this
//! process.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use pdmsf_obs::trace::{self, Phase};
use pdmsf_pram::pool;

#[test]
fn a_slot_run_on_a_worker_traces_under_the_submitters_id() {
    // Force a worker even on a 1-core machine (read once, before the pool
    // spawns).
    std::env::set_var("PDMSF_POOL_THREADS", "2");
    trace::enable_default();
    let id = trace::next_id();
    let submitter = trace::thread_id();

    // The submitter claims slot 0 first and is held there until a later
    // slot has run, which only a worker can then do.
    let later_ran = AtomicBool::new(false);
    {
        let _scope = trace::scope(id);
        pool::run_shards(4, |slot| {
            if slot == 0 {
                let start = Instant::now();
                while !later_ran.load(Ordering::SeqCst) {
                    assert!(
                        start.elapsed() < Duration::from_secs(30),
                        "no worker ran a later slot"
                    );
                    std::thread::yield_now();
                }
            } else {
                later_ran.store(true, Ordering::SeqCst);
            }
        });
    }
    assert_eq!(pool::parallelism(), 2);

    let ranges: Vec<_> = trace::spans()
        .into_iter()
        .filter(|e| e.phase == Phase::PoolRange)
        .collect();
    assert!(!ranges.is_empty(), "no pool.range span was emitted");
    for e in &ranges {
        assert_eq!(e.trace, id.0, "a pool.range span left the batch: {e:?}");
        assert!(e.arg0 < e.arg1 && e.arg1 <= 4, "bad slot range: {e:?}");
    }
    let on_worker: Vec<_> = ranges.iter().filter(|e| e.tid != submitter).collect();
    assert!(
        !on_worker.is_empty(),
        "no pool.range span came from a worker thread: {ranges:?}"
    );
    assert!(
        on_worker.iter().all(|e| e.arg0 >= 1),
        "slot 0 ran off the submitter: {on_worker:?}"
    );
}
