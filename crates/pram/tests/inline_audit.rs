//! The tiny-job degradation audit, in its own integration binary so the
//! global pool's process-wide state is fully isolated: single-slot and
//! zero-slot jobs must run inline — without spawning the pool, let alone
//! waking it — and must be visible as `inline_runs` in the stats, never as
//! pooled jobs.
//! The below-cutoff half (structure updates never reaching the pool) is
//! audited end to end by `pdmsf-engine`'s `inline_updates` test.
//!
//! Everything lives in ONE `#[test]` on purpose: the assertions are about
//! process-global state (`pool::is_initialized`, the cumulative counters),
//! so a second concurrently running test would race them.

use pdmsf_pram::pool;

#[test]
fn below_cutoff_and_single_shard_work_never_wakes_the_pool() {
    assert!(
        !pool::is_initialized(),
        "the pool must not exist before any job ran"
    );
    let before = pool::stats();
    assert_eq!(before.workers, 0);

    // Single-slot and zero-slot jobs: inline, counted as inline runs.
    pool::run_shards(1, |i| assert_eq!(i, 0));
    pool::run_shards(0, |_| panic!("no shards requested"));
    let after = pool::stats();
    assert!(
        !pool::is_initialized(),
        "single-shard jobs spawned the pool"
    );
    assert_eq!(
        after.inline_runs - before.inline_runs,
        2,
        "every tiny job must be visible as an inline run"
    );
    assert_eq!(after.jobs_run, before.jobs_run, "no pooled jobs may run");
    assert_eq!(after.workers, 0, "no workers may be spawned");
}
