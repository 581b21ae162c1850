//! A persistent worker pool for the serving layer's coarse jobs: the
//! sharded service's per-shard dispatch.
//!
//! The pool is a process-wide set of parked workers: a submission publishes
//! one *job* (a borrowed closure over the slots `0..n`), wakes the workers,
//! runs slots on the calling thread too, and blocks until every slot has
//! finished — so the borrow of the caller's data provably outlives every
//! slot, exactly like a scoped spawn, but without creating a thread.
//!
//! The structures' own kernels do not submit here: they run inline on the
//! calling thread (see [`crate::ExecMode`]). Measured on a 2-core machine,
//! a pooled reduction over 1 024 entries lost to the inline loop (1.24 vs
//! 0.75 µs, median), and the rows the served chunk parameter produces stay
//! below [`crate::kernels::PAR_CUTOFF`] until about 1.3M vertices per
//! engine.
//!
//! ## Scheduling
//!
//! The pool keeps one FIFO of **open jobs** — jobs with slots nobody has
//! claimed yet — and each job is a **claim counter** over its slots:
//!
//! * An idle worker claims the next slot of the oldest open job.
//! * A submitter claims only its own job's slots, then waits for the slots
//!   other threads claimed.
//!
//! So every slot is either claimable or running on a live thread. A slot
//! that submits a job of its own is a submitter like any other: it can
//! always run its job's slots itself, so nested submissions complete
//! however busy the workers are, at any depth. Several threads may submit
//! at once; each job is independent.
//!
//! Guarantees:
//!
//! * **Lazy** — no worker thread exists until the first call of
//!   [`run_shards`] with more than one slot; single-slot and zero-slot
//!   jobs run inline on the calling thread.
//! * **Deterministic results** — the pool only decides *which thread* runs
//!   a slot; every caller gives each slot disjoint output cells and reduces
//!   on the calling thread, so results are bit-for-bit independent of
//!   scheduling.
//! * **Single-machine fallback** — with one hardware thread (or when
//!   `available_parallelism` is unknown) the pool has zero workers and
//!   [`run_shards`] runs every slot inline without waking anything.
//! * **Sized by the hardware, overridable** — the pool width defaults to
//!   `available_parallelism` (capped at 16) and can be forced with the
//!   `PDMSF_POOL_THREADS` environment variable (clamped to `1..=128`,
//!   read once at first use; `1` means fully inline execution). The
//!   benchmark metadata records the effective width via [`parallelism`].
//! * **Traced** — each job carries its submitter's ambient trace id, and
//!   every slot, on whichever thread, runs under it inside one `pool.range`
//!   span with arguments `(slot, slot + 1)`.
//! * **Observable** — [`stats`] reports process-wide counters (jobs run,
//!   slots executed, inline runs, parked workers), and [`snapshot`] /
//!   [`StatsSnapshot::delta`] difference them so pool activity is
//!   attributable to a single phase.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};

use pdmsf_obs as obs;

/// One job: a borrowed per-slot closure and its claim counter.
struct Job {
    /// Borrowed closure, lifetime-erased. Soundness: [`Pool::run`] does not
    /// return until `pending` reaches zero, which happens only after every
    /// slot has finished — so the referent outlives every call.
    f: *const (dyn Fn(usize) + Sync),
    /// The claim counter: the next slot nobody has claimed yet.
    next: usize,
    /// Number of slots.
    slots: usize,
    /// Slots that have not finished yet (unclaimed or running).
    pending: usize,
    /// First panic payload raised by a slot of this job; re-raised on the
    /// submitting thread once every slot has finished.
    panic: Option<Box<dyn std::any::Any + Send>>,
    /// The submitting thread's ambient [`obs::trace::TraceId`] (0 = none),
    /// snapshotted at submission. Every slot runs under it, whichever
    /// thread claims it, so trace events attribute to the batch that
    /// submitted the job rather than to whatever the thread was doing.
    trace: u64,
}

// SAFETY: `f` is the only field that is not `Send`. It points to a `Sync`
// closure, so calling it from another thread is allowed, and it is only
// dereferenced while the submitting call frame is alive (see `Job::f`).
// `panic` is `Send` and the rest are integers.
unsafe impl Send for Job {}

#[derive(Default)]
struct State {
    /// Job table, indexed by job id. `None` = free entry.
    jobs: Vec<Option<Job>>,
    /// Free job ids, reused before growing `jobs`.
    free: Vec<usize>,
    /// Ids of the jobs with unclaimed slots, oldest first. Invariant:
    /// `id ∈ open` exactly while `jobs[id].next < jobs[id].slots`.
    open: VecDeque<usize>,
    /// Workers currently blocked on `work_cv`.
    parked: usize,
}

impl State {
    fn alloc(&mut self, job: Job) -> usize {
        match self.free.pop() {
            Some(id) => {
                self.jobs[id] = Some(job);
                id
            }
            None => {
                self.jobs.push(Some(job));
                self.jobs.len() - 1
            }
        }
    }

    /// Claim the next slot of open job `id`, closing the job when that was
    /// its last unclaimed slot.
    fn claim(&mut self, id: usize) -> usize {
        let job = self.jobs[id].as_mut().expect("open job vanished");
        let slot = job.next;
        job.next += 1;
        if job.next == job.slots {
            // Workers claim from the front; a submitter claiming its own
            // job's last slot may find it further back.
            let pos = self.open.iter().position(|&q| q == id);
            self.open.remove(pos.expect("an open job is queued"));
        }
        slot
    }
}

/// Poison-tolerant lock: a slot panic must not wedge every later pool
/// call behind a `PoisonError` — the panic is re-raised on the submitter
/// instead (see [`Pool::run`]).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Process-wide observability counters (see [`stats`]), backed by the
/// `pdmsf-obs` global registry so one Prometheus scrape
/// ([`pdmsf_obs::Registry::render_text`]) covers the pool. They cover
/// every pool in the process (the global one plus any test-local
/// instances); [`stats`] reads the same instruments.
struct PoolMetrics {
    jobs_run: Arc<obs::Counter>,
    shards_executed: Arc<obs::Counter>,
    inline_runs: Arc<obs::Counter>,
    parks: Arc<obs::Counter>,
    wakes: Arc<obs::Counter>,
    workers: Arc<obs::Gauge>,
    workers_parked: Arc<obs::Gauge>,
}

static POOL_METRICS: OnceLock<PoolMetrics> = OnceLock::new();

/// The pool's registered instruments, resolved once — the hot path pays
/// one initialized-check load plus the relaxed `fetch_add` it always paid.
fn metrics() -> &'static PoolMetrics {
    POOL_METRICS.get_or_init(|| {
        let r = obs::global();
        PoolMetrics {
            jobs_run: r.counter("pdmsf_pool_jobs_total", "pooled jobs completed"),
            shards_executed: r.counter(
                "pdmsf_pool_shards_executed_total",
                "shards executed through pooled jobs",
            ),
            inline_runs: r.counter(
                "pdmsf_pool_inline_runs_total",
                "run calls degraded to inline execution",
            ),
            parks: r.counter(
                "pdmsf_pool_parks_total",
                "times a worker parked waiting for work",
            ),
            wakes: r.counter("pdmsf_pool_wakes_total", "times a parked worker was woken"),
            workers: r.gauge(
                "pdmsf_pool_workers",
                "pool worker threads spawned in the process",
            ),
            workers_parked: r.gauge(
                "pdmsf_pool_workers_parked",
                "pool workers currently parked waiting for work",
            ),
        }
    })
}

struct Pool {
    state: Mutex<State>,
    /// Workers sleep here while no job is open.
    work_cv: Condvar,
    /// Submitters sleep here until their job's last slot has finished.
    done_cv: Condvar,
    workers: usize,
}

impl Pool {
    fn new(workers: usize) -> &'static Pool {
        let pool = Box::leak(Box::new(Pool {
            state: Mutex::new(State::default()),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            workers,
        }));
        metrics().workers.add(workers as i64);
        for w in 0..workers {
            let p: &'static Pool = pool;
            std::thread::Builder::new()
                .name(format!("pdmsf-pool-{w}"))
                .spawn(move || p.worker_loop())
                .expect("spawning a pool worker");
        }
        pool
    }

    fn worker_loop(&'static self) {
        let mut state = lock(&self.state);
        loop {
            match state.open.front().copied() {
                Some(id) => {
                    let slot = state.claim(id);
                    state = self.run_slot(state, id, slot);
                }
                None => {
                    state.parked += 1;
                    let m = metrics();
                    m.parks.inc();
                    m.workers_parked.add(1);
                    state = self.work_cv.wait(state).unwrap_or_else(|e| e.into_inner());
                    state.parked -= 1;
                    m.wakes.inc();
                    m.workers_parked.add(-1);
                }
            }
        }
    }

    /// Run slot `slot` of job `id` outside the lock, then book it. A
    /// panicking slot is caught, its payload parked in the job, and
    /// `pending` still decremented — the submitter re-raises it, and
    /// neither the running thread nor the waiting submitter is lost.
    fn run_slot<'a>(
        &'a self,
        state: MutexGuard<'a, State>,
        id: usize,
        slot: usize,
    ) -> MutexGuard<'a, State> {
        let job = state.jobs[id].as_ref().expect("claimed job vanished");
        let (f, trace) = (job.f, job.trace);
        drop(state);
        metrics().shards_executed.inc();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _scope = obs::trace::scope(obs::trace::TraceId(trace));
            let _span = slot_span(slot);
            // SAFETY: the submitter blocks until `pending` reaches zero,
            // which happens only after this slot is booked below, so the
            // closure behind `f` is alive for this call.
            unsafe { (*f)(slot) };
        }));
        let mut state = lock(&self.state);
        let job = state.jobs[id].as_mut().expect("claimed job vanished");
        if let Err(payload) = result {
            job.panic.get_or_insert(payload);
        }
        job.pending -= 1;
        if job.pending == 0 {
            self.done_cv.notify_all();
        }
        state
    }

    fn run(&'static self, slots: usize, f: &(dyn Fn(usize) + Sync)) {
        // A zero-slot job must not be opened: nobody would ever claim or
        // finish it. `run_shards` already runs it inline.
        if slots == 0 {
            return;
        }
        // SAFETY: this only erases the borrow's lifetime. `run` blocks below
        // until every slot has finished, so the closure outlives every
        // dereference of the pointer.
        let f: *const (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(f) };
        let mut state = lock(&self.state);
        let id = state.alloc(Job {
            f,
            next: 0,
            slots,
            pending: slots,
            panic: None,
            trace: obs::trace::current().0,
        });
        state.open.push_back(id);
        self.work_cv.notify_all();
        loop {
            let job = state.jobs[id].as_ref().expect("own job vanished");
            if job.next < job.slots {
                let slot = state.claim(id);
                state = self.run_slot(state, id, slot);
            } else if job.pending > 0 {
                state = self.done_cv.wait(state).unwrap_or_else(|e| e.into_inner());
            } else {
                break;
            }
        }
        let job = state.jobs[id].take().expect("finished job vanished");
        state.free.push(id);
        drop(state);
        metrics().jobs_run.inc();
        if let Some(payload) = job.panic {
            std::panic::resume_unwind(payload);
        }
    }
}

static POOL: OnceLock<&'static Pool> = OnceLock::new();

/// Hardware thread count, probed once — `available_parallelism` is a
/// syscall, too slow for the per-batch callers of [`parallelism`]. The
/// `PDMSF_POOL_THREADS` environment variable (also read once) overrides the
/// probe.
static HW_THREADS: OnceLock<usize> = OnceLock::new();

/// Parse a `PDMSF_POOL_THREADS` value: a positive integer, clamped to
/// `1..=128`. Anything unparsable is ignored (the hardware probe wins).
fn parse_thread_override(raw: Option<std::ffi::OsString>) -> Option<usize> {
    let s = raw?.into_string().ok()?;
    let v: usize = s.trim().parse().ok()?;
    Some(v.clamp(1, 128))
}

fn hw_threads() -> usize {
    *HW_THREADS.get_or_init(|| {
        parse_thread_override(std::env::var_os("PDMSF_POOL_THREADS")).unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .min(16)
        })
    })
}

fn pool() -> &'static Pool {
    POOL.get_or_init(|| {
        // The calling thread participates in every job, so spawn one worker
        // fewer than the hardware offers.
        Pool::new(hw_threads().saturating_sub(1))
    })
}

/// Number of threads a pooled job can use (workers + the calling thread).
/// Reported in benchmark metadata; does not spawn the pool.
pub fn parallelism() -> usize {
    match POOL.get() {
        Some(p) => p.workers + 1,
        None => hw_threads(),
    }
}

/// Whether the pool's worker threads have been spawned. Single-slot jobs
/// must never cause a spawn; the test-suite asserts this.
pub fn is_initialized() -> bool {
    POOL.get().is_some()
}

/// Process-wide pool observability counters (see [`stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Pooled jobs completed (every [`run_shards`] call that dispatched to
    /// a pool, nested jobs included, plus test-local pool runs).
    pub jobs_run: u64,
    /// Slots executed through pooled jobs (on workers or submitters).
    pub shards_executed: u64,
    /// [`run_shards`] calls that ran entirely inline (at most one slot, or
    /// a zero-worker pool).
    pub inline_runs: u64,
    /// Always 0: a slot is claimed from its job's counter, never taken
    /// from another thread, so nothing is stolen. The field stays because
    /// the repository benchmark's per-layer report reads it
    /// (`pram.steals_per_batch`).
    pub steals: u64,
    /// Worker threads of the global pool (0 until first spawn).
    pub workers: usize,
    /// Global-pool workers currently parked waiting for work.
    pub workers_parked: usize,
}

/// A point-in-time capture of the cumulative pool counters, taken with
/// [`snapshot`]. [`stats`] is cumulative over the whole process lifetime,
/// which makes it useless for attributing pool activity to one phase of a
/// benchmark or experiment (every earlier warm-up run is mixed in); a
/// snapshot pins the baseline so [`StatsSnapshot::delta`] reports exactly
/// the jobs, slots and inline runs that happened since.
#[derive(Clone, Copy, Debug)]
pub struct StatsSnapshot {
    base: PoolStats,
}

/// Capture the current counters as a baseline for [`StatsSnapshot::delta`].
pub fn snapshot() -> StatsSnapshot {
    StatsSnapshot { base: stats() }
}

impl StatsSnapshot {
    /// Pool activity since this snapshot was taken: the cumulative counters
    /// (`jobs_run`, `shards_executed`, `inline_runs`) are differenced
    /// against the baseline; `workers`/`workers_parked` are instantaneous
    /// and report the current values.
    pub fn delta(&self) -> PoolStats {
        let now = stats();
        PoolStats {
            jobs_run: now.jobs_run - self.base.jobs_run,
            shards_executed: now.shards_executed - self.base.shards_executed,
            inline_runs: now.inline_runs - self.base.inline_runs,
            steals: 0,
            workers: now.workers,
            workers_parked: now.workers_parked,
        }
    }
}

/// Snapshot the pool's observability counters. Counters are cumulative over
/// the process lifetime; `workers`/`workers_parked` describe the global pool
/// only and read 0 before it has been spawned. For per-phase attribution
/// (a single experiment run, one service batch) use [`snapshot`] and
/// [`StatsSnapshot::delta`] instead.
pub fn stats() -> PoolStats {
    let (workers, workers_parked) = match POOL.get() {
        Some(p) => (p.workers, lock(&p.state).parked),
        None => (0, 0),
    };
    let m = metrics();
    PoolStats {
        jobs_run: m.jobs_run.get(),
        shards_executed: m.shards_executed.get(),
        inline_runs: m.inline_runs.get(),
        steals: 0,
        workers,
        workers_parked,
    }
}

/// Run `f(0), f(1), …, f(slots - 1)`, each exactly once, over the
/// persistent worker pool plus the calling thread. Blocks until every slot
/// has finished, so `f` may borrow from the caller (output slices,
/// scratch buffers) like under `std::thread::scope`.
///
/// Multiple threads may be inside `run_shards` concurrently: each call is
/// an independent job. A slot may itself call it; the nested job completes
/// even when every worker is busy (see the module docs).
///
/// Slots of one job should be independent of each other: the inline runs
/// below execute them in order on the calling thread, so a slot that
/// waits for a later sibling would never finish there.
///
/// Runs inline, in slot order, when `slots <= 1` or when the pool is one
/// thread wide — in particular the pool is **not** spawned for
/// `slots <= 1`.
pub fn run_shards(slots: usize, f: impl Fn(usize) + Sync) {
    if slots > 1 {
        let pool = pool();
        if pool.workers > 0 {
            return pool.run(slots, &f);
        }
    }
    metrics().inline_runs.inc();
    for slot in 0..slots {
        // Inline runs trace like pooled ones, so a traced batch looks the
        // same whether or not the pool spawned.
        let _span = slot_span(slot);
        f(slot);
    }
}

/// The `pool.range` span of one slot, under the ambient trace id.
fn slot_span(slot: usize) -> obs::trace::TSpan<'static> {
    obs::trace::TSpan::begin(
        obs::trace::Phase::PoolRange,
        None,
        slot as u64,
        slot as u64 + 1,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::time::{Duration, Instant};

    #[test]
    fn single_shard_runs_inline_without_spawning_the_pool() {
        let hits = AtomicUsize::new(0);
        run_shards(1, |i| {
            assert_eq!(i, 0);
            hits.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(hits.load(Ordering::SeqCst), 1);
        run_shards(0, |_| panic!("no shards requested"));
        // Other tests in this binary may have spawned the pool already, so
        // only assert when this test runs in isolation.
        if std::env::var_os("PDMSF_POOL_ISOLATED").is_some() {
            assert!(!is_initialized(), "1-shard run must not spawn workers");
        }
    }

    #[test]
    fn every_shard_runs_exactly_once() {
        for shards in [2usize, 3, 7, 16, 33] {
            let counts: Vec<AtomicUsize> = (0..shards).map(|_| AtomicUsize::new(0)).collect();
            run_shards(shards, |i| {
                counts[i].fetch_add(1, Ordering::SeqCst);
            });
            for (i, c) in counts.iter().enumerate() {
                assert_eq!(
                    c.load(Ordering::SeqCst),
                    1,
                    "shard {i} ran a wrong number of times"
                );
            }
        }
    }

    #[test]
    fn shards_may_mutate_disjoint_borrowed_slices() {
        let mut data = vec![0u64; 1000];
        let shards = 8usize;
        let shard_len = data.len().div_ceil(shards);
        // Each slot borrows its own chunk through its own lock.
        let chunks: Vec<_> = (data.chunks_mut(shard_len))
            .enumerate()
            .map(|(i, chunk)| Mutex::new(Some((i * shard_len, chunk))))
            .collect();
        run_shards(shards, |i| {
            let (start, chunk) = chunks[i].lock().unwrap().take().unwrap();
            for (j, x) in chunk.iter_mut().enumerate() {
                *x = (start + j) as u64;
            }
        });
        drop(chunks);
        for (i, x) in data.iter().enumerate() {
            assert_eq!(*x, i as u64);
        }
    }

    #[test]
    fn shard_panics_propagate_and_do_not_wedge_the_pool() {
        // A panicking shard must re-raise on the submitter (like the old
        // scoped spawn), not hang `run_shards` or poison the pool.
        let caught = std::panic::catch_unwind(|| {
            run_shards(4, |i| {
                if i == 2 {
                    panic!("shard bang");
                }
            });
        });
        let payload = caught.expect_err("the shard panic must reach the submitter");
        assert_eq!(payload.downcast_ref::<&str>().copied(), Some("shard bang"));
        // The pool stays fully usable afterwards.
        for _ in 0..10 {
            let sum = AtomicUsize::new(0);
            run_shards(4, |i| {
                sum.fetch_add(i + 1, Ordering::SeqCst);
            });
            assert_eq!(sum.load(Ordering::SeqCst), 10);
        }
    }

    #[test]
    fn back_to_back_jobs_reuse_the_pool() {
        for round in 0..50u64 {
            let sum = AtomicUsize::new(0);
            run_shards(4, |i| {
                sum.fetch_add(i + round as usize, Ordering::SeqCst);
            });
            assert_eq!(sum.load(Ordering::SeqCst), 6 + 4 * round as usize);
        }
    }

    // ---- scheduler tests (open-job queue, claim counters) ----
    //
    // These run against dedicated `Pool` instances (not the global pool) so
    // they exercise real worker threads even on a 1-core machine, where the
    // global pool degrades to inline execution.

    /// Block until `flag` is set, failing the test after 30s instead of
    /// hanging the suite forever if the scheduler regressed to a deadlock.
    fn await_flag(flag: &AtomicBool) {
        let start = Instant::now();
        while !flag.load(Ordering::SeqCst) {
            assert!(
                start.elapsed() < Duration::from_secs(30),
                "pool deadlock: dependent job never ran"
            );
            std::thread::yield_now();
        }
    }

    #[test]
    fn two_jobs_from_two_threads_complete_concurrently() {
        // Job A's shards spin until job B (submitted later, from another
        // thread) has executed — under a front-job-drain design B could not
        // start before A finished, so this test would deadlock.
        let pool = Pool::new(2);
        let b_ran = &*Box::leak(Box::new(AtomicBool::new(false)));
        let a_done = &*Box::leak(Box::new(AtomicBool::new(false)));
        let a = std::thread::spawn(move || {
            pool.run(2, &|_shard| {
                await_flag(b_ran);
            });
            a_done.store(true, Ordering::SeqCst);
        });
        let b = std::thread::spawn(move || {
            // Make sure A is (very likely) submitted first.
            std::thread::sleep(Duration::from_millis(20));
            pool.run(2, &|_shard| {
                b_ran.store(true, Ordering::SeqCst);
            });
        });
        b.join().expect("job B's submitter");
        a.join().expect("job A's submitter");
        assert!(a_done.load(Ordering::SeqCst));
    }

    #[test]
    fn nested_submission_from_inside_a_shard_completes() {
        // A shard submitting its own job claims that job's slots itself
        // (workers may help) instead of deadlocking behind the outer
        // submitter.
        let pool = Pool::new(2);
        let inner_runs = AtomicUsize::new(0);
        pool.run(2, &|_outer| {
            pool.run(3, &|_inner| {
                inner_runs.fetch_add(1, Ordering::SeqCst);
            });
        });
        assert_eq!(inner_runs.load(Ordering::SeqCst), 2 * 3);
    }

    #[test]
    fn deep_nesting_completes_on_a_small_pool() {
        // Nested depth beyond the worker count: every level's submitter
        // can run its own job's slots, so depth costs no threads.
        let pool = Pool::new(1);
        fn nest(pool: &'static Pool, depth: usize, leaves: &AtomicUsize) {
            if depth == 0 {
                leaves.fetch_add(1, Ordering::SeqCst);
                return;
            }
            pool.run(2, &|_| nest(pool, depth - 1, leaves));
        }
        let leaves = AtomicUsize::new(0);
        nest(pool, 5, &leaves);
        assert_eq!(leaves.load(Ordering::SeqCst), 1 << 5);
    }

    #[test]
    fn nested_submissions_from_worker_run_slots_complete() {
        // A worker running an outer slot submits a nested job from it; the
        // nested job must still complete and the outer submitter must see
        // every inner slot. Many rounds, so that workers run outer slots.
        let pool = Pool::new(3);
        for _ in 0..50 {
            let inner_runs = AtomicUsize::new(0);
            pool.run(8, &|_outer| {
                pool.run(4, &|_inner| {
                    inner_runs.fetch_add(1, Ordering::SeqCst);
                });
            });
            assert_eq!(inner_runs.load(Ordering::SeqCst), 8 * 4);
        }
    }

    #[test]
    fn many_concurrent_submitters_all_complete() {
        let pool = Pool::new(3);
        let total = &*Box::leak(Box::new(AtomicUsize::new(0)));
        let threads: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(move || {
                    for _ in 0..25 {
                        pool.run(5, &|shard| {
                            total.fetch_add(shard + 1, Ordering::SeqCst);
                        });
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("submitter thread");
        }
        assert_eq!(total.load(Ordering::SeqCst), 4 * 25 * (1 + 2 + 3 + 4 + 5));
    }

    #[test]
    fn many_tiny_concurrent_jobs_each_shard_runs_once() {
        // The many-small-jobs regime the sharded service creates: lots of
        // short jobs racing from several submitters, every shard of every
        // job must run exactly once (per-job hit vectors, disjoint cells).
        let pool = Pool::new(2);
        let threads: Vec<_> = (0..3)
            .map(|t| {
                std::thread::spawn(move || {
                    for round in 0..40 {
                        let shards = 2 + (t + round) % 5;
                        let counts: Vec<AtomicUsize> =
                            (0..shards).map(|_| AtomicUsize::new(0)).collect();
                        pool.run(shards, &|i| {
                            counts[i].fetch_add(1, Ordering::SeqCst);
                        });
                        for (i, c) in counts.iter().enumerate() {
                            assert_eq!(c.load(Ordering::SeqCst), 1, "shard {i} miscounted");
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("submitter thread");
        }
    }

    #[test]
    fn imbalanced_slots_each_run_exactly_once() {
        // Strongly imbalanced slot durations (quadratic in the index):
        // every slot must still run exactly once, whatever the imbalance
        // does to the interleaving.
        let pool = Pool::new(3);
        let counts: Vec<AtomicUsize> = (0..16).map(|_| AtomicUsize::new(0)).collect();
        pool.run(16, &|i| {
            let mut acc = 0u64;
            for k in 0..(i * i * 200) as u64 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
            }
            std::hint::black_box(acc);
            counts[i].fetch_add(1, Ordering::SeqCst);
        });
        for (i, c) in counts.iter().enumerate() {
            assert_eq!(c.load(Ordering::SeqCst), 1, "shard {i} miscounted");
        }
    }

    #[test]
    fn zero_worker_pool_runs_every_shard_on_the_submitter() {
        // The 1-core degradation path: no workers, the submitter drains its
        // own job inline (this is also what `run_shards` does for the global
        // pool on a single-core machine).
        let pool = Pool::new(0);
        let me = std::thread::current().id();
        let hits = AtomicUsize::new(0);
        pool.run(6, &|_shard| {
            assert_eq!(std::thread::current().id(), me, "shard left the submitter");
            hits.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(hits.load(Ordering::SeqCst), 6);
    }

    #[test]
    fn zero_shard_jobs_return_immediately_without_queueing() {
        // `Pool::run(0, …)` must not open a job (nobody would finish it) —
        // it returns without touching the closure.
        let pool = Pool::new(1);
        pool.run(0, &|_| panic!("no shards requested"));
        // The pool is untouched and fully usable.
        let hits = AtomicUsize::new(0);
        pool.run(3, &|_| {
            hits.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(hits.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn stats_count_jobs_shards_and_inline_runs() {
        let before = stats();
        let pool = Pool::new(1);
        pool.run(4, &|_| {});
        run_shards(1, |_| {});
        let after = stats();
        assert!(after.jobs_run > before.jobs_run);
        assert!(after.shards_executed >= before.shards_executed + 4);
        assert!(after.inline_runs > before.inline_runs);
        assert_eq!(after.steals, 0);
    }

    #[test]
    fn a_blocked_slot_does_not_strand_its_siblings() {
        // The submitter claims slot 0 before any worker can (it holds the
        // lock from opening the job through its first claim), and slot 0
        // then waits until slots 2 and 3 have run — which the blocked
        // submitter cannot do itself, so the worker must claim them.
        let pool = Pool::new(1);
        let two = AtomicBool::new(false);
        let three = AtomicBool::new(false);
        pool.run(8, &|shard| match shard {
            0 => {
                await_flag(&two);
                await_flag(&three);
            }
            2 => two.store(true, Ordering::SeqCst),
            3 => three.store(true, Ordering::SeqCst),
            _ => {}
        });
    }

    #[test]
    fn panics_on_a_worker_reach_the_submitter_and_spare_the_pool() {
        // Same recipe as above: the submitter is held in slot 0 until slots
        // 2 and 3 have run, so both run on the worker. Slot 3 then panics
        // there. The payload must still surface on the submitter (not kill
        // the worker or hang the job), and the pool must stay reusable.
        let pool = Pool::new(1);
        let submitter = std::thread::current().id();
        let panicked_on = Mutex::new(None);
        let two = AtomicBool::new(false);
        let three = AtomicBool::new(false);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run(8, &|shard| match shard {
                0 => {
                    await_flag(&two);
                    await_flag(&three);
                }
                2 => two.store(true, Ordering::SeqCst),
                3 => {
                    *lock(&panicked_on) = Some(std::thread::current().id());
                    three.store(true, Ordering::SeqCst);
                    panic!("worker bang");
                }
                _ => {}
            });
        }));
        let payload = caught.expect_err("the worker's panic must reach the submitter");
        assert_eq!(payload.downcast_ref::<&str>().copied(), Some("worker bang"));
        let ran_on = lock(&panicked_on).expect("slot 3 ran");
        assert_ne!(ran_on, submitter, "the panicking slot ran on the submitter");
        // The worker survived the unwind and the pool keeps serving jobs.
        for _ in 0..10 {
            let sum = AtomicUsize::new(0);
            pool.run(8, &|i| {
                sum.fetch_add(i + 1, Ordering::SeqCst);
            });
            assert_eq!(sum.load(Ordering::SeqCst), 36);
        }
    }

    #[test]
    fn a_slot_waiting_on_a_sibling_completes_whichever_thread_blocks() {
        // Cross-slot wait: slot 4 blocks until slot 5 has run. Whichever of
        // the submitter and the worker claims slot 4 blocks in it; the
        // other must still be able to claim slot 5. Both interleavings
        // must complete.
        let pool = Pool::new(1);
        for _ in 0..20 {
            let five = AtomicBool::new(false);
            pool.run(8, &|shard| match shard {
                4 => await_flag(&five),
                5 => five.store(true, Ordering::SeqCst),
                _ => {}
            });
        }
    }

    #[test]
    fn stats_snapshot_delta_attributes_one_phase() {
        // Warm-up noise that predates the snapshot must never appear in the
        // delta: the baseline subtraction swallows it. (The counters are
        // process-global and other tests run concurrently in this binary,
        // so every check is a lower bound on the delta, never an exact or
        // zero count.)
        let pool = Pool::new(1);
        pool.run(3, &|_| {});
        run_shards(1, |_| {});
        let before = stats();
        let snap = snapshot();
        pool.run(5, &|_| {});
        run_shards(1, |_| {});
        let delta = snap.delta();
        assert!(delta.jobs_run >= 1);
        assert!(delta.shards_executed >= 5);
        assert!(delta.inline_runs >= 1);
        assert_eq!(delta.steals, 0);
        // The delta excludes everything before the snapshot: it is bounded
        // by the raw counter movement since then, not the process totals.
        let after = stats();
        assert!(delta.jobs_run <= after.jobs_run - before.jobs_run);
        assert!(delta.shards_executed <= after.shards_executed - before.shards_executed);
        assert!(delta.inline_runs <= after.inline_runs - before.inline_runs);
    }

    #[test]
    fn thread_override_parses_and_clamps() {
        let os = |s: &str| Some(std::ffi::OsString::from(s));
        assert_eq!(parse_thread_override(None), None);
        assert_eq!(parse_thread_override(os("")), None);
        assert_eq!(parse_thread_override(os("abc")), None);
        assert_eq!(parse_thread_override(os("-3")), None);
        assert_eq!(parse_thread_override(os("4")), Some(4));
        assert_eq!(parse_thread_override(os(" 12 ")), Some(12));
        assert_eq!(parse_thread_override(os("0")), Some(1));
        assert_eq!(parse_thread_override(os("9999")), Some(128));
    }
}
