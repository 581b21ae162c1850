//! A persistent worker pool with a **work-stealing scheduler** for the
//! sharded service's per-shard jobs, the grouped apply of partitioned
//! engines and the batch engine's query fan-out.
//!
//! The pool is a process-wide set of parked workers: a submission publishes
//! one *job* (a borrowed closure plus shard accounting), wakes the workers,
//! executes shards on the calling thread too, and blocks until every shard
//! has finished — so the borrow of the caller's slices provably outlives
//! all shard executions, exactly like a scoped spawn, but without creating
//! a single thread.
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
//! The sharded service routinely queues several jobs (one per touched shard)
//! plus nested submissions (group jobs inside shard jobs), so the pool
//! schedules them in the Cilk / crossbeam-deque tradition:
//!
//! * **Per-executor deques of shard ranges.** Every executor — worker
//!   threads and submitting threads alike — owns a deque of *segments*
//!   (contiguous runs `[start, end)` of one job's shard space). Executors
//!   pop their own deque LIFO (the most recently parked range is the
//!   cache-warm one) and execute the front half of the popped segment,
//!   parking the back half for later pops or for thieves — so a range is
//!   consumed in geometrically shrinking runs, one lock round-trip each,
//!   instead of shard-by-shard through the shared lock.
//! * **Chunked claiming.** Jobs enter a shared injector queue (FIFO across
//!   jobs, for submission fairness); an executor with an empty deque claims
//!   a run of `ceil(remaining / executors)` shards from the front job in
//!   one step, so a job's shard space is carved into at most one chunk per
//!   executor rather than one queue interaction per shard.
//! * **Stealing.** An idle worker that finds the injector empty scans the
//!   other executors in **deterministic order** (ascending slot index,
//!   starting after its own — no RNG anywhere) and steals **half of the
//!   victim's oldest remaining range** (the half farthest from the victim's
//!   current locality). Which thread executes a shard remains
//!   schedule-dependent; callers keep results independent of it (each
//!   shard writes only its own output cells).
//! * **Nested submissions** (a shard calling [`run_shards`] /
//!   [`run_shard_ranges`]) push the nested job's whole range onto the
//!   *submitter's own deque* instead of the injector: the submitting
//!   executor starts executing it immediately (LIFO pop), idle workers can
//!   steal from it, and the deadlock-freedom property of the multi-job pool
//!   is preserved — the blocked parent's executor drains the nested job
//!   itself even if every worker is busy elsewhere. (Shards of one job
//!   must stay independent of *each other*, though: contiguous runs
//!   execute sequentially on one thread, so a shard blocking on a sibling
//!   shard of the same job is outside the contract — see
//!   [`run_shard_ranges`].)
//!
//! Guarantees:
//!
//! * **Lazy** — no worker thread exists until the first call of
//!   [`run_shards`] with more than one shard; single-shard and zero-shard
//!   jobs run inline on the calling thread.
//! * **Deterministic results** — the scheduler only distributes *which
//!   thread* computes a shard; every caller gives each shard disjoint
//!   output cells and reduces on the calling thread, so results are
//!   bit-for-bit independent of scheduling (victim order is deterministic
//!   too; there is no randomized stealing).
//! * **Single-machine fallback** — with one hardware thread (or when
//!   `available_parallelism` is unknown) the pool has zero workers and
//!   [`run_shards`] runs every shard inline without waking anything.
//! * **Sized by the hardware, overridable** — the pool width defaults to
//!   `available_parallelism` (capped at 16) and can be forced with the
//!   `PDMSF_POOL_THREADS` environment variable (clamped to `1..=128`,
//!   read once at first use; `1` means fully inline execution). The
//!   benchmark metadata records the effective width via [`parallelism`].
//! * **Observable** — [`stats`] reports process-wide counters (jobs run,
//!   shards executed, inline runs, injector chunks claimed, steals, parked
//!   workers) so tests and the sharded service can assert how work was
//!   actually executed, and [`snapshot`] /
//!   [`StatsSnapshot::delta`] difference them so scheduler behaviour is
//!   attributable to a single phase.

use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, OnceLock};

use pdmsf_obs as obs;

/// One job: a borrowed range closure plus shard accounting. Shard ranges are
/// claimed from `next` (injector chunks) or travel as [`Seg`]s through the
/// executor deques; each shard index is executed exactly once.
struct Job {
    /// Borrowed closure, lifetime-erased. Soundness: [`Pool::run`] does not
    /// return until `done` is set, which happens only after every shard has
    /// finished executing — so the referent outlives every call.
    f: *const (dyn Fn(usize, usize) + Sync),
    /// Next shard index not yet claimed from the injector. Nested jobs are
    /// born fully claimed (their whole range starts on the submitter's
    /// deque).
    next: usize,
    /// Total number of shards.
    shards: usize,
    /// Shards that have not finished executing yet (unclaimed, parked in a
    /// segment, or running).
    pending: usize,
    /// First panic payload raised by a shard of this job; re-raised on the
    /// submitting thread once every shard has finished.
    panic: Option<Box<dyn std::any::Any + Send>>,
    /// Set when `pending` hits zero; the submitter frees the slot.
    done: bool,
    /// The submitting thread's ambient [`obs::trace::TraceId`] (0 = none),
    /// snapshotted at submission. Every range of this job — including
    /// ranges stolen onto other workers — executes under this id, so trace
    /// events attribute to the batch that submitted the job rather than to
    /// whatever the executing thread was doing.
    trace: u64,
}

// The raw closure pointer is only ever dereferenced while the submitting
// call frame is alive (see `Job::f`); sending it between pool threads is
// therefore safe.
unsafe impl Send for Job {}

/// A contiguous run `[start, end)` of one job's shard space, parked in an
/// executor's deque: popped LIFO by its owner, split in half by thieves.
struct Seg {
    job: usize,
    start: usize,
    end: usize,
}

#[derive(Default)]
struct State {
    /// Job slots, indexed by job id. `None` = free slot.
    jobs: Vec<Option<Job>>,
    /// Free job ids, reused before growing `jobs`.
    free: Vec<usize>,
    /// The shared injector: ids of top-level jobs that still have
    /// **unclaimed** shards, in submission order. Invariant: `id ∈ queue`
    /// exactly while `jobs[id].next < jobs[id].shards`. Nested jobs never
    /// enter the queue (their range starts on the submitter's deque).
    queue: VecDeque<usize>,
    /// Per-executor deques: slots `0..workers` belong to the worker
    /// threads, later slots are leased by submitting threads. `Vec` used as
    /// a stack — owners push/pop at the back, thieves split the front.
    deques: Vec<Vec<Seg>>,
    /// Retired submitter slots awaiting reuse.
    free_slots: Vec<usize>,
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

    fn alloc_slot(&mut self) -> usize {
        match self.free_slots.pop() {
            Some(slot) => slot,
            None => {
                self.deques.push(Vec::new());
                self.deques.len() - 1
            }
        }
    }
}

/// Poison-tolerant lock: a shard panic must not wedge every later pool
/// call behind a `PoisonError` — the panic is re-raised on the submitter
/// instead (see [`Pool::run`]).
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Process-wide observability counters (see [`stats`]), backed by the
/// `pdmsf-obs` global registry so one Prometheus scrape
/// ([`pdmsf_obs::Registry::render_text`]) covers the scheduler. They cover
/// every pool in the process (the global one plus any test-local
/// instances). [`stats`] reads the same instruments — the registry is the
/// single source of truth; the former hand-rolled `static AtomicU64`s are
/// gone.
struct PoolMetrics {
    jobs_run: Arc<obs::Counter>,
    shards_executed: Arc<obs::Counter>,
    inline_runs: Arc<obs::Counter>,
    chunks_claimed: Arc<obs::Counter>,
    steals: Arc<obs::Counter>,
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
            chunks_claimed: r.counter(
                "pdmsf_pool_chunks_claimed_total",
                "shard chunks claimed from the injector queue",
            ),
            steals: r.counter(
                "pdmsf_pool_steals_total",
                "successful steals of parked shard ranges",
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

thread_local! {
    /// The executor slot this thread currently holds, as `(pool address,
    /// slot index)`: workers pin theirs for the thread's lifetime;
    /// submitting threads lease one per top-level [`Pool::run`] so nested
    /// submissions from inside a shard land on the *same* deque.
    static EXECUTOR: Cell<Option<(usize, usize)>> = const { Cell::new(None) };
}

struct Pool {
    state: Mutex<State>,
    /// Workers sleep here while no claimable or stealable work exists.
    work_cv: Condvar,
    /// Submitters sleep here until their job's `done` flag is set.
    done_cv: Condvar,
    workers: usize,
}

impl Pool {
    fn new(workers: usize) -> &'static Pool {
        let pool = Box::leak(Box::new(Pool {
            state: Mutex::new(State {
                deques: (0..workers).map(|_| Vec::new()).collect(),
                ..State::default()
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            workers,
        }));
        metrics().workers.add(workers as i64);
        for w in 0..workers {
            let p: &'static Pool = pool;
            std::thread::Builder::new()
                .name(format!("pdmsf-pool-{w}"))
                .spawn(move || p.worker_loop(w))
                .expect("spawning a pool worker");
        }
        pool
    }

    fn worker_loop(&'static self, slot: usize) {
        EXECUTOR.with(|e| e.set(Some((self as *const Pool as usize, slot))));
        let mut state = lock(&self.state);
        loop {
            match self.next_run(&mut state, slot, None) {
                Some((job, start, end)) => {
                    state = self.exec_run(state, job, start, end);
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

    /// Split a claimed or stolen range: park the back half on `slot`'s
    /// deque (available to later LIFO pops and to thieves) and return the
    /// front half for immediate execution. Ranges of length 1 pass through
    /// whole.
    fn split_run(
        &self,
        state: &mut State,
        slot: usize,
        job: usize,
        start: usize,
        end: usize,
    ) -> (usize, usize, usize) {
        let len = end - start;
        if len > 1 {
            let take = len - len / 2;
            state.deques[slot].push(Seg {
                job,
                start: start + take,
                end,
            });
            // The parked half is stealable; a worker that went to sleep
            // after the original submission wake-up would otherwise never
            // learn about it.
            if state.parked > 0 {
                self.work_cv.notify_one();
            }
            (job, start, start + take)
        } else {
            (job, start, end)
        }
    }

    /// Find the next run for executor `slot`, under the pool lock:
    /// own deque (LIFO) → injector chunk claim → steal. `only_job`
    /// restricts a submitter to work of its own job — submitters never
    /// execute other jobs' shards (a nested submitter must return as soon
    /// as its job is done, not after some unrelated long run) but do steal
    /// *their own* job's parked ranges back from other executors.
    fn next_run(
        &self,
        state: &mut State,
        slot: usize,
        only_job: Option<usize>,
    ) -> Option<(usize, usize, usize)> {
        // 1. Own deque, most recent matching segment first. The owner takes
        // the *front* half of the segment (consecutive pops execute
        // ascending, cache-friendly runs); the back half stays parked.
        let dq = &mut state.deques[slot];
        let found = match only_job {
            None => dq.len().checked_sub(1),
            Some(j) => dq.iter().rposition(|s| s.job == j),
        };
        if let Some(i) = found {
            let seg = &mut dq[i];
            let len = seg.end - seg.start;
            let take = len - len / 2;
            let (job, start, end) = (seg.job, seg.start, seg.start + take);
            seg.start = end;
            if seg.start >= seg.end {
                dq.remove(i);
            }
            return Some((job, start, end));
        }

        // 2. Injector: claim a chunk of the front job (or, for a submitter,
        // of its own job wherever it sits in the queue — submitters help
        // their own job even when queued behind others).
        let claim = match only_job {
            None => state.queue.front().copied(),
            Some(j) => {
                let job = state.jobs[j].as_ref().expect("submitter's job vanished");
                (job.next < job.shards).then_some(j)
            }
        };
        if let Some(id) = claim {
            // Size chunks by the executors that can actually work: retired
            // submitter slots keep their (empty) deques but must not dilute
            // the chunk size — that would multiply queue interactions after
            // any burst of concurrent submitters.
            let executors = (state.deques.len() - state.free_slots.len()).max(1);
            let job = state.jobs[id].as_mut().expect("queued job vanished");
            let remaining = job.shards - job.next;
            let chunk = remaining.div_ceil(executors);
            let start = job.next;
            job.next += chunk;
            if job.next >= job.shards {
                // Last chunk claimed: maintain the queue invariant. The job
                // is usually at the front, but a submitter helping its own
                // job may claim past jobs queued ahead of it.
                if let Some(pos) = state.queue.iter().position(|&q| q == id) {
                    state.queue.remove(pos);
                }
            }
            metrics().chunks_claimed.inc();
            return Some(self.split_run(state, slot, id, start, start + chunk));
        }

        // 3. Steal: scan the other executors in deterministic ascending
        // order (no RNG) and take half of the first victim's **oldest**
        // matching range — the one farthest from the victim's own LIFO
        // locality. Workers steal anything; a submitter steals only ranges
        // **of its own job**, which is a liveness requirement, not an
        // optimization: a shard of its job parked on a *blocked* worker's
        // deque (e.g. a shard waiting on a sibling shard) would otherwise
        // be reachable by no one, where the old claim-per-shard FIFO let
        // the submitter pick it up from the job counter.
        let n = state.deques.len();
        for off in 1..n {
            let victim = (slot + off) % n;
            let found = match only_job {
                None => (!state.deques[victim].is_empty()).then_some(0),
                Some(j) => state.deques[victim].iter().position(|s| s.job == j),
            };
            let Some(i) = found else {
                continue;
            };
            let seg = &mut state.deques[victim][i];
            let len = seg.end - seg.start;
            let (job, start, end);
            if len <= 1 {
                (job, start, end) = (seg.job, seg.start, seg.end);
                state.deques[victim].remove(i);
            } else {
                // Thief takes the back half; the victim keeps making
                // contiguous forward progress on the front.
                let take = len / 2;
                (job, start, end) = (seg.job, seg.end - take, seg.end);
                seg.end = start;
            }
            metrics().steals.inc();
            return Some(self.split_run(state, slot, job, start, end));
        }
        None
    }

    /// Execute shards `[start, end)` of job `job_id` outside the lock,
    /// then book the completion. A panicking shard is caught, its payload
    /// parked in the job, and `pending` still decremented — the submitter
    /// re-raises it, and neither the executing worker nor the waiting
    /// submitter is lost.
    fn exec_run<'a>(
        &'a self,
        state: std::sync::MutexGuard<'a, State>,
        job_id: usize,
        start: usize,
        end: usize,
    ) -> std::sync::MutexGuard<'a, State> {
        let job = state.jobs[job_id]
            .as_ref()
            .expect("job slot freed while a range was parked");
        let (f, trace) = (job.f, job.trace);
        metrics().shards_executed.add((end - start) as u64);
        drop(state);
        // Soundness: the submitter blocks until `done`, which is set only
        // after this range's `pending` decrement below — the closure behind
        // `f` is alive for this call.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if trace != 0 {
                // Re-scope the submitter's id on this (possibly stealing)
                // thread so the range's span lands in the right batch.
                let _scope = obs::trace::scope(obs::trace::TraceId(trace));
                let span = obs::trace::TSpan::start(
                    obs::trace::Phase::PoolRange,
                    start as u64,
                    end as u64,
                );
                unsafe { (*f)(start, end) };
                span.stop();
            } else {
                unsafe { (*f)(start, end) };
            }
        }));
        let mut state = lock(&self.state);
        let job = state.jobs[job_id]
            .as_mut()
            .expect("job slot freed while a range was executing");
        if let Err(payload) = result {
            if job.panic.is_none() {
                job.panic = Some(payload);
            }
        }
        job.pending -= end - start;
        if job.pending == 0 {
            job.done = true;
            self.done_cv.notify_all();
        }
        state
    }

    fn run(&'static self, shards: usize, f: &(dyn Fn(usize, usize) + Sync)) {
        // A zero-shard job must not reach the scheduler: nothing would ever
        // decrement `pending`, and an empty range violates the queue/deque
        // invariants. `run_shard_ranges` already filters this; keep the
        // internal entry point safe for future callers too.
        if shards == 0 {
            return;
        }
        // Erase the borrow's lifetime; `run` blocks below until the job is
        // done, so the closure outlives every dereference.
        let f: *const (dyn Fn(usize, usize) + Sync) = unsafe { std::mem::transmute(f) };
        let me = self as *const Pool as usize;
        let held = EXECUTOR.with(|e| e.get());
        let nested = matches!(held, Some((pool, _)) if pool == me);

        let mut state = lock(&self.state);
        let slot = match held {
            Some((pool, slot)) if pool == me => slot,
            _ => {
                // Lease a fresh executor slot for this top-level submission
                // (restored below; a submission to a *different* pool from
                // inside a shard stacks, each pool seeing its own slot).
                let slot = state.alloc_slot();
                EXECUTOR.with(|e| e.set(Some((me, slot))));
                slot
            }
        };
        let id = state.alloc(Job {
            f,
            // Nested jobs are born fully claimed: their whole range goes
            // onto the submitter's own deque, not the injector, so the
            // submitting executor starts on it immediately (LIFO) and the
            // deadlock-freedom argument stays local — the parent's executor
            // can always drain its own deque.
            next: if nested { shards } else { 0 },
            shards,
            pending: shards,
            panic: None,
            done: false,
            trace: if obs::trace::enabled() {
                obs::trace::current().0
            } else {
                0
            },
        });
        if nested {
            state.deques[slot].push(Seg {
                job: id,
                start: 0,
                end: shards,
            });
        } else {
            state.queue.push_back(id);
        }
        self.work_cv.notify_all();
        loop {
            if state.jobs[id].as_ref().expect("own job vanished").done {
                break;
            }
            match self.next_run(&mut state, slot, Some(id)) {
                Some((job, start, end)) => {
                    state = self.exec_run(state, job, start, end);
                }
                // Everything claimed or stolen; wait for thieves/workers to
                // finish the remaining shards.
                None => {
                    state = self.done_cv.wait(state).unwrap_or_else(|e| e.into_inner());
                }
            }
        }
        let job = state.jobs[id].take().expect("done job vanished");
        state.free.push(id);
        if !nested {
            debug_assert!(
                state.deques[slot].is_empty(),
                "a top-level submitter's deque must drain with its job"
            );
            state.free_slots.push(slot);
            EXECUTOR.with(|e| e.set(held));
        }
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

/// Whether the pool's worker threads have been spawned. Single-shard jobs
/// must never cause a spawn; the test-suite asserts this.
pub fn is_initialized() -> bool {
    POOL.get().is_some()
}

/// Process-wide pool observability counters (see [`stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Pooled jobs completed (every [`run_shards`] / [`run_shard_ranges`]
    /// call that dispatched to a pool, nested jobs included, plus
    /// test-local pool runs).
    pub jobs_run: u64,
    /// Shards executed through pooled jobs (on workers or submitters).
    pub shards_executed: u64,
    /// [`run_shards`] / [`run_shard_ranges`] calls that ran entirely inline
    /// (single shard, or a zero-worker pool).
    pub inline_runs: u64,
    /// Chunks of shards claimed from the injector queue (each chunk is one
    /// lock interaction covering `ceil(remaining / executors)` shards —
    /// the scheduler's amortization of the shared queue).
    pub chunks_claimed: u64,
    /// Successful steals: an idle worker took half of another executor's
    /// parked range. Zero whenever the machine keeps every executor fed (or
    /// the pool runs inline).
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
/// the jobs/shards/inline-runs/chunks/steals that happened since.
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
    /// (`jobs_run`, `shards_executed`, `inline_runs`, `chunks_claimed`,
    /// `steals`) are differenced against the baseline;
    /// `workers`/`workers_parked` are instantaneous and report the current
    /// values.
    pub fn delta(&self) -> PoolStats {
        let now = stats();
        PoolStats {
            jobs_run: now.jobs_run - self.base.jobs_run,
            shards_executed: now.shards_executed - self.base.shards_executed,
            inline_runs: now.inline_runs - self.base.inline_runs,
            chunks_claimed: now.chunks_claimed - self.base.chunks_claimed,
            steals: now.steals - self.base.steals,
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
        chunks_claimed: m.chunks_claimed.get(),
        steals: m.steals.get(),
        workers,
        workers_parked,
    }
}

/// Execute every shard in `0..shards` exactly once, distributed over the
/// persistent worker pool plus the calling thread, with the closure invoked
/// once per **claimed range** `start..end` rather than once per shard — the
/// scheduler hands out contiguous runs (chunked claims, halved pops, stolen
/// halves), so a caller iterating the range locally pays one dispatch per
/// run. Blocks until every shard has finished, so `f` may borrow from the
/// caller (slices of a row bank, scratch buffers) like under
/// `std::thread::scope`.
///
/// Multiple threads may be inside `run_shard_ranges` concurrently: each
/// call is an independent job. A shard may itself call it — the nested job
/// lands on the submitting executor's own deque (see the module docs).
///
/// **Contract:** shards of one job must be independent — a shard must not
/// block waiting for *another shard of the same job* to run, because the
/// scheduler may place both in one contiguous run executed sequentially on
/// one thread (and the inline degradation below always runs the whole job
/// sequentially, so such a closure was never portable to 1-core machines).
/// Blocking on *other* jobs, including nested submissions, is fully
/// supported.
///
/// Degrades to a single inline `f(0..shards)` call when `shards <= 1` or
/// when the machine has one hardware thread — in particular the pool is
/// **not** spawned in those cases.
pub fn run_shard_ranges(shards: usize, f: impl Fn(std::ops::Range<usize>) + Sync) {
    if shards <= 1 {
        metrics().inline_runs.inc();
        if shards == 1 {
            // Inline degradation still traces against the ambient id, so a
            // traced batch looks the same whether or not the pool spawned.
            let span = obs::trace::TSpan::start(obs::trace::Phase::PoolRange, 0, 1);
            f(0..1);
            span.stop();
        }
        return;
    }
    let pool = pool();
    if pool.workers == 0 {
        metrics().inline_runs.inc();
        let span = obs::trace::TSpan::start(obs::trace::Phase::PoolRange, 0, shards as u64);
        f(0..shards);
        span.stop();
        return;
    }
    pool.run(shards, &|start, end| f(start..end));
}

/// Per-shard convenience wrapper over [`run_shard_ranges`]: execute
/// `f(0), f(1), …, f(shards - 1)`, each exactly once. Prefer the range form
/// for new callers — it makes the scheduler's chunked claiming visible to
/// the closure.
pub fn run_shards(shards: usize, f: impl Fn(usize) + Sync) {
    run_shard_ranges(shards, |range| {
        for i in range {
            f(i);
        }
    });
}

/// A raw pointer that may cross thread boundaries. Shards receive disjoint
/// index ranges, so reconstructing per-shard `&mut` slices from the base
/// pointer is sound; the pool blocks until every shard finishes, keeping the
/// underlying borrow alive.
#[derive(Clone, Copy)]
pub struct SendPtr<T>(pub *mut T);

// SAFETY: the only field is the pointer. Moving it to another thread hands
// that thread `T`s to mutate, hence `T: Send`; every user gives each shard a
// disjoint range behind it and the submitter blocks until all shards finish.
unsafe impl<T: Send> Send for SendPtr<T> {}
// SAFETY: sharing `&SendPtr` only shares the address; the per-shard accesses
// through it stay disjoint as above, so no `&T` is shared between threads.
unsafe impl<T: Send> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// The wrapped pointer. Going through a method (rather than field
    /// access) makes edition-2021 closures capture the `Sync` wrapper, not
    /// the bare raw pointer.
    #[inline]
    pub fn get(&self) -> *mut T {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::time::{Duration, Instant};

    /// Per-shard adapter for the internal range entry point (the public
    /// wrapper is `run_shards`; dedicated-pool tests need the same shape).
    fn run_per_shard(pool: &'static Pool, shards: usize, f: &(dyn Fn(usize) + Sync)) {
        pool.run(shards, &|start, end| {
            for i in start..end {
                f(i);
            }
        });
    }

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
    fn range_form_covers_the_shard_space_in_disjoint_runs() {
        for shards in [2usize, 5, 16, 97] {
            let counts: Vec<AtomicUsize> = (0..shards).map(|_| AtomicUsize::new(0)).collect();
            run_shard_ranges(shards, |range| {
                assert!(range.start < range.end && range.end <= shards);
                for i in range {
                    counts[i].fetch_add(1, Ordering::SeqCst);
                }
            });
            for (i, c) in counts.iter().enumerate() {
                assert_eq!(c.load(Ordering::SeqCst), 1, "shard {i} covered wrongly");
            }
        }
    }

    #[test]
    fn shards_may_mutate_disjoint_borrowed_slices() {
        let mut data = vec![0u64; 1000];
        let shards = 8usize;
        let shard_len = data.len().div_ceil(shards);
        let n = data.len();
        let base = SendPtr(data.as_mut_ptr());
        run_shards(shards, |i| {
            let start = i * shard_len;
            let end = (start + shard_len).min(n);
            let slice =
                unsafe { std::slice::from_raw_parts_mut(base.get().add(start), end - start) };
            for (j, x) in slice.iter_mut().enumerate() {
                *x = (start + j) as u64;
            }
        });
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

    // ---- scheduler tests (work-stealing deques, multi-job queue) ----
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
            run_per_shard(pool, 2, &|_shard| {
                await_flag(b_ran);
            });
            a_done.store(true, Ordering::SeqCst);
        });
        let b = std::thread::spawn(move || {
            // Make sure A is (very likely) submitted first.
            std::thread::sleep(Duration::from_millis(20));
            run_per_shard(pool, 2, &|_shard| {
                b_ran.store(true, Ordering::SeqCst);
            });
        });
        b.join().expect("job B's submitter");
        a.join().expect("job A's submitter");
        assert!(a_done.load(Ordering::SeqCst));
    }

    #[test]
    fn nested_submission_from_inside_a_shard_completes() {
        // A shard submitting its own job pushes it onto its executor's own
        // deque and drains it there (or thieves help) instead of
        // deadlocking behind the outer submitter.
        let pool = Pool::new(2);
        let inner_runs = AtomicUsize::new(0);
        run_per_shard(pool, 2, &|_outer| {
            run_per_shard(pool, 3, &|_inner| {
                inner_runs.fetch_add(1, Ordering::SeqCst);
            });
        });
        assert_eq!(inner_runs.load(Ordering::SeqCst), 2 * 3);
    }

    #[test]
    fn deep_nesting_completes_on_a_small_pool() {
        // Nested depth beyond the worker count: every level lands on the
        // submitting executor's own deque, so depth costs no threads.
        let pool = Pool::new(1);
        fn nest(pool: &'static Pool, depth: usize, leaves: &AtomicUsize) {
            if depth == 0 {
                leaves.fetch_add(1, Ordering::SeqCst);
                return;
            }
            run_per_shard(pool, 2, &|_| nest(pool, depth - 1, leaves));
        }
        let leaves = AtomicUsize::new(0);
        nest(pool, 5, &leaves);
        assert_eq!(leaves.load(Ordering::SeqCst), 1 << 5);
    }

    #[test]
    fn nested_submissions_from_stolen_shards_complete() {
        // A worker that *stole* part of a job and then nested-submits from
        // the stolen shard pushes onto its own (worker) deque; the nested
        // job must still complete and the outer submitter must see every
        // inner shard. Many rounds to give stealing a real chance to occur.
        let pool = Pool::new(3);
        for _ in 0..50 {
            let inner_runs = AtomicUsize::new(0);
            run_per_shard(pool, 8, &|_outer| {
                run_per_shard(pool, 4, &|_inner| {
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
                        run_per_shard(pool, 5, &|shard| {
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
                        run_per_shard(pool, shards, &|i| {
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
    fn imbalanced_shards_complete_with_chunked_claims() {
        // Strongly imbalanced shard durations (quadratic in the index):
        // chunked claiming plus stealing must still complete every shard
        // exactly once, whatever the imbalance does to the interleaving.
        let pool = Pool::new(3);
        let counts: Vec<AtomicUsize> = (0..16).map(|_| AtomicUsize::new(0)).collect();
        run_per_shard(pool, 16, &|i| {
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
        run_per_shard(pool, 6, &|_shard| {
            assert_eq!(std::thread::current().id(), me, "shard left the submitter");
            hits.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(hits.load(Ordering::SeqCst), 6);
    }

    #[test]
    fn zero_shard_jobs_return_immediately_without_queueing() {
        // `Pool::run(0, …)` must not enqueue (the queue invariant requires
        // unclaimed shards) — it returns without touching the closure.
        let pool = Pool::new(1);
        run_per_shard(pool, 0, &|_| panic!("no shards requested"));
        // The pool is untouched and fully usable.
        let hits = AtomicUsize::new(0);
        run_per_shard(pool, 3, &|_| {
            hits.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(hits.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn stats_count_jobs_shards_and_inline_runs() {
        let before = stats();
        let pool = Pool::new(1);
        run_per_shard(pool, 4, &|_| {});
        run_shards(1, |_| {});
        let after = stats();
        assert!(after.jobs_run > before.jobs_run);
        assert!(after.shards_executed >= before.shards_executed + 4);
        assert!(after.inline_runs > before.inline_runs);
        assert!(after.chunks_claimed > before.chunks_claimed);
    }

    #[test]
    fn steals_are_counted_when_workers_drain_a_stalled_submitter() {
        // Force a steal deterministically. `Pool::run` holds the lock from
        // job submission through its own first claim, so on a fresh
        // 1-worker pool the submitter always claims the first injector
        // chunk: ceil(8 / 2 executors) = 4 shards, of which it executes
        // `[0, 2)` and parks `[2, 4)` on its own deque. Shard 0 then stalls
        // until shards 2 and 3 have run — which the blocked submitter
        // cannot do itself, so the worker **must** steal the parked half.
        let pool = Pool::new(1);
        let before = stats();
        let two = AtomicBool::new(false);
        let three = AtomicBool::new(false);
        run_per_shard(pool, 8, &|shard| match shard {
            0 => {
                await_flag(&two);
                await_flag(&three);
            }
            2 => two.store(true, Ordering::SeqCst),
            3 => three.store(true, Ordering::SeqCst),
            _ => {}
        });
        let delta_steals = stats().steals - before.steals;
        assert!(delta_steals >= 1, "the worker never stole the parked half");
    }

    #[test]
    fn panics_inside_stolen_ranges_reach_the_submitter_and_spare_the_pool() {
        // Same deterministic steal recipe as above — the submitter claims
        // [0, 4), executes [0, 2) and parks [2, 4); shard 0 blocks until
        // shards 2 and 3 have run, so the worker must steal the parked
        // half. Shard 3 then panics **inside the stolen range**, on the
        // worker thread. The payload must still surface on the submitter
        // (not kill the worker or hang the job), and the pool must stay
        // fully reusable.
        let pool = Pool::new(1);
        let before = stats();
        let two = AtomicBool::new(false);
        let three = AtomicBool::new(false);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_per_shard(pool, 8, &|shard| match shard {
                0 => {
                    await_flag(&two);
                    await_flag(&three);
                }
                2 => two.store(true, Ordering::SeqCst),
                3 => {
                    three.store(true, Ordering::SeqCst);
                    panic!("stolen bang");
                }
                _ => {}
            });
        }));
        let payload = caught.expect_err("the stolen-range panic must reach the submitter");
        assert_eq!(payload.downcast_ref::<&str>().copied(), Some("stolen bang"));
        let delta_steals = stats().steals - before.steals;
        assert!(
            delta_steals >= 1,
            "the panic did not come from a stolen range"
        );
        // The worker survived the unwind and the pool keeps serving jobs.
        for _ in 0..10 {
            let sum = AtomicUsize::new(0);
            run_per_shard(pool, 8, &|i| {
                sum.fetch_add(i + 1, Ordering::SeqCst);
            });
            assert_eq!(sum.load(Ordering::SeqCst), 36);
        }
    }

    #[test]
    fn submitter_reclaims_own_shards_parked_behind_a_blocked_executor() {
        // Cross-shard wait: shard 4 blocks until shard 5 has run. The
        // deterministic chunk math ([0,4) to the submitter, then [4,6) /
        // [6,8)) always splits 4 and 5 into different runs, parking [5,6)
        // on whichever executor claimed [4,6) — which then blocks inside
        // shard 4. If the worker is the one blocked, only the submitter's
        // own-job steal can reach the parked shard (a liveness hole in a
        // workers-only stealing rule); if the submitter is blocked, the
        // worker steals it. Both interleavings must complete.
        let pool = Pool::new(1);
        for _ in 0..20 {
            let five = AtomicBool::new(false);
            run_per_shard(pool, 8, &|shard| match shard {
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
        run_per_shard(pool, 3, &|_| {});
        run_shards(1, |_| {});
        let before = stats();
        let snap = snapshot();
        run_per_shard(pool, 5, &|_| {});
        run_shards(1, |_| {});
        let delta = snap.delta();
        assert!(delta.jobs_run >= 1);
        assert!(delta.shards_executed >= 5);
        assert!(delta.inline_runs >= 1);
        assert!(delta.chunks_claimed >= 1);
        // The delta excludes everything before the snapshot: it is bounded
        // by the raw counter movement since then, not the process totals.
        let after = stats();
        assert!(delta.jobs_run <= after.jobs_run - before.jobs_run);
        assert!(delta.shards_executed <= after.shards_executed - before.shards_executed);
        assert!(delta.inline_runs <= after.inline_runs - before.inline_runs);
        assert!(delta.chunks_claimed <= after.chunks_claimed - before.chunks_claimed);
        assert!(delta.steals <= after.steals - before.steals);
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
