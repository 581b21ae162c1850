//! # pdmsf-pram
//!
//! An **EREW PRAM cost-model substrate**.
//!
//! The paper's headline result (Theorem 1.1) is stated in the EREW PRAM
//! model: `O(sqrt n)` processors, `O(log n)` worst-case parallel time per
//! update, `O(sqrt n log n)` work, and *no memory cell may be read or written
//! by two processors in the same step*. No such machine exists; what can be
//! reproduced on real hardware are the three quantities the theorem is about
//! — parallel depth, total work, processor count — plus the exclusivity
//! discipline itself. This crate provides exactly that:
//!
//! * [`CostMeter`] / [`CostReport`] — per-operation and cumulative counters
//!   for parallel depth (synchronous rounds), total work (primitive
//!   operations) and peak processors per round. The structure in
//!   `pdmsf-core` charges each primitive it runs to a meter by formula
//!   (sequentially or as EREW rounds, per its cost model), which is what
//!   the `paper` experiment fits and checks (`BENCH_paper.json`).
//! * [`erew`] — an access logger that records `(step, cell, processor,
//!   read/write)` tuples and detects EREW violations. The phased
//!   tournament of Lemma 3.1 runs under it, in this crate's tests and in
//!   the `paper` experiment's `erew` section; the structure's own accesses
//!   are not logged.
//! * [`kernels`] — [`log2_ceil`](kernels::log2_ceil), the depth formula
//!   every charge builds on, and [`erew_tournament_min`], the phased
//!   four-phase tournament of Lemma 3.1 ([`ExecMode::Simulated`] is the
//!   only execution mode; see [`kernels::PAR_CUTOFF`] for why no scan fans
//!   out over the pool).
//! * [`pool`] — a lazily spawned, process-wide pool of parked worker
//!   threads with a **work-stealing scheduler**, used by the serving layers
//!   (shard dispatch, grouped apply, query fan-out). A submission publishes
//!   a borrowed sharded closure, the calling thread participates, and the
//!   call blocks until every shard is done — scoped-spawn semantics without
//!   per-call thread creation. Single-shard jobs never spawn the pool at
//!   all. Scheduling is Cilk-style: every executor (worker or
//!   submitter) owns a deque of shard *ranges*, popped LIFO for cache
//!   locality; jobs are claimed from the shared injector queue in chunks
//!   of `ceil(remaining / executors)` shards instead of one-at-a-time
//!   through the lock; idle workers steal half of a victim's oldest
//!   remaining range, scanning victims in deterministic order (no RNG);
//!   and a shard submitting a nested job pushes it onto its own executor's
//!   deque, which keeps nested submission deadlock-free. Callers consume
//!   work through the range API ([`pool::run_shard_ranges`];
//!   [`pool::run_shards`] is the per-shard wrapper). [`pool::stats`]
//!   exposes process-wide counters (jobs run, shards executed, inline
//!   runs, injector chunks claimed, steals, parked workers) and
//!   [`pool::snapshot`] differences
//!   them per phase; the `PDMSF_POOL_THREADS` environment variable (read
//!   once at first use, clamped to `1..=128`) overrides the hardware-probed
//!   pool width — `PDMSF_POOL_THREADS=1` forces fully inline execution,
//!   larger values size the pool for the machine you are actually serving
//!   from.

pub mod cost;
pub mod erew;
pub mod kernels;
pub mod pool;

pub use cost::{CostMeter, CostReport, ExecMode};
pub use erew::{AccessKind, AccessLog, Violation};
pub use kernels::erew_tournament_min;
pub use pool::PoolStats;
