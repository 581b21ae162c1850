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
//!   threads for the serving layers' coarse jobs (shard dispatch and
//!   grouped apply). A submission publishes a borrowed closure over slots
//!   `0..n`, the calling thread participates, and the call blocks until
//!   every slot is done — scoped-spawn semantics without per-call thread
//!   creation. Single-slot jobs never spawn the pool at all. The pool keeps
//!   one FIFO of open jobs, each job a claim counter over its slots: an
//!   idle worker claims the next slot of the oldest open job, and a
//!   submitter claims only its own job's slots and then waits, so every
//!   slot is either claimable or running and nested submissions cannot
//!   deadlock. [`pool::run_shards`] is the only entry point.
//!   [`pool::stats`] exposes process-wide counters (jobs run, slots
//!   executed, inline runs, parked workers) and [`pool::snapshot`]
//!   differences them per phase; the `PDMSF_POOL_THREADS` environment
//!   variable (read once at first use, clamped to `1..=128`) overrides the
//!   hardware-probed pool width — `PDMSF_POOL_THREADS=1` forces fully
//!   inline execution, larger values size the pool for the machine you are
//!   actually serving from.

pub mod cost;
pub mod erew;
pub mod kernels;
pub mod pool;

pub use cost::{CostMeter, CostReport, ExecMode};
pub use erew::{AccessKind, AccessLog, Violation};
pub use kernels::erew_tournament_min;
