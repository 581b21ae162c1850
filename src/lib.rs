//! # pdmsf — worst-case deterministic (parallel) dynamic minimum spanning forest
//!
//! This crate is the facade of the `pdmsf` workspace, a from-scratch Rust
//! reproduction of
//!
//! > Tsvi Kopelowitz, Ely Porat, Yair Rosenmutter.
//! > *Improved Worst-Case Deterministic Parallel Dynamic Minimum Spanning
//! > Forest.* SPAA 2018.
//!
//! It re-exports the public API of the member crates:
//!
//! * [`graph`] ([`pdmsf_graph`]) — the dynamic-graph substrate: weights,
//!   [`graph::DynGraph`], the [`graph::DynamicMsf`] trait, Kruskal reference,
//!   workload generators,
//! * [`pram`] ([`pdmsf_pram`]) — the EREW PRAM cost-model substrate: cost
//!   meters and the worker pool,
//! * [`dyntree`] ([`pdmsf_dyntree`]) — Sleator–Tarjan link-cut trees,
//! * [`core`] ([`pdmsf_core`]) — the paper's contribution: one structure,
//!   [`core::SeqDynamicMsf`], built from `(n, K)` and metered in EREW
//!   rounds — at `K = sqrt n` the `O(log n)`-depth /
//!   `O(sqrt n)`-processor structure (Theorem 3.1), and at
//!   `K = sqrt(n log n)` the sequential `O(sqrt(n log n))`-time structure
//!   (Theorem 1.2), whose time is the metered work; it serves graphs of
//!   any density without the paper's Section 5 sparsification,
//! * [`engine`] ([`pdmsf_engine`]) — the batched update/query serving layer
//!   on top of that structure,
//! * [`shard`] ([`pdmsf_shard`]) — the multi-tenant sharded serving layer
//!   on top of the engine,
//! * [`persist`] ([`pdmsf_persist`]) — durable checkpoint/restore, the
//!   write-ahead op log and crash recovery,
//! * [`obs`] ([`pdmsf_obs`]) — the zero-dependency metrics core: counters,
//!   gauges, log2 latency histograms, phase spans and Prometheus-text
//!   exposition,
//! * [`baselines`] ([`pdmsf_baselines`]) — comparison structures.
//!
//! ## Performance architecture
//!
//! Every hot path runs on **flat, index-based arenas** — no keyed map is
//! consulted anywhere on the `insert`/`delete` path:
//!
//! * [`graph::arena`] interns each live [`graph::EdgeId`] into a dense
//!   `u32` slot ([`graph::EdgeSlotMap`], free-listed so slot storage stays
//!   proportional to the *live* edge count). The slot is a stable handle
//!   that resolves with a single indexed load. The `O(K)`-edge scans of the
//!   chunked forest do not even do that: each adjacency entry carries the
//!   edge's weight, id and far endpoint inline (16 bytes), and the full edge
//!   is looked up by id only for a scan's winner. The id-to-slot lookup
//!   is a paged id index private to the slot map, so sparse id regions
//!   cost one page each.
//! * One [`core::EdgeRec`] per edge carries the edge *and* its Euler-tour
//!   arc tails, replacing the seed's `HashMap<EdgeId, Edge>` +
//!   `HashMap<EdgeId, (u32, u32)>` + `BTreeMap<EdgeId, Edge>` triple. The
//!   link-cut tree keeps no id table at all: a forest edge is named by its
//!   endpoints, edge node `x` keeps its key at `keys[x − n]`, and its
//!   20-byte splay node holds only indices (its links and the heaviest
//!   edge node below it). Per-vertex caches (principal flag, principal
//!   chunk) collapse the scan loops' pointer chains into single array
//!   loads.
//! * **Per-vertex state is a few words.** Each vertex's adjacency entries
//!   and occurrence ids are spans (offset, length) of two pooled stores,
//!   in power-of-two blocks recycled per size class, so no vertex owns a
//!   heap block or a `Vec` header. A vertex with no edge holds no
//!   occurrence and no chunk: its one-occurrence tour is created with its
//!   first edge and released at the end of the update that removes its
//!   last, so chunk ids scale with trees, not with `n`.
//! * The LSDS itself is **structure-of-arrays**: splay topology
//!   (`parent`/`left`/`right`/`size`) lives in flat `u32` banks, every
//!   `CAdj` row and its aggregate live contiguously in one backing row
//!   store at the chunk's id, and the Euler-tour **occurrence records**
//!   live in flat `occ_*` banks of the same arena (vertex / chunk / order
//!   label / arc / flags) — so `pull_up`, entry-wise merges, argmin scans,
//!   the surgery re-chunking loops and the principal-copy scans are all
//!   linear sweeps over dense memory; no per-chunk or per-occurrence
//!   struct exists anywhere (see the `pdmsf-core` crate docs for the bank
//!   layout). An occurrence's order label leaves gaps to its neighbours,
//!   so an in-chunk insertion or deletion touches no other occurrence
//!   unless a gap runs out and the chunk is relabelled.
//! * Aggregate upkeep is *targeted*: chunk merges use the paper's
//!   entry-wise row minimum instead of an `O(K)` rescan (Lemma 2.2/3.1),
//!   an edge deletion rescans its chunk pair only when it removes the
//!   pair's minimum, single-entry `CAdj` changes refresh one leaf-to-root
//!   path per affected list (Lemma 2.3) instead of splaying whole vectors,
//!   split pairs rebuild both rows in one batched pass, and a released
//!   chunk id is handed out again, rows and all, before a new one. The
//!   `O(J)` aggregate vectors of the chunks an update touches are
//!   recomputed once per update, not at every rotation that touches them.
//!
//! There is one forest type and one bookkeeping store; no map-backed
//! baseline is kept. Its speed is tracked over time instead:
//! `cargo run --release -p pdmsf-bench --bin experiments -- e0` records
//! update throughput in `BENCH_update_time.json` next to a same-process
//! Kruskal calibration, and `-- e0 gate` fails when the calibrated mixed-
//! stream rate falls below 1/1.5 of the committed snapshot's.
//!
//! The structure charges each primitive Section 3 parallelises — the row
//! tournaments, the `γ`/MWR argmin scans and the per-entry LSDS refreshes
//! — as EREW PRAM rounds, by formula, whose work is the primitive's
//! sequential cost, and runs it on the calling thread. The paper picks
//! `K = sqrt n` for `sqrt n` processors and `K = sqrt(n log n)` for one;
//! the serving engines run on a few cores, so they build the structure at
//! the sequential `K` ([`core::seq::default_sequential_k`]). At 32 768
//! vertices on a 2-core machine that is about 1.5× faster per update than
//! `K = sqrt n` (both inline), and it keeps `CAdj` rows below
//! [`pram::kernels::PAR_CUTOFF`], the size under which a pooled scan cannot
//! pay.
//!
//! ## The batch engine layer
//!
//! Above the single-operation structures sits the **batched update/query
//! engine** ([`Engine`], crate [`pdmsf_engine`]): real traffic arrives in
//! bursts of independent operations, and the engine exploits the burst
//! structure a one-op-at-a-time loop cannot see. Per batch it
//!
//! * **plans** in plain code (no structural work): assigns edge ids,
//!   validates every op into a per-op [`engine::Outcome`] instead of
//!   panicking, **cancels opposing insert/delete pairs** (flapping links
//!   never reach the `O(sqrt(n) log n)` update path — only the cheap
//!   id-allocating mirror sees them, keeping ids identical to a serial
//!   execution), and **dedups queries**,
//! * **applies** the surviving updates, in arrival order, through the
//!   engine's one structure, a [`core::SeqDynamicMsf`] at
//!   `K = sqrt(n log n)` (see above),
//! * **answers all queries at one snapshot point** (after the batch's
//!   updates), in one serial loop, from the structure's Euler-tour lists:
//!   two vertices are connected iff their principal copies lie in one
//!   list, which two read-only walks to the list's root decide.
//!
//! The worker pool ([`pram::pool`]) carries only the serving layer's
//! coarse jobs: shard dispatch. It serves **multiple jobs concurrently**
//! from one FIFO of open jobs, each job a claim counter over its slots: an
//! idle worker claims the next slot of the oldest open job, and a
//! submitter claims only its own job's slots and then waits, so nested
//! submissions cannot deadlock.
//! `PDMSF_POOL_THREADS` overrides the pool width and [`pram::pool::stats`]
//! exposes its counters (jobs, slots, inline runs).
//! Batch semantics are pinned by a lockstep proptest: batched execution is
//! observationally identical (outcomes, forest, weights) to applying the
//! same ops one at a time against [`core::SeqDynamicMsf`] and to a Kruskal
//! recompute, under duplicate cuts, flap pairs, self-loops and
//! out-of-range endpoints.
//! Experiment E1 (`cargo run --release -p pdmsf-bench --bin experiments --
//! e1`) measures the batched path against running every op as its own
//! single-op batch on one bursty stream, records the trajectory in
//! `BENCH_batch_throughput.json`, and fails unless the batched path is at
//! least 1.3× faster.
//!
//! ## The sharded serving layer
//!
//! Above the single-engine batch layer sits the **multi-tenant sharded
//! service** ([`ShardedService`], crate [`pdmsf_shard`]) — the first layer
//! where the system holds *many* MSF structures and the pool runs *many*
//! simultaneous jobs. It owns `S` shards, each wrapping its own [`Engine`]
//! (own mirror, own structure), places **tenants** (private vertex and
//! edge-id spaces) onto shards deterministically (stable hash +
//! [`shard::TenantSpec::pin`]), routes each tenant-tagged batch into
//! per-shard sub-batches preserving per-tenant op order, **plans every
//! sub-batch on the caller thread** ([`Engine::plan_batch`], pure) and
//! **applies all touched shards concurrently** — one
//! [`Engine::execute_planned`] slot per shard in one pool job, each
//! internally reusing the full plan/cancel/dedup/query pipeline — then
//! reassembles outcomes into the caller's op order with tenant-local ids.
//!
//! Independent shard batches run concurrently. Each shard also holds
//! `n_shard << n_total` vertices, so its `O(sqrt(n) log n)` updates are
//! cheaper in the bound, but that alone is not a measured win: against one
//! flat engine over the merged stream on a 2-core machine, 4 and 8 shards
//! on a skewed stream ran at 0.77–1.24× its ops/s (see the `pdmsf-shard`
//! crate docs). Semantics are pinned by a lockstep proptest (sharded == one
//! flat engine per tenant == Kruskal per tenant, under unknown tenants,
//! pinning, empty shards and hostile ids).
//! The repository benchmark (`perfbench`, workload `serve`) drives an
//! 8-shard durable service end to end.
//!
//! ## The persistence layer
//!
//! Crate [`pdmsf_persist`] (re-exported as [`persist`]) makes the serving
//! stack durable. A checkpoint stores the graph, not the structure: the
//! MSF is unique under `WKey` order, so restore rebuilds each engine's
//! structure from its graph mirror ([`core::SeqDynamicMsf::from_graph`]).
//!
//! * **Checkpoints** ([`persist::EngineCheckpointExt`],
//!   [`persist::ServiceCheckpointExt`]): a versioned format
//!   ([`persist::FORMAT_VERSION`]) of length-prefixed sections, each
//!   guarded by a CRC-32 over tag and payload. An engine section holds the
//!   planner scalars, the graph mirror (its vertex count and one slot per
//!   edge id: endpoints, weight, live bit; no adjacency) and `K`; a service
//!   checkpoint adds the tenant placements, and restore re-wires the shards
//!   to the router, deriving every tenant's edge-id map from the shard
//!   mirrors. Truncations and bit flips are *detected*
//!   ([`persist::PersistError`]) — a damaged checkpoint refuses to load,
//!   never restores to a plausible-but-wrong forest.
//! * **Write-ahead op log** ([`persist::OpLogWriter`], hooked in through
//!   [`engine::OpSink`]): every state-mutating planned batch is serialized
//!   with a sequence number and record CRC **before** it applies, fsync-
//!   gated by a [`persist::FlushPolicy`]. Batches are acknowledged after
//!   the log write, so a crash mid-append leaves a torn tail holding only
//!   batches no caller was ever told succeeded.
//! * **Recovery** ([`persist::recover_engine`],
//!   [`persist::recover_service`]): newest valid checkpoint + replay of the
//!   log tail: the engine re-plans each record's ops with the planner live
//!   batches use, refuses the record unless the plan reproduces it, and
//!   applies it through the normal batch-execution path. The
//!   invariant `restore(checkpoint(S)) + replay == S` is pinned by a
//!   fault-injection proptest (crashes at arbitrary byte offsets, bit rot
//!   in checkpoint and log) against an uninterrupted twin. Experiment E5
//!   (`experiments -- e5`) measures checkpoint size and restore time
//!   against a cold rebuild, recording `BENCH_persist.json`, and fails
//!   unless, at 65 536 vertices, restore is at least 10× faster and the
//!   checkpoint takes at most 20 bytes per live edge; the end-to-end flow
//!   is `examples/checkpoint_restore.rs`.
//!
//! ## Observability
//!
//! Crate [`pdmsf_obs`] (re-exported as [`obs`]) is the stack's metrics
//! core: a zero-dependency [`obs::Registry`] of named atomic counters,
//! gauges and fixed-size **log2-bucketed latency histograms** (lock-free
//! `record`, exact count/sum, p50/p95/p99 estimates accurate to one
//! power-of-two bucket), one phase guard ([`obs::trace::TSpan`]) that
//! times a phase into a histogram and spans it on the ambient trace from
//! the same clock readings, and a Prometheus text-format renderer
//! ([`obs::Registry::render_text`]).
//!
//! Instrumentation follows a two-tier policy, keyed off the process-wide
//! [`obs::global`] registry and named `pdmsf_<layer>_<metric>`:
//!
//! * **Always on** where events are cheap to count or rare: the worker
//!   pool's counters (`pdmsf_pool_*` — jobs, slots, inline runs,
//!   parks/wakes; [`pram::pool::stats`] reads them) and the persistence
//!   layer (`pdmsf_persist_*` — WAL append and fsync latency, bytes,
//!   checkpoint size/duration).
//! * **Opt-in** on the hot serving paths: [`Engine::enable_metrics`] adds
//!   per-batch plan/apply/snapshot phase timings and
//!   outcome counters (`pdmsf_engine_*`);
//!   [`ShardedService::enable_metrics`] adds per-shard batch-latency
//!   histograms (labeled `shard="<i>"`), routing rejects and queue-batch
//!   sizes (`pdmsf_shard_*`), and turns on engine metrics for every
//!   shard. Uninstrumented engines skip every clock read — the overhead
//!   bench (`benches/obs_overhead.rs`) pins the instrumented E1 batch
//!   path within 2% of the uninstrumented one.
//!
//! `examples/metrics_dump.rs` drives a skewed sharded workload and prints
//! the full four-layer exposition.
//!
//! ### Tracing and the flight recorder
//!
//! Histograms say *that* the tail is slow; [`obs::trace`] says *why*. The
//! trace core is a process-global **lock-free ring** of fixed capacity
//! holding finished [`obs::trace::Span`]s, one slot each — start and end
//! on a shared monotonic-ns epoch, a stable per-thread id, a batch-scoped
//! [`obs::trace::TraceId`], an [`obs::trace::Phase`] tag and two payload
//! words. A phase guard writes its span when the phase ends, so a ring
//! wrap drops whole spans, never half of one. Writers claim a slot with
//! one relaxed `fetch_add` and publish with a seqlock-style sequence word;
//! readers ([`obs::trace::spans`]) validate the sequence before and after
//! loading, so a torn slot is skipped, never misread. The same two-tier
//! cost policy applies: with tracing off ([`obs::trace::enabled`] false)
//! every emit is one relaxed load and a branch — no clock read, no TLS,
//! no ring traffic (the `obs_overhead` bench gate asserts this stays
//! < 2%).
//!
//! **TraceId propagation** is ambient, not parameter-threaded:
//! [`ShardedService::enable_tracing`] allocates an id per batch and pins
//! it in a thread-local scope ([`obs::trace::scope`]) for the batch's
//! lifetime on the submitting thread. Phase guards ([`obs::trace::TSpan`])
//! read the ambient id, so routing, per-shard planning and apply, engine
//! plan/apply/snapshot phases and WAL append/fsync all attribute to the
//! batch without any signature changes. The one explicit
//! hand-off is the worker pool: each job snapshots its submitter's ambient
//! id, and every slot — **including slots run by other threads** —
//! re-scopes that id before running, so `pool.range` spans land in the
//! batch that submitted the work, not the thread that happened to run it.
//!
//! The **flight recorder** implements tail-based retention on top: the
//! service offers every traced batch with its end-to-end latency
//! ([`obs::trace::offer_capture`]); a batch is promoted out of the ring
//! into a pinned capture buffer when [`obs::trace::capture_next`] was
//! armed or the latency meets [`obs::trace::set_capture_threshold_ns`],
//! and when the buffer is full the *fastest* pinned capture is evicted —
//! retention converges to the slowest batches seen. Captures export as
//! Chrome trace-event JSON, one complete (`"ph":"X"`) event per span
//! ([`obs::trace::chrome_trace_json`], loadable in Perfetto /
//! `about://tracing`), a compact text timeline
//! ([`obs::trace::text_timeline`]) or per-phase totals
//! ([`obs::trace::phase_durations`]). `examples/trace_dump.rs` walks the
//! whole path on a live four-layer workload.
//!
//! ## Quickstart
//!
//! ```
//! use pdmsf::prelude::*;
//!
//! // A dynamic graph with 6 vertices and the paper's sequential structure.
//! let mut graph = DynGraph::new(6);
//! let mut msf = SeqDynamicMsf::new(6);
//!
//! let mut insert = |graph: &mut DynGraph, msf: &mut SeqDynamicMsf, u: u32, v: u32, w: i64| {
//!     let id = graph.insert_edge(VertexId(u), VertexId(v), Weight::new(w));
//!     msf.insert(graph.edge_unchecked(id));
//!     id
//! };
//!
//! let e01 = insert(&mut graph, &mut msf, 0, 1, 4);
//! insert(&mut graph, &mut msf, 1, 2, 2);
//! insert(&mut graph, &mut msf, 0, 2, 7);
//! insert(&mut graph, &mut msf, 3, 4, 1);
//!
//! assert!(msf.connected(VertexId(0), VertexId(2)));
//! assert!(!msf.connected(VertexId(0), VertexId(3)));
//! assert_eq!(msf.forest_weight(), 4 + 2 + 1);
//!
//! // Deleting a forest edge triggers a minimum-weight-replacement search.
//! graph.delete_edge(e01);
//! msf.delete(e01);
//! assert!(msf.connected(VertexId(0), VertexId(1))); // reconnected via 0-2-1
//! assert_eq!(msf.forest_weight(), 7 + 2 + 1);
//! ```

pub use pdmsf_baselines as baselines;
pub use pdmsf_core as core;
pub use pdmsf_dyntree as dyntree;
pub use pdmsf_engine as engine;
pub use pdmsf_graph as graph;
pub use pdmsf_obs as obs;
pub use pdmsf_persist as persist;
pub use pdmsf_pram as pram;
pub use pdmsf_shard as shard;

pub use pdmsf_engine::Engine;
pub use pdmsf_shard::ShardedService;

/// Convenient single-import prelude for applications.
pub mod prelude {
    pub use pdmsf_baselines::{NaiveDynamicMsf, RecomputeMsf};
    pub use pdmsf_core::seq::SeqDynamicMsf;
    pub use pdmsf_engine::{BatchResult, BatchSummary, Engine, Outcome, PlannedBatch, Reject};
    pub use pdmsf_graph::{
        assert_matches_kruskal, kruskal_msf, BatchKind, BatchOp, BatchStream, BatchStreamSpec,
        DynGraph, DynamicMsf, Edge, EdgeId, GraphSpec, MsfDelta, StreamKind, TenantId, TenantOp,
        TenantStream, TenantStreamSpec, UpdateOp, UpdateStream, UpdateStreamSpec, VertexId, WKey,
        Weight,
    };
    pub use pdmsf_obs::{Counter, Gauge, Histogram, Registry};
    pub use pdmsf_persist::{
        recover_engine, recover_service, EngineCheckpointExt, FlushPolicy, OpLogWriter,
        PersistError, RecoveryReport, ServiceCheckpointExt, SharedDisk,
    };
    pub use pdmsf_pram::{CostMeter, CostReport, ExecMode};
    pub use pdmsf_shard::{
        ServiceResult, ServiceStats, ServiceSummary, ShardSummary, ShardedService, TenantSpec,
    };
}
