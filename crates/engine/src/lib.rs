//! # pdmsf-engine
//!
//! The **batched update/query engine** of the `pdmsf` workspace: the
//! serving layer between bursty operation traffic and the paper's dynamic
//! MSF structures.
//!
//! The paper's structure pays `O(sqrt(n) log n)` work per *single* update,
//! but real traffic arrives in bursts of independent operations — link
//! flaps, tenant-clustered churn, and a large majority of read queries.
//! [`Engine::execute`] accepts one such burst (a slice of [`Op`]) and
//! exploits its batch structure in three ways a one-op-at-a-time loop
//! cannot:
//!
//! 1. **Cancellation** — an edge inserted *and* deleted within the same
//!    batch (a flapping link) has no effect on the post-batch forest, so
//!    neither operation reaches the MSF structure. Only the cheap
//!    [`DynGraph`] mirror sees the pair (the mirror allocates edge ids, so
//!    cancelled links must consume their id exactly as a serial execution
//!    would — ids stay stable across both execution paths).
//! 2. **Query partitioning with a single snapshot point** — all queries of
//!    a batch are answered against the forest *after* the batch's updates
//!    (the batch's snapshot point), in one serial loop, from the structure's
//!    Euler-tour lists: two vertices are connected iff their principal
//!    copies lie in one list, two read-only walks to the list's root.
//! 3. **Deduplication** — repeated questions (the common case in serving
//!    traffic) collapse to one computed answer; duplicate deletes and other
//!    invalid operations are rejected up front with a per-op
//!    [`Outcome::Rejected`] instead of panicking mid-batch.
//!
//! Every engine runs on one structure, a [`SeqDynamicMsf`] with EREW
//! accounting, at the sequential chunk parameter for [`Engine::new`] or at
//! a chosen one for [`Engine::with_chunk_parameter`].
//!
//! ## The apply path
//!
//! [`Engine::execute_planned`] applies a planned batch in three strict
//! phases:
//!
//! 1. **Write-ahead log.** The [`LoggedBatch`] is serialized from the
//!    *plan* — before any update applies — so the WAL byte stream is a
//!    pure function of the plan (pinned byte for byte by the WAL identity
//!    test in `pdmsf-persist`).
//! 2. **Apply**, one pass over the planned updates in arrival order: each
//!    update applies to the [`DynGraph`] mirror (id allocation is
//!    push-order-dependent, so the mirror always sees arrival order) and,
//!    unless cancelled, to the structure at once.
//! 3. **Answer queries** at the post-update snapshot point.
//!
//! Recovery replays a logged record through the same planner and apply
//! path ([`Engine::replay_logged`]): a record is valid iff planning the ops
//! it implies reproduces it update for update, so the planner is the only
//! code that decides whether a batch is valid.
//!
//! ## Semantics
//!
//! A batch is **observationally identical** to the following serial
//! execution, which the lockstep proptest implements literally against
//! `SeqDynamicMsf` and checks along with a Kruskal recompute: apply the
//! batch's updates one at a time in arrival order (validating each against
//! the current edge set), then answer the batch's queries in arrival order
//! against the resulting forest. Rejected operations consume no edge id
//! and have no effect. Running each op as its own single-op batch gives the
//! same per-op [`Outcome`]s and the same forest, with no batch leverage —
//! the baseline experiment E1 measures against.
//!
//! ```
//! use pdmsf_engine::{Engine, Op, Outcome};
//! use pdmsf_graph::{EdgeId, VertexId, Weight};
//!
//! let mut engine = Engine::new(4);
//! let result = engine.execute(&[
//!     Op::Link { u: VertexId(0), v: VertexId(1), weight: Weight::new(3) },
//!     Op::Link { u: VertexId(1), v: VertexId(2), weight: Weight::new(5) },
//!     // A flapping link: inserted and cut within the batch — cancelled.
//!     Op::Link { u: VertexId(2), v: VertexId(3), weight: Weight::new(9) },
//!     Op::Cut { id: EdgeId(2) },
//!     // Queries see the post-update forest.
//!     Op::QueryConnected { u: VertexId(0), v: VertexId(2) },
//!     Op::QueryConnected { u: VertexId(0), v: VertexId(3) },
//!     Op::QueryForestWeight,
//! ]);
//! assert_eq!(result.outcomes[4], Outcome::Connected { connected: true });
//! assert_eq!(result.outcomes[5], Outcome::Connected { connected: false });
//! assert_eq!(result.outcomes[6], Outcome::ForestWeight { weight: 8 });
//! assert_eq!(result.summary.cancelled_pairs, 1);
//! ```

#![forbid(unsafe_code)]

use pdmsf_core::seq::default_sequential_k;
use pdmsf_core::SeqDynamicMsf;
use pdmsf_graph::{DynGraph, DynamicMsf, Edge, EdgeId, VertexId};
use pdmsf_obs as obs;
use pdmsf_obs::trace::{Phase, TSpan};
use std::io;
use std::sync::Arc;

mod plan;

pub use pdmsf_graph::BatchOp as Op;
pub use plan::{link_reject, query_reject, PlannedUpdate};

use plan::PlannedQuery;

/// The durable form of one state-mutating batch: its sequence number, the
/// id-allocation frontier it was planned against, and its planned updates
/// (queries are not logged — they mutate nothing and need no replay).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LoggedBatch {
    /// 1-based sequence number; the `i`-th mutating batch applied by the
    /// engine since construction (query-only batches do not advance it).
    pub seq: u64,
    /// [`DynGraph::edge_id_bound`] at plan time. Replay validates it so a
    /// log can never be applied against the wrong base state.
    pub id_base: u64,
    /// The planned updates, in application order.
    pub updates: Vec<PlannedUpdate>,
}

/// A write-ahead sink for the engine's op log. When a sink is attached
/// ([`Engine::set_sink`]), every state-mutating batch is recorded **before**
/// any of its updates apply; the engine treats a failed record as fatal
/// (crash-only discipline — an unlogged mutation must never execute, because
/// recovery could not reproduce it).
pub trait OpSink: Send {
    /// Durably record `batch` (whose sequence number is `seq`). Returning
    /// `Ok(())` acknowledges the record will survive a crash to the sink's
    /// configured durability level.
    fn record(&mut self, seq: u64, batch: &LoggedBatch) -> io::Result<()>;
}

/// Why an operation was rejected by batch validation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Reject {
    /// A `Cut` named an edge that was never allocated, is already dead, or
    /// was already cut earlier in the same batch.
    UnknownOrDeadEdge,
    /// A `Link` or `QueryConnected` endpoint is outside `0..n`.
    EndpointOutOfRange,
    /// A `Link` with `u == v` (self-loops never affect a spanning forest;
    /// the engine refuses them at the boundary).
    SelfLoop,
    /// The operation named a tenant the serving layer has never registered
    /// (raised by the sharded service's router, not by a plain [`Engine`] —
    /// a single engine has no tenant notion).
    UnknownTenant,
}

impl Reject {
    /// Stable label value for the `reason` dimension of the
    /// `pdmsf_engine_ops_rejected_total` counter family.
    pub fn metric_label(self) -> &'static str {
        match self {
            Reject::UnknownOrDeadEdge => "unknown_or_dead_edge",
            Reject::EndpointOutOfRange => "endpoint_out_of_range",
            Reject::SelfLoop => "self_loop",
            Reject::UnknownTenant => "unknown_tenant",
        }
    }

    /// Dense index of this reason into [`Reject::ALL`] (and the engine's
    /// per-reason counter array).
    fn metric_index(self) -> usize {
        self as usize
    }

    /// Every reject reason, in declaration order: each reason's position
    /// is its index into the engine's per-reason counters.
    pub const ALL: [Reject; 4] = [
        Reject::UnknownOrDeadEdge,
        Reject::EndpointOutOfRange,
        Reject::SelfLoop,
        Reject::UnknownTenant,
    ];
}

/// The per-operation result of a batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// The edge was inserted under this id (possibly cancelled later in the
    /// same batch — the id was still consumed).
    Linked {
        /// The id assigned to the inserted edge.
        id: EdgeId,
    },
    /// The edge was deleted.
    Cut {
        /// The id of the deleted edge.
        id: EdgeId,
    },
    /// Answer to a [`Op::QueryConnected`] at the batch's snapshot point.
    Connected {
        /// Whether the endpoints share a component.
        connected: bool,
    },
    /// Answer to a [`Op::QueryForestWeight`] at the batch's snapshot point.
    ForestWeight {
        /// Total forest weight.
        weight: i128,
    },
    /// The operation failed validation and had no effect.
    Rejected {
        /// Why.
        reason: Reject,
    },
}

/// Aggregate facts about one executed batch.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatchSummary {
    /// Operations in the batch.
    pub ops: usize,
    /// Updates that reached the MSF structure (valid, not cancelled).
    pub applied_updates: usize,
    /// Opposing link/cut pairs elided from the structure.
    pub cancelled_pairs: usize,
    /// Operations rejected by validation.
    pub rejected: usize,
    /// Query operations.
    pub queries: usize,
    /// Distinct answers computed for those queries.
    pub unique_queries: usize,
    /// Always 0: queries are answered from the structure, and no snapshot
    /// is captured. The field stays because the repository benchmark's
    /// per-layer report reads it (`engine.snapshots_per_batch`).
    pub snapshots: u64,
}

/// The result of executing one batch: one [`Outcome`] per input op, in op
/// order, plus the batch summary.
#[derive(Clone, Debug)]
pub struct BatchResult {
    /// Per-op outcomes, index-aligned with the input slice.
    pub outcomes: Vec<Outcome>,
    /// Aggregate facts about the batch.
    pub summary: BatchSummary,
}

/// Cumulative engine counters across all executed batches.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Batches executed.
    pub batches: u64,
    /// Operations processed.
    pub ops: u64,
    /// Updates applied to the MSF structure.
    pub applied_updates: u64,
    /// Opposing pairs cancelled before reaching the structure.
    pub cancelled_pairs: u64,
    /// Operations rejected by validation.
    pub rejected: u64,
    /// Query operations answered.
    pub queries: u64,
    /// Queries answered from another query's computed answer (duplicates).
    pub deduped_queries: u64,
    /// Query snapshots captured: 0 for batches this build runs, since no
    /// snapshot is captured, while a restored engine keeps its
    /// checkpointed count. The field stays because the repository
    /// benchmark's per-layer report reads it (`engine.snapshots_per_batch`).
    pub snapshots: u64,
}

impl EngineStats {
    /// Add one executed batch.
    fn absorb(&mut self, s: &BatchSummary) {
        self.batches += 1;
        self.ops += s.ops as u64;
        self.applied_updates += s.applied_updates as u64;
        self.cancelled_pairs += s.cancelled_pairs as u64;
        self.rejected += s.rejected as u64;
        self.queries += s.queries as u64;
        self.deduped_queries += (s.queries - s.unique_queries) as u64;
    }
}

/// A batch planned by [`Engine::plan_batch`], awaiting application through
/// [`Engine::execute_planned`]. Opaque: it carries pre-assigned edge ids,
/// the cancellation/dedup decisions and the provisional per-op outcomes.
///
/// Planning borrows the engine immutably, so a serving layer can plan the
/// sub-batches of many shard engines back to back on the caller thread and
/// then apply them concurrently (one pool slot per shard) — the pattern the
/// sharded service uses. A plan is `Send`: it contains only ids, weights
/// and outcome slots.
pub struct PlannedBatch {
    plan: plan::BatchPlan,
    ops: usize,
    /// The mirror's id-allocation frontier at plan time; `execute_planned`
    /// asserts it has not moved (a stale plan would mis-assign ids).
    id_base: usize,
}

impl PlannedBatch {
    /// Operations in the planned batch.
    pub fn num_ops(&self) -> usize {
        self.ops
    }

    /// Updates that survived validation (cancelled pairs included).
    pub fn num_updates(&self) -> usize {
        self.plan.updates.len()
    }

    /// Distinct queries the batch will answer.
    pub fn num_unique_queries(&self) -> usize {
        self.plan.unique_queries.len()
    }
}

/// Pre-resolved handles into the `pdmsf-obs` global registry for the
/// `pdmsf_engine_*` metric families. Resolved once by
/// [`Engine::enable_metrics`]; recording is relaxed atomics on `Arc`ed
/// instruments, so instrumented engines stay `Send` and shard engines
/// record concurrently without coordination.
#[derive(Clone)]
struct EngineMetrics {
    plan_ns: Arc<obs::Histogram>,
    apply_ns: Arc<obs::Histogram>,
    snapshot_ns: Arc<obs::Histogram>,
    batches: Arc<obs::Counter>,
    ops: Arc<obs::Counter>,
    updates_applied: Arc<obs::Counter>,
    pairs_cancelled: Arc<obs::Counter>,
    /// One series per [`Reject`] reason, indexed by
    /// [`Reject::metric_index`] — the family is split by a `reason` label
    /// so a scrape attributes rejects without a log dive.
    ops_rejected: [Arc<obs::Counter>; Reject::ALL.len()],
    queries: Arc<obs::Counter>,
}

impl EngineMetrics {
    fn resolve() -> EngineMetrics {
        let r = obs::global();
        EngineMetrics {
            plan_ns: r.histogram("pdmsf_engine_plan_ns", "batch planning phase latency"),
            apply_ns: r.histogram("pdmsf_engine_apply_ns", "batch update-apply phase latency"),
            snapshot_ns: r.histogram("pdmsf_engine_snapshot_ns", "query-answering phase latency"),
            batches: r.counter("pdmsf_engine_batches_total", "batches executed"),
            ops: r.counter("pdmsf_engine_ops_total", "operations processed"),
            updates_applied: r.counter(
                "pdmsf_engine_updates_applied_total",
                "updates that reached the MSF structure",
            ),
            pairs_cancelled: r.counter(
                "pdmsf_engine_pairs_cancelled_total",
                "opposing link/cut pairs cancelled at plan time",
            ),
            ops_rejected: Reject::ALL.map(|reason| {
                r.counter_labeled(
                    "pdmsf_engine_ops_rejected_total",
                    "reason",
                    reason.metric_label(),
                    "operations rejected by batch validation",
                )
            }),
            queries: r.counter("pdmsf_engine_queries_total", "queries answered"),
        }
    }

    /// Count one executed batch, whose per-op results are `outcomes`.
    fn count(&self, s: &BatchSummary, outcomes: &[Outcome]) {
        self.batches.inc();
        self.ops.add(s.ops as u64);
        self.updates_applied.add(s.applied_updates as u64);
        self.pairs_cancelled.add(s.cancelled_pairs as u64);
        self.queries.add(s.queries as u64);
        if s.rejected > 0 {
            // Attribute each reject to its reason series; rejected outcome
            // slots are final (query backfill only touches accepted query
            // slots).
            for outcome in outcomes {
                if let Outcome::Rejected { reason } = outcome {
                    self.ops_rejected[reason.metric_index()].inc();
                }
            }
        }
    }
}

/// The batched update/query engine. Owns the id-allocating [`DynGraph`]
/// mirror and the MSF structure; see the crate docs for semantics.
pub struct Engine {
    graph: DynGraph,
    msf: SeqDynamicMsf,
    stats: EngineStats,
    /// Sequence number of the last state-mutating batch applied.
    applied_seq: u64,
    /// Optional write-ahead op log; see [`OpSink`].
    sink: Option<Box<dyn OpSink>>,
    /// Optional registry-backed instrumentation ([`Engine::enable_metrics`]);
    /// `None` leaves every phase guard without a histogram.
    metrics: Option<EngineMetrics>,
}

// The sharded serving layer drives one engine per shard from pool workers
// (plans move to the worker, results move back). Everything inside is flat
// `Vec`s and integers; pin that so a future field can't silently take the
// concurrency away.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Engine>();
    assert_send::<PlannedBatch>();
    assert_send::<BatchResult>();
};

impl Engine {
    /// An engine over `n` isolated vertices, backed by the EREW-metered
    /// structure at the sequential chunk parameter `K = sqrt(n log n)`
    /// ([`default_sequential_k`]). Every primitive runs on the calling
    /// thread: on a machine without `sqrt n` processors the paper's
    /// sequential trade-off is the faster one (about 1.5x per update at
    /// 32 768 vertices against `K = sqrt n`).
    pub fn new(n: usize) -> Engine {
        Engine::with_chunk_parameter(n, default_sequential_k(n))
    }

    /// An engine over `n` isolated vertices whose structure runs at chunk
    /// parameter `k`. Observable behaviour is identical to [`Engine::new`]
    /// for any `k`; only the cost of an update changes.
    pub fn with_chunk_parameter(n: usize, k: usize) -> Engine {
        Engine::assemble(
            DynGraph::new(n),
            SeqDynamicMsf::with_chunk_parameter(n, k),
            EngineStats::default(),
            0,
        )
    }

    fn assemble(
        graph: DynGraph,
        msf: SeqDynamicMsf,
        stats: EngineStats,
        applied_seq: u64,
    ) -> Engine {
        Engine {
            graph,
            msf,
            stats,
            applied_seq,
            sink: None,
            metrics: None,
        }
    }

    /// Turn on registry-backed instrumentation: per-batch
    /// plan/apply/snapshot phase timings and operation counters, recorded
    /// into the `pdmsf_engine_*` families of the process-wide
    /// [`pdmsf_obs::global`] registry. Off by default — an
    /// uninstrumented, untraced engine pays one branch per phase and never
    /// reads the clock (the `obs_overhead` bench pins the instrumented
    /// regression under 2%).
    pub fn enable_metrics(&mut self) {
        self.metrics = Some(EngineMetrics::resolve());
    }

    /// Assemble an engine from restored parts (the checkpoint/restore path
    /// of `pdmsf-persist`): the id-allocating mirror, the chunk parameter
    /// `k`, the counters and the op-log sequence number. The structure is
    /// built from the mirror's live edges ([`SeqDynamicMsf::from_graph`]),
    /// so the two cannot disagree.
    ///
    /// The engine keeps the checkpointed `k`, even where it differs from
    /// what [`Engine::new`] would pick today (checkpoints written when
    /// engines served at `K = sqrt n` restore at that `K`): every answer
    /// is the same at any `K`, and the per-update cost stays what the
    /// checkpointing engine paid.
    pub fn from_restored_parts(
        graph: DynGraph,
        k: usize,
        stats: EngineStats,
        applied_seq: u64,
    ) -> Engine {
        let msf = SeqDynamicMsf::from_graph(&graph, k);
        Engine::assemble(graph, msf, stats, applied_seq)
    }

    /// Attach a write-ahead op log. Every subsequent state-mutating batch is
    /// recorded through `sink` before its first update applies.
    pub fn set_sink(&mut self, sink: Box<dyn OpSink>) {
        self.sink = Some(sink);
    }

    /// Detach and return the op-log sink, if one is attached.
    pub fn take_sink(&mut self) -> Option<Box<dyn OpSink>> {
        self.sink.take()
    }

    /// Sequence number of the last state-mutating batch applied (0 if none).
    pub fn applied_seq(&self) -> u64 {
        self.applied_seq
    }

    /// Number of vertices managed.
    pub fn num_vertices(&self) -> usize {
        self.graph.num_vertices()
    }

    /// The id-allocating graph mirror (every accepted update is reflected
    /// here, including cancelled pairs). Useful for differential checks
    /// against Kruskal.
    pub fn graph(&self) -> &DynGraph {
        &self.graph
    }

    /// The backing MSF structure.
    pub fn structure(&self) -> &SeqDynamicMsf {
        &self.msf
    }

    /// Cumulative engine counters.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Current forest edges (sorted by id).
    pub fn forest_edges(&self) -> Vec<EdgeId> {
        self.msf.forest_edges()
    }

    /// Current total forest weight.
    pub fn forest_weight(&self) -> i128 {
        self.msf.forest_weight()
    }

    /// Total weight of the forest edges whose endpoints lie in the vertex
    /// range `lo..hi`. `O(f)` over the current forest edges.
    ///
    /// This is the tenant-scoped weight query of the sharded service: a
    /// shard engine hosts several tenants in disjoint vertex ranges whose
    /// edges never cross ranges, so the forest decomposes exactly and the
    /// range sum *is* that tenant's forest weight. (Edges only partially
    /// inside the range count too — the caller guarantees there are none.)
    pub fn forest_weight_in_range(&self, lo: VertexId, hi: VertexId) -> i128 {
        self.forest_weights_in_ranges(&[(lo, hi)])[0]
    }

    /// [`Engine::forest_weight_in_range`] for many disjoint ranges in **one**
    /// sweep over the forest edges (enumerating the forest costs a scan of
    /// the live edge set, so per-range sweeps would multiply that scan by
    /// the range count — the sharded service answers all of a shard's
    /// tenant weight queries through this). Returns one sum per input
    /// range, in input order; ranges may be passed in any order but must
    /// not overlap.
    pub fn forest_weights_in_ranges(&self, ranges: &[(VertexId, VertexId)]) -> Vec<i128> {
        let mut totals = vec![0i128; ranges.len()];
        if ranges.is_empty() {
            return totals;
        }
        // Sort range indices by start so each edge resolves its range with
        // one binary search. Empty ranges can hold no edge but could tie
        // with a real range on the start vertex and shadow it in the
        // search — leave them out (their sum is 0 by definition).
        let mut order: Vec<u32> = (0..ranges.len() as u32)
            .filter(|&i| ranges[i as usize].0 < ranges[i as usize].1)
            .collect();
        order.sort_by_key(|&i| ranges[i as usize].0);
        for e in self.msf.forest().tree_edges() {
            // Last range starting at or before e.u, if any.
            let pos = order.partition_point(|&i| ranges[i as usize].0 <= e.u);
            if pos == 0 {
                continue;
            }
            let slot = order[pos - 1] as usize;
            let (lo, hi) = ranges[slot];
            if e.u < hi {
                debug_assert!(
                    e.v >= lo && e.v < hi,
                    "forest edge crosses a queried vertex range"
                );
                totals[slot] += e.weight.as_summable();
            }
        }
        totals
    }

    /// Execute one batch with full batch preprocessing: plan (id
    /// assignment, validation, cancellation, query dedup), apply the
    /// surviving updates through the structure, then answer all queries at
    /// the snapshot point from the structure's Euler-tour lists.
    ///
    /// Equivalent to [`Engine::plan_batch`] followed by
    /// [`Engine::execute_planned`]; the split form lets a serving layer
    /// plan many shard batches on the caller thread and apply them
    /// concurrently on pool threads.
    pub fn execute(&mut self, ops: &[Op]) -> BatchResult {
        let plan = self.plan_batch(ops);
        self.execute_planned(plan)
    }

    /// Plan one batch against the engine's current state **without applying
    /// anything**: sequential id assignment against the [`DynGraph`]
    /// mirror, per-op validation, cancellation of opposing link/cut pairs
    /// and query dedup, all in plain code (`&self` — no structural work).
    ///
    /// The returned plan is only valid against this engine in this state:
    /// it must be applied with [`Engine::execute_planned`] before any other
    /// batch executes (the plan pre-assigns edge ids from the mirror's
    /// current allocation frontier, which an intervening batch would move).
    pub fn plan_batch(&self, ops: &[Op]) -> PlannedBatch {
        // Spans trace against the ambient batch id (set by the sharded
        // service on its submitting thread, or by any caller via
        // `trace::scope`).
        let span = TSpan::begin(
            Phase::Plan,
            self.metrics.as_ref().map(|m| &*m.plan_ns),
            ops.len() as u64,
            0,
        );
        let plan = plan::plan(&self.graph, ops);
        span.end();
        PlannedBatch {
            plan,
            ops: ops.len(),
            id_base: self.graph.edge_id_bound(),
        }
    }

    /// Apply a batch planned by [`Engine::plan_batch`]: apply the surviving
    /// updates through the structure and answer all queries at the
    /// post-update snapshot point. This is the `&mut self` half of
    /// [`Engine::execute`] — a sharded serving layer plans every shard's
    /// sub-batch on the caller thread and runs this half concurrently, one
    /// shard engine per pool slot.
    pub fn execute_planned(&mut self, planned: PlannedBatch) -> BatchResult {
        // A real assert, not a debug_assert: applying a stale plan would
        // silently collide its pre-assigned edge ids with ids the engine
        // allocated since, corrupting the mirror — and this is a public
        // API whose misuse must fail loudly in release builds too. One
        // usize comparison per batch.
        assert_eq!(
            planned.id_base,
            self.graph.edge_id_bound(),
            "plan applied to an engine whose state moved since plan_batch"
        );
        let PlannedBatch {
            mut plan,
            ops,
            id_base,
        } = planned;
        // Write-ahead discipline: a state-mutating batch is recorded in the
        // op log *before* its first update applies, so a crash at any point
        // afterwards can be recovered by replaying the record. Query-only
        // batches mutate nothing and are not logged. A failed record is
        // fatal by design (crash-only): applying an unlogged mutation would
        // leave a state no recovery could reproduce.
        if !plan.updates.is_empty() {
            let seq = self.applied_seq + 1;
            if let Some(sink) = self.sink.as_mut() {
                // The record borrows the plan's updates for the write and
                // hands them back: the log holds exactly the planned form.
                let logged = LoggedBatch {
                    seq,
                    id_base: id_base as u64,
                    updates: std::mem::take(&mut plan.updates),
                };
                sink.record(seq, &logged)
                    .expect("op-log write failed; refusing to apply an unlogged batch");
                plan.updates = logged.updates;
            }
            self.applied_seq = seq;
        }
        // The guards borrow the metrics while the phases mutate the mirror
        // and the structure: disjoint fields.
        let metrics = self.metrics.as_ref();
        let span = TSpan::begin(
            Phase::Apply,
            metrics.map(|m| &*m.apply_ns),
            plan.updates.len() as u64,
            0,
        );
        let applied = Engine::apply_updates(&mut self.graph, &mut self.msf, &plan.updates);
        span.end();

        if !plan.unique_queries.is_empty() {
            let span = TSpan::begin(
                Phase::Snapshot,
                metrics.map(|m| &*m.snapshot_ns),
                plan.unique_queries.len() as u64,
                0,
            );
            let answers: Vec<Outcome> = plan
                .unique_queries
                .iter()
                .map(|q| match *q {
                    PlannedQuery::Connected { u, v } => Outcome::Connected {
                        connected: self.msf.connected(u, v),
                    },
                    PlannedQuery::ForestWeight => Outcome::ForestWeight {
                        weight: self.msf.forest_weight(),
                    },
                })
                .collect();
            span.end();
            for &(out, slot) in &plan.query_refs {
                plan.outcomes[out] = answers[slot];
            }
        }

        let summary = BatchSummary {
            ops,
            applied_updates: applied,
            cancelled_pairs: plan.cancelled_pairs,
            rejected: plan.rejected,
            queries: plan.query_refs.len(),
            unique_queries: plan.unique_queries.len(),
            snapshots: 0,
        };
        self.stats.absorb(&summary);
        if let Some(m) = metrics {
            m.count(&summary, &plan.outcomes);
        }
        BatchResult {
            outcomes: plan.outcomes,
            summary,
        }
    }

    /// Apply a plan's updates in one pass, arrival order (see the crate
    /// docs): each update applies to the mirror and, unless cancelled, to
    /// the structure at once. Returns how many reached the structure.
    fn apply_updates(
        graph: &mut DynGraph,
        msf: &mut SeqDynamicMsf,
        updates: &[PlannedUpdate],
    ) -> usize {
        let mut applied = 0usize;
        for update in updates {
            match *update {
                PlannedUpdate::Link {
                    id,
                    u,
                    v,
                    weight,
                    cancelled,
                } => {
                    let got = graph.insert_edge(u, v, weight);
                    debug_assert_eq!(got, id, "plan id allocation diverged from the mirror");
                    if !cancelled {
                        msf.insert(Edge { id, u, v, weight });
                        applied += 1;
                    }
                }
                PlannedUpdate::Cut { id, cancelled } => {
                    graph.delete_edge(id);
                    if !cancelled {
                        msf.delete(id);
                        applied += 1;
                    }
                }
            }
        }
        applied
    }

    /// Re-apply one logged batch during recovery. The record must be the
    /// *next* batch for this engine (`seq == applied_seq + 1`), planned
    /// against exactly this id-allocation frontier, and non-empty. Its ops
    /// — a `Link { u, v, weight }` per logged link and a `Cut { id }` per
    /// logged cut, in record order — are then planned by the planner live
    /// batches use, so a record is valid iff the planner reproduces it: no
    /// op is rejected and every planned update equals the logged one field
    /// for field, ids and cancellation flags included. A valid record
    /// applies through the normal [`Engine::execute_planned`] path, so
    /// replay exercises the same application code as live traffic; any
    /// other returns `Err` naming the first differing update and leaves the
    /// engine untouched.
    ///
    /// Replay restores the forest, the mirror and the sequence number, but
    /// not every counter: queries, rejected ops and query-only batches are
    /// never logged, so a recovered engine's [`EngineStats`] read lower for
    /// `ops`, `queries`, `deduped_queries`, `rejected` and `batches` than the
    /// live engine's did.
    ///
    /// Replay never re-records: the batch is already in the log. Call this
    /// only before attaching a sink for new traffic (the recovery driver in
    /// `pdmsf-persist` does), or the temporarily-detached sink discipline is
    /// enforced here by taking the sink around the call.
    pub fn replay_logged(&mut self, batch: &LoggedBatch) -> Result<BatchResult, String> {
        if batch.seq != self.applied_seq + 1 {
            return Err(format!(
                "log replay out of order: record seq {} but engine applied_seq is {}",
                batch.seq, self.applied_seq
            ));
        }
        if batch.id_base != self.graph.edge_id_bound() as u64 {
            return Err(format!(
                "log record planned at id base {} but the engine's frontier is {}",
                batch.id_base,
                self.graph.edge_id_bound()
            ));
        }
        if batch.updates.is_empty() {
            return Err("logged batch has no updates (never written by the engine)".to_string());
        }
        let ops: Vec<Op> = batch
            .updates
            .iter()
            .map(|update| match *update {
                PlannedUpdate::Link { u, v, weight, .. } => Op::Link { u, v, weight },
                PlannedUpdate::Cut { id, .. } => Op::Cut { id },
            })
            .collect();
        let planned = self.plan_batch(&ops);
        // An accepted op plans one update and a rejected op none, so a plan
        // that matches every logged update rejected nothing.
        let (updates, outcomes) = (&planned.plan.updates, &planned.plan.outcomes);
        if let Some(i) = (0..ops.len()).find(|&i| updates.get(i) != Some(&batch.updates[i])) {
            return Err(format!(
                "log record update {i}: logged {:?}, planned {:?}, op outcome {:?}",
                batch.updates[i],
                updates.get(i),
                outcomes[i]
            ));
        }
        let saved = self.sink.take();
        let result = self.execute_planned(planned);
        self.sink = saved;
        Ok(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdmsf_core::seq::default_parallel_k;
    use pdmsf_graph::{VertexId, Weight};

    /// Engines serve at the paper's sequential `K = sqrt(n log n)`; the
    /// EREW depth/work tables keep the paper's parallel `K = sqrt n`.
    #[test]
    fn engines_serve_at_the_sequential_chunk_parameter() {
        for n in [2usize, 100, 4096, 32_768] {
            let k = default_sequential_k(n);
            assert_eq!(Engine::new(n).structure().chunk_parameter(), k);
        }
        assert_eq!(Engine::new(32_768).structure().chunk_parameter(), 702);
        assert_eq!(default_parallel_k(32_768), 182);
    }

    fn link(u: u32, v: u32, w: i64) -> Op {
        Op::Link {
            u: VertexId(u),
            v: VertexId(v),
            weight: Weight::new(w),
        }
    }

    fn qconn(u: u32, v: u32) -> Op {
        Op::QueryConnected {
            u: VertexId(u),
            v: VertexId(v),
        }
    }

    /// A vertex holds an Euler-tour occurrence iff it has an edge: an empty
    /// structure, and the engine built on one, hold no chunk and no
    /// occurrence; one link creates occurrences for exactly its two
    /// endpoints (`validate()` checks which vertices hold them); cutting it
    /// releases both.
    #[test]
    fn edgeless_vertices_hold_no_tour() {
        let n = 1_000;
        for stats in [
            SeqDynamicMsf::new(n).forest_stats(),
            Engine::new(n).structure().forest_stats(),
        ] {
            assert_eq!((stats.chunks, stats.occurrences), (0, 0));
        }
        let mut engine = Engine::new(n);
        engine.execute(&[link(3, 7, 5)]);
        let stats = engine.structure().forest_stats();
        assert_eq!((stats.chunks, stats.occurrences), (1, 2));
        engine.structure().validate();
        engine.execute(&[Op::Cut { id: EdgeId(0) }]);
        let stats = engine.structure().forest_stats();
        assert_eq!((stats.chunks, stats.occurrences), (0, 0));
        engine.structure().validate();
    }

    #[test]
    fn cancelled_pairs_never_reach_the_structure() {
        let mut engine = Engine::new(6);
        let result = engine.execute(&[
            link(0, 1, 2),
            link(1, 2, 4),             // flap
            Op::Cut { id: EdgeId(1) }, // cancels it
            link(2, 3, 8),
            qconn(0, 1),
            qconn(1, 2),
        ]);
        assert_eq!(result.summary.cancelled_pairs, 1);
        assert_eq!(result.summary.applied_updates, 2);
        assert_eq!(result.outcomes[4], Outcome::Connected { connected: true });
        assert_eq!(result.outcomes[5], Outcome::Connected { connected: false });
        // The mirror consumed the cancelled id anyway: the next link gets
        // id 3, exactly as a serial execution would allocate.
        let r2 = engine.execute(&[link(4, 5, 1)]);
        assert_eq!(r2.outcomes[0], Outcome::Linked { id: EdgeId(3) });
        assert_eq!(engine.forest_weight(), 2 + 8 + 1);
    }

    #[test]
    fn queries_see_the_post_update_snapshot_point() {
        let mut engine = Engine::new(3);
        // The query is *positioned* before the link but answered at the
        // batch's snapshot point (after all updates).
        let result = engine.execute(&[qconn(0, 1), link(0, 1, 5)]);
        assert_eq!(result.outcomes[0], Outcome::Connected { connected: true });
        assert_eq!(result.outcomes[1], Outcome::Linked { id: EdgeId(0) });
    }

    #[test]
    fn rejections_are_reported_not_panicked() {
        let mut engine = Engine::new(3);
        let result = engine.execute(&[
            link(0, 1, 1),
            Op::Cut { id: EdgeId(0) },
            Op::Cut { id: EdgeId(0) },  // duplicate
            Op::Cut { id: EdgeId(99) }, // unknown
            link(0, 0, 1),              // self loop
            link(0, 17, 1),             // out of range
            qconn(0, 99),               // out of range
        ]);
        assert_eq!(result.summary.rejected, 5);
        assert_eq!(
            result.outcomes[2],
            Outcome::Rejected {
                reason: Reject::UnknownOrDeadEdge
            }
        );
        assert_eq!(
            result.outcomes[4],
            Outcome::Rejected {
                reason: Reject::SelfLoop
            }
        );
        assert_eq!(
            result.outcomes[5],
            Outcome::Rejected {
                reason: Reject::EndpointOutOfRange
            }
        );
        assert_eq!(
            result.outcomes[6],
            Outcome::Rejected {
                reason: Reject::EndpointOutOfRange
            }
        );
        assert_eq!(engine.forest_edges(), Vec::<EdgeId>::new());
    }

    #[test]
    fn stats_accumulate_across_batches() {
        let mut engine = Engine::new(4);
        engine.execute(&[link(0, 1, 1), qconn(0, 1), qconn(1, 0)]);
        engine.execute(&[link(1, 2, 2), Op::Cut { id: EdgeId(1) }]);
        let stats = engine.stats();
        assert_eq!(stats.batches, 2);
        assert_eq!(stats.ops, 5);
        assert_eq!(stats.applied_updates, 1);
        assert_eq!(stats.cancelled_pairs, 1);
        assert_eq!(stats.queries, 2);
        assert_eq!(stats.deduped_queries, 1);
    }

    #[test]
    fn plan_then_execute_matches_execute() {
        let ops = vec![
            link(0, 1, 3),
            link(2, 3, 9),             // flap
            Op::Cut { id: EdgeId(1) }, // cancels
            qconn(0, 1),
            qconn(0, 1),
            Op::QueryForestWeight,
            Op::Cut { id: EdgeId(7) }, // rejected
        ];
        let mut split = Engine::new(6);
        let mut fused = Engine::new(6);
        let plan = split.plan_batch(&ops);
        assert_eq!(plan.num_ops(), ops.len());
        assert_eq!(plan.num_updates(), 3);
        assert_eq!(plan.num_unique_queries(), 2);
        let rs = split.execute_planned(plan);
        let rf = fused.execute(&ops);
        assert_eq!(rs.outcomes, rf.outcomes);
        assert_eq!(rs.summary, rf.summary);
        assert_eq!(split.forest_edges(), fused.forest_edges());
    }

    #[test]
    fn ranged_forest_weight_decomposes_disjoint_blocks() {
        // Two isolated vertex blocks (0..3 and 3..6), edges never cross.
        let mut engine = Engine::new(6);
        engine.execute(&[link(0, 1, 2), link(1, 2, 5), link(3, 4, 7), link(4, 5, 11)]);
        assert_eq!(engine.forest_weight_in_range(VertexId(0), VertexId(3)), 7);
        assert_eq!(engine.forest_weight_in_range(VertexId(3), VertexId(6)), 18);
        assert_eq!(
            engine.forest_weight_in_range(VertexId(0), VertexId(6)),
            engine.forest_weight()
        );
        assert_eq!(engine.forest_weight_in_range(VertexId(6), VertexId(6)), 0);
        // An empty range tying with a real range's start must not shadow
        // it (the zero-vertex-tenant case of the sharded service).
        assert_eq!(
            engine.forest_weights_in_ranges(&[
                (VertexId(0), VertexId(3)),
                (VertexId(0), VertexId(0)),
                (VertexId(3), VertexId(6)),
            ]),
            vec![7, 0, 18]
        );
    }

    /// Test sink: collects every record in memory.
    struct VecSink(std::sync::Arc<std::sync::Mutex<Vec<LoggedBatch>>>);

    impl OpSink for VecSink {
        fn record(&mut self, seq: u64, batch: &LoggedBatch) -> std::io::Result<()> {
            assert_eq!(seq, batch.seq);
            self.0.lock().unwrap().push(batch.clone());
            Ok(())
        }
    }

    #[test]
    fn logged_batches_replay_to_the_same_state() {
        let log = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let mut live = Engine::new(8);
        live.set_sink(Box::new(VecSink(log.clone())));
        live.execute(&[link(0, 1, 3), link(1, 2, 5), qconn(0, 2)]);
        live.execute(&[
            link(2, 3, 9),             // flap
            Op::Cut { id: EdgeId(2) }, // cancels it
            link(3, 4, 1),
            Op::Cut { id: EdgeId(0) },
            Op::Cut { id: EdgeId(77) }, // rejected — not logged
        ]);
        live.execute(&[qconn(0, 4), Op::QueryForestWeight]); // query-only — not logged
        live.execute(&[link(4, 5, 2)]);
        assert_eq!(live.applied_seq(), 3);

        let records = log.lock().unwrap().clone();
        assert_eq!(records.len(), 3);
        assert_eq!(
            records.iter().map(|r| r.seq).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );

        let mut recovered = Engine::new(8);
        for r in &records {
            recovered.replay_logged(r).unwrap();
        }
        assert_eq!(recovered.applied_seq(), live.applied_seq());
        assert_eq!(recovered.forest_edges(), live.forest_edges());
        assert_eq!(recovered.forest_weight(), live.forest_weight());
        // The id frontier moved identically (cancelled links consumed ids on
        // replay too), so both engines assign the same id next.
        let a = recovered.execute(&[link(6, 7, 4)]);
        let b = live.execute(&[link(6, 7, 4)]);
        assert_eq!(a.outcomes, b.outcomes);
    }

    #[test]
    fn replay_rejects_out_of_order_and_misbased_records() {
        let log = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let mut live = Engine::new(4);
        live.set_sink(Box::new(VecSink(log.clone())));
        live.execute(&[link(0, 1, 1)]);
        live.execute(&[link(1, 2, 2)]);
        let records = log.lock().unwrap().clone();

        let mut recovered = Engine::new(4);
        // Skipping record 1 is detected.
        assert!(recovered.replay_logged(&records[1]).is_err());
        recovered.replay_logged(&records[0]).unwrap();
        // Replaying the same record twice is detected.
        assert!(recovered.replay_logged(&records[0]).is_err());
        // A tampered id base is detected.
        let mut bad = records[1].clone();
        bad.id_base = 7;
        assert!(recovered.replay_logged(&bad).is_err());
        recovered.replay_logged(&records[1]).unwrap();
        assert_eq!(recovered.forest_weight(), live.forest_weight());
    }

    /// Replay `updates` as the next record of `engine` and assert it is
    /// refused with the engine untouched.
    fn assert_replay_refused(engine: &mut Engine, updates: Vec<PlannedUpdate>) {
        let record = LoggedBatch {
            seq: engine.applied_seq() + 1,
            id_base: engine.graph().edge_id_bound() as u64,
            updates,
        };
        let seq = engine.applied_seq();
        let forest = engine.forest_edges();
        let mirror = engine.graph().to_image();
        assert!(
            engine.replay_logged(&record).is_err(),
            "impossible record replayed: {record:?}"
        );
        assert_eq!(engine.applied_seq(), seq);
        assert_eq!(engine.forest_edges(), forest);
        assert_eq!(engine.graph().to_image(), mirror);
        engine.structure().validate();
    }

    /// Live edges 0 = (0, 1) and 1 = (1, 2), dead edge 2; next id 3.
    fn replay_base() -> Engine {
        let mut engine = Engine::new(4);
        engine.execute(&[link(0, 1, 5), link(1, 2, 3), link(2, 3, 1)]);
        engine.execute(&[Op::Cut { id: EdgeId(2) }]);
        engine
    }

    fn plink(id: u32, u: u32, v: u32, cancelled: bool) -> PlannedUpdate {
        PlannedUpdate::Link {
            id: EdgeId(id),
            u: VertexId(u),
            v: VertexId(v),
            weight: Weight::new(4),
            cancelled,
        }
    }

    fn pcut(id: u32, cancelled: bool) -> PlannedUpdate {
        PlannedUpdate::Cut {
            id: EdgeId(id),
            cancelled,
        }
    }

    #[test]
    fn replay_refuses_link_ids_off_the_frontier() {
        let mut engine = replay_base();
        assert_replay_refused(&mut engine, vec![plink(4, 0, 2, false)]);
        assert_replay_refused(&mut engine, vec![plink(2, 0, 2, false)]);
        assert_replay_refused(
            &mut engine,
            vec![plink(3, 0, 2, false), plink(3, 2, 3, false)],
        );
    }

    #[test]
    fn replay_refuses_invalid_link_endpoints() {
        let mut engine = replay_base();
        assert_replay_refused(&mut engine, vec![plink(3, 0, 9, false)]);
        assert_replay_refused(&mut engine, vec![plink(3, 2, 2, false)]);
    }

    #[test]
    fn replay_refuses_cuts_of_edges_that_were_not_live() {
        let mut engine = replay_base();
        // Dead, never allocated, cut twice, born in the same record.
        assert_replay_refused(&mut engine, vec![pcut(2, false)]);
        assert_replay_refused(&mut engine, vec![pcut(77, false)]);
        assert_replay_refused(&mut engine, vec![pcut(0, false), pcut(0, false)]);
        assert_replay_refused(&mut engine, vec![plink(3, 0, 2, false), pcut(3, false)]);
    }

    #[test]
    fn replay_refuses_unpaired_cancellations() {
        let mut engine = replay_base();
        // A cancelled cut of a pre-record edge with no link to pair with
        // would leave the edge in the structure but not in the mirror.
        assert_replay_refused(&mut engine, vec![pcut(0, true)]);
        // A cancelled link whose cut never comes.
        assert_replay_refused(&mut engine, vec![plink(3, 0, 2, true)]);
        // The cut before its link, and a cancelled cut of a surviving link.
        assert_replay_refused(&mut engine, vec![pcut(3, true), plink(3, 0, 2, true)]);
        assert_replay_refused(&mut engine, vec![plink(3, 0, 2, false), pcut(3, true)]);
        // A cut before its link, and a pair cut twice.
        assert_replay_refused(
            &mut engine,
            vec![
                plink(3, 0, 2, true),
                pcut(4, true),
                plink(4, 1, 3, true),
                pcut(3, true),
            ],
        );
        assert_replay_refused(
            &mut engine,
            vec![plink(3, 0, 2, true), pcut(3, true), pcut(3, true)],
        );
        // The same record, paired properly, replays.
        let record = LoggedBatch {
            seq: engine.applied_seq() + 1,
            id_base: 3,
            updates: vec![plink(3, 0, 2, true), pcut(3, true)],
        };
        assert_eq!(
            engine
                .replay_logged(&record)
                .unwrap()
                .summary
                .cancelled_pairs,
            1
        );
        // Interleaved pairs replay too.
        let mut engine = replay_base();
        let record = LoggedBatch {
            seq: engine.applied_seq() + 1,
            id_base: 3,
            updates: vec![
                plink(3, 0, 2, true),
                plink(4, 1, 3, true),
                pcut(4, true),
                pcut(3, true),
            ],
        };
        let summary = engine.replay_logged(&record).unwrap().summary;
        assert_eq!(summary.cancelled_pairs, 2);
    }

    /// The single-field mutations of `record` over `n` vertices: each link
    /// with its id one off either way, its cancelled flag flipped, either
    /// endpoint set to `n`, or made a self-loop; each cut with its cancelled
    /// flag flipped, pointed at a never-allocated id, or duplicated.
    fn single_field_mutations(record: &LoggedBatch, n: u32) -> Vec<Vec<PlannedUpdate>> {
        let unallocated = EdgeId(record.id_base as u32 + record.updates.len() as u32);
        let mut mutations = Vec::new();
        for (i, &update) in record.updates.iter().enumerate() {
            let mut replaced = |changed: PlannedUpdate| {
                let mut updates = record.updates.clone();
                updates[i] = changed;
                mutations.push(updates);
            };
            match update {
                PlannedUpdate::Link {
                    id,
                    u,
                    v,
                    weight,
                    cancelled,
                } => {
                    let link = |id: u32, u: u32, v: u32, cancelled| PlannedUpdate::Link {
                        id: EdgeId(id),
                        u: VertexId(u),
                        v: VertexId(v),
                        weight,
                        cancelled,
                    };
                    replaced(link(id.0 + 1, u.0, v.0, cancelled));
                    replaced(link(id.0.wrapping_sub(1), u.0, v.0, cancelled));
                    replaced(link(id.0, u.0, v.0, !cancelled));
                    replaced(link(id.0, n, v.0, cancelled));
                    replaced(link(id.0, u.0, n, cancelled));
                    replaced(link(id.0, u.0, u.0, cancelled));
                }
                PlannedUpdate::Cut { id, cancelled } => {
                    replaced(PlannedUpdate::Cut {
                        id,
                        cancelled: !cancelled,
                    });
                    replaced(PlannedUpdate::Cut {
                        id: unallocated,
                        cancelled,
                    });
                    let mut duplicated = record.updates.clone();
                    duplicated.insert(i, update);
                    mutations.push(duplicated);
                }
            }
        }
        mutations
    }

    /// Records a live engine wrote over bursty batches with flap pairs
    /// replay into a twin that ends with the live forest and mirror, and
    /// before each record replays, every single-field mutation of it is
    /// refused with the twin untouched.
    #[test]
    fn replay_refuses_single_field_mutations_of_live_records() {
        use pdmsf_graph::{BatchKind, BatchStream, BatchStreamSpec, GraphSpec};
        let n = 24;
        let mut cancelled_pairs = 0;
        for seed in 0..6 {
            let stream = BatchStream::generate(&BatchStreamSpec {
                base: GraphSpec::RandomSparse { n, m: 40, seed },
                batches: 12,
                batch_size: 16,
                kind: BatchKind::Bursty {
                    query_permille: 200,
                    flap_permille: 300,
                },
                seed,
            });
            let log = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
            let mut live = Engine::with_chunk_parameter(n, 3);
            live.set_sink(Box::new(VecSink(log.clone())));
            live.execute(&stream.base_ops());
            for batch in &stream.batches {
                live.execute(batch);
            }
            let mut twin = Engine::with_chunk_parameter(n, 3);
            for record in log.lock().unwrap().iter() {
                for updates in single_field_mutations(record, n as u32) {
                    assert_replay_refused(&mut twin, updates);
                }
                let replayed = twin.replay_logged(record).unwrap();
                cancelled_pairs += replayed.summary.cancelled_pairs;
            }
            assert_eq!(twin.applied_seq(), live.applied_seq());
            assert_eq!(twin.forest_edges(), live.forest_edges());
            assert_eq!(twin.graph().to_image(), live.graph().to_image());
        }
        assert!(cancelled_pairs > 0, "no record held a cancelled pair");
    }

    #[test]
    fn restored_parts_rebuild_the_structure_from_the_mirror() {
        let mut engine = Engine::with_chunk_parameter(6, 2);
        engine.execute(&[
            link(0, 1, 2),
            link(1, 2, 5),
            link(0, 2, 1),
            Op::Cut { id: EdgeId(0) },
        ]);
        let graph = pdmsf_graph::DynGraph::from_image(&engine.graph().to_image()).unwrap();
        let mut restored =
            Engine::from_restored_parts(graph, 2, engine.stats(), engine.applied_seq());
        restored.structure().validate();
        assert_eq!(restored.structure().chunk_parameter(), 2);
        assert_eq!(restored.forest_edges(), engine.forest_edges());
        assert_eq!(restored.forest_weight(), engine.forest_weight());
        assert_eq!(restored.applied_seq(), engine.applied_seq());
        assert_eq!(restored.stats(), engine.stats());
        // The restored engine goes on like the original, ids included.
        let ops = [
            link(3, 4, 7),
            Op::Cut { id: EdgeId(2) },
            link(2, 3, 1),
            qconn(0, 4),
        ];
        assert_eq!(
            restored.execute(&ops).outcomes,
            engine.execute(&ops).outcomes
        );
        assert_eq!(restored.forest_edges(), engine.forest_edges());
        restored.structure().validate();
    }

    #[test]
    fn empty_and_query_only_batches_work() {
        let mut engine = Engine::new(3);
        let r = engine.execute(&[]);
        assert!(r.outcomes.is_empty());
        let r = engine.execute(&[Op::QueryForestWeight, qconn(0, 2)]);
        assert_eq!(r.outcomes[0], Outcome::ForestWeight { weight: 0 });
        assert_eq!(r.outcomes[1], Outcome::Connected { connected: false });
    }
}
