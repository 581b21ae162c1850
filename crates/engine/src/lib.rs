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
//!    (the batch's snapshot point). The engine captures the forest once
//!    into flat component labels ([`QuerySnapshot`]) and answers each
//!    connectivity query with two array loads, instead of paying a
//!    `&mut`-self link-cut tree walk per query. Large query sets fan out
//!    across the worker pool of `pdmsf_pram::pool` — possible while other
//!    submitters run their own jobs, because the pool queues multiple jobs.
//! 3. **Deduplication** — repeated questions (the common case in serving
//!    traffic) collapse to one computed answer; duplicate deletes and other
//!    invalid operations are rejected up front with a per-op
//!    [`Outcome::Rejected`] instead of panicking mid-batch.
//! 4. **Intra-batch update parallelism** (partitioned engines,
//!    [`Engine::new_partitioned`]) — the surviving updates are colored into
//!    conflict-free groups (a union-find over the home partitions of each
//!    update's endpoints; see `group.rs`) and the groups apply as
//!    concurrent pool jobs against a
//!    [`pdmsf_core::ComponentPartitionedMsf`], serial in arrival order
//!    *inside* each group. A batch that yields a single group, or a pool of
//!    width 1, falls back to the inline serial loop.
//!
//! ## The apply path
//!
//! [`Engine::execute_planned`] applies a planned batch in four strict
//! phases, and the first two are what make apply-order flexibility safe:
//!
//! 1. **Write-ahead log.** The [`LoggedBatch`] is serialized from the
//!    *plan* — before any update applies — so the WAL byte stream is a
//!    pure function of the plan and can never observe (or depend on) the
//!    apply order chosen below.
//! 2. **Resolve + mirror.** For partitioned engines, each surviving cut
//!    resolves one current endpoint of its edge from the [`DynGraph`]
//!    mirror (valid because a surviving cut always targets a pre-batch
//!    edge — the planner cancels every cut of an in-batch link). Then the
//!    mirror pass runs serially in arrival order: id allocation is
//!    push-order-dependent and stays identical across all apply paths.
//! 3. **Apply.** Single-structure engines run the serial arrival-order
//!    loop. Partitioned engines color the resolved updates into groups and
//!    call [`pdmsf_core::ComponentPartitionedMsf::apply_groups`]; the
//!    per-partition operation sequences are the same as the serial loop's
//!    (groups own disjoint partition classes, closed under migration), so
//!    outcomes, forest state and even the structures' internal bytes are
//!    bit-for-bit identical — pinned by the lockstep proptests and the WAL
//!    byte-identity test in `pdmsf-persist`.
//! 4. **Answer queries** at the post-update snapshot point, exactly as
//!    before.
//!
//! ## Semantics
//!
//! A batch is **observationally identical** to the following serial
//! execution, which [`Engine::execute_one_by_one`] implements literally and
//! the lockstep proptest checks against `SeqDynamicMsf` and a Kruskal
//! recompute: apply the batch's updates one at a time in arrival order
//! (validating each against the current edge set), then answer the batch's
//! queries in arrival order against the resulting forest. Rejected
//! operations consume no edge id and have no effect. The per-op
//! [`Outcome`]s of the two paths are equal, as are the resulting forests.
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

use pdmsf_core::seq::default_sequential_k;
use pdmsf_core::{ComponentPartitionedMsf, ParDynamicMsf};
use pdmsf_graph::{DynGraph, DynamicMsf, Edge, EdgeId, MsfDelta, VertexId, Weight};
use pdmsf_obs as obs;
use pdmsf_obs::{PhaseTimer, Span};
use std::io;
use std::sync::Arc;

mod group;
mod plan;
pub mod snapshot;

pub use pdmsf_graph::BatchOp as Op;
pub use snapshot::QuerySnapshot;

use plan::{PlannedQuery, PlannedUpdate};

/// One update of a logged batch — the post-planning form of a mutation, with
/// its pre-assigned edge id and cancellation flag. Replaying the logged
/// updates through [`Engine::replay_logged`] reproduces exactly the state
/// transitions of the original [`Engine::execute_planned`] call: cancelled
/// links still consume their id in the [`DynGraph`] mirror, cancelled cuts
/// still free theirs, and only the surviving updates touch the structure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LoggedUpdate {
    /// Insert `id = (u, v, weight)`.
    Link {
        /// The pre-assigned edge id.
        id: EdgeId,
        /// First endpoint.
        u: VertexId,
        /// Second endpoint.
        v: VertexId,
        /// Weight.
        weight: Weight,
        /// Elided from the structure by an in-batch opposing cut.
        cancelled: bool,
    },
    /// Delete edge `id`.
    Cut {
        /// The edge to delete.
        id: EdgeId,
        /// The opposing link arrived earlier in the same batch.
        cancelled: bool,
    },
}

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
    pub updates: Vec<LoggedUpdate>,
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

    /// Every reject reason, in [`Reject::metric_index`] order.
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
    /// Opposing link/cut pairs elided from the structure (batched path
    /// only; the one-by-one path applies them and reports 0).
    pub cancelled_pairs: usize,
    /// Operations rejected by validation.
    pub rejected: usize,
    /// Query operations.
    pub queries: usize,
    /// Distinct answers computed for those queries (batched path; the
    /// one-by-one path computes every answer and reports `queries`).
    pub unique_queries: usize,
    /// Conflict-free update groups the batch was colored into (partitioned
    /// grouped-apply path only; 0 on single-structure engines, on the
    /// forced-serial path and on the one-by-one path).
    pub update_groups: usize,
    /// Surviving updates that shared a group with an earlier update
    /// (`applied_updates - update_groups` when grouping ran) — the
    /// conflicts that bounded the batch's apply fan-out.
    pub group_conflicts: usize,
    /// Component migrations this batch triggered (cross-partition links
    /// plus post-batch rebalance moves; partitioned engines only).
    pub migrations: u64,
    /// Vertices re-homed by those migrations.
    pub migrated_vertices: u64,
    /// Rebalance passes after this batch that moved at least one component
    /// (see `ComponentPartitionedMsf::maybe_rebalance`; 0 or 1).
    pub rebalances: u64,
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
    /// Batches executed (either path).
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
    /// Query snapshots captured.
    pub snapshots: u64,
    /// Conflict-free update groups formed by the partitioned grouped-apply
    /// path (its real fan-out; see [`BatchSummary::update_groups`]).
    pub update_groups: u64,
    /// Surviving updates that shared a group with an earlier update.
    pub group_conflicts: u64,
    /// Component migrations (cross-partition links + rebalance moves).
    pub migrations: u64,
    /// Vertices re-homed by those migrations.
    pub migrated_vertices: u64,
    /// Rebalance passes that moved at least one component.
    pub rebalances: u64,
}

/// Minimum unique queries before a snapshot is ever considered.
const SNAPSHOT_MIN_QUERIES: usize = 8;

/// A snapshot capture walks all `n` vertices; one structure query walks a
/// (splaying) tree path, which costs roughly this many vertex-label visits.
/// The engine captures a snapshot only when
/// `unique_queries * SNAPSHOT_AMORTIZE >= n`, i.e. when the `O(n)` capture
/// is amortized by the per-query savings; below that it answers through the
/// structure directly.
const SNAPSHOT_AMORTIZE: usize = 32;

/// Validate a `Link`'s endpoints against a structure of `n` vertices. The
/// single source of the link validation rules — shared by the batched
/// planner and the one-by-one path so the two can never desynchronize.
pub(crate) fn link_reject(n: usize, u: VertexId, v: VertexId) -> Option<Reject> {
    if u.index() >= n || v.index() >= n {
        Some(Reject::EndpointOutOfRange)
    } else if u == v {
        Some(Reject::SelfLoop)
    } else {
        None
    }
}

/// Validate a `QueryConnected`'s endpoints (shared like [`link_reject`]).
pub(crate) fn query_reject(n: usize, u: VertexId, v: VertexId) -> Option<Reject> {
    if u.index() >= n || v.index() >= n {
        Some(Reject::EndpointOutOfRange)
    } else {
        None
    }
}

/// A batch planned by [`Engine::plan_batch`], awaiting application through
/// [`Engine::execute_planned`]. Opaque: it carries pre-assigned edge ids,
/// the cancellation/dedup decisions and the provisional per-op outcomes.
///
/// Planning borrows the engine immutably, so a serving layer can plan the
/// sub-batches of many shard engines back to back on the caller thread and
/// then apply them concurrently (one pool job per shard) — the pattern the
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

/// The MSF structure behind an engine: one monolithic [`ParDynamicMsf`],
/// or the component-partitioned structure that unlocks grouped concurrent
/// apply. Observable behaviour is identical; only the apply path differs.
enum EngineStructure {
    Single(Box<ParDynamicMsf>),
    Partitioned(ComponentPartitionedMsf),
}

impl EngineStructure {
    /// Delete with a partition hint: `endpoint` must be a current endpoint
    /// of the edge (resolved from the mirror before it was deleted there).
    fn delete_hinted(&mut self, id: EdgeId, endpoint: VertexId) -> MsfDelta {
        match self {
            EngineStructure::Single(m) => m.delete(id),
            EngineStructure::Partitioned(p) => p.delete_hinted(id, endpoint),
        }
    }
}

impl DynamicMsf for EngineStructure {
    fn num_vertices(&self) -> usize {
        match self {
            EngineStructure::Single(m) => m.num_vertices(),
            EngineStructure::Partitioned(p) => p.num_vertices(),
        }
    }

    fn add_vertex(&mut self) -> VertexId {
        match self {
            EngineStructure::Single(m) => m.add_vertex(),
            EngineStructure::Partitioned(p) => p.add_vertex(),
        }
    }

    fn insert(&mut self, e: Edge) -> MsfDelta {
        match self {
            EngineStructure::Single(m) => m.insert(e),
            EngineStructure::Partitioned(p) => p.insert(e),
        }
    }

    fn delete(&mut self, id: EdgeId) -> MsfDelta {
        match self {
            EngineStructure::Single(m) => m.delete(id),
            EngineStructure::Partitioned(p) => p.delete(id),
        }
    }

    fn contains_edge(&self, id: EdgeId) -> bool {
        match self {
            EngineStructure::Single(m) => m.contains_edge(id),
            EngineStructure::Partitioned(p) => p.contains_edge(id),
        }
    }

    fn is_forest_edge(&self, id: EdgeId) -> bool {
        match self {
            EngineStructure::Single(m) => m.is_forest_edge(id),
            EngineStructure::Partitioned(p) => p.is_forest_edge(id),
        }
    }

    fn forest_edges(&self) -> Vec<EdgeId> {
        match self {
            EngineStructure::Single(m) => m.forest_edges(),
            EngineStructure::Partitioned(p) => p.forest_edges(),
        }
    }

    fn forest_weight(&self) -> i128 {
        match self {
            EngineStructure::Single(m) => m.forest_weight(),
            EngineStructure::Partitioned(p) => p.forest_weight(),
        }
    }

    fn num_forest_edges(&self) -> usize {
        match self {
            EngineStructure::Single(m) => m.num_forest_edges(),
            EngineStructure::Partitioned(p) => p.num_forest_edges(),
        }
    }

    fn connected(&mut self, u: VertexId, v: VertexId) -> bool {
        match self {
            EngineStructure::Single(m) => m.connected(u, v),
            EngineStructure::Partitioned(p) => p.connected(u, v),
        }
    }

    fn name(&self) -> &'static str {
        match self {
            EngineStructure::Single(m) => m.name(),
            EngineStructure::Partitioned(p) => p.name(),
        }
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
    coloring_ns: Arc<obs::Histogram>,
    batches: Arc<obs::Counter>,
    ops: Arc<obs::Counter>,
    updates_applied: Arc<obs::Counter>,
    pairs_cancelled: Arc<obs::Counter>,
    /// One series per [`Reject`] reason, indexed by
    /// [`Reject::metric_index`] — the family is split by a `reason` label
    /// so a scrape attributes rejects without a log dive.
    ops_rejected: [Arc<obs::Counter>; Reject::ALL.len()],
    queries: Arc<obs::Counter>,
    snapshots: Arc<obs::Counter>,
    update_groups: Arc<obs::Counter>,
    group_conflicts: Arc<obs::Counter>,
    migrations: Arc<obs::Counter>,
    migrated_vertices: Arc<obs::Counter>,
    rebalances: Arc<obs::Counter>,
}

impl EngineMetrics {
    fn resolve() -> EngineMetrics {
        let r = obs::global();
        EngineMetrics {
            plan_ns: r.histogram("pdmsf_engine_plan_ns", "batch planning phase latency"),
            apply_ns: r.histogram("pdmsf_engine_apply_ns", "batch update-apply phase latency"),
            snapshot_ns: r.histogram(
                "pdmsf_engine_snapshot_ns",
                "query-snapshot capture + answering latency",
            ),
            coloring_ns: r.histogram(
                "pdmsf_engine_group_coloring_ns",
                "conflict-coloring latency of the grouped apply path",
            ),
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
            snapshots: r.counter("pdmsf_engine_snapshots_total", "query snapshots captured"),
            update_groups: r.counter(
                "pdmsf_engine_update_groups_total",
                "conflict-free update groups dispatched",
            ),
            group_conflicts: r.counter(
                "pdmsf_engine_group_conflicts_total",
                "surviving updates that shared an update group",
            ),
            migrations: r.counter(
                "pdmsf_engine_migrations_total",
                "component migrations (cross-partition links + rebalance moves)",
            ),
            migrated_vertices: r.counter(
                "pdmsf_engine_migrated_vertices_total",
                "vertices re-homed by component migrations",
            ),
            rebalances: r.counter(
                "pdmsf_engine_rebalances_total",
                "post-batch rebalance passes that moved a component",
            ),
        }
    }
}

/// The batched update/query engine. Owns the id-allocating [`DynGraph`]
/// mirror and the MSF structure; see the crate docs for semantics.
pub struct Engine {
    graph: DynGraph,
    msf: EngineStructure,
    stats: EngineStats,
    /// Sequence number of the last state-mutating batch applied.
    applied_seq: u64,
    /// Optional write-ahead op log; see [`OpSink`].
    sink: Option<Box<dyn OpSink>>,
    /// Force the arrival-order serial apply loop even on a partitioned
    /// engine (the E6 baseline arm and the identity tests).
    serial_apply: bool,
    /// Run the adaptive partition rebalance pass after every mutating
    /// batch (partitioned engines; on by default). Note this is *not* tied
    /// to `serial_apply`: grouped and forced-serial arms must rebalance
    /// identically for their per-vertex homes to stay comparable.
    rebalance: bool,
    /// Optional registry-backed instrumentation ([`Engine::enable_metrics`]);
    /// `None` keeps every phase timer a near-no-op.
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
    /// parallel structure at the sequential chunk parameter
    /// `K = sqrt(n log n)` ([`default_sequential_k`]). Every kernel runs on
    /// the calling thread: on a machine without `sqrt n` processors the
    /// paper's sequential trade-off is the faster one (about 1.5x per
    /// update at 32 768 vertices against `K = sqrt n`).
    pub fn new(n: usize) -> Engine {
        Engine::with_chunk_parameter(n, default_sequential_k(n))
    }

    /// [`Engine::new`] with an explicit chunk parameter (tests and
    /// ablations).
    pub fn with_chunk_parameter(n: usize, k: usize) -> Engine {
        Engine::with_structure(
            n,
            EngineStructure::Single(Box::new(ParDynamicMsf::with_chunk_parameter(n, k))),
        )
    }

    /// An engine backed by the component-partitioned structure with
    /// `num_parts` partitions, each at the same `K` as [`Engine::new`]:
    /// batches apply their surviving updates as concurrent conflict-free
    /// groups (see the crate docs). Observable behaviour is identical to
    /// [`Engine::new`].
    pub fn new_partitioned(n: usize, num_parts: usize) -> Engine {
        Engine::with_partitioned_chunk_parameter(n, num_parts, default_sequential_k(n))
    }

    /// [`Engine::new_partitioned`] with an explicit chunk parameter
    /// (deterministic tests).
    pub fn with_partitioned_chunk_parameter(n: usize, num_parts: usize, k: usize) -> Engine {
        Engine::with_structure(
            n,
            EngineStructure::Partitioned(ComponentPartitionedMsf::with_chunk_parameter(
                n, num_parts, k,
            )),
        )
    }

    fn with_structure(n: usize, msf: EngineStructure) -> Engine {
        Engine {
            graph: DynGraph::new(n),
            msf,
            stats: EngineStats::default(),
            applied_seq: 0,
            sink: None,
            serial_apply: false,
            rebalance: true,
            metrics: None,
        }
    }

    /// Turn on registry-backed instrumentation: per-batch
    /// plan/apply/snapshot/group-coloring phase timings and operation
    /// counters, recorded into the `pdmsf_engine_*` families of the
    /// process-wide [`pdmsf_obs::global`] registry. Off by default — an
    /// uninstrumented engine pays one `Option` branch per phase and never
    /// reads the clock (the `obs_overhead` bench pins the instrumented
    /// regression under 2%).
    pub fn enable_metrics(&mut self) {
        self.metrics = Some(EngineMetrics::resolve());
    }

    /// Force the arrival-order serial apply loop even on a partitioned
    /// engine. The resulting state is bit-for-bit identical to grouped
    /// apply — this switch exists so the E6 experiment and the identity
    /// tests can measure/verify exactly that.
    pub fn set_serial_apply(&mut self, serial: bool) {
        self.serial_apply = serial;
    }

    /// Turn the post-batch adaptive rebalance pass off (or back on). On by
    /// default for partitioned engines; re-homing never changes outcomes,
    /// forests or WAL bytes, only where components live. The E6 "static
    /// partitioning" arm measures with it off.
    pub fn set_rebalance(&mut self, on: bool) {
        self.rebalance = on;
    }

    /// Lower the partitioned structure's rebalance occupancy floor (see
    /// [`pdmsf_core::ComponentPartitionedMsf::set_rebalance_min`]); no-op
    /// on single-structure engines. Tests use this to force rebalances on
    /// tiny graphs.
    pub fn set_rebalance_min(&mut self, min: u64) {
        if let EngineStructure::Partitioned(p) = &mut self.msf {
            p.set_rebalance_min(min);
        }
    }

    /// Assemble an engine from restored parts (the checkpoint/restore path
    /// of `pdmsf-persist`). The mirror and the structure are cross-validated
    /// edge by edge — same liveness, endpoints and weight for every id below
    /// the allocation frontier — so a checkpoint whose sections passed their
    /// CRCs individually but disagree with each other is still refused.
    ///
    /// The engine keeps the structure's checkpointed chunk parameter `K`,
    /// even where it differs from what [`Engine::new`] would pick today
    /// (checkpoints written when engines served at `K = sqrt n` restore at
    /// that `K`); re-chunking would change the structure's bytes.
    pub fn from_restored_parts(
        graph: DynGraph,
        msf: ParDynamicMsf,
        stats: EngineStats,
        applied_seq: u64,
    ) -> Result<Engine, String> {
        if graph.num_vertices() != msf.num_vertices() {
            return Err(format!(
                "restored mirror has {} vertices but the structure has {}",
                graph.num_vertices(),
                msf.num_vertices()
            ));
        }
        for raw in 0..graph.edge_id_bound() as u32 {
            let id = EdgeId(raw);
            match (graph.is_live(id), msf.contains_edge(id)) {
                (true, false) => {
                    return Err(format!(
                        "edge {raw} is live in the mirror, absent in the msf"
                    ));
                }
                (false, true) => {
                    return Err(format!(
                        "edge {raw} is live in the msf, absent in the mirror"
                    ));
                }
                (true, true) => {
                    let g = graph.edge_unchecked(id);
                    let m = msf
                        .forest()
                        .edge(id)
                        .ok_or_else(|| format!("edge {raw} lost its record in the msf store"))?;
                    if (g.u, g.v, g.weight) != (m.u, m.v, m.weight) {
                        return Err(format!("edge {raw} differs between mirror and msf"));
                    }
                }
                (false, false) => {}
            }
        }
        Ok(Engine {
            graph,
            msf: EngineStructure::Single(Box::new(msf)),
            stats,
            applied_seq,
            sink: None,
            serial_apply: false,
            rebalance: true,
            metrics: None,
        })
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

    /// The backing MSF structure of a single-structure engine.
    ///
    /// # Panics
    ///
    /// Panics on a partitioned engine ([`Engine::new_partitioned`]) — use
    /// [`Engine::partitioned_structure`] there. Checkpointing, which
    /// flattens this structure, is not yet supported for partitioned
    /// engines.
    pub fn structure(&self) -> &ParDynamicMsf {
        match &self.msf {
            EngineStructure::Single(m) => m,
            EngineStructure::Partitioned(_) => {
                panic!("structure(): engine is component-partitioned; use partitioned_structure()")
            }
        }
    }

    /// The backing component-partitioned structure, if this engine was
    /// built with [`Engine::new_partitioned`].
    pub fn partitioned_structure(&self) -> Option<&ComponentPartitionedMsf> {
        match &self.msf {
            EngineStructure::Single(_) => None,
            EngineStructure::Partitioned(p) => Some(p),
        }
    }

    /// Whether this engine uses the component-partitioned structure.
    pub fn is_partitioned(&self) -> bool {
        matches!(self.msf, EngineStructure::Partitioned(_))
    }

    /// Validate the backing structure's internal invariants (test helper;
    /// works for both structure kinds).
    pub fn validate_structure(&self) {
        match &self.msf {
            EngineStructure::Single(m) => m.validate(),
            EngineStructure::Partitioned(p) => p.validate(),
        }
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
        for id in self.msf.forest_edges() {
            let e = self.graph.edge_unchecked(id);
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
    /// the snapshot point — via a [`QuerySnapshot`] fanned out over the
    /// worker pool when the batch carries enough distinct queries.
    ///
    /// Equivalent to [`Engine::plan_batch`] followed by
    /// [`Engine::execute_planned`]; the split form lets a serving layer
    /// plan many shard batches on the caller thread and apply them
    /// concurrently on pool workers.
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
        let timer = PhaseTimer::start(self.metrics.as_ref().map(|m| &*m.plan_ns));
        // Trace against the ambient batch id (set by the sharded service
        // on its submitting thread, or by any caller via `trace::scope`).
        let tspan = obs::trace::TSpan::start(obs::trace::Phase::Plan, ops.len() as u64, 0);
        let plan = plan::plan(&self.graph, ops);
        tspan.stop();
        timer.stop();
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
    /// shard engine per pool job.
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
                let logged = LoggedBatch {
                    seq,
                    id_base: id_base as u64,
                    updates: plan
                        .updates
                        .iter()
                        .map(|u| match *u {
                            PlannedUpdate::Link {
                                id,
                                u,
                                v,
                                weight,
                                cancelled,
                            } => LoggedUpdate::Link {
                                id,
                                u,
                                v,
                                weight,
                                cancelled,
                            },
                            PlannedUpdate::Cut { id, cancelled } => {
                                LoggedUpdate::Cut { id, cancelled }
                            }
                        })
                        .collect(),
                };
                sink.record(seq, &logged)
                    .expect("op-log write failed; refusing to apply an unlogged batch");
            }
            self.applied_seq = seq;
        }
        // Owned spans (Arc clones), not borrowed timers: the timed phases
        // need `&mut self` while a borrowed guard would pin `&self.metrics`.
        let pstats_before = self.partition_stats_snapshot();
        let apply_span = Span::start(self.metrics.as_ref().map(|m| m.apply_ns.clone()));
        let apply_tspan =
            obs::trace::TSpan::start(obs::trace::Phase::Apply, plan.updates.len() as u64, 0);
        let (applied, update_groups, group_conflicts) = self.apply_updates(&plan.updates);
        apply_tspan.stop();
        apply_span.stop();
        // The deterministic between-batch point: with every group retired
        // and no query snapshot taken yet, spread concentrated state back
        // across partitions. Gated on a mutating batch so replay — which
        // only sees logged (mutating) batches — re-runs the identical
        // sequence of rebalance decisions. Runs under `serial_apply` too:
        // grouped and forced-serial arms must keep identical homes.
        if self.rebalance && !plan.updates.is_empty() {
            if let EngineStructure::Partitioned(p) = &mut self.msf {
                p.maybe_rebalance();
            }
        }
        let pstats = self.partition_stats_snapshot();

        if !plan.unique_queries.is_empty() {
            let unique = plan.unique_queries.len();
            let snapshot_pays = unique >= SNAPSHOT_MIN_QUERIES
                && unique * SNAPSHOT_AMORTIZE >= self.graph.num_vertices();
            let snapshot_span = Span::start(
                self.metrics
                    .as_ref()
                    .filter(|_| snapshot_pays)
                    .map(|m| m.snapshot_ns.clone()),
            );
            let snapshot_tspan = obs::trace::TSpan::start(
                obs::trace::Phase::Snapshot,
                unique as u64,
                snapshot_pays as u64,
            );
            let answers: Vec<Outcome> = if !snapshot_pays {
                // Small query sets: a snapshot's O(n) capture would dominate.
                plan.unique_queries
                    .iter()
                    .map(|q| self.answer_through_structure(q))
                    .collect()
            } else {
                self.stats.snapshots += 1;
                if let Some(m) = &self.metrics {
                    m.snapshots.inc();
                }
                let snap = QuerySnapshot::capture(&self.graph, &self.msf);
                snapshot::answer_queries(&snap, &plan.unique_queries)
            };
            snapshot_tspan.stop();
            snapshot_span.stop();
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
            update_groups,
            group_conflicts,
            migrations: pstats.migrations - pstats_before.migrations,
            migrated_vertices: pstats.migrated_vertices - pstats_before.migrated_vertices,
            rebalances: pstats.rebalances - pstats_before.rebalances,
        };
        self.bump_stats(&summary);
        self.stats.cancelled_pairs += summary.cancelled_pairs as u64;
        self.stats.deduped_queries += (summary.queries - summary.unique_queries) as u64;
        if let Some(m) = &self.metrics {
            m.batches.inc();
            m.ops.add(summary.ops as u64);
            m.updates_applied.add(summary.applied_updates as u64);
            m.pairs_cancelled.add(summary.cancelled_pairs as u64);
            if summary.rejected > 0 {
                // Attribute each reject to its reason series; rejected
                // outcome slots are final (query backfill above only
                // touches accepted query slots).
                for outcome in &plan.outcomes {
                    if let Outcome::Rejected { reason } = outcome {
                        m.ops_rejected[reason.metric_index()].inc();
                    }
                }
            }
            m.queries.add(summary.queries as u64);
            m.update_groups.add(summary.update_groups as u64);
            m.group_conflicts.add(summary.group_conflicts as u64);
            m.migrations.add(summary.migrations);
            m.migrated_vertices.add(summary.migrated_vertices);
            m.rebalances.add(summary.rebalances);
        }
        BatchResult {
            outcomes: plan.outcomes,
            summary,
        }
    }

    /// Apply a plan's updates: mirror pass (always serial, arrival order —
    /// id allocation is push-order-dependent) plus the structural pass,
    /// grouped on partitioned engines and serial otherwise. Returns
    /// `(applied, update_groups, group_conflicts)`.
    fn apply_updates(&mut self, updates: &[PlannedUpdate]) -> (usize, usize, usize) {
        let grouped = self.is_partitioned() && !self.serial_apply;
        if grouped {
            // Resolve each surviving cut's endpoint *before* the mirror
            // pass deletes the edge there (see the crate docs).
            let resolved = group::resolve_surviving(&self.graph, updates);
            let mirror_tspan =
                obs::trace::TSpan::start(obs::trace::Phase::Mirror, updates.len() as u64, 0);
            self.mirror_pass(updates);
            mirror_tspan.stop();
            let coloring_span = Span::start(self.metrics.as_ref().map(|m| m.coloring_ns.clone()));
            let group_tspan =
                obs::trace::TSpan::start(obs::trace::Phase::Group, resolved.len() as u64, 0);
            let EngineStructure::Partitioned(p) = &mut self.msf else {
                unreachable!("is_partitioned() held above");
            };
            let groups = group::color_groups(p, &resolved);
            group_tspan.stop();
            coloring_span.stop();
            let update_groups = groups.len();
            let group_conflicts = resolved.len() - update_groups;
            p.apply_groups(&groups);
            return (resolved.len(), update_groups, group_conflicts);
        }
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
                    let got = self.graph.insert_edge(u, v, weight);
                    debug_assert_eq!(got, id, "plan id allocation diverged from the mirror");
                    if !cancelled {
                        self.msf.insert(self.graph.edge_unchecked(id));
                        applied += 1;
                    }
                }
                PlannedUpdate::Cut { id, cancelled } => {
                    // Resolve the endpoint hint before the mirror forgets
                    // the edge (surviving cuts always target a live edge).
                    let endpoint = (!cancelled).then(|| self.graph.edge_unchecked(id).u);
                    self.graph.delete_edge(id);
                    if let Some(endpoint) = endpoint {
                        self.msf.delete_hinted(id, endpoint);
                        applied += 1;
                    }
                }
            }
        }
        (applied, 0, 0)
    }

    /// The serial mirror pass of the grouped apply path: identical id
    /// allocation and liveness transitions to the serial loop.
    fn mirror_pass(&mut self, updates: &[PlannedUpdate]) {
        for update in updates {
            match *update {
                PlannedUpdate::Link {
                    id, u, v, weight, ..
                } => {
                    let got = self.graph.insert_edge(u, v, weight);
                    debug_assert_eq!(got, id, "plan id allocation diverged from the mirror");
                }
                PlannedUpdate::Cut { id, .. } => {
                    self.graph.delete_edge(id);
                }
            }
        }
    }

    /// Re-apply one logged batch during recovery. Validates that the record
    /// is the *next* batch for this engine (`seq == applied_seq + 1`) and
    /// that it was planned against exactly this id-allocation frontier, then
    /// routes the updates through the normal [`Engine::execute_planned`]
    /// path — replay exercises the same application code as live traffic.
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
        let mut updates = Vec::with_capacity(batch.updates.len());
        let mut outcomes = Vec::with_capacity(batch.updates.len());
        let mut cancelled_cuts = 0usize;
        for u in &batch.updates {
            match *u {
                LoggedUpdate::Link {
                    id,
                    u,
                    v,
                    weight,
                    cancelled,
                } => {
                    updates.push(PlannedUpdate::Link {
                        id,
                        u,
                        v,
                        weight,
                        cancelled,
                    });
                    outcomes.push(Outcome::Linked { id });
                }
                LoggedUpdate::Cut { id, cancelled } => {
                    if cancelled {
                        cancelled_cuts += 1;
                    }
                    updates.push(PlannedUpdate::Cut { id, cancelled });
                    outcomes.push(Outcome::Cut { id });
                }
            }
        }
        let ops = updates.len();
        let planned = PlannedBatch {
            plan: plan::BatchPlan {
                updates,
                unique_queries: Vec::new(),
                query_refs: Vec::new(),
                outcomes,
                cancelled_pairs: cancelled_cuts,
                rejected: 0,
            },
            ops,
            id_base: batch.id_base as usize,
        };
        let saved = self.sink.take();
        let result = self.execute_planned(planned);
        self.sink = saved;
        Ok(result)
    }

    /// Execute one batch with **no** batch leverage: every valid update is
    /// applied to the structure in arrival order (cancelled pairs
    /// included), and every query is answered individually through the
    /// structure at the batch's snapshot point. Same outcomes as
    /// [`Engine::execute`]; this is the baseline the `E1` batch-throughput
    /// experiment measures against.
    pub fn execute_one_by_one(&mut self, ops: &[Op]) -> BatchResult {
        // The serial baseline bypasses planning, so it has no `LoggedBatch`
        // to record — running it with a write-ahead sink attached would
        // silently punch unlogged mutations into a supposedly durable
        // engine. Refuse loudly instead.
        assert!(
            self.sink.is_none(),
            "execute_one_by_one bypasses the op log; detach the sink or use execute"
        );
        let n = self.graph.num_vertices();
        let mut outcomes = Vec::with_capacity(ops.len());
        let mut deferred_queries: Vec<(usize, PlannedQuery)> = Vec::new();
        let mut applied = 0usize;
        let mut rejected = 0usize;
        for (i, op) in ops.iter().enumerate() {
            let outcome = match *op {
                Op::Link { u, v, weight } => {
                    if let Some(reason) = link_reject(n, u, v) {
                        rejected += 1;
                        Outcome::Rejected { reason }
                    } else {
                        let id = self.graph.insert_edge(u, v, weight);
                        self.msf.insert(self.graph.edge_unchecked(id));
                        applied += 1;
                        Outcome::Linked { id }
                    }
                }
                Op::Cut { id } => {
                    if !self.graph.is_live(id) {
                        rejected += 1;
                        Outcome::Rejected {
                            reason: Reject::UnknownOrDeadEdge,
                        }
                    } else {
                        let endpoint = self.graph.edge_unchecked(id).u;
                        self.graph.delete_edge(id);
                        self.msf.delete_hinted(id, endpoint);
                        applied += 1;
                        Outcome::Cut { id }
                    }
                }
                Op::QueryConnected { u, v } => {
                    if let Some(reason) = query_reject(n, u, v) {
                        rejected += 1;
                        Outcome::Rejected { reason }
                    } else {
                        deferred_queries.push((i, PlannedQuery::Connected { u, v }));
                        Outcome::Connected { connected: false }
                    }
                }
                Op::QueryForestWeight => {
                    deferred_queries.push((i, PlannedQuery::ForestWeight));
                    Outcome::ForestWeight { weight: 0 }
                }
            };
            outcomes.push(outcome);
        }
        if applied > 0 {
            self.applied_seq += 1;
        }
        let queries = deferred_queries.len();
        for (i, q) in deferred_queries {
            outcomes[i] = self.answer_through_structure(&q);
        }
        let summary = BatchSummary {
            ops: ops.len(),
            applied_updates: applied,
            cancelled_pairs: 0,
            rejected,
            queries,
            unique_queries: queries,
            update_groups: 0,
            group_conflicts: 0,
            migrations: 0,
            migrated_vertices: 0,
            rebalances: 0,
        };
        self.bump_stats(&summary);
        BatchResult { outcomes, summary }
    }

    fn answer_through_structure(&mut self, q: &PlannedQuery) -> Outcome {
        match *q {
            PlannedQuery::Connected { u, v } => Outcome::Connected {
                connected: self.msf.connected(u, v),
            },
            PlannedQuery::ForestWeight => Outcome::ForestWeight {
                weight: self.msf.forest_weight(),
            },
        }
    }

    fn bump_stats(&mut self, summary: &BatchSummary) {
        self.stats.batches += 1;
        self.stats.ops += summary.ops as u64;
        self.stats.applied_updates += summary.applied_updates as u64;
        self.stats.rejected += summary.rejected as u64;
        self.stats.queries += summary.queries as u64;
        self.stats.update_groups += summary.update_groups as u64;
        self.stats.group_conflicts += summary.group_conflicts as u64;
        self.stats.migrations += summary.migrations;
        self.stats.migrated_vertices += summary.migrated_vertices;
        self.stats.rebalances += summary.rebalances;
    }

    /// The partitioned structure's migration counters (zeros on a
    /// single-structure engine) — the before/after pair around a batch
    /// yields the per-batch deltas stamped into [`BatchSummary`].
    fn partition_stats_snapshot(&self) -> pdmsf_core::PartitionStats {
        match &self.msf {
            EngineStructure::Single(_) => pdmsf_core::PartitionStats::default(),
            EngineStructure::Partitioned(p) => p.partition_stats(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdmsf_core::par::default_parallel_k;
    use pdmsf_graph::{VertexId, Weight};

    /// Engines serve at the paper's sequential `K = sqrt(n log n)`; the
    /// bare parallel structure keeps the paper's `K = sqrt n`, so its
    /// EREW depth/work tables stay the paper's.
    #[test]
    fn engines_serve_at_the_sequential_chunk_parameter() {
        for n in [2usize, 100, 4096, 32_768] {
            let k = default_sequential_k(n);
            assert_eq!(Engine::new(n).structure().chunk_parameter(), k);
            let parts = Engine::new_partitioned(n, 4);
            let parts = parts.partitioned_structure().expect("partitioned");
            assert_eq!(parts.chunk_parameter(), k);
            assert_eq!(
                ParDynamicMsf::new(n).chunk_parameter(),
                default_parallel_k(n)
            );
        }
        assert_eq!(Engine::new(32_768).structure().chunk_parameter(), 702);
        assert_eq!(ParDynamicMsf::new(32_768).chunk_parameter(), 182);
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
    fn batched_and_one_by_one_paths_agree() {
        let ops = vec![
            link(0, 1, 3),
            link(1, 2, 1),
            link(2, 3, 9),             // flap
            Op::Cut { id: EdgeId(2) }, // cancels
            Op::Cut { id: EdgeId(0) },
            qconn(0, 1),
            qconn(0, 1),
            qconn(2, 0),
            Op::QueryForestWeight,
            Op::Cut { id: EdgeId(7) }, // rejected
        ];
        let mut batched = Engine::new(5);
        let mut serial = Engine::new(5);
        let rb = batched.execute(&ops);
        let rs = serial.execute_one_by_one(&ops);
        assert_eq!(rb.outcomes, rs.outcomes);
        assert_eq!(batched.forest_edges(), serial.forest_edges());
        assert_eq!(batched.forest_weight(), serial.forest_weight());
        // The batched path did strictly less structural work.
        assert!(rb.summary.applied_updates < rs.summary.applied_updates);
        assert!(rb.summary.unique_queries < rs.summary.unique_queries);
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

    #[test]
    #[should_panic(expected = "bypasses the op log")]
    fn one_by_one_refuses_to_run_with_a_sink_attached() {
        let log = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let mut engine = Engine::new(4);
        engine.set_sink(Box::new(VecSink(log)));
        engine.execute_one_by_one(&[link(0, 1, 1)]);
    }

    #[test]
    fn restored_parts_are_cross_validated() {
        let mut engine = Engine::new(6);
        engine.execute(&[link(0, 1, 2), link(1, 2, 5), Op::Cut { id: EdgeId(0) }]);
        let image = engine.structure().to_image();
        let mirror = engine.graph().to_image();

        let graph = pdmsf_graph::DynGraph::from_image(&mirror).unwrap();
        let msf = ParDynamicMsf::from_image(&image).unwrap();
        let restored =
            Engine::from_restored_parts(graph, msf, engine.stats(), engine.applied_seq()).unwrap();
        assert_eq!(restored.forest_edges(), engine.forest_edges());
        assert_eq!(restored.applied_seq(), engine.applied_seq());
        assert_eq!(restored.stats(), engine.stats());

        // A mirror that disagrees with the structure is refused: re-import
        // the mirror with the cut edge 0 resurrected (structurally valid on
        // its own — only the cross-check can catch it).
        let mut tampered = mirror.clone();
        tampered.edge_alive[0] = 1;
        let graph2 = pdmsf_graph::DynGraph::from_image(&tampered).unwrap();
        let msf2 = ParDynamicMsf::from_image(&image).unwrap();
        assert!(Engine::from_restored_parts(graph2, msf2, engine.stats(), 1).is_err());
    }

    #[test]
    fn partitioned_engine_matches_single_and_counts_groups() {
        let ops1 = vec![
            link(0, 1, 3),  // block 0 (vertices 0..4 of 4 partitions over 16)
            link(4, 5, 1),  // block 1
            link(8, 9, 7),  // block 2
            link(9, 13, 2), // crosses blocks 2 and 3
            qconn(0, 1),
        ];
        let ops2 = vec![
            Op::Cut { id: EdgeId(0) },
            link(1, 2, 9), // block 0
            link(12, 15, 4),
            qconn(8, 13),
            Op::QueryForestWeight,
        ];
        let mut partitioned = Engine::with_partitioned_chunk_parameter(16, 4, 4);
        let mut forced_serial = Engine::with_partitioned_chunk_parameter(16, 4, 4);
        forced_serial.set_serial_apply(true);
        let mut single = Engine::with_chunk_parameter(16, 4);
        for ops in [&ops1, &ops2] {
            let rp = partitioned.execute(ops);
            let rf = forced_serial.execute(ops);
            let rs = single.execute(ops);
            assert_eq!(rp.outcomes, rs.outcomes);
            assert_eq!(rf.outcomes, rs.outcomes);
            assert!(rp.summary.update_groups > 0);
            assert_eq!(rf.summary.update_groups, 0);
        }
        assert_eq!(partitioned.forest_edges(), single.forest_edges());
        assert_eq!(forced_serial.forest_edges(), single.forest_edges());
        assert_eq!(partitioned.forest_weight(), single.forest_weight());
        partitioned.validate_structure();
        forced_serial.validate_structure();
        // Batch 1: groups {0}, {1}, {2,3} → 3 groups, 1 conflict (4 updates).
        // Batch 2: groups {0}, {2,3} (partitions 2 and 3 merged in batch 1,
        // so the cut of edge 2's component and the 12–15 link now share a
        // class) → stats accumulate across batches.
        let stats = partitioned.stats();
        assert_eq!(stats.update_groups, 5);
        assert_eq!(stats.group_conflicts, 2);
        assert!(partitioned.is_partitioned());
        assert!(partitioned.partitioned_structure().is_some());
        assert!(!single.is_partitioned());
    }

    #[test]
    fn rebalance_restores_grouping_after_migration_pileup() {
        // 32 vertices, 4 block partitions, one 8-vertex chain per block.
        let mut engine = Engine::with_partitioned_chunk_parameter(32, 4, 4);
        engine.set_rebalance_min(1);
        let mut chains = Vec::new();
        for b in 0..4u32 {
            for i in 0..7 {
                chains.push(link(8 * b + i, 8 * b + i + 1, (8 * b + i) as i64 + 1));
            }
        }
        let r1 = engine.execute(&chains);
        assert_eq!(r1.summary.update_groups, 4);
        assert_eq!(r1.summary.rebalances, 0);

        // Bridges drag every chain into one partition (smaller/tied side —
        // the `u` side — moves toward vertex 0's home every time). The
        // piled-up partition holds a single connected component, so the
        // trigger fires but correctly declines to split it.
        let r2 = engine.execute(&[link(8, 0, 100), link(16, 0, 101), link(24, 0, 102)]);
        assert_eq!(r2.summary.update_groups, 1);
        assert_eq!(r2.summary.migrations, 3);
        assert_eq!(r2.summary.rebalances, 0);

        // Cutting the bridges (ids 28..31 follow the 28 chain links) leaves
        // four independent chains stranded in one partition; the post-batch
        // rebalance spreads them back out.
        let r3 = engine.execute(&[
            Op::Cut { id: EdgeId(28) },
            Op::Cut { id: EdgeId(29) },
            Op::Cut { id: EdgeId(30) },
        ]);
        assert_eq!(r3.summary.rebalances, 1);
        assert_eq!(r3.summary.migrations, 3);
        assert!(r3.summary.migrated_vertices > 0);

        // With homes spread again, per-chain links re-color into 4 groups.
        let r4 = engine.execute(&[
            link(0, 2, 200),
            link(8, 10, 201),
            link(16, 18, 202),
            link(24, 26, 203),
        ]);
        assert_eq!(r4.summary.update_groups, 4);
        assert_eq!(engine.stats().rebalances, 1);
        assert_eq!(engine.stats().migrations, 6);
        engine.validate_structure();

        // A forced-serial twin of the same stream lands on identical homes
        // and forests (rebalance runs on both paths).
        let mut serial = Engine::with_partitioned_chunk_parameter(32, 4, 4);
        serial.set_rebalance_min(1);
        serial.set_serial_apply(true);
        serial.execute(&chains);
        serial.execute(&[link(8, 0, 100), link(16, 0, 101), link(24, 0, 102)]);
        serial.execute(&[
            Op::Cut { id: EdgeId(28) },
            Op::Cut { id: EdgeId(29) },
            Op::Cut { id: EdgeId(30) },
        ]);
        serial.execute(&[
            link(0, 2, 200),
            link(8, 10, 201),
            link(16, 18, 202),
            link(24, 26, 203),
        ]);
        assert_eq!(engine.forest_edges(), serial.forest_edges());
        let (p, s) = (
            engine.partitioned_structure().unwrap(),
            serial.partitioned_structure().unwrap(),
        );
        for v in 0..32u32 {
            assert_eq!(
                p.home_of(VertexId(v)),
                s.home_of(VertexId(v)),
                "home of {v}"
            );
        }
        assert_eq!(p.occupancy(), s.occupancy());
        serial.validate_structure();
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
