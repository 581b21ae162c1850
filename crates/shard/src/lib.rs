//! # pdmsf-shard
//!
//! The **multi-tenant sharded serving layer** of the `pdmsf` workspace: the
//! first layer where the system holds *many* dynamic-MSF structures and the
//! worker pool runs *many* simultaneous jobs.
//!
//! A [`ShardedService`] owns `S` independent **shards**, each wrapping its
//! own [`Engine`] (own `DynGraph` mirror, own MSF structure). **Tenants**
//! — independent customers, each owning a private vertex space
//! `0..tenant_n` and a private sequential edge-id space — are placed onto
//! shards deterministically (a stable hash of the tenant id, overridable
//! per tenant with [`TenantSpec::pin`]) and never move; a shard hosts its
//! tenants in disjoint vertex ranges of one engine, and since every tenant
//! operation stays inside its tenant's range, shard forests decompose
//! exactly per tenant.
//!
//! Sharding has two effects:
//!
//! * **Smaller structures.** The paper's update bound is `O(sqrt(n) log n)`
//!   per update — sublinear in `n` — so a shard with `n_shard << n_total`
//!   vertices makes each update cheaper in the bound (`K = sqrt(n log n)`
//!   shrinks with the shard). On its own this is not a measured throughput
//!   win. Against one flat engine over the merged stream on a 2-core
//!   machine, 4 and 8 shards on a skewed 16-tenant stream ran at
//!   0.77–1.24× the flat engine's ops/s over two full runs (0.48–1.24×
//!   over all shard counts, sizes and skews), and at 0.65–1.39× in five
//!   short runs at 8 192 vertices.
//! * **Concurrency across shards.** Per batch, [`ShardedService::execute`]
//!   routes the tenant-tagged operations into per-shard sub-batches
//!   (preserving per-tenant arrival order), **plans** every sub-batch on
//!   the caller thread ([`Engine::plan_batch`] — pure, `&self`), then
//!   **applies** all non-empty shard batches concurrently as the slots of
//!   one `pdmsf_pram::pool` job — the caller and the idle workers each
//!   claim the next unclaimed shard slot, which borrows its shard's engine
//!   and plan through a per-slot lock (the crate has no `unsafe`) — and
//!   each shard batch ([`Engine::execute_planned`]) reuses the full
//!   plan/cancel/dedup pipeline internally and answers its queries at the
//!   post-update point from the Euler-tour lists. Outcomes are
//!   reassembled into the caller's original op order.
//!
//! ## Identifier translation
//!
//! Callers speak **tenant-local** ids: vertices `0..tenant_n`, edge ids as
//! a dedicated per-tenant engine would allocate them (sequential per
//! accepted link). The router translates tenant vertices by the tenant's
//! base offset in its shard, pre-assigns shard-global edge ids by
//! mirroring the shard engine's deterministic id allocation, and
//! translates them back in the returned outcomes — so the service is
//! **observationally identical** to running one flat engine per tenant
//! (the lockstep proptest pins this, per-op outcomes included).
//! Per-tenant forest-weight queries are answered by a ranged sweep
//! ([`Engine::forest_weight_in_range`]) over the tenant's vertex block —
//! exact, because tenant edges never cross blocks.
//!
//! Operations that cannot be routed — unknown tenants, endpoints outside
//! the tenant's vertex space, never-allocated edge ids — are rejected at
//! the router with the same [`Outcome::Rejected`] a per-tenant engine
//! would produce, and never reach a shard.
//!
//! ```
//! use pdmsf_shard::{ShardedService, TenantSpec};
//! use pdmsf_graph::{BatchOp, TenantId, TenantOp, VertexId, Weight};
//!
//! let tenants: Vec<TenantSpec> = (0..4).map(|t| TenantSpec::new(TenantId(t), 8)).collect();
//! let mut service = ShardedService::new(2, &tenants);
//! let link = |t: u32, u: u32, v: u32, w: i64| TenantOp {
//!     tenant: TenantId(t),
//!     op: BatchOp::Link { u: VertexId(u), v: VertexId(v), weight: Weight::new(w) },
//! };
//! let result = service.execute(&[
//!     link(0, 0, 1, 5),
//!     link(3, 0, 1, 7), // same local ids, different tenant — isolated
//!     TenantOp { tenant: TenantId(0), op: BatchOp::QueryForestWeight },
//!     TenantOp { tenant: TenantId(3), op: BatchOp::QueryForestWeight },
//! ]);
//! assert_eq!(result.outcomes[2], pdmsf_engine::Outcome::ForestWeight { weight: 5 });
//! assert_eq!(result.outcomes[3], pdmsf_engine::Outcome::ForestWeight { weight: 7 });
//! ```

#![forbid(unsafe_code)]

use pdmsf_engine::{BatchSummary, Engine, Outcome, PlannedBatch};
use pdmsf_graph::{TenantId, TenantOp, VertexId};
use pdmsf_obs as obs;
use pdmsf_obs::trace::{Phase, TSpan};
use pdmsf_pram::pool;
use std::collections::HashMap;
use std::ops::Deref;
use std::sync::{Arc, Mutex};

mod router;

use router::Routed;
pub use router::Source;

/// Why a dispatch cell's lock cannot be poisoned: no slot panics while it
/// holds one (it only moves a value in or out).
const UNPOISONED: &str = "a dispatch cell is never locked across a panic";

/// One tenant to register with a [`ShardedService`].
#[derive(Clone, Copy, Debug)]
pub struct TenantSpec {
    /// The tenant's id (opaque, need not be dense).
    pub id: TenantId,
    /// Size of the tenant's private vertex space.
    pub vertices: usize,
    /// Pin the tenant to this shard index instead of the stable-hash
    /// placement (e.g. to co-locate a tenant with its replica reader, or
    /// to isolate a noisy tenant on its own shard).
    pub pin: Option<usize>,
}

impl TenantSpec {
    /// A tenant with stable-hash placement.
    pub fn new(id: TenantId, vertices: usize) -> TenantSpec {
        TenantSpec {
            id,
            vertices,
            pin: None,
        }
    }

    /// A tenant pinned to an explicit shard.
    pub fn pinned(id: TenantId, vertices: usize, shard: usize) -> TenantSpec {
        TenantSpec {
            id,
            vertices,
            pin: Some(shard),
        }
    }
}

/// The deterministic tenant → shard placement: a stable 64-bit mix of the
/// tenant id (splitmix64 finalizer), reduced mod the shard count. Stable
/// across processes, platforms and service rebuilds — the same tenant
/// always lands on the same shard for a given shard count.
pub fn stable_shard(id: TenantId, shards: usize) -> usize {
    let mut x = (id.0 as u64) ^ 0x9E37_79B9_7F4A_7C15;
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    (x % shards as u64) as usize
}

/// Registered tenant state: placement, vertex block, and the tenant-local →
/// shard-global edge-id map (index = tenant-local id).
pub(crate) struct TenantState {
    pub(crate) shard: u32,
    /// First vertex of the tenant's block in its shard engine.
    pub(crate) base: u32,
    /// Size of the tenant's vertex space.
    pub(crate) vertices: u32,
    /// Tenant-local edge id (index) → shard-global edge id.
    pub(crate) edge_ids: Vec<pdmsf_graph::EdgeId>,
}

/// One tenant's registration: placement, vertex block and the
/// tenant-local → shard-global edge-id map. Produced by
/// [`ShardedService::export_tenants`]; the persistence layer's
/// tenant-table section stores the first four fields, and
/// [`ShardedService::from_restored_parts`] validates them and derives the
/// map from the shard mirrors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TenantRecord {
    /// The tenant's id.
    pub id: TenantId,
    /// The shard hosting the tenant.
    pub shard: u32,
    /// First vertex of the tenant's block in its shard engine.
    pub base: u32,
    /// Size of the tenant's vertex space.
    pub vertices: u32,
    /// Tenant-local edge id (index) → shard-global edge id.
    pub edge_ids: Vec<pdmsf_graph::EdgeId>,
}

/// Per-shard facts about one executed service batch (only shards the batch
/// touched appear). Derefs to the shard engine's [`BatchSummary`], so
/// `summary.applied_updates` reads the shard's own counters.
#[derive(Clone, Debug)]
pub struct ShardSummary {
    /// Shard index.
    pub shard: usize,
    /// The shard engine's summary of its sub-batch. Tenant weight queries
    /// are not in it: a ranged sweep answers them, not a shard-engine op.
    pub batch: BatchSummary,
    /// Tenant forest-weight sweeps this shard served.
    pub weight_sweeps: usize,
    /// The shard's whole forest weight after the batch (all its tenants).
    pub forest_weight: i128,
}

impl Deref for ShardSummary {
    type Target = BatchSummary;

    fn deref(&self) -> &BatchSummary {
        &self.batch
    }
}

/// Aggregate facts about one executed service batch.
#[derive(Clone, Debug)]
pub struct ServiceSummary {
    /// Operations in the batch.
    pub ops: usize,
    /// Shards the batch touched (= concurrent jobs dispatched).
    pub shards_touched: usize,
    /// Updates applied across all shard structures.
    pub applied_updates: usize,
    /// Opposing pairs cancelled across all shards.
    pub cancelled_pairs: usize,
    /// Rejected operations (router rejections + shard rejections).
    pub rejected: usize,
    /// Of those, rejected at the router (unknown tenant, out-of-range
    /// endpoint, never-allocated edge id) without reaching any shard.
    pub router_rejected: usize,
    /// Query operations (connectivity + tenant weight).
    pub queries: usize,
    /// Distinct answers computed for them.
    pub unique_queries: usize,
    /// Total forest weight across **all** shards after the batch.
    pub forest_weight: i128,
    /// Per-shard breakdowns, in dispatch order.
    pub per_shard: Vec<ShardSummary>,
}

/// The result of one service batch: per-op outcomes in the caller's
/// original order (ids tenant-local), plus the summary.
#[derive(Clone, Debug)]
pub struct ServiceResult {
    /// Index-aligned with the input slice.
    pub outcomes: Vec<Outcome>,
    /// Aggregate + per-shard facts.
    pub summary: ServiceSummary,
}

/// Cumulative service counters across all executed batches.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Service batches executed.
    pub batches: u64,
    /// Tenant operations processed.
    pub ops: u64,
    /// Operations rejected at the router.
    pub router_rejected: u64,
    /// Shard sub-batches dispatched (concurrent jobs).
    pub shard_batches: u64,
    /// Tenant weight sweeps served.
    pub weight_sweeps: u64,
}

/// What one shard job produced: the engine's batch result, the requested
/// tenant weight sweeps, and the shard's post-batch forest weight.
struct ShardOutput {
    result: pdmsf_engine::BatchResult,
    weights: Vec<i128>,
    forest_weight: i128,
}

/// Pre-resolved handles into the `pdmsf-obs` global registry for the
/// `pdmsf_shard_*` metric families: one batch-latency histogram per shard
/// (labeled `shard="<i>"`), routing rejects and queue-batch sizes.
struct ServiceMetrics {
    /// Per-shard batch latency (the `shard.apply` phase: engine apply +
    /// weight sweeps), indexed by shard.
    batch_ns: Vec<Arc<obs::Histogram>>,
    service_batches: Arc<obs::Counter>,
    routing_rejects: Arc<obs::Counter>,
    /// Ops per dispatched shard sub-batch — the queue-batch size
    /// distribution the router produces.
    queue_batch_ops: Arc<obs::Histogram>,
}

impl ServiceMetrics {
    fn resolve(shards: usize) -> ServiceMetrics {
        let r = obs::global();
        ServiceMetrics {
            batch_ns: (0..shards)
                .map(|s| {
                    r.histogram_labeled(
                        "pdmsf_shard_batch_ns",
                        "shard",
                        &s.to_string(),
                        "per-shard sub-batch execution latency",
                    )
                })
                .collect(),
            service_batches: r.counter(
                "pdmsf_shard_service_batches_total",
                "service batches executed",
            ),
            routing_rejects: r.counter(
                "pdmsf_shard_routing_rejects_total",
                "operations rejected at the router",
            ),
            queue_batch_ops: r.histogram(
                "pdmsf_shard_queue_batch_ops",
                "operations per dispatched shard sub-batch",
            ),
        }
    }
}

/// The multi-tenant sharded serving layer. See the crate docs.
pub struct ShardedService {
    shards: Vec<Engine>,
    tenants: Vec<TenantState>,
    /// Tenant id → dense index into `tenants`.
    lookup: HashMap<TenantId, u32>,
    stats: ServiceStats,
    /// Optional registry-backed instrumentation
    /// ([`ShardedService::enable_metrics`]).
    metrics: Option<ServiceMetrics>,
    /// Batch tracing ([`ShardedService::enable_tracing`]): when on, every
    /// batch allocates a fresh [`obs::trace::TraceId`] and runs under its
    /// scope, so routing, planning, pool ranges, engine phases and WAL
    /// writes all attribute to that batch.
    tracing: bool,
}

impl ShardedService {
    /// A service of `shards` shards hosting `tenants`, each shard backed by
    /// the default engine configuration ([`Engine::new`]:
    /// `K = sqrt(n_shard log n_shard)`, kernels inline).
    ///
    /// # Panics
    /// Panics on zero shards, duplicate tenant ids, or a pin outside
    /// `0..shards`.
    pub fn new(shards: usize, tenants: &[TenantSpec]) -> ShardedService {
        ShardedService::with_engine_factory(shards, tenants, Engine::new)
    }

    /// Full control over how each shard's engine is built from its vertex
    /// count (for example a chunk parameter through
    /// [`Engine::with_chunk_parameter`]). The lockstep tests use it to
    /// force stress configurations.
    pub fn with_engine_factory(
        shards: usize,
        tenants: &[TenantSpec],
        factory: impl Fn(usize) -> Engine,
    ) -> ShardedService {
        assert!(shards >= 1, "a service needs at least one shard");
        let mut lookup = HashMap::with_capacity(tenants.len());
        let mut states = Vec::with_capacity(tenants.len());
        let mut shard_vertices = vec![0usize; shards];
        for spec in tenants {
            let shard = match spec.pin {
                Some(pin) => {
                    assert!(
                        pin < shards,
                        "tenant {:?} pinned to shard {pin} of {shards}",
                        spec.id
                    );
                    pin
                }
                None => stable_shard(spec.id, shards),
            };
            let prev = lookup.insert(spec.id, states.len() as u32);
            assert!(prev.is_none(), "duplicate tenant id {:?}", spec.id);
            states.push(TenantState {
                shard: shard as u32,
                base: u32::try_from(shard_vertices[shard]).expect("shard vertex space fits u32"),
                vertices: u32::try_from(spec.vertices).expect("tenant vertex space fits u32"),
                edge_ids: Vec::new(),
            });
            shard_vertices[shard] += spec.vertices;
        }
        let shards = shard_vertices.into_iter().map(factory).collect();
        ShardedService {
            shards,
            tenants: states,
            lookup,
            stats: ServiceStats::default(),
            metrics: None,
            tracing: false,
        }
    }

    /// Turn on registry-backed instrumentation: per-shard batch latency
    /// histograms (`pdmsf_shard_batch_ns{shard="<i>"}`), routing rejects and
    /// queue-batch sizes, plus per-phase engine metrics on every shard
    /// engine ([`Engine::enable_metrics`]). Handles resolve from
    /// [`pdmsf_obs::global`]; uninstrumented services skip every clock read.
    pub fn enable_metrics(&mut self) {
        self.metrics = Some(ServiceMetrics::resolve(self.shards.len()));
        for engine in &mut self.shards {
            engine.enable_metrics();
        }
    }

    /// Turn on batch tracing: enables the global trace ring
    /// ([`obs::trace::enable_default`]) and allocates a [`obs::trace::TraceId`]
    /// per batch. The id is scoped on the submitting thread and
    /// carried across pool workers by the jobs themselves, so every layer's
    /// spans — routing, plan, apply, snapshot, pool ranges, WAL
    /// append/fsync — land under the batch that caused them. Combine with
    /// [`obs::trace::set_capture_threshold_ns`] or
    /// [`obs::trace::capture_next`] to pin slow batches in the flight
    /// recorder; the service offers every traced batch with its end-to-end
    /// latency.
    pub fn enable_tracing(&mut self) {
        obs::trace::enable_default();
        self.tracing = true;
    }

    /// The [`obs::trace::TraceId`] for the next batch: NONE unless tracing
    /// is on.
    fn next_trace_id(&self) -> obs::trace::TraceId {
        if self.tracing && obs::trace::enabled() {
            obs::trace::next_id()
        } else {
            obs::trace::TraceId::NONE
        }
    }

    /// Number of shards (including empty ones).
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Number of registered tenants.
    pub fn num_tenants(&self) -> usize {
        self.tenants.len()
    }

    /// The shard hosting `tenant`, if registered.
    pub fn shard_of(&self, tenant: TenantId) -> Option<usize> {
        self.lookup
            .get(&tenant)
            .map(|&ix| self.tenants[ix as usize].shard as usize)
    }

    /// A shard's engine (read access, e.g. for differential checks).
    pub fn shard_engine(&self, shard: usize) -> &Engine {
        &self.shards[shard]
    }

    /// A shard's engine, mutably. For the persistence layer only: attaching
    /// an op-log sink and replaying logged batches during recovery. Routing
    /// invariants (vertex blocks, edge-id maps) live in the service, so
    /// mutating the engine's *graph state* through this handle desyncs the
    /// router — recovery replays exactly the batches the router produced,
    /// which preserves them.
    pub fn shard_engine_mut(&mut self, shard: usize) -> &mut Engine {
        &mut self.shards[shard]
    }

    /// Export the tenant table in dense registration order (the persistence
    /// layer serializes this next to the per-shard engine sections).
    pub fn export_tenants(&self) -> Vec<TenantRecord> {
        let mut ids = vec![TenantId(0); self.tenants.len()];
        for (&id, &ix) in &self.lookup {
            ids[ix as usize] = id;
        }
        self.tenants
            .iter()
            .zip(ids)
            .map(|(t, id)| TenantRecord {
                id,
                shard: t.shard,
                base: t.base,
                vertices: t.vertices,
                edge_ids: t.edge_ids.clone(),
            })
            .collect()
    }

    /// Assemble a service from restored parts (the checkpoint/restore path
    /// of `pdmsf-persist`). Validates the tenant table against the shard
    /// engines — shard indices in range, vertex blocks inside their engine
    /// and mutually disjoint, no duplicate tenant ids — and derives every
    /// tenant's edge-id map from the shard mirrors
    /// ([`ShardedService::rebuild_tenant_edge_maps`]), so a checkpoint
    /// whose sections are individually intact but mutually inconsistent is
    /// refused. The records' own `edge_ids` are not read: a map taken on
    /// trust could name another tenant's edge.
    pub fn from_restored_parts(
        shards: Vec<Engine>,
        tenants: Vec<TenantRecord>,
        stats: ServiceStats,
    ) -> Result<ShardedService, String> {
        if shards.is_empty() {
            return Err("a restored service needs at least one shard".to_string());
        }
        let mut lookup = HashMap::with_capacity(tenants.len());
        let mut states = Vec::with_capacity(tenants.len());
        let mut blocks: Vec<Vec<(u32, u32)>> = vec![Vec::new(); shards.len()];
        for rec in tenants {
            let shard = rec.shard as usize;
            if shard >= shards.len() {
                return Err(format!(
                    "tenant {:?} names shard {shard} of {}",
                    rec.id,
                    shards.len()
                ));
            }
            let end = rec
                .base
                .checked_add(rec.vertices)
                .ok_or_else(|| format!("tenant {:?} vertex block overflows", rec.id))?;
            if end as usize > shards[shard].num_vertices() {
                return Err(format!(
                    "tenant {:?} block {}..{end} exceeds shard {shard}'s {} vertices",
                    rec.id,
                    rec.base,
                    shards[shard].num_vertices()
                ));
            }
            blocks[shard].push((rec.base, end));
            if lookup.insert(rec.id, states.len() as u32).is_some() {
                return Err(format!("duplicate tenant id {:?}", rec.id));
            }
            states.push(TenantState {
                shard: rec.shard,
                base: rec.base,
                vertices: rec.vertices,
                edge_ids: Vec::new(),
            });
        }
        for (shard, list) in blocks.iter_mut().enumerate() {
            list.sort_unstable();
            for pair in list.windows(2) {
                if pair[1].0 < pair[0].1 {
                    return Err(format!("tenant vertex blocks overlap on shard {shard}"));
                }
            }
        }
        let mut service = ShardedService {
            shards,
            tenants: states,
            lookup,
            stats,
            metrics: None,
            tracing: false,
        };
        service.rebuild_tenant_edge_maps()?;
        Ok(service)
    }

    /// Cumulative service counters.
    pub fn stats(&self) -> ServiceStats {
        self.stats
    }

    /// Total forest weight across all shards (= sum of all tenant forests).
    pub fn total_forest_weight(&self) -> i128 {
        self.shards.iter().map(Engine::forest_weight).sum()
    }

    /// A tenant's current forest weight (ranged sweep over its shard).
    pub fn tenant_forest_weight(&self, tenant: TenantId) -> Option<i128> {
        let t = &self.tenants[*self.lookup.get(&tenant)? as usize];
        Some(
            self.shards[t.shard as usize]
                .forest_weight_in_range(VertexId(t.base), VertexId(t.base + t.vertices)),
        )
    }

    /// Rebuild every tenant's local → global edge-id map from the shard
    /// engine mirrors. Restore derives the maps this way, and recovery
    /// again after log replay has advanced the shard engines.
    ///
    /// The derivation is exact, not heuristic: shard engines allocate global
    /// edge ids sequentially, every allocated slot (dead ones included —
    /// they are the id allocator) belongs to exactly one tenant's vertex
    /// block, and a tenant's local ids are assigned in its allocation
    /// order — so walking each mirror's slots in id order and appending
    /// each to its owning tenant reproduces precisely the map the router
    /// built live. Errors if some slot does not lie inside one registered
    /// tenant's block.
    pub fn rebuild_tenant_edge_maps(&mut self) -> Result<(), String> {
        let ShardedService {
            shards, tenants, ..
        } = self;
        for t in tenants.iter_mut() {
            t.edge_ids.clear();
        }
        for (shard_ix, engine) in shards.iter().enumerate() {
            let mut spans: Vec<(u32, u32, usize)> = tenants
                .iter()
                .enumerate()
                .filter(|(_, t)| t.shard as usize == shard_ix && t.vertices > 0)
                .map(|(ix, t)| (t.base, t.base + t.vertices, ix))
                .collect();
            spans.sort_unstable();
            let image = engine.graph().to_image();
            for (id, (&u, &v)) in image.edge_u.iter().zip(&image.edge_v).enumerate() {
                let pos = spans.partition_point(|&(base, _, _)| base <= u);
                let owner = pos
                    .checked_sub(1)
                    .map(|p| spans[p])
                    .filter(|&(base, end, _)| u < end && (base..end).contains(&v));
                match owner {
                    Some((_, _, ix)) => {
                        tenants[ix].edge_ids.push(pdmsf_graph::EdgeId(id as u32));
                    }
                    None => {
                        return Err(format!(
                            "edge slot {id} on shard {shard_ix} lies in no one tenant block"
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// Execute one service batch **concurrently**: route to per-shard
    /// sub-batches (per-tenant order preserved), plan every sub-batch on
    /// the caller thread, apply all touched shards as the slots of one pool
    /// job, and reassemble outcomes into the caller's op order. See the
    /// crate docs for the full pipeline.
    pub fn execute(&mut self, ops: &[TenantOp]) -> ServiceResult {
        self.run(ops, true)
    }

    /// Execute one service batch with the same routing and per-shard batch
    /// pipeline, but applying the touched shards **serially on the caller
    /// thread** — the dispatcher-off baseline. Outcomes are identical to
    /// [`ShardedService::execute`]; the lockstep and scheduler stress tests
    /// compare the two.
    pub fn execute_serial(&mut self, ops: &[TenantOp]) -> ServiceResult {
        self.run(ops, false)
    }

    fn run(&mut self, ops: &[TenantOp], concurrent: bool) -> ServiceResult {
        // Scope the batch's trace id on the caller thread: spans emitted
        // below (and on pool workers, via the job's carried id) attribute
        // to this batch; untraced batches stay span-free.
        let trace_id = self.next_trace_id();
        let _trace_scope = obs::trace::scope(trace_id);
        let batch_span = TSpan::begin(Phase::Batch, None, ops.len() as u64, trace_id.0);
        let route_span = TSpan::begin(Phase::Route, None, ops.len() as u64, 0);
        let routed = router::route(&mut self.tenants, &self.lookup, &self.shards, ops);
        route_span.end();
        let slots = routed.slots.len();

        if let Some(m) = &self.metrics {
            m.service_batches.inc();
            m.routing_rejects.add(routed.router_rejected as u64);
            for sub in &routed.sub_batches {
                m.queue_batch_ops.record(sub.len() as u64);
            }
        }

        // Plan every touched shard's sub-batch on the caller thread (pure,
        // `&self` per engine) so the workers only run the `&mut` half.
        let plans: Vec<PlannedBatch> = routed
            .slots
            .iter()
            .zip(&routed.sub_batches)
            .map(|(&s, sub)| self.shards[s].plan_batch(sub))
            .collect();

        // Each slot borrows its shard's engine and plan out of its own
        // cell and hands its output back through another, so each lock is
        // taken once, by the one slot that owns it. `run_shards` blocks
        // until every slot finished (scoped-spawn semantics).
        let outputs: Vec<Mutex<Option<ShardOutput>>> =
            (0..slots).map(|_| Mutex::new(None)).collect();
        {
            let mut engines: Vec<Option<&mut Engine>> = self.shards.iter_mut().map(Some).collect();
            let lent: Vec<_> = (routed.slots.iter())
                .zip(plans)
                .map(|(&shard, plan)| {
                    let engine = engines[shard].take().expect("a shard fills one slot");
                    Mutex::new(Some((engine, plan)))
                })
                .collect();
            let tenants = &self.tenants;
            let routed = &routed;
            // `None` when metrics are off: an untraced job then takes no
            // clock readings at all.
            let batch_ns = self.metrics.as_ref().map(|m| &m.batch_ns);
            let job = |slot: usize| {
                let shard = routed.slots[slot];
                let (engine, plan) = (lent[slot].lock().expect(UNPOISONED).take())
                    .expect("each slot claims its shard exactly once");
                let span = TSpan::begin(
                    Phase::ShardApply,
                    batch_ns.map(|h| &*h[shard]),
                    shard as u64,
                    plan.num_ops() as u64,
                );
                let result = engine.execute_planned(plan);
                // All of this shard's tenant weight queries in one sweep
                // over its forest (per-tenant sweeps would rescan the live
                // edge set once per tenant).
                let ranges: Vec<(VertexId, VertexId)> = routed.weight_reqs[slot]
                    .iter()
                    .map(|&tix| {
                        let t = &tenants[tix as usize];
                        (VertexId(t.base), VertexId(t.base + t.vertices))
                    })
                    .collect();
                let weights = engine.forest_weights_in_ranges(&ranges);
                span.end();
                let output = ShardOutput {
                    result,
                    weights,
                    forest_weight: engine.forest_weight(),
                };
                *outputs[slot].lock().expect(UNPOISONED) = Some(output);
            };
            if concurrent {
                pool::run_shards(slots, job);
            } else {
                (0..slots).for_each(job);
            }
        }
        let outputs = outputs
            .into_iter()
            .map(|cell| cell.into_inner().expect(UNPOISONED))
            .collect();

        let result = self.reassemble(ops.len(), routed, outputs);
        // Offer the finished batch to the flight recorder with its
        // end-to-end latency (the batch span's length); it is pinned only
        // if the batch is traced and `capture_next` was armed or the
        // latency meets the capture threshold.
        obs::trace::offer_capture(trace_id, batch_span.end());
        result
    }

    fn reassemble(
        &mut self,
        ops: usize,
        routed: Routed,
        outputs: Vec<Option<ShardOutput>>,
    ) -> ServiceResult {
        let outputs: Vec<ShardOutput> = outputs
            .into_iter()
            .map(|o| o.expect("every dispatched slot produced an output"))
            .collect();
        let outcomes = routed
            .sources
            .iter()
            .map(|src| match *src {
                Source::Ready(outcome) => outcome,
                Source::Link { slot, pos, local } => {
                    let got = outputs[slot as usize].result.outcomes[pos as usize];
                    debug_assert!(
                        matches!(got, Outcome::Linked { .. }),
                        "router-validated link rejected by the shard engine"
                    );
                    let _ = got;
                    Outcome::Linked {
                        id: pdmsf_graph::EdgeId(local),
                    }
                }
                Source::Cut { slot, pos, local } => {
                    match outputs[slot as usize].result.outcomes[pos as usize] {
                        Outcome::Cut { .. } => Outcome::Cut {
                            id: pdmsf_graph::EdgeId(local),
                        },
                        rejected => rejected,
                    }
                }
                Source::Query { slot, pos } => outputs[slot as usize].result.outcomes[pos as usize],
                Source::Weight { slot, req } => Outcome::ForestWeight {
                    weight: outputs[slot as usize].weights[req as usize],
                },
            })
            .collect();

        let per_shard: Vec<ShardSummary> = routed
            .slots
            .iter()
            .zip(&outputs)
            .zip(&routed.weight_reqs)
            .map(|((&shard, out), reqs)| ShardSummary {
                shard,
                batch: out.result.summary,
                weight_sweeps: reqs.len(),
                forest_weight: out.forest_weight,
            })
            .collect();

        let unique_weights: usize = routed.weight_reqs.iter().map(Vec::len).sum();
        let summary = ServiceSummary {
            ops,
            shards_touched: per_shard.len(),
            applied_updates: per_shard.iter().map(|s| s.applied_updates).sum(),
            cancelled_pairs: per_shard.iter().map(|s| s.cancelled_pairs).sum(),
            rejected: routed.router_rejected + per_shard.iter().map(|s| s.rejected).sum::<usize>(),
            router_rejected: routed.router_rejected,
            queries: routed.weight_queries + per_shard.iter().map(|s| s.queries).sum::<usize>(),
            unique_queries: unique_weights
                + per_shard.iter().map(|s| s.unique_queries).sum::<usize>(),
            forest_weight: self.total_forest_weight(),
            per_shard,
        };

        self.stats.batches += 1;
        self.stats.ops += ops as u64;
        self.stats.router_rejected += summary.router_rejected as u64;
        self.stats.shard_batches += summary.shards_touched as u64;
        self.stats.weight_sweeps += unique_weights as u64;

        ServiceResult { outcomes, summary }
    }
}

// The dispatcher moves shard engines' `&mut` halves and their plans across
// pool workers; pin the service itself as Send so a future field can't
// silently break that.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<ShardedService>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use pdmsf_engine::Reject;
    use pdmsf_graph::{BatchOp, EdgeId, Weight};

    fn tenant_op(t: u32, op: BatchOp) -> TenantOp {
        TenantOp {
            tenant: TenantId(t),
            op,
        }
    }

    fn link(t: u32, u: u32, v: u32, w: i64) -> TenantOp {
        tenant_op(
            t,
            BatchOp::Link {
                u: VertexId(u),
                v: VertexId(v),
                weight: Weight::new(w),
            },
        )
    }

    fn cut(t: u32, id: u32) -> TenantOp {
        tenant_op(t, BatchOp::Cut { id: EdgeId(id) })
    }

    fn qconn(t: u32, u: u32, v: u32) -> TenantOp {
        tenant_op(
            t,
            BatchOp::QueryConnected {
                u: VertexId(u),
                v: VertexId(v),
            },
        )
    }

    fn qweight(t: u32) -> TenantOp {
        tenant_op(t, BatchOp::QueryForestWeight)
    }

    fn service(shards: usize, tenants: u32, vertices: usize) -> ShardedService {
        let specs: Vec<TenantSpec> = (0..tenants)
            .map(|t| TenantSpec::new(TenantId(t), vertices))
            .collect();
        ShardedService::new(shards, &specs)
    }

    #[test]
    fn placement_is_deterministic_and_pinning_overrides_it() {
        let specs = [
            TenantSpec::new(TenantId(7), 4),
            TenantSpec::pinned(TenantId(8), 4, 3),
        ];
        let a = ShardedService::new(4, &specs);
        let b = ShardedService::new(4, &specs);
        assert_eq!(a.shard_of(TenantId(7)), b.shard_of(TenantId(7)));
        assert_eq!(a.shard_of(TenantId(7)), Some(stable_shard(TenantId(7), 4)));
        assert_eq!(a.shard_of(TenantId(8)), Some(3));
        assert_eq!(a.shard_of(TenantId(99)), None);
    }

    #[test]
    fn stable_shard_spreads_tenants() {
        // Not a statistical test — just pin that the mix actually uses more
        // than one shard over a small id range (a catastrophic hash would
        // pile everything onto one shard and void the whole layer).
        let shards = 4;
        let mut hit = vec![false; shards];
        for t in 0..64u32 {
            hit[stable_shard(TenantId(t), shards)] = true;
        }
        assert!(hit.iter().all(|&h| h), "64 tenants left a shard empty");
    }

    #[test]
    fn tenants_are_isolated_and_ids_are_tenant_local() {
        let mut svc = service(2, 4, 8);
        let r = svc.execute(&[
            link(0, 0, 1, 5),
            link(1, 0, 1, 7),
            link(0, 1, 2, 9),
            qconn(0, 0, 2),
            qconn(1, 0, 2),
            qweight(0),
            qweight(1),
        ]);
        // Both tenants allocate their own local ids from 0.
        assert_eq!(r.outcomes[0], Outcome::Linked { id: EdgeId(0) });
        assert_eq!(r.outcomes[1], Outcome::Linked { id: EdgeId(0) });
        assert_eq!(r.outcomes[2], Outcome::Linked { id: EdgeId(1) });
        assert_eq!(r.outcomes[3], Outcome::Connected { connected: true });
        assert_eq!(r.outcomes[4], Outcome::Connected { connected: false });
        assert_eq!(r.outcomes[5], Outcome::ForestWeight { weight: 14 });
        assert_eq!(r.outcomes[6], Outcome::ForestWeight { weight: 7 });
        assert_eq!(r.summary.forest_weight, 21);
        // Cutting tenant 0's local edge 0 must not touch tenant 1's.
        let r = svc.execute(&[cut(0, 0), qweight(0), qweight(1)]);
        assert_eq!(r.outcomes[0], Outcome::Cut { id: EdgeId(0) });
        assert_eq!(r.outcomes[1], Outcome::ForestWeight { weight: 9 });
        assert_eq!(r.outcomes[2], Outcome::ForestWeight { weight: 7 });
    }

    #[test]
    fn router_rejections_match_engine_semantics() {
        let mut svc = service(2, 2, 4);
        let r = svc.execute(&[
            link(0, 0, 9, 1), // endpoint outside the tenant's space
            link(0, 2, 2, 1), // self loop
            cut(0, 5),        // never-allocated local id
            qconn(0, 0, 17),  // out-of-range query
            link(9, 0, 1, 1), // unknown tenant
            link(0, 0, 1, 3), // valid — and gets local id 0
        ]);
        assert_eq!(
            r.outcomes[0],
            Outcome::Rejected {
                reason: Reject::EndpointOutOfRange
            }
        );
        assert_eq!(
            r.outcomes[1],
            Outcome::Rejected {
                reason: Reject::SelfLoop
            }
        );
        assert_eq!(
            r.outcomes[2],
            Outcome::Rejected {
                reason: Reject::UnknownOrDeadEdge
            }
        );
        assert_eq!(
            r.outcomes[3],
            Outcome::Rejected {
                reason: Reject::EndpointOutOfRange
            }
        );
        assert_eq!(
            r.outcomes[4],
            Outcome::Rejected {
                reason: Reject::UnknownTenant
            }
        );
        assert_eq!(r.outcomes[5], Outcome::Linked { id: EdgeId(0) });
        assert_eq!(r.summary.router_rejected, 5);
        assert_eq!(r.summary.rejected, 5);
    }

    #[test]
    fn flap_pairs_cancel_inside_a_shard_batch() {
        let mut svc = service(1, 2, 8);
        let r = svc.execute(&[
            link(0, 0, 1, 2),
            link(0, 2, 3, 4), // flap: local id 1 …
            cut(0, 1),        // … cancelled here
            link(1, 0, 1, 6),
        ]);
        assert_eq!(r.summary.cancelled_pairs, 1);
        assert_eq!(r.summary.applied_updates, 2);
        // The cancelled link still consumed tenant 0's local id 1.
        let r2 = svc.execute(&[link(0, 4, 5, 1)]);
        assert_eq!(r2.outcomes[0], Outcome::Linked { id: EdgeId(2) });
    }

    #[test]
    fn empty_shards_and_empty_batches_are_fine() {
        // More shards than tenants: some shards stay empty forever.
        let mut svc = service(8, 2, 4);
        assert_eq!(svc.num_shards(), 8);
        let r = svc.execute(&[]);
        assert!(r.outcomes.is_empty());
        assert_eq!(r.summary.shards_touched, 0);
        let r = svc.execute(&[link(0, 0, 1, 2), qweight(1)]);
        assert_eq!(r.outcomes[0], Outcome::Linked { id: EdgeId(0) });
        // Tenant 1 has no edges yet; its weight query still routes (to a
        // shard whose sub-batch may otherwise be empty).
        assert_eq!(r.outcomes[1], Outcome::ForestWeight { weight: 0 });
        assert_eq!(svc.total_forest_weight(), 2);
    }

    #[test]
    fn concurrent_and_serial_paths_agree() {
        let mut concurrent = service(4, 6, 12);
        let mut serial = service(4, 6, 12);
        let batches: Vec<Vec<TenantOp>> = vec![
            (0..6).map(|t| link(t, 0, 1, t as i64 + 1)).collect(),
            vec![
                link(0, 1, 2, 9),
                cut(1, 0),
                qconn(2, 0, 1),
                qweight(3),
                link(4, 2, 3, 2),
                cut(4, 1),
                qweight(4),
            ],
            (0..6).flat_map(|t| [qconn(t, 0, 2), qweight(t)]).collect(),
        ];
        for ops in &batches {
            let a = concurrent.execute(ops);
            let b = serial.execute_serial(ops);
            assert_eq!(a.outcomes, b.outcomes);
            assert_eq!(a.summary.forest_weight, b.summary.forest_weight);
            assert_eq!(a.summary.shards_touched, b.summary.shards_touched);
        }
        assert_eq!(
            concurrent.total_forest_weight(),
            serial.total_forest_weight()
        );
    }

    #[test]
    fn per_shard_summaries_add_up() {
        let mut svc = service(3, 6, 8);
        let ops: Vec<TenantOp> = (0..6)
            .flat_map(|t| {
                [
                    link(t, 0, 1, 1),
                    link(t, 1, 2, 2),
                    qconn(t, 0, 2),
                    qweight(t),
                ]
            })
            .collect();
        let r = svc.execute(&ops);
        let s = &r.summary;
        assert_eq!(s.ops, ops.len());
        assert_eq!(
            s.applied_updates,
            s.per_shard.iter().map(|p| p.applied_updates).sum::<usize>()
        );
        assert_eq!(s.queries, 6 + 6); // 6 connectivity + 6 weight
        assert_eq!(
            s.forest_weight,
            s.per_shard.iter().map(|p| p.forest_weight).sum::<i128>()
        );
        assert!(s.shards_touched >= 1 && s.shards_touched <= 3);
        let stats = svc.stats();
        assert_eq!(stats.batches, 1);
        assert_eq!(stats.ops, ops.len() as u64);
        assert_eq!(stats.weight_sweeps, 6);
    }
}
