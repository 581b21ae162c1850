//! Deterministic workload generators.
//!
//! The paper has no experimental section, so the evaluation (the
//! experiments binary of `pdmsf-bench`) is driven by synthetic-but-realistic
//! workloads built here. Everything is seeded and fully deterministic so
//! that the tests, the examples and the benchmark harness replay identical
//! update sequences.
//!
//! Two layers:
//!
//! * [`GraphSpec`] — static graph families (uniform random sparse graphs,
//!   2-D grids modelling road networks, preferential-attachment graphs
//!   modelling skewed-degree networks),
//! * [`UpdateStreamSpec`] / [`UpdateStream`] — dynamic update sequences on
//!   top of a base graph (mixed insert/delete streams that keep the edge
//!   count stationary, sliding-window streams, and delete-heavy "failure"
//!   streams). Edge ids referenced by `Delete` operations are concrete: the
//!   generator mirrors the id allocation of [`DynGraph`] (sequential ids in
//!   insertion order), so a stream can be replayed against any structure.

use crate::graph::{DynGraph, Edge};
use crate::ids::{EdgeId, TenantId, VertexId};
use crate::weight::Weight;
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

/// A family of static graphs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GraphSpec {
    /// `n` vertices, `m` edges drawn uniformly at random (no self-loops;
    /// parallel edges possible but rare), weights uniform in `[1, 1_000_000]`.
    RandomSparse {
        /// Number of vertices.
        n: usize,
        /// Number of edges.
        m: usize,
        /// RNG seed.
        seed: u64,
    },
    /// A `rows x cols` grid with 4-neighbour connectivity — a stand-in for a
    /// road network. Weights uniform in `[1, 1_000_000]`.
    Grid {
        /// Number of rows.
        rows: usize,
        /// Number of columns.
        cols: usize,
        /// RNG seed (weights only; the topology is deterministic).
        seed: u64,
    },
    /// Preferential attachment: vertices arrive one at a time and attach
    /// `attach` edges to endpoints chosen proportionally to degree. Produces
    /// skewed degree distributions: a few high-degree hubs.
    PreferentialAttachment {
        /// Number of vertices.
        n: usize,
        /// Edges added per arriving vertex.
        attach: usize,
        /// RNG seed.
        seed: u64,
    },
}

impl GraphSpec {
    /// Number of vertices this spec will produce.
    pub fn num_vertices(&self) -> usize {
        match *self {
            GraphSpec::RandomSparse { n, .. } => n,
            GraphSpec::Grid { rows, cols, .. } => rows * cols,
            GraphSpec::PreferentialAttachment { n, .. } => n,
        }
    }

    /// Generate the edge list `(u, v, w)` of this graph.
    pub fn edges(&self) -> Vec<(VertexId, VertexId, Weight)> {
        match *self {
            GraphSpec::RandomSparse { n, m, seed } => {
                let mut rng = ChaCha8Rng::seed_from_u64(seed);
                let mut out = Vec::with_capacity(m);
                if n < 2 {
                    return out;
                }
                for _ in 0..m {
                    let u = rng.gen_range(0..n);
                    let mut v = rng.gen_range(0..n - 1);
                    if v >= u {
                        v += 1;
                    }
                    out.push((
                        VertexId::from(u),
                        VertexId::from(v),
                        random_weight(&mut rng),
                    ));
                }
                out
            }
            GraphSpec::Grid { rows, cols, seed } => {
                let mut rng = ChaCha8Rng::seed_from_u64(seed);
                let mut out = Vec::new();
                let at = |r: usize, c: usize| VertexId::from(r * cols + c);
                for r in 0..rows {
                    for c in 0..cols {
                        if c + 1 < cols {
                            out.push((at(r, c), at(r, c + 1), random_weight(&mut rng)));
                        }
                        if r + 1 < rows {
                            out.push((at(r, c), at(r + 1, c), random_weight(&mut rng)));
                        }
                    }
                }
                out
            }
            GraphSpec::PreferentialAttachment { n, attach, seed } => {
                let mut rng = ChaCha8Rng::seed_from_u64(seed);
                let mut out = Vec::new();
                // `targets` holds one entry per edge endpoint so sampling from
                // it is degree-proportional.
                let mut targets: Vec<usize> = vec![0];
                for v in 1..n {
                    let k = attach.min(v);
                    for _ in 0..k {
                        let t = targets[rng.gen_range(0..targets.len())];
                        out.push((
                            VertexId::from(v),
                            VertexId::from(t),
                            random_weight(&mut rng),
                        ));
                        targets.push(t);
                        targets.push(v);
                    }
                    if k == 0 {
                        targets.push(v);
                    }
                }
                out
            }
        }
    }

    /// Materialise the graph as a [`DynGraph`].
    pub fn build(&self) -> DynGraph {
        let mut g = DynGraph::new(self.num_vertices());
        for (u, v, w) in self.edges() {
            g.insert_edge(u, v, w);
        }
        g
    }
}

fn random_weight<R: Rng>(rng: &mut R) -> Weight {
    Weight::new(rng.gen_range(1..=1_000_000))
}

/// An insert of a random edge (endpoints drawn before the weight) that
/// will get id `id`.
fn random_insert<R: Rng>(rng: &mut R, n: usize, id: u32) -> UpdateOp {
    let (u, v) = random_pair(rng, n);
    UpdateOp::Insert(Edge {
        id: EdgeId(id),
        u,
        v,
        weight: random_weight(rng),
    })
}

/// One operation of an update stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UpdateOp {
    /// Insert this edge. Its id is the next sequential id of the driving
    /// [`DynGraph`] (the generator tracks the ids, as it does for `Delete`
    /// ops).
    Insert(Edge),
    /// Delete the edge with this (pre-computed) id.
    Delete {
        /// The id of the edge to delete.
        id: EdgeId,
    },
}

/// The flavour of update stream to generate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StreamKind {
    /// Each operation is an insertion with probability `insert_permille/1000`
    /// and otherwise a deletion of a uniformly random live edge. Keeps the
    /// edge count roughly stationary with `insert_permille = 500`.
    Mixed {
        /// Probability of an insert, in permille.
        insert_permille: u32,
    },
    /// Sliding window: every operation inserts a fresh random edge and, once
    /// more than `window` edges are live, deletes the oldest live edge.
    SlidingWindow {
        /// Maximum number of live edges.
        window: usize,
    },
    /// Delete-only "failure" stream over the base graph's edges, in random
    /// order: most deletions hit forest edges, so most take the
    /// replacement search.
    Failures,
}

/// Specification of an update stream.
#[derive(Clone, Copy, Debug)]
pub struct UpdateStreamSpec {
    /// The base graph present before the stream starts.
    pub base: GraphSpec,
    /// Number of operations to generate.
    pub ops: usize,
    /// Stream flavour.
    pub kind: StreamKind,
    /// RNG seed (independent of the base graph's seed).
    pub seed: u64,
}

/// A generated update stream: the base graph plus a sequence of operations
/// with concrete edge ids.
#[derive(Clone, Debug)]
pub struct UpdateStream {
    /// Number of vertices.
    pub num_vertices: usize,
    /// Edges of the base graph (inserted before the stream, ids `0..len`).
    pub base_edges: Vec<(VertexId, VertexId, Weight)>,
    /// The operations, in order.
    pub ops: Vec<UpdateOp>,
}

impl UpdateStream {
    /// Generate the stream described by `spec`.
    pub fn generate(spec: &UpdateStreamSpec) -> Self {
        let base_edges = spec.base.edges();
        let n = spec.base.num_vertices();
        let mut rng = ChaCha8Rng::seed_from_u64(spec.seed ^ 0x9e37_79b9_7f4a_7c15);

        // Mirror of the id allocation: ids 0..base_edges.len() belong to the
        // base graph; subsequent inserts get sequential ids.
        let mut next_id: u32 = base_edges.len() as u32;
        let mut live: Vec<EdgeId> = (0..base_edges.len() as u32).map(EdgeId).collect();
        let mut ops = Vec::with_capacity(spec.ops);

        match spec.kind {
            StreamKind::Mixed { insert_permille } => {
                for _ in 0..spec.ops {
                    let do_insert = live.is_empty() || rng.gen_range(0u32..1000) < insert_permille;
                    if do_insert && n >= 2 {
                        ops.push(random_insert(&mut rng, n, next_id));
                        live.push(EdgeId(next_id));
                        next_id += 1;
                    } else if !live.is_empty() {
                        let k = rng.gen_range(0..live.len());
                        let id = live.swap_remove(k);
                        ops.push(UpdateOp::Delete { id });
                    }
                }
            }
            StreamKind::SlidingWindow { window } => {
                let mut queue: std::collections::VecDeque<EdgeId> = live.iter().copied().collect();
                for _ in 0..spec.ops {
                    if queue.len() >= window.max(1) {
                        let id = queue.pop_front().expect("window is non-empty");
                        ops.push(UpdateOp::Delete { id });
                    } else if n >= 2 {
                        ops.push(random_insert(&mut rng, n, next_id));
                        queue.push_back(EdgeId(next_id));
                        next_id += 1;
                    }
                }
            }
            StreamKind::Failures => {
                let mut order = live.clone();
                order.shuffle(&mut rng);
                for id in order.into_iter().take(spec.ops) {
                    ops.push(UpdateOp::Delete { id });
                }
            }
        }

        UpdateStream {
            num_vertices: n,
            base_edges,
            ops,
        }
    }

    /// Total number of operations (excluding the base-graph build).
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the stream has no operations.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Replay the stream against a [`DynGraph`] mirror, calling `f` after the
    /// base graph is built and then after every operation. Used by tests to
    /// differentially check dynamic structures against Kruskal.
    ///
    /// # Panics
    /// Panics if the mirror allocates an inserted edge an id other than the
    /// one its op carries.
    pub fn replay_with<F: FnMut(&DynGraph, Option<&UpdateOp>)>(&self, mut f: F) -> DynGraph {
        let mut g = DynGraph::new(self.num_vertices);
        for &(u, v, w) in &self.base_edges {
            g.insert_edge(u, v, w);
        }
        f(&g, None);
        for op in &self.ops {
            match *op {
                UpdateOp::Insert(e) => {
                    let id = g.insert_edge(e.u, e.v, e.weight);
                    assert_eq!(id, e.id, "the mirror allocated another id to an insert");
                }
                UpdateOp::Delete { id } => {
                    g.delete_edge(id);
                }
            }
            f(&g, Some(op));
        }
        g
    }
}

/// One operation of a *batched* stream: the update/query mix a serving
/// front-end sees. Unlike [`UpdateOp`], batched streams carry explicit
/// read operations (connectivity, forest weight) so the batch engine's
/// query answering, after each batch's updates, is exercised on realistic
/// traffic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BatchOp {
    /// Insert an edge. Its id is the next sequential id of the driving
    /// [`DynGraph`] mirror (the generator pre-computes those ids for `Cut`
    /// ops, exactly like [`UpdateOp::Insert`]).
    Link {
        /// First endpoint.
        u: VertexId,
        /// Second endpoint.
        v: VertexId,
        /// Weight.
        weight: Weight,
    },
    /// Delete the edge with this (pre-computed) id.
    Cut {
        /// The id of the edge to delete.
        id: EdgeId,
    },
    /// Are `u` and `v` in the same component?
    QueryConnected {
        /// First endpoint.
        u: VertexId,
        /// Second endpoint.
        v: VertexId,
    },
    /// Total weight of the minimum spanning forest.
    QueryForestWeight,
}

impl BatchOp {
    /// Whether this operation mutates the graph.
    pub fn is_update(&self) -> bool {
        matches!(self, BatchOp::Link { .. } | BatchOp::Cut { .. })
    }
}

/// The flavour of batched stream to generate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BatchKind {
    /// Bursts of traffic around a per-batch hotspot region of the vertex
    /// space, with **flapping links**: a `flap_permille` fraction of update
    /// slots insert an edge and delete that same edge later *in the same
    /// batch* (the link-flap pattern of unstable networks). Flap pairs are
    /// exactly the opposing insert/delete pairs the batch engine cancels.
    /// Queries (a `query_permille` fraction of ops) probe the hotspot and
    /// repeat recent questions, so duplicate queries occur naturally.
    Bursty {
        /// Fraction of operations that are queries, in permille.
        query_permille: u32,
        /// Fraction of update slots that start a flap pair, in permille.
        flap_permille: u32,
    },
    /// Tenant-sharded traffic: the vertex space is split into `clusters`
    /// contiguous blocks and batch `b` touches only block `b % clusters`
    /// (links, cuts and connectivity queries all stay inside the block).
    Clustered {
        /// Number of vertex blocks.
        clusters: usize,
        /// Fraction of operations that are queries, in permille.
        query_permille: u32,
    },
}

/// Specification of a batched update/query stream.
#[derive(Clone, Copy, Debug)]
pub struct BatchStreamSpec {
    /// The base graph present before the stream starts.
    pub base: GraphSpec,
    /// Number of batches to generate.
    pub batches: usize,
    /// Number of operations per batch.
    pub batch_size: usize,
    /// Stream flavour.
    pub kind: BatchKind,
    /// RNG seed (independent of the base graph's seed).
    pub seed: u64,
}

/// A generated batched stream: the base graph plus a sequence of batches
/// with concrete edge ids. `Cut` ids are always live at their position in
/// the stream (assuming every `Link` — including flap links — is applied to
/// the id-allocating [`DynGraph`] mirror, which is what the batch engine
/// does).
#[derive(Clone, Debug)]
pub struct BatchStream {
    /// Number of vertices.
    pub num_vertices: usize,
    /// Edges of the base graph (inserted before the stream, ids `0..len`).
    pub base_edges: Vec<(VertexId, VertexId, Weight)>,
    /// The batches, in order.
    pub batches: Vec<Vec<BatchOp>>,
}

impl BatchStream {
    /// Generate the stream described by `spec`.
    pub fn generate(spec: &BatchStreamSpec) -> Self {
        let base_edges = spec.base.edges();
        let n = spec.base.num_vertices();
        assert!(n >= 2, "batched streams need at least two vertices");
        let mut rng = ChaCha8Rng::seed_from_u64(spec.seed ^ 0xBA7C_57E4_11AB_CDEF);

        // Mirror of the id allocation: ids 0..base_edges.len() belong to the
        // base graph; every subsequent Link (flap or not) gets the next id.
        let mut next_id: u32 = base_edges.len() as u32;
        // Live edges a Cut may target, partitioned by the cluster of their
        // first endpoint (the Bursty kind uses a single cluster). Flap
        // links are *not* registered here — their cut is scheduled within
        // the batch that created them.
        let clusters = match spec.kind {
            BatchKind::Bursty { .. } => 1,
            BatchKind::Clustered { clusters, .. } => clusters.max(1),
        };
        let block = n.div_ceil(clusters);
        let cluster_of = |v: VertexId| (v.index() / block).min(clusters - 1);
        let mut live: Vec<Vec<EdgeId>> = vec![Vec::new(); clusters];
        for (i, &(u, v, _)) in base_edges.iter().enumerate() {
            // Only edges fully inside one block are cuttable by that
            // block's batches — a cross-block base edge belongs to no
            // tenant, and cutting it would break the documented isolation
            // of `BatchKind::Clustered`. (Bursty streams have one cluster,
            // so every edge qualifies.)
            if cluster_of(u) == cluster_of(v) {
                live[cluster_of(u)].push(EdgeId(i as u32));
            }
        }

        let query_permille = match spec.kind {
            BatchKind::Bursty { query_permille, .. }
            | BatchKind::Clustered { query_permille, .. } => query_permille,
        };
        // The region of one block, clamped so a degenerate tail block (or a
        // block too small for a distinct pair) widens to the whole space.
        let block_region = |c: usize| {
            let lo = c * block;
            let hi = (lo + block).min(n);
            if lo < n && hi - lo >= 2 {
                (lo, hi - lo)
            } else {
                (0, n)
            }
        };

        let mut batches = Vec::with_capacity(spec.batches);
        for b in 0..spec.batches {
            // The vertex region this batch concentrates on.
            let (lo, span) = match spec.kind {
                BatchKind::Bursty { .. } => {
                    (rng.gen_range(0..n), (n / 16).clamp(8.min(n), n.max(1)))
                }
                BatchKind::Clustered { .. } => block_region(b % clusters),
            };
            let cluster = b % clusters;
            let region_vertex = |rng: &mut ChaCha8Rng| -> VertexId {
                VertexId::from((lo + rng.gen_range(0..span)) % n)
            };
            let region_pair = |rng: &mut ChaCha8Rng| -> (VertexId, VertexId) {
                loop {
                    let u = region_vertex(rng);
                    let v = region_vertex(rng);
                    if u != v {
                        return (u, v);
                    }
                    // A span of 1 can never produce a distinct pair.
                    if span < 2 {
                        return (u, VertexId::from((u.index() + 1) % n));
                    }
                }
            };
            let mut ops: Vec<BatchOp> = Vec::with_capacity(spec.batch_size);
            // Flap links inserted in this batch, awaiting their cut.
            let mut pending_flaps: Vec<EdgeId> = Vec::new();
            let mut last_query: Option<BatchOp> = None;
            while ops.len() < spec.batch_size {
                let remaining = spec.batch_size - ops.len();
                // Flap cuts must land in this batch: flush when the budget
                // runs out, release early with some probability otherwise.
                if pending_flaps.len() >= remaining
                    || (!pending_flaps.is_empty() && rng.gen_range(0u32..1000) < 350)
                {
                    ops.push(BatchOp::Cut {
                        id: pending_flaps.remove(0),
                    });
                    continue;
                }
                if rng.gen_range(0u32..1000) < query_permille {
                    // Serving traffic repeats questions: reuse the previous
                    // query a quarter of the time so batches carry genuine
                    // duplicates for the engine to dedup.
                    let repeat = match last_query {
                        Some(prev) if rng.gen_range(0u32..4) == 0 => Some(prev),
                        _ => None,
                    };
                    let op = if let Some(prev) = repeat {
                        prev
                    } else if rng.gen_range(0u32..8) == 0 {
                        BatchOp::QueryForestWeight
                    } else {
                        let (u, mut v) = region_pair(&mut rng);
                        // Bursty traffic: half the connectivity probes cross
                        // out of the hotspot (is it still attached to the
                        // rest of the network?). Clustered traffic stays
                        // inside its tenant block, queries included.
                        if matches!(spec.kind, BatchKind::Bursty { .. })
                            && rng.gen_range(0u32..2) == 0
                        {
                            v = VertexId::from(rng.gen_range(0..n));
                            if v == u {
                                v = VertexId::from((u.index() + 1) % n);
                            }
                        }
                        BatchOp::QueryConnected { u, v }
                    };
                    last_query = Some(op);
                    ops.push(op);
                    continue;
                }
                // An update slot.
                let flap_permille = match spec.kind {
                    BatchKind::Bursty { flap_permille, .. } => flap_permille,
                    BatchKind::Clustered { .. } => 0,
                };
                // A new flap needs budget for its own link *and* cut on top
                // of every cut already owed — otherwise the batch could end
                // with an orphaned flap link whose cancelling cut never
                // lands (flap ids are not in `live`, so no later batch
                // would ever cut it).
                if remaining >= pending_flaps.len() + 2 && rng.gen_range(0u32..1000) < flap_permille
                {
                    let (u, v) = region_pair(&mut rng);
                    ops.push(BatchOp::Link {
                        u,
                        v,
                        weight: random_weight(&mut rng),
                    });
                    pending_flaps.push(EdgeId(next_id));
                    next_id += 1;
                    continue;
                }
                let do_insert = live[cluster].is_empty() || rng.gen_range(0u32..2) == 0;
                if do_insert {
                    let (u, v) = region_pair(&mut rng);
                    ops.push(BatchOp::Link {
                        u,
                        v,
                        weight: random_weight(&mut rng),
                    });
                    live[cluster_of(u)].push(EdgeId(next_id));
                    next_id += 1;
                } else {
                    let k = rng.gen_range(0..live[cluster].len());
                    let id = live[cluster].swap_remove(k);
                    ops.push(BatchOp::Cut { id });
                }
            }
            debug_assert!(
                pending_flaps.is_empty(),
                "a flap link's cancelling cut must land in its own batch"
            );
            batches.push(ops);
        }

        BatchStream {
            num_vertices: n,
            base_edges,
            batches,
        }
    }

    /// The base graph as one batch of links, in base-edge order — edge ids
    /// `0..len`, exactly what the stream's `Cut` ids assume was loaded
    /// before the first batch.
    pub fn base_ops(&self) -> Vec<BatchOp> {
        let link = |&(u, v, weight)| BatchOp::Link { u, v, weight };
        self.base_edges.iter().map(link).collect()
    }

    /// Number of batches.
    pub fn num_batches(&self) -> usize {
        self.batches.len()
    }

    /// Total operations across all batches.
    pub fn total_ops(&self) -> usize {
        self.batches.iter().map(Vec::len).sum()
    }

    /// `(updates, queries)` counts across all batches.
    pub fn count_ops(&self) -> (usize, usize) {
        let updates = self
            .batches
            .iter()
            .flatten()
            .filter(|op| op.is_update())
            .count();
        (updates, self.total_ops() - updates)
    }
}

/// One operation of a **multi-tenant** batched stream: a [`BatchOp`] tagged
/// with the tenant it belongs to. Vertex ids and edge ids inside the op are
/// **tenant-local**: vertices live in `0..tenant_n` and edge ids are the
/// sequential ids a dedicated per-tenant [`DynGraph`] would allocate — the
/// serving layer translates them into whatever shard hosts the tenant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TenantOp {
    /// The tenant this operation belongs to.
    pub tenant: TenantId,
    /// The operation, in the tenant's local vertex/edge-id spaces.
    pub op: BatchOp,
}

/// Specification of a multi-tenant batched stream.
///
/// The stream models a serving front-end shared by `tenants` independent
/// tenants, each owning a private `tenant_vertices`-vertex graph. Traffic
/// arrives in service batches of `batch_size` operations, assembled from
/// per-tenant **bursts** of `burst` consecutive operations; which tenant a
/// burst comes from follows a Zipf-like popularity distribution
/// (`zipf_permille / 1000` is the exponent: `0` = uniform, `1000` ≈ classic
/// Zipf where tenant 0 dominates) — the skewed tenant popularity of real
/// multi-tenant traffic. Each tenant's own traffic has the shape of `kind`
/// (bursty hotspots with flap pairs, or clustered blocks), generated by
/// [`BatchStream`] over the tenant's private graph.
#[derive(Clone, Copy, Debug)]
pub struct TenantStreamSpec {
    /// Number of tenants (ids `0..tenants`).
    pub tenants: usize,
    /// Vertices per tenant.
    pub tenant_vertices: usize,
    /// Base edges per tenant (present before the stream starts).
    pub tenant_edges: usize,
    /// Number of service batches.
    pub batches: usize,
    /// Operations per service batch (rounded down to a whole number of
    /// bursts).
    pub batch_size: usize,
    /// Consecutive operations drawn from one tenant at a time.
    pub burst: usize,
    /// Zipf exponent of tenant popularity, in permille.
    pub zipf_permille: u32,
    /// Shape of each tenant's own traffic.
    pub kind: BatchKind,
    /// RNG seed.
    pub seed: u64,
}

/// A generated multi-tenant stream: per-tenant base graphs plus a sequence
/// of service batches of tenant-tagged operations. Within each tenant the
/// operations (in stream order) are exactly a [`BatchStream`] over that
/// tenant's private graph, so per-tenant `Cut` ids are always live at their
/// position — provided every tenant's operations are applied in stream
/// order, which any per-tenant-order-preserving router guarantees.
#[derive(Clone, Debug)]
pub struct TenantStream {
    /// Vertices per tenant.
    pub tenant_vertices: usize,
    /// Per-tenant base edges (tenant-local endpoints, ids `0..len`).
    pub base_edges: Vec<Vec<(VertexId, VertexId, Weight)>>,
    /// The service batches, in order.
    pub batches: Vec<Vec<TenantOp>>,
}

impl TenantStream {
    /// Generate the stream described by `spec`.
    pub fn generate(spec: &TenantStreamSpec) -> Self {
        assert!(spec.tenants >= 1, "need at least one tenant");
        assert!(spec.burst >= 1, "bursts must carry at least one op");
        let mut rng = ChaCha8Rng::seed_from_u64(spec.seed ^ 0x7E4A_4711_5EED_00D1);
        let bursts_per_batch = (spec.batch_size / spec.burst).max(1);

        // Zipf-like popularity: weight of tenant t ∝ 1/(t+1)^alpha, scaled
        // to integers so the vendored RNG only needs integer ranges.
        let alpha = spec.zipf_permille as f64 / 1000.0;
        let weights: Vec<u64> = (0..spec.tenants)
            .map(|t| ((1.0 / (t as f64 + 1.0).powf(alpha)) * 1_000_000.0).max(1.0) as u64)
            .collect();
        let total_weight: u64 = weights.iter().sum();

        // Phase 1: sample the burst → tenant assignment, counting how many
        // bursts each tenant must supply.
        let mut assignment: Vec<Vec<usize>> = Vec::with_capacity(spec.batches);
        let mut bursts_needed = vec![0usize; spec.tenants];
        for _ in 0..spec.batches {
            let mut slots = Vec::with_capacity(bursts_per_batch);
            for _ in 0..bursts_per_batch {
                let mut draw = rng.gen_range(0..total_weight);
                let mut tenant = spec.tenants - 1;
                for (t, &w) in weights.iter().enumerate() {
                    if draw < w {
                        tenant = t;
                        break;
                    }
                    draw -= w;
                }
                slots.push(tenant);
                bursts_needed[tenant] += 1;
            }
            assignment.push(slots);
        }

        // Phase 2: each tenant generates exactly the bursts it owes, as a
        // private BatchStream over its own graph (burst = one sub-batch).
        let mut base_edges = Vec::with_capacity(spec.tenants);
        let mut pending: Vec<std::vec::IntoIter<Vec<BatchOp>>> = Vec::with_capacity(spec.tenants);
        for (t, &need) in bursts_needed.iter().enumerate() {
            let stream = BatchStream::generate(&BatchStreamSpec {
                base: GraphSpec::RandomSparse {
                    n: spec.tenant_vertices,
                    m: spec.tenant_edges,
                    seed: spec.seed ^ (0x9E37_79B9 * (t as u64 + 1)),
                },
                batches: need,
                batch_size: spec.burst,
                kind: spec.kind,
                seed: spec.seed ^ (0xC2B2_AE35 * (t as u64 + 1)),
            });
            base_edges.push(stream.base_edges);
            pending.push(stream.batches.into_iter());
        }

        // Phase 3: assemble the service batches in assignment order,
        // tagging every op with its tenant. Per-tenant op order is the
        // tenant's own stream order by construction.
        let batches = assignment
            .into_iter()
            .map(|slots| {
                let mut ops = Vec::with_capacity(slots.len() * spec.burst);
                for t in slots {
                    let burst = pending[t].next().expect("tenant owes this burst");
                    ops.extend(burst.into_iter().map(|op| TenantOp {
                        tenant: TenantId(t as u32),
                        op,
                    }));
                }
                ops
            })
            .collect();

        TenantStream {
            tenant_vertices: spec.tenant_vertices,
            base_edges,
            batches,
        }
    }

    /// Number of tenants.
    pub fn num_tenants(&self) -> usize {
        self.base_edges.len()
    }

    /// Number of service batches.
    pub fn num_batches(&self) -> usize {
        self.batches.len()
    }

    /// Total operations across all service batches.
    pub fn total_ops(&self) -> usize {
        self.batches.iter().map(Vec::len).sum()
    }

    /// The per-tenant base graphs as one tenant-tagged link batch (tenant
    /// order, then base-edge order) — tenant-local edge ids `0..len` per
    /// tenant, exactly what the per-tenant `Cut` ids of the stream assume
    /// was loaded before the first batch.
    pub fn base_ops(&self) -> Vec<TenantOp> {
        let mut ops = Vec::new();
        for (t, edges) in self.base_edges.iter().enumerate() {
            ops.extend(edges.iter().map(|&(u, v, weight)| TenantOp {
                tenant: TenantId(t as u32),
                op: BatchOp::Link { u, v, weight },
            }));
        }
        ops
    }

    /// Per-tenant operation counts across all batches (the popularity
    /// histogram the zipf skew produces).
    pub fn ops_per_tenant(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.num_tenants()];
        for op in self.batches.iter().flatten() {
            counts[op.tenant.index()] += 1;
        }
        counts
    }
}

fn random_pair<R: Rng>(rng: &mut R, n: usize) -> (VertexId, VertexId) {
    let u = rng.gen_range(0..n);
    let mut v = rng.gen_range(0..n - 1);
    if v >= u {
        v += 1;
    }
    (VertexId::from(u), VertexId::from(v))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_sparse_has_requested_size() {
        let spec = GraphSpec::RandomSparse {
            n: 100,
            m: 250,
            seed: 1,
        };
        let g = spec.build();
        assert_eq!(g.num_vertices(), 100);
        assert_eq!(g.num_edges(), 250);
        assert!(g.edges().all(|e| e.u != e.v));
    }

    #[test]
    fn generators_are_deterministic() {
        let spec = GraphSpec::RandomSparse {
            n: 50,
            m: 80,
            seed: 7,
        };
        assert_eq!(spec.edges(), spec.edges());
        let sspec = UpdateStreamSpec {
            base: spec,
            ops: 200,
            kind: StreamKind::Mixed {
                insert_permille: 500,
            },
            seed: 3,
        };
        let a = UpdateStream::generate(&sspec);
        let b = UpdateStream::generate(&sspec);
        assert_eq!(a.ops, b.ops);
    }

    #[test]
    fn grid_edge_count_is_exact() {
        let spec = GraphSpec::Grid {
            rows: 4,
            cols: 5,
            seed: 0,
        };
        let g = spec.build();
        assert_eq!(g.num_vertices(), 20);
        // rows*(cols-1) horizontal + (rows-1)*cols vertical
        assert_eq!(g.num_edges(), 4 * 4 + 3 * 5);
    }

    #[test]
    fn preferential_attachment_is_connected_for_attach_ge_1() {
        let spec = GraphSpec::PreferentialAttachment {
            n: 64,
            attach: 2,
            seed: 11,
        };
        let g = spec.build();
        let msf = crate::kruskal::kruskal_msf(&g);
        assert_eq!(msf.components, 1);
        assert_eq!(msf.edges.len(), 63);
    }

    #[test]
    fn mixed_stream_ops_are_replayable() {
        let sspec = UpdateStreamSpec {
            base: GraphSpec::RandomSparse {
                n: 40,
                m: 60,
                seed: 5,
            },
            ops: 300,
            kind: StreamKind::Mixed {
                insert_permille: 450,
            },
            seed: 9,
        };
        let stream = UpdateStream::generate(&sspec);
        assert_eq!(stream.len(), 300);
        // Replaying must not panic (all Delete ids refer to live edges) and
        // ends with a consistent mirror.
        let mut steps = 0usize;
        let g = stream.replay_with(|_, _| steps += 1);
        assert_eq!(steps, 301);
        assert!(g.num_edges() > 0);
    }

    #[test]
    fn sliding_window_bounds_live_edges() {
        let sspec = UpdateStreamSpec {
            base: GraphSpec::RandomSparse {
                n: 30,
                m: 10,
                seed: 2,
            },
            ops: 200,
            kind: StreamKind::SlidingWindow { window: 25 },
            seed: 4,
        };
        let stream = UpdateStream::generate(&sspec);
        let mut max_live = 0usize;
        let g = stream.replay_with(|g, _| max_live = max_live.max(g.num_edges()));
        assert!(max_live <= 25 + 1);
        assert!(g.num_edges() <= 25);
    }

    /// Replay a batch stream against a [`DynGraph`] mirror the way the
    /// batch engine does (every Link applied, Cuts validated against
    /// liveness), returning the mirror.
    fn replay_batches(stream: &BatchStream) -> DynGraph {
        let mut g = DynGraph::new(stream.num_vertices);
        for &(u, v, w) in &stream.base_edges {
            g.insert_edge(u, v, w);
        }
        for batch in &stream.batches {
            for op in batch {
                match *op {
                    BatchOp::Link { u, v, weight } => {
                        g.insert_edge(u, v, weight);
                    }
                    BatchOp::Cut { id } => {
                        assert!(g.is_live(id), "generated Cut of a dead edge {id:?}");
                        g.delete_edge(id);
                    }
                    BatchOp::QueryConnected { u, v } => {
                        assert!(u != v, "self-connectivity probes are uninteresting");
                        assert!(u.index() < g.num_vertices() && v.index() < g.num_vertices());
                    }
                    BatchOp::QueryForestWeight => {}
                }
            }
        }
        g
    }

    #[test]
    fn bursty_batches_are_replayable_and_deterministic() {
        let spec = BatchStreamSpec {
            base: GraphSpec::RandomSparse {
                n: 64,
                m: 128,
                seed: 5,
            },
            batches: 12,
            batch_size: 40,
            kind: BatchKind::Bursty {
                query_permille: 500,
                flap_permille: 300,
            },
            seed: 17,
        };
        let stream = BatchStream::generate(&spec);
        assert_eq!(stream.num_batches(), 12);
        assert_eq!(stream.total_ops(), 12 * 40);
        assert_eq!(stream.batches, BatchStream::generate(&spec).batches);
        let (updates, queries) = stream.count_ops();
        assert!(updates > 0 && queries > 0);
        replay_batches(&stream);
    }

    #[test]
    fn bursty_batches_contain_flap_pairs_and_duplicate_queries() {
        let spec = BatchStreamSpec {
            base: GraphSpec::RandomSparse {
                n: 100,
                m: 200,
                seed: 2,
            },
            batches: 8,
            batch_size: 64,
            kind: BatchKind::Bursty {
                query_permille: 400,
                flap_permille: 400,
            },
            seed: 23,
        };
        let stream = BatchStream::generate(&spec);
        // Flap pair: a Link whose id is Cut later in the same batch. Ids
        // are sequential, so reconstruct them per batch.
        let mut next_id = stream.base_edges.len() as u32;
        let mut flap_pairs = 0usize;
        let mut duplicate_queries = 0usize;
        for batch in &stream.batches {
            let mut born_here: Vec<EdgeId> = Vec::new();
            let mut seen_queries: Vec<BatchOp> = Vec::new();
            for op in batch {
                match *op {
                    BatchOp::Link { .. } => {
                        born_here.push(EdgeId(next_id));
                        next_id += 1;
                    }
                    BatchOp::Cut { id } => {
                        if born_here.contains(&id) {
                            flap_pairs += 1;
                        }
                    }
                    q => {
                        if seen_queries.contains(&q) {
                            duplicate_queries += 1;
                        }
                        seen_queries.push(q);
                    }
                }
            }
        }
        assert!(flap_pairs > 0, "bursty stream generated no flap pairs");
        assert!(
            duplicate_queries > 0,
            "bursty stream generated no duplicate queries"
        );
        replay_batches(&stream);
    }

    #[test]
    fn flap_heavy_tiny_batches_never_orphan_a_flap_link() {
        // Maximal flap pressure against a tiny budget: every update slot
        // wants to start a flap, and the batch barely fits one pair. The
        // generator must still land every cancelling cut inside its own
        // batch (checked by the generate-time assertion) and stay
        // replayable.
        for batch_size in [2usize, 3, 5, 8] {
            let stream = BatchStream::generate(&BatchStreamSpec {
                base: GraphSpec::RandomSparse {
                    n: 32,
                    m: 20,
                    seed: 3,
                },
                batches: 40,
                batch_size,
                kind: BatchKind::Bursty {
                    query_permille: 100,
                    flap_permille: 1000,
                },
                seed: 77,
            });
            replay_batches(&stream);
        }
    }

    #[test]
    fn clustered_batches_stay_inside_their_block() {
        let n = 96usize;
        let clusters = 4usize;
        let spec = BatchStreamSpec {
            base: GraphSpec::RandomSparse { n, m: 150, seed: 9 },
            batches: 8,
            batch_size: 32,
            kind: BatchKind::Clustered {
                clusters,
                query_permille: 300,
            },
            seed: 31,
        };
        let stream = BatchStream::generate(&spec);
        let block = n.div_ceil(clusters);
        // id → endpoints, mirroring the sequential allocation (base edges
        // first, then every Link in stream order).
        let mut endpoints: Vec<(usize, usize)> = stream
            .base_edges
            .iter()
            .map(|&(u, v, _)| (u.index(), v.index()))
            .collect();
        for (b, batch) in stream.batches.iter().enumerate() {
            let c = b % clusters;
            let (lo, hi) = (c * block, ((c + 1) * block).min(n));
            let in_block = |v: usize| (lo..hi).contains(&v);
            for op in batch {
                match *op {
                    BatchOp::Link { u, v, .. } => {
                        assert!(
                            in_block(u.index()) && in_block(v.index()),
                            "batch {b} linked outside its cluster block"
                        );
                        endpoints.push((u.index(), v.index()));
                    }
                    BatchOp::QueryConnected { u, v } => {
                        assert!(
                            in_block(u.index()) && in_block(v.index()),
                            "batch {b} queried outside its cluster block"
                        );
                    }
                    BatchOp::Cut { id } => {
                        let (u, v) = endpoints[id.index()];
                        assert!(
                            in_block(u) && in_block(v),
                            "batch {b} cut an edge outside its cluster block"
                        );
                    }
                    BatchOp::QueryForestWeight => {}
                }
            }
        }
        replay_batches(&stream);
    }

    fn tenant_spec() -> TenantStreamSpec {
        TenantStreamSpec {
            tenants: 5,
            tenant_vertices: 32,
            tenant_edges: 48,
            batches: 10,
            batch_size: 64,
            burst: 16,
            zipf_permille: 900,
            kind: BatchKind::Bursty {
                query_permille: 400,
                flap_permille: 300,
            },
            seed: 51,
        }
    }

    #[test]
    fn tenant_stream_is_deterministic_and_exactly_sized() {
        let spec = tenant_spec();
        let a = TenantStream::generate(&spec);
        let b = TenantStream::generate(&spec);
        assert_eq!(a.batches, b.batches);
        assert_eq!(a.base_edges, b.base_edges);
        assert_eq!(a.num_tenants(), 5);
        assert_eq!(a.num_batches(), 10);
        // Every service batch is a whole number of bursts.
        for batch in &a.batches {
            assert_eq!(batch.len(), (spec.batch_size / spec.burst) * spec.burst);
        }
        assert_eq!(a.total_ops(), a.ops_per_tenant().iter().sum::<usize>());
    }

    #[test]
    fn tenant_popularity_is_skewed_by_zipf() {
        let mut spec = tenant_spec();
        spec.batches = 40;
        spec.zipf_permille = 1000;
        let skewed = TenantStream::generate(&spec);
        let counts = skewed.ops_per_tenant();
        // Under Zipf-1 the head tenant dominates the tail tenant clearly.
        assert!(
            counts[0] > 2 * counts[4],
            "zipf skew missing: head {} vs tail {}",
            counts[0],
            counts[4]
        );
        // Uniform popularity spreads far more evenly.
        spec.zipf_permille = 0;
        let uniform = TenantStream::generate(&spec);
        let u = uniform.ops_per_tenant();
        let (min, max) = (u.iter().min().unwrap(), u.iter().max().unwrap());
        assert!(
            max < &(2 * min),
            "uniform popularity came out skewed: {u:?}"
        );
    }

    #[test]
    fn tenant_streams_are_replayable_per_tenant() {
        // Each tenant's filtered op sequence (after its base edges) must be
        // a valid batch stream over the tenant's private graph: Cut ids
        // live, endpoints in range — the property the serving layer's
        // per-tenant order preservation relies on.
        for kind in [
            BatchKind::Bursty {
                query_permille: 400,
                flap_permille: 500,
            },
            BatchKind::Clustered {
                clusters: 2,
                query_permille: 300,
            },
        ] {
            let mut spec = tenant_spec();
            spec.kind = kind;
            let stream = TenantStream::generate(&spec);
            let mut mirrors: Vec<DynGraph> = stream
                .base_edges
                .iter()
                .map(|edges| {
                    let mut g = DynGraph::new(stream.tenant_vertices);
                    for &(u, v, w) in edges {
                        g.insert_edge(u, v, w);
                    }
                    g
                })
                .collect();
            for op in stream.batches.iter().flatten() {
                let g = &mut mirrors[op.tenant.index()];
                match op.op {
                    BatchOp::Link { u, v, weight } => {
                        assert!(u != v && u.index() < g.num_vertices());
                        g.insert_edge(u, v, weight);
                    }
                    BatchOp::Cut { id } => {
                        assert!(g.is_live(id), "tenant {:?} cut a dead edge", op.tenant);
                        g.delete_edge(id);
                    }
                    BatchOp::QueryConnected { u, v } => {
                        assert!(u.index() < g.num_vertices() && v.index() < g.num_vertices());
                    }
                    BatchOp::QueryForestWeight => {}
                }
            }
        }
    }

    #[test]
    fn tenant_base_ops_cover_every_tenant_in_order() {
        let stream = TenantStream::generate(&tenant_spec());
        let base = stream.base_ops();
        let total: usize = stream.base_edges.iter().map(Vec::len).sum();
        assert_eq!(base.len(), total);
        // Tenant-major order, links only.
        let mut last_tenant = 0u32;
        for op in &base {
            assert!(op.tenant.0 >= last_tenant);
            last_tenant = op.tenant.0;
            assert!(matches!(op.op, BatchOp::Link { .. }));
        }
    }

    #[test]
    fn failure_stream_only_deletes_base_edges() {
        let sspec = UpdateStreamSpec {
            base: GraphSpec::Grid {
                rows: 3,
                cols: 3,
                seed: 1,
            },
            ops: 1000,
            kind: StreamKind::Failures,
            seed: 8,
        };
        let stream = UpdateStream::generate(&sspec);
        assert_eq!(stream.len(), 12); // grid has 12 edges; stream truncates
        assert!(stream
            .ops
            .iter()
            .all(|op| matches!(op, UpdateOp::Delete { .. })));
        let g = stream.replay_with(|_, _| ());
        assert_eq!(g.num_edges(), 0);
    }
}
