//! The chunked Euler-tour forest — the paper's central data structure.
//!
//! One [`ChunkedEulerForest`] instance stores, for the dynamic graph it is
//! given:
//!
//! * the **graph edges** (adjacency lists keyed by vertex, each a span of
//!   one pooled store; each entry carries the edge's weight, id and far
//!   endpoint inline, so the `O(K)` edge scans never load an edge record),
//! * the **Euler tour of every tree** of the maintained spanning forest,
//!   represented as a cyclic list of *vertex occurrences* (Section 2.1 /
//!   Lemma 2.1) partitioned into **chunks** of `Θ(K)` elements
//!   (Invariant 1). A vertex with no incident edge holds no occurrence and
//!   no chunk: its one-occurrence tour is created when its first edge
//!   arrives and released at the end of the update that removes its last
//!   edge,
//! * one designated **principal copy** per vertex that has an edge
//!   (Section 2.2),
//! * a **chunk id** (`id_c < J`) for every chunk of a multi-chunk list
//!   and its **CAdj row** (minimum-weight edge between chunk pairs), both
//!   from one chunk-id table that stores a chunk's rows at its id
//!   (Sections 2.2 and 6); the rows are aggregated per list by a balanced
//!   **list sum data structure** (here a splay-based sequence tree over
//!   the chunks — an amortised stand-in for the paper's 2-3 tree;
//!   PAPER.md lists the substitutions). The paper's second aggregate, the
//!   bits of which chunk ids a list holds, is not kept: the `γ` search
//!   marks one list's chunk ids by walking its tree,
//! * the **surgical operations** (split / join / reroot of tours) that edge
//!   insertions and deletions reduce to, and
//! * the **minimum-weight-replacement (MWR) search** of Lemma 2.4 / 3.3.
//!
//! The structure is deliberately *degree-agnostic*: it is correct for any
//! vertex degree; the `K ≤ n_c ≤ 3K` bound of Invariant 1 is only guaranteed
//! when the caller bounds the degree (the paper does so via Frederickson's
//! reduction, which is not implemented; PAPER.md, substitution 4).
//!
//! Cost accounting: every non-trivial primitive charges its cost to an
//! embedded [`CostMeter`] as EREW PRAM rounds (Theorem 3.1 accounting)
//! whose work is the primitive's sequential cost, so the summed work is
//! also the sequential time of Theorem 1.2. Costs are charged by formula
//! next to the code they cost: logarithmic depths come from one function,
//! `log_depth`, and the three minimum scans over a chunk's adjacency
//! (short-list MWR, `γ` witness, pair rescan) compute and charge in one
//! call, `scan_adjacent_min`.

mod arena;
mod cadj;
mod checks;
mod edges;
#[cfg(test)]
mod events;
mod mwr;
mod splay;
mod surgery;

#[cfg(test)]
mod tests;

use pdmsf_graph::arena::{edges_where, sorted_ids_where, EdgeSlotMap};
use pdmsf_graph::{Edge, EdgeId, VertexId, WKey, Weight};
use pdmsf_pram::kernels::log2_ceil;
use pdmsf_pram::CostMeter;

pub(crate) use arena::{ChunkArena, RowBank, SpanStore};

/// Sentinel index ("null pointer") used by every arena in this module.
pub(crate) const NONE: u32 = u32::MAX;

/// Per-edge bookkeeping record: the edge itself plus, when the edge is a
/// forest (tree) edge, the two Euler-tour arc tails (`NONE` otherwise).
///
/// The records live in one flat [`EdgeSlotMap`]: edge data and arc
/// bookkeeping are fetched with a single handle resolution, and
/// `is_tree_edge` is a field test.
#[derive(Clone, Copy, Debug)]
pub struct EdgeRec {
    /// The registered graph edge.
    pub edge: Edge,
    /// Tail occurrence of the `u -> v` arc (`NONE` when not a tree edge).
    pub fwd: u32,
    /// Tail occurrence of the `v -> u` arc (`NONE` when not a tree edge).
    pub bwd: u32,
}

/// One adjacency-list entry of vertex `v`: the incident edge's key and its
/// far endpoint, stored inline (16 bytes). Row rebuilds, pair recomputes
/// and MWR scans read only these entries; the full [`Edge`] is looked up by
/// id where one is returned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct AdjEntry {
    pub(crate) weight: Weight,
    pub(crate) id: EdgeId,
    /// The endpoint other than `v` (`v` itself for a self-loop).
    pub(crate) other: VertexId,
}

impl AdjEntry {
    /// The entry of `e` in the adjacency list of its endpoint `v`.
    #[inline]
    pub(crate) fn new(e: Edge, v: VertexId) -> Self {
        AdjEntry {
            weight: e.weight,
            id: e.id,
            other: e.other(v),
        }
    }

    #[inline]
    pub(crate) fn key(self) -> WKey {
        WKey::new(self.weight, self.id)
    }
}

/// Parallel depth of a tournament tree over `n` items, or of a walk up a
/// balanced tree with `n` nodes: `⌈log₂ max(n, 2)⌉ + 1` rounds.
#[inline]
pub(crate) fn log_depth(n: usize) -> u64 {
    log2_ceil(n.max(2)) + 1
}

/// Aggregate statistics used by tests and the benchmark harness.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ForestStats {
    /// Number of live chunks.
    pub chunks: usize,
    /// Number of allocated chunk ids (`J` in the paper's terms).
    pub slots: usize,
    /// Number of live occurrences across all Euler tours.
    pub occurrences: usize,
    /// Largest `n_c` over all chunks.
    pub max_nc: usize,
    /// Number of live graph edges.
    pub edges: usize,
    /// Configured chunk parameter `K`.
    pub k: usize,
}

/// The chunked Euler-tour forest (see module docs).
pub struct ChunkedEulerForest {
    /// Chunk-size parameter `K`.
    pub(crate) k: usize,
    /// EREW cost meter.
    pub meter: CostMeter,

    // ---- graph + arc storage (one flat record per edge; each vertex's
    // adjacency entries are one span of a pooled store) ----
    pub(crate) edges: EdgeSlotMap<EdgeRec>,
    pub(crate) adj: SpanStore<AdjEntry>,

    // ---- occurrences (per-vertex spans of occurrence ids; the occurrence
    // *records* live in the flat banks of [`ChunkArena`]) ----
    pub(crate) vertex_occs: SpanStore<u32>,
    /// Each vertex's principal copy (`NONE` for a vertex with no edge).
    pub(crate) principal: Vec<u32>,
    /// Chunk holding each vertex's principal copy (cache of the principal
    /// occurrence's `occ_chunk` bank entry, so the scan loops resolve
    /// "which chunk is the other endpoint in" with one load instead of a
    /// pointer chain; `NONE` for a vertex with no edge).
    pub(crate) vertex_chunk: Vec<u32>,

    // ---- chunks + occurrence banks / LSDS (structure-of-arrays, see
    // [`arena`]) ----
    pub(crate) chunks: ChunkArena,
    /// The chunk-id table: hands out the ids and stores each id's `CAdj`
    /// rows, so `chunks.slot[c]` addresses chunk `c`'s rows.
    pub(crate) rows: RowBank,

    // ---- scratch buffers reused by the CAdj upkeep and the γ search: the
    // fresh rows of `rebuild_rows` (one buffer per chunk of a split pair),
    // the dirty chunks a `sweep_other_rows` hands to
    // `refresh_entries_for_chunks`, the changed entries of a link splice,
    // the order of every subtree walk (`collect_subtree`) and the γ
    // search's marks of one list's chunk ids ----
    pub(crate) scratch_row: Vec<WKey>,
    pub(crate) scratch_row2: Vec<WKey>,
    pub(crate) scratch_order: Vec<u32>,
    pub(crate) scratch_dirty: Vec<u32>,
    pub(crate) scratch_slots: Vec<u32>,
    pub(crate) scratch_marks: Vec<bool>,

    /// Chunks touched by the current operation, pending Invariant-1 fix-up
    /// (a stack; membership is the `queued` flag on each chunk).
    pub(crate) touched: Vec<u32>,
    /// Slotted chunks whose `agg` awaits recomputation (membership is the
    /// `stale` flag; see [`splay`]). Empty between public operations.
    pub(crate) stale: Vec<u32>,
}

impl ChunkedEulerForest {
    /// A forest over `n` isolated vertices with chunk parameter `k`; every
    /// primitive runs on the calling thread. No vertex holds an occurrence
    /// or a chunk yet.
    pub fn new(n: usize, k: usize) -> Self {
        ChunkedEulerForest {
            k: k.max(2),
            meter: CostMeter::new(),
            edges: EdgeSlotMap::default(),
            adj: SpanStore::with_lists(n),
            vertex_occs: SpanStore::with_lists(n),
            principal: vec![NONE; n],
            vertex_chunk: vec![NONE; n],
            chunks: ChunkArena::default(),
            rows: RowBank::default(),
            scratch_row: Vec::new(),
            scratch_row2: Vec::new(),
            scratch_order: Vec::new(),
            scratch_dirty: Vec::new(),
            scratch_slots: Vec::new(),
            scratch_marks: Vec::new(),
            touched: Vec::new(),
            stale: Vec::new(),
        }
    }

    /// Chunk parameter `K`.
    pub fn chunk_parameter(&self) -> usize {
        self.k
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.principal.len()
    }

    /// Number of live graph edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Give vertex `v` its one-occurrence tour, a slotless single-chunk
    /// list, if it has none (it has no edge yet). Charges nothing: the
    /// tour is what an isolated vertex's tour always was.
    pub(crate) fn open_tour(&mut self, v: VertexId) {
        if self.principal[v.index()] != NONE {
            return;
        }
        let c = self.chunks.alloc();
        let o = self.alloc_occ(v);
        self.chunks.insert_occ(c, 0, o);
        self.chunks.set_occ_principal(o, true);
        self.principal[v.index()] = o;
        self.vertex_chunk[v.index()] = c;
    }

    /// Release the tour of each endpoint of `e` that has no edge left (its
    /// one occurrence and that occurrence's chunk). Runs at the end of the
    /// update that deleted `e`, when such a tour is a one-occurrence,
    /// slotless single-chunk list; charges nothing.
    pub(crate) fn close_edgeless_tours(&mut self, e: Edge) {
        for v in [e.u, e.v] {
            let o = self.principal[v.index()];
            if o == NONE || self.degree(v) > 0 {
                continue;
            }
            let c = self.vertex_chunk[v.index()];
            debug_assert_eq!(self.vertex_occs.len(v.index()), 1);
            debug_assert_eq!(self.chunks.occs[c as usize], [o]);
            debug_assert!(self.list_is_single_chunk(c) && self.chunks.slot[c as usize] == NONE);
            self.free_occ(o);
            self.chunks.free(c);
            self.principal[v.index()] = NONE;
            self.vertex_chunk[v.index()] = NONE;
        }
    }

    /// Current structural statistics.
    pub fn stats(&self) -> ForestStats {
        let mut chunks = 0;
        let mut occurrences = 0;
        let mut max_nc = 0;
        for c in 0..self.chunks.len() as u32 {
            if self.chunks.alive(c) {
                chunks += 1;
                occurrences += self.chunks.occs[c as usize].len();
                max_nc = max_nc.max(self.chunks.nc(c));
            }
        }
        ForestStats {
            chunks,
            slots: self.rows.live(),
            occurrences,
            max_nc,
            edges: self.edges.len(),
            k: self.k,
        }
    }

    // ---- arena helpers -------------------------------------------------

    pub(crate) fn alloc_occ(&mut self, v: VertexId) -> u32 {
        let vpos = self.vertex_occs.len(v.index()) as u32;
        let id = self.chunks.occ_alloc(v, vpos);
        self.vertex_occs.push(v.index(), id);
        id
    }

    pub(crate) fn free_occ(&mut self, o: u32) {
        let v = self.chunks.occ_vert(o);
        let vpos = self.chunks.occ_vpos[o as usize] as usize;
        // Swap-remove it from its vertex's list, fixing the moved entry.
        self.vertex_occs.swap_remove(v.index(), vpos);
        if let Some(&moved) = self.vertex_occs.list(v.index()).get(vpos) {
            self.chunks.occ_vpos[moved as usize] = vpos as u32;
        }
        self.chunks.occ_release(o);
    }

    /// Queue chunk `c` for Invariant-1 fix-up (idempotent).
    pub(crate) fn touch(&mut self, c: u32) {
        if !self.chunks.queued(c) {
            self.chunks.set_queued(c, true);
            self.touched.push(c);
        }
    }

    // ---- cost charging -------------------------------------------------

    /// Charge a primitive whose sequential cost is `seq_work` and whose EREW
    /// parallelisation (per the paper's Lemmas 3.1-3.3) takes `par_depth`
    /// rounds on `par_procs` processors: `seq_work` is the round's work.
    pub(crate) fn charge(&mut self, seq_work: u64, par_depth: u64, par_procs: u64) {
        self.meter
            .round(par_procs.max(1), par_depth.max(1), seq_work.max(1))
    }

    /// The minimum key among the edges adjacent to chunk `c`'s principal
    /// copies whose far endpoint passes `accept` (`∞` if none), charged as
    /// the tournament-tree scan of Lemma 3.1: `scanned + extra_work` work,
    /// [`log_depth`]`(scanned)` depth, one processor per scanned edge.
    pub(crate) fn scan_adjacent_min(
        &mut self,
        c: u32,
        extra_work: u64,
        accept: impl Fn(&Self, VertexId) -> bool,
    ) -> WKey {
        let mut best = WKey::PLUS_INF;
        let mut scanned = 0u64;
        for &o in &self.chunks.occs[c as usize] {
            if !self.chunks.occ_principal(o) {
                continue;
            }
            let adj = self.adj.list(self.chunks.occ_vert(o).index());
            scanned += adj.len() as u64;
            for &a in adj {
                let key = a.key();
                if key < best && accept(self, a.other) {
                    best = key;
                }
            }
        }
        self.charge(scanned + extra_work, log_depth(scanned as usize), scanned);
        best
    }

    /// Degree of a vertex in the maintained graph (a self-loop counts
    /// once).
    pub(crate) fn degree(&self, v: VertexId) -> u32 {
        self.adj.len(v.index()) as u32
    }

    /// Whether `u` and `v` lie in one tree of the forest: `u == v`, or both
    /// hold a tour and their principal copies' chunks lie in one list (a
    /// vertex with no edge holds no tour). Read-only: the two root walks do
    /// not splay, so a query costs the depth of the list's tree.
    pub(crate) fn connected(&self, u: VertexId, v: VertexId) -> bool {
        let (cu, cv) = (self.vertex_chunk[u.index()], self.vertex_chunk[v.index()]);
        u == v || (cu != NONE && cv != NONE && self.tree_root(cu) == self.tree_root(cv))
    }

    /// The current forest (tree) edges, sorted by id.
    pub fn tree_edges(&self) -> Vec<Edge> {
        edges_where(&self.edges, |r| r.fwd != NONE, |r| r.edge)
    }

    /// The ids of the current forest (tree) edges, sorted.
    pub fn tree_edge_ids(&self) -> Vec<EdgeId> {
        sorted_ids_where(&self.edges, |r| r.fwd != NONE)
    }
}
