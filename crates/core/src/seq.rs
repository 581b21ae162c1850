//! The dynamic MSF structure of Theorems 1.2 and 3.1.
//!
//! [`SeqDynamicMsf`] combines the chunked Euler-tour forest
//! ([`crate::forest::ChunkedEulerForest`]) with a Sleator–Tarjan link-cut
//! tree (one "heaviest edge on the `u`–`v` path" query per insertion, which
//! also tells the insertion whether `u` and `v` are connected) and the usual
//! forest bookkeeping. Tree-edge membership needs no map of its own — it is
//! a field of the per-edge record. A connectivity query reads the Euler-tour
//! lists alone: two vertices are connected iff their principal copies lie in
//! one list, which two read-only walks to the list's root decide.
//!
//! The structure is built from `(n, K)` alone
//! ([`SeqDynamicMsf::with_chunk_parameter`]). Every primitive Section 3
//! parallelises — tournament-tree row rebuilds (Lemma 3.1), per-entry LSDS
//! trees `S_j` (Lemma 3.2), the `γ`/MWR search (Lemma 3.3) — is charged to
//! the meter with its EREW depth, processor count and work, where the work
//! is the primitive's sequential cost. The paper reads this one structure
//! at two chunk parameters:
//!
//! * **EREW PRAM** (Theorem 3.1 / 1.1): with `K = sqrt n`
//!   ([`default_parallel_k`]) the meter reports the `O(log n)` depth,
//!   `O(sqrt n)` processors and `O(sqrt n log n)` work the theorem bounds.
//! * **Sequential** (Theorem 1.2, [`SeqDynamicMsf::new`]): with
//!   `K = Θ(sqrt(n log n))` ([`default_sequential_k`]) the metered work,
//!   which is the sequential time, is `O(J log J + K + log n) =
//!   O(sqrt(n log n))` per update on sparse graphs.
//!
//! Every primitive runs on the calling thread. The serving engines hold
//! the structure at the sequential `K`: without `sqrt n` processors to run
//! the `O(J)` row scans in `O(log J)` depth, the sequential trade-off is
//! the faster one.

use crate::forest::{log_depth, ChunkedEulerForest, ForestStats};
use pdmsf_dyntree::LinkCutForest;
use pdmsf_graph::{kruskal_msf, DynGraph, DynamicMsf, Edge, EdgeId, MsfDelta, VertexId, WKey};
use pdmsf_pram::{CostMeter, CostReport, ExecMode};

/// The paper's default sequential chunk parameter `K = sqrt(n log n)`,
/// clamped to a small minimum so tiny graphs stay well-formed.
pub fn default_sequential_k(n: usize) -> usize {
    let n = n.max(2) as f64;
    (n * n.log2()).sqrt().ceil() as usize
}

/// The paper's parallel chunk parameter `K = sqrt(n)`.
pub fn default_parallel_k(n: usize) -> usize {
    (n.max(2) as f64).sqrt().ceil() as usize
}

/// Worst-case deterministic dynamic minimum spanning forest (Theorems 1.2
/// and 3.1; see the module docs).
pub struct SeqDynamicMsf {
    forest: ChunkedEulerForest,
    lct: LinkCutForest,
    forest_weight: i128,
    last_op: CostReport,
}

impl SeqDynamicMsf {
    /// A structure over `n` isolated vertices with the sequential chunk
    /// parameter `K = sqrt(n log n)` — the structure every engine holds.
    pub fn new(n: usize) -> Self {
        Self::with_chunk_parameter(n, default_sequential_k(n))
    }

    /// A structure over `n` isolated vertices with chunk parameter `k`
    /// (Theorem 3.1's tables use [`default_parallel_k`]).
    pub fn with_chunk_parameter(n: usize, k: usize) -> Self {
        SeqDynamicMsf {
            forest: ChunkedEulerForest::new(n, k),
            lct: LinkCutForest::new(n),
            forest_weight: 0,
            last_op: CostReport::default(),
        }
    }

    /// A structure over the vertices and live edges of `graph`, at chunk
    /// parameter `k` (how a checkpoint, which holds only the graph,
    /// restores). [`kruskal_msf`] picks the forest, which
    /// is unique under `WKey` order. A traversal of each tree then
    /// registers and links every tree edge as it is discovered, so each
    /// link attaches a one-vertex tour and takes the splice path; the
    /// non-tree edges are registered after. Stale aggregates are
    /// recomputed once at the end, and the meter starts fresh.
    ///
    /// The forest and every future answer and delta are those of any
    /// structure holding the same edges. The chunking is not (Invariant 1
    /// admits any), so later meter charges can differ.
    pub fn from_graph(graph: &DynGraph, k: usize) -> Self {
        let n = graph.num_vertices();
        let mut s = Self::with_chunk_parameter(n, k);
        let mut tree_adj: Vec<Vec<Edge>> = vec![Vec::new(); n];
        for id in kruskal_msf(graph).edges {
            let e = graph.edge_unchecked(id);
            tree_adj[e.u.index()].push(e);
            tree_adj[e.v.index()].push(e);
        }
        let mut seen = vec![false; n];
        let mut stack = Vec::new();
        for root in 0..n {
            if seen[root] {
                continue;
            }
            seen[root] = true;
            stack.push(VertexId::from(root));
            while let Some(x) = stack.pop() {
                for &e in &tree_adj[x.index()] {
                    let y = e.other(x);
                    if !seen[y.index()] {
                        seen[y.index()] = true;
                        s.forest.insert_graph_edge(e);
                        s.add_forest_edge(e);
                        stack.push(y);
                    }
                }
            }
        }
        for e in graph.edges() {
            if !s.forest.has_edge(e.id) {
                s.forest.insert_graph_edge(e);
            }
        }
        s.forest.recompute_stale();
        s.forest.meter = CostMeter::new();
        s
    }

    /// The cost meter accumulating per-update depth / work / processors.
    pub fn meter(&self) -> &CostMeter {
        &self.forest.meter
    }

    /// Cost of the most recent `insert` / `delete`.
    pub fn last_op_cost(&self) -> CostReport {
        self.last_op
    }

    /// Structural statistics of the underlying chunked forest.
    pub fn forest_stats(&self) -> ForestStats {
        self.forest.stats()
    }

    /// The chunk parameter `K` in use.
    pub fn chunk_parameter(&self) -> usize {
        self.forest.chunk_parameter()
    }

    /// The kernel execution mode: always [`ExecMode::Simulated`] (every
    /// primitive runs on the calling thread).
    pub fn execution_mode(&self) -> ExecMode {
        ExecMode::Simulated
    }

    /// Access to the underlying chunked Euler-tour forest (read-only).
    pub fn forest(&self) -> &ChunkedEulerForest {
        &self.forest
    }

    /// Validate every internal invariant (test-only helper, `O(n·m)`).
    pub fn validate(&self) {
        // Each Euler-tour tree edge cuts from a copy of the link-cut tree by
        // its endpoints, with its own key, and the copy ends empty: the two
        // trees hold the same edges between the same endpoints.
        let edges = self.forest.tree_edges();
        let mut lct = self.lct.clone();
        for e in &edges {
            let key = WKey::new(e.weight, e.id);
            assert_eq!(lct.cut(e.u, e.v), key, "tree edge {:?}", e.id);
        }
        assert_eq!(lct.num_edges(), 0, "link-cut edges outside the forest");
        self.forest.validate(&edges);
    }

    fn charge_lct(&mut self) {
        let d = log_depth(self.forest.num_vertices());
        self.forest.charge(d, d, 1);
    }

    fn add_forest_edge(&mut self, e: Edge) {
        self.lct.link(e.u, e.v, WKey::new(e.weight, e.id));
        self.charge_lct();
        self.forest.link_tree_edge(e);
        self.forest_weight += e.weight.as_summable();
    }

    /// Remove `e` from the link-cut tree and the weight bookkeeping (the
    /// Euler-tour cut is the caller's next step).
    fn remove_forest_edge(&mut self, e: Edge) {
        let key = self.lct.cut(e.u, e.v);
        debug_assert_eq!(key, WKey::new(e.weight, e.id), "cut another edge");
        self.charge_lct();
        self.forest_weight -= e.weight.as_summable();
    }
}

impl DynamicMsf for SeqDynamicMsf {
    fn num_vertices(&self) -> usize {
        self.forest.num_vertices()
    }

    fn insert(&mut self, e: Edge) -> MsfDelta {
        self.forest.meter.begin_op();
        self.forest.insert_graph_edge(e);
        let delta = if e.u == e.v {
            MsfDelta::NONE
        } else {
            // One path-max query answers connectivity too; it is charged as
            // the connectivity check, plus the path maximum when there is
            // a path.
            self.charge_lct();
            match self.lct.path_max(e.u, e.v) {
                None => {
                    self.add_forest_edge(e);
                    MsfDelta::added(e.id)
                }
                Some(heaviest) => {
                    self.charge_lct();
                    if WKey::new(e.weight, e.id) < heaviest {
                        let old = self
                            .forest
                            .edge(heaviest.edge)
                            .expect("forest edge is registered");
                        self.remove_forest_edge(old);
                        self.forest.cut_tree_edge(old);
                        self.add_forest_edge(e);
                        MsfDelta::swap(e.id, heaviest.edge)
                    } else {
                        MsfDelta::NONE
                    }
                }
            }
        };
        self.forest.recompute_stale();
        self.last_op = self.forest.meter.finish_op();
        delta
    }

    fn delete(&mut self, id: EdgeId) -> MsfDelta {
        self.forest.meter.begin_op();
        let was_tree = self.forest.is_tree_edge(id);
        let rec = self.forest.delete_graph_edge(id);
        let e = rec.edge;
        let delta = if !was_tree {
            MsfDelta::NONE
        } else {
            self.remove_forest_edge(rec.edge);
            let (root_u, root_v) = self.forest.cut_removed_tree_edge(rec);
            match self.forest.find_mwr(root_u, root_v) {
                Some(replacement) => {
                    self.add_forest_edge(replacement);
                    MsfDelta::swap(replacement.id, id)
                }
                None => MsfDelta::removed(id),
            }
        };
        self.forest.recompute_stale();
        self.forest.close_edgeless_tours(e);
        self.last_op = self.forest.meter.finish_op();
        delta
    }

    fn contains_edge(&self, id: EdgeId) -> bool {
        self.forest.has_edge(id)
    }

    fn is_forest_edge(&self, id: EdgeId) -> bool {
        self.forest.is_tree_edge(id)
    }

    fn forest_edges(&self) -> Vec<EdgeId> {
        self.forest.tree_edge_ids()
    }

    fn forest_weight(&self) -> i128 {
        self.forest_weight
    }

    fn num_forest_edges(&self) -> usize {
        self.lct.num_edges()
    }

    fn connected(&mut self, u: VertexId, v: VertexId) -> bool {
        self.forest.connected(u, v)
    }
}
