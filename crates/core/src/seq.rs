//! The sequential dynamic MSF structure of Theorem 1.2.
//!
//! [`SeqDynamicMsf`] combines the chunked Euler-tour forest
//! ([`crate::forest::ChunkedEulerForest`]) with a Sleator–Tarjan link-cut
//! tree (for "heaviest edge on the `u`–`v` path" queries on insertions) and
//! the usual forest bookkeeping. With the paper's chunk parameter
//! `K = Θ(sqrt(n log n))` every update costs `O(J log J + K + log n) =
//! O(sqrt(n log n))` worst-case time on sparse graphs. Tree-edge membership
//! needs no map of its own — it is a field of the per-edge record.

use crate::forest::{ChunkedEulerForest, CostModel, ForestStats};
use crate::snapshot::MsfImage;
use pdmsf_dyntree::LinkCutForest;
use pdmsf_graph::{DynamicMsf, Edge, EdgeId, MsfDelta, VertexId, WKey};
use pdmsf_pram::kernels::log2_ceil;
use pdmsf_pram::{CostMeter, CostReport};

/// The paper's default sequential chunk parameter `K = sqrt(n log n)`,
/// clamped to a small minimum so tiny graphs stay well-formed.
pub fn default_sequential_k(n: usize) -> usize {
    let n = n.max(2) as f64;
    (n * n.log2()).sqrt().ceil() as usize
}

/// Sequential worst-case dynamic minimum spanning forest (Theorem 1.2).
pub struct SeqDynamicMsf {
    forest: ChunkedEulerForest,
    lct: LinkCutForest,
    num_tree_edges: usize,
    forest_weight: i128,
    last_op: CostReport,
}

impl SeqDynamicMsf {
    /// A structure over `n` isolated vertices with the default chunk
    /// parameter `K = sqrt(n log n)` and sequential cost accounting.
    pub fn new(n: usize) -> Self {
        Self::with_parameters(n, default_sequential_k(n), CostModel::Sequential)
    }

    /// A structure with an explicit chunk parameter (used by the `K`
    /// ablation of the `paper` experiment).
    pub fn with_chunk_parameter(n: usize, k: usize) -> Self {
        Self::with_parameters(n, k, CostModel::Sequential)
    }

    /// Full control over chunk parameter and cost model (the parallel
    /// front-end uses `CostModel::Erew`).
    pub fn with_parameters(n: usize, k: usize, model: CostModel) -> Self {
        SeqDynamicMsf {
            forest: ChunkedEulerForest::new(n, k, model),
            lct: LinkCutForest::new(n),
            num_tree_edges: 0,
            forest_weight: 0,
            last_op: CostReport::default(),
        }
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

    /// Access to the underlying chunked Euler-tour forest (read-only).
    pub fn forest(&self) -> &ChunkedEulerForest {
        &self.forest
    }

    /// Validate every internal invariant (test-only helper, `O(n·m)`).
    pub fn validate(&self) {
        let edges = self.forest.tree_edges();
        assert_eq!(edges.len(), self.num_tree_edges, "tree-edge count drifted");
        self.forest.validate(&edges);
    }

    fn charge_lct(&mut self) {
        let n = self.forest.num_vertices().max(2);
        let d = log2_ceil(n) + 1;
        self.forest.charge(d, d, 1);
    }

    fn add_forest_edge(&mut self, e: Edge) {
        self.lct.link(e.u, e.v, e.id, WKey::new(e.weight, e.id));
        self.charge_lct();
        self.forest.link_tree_edge(e);
        self.num_tree_edges += 1;
        self.forest_weight += e.weight.as_summable();
    }

    /// Remove `e` from the link-cut tree and the weight/count bookkeeping
    /// (the Euler-tour cut is the caller's next step).
    fn remove_forest_edge(&mut self, e: Edge) {
        self.lct.cut(e.id);
        self.charge_lct();
        self.num_tree_edges -= 1;
        self.forest_weight -= e.weight.as_summable();
    }

    /// Assemble a structure from restored parts (the checkpoint/restore
    /// path in [`crate::snapshot`]).
    pub(crate) fn from_restored_parts(
        forest: ChunkedEulerForest,
        lct: LinkCutForest,
        num_tree_edges: usize,
        forest_weight: i128,
        last_op: CostReport,
    ) -> Self {
        SeqDynamicMsf {
            forest,
            lct,
            num_tree_edges,
            forest_weight,
            last_op,
        }
    }

    /// Flatten the structure into its serializable [`MsfImage`] (bank dumps
    /// plus bookkeeping scalars; see [`crate::snapshot`] for what is
    /// rebuilt instead of stored).
    pub fn to_image(&self) -> MsfImage {
        crate::snapshot::forest_to_image(&self.forest, self.num_tree_edges, self.forest_weight)
    }

    /// Rebuild a structure from [`SeqDynamicMsf::to_image`], validating the
    /// image and reconstructing the link-cut tree; future behaviour is
    /// identical to the exported original.
    pub fn from_image(image: &MsfImage) -> Result<Self, String> {
        crate::snapshot::seq_from_image(image)
    }
}

impl DynamicMsf for SeqDynamicMsf {
    fn num_vertices(&self) -> usize {
        self.forest.num_vertices()
    }

    fn add_vertex(&mut self) -> VertexId {
        let v = self.forest.add_vertex();
        let v2 = self.lct.add_vertex();
        debug_assert_eq!(v, v2);
        v
    }

    fn insert(&mut self, e: Edge) -> MsfDelta {
        self.forest.meter.begin_op();
        self.forest.insert_graph_edge(e);
        let delta = if e.u == e.v {
            MsfDelta::NONE
        } else if !self.lct.connected(e.u, e.v) {
            self.charge_lct();
            self.add_forest_edge(e);
            MsfDelta::added(e.id)
        } else {
            self.charge_lct();
            let heaviest = self
                .lct
                .path_max(e.u, e.v)
                .expect("connected endpoints have a path");
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
        };
        self.forest.recompute_stale();
        self.last_op = self.forest.meter.finish_op();
        delta
    }

    fn delete(&mut self, id: EdgeId) -> MsfDelta {
        self.forest.meter.begin_op();
        let was_tree = self.forest.is_tree_edge(id);
        let rec = self.forest.delete_graph_edge(id);
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
        self.num_tree_edges
    }

    fn connected(&mut self, u: VertexId, v: VertexId) -> bool {
        self.lct.connected(u, v)
    }

    fn name(&self) -> &'static str {
        "kpr-sequential"
    }
}
