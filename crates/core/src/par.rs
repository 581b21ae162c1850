//! The EREW PRAM dynamic MSF structure of Theorem 3.1 / 1.1.
//!
//! [`ParDynamicMsf`] is the parallel front-end: the same chunked Euler-tour
//! forest as the sequential structure, but configured with the parallel
//! chunk parameter `K = sqrt(n)` and with **EREW PRAM cost accounting**
//! (`CostModel::Erew`). Every primitive that Section 3 parallelises —
//! tournament-tree row rebuilds (Lemma 3.1), per-entry LSDS trees `S_j`
//! (Lemma 3.2), parallel `γ`/MWR search (Lemma 3.3), the `getEdge`
//! processor-assignment procedure — is charged with its parallel depth,
//! processor count and work, so the meter reports exactly the three
//! quantities Theorem 3.1 bounds: `O(log n)` depth, `O(sqrt n)` processors,
//! `O(sqrt n log n)` work per update.
//!
//! The kernels themselves run on the calling thread ([`ExecMode::Simulated`]),
//! so the structure is **bit-for-bit identical** to [`SeqDynamicMsf`] at the
//! same `K`; only the charged costs differ. The serving engines build this
//! structure at the *sequential* parameter `K = sqrt(n log n)` instead
//! ([`ParDynamicMsf::with_chunk_parameter`] with
//! [`crate::seq::default_sequential_k`]): without `sqrt n` processors to
//! run the `O(J)` row scans in `O(log J)` depth, the paper's own sequential
//! trade-off (Theorem 1.2) is the faster one, and it keeps the rows short
//! enough that no scan would pay for a pool job.

use crate::forest::{CostModel, ForestStats};
use crate::seq::SeqDynamicMsf;
use crate::snapshot::MsfImage;
use pdmsf_graph::{DynamicMsf, Edge, EdgeId, MsfDelta, VertexId};
use pdmsf_pram::{CostMeter, CostReport, ExecMode};

/// The paper's parallel chunk parameter `K = sqrt(n)`.
pub fn default_parallel_k(n: usize) -> usize {
    (n.max(2) as f64).sqrt().ceil() as usize
}

/// Worst-case deterministic parallel dynamic MSF (Theorem 1.1) in the EREW
/// PRAM cost model.
pub struct ParDynamicMsf {
    inner: SeqDynamicMsf,
}

impl ParDynamicMsf {
    /// A structure over `n` isolated vertices with the paper's parallel
    /// `K = sqrt(n)` and EREW accounting.
    pub fn new(n: usize) -> Self {
        Self::with_chunk_parameter(n, default_parallel_k(n))
    }

    /// Explicit chunk parameter (the serving engines and the ablation
    /// experiments), still with EREW accounting.
    pub fn with_chunk_parameter(n: usize, k: usize) -> Self {
        ParDynamicMsf {
            inner: SeqDynamicMsf::with_parameters(n, k, CostModel::Erew),
        }
    }

    /// The PRAM cost meter (depth / work / peak processors).
    pub fn meter(&self) -> &CostMeter {
        self.inner.meter()
    }

    /// PRAM cost of the most recent update.
    pub fn last_op_cost(&self) -> CostReport {
        self.inner.last_op_cost()
    }

    /// Structural statistics of the underlying chunked forest.
    pub fn forest_stats(&self) -> ForestStats {
        self.inner.forest_stats()
    }

    /// The chunk parameter `K` in use.
    pub fn chunk_parameter(&self) -> usize {
        self.inner.chunk_parameter()
    }

    /// The kernel execution mode: always [`ExecMode::Simulated`] (kernels
    /// run on the calling thread).
    pub fn execution_mode(&self) -> ExecMode {
        ExecMode::Simulated
    }

    /// Validate every internal invariant (test-only helper).
    pub fn validate(&self) {
        self.inner.validate()
    }

    /// Read access to the underlying chunked forest (diagnostics and the
    /// SoA-vs-AoS reference-walk tests).
    pub fn forest(&self) -> &crate::forest::ChunkedEulerForest {
        self.inner.forest()
    }

    /// Flatten the structure into its serializable [`MsfImage`]
    /// (checkpointing; see [`crate::snapshot`]).
    pub fn to_image(&self) -> MsfImage {
        self.inner.to_image()
    }

    /// Rebuild a structure from [`ParDynamicMsf::to_image`]. The image is
    /// validated and the link-cut tree reconstructed; future behaviour is
    /// identical to the exported original.
    pub fn from_image(image: &MsfImage) -> Result<Self, String> {
        Ok(ParDynamicMsf {
            inner: SeqDynamicMsf::from_image(image)?,
        })
    }
}

impl DynamicMsf for ParDynamicMsf {
    fn num_vertices(&self) -> usize {
        self.inner.num_vertices()
    }

    fn add_vertex(&mut self) -> VertexId {
        self.inner.add_vertex()
    }

    fn insert(&mut self, e: Edge) -> MsfDelta {
        self.inner.insert(e)
    }

    fn delete(&mut self, id: EdgeId) -> MsfDelta {
        self.inner.delete(id)
    }

    fn contains_edge(&self, id: EdgeId) -> bool {
        self.inner.contains_edge(id)
    }

    fn is_forest_edge(&self, id: EdgeId) -> bool {
        self.inner.is_forest_edge(id)
    }

    fn forest_edges(&self) -> Vec<EdgeId> {
        self.inner.forest_edges()
    }

    fn forest_weight(&self) -> i128 {
        self.inner.forest_weight()
    }

    fn num_forest_edges(&self) -> usize {
        self.inner.num_forest_edges()
    }

    fn connected(&mut self, u: VertexId, v: VertexId) -> bool {
        self.inner.connected(u, v)
    }

    fn name(&self) -> &'static str {
        "kpr-parallel-erew"
    }
}
