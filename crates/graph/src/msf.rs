//! The [`DynamicMsf`] trait — the common interface of every dynamic
//! minimum-spanning-forest structure in the workspace.
//!
//! The paper's structure (sequential and parallel), the baselines
//! (recompute-Kruskal, naive Euler-tour forest) and the degree-3 reduction
//! wrapper all implement this trait, which is what makes differential
//! testing and the benchmark harness possible.

use crate::graph::{DynGraph, Edge};
use crate::ids::{EdgeId, VertexId};
use crate::kruskal::kruskal_msf;

/// The change an update caused to the maintained spanning forest.
///
/// A single edge insertion or deletion changes the minimum spanning forest by
/// at most one edge in each direction (one edge may enter, one may leave), so
/// the delta is a pair of options. The paper's Section 5 sparsification
/// relies on exactly this property when it propagates changes level by level.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MsfDelta {
    /// Edge that entered the forest as a result of the update, if any.
    pub added: Option<EdgeId>,
    /// Edge that left the forest as a result of the update, if any.
    pub removed: Option<EdgeId>,
}

impl MsfDelta {
    /// No change to the forest.
    pub const NONE: MsfDelta = MsfDelta {
        added: None,
        removed: None,
    };

    /// An edge entered the forest.
    pub fn added(e: EdgeId) -> Self {
        MsfDelta {
            added: Some(e),
            removed: None,
        }
    }

    /// An edge left the forest.
    pub fn removed(e: EdgeId) -> Self {
        MsfDelta {
            added: None,
            removed: Some(e),
        }
    }

    /// One edge entered and one left (an MSF "swap").
    pub fn swap(added: EdgeId, removed: EdgeId) -> Self {
        MsfDelta {
            added: Some(added),
            removed: Some(removed),
        }
    }

    /// Whether the forest was left untouched.
    pub fn is_empty(&self) -> bool {
        self.added.is_none() && self.removed.is_none()
    }
}

/// A fully dynamic minimum-spanning-forest structure.
///
/// Implementations maintain the unique MSF (unique because ties are broken by
/// [`EdgeId`], see [`crate::weight::WKey`]) of the edge set fed to them via
/// [`DynamicMsf::insert`] / [`DynamicMsf::delete`].
///
/// Some query methods take `&mut self`: several implementations answer
/// connectivity queries with self-adjusting structures (link-cut trees) whose
/// reads rebalance internal state. This mirrors the paper, where queries are
/// also updates to the auxiliary structures.
pub trait DynamicMsf {
    /// Number of vertices currently managed.
    fn num_vertices(&self) -> usize;

    /// Append a new isolated vertex and return its id.
    fn add_vertex(&mut self) -> VertexId;

    /// Insert an edge (id allocated by the caller, endpoints must be in
    /// range) and return the change to the forest.
    fn insert(&mut self, e: Edge) -> MsfDelta;

    /// Delete a previously inserted edge and return the change to the forest.
    fn delete(&mut self, id: EdgeId) -> MsfDelta;

    /// Whether the given edge is currently stored (live) in the structure.
    fn contains_edge(&self, id: EdgeId) -> bool;

    /// Whether the given live edge is currently a forest (tree) edge.
    fn is_forest_edge(&self, id: EdgeId) -> bool;

    /// All current forest edges, sorted by increasing id.
    fn forest_edges(&self) -> Vec<EdgeId>;

    /// Total weight of the forest (`-inf` edges contribute 0).
    fn forest_weight(&self) -> i128;

    /// Whether `u` and `v` are in the same tree of the forest (equivalently,
    /// the same connected component of the maintained graph).
    fn connected(&mut self, u: VertexId, v: VertexId) -> bool;

    /// Number of edges currently in the forest.
    fn num_forest_edges(&self) -> usize {
        self.forest_edges().len()
    }
}

/// Check a dynamic structure against the static Kruskal reference computed on
/// `mirror` (a [`DynGraph`] that received exactly the same updates).
///
/// Returns a description of the first discrepancy found, or `Ok(())`.
pub fn verify_against_kruskal<M: DynamicMsf + ?Sized>(
    structure: &M,
    mirror: &DynGraph,
) -> Result<(), String> {
    let reference = kruskal_msf(mirror);
    let claimed = structure.forest_edges();
    if claimed != reference.edges {
        return Err(format!(
            "forest edge sets differ:\n  structure: {:?}\n  kruskal:   {:?}",
            claimed, reference.edges
        ));
    }
    let claimed_weight = structure.forest_weight();
    if claimed_weight != reference.total_weight {
        return Err(format!(
            "forest weights differ: structure={} kruskal={}",
            claimed_weight, reference.total_weight
        ));
    }
    Ok(())
}

/// Panicking wrapper around [`verify_against_kruskal`], convenient in tests.
pub fn assert_matches_kruskal<M: DynamicMsf + ?Sized>(structure: &M, mirror: &DynGraph) {
    if let Err(msg) = verify_against_kruskal(structure, mirror) {
        panic!("dynamic MSF diverged from Kruskal reference: {msg}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_constructors() {
        assert!(MsfDelta::NONE.is_empty());
        let d = MsfDelta::added(EdgeId(3));
        assert_eq!(d.added, Some(EdgeId(3)));
        assert_eq!(d.removed, None);
        let d = MsfDelta::swap(EdgeId(1), EdgeId(2));
        assert_eq!(d.added, Some(EdgeId(1)));
        assert_eq!(d.removed, Some(EdgeId(2)));
        assert!(!d.is_empty());
        let d = MsfDelta::removed(EdgeId(9));
        assert_eq!(d.removed, Some(EdgeId(9)));
    }
}
