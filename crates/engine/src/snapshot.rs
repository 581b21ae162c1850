//! Read-only query snapshots.
//!
//! A batch's queries are all answered at the same logical point — after the
//! batch's updates have been applied — so the engine captures the forest
//! *once* into a flat component-label vector and answers every connectivity
//! query with two array loads, in one serial loop. Capturing costs
//! `O(n + f·α(n))` (one union-find sweep over the ≤ `n − 1` forest edges);
//! each answer is `O(1)`.
//!
//! Contrast with answering through the structure: [`DynamicMsf::connected`]
//! takes `&mut self` (link-cut tree reads splay), so per-query answering
//! pays a tree walk per query.

use crate::plan::PlannedQuery;
use crate::Outcome;
use pdmsf_graph::{DynGraph, DynamicMsf, UnionFind, VertexId};

/// An immutable connectivity + weight snapshot of the maintained forest.
pub struct QuerySnapshot {
    /// Component label per vertex (the union-find root, flattened).
    comp: Vec<u32>,
    /// Total forest weight at the snapshot point.
    forest_weight: i128,
}

impl QuerySnapshot {
    /// Capture the current forest of `msf` (endpoints resolved through the
    /// `graph` mirror) into component labels.
    pub fn capture<M: DynamicMsf>(graph: &DynGraph, msf: &M) -> QuerySnapshot {
        let n = graph.num_vertices();
        let mut uf = UnionFind::new(n);
        for id in msf.forest_edges() {
            let e = graph.edge_unchecked(id);
            uf.union(e.u.index(), e.v.index());
        }
        let comp = (0..n).map(|v| uf.find(v) as u32).collect();
        QuerySnapshot {
            comp,
            forest_weight: msf.forest_weight(),
        }
    }

    /// Whether `u` and `v` were in the same component at the snapshot
    /// point. `O(1)`, `&self` — safe to call from many threads at once.
    #[inline]
    pub fn connected(&self, u: VertexId, v: VertexId) -> bool {
        self.comp[u.index()] == self.comp[v.index()]
    }

    /// Total forest weight at the snapshot point.
    #[inline]
    pub fn forest_weight(&self) -> i128 {
        self.forest_weight
    }

    /// Number of vertices covered by the snapshot.
    pub fn num_vertices(&self) -> usize {
        self.comp.len()
    }
}

/// Answer the deduplicated queries of a batch against `snapshot`, in query
/// order, as final [`Outcome`]s.
pub(crate) fn answer_queries(snapshot: &QuerySnapshot, queries: &[PlannedQuery]) -> Vec<Outcome> {
    queries
        .iter()
        .map(|q| match *q {
            PlannedQuery::Connected { u, v } => Outcome::Connected {
                connected: snapshot.connected(u, v),
            },
            PlannedQuery::ForestWeight => Outcome::ForestWeight {
                weight: snapshot.forest_weight(),
            },
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdmsf_core::SeqDynamicMsf;
    use pdmsf_graph::Weight;

    fn line_graph(n: usize) -> (DynGraph, SeqDynamicMsf) {
        let mut g = DynGraph::new(n);
        let mut msf = SeqDynamicMsf::new(n);
        for i in 0..n - 1 {
            let id = g.insert_edge(
                VertexId(i as u32),
                VertexId(i as u32 + 1),
                Weight::new(i as i64 + 1),
            );
            msf.insert(g.edge_unchecked(id));
        }
        (g, msf)
    }

    #[test]
    fn snapshot_matches_structure_connectivity() {
        let (mut g, mut msf) = line_graph(10);
        // Split the line: cut the edge between 4 and 5 (id 4).
        let id = g.delete_edge(pdmsf_graph::EdgeId(4)).id;
        msf.delete(id);
        let snap = QuerySnapshot::capture(&g, &msf);
        assert_eq!(snap.num_vertices(), 10);
        assert_eq!(snap.forest_weight(), msf.forest_weight());
        for u in 0..10u32 {
            for v in 0..10u32 {
                assert_eq!(
                    snap.connected(VertexId(u), VertexId(v)),
                    (u <= 4) == (v <= 4),
                    "snapshot disagrees for ({u}, {v})"
                );
            }
        }
    }
}
