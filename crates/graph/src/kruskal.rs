//! Static minimum-spanning-forest computation (Kruskal's algorithm).
//!
//! This is the ground truth every dynamic structure in the workspace is
//! differentially tested against. Because weights are totally ordered with
//! edge-id tie-breaking (see [`crate::weight::WKey`]), the MSF of any graph is
//! unique, so implementations can be compared edge-set against edge-set and
//! not just weight against weight.

use crate::graph::DynGraph;
use crate::ids::EdgeId;
use crate::unionfind::UnionFind;
use crate::weight::WKey;

/// The result of a static MSF computation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MsfSummary {
    /// The forest edges, sorted by increasing edge id.
    pub edges: Vec<EdgeId>,
    /// Total weight of the forest.
    pub total_weight: i128,
    /// Number of connected components of the graph (isolated vertices count).
    pub components: usize,
}

impl MsfSummary {
    /// Whether the forest contains the given edge.
    pub fn contains(&self, e: EdgeId) -> bool {
        self.edges.binary_search(&e).is_ok()
    }
}

/// Compute the (unique) minimum spanning forest of `g` with Kruskal's
/// algorithm. Runs in `O(m log m)` time.
pub fn kruskal_msf(g: &DynGraph) -> MsfSummary {
    let mut order: Vec<(WKey, EdgeId)> = g
        .edges()
        .filter(|e| e.u != e.v)
        .map(|e| (WKey::new(e.weight, e.id), e.id))
        .collect();
    order.sort_unstable();

    let mut uf = UnionFind::new(g.num_vertices());
    let mut edges = Vec::new();
    let mut total: i128 = 0;
    for (key, id) in order {
        let e = g.edge_unchecked(id);
        if uf.union(e.u.index(), e.v.index()) {
            edges.push(id);
            total += key.weight.as_summable();
        }
    }
    edges.sort_unstable();
    MsfSummary {
        edges,
        total_weight: total,
        components: uf.num_components(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::VertexId;
    use crate::weight::Weight;

    fn w(x: i64) -> Weight {
        Weight::new(x)
    }

    #[test]
    fn triangle_drops_heaviest_edge() {
        let mut g = DynGraph::new(3);
        let a = g.insert_edge(VertexId(0), VertexId(1), w(1));
        let b = g.insert_edge(VertexId(1), VertexId(2), w(2));
        let c = g.insert_edge(VertexId(0), VertexId(2), w(3));
        let msf = kruskal_msf(&g);
        assert_eq!(msf.edges, vec![a, b]);
        assert!(!msf.contains(c));
        assert_eq!(msf.total_weight, 3);
        assert_eq!(msf.components, 1);
    }

    #[test]
    fn disconnected_graph_counts_components() {
        let mut g = DynGraph::new(5);
        g.insert_edge(VertexId(0), VertexId(1), w(1));
        g.insert_edge(VertexId(2), VertexId(3), w(1));
        let msf = kruskal_msf(&g);
        assert_eq!(msf.edges.len(), 2);
        assert_eq!(msf.components, 3); // {0,1}, {2,3}, {4}
    }

    #[test]
    fn ties_broken_by_edge_id() {
        // Two parallel edges of equal weight: the one inserted first (smaller
        // id) must win deterministically.
        let mut g = DynGraph::new(2);
        let first = g.insert_edge(VertexId(0), VertexId(1), w(7));
        let _second = g.insert_edge(VertexId(0), VertexId(1), w(7));
        let msf = kruskal_msf(&g);
        assert_eq!(msf.edges, vec![first]);
    }

    #[test]
    fn self_loops_are_ignored() {
        let mut g = DynGraph::new(2);
        g.insert_edge(VertexId(0), VertexId(0), w(-100));
        let e = g.insert_edge(VertexId(0), VertexId(1), w(4));
        let msf = kruskal_msf(&g);
        assert_eq!(msf.edges, vec![e]);
        assert_eq!(msf.total_weight, 4);
    }

    #[test]
    fn empty_graph() {
        let g = DynGraph::new(4);
        let msf = kruskal_msf(&g);
        assert!(msf.edges.is_empty());
        assert_eq!(msf.components, 4);
        assert_eq!(msf.total_weight, 0);
    }
}
