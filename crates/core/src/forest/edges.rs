//! Graph-edge registration: adjacency lists, adjacency counts and the `CAdj`
//! entry maintenance performed at the start of every edge insertion /
//! deletion (Section 2.6).
//!
//! All bookkeeping is flat: each edge lives in one [`EdgeRec`] slot of the
//! forest's [`pdmsf_graph::EdgeSlotMap`], and each endpoint's adjacency
//! list holds an inline [`AdjEntry`] (key and far endpoint) for it.

use super::{AdjEntry, ChunkedEulerForest, EdgeRec, NONE};
use pdmsf_graph::{Edge, EdgeId, WKey};

impl ChunkedEulerForest {
    /// Whether the given edge is currently registered.
    pub fn has_edge(&self, id: EdgeId) -> bool {
        self.edges.get_by_id(id).is_some()
    }

    /// The registered edge with the given id, if any.
    pub fn edge(&self, id: EdgeId) -> Option<Edge> {
        self.edges.get_by_id(id).map(|r| r.edge)
    }

    /// Whether the given edge is currently a forest (tree) edge.
    pub fn is_tree_edge(&self, id: EdgeId) -> bool {
        self.edges.get_by_id(id).is_some_and(|r| r.fwd != NONE)
    }

    /// Register a new graph edge: adjacency lists, adjacency counts of the
    /// chunks holding the endpoints' principal copies, and the `CAdj` pair
    /// entry. Does **not** touch the forest.
    ///
    /// # Panics
    /// Panics if the edge id is already registered.
    pub(crate) fn insert_graph_edge(&mut self, e: Edge) {
        self.edges.insert(
            e.id,
            EdgeRec {
                edge: e,
                fwd: NONE,
                bwd: NONE,
            },
        );
        self.adj[e.u.index()].push(AdjEntry::new(e, e.u));
        if e.v != e.u {
            self.adj[e.v.index()].push(AdjEntry::new(e, e.v));
        }
        let c1 = self.vertex_chunk[e.u.index()];
        let c2 = self.vertex_chunk[e.v.index()];
        self.chunks.adj_count[c1 as usize] += 1;
        if e.v != e.u {
            self.chunks.adj_count[c2 as usize] += 1;
        }
        self.note_edge_between(c1, c2, WKey::new(e.weight, e.id));
        self.touch(c1);
        self.touch(c2);
        self.charge(2, 1, 2);
        self.flush_rebalance();
    }

    /// Unregister a graph edge (which must not be a forest edge anymore — the
    /// caller cuts forest edges *after* calling this, exactly as in the
    /// paper's deletion procedure where `CAdj` is updated first). Returns the
    /// removed record; for a tree edge the caller passes it on to
    /// [`ChunkedEulerForest::cut_removed_tree_edge`].
    ///
    /// # Panics
    /// Panics if the edge is not registered.
    pub(crate) fn delete_graph_edge(&mut self, id: EdgeId) -> EdgeRec {
        let rec = self
            .edges
            .remove(id)
            .unwrap_or_else(|| panic!("edge {id:?} is not registered"));
        let e = rec.edge;
        self.adj[e.u.index()].retain(|a| a.id != id);
        if e.v != e.u {
            self.adj[e.v.index()].retain(|a| a.id != id);
        }
        let c1 = self.vertex_chunk[e.u.index()];
        let c2 = self.vertex_chunk[e.v.index()];
        self.chunks.adj_count[c1 as usize] -= 1;
        if e.v != e.u {
            self.chunks.adj_count[c2 as usize] -= 1;
        }
        self.forget_edge_between(c1, c2, WKey::new(e.weight, e.id));
        self.touch(c1);
        self.touch(c2);
        self.charge(2, 1, 2);
        self.flush_rebalance();
        rec
    }
}
