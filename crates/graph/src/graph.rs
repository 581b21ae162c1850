//! A dynamic, weighted, undirected multigraph.
//!
//! [`DynGraph`] is the "driver side" representation of the graph being
//! maintained: a flat id table holding the endpoints, weight and live bit of
//! every edge id ever allocated, plus the vertex count. It keeps no
//! adjacency; the dynamic-MSF structures receive edges from it (as [`Edge`]
//! values) and keep their own. Tests compare their answers against
//! [`crate::kruskal_msf`] run on the same `DynGraph`.

use crate::ids::{EdgeId, VertexId};
use crate::weight::Weight;

/// A single (live) edge: id, endpoints and weight.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Edge {
    /// Stable identifier of the edge.
    pub id: EdgeId,
    /// First endpoint.
    pub u: VertexId,
    /// Second endpoint.
    pub v: VertexId,
    /// Weight.
    pub weight: Weight,
}

impl Edge {
    /// The endpoint different from `x`.
    ///
    /// # Panics
    /// Panics if `x` is not an endpoint of this edge.
    #[inline]
    pub fn other(&self, x: VertexId) -> VertexId {
        if x == self.u {
            self.v
        } else if x == self.v {
            self.u
        } else {
            panic!("{x:?} is not an endpoint of {self:?}")
        }
    }

    /// Whether `x` is an endpoint.
    #[inline]
    pub fn touches(&self, x: VertexId) -> bool {
        x == self.u || x == self.v
    }
}

#[derive(Clone, Debug)]
struct EdgeSlot {
    u: VertexId,
    v: VertexId,
    weight: Weight,
    alive: bool,
}

/// A dynamic weighted undirected multigraph as an edge-id table.
///
/// * vertices are dense indices `0..num_vertices()`, fixed when the graph
///   is built,
/// * edges get stable ids; deleting an edge retires its id (ids are never
///   reused so they stay valid as deterministic tie-breakers),
/// * self-loops and parallel edges are allowed (the MSF simply never uses a
///   self-loop and uses at most one of a parallel bundle),
/// * no adjacency is kept, so inserting or deleting an edge costs O(1)
///   whatever its endpoints' degrees.
#[derive(Clone, Debug, Default)]
pub struct DynGraph {
    edges: Vec<EdgeSlot>,
    num_vertices: usize,
    live_edges: usize,
}

impl DynGraph {
    /// An empty graph with `n` vertices and no edges.
    pub fn new(n: usize) -> Self {
        DynGraph {
            edges: Vec::new(),
            num_vertices: n,
            live_edges: 0,
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of live (non-deleted) edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.live_edges
    }

    /// Total number of edge ids ever allocated (live + deleted).
    #[inline]
    pub fn edge_id_bound(&self) -> usize {
        self.edges.len()
    }

    /// Insert an edge `{u, v}` with the given weight; returns its new id.
    ///
    /// # Panics
    /// Panics if either endpoint is out of range.
    pub fn insert_edge(&mut self, u: VertexId, v: VertexId, weight: Weight) -> EdgeId {
        assert!(u.index() < self.num_vertices(), "vertex {u:?} out of range");
        assert!(v.index() < self.num_vertices(), "vertex {v:?} out of range");
        let id = EdgeId::from(self.edges.len());
        self.edges.push(EdgeSlot {
            u,
            v,
            weight,
            alive: true,
        });
        self.live_edges += 1;
        id
    }

    /// Delete a live edge and return it.
    ///
    /// # Panics
    /// Panics if the edge does not exist or was already deleted.
    pub fn delete_edge(&mut self, id: EdgeId) -> Edge {
        let slot = self
            .edges
            .get_mut(id.index())
            .unwrap_or_else(|| panic!("unknown edge {id:?}"));
        assert!(slot.alive, "edge {id:?} already deleted");
        slot.alive = false;
        let edge = Edge {
            id,
            u: slot.u,
            v: slot.v,
            weight: slot.weight,
        };
        self.live_edges -= 1;
        edge
    }

    /// The edge with the given id, if it is live.
    pub fn edge(&self, id: EdgeId) -> Option<Edge> {
        let slot = self.edges.get(id.index())?;
        if !slot.alive {
            return None;
        }
        Some(Edge {
            id,
            u: slot.u,
            v: slot.v,
            weight: slot.weight,
        })
    }

    /// The edge with the given id, panicking if it is not live.
    #[inline]
    pub fn edge_unchecked(&self, id: EdgeId) -> Edge {
        self.edge(id)
            .unwrap_or_else(|| panic!("edge {id:?} is not live"))
    }

    /// Whether the edge id refers to a live edge.
    #[inline]
    pub fn is_live(&self, id: EdgeId) -> bool {
        self.edges.get(id.index()).map(|s| s.alive).unwrap_or(false)
    }

    /// Iterator over all live edges, in increasing id order.
    pub fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        self.edges.iter().enumerate().filter_map(|(i, slot)| {
            if slot.alive {
                Some(Edge {
                    id: EdgeId::from(i),
                    u: slot.u,
                    v: slot.v,
                    weight: slot.weight,
                })
            } else {
                None
            }
        })
    }

    /// Flatten the graph into its serializable image.
    ///
    /// Every observable detail round-trips: the vertex count (isolated
    /// vertices included) and every edge slot, dead ones too (ids are never
    /// reused, so the slot vector *is* the id allocator).
    pub fn to_image(&self) -> DynGraphImage {
        let mut edge_u = Vec::with_capacity(self.edges.len());
        let mut edge_v = Vec::with_capacity(self.edges.len());
        let mut edge_weight = Vec::with_capacity(self.edges.len());
        let mut edge_alive = Vec::with_capacity(self.edges.len());
        for slot in &self.edges {
            edge_u.push(slot.u.0);
            edge_v.push(slot.v.0);
            edge_weight.push(slot.weight.raw());
            edge_alive.push(u8::from(slot.alive));
        }
        DynGraphImage {
            num_vertices: self.num_vertices as u64,
            edge_u,
            edge_v,
            edge_weight,
            edge_alive,
        }
    }

    /// Rebuild a graph from [`DynGraph::to_image`], validating it so that
    /// a corrupt image is rejected rather than deserialized into a graph
    /// that panics later: the vertex count fits a [`VertexId`], the edge
    /// lanes agree in length, every alive flag is 0 or 1 and every endpoint,
    /// dead slots' included, is a vertex.
    pub fn from_image(image: &DynGraphImage) -> Result<Self, String> {
        let n = image.num_vertices;
        if n > u64::from(u32::MAX) {
            return Err(format!(
                "graph image claims {n} vertices, beyond the 32-bit vertex-id range"
            ));
        }
        let m = image.edge_u.len();
        if image.edge_v.len() != m || image.edge_weight.len() != m || image.edge_alive.len() != m {
            return Err("graph image edge lanes disagree in length".to_string());
        }
        let mut edges = Vec::with_capacity(m);
        let mut live_edges = 0usize;
        for i in 0..m {
            if image.edge_alive[i] > 1 {
                return Err(format!("graph image edge {i} has a non-boolean alive flag"));
            }
            let (u, v) = (image.edge_u[i], image.edge_v[i]);
            if u64::from(u) >= n || u64::from(v) >= n {
                return Err(format!(
                    "graph image edge {i} joins {u}–{v} in a graph of {n} vertices"
                ));
            }
            let alive = image.edge_alive[i] == 1;
            live_edges += usize::from(alive);
            edges.push(EdgeSlot {
                u: VertexId(u),
                v: VertexId(v),
                weight: Weight::new(image.edge_weight[i]),
                alive,
            });
        }
        Ok(DynGraph {
            edges,
            num_vertices: n as usize,
            live_edges,
        })
    }
}

/// The flat, serializable image of a [`DynGraph`]: its vertex count and its
/// edge slots as parallel lanes (`u32` endpoints, raw `i64` weights, `u8`
/// alive flags — dead slots included, they are the id allocator).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DynGraphImage {
    /// Number of vertices, isolated ones included.
    pub num_vertices: u64,
    /// First endpoint per edge slot.
    pub edge_u: Vec<u32>,
    /// Second endpoint per edge slot.
    pub edge_v: Vec<u32>,
    /// Raw weight per edge slot ([`Weight::raw`] encoding).
    pub edge_weight: Vec<i64>,
    /// 1 if the slot's edge is live, 0 if deleted.
    pub edge_alive: Vec<u8>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(x: i64) -> Weight {
        Weight::new(x)
    }

    #[test]
    fn insert_and_delete_edges() {
        let mut g = DynGraph::new(4);
        let e01 = g.insert_edge(VertexId(0), VertexId(1), w(3));
        let e12 = g.insert_edge(VertexId(1), VertexId(2), w(1));
        assert_eq!(g.num_edges(), 2);
        assert!(g.is_live(e01) && g.is_live(e12));
        assert_eq!(g.edge_unchecked(e01).other(VertexId(0)), VertexId(1));

        let removed = g.delete_edge(e01);
        assert_eq!(removed.weight, w(3));
        assert_eq!(g.num_edges(), 1);
        assert!(!g.is_live(e01));
        assert!(g.is_live(e12));
        let live: Vec<EdgeId> = g.edges().map(|e| e.id).collect();
        assert_eq!(live, vec![e12]);
        assert_eq!(g.edge_id_bound(), 2);
    }

    #[test]
    fn parallel_edges_and_self_loops() {
        let mut g = DynGraph::new(2);
        let a = g.insert_edge(VertexId(0), VertexId(1), w(5));
        let b = g.insert_edge(VertexId(0), VertexId(1), w(5));
        let loop_e = g.insert_edge(VertexId(0), VertexId(0), w(2));
        assert_ne!(a, b);
        assert_eq!(g.num_edges(), 3);
        assert!(g.is_live(loop_e));
        assert_eq!(g.edge_unchecked(loop_e).other(VertexId(0)), VertexId(0));
        g.delete_edge(loop_e);
        assert_eq!(g.num_edges(), 2);
        assert!(!g.is_live(loop_e));
        let live: Vec<EdgeId> = g.edges().map(|e| e.id).collect();
        assert_eq!(live, vec![a, b]);
    }

    #[test]
    fn edges_iterator_skips_deleted() {
        let mut g = DynGraph::new(3);
        let a = g.insert_edge(VertexId(0), VertexId(1), w(1));
        let b = g.insert_edge(VertexId(1), VertexId(2), w(2));
        g.delete_edge(a);
        let ids: Vec<EdgeId> = g.edges().map(|e| e.id).collect();
        assert_eq!(ids, vec![b]);
    }

    #[test]
    #[should_panic(expected = "already deleted")]
    fn double_delete_panics() {
        let mut g = DynGraph::new(2);
        let a = g.insert_edge(VertexId(0), VertexId(1), w(1));
        g.delete_edge(a);
        g.delete_edge(a);
    }

    /// Vertices 0..4: edges 0 = 0–1, 1 = 1–2 (deleted), 2 = 2–3, 3 = a
    /// self-loop at 3, 4 = 1–3.
    fn image_base() -> DynGraphImage {
        let mut g = DynGraph::new(4);
        g.insert_edge(VertexId(0), VertexId(1), w(5));
        let dead = g.insert_edge(VertexId(1), VertexId(2), w(2));
        g.insert_edge(VertexId(2), VertexId(3), w(7));
        g.insert_edge(VertexId(3), VertexId(3), w(1));
        g.insert_edge(VertexId(1), VertexId(3), w(4));
        g.delete_edge(dead);
        g.to_image()
    }

    #[test]
    fn image_import_rejects_bad_endpoints_and_vertex_counts() {
        let good = image_base();
        let g = DynGraph::from_image(&good).expect("a valid image imports");
        assert_eq!(g.to_image(), good);
        assert_eq!(g.num_edges(), 4);
        let refused = |image: &DynGraphImage, what: &str| {
            let err = DynGraph::from_image(image).expect_err(what);
            assert!(err.contains("graph image"), "{what}: {err}");
        };

        // A live edge naming vertex 99 of a 4-vertex graph.
        let mut bad = good.clone();
        bad.edge_v[2] = 99;
        refused(&bad, "an out-of-range endpoint");
        // A dead edge's endpoints must be vertices too (the tenant maps of
        // a service are derived from them).
        let mut bad = good.clone();
        bad.edge_u[1] = 4;
        refused(&bad, "a dead edge off the vertex range");
        // A vertex count that 32-bit vertex ids cannot name.
        let mut bad = good;
        bad.num_vertices = 1 << 32;
        refused(&bad, "a vertex count beyond the id range");
    }

    /// The vertex count is stored, not derived from the largest endpoint:
    /// isolated vertices past every edge survive the round trip.
    #[test]
    fn image_keeps_trailing_isolated_vertices() {
        let mut g = DynGraph::new(5);
        let e = g.insert_edge(VertexId(0), VertexId(1), w(2));
        let image = g.to_image();
        assert_eq!(image.num_vertices, 5);
        let back = DynGraph::from_image(&image).expect("a valid image imports");
        assert_eq!(back.num_vertices(), 5);
        assert_eq!(back.num_edges(), 1);
        assert_eq!(back.edge(e), g.edge(e));
        assert_eq!(back.to_image(), image);
    }
}
