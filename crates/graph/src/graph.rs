//! A dynamic, weighted, undirected multigraph.
//!
//! [`DynGraph`] is the "driver side" representation of the graph being
//! maintained: it owns the edge-id space, the adjacency lists and the weight
//! of every live edge. The dynamic-MSF structures receive edges from it (as
//! [`Edge`] values) and are free to keep whatever internal bookkeeping they
//! need; tests compare their answers against [`crate::kruskal_msf`] run on the
//! same `DynGraph`.

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

/// A dynamic weighted undirected multigraph backed by index arenas.
///
/// * vertices are dense indices `0..num_vertices()` and can be appended,
/// * edges get stable ids; deleting an edge retires its id (ids are never
///   reused so they stay valid as deterministic tie-breakers),
/// * self-loops and parallel edges are allowed (the MSF simply never uses a
///   self-loop and uses at most one of a parallel bundle).
#[derive(Clone, Debug, Default)]
pub struct DynGraph {
    edges: Vec<EdgeSlot>,
    adjacency: Vec<Vec<EdgeId>>,
    live_edges: usize,
}

impl DynGraph {
    /// An empty graph with `n` vertices and no edges.
    pub fn new(n: usize) -> Self {
        DynGraph {
            edges: Vec::new(),
            adjacency: vec![Vec::new(); n],
            live_edges: 0,
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.adjacency.len()
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

    /// Append a new isolated vertex and return its id.
    pub fn add_vertex(&mut self) -> VertexId {
        let id = VertexId::from(self.adjacency.len());
        self.adjacency.push(Vec::new());
        id
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
        self.adjacency[u.index()].push(id);
        if v != u {
            self.adjacency[v.index()].push(id);
        }
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
        self.adjacency[edge.u.index()].retain(|&e| e != id);
        if edge.v != edge.u {
            self.adjacency[edge.v.index()].retain(|&e| e != id);
        }
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

    /// Ids of the live edges incident to `v` (self-loops appear once).
    pub fn incident_edges(&self, v: VertexId) -> &[EdgeId] {
        &self.adjacency[v.index()]
    }

    /// Degree of `v` counting multiplicities (self-loops count once).
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.adjacency[v.index()].len()
    }

    /// The maximum degree over all vertices (0 for an empty graph).
    pub fn max_degree(&self) -> usize {
        self.adjacency.iter().map(Vec::len).max().unwrap_or(0)
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

    /// Find the id of some live edge between `u` and `v` (linear in the
    /// degree of `u`). Intended for tests and small drivers.
    pub fn find_edge(&self, u: VertexId, v: VertexId) -> Option<EdgeId> {
        self.adjacency[u.index()]
            .iter()
            .copied()
            .find(|&id| self.edge_unchecked(id).touches(v))
    }

    /// Flatten the graph into its serializable image.
    ///
    /// Every observable detail round-trips: dead edge slots are kept (ids
    /// are never reused, so the slot vector *is* the id allocator) and the
    /// adjacency lists are dumped in their exact in-memory order —
    /// [`DynGraph::find_edge`] and [`DynGraph::incident_edges`] expose that
    /// order, so rebuilding adjacency from the edge slots would not be
    /// faithful after interleaved deletes.
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
        let mut adj_offsets = Vec::with_capacity(self.adjacency.len() + 1);
        let mut adj_data = Vec::new();
        adj_offsets.push(0u64);
        for list in &self.adjacency {
            adj_data.extend(list.iter().map(|id| id.0));
            adj_offsets.push(adj_data.len() as u64);
        }
        DynGraphImage {
            edge_u,
            edge_v,
            edge_weight,
            edge_alive,
            adj_offsets,
            adj_data,
        }
    }

    /// Rebuild a graph from [`DynGraph::to_image`], validating it so that
    /// a corrupt image is rejected rather than deserialized into a graph
    /// that panics later: lane lengths and offsets agree, every endpoint is
    /// a vertex, every listed id names a live edge touching its vertex, and
    /// every live edge is listed exactly once at each endpoint (once in all
    /// for a self-loop).
    pub fn from_image(image: &DynGraphImage) -> Result<Self, String> {
        let m = image.edge_u.len();
        if image.edge_v.len() != m || image.edge_weight.len() != m || image.edge_alive.len() != m {
            return Err("graph image edge lanes disagree in length".to_string());
        }
        if image.adj_offsets.first() != Some(&0) {
            return Err("graph image adjacency offsets must start at 0".to_string());
        }
        if image.adj_offsets.last().copied() != Some(image.adj_data.len() as u64) {
            return Err("graph image adjacency offsets do not cover the data".to_string());
        }
        let n = image.adj_offsets.len() - 1;
        let mut edges = Vec::with_capacity(m);
        let mut live_edges = 0usize;
        for i in 0..m {
            if image.edge_alive[i] > 1 {
                return Err(format!("graph image edge {i} has a non-boolean alive flag"));
            }
            let (u, v) = (image.edge_u[i], image.edge_v[i]);
            if u as usize >= n || v as usize >= n {
                return Err(format!(
                    "graph image edge {i} joins {u}–{v} in a graph of {n} vertices"
                ));
            }
            let alive = image.edge_alive[i] == 1;
            live_edges += usize::from(alive);
            edges.push(EdgeSlot {
                u: VertexId(u),
                v: VertexId(v),
                weight: Weight::from_raw(image.edge_weight[i]),
                alive,
            });
        }
        // Per edge: bit 0 = listed at `u`, bit 1 = listed at `v`.
        let mut listed = vec![0u8; m];
        let mut adjacency = Vec::with_capacity(n);
        for v in 0..n {
            let lo = image.adj_offsets[v] as usize;
            let hi = image.adj_offsets[v + 1] as usize;
            if hi < lo || hi > image.adj_data.len() {
                return Err(format!("graph image adjacency offsets of v{v} are invalid"));
            }
            let list: Vec<EdgeId> = image.adj_data[lo..hi].iter().map(|&e| EdgeId(e)).collect();
            for id in &list {
                let slot = match edges.get(id.index()) {
                    Some(slot) if slot.alive => slot,
                    _ => return Err(format!("graph image adjacency of v{v} names dead {id:?}")),
                };
                let bit = if slot.u.index() == v {
                    1
                } else if slot.v.index() == v {
                    2
                } else {
                    return Err(format!(
                        "graph image adjacency of v{v} holds {id:?}, which misses it"
                    ));
                };
                if listed[id.index()] & bit != 0 {
                    return Err(format!("graph image adjacency of v{v} lists {id:?} twice"));
                }
                listed[id.index()] |= bit;
            }
            adjacency.push(list);
        }
        for (i, slot) in edges.iter().enumerate() {
            let want = if slot.u == slot.v { 1 } else { 3 };
            if slot.alive && listed[i] != want {
                return Err(format!(
                    "graph image adjacency misses live edge {i} at an endpoint"
                ));
            }
        }
        Ok(DynGraph {
            edges,
            adjacency,
            live_edges,
        })
    }
}

/// The flat, serializable image of a [`DynGraph`]: edge slots as parallel
/// lanes (`u32` endpoints, raw `i64` weights, `u8` alive flags — dead slots
/// included, they are the id allocator) and adjacency lists flattened into
/// an offsets + data pair in exact in-memory order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DynGraphImage {
    /// First endpoint per edge slot.
    pub edge_u: Vec<u32>,
    /// Second endpoint per edge slot.
    pub edge_v: Vec<u32>,
    /// Raw weight per edge slot ([`Weight::raw`] encoding).
    pub edge_weight: Vec<i64>,
    /// 1 if the slot's edge is live, 0 if deleted.
    pub edge_alive: Vec<u8>,
    /// Per-vertex ranges into `adj_data` (`n + 1` entries, starts at 0).
    pub adj_offsets: Vec<u64>,
    /// Concatenated adjacency lists (live edge ids).
    pub adj_data: Vec<u32>,
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
        assert_eq!(g.degree(VertexId(1)), 2);
        assert_eq!(g.edge_unchecked(e01).other(VertexId(0)), VertexId(1));

        let removed = g.delete_edge(e01);
        assert_eq!(removed.weight, w(3));
        assert_eq!(g.num_edges(), 1);
        assert!(!g.is_live(e01));
        assert!(g.is_live(e12));
        assert_eq!(g.degree(VertexId(0)), 0);
        assert_eq!(g.degree(VertexId(1)), 1);
    }

    #[test]
    fn parallel_edges_and_self_loops() {
        let mut g = DynGraph::new(2);
        let a = g.insert_edge(VertexId(0), VertexId(1), w(5));
        let b = g.insert_edge(VertexId(0), VertexId(1), w(5));
        let loop_e = g.insert_edge(VertexId(0), VertexId(0), w(2));
        assert_ne!(a, b);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.degree(VertexId(0)), 3);
        g.delete_edge(loop_e);
        assert_eq!(g.degree(VertexId(0)), 2);
    }

    #[test]
    fn add_vertex_grows_graph() {
        let mut g = DynGraph::new(1);
        let v = g.add_vertex();
        assert_eq!(v, VertexId(1));
        assert_eq!(g.num_vertices(), 2);
        g.insert_edge(VertexId(0), v, w(1));
        assert_eq!(g.num_edges(), 1);
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
    fn find_edge_locates_live_edges_only() {
        let mut g = DynGraph::new(3);
        let a = g.insert_edge(VertexId(0), VertexId(1), w(1));
        assert_eq!(g.find_edge(VertexId(0), VertexId(1)), Some(a));
        assert_eq!(g.find_edge(VertexId(0), VertexId(2)), None);
        g.delete_edge(a);
        assert_eq!(g.find_edge(VertexId(0), VertexId(1)), None);
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

    /// The position of `id` in `v`'s adjacency run of `image`.
    fn listed_at(image: &DynGraphImage, v: usize, id: u32) -> usize {
        let (lo, hi) = (
            image.adj_offsets[v] as usize,
            image.adj_offsets[v + 1] as usize,
        );
        lo + image.adj_data[lo..hi]
            .iter()
            .position(|&e| e == id)
            .unwrap()
    }

    #[test]
    fn image_import_rejects_bad_endpoints_and_adjacency() {
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
        // A live edge no adjacency list names: the dead edge 1 revived.
        let mut bad = good.clone();
        bad.edge_alive[1] = 1;
        refused(&bad, "an unlisted live edge");
        // A listed id that misses its vertex: 0's entry for 0–1 replaced
        // by 2–3.
        let mut bad = good.clone();
        bad.adj_data[listed_at(&good, 0, 0)] = 2;
        refused(&bad, "an entry that misses its vertex");
        // An edge listed twice at one endpoint and missing at the other:
        // 1's entry for 0–1 replaced by its entry for 1–3.
        let mut bad = good.clone();
        bad.adj_data[listed_at(&good, 1, 0)] = 4;
        refused(&bad, "an edge listed twice at one endpoint");
        // A self-loop listed twice at its vertex: 3's entry for 2–3
        // replaced by the loop.
        let mut bad = good.clone();
        bad.adj_data[listed_at(&good, 3, 2)] = 3;
        refused(&bad, "a self-loop listed twice");
        // A dead edge's endpoints must be vertices too (the tenant maps of
        // a service are derived from them).
        let mut bad = good;
        bad.edge_u[1] = 4;
        refused(&bad, "a dead edge off the vertex range");
    }

    #[test]
    fn max_degree_tracks_adjacency() {
        let mut g = DynGraph::new(5);
        assert_eq!(g.max_degree(), 0);
        for i in 1..5 {
            g.insert_edge(VertexId(0), VertexId(i), w(i as i64));
        }
        assert_eq!(g.max_degree(), 4);
    }
}
