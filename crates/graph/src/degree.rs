//! Frederickson's degree-3 reduction as a composable wrapper.
//!
//! The paper (Section 1.1) assumes "the maximum degree in `G` is 3 by
//! applying the techniques of Frederickson", at an `O(1)` additive overhead
//! per operation. [`DegreeReduced`] implements that technique dynamically:
//!
//! * every original vertex `v` is represented by a **path of copies**,
//!   consecutive copies joined by auxiliary edges of weight `-inf`,
//! * every real edge incident to `v` is attached to a copy holding no other
//!   real edge, so each copy has degree at most `1 (real) + 2 (aux) = 3`,
//! * because the auxiliary edges have weight `-inf` and form vertex-disjoint
//!   paths, they are always spanning-forest edges; the remaining forest edges
//!   of the transformed graph are exactly the forest edges of the original
//!   graph, with the same ids and weights.
//!
//! Copies are recycled (a deletion frees its copy for later insertions) but
//! never removed, so the transformed vertex count is `n + (historic maximum
//! number of copies)` — `O(n + m)` for the sparse graphs the core structure
//! is run on, which is exactly the regime the paper's analysis assumes.

use crate::graph::Edge;
use crate::ids::{EdgeId, VertexId};
use crate::msf::{DynamicMsf, MsfDelta};
use crate::weight::Weight;

/// First edge id used for auxiliary (`-inf`) edges. Real edge ids passed by
/// the caller must stay below this bound.
pub const AUX_EDGE_BASE: u32 = u32::MAX / 2;

#[derive(Clone, Debug)]
struct OuterVertex {
    /// Copies of this vertex, in path order.
    copies: Vec<VertexId>,
    /// Copies currently holding no real edge (candidates for the next
    /// insertion incident to this vertex).
    free_copies: Vec<VertexId>,
}

#[derive(Clone, Debug)]
struct OuterEdge {
    copy_u: VertexId,
    copy_v: VertexId,
    outer_u: VertexId,
    outer_v: VertexId,
}

/// Degree-3 reduction wrapper around any [`DynamicMsf`] implementation.
///
/// The inner structure only ever sees vertices of degree at most 3, which is
/// the precondition of the paper's chunk-size accounting (Invariant 1).
pub struct DegreeReduced<M: DynamicMsf> {
    inner: M,
    vertices: Vec<OuterVertex>,
    edges: Vec<Option<OuterEdge>>,
    next_aux_id: u32,
}

impl<M: DynamicMsf> DegreeReduced<M> {
    /// Wrap `inner`, which must start empty (zero vertices), and create `n`
    /// outer vertices.
    ///
    /// # Panics
    /// Panics if `inner` already contains vertices.
    pub fn new(n: usize, inner: M) -> Self {
        assert_eq!(
            inner.num_vertices(),
            0,
            "DegreeReduced requires an empty inner structure"
        );
        let mut this = DegreeReduced {
            inner,
            vertices: Vec::with_capacity(n),
            edges: Vec::new(),
            next_aux_id: AUX_EDGE_BASE,
        };
        for _ in 0..n {
            this.add_vertex();
        }
        this
    }

    /// Access the wrapped structure (e.g. to read cost counters).
    pub fn inner(&self) -> &M {
        &self.inner
    }

    /// Mutable access to the wrapped structure.
    pub fn inner_mut(&mut self) -> &mut M {
        &mut self.inner
    }

    /// Number of copy vertices currently present in the inner structure.
    pub fn num_inner_vertices(&self) -> usize {
        self.inner.num_vertices()
    }

    /// Maximum degree any inner vertex can reach (always 3).
    pub const MAX_INNER_DEGREE: usize = 3;

    fn alloc_aux_id(&mut self) -> EdgeId {
        let id = EdgeId(self.next_aux_id);
        self.next_aux_id += 1;
        id
    }

    /// A copy of `v` with a free real-edge slot, creating (and chaining) a new
    /// copy if none is free.
    fn take_free_copy(&mut self, v: VertexId) -> VertexId {
        if let Some(c) = self.vertices[v.index()].free_copies.pop() {
            return c;
        }
        // Extend the path of copies by one.
        let new_copy = self.inner.add_vertex();
        let last = *self.vertices[v.index()]
            .copies
            .last()
            .expect("every outer vertex has at least one copy");
        let aux_id = self.alloc_aux_id();
        let delta = self.inner.insert(Edge {
            id: aux_id,
            u: last,
            v: new_copy,
            weight: Weight::NEG_INF,
        });
        debug_assert_eq!(
            delta.added,
            Some(aux_id),
            "auxiliary -inf edges always join the forest"
        );
        self.vertices[v.index()].copies.push(new_copy);
        new_copy
    }

    fn edge_slot(&mut self, id: EdgeId) -> &mut Option<OuterEdge> {
        let idx = id.index();
        if idx >= self.edges.len() {
            self.edges.resize_with(idx + 1, || None);
        }
        &mut self.edges[idx]
    }

    fn is_aux(id: EdgeId) -> bool {
        id.0 >= AUX_EDGE_BASE
    }
}

impl<M: DynamicMsf> DynamicMsf for DegreeReduced<M> {
    fn num_vertices(&self) -> usize {
        self.vertices.len()
    }

    fn add_vertex(&mut self) -> VertexId {
        let base_copy = self.inner.add_vertex();
        let id = VertexId::from(self.vertices.len());
        self.vertices.push(OuterVertex {
            copies: vec![base_copy],
            free_copies: vec![base_copy],
        });
        id
    }

    fn insert(&mut self, e: Edge) -> MsfDelta {
        assert!(
            e.id.0 < AUX_EDGE_BASE,
            "edge id {:?} collides with the auxiliary id space",
            e.id
        );
        assert!(
            !e.weight.is_neg_inf(),
            "user edges must have finite weight (-inf is reserved)"
        );
        let copy_u = self.take_free_copy(e.u);
        let copy_v = if e.v == e.u {
            // Self-loop: attach both ends to distinct copies so the inner
            // structure never sees a self-loop either.
            self.take_free_copy(e.u)
        } else {
            self.take_free_copy(e.v)
        };
        *self.edge_slot(e.id) = Some(OuterEdge {
            copy_u,
            copy_v,
            outer_u: e.u,
            outer_v: e.v,
        });
        let delta = self.inner.insert(Edge {
            id: e.id,
            u: copy_u,
            v: copy_v,
            weight: e.weight,
        });
        debug_assert!(delta.added.is_none_or(|a| !Self::is_aux(a)));
        debug_assert!(delta.removed.is_none_or(|r| !Self::is_aux(r)));
        delta
    }

    fn delete(&mut self, id: EdgeId) -> MsfDelta {
        let record = self.edges[id.index()]
            .take()
            .unwrap_or_else(|| panic!("edge {id:?} is not live"));
        let delta = self.inner.delete(id);
        self.vertices[record.outer_u.index()]
            .free_copies
            .push(record.copy_u);
        let owner_v = if record.outer_v == record.outer_u {
            record.outer_u
        } else {
            record.outer_v
        };
        self.vertices[owner_v.index()]
            .free_copies
            .push(record.copy_v);
        debug_assert!(delta.added.is_none_or(|a| !Self::is_aux(a)));
        debug_assert!(delta.removed.is_none_or(|r| !Self::is_aux(r)));
        delta
    }

    fn contains_edge(&self, id: EdgeId) -> bool {
        self.edges.get(id.index()).is_some_and(Option::is_some)
    }

    fn is_forest_edge(&self, id: EdgeId) -> bool {
        self.contains_edge(id) && self.inner.is_forest_edge(id)
    }

    fn forest_edges(&self) -> Vec<EdgeId> {
        self.inner
            .forest_edges()
            .into_iter()
            .filter(|&e| !Self::is_aux(e))
            .collect()
    }

    fn forest_weight(&self) -> i128 {
        // Auxiliary edges have -inf weight, which `as_summable` maps to 0, so
        // the inner total already equals the outer total.
        self.inner.forest_weight()
    }

    fn connected(&mut self, u: VertexId, v: VertexId) -> bool {
        let cu = self.vertices[u.index()].copies[0];
        let cv = self.vertices[v.index()].copies[0];
        self.inner.connected(cu, cv)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::DynGraph;
    use crate::msf::assert_matches_kruskal;

    /// A deliberately simple inner structure for testing the wrapper: it
    /// recomputes the MSF from scratch (Kruskal over its live edge list) on
    /// every operation and supports arbitrary caller-chosen edge ids.
    struct MiniRecompute {
        num_vertices: usize,
        edges: Vec<Edge>,
        forest: Vec<EdgeId>,
    }

    impl MiniRecompute {
        fn new() -> Self {
            MiniRecompute {
                num_vertices: 0,
                edges: Vec::new(),
                forest: Vec::new(),
            }
        }
        fn top_degree(&self) -> usize {
            let mut deg = vec![0usize; self.num_vertices];
            for e in &self.edges {
                deg[e.u.index()] += 1;
                if e.v != e.u {
                    deg[e.v.index()] += 1;
                }
            }
            deg.into_iter().max().unwrap_or(0)
        }
        fn refresh(&mut self) -> Vec<EdgeId> {
            let old = std::mem::take(&mut self.forest);
            let mut order: Vec<&Edge> = self.edges.iter().filter(|e| e.u != e.v).collect();
            order.sort_by_key(|e| crate::weight::WKey::new(e.weight, e.id));
            let mut uf = crate::unionfind::UnionFind::new(self.num_vertices);
            for e in order {
                if uf.union(e.u.index(), e.v.index()) {
                    self.forest.push(e.id);
                }
            }
            self.forest.sort_unstable();
            old
        }
        fn delta_from(&self, old: &[EdgeId]) -> MsfDelta {
            let added = self.forest.iter().copied().find(|e| !old.contains(e));
            let removed = old.iter().copied().find(|e| !self.forest.contains(e));
            MsfDelta { added, removed }
        }
    }

    impl DynamicMsf for MiniRecompute {
        fn num_vertices(&self) -> usize {
            self.num_vertices
        }
        fn add_vertex(&mut self) -> VertexId {
            let id = VertexId::from(self.num_vertices);
            self.num_vertices += 1;
            id
        }
        fn insert(&mut self, e: Edge) -> MsfDelta {
            self.edges.push(e);
            let old = self.refresh();
            self.delta_from(&old)
        }
        fn delete(&mut self, id: EdgeId) -> MsfDelta {
            self.edges.retain(|e| e.id != id);
            let old = self.refresh();
            self.delta_from(&old)
        }
        fn contains_edge(&self, id: EdgeId) -> bool {
            self.edges.iter().any(|e| e.id == id)
        }
        fn is_forest_edge(&self, id: EdgeId) -> bool {
            self.forest.contains(&id)
        }
        fn forest_edges(&self) -> Vec<EdgeId> {
            self.forest.clone()
        }
        fn forest_weight(&self) -> i128 {
            self.forest
                .iter()
                .map(|&id| {
                    self.edges
                        .iter()
                        .find(|e| e.id == id)
                        .unwrap()
                        .weight
                        .as_summable()
                })
                .sum()
        }
        fn connected(&mut self, u: VertexId, v: VertexId) -> bool {
            let mut uf = crate::unionfind::UnionFind::new(self.num_vertices);
            for e in &self.edges {
                uf.union(e.u.index(), e.v.index());
            }
            uf.same(u.index(), v.index())
        }
    }

    fn w(x: i64) -> Weight {
        Weight::new(x)
    }

    #[test]
    fn wrapper_matches_reference_on_small_graph() {
        // The inner mirror can't track caller ids if they interleave with aux
        // ids, so this test uses the wrapper end-to-end against an outer
        // mirror instead.
        let mut outer_mirror = DynGraph::new(4);
        let mut dr = DegreeReduced::new(4, MiniRecompute::new());

        let mut ids = Vec::new();
        for (u, v, wt) in [
            (0u32, 1u32, 4i64),
            (1, 2, 2),
            (2, 3, 7),
            (0, 3, 1),
            (0, 2, 9),
        ] {
            let id = outer_mirror.insert_edge(VertexId(u), VertexId(v), w(wt));
            dr.insert(Edge {
                id,
                u: VertexId(u),
                v: VertexId(v),
                weight: w(wt),
            });
            ids.push(id);
        }
        assert_matches_kruskal(&dr, &outer_mirror);

        outer_mirror.delete_edge(ids[1]);
        dr.delete(ids[1]);
        assert_matches_kruskal(&dr, &outer_mirror);
        assert!(dr.connected(VertexId(1), VertexId(3)));
    }

    #[test]
    fn inner_degree_never_exceeds_three() {
        // A star graph: one centre vertex with many incident edges. Without
        // the reduction the centre would have degree 16; with it every copy
        // has degree <= 3.
        let n = 17;
        let mut dr = DegreeReduced::new(n, MiniRecompute::new());
        let mut mirror = DynGraph::new(n);
        for i in 1..n {
            let id = mirror.insert_edge(VertexId(0), VertexId(i as u32), w(i as i64));
            dr.insert(Edge {
                id,
                u: VertexId(0),
                v: VertexId(i as u32),
                weight: w(i as i64),
            });
        }
        assert_matches_kruskal(&dr, &mirror);
        // Inspect the inner structure's degrees directly.
        assert!(dr.inner().top_degree() <= 3, "degree reduction violated");
        assert!(dr.num_inner_vertices() >= n);
    }

    #[test]
    fn copies_are_recycled_after_deletion() {
        let mut dr = DegreeReduced::new(2, MiniRecompute::new());
        let mut mirror = DynGraph::new(2);
        let mut live = Vec::new();
        for round in 0..5 {
            let id = mirror.insert_edge(VertexId(0), VertexId(1), w(round + 1));
            dr.insert(Edge {
                id,
                u: VertexId(0),
                v: VertexId(1),
                weight: w(round + 1),
            });
            live.push(id);
            if live.len() > 1 {
                let victim = live.remove(0);
                mirror.delete_edge(victim);
                dr.delete(victim);
            }
            assert_matches_kruskal(&dr, &mirror);
        }
        // At most 2 copies per endpoint should ever have been needed (one
        // live edge at a time, plus the transient second edge).
        assert!(dr.num_inner_vertices() <= 2 + 2 * 2);
    }

    #[test]
    fn self_loops_are_handled() {
        let mut dr = DegreeReduced::new(1, MiniRecompute::new());
        let mut mirror = DynGraph::new(1);
        let id = mirror.insert_edge(VertexId(0), VertexId(0), w(5));
        let delta = dr.insert(Edge {
            id,
            u: VertexId(0),
            v: VertexId(0),
            weight: w(5),
        });
        // A self-loop becomes an edge between two copies of the same vertex,
        // which are already connected by the aux path, so it never enters the
        // user-visible forest.
        assert!(delta.added.is_none() || delta.added == Some(id));
        assert_eq!(dr.forest_edges(), Vec::<EdgeId>::new());
        assert_matches_kruskal(&dr, &mirror);
    }
}
