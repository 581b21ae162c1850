//! # pdmsf-baselines
//!
//! Comparison implementations of the [`DynamicMsf`] trait.
//!
//! The paper positions its structure against the classical worst-case
//! approaches (Frederickson's `O(sqrt m)` structure and its sparsified
//! `O(sqrt n)` variant) and against the trivial ones. This crate implements
//! the two bracketing baselines (the tests use both as oracles, and
//! `examples/road_network.rs` times both):
//!
//! * [`RecomputeMsf`] — recompute the forest from scratch (Kruskal) after
//!   every update; `O(m log m)` per update. The "no data structure at all"
//!   lower bracket every dynamic algorithm must beat.
//! * [`NaiveDynamicMsf`] — maintain the forest in a link-cut tree and handle
//!   tree-edge deletions by scanning **all** non-tree edges for the
//!   minimum-weight replacement; `O(log n)` insertions but `Θ(m log n)`
//!   worst-case deletions. This is the structure the paper's chunk/LSDS
//!   machinery exists to avoid: the MWR search is the whole game.
//!
//! Both are exact (they maintain the same unique MSF as the reference
//! Kruskal), which the test-suite checks on randomized update streams.

use pdmsf_dyntree::LinkCutForest;
use pdmsf_graph::{kruskal_msf, DynGraph, DynamicMsf, Edge, EdgeId, MsfDelta, VertexId, WKey};
use std::collections::BTreeMap;

/// Baseline that recomputes the minimum spanning forest from scratch after
/// every update.
#[derive(Clone, Debug, Default)]
pub struct RecomputeMsf {
    mirror: DynGraph,
    /// Map from caller edge id to the mirror's edge id (the mirror allocates
    /// its own sequential ids).
    to_mirror: BTreeMap<EdgeId, EdgeId>,
    from_mirror: BTreeMap<EdgeId, EdgeId>,
    forest: Vec<EdgeId>,
    forest_weight: i128,
}

impl RecomputeMsf {
    /// A structure over `n` isolated vertices.
    pub fn new(n: usize) -> Self {
        RecomputeMsf {
            mirror: DynGraph::new(n),
            ..Default::default()
        }
    }

    fn refresh(&mut self) -> Vec<EdgeId> {
        let old = std::mem::take(&mut self.forest);
        let summary = kruskal_msf(&self.mirror);
        self.forest_weight = summary.total_weight;
        self.forest = summary
            .edges
            .into_iter()
            .map(|mid| self.from_mirror[&mid])
            .collect();
        self.forest.sort_unstable();
        old
    }

    fn delta(&self, old: &[EdgeId]) -> MsfDelta {
        MsfDelta {
            added: self.forest.iter().copied().find(|e| !old.contains(e)),
            removed: old.iter().copied().find(|e| !self.forest.contains(e)),
        }
    }
}

impl DynamicMsf for RecomputeMsf {
    fn num_vertices(&self) -> usize {
        self.mirror.num_vertices()
    }

    fn insert(&mut self, e: Edge) -> MsfDelta {
        let mid = self.mirror.insert_edge(e.u, e.v, e.weight);
        self.to_mirror.insert(e.id, mid);
        self.from_mirror.insert(mid, e.id);
        let old = self.refresh();
        self.delta(&old)
    }

    fn delete(&mut self, id: EdgeId) -> MsfDelta {
        let mid = self
            .to_mirror
            .remove(&id)
            .unwrap_or_else(|| panic!("edge {id:?} is not live"));
        self.from_mirror.remove(&mid);
        self.mirror.delete_edge(mid);
        let old = self.refresh();
        self.delta(&old)
    }

    fn contains_edge(&self, id: EdgeId) -> bool {
        self.to_mirror.contains_key(&id)
    }

    fn is_forest_edge(&self, id: EdgeId) -> bool {
        self.forest.binary_search(&id).is_ok()
    }

    fn forest_edges(&self) -> Vec<EdgeId> {
        self.forest.clone()
    }

    fn forest_weight(&self) -> i128 {
        self.forest_weight
    }

    fn connected(&mut self, u: VertexId, v: VertexId) -> bool {
        let mut uf = pdmsf_graph::UnionFind::new(self.mirror.num_vertices());
        for e in self.mirror.edges() {
            uf.union(e.u.index(), e.v.index());
        }
        uf.same(u.index(), v.index())
    }
}

/// Baseline that maintains the forest in a link-cut tree and answers
/// tree-edge deletions by a linear scan over all non-tree edges.
#[derive(Clone, Debug)]
pub struct NaiveDynamicMsf {
    forest: LinkCutForest,
    /// All live edges.
    edges: BTreeMap<EdgeId, Edge>,
    /// Live edges currently in the forest.
    tree_edges: BTreeMap<EdgeId, Edge>,
    forest_weight: i128,
}

impl NaiveDynamicMsf {
    /// A structure over `n` isolated vertices.
    pub fn new(n: usize) -> Self {
        NaiveDynamicMsf {
            forest: LinkCutForest::new(n),
            edges: BTreeMap::new(),
            tree_edges: BTreeMap::new(),
            forest_weight: 0,
        }
    }

    fn add_to_forest(&mut self, e: Edge) {
        self.forest.link(e.u, e.v, e.id, WKey::new(e.weight, e.id));
        self.tree_edges.insert(e.id, e);
        self.forest_weight += e.weight.as_summable();
    }

    fn remove_from_forest(&mut self, id: EdgeId) -> Edge {
        let e = self.tree_edges.remove(&id).expect("not a forest edge");
        self.forest.cut(id);
        self.forest_weight -= e.weight.as_summable();
        e
    }
}

impl DynamicMsf for NaiveDynamicMsf {
    fn num_vertices(&self) -> usize {
        self.forest.num_vertices()
    }

    fn insert(&mut self, e: Edge) -> MsfDelta {
        assert!(
            !self.edges.contains_key(&e.id),
            "edge {:?} already inserted",
            e.id
        );
        self.edges.insert(e.id, e);
        if e.u == e.v {
            return MsfDelta::NONE;
        }
        if !self.forest.connected(e.u, e.v) {
            self.add_to_forest(e);
            return MsfDelta::added(e.id);
        }
        // Same tree: replace the heaviest path edge if the new edge is lighter.
        let heaviest = self
            .forest
            .path_max(e.u, e.v)
            .expect("connected vertices have a path");
        if WKey::new(e.weight, e.id) < heaviest {
            self.remove_from_forest(heaviest.edge);
            self.add_to_forest(e);
            MsfDelta::swap(e.id, heaviest.edge)
        } else {
            MsfDelta::NONE
        }
    }

    fn delete(&mut self, id: EdgeId) -> MsfDelta {
        let e = self
            .edges
            .remove(&id)
            .unwrap_or_else(|| panic!("edge {id:?} is not live"));
        if !self.tree_edges.contains_key(&id) {
            return MsfDelta::NONE;
        }
        self.remove_from_forest(id);
        // Linear scan over every remaining edge for the cheapest one that
        // reconnects the two sides — this is the O(m) step the paper's
        // structure avoids.
        let mut best: Option<(WKey, Edge)> = None;
        for cand in self.edges.values() {
            if cand.u == cand.v || self.tree_edges.contains_key(&cand.id) {
                continue;
            }
            let crosses = {
                let au = self.forest.connected(cand.u, e.u);
                let bu = self.forest.connected(cand.v, e.u);
                let av = self.forest.connected(cand.u, e.v);
                let bv = self.forest.connected(cand.v, e.v);
                (au && bv) || (av && bu)
            };
            if crosses {
                let key = WKey::new(cand.weight, cand.id);
                if best.is_none_or(|(bk, _)| key < bk) {
                    best = Some((key, *cand));
                }
            }
        }
        match best {
            Some((_, replacement)) => {
                self.add_to_forest(replacement);
                MsfDelta::swap(replacement.id, id)
            }
            None => MsfDelta::removed(id),
        }
    }

    fn contains_edge(&self, id: EdgeId) -> bool {
        self.edges.contains_key(&id)
    }

    fn is_forest_edge(&self, id: EdgeId) -> bool {
        self.tree_edges.contains_key(&id)
    }

    fn forest_edges(&self) -> Vec<EdgeId> {
        self.tree_edges.keys().copied().collect()
    }

    fn forest_weight(&self) -> i128 {
        self.forest_weight
    }

    fn connected(&mut self, u: VertexId, v: VertexId) -> bool {
        self.forest.connected(u, v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdmsf_graph::{
        assert_matches_kruskal, GraphSpec, StreamKind, UpdateOp, UpdateStream, UpdateStreamSpec,
        Weight,
    };

    fn drive<M: DynamicMsf>(structure: &mut M, stream: &UpdateStream) {
        stream.replay_with(|mirror, op| {
            match op {
                None => {
                    // Base graph: feed every base edge.
                    for e in mirror.edges() {
                        structure.insert(e);
                    }
                }
                Some(&UpdateOp::Insert(e)) => {
                    structure.insert(e);
                }
                Some(UpdateOp::Delete { id }) => {
                    structure.delete(*id);
                }
            }
            assert_matches_kruskal(structure, mirror);
        });
    }

    #[test]
    fn recompute_matches_kruskal_on_mixed_stream() {
        let stream = UpdateStream::generate(&UpdateStreamSpec {
            base: GraphSpec::RandomSparse {
                n: 30,
                m: 45,
                seed: 1,
            },
            ops: 120,
            kind: StreamKind::Mixed {
                insert_permille: 500,
            },
            seed: 2,
        });
        let mut s = RecomputeMsf::new(30);
        drive(&mut s, &stream);
    }

    #[test]
    fn naive_matches_kruskal_on_mixed_stream() {
        let stream = UpdateStream::generate(&UpdateStreamSpec {
            base: GraphSpec::RandomSparse {
                n: 40,
                m: 70,
                seed: 3,
            },
            ops: 200,
            kind: StreamKind::Mixed {
                insert_permille: 480,
            },
            seed: 4,
        });
        let mut s = NaiveDynamicMsf::new(40);
        drive(&mut s, &stream);
    }

    #[test]
    fn naive_matches_kruskal_on_failure_stream() {
        let stream = UpdateStream::generate(&UpdateStreamSpec {
            base: GraphSpec::Grid {
                rows: 5,
                cols: 6,
                seed: 5,
            },
            ops: 1000,
            kind: StreamKind::Failures,
            seed: 6,
        });
        let mut s = NaiveDynamicMsf::new(30);
        drive(&mut s, &stream);
    }

    #[test]
    fn insert_reports_swap_delta() {
        let mut s = NaiveDynamicMsf::new(3);
        let e = |id: u32, u: u32, v: u32, w: i64| Edge {
            id: EdgeId(id),
            u: VertexId(u),
            v: VertexId(v),
            weight: Weight::new(w),
        };
        assert_eq!(s.insert(e(0, 0, 1, 5)), MsfDelta::added(EdgeId(0)));
        assert_eq!(s.insert(e(1, 1, 2, 6)), MsfDelta::added(EdgeId(1)));
        // Cheaper parallel path edge replaces the heaviest cycle edge.
        assert_eq!(
            s.insert(e(2, 0, 2, 1)),
            MsfDelta::swap(EdgeId(2), EdgeId(1))
        );
        // Heavier edge changes nothing.
        assert_eq!(s.insert(e(3, 0, 1, 100)), MsfDelta::NONE);
        assert_eq!(s.forest_weight(), 5 + 1);
    }

    #[test]
    fn delete_reports_replacement_delta() {
        let mut s = NaiveDynamicMsf::new(4);
        let e = |id: u32, u: u32, v: u32, w: i64| Edge {
            id: EdgeId(id),
            u: VertexId(u),
            v: VertexId(v),
            weight: Weight::new(w),
        };
        s.insert(e(0, 0, 1, 1));
        s.insert(e(1, 1, 2, 2));
        s.insert(e(2, 0, 2, 10)); // non-tree
        s.insert(e(3, 2, 3, 4));
        // Deleting a non-tree edge: no forest change.
        assert_eq!(s.delete(EdgeId(2)), MsfDelta::NONE);
        s.insert(e(4, 0, 2, 11)); // non-tree again
                                  // Deleting tree edge 1 forces the replacement 4.
        assert_eq!(s.delete(EdgeId(1)), MsfDelta::swap(EdgeId(4), EdgeId(1)));
        assert!(s.is_forest_edge(EdgeId(4)));
        // Deleting a bridge with no replacement just removes it.
        assert_eq!(s.delete(EdgeId(3)), MsfDelta::removed(EdgeId(3)));
        assert!(!s.connected(VertexId(0), VertexId(3)));
    }

    #[test]
    fn recompute_and_naive_agree() {
        let stream = UpdateStream::generate(&UpdateStreamSpec {
            base: GraphSpec::PreferentialAttachment {
                n: 25,
                attach: 2,
                seed: 7,
            },
            ops: 150,
            kind: StreamKind::Mixed {
                insert_permille: 520,
            },
            seed: 8,
        });
        let mut a = RecomputeMsf::new(25);
        let mut b = NaiveDynamicMsf::new(25);
        stream.replay_with(|mirror, op| {
            match op {
                None => {
                    for e in mirror.edges() {
                        a.insert(e);
                        b.insert(e);
                    }
                }
                Some(&UpdateOp::Insert(e)) => {
                    let da = a.insert(e);
                    let db = b.insert(e);
                    assert_eq!(da, db, "insert deltas diverged");
                }
                Some(UpdateOp::Delete { id }) => {
                    let da = a.delete(*id);
                    let db = b.delete(*id);
                    assert_eq!(da, db, "delete deltas diverged");
                }
            }
            assert_eq!(a.forest_edges(), b.forest_edges());
            assert_eq!(a.forest_weight(), b.forest_weight());
        });
    }
}
