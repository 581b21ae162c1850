//! Read-only query snapshots and the pooled query fan-out.
//!
//! A batch's queries are all answered at the same logical point — after the
//! batch's updates have been applied — so the engine captures the forest
//! *once* into a flat component-label vector and answers every connectivity
//! query with two array loads. Capturing costs `O(n + f·α(n))` (one
//! union-find sweep over the ≤ `n − 1` forest edges); each answer is `O(1)`
//! and touches no shared mutable state, which is what makes fanning the
//! answer loop out across the worker pool sound: shards write disjoint
//! ranges of the answer vector while other submitters may be running their
//! own pool jobs (the work-stealing multi-job scheduler of
//! `pdmsf_pram::pool`; this fan-out claims contiguous shard runs through
//! its range API).
//!
//! Contrast with answering through the structure: [`DynamicMsf::connected`]
//! takes `&mut self` (link-cut tree reads splay), so per-query answering is
//! inherently serial *and* pays a tree walk per query.

use crate::plan::PlannedQuery;
use crate::Outcome;
use pdmsf_graph::{DynGraph, DynamicMsf, UnionFind, VertexId};
use pdmsf_pram::pool::{self, SendPtr};

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

/// Minimum queries each pool shard should answer: an answer is two array
/// loads, so below this the pool's dispatch round-trip costs more than the
/// loop it distributes.
const QUERIES_PER_SHARD: usize = 1024;

/// Answer the deduplicated queries of a batch against `snapshot`, fanning
/// out across the worker pool when the batch is large enough to pay for
/// dispatch. Answers are returned in query order as final [`Outcome`]s.
pub(crate) fn answer_queries(snapshot: &QuerySnapshot, queries: &[PlannedQuery]) -> Vec<Outcome> {
    let answer = |q: &PlannedQuery| -> Outcome {
        match *q {
            PlannedQuery::Connected { u, v } => Outcome::Connected {
                connected: snapshot.connected(u, v),
            },
            PlannedQuery::ForestWeight => Outcome::ForestWeight {
                weight: snapshot.forest_weight(),
            },
        }
    };
    let shards = pool::parallelism().min(queries.len() / QUERIES_PER_SHARD);
    if shards <= 1 {
        return queries.iter().map(answer).collect();
    }
    let shard_len = queries.len().div_ceil(shards);
    let mut answers: Vec<Outcome> = vec![Outcome::ForestWeight { weight: 0 }; queries.len()];
    let base = SendPtr(answers.as_mut_ptr());
    // Consecutive shards answer consecutive query ranges, so one claimed
    // run of shards collapses into a single contiguous answer sweep (the
    // scheduler hands out runs — chunked claims, halved pops, stolen
    // halves — in one closure dispatch each).
    pool::run_shard_ranges(shards, |range| {
        let start = range.start * shard_len;
        let end = queries.len().min(range.end * shard_len);
        // Shard ranges cover disjoint ranges of `answers`.
        let out = unsafe { std::slice::from_raw_parts_mut(base.get().add(start), end - start) };
        for (slot, q) in out.iter_mut().zip(&queries[start..end]) {
            *slot = answer(q);
        }
    });
    answers
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

    #[test]
    fn fanned_out_answers_match_the_serial_loop() {
        let (g, msf) = line_graph(64);
        let snap = QuerySnapshot::capture(&g, &msf);
        // Enough queries to clear the fan-out cutoff on any machine.
        let queries: Vec<PlannedQuery> = (0..(QUERIES_PER_SHARD * 4))
            .map(|i| {
                if i % 17 == 0 {
                    PlannedQuery::ForestWeight
                } else {
                    PlannedQuery::Connected {
                        u: VertexId((i % 64) as u32),
                        v: VertexId((i * 7 % 64) as u32),
                    }
                }
            })
            .collect();
        let fanned = answer_queries(&snap, &queries);
        let serial: Vec<Outcome> = queries
            .iter()
            .map(|q| match *q {
                PlannedQuery::Connected { u, v } => Outcome::Connected {
                    connected: snap.connected(u, v),
                },
                PlannedQuery::ForestWeight => Outcome::ForestWeight {
                    weight: snap.forest_weight(),
                },
            })
            .collect();
        assert_eq!(fanned, serial);
    }
}
