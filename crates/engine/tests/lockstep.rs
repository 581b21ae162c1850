//! Lockstep property tests: batched engine execution must be
//! **observationally identical** to applying the same operations one at a
//! time against [`SeqDynamicMsf`] (with queries answered at the batch's
//! snapshot point, connectivity by a union-find over the reference
//! mirror's live edges, so that it shares no code with the engine's) and
//! to a Kruskal recompute over the mirror graph —
//! per-op outcomes, forest edge sets and forest weights all agree, for
//! every batch of every generated stream, under hostile inputs: duplicate
//! cuts, cuts of unknown ids, opposing insert/delete pairs, self-loops,
//! out-of-range endpoints and duplicate interleaved queries.

use pdmsf_core::SeqDynamicMsf;
use pdmsf_engine::{Engine, Op, Outcome, Reject};
use pdmsf_graph::{
    kruskal_msf, BatchKind, BatchStream, BatchStreamSpec, DynGraph, DynamicMsf, EdgeId, GraphSpec,
    UnionFind, VertexId, Weight,
};
use proptest::prelude::*;

/// Compact encoding of a batch operation; concretised against the running
/// edge-id allocation when the stream is replayed.
#[derive(Clone, Copy, Debug)]
enum RawOp {
    /// Insert `(u, v, w)`; endpoints are reduced mod `n + 1`, so a slice of
    /// them lands out of range and some pairs collide into self-loops.
    Link { u: u8, v: u8, w: u8 },
    /// Cut the `k`-th currently live edge (usually valid; becomes a
    /// duplicate/dead cut when a bogus cut already killed the edge).
    /// Frequently hits edges born earlier in the same batch, which is
    /// exactly the opposing-pair case the engine cancels.
    CutNth(u8),
    /// Cut an arbitrary id near the allocation frontier: unknown ids,
    /// already-dead ids and duplicate cuts.
    CutBogus(u8),
    /// Connectivity query (same endpoint encoding as `Link`).
    QueryConn { u: u8, v: u8 },
    /// Forest-weight query.
    QueryWeight,
}

fn raw_op() -> impl Strategy<Value = RawOp> {
    prop_oneof![
        4 => (any::<u8>(), any::<u8>(), any::<u8>()).prop_map(|(u, v, w)| RawOp::Link { u, v, w }),
        3 => any::<u8>().prop_map(RawOp::CutNth),
        1 => any::<u8>().prop_map(RawOp::CutBogus),
        3 => (any::<u8>(), any::<u8>()).prop_map(|(u, v)| RawOp::QueryConn { u, v }),
        1 => (0u32..1).prop_map(|_| RawOp::QueryWeight),
    ]
}

/// Reference executor: the documented batch semantics implemented the
/// straightforward way — one op at a time against `SeqDynamicMsf` plus a
/// `DynGraph` mirror, queries deferred to the end of the batch and
/// connectivity read off a union-find over the mirror's live edges.
struct Reference {
    graph: DynGraph,
    msf: SeqDynamicMsf,
}

impl Reference {
    fn new(n: usize) -> Reference {
        Reference {
            graph: DynGraph::new(n),
            msf: SeqDynamicMsf::new(n),
        }
    }

    fn run_batch(&mut self, ops: &[Op]) -> Vec<Outcome> {
        let n = self.graph.num_vertices();
        let mut outcomes = Vec::with_capacity(ops.len());
        let mut deferred: Vec<(usize, Op)> = Vec::new();
        for (i, op) in ops.iter().enumerate() {
            let outcome = match *op {
                Op::Link { u, v, weight } => {
                    if u.index() >= n || v.index() >= n {
                        Outcome::Rejected {
                            reason: Reject::EndpointOutOfRange,
                        }
                    } else if u == v {
                        Outcome::Rejected {
                            reason: Reject::SelfLoop,
                        }
                    } else {
                        let id = self.graph.insert_edge(u, v, weight);
                        self.msf.insert(self.graph.edge_unchecked(id));
                        Outcome::Linked { id }
                    }
                }
                Op::Cut { id } => {
                    if !self.graph.is_live(id) {
                        Outcome::Rejected {
                            reason: Reject::UnknownOrDeadEdge,
                        }
                    } else {
                        self.graph.delete_edge(id);
                        self.msf.delete(id);
                        Outcome::Cut { id }
                    }
                }
                Op::QueryConnected { u, v } => {
                    if u.index() >= n || v.index() >= n {
                        Outcome::Rejected {
                            reason: Reject::EndpointOutOfRange,
                        }
                    } else {
                        deferred.push((i, *op));
                        Outcome::Connected { connected: false }
                    }
                }
                Op::QueryForestWeight => {
                    deferred.push((i, *op));
                    Outcome::ForestWeight { weight: 0 }
                }
            };
            outcomes.push(outcome);
        }
        let mut components = UnionFind::new(n);
        for e in self.graph.edges() {
            components.union(e.u.index(), e.v.index());
        }
        for (i, op) in deferred {
            outcomes[i] = match op {
                Op::QueryConnected { u, v } => Outcome::Connected {
                    connected: components.same(u.index(), v.index()),
                },
                Op::QueryForestWeight => Outcome::ForestWeight {
                    weight: self.msf.forest_weight(),
                },
                _ => unreachable!("only queries are deferred"),
            };
        }
        outcomes
    }
}

/// Concretise raw batches into engine ops, tracking a (best-effort) live
/// list so `CutNth` usually targets real edges — including edges born
/// earlier in the same batch.
fn concretise(n: usize, raw_batches: &[Vec<RawOp>]) -> Vec<Vec<Op>> {
    let endpoint = |x: u8| VertexId((x as usize % (n + 1)) as u32);
    let mut next_id = 0u32;
    let mut live: Vec<EdgeId> = Vec::new();
    let mut batches = Vec::with_capacity(raw_batches.len());
    for raw in raw_batches {
        let mut ops = Vec::with_capacity(raw.len());
        for r in raw {
            let op = match *r {
                RawOp::Link { u, v, w } => {
                    let (u, v) = (endpoint(u), endpoint(v));
                    // Mirror the engine's id allocation: only valid links
                    // consume an id.
                    if u.index() < n && v.index() < n && u != v {
                        live.push(EdgeId(next_id));
                        next_id += 1;
                    }
                    Op::Link {
                        u,
                        v,
                        weight: Weight::new(w as i64),
                    }
                }
                RawOp::CutNth(k) => {
                    if live.is_empty() {
                        Op::Cut { id: EdgeId(9999) }
                    } else {
                        let idx = k as usize % live.len();
                        Op::Cut {
                            id: live.swap_remove(idx),
                        }
                    }
                }
                RawOp::CutBogus(k) => Op::Cut {
                    id: EdgeId((k as u32) % (next_id + 3)),
                },
                RawOp::QueryConn { u, v } => Op::QueryConnected {
                    u: endpoint(u),
                    v: endpoint(v),
                },
                RawOp::QueryWeight => Op::QueryForestWeight,
            };
            ops.push(op);
        }
        batches.push(ops);
    }
    batches
}

/// The core lockstep check shared by the proptest cases: `batched` must
/// stay bit-for-bit in lockstep with the references after every batch.
fn check_lockstep(n: usize, batches: &[Vec<Op>], mut batched: Engine) {
    let mut reference = Reference::new(n);
    for (b, ops) in batches.iter().enumerate() {
        let expected = reference.run_batch(ops);
        let got_batched = batched.execute(ops);
        assert_eq!(
            got_batched.outcomes, expected,
            "batched outcomes diverged from one-by-one SeqDynamicMsf in batch {b}"
        );
        // Structural lockstep after every batch.
        let kruskal = kruskal_msf(&reference.graph);
        assert_eq!(
            batched.forest_edges(),
            kruskal.edges,
            "batch {b} vs Kruskal"
        );
        assert_eq!(batched.forest_edges(), reference.msf.forest_edges());
        assert_eq!(batched.forest_weight(), kruskal.total_weight);
    }
    batched.structure().validate();
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 20,
        .. ProptestConfig::default()
    })]

    /// Batched execution == one-by-one SeqDynamicMsf == Kruskal, under
    /// hostile random batches, with the engine's default configuration.
    #[test]
    fn batched_engine_matches_one_by_one_and_kruskal(
        raw in proptest::collection::vec(proptest::collection::vec(raw_op(), 0..24), 1..8)
    ) {
        let n = 8;
        let batches = concretise(n, &raw);
        check_lockstep(n, &batches, Engine::new(n));
    }

    /// Same property with a tiny chunk parameter (maximal chunk churn in
    /// the underlying structure).
    #[test]
    fn batched_engine_matches_under_stress_configuration(
        raw in proptest::collection::vec(proptest::collection::vec(raw_op(), 0..24), 1..6)
    ) {
        let n = 10;
        let batches = concretise(n, &raw);
        check_lockstep(n, &batches, Engine::with_chunk_parameter(n, 2));
    }
}

/// The generator-produced batch streams (the E1 workloads) also hold the
/// lockstep property — this pins the benchmark inputs to the verified
/// semantics, including their flap pairs and duplicate queries.
#[test]
fn generated_batch_streams_hold_the_lockstep_property() {
    for (kind, seed) in [
        (
            BatchKind::Bursty {
                query_permille: 500,
                flap_permille: 300,
            },
            41u64,
        ),
        (
            BatchKind::Clustered {
                clusters: 3,
                query_permille: 400,
            },
            43,
        ),
    ] {
        let stream = BatchStream::generate(&BatchStreamSpec {
            base: GraphSpec::RandomSparse {
                n: 48,
                m: 96,
                seed: 7,
            },
            batches: 10,
            batch_size: 32,
            kind,
            seed,
        });
        let n = stream.num_vertices;
        let mut batched = Engine::new(n);
        let mut reference = Reference::new(n);
        // Load the base graph as one initial batch.
        let base: Vec<Op> = stream
            .base_edges
            .iter()
            .map(|&(u, v, weight)| Op::Link { u, v, weight })
            .collect();
        check_lockstep_prefix(&mut batched, &mut reference, &base);
        let mut saw_cancellation = false;
        for ops in &stream.batches {
            check_lockstep_prefix(&mut batched, &mut reference, ops);
            saw_cancellation |= batched.stats().cancelled_pairs > 0;
        }
        batched.structure().validate();
        if matches!(kind, BatchKind::Bursty { .. }) {
            assert!(
                saw_cancellation,
                "bursty stream exercised no cancellation at all"
            );
        }
    }
}

fn check_lockstep_prefix(batched: &mut Engine, reference: &mut Reference, ops: &[Op]) {
    let expected = reference.run_batch(ops);
    assert_eq!(batched.execute(ops).outcomes, expected);
    let kruskal = kruskal_msf(&reference.graph);
    assert_eq!(batched.forest_edges(), kruskal.edges);
    assert_eq!(batched.forest_weight(), kruskal.total_weight);
}
