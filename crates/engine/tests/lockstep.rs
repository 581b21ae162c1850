//! Lockstep property tests: batched engine execution must be
//! **observationally identical** to applying the same operations one at a
//! time against [`SeqDynamicMsf`] (with queries answered at the batch's
//! snapshot point) and to a Kruskal recompute over the mirror graph —
//! per-op outcomes, forest edge sets and forest weights all agree, for
//! every batch of every generated stream, under hostile inputs: duplicate
//! cuts, cuts of unknown ids, opposing insert/delete pairs, self-loops,
//! out-of-range endpoints and duplicate interleaved queries.
//!
//! Engines with several partitions ride the same harness in two arms —
//! grouped concurrent apply and forced arrival-order serial apply — and
//! must match the one-partition engine, the one-by-one `SeqDynamicMsf`
//! reference and Kruskal exactly, including the component-containment
//! invariants checked by `validate()` after every stream.

use pdmsf_core::seq::default_sequential_k;
use pdmsf_core::SeqDynamicMsf;
use pdmsf_engine::{Engine, Op, Outcome, Reject};
use pdmsf_graph::{
    kruskal_msf, BatchKind, BatchStream, BatchStreamSpec, DynGraph, DynamicMsf, EdgeId, GraphSpec,
    VertexId, Weight,
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

/// An engine with `parts` partitions at the serving chunk parameter.
fn partitioned(n: usize, parts: usize) -> Engine {
    Engine::with_partitions(n, parts, default_sequential_k(n))
}

/// Reference executor: the documented batch semantics implemented the
/// straightforward way — one op at a time against `SeqDynamicMsf` plus a
/// `DynGraph` mirror, queries deferred to the end of the batch.
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
        for (i, op) in deferred {
            outcomes[i] = match op {
                Op::QueryConnected { u, v } => Outcome::Connected {
                    connected: self.msf.connected(u, v),
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

/// The core lockstep check shared by the proptest cases. `batched` is a
/// one-partition engine; `grouped` and `part_serial` have several
/// partitions — the first applies batches as concurrent conflict-free
/// groups, the second is forced onto immediate arrival-order apply — and
/// all three must stay bit-for-bit in lockstep with the references.
/// Returns the two partitioned engines so callers can assert on their
/// cumulative stats (e.g. that a migration-heavy stream really did
/// rebalance).
fn check_lockstep(
    n: usize,
    batches: &[Vec<Op>],
    mut batched: Engine,
    mut grouped: Engine,
    mut part_serial: Engine,
) -> (Engine, Engine) {
    part_serial.set_serial_apply(true);
    let mut reference = Reference::new(n);
    for (b, ops) in batches.iter().enumerate() {
        let expected = reference.run_batch(ops);
        let got_batched = batched.execute(ops);
        let got_grouped = grouped.execute(ops);
        let got_part_serial = part_serial.execute(ops);
        assert_eq!(
            got_batched.outcomes, expected,
            "batched outcomes diverged from one-by-one SeqDynamicMsf in batch {b}"
        );
        assert_eq!(
            got_grouped.outcomes, expected,
            "grouped-apply outcomes diverged from the reference in batch {b}"
        );
        assert_eq!(
            got_part_serial.outcomes, expected,
            "forced-serial partitioned outcomes diverged in batch {b}"
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
        assert_eq!(grouped.forest_edges(), kruskal.edges, "batch {b} grouped");
        assert_eq!(grouped.forest_weight(), kruskal.total_weight);
        assert_eq!(part_serial.forest_edges(), kruskal.edges);
        assert_eq!(part_serial.forest_weight(), kruskal.total_weight);
        // Grouped vs forced-serial apply: identical component homes, not
        // just identical forests.
        let (gp, sp) = (grouped.structure(), part_serial.structure());
        for v in 0..n as u32 {
            assert_eq!(
                gp.home_of(VertexId(v)),
                sp.home_of(VertexId(v)),
                "home of vertex {v} diverged between grouped and serial apply in batch {b}"
            );
        }
    }
    grouped.structure().validate();
    part_serial.structure().validate();
    (grouped, part_serial)
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
        check_lockstep(
            n,
            &batches,
            Engine::new(n),
            partitioned(n, 3),
            partitioned(n, 3),
        );
    }

    /// Same property with a tiny chunk parameter (maximal chunk churn in
    /// the underlying structure).
    #[test]
    fn batched_engine_matches_under_stress_configuration(
        raw in proptest::collection::vec(proptest::collection::vec(raw_op(), 0..24), 1..6)
    ) {
        let n = 10;
        let batches = concretise(n, &raw);
        check_lockstep(
            n,
            &batches,
            Engine::with_partitions(n, 1, 2),
            Engine::with_partitions(n, 4, 2),
            Engine::with_partitions(n, 4, 2),
        );
    }

    /// Migration/rebalance stress: with the rebalance occupancy floor
    /// forced to 1, the partitioned engines re-home components after
    /// nearly every occupancy-skewed batch. Grouped and forced-serial
    /// apply must make identical rebalance decisions (the per-vertex home
    /// equality inside `check_lockstep`) while both stay in lockstep with
    /// the flat engine, the one-by-one reference and Kruskal.
    #[test]
    fn rebalancing_engines_stay_in_lockstep(
        raw in proptest::collection::vec(proptest::collection::vec(raw_op(), 0..32), 1..8)
    ) {
        let n = 12;
        let batches = concretise(n, &raw);
        let mut grouped = partitioned(n, 4);
        grouped.set_rebalance_min(1);
        let mut part_serial = partitioned(n, 4);
        part_serial.set_rebalance_min(1);
        check_lockstep(n, &batches, Engine::new(n), grouped, part_serial);
    }
}

/// A scripted pile-up: bridge links drag every block's chain into vertex
/// 0's partition (the smaller side migrates, `u` on ties), the cut batch
/// strands all four chains there, and the post-batch rebalance spreads
/// them back out — observably (the returned stats must show it) and
/// invisibly (full lockstep with the flat engine and references,
/// including grouped == forced-serial homes after every batch).
#[test]
fn forced_migration_pileup_rebalances_in_lockstep() {
    let n = 16;
    let mk = || {
        let mut e = partitioned(n, 4);
        e.set_rebalance_min(1);
        e
    };
    let link = |u: u32, v: u32, w: i64| Op::Link {
        u: VertexId(u),
        v: VertexId(v),
        weight: Weight::new(w),
    };
    let batches = vec![
        // Chains per 4-vertex block, ids 0..11 — one component per
        // partition.
        (0..4u32)
            .flat_map(|b| (0..3u32).map(move |i| (4 * b + i, 4 * b + i + 1)))
            .enumerate()
            .map(|(i, (u, v))| link(u, v, i as i64 + 1))
            .collect::<Vec<_>>(),
        // Bridges (ids 12..14) pile every chain into vertex 0's partition.
        vec![link(4, 0, 100), link(8, 0, 101), link(12, 0, 102)],
        // Cutting them leaves four components stranded in one partition —
        // the rebalance trigger.
        vec![
            Op::Cut { id: EdgeId(12) },
            Op::Cut { id: EdgeId(13) },
            Op::Cut { id: EdgeId(14) },
        ],
        // Block-local churn rides on the rebalanced layout.
        vec![
            link(0, 2, 50),
            link(5, 7, 51),
            link(9, 11, 52),
            link(13, 15, 53),
        ],
    ];
    let (grouped, part_serial) = check_lockstep(n, &batches, Engine::new(n), mk(), mk());
    assert!(
        grouped.stats().rebalances > 0,
        "the stranded pile-up must trigger a rebalance"
    );
    assert!(grouped.stats().migrations >= 3, "bridges must migrate");
    assert_eq!(grouped.stats().rebalances, part_serial.stats().rebalances);
    assert_eq!(grouped.stats().migrations, part_serial.stats().migrations);
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
        let mut grouped = partitioned(n, 4);
        let mut reference = Reference::new(n);
        // Load the base graph as one initial batch.
        let base: Vec<Op> = stream
            .base_edges
            .iter()
            .map(|&(u, v, weight)| Op::Link { u, v, weight })
            .collect();
        check_lockstep_prefix(&mut batched, &mut grouped, &mut reference, &base);
        let mut saw_cancellation = false;
        for ops in &stream.batches {
            check_lockstep_prefix(&mut batched, &mut grouped, &mut reference, ops);
            saw_cancellation |= batched.stats().cancelled_pairs > 0;
        }
        grouped.structure().validate();
        if matches!(kind, BatchKind::Bursty { .. }) {
            assert!(
                saw_cancellation,
                "bursty stream exercised no cancellation at all"
            );
        }
    }
}

fn check_lockstep_prefix(
    batched: &mut Engine,
    grouped: &mut Engine,
    reference: &mut Reference,
    ops: &[Op],
) {
    let expected = reference.run_batch(ops);
    assert_eq!(batched.execute(ops).outcomes, expected);
    assert_eq!(grouped.execute(ops).outcomes, expected);
    let kruskal = kruskal_msf(&reference.graph);
    assert_eq!(batched.forest_edges(), kruskal.edges);
    assert_eq!(batched.forest_weight(), kruskal.total_weight);
    assert_eq!(grouped.forest_edges(), kruskal.edges);
    assert_eq!(grouped.forest_weight(), kruskal.total_weight);
}
