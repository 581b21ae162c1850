//! Tests of the chunked Euler-tour forest, driven through the structure
//! front end at several chunk parameters and differentially checked against
//! the Kruskal reference and the baseline structures.

use crate::forest::events::{counted, Event};
use crate::seq::{default_parallel_k, SeqDynamicMsf};
use pdmsf_baselines::NaiveDynamicMsf;
use pdmsf_graph::{
    assert_matches_kruskal, DynamicMsf, Edge, EdgeId, GraphSpec, MsfDelta, StreamKind, UpdateOp,
    UpdateStream, UpdateStreamSpec, VertexId, WKey, Weight,
};

fn edge(id: u32, u: u32, v: u32, w: i64) -> Edge {
    Edge {
        id: EdgeId(id),
        u: VertexId(u),
        v: VertexId(v),
        weight: Weight::new(w),
    }
}

/// The structure of Theorem 3.1 at the paper's `K = ⌈√n⌉`.
fn erew(n: usize) -> SeqDynamicMsf {
    SeqDynamicMsf::with_chunk_parameter(n, default_parallel_k(n))
}

/// Drive a structure through a stream, checking against Kruskal (and the
/// internal invariants when `validate` is provided) after every operation.
fn drive_checked<M: DynamicMsf>(
    structure: &mut M,
    stream: &UpdateStream,
    mut validate: impl FnMut(&M),
) {
    stream.replay_with(|mirror, op| {
        match op {
            None => {
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
        validate(structure);
    });
}

#[test]
fn small_hand_driven_sequence() {
    let mut s = SeqDynamicMsf::with_chunk_parameter(6, 3);
    assert_eq!(
        s.insert(edge(0, 0, 1, 4)),
        pdmsf_graph::MsfDelta::added(EdgeId(0))
    );
    assert_eq!(
        s.insert(edge(1, 1, 2, 2)),
        pdmsf_graph::MsfDelta::added(EdgeId(1))
    );
    assert_eq!(s.insert(edge(2, 0, 2, 7)), pdmsf_graph::MsfDelta::NONE);
    s.validate();
    // Lighter parallel edge replaces the heaviest cycle edge.
    assert_eq!(
        s.insert(edge(3, 0, 1, 1)),
        pdmsf_graph::MsfDelta::swap(EdgeId(3), EdgeId(0))
    );
    s.validate();
    assert!(s.connected(VertexId(0), VertexId(2)));
    assert!(!s.connected(VertexId(0), VertexId(5)));
    assert_eq!(s.forest_weight(), 1 + 2);
    // Deleting a forest edge finds the replacement (the weight-7 edge).
    assert_eq!(
        s.delete(EdgeId(1)),
        pdmsf_graph::MsfDelta::swap(EdgeId(2), EdgeId(1))
    );
    s.validate();
    assert_eq!(s.forest_weight(), 1 + 7);
    // Deleting a bridge disconnects.
    assert_eq!(
        s.delete(EdgeId(2)),
        pdmsf_graph::MsfDelta::removed(EdgeId(2))
    );
    assert!(!s.connected(VertexId(0), VertexId(2)));
    s.validate();
}

#[test]
fn isolated_vertices_and_self_loops() {
    let mut s = SeqDynamicMsf::with_chunk_parameter(4, 2);
    assert_eq!(s.insert(edge(0, 1, 1, 5)), pdmsf_graph::MsfDelta::NONE);
    s.validate();
    assert_eq!(s.delete(EdgeId(0)), pdmsf_graph::MsfDelta::NONE);
    s.validate();
    assert!(!s.connected(VertexId(3), VertexId(0)));
    assert_eq!(
        s.insert(edge(1, 3, 0, 2)),
        pdmsf_graph::MsfDelta::added(EdgeId(1))
    );
    s.validate();
}

#[test]
fn seq_matches_kruskal_small_chunks_mixed_stream() {
    // A deliberately tiny K forces constant chunk splits / merges and short
    // list transitions.
    for (n, k, seed) in [(12usize, 2usize, 1u64), (20, 3, 2), (32, 4, 3)] {
        let stream = UpdateStream::generate(&UpdateStreamSpec {
            base: GraphSpec::RandomSparse { n, m: n * 2, seed },
            ops: 250,
            kind: StreamKind::Mixed {
                insert_permille: 480,
            },
            seed: seed + 100,
        });
        let mut s = SeqDynamicMsf::with_chunk_parameter(n, k);
        drive_checked(&mut s, &stream, |m| m.validate());
    }
}

#[test]
fn seq_matches_kruskal_default_k() {
    let n = 60;
    let stream = UpdateStream::generate(&UpdateStreamSpec {
        base: GraphSpec::RandomSparse {
            n,
            m: 2 * n,
            seed: 7,
        },
        ops: 400,
        kind: StreamKind::Mixed {
            insert_permille: 500,
        },
        seed: 11,
    });
    let mut s = SeqDynamicMsf::new(n);
    drive_checked(&mut s, &stream, |m| m.validate());
}

#[test]
fn seq_matches_kruskal_on_failure_stream() {
    // Delete-only stream over a grid: most deletions hit tree edges and
    // exercise the MWR search.
    let stream = UpdateStream::generate(&UpdateStreamSpec {
        base: GraphSpec::Grid {
            rows: 6,
            cols: 6,
            seed: 13,
        },
        ops: 100,
        kind: StreamKind::Failures,
        seed: 17,
    });
    let mut s = SeqDynamicMsf::with_chunk_parameter(36, 4);
    drive_checked(&mut s, &stream, |m| m.validate());
}

#[test]
fn seq_matches_kruskal_sliding_window() {
    let n = 40;
    let stream = UpdateStream::generate(&UpdateStreamSpec {
        base: GraphSpec::RandomSparse { n, m: 30, seed: 19 },
        ops: 300,
        kind: StreamKind::SlidingWindow { window: 60 },
        seed: 23,
    });
    let mut s = SeqDynamicMsf::with_chunk_parameter(n, 5);
    drive_checked(&mut s, &stream, |m| m.validate());
}

#[test]
fn par_produces_identical_forests_and_logarithmic_depth() {
    let n = 48;
    let stream = UpdateStream::generate(&UpdateStreamSpec {
        base: GraphSpec::RandomSparse {
            n,
            m: 2 * n,
            seed: 29,
        },
        ops: 300,
        kind: StreamKind::Mixed {
            insert_permille: 500,
        },
        seed: 31,
    });
    let mut par = erew(n);
    let mut seq = SeqDynamicMsf::new(n);
    stream.replay_with(|mirror, op| {
        match op {
            None => {
                for e in mirror.edges() {
                    par.insert(e);
                    seq.insert(e);
                }
            }
            Some(&UpdateOp::Insert(e)) => {
                assert_eq!(par.insert(e), seq.insert(e));
            }
            Some(UpdateOp::Delete { id }) => {
                assert_eq!(par.delete(*id), seq.delete(*id));
            }
        }
        assert_eq!(par.forest_edges(), seq.forest_edges());
        assert_matches_kruskal(&par, mirror);
    });
    par.validate();
    // The PRAM accounting must show sub-linear depth per operation: the
    // worst-case depth should be well below the work (which is Θ(sqrt n)-ish)
    // and bounded by a small multiple of log^2 n for these sizes.
    let worst = par.meter().worst_op();
    assert!(worst.depth > 0);
    assert!(
        worst.depth < 40 * 6 * 6,
        "parallel depth {} looks super-logarithmic",
        worst.depth
    );
    assert!(worst.work >= worst.depth);
}

#[test]
fn chunk_parameter_extremes_still_correct() {
    // K larger than the whole graph (single chunk per list) and K = 2
    // (maximum fragmentation) must both remain correct.
    for k in [2usize, 1000] {
        let stream = UpdateStream::generate(&UpdateStreamSpec {
            base: GraphSpec::PreferentialAttachment {
                n: 24,
                attach: 2,
                seed: 37,
            },
            ops: 200,
            kind: StreamKind::Mixed {
                insert_permille: 470,
            },
            seed: 41,
        });
        let mut s = SeqDynamicMsf::with_chunk_parameter(24, k);
        drive_checked(&mut s, &stream, |m| m.validate());
    }
}

#[test]
fn seq_agrees_with_naive_baseline_including_deltas() {
    let n = 30;
    let stream = UpdateStream::generate(&UpdateStreamSpec {
        base: GraphSpec::RandomSparse { n, m: 50, seed: 43 },
        ops: 250,
        kind: StreamKind::Mixed {
            insert_permille: 500,
        },
        seed: 47,
    });
    let mut a = SeqDynamicMsf::with_chunk_parameter(n, 4);
    let mut b = NaiveDynamicMsf::new(n);
    // Replay manually so deltas can be compared op by op.
    stream.replay_with(|mirror, op| {
        match op {
            None => {
                for e in mirror.edges() {
                    assert_eq!(a.insert(e), b.insert(e));
                }
            }
            Some(&UpdateOp::Insert(e)) => {
                assert_eq!(a.insert(e), b.insert(e), "insert deltas diverged");
            }
            Some(UpdateOp::Delete { id }) => {
                assert_eq!(a.delete(*id), b.delete(*id), "delete deltas diverged");
            }
        }
        assert_eq!(a.forest_edges(), b.forest_edges());
    });
}

/// The plain structure at density m = 8n, validated after every op: every
/// engine serves dense graphs without sparsification.
#[test]
fn seq_matches_kruskal_on_dense_graph() {
    let n = 24;
    let stream = UpdateStream::generate(&UpdateStreamSpec {
        base: GraphSpec::RandomSparse {
            n,
            m: 8 * n,
            seed: 53,
        },
        ops: 200,
        kind: StreamKind::Mixed {
            insert_permille: 500,
        },
        seed: 59,
    });
    let mut s = SeqDynamicMsf::with_chunk_parameter(n, 4);
    drive_checked(&mut s, &stream, |m| m.validate());
}

#[test]
fn forest_stats_report_invariant_one() {
    let n = 64;
    let stream = UpdateStream::generate(&UpdateStreamSpec {
        base: GraphSpec::RandomSparse {
            n,
            m: 2 * n,
            seed: 61,
        },
        ops: 300,
        kind: StreamKind::Mixed {
            insert_permille: 520,
        },
        seed: 67,
    });
    let mut s = SeqDynamicMsf::with_chunk_parameter(n, 6);
    drive_checked(&mut s, &stream, |_| ());
    let stats = s.forest_stats();
    assert!(stats.chunks >= 1);
    // One occurrence per tree-edge end, and one for a vertex whose edges
    // are all non-tree edges; a vertex with no edge holds none.
    let graph = stream.replay_with(|_, _| ());
    let mut has_edge = vec![false; n];
    for e in graph.edges() {
        has_edge[e.u.index()] = true;
        has_edge[e.v.index()] = true;
    }
    let mut tree_degree = vec![0usize; n];
    for id in s.forest_edges() {
        let e = graph.edge_unchecked(id);
        tree_degree[e.u.index()] += 1;
        tree_degree[e.v.index()] += 1;
    }
    let expected: usize = (0..n)
        .filter(|&v| has_edge[v])
        .map(|v| tree_degree[v].max(1))
        .sum();
    assert!(
        has_edge.contains(&false),
        "the stream leaves no vertex edgeless"
    );
    assert_eq!(stats.occurrences, expected);
    // Invariant 1 upper bound (the graph is low-degree enough here).
    assert!(
        stats.max_nc <= 3 * s.chunk_parameter() + 8,
        "max n_c = {} exceeds 3K = {}",
        stats.max_nc,
        3 * s.chunk_parameter()
    );
    assert_eq!(stats.k, 6);
}

/// The `CAdj` entry between the chunks holding `a`'s and `b`'s principal
/// copies (both chunks must carry ids).
fn pair_entry(s: &SeqDynamicMsf, a: u32, b: u32) -> pdmsf_graph::WKey {
    let f = s.forest();
    let (ca, cb) = (f.vertex_chunk[a as usize], f.vertex_chunk[b as usize]);
    let sb = f.chunks.slot[cb as usize];
    assert_ne!(sb, crate::forest::NONE, "chunk of {b} carries no id");
    f.rows.base(f.chunks.slot[ca as usize])[sb as usize]
}

#[test]
fn deleting_a_non_minimum_edge_keeps_the_pair_entry_in_o1() {
    // A path long enough to span several chunks (so every chunk carries an
    // id), plus three parallel non-tree edges between two far-apart
    // vertices, whose chunks end up holding them as one CAdj pair entry.
    let (n, k) = (24u32, 4usize);
    let mut s = SeqDynamicMsf::with_chunk_parameter(n as usize, k);
    for i in 0..n - 1 {
        s.insert(edge(i, i, i + 1, 1 + i as i64));
    }
    let (a, b) = (2u32, 20u32);
    let (e1, e2, e3) = (
        edge(100, a, b, 100),
        edge(101, a, b, 200),
        edge(102, a, b, 300),
    );
    for e in [e1, e2, e3] {
        assert_eq!(s.insert(e), pdmsf_graph::MsfDelta::NONE);
    }
    s.validate();
    let f = s.forest();
    let (ca, cb) = (f.vertex_chunk[a as usize], f.vertex_chunk[b as usize]);
    assert_ne!(ca, cb, "the endpoints must sit in different chunks");
    // Two deletions must not push either chunk under K (no merge moves
    // the principal copies).
    for c in [ca, cb] {
        assert!(f.chunks.nc(c) >= k + 2, "chunk {c} too small for the test");
    }
    let key = |e: Edge| pdmsf_graph::WKey::new(e.weight, e.id);
    assert_eq!(pair_entry(&s, a, b), key(e1));

    // Not the minimum: the entry stays, and the deletion costs the two
    // O(1) registration charges plus the O(1) comparison — no scan.
    assert_eq!(s.delete(e2.id), pdmsf_graph::MsfDelta::NONE);
    assert_eq!(pair_entry(&s, a, b), key(e1));
    assert_eq!(pair_entry(&s, b, a), key(e1));
    assert_eq!(s.last_op_cost().work, 3);
    s.validate();

    // The minimum: the pair is rescanned and the entry moves to the next
    // minimum.
    assert_eq!(s.delete(e1.id), pdmsf_graph::MsfDelta::NONE);
    assert_eq!(pair_entry(&s, a, b), key(e3));
    assert_eq!(pair_entry(&s, b, a), key(e3));
    assert!(
        s.last_op_cost().work > 3,
        "a minimum deletion rescans the pair"
    );
    s.validate();
}

mod soa_vs_aos {
    //! Property test pinning the structure-of-arrays banks to a plain
    //! array-of-structs reference: after arbitrary update streams, the
    //! arena's `size` fields and row-bank `agg` slabs must equal what a
    //! straightforward recursive walk over an AoS snapshot computes, and
    //! the pooled per-vertex lists must hold what per-vertex `Vec`s rebuilt
    //! from the edge records and occurrence banks hold.

    use crate::forest::{AdjEntry, NONE};
    use crate::seq::SeqDynamicMsf;
    use pdmsf_graph::{DynamicMsf, Edge, EdgeId, VertexId, WKey, Weight};
    use proptest::prelude::*;

    /// The old fat-`Chunk` shape: everything one record, one `Vec` per row.
    struct AosChunk {
        left: u32,
        right: u32,
        base: Vec<WKey>,
    }

    /// The old fat-`Occ` shape: one record per occurrence, reconstructed
    /// from the flat `occ_*` banks.
    #[derive(PartialEq, Eq, Debug)]
    struct AosOcc {
        vertex: u32,
        chunk: u32,
        /// In-chunk index, as the arena recovers it from the order labels.
        index: usize,
        vpos: u32,
        arc: Option<(u32, bool)>,
        principal: bool,
    }

    /// Recursive reference: (subtree chunk count, entry-wise min of `base`).
    fn walk(aos: &[Option<AosChunk>], c: u32, agg: &mut Vec<WKey>) -> u32 {
        let node = aos[c as usize].as_ref().expect("walked into a dead chunk");
        let mut out = node.base.clone();
        let mut size = 1;
        for child in [node.left, node.right] {
            if child == NONE {
                continue;
            }
            let mut child_agg = Vec::new();
            size += walk(aos, child, &mut child_agg);
            for (o, ca) in out.iter_mut().zip(&child_agg) {
                if *ca < *o {
                    *o = *ca;
                }
            }
        }
        *agg = out;
        size
    }

    fn check_against_aos(forest: &crate::forest::ChunkedEulerForest) {
        // Snapshot the banks into AoS records …
        let aos: Vec<Option<AosChunk>> = (0..forest.chunks.len() as u32)
            .map(|c| {
                let ci = c as usize;
                if !forest.chunks.alive(c) {
                    return None;
                }
                Some(AosChunk {
                    left: forest.chunks.left[ci],
                    right: forest.chunks.right[ci],
                    base: if forest.chunks.slot[ci] == NONE {
                        Vec::new()
                    } else {
                        forest.rows.base(forest.chunks.slot[ci]).to_vec()
                    },
                })
            })
            .collect();
        // … and require SoA `size`/`agg` to match the reference walk.
        for c in 0..forest.chunks.len() as u32 {
            if !forest.chunks.alive(c) {
                continue;
            }
            let mut expected_agg = Vec::new();
            let expected_size = walk(&aos, c, &mut expected_agg);
            assert_eq!(
                forest.chunks.size[c as usize], expected_size,
                "SoA size of chunk {c} diverged from the AoS walk"
            );
            if forest.chunks.slot[c as usize] != NONE {
                assert_eq!(
                    forest.rows.agg(forest.chunks.slot[c as usize]),
                    &expected_agg[..],
                    "SoA agg of chunk {c} diverged from the AoS walk"
                );
            }
        }
    }

    /// Pin the occurrence banks to an AoS reference: snapshot every live
    /// occurrence into an [`AosOcc`] record, then require the denormalized
    /// bank state (`occ_chunk`, the index `occ_index` reads off the order
    /// labels, `occ_vpos`, principal flags, arc tails) to equal what a
    /// straightforward walk over the *list structures* — chunk occurrence
    /// lists, per-vertex occurrence lists, edge records — computes,
    /// independently of the bank maintenance code paths (run labelling,
    /// chunk relabels, flag updates, arc transfers).
    fn check_occs_against_aos(forest: &crate::forest::ChunkedEulerForest) {
        let arena = &forest.chunks;
        let aos: Vec<Option<AosOcc>> = (0..arena.occ_len() as u32)
            .map(|o| {
                arena.occ_alive(o).then(|| AosOcc {
                    vertex: arena.occ_vert(o).0,
                    chunk: arena.occ_chunk[o as usize],
                    index: arena.occ_index(o),
                    vpos: arena.occ_vpos[o as usize],
                    arc: arena.occ_arc(o),
                    principal: arena.occ_principal(o),
                })
            })
            .collect();
        let live = aos.iter().flatten().count();

        // Reference walk 1: the chunk lists are the authority for
        // `chunk`/`index`, and every live occurrence appears in exactly one.
        let mut seen = 0usize;
        for c in 0..arena.len() as u32 {
            if !arena.alive(c) {
                continue;
            }
            for (pos, &o) in arena.occs[c as usize].iter().enumerate() {
                let occ = aos[o as usize].as_ref().expect("dead occ in a chunk list");
                assert_eq!(occ.chunk, c, "occ bank chunk of {o} diverged");
                assert_eq!(occ.index, pos, "occ bank index of {o} diverged");
                seen += 1;
            }
        }
        assert_eq!(seen, live, "live occurrences outside any chunk list");

        // Reference walk 2: the per-vertex lists are the authority for
        // `vertex`/`vpos`, and the principal flag mirrors `principal[v]`
        // (with the `vertex_chunk` cache following the principal's chunk).
        let mut seen = 0usize;
        for v in 0..forest.num_vertices() {
            let list = forest.vertex_occs.list(v);
            if list.is_empty() {
                assert_eq!(forest.principal[v], NONE, "tourless {v} has a principal");
                assert_eq!(forest.vertex_chunk[v], NONE, "tourless {v} has a chunk");
                continue;
            }
            for (vpos, &o) in list.iter().enumerate() {
                let occ = aos[o as usize].as_ref().expect("dead occ in a vertex list");
                assert_eq!(occ.vertex as usize, v, "occ bank vertex of {o} diverged");
                assert_eq!(occ.vpos as usize, vpos, "occ bank vpos of {o} diverged");
                assert_eq!(
                    occ.principal,
                    forest.principal[v] == o,
                    "occ bank principal flag of {o} diverged"
                );
                seen += 1;
            }
            let p = forest.principal[v];
            assert_eq!(
                forest.vertex_chunk[v],
                aos[p as usize].as_ref().expect("dead principal").chunk,
                "vertex_chunk cache of {v} diverged"
            );
        }
        assert_eq!(seen, live, "live occurrences outside any vertex list");

        // Reference walk 3: the edge records are the authority for arcs —
        // each tree edge's two tails carry exactly its handle + direction,
        // and no other occurrence carries an arc.
        let mut expected_arcs = 0usize;
        forest.edges.for_each(|_, rec| {
            if rec.fwd == NONE {
                return;
            }
            expected_arcs += 2;
            let h = forest
                .edges
                .handle_of(rec.edge.id)
                .expect("registered edge has a handle");
            assert_eq!(
                aos[rec.fwd as usize].as_ref().and_then(|occ| occ.arc),
                Some((h, true)),
                "forward arc tail of {:?} diverged",
                rec.edge.id
            );
            assert_eq!(
                aos[rec.bwd as usize].as_ref().and_then(|occ| occ.arc),
                Some((h, false)),
                "backward arc tail of {:?} diverged",
                rec.edge.id
            );
        });
        let carried = aos.iter().flatten().filter(|occ| occ.arc.is_some()).count();
        assert_eq!(carried, expected_arcs, "stray arc flags in the occ banks");
    }

    /// Pin the pooled per-vertex lists to the `Vec<Vec<_>>` layout they
    /// replace: rebuild each vertex's adjacency list from the edge records
    /// and its occurrence list from the occurrence banks, then require the
    /// store's span of that vertex to hold the same items (in any order),
    /// and the store's blocks to tile its backing store.
    fn check_lists_against_aos(forest: &crate::forest::ChunkedEulerForest) {
        let n = forest.num_vertices();
        let mut adj: Vec<Vec<AdjEntry>> = vec![Vec::new(); n];
        forest.edges.for_each(|_, rec| {
            let e = rec.edge;
            adj[e.u.index()].push(AdjEntry::new(e, e.u));
            if e.v != e.u {
                adj[e.v.index()].push(AdjEntry::new(e, e.v));
            }
        });
        let mut occs: Vec<Vec<u32>> = vec![Vec::new(); n];
        for o in 0..forest.chunks.occ_len() as u32 {
            if forest.chunks.occ_alive(o) {
                occs[forest.chunks.occ_vert(o).index()].push(o);
            }
        }
        for v in 0..n {
            let mut pooled = forest.adj.list(v).to_vec();
            pooled.sort_unstable_by_key(|a| a.id);
            adj[v].sort_unstable_by_key(|a| a.id);
            assert_eq!(pooled, adj[v], "pooled adjacency of {v} diverged");
            let mut pooled = forest.vertex_occs.list(v).to_vec();
            pooled.sort_unstable();
            assert_eq!(pooled, occs[v], "pooled occurrences of {v} diverged");
            assert_eq!(
                occs[v].is_empty(),
                adj[v].is_empty(),
                "vertex {v}: a tour without an edge or an edge without a tour"
            );
        }
        forest.adj.check_layout();
        forest.vertex_occs.check_layout();
    }

    #[derive(Clone, Debug)]
    enum Op {
        Insert { u: u8, v: u8, w: u8 },
        DeleteNth(u8),
    }

    fn op_strategy(n: u8) -> impl Strategy<Value = Op> {
        prop_oneof![
            3 => (0..n, 0..n, any::<u8>()).prop_map(|(u, v, w)| Op::Insert { u, v, w }),
            2 => any::<u8>().prop_map(Op::DeleteNth),
        ]
    }

    /// Apply `ops` to a fresh `n`-vertex structure at chunk parameter `k`,
    /// calling `check` after every op.
    fn run_ops(n: usize, k: usize, ops: &[Op], mut check: impl FnMut(&SeqDynamicMsf)) {
        let mut s = SeqDynamicMsf::with_chunk_parameter(n, k);
        let mut live: Vec<Edge> = Vec::new();
        let mut next_id = 0u32;
        for op in ops {
            match *op {
                Op::Insert { u, v, w } => {
                    let e = Edge {
                        id: EdgeId(next_id),
                        u: VertexId(u as u32 % n as u32),
                        v: VertexId(v as u32 % n as u32),
                        weight: Weight::new(w as i64),
                    };
                    next_id += 1;
                    live.push(e);
                    s.insert(e);
                }
                Op::DeleteNth(nth) => {
                    if live.is_empty() {
                        continue;
                    }
                    let e = live.swap_remove(nth as usize % live.len());
                    s.delete(e.id);
                }
            }
            check(&s);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 16, .. ProptestConfig::default() })]

        /// Small K with `validate()` (exact CAdj rows and aggregates, empty
        /// stale set, both Invariant-1 bounds) after every op; each case
        /// must reach the γ search, which recomputes stale aggregates
        /// before reading list roots, and take every link and cut path.
        #[test]
        fn small_k_streams_validate_after_every_op(ops in proptest::collection::vec(op_strategy(16), 80..160)) {
            use super::{assert_each_ran, counts, counted, Event, PATHS};
            let before = counted(Event::GammaSearch);
            let paths_before = counts(PATHS);
            run_ops(16, 2, &ops, |s| s.validate());
            prop_assert!(counted(Event::GammaSearch) > before, "the stream never reached the γ search");
            assert_each_ran(paths_before, PATHS, "a small-K stream");
        }

        /// Tiny K maximises chunk churn (splits, merges, id transitions),
        /// exercising every path of the chunk-id table: fresh ids, reused
        /// ids and growths of `J`.
        #[test]
        fn soa_banks_match_aos_reference(ops in proptest::collection::vec(op_strategy(12), 1..100)) {
            run_ops(12, 2, &ops, |s| {
                check_against_aos(s.forest());
                check_occs_against_aos(s.forest());
                check_lists_against_aos(s.forest());
            });
        }
    }
}

/// Every link and cut path, by name.
const PATHS: [(Event, &str); 4] = [
    (Event::Splice, "splice"),
    (Event::Extraction, "in-chunk extraction"),
    (Event::GeneralLink, "general link"),
    (Event::GeneralCut, "general cut"),
];

/// Every entry-refresh branch, by name.
const REFRESHES: [(Event, &str); 4] = [
    (Event::OneEntryWalk, "one-entry walk"),
    (Event::TwoEntryWalk, "two-entry walk"),
    (Event::OneEntrySweep, "one-entry sweep"),
    (Event::TwoEntrySweep, "two-entry sweep"),
];

/// This thread's counts of `events`.
fn counts<const N: usize>(events: [(Event, &str); N]) -> [u64; N] {
    events.map(|(event, _)| counted(event))
}

/// Each of `events` ran since its count read `before`.
fn assert_each_ran<const N: usize>(before: [u64; N], events: [(Event, &str); N], what: &str) {
    for ((event, name), before) in events.into_iter().zip(before) {
        assert!(counted(event) > before, "no {name} ran in {what}");
    }
}

/// Links that keep landing at one spot squeeze the gap between two order
/// labels until the chunk must be relabelled: a hub links a fresh leaf,
/// whose one-vertex tour splices in right after the hub's principal copy,
/// then cuts the leaf before it. At K = 2 and K = 5 every op passes
/// `validate()` (labels strictly increase along each chunk, and every
/// occurrence's index round-trips through `occ_index`), and whole-chunk
/// relabels happen.
#[test]
fn links_at_one_spot_force_relabels() {
    let relabels = || counted(Event::Relabel);
    let n = 96;
    for k in [2, 5] {
        let before = relabels();
        let mut s = SeqDynamicMsf::with_chunk_parameter(n, k);
        for leaf in 1..n as u32 {
            s.insert(edge(leaf, 0, leaf, leaf as i64));
            s.validate();
            if leaf > 1 {
                s.delete(EdgeId(leaf - 1));
                s.validate();
            }
        }
        assert!(relabels() > before, "no chunk was relabelled at K = {k}");
    }
}

/// A structure built by `from_graph` from the graph of one built update by
/// update (a history with deletions) has the same forest and weight,
/// validates, and returns the same delta for every further update, at
/// `K = 2`, a small `K` and the default `K`. The bulk build links every
/// tree edge by splicing a one-vertex tour: no general link runs.
#[test]
fn from_graph_matches_an_incremental_build() {
    use crate::seq::default_sequential_k;
    let n = 64;
    let stream = UpdateStream::generate(&UpdateStreamSpec {
        base: GraphSpec::RandomSparse {
            n,
            m: 2 * n,
            seed: 23,
        },
        ops: 600,
        kind: StreamKind::Mixed {
            insert_permille: 500,
        },
        seed: 29,
    });
    let split = 300;
    for k in [2, 5, default_sequential_k(n)] {
        let mut incremental = SeqDynamicMsf::with_chunk_parameter(n, k);
        let mut bulk: Option<SeqDynamicMsf> = None;
        let mut step = 0;
        stream.replay_with(|mirror, op| {
            match op {
                None => {
                    for e in mirror.edges() {
                        incremental.insert(e);
                    }
                }
                Some(&UpdateOp::Insert(e)) => {
                    let delta = incremental.insert(e);
                    if let Some(b) = bulk.as_mut() {
                        assert_eq!(b.insert(e), delta, "insert delta at K = {k}");
                    }
                }
                Some(UpdateOp::Delete { id }) => {
                    let delta = incremental.delete(*id);
                    if let Some(b) = bulk.as_mut() {
                        assert_eq!(b.delete(*id), delta, "delete delta at K = {k}");
                    }
                }
            }
            step += 1;
            if step == split {
                let (splices, general_links) =
                    (counted(Event::Splice), counted(Event::GeneralLink));
                let built = SeqDynamicMsf::from_graph(mirror, k);
                assert_eq!(
                    counted(Event::GeneralLink),
                    general_links,
                    "a general link ran in the bulk build"
                );
                assert_eq!(
                    counted(Event::Splice) - splices,
                    built.num_forest_edges() as u64,
                    "every tree edge is spliced"
                );
                assert_eq!(built.meter().num_ops(), 0, "the meter starts fresh");
                built.validate();
                bulk = Some(built);
            }
            if let Some(b) = &bulk {
                assert_eq!(b.forest_edges(), incremental.forest_edges(), "K = {k}");
                assert_eq!(b.forest_weight(), incremental.forest_weight(), "K = {k}");
            }
        });
        let bulk = bulk.expect("the stream reaches the split");
        assert!(bulk.num_forest_edges() > 0);
        bulk.validate();
        incremental.validate();
    }
}

/// The vertices reached from `from` over the edges of `forest`.
fn reach(n: usize, forest: &[Edge], from: VertexId) -> Vec<bool> {
    let mut seen = vec![false; n];
    seen[from.index()] = true;
    let mut stack = vec![from];
    while let Some(x) = stack.pop() {
        for e in forest.iter().filter(|e| e.touches(x)) {
            let y = e.other(x);
            if !seen[y.index()] {
                seen[y.index()] = true;
                stack.push(y);
            }
        }
    }
    seen
}

/// Cuts that split one tree into two sides of several chunks each, while
/// two more trees hold chunk ids (their edges were inserted in turn with
/// the first tree's, so the trees' ids interleave), at K = 2 and K = 3.
/// Each cut runs the γ search, which must return the lightest live edge
/// with one endpoint on each side (the sides found by a walk over the
/// remaining forest edges), and the structure validates. The first tree is
/// cut until no cut leaves both sides big, which runs out of replacements.
#[test]
fn gamma_search_matches_brute_force_beside_other_trees() {
    const SIZE: u32 = 20;
    let n = 3 * SIZE as usize;
    for k in [2usize, 3] {
        // Three paths, tree t on vertices t·SIZE .. (t + 1)·SIZE, then
        // non-tree edges inside the first, heavier than every path edge.
        let mut live: Vec<Edge> = Vec::new();
        for i in 0..SIZE - 1 {
            for t in 0..3 {
                let v = t * SIZE + i;
                live.push(edge(live.len() as u32, v, v + 1, 1 + i as i64));
            }
        }
        for u in 0..SIZE {
            for v in (u + 2..SIZE).step_by(3) {
                let w = 100 + ((u * 37 + v * 11) % 50) as i64;
                live.push(edge(live.len() as u32, u, v, w));
            }
        }
        let mut s = SeqDynamicMsf::with_chunk_parameter(n, k);
        for &e in &live {
            s.insert(e);
        }
        s.validate();
        // A side of more than 3K/2 + 1 vertices has more than 3K tour
        // occurrences, so it cannot be one chunk.
        let min_side = 2 * k + 2;
        let (mut cuts, mut replaced) = (0, 0);
        loop {
            let f = s.forest();
            for v in [SIZE, 2 * SIZE] {
                let c = f.vertex_chunk[v as usize];
                assert_ne!(
                    f.chunks.slot[c as usize],
                    crate::forest::NONE,
                    "tree of {v} holds no id"
                );
            }
            let forest: Vec<Edge> = s
                .forest_edges()
                .into_iter()
                .map(|id| {
                    *live
                        .iter()
                        .find(|e| e.id == id)
                        .expect("forest edges are live")
                })
                .collect();
            // The first tree's most even cut that leaves both sides big.
            let side = |cut: Edge, from: VertexId| {
                let rest: Vec<Edge> = forest.iter().copied().filter(|e| e.id != cut.id).collect();
                reach(n, &rest, from)
            };
            let size = |side: &[bool]| side.iter().filter(|&&x| x).count();
            let Some((cut, a, b)) = forest
                .iter()
                .filter(|e| e.u.0 < SIZE)
                .map(|&cut| (cut, side(cut, cut.u), side(cut, cut.v)))
                .filter(|(_, a, b)| size(a).min(size(b)) >= min_side)
                .max_by_key(|(cut, a, b)| (size(a).min(size(b)), std::cmp::Reverse(cut.id)))
            else {
                break;
            };
            let crosses = |e: &&Edge| {
                let (u, v) = (e.u.index(), e.v.index());
                (a[u] && b[v]) || (b[u] && a[v])
            };
            let lightest = live
                .iter()
                .filter(|e| e.id != cut.id)
                .filter(crosses)
                .min_by_key(|e| WKey::new(e.weight, e.id))
                .copied();
            let expected = match lightest {
                Some(r) => MsfDelta::swap(r.id, cut.id),
                None => MsfDelta::removed(cut.id),
            };
            let searches = counted(Event::GammaSearch);
            assert_eq!(s.delete(cut.id), expected, "cut of {:?} at K = {k}", cut.id);
            assert!(
                counted(Event::GammaSearch) > searches,
                "the cut of {:?} at K = {k} ran no γ search",
                cut.id
            );
            s.validate();
            live.retain(|e| e.id != cut.id);
            cuts += 1;
            replaced += lightest.is_some() as usize;
        }
        assert!(
            replaced >= 2 && cuts > replaced,
            "{cuts} cuts, {replaced} replaced at K = {k}"
        );
    }
}

#[test]
fn meter_accumulates_costs_per_operation() {
    let mut s = erew(16);
    s.insert(edge(0, 0, 1, 5));
    let c0 = s.last_op_cost();
    assert!(c0.work > 0 && c0.depth > 0);
    s.insert(edge(1, 1, 2, 3));
    s.insert(edge(2, 2, 3, 9));
    s.delete(EdgeId(1));
    assert_eq!(s.meter().num_ops(), 4);
    assert!(s.meter().total().work >= s.meter().worst_op().work);
}

/// The exact charges of one fixed mixed stream (n = 256, m = 512, 400
/// updates) at the chunk parameters the structure runs with: `⌈√n⌉` (the
/// paper's Theorem 3.1 tables) and `⌈√(n log₂ n)⌉` (the serving engines;
/// its work is Theorem 1.2's sequential time), and `K = 4`, which maximises
/// chunk churn. Summed depth and work and the peak processor count cover
/// the base build and every update, so a change to any charge formula
/// moves a number here. Every configuration takes all four link and cut
/// paths and all four entry-refresh branches (a path walk or a subtree
/// sweep, of one entry or of a split pair's two), so the pin covers each.
#[test]
fn meter_charges_are_pinned() {
    use crate::seq::default_sequential_k;
    let n = 256;
    let stream = UpdateStream::generate(&UpdateStreamSpec {
        base: GraphSpec::RandomSparse {
            n,
            m: 2 * n,
            seed: 17,
        },
        ops: 400,
        kind: StreamKind::Mixed {
            insert_permille: 500,
        },
        seed: 19,
    });
    let sqrt_n = (n as f64).sqrt().ceil() as usize;
    let served = default_sequential_k(n);
    assert_eq!((sqrt_n, served), (16, 46));
    let expected: [(usize, [u64; 3]); 3] = [
        (sqrt_n, [88_399, 873_958, 117]),
        (served, [61_978, 325_195, 176]),
        (4, [118_686, 5_835_866, 468]),
    ];
    for (k, [depth, work, peak]) in expected {
        let before = counted(Event::GammaSearch);
        let paths_before = counts(PATHS);
        let refreshes_before = counts(REFRESHES);
        let mut s = SeqDynamicMsf::with_chunk_parameter(n, k);
        drive_checked(&mut s, &stream, |_| {});
        let total = s.meter().total();
        assert_eq!(
            (total.depth, total.work, total.peak_processors),
            (depth, work, peak),
            "charges moved at K = {k}"
        );
        assert!(
            counted(Event::GammaSearch) > before,
            "no γ search ran at K = {k}"
        );
        let what = format!("the stream at K = {k}");
        assert_each_ran(paths_before, PATHS, &what);
        assert_each_ran(refreshes_before, REFRESHES, &what);
    }
}
