//! Property-based tests for the graph substrate: Kruskal invariants,
//! union-find behaviour and workload-generator guarantees.

use pdmsf_graph::{
    kruskal_msf, DynGraph, GraphSpec, StreamKind, UnionFind, UpdateStream, UpdateStreamSpec,
    VertexId, Weight,
};
use proptest::prelude::*;

fn arb_edges(n: u8) -> impl Strategy<Value = Vec<(u8, u8, i32)>> {
    proptest::collection::vec((0..n, 0..n, -1000i32..1000), 0..120)
}

proptest! {
    /// The MSF produced by Kruskal is a spanning forest: acyclic, spanning
    /// (one tree per connected component) and with `n - components` edges.
    #[test]
    fn kruskal_produces_a_spanning_forest(edges in arb_edges(20)) {
        let n = 20usize;
        let mut g = DynGraph::new(n);
        for &(u, v, w) in &edges {
            g.insert_edge(VertexId(u as u32), VertexId(v as u32), Weight::new(w as i64));
        }
        let msf = kruskal_msf(&g);

        // Forest edges are acyclic and connect exactly the graph's components.
        let mut forest_uf = UnionFind::new(n);
        for &id in &msf.edges {
            let e = g.edge_unchecked(id);
            prop_assert!(forest_uf.union(e.u.index(), e.v.index()), "cycle in claimed MSF");
        }
        let mut graph_uf = UnionFind::new(n);
        for e in g.edges() {
            graph_uf.union(e.u.index(), e.v.index());
        }
        prop_assert_eq!(forest_uf.num_components(), graph_uf.num_components());
        prop_assert_eq!(msf.components, graph_uf.num_components());
        prop_assert_eq!(msf.edges.len(), n - msf.components);
    }

    /// Cut property: for every forest edge, no strictly lighter edge crosses
    /// the cut obtained by removing it (so the forest is really minimum).
    #[test]
    fn kruskal_satisfies_the_cut_property(edges in arb_edges(12)) {
        let n = 12usize;
        let mut g = DynGraph::new(n);
        for &(u, v, w) in &edges {
            g.insert_edge(VertexId(u as u32), VertexId(v as u32), Weight::new(w as i64));
        }
        let msf = kruskal_msf(&g);
        for &tree_edge in &msf.edges {
            // Components after removing this forest edge (using only the
            // remaining forest edges).
            let mut uf = UnionFind::new(n);
            for &id in &msf.edges {
                if id == tree_edge {
                    continue;
                }
                let e = g.edge_unchecked(id);
                uf.union(e.u.index(), e.v.index());
            }
            let removed = g.edge_unchecked(tree_edge);
            // Every other edge crossing the same cut must be at least as heavy
            // (strictly heavier or tied-but-larger-id).
            for e in g.edges() {
                if e.id == tree_edge || e.u == e.v {
                    continue;
                }
                let crosses = uf.same(e.u.index(), removed.u.index())
                    != uf.same(e.v.index(), removed.u.index());
                if crosses {
                    prop_assert!(
                        (e.weight, e.id) > (removed.weight, removed.id),
                        "edge {:?} is lighter than forest edge {:?} across its cut",
                        e.id,
                        tree_edge
                    );
                }
            }
        }
    }

    /// Generated update streams always reference live edges (replay never
    /// panics) and keep vertex indices in range.
    #[test]
    fn update_streams_are_always_replayable(
        n in 2usize..40,
        m in 0usize..80,
        ops in 0usize..200,
        seed in any::<u64>(),
        window in 1usize..60,
        kind in 0u8..3,
    ) {
        let kind = match kind {
            0 => StreamKind::Mixed { insert_permille: 500 },
            1 => StreamKind::SlidingWindow { window },
            _ => StreamKind::Failures,
        };
        let stream = UpdateStream::generate(&UpdateStreamSpec {
            base: GraphSpec::RandomSparse { n, m, seed },
            ops,
            kind,
            seed: seed ^ 1,
        });
        let g = stream.replay_with(|g, _| {
            assert_eq!(g.num_vertices(), n);
        });
        // The mirror graph is internally consistent after the replay.
        prop_assert!(g.edges().all(|e| e.u.index() < n && e.v.index() < n));
    }
}

#[test]
fn union_find_partition_refinement_matches_explicit_components() {
    // Deterministic sanity companion to the property tests: chain unions and
    // verify the component count at every step.
    let n = 50;
    let mut uf = UnionFind::new(n);
    for i in 0..n - 1 {
        assert_eq!(uf.num_components(), n - i);
        assert!(uf.union(i, i + 1));
    }
    assert_eq!(uf.num_components(), 1);
}
