//! Exhaustive structural validation used by the test-suite.
//!
//! [`ChunkedEulerForest::validate`] brute-force checks every invariant the
//! algorithm relies on: the pooled per-vertex lists' layout, occurrence
//! bookkeeping (a vertex holds occurrences iff it has an edge), Euler-tour/arc
//! consistency, the tour-per-tree correspondence, principal copies,
//! adjacency counts, the chunk-id table (a bijection between live ids and
//! slotted chunks), Invariant 1's chunk-size bounds, `CAdj` rows and the
//! LSDS aggregates — the latter against a straightforward array-of-structs
//! reference walk that is deliberately *independent* of the SoA banks'
//! pair-merge and in-place-refresh code paths. It is `O(n·m)` and only
//! meant for tests on small inputs.

use super::{AdjEntry, ChunkedEulerForest, NONE};
use pdmsf_graph::{Edge, EdgeId, UnionFind, WKey};

impl ChunkedEulerForest {
    /// Validate every structural invariant against the given set of forest
    /// edges (the caller's view of the current MSF). Panics with a
    /// description on the first violation.
    pub fn validate(&self, tree_edges: &[Edge]) {
        let num_chunks = self.chunks.len();
        let n = self.num_vertices();
        // ---- pooled per-vertex lists: one span per vertex in each store;
        // live blocks are disjoint and in bounds, and with the free lists
        // they tile each store ----
        assert_eq!(self.adj.num_lists(), n, "adjacency spans per vertex");
        assert_eq!(
            self.vertex_occs.num_lists(),
            n,
            "occurrence spans per vertex"
        );
        self.adj.check_layout();
        self.vertex_occs.check_layout();
        // Graph degree of every vertex, from the edge records (a self-loop
        // counts once, as it is listed once).
        let mut graph_deg = vec![0usize; n];
        self.edges.for_each(|_, rec| {
            graph_deg[rec.edge.u.index()] += 1;
            if rec.edge.v != rec.edge.u {
                graph_deg[rec.edge.v.index()] += 1;
            }
        });
        // ---- occurrence / chunk bookkeeping (bank reads) ----
        for ci in 0..num_chunks {
            if !self.chunks.alive(ci as u32) {
                continue;
            }
            assert!(!self.chunks.occs[ci].is_empty(), "chunk {ci} is empty");
            let mut below = None;
            for (pos, &o) in self.chunks.occs[ci].iter().enumerate() {
                assert!(
                    self.chunks.occ_alive(o),
                    "dead occurrence {o} referenced by chunk {ci}"
                );
                assert_eq!(
                    self.chunks.occ_chunk[o as usize] as usize, ci,
                    "occurrence {o} has wrong chunk"
                );
                let label = self.chunks.occ_label[o as usize];
                assert!(
                    below < Some(label),
                    "occurrence {o}'s label {label} does not exceed its predecessor's {below:?}"
                );
                below = Some(label);
                assert_eq!(
                    self.chunks.occ_index(o),
                    pos,
                    "occurrence {o} has wrong index"
                );
            }
        }
        for (v, &gd) in graph_deg.iter().enumerate() {
            let occ_list = self.vertex_occs.list(v);
            for (vpos, &o) in occ_list.iter().enumerate() {
                assert!(self.chunks.occ_alive(o));
                assert_eq!(self.chunks.occ_vert(o).index(), v);
                assert_eq!(self.chunks.occ_vpos[o as usize] as usize, vpos);
            }
            let p = self.principal[v];
            if gd == 0 {
                // No edge, no tour: no occurrence, principal or chunk.
                assert!(
                    occ_list.is_empty(),
                    "vertex {v} has no edge but holds {} occurrences",
                    occ_list.len()
                );
                assert_eq!(p, NONE, "vertex {v} has no edge but a principal copy");
                assert_eq!(
                    self.vertex_chunk[v], NONE,
                    "vertex {v} has no edge but a chunk"
                );
                continue;
            }
            assert_ne!(p, NONE, "vertex {v} has an edge but no principal copy");
            assert!(
                occ_list.contains(&p),
                "principal of {v} is not an occurrence of {v}"
            );
            // Cached principal flags / principal-chunk agree with the
            // authoritative array.
            for &o in occ_list {
                assert_eq!(
                    self.chunks.occ_principal(o),
                    o == p,
                    "stale principal flag on occurrence {o} of vertex {v}"
                );
            }
            assert_eq!(
                self.vertex_chunk[v], self.chunks.occ_chunk[p as usize],
                "stale vertex_chunk cache for vertex {v}"
            );
        }

        // ---- forest structure: components and degrees ----
        let mut uf = UnionFind::new(n);
        let mut deg = vec![0usize; n];
        for e in tree_edges {
            uf.union(e.u.index(), e.v.index());
            deg[e.u.index()] += 1;
            deg[e.v.index()] += 1;
        }
        // Occurrence count of v must be max(deg_T(v), 1) if v has an edge,
        // and 0 otherwise.
        for (v, d) in deg.iter().enumerate() {
            let expected = if graph_deg[v] > 0 { (*d).max(1) } else { 0 };
            assert_eq!(
                self.vertex_occs.len(v),
                expected,
                "vertex {v} has {} occurrences, expected {expected}",
                self.vertex_occs.len(v),
            );
        }
        // All occurrences of a tree's vertices must live in the same list,
        // and different trees in different lists.
        let mut component_root: Vec<u32> = vec![NONE; n];
        for v in 0..n {
            let comp = uf.find(v);
            for &o in self.vertex_occs.list(v) {
                let root = self.tree_root(self.chunks.occ_chunk[o as usize]);
                if component_root[comp] == NONE {
                    component_root[comp] = root;
                } else {
                    assert_eq!(
                        component_root[comp], root,
                        "vertex {v} (component {comp}) is split across lists"
                    );
                }
            }
        }
        let mut seen_roots: Vec<u32> = component_root.into_iter().filter(|&r| r != NONE).collect();
        seen_roots.sort_unstable();
        let before = seen_roots.len();
        seen_roots.dedup();
        assert_eq!(before, seen_roots.len(), "two components share a list");

        // ---- arcs: each forest edge has two valid arc tails ----
        let mut arc_count = 0usize;
        self.edges.for_each(|_, rec| {
            if rec.fwd != NONE {
                arc_count += 1;
            }
        });
        assert_eq!(arc_count, tree_edges.len(), "arc count mismatch");
        for e in tree_edges {
            let h = self
                .edges
                .handle_of(e.id)
                .unwrap_or_else(|| panic!("{:?} is not registered", e.id));
            let rec = self.edges.get(h);
            let (fwd, bwd) = (rec.fwd, rec.bwd);
            assert_ne!(fwd, NONE, "{:?} has no arcs", e.id);
            assert_eq!(self.chunks.occ_vert(fwd), e.u);
            assert_eq!(self.chunks.occ_vert(bwd), e.v);
            assert_eq!(self.chunks.occ_arc(fwd), Some((h, true)));
            assert_eq!(self.chunks.occ_arc(bwd), Some((h, false)));
            let succ_fwd = self.cyclic_succ(fwd);
            let succ_bwd = self.cyclic_succ(bwd);
            assert_eq!(
                self.chunks.occ_vert(succ_fwd),
                e.v,
                "forward arc of {:?} does not point at an occurrence of {:?}",
                e.id,
                e.v
            );
            assert_eq!(
                self.chunks.occ_vert(succ_bwd),
                e.u,
                "backward arc of {:?} does not point at an occurrence of {:?}",
                e.id,
                e.u
            );
        }
        // Conversely, every occurrence's arc must be registered.
        for oi in 0..self.chunks.occ_len() as u32 {
            if !self.chunks.occ_alive(oi) {
                continue;
            }
            if let Some((h, fwd)) = self.chunks.occ_arc(oi) {
                let rec = self.edges.get(h);
                assert_ne!(
                    rec.fwd, NONE,
                    "occurrence {oi} refers to a non-forest edge {:?}",
                    rec.edge.id
                );
                assert_eq!(if fwd { rec.fwd } else { rec.bwd }, oi);
            }
        }

        // ---- adjacency lists: every entry mirrors a live edge incident to
        // its vertex, no list repeats an edge, every edge is listed at each
        // endpoint (once in all for a self-loop), and each span is as long
        // as its vertex's degree ----
        let mut entries = 0usize;
        for (v, &gd) in graph_deg.iter().enumerate() {
            let list = self.adj.list(v);
            assert_eq!(list.len(), gd, "adjacency span of vertex {v} vs its degree");
            let v = pdmsf_graph::VertexId::from(v);
            for &a in list {
                let e = self
                    .edges
                    .get_by_id(a.id)
                    .unwrap_or_else(|| panic!("adjacency of {v:?} names dead edge {:?}", a.id))
                    .edge;
                assert!(e.touches(v), "adjacency of {v:?} holds {e:?}");
                assert_eq!(a, AdjEntry::new(e, v), "adjacency entry of {v:?} is stale");
            }
            let mut ids: Vec<EdgeId> = list.iter().map(|a| a.id).collect();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), list.len(), "adjacency of {v:?} repeats an edge");
            entries += list.len();
        }
        let mut expected_entries = 0usize;
        self.edges.for_each(|_, rec| {
            expected_entries += if rec.edge.u == rec.edge.v { 1 } else { 2 };
        });
        assert_eq!(entries, expected_entries, "adjacency lists miss edges");

        // ---- adjacency counts ----
        for ci in 0..num_chunks {
            if !self.chunks.alive(ci as u32) {
                continue;
            }
            let mut expected = 0u32;
            for &o in &self.chunks.occs[ci] {
                let v = self.chunks.occ_vert(o);
                if self.principal[v.index()] == o {
                    expected += self.degree(v);
                }
            }
            assert_eq!(
                self.chunks.adj_count[ci], expected,
                "chunk {ci} adj_count mismatch"
            );
        }

        // ---- slot discipline: single-chunk lists have no id, multi-chunk
        // lists have ids on every chunk, and the chunk-id table is a
        // bijection between live ids and slotted chunks ----
        self.rows.check_table();
        let mut slotted = 0;
        for ci in 0..num_chunks {
            if !self.chunks.alive(ci as u32) {
                continue;
            }
            let slot = self.chunks.slot[ci];
            let root = self.tree_root(ci as u32);
            let multi = self.chunks.size[root as usize] > 1;
            if multi {
                assert_ne!(slot, NONE, "chunk {ci} of a multi-chunk list has no id");
            } else {
                assert_eq!(slot, NONE, "single-chunk list {ci} carries an id");
            }
            if slot != NONE {
                slotted += 1;
                assert_eq!(self.rows.owner(slot), ci as u32, "id {slot} of chunk {ci}");
            }
        }
        // Each slotted chunk owns its own id, so equal counts leave no live
        // id that its chunk does not hold.
        assert_eq!(slotted, self.rows.live(), "a live id no chunk holds");

        // ---- Invariant 1: n_c ≤ 3K unless one occurrence carries it, and
        // a chunk of a multi-chunk list below K cannot merge with either
        // neighbour within 3K ----
        let cap_nc = 3 * self.k;
        for ci in 0..num_chunks as u32 {
            if !self.chunks.alive(ci) {
                continue;
            }
            let nc = self.chunks.nc(ci);
            assert!(
                nc <= cap_nc || self.chunks.occs[ci as usize].len() == 1,
                "chunk {ci} has n_c = {nc} > 3K = {cap_nc}"
            );
            if nc >= self.k {
                continue;
            }
            for nb in [self.prev_chunk(ci), self.next_chunk(ci)]
                .into_iter()
                .flatten()
            {
                let nb_nc = self.chunks.nc(nb);
                assert!(
                    nc + nb_nc > cap_nc,
                    "chunk {ci} (n_c = {nc} < K = {}) could merge with neighbour {nb} (n_c = {nb_nc})",
                    self.k
                );
            }
        }

        // ---- CAdj rows against brute force ----
        let cap = self.slot_cap();
        let mut brute = vec![vec![WKey::PLUS_INF; cap]; cap];
        self.edges.for_each(|eid, rec| {
            let e = rec.edge;
            let cu = self.chunks.occ_chunk[self.principal[e.u.index()] as usize];
            let cv = self.chunks.occ_chunk[self.principal[e.v.index()] as usize];
            let su = self.chunks.slot[cu as usize];
            let sv = self.chunks.slot[cv as usize];
            if su == NONE || sv == NONE {
                return;
            }
            let key = WKey::new(e.weight, eid);
            if key < brute[su as usize][sv as usize] {
                brute[su as usize][sv as usize] = key;
                brute[sv as usize][su as usize] = key;
            }
        });
        for ci in 0..num_chunks {
            if !self.chunks.alive(ci as u32) || self.chunks.slot[ci] == NONE {
                continue;
            }
            let s = self.chunks.slot[ci] as usize;
            for (t, cell) in self.rows.base(s as u32).iter().enumerate() {
                assert_eq!(
                    *cell, brute[s][t],
                    "CAdj[{ci}][slot {t}] is stale (slot {s})"
                );
            }
        }

        // ---- LSDS aggregates at every slotted chunk, checked against an
        // AoS-style reference walk over a private snapshot; between public
        // operations no aggregate awaits recomputation ----
        assert!(self.stale.is_empty(), "stale list not flushed");
        for ci in 0..num_chunks {
            assert!(!self.chunks.stale(ci as u32), "chunk {ci} is still stale");
        }
        for ci in 0..num_chunks {
            if !self.chunks.alive(ci as u32) || self.chunks.slot[ci] == NONE {
                continue;
            }
            // Expected aggregate: entry-wise min over the subtree.
            let mut expected_agg = vec![WKey::PLUS_INF; cap];
            let mut stack = vec![ci as u32];
            let mut subtree = 0u32;
            while let Some(node) = stack.pop() {
                subtree += 1;
                let ni = node as usize;
                for (t, cell) in self.rows.base(self.chunks.slot[ni]).iter().enumerate() {
                    if *cell < expected_agg[t] {
                        expected_agg[t] = *cell;
                    }
                }
                if self.chunks.left[ni] != NONE {
                    stack.push(self.chunks.left[ni]);
                }
                if self.chunks.right[ni] != NONE {
                    stack.push(self.chunks.right[ni]);
                }
            }
            assert_eq!(
                self.chunks.size[ci], subtree,
                "chunk {ci} subtree size mismatch"
            );
            assert_eq!(
                self.rows.agg(self.chunks.slot[ci]),
                &expected_agg[..],
                "chunk {ci} aggregate is stale"
            );
        }
    }
}
