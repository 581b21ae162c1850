//! Exhaustive structural validation used by the test-suite.
//!
//! [`ChunkedEulerForest::validate`] brute-force checks every invariant the
//! algorithm relies on: occurrence bookkeeping, Euler-tour/arc consistency,
//! the tour-per-tree correspondence, principal copies, adjacency counts,
//! `CAdj` rows and the LSDS aggregates — the latter against a straightforward
//! array-of-structs reference walk that is deliberately *independent* of the
//! SoA banks' pair-merge and in-place-refresh code paths. It is `O(n·m)` and
//! only meant for tests on small inputs.

use super::{AdjEntry, ChunkedEulerForest, NONE};
use pdmsf_graph::{Edge, EdgeId, UnionFind, WKey};

impl ChunkedEulerForest {
    /// Validate every structural invariant against the given set of forest
    /// edges (the caller's view of the current MSF). Panics with a
    /// description on the first violation.
    pub fn validate(&self, tree_edges: &[Edge]) {
        let num_chunks = self.chunks.len();
        // ---- occurrence / chunk bookkeeping (bank reads) ----
        for ci in 0..num_chunks {
            if !self.chunks.alive(ci as u32) {
                continue;
            }
            assert!(!self.chunks.occs[ci].is_empty(), "chunk {ci} is empty");
            for (pos, &o) in self.chunks.occs[ci].iter().enumerate() {
                assert!(
                    self.chunks.occ_alive(o),
                    "dead occurrence {o} referenced by chunk {ci}"
                );
                assert_eq!(
                    self.chunks.occ_chunk[o as usize] as usize, ci,
                    "occurrence {o} has wrong chunk"
                );
                assert_eq!(
                    self.chunks.occ_pos[o as usize] as usize, pos,
                    "occurrence {o} has wrong position"
                );
            }
        }
        for (v, occ_list) in self.vertex_occs.iter().enumerate() {
            for (vpos, &o) in occ_list.iter().enumerate() {
                assert!(self.chunks.occ_alive(o));
                assert_eq!(self.chunks.occ_vert(o).index(), v);
                assert_eq!(self.chunks.occ_vpos[o as usize] as usize, vpos);
            }
            let p = self.principal[v];
            assert_ne!(p, NONE, "vertex {v} has no principal copy");
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
        let n = self.num_vertices();
        let mut uf = UnionFind::new(n);
        let mut deg = vec![0usize; n];
        for e in tree_edges {
            uf.union(e.u.index(), e.v.index());
            deg[e.u.index()] += 1;
            deg[e.v.index()] += 1;
        }
        // Occurrence count of v must be max(deg_T(v), 1).
        for (v, d) in deg.iter().enumerate() {
            assert_eq!(
                self.vertex_occs[v].len(),
                d.max(&1).to_owned(),
                "vertex {v} has {} occurrences, expected {}",
                self.vertex_occs[v].len(),
                d.max(&1)
            );
        }
        // All occurrences of a tree's vertices must live in the same list,
        // and different trees in different lists.
        let mut component_root: Vec<u32> = vec![NONE; n];
        for v in 0..n {
            let comp = uf.find(v);
            for &o in &self.vertex_occs[v] {
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
        // its vertex, no list repeats an edge, and every edge is listed at
        // each endpoint (once in all for a self-loop) ----
        let mut entries = 0usize;
        for (v, list) in self.adj.iter().enumerate() {
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
            let mut expected = 0usize;
            for &o in &self.chunks.occs[ci] {
                let v = self.chunks.occ_vert(o);
                if self.principal[v.index()] == o {
                    expected += self.adj[v.index()].len();
                }
            }
            assert_eq!(
                self.chunks.adj_count[ci], expected,
                "chunk {ci} adj_count mismatch"
            );
        }

        // ---- slot discipline: single-chunk lists have no id, multi-chunk
        // lists have ids on every chunk; slots and row slabs pair up ----
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
                assert_eq!(self.slot_owner[slot as usize], ci as u32);
            }
            assert_eq!(
                slot == NONE,
                self.chunks.row[ci] == NONE,
                "chunk {ci}: slot and row-bank slab must be paired"
            );
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
            for (t, cell) in self.rows.base(self.chunks.row[ci]).iter().enumerate() {
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
            // Expected aggregate: entry-wise min / OR over the subtree.
            let mut expected_agg = vec![WKey::PLUS_INF; cap];
            let mut expected_memb = vec![false; cap];
            let mut stack = vec![ci as u32];
            let mut subtree = 0u32;
            while let Some(node) = stack.pop() {
                subtree += 1;
                let ni = node as usize;
                for (t, cell) in self.rows.base(self.chunks.row[ni]).iter().enumerate() {
                    if *cell < expected_agg[t] {
                        expected_agg[t] = *cell;
                    }
                }
                expected_memb[self.chunks.slot[ni] as usize] = true;
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
                self.rows.agg(self.chunks.row[ci]),
                &expected_agg[..],
                "chunk {ci} aggregate is stale"
            );
            assert_eq!(
                self.rows.memb(self.chunks.row[ci]),
                &expected_memb[..],
                "chunk {ci} membership is stale"
            );
        }
    }
}
