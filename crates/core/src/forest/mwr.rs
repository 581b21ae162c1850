//! Minimum-weight-replacement (MWR) edge search — Lemma 2.4 sequentially,
//! Lemma 3.3 in the EREW model.
//!
//! After a forest-edge deletion splits a tree's Euler tour into two lists,
//! the replacement edge is the minimum-weight graph edge with one endpoint's
//! principal copy in each list:
//!
//! * if both lists carry chunk ids, the search uses the `γ` array (root
//!   `CAdj` aggregate of one list masked by the root `Memb` aggregate of the
//!   other), then scans the `O(K)` edges of the winning chunk,
//! * if either list is *short* (single chunk, no id — Section 6), that list
//!   is scanned directly in `O(K)` time (`O(log K)` parallel depth with a
//!   tournament tree).
//!
//! Candidate edges are gathered into reusable scratch buffers and the final
//! argmin is a leftmost-on-tie scan (`argmin_keys`).

use super::{ChunkedEulerForest, EdgeRec, NONE};
use pdmsf_graph::arena::EdgeStore;
use pdmsf_graph::{Edge, WKey};
use pdmsf_pram::kernels::log2_ceil;

/// Leftmost index of the minimum key.
fn argmin_keys(keys: &[WKey]) -> Option<usize> {
    let mut best: Option<usize> = None;
    for (i, k) in keys.iter().enumerate() {
        if best.is_none_or(|b| *k < keys[b]) {
            best = Some(i);
        }
    }
    best
}

/// Leftmost index of the minimum key among masked entries.
fn argmin_masked(keys: &[WKey], mask: &[bool]) -> Option<usize> {
    let mut best: Option<usize> = None;
    for (i, (k, keep)) in keys.iter().zip(mask).enumerate() {
        if *keep && best.is_none_or(|b| *k < keys[b]) {
            best = Some(i);
        }
    }
    best
}

impl<S: EdgeStore<EdgeRec>> ChunkedEulerForest<S> {
    /// The minimum-weight edge with one endpoint (principal copy) in the list
    /// rooted at `root_a` and the other in the list rooted at `root_b`.
    pub fn find_mwr(&mut self, root_a: u32, root_b: u32) -> Option<Edge> {
        debug_assert_ne!(root_a, root_b, "MWR requires two distinct lists");
        let a_short =
            self.chunks.size[root_a as usize] == 1 && self.chunks.slot[root_a as usize] == NONE;
        let b_short =
            self.chunks.size[root_b as usize] == 1 && self.chunks.slot[root_b as usize] == NONE;
        if a_short {
            self.scan_short_list(root_a, root_b)
        } else if b_short {
            self.scan_short_list(root_b, root_a)
        } else {
            self.gamma_search(root_a, root_b)
        }
    }

    /// Direct scan used when `short_root` is a short list: examine every edge
    /// incident to its principal copies and keep the lightest one whose other
    /// endpoint lies in the list rooted at `other_root`.
    fn scan_short_list(&mut self, short_root: u32, other_root: u32) -> Option<Edge> {
        let mut keys = std::mem::take(&mut self.scratch_keys);
        let mut cands = std::mem::take(&mut self.scratch_cands);
        keys.clear();
        cands.clear();
        let mut scanned = 0u64;
        for &o in &self.chunks.occs[short_root as usize] {
            if !self.chunks.occ_principal(o) {
                continue;
            }
            let v = self.chunks.occ_vert(o);
            let handles = &self.adj[v.index()];
            for (i, &h) in handles.iter().enumerate() {
                if let Some(&ahead) = handles.get(i + 2) {
                    self.edges.prefetch(ahead);
                }
                scanned += 1;
                let e = self.edges.get(h).edge;
                let other = e.other(v);
                let co = self.vertex_chunk[other.index()];
                if self.tree_root(co) != other_root {
                    continue;
                }
                keys.push(WKey::new(e.weight, e.id));
                cands.push(e);
            }
        }
        let best = argmin_keys(&keys).map(|i| cands[i]);
        self.charge(
            scanned + 1,
            log2_ceil((scanned as usize).max(2)) + 1,
            scanned.max(1),
        );
        self.scratch_keys = keys;
        self.scratch_cands = cands;
        best
    }

    /// The `γ`-array search of Lemma 2.4: `γ[i] = CAdj_{root_a}[i]` masked by
    /// `Memb_{root_b}[i]`; the winning chunk of the other list is then
    /// scanned for the witness edge.
    fn gamma_search(&mut self, root_a: u32, root_b: u32) -> Option<Edge> {
        let cap = self.slot_cap();
        let best_slot = {
            debug_assert!(
                self.chunks.slot[root_a as usize] != NONE
                    && self.chunks.slot[root_b as usize] != NONE
            );
            let ra_agg = self.rows.agg(self.chunks.row[root_a as usize]);
            let rb_memb = self.rows.memb(self.chunks.row[root_b as usize]);
            // Masked argmin over γ; an `∞` winner means no candidate exists.
            argmin_masked(ra_agg, rb_memb).and_then(|i| {
                let key = ra_agg[i];
                if key.is_inf() {
                    None
                } else {
                    Some((key, i))
                }
            })
        };
        // Sequentially: O(J) to build and scan γ. EREW: O(1) rounds with O(J)
        // processors to build it, then a tournament tree of depth O(log J).
        self.charge(cap as u64, log2_ceil(cap.max(2)) + 1, cap as u64);
        let (expected_key, slot) = best_slot?;

        // Scan the O(K) edges adjacent to the winning chunk, verifying the
        // other endpoint against the membership of `root_a`.
        let chunk = self.slot_owner[slot];
        debug_assert_ne!(chunk, NONE);
        let mut keys = std::mem::take(&mut self.scratch_keys);
        let mut cands = std::mem::take(&mut self.scratch_cands);
        keys.clear();
        cands.clear();
        let mut scanned = 0u64;
        let root_a_memb = self.rows.memb(self.chunks.row[root_a as usize]);
        for &o in &self.chunks.occs[chunk as usize] {
            if !self.chunks.occ_principal(o) {
                continue;
            }
            let v = self.chunks.occ_vert(o);
            let handles = &self.adj[v.index()];
            for (i, &h) in handles.iter().enumerate() {
                if let Some(&ahead) = handles.get(i + 2) {
                    self.edges.prefetch(ahead);
                }
                scanned += 1;
                let e = self.edges.get(h).edge;
                let other = e.other(v);
                let co = self.vertex_chunk[other.index()];
                let so = self.chunks.slot[co as usize];
                if so == NONE || !root_a_memb[so as usize] {
                    continue;
                }
                keys.push(WKey::new(e.weight, e.id));
                cands.push(e);
            }
        }
        let best = argmin_keys(&keys).map(|i| (keys[i], cands[i]));
        self.charge(
            scanned + 1,
            log2_ceil((scanned as usize).max(2)) + 1,
            scanned.max(1),
        );
        self.scratch_keys = keys;
        self.scratch_cands = cands;
        let (found_key, edge) = best.expect("γ promised an edge between the two lists");
        debug_assert_eq!(
            found_key, expected_key,
            "γ aggregate and chunk scan disagree on the MWR edge"
        );
        Some(edge)
    }
}
