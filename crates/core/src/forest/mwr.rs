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
//! Both scans keep a running minimum over the inline adjacency keys (keys
//! are unique, so it is the argmin) and look up the winning edge by id.

use super::{ChunkedEulerForest, NONE};
use pdmsf_graph::{Edge, WKey};
use pdmsf_pram::kernels::log2_ceil;

#[cfg(test)]
thread_local! {
    /// γ searches run on this thread, so tests can check their streams
    /// reach the search.
    pub(crate) static GAMMA_SEARCHES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
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

impl ChunkedEulerForest {
    /// The minimum-weight edge with one endpoint (principal copy) in the list
    /// rooted at `root_a` and the other in the list rooted at `root_b`.
    pub(crate) fn find_mwr(&mut self, root_a: u32, root_b: u32) -> Option<Edge> {
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
        let mut best = WKey::PLUS_INF;
        let mut scanned = 0u64;
        for &o in &self.chunks.occs[short_root as usize] {
            if !self.chunks.occ_principal(o) {
                continue;
            }
            let v = self.chunks.occ_vert(o);
            let adj = &self.adj[v.index()];
            scanned += adj.len() as u64;
            for &a in adj {
                let (key, other) = (a.key(), a.other);
                if key < best && self.tree_root(self.vertex_chunk[other.index()]) == other_root {
                    best = key;
                }
            }
        }
        self.charge(
            scanned + 1,
            log2_ceil((scanned as usize).max(2)) + 1,
            scanned.max(1),
        );
        self.edge_of_key(best)
    }

    /// The registered edge behind a scan's winning key (`None` for `∞`).
    fn edge_of_key(&self, key: WKey) -> Option<Edge> {
        (!key.is_inf()).then(|| self.edge(key.edge).expect("scanned keys name live edges"))
    }

    /// The `γ`-array search of Lemma 2.4: `γ[i] = CAdj_{root_a}[i]` masked by
    /// `Memb_{root_b}[i]`; the winning chunk of the other list is then
    /// scanned for the witness edge.
    fn gamma_search(&mut self, root_a: u32, root_b: u32) -> Option<Edge> {
        // γ reads the two roots' aggregates, so they must be exact.
        self.recompute_stale();
        #[cfg(test)]
        GAMMA_SEARCHES.with(|n| n.set(n.get() + 1));
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
        let mut best = WKey::PLUS_INF;
        let mut scanned = 0u64;
        let root_a_memb = self.rows.memb(self.chunks.row[root_a as usize]);
        for &o in &self.chunks.occs[chunk as usize] {
            if !self.chunks.occ_principal(o) {
                continue;
            }
            let v = self.chunks.occ_vert(o);
            let adj = &self.adj[v.index()];
            scanned += adj.len() as u64;
            for &a in adj {
                let (key, other) = (a.key(), a.other);
                if key < best {
                    let so = self.chunks.slot[self.vertex_chunk[other.index()] as usize];
                    if so != NONE && root_a_memb[so as usize] {
                        best = key;
                    }
                }
            }
        }
        self.charge(
            scanned + 1,
            log2_ceil((scanned as usize).max(2)) + 1,
            scanned.max(1),
        );
        assert!(!best.is_inf(), "γ promised an edge between the two lists");
        debug_assert_eq!(
            best, expected_key,
            "γ aggregate and chunk scan disagree on the MWR edge"
        );
        self.edge_of_key(best)
    }
}
