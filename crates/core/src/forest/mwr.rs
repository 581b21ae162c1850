//! Minimum-weight-replacement (MWR) edge search — Lemma 2.4 sequentially,
//! Lemma 3.3 in the EREW model.
//!
//! After a forest-edge deletion splits a tree's Euler tour into two lists,
//! the replacement edge is the minimum-weight graph edge with one endpoint's
//! principal copy in each list:
//!
//! * if both lists carry chunk ids, the search uses the `γ` array (the root
//!   `CAdj` aggregate of one list, read at the ids outside that list), then
//!   scans the `O(K)` edges of the winning chunk,
//! * if either list is *short* (single chunk, no id — Section 6), that list
//!   is scanned directly in `O(K)` time (`O(log K)` parallel depth with a
//!   tournament tree).
//!
//! Both scans are [`ChunkedEulerForest::scan_adjacent_min`]: a running
//! minimum over the inline adjacency keys (keys are unique, so it is the
//! argmin); the winning edge is looked up by id.
//!
//! The paper masks `γ` with the other list's membership aggregate (which
//! chunk ids the list holds), kept in the list sum data structure beside
//! `CAdj`. Here no list aggregates membership: `γ` is its only reader, so
//! the search marks one list's ids itself, with one walk of that list's
//! tree (`O(J)` work; in the EREW model a top-down broadcast of depth
//! `O(log J)`, inside the round `γ` is charged).

use super::{log_depth, ChunkedEulerForest, NONE};
use pdmsf_graph::{Edge, WKey};

#[cfg(test)]
use super::events::{count, Event};

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
        let best = self.scan_adjacent_min(short_root, 1, |f, other| {
            f.tree_root(f.vertex_chunk[other.index()]) == other_root
        });
        self.edge_of_key(best)
    }

    /// The registered edge behind a scan's winning key (`None` for `∞`).
    fn edge_of_key(&self, key: WKey) -> Option<Edge> {
        (!key.is_inf()).then(|| self.edge(key.edge).expect("scanned keys name live edges"))
    }

    /// The `γ`-array search of Lemma 2.4: `γ[i] = CAdj_{root_a}[i]` over
    /// the ids `i` outside list a; the winning chunk, of list b, is then
    /// scanned for the witness edge.
    ///
    /// Every finite `γ[i]` names a chunk of list b: list a's own ids are
    /// marked and skipped, a third tree's id reads `∞` (no graph edge joins
    /// two trees of a spanning forest), and so does a free id
    /// ([`Self::drop_slot`] clears its column from every row).
    fn gamma_search(&mut self, root_a: u32, root_b: u32) -> Option<Edge> {
        // γ reads list a's root aggregate, so it must be exact.
        self.recompute_stale();
        #[cfg(test)]
        count(Event::GammaSearch);
        debug_assert!(
            self.chunks.slot[root_a as usize] != NONE && self.chunks.slot[root_b as usize] != NONE
        );
        let cap = self.slot_cap();
        let mut in_a = std::mem::take(&mut self.scratch_marks);
        in_a.clear();
        in_a.resize(cap, false);
        let mut order = std::mem::take(&mut self.scratch_order);
        self.collect_subtree(root_a, |_| true, &mut order);
        for &c in &order {
            in_a[self.chunks.slot[c as usize] as usize] = true;
        }
        self.scratch_order = order;
        let agg = self.rows.agg(self.chunks.slot[root_a as usize]);
        let winner = (0..cap)
            .filter(|&i| !in_a[i])
            .min_by_key(|&i| agg[i])
            .filter(|&i| !agg[i].is_inf())
            .map(|i| (agg[i], i));
        // Sequentially: O(J) to mark list a and build and scan γ. EREW: a
        // broadcast down list a's tree and a tournament tree, each of depth
        // O(log J) with O(J) processors.
        self.charge(cap as u64, log_depth(cap), cap as u64);
        let best = winner.map_or(WKey::PLUS_INF, |(expected_key, slot)| {
            // Scan the O(K) edges adjacent to the winning chunk for the
            // lightest one whose other endpoint lies in list a.
            let chunk = self.rows.owner(slot as u32);
            debug_assert_eq!(self.tree_root(chunk), root_b, "γ won outside list b");
            let best = self.scan_adjacent_min(chunk, 1, |f, other| {
                let so = f.chunks.slot[f.vertex_chunk[other.index()] as usize];
                so != NONE && in_a[so as usize]
            });
            assert!(!best.is_inf(), "γ promised an edge between the two lists");
            debug_assert_eq!(
                best, expected_key,
                "γ aggregate and chunk scan disagree on the MWR edge"
            );
            best
        });
        self.scratch_marks = in_a;
        self.edge_of_key(best)
    }
}
