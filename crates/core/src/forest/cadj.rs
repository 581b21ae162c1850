//! Chunk ids (`slots`), `CAdj` rows and their aggregation upkeep.
//!
//! A chunk's `CAdj` row stores, for every other chunk id, the minimum weight
//! of a graph edge whose endpoints have their principal copies in the two
//! chunks (Section 2.2). This module owns:
//!
//! * attaching and releasing chunk ids (short lists carry no id — Section
//!   6),
//! * the single pair entry an edge insertion or deletion changes (Section
//!   2.6): rows hold exact minima, so a deletion rescans the pair only when
//!   it removes the pair's minimum and is `O(1)` otherwise,
//! * three primitives, each written once, that every larger row change
//!   goes through:
//!   - `rebuild_rows` rebuilds the row of one chunk, or of both halves of
//!     a split, by scanning the `O(K)` edges adjacent to it (Lemma 2.2; in
//!     the EREW model the tournament-tree construction of Lemma 3.1);
//!   - `sweep_other_rows` is the symmetric "cross update" of every other
//!     chunk's row, run by the rebuild, by an id's release and by the row
//!     merge of a chunk merge;
//!   - `refresh_entries_for_chunks` and `refresh_entries_path` push a
//!     slice of changed entries up the per-entry aggregate trees (the
//!     second half of `UpdateAdj`, Lemma 2.3). Walks stop at the first
//!     *stale* chunk and subtree sweeps skip stale chunks: a stale chunk
//!     and all its ancestors get their whole aggregate recomputed later
//!     (see [`super::splay`]).
//!
//! Ids and rows come from one table, the forest's [`super::RowBank`]: a
//! slotted chunk's rows live at its id, and a released id (rows and all) is
//! handed out again before a new one, so the frequent short-list id
//! transitions never allocate.

use super::{log_depth, ChunkedEulerForest, NONE};
use pdmsf_graph::WKey;
use std::ops::Range;

/// Up to this many changed entries (or dirty chunks) are refreshed by one
/// leaf-to-root walk each; more take one sweep (or one splay) instead.
const PATH_REFRESH_MAX: usize = 8;

#[cfg(test)]
use super::events::{count, Event};

impl ChunkedEulerForest {
    /// Attach an id with all-`∞` rows to chunk `c` without rebuilding its
    /// row — the caller rebuilds it with [`Self::rebuild_rows`], alone or
    /// with its split partner. When every id below `J` is live, `J` doubles
    /// first (at least 16): one compacting sweep re-lays every row to the
    /// new width.
    pub(crate) fn attach_slot(&mut self, c: u32) {
        debug_assert_eq!(self.chunks.slot[c as usize], NONE);
        if self.rows.full() {
            let old_cap = self.slot_cap();
            let new_cap = (old_cap * 2).max(16);
            self.rows.grow_stride(new_cap);
            // All `old_cap` ids are live, so the sweep copies that many slabs.
            self.charge((new_cap * old_cap.max(1)) as u64, 1, new_cap as u64);
        }
        self.chunks.slot[c as usize] = self.rows.alloc(c);
    }

    /// Give chunk `c` an id, rebuild its row from its adjacent edges,
    /// propagate the symmetric entries and refresh every aggregate that
    /// mentions the new id.
    pub(crate) fn give_slot(&mut self, c: u32) {
        if self.chunks.slot[c as usize] != NONE {
            return;
        }
        self.attach_slot(c);
        self.rebuild_rows(&[c]);
    }

    /// Scan the edges adjacent to chunk `c`'s principal copies into `row`
    /// (the tournament-tree row construction of Lemma 2.2 / 3.1). Read-only;
    /// returns the number of edges scanned.
    fn scan_row(&self, c: u32, row: &mut [WKey]) -> u64 {
        let mut scanned = 0u64;
        for &o in &self.chunks.occs[c as usize] {
            if !self.chunks.occ_principal(o) {
                continue;
            }
            let v = self.chunks.occ_vert(o);
            let adj = self.adj.list(v.index());
            scanned += adj.len() as u64;
            for &a in adj {
                let (key, other) = (a.key(), a.other);
                let so = self.chunks.slot[self.vertex_chunk[other.index()] as usize];
                if so != NONE && key < row[so as usize] {
                    row[so as usize] = key;
                }
            }
        }
        scanned
    }

    /// Recompute the `CAdj` rows of `cs` — one chunk, or the two halves of a
    /// fresh split — by scanning the edges adjacent to them, propagate the
    /// symmetric entries into every other row in one sweep, and refresh all
    /// aggregates: a path refresh of each chunk's own list (splay) and one
    /// refresh of the changed entries in the lists whose rows changed. This
    /// is the workhorse of Lemma 2.2 / 3.1. Each fresh row is built in its
    /// own scratch buffer; a chunk without an id has no row to rebuild.
    pub(crate) fn rebuild_rows(&mut self, cs: &[u32]) {
        debug_assert!(matches!(cs.len(), 1 | 2), "one chunk or a split pair");
        let mut slots = [NONE; 2];
        for (s, &c) in slots.iter_mut().zip(cs) {
            *s = self.chunks.slot[c as usize];
        }
        let slots = &slots[..cs.len()];
        if slots.contains(&NONE) {
            debug_assert_eq!(cs.len(), 1, "a split pair without ids");
            return;
        }
        let cap = self.slot_cap();
        let mut fresh = [
            std::mem::take(&mut self.scratch_row),
            std::mem::take(&mut self.scratch_row2),
        ];
        let (mut scanned, mut occs) = (0u64, 0u64);
        for (row, &c) in fresh.iter_mut().zip(cs) {
            row.clear();
            row.resize(cap, WKey::PLUS_INF);
            scanned += self.scan_row(c, row);
            occs += self.chunks.occs[c as usize].len() as u64;
        }
        if let [s1, s2] = *slots {
            debug_assert_eq!(
                fresh[0][s2 as usize], fresh[1][s1 as usize],
                "asymmetric pair entry"
            );
        }
        let fresh_rows = &fresh[..cs.len()];
        let (cross, dirty) = self.sweep_other_rows(cs, |row, other_slot| {
            let mut changed = false;
            for (&s, fresh) in slots.iter().zip(fresh_rows) {
                if row[s as usize] != fresh[other_slot] {
                    row[s as usize] = fresh[other_slot];
                    changed = true;
                }
            }
            changed
        });
        for (&s, row) in slots.iter().zip(fresh_rows) {
            self.rows.base_mut(s).copy_from_slice(row);
        }
        [self.scratch_row, self.scratch_row2] = fresh;
        // Sequential: O(K + J), the scans of both chunks of a pair charged
        // as one. EREW: tournament trees of depth O(log K) with O(K)
        // processors build the rows, then O(1) rounds with O(J) processors
        // perform the cross update (Lemma 3.1).
        self.charge(
            scanned + occs + cross + cap as u64,
            log_depth(scanned as usize),
            (scanned + cross).max(1),
        );
        // Path refresh in each chunk's own list (first half of UpdateAdj) …
        for &c in cs {
            self.splay(c);
        }
        // … and entry refresh in the lists whose rows changed (second half
        // of UpdateAdj, restricted to where it has any effect).
        self.refresh_entries_for_chunks(dirty, slots);
    }

    /// The cross update of Lemma 2.2 / 3.1: hand the row of every slotted
    /// chunk outside `skip`, with that chunk's id, to `update`, which
    /// rewrites the row's entries for the changed ids and says whether any
    /// changed. Returns the number of rows visited and the chunks whose
    /// rows changed, in the `scratch_dirty` buffer that
    /// [`Self::refresh_entries_for_chunks`] hands back. Charges nothing:
    /// each caller charges its own formula.
    pub(crate) fn sweep_other_rows(
        &mut self,
        skip: &[u32],
        mut update: impl FnMut(&mut [WKey], usize) -> bool,
    ) -> (u64, Vec<u32>) {
        let mut dirty = std::mem::take(&mut self.scratch_dirty);
        dirty.clear();
        let mut visited = 0u64;
        for other_slot in 0..self.rows.ids() {
            let owner = self.rows.owner(other_slot as u32);
            if owner == NONE || skip.contains(&owner) {
                continue;
            }
            visited += 1;
            if update(self.rows.base_mut(other_slot as u32), other_slot) {
                dirty.push(owner);
            }
        }
        (visited, dirty)
    }

    /// Take chunk `c`'s id away (it became the only chunk of its list):
    /// remove every reference to the id from other rows, then refresh entry
    /// `s` — but only in the lists whose rows actually changed (the common
    /// case, a short list detaching from everything it was connected to, is
    /// already all-`∞` and costs no refresh at all).
    pub(crate) fn drop_slot(&mut self, c: u32) {
        let s = self.chunks.slot[c as usize];
        if s == NONE {
            return;
        }
        // Clear the column `s` in every other row, remembering which chunks
        // actually held a finite entry.
        let (work, dirty) = self.sweep_other_rows(&[c], |row, _| {
            std::mem::replace(&mut row[s as usize], WKey::PLUS_INF) != WKey::PLUS_INF
        });
        // Release the id; its rows are reset when it is handed out again.
        self.rows.free(s);
        self.chunks.slot[c as usize] = NONE;
        self.chunks.set_stale(c, false);
        self.charge(work + 1, 1, work.max(1));
        self.refresh_entries_for_chunks(dirty, &[s]);
    }

    /// Refresh entries `slots` of the aggregate vectors above the chunks in
    /// `dirty`, whose `base` rows just changed there (the per-entry trees
    /// `S_j` of Lemma 2.3 / Section 3 — `O(1)` work per level and entry).
    /// For a handful of dirty chunks this walks one leaf-to-root path each
    /// (overlapping paths converge because every walk recomputes from the
    /// *current* child aggregates); for many dirty chunks one bottom-up
    /// sweep per affected list is cheaper. `dirty` is the `scratch_dirty`
    /// buffer and goes back there.
    pub(crate) fn refresh_entries_for_chunks(&mut self, mut dirty: Vec<u32>, slots: &[u32]) {
        if dirty.is_empty() {
            self.charge(1, 1, 1);
        } else if dirty.len() <= PATH_REFRESH_MAX {
            for &c in &dirty {
                self.refresh_entries_path(c, slots);
            }
        } else {
            #[cfg(test)]
            count(match slots.len() {
                1 => Event::OneEntrySweep,
                _ => Event::TwoEntrySweep,
            });
            for c in dirty.iter_mut() {
                *c = self.tree_root(*c);
            }
            dirty.sort_unstable();
            dirty.dedup();
            let mut visited = 0u64;
            for &root in &dirty {
                visited += self.refresh_entries_subtree(root, slots);
            }
            self.charge(visited.max(1), log_depth(visited as usize), visited.max(1));
        }
        self.scratch_dirty = dirty;
    }

    /// Bottom-up recomputation of entries `slots` in the subtree rooted at
    /// `c`, skipping stale chunks. Returns the visits to charge: the
    /// subtree's chunks once per entry.
    fn refresh_entries_subtree(&mut self, c: u32, slots: &[u32]) -> u64 {
        let mut order = std::mem::take(&mut self.scratch_order);
        self.collect_subtree(c, |_| true, &mut order);
        // Reversed, the walk recomputes children before parents.
        for &node in order.iter().rev() {
            if self.chunks.slot[node as usize] == NONE || self.chunks.stale(node) {
                continue;
            }
            for &s in slots {
                self.refresh_agg_entry(node, s);
            }
        }
        let visited = (order.len() * slots.len()) as u64;
        self.scratch_order = order;
        visited
    }

    /// Recompute entries `slots` of the aggregates on the leaf-to-root path
    /// of chunk `c` (the paper's `UpdateAdj` path refresh for changed `CAdj`
    /// entries, Lemma 2.3): one walk, `O(1)` work per level and entry
    /// instead of the full `O(J)`-vector pull-up a structural splay
    /// performs. The walk ends at the first stale chunk: it and every chunk
    /// above it are recomputed in full later.
    pub(crate) fn refresh_entries_path(&mut self, c: u32, slots: &[u32]) {
        #[cfg(test)]
        count(match slots.len() {
            1 => Event::OneEntryWalk,
            _ => Event::TwoEntryWalk,
        });
        let mut node = c;
        let mut steps = 0u64;
        while !self.chunks.stale(node) {
            steps += 1;
            for &s in slots {
                self.refresh_agg_entry(node, s);
            }
            let parent = self.chunks.parent[node as usize];
            if parent == NONE {
                break;
            }
            node = parent;
        }
        // One processor per level in the per-entry trees S_j (Lemma 3.2),
        // whatever the number of entries.
        self.charge(steps.max(1), log_depth(steps as usize), steps.max(1));
    }

    /// Recompute entry `s` of slotted chunk `c`'s aggregate from its own row
    /// and its children's aggregates. `O(1)`.
    fn refresh_agg_entry(&mut self, c: u32, s: u32) {
        let own = self.chunks.slot[c as usize];
        let mut agg = self.rows.base(own)[s as usize];
        for child in [self.chunks.left[c as usize], self.chunks.right[c as usize]] {
            if child != NONE {
                agg = agg.min(self.rows.agg(self.chunks.slot[child as usize])[s as usize]);
            }
        }
        self.rows.agg_mut(own)[s as usize] = agg;
    }

    /// Cheap path for a *single* new edge between two id-bearing chunks
    /// (edge-insertion case of Section 2.6): lower the two symmetric entries
    /// and refresh the two leaf-to-root paths.
    pub(crate) fn note_edge_between(&mut self, c1: u32, c2: u32, key: WKey) {
        let s1 = self.chunks.slot[c1 as usize];
        let s2 = self.chunks.slot[c2 as usize];
        if s1 == NONE || s2 == NONE {
            return;
        }
        let mut touched1 = false;
        {
            let cell = &mut self.rows.base_mut(s1)[s2 as usize];
            if key < *cell {
                *cell = key;
                touched1 = true;
            }
        }
        let mut touched2 = false;
        {
            let cell = &mut self.rows.base_mut(s2)[s1 as usize];
            if key < *cell {
                *cell = key;
                touched2 = true;
            }
        }
        self.charge(2, 1, 2);
        if touched1 {
            self.refresh_entries_path(c1, &[s2]);
        }
        if touched2 && c2 != c1 {
            self.refresh_entries_path(c2, &[s1]);
        }
    }

    /// Edge-deletion case of Section 2.6: an edge with `key` between `c1`
    /// and `c2` is gone. Rows hold exact minima, so the pair entry changes
    /// only when `key` was its minimum; then it is recomputed by scanning
    /// the edges adjacent to `c1` and the two leaf-to-root paths are
    /// refreshed. Otherwise nothing changes, in `O(1)`.
    pub(crate) fn forget_edge_between(&mut self, c1: u32, c2: u32, key: WKey) {
        let s1 = self.chunks.slot[c1 as usize];
        let s2 = self.chunks.slot[c2 as usize];
        if s1 == NONE || s2 == NONE {
            return;
        }
        if self.rows.base(s1)[s2 as usize] != key {
            self.charge(1, 1, 1);
            return;
        }
        let best = self.scan_adjacent_min(c1, 2, |f, other| f.vertex_chunk[other.index()] == c2);
        self.rows.base_mut(s1)[s2 as usize] = best;
        self.rows.base_mut(s2)[s1 as usize] = best;
        self.refresh_entries_path(c1, &[s2]);
        if c2 != c1 {
            self.refresh_entries_path(c2, &[s1]);
        }
    }

    /// Link fast path: the principals at `range` of slotted chunk `c` just
    /// arrived from a slotless list, so no row held their edges. Those
    /// edges can only lower minima: lower `c`'s row and the symmetric
    /// entries by them and refresh only the entries that changed — up to
    /// [`PATH_REFRESH_MAX`] changed entries of `c` walk their paths, more
    /// splay `c`, and the symmetric entries go through
    /// [`Self::refresh_entries_for_chunks`]. No rescan of `c`'s other edges.
    pub(crate) fn lower_row_by_arrivals(&mut self, c: u32, range: Range<usize>) {
        let s = self.chunks.slot[c as usize];
        debug_assert_ne!(s, NONE, "only slotted chunks have rows to lower");
        let mut changed = std::mem::take(&mut self.scratch_slots);
        changed.clear();
        let mut dirty = std::mem::take(&mut self.scratch_dirty);
        dirty.clear();
        let mut scanned = 0u64;
        let occs = range.len() as u64;
        for &o in &self.chunks.occs[c as usize][range] {
            if !self.chunks.occ_principal(o) {
                continue;
            }
            let adj = self.adj.list(self.chunks.occ_vert(o).index());
            scanned += adj.len() as u64;
            for &a in adj {
                let other = self.vertex_chunk[a.other.index()];
                let so = self.chunks.slot[other as usize];
                if so == NONE {
                    continue;
                }
                let key = a.key();
                let cell = &mut self.rows.base_mut(s)[so as usize];
                if key < *cell {
                    *cell = key;
                    changed.push(so);
                }
                if other != c {
                    let cell = &mut self.rows.base_mut(so)[s as usize];
                    if key < *cell {
                        *cell = key;
                        dirty.push(other);
                    }
                }
            }
        }
        self.charge(scanned + occs, log_depth(scanned as usize), scanned.max(1));
        changed.sort_unstable();
        changed.dedup();
        dirty.sort_unstable();
        dirty.dedup();
        if changed.len() <= PATH_REFRESH_MAX {
            for &so in &changed {
                self.refresh_entries_path(c, &[so]);
            }
        } else {
            self.splay(c);
        }
        self.scratch_slots = changed;
        self.refresh_entries_for_chunks(dirty, &[s]);
    }

    /// Cut fast path: whether an edge of the principals at `range` of
    /// slotted chunk `c` holds one of `c`'s pair minima, so that moving
    /// them out of `c` raises an entry and `c`'s row must be rebuilt. Rows
    /// hold exact minima over unique keys, so otherwise every entry stays.
    /// Charged as a scan of those edges.
    pub(crate) fn run_holds_a_minimum(&mut self, c: u32, range: Range<usize>) -> bool {
        let row = self.rows.base(self.chunks.slot[c as usize]);
        let mut scanned = 0u64;
        let mut holds = false;
        for &o in &self.chunks.occs[c as usize][range] {
            if !self.chunks.occ_principal(o) {
                continue;
            }
            let adj = self.adj.list(self.chunks.occ_vert(o).index());
            scanned += adj.len() as u64;
            holds = holds
                || adj.iter().any(|a| {
                    let so = self.chunks.slot[self.vertex_chunk[a.other.index()] as usize];
                    so != NONE && row[so as usize] == a.key()
                });
        }
        self.charge(scanned.max(1), log_depth(scanned as usize), scanned.max(1));
        holds
    }
}
