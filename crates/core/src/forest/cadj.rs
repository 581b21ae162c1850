//! Chunk ids (`slots`), `CAdj` rows and their aggregation upkeep.
//!
//! A chunk's `CAdj` row stores, for every other chunk id, the minimum weight
//! of a graph edge whose endpoints have their principal copies in the two
//! chunks (Section 2.2). This module owns:
//!
//! * slot allocation / release (short lists carry no id — Section 6),
//! * full row rebuilds by scanning the `O(K)` edges adjacent to a chunk
//!   (Lemma 2.2; in the EREW model this is the tournament-tree construction
//!   of Lemma 3.1),
//! * the symmetric "cross update" of every other chunk's row,
//! * the single pair entry an edge insertion or deletion changes (Section
//!   2.6): rows hold exact minima, so a deletion rescans the pair only when
//!   it removes the pair's minimum and is `O(1)` otherwise,
//! * the global per-entry refresh of aggregate vectors (the second half of
//!   `UpdateAdj`, Lemma 2.3). Walks stop at the first *stale* chunk and
//!   subtree sweeps skip stale chunks: a stale chunk and all its ancestors
//!   get their whole aggregate recomputed later (see [`super::splay`]).
//!
//! Rows live in the forest's [`super::RowBank`]: one slab per slotted chunk,
//! recycled through the bank's free list, so the frequent short-list slot
//! transitions never allocate.

use super::{ChunkedEulerForest, NONE};
use pdmsf_graph::WKey;
use pdmsf_pram::kernels::log2_ceil;

impl ChunkedEulerForest {
    /// Allocate a chunk id, growing the id space (and the row bank's stride)
    /// when necessary.
    fn alloc_slot(&mut self, owner: u32) -> u32 {
        if self.slot_free.is_empty() {
            let old_cap = self.slot_owner.len();
            let new_cap = (old_cap * 2).max(16);
            self.slot_owner.resize(new_cap, NONE);
            for s in (old_cap..new_cap).rev() {
                self.slot_free.push(s as u32);
            }
            // One compacting sweep re-lays every row to the new width.
            self.rows.grow_stride(new_cap);
            self.charge(
                (new_cap * self.rows.num_slabs().max(1)) as u64,
                1,
                new_cap as u64,
            );
        }
        let s = self.slot_free.pop().expect("slot free list refilled above");
        self.slot_owner[s as usize] = owner;
        s
    }

    /// Attach an id and an (all-`∞`) row slab to chunk `c` without
    /// rebuilding its row — the caller rebuilds, either singly
    /// ([`Self::rebuild_row`]) or batched for a split pair
    /// ([`Self::rebuild_rows_pair`]).
    pub(crate) fn attach_slot(&mut self, c: u32) {
        debug_assert_eq!(self.chunks.slot[c as usize], NONE);
        let s = self.alloc_slot(c);
        debug_assert_eq!(
            self.rows.stride(),
            self.slot_cap(),
            "row width must track the chunk-id capacity"
        );
        let row = self.rows.alloc();
        self.chunks.slot[c as usize] = s;
        self.chunks.row[c as usize] = row;
    }

    /// Give chunk `c` an id: allocate its row slab (recycled from the bank's
    /// free list when possible), rebuild its row from its adjacent edges,
    /// propagate the symmetric entries and refresh every aggregate that
    /// mentions the new id.
    pub(crate) fn give_slot(&mut self, c: u32) {
        if self.chunks.slot[c as usize] != NONE {
            return;
        }
        self.attach_slot(c);
        self.rebuild_row(c);
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
            let adj = &self.adj[v.index()];
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

    /// Rebuild the rows of a freshly split pair `(c, c2)` in one batched
    /// pass: both rows are scanned, the symmetric entries of every other row
    /// are updated in a **single** sweep over the id space, and the affected
    /// aggregates are refreshed once for both entries. Compared to two
    /// independent [`Self::rebuild_row`] calls this halves the cross-update
    /// and refresh traffic of every chunk split.
    pub(crate) fn rebuild_rows_pair(&mut self, c: u32, c2: u32) {
        let s1 = self.chunks.slot[c as usize];
        let s2 = self.chunks.slot[c2 as usize];
        debug_assert!(s1 != NONE && s2 != NONE);
        let cap = self.slot_cap();
        let mut row1 = std::mem::take(&mut self.scratch_row);
        row1.clear();
        row1.resize(cap, WKey::PLUS_INF);
        let mut row2 = std::mem::take(&mut self.scratch_row2);
        row2.clear();
        row2.resize(cap, WKey::PLUS_INF);
        let scanned = self.scan_row(c, &mut row1) + self.scan_row(c2, &mut row2);
        debug_assert_eq!(
            row1[s2 as usize], row2[s1 as usize],
            "asymmetric pair entry"
        );

        // One cross-update sweep for both new columns.
        let mut dirty = std::mem::take(&mut self.scratch_dirty);
        dirty.clear();
        let mut cross = 0u64;
        for (other_slot, &owner) in self.slot_owner.iter().enumerate().take(cap) {
            if owner == NONE || owner == c || owner == c2 {
                continue;
            }
            cross += 1;
            let row = self.rows.base_mut(self.chunks.row[owner as usize]);
            let mut changed = false;
            if row[s1 as usize] != row1[other_slot] {
                row[s1 as usize] = row1[other_slot];
                changed = true;
            }
            if row[s2 as usize] != row2[other_slot] {
                row[s2 as usize] = row2[other_slot];
                changed = true;
            }
            if changed {
                dirty.push(owner);
            }
        }
        self.rows
            .base_mut(self.chunks.row[c as usize])
            .copy_from_slice(&row1);
        self.rows
            .base_mut(self.chunks.row[c2 as usize])
            .copy_from_slice(&row2);
        self.scratch_row = row1;
        self.scratch_row2 = row2;
        let occs =
            (self.chunks.occs[c as usize].len() + self.chunks.occs[c2 as usize].len()) as u64;
        self.charge(
            scanned + occs + cross + cap as u64,
            log2_ceil((scanned as usize).max(2)) + 1,
            (scanned + cross).max(1),
        );
        // Own-list path refresh for both changed rows, then targeted entry
        // refresh for the other lists whose rows changed.
        self.splay(c);
        self.splay(c2);
        self.refresh_entries_pair_for_chunks(&mut dirty, s1, s2);
        self.scratch_dirty = dirty;
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
        let mut dirty = std::mem::take(&mut self.scratch_dirty);
        dirty.clear();
        let mut work = 0u64;
        for other_slot in 0..self.slot_owner.len() {
            let owner = self.slot_owner[other_slot];
            if owner == NONE || owner == c {
                continue;
            }
            work += 1;
            let cell = &mut self.rows.base_mut(self.chunks.row[owner as usize])[s as usize];
            if *cell != WKey::PLUS_INF {
                *cell = WKey::PLUS_INF;
                dirty.push(owner);
            }
        }
        // Retire the slab into the bank's free list.
        self.rows.free(self.chunks.row[c as usize]);
        debug_assert!(
            self.rows.num_free() <= self.rows.num_slabs(),
            "free-slab accounting drifted"
        );
        self.chunks.slot[c as usize] = NONE;
        self.chunks.row[c as usize] = NONE;
        self.chunks.set_stale(c, false);
        self.slot_owner[s as usize] = NONE;
        self.slot_free.push(s);
        self.charge(work + 1, 1, work.max(1));
        self.refresh_entry_for_chunks(&mut dirty, s);
        self.scratch_dirty = dirty;
    }

    /// Recompute chunk `c`'s entire `CAdj` row by scanning the edges adjacent
    /// to it, propagate the symmetric entries into every other row, and
    /// refresh all aggregates (path refresh via splay + global entry
    /// refresh). This is the workhorse of Lemma 2.2 / 3.1.
    pub(crate) fn rebuild_row(&mut self, c: u32) {
        let s = self.chunks.slot[c as usize];
        if s == NONE {
            return;
        }
        let cap = self.slot_cap();
        let mut row = std::mem::take(&mut self.scratch_row);
        row.clear();
        row.resize(cap, WKey::PLUS_INF);
        let scanned = self.scan_row(c, &mut row);
        // Cross update: symmetric entries in every other row, remembering
        // which chunks actually changed (only their lists need an entry
        // refresh below).
        let mut dirty = std::mem::take(&mut self.scratch_dirty);
        dirty.clear();
        let mut cross = 0u64;
        for (other_slot, &owner) in self.slot_owner.iter().enumerate().take(cap) {
            if owner == NONE || owner == c {
                continue;
            }
            cross += 1;
            let cell = &mut self.rows.base_mut(self.chunks.row[owner as usize])[s as usize];
            if *cell != row[other_slot] {
                *cell = row[other_slot];
                dirty.push(owner);
            }
        }
        // Copy the fresh row into the slab; the scratch stays for next time.
        self.rows
            .base_mut(self.chunks.row[c as usize])
            .copy_from_slice(&row);
        self.scratch_row = row;
        // Sequential: O(K + J). EREW: tournament trees of depth O(log K) with
        // O(K) processors build the row, then O(1) rounds with O(J)
        // processors perform the cross update (Lemma 3.1).
        let occs = self.chunks.occs[c as usize].len() as u64;
        self.charge(
            scanned + occs + cross + cap as u64,
            log2_ceil((scanned as usize).max(2)) + 1,
            (scanned + cross).max(1),
        );
        // Path refresh in c's own list (first half of UpdateAdj) …
        self.splay(c);
        // … and entry refresh in the lists whose rows changed (second half
        // of UpdateAdj, restricted to where it has any effect).
        self.refresh_entry_for_chunks(&mut dirty, s);
        self.scratch_dirty = dirty;
    }

    /// Refresh entry `s` of the aggregate vectors above the given chunks,
    /// whose `base[s]` just changed (the per-entry trees `S_j` of Lemma 2.3
    /// / Section 3 — `O(1)` work per level). For a handful of dirty chunks
    /// this walks one leaf-to-root path each (overlapping paths converge
    /// because every walk recomputes from the *current* child aggregates);
    /// for many dirty chunks one bottom-up sweep per affected list is
    /// cheaper. `dirty` is consumed (left in an unspecified state for reuse
    /// as scratch).
    pub(crate) fn refresh_entry_for_chunks(&mut self, dirty: &mut Vec<u32>, s: u32) {
        if dirty.is_empty() {
            self.charge(1, 1, 1);
            return;
        }
        const PATH_REFRESH_MAX: usize = 8;
        if dirty.len() <= PATH_REFRESH_MAX {
            for &c in dirty.iter() {
                self.refresh_entry_path(c, s);
            }
            return;
        }
        for c in dirty.iter_mut() {
            *c = self.tree_root(*c);
        }
        dirty.sort_unstable();
        dirty.dedup();
        let mut visited = 0u64;
        for &root in dirty.iter() {
            visited += self.refresh_entry_subtree(root, s);
        }
        self.charge(
            visited.max(1),
            log2_ceil((visited as usize).max(2)) + 1,
            visited.max(1),
        );
    }

    /// Bottom-up recomputation of entry `s` in the subtree rooted at `c`,
    /// skipping stale chunks. Returns the number of chunks visited.
    fn refresh_entry_subtree(&mut self, c: u32, s: u32) -> u64 {
        // Explicit traversal: `order` ends up parent-before-children, so the
        // reverse iteration below recomputes children before parents.
        let mut order = std::mem::take(&mut self.scratch_order);
        order.clear();
        order.push(c);
        let mut next = 0usize;
        while next < order.len() {
            let node = order[next];
            next += 1;
            let (l, r) = (
                self.chunks.left[node as usize],
                self.chunks.right[node as usize],
            );
            if l != NONE {
                order.push(l);
            }
            if r != NONE {
                order.push(r);
            }
        }
        for &node in order.iter().rev() {
            let row = self.chunks.row[node as usize];
            if row == NONE || self.chunks.stale(node) {
                continue;
            }
            let mut agg = self.rows.base(row)[s as usize];
            for child in [
                self.chunks.left[node as usize],
                self.chunks.right[node as usize],
            ] {
                if child == NONE {
                    continue;
                }
                let ca = self.rows.agg(self.chunks.row[child as usize])[s as usize];
                if ca < agg {
                    agg = ca;
                }
            }
            self.rows.agg_mut(row)[s as usize] = agg;
        }
        let visited = order.len() as u64;
        self.scratch_order = order;
        visited
    }

    /// Dual-entry variant of [`Self::refresh_entry_for_chunks`], used by the
    /// batched split rebuild: each walk refreshes both entries at once.
    pub(crate) fn refresh_entries_pair_for_chunks(
        &mut self,
        dirty: &mut Vec<u32>,
        s1: u32,
        s2: u32,
    ) {
        if dirty.is_empty() {
            self.charge(1, 1, 1);
            return;
        }
        const PATH_REFRESH_MAX: usize = 8;
        if dirty.len() <= PATH_REFRESH_MAX {
            for &c in dirty.iter() {
                self.refresh_entry_pair_path(c, s1, s2);
            }
            return;
        }
        for c in dirty.iter_mut() {
            *c = self.tree_root(*c);
        }
        dirty.sort_unstable();
        dirty.dedup();
        let mut visited = 0u64;
        for &root in dirty.iter() {
            visited += self.refresh_entry_subtree(root, s1);
            visited += self.refresh_entry_subtree(root, s2);
        }
        self.charge(
            visited.max(1),
            log2_ceil((visited as usize).max(2)) + 1,
            visited.max(1),
        );
    }

    /// Leaf-to-root walk refreshing two entries at once (one traversal, two
    /// `O(1)` recomputations per level), up to the first stale chunk.
    fn refresh_entry_pair_path(&mut self, c: u32, s1: u32, s2: u32) {
        let mut node = c;
        let mut steps = 0u64;
        while !self.chunks.stale(node) {
            steps += 1;
            let row = self.chunks.row[node as usize];
            let base = self.rows.base(row);
            let mut a1 = base[s1 as usize];
            let mut a2 = base[s2 as usize];
            for child in [
                self.chunks.left[node as usize],
                self.chunks.right[node as usize],
            ] {
                if child == NONE {
                    continue;
                }
                let cagg = self.rows.agg(self.chunks.row[child as usize]);
                if cagg[s1 as usize] < a1 {
                    a1 = cagg[s1 as usize];
                }
                if cagg[s2 as usize] < a2 {
                    a2 = cagg[s2 as usize];
                }
            }
            let parent = self.chunks.parent[node as usize];
            let agg = self.rows.agg_mut(row);
            agg[s1 as usize] = a1;
            agg[s2 as usize] = a2;
            if parent == NONE {
                break;
            }
            node = parent;
        }
        self.charge(
            steps.max(1),
            log2_ceil((steps as usize).max(2)) + 1,
            steps.max(1),
        );
    }

    /// Recompute entry `s` of the aggregates on the leaf-to-root path of
    /// chunk `c` (the paper's `UpdateAdj` path refresh for a *single*
    /// changed `CAdj` entry, Lemma 2.3): `O(1)` work per level instead of
    /// the full `O(J)`-vector pull-up a structural splay performs. The walk
    /// ends at the first stale chunk: it and every chunk above it are
    /// recomputed in full later. Membership is untouched — `Memb` only
    /// changes when ids move.
    pub(crate) fn refresh_entry_path(&mut self, c: u32, s: u32) {
        let mut node = c;
        let mut steps = 0u64;
        while !self.chunks.stale(node) {
            steps += 1;
            let row = self.chunks.row[node as usize];
            let mut agg = self.rows.base(row)[s as usize];
            for child in [
                self.chunks.left[node as usize],
                self.chunks.right[node as usize],
            ] {
                if child == NONE {
                    continue;
                }
                let ca = self.rows.agg(self.chunks.row[child as usize])[s as usize];
                if ca < agg {
                    agg = ca;
                }
            }
            let parent = self.chunks.parent[node as usize];
            self.rows.agg_mut(row)[s as usize] = agg;
            if parent == NONE {
                break;
            }
            node = parent;
        }
        // One processor per level in the per-entry tree S_j (Lemma 3.2).
        self.charge(
            steps.max(1),
            log2_ceil((steps as usize).max(2)) + 1,
            steps.max(1),
        );
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
            let cell = &mut self.rows.base_mut(self.chunks.row[c1 as usize])[s2 as usize];
            if key < *cell {
                *cell = key;
                touched1 = true;
            }
        }
        let mut touched2 = false;
        {
            let cell = &mut self.rows.base_mut(self.chunks.row[c2 as usize])[s1 as usize];
            if key < *cell {
                *cell = key;
                touched2 = true;
            }
        }
        self.charge(2, 1, 2);
        if touched1 {
            self.refresh_entry_path(c1, s2);
        }
        if touched2 && c2 != c1 {
            self.refresh_entry_path(c2, s1);
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
        if self.rows.base(self.chunks.row[c1 as usize])[s2 as usize] != key {
            self.charge(1, 1, 1);
            return;
        }
        let mut best = WKey::PLUS_INF;
        let mut scanned = 0u64;
        for &o in &self.chunks.occs[c1 as usize] {
            if !self.chunks.occ_principal(o) {
                continue;
            }
            let v = self.chunks.occ_vert(o);
            let adj = &self.adj[v.index()];
            scanned += adj.len() as u64;
            for &a in adj {
                let (k, other) = (a.key(), a.other);
                if k < best && self.vertex_chunk[other.index()] == c2 {
                    best = k;
                }
            }
        }
        self.rows.base_mut(self.chunks.row[c1 as usize])[s2 as usize] = best;
        self.rows.base_mut(self.chunks.row[c2 as usize])[s1 as usize] = best;
        self.charge(
            scanned + 2,
            log2_ceil((scanned as usize).max(2)) + 1,
            scanned.max(1),
        );
        self.refresh_entry_path(c1, s2);
        if c2 != c1 {
            self.refresh_entry_path(c2, s1);
        }
    }
}
