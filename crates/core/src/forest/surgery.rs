//! Occurrence-level and list-level surgical operations (Lemma 2.1), chunk
//! splitting / merging (Lemma 2.2 / 3.1), principal-copy management and the
//! Invariant-1 rebalancing loop.
//!
//! Euler tours are kept as *cyclic* sequences of vertex occurrences stored in
//! linear chunked lists: consecutive occurrences (and the wrap-around pair)
//! are the arcs of the tour. For every forest edge `{u, v}` the structure
//! remembers the two arc *tails*: the occurrence of `u` immediately followed
//! by an occurrence of `v` and vice versa. Linking and cutting a forest edge
//! then reduces to `O(1)` list splits / joins plus `O(1)` occurrence
//! insertions / deletions, exactly as Lemma 2.1 prescribes.
//!
//! Occurrences carry order labels (see the `arena` module), so an in-chunk
//! insertion or deletion touches no other occurrence's record unless a full
//! gap forces the chunk's relabelling; the meter still charges the `O(K)`
//! shift of the chunk's list.
//!
//! A list split inside a chunk is a chunk split, whose two `CAdj` rows are
//! rebuilt by an `O(K)` edge scan, and rebalancing often merges the pieces
//! straight back. Two fast paths, chosen by the structure's state alone,
//! keep the tour surgery inside one chunk when it can:
//!
//! * **Splice (link).** When either endpoint's tour is a single-chunk list,
//!   that tour is rotated to start at the endpoint's principal copy,
//!   followed by the closing occurrences, and moved into the other
//!   endpoint's chunk right after its principal copy; the emptied chunk is
//!   freed. The moved list had no id, so its edges were in no row and can
//!   only lower minima: the host row and the symmetric entries are lowered
//!   by them and only the changed entries are refreshed.
//! * **Extraction (cut).** When both arc tails lie in one chunk, the run
//!   between them is one whole side of the cut; it moves into a new
//!   slotless single-chunk list. The host row is rebuilt only if a moved
//!   edge held one of its pair minima.
//!
//! Links of two multi-chunk tours and cuts whose tails lie in different
//! chunks take the general path: list splits at the arc tails (chunk
//! splits included) and joins. Every path ends in the same Invariant-1
//! fix-up, so the worst-case bounds are those of the general path.

use super::{log_depth, ChunkedEulerForest, EdgeRec, NONE};
use pdmsf_graph::{Edge, VertexId};
use std::ops::Range;

#[cfg(test)]
use super::events::{count, Event};

impl ChunkedEulerForest {
    // ------------------------------------------------------------------
    // Occurrence-level helpers
    // ------------------------------------------------------------------

    /// The occurrence immediately preceding `o` in its (linear) list.
    pub(crate) fn pred_occ(&self, o: u32) -> Option<u32> {
        let (c, pos) = (self.chunks.occ_chunk[o as usize], self.chunks.occ_index(o));
        if pos > 0 {
            return Some(self.chunks.occs[c as usize][pos - 1]);
        }
        let prev = self.prev_chunk(c)?;
        self.chunks.occs[prev as usize].last().copied()
    }

    /// The occurrence immediately following `o` in its (linear) list.
    pub(crate) fn succ_occ(&self, o: u32) -> Option<u32> {
        let (c, pos) = (self.chunks.occ_chunk[o as usize], self.chunks.occ_index(o));
        let chunk_occs = &self.chunks.occs[c as usize];
        if pos + 1 < chunk_occs.len() {
            return Some(chunk_occs[pos + 1]);
        }
        let next = self.next_chunk(c)?;
        self.chunks.occs[next as usize].first().copied()
    }

    /// First occurrence of the list rooted at `root`.
    pub(crate) fn first_occ_of_list(&self, root: u32) -> u32 {
        let c = self.first_chunk(root);
        *self.chunks.occs[c as usize]
            .first()
            .expect("chunks are never empty")
    }

    /// Last occurrence of the list rooted at `root`.
    pub(crate) fn last_occ_of_list(&self, root: u32) -> u32 {
        let c = self.last_chunk(root);
        *self.chunks.occs[c as usize]
            .last()
            .expect("chunks are never empty")
    }

    /// The cyclic successor of `o` (wraps to the first occurrence).
    pub(crate) fn cyclic_succ(&self, o: u32) -> u32 {
        match self.succ_occ(o) {
            Some(s) => s,
            None => {
                let root = self.tree_root(self.chunks.occ_chunk[o as usize]);
                self.first_occ_of_list(root)
            }
        }
    }

    /// Whether the list containing occurrence `o` consists of exactly one
    /// occurrence (its vertex has no tree edge).
    pub(crate) fn occ_list_is_singleton(&self, o: u32) -> bool {
        let c = self.chunks.occ_chunk[o as usize];
        self.chunks.occs[c as usize].len() == 1 && self.list_is_single_chunk(c)
    }

    /// Insert a fresh (non-principal) occurrence of `v` immediately after
    /// occurrence `after` and return it. The new occurrence is labelled
    /// between its neighbours, so no other occurrence is touched unless the
    /// gap is full and the chunk is relabelled; the charge is the `O(K)`
    /// shift of the chunk's list.
    pub(crate) fn insert_occ_after(&mut self, after: u32, v: VertexId) -> u32 {
        let o = self.alloc_occ(v);
        let c = self.chunks.occ_chunk[after as usize];
        let pos = self.chunks.occ_index(after) + 1;
        self.chunks.insert_occ(c, pos, o);
        let len = self.chunks.occs[c as usize].len();
        self.touch(c);
        self.charge((len - pos) as u64 + 1, 1, (len - pos) as u64 + 1);
        o
    }

    /// Remove an occurrence that is neither a principal copy nor the tail of
    /// any live arc. No label changes; the charge is the `O(K)` shift of the
    /// chunk's list.
    pub(crate) fn delete_occ(&mut self, o: u32) {
        debug_assert!(
            self.chunks.occ_arc(o).is_none(),
            "occurrence still carries an arc"
        );
        let v = self.chunks.occ_vert(o);
        debug_assert_ne!(
            self.principal[v.index()],
            o,
            "cannot delete a principal copy; re-designate first"
        );
        let c = self.chunks.occ_chunk[o as usize];
        let pos = self.chunks.occ_index(o);
        self.chunks.occs[c as usize].remove(pos);
        let len = self.chunks.occs[c as usize].len();
        self.free_occ(o);
        self.charge((len - pos) as u64 + 1, 1, (len - pos) as u64 + 1);
        if len == 0 {
            // The chunk became empty: retire it and, if its list shrank to a
            // single chunk, retire that chunk's id as well (Section 6).
            let rest = self.tree_remove(c);
            self.drop_slot(c);
            self.chunks.free(c);
            if rest != NONE && self.chunks.size[rest as usize] == 1 {
                self.drop_slot(rest);
                self.touch(rest);
            }
        } else {
            self.touch(c);
        }
    }

    /// Move the principal copy of `v` to `new_occ` (an existing occurrence of
    /// `v`), updating the adjacency counts and `CAdj` rows of the chunks
    /// involved.
    pub(crate) fn set_principal(&mut self, v: VertexId, new_occ: u32) {
        let old = self.principal[v.index()];
        if old == new_occ {
            return;
        }
        debug_assert_eq!(self.chunks.occ_vert(new_occ), v);
        self.principal[v.index()] = new_occ;
        self.chunks.set_occ_principal(old, false);
        self.chunks.set_occ_principal(new_occ, true);
        let c_old = self.chunks.occ_chunk[old as usize];
        let c_new = self.chunks.occ_chunk[new_occ as usize];
        self.vertex_chunk[v.index()] = c_new;
        if c_old == c_new {
            return;
        }
        let deg = self.degree(v);
        self.chunks.adj_count[c_old as usize] -= deg;
        self.chunks.adj_count[c_new as usize] += deg;
        // Two single rebuilds, not a pair: a pair charges its two scans as
        // one.
        self.rebuild_rows(&[c_old]);
        self.rebuild_rows(&[c_new]);
        self.touch(c_old);
        self.touch(c_new);
    }

    // ------------------------------------------------------------------
    // Chunk split / merge (Lemma 2.2, parallelised in Lemma 3.1)
    // ------------------------------------------------------------------

    /// Split chunk `c` after in-chunk position `p` (`0 <= p < len-1`). The
    /// new chunk holding the tail is inserted immediately after `c` in the
    /// list and both chunks' rows are rebuilt. Returns the new chunk.
    pub(crate) fn split_chunk_after(&mut self, c: u32, p: usize) -> u32 {
        let len = self.chunks.occs[c as usize].len();
        debug_assert!(
            p + 1 < len,
            "split position must leave both sides non-empty"
        );
        let tail: Vec<u32> = self.chunks.occs[c as usize].split_off(p + 1);
        let c2 = self.chunks.alloc();
        let tail_len = tail.len();
        self.chunks.occs[c2 as usize] = tail;
        let adj = &self.adj;
        let moved_adj = self
            .chunks
            .rechunk_occs(c2, 0..tail_len, &mut self.vertex_chunk, |v| {
                adj.len(v as usize) as u32
            });
        self.chunks.adj_count[c2 as usize] = moved_adj;
        self.chunks.adj_count[c as usize] -= moved_adj;
        self.charge(len as u64, log_depth(len), len as u64);
        // After the split the list has at least two chunks, so both carry
        // ids; rebuild both rows in one batched pass.
        if self.chunks.slot[c as usize] == NONE {
            self.attach_slot(c);
        }
        self.attach_slot(c2);
        self.tree_insert_after(c, c2);
        self.rebuild_rows(&[c, c2]);
        self.touch(c);
        self.touch(c2);
        c2
    }

    /// Merge the next chunk of `c` into `c`. The caller guarantees a next
    /// chunk exists. Afterwards `c` holds both occurrence runs; the absorbed
    /// chunk is freed.
    ///
    /// Following the merge case of Lemma 2.2 / 3.1, `c`'s `CAdj` row becomes
    /// the **entry-wise minimum** of the two rows (an `O(J)` vector
    /// operation, parallelised to `O(1)` depth with `O(J)` processors) — no
    /// `O(K)` edge rescan.
    pub(crate) fn merge_with_next(&mut self, c: u32) {
        let nxt = self
            .next_chunk(c)
            .expect("merge_with_next requires a successor");
        let moved: Vec<u32> = std::mem::take(&mut self.chunks.occs[nxt as usize]);
        let offset = self.chunks.occs[c as usize].len();
        let moved_len = moved.len();
        self.chunks.occs[c as usize].extend(moved);
        let adj = &self.adj;
        let moved_adj =
            self.chunks
                .rechunk_occs(c, offset..offset + moved_len, &mut self.vertex_chunk, |v| {
                    adj.len(v as usize) as u32
                });
        debug_assert_eq!(moved_adj, self.chunks.adj_count[nxt as usize]);
        self.chunks.adj_count[c as usize] += moved_adj;
        self.charge(
            moved_len as u64 + 1,
            log_depth(moved_len),
            moved_len as u64 + 1,
        );
        let merged_rows = if self.list_is_single_chunk_without(c, nxt) {
            // `c` ends up alone: both ids retire, no row survives.
            false
        } else {
            self.merge_rows_into(c, nxt);
            true
        };
        // Detach the absorbed chunk from the list, retire its id, free it.
        self.tree_remove(nxt);
        self.drop_slot(nxt);
        self.chunks.free(nxt);
        if !merged_rows {
            self.drop_slot(c);
        } else {
            // Propagate the changed row through `c`'s own list (path
            // refresh, as after any full-row change).
            self.splay(c);
        }
        self.touch(c);
    }

    /// Whether the list containing `c` would consist of `c` alone once
    /// `other` is removed.
    fn list_is_single_chunk_without(&self, c: u32, other: u32) -> bool {
        debug_assert_ne!(c, other);
        let root = self.tree_root(c);
        self.chunks.size[root as usize] == 2
    }

    /// The entry-wise row merge of Lemma 2.2 / 3.1: fold `nxt`'s `CAdj` row
    /// into `c`'s (edges between the two chunks become self-edges of the
    /// merged chunk), update the symmetric entries of every other row and
    /// refresh the affected `S_{s_c}` aggregates. `O(J)` work, `O(1)` depth
    /// with `O(J)` processors.
    fn merge_rows_into(&mut self, c: u32, nxt: u32) {
        let s_c = self.chunks.slot[c as usize];
        let s_nxt = self.chunks.slot[nxt as usize];
        debug_assert!(s_c != NONE && s_nxt != NONE, "multi-chunk list without ids");
        let (i_c, i_nxt) = (s_c as usize, s_nxt as usize);
        let cap = self.slot_cap();

        // Self-entry: edges between c and nxt (either direction) and nxt's
        // own self-edges all become self-edges of the merged chunk.
        let mut self_entry = self.rows.base(s_c)[i_c];
        for key in [
            self.rows.base(s_c)[i_nxt],
            self.rows.base(s_nxt)[i_c],
            self.rows.base(s_nxt)[i_nxt],
        ] {
            if key < self_entry {
                self_entry = key;
            }
        }
        self.rows.base_mut(s_c)[i_c] = self_entry;

        // Entry-wise minimum of the remaining entries (the folded self-entry
        // already is the minimum of its column, so a plain entry-wise min is
        // equivalent). The two rows are disjoint bank slabs.
        {
            let (dst, src) = self.rows.base_pair(s_c, s_nxt);
            for (d, s) in dst.iter_mut().zip(src) {
                if *s < *d {
                    *d = *s;
                }
            }
        }
        // Column s_nxt of the merged row dies with the absorbed id (the
        // upcoming drop_slot clears it everywhere, including here).

        // Cross update: every other chunk's entry for the merged chunk is
        // the minimum of its entries for the two old chunks.
        let (cross, dirty) = self.sweep_other_rows(&[c, nxt], |row, _| {
            let lowered = row[i_nxt] < row[i_c];
            if lowered {
                row[i_c] = row[i_nxt];
            }
            lowered
        });
        self.charge(cap as u64 + cross, 1, (cap as u64 + cross).max(1));
        self.refresh_entries_for_chunks(dirty, &[s_c]);
    }

    // ------------------------------------------------------------------
    // List-level surgical operations
    // ------------------------------------------------------------------

    /// Split the list containing `o` immediately after occurrence `o`.
    /// Returns the roots of the two resulting lists (`right` may be `NONE`).
    pub(crate) fn list_split_after_occ(&mut self, o: u32) -> (u32, u32) {
        let c = self.chunks.occ_chunk[o as usize];
        let pos = self.chunks.occ_index(o);
        let split_chunk = if pos + 1 < self.chunks.occs[c as usize].len() {
            // The split point is inside the chunk: split the chunk first.
            self.split_chunk_after(c, pos);
            c
        } else {
            c
        };
        let (l, r) = self.tree_split_after(split_chunk);
        for side in [l, r] {
            if side != NONE && self.chunks.size[side as usize] == 1 {
                self.drop_slot(side);
                self.touch(side);
            }
        }
        (l, r)
    }

    /// Concatenate two lists (either root may be `NONE`). Single-chunk sides
    /// are given ids first so that every chunk of a multi-chunk list carries
    /// an id. Returns the root of the concatenation.
    pub(crate) fn list_join(&mut self, a: u32, b: u32) -> u32 {
        if a == NONE {
            return b;
        }
        if b == NONE {
            return a;
        }
        if self.chunks.size[a as usize] == 1 && self.chunks.slot[a as usize] == NONE {
            self.give_slot(a);
        }
        if self.chunks.size[b as usize] == 1 && self.chunks.slot[b as usize] == NONE {
            self.give_slot(b);
        }
        self.tree_join(a, b)
    }

    // ------------------------------------------------------------------
    // Euler-tour link / cut (the forest-edge surgical operations)
    // ------------------------------------------------------------------

    /// Make `e` a forest edge: merge the Euler tours of its endpoints'
    /// trees. The endpoints must currently be in different trees and `e`
    /// must already be a (live) graph edge. A single-chunk tour is spliced
    /// into the other endpoint's chunk; two multi-chunk tours take the
    /// general split/join path.
    pub(crate) fn link_tree_edge(&mut self, e: Edge) {
        let a = self.principal[e.u.index()];
        let b = self.principal[e.v.index()];
        debug_assert_ne!(
            self.tree_root(self.chunks.occ_chunk[a as usize]),
            self.tree_root(self.chunks.occ_chunk[b as usize]),
            "link endpoints must be in different trees"
        );
        let h = self
            .edges
            .handle_of(e.id)
            .expect("edge must be registered before linking");
        // `host` keeps its place; the tour of `guest` follows it.
        let single = |o: u32| self.list_is_single_chunk(self.chunks.occ_chunk[o as usize]);
        let (host, guest, host_is_u, splice) = if single(b) {
            (a, b, true, true)
        } else if single(a) {
            (b, a, false, true)
        } else {
            (a, b, true, false)
        };
        let (host_new, closing) = if splice {
            #[cfg(test)]
            count(Event::Splice);
            self.splice_tour(host, guest)
        } else {
            #[cfg(test)]
            count(Event::GeneralLink);
            self.link_tours(host, guest)
        };
        self.set_link_arcs(h, host, host_new, closing, host_is_u);
        self.charge(4, 2, 2);
        self.flush_rebalance();
    }

    /// Link fast path: the tour of `guest` is a single-chunk list (so it has
    /// no id and no row). Rotate it to start at `guest`, append the closing
    /// occurrences, move the run into `host`'s chunk right after `host`, and
    /// free the emptied chunk. Returns the new occurrence of `host`'s vertex
    /// (none if `host` was its tour's only occurrence) and the occurrence
    /// that closes the tour of `guest`.
    fn splice_tour(&mut self, host: u32, guest: u32) -> (Option<u32>, u32) {
        let hc = self.chunks.occ_chunk[host as usize];
        let gc = self.chunks.occ_chunk[guest as usize];
        debug_assert_eq!(
            self.chunks.slot[gc as usize], NONE,
            "single-chunk list with an id"
        );
        let host_single = self.occ_list_is_singleton(host);
        // The guest's index is read off its chunk's labels, so before the
        // chunk's list is taken.
        let guest_at = self.chunks.occ_index(guest);
        let mut run = std::mem::take(&mut self.chunks.occs[gc as usize]);
        let guest_single = run.len() == 1;
        run.rotate_left(guest_at);
        let guest_new = (!guest_single).then(|| self.alloc_occ(self.chunks.occ_vert(guest)));
        let host_new = (!host_single).then(|| self.alloc_occ(self.chunks.occ_vert(host)));
        run.extend(guest_new.into_iter().chain(host_new));
        let at = self.chunks.occ_index(host) + 1;
        let moved = at..at + run.len();
        // The guest's vector is dropped rather than left to its freed id,
        // so a freed id keeps no capacity.
        self.chunks.occs[hc as usize].splice(at..at, run);
        let adj = &self.adj;
        let moved_adj = self
            .chunks
            .rechunk_occs(hc, moved.clone(), &mut self.vertex_chunk, |v| {
                adj.len(v as usize) as u32
            });
        debug_assert_eq!(moved_adj, self.chunks.adj_count[gc as usize]);
        self.chunks.adj_count[hc as usize] += moved_adj;
        self.chunks.free(gc);
        let len = self.chunks.occs[hc as usize].len();
        self.charge(len as u64, log_depth(len), len as u64);
        if self.chunks.slot[hc as usize] != NONE {
            self.lower_row_by_arrivals(hc, moved);
        }
        self.touch(hc);
        (host_new, guest_new.unwrap_or(guest))
    }

    /// General link path: rotate the tour of `b` to start at `b`, append the
    /// closing occurrences, and splice it into the tour of `a` right after
    /// `a` with list splits and joins. Returns the new occurrence of `a`'s
    /// vertex (if any) and the occurrence that closes the tour of `b`.
    fn link_tours(&mut self, a: u32, b: u32) -> (Option<u32>, u32) {
        let (u, v) = (self.chunks.occ_vert(a), self.chunks.occ_vert(b));
        let a_single = self.occ_list_is_singleton(a);
        let b_single = self.occ_list_is_singleton(b);

        // Rotate v's tour so that it starts at the principal copy of v.
        let root_b = self.tree_root(self.chunks.occ_chunk[b as usize]);
        let rotated_b = match self.pred_occ(b) {
            None => root_b,
            Some(pred) => {
                let (left, right) = self.list_split_after_occ(pred);
                self.list_join(right, left)
            }
        };

        // Append the occurrences that close the two new arcs.
        let last_b = self.last_occ_of_list(rotated_b);
        let mut after = last_b;
        let v_new = if !b_single {
            let o = self.insert_occ_after(last_b, v);
            after = o;
            Some(o)
        } else {
            None
        };
        let u_new = if !a_single {
            Some(self.insert_occ_after(after, u))
        } else {
            None
        };

        // Splice the rotated tour of v's tree into u's tour right after `a`.
        let (a1, a2) = self.list_split_after_occ(a);
        let mid_root = self.tree_root(self.chunks.occ_chunk[b as usize]);
        let joined = self.list_join(a1, mid_root);
        self.list_join(joined, a2);
        (u_new, v_new.unwrap_or(b))
    }

    /// Arc bookkeeping of a link whose tour now reads `host`, the guest
    /// tour, `closing`, `host_new`, then whatever followed `host`: the arc
    /// `host` carried moves to `host_new`, and edge `h`'s two arcs start at
    /// `host` and `closing`. `host` is an occurrence of the edge's `u` iff
    /// `host_is_u` (then `host -> guest` is the forward arc). Arc tails live
    /// inside the edge records.
    fn set_link_arcs(
        &mut self,
        h: u32,
        host: u32,
        host_new: Option<u32>,
        closing: u32,
        host_is_u: bool,
    ) {
        if let Some(hn) = host_new {
            let old_arc = self
                .chunks
                .occ_arc(host)
                .expect("non-singleton tours have an arc at every occurrence tail");
            self.chunks.set_occ_arc(hn, Some(old_arc));
            let entry = self.edges.get_mut(old_arc.0);
            debug_assert_ne!(entry.fwd, NONE, "transferred arc must be registered");
            if old_arc.1 {
                entry.fwd = hn;
            } else {
                entry.bwd = hn;
            }
        }
        self.chunks.set_occ_arc(host, Some((h, host_is_u)));
        self.chunks.set_occ_arc(closing, Some((h, !host_is_u)));
        let rec = self.edges.get_mut(h);
        (rec.fwd, rec.bwd) = if host_is_u {
            (host, closing)
        } else {
            (closing, host)
        };
    }

    /// Remove forest edge `e` (still registered as a graph edge, i.e. the
    /// insertion-swap path) from the Euler tours. Returns the list roots
    /// `(root_u, root_v)` of the sides containing `e.u` and `e.v`.
    pub(crate) fn cut_tree_edge(&mut self, e: Edge) -> (u32, u32) {
        let h = self
            .edges
            .handle_of(e.id)
            .unwrap_or_else(|| panic!("{:?} is not a registered edge", e.id));
        let rec = self.edges.get_mut(h);
        let (x, y) = (rec.fwd, rec.bwd);
        assert_ne!(x, NONE, "{:?} is not a forest edge", e.id);
        rec.fwd = NONE;
        rec.bwd = NONE;
        self.cut_tour(e, x, y)
    }

    /// Remove a forest edge whose record was already unregistered by
    /// [`ChunkedEulerForest::delete_graph_edge`] (the deletion path): the arc
    /// tails travel in the removed record.
    pub(crate) fn cut_removed_tree_edge(&mut self, rec: EdgeRec) -> (u32, u32) {
        debug_assert_ne!(rec.fwd, NONE, "{:?} was not a forest edge", rec.edge.id);
        self.cut_tour(rec.edge, rec.fwd, rec.bwd)
    }

    /// Shared tour surgery for both cut paths: split the cyclic tour at arc
    /// tails `x` (of `e.u -> e.v`) and `y` (of `e.v -> e.u`), returning the
    /// roots of the two resulting lists. The side of `v` is the cyclic
    /// interval `(x, y]`, the side of `u` is `(y, x]`.
    fn cut_tour(&mut self, e: Edge, x: u32, y: u32) -> (u32, u32) {
        debug_assert_eq!(self.chunks.occ_vert(x), e.u);
        debug_assert_eq!(self.chunks.occ_vert(y), e.v);
        debug_assert_eq!(self.chunks.occ_arc(x).map(|(_, d)| d), Some(true));
        debug_assert_eq!(self.chunks.occ_arc(y).map(|(_, d)| d), Some(false));
        self.chunks.set_occ_arc(x, None);
        self.chunks.set_occ_arc(y, None);

        let (c, cy) = (
            self.chunks.occ_chunk[x as usize],
            self.chunks.occ_chunk[y as usize],
        );
        if c == cy {
            // Both tails in one chunk: the run after the first up to the
            // second is a whole side, and it never wraps.
            #[cfg(test)]
            count(Event::Extraction);
            let (px, py) = (self.chunks.occ_index(x), self.chunks.occ_index(y));
            let (lo, hi) = (px.min(py), px.max(py));
            self.extract_side(c, lo + 1..hi + 1);
        } else {
            #[cfg(test)]
            count(Event::GeneralCut);
            // The tails lie in different chunks, so chunk ranks order them.
            if self.chunk_rank(c) < self.chunk_rank(cy) {
                let (p1, rest) = self.list_split_after_occ(x);
                debug_assert_ne!(rest, NONE);
                let (_p2, p3) = self.list_split_after_occ(y);
                // v-side = p2 (succ(x) ..= y); u-side = p3 ++ p1 (cyclic wrap).
                self.list_join(p3, p1);
            } else {
                let (q1, rest) = self.list_split_after_occ(y);
                debug_assert_ne!(rest, NONE);
                let (_q2, q3) = self.list_split_after_occ(x);
                // u-side = q2 (succ(y) ..= x); v-side = q3 ++ q1 (cyclic wrap).
                self.list_join(q3, q1);
            }
        }

        // Each endpoint loses one occurrence unless it became (or stays) the
        // only occurrence of its tour.
        self.remove_redundant_occurrence(x, e.u);
        self.remove_redundant_occurrence(y, e.v);
        self.charge(4, 2, 2);
        self.flush_rebalance();

        let root_u = self.tree_root(self.vertex_chunk[e.u.index()]);
        let root_v = self.tree_root(self.vertex_chunk[e.v.index()]);
        (root_u, root_v)
    }

    /// Cut fast path: move the occurrences at `side` of chunk `c` (one whole
    /// side of the cut) into a new slotless single-chunk list. `c` stays in
    /// its list, whose chunk order does not change; its row is rebuilt only
    /// if a moved edge held one of its pair minima.
    fn extract_side(&mut self, c: u32, side: Range<usize>) {
        let rebuild =
            self.chunks.slot[c as usize] != NONE && self.run_holds_a_minimum(c, side.clone());
        let len = self.chunks.occs[c as usize].len();
        let nc = self.chunks.alloc();
        let mut moved = std::mem::take(&mut self.chunks.occs[nc as usize]);
        moved.extend(self.chunks.occs[c as usize].drain(side.clone()));
        self.chunks.occs[nc as usize] = moved;
        let adj = &self.adj;
        let moved_adj = self
            .chunks
            .rechunk_occs(nc, 0..side.len(), &mut self.vertex_chunk, |v| {
                adj.len(v as usize) as u32
            });
        self.chunks.adj_count[nc as usize] = moved_adj;
        self.chunks.adj_count[c as usize] -= moved_adj;
        self.charge(len as u64, log_depth(len), len as u64);
        if rebuild {
            self.rebuild_rows(&[c]);
        }
        self.touch(c);
        self.touch(nc);
    }

    /// After a cut, occurrence `o` of vertex `v` is redundant (its arc was
    /// removed) unless it is the vertex's only occurrence. Re-designate the
    /// principal copy if necessary — to an occurrence in the same chunk when
    /// there is one, which moves no adjacency between rows — then delete it.
    fn remove_redundant_occurrence(&mut self, o: u32, v: VertexId) {
        if self.vertex_occs.len(v.index()) < 2 {
            return;
        }
        if self.chunks.occ_principal(o) {
            let c = self.chunks.occ_chunk[o as usize];
            let others = self
                .vertex_occs
                .list(v.index())
                .iter()
                .copied()
                .filter(|&other| other != o);
            let replacement = others
                .clone()
                .find(|&other| self.chunks.occ_chunk[other as usize] == c)
                .or_else(|| others.clone().next())
                .expect("vertex has another occurrence");
            self.set_principal(v, replacement);
        }
        self.delete_occ(o);
    }

    // ------------------------------------------------------------------
    // Invariant 1 maintenance
    // ------------------------------------------------------------------

    /// Restore Invariant 1 for every chunk touched by the current operation.
    /// `touched` is a plain stack; the `queued` flag on each chunk keeps
    /// entries unique and lets freed chunks leave stale entries behind.
    ///
    /// A chunk that shrank may let an undersized neighbour merge, one the
    /// chunk's old size kept apart, so every rebalanced chunk queues its
    /// undersized neighbours too. The loop ends: an undersized chunk that
    /// cannot merge queues nothing (both its neighbours exceed `2K`), and
    /// every other such touch ends in a merge.
    pub(crate) fn flush_rebalance(&mut self) {
        while let Some(c) = self.touched.pop() {
            if !self.chunks.queued(c) {
                continue; // stale entry: freed (or already processed)
            }
            self.chunks.set_queued(c, false);
            let c = self.rebalance(c);
            if c == NONE {
                continue;
            }
            for nb in [self.prev_chunk(c), self.next_chunk(c)]
                .into_iter()
                .flatten()
            {
                if self.chunks.nc(nb) < self.k {
                    self.touch(nb);
                }
            }
        }
    }

    /// Split an oversized chunk `c` or merge an undersized one with a
    /// neighbour, and fix its id for its list's new length. Returns the
    /// chunk that ends up holding `c`'s occurrences (`NONE` if `c` is dead).
    fn rebalance(&mut self, mut c: u32) -> u32 {
        loop {
            if !self.chunks.alive(c) {
                return NONE;
            }
            let nc = self.chunks.nc(c);
            let single = self.list_is_single_chunk(c);
            if nc > 3 * self.k && self.chunks.occs[c as usize].len() >= 2 {
                // Split roughly in half by n_c contribution.
                if let Some(p) = self.balanced_split_position(c) {
                    let c2 = self.split_chunk_after(c, p);
                    self.touch(c2);
                    continue;
                }
                // A single occurrence dominates n_c (a high-degree
                // principal copy); nothing further to do.
                break;
            } else if !single && nc < self.k {
                // Merge with a neighbour, but never create a chunk that
                // immediately violates the upper bound again (possible when a
                // single high-degree principal dominates `n_c`) — that would
                // make the split/merge loop cycle.
                let next_ok = self
                    .next_chunk(c)
                    .map(|nx| nc + self.chunks.nc(nx) <= 3 * self.k);
                let prev_ok = self
                    .prev_chunk(c)
                    .map(|pv| nc + self.chunks.nc(pv) <= 3 * self.k);
                if next_ok == Some(true) {
                    self.merge_with_next(c);
                    continue;
                }
                if prev_ok == Some(true) {
                    let prev = self.prev_chunk(c).expect("checked above");
                    self.merge_with_next(prev);
                    c = prev;
                    continue;
                }
                break;
            } else if single && self.chunks.slot[c as usize] != NONE {
                self.drop_slot(c);
                break;
            } else if !single && self.chunks.slot[c as usize] == NONE {
                self.give_slot(c);
                break;
            } else {
                break;
            }
        }
        c
    }

    /// Find a split position that balances `n_c` between the two halves, or
    /// `None` if no valid position exists.
    fn balanced_split_position(&self, c: u32) -> Option<usize> {
        let occs = &self.chunks.occs[c as usize];
        let total = self.chunks.nc(c);
        let mut acc = 0usize;
        let mut best: Option<usize> = None;
        for (i, &o) in occs.iter().enumerate() {
            acc += 1;
            if self.chunks.occ_principal(o) {
                acc += self.degree(self.chunks.occ_vert(o)) as usize;
            }
            if i + 1 < occs.len() {
                best = Some(i);
                if acc * 2 >= total {
                    return Some(i);
                }
            }
        }
        best
    }
}
