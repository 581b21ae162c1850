//! The list sum data structure (LSDS): a splay-based sequence tree over the
//! chunks of each Euler-tour list.
//!
//! The paper implements the LSDS as a 2-3 tree with worst-case `O(log J)`
//! structural operations; we use a splay tree keyed by list position, which
//! supports the same operation set (insert / delete / split / join /
//! leaf-to-root refresh) with amortised `O(log J)` structural cost. Every
//! touched node needs its `O(J)`-sized aggregate recomputed, exactly as in
//! Lemma 2.3, so the per-operation aggregate cost is `O(J log J)`
//! amortised. The aggregate is the entry-wise minimum of the subtree's
//! `CAdj` rows. The paper's second aggregate, the bits of which chunk ids
//! a list holds, is not kept: its one reader, the `γ` search, marks one
//! list's chunk ids itself (see [`super::mwr`]).
//!
//! An update touches the same few chunks many times (rotations, joins,
//! splits, row rebuilds), so aggregates are recomputed **once per update**:
//! [`ChunkedEulerForest::pull_up`] fixes `size` at once but only marks a
//! slotted chunk *stale*, keeping the invariant that every ancestor of a
//! stale chunk is stale. [`ChunkedEulerForest::recompute_stale`] then
//! recomputes each stale chunk once, children before parents — before the
//! `γ` search reads a list root, and at the end of every insert and delete.
//! Each recomputation replaces at least one eager one, so the amortised
//! bound is unchanged, and the meter still charges every splay at the
//! model's `O(J)` per touched node. Aggregates are exact between public
//! operations.
//!
//! All topology lives in the flat banks of [`super::ChunkArena`]
//! (`parent` / `left` / `right` / `size`), so the rotation and walk loops
//! below touch four `u32` arrays and nothing else; aggregates are dense
//! [`super::RowBank`] rows merged in place.
//! [`ChunkedEulerForest::collect_subtree`] is the one top-down walk of a
//! subtree, shared by the stale recompute, the entry-refresh sweeps and
//! the `γ` search's marking.

use super::{log_depth, ChunkedEulerForest, NONE};

impl ChunkedEulerForest {
    /// Current chunk-id capacity (`J` upper bound); rows/aggregates are sized
    /// to this.
    pub(crate) fn slot_cap(&self) -> usize {
        self.rows.stride()
    }

    /// Recompute `size` of `c` from its children and mark a slotted `c`
    /// stale (its `agg` waits for [`Self::recompute_stale`]).
    /// `O(1)`.
    pub(crate) fn pull_up(&mut self, c: u32) {
        let ci = c as usize;
        let (l, r) = (self.chunks.left[ci], self.chunks.right[ci]);
        let mut size = 1;
        if l != NONE {
            size += self.chunks.size[l as usize];
        }
        if r != NONE {
            size += self.chunks.size[r as usize];
        }
        self.chunks.size[ci] = size;
        if self.chunks.slot[ci] == NONE {
            debug_assert!(l == NONE && r == NONE, "slotless chunk with children");
            return;
        }
        if !self.chunks.stale(c) {
            self.chunks.set_stale(c, true);
            self.stale.push(c);
        }
    }

    /// Recompute the aggregates of every stale chunk, each once and
    /// children before parents, and clear the stale set. Since every
    /// ancestor of a stale chunk is stale, the stale chunks of a list form a
    /// subtree at its root: one top-down pass collects it, and the reverse
    /// order recomputes it bottom-up.
    pub(crate) fn recompute_stale(&mut self) {
        let mut stale = std::mem::take(&mut self.stale);
        let mut order = std::mem::take(&mut self.scratch_order);
        for &c in &stale {
            if !self.chunks.stale(c) {
                continue; // already recomputed with its list, or dropped
            }
            let root = self.tree_root(c);
            debug_assert!(self.chunks.stale(root), "stale chunk under a fresh root");
            self.collect_subtree(root, |child| self.chunks.stale(child), &mut order);
            for &node in order.iter().rev() {
                self.recompute_aggregate(node);
                self.chunks.set_stale(node, false);
            }
        }
        stale.clear();
        self.stale = stale;
        self.scratch_order = order;
    }

    /// The chunks of the subtree rooted at `root` that the walk reaches, in
    /// `order`, every parent before its children: the walk descends only
    /// into children that pass `descend`. Reversed, `order` visits children
    /// before parents. `O(chunks reached)`; charges nothing.
    pub(crate) fn collect_subtree(
        &self,
        root: u32,
        descend: impl Fn(u32) -> bool,
        order: &mut Vec<u32>,
    ) {
        order.clear();
        order.push(root);
        let mut next = 0;
        while next < order.len() {
            let node = order[next] as usize;
            next += 1;
            for child in [self.chunks.left[node], self.chunks.right[node]] {
                if child != NONE && descend(child) {
                    order.push(child);
                }
            }
        }
    }

    /// Recompute `agg` of slotted chunk `c` from its own row and its
    /// children's (fresh) aggregates. `O(slot_cap)`.
    fn recompute_aggregate(&mut self, c: u32) {
        let ci = c as usize;
        let (l, r) = (self.chunks.left[ci], self.chunks.right[ci]);
        let s = self.chunks.slot[ci];
        // agg := base, in place on the slab.
        let (base, agg) = self.rows.base_and_agg_mut(s);
        agg.copy_from_slice(base);
        for child in [l, r] {
            if child == NONE {
                continue;
            }
            let cs = self.chunks.slot[child as usize];
            debug_assert!(cs != NONE, "child chunk without a slot");
            // Lemma 3.2's entry-wise merge.
            let (agg, cagg) = self.rows.agg_pair(s, cs);
            for (a, ca) in agg.iter_mut().zip(cagg) {
                if *ca < *a {
                    *a = *ca;
                }
            }
        }
    }

    fn rotate(&mut self, x: u32) {
        let p = self.chunks.parent[x as usize];
        let g = self.chunks.parent[p as usize];
        let dir = (self.chunks.right[p as usize] == x) as usize;
        let b = if dir == 1 {
            self.chunks.left[x as usize]
        } else {
            self.chunks.right[x as usize]
        };
        // p adopts b where x used to be.
        if dir == 1 {
            self.chunks.right[p as usize] = b;
        } else {
            self.chunks.left[p as usize] = b;
        }
        if b != NONE {
            self.chunks.parent[b as usize] = p;
        }
        // x adopts p.
        if dir == 1 {
            self.chunks.left[x as usize] = p;
        } else {
            self.chunks.right[x as usize] = p;
        }
        self.chunks.parent[p as usize] = x;
        // g adopts x.
        self.chunks.parent[x as usize] = g;
        if g != NONE {
            if self.chunks.left[g as usize] == p {
                self.chunks.left[g as usize] = x;
            } else {
                self.chunks.right[g as usize] = x;
            }
        }
        // Only the demoted node is pulled up here: the promoted node's size
        // is never read before `splay` pulls it up once at the end.
        self.pull_up(p);
    }

    /// Splay `c` to the root of its list's tree (this is also the paper's
    /// `UpdateAdj` path refresh: every node on the leaf-to-root path gets its
    /// aggregate recomputed, here by marking it stale).
    pub(crate) fn splay(&mut self, c: u32) {
        let mut rotations: u64 = 0;
        while self.chunks.parent[c as usize] != NONE {
            let p = self.chunks.parent[c as usize];
            let g = self.chunks.parent[p as usize];
            if g != NONE {
                let zig_zig =
                    (self.chunks.right[g as usize] == p) == (self.chunks.right[p as usize] == c);
                if zig_zig {
                    self.rotate(p);
                } else {
                    self.rotate(c);
                }
                rotations += 2;
            } else {
                rotations += 1;
            }
            self.rotate(c);
        }
        self.pull_up(c);
        let cap = self.slot_cap() as u64;
        // Lemma 2.3 / 3.2: O(J) per touched node sequentially; O(log J) depth
        // with O(J) processors in the EREW model (per-entry trees S_j).
        self.charge(
            (rotations + 1) * cap.max(1),
            log_depth(self.slot_cap()),
            cap.max(1),
        );
    }

    /// Root of the list containing `c`, without restructuring.
    pub(crate) fn tree_root(&self, c: u32) -> u32 {
        let mut cur = c;
        while self.chunks.parent[cur as usize] != NONE {
            cur = self.chunks.parent[cur as usize];
        }
        cur
    }

    /// Whether the list containing `c` consists of a single chunk.
    pub(crate) fn list_is_single_chunk(&self, c: u32) -> bool {
        let root = self.tree_root(c);
        self.chunks.size[root as usize] == 1
    }

    /// First (leftmost) chunk of the list rooted at `root`.
    pub(crate) fn first_chunk(&self, root: u32) -> u32 {
        let mut cur = root;
        while self.chunks.left[cur as usize] != NONE {
            cur = self.chunks.left[cur as usize];
        }
        cur
    }

    /// Last (rightmost) chunk of the list rooted at `root`.
    pub(crate) fn last_chunk(&self, root: u32) -> u32 {
        let mut cur = root;
        while self.chunks.right[cur as usize] != NONE {
            cur = self.chunks.right[cur as usize];
        }
        cur
    }

    /// In-order successor chunk within the same list, if any.
    pub(crate) fn next_chunk(&self, c: u32) -> Option<u32> {
        if self.chunks.right[c as usize] != NONE {
            return Some(self.first_chunk(self.chunks.right[c as usize]));
        }
        let mut cur = c;
        let mut p = self.chunks.parent[cur as usize];
        while p != NONE {
            if self.chunks.left[p as usize] == cur {
                return Some(p);
            }
            cur = p;
            p = self.chunks.parent[cur as usize];
        }
        None
    }

    /// In-order predecessor chunk within the same list, if any.
    pub(crate) fn prev_chunk(&self, c: u32) -> Option<u32> {
        if self.chunks.left[c as usize] != NONE {
            return Some(self.last_chunk(self.chunks.left[c as usize]));
        }
        let mut cur = c;
        let mut p = self.chunks.parent[cur as usize];
        while p != NONE {
            if self.chunks.right[p as usize] == cur {
                return Some(p);
            }
            cur = p;
            p = self.chunks.parent[cur as usize];
        }
        None
    }

    /// 0-based position of chunk `c` within its list (number of chunks before
    /// it). Does not restructure the tree.
    pub(crate) fn chunk_rank(&self, c: u32) -> usize {
        let left = self.chunks.left[c as usize];
        let mut rank = if left != NONE {
            self.chunks.size[left as usize] as usize
        } else {
            0
        };
        let mut cur = c;
        let mut p = self.chunks.parent[cur as usize];
        while p != NONE {
            if self.chunks.right[p as usize] == cur {
                let pl = self.chunks.left[p as usize];
                rank += 1 + if pl != NONE {
                    self.chunks.size[pl as usize] as usize
                } else {
                    0
                };
            }
            cur = p;
            p = self.chunks.parent[cur as usize];
        }
        rank
    }

    /// Concatenate the list rooted at `a` with the list rooted at `b`
    /// (`a` first). Either may be `NONE`. Returns the new root. The two
    /// chunks that become neighbours are queued for Invariant-1 fix-up: an
    /// undersized one may now merge with the other.
    pub(crate) fn tree_join(&mut self, a: u32, b: u32) -> u32 {
        if a == NONE {
            return b;
        }
        if b == NONE {
            return a;
        }
        let last = self.last_chunk(a);
        let first = self.first_chunk(b);
        self.splay(last);
        debug_assert_eq!(self.chunks.right[last as usize], NONE);
        self.chunks.right[last as usize] = b;
        self.chunks.parent[b as usize] = last;
        self.pull_up(last);
        self.touch(last);
        self.touch(first);
        last
    }

    /// Split the list containing `c` immediately after chunk `c`. Returns the
    /// roots `(left, right)`; `right` is `NONE` when `c` is the last chunk.
    pub(crate) fn tree_split_after(&mut self, c: u32) -> (u32, u32) {
        self.splay(c);
        let r = self.chunks.right[c as usize];
        if r != NONE {
            self.chunks.parent[r as usize] = NONE;
            self.chunks.right[c as usize] = NONE;
            self.pull_up(c);
        }
        (c, r)
    }

    /// Insert chunk `c_new` (currently a detached singleton) immediately after
    /// `c_exist` in its list.
    pub(crate) fn tree_insert_after(&mut self, c_exist: u32, c_new: u32) {
        debug_assert_eq!(self.chunks.parent[c_new as usize], NONE);
        debug_assert_eq!(self.chunks.left[c_new as usize], NONE);
        debug_assert_eq!(self.chunks.right[c_new as usize], NONE);
        self.splay(c_exist);
        let r = self.chunks.right[c_exist as usize];
        self.chunks.right[c_new as usize] = r;
        if r != NONE {
            self.chunks.parent[r as usize] = c_new;
        }
        self.chunks.right[c_exist as usize] = c_new;
        self.chunks.parent[c_new as usize] = c_exist;
        self.pull_up(c_new);
        self.pull_up(c_exist);
    }

    /// Detach chunk `c` from its list, leaving it as a singleton tree.
    /// Returns the root of the remaining list (`NONE` if `c` was alone).
    pub(crate) fn tree_remove(&mut self, c: u32) -> u32 {
        self.splay(c);
        let l = self.chunks.left[c as usize];
        let r = self.chunks.right[c as usize];
        if l != NONE {
            self.chunks.parent[l as usize] = NONE;
        }
        if r != NONE {
            self.chunks.parent[r as usize] = NONE;
        }
        self.chunks.left[c as usize] = NONE;
        self.chunks.right[c as usize] = NONE;
        self.pull_up(c);
        self.tree_join(l, r)
    }
}
