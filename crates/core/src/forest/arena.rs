//! Structure-of-arrays storage for the chunked forest: [`ChunkArena`] (the
//! chunk banks **and** the occurrence banks), [`RowBank`] (the contiguous
//! `CAdj` row store) and [`SpanStore`] (the pooled per-vertex lists).
//!
//! The previous layout kept every per-chunk field — splay pointers, list
//! metadata *and* the `O(J)`-sized `base`/`agg`/`memb` vectors — inside one
//! ~100-byte `Chunk` struct, so the two dominant hot-path loops (`pull_up`
//! and entry-wise row refresh) touched a handful of `u32`s per node while
//! dragging whole cache lines of unrelated fields along, and every row was a
//! separately allocated `Vec` found behind a pointer chase. This module
//! splits that record by access pattern:
//!
//! * a **hot topology bank** (`parent` / `left` / `right` / `size`, flat
//!   `Vec<u32>`s): splay rotations, `tree_root`, rank and neighbour walks
//!   read only these four arrays, at 4 bytes per node per array;
//! * a **list-metadata bank** (`occs`, `adj_count`, `slot`, `row`, flags):
//!   consulted by surgery and rebalancing, not by tree walks;
//! * the [`RowBank`]: every `base` and `agg` row lives contiguously in one
//!   backing `Vec<WKey>` (and every `memb` row in one `Vec<bool>`), addressed
//!   by a compact slab handle that encodes `(offset, len)` as
//!   `offset = slab * stride`, `len = stride`. Entry-wise merges, argmin
//!   scans and row rebuilds become linear sweeps over dense memory.
//!
//! Slabs are recycled through a free list (the frequent short-list slot
//! transitions never hit the allocator), and when the chunk-id capacity
//! (`J`, the row length) grows, [`RowBank::grow_stride`] re-lays out the
//! backing store in one pass — the same `O(slabs · J)` cost the old layout
//! paid to resize every boxed row, but as a single compacting sweep.
//!
//! Since the scheduler PR the arena also owns the **occurrence banks**: the
//! last array-of-structs holdout (`Occ { vertex, chunk, pos, vpos, arc,
//! principal, alive }`, ~24 bytes of mixed-purpose record per Euler-tour
//! occurrence) is split into flat `u32` banks (`occ_vertex` / `occ_chunk` /
//! `occ_label` / `occ_vpos` / `occ_arc`) plus a one-byte flag bank, so the
//! re-chunking loops in surgery (split/merge, splice, extraction) and the
//! principal-copy scans in the MWR search sweep one dense bank each instead
//! of striding over fat records.
//!
//! An occurrence records its place in its chunk as an **order label**, not
//! an index: labels strictly increase along each chunk's `occs` and leave
//! gaps between them. An in-chunk insertion labels the new occurrence
//! between its neighbours, a removal relabels nothing, and a run moving
//! into a chunk (a split's tail, a merge's absorbed run, a spliced tour, an
//! extracted side) is labelled between its new neighbours; only when a gap
//! is too small is the whole chunk relabelled evenly, an `O(n_c)` sweep.
//! [`ChunkArena::occ_index`] recovers an index by binary search over the
//! chunk's labels.
//!
//! The per-vertex lists (adjacency entries, occurrence ids) live in
//! [`SpanStore`]s: every list of one kind is a span of one pooled backing
//! `Vec`, stored as an offset and a length. A span's block holds the
//! smallest power of two of items that fits its length, and blocks are
//! recycled through one free list per size class, so no vertex owns a heap
//! block or a `Vec` header.

use pdmsf_graph::{VertexId, WKey};
use std::ops::Range;

/// Sentinel index shared with the rest of the forest module.
use super::NONE;

/// One past the largest order label: labels are `u32`s, and a chunk's
/// labels lie in the open interval `(-1, LABEL_END)`.
const LABEL_END: i64 = 1 << 32;

#[cfg(test)]
thread_local! {
    /// Whole-chunk relabels run on this thread, so tests can check that
    /// their operations force some.
    pub(crate) static RELABELS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

const ALIVE: u8 = 1;
const QUEUED: u8 = 2;
/// The chunk's `agg`/`memb` await recomputation. Never set between public
/// operations.
const STALE: u8 = 4;

// ---- occurrence flag bits ----
const OCC_ALIVE: u8 = 1;
const OCC_PRINCIPAL: u8 = 2;
/// Direction bit of the occurrence's arc (`u -> v` when set); only
/// meaningful while `occ_arc` is not `NONE`.
const OCC_ARC_FWD: u8 = 4;

/// Structure-of-arrays chunk **and occurrence** storage (see module docs).
/// A chunk id indexes every chunk bank and an occurrence id every `occ_*`
/// bank; banks never shrink, freed ids are recycled via the free lists.
#[derive(Default)]
pub(crate) struct ChunkArena {
    // ---- hot bank: splay-tree topology ----
    pub(crate) parent: Vec<u32>,
    pub(crate) left: Vec<u32>,
    pub(crate) right: Vec<u32>,
    /// Number of chunks in the subtree.
    pub(crate) size: Vec<u32>,

    // ---- list-metadata bank ----
    /// Occurrence ids, in list order (the per-chunk `Vec` is reused across
    /// alloc/free cycles, so steady-state churn does not allocate).
    pub(crate) occs: Vec<Vec<u32>>,
    /// Number of graph edges adjacent to this chunk (edges incident to
    /// vertices whose principal copy lies here); `n_c = occs.len() + adj_count`.
    /// It counts adjacency entries, so it fits the `u32` offsets of the
    /// adjacency [`SpanStore`].
    pub(crate) adj_count: Vec<u32>,
    /// Chunk id (`id_c` in the paper); `NONE` for single-chunk lists.
    pub(crate) slot: Vec<u32>,
    /// [`RowBank`] slab handle (`NONE` iff `slot` is `NONE`).
    pub(crate) row: Vec<u32>,
    flags: Vec<u8>,

    free_ids: Vec<u32>,

    // ---- occurrence banks (the SoA form of the former `Occ` record,
    // indexed by occurrence id) ----
    /// Vertex of the occurrence (raw [`VertexId`] index).
    pub(crate) occ_vertex: Vec<u32>,
    /// Chunk holding the occurrence.
    pub(crate) occ_chunk: Vec<u32>,
    /// Order label within the chunk: labels strictly increase along the
    /// chunk's `occs` list, with gaps between them (see module docs).
    pub(crate) occ_label: Vec<u32>,
    /// Position within the forest's list of its vertex's occurrences.
    pub(crate) occ_vpos: Vec<u32>,
    /// Edge-store handle of the forest arc whose *tail* this occurrence is
    /// (`NONE` = no arc). The direction travels in the `OCC_ARC_FWD` flag.
    occ_arc: Vec<u32>,
    occ_flags: Vec<u8>,
    occ_free: Vec<u32>,
}

impl ChunkArena {
    /// Number of chunk ids ever allocated (live + free).
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.parent.len()
    }

    #[inline]
    pub(crate) fn alive(&self, c: u32) -> bool {
        self.flags[c as usize] & ALIVE != 0
    }

    #[inline]
    pub(crate) fn queued(&self, c: u32) -> bool {
        self.flags[c as usize] & QUEUED != 0
    }

    #[inline]
    pub(crate) fn set_queued(&mut self, c: u32, q: bool) {
        if q {
            self.flags[c as usize] |= QUEUED;
        } else {
            self.flags[c as usize] &= !QUEUED;
        }
    }

    #[inline]
    pub(crate) fn stale(&self, c: u32) -> bool {
        self.flags[c as usize] & STALE != 0
    }

    #[inline]
    pub(crate) fn set_stale(&mut self, c: u32, s: bool) {
        if s {
            self.flags[c as usize] |= STALE;
        } else {
            self.flags[c as usize] &= !STALE;
        }
    }

    /// `n_c` of Invariant 1.
    #[inline]
    pub(crate) fn nc(&self, c: u32) -> usize {
        self.occs[c as usize].len() + self.adj_count[c as usize] as usize
    }

    /// Allocate a chunk id as a detached, slotless singleton.
    pub(crate) fn alloc(&mut self) -> u32 {
        if let Some(id) = self.free_ids.pop() {
            let ci = id as usize;
            self.parent[ci] = NONE;
            self.left[ci] = NONE;
            self.right[ci] = NONE;
            self.size[ci] = 1;
            self.occs[ci].clear();
            self.adj_count[ci] = 0;
            self.slot[ci] = NONE;
            self.row[ci] = NONE;
            self.flags[ci] = ALIVE;
            id
        } else {
            self.parent.push(NONE);
            self.left.push(NONE);
            self.right.push(NONE);
            self.size.push(1);
            self.occs.push(Vec::new());
            self.adj_count.push(0);
            self.slot.push(NONE);
            self.row.push(NONE);
            self.flags.push(ALIVE);
            (self.parent.len() - 1) as u32
        }
    }

    /// Retire a chunk id. The caller must have released its slot/row first.
    pub(crate) fn free(&mut self, c: u32) {
        debug_assert_eq!(self.slot[c as usize], NONE);
        debug_assert_eq!(self.row[c as usize], NONE);
        let ci = c as usize;
        self.occs[ci].clear();
        // A stale entry may remain on the `touched` stack; `flush_rebalance`
        // skips it via the cleared flags.
        self.flags[ci] = 0;
        self.free_ids.push(c);
    }

    // ---- occurrence banks -----------------------------------------------

    /// Number of occurrence ids ever allocated (live + free).
    #[inline]
    pub(crate) fn occ_len(&self) -> usize {
        self.occ_vertex.len()
    }

    /// Allocate an occurrence of `v` as a chunkless, arcless, non-principal
    /// record at `vpos` in its vertex list.
    pub(crate) fn occ_alloc(&mut self, v: VertexId, vpos: u32) -> u32 {
        if let Some(o) = self.occ_free.pop() {
            let oi = o as usize;
            self.occ_vertex[oi] = v.0;
            self.occ_chunk[oi] = NONE;
            self.occ_label[oi] = 0;
            self.occ_vpos[oi] = vpos;
            self.occ_arc[oi] = NONE;
            self.occ_flags[oi] = OCC_ALIVE;
            o
        } else {
            self.occ_vertex.push(v.0);
            self.occ_chunk.push(NONE);
            self.occ_label.push(0);
            self.occ_vpos.push(vpos);
            self.occ_arc.push(NONE);
            self.occ_flags.push(OCC_ALIVE);
            (self.occ_vertex.len() - 1) as u32
        }
    }

    /// Retire an occurrence id (the forest removes it from `vertex_occs`
    /// first).
    pub(crate) fn occ_release(&mut self, o: u32) {
        self.occ_flags[o as usize] = 0;
        self.occ_free.push(o);
    }

    #[inline]
    pub(crate) fn occ_alive(&self, o: u32) -> bool {
        self.occ_flags[o as usize] & OCC_ALIVE != 0
    }

    /// Vertex of occurrence `o`.
    #[inline]
    pub(crate) fn occ_vert(&self, o: u32) -> VertexId {
        VertexId(self.occ_vertex[o as usize])
    }

    /// Whether `o` is its vertex's principal copy (cached flag; the
    /// forest's `principal` array is authoritative).
    #[inline]
    pub(crate) fn occ_principal(&self, o: u32) -> bool {
        self.occ_flags[o as usize] & OCC_PRINCIPAL != 0
    }

    #[inline]
    pub(crate) fn set_occ_principal(&mut self, o: u32, p: bool) {
        if p {
            self.occ_flags[o as usize] |= OCC_PRINCIPAL;
        } else {
            self.occ_flags[o as usize] &= !OCC_PRINCIPAL;
        }
    }

    /// The forest arc (edge-store handle, `true` = the `u -> v` direction)
    /// whose tail occurrence `o` is, if any.
    #[inline]
    pub(crate) fn occ_arc(&self, o: u32) -> Option<(u32, bool)> {
        let h = self.occ_arc[o as usize];
        (h != NONE).then(|| (h, self.occ_flags[o as usize] & OCC_ARC_FWD != 0))
    }

    #[inline]
    pub(crate) fn set_occ_arc(&mut self, o: u32, arc: Option<(u32, bool)>) {
        let oi = o as usize;
        match arc {
            Some((h, fwd)) => {
                debug_assert_ne!(h, NONE);
                self.occ_arc[oi] = h;
                if fwd {
                    self.occ_flags[oi] |= OCC_ARC_FWD;
                } else {
                    self.occ_flags[oi] &= !OCC_ARC_FWD;
                }
            }
            None => {
                self.occ_arc[oi] = NONE;
                self.occ_flags[oi] &= !OCC_ARC_FWD;
            }
        }
    }

    /// Index of occurrence `o` in its chunk's `occs` list: a binary search
    /// over the chunk's labels, `O(log n_c)`.
    #[inline]
    pub(crate) fn occ_index(&self, o: u32) -> usize {
        let occs = &self.occs[self.occ_chunk[o as usize] as usize];
        let label = self.occ_label[o as usize];
        let at = occs.partition_point(|&x| self.occ_label[x as usize] < label);
        debug_assert_eq!(occs.get(at), Some(&o), "occurrence labels out of order");
        at
    }

    /// Insert occurrence `o` into chunk `c`'s list at index `at`, labelled
    /// between its neighbours.
    pub(crate) fn insert_occ(&mut self, c: u32, at: usize, o: u32) {
        self.occs[c as usize].insert(at, o);
        self.occ_chunk[o as usize] = c;
        self.label_run(c, at..at + 1);
    }

    /// Re-chunk the occurrences at `range` of chunk `c`'s list — a split's
    /// tail, a merge's absorbed run, a spliced tour or an extracted cut
    /// side: stamp `occ_chunk`, point `vertex_chunk` of every principal copy
    /// at `c`, label the run between its new neighbours, and return the
    /// adjacency count those principals carry (`degree` of their vertices,
    /// summed).
    pub(crate) fn rechunk_occs(
        &mut self,
        c: u32,
        range: Range<usize>,
        vertex_chunk: &mut [u32],
        degree: impl Fn(u32) -> u32,
    ) -> u32 {
        let mut adj = 0;
        for &o in &self.occs[c as usize][range.clone()] {
            let oi = o as usize;
            self.occ_chunk[oi] = c;
            if self.occ_flags[oi] & OCC_PRINCIPAL != 0 {
                let v = self.occ_vertex[oi];
                vertex_chunk[v as usize] = c;
                adj += degree(v);
            }
        }
        self.label_run(c, range);
        adj
    }

    /// Label the occurrences at `run` of chunk `c`'s list evenly between
    /// the labels of their neighbours. When that gap has fewer free labels
    /// than the run is long, relabel the whole chunk evenly instead, over
    /// the whole label range, which any chunk fits.
    fn label_run(&mut self, c: u32, run: Range<usize>) {
        let occs = &self.occs[c as usize];
        let below = match run.start {
            0 => -1,
            at => self.occ_label[occs[at - 1] as usize] as i64,
        };
        let above = occs
            .get(run.end)
            .map_or(LABEL_END, |&o| self.occ_label[o as usize] as i64);
        let step = (above - below) / (run.len() as i64 + 1);
        if step == 0 {
            #[cfg(test)]
            RELABELS.with(|n| n.set(n.get() + 1));
            let whole = 0..occs.len();
            self.label_run(c, whole);
            return;
        }
        for (i, &o) in occs[run].iter().enumerate() {
            self.occ_label[o as usize] = (below + (i as i64 + 1) * step) as u32;
        }
    }
}

/// One list's place in a [`SpanStore`]: `len` items from `off`, in a block
/// of [`block_cap`]`(len)` items.
#[derive(Clone, Copy, Default)]
struct Span {
    off: u32,
    len: u32,
}

/// Items in the block of a list of `len` items: the smallest power of two
/// that fits (none for an empty list).
#[inline]
fn block_cap(len: u32) -> u32 {
    if len == 0 {
        0
    } else {
        len.next_power_of_two()
    }
}

/// Lists `0..num_lists()` of `T`, pooled in one backing `Vec` (see module
/// docs). A push that fills a list's block moves it to a block twice the
/// size; a removal that leaves it at a power of two (or empty) moves it to
/// a block half the size (or frees it). Blocks are never split or merged,
/// so the live blocks and the free lists together tile the backing store.
pub(crate) struct SpanStore<T> {
    spans: Vec<Span>,
    items: Vec<T>,
    /// Offsets of retired blocks; `free[c]` holds blocks of `2^c` items.
    free: Vec<Vec<u32>>,
}

impl<T: Copy> SpanStore<T> {
    /// A store of `n` empty lists.
    pub(crate) fn with_lists(n: usize) -> Self {
        SpanStore {
            spans: vec![Span::default(); n],
            items: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Number of lists.
    #[inline]
    pub(crate) fn num_lists(&self) -> usize {
        self.spans.len()
    }

    /// Length of list `i`.
    #[inline]
    pub(crate) fn len(&self, i: usize) -> usize {
        self.spans[i].len as usize
    }

    /// The items of list `i`.
    #[inline]
    pub(crate) fn list(&self, i: usize) -> &[T] {
        let Span { off, len } = self.spans[i];
        &self.items[off as usize..(off + len) as usize]
    }

    /// Append `x` to list `i`.
    pub(crate) fn push(&mut self, i: usize, x: T) {
        let Span { off, len } = self.spans[i];
        let grown = len.checked_add(1).expect("a list outgrew u32 lengths");
        if len == block_cap(len) {
            // The block is full (or absent): move to the next size class.
            let moved = self.take_block(block_cap(grown), off as usize..(off + len) as usize, x);
            if len > 0 {
                self.free_block(off, len);
            }
            self.spans[i].off = moved;
        }
        let Span { off, .. } = self.spans[i];
        self.items[(off + len) as usize] = x;
        self.spans[i].len = grown;
    }

    /// Remove item `at` of list `i`; the list's last item takes its place.
    pub(crate) fn swap_remove(&mut self, i: usize, at: usize) {
        let Span { off, len } = self.spans[i];
        self.items[(off as usize) + at] = self.items[(off + len - 1) as usize];
        self.shrink(i);
    }

    /// Drop the last item of list `i`, moving the list to a smaller block
    /// when its length falls to a power of two (or freeing its block when
    /// it empties).
    fn shrink(&mut self, i: usize) {
        let Span { off, len } = self.spans[i];
        let short = len - 1;
        if block_cap(short) != block_cap(len) {
            if short > 0 {
                let pad = self.items[off as usize];
                let moved = self.take_block(short, off as usize..(off + short) as usize, pad);
                self.spans[i].off = moved;
            }
            self.free_block(off, block_cap(len));
        }
        self.spans[i].len = short;
    }

    /// A block of `cap` items (a power of two) holding a copy of the items
    /// at `src` first: recycled from the size class's free list, or carved
    /// from the end of the backing store (padded with `pad`).
    fn take_block(&mut self, cap: u32, src: Range<usize>, pad: T) -> u32 {
        let class = cap.trailing_zeros() as usize;
        if let Some(off) = self.free.get_mut(class).and_then(Vec::pop) {
            self.items.copy_within(src, off as usize);
            return off;
        }
        let off = self.items.len();
        let end = off + cap as usize;
        assert!(
            u32::try_from(end).is_ok(),
            "pooled lists outgrew u32 offsets"
        );
        self.items.extend_from_within(src);
        self.items.resize(end, pad);
        off as u32
    }

    /// Retire the block of `cap` items at `off` into its class's free list.
    fn free_block(&mut self, off: u32, cap: u32) {
        let class = cap.trailing_zeros() as usize;
        if self.free.len() <= class {
            self.free.resize_with(class + 1, Vec::new);
        }
        self.free[class].push(off);
    }

    /// Assert the store's layout: every live span lies in a block of its
    /// size class inside the backing store, no two blocks (live or free)
    /// overlap, and live and free blocks together tile the backing store.
    /// `O(lists + blocks)`; for `validate()`.
    pub(crate) fn check_layout(&self) {
        let mut blocks: Vec<(u32, u32, Option<usize>)> = self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.len > 0)
            .map(|(i, s)| (s.off, block_cap(s.len), Some(i)))
            .collect();
        for (class, offs) in self.free.iter().enumerate() {
            blocks.extend(offs.iter().map(|&off| (off, 1 << class, None)));
        }
        blocks.sort_unstable_by_key(|&(off, _, _)| off);
        let mut end = 0u64;
        for (off, cap, owner) in blocks {
            assert_eq!(
                off as u64, end,
                "block at {off} (list {owner:?}) overlaps its predecessor or leaves a gap"
            );
            end = off as u64 + cap as u64;
        }
        assert_eq!(
            end,
            self.items.len() as u64,
            "blocks do not cover the store"
        );
    }
}

/// Contiguous storage for the per-chunk `CAdj` rows (see module docs).
///
/// Every slab holds one chunk's `base` row, `agg` row (both `stride`
/// [`WKey`]s, laid out back-to-back in `keys`) and `memb` row (`stride`
/// bools in `memb`). A slab handle is a dense `u32`; offsets are
/// `slab * 2 * stride` into `keys` and `slab * stride` into `memb`.
#[derive(Default)]
pub(crate) struct RowBank {
    stride: usize,
    keys: Vec<WKey>,
    memb: Vec<bool>,
    free: Vec<u32>,
    slabs: usize,
}

impl RowBank {
    /// Current row length (`J` upper bound, the forest's `slot_cap`).
    #[inline]
    pub(crate) fn stride(&self) -> usize {
        self.stride
    }

    /// Number of slabs currently allocated (live + free).
    #[inline]
    pub(crate) fn num_slabs(&self) -> usize {
        self.slabs
    }

    /// Number of retired slabs awaiting reuse.
    #[inline]
    pub(crate) fn num_free(&self) -> usize {
        self.free.len()
    }

    #[inline]
    fn key_off(&self, slab: u32) -> usize {
        slab as usize * 2 * self.stride
    }

    #[inline]
    fn memb_off(&self, slab: u32) -> usize {
        slab as usize * self.stride
    }

    /// Allocate a slab with all-`∞` rows and all-`false` membership,
    /// recycling a retired slab when possible.
    pub(crate) fn alloc(&mut self) -> u32 {
        if let Some(slab) = self.free.pop() {
            let ko = self.key_off(slab);
            self.keys[ko..ko + 2 * self.stride].fill(WKey::PLUS_INF);
            let mo = self.memb_off(slab);
            self.memb[mo..mo + self.stride].fill(false);
            slab
        } else {
            self.keys
                .resize(self.keys.len() + 2 * self.stride, WKey::PLUS_INF);
            self.memb.resize(self.memb.len() + self.stride, false);
            self.slabs += 1;
            (self.slabs - 1) as u32
        }
    }

    /// Retire a slab for reuse. Contents are reset on the next [`Self::alloc`].
    pub(crate) fn free(&mut self, slab: u32) {
        debug_assert!((slab as usize) < self.slabs, "freeing an unknown slab");
        debug_assert!(!self.free.contains(&slab), "double free of slab {slab}");
        self.free.push(slab);
    }

    /// Grow every row to `new_stride` entries, preserving slab contents
    /// (new entries are `∞` / `false`). One compacting sweep over the
    /// backing stores.
    pub(crate) fn grow_stride(&mut self, new_stride: usize) {
        debug_assert!(new_stride >= self.stride);
        if new_stride == self.stride {
            return;
        }
        let mut keys = vec![WKey::PLUS_INF; self.slabs * 2 * new_stride];
        for slab in 0..self.slabs {
            let old = slab * 2 * self.stride;
            let new = slab * 2 * new_stride;
            // base
            keys[new..new + self.stride].copy_from_slice(&self.keys[old..old + self.stride]);
            // agg
            keys[new + new_stride..new + new_stride + self.stride]
                .copy_from_slice(&self.keys[old + self.stride..old + 2 * self.stride]);
        }
        let mut memb = vec![false; self.slabs * new_stride];
        for slab in 0..self.slabs {
            let old = slab * self.stride;
            let new = slab * new_stride;
            memb[new..new + self.stride].copy_from_slice(&self.memb[old..old + self.stride]);
        }
        self.keys = keys;
        self.memb = memb;
        self.stride = new_stride;
    }

    // ---- row accessors -------------------------------------------------

    #[inline]
    pub(crate) fn base(&self, slab: u32) -> &[WKey] {
        let o = self.key_off(slab);
        &self.keys[o..o + self.stride]
    }

    #[inline]
    pub(crate) fn base_mut(&mut self, slab: u32) -> &mut [WKey] {
        let o = self.key_off(slab);
        let s = self.stride;
        &mut self.keys[o..o + s]
    }

    #[inline]
    pub(crate) fn agg(&self, slab: u32) -> &[WKey] {
        let o = self.key_off(slab) + self.stride;
        &self.keys[o..o + self.stride]
    }

    #[inline]
    pub(crate) fn agg_mut(&mut self, slab: u32) -> &mut [WKey] {
        let o = self.key_off(slab) + self.stride;
        let s = self.stride;
        &mut self.keys[o..o + s]
    }

    #[inline]
    pub(crate) fn memb(&self, slab: u32) -> &[bool] {
        let o = self.memb_off(slab);
        &self.memb[o..o + self.stride]
    }

    #[inline]
    pub(crate) fn memb_mut(&mut self, slab: u32) -> &mut [bool] {
        let o = self.memb_off(slab);
        let s = self.stride;
        &mut self.memb[o..o + s]
    }

    /// The `base` and `agg` rows of one slab, both mutable (they are
    /// adjacent halves of the slab).
    #[inline]
    pub(crate) fn base_and_agg_mut(&mut self, slab: u32) -> (&mut [WKey], &mut [WKey]) {
        let o = self.key_off(slab);
        let s = self.stride;
        self.keys[o..o + 2 * s].split_at_mut(s)
    }

    /// Mutable `agg` row of `dst` together with the shared `agg` row of a
    /// *different* slab `src` — the borrow shape of `pull_up`'s entry-wise
    /// child merges.
    #[inline]
    pub(crate) fn agg_pair(&mut self, dst: u32, src: u32) -> (&mut [WKey], &[WKey]) {
        let s = self.stride;
        disjoint_mut(
            &mut self.keys,
            self.stride + dst as usize * 2 * s,
            self.stride + src as usize * 2 * s,
            s,
        )
    }

    /// Mutable `base` row of `dst` with the shared `base` row of `src`
    /// (the entry-wise row merge of a chunk merge).
    #[inline]
    pub(crate) fn base_pair(&mut self, dst: u32, src: u32) -> (&mut [WKey], &[WKey]) {
        let s = self.stride;
        disjoint_mut(
            &mut self.keys,
            dst as usize * 2 * s,
            src as usize * 2 * s,
            s,
        )
    }

    /// Mutable `memb` row of `dst` with the shared `memb` row of `src`.
    #[inline]
    pub(crate) fn memb_pair(&mut self, dst: u32, src: u32) -> (&mut [bool], &[bool]) {
        let s = self.stride;
        disjoint_mut(&mut self.memb, dst as usize * s, src as usize * s, s)
    }
}

/// Split one backing slice into a mutable window at `dst` and a shared
/// window at `src` (both `len` long, non-overlapping).
#[inline]
fn disjoint_mut<T>(v: &mut [T], dst: usize, src: usize, len: usize) -> (&mut [T], &[T]) {
    debug_assert!(dst.abs_diff(src) >= len, "overlapping row windows");
    if dst < src {
        let (a, b) = v.split_at_mut(src);
        (&mut a[dst..dst + len], &b[..len])
    } else {
        let (a, b) = v.split_at_mut(dst);
        (&mut b[..len], &a[src..src + len])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_arena_allocates_and_recycles_ids() {
        let mut a = ChunkArena::default();
        let c0 = a.alloc();
        let c1 = a.alloc();
        assert_eq!((c0, c1), (0, 1));
        assert!(a.alive(c0) && a.alive(c1));
        assert_eq!(a.size[c0 as usize], 1);
        a.occs[c0 as usize].push(7);
        a.adj_count[c0 as usize] = 3;
        a.set_queued(c0, true);
        assert!(a.queued(c0));
        assert_eq!(a.nc(c0), 4);
        a.free(c0);
        assert!(!a.alive(c0));
        assert!(!a.queued(c0), "freeing clears the queued flag");
        // The freed id is reused, fully reset.
        let c2 = a.alloc();
        assert_eq!(c2, c0);
        assert!(a.alive(c2));
        assert!(a.occs[c2 as usize].is_empty());
        assert_eq!(a.adj_count[c2 as usize], 0);
        assert_eq!(a.slot[c2 as usize], NONE);
        assert_eq!(a.row[c2 as usize], NONE);
        assert_eq!(a.len(), 2);
    }

    /// Inserting again and again right after one occurrence halves the
    /// gap there each time, so the chunk must be relabelled; after every
    /// insert the labels still increase along the chunk and each index
    /// round-trips through `occ_index`.
    #[test]
    fn inserts_at_one_spot_relabel_and_keep_labels_in_order() {
        let mut a = ChunkArena::default();
        let c = a.alloc();
        for at in 0..2 {
            let o = a.occ_alloc(VertexId(0), 0);
            a.insert_occ(c, at, o);
        }
        let relabels = || RELABELS.with(|n| n.get());
        let before = relabels();
        for i in 0..200 {
            let o = a.occ_alloc(VertexId(0), 0);
            a.insert_occ(c, 1, o);
            let occs = &a.occs[c as usize];
            assert!(
                occs.windows(2)
                    .all(|w| a.occ_label[w[0] as usize] < a.occ_label[w[1] as usize]),
                "labels out of order after insert {i}"
            );
            for (at, &o) in occs.iter().enumerate() {
                assert_eq!(a.occ_index(o), at, "index of {o} after insert {i}");
            }
        }
        assert!(
            relabels() > before,
            "200 inserts at one spot never relabelled"
        );
    }

    /// Lists grow into and shrink out of power-of-two blocks, keep their
    /// items through every move, and reuse retired blocks of their size
    /// class instead of growing the backing store.
    #[test]
    fn span_store_moves_lists_between_size_classes() {
        let mut s: SpanStore<u32> = SpanStore::with_lists(2);
        for x in 0..5 {
            s.push(0, x);
            s.check_layout();
        }
        assert_eq!(s.list(0), &[0, 1, 2, 3, 4]);
        // Blocks of 1, 2, 4 and 8 were carved; the first three are free.
        assert_eq!(s.items.len(), 1 + 2 + 4 + 8);
        // List 1 grows through the retired blocks: no new carving.
        for x in 10..14 {
            s.push(1, x);
        }
        assert_eq!(s.items.len(), 15);
        s.check_layout();
        s.swap_remove(0, 1);
        assert_eq!(s.list(0), &[0, 4, 2, 3], "back in a block of 4");
        // List 1 holds the retired block of 4, so a new one was carved.
        assert_eq!(s.items.len(), 19);
        s.swap_remove(0, 0);
        assert_eq!(s.list(0), &[3, 4, 2]);
        s.check_layout();
        while s.len(0) > 0 {
            s.swap_remove(0, 0);
            s.check_layout();
        }
        assert_eq!(s.list(1), &[10, 11, 12, 13]);
        assert_eq!(s.items.len(), 19, "the blocks of 2 and 1 were reused");
    }

    #[test]
    fn row_bank_alloc_free_reuses_slabs() {
        let mut b = RowBank::default();
        b.grow_stride(4);
        let s0 = b.alloc();
        let s1 = b.alloc();
        assert_eq!((s0, s1), (0, 1));
        assert_eq!(b.num_slabs(), 2);
        b.base_mut(s0)[2] = WKey::new(pdmsf_graph::Weight::new(9), pdmsf_graph::EdgeId(1));
        b.memb_mut(s0)[1] = true;
        b.free(s0);
        assert_eq!(b.num_free(), 1);
        // Reuse resets contents; no new slab is carved.
        let s2 = b.alloc();
        assert_eq!(s2, s0);
        assert_eq!(b.num_slabs(), 2);
        assert_eq!(b.num_free(), 0);
        assert!(b.base(s2).iter().all(|k| *k == WKey::PLUS_INF));
        assert!(b.agg(s2).iter().all(|k| *k == WKey::PLUS_INF));
        assert!(b.memb(s2).iter().all(|m| !*m));
    }

    #[test]
    fn row_bank_grow_stride_preserves_rows() {
        let mut b = RowBank::default();
        b.grow_stride(2);
        let s0 = b.alloc();
        let s1 = b.alloc();
        let k = |w: i64, id: u32| WKey::new(pdmsf_graph::Weight::new(w), pdmsf_graph::EdgeId(id));
        b.base_mut(s0).copy_from_slice(&[k(1, 0), k(2, 1)]);
        b.agg_mut(s0).copy_from_slice(&[k(3, 2), k(4, 3)]);
        b.base_mut(s1)[1] = k(5, 4);
        b.memb_mut(s1)[0] = true;
        b.grow_stride(5);
        assert_eq!(b.stride(), 5);
        assert_eq!(&b.base(s0)[..2], &[k(1, 0), k(2, 1)]);
        assert_eq!(&b.agg(s0)[..2], &[k(3, 2), k(4, 3)]);
        assert!(b.base(s0)[2..].iter().all(|x| *x == WKey::PLUS_INF));
        assert_eq!(b.base(s1)[1], k(5, 4));
        assert_eq!(b.memb(s1), &[true, false, false, false, false]);
        // Backing stores are exactly slabs × stride — contiguous, no gaps.
        assert_eq!(b.keys.len(), 2 * 2 * 5);
        assert_eq!(b.memb.len(), 2 * 5);
    }

    #[test]
    fn row_bank_pair_accessors_split_disjoint_slabs() {
        let mut b = RowBank::default();
        b.grow_stride(3);
        let s0 = b.alloc();
        let s1 = b.alloc();
        let k = |w: i64| WKey::new(pdmsf_graph::Weight::new(w), pdmsf_graph::EdgeId(0));
        b.agg_mut(s0).fill(k(9));
        b.agg_mut(s1).fill(k(4));
        {
            let (dst, src) = b.agg_pair(s0, s1);
            for (d, s) in dst.iter_mut().zip(src) {
                if *s < *d {
                    *d = *s;
                }
            }
        }
        assert!(b.agg(s0).iter().all(|x| *x == k(4)));
        // Same in the other direction (dst above src in the backing store).
        {
            let (dst, src) = b.base_pair(s1, s0);
            dst.copy_from_slice(src);
        }
        {
            let (dst, _src) = b.memb_pair(s1, s0);
            dst.fill(true);
        }
        assert_eq!(b.memb(s1), &[true, true, true]);
        assert_eq!(b.memb(s0), &[false, false, false]);
    }
}
