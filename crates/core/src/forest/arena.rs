//! Structure-of-arrays storage for the chunked forest: [`ChunkArena`] (the
//! chunk banks **and** the occurrence banks) and [`RowBank`] (the
//! contiguous `CAdj` row store).
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
//! `occ_pos` / `occ_vpos` / `occ_arc`) plus a one-byte flag bank, so the
//! occurrence reindex loops in surgery (in-chunk insert/delete shifts,
//! split/merge re-chunking) and the principal-copy scans in the MWR search
//! sweep one dense bank each instead of striding over fat records.

use pdmsf_graph::{VertexId, WKey};

/// Sentinel index shared with the rest of the forest module.
use super::NONE;

const ALIVE: u8 = 1;
const QUEUED: u8 = 2;

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
    pub(crate) adj_count: Vec<usize>,
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
    /// Position within the chunk's `occs` list.
    pub(crate) occ_pos: Vec<u32>,
    /// Position within the forest's `vertex_occs[vertex]` list.
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

    /// `n_c` of Invariant 1.
    #[inline]
    pub(crate) fn nc(&self, c: u32) -> usize {
        self.occs[c as usize].len() + self.adj_count[c as usize]
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
            self.occ_pos[oi] = 0;
            self.occ_vpos[oi] = vpos;
            self.occ_arc[oi] = NONE;
            self.occ_flags[oi] = OCC_ALIVE;
            o
        } else {
            self.occ_vertex.push(v.0);
            self.occ_chunk.push(NONE);
            self.occ_pos.push(0);
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

    /// Re-stamp `occ_chunk` / `occ_pos` over chunk `c`'s occurrence list
    /// from index `from` on — the reindex after an in-chunk insert/remove
    /// or a split/merge re-chunking, as one sweep over the flat banks.
    pub(crate) fn restamp_occs(&mut self, c: u32, from: usize) {
        let ci = c as usize;
        for (p, &o) in self.occs[ci].iter().enumerate().skip(from) {
            self.occ_chunk[o as usize] = c;
            self.occ_pos[o as usize] = p as u32;
        }
    }

    // ---- checkpoint images ----------------------------------------------

    /// Flatten every bank into the serializable image. The dump is exact —
    /// free lists included, in order — so an imported arena recycles ids in
    /// the same order the original would have, keeping all future behaviour
    /// identical.
    pub(crate) fn to_image(&self) -> ChunkArenaImage {
        let mut occ_offsets = Vec::with_capacity(self.occs.len() + 1);
        let mut occ_data = Vec::new();
        occ_offsets.push(0u64);
        for list in &self.occs {
            occ_data.extend_from_slice(list);
            occ_offsets.push(occ_data.len() as u64);
        }
        ChunkArenaImage {
            parent: self.parent.clone(),
            left: self.left.clone(),
            right: self.right.clone(),
            size: self.size.clone(),
            occ_offsets,
            occ_data,
            adj_count: self.adj_count.iter().map(|&c| c as u64).collect(),
            slot: self.slot.clone(),
            row: self.row.clone(),
            flags: self.flags.clone(),
            free_ids: self.free_ids.clone(),
            occ_vertex: self.occ_vertex.clone(),
            occ_chunk: self.occ_chunk.clone(),
            occ_pos: self.occ_pos.clone(),
            occ_vpos: self.occ_vpos.clone(),
            occ_arc: self.occ_arc.clone(),
            occ_flags: self.occ_flags.clone(),
            occ_free: self.occ_free.clone(),
        }
    }

    /// Rebuild an arena from [`ChunkArena::to_image`], validating lane
    /// lengths, flag bits and free-list consistency (every free id names a
    /// dead entry, exactly once) so a corrupted image is rejected instead of
    /// deserialized into an arena that double-allocates.
    pub(crate) fn from_image(image: &ChunkArenaImage) -> Result<Self, String> {
        let n = image.parent.len();
        if [
            image.left.len(),
            image.right.len(),
            image.size.len(),
            image.adj_count.len(),
            image.slot.len(),
            image.row.len(),
            image.flags.len(),
        ]
        .iter()
        .any(|&l| l != n)
        {
            return Err("chunk arena image lanes disagree in length".to_string());
        }
        if image.occ_offsets.len() != n + 1
            || image.occ_offsets.first() != Some(&0)
            || image.occ_offsets.last().copied() != Some(image.occ_data.len() as u64)
        {
            return Err("chunk arena image occ offsets are inconsistent".to_string());
        }
        let mut occs = Vec::with_capacity(n);
        for c in 0..n {
            let lo = image.occ_offsets[c] as usize;
            let hi = image.occ_offsets[c + 1] as usize;
            if hi < lo || hi > image.occ_data.len() {
                return Err(format!("chunk arena image occ range of chunk {c} invalid"));
            }
            occs.push(image.occ_data[lo..hi].to_vec());
        }
        check_free_list("chunk", &image.free_ids, &image.flags, ALIVE)?;
        let m = image.occ_vertex.len();
        if [
            image.occ_chunk.len(),
            image.occ_pos.len(),
            image.occ_vpos.len(),
            image.occ_arc.len(),
            image.occ_flags.len(),
        ]
        .iter()
        .any(|&l| l != m)
        {
            return Err("chunk arena image occ lanes disagree in length".to_string());
        }
        check_free_list("occurrence", &image.occ_free, &image.occ_flags, OCC_ALIVE)?;
        Ok(ChunkArena {
            parent: image.parent.clone(),
            left: image.left.clone(),
            right: image.right.clone(),
            size: image.size.clone(),
            occs,
            adj_count: image.adj_count.iter().map(|&c| c as usize).collect(),
            slot: image.slot.clone(),
            row: image.row.clone(),
            flags: image.flags.clone(),
            free_ids: image.free_ids.clone(),
            occ_vertex: image.occ_vertex.clone(),
            occ_chunk: image.occ_chunk.clone(),
            occ_pos: image.occ_pos.clone(),
            occ_vpos: image.occ_vpos.clone(),
            occ_arc: image.occ_arc.clone(),
            occ_flags: image.occ_flags.clone(),
            occ_free: image.occ_free.clone(),
        })
    }
}

/// Free-list sanity for an image bank: every listed id is in range, dead
/// (its `alive_bit` is clear) and listed exactly once, and every dead id is
/// listed — the exact condition under which replaying allocations on the
/// imported arena behaves like the original.
fn check_free_list(what: &str, free: &[u32], flags: &[u8], alive_bit: u8) -> Result<(), String> {
    let dead = flags.iter().filter(|&&f| f & alive_bit == 0).count();
    if free.len() != dead {
        return Err(format!(
            "{what} free list length {} does not match {dead} dead entries",
            free.len()
        ));
    }
    let mut seen = vec![false; flags.len()];
    for &id in free {
        match flags.get(id as usize) {
            Some(&f) if f & alive_bit == 0 && !seen[id as usize] => seen[id as usize] = true,
            _ => {
                return Err(format!(
                    "{what} free list names a live or repeated entry {id}"
                ))
            }
        }
    }
    Ok(())
}

/// The flat, serializable image of a [`ChunkArena`]: every bank cloned
/// verbatim, with the ragged `occs` lists flattened into an offsets + data
/// pair. Public so the persist layer can write it section-by-section.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ChunkArenaImage {
    /// Splay parent per chunk id.
    pub parent: Vec<u32>,
    /// Splay left child per chunk id.
    pub left: Vec<u32>,
    /// Splay right child per chunk id.
    pub right: Vec<u32>,
    /// Splay subtree size per chunk id.
    pub size: Vec<u32>,
    /// Per-chunk ranges into `occ_data` (`len + 1` entries, starts at 0).
    pub occ_offsets: Vec<u64>,
    /// Concatenated per-chunk occurrence lists.
    pub occ_data: Vec<u32>,
    /// Adjacent-edge count per chunk id.
    pub adj_count: Vec<u64>,
    /// Chunk slot (`id_c`) per chunk id.
    pub slot: Vec<u32>,
    /// Row-bank slab handle per chunk id.
    pub row: Vec<u32>,
    /// Chunk flag byte (`ALIVE` / `QUEUED` bits).
    pub flags: Vec<u8>,
    /// Retired chunk ids, in recycling order.
    pub free_ids: Vec<u32>,
    /// Occurrence vertex bank.
    pub occ_vertex: Vec<u32>,
    /// Occurrence chunk bank.
    pub occ_chunk: Vec<u32>,
    /// Occurrence in-chunk position bank.
    pub occ_pos: Vec<u32>,
    /// Occurrence vertex-list position bank.
    pub occ_vpos: Vec<u32>,
    /// Occurrence arc-handle bank.
    pub occ_arc: Vec<u32>,
    /// Occurrence flag bank (`OCC_ALIVE` / `OCC_PRINCIPAL` / `OCC_ARC_FWD`).
    pub occ_flags: Vec<u8>,
    /// Retired occurrence ids, in recycling order.
    pub occ_free: Vec<u32>,
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

    // ---- checkpoint images ----------------------------------------------

    /// Flatten the bank into the serializable image: the `WKey` store split
    /// into a raw-weight lane and an edge-id lane, membership as bytes, the
    /// free list verbatim (recycling order is behaviour).
    pub(crate) fn to_image(&self) -> RowBankImage {
        RowBankImage {
            stride: self.stride as u64,
            slabs: self.slabs as u64,
            key_weight: self.keys.iter().map(|k| k.weight.raw()).collect(),
            key_edge: self.keys.iter().map(|k| k.edge.0).collect(),
            memb: self.memb.iter().map(|&m| u8::from(m)).collect(),
            free: self.free.clone(),
        }
    }

    /// Rebuild a bank from [`RowBank::to_image`], validating the backing
    /// store sizes against `slabs × stride` and the free list against the
    /// slab count so a corrupted image cannot produce out-of-bounds slab
    /// handles.
    pub(crate) fn from_image(image: &RowBankImage) -> Result<Self, String> {
        let stride = image.stride as usize;
        let slabs = image.slabs as usize;
        if image.key_weight.len() != slabs * 2 * stride
            || image.key_edge.len() != image.key_weight.len()
        {
            return Err("row bank image key lanes disagree with slabs × stride".to_string());
        }
        if image.memb.len() != slabs * stride {
            return Err("row bank image memb lane disagrees with slabs × stride".to_string());
        }
        let mut seen = vec![false; slabs];
        for &slab in &image.free {
            match seen.get_mut(slab as usize) {
                Some(s) if !*s => *s = true,
                _ => return Err(format!("row bank free list names invalid slab {slab}")),
            }
        }
        if image.memb.iter().any(|&m| m > 1) {
            return Err("row bank image memb lane holds non-boolean bytes".to_string());
        }
        Ok(RowBank {
            stride,
            keys: image
                .key_weight
                .iter()
                .zip(&image.key_edge)
                .map(|(&w, &e)| WKey::new(pdmsf_graph::Weight::from_raw(w), pdmsf_graph::EdgeId(e)))
                .collect(),
            memb: image.memb.iter().map(|&m| m == 1).collect(),
            free: image.free.clone(),
            slabs,
        })
    }
}

/// The flat, serializable image of a [`RowBank`]: scalar geometry plus the
/// backing stores as primitive lanes. Public so the persist layer can write
/// it section-by-section.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RowBankImage {
    /// Row length (`J` upper bound).
    pub stride: u64,
    /// Slab count (live + free).
    pub slabs: u64,
    /// Raw weights of the `base`/`agg` key store (`slabs × 2 × stride`).
    pub key_weight: Vec<i64>,
    /// Edge ids of the `base`/`agg` key store.
    pub key_edge: Vec<u32>,
    /// Membership rows as bytes (`slabs × stride`).
    pub memb: Vec<u8>,
    /// Retired slab handles, in recycling order.
    pub free: Vec<u32>,
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
    fn row_bank_image_round_trips_free_lists_handles_and_stride() {
        let mut b = RowBank::default();
        b.grow_stride(3);
        let k = |w: i64, id: u32| WKey::new(pdmsf_graph::Weight::new(w), pdmsf_graph::EdgeId(id));
        let s0 = b.alloc();
        let s1 = b.alloc();
        let s2 = b.alloc();
        b.base_mut(s0).copy_from_slice(&[k(1, 0), k(2, 1), k(3, 2)]);
        b.agg_mut(s1)[1] = k(-7, 9);
        b.memb_mut(s2)[0] = true;
        b.free(s1);
        b.free(s0);

        // Import of an export is indistinguishable: same geometry, same row
        // contents, and — crucially — the same recycling order for the next
        // allocations.
        let mut r = RowBank::from_image(&b.to_image()).expect("round trip");
        assert_eq!(r.stride(), 3);
        assert_eq!(r.num_slabs(), 3);
        assert_eq!(r.num_free(), 2);
        assert_eq!(r.memb(s2), b.memb(s2));
        assert_eq!(r.base(s2), b.base(s2));
        assert_eq!((r.alloc(), r.alloc()), (b.alloc(), b.alloc()));

        // Round trip survives a stride growth (the compacting sweep): grow,
        // export, import, and the re-laid-out slabs still agree.
        b.grow_stride(6);
        let r2 = RowBank::from_image(&b.to_image()).expect("round trip after grow");
        assert_eq!(r2.stride(), 6);
        for s in [s0, s1, s2] {
            assert_eq!(r2.base(s), b.base(s));
            assert_eq!(r2.agg(s), b.agg(s));
            assert_eq!(r2.memb(s), b.memb(s));
        }

        // Corruption is rejected, not absorbed: a free list naming a live
        // slab, and a key lane whose length disagrees with slabs × stride.
        let mut bad = b.to_image();
        bad.free = vec![0, 0];
        assert!(RowBank::from_image(&bad).is_err());
        let mut bad = b.to_image();
        bad.key_weight.pop();
        assert!(RowBank::from_image(&bad).is_err());
    }

    #[test]
    fn chunk_arena_image_round_trips_banks_and_free_lists() {
        let mut a = ChunkArena::default();
        let c0 = a.alloc();
        let c1 = a.alloc();
        let c2 = a.alloc();
        let o0 = a.occ_alloc(VertexId(4), 0);
        let o1 = a.occ_alloc(VertexId(5), 1);
        a.occs[c1 as usize].extend([o0, o1]);
        a.restamp_occs(c1, 0);
        a.adj_count[c1 as usize] = 2;
        a.slot[c1 as usize] = 0;
        a.row[c1 as usize] = 7;
        a.set_queued(c1, true);
        a.set_occ_principal(o0, true);
        a.set_occ_arc(o1, Some((3, true)));
        a.free(c0);
        a.occ_release(o0);
        let _ = c2;

        let mut r = ChunkArena::from_image(&a.to_image()).expect("round trip");
        assert_eq!(r.len(), a.len());
        assert_eq!(r.occ_len(), a.occ_len());
        assert!(!r.alive(c0) && r.alive(c1));
        assert!(r.queued(c1));
        assert_eq!(r.nc(c1), 4);
        assert_eq!(r.occs[c1 as usize], vec![o0, o1]);
        assert_eq!((r.slot[c1 as usize], r.row[c1 as usize]), (0, 7));
        assert!(!r.occ_alive(o0) && r.occ_alive(o1));
        assert_eq!(r.occ_vert(o1), VertexId(5));
        assert_eq!(r.occ_arc(o1), Some((3, true)));
        assert!(!r.occ_principal(o1));
        // Recycling order is preserved exactly.
        assert_eq!(r.alloc(), a.alloc());
        assert_eq!(r.occ_alloc(VertexId(9), 0), a.occ_alloc(VertexId(9), 0));

        // A free list naming a live chunk is rejected.
        let mut bad = a.to_image();
        bad.free_ids = vec![c1];
        assert!(ChunkArena::from_image(&bad).is_err());
        // Lane-length disagreement is rejected.
        let mut bad = a.to_image();
        bad.occ_pos.pop();
        assert!(ChunkArena::from_image(&bad).is_err());
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
