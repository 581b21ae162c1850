//! Dense, index-based edge bookkeeping — the arena layer under every hot
//! path in the workspace.
//!
//! The dynamic structures look edges up by [`EdgeId`] on every primitive of
//! every update. Routing those lookups through hash or tree maps puts
//! hashing and pointer-chasing on the hottest loops, so this module provides
//! the flat alternatives:
//!
//! * [`EdgeIdIndex`] — a paged `EdgeId -> u32` index. Pages are allocated on
//!   demand, so sparse id regions (such as the degree-reduction's auxiliary
//!   ids starting at [`crate::degree::AUX_EDGE_BASE`]) cost one page, not the
//!   whole dense range. A lookup is two array loads and never hashes.
//! * [`EdgeSlotMap`] — a slot map that **interns** each live [`EdgeId`] into
//!   a dense `u32` slot (with a free-list, so slot storage stays proportional
//!   to the number of *live* edges no matter how many ids history has
//!   consumed). The slot is a stable handle for the lifetime of the edge:
//!   callers store handles (the chunked forest's Euler-tour arc tails, its
//!   checkpointed adjacency) and resolve them with a single indexed load,
//!   skipping even the id-to-slot translation.
//! * [`EdgeStore`] — the storage interface the core structures are generic
//!   over, with [`EdgeSlotMap`] as the production implementation and
//!   [`HashEdgeStore`] (a `std::collections::HashMap` wrapper) kept as the
//!   map-based comparison baseline for the benchmark suite
//!   (`BENCH_update_time.json` reports both).

use crate::graph::Edge;
use crate::ids::EdgeId;
use std::collections::HashMap;

/// Sentinel handle ("null pointer") used by the arena layer.
pub const NO_HANDLE: u32 = u32::MAX;

// 64Ki-entry pages keep the page directory tiny (32Ki entries even for ids
// near `u32::MAX`, i.e. the degree-reduction's auxiliary range) while a page
// is only 256KiB.
const PAGE_BITS: usize = 16;
const PAGE_SIZE: usize = 1 << PAGE_BITS;

/// Paged `EdgeId -> u32` index (see module docs).
#[derive(Clone, Debug, Default)]
pub struct EdgeIdIndex {
    pages: Vec<Option<Box<[u32; PAGE_SIZE]>>>,
    len: usize,
}

impl EdgeIdIndex {
    /// An empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of ids currently mapped.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no id is mapped.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The value mapped to `id`, if any.
    #[inline]
    pub fn get(&self, id: EdgeId) -> Option<u32> {
        let page = id.index() >> PAGE_BITS;
        match self.pages.get(page) {
            Some(Some(p)) => {
                let v = p[id.index() & (PAGE_SIZE - 1)];
                if v == NO_HANDLE {
                    None
                } else {
                    Some(v)
                }
            }
            _ => None,
        }
    }

    /// Map `id` to `value`, returning the previous mapping if any.
    ///
    /// # Panics
    /// Panics if `value == NO_HANDLE` (reserved as the empty marker).
    pub fn set(&mut self, id: EdgeId, value: u32) -> Option<u32> {
        assert_ne!(value, NO_HANDLE, "NO_HANDLE is reserved");
        let page = id.index() >> PAGE_BITS;
        if page >= self.pages.len() {
            self.pages.resize_with(page + 1, || None);
        }
        let p = self.pages[page].get_or_insert_with(|| Box::new([NO_HANDLE; PAGE_SIZE]));
        let slot = &mut p[id.index() & (PAGE_SIZE - 1)];
        let old = *slot;
        *slot = value;
        if old == NO_HANDLE {
            self.len += 1;
            None
        } else {
            Some(old)
        }
    }

    /// Remove the mapping for `id`, returning it if present.
    pub fn remove(&mut self, id: EdgeId) -> Option<u32> {
        let page = id.index() >> PAGE_BITS;
        let p = self.pages.get_mut(page)?.as_mut()?;
        let slot = &mut p[id.index() & (PAGE_SIZE - 1)];
        if *slot == NO_HANDLE {
            None
        } else {
            let old = *slot;
            *slot = NO_HANDLE;
            self.len -= 1;
            Some(old)
        }
    }
}

/// Storage interface for per-edge bookkeeping, generic over the value type.
///
/// `insert` returns a `u32` **handle** that stays valid until the edge is
/// removed; resolving a handle with [`EdgeStore::get`] is the hot-path
/// operation and must be cheap. The two implementations are
/// [`EdgeSlotMap`] (dense slots, production) and [`HashEdgeStore`] (hash
/// lookups, kept as the benchmark baseline).
pub trait EdgeStore<T>: Default {
    /// Whether this store represents the **seed baseline**: structures
    /// instantiated over it also keep the seed's hot-path *policies*
    /// (global aggregate refreshes, rescan-on-merge, splay-based entry
    /// refreshes, an edge lookup per adjacency entry scanned) so that
    /// benchmarks compare the production hot path against the faithful
    /// pre-arena implementation, not against a hybrid that already received
    /// every shared improvement. Results are identical either way — only
    /// the work schedule differs.
    const SEED_BASELINE: bool = false;

    /// Register `id`, returning its handle.
    ///
    /// # Panics
    /// Panics if `id` is already present.
    fn insert(&mut self, id: EdgeId, value: T) -> u32;

    /// Unregister `id`, returning its value if it was present.
    fn remove(&mut self, id: EdgeId) -> Option<T>;

    /// The handle of a live id.
    fn handle_of(&self, id: EdgeId) -> Option<u32>;

    /// The id owning `handle`.
    fn id_of(&self, handle: u32) -> EdgeId;

    /// Resolve a live handle (hot path).
    ///
    /// # Panics
    /// May panic (or return stale data only for [`HashEdgeStore`]: never) if
    /// the handle was freed.
    fn get(&self, handle: u32) -> &T;

    /// Mutable handle resolution.
    fn get_mut(&mut self, handle: u32) -> &mut T;

    /// Lookup by id.
    fn get_by_id(&self, id: EdgeId) -> Option<&T>;

    /// Mutable lookup by id.
    fn get_mut_by_id(&mut self, id: EdgeId) -> Option<&mut T>;

    /// Number of live entries.
    fn len(&self) -> usize;

    /// Whether the store is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Visit every live entry (order unspecified).
    fn for_each(&self, f: impl FnMut(EdgeId, &T));
}

/// Slot-map implementation of [`EdgeStore`] (see module docs).
///
/// Storage is fully flattened: the owning id and the value of slot `h` live
/// in two parallel vectors, so resolving a live handle is a single indexed
/// load with no tag to test (a vacant slot is marked by [`EdgeId::NONE`] in
/// `ids` and retains a stale value in `vals`, which is why `T: Copy`).
#[derive(Clone, Debug)]
pub struct EdgeSlotMap<T> {
    index: EdgeIdIndex,
    ids: Vec<EdgeId>,
    vals: Vec<T>,
    free: Vec<u32>,
}

impl<T> Default for EdgeSlotMap<T> {
    fn default() -> Self {
        EdgeSlotMap {
            index: EdgeIdIndex::new(),
            ids: Vec::new(),
            vals: Vec::new(),
            free: Vec::new(),
        }
    }
}

impl<T: Copy> EdgeSlotMap<T> {
    /// Borrow the raw slot storage for serialization: the owning id of every
    /// slot (vacant slots are [`EdgeId::NONE`]), the parallel value lane, and
    /// the free list. Together with [`EdgeSlotMap::from_raw_parts`] this
    /// round-trips the map *exactly* — including handle values and the order
    /// in which freed slots will be recycled.
    pub fn raw_parts(&self) -> (&[EdgeId], &[T], &[u32]) {
        (&self.ids, &self.vals, &self.free)
    }

    /// Rebuild a slot map from the parts of [`EdgeSlotMap::raw_parts`]. The
    /// paged index is reconstructed from `ids`; the free list is validated
    /// against the vacant slots (every vacant slot on it exactly once), so a
    /// corrupted or hand-rolled snapshot is rejected instead of producing a
    /// map that double-allocates handles.
    pub fn from_raw_parts(ids: Vec<EdgeId>, vals: Vec<T>, free: Vec<u32>) -> Result<Self, String> {
        if ids.len() != vals.len() {
            return Err(format!(
                "slot map lanes disagree: {} ids vs {} values",
                ids.len(),
                vals.len()
            ));
        }
        let mut index = EdgeIdIndex::new();
        let mut vacant = 0usize;
        for (slot, id) in ids.iter().enumerate() {
            if id.is_none() {
                vacant += 1;
            } else if index.set(*id, slot as u32).is_some() {
                return Err(format!("edge {id:?} owns two slots"));
            }
        }
        if free.len() != vacant {
            return Err(format!(
                "free list length {} does not match {vacant} vacant slots",
                free.len()
            ));
        }
        let mut seen = vec![false; ids.len()];
        for &slot in &free {
            match ids.get(slot as usize) {
                Some(id) if id.is_none() && !seen[slot as usize] => seen[slot as usize] = true,
                _ => return Err(format!("free list names occupied or repeated slot {slot}")),
            }
        }
        Ok(EdgeSlotMap {
            index,
            ids,
            vals,
            free,
        })
    }
}

impl<T: Copy> EdgeStore<T> for EdgeSlotMap<T> {
    fn insert(&mut self, id: EdgeId, value: T) -> u32 {
        let slot = match self.free.pop() {
            Some(s) => {
                debug_assert!(self.ids[s as usize].is_none());
                self.ids[s as usize] = id;
                self.vals[s as usize] = value;
                s
            }
            None => {
                self.ids.push(id);
                self.vals.push(value);
                (self.ids.len() - 1) as u32
            }
        };
        let prev = self.index.set(id, slot);
        assert!(prev.is_none(), "edge {id:?} already registered");
        slot
    }

    fn remove(&mut self, id: EdgeId) -> Option<T> {
        let slot = self.index.remove(id)?;
        debug_assert_eq!(self.ids[slot as usize], id);
        self.ids[slot as usize] = EdgeId::NONE;
        self.free.push(slot);
        Some(self.vals[slot as usize])
    }

    #[inline]
    fn handle_of(&self, id: EdgeId) -> Option<u32> {
        self.index.get(id)
    }

    #[inline]
    fn id_of(&self, handle: u32) -> EdgeId {
        debug_assert!(!self.ids[handle as usize].is_none(), "stale edge handle");
        self.ids[handle as usize]
    }

    #[inline]
    fn get(&self, handle: u32) -> &T {
        debug_assert!(!self.ids[handle as usize].is_none(), "stale edge handle");
        &self.vals[handle as usize]
    }

    #[inline]
    fn get_mut(&mut self, handle: u32) -> &mut T {
        debug_assert!(!self.ids[handle as usize].is_none(), "stale edge handle");
        &mut self.vals[handle as usize]
    }

    #[inline]
    fn get_by_id(&self, id: EdgeId) -> Option<&T> {
        self.index.get(id).map(|s| &self.vals[s as usize])
    }

    #[inline]
    fn get_mut_by_id(&mut self, id: EdgeId) -> Option<&mut T> {
        let slot = self.index.get(id)?;
        Some(&mut self.vals[slot as usize])
    }

    #[inline]
    fn len(&self) -> usize {
        self.index.len()
    }

    fn for_each(&self, mut f: impl FnMut(EdgeId, &T)) {
        for (id, val) in self.ids.iter().zip(&self.vals) {
            if !id.is_none() {
                f(*id, val);
            }
        }
    }
}

/// `HashMap`-backed implementation of [`EdgeStore`], kept as the map-based
/// comparison baseline for the benchmark suite. The "handle" is the raw edge
/// id, so **every** handle resolution performs a hash lookup — exactly the
/// bookkeeping cost the arena layer exists to remove.
#[derive(Clone, Debug)]
pub struct HashEdgeStore<T> {
    map: HashMap<EdgeId, T>,
}

impl<T> Default for HashEdgeStore<T> {
    fn default() -> Self {
        HashEdgeStore {
            map: HashMap::new(),
        }
    }
}

impl<T> EdgeStore<T> for HashEdgeStore<T> {
    const SEED_BASELINE: bool = true;

    fn insert(&mut self, id: EdgeId, value: T) -> u32 {
        let prev = self.map.insert(id, value);
        assert!(prev.is_none(), "edge {id:?} already registered");
        id.0
    }

    fn remove(&mut self, id: EdgeId) -> Option<T> {
        self.map.remove(&id)
    }

    #[inline]
    fn handle_of(&self, id: EdgeId) -> Option<u32> {
        if self.map.contains_key(&id) {
            Some(id.0)
        } else {
            None
        }
    }

    #[inline]
    fn id_of(&self, handle: u32) -> EdgeId {
        EdgeId(handle)
    }

    #[inline]
    fn get(&self, handle: u32) -> &T {
        &self.map[&EdgeId(handle)]
    }

    #[inline]
    fn get_mut(&mut self, handle: u32) -> &mut T {
        self.map
            .get_mut(&EdgeId(handle))
            .expect("stale edge handle")
    }

    #[inline]
    fn get_by_id(&self, id: EdgeId) -> Option<&T> {
        self.map.get(&id)
    }

    #[inline]
    fn get_mut_by_id(&mut self, id: EdgeId) -> Option<&mut T> {
        self.map.get_mut(&id)
    }

    #[inline]
    fn len(&self) -> usize {
        self.map.len()
    }

    fn for_each(&self, mut f: impl FnMut(EdgeId, &T)) {
        for (id, value) in &self.map {
            f(*id, value);
        }
    }
}

/// Convenience: collect the live edges of a store whose value type embeds an
/// [`Edge`], sorted by id (used by `forest_edges()`-style queries).
pub fn sorted_ids_where<T>(
    store: &impl EdgeStore<T>,
    mut keep: impl FnMut(&T) -> bool,
) -> Vec<EdgeId> {
    let mut out = Vec::new();
    store.for_each(|id, value| {
        if keep(value) {
            out.push(id);
        }
    });
    out.sort_unstable();
    out
}

/// Convenience: the live edges of a store, projected through `edge_of`.
pub fn edges_where<T>(
    store: &impl EdgeStore<T>,
    mut keep: impl FnMut(&T) -> bool,
    mut edge_of: impl FnMut(&T) -> Edge,
) -> Vec<Edge> {
    let mut out = Vec::new();
    store.for_each(|_, value| {
        if keep(value) {
            out.push(edge_of(value));
        }
    });
    out.sort_unstable_by_key(|e| e.id);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::degree::AUX_EDGE_BASE;

    #[test]
    fn slot_map_interns_and_reuses_slots() {
        let mut m: EdgeSlotMap<&'static str> = EdgeSlotMap::default();
        let a = m.insert(EdgeId(0), "a");
        let b = m.insert(EdgeId(7), "b");
        assert_ne!(a, b);
        assert_eq!(m.len(), 2);
        assert_eq!(m.get(a), &"a");
        assert_eq!(m.get_by_id(EdgeId(7)), Some(&"b"));
        assert_eq!(m.handle_of(EdgeId(7)), Some(b));
        assert_eq!(m.id_of(b), EdgeId(7));

        assert_eq!(m.remove(EdgeId(0)), Some("a"));
        assert_eq!(m.handle_of(EdgeId(0)), None);
        // The freed slot is recycled for the next insertion.
        let c = m.insert(EdgeId(12), "c");
        assert_eq!(c, a);
        assert_eq!(m.get(c), &"c");
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn slot_map_handles_sparse_aux_ids_without_dense_allocation() {
        let mut m: EdgeSlotMap<u64> = EdgeSlotMap::default();
        m.insert(EdgeId(3), 30);
        m.insert(EdgeId(AUX_EDGE_BASE), 40);
        m.insert(EdgeId(AUX_EDGE_BASE + 1), 50);
        assert_eq!(m.get_by_id(EdgeId(AUX_EDGE_BASE)), Some(&40));
        assert_eq!(m.len(), 3);
        // Slot storage stays dense even though the id space is not.
        assert!(m.ids.len() <= 3);
        assert_eq!(m.remove(EdgeId(AUX_EDGE_BASE)), Some(40));
        assert_eq!(m.get_by_id(EdgeId(AUX_EDGE_BASE)), None);
        assert_eq!(m.get_by_id(EdgeId(AUX_EDGE_BASE + 1)), Some(&50));
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn double_insert_panics() {
        let mut m: EdgeSlotMap<u8> = EdgeSlotMap::default();
        m.insert(EdgeId(1), 1);
        m.insert(EdgeId(1), 2);
    }

    #[test]
    fn hash_store_mirrors_slot_map_behaviour() {
        let mut s: EdgeSlotMap<i32> = EdgeSlotMap::default();
        let mut h: HashEdgeStore<i32> = HashEdgeStore::default();
        for i in 0..50u32 {
            s.insert(EdgeId(i), i as i32 * 3);
            h.insert(EdgeId(i), i as i32 * 3);
        }
        for i in (0..50u32).step_by(3) {
            assert_eq!(s.remove(EdgeId(i)), h.remove(EdgeId(i)));
        }
        assert_eq!(s.len(), h.len());
        for i in 0..50u32 {
            assert_eq!(s.get_by_id(EdgeId(i)), h.get_by_id(EdgeId(i)));
            let sh = s.handle_of(EdgeId(i));
            let hh = h.handle_of(EdgeId(i));
            assert_eq!(sh.is_some(), hh.is_some());
            if let (Some(sh), Some(hh)) = (sh, hh) {
                assert_eq!(s.get(sh), h.get(hh));
            }
        }
        assert_eq!(
            sorted_ids_where(&s, |_| true),
            sorted_ids_where(&h, |_| true)
        );
    }

    #[test]
    fn id_index_set_get_remove() {
        let mut idx = EdgeIdIndex::new();
        assert!(idx.is_empty());
        assert_eq!(idx.set(EdgeId(5), 10), None);
        assert_eq!(idx.set(EdgeId(5), 11), Some(10));
        assert_eq!(idx.get(EdgeId(5)), Some(11));
        assert_eq!(idx.get(EdgeId(6)), None);
        assert_eq!(idx.len(), 1);
        assert_eq!(idx.remove(EdgeId(5)), Some(11));
        assert_eq!(idx.remove(EdgeId(5)), None);
        assert!(idx.is_empty());
    }
}
