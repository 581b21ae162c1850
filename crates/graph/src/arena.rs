//! Dense, index-based edge bookkeeping — the arena layer under every hot
//! path in the workspace.
//!
//! The dynamic structures look edges up by [`EdgeId`] on every primitive of
//! every update. Routing those lookups through hash or tree maps puts
//! hashing and pointer-chasing on the hottest loops, so this module provides
//! the flat alternatives:
//!
//! * [`EdgeIdIndex`] — a paged `EdgeId -> u32` index. Pages are allocated on
//!   demand, so a sparse id region (a few ids far above the rest) costs one
//!   page, not the whole dense range. A lookup is two array loads and never
//!   hashes.
//! * [`EdgeSlotMap`] — a slot map that **interns** each live [`EdgeId`] into
//!   a dense `u32` slot (with a free-list, so slot storage stays proportional
//!   to the number of *live* edges no matter how many ids history has
//!   consumed). The slot is a stable handle for the lifetime of the edge:
//!   callers store handles (the chunked forest's Euler-tour arc tails) and
//!   resolve them with a single indexed load, skipping even the id-to-slot
//!   translation.

use crate::graph::Edge;
use crate::ids::EdgeId;

/// Sentinel handle ("null pointer") used by the arena layer.
pub const NO_HANDLE: u32 = u32::MAX;

// 64Ki-entry pages keep the page directory tiny (64Ki entries even for ids
// near `u32::MAX`) while a page is only 256KiB.
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

/// Slot map interning live [`EdgeId`]s into dense `u32` handles (see
/// module docs). A handle stays valid until its edge is removed; resolving
/// it with [`EdgeSlotMap::get`] is the hot-path operation.
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
    /// Register `id`, returning its handle.
    ///
    /// # Panics
    /// Panics if `id` is already present.
    pub fn insert(&mut self, id: EdgeId, value: T) -> u32 {
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

    /// Unregister `id`, returning its value if it was present. Its slot is
    /// recycled by the next insertion.
    pub fn remove(&mut self, id: EdgeId) -> Option<T> {
        let slot = self.index.remove(id)?;
        debug_assert_eq!(self.ids[slot as usize], id);
        self.ids[slot as usize] = EdgeId::NONE;
        self.free.push(slot);
        Some(self.vals[slot as usize])
    }

    /// The handle of a live id.
    #[inline]
    pub fn handle_of(&self, id: EdgeId) -> Option<u32> {
        self.index.get(id)
    }

    /// The id owning a live handle.
    #[inline]
    pub fn id_of(&self, handle: u32) -> EdgeId {
        debug_assert!(!self.ids[handle as usize].is_none(), "stale edge handle");
        self.ids[handle as usize]
    }

    /// Resolve a live handle (hot path).
    #[inline]
    pub fn get(&self, handle: u32) -> &T {
        debug_assert!(!self.ids[handle as usize].is_none(), "stale edge handle");
        &self.vals[handle as usize]
    }

    /// Mutable handle resolution.
    #[inline]
    pub fn get_mut(&mut self, handle: u32) -> &mut T {
        debug_assert!(!self.ids[handle as usize].is_none(), "stale edge handle");
        &mut self.vals[handle as usize]
    }

    /// Lookup by id.
    #[inline]
    pub fn get_by_id(&self, id: EdgeId) -> Option<&T> {
        self.index.get(id).map(|s| &self.vals[s as usize])
    }

    /// Number of live entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether no entry is live.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Visit every live entry in slot order.
    pub fn for_each(&self, mut f: impl FnMut(EdgeId, &T)) {
        for (id, val) in self.ids.iter().zip(&self.vals) {
            if !id.is_none() {
                f(*id, val);
            }
        }
    }
}

/// Convenience: the ids of the live entries that pass `keep`, sorted (used
/// by `forest_edges()`-style queries).
pub fn sorted_ids_where<T: Copy>(
    store: &EdgeSlotMap<T>,
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
pub fn edges_where<T: Copy>(
    store: &EdgeSlotMap<T>,
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

    /// Ids in an auxiliary region far above the dense ones still intern
    /// into dense slots.
    #[test]
    fn slot_map_handles_sparse_aux_ids_without_dense_allocation() {
        const HIGH: u32 = 3_000_000_000;
        let mut m: EdgeSlotMap<u64> = EdgeSlotMap::default();
        m.insert(EdgeId(3), 30);
        m.insert(EdgeId(HIGH), 40);
        m.insert(EdgeId(HIGH + 1), 50);
        assert_eq!(m.get_by_id(EdgeId(HIGH)), Some(&40));
        assert_eq!(m.len(), 3);
        // Slot storage stays dense even though the id space is not.
        assert!(m.ids.len() <= 3);
        assert_eq!(m.remove(EdgeId(HIGH)), Some(40));
        assert_eq!(m.get_by_id(EdgeId(HIGH)), None);
        assert_eq!(m.get_by_id(EdgeId(HIGH + 1)), Some(&50));
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn double_insert_panics() {
        let mut m: EdgeSlotMap<u8> = EdgeSlotMap::default();
        m.insert(EdgeId(1), 1);
        m.insert(EdgeId(1), 2);
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
