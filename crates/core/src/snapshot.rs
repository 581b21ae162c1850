//! Flat, serializable images of the production dynamic-MSF structures.
//!
//! The SoA refactors left every piece of structure state in contiguous
//! banks (`ChunkArena`, `RowBank`, the slot-arena edge store, a few dense
//! per-vertex arrays), so a checkpoint is a verbatim dump of those banks
//! plus a handful of scalars — no graph traversal, no re-normalization.
//! [`MsfImage`] is that dump in memory; the `pdmsf-persist` crate turns it
//! into length-prefixed, CRC-guarded sections on disk.
//!
//! **What is and is not serialized.** Every bank that influences future
//! behaviour round-trips exactly, *free lists included* (recycling order is
//! behaviour: an imported structure must allocate the same chunk ids, slab
//! handles and edge-store slots the original would have). Three things are
//! deliberately rebuilt or reset instead:
//!
//! * the **link-cut tree** is reconstructed by linking the checkpointed
//!   tree edges in id order — forest edges never form a cycle, and every
//!   query the LCT answers (`connected`, `path_max`) is independent of its
//!   splay shape because `WKey`s are unique;
//! * the **cost meter** starts fresh (it is observability, not state);
//! * the **scratch buffers** restore empty — their contents never survive
//!   an operation.
//!
//! Import ([`crate::SeqDynamicMsf::from_image`]) validates structural
//! consistency (lane lengths, offset monotonicity, free-list ↔ liveness
//! agreement, tree-edge count and forest weight against the rebuilt LCT)
//! and returns `Err` instead of a structure that would misbehave later.

use crate::forest::{
    AdjEntry, ChunkArena, ChunkArenaImage, ChunkedEulerForest, CostModel, EdgeRec, RowBank,
    RowBankImage,
};
use pdmsf_graph::{Edge, EdgeId, EdgeSlotMap, VertexId, Weight};
use pdmsf_pram::CostMeter;

/// Sentinel shared with the forest module.
use crate::forest::NONE;

/// The flat image of a [`crate::SeqDynamicMsf`]:
/// scalar configuration, the slot-arena edge store as primitive lanes
/// (vacant slots written as canonical zeros so identical states produce
/// identical bytes), the dense per-vertex arrays, the chunk/occurrence and
/// row banks, and the forest-level bookkeeping scalars.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MsfImage {
    /// Chunk parameter `K`.
    pub k: u64,
    /// Cost model (0 = sequential, 1 = EREW).
    pub model: u8,
    /// Kernel execution mode. Written as 0 (kernels inline on the calling
    /// thread). Images from structures that fanned kernels out over the
    /// worker pool carry 1 and import as inline, since the mode never
    /// changed results; anything larger is refused.
    pub exec: u8,
    /// Edge-store slot owner ids ([`EdgeId::NONE`] marks a vacant slot).
    pub edge_ids: Vec<u32>,
    /// First endpoint per slot (0 for vacant slots).
    pub edge_u: Vec<u32>,
    /// Second endpoint per slot (0 for vacant slots).
    pub edge_v: Vec<u32>,
    /// Raw weight per slot (0 for vacant slots).
    pub edge_weight: Vec<i64>,
    /// Forward-arc tail occurrence per slot (`NONE` = not a tree edge).
    pub edge_fwd: Vec<u32>,
    /// Backward-arc tail occurrence per slot.
    pub edge_bwd: Vec<u32>,
    /// Edge-store free list, in recycling order.
    pub edge_free: Vec<u32>,
    /// Per-vertex ranges into `adj_data` (`n + 1` entries, starts at 0).
    pub adj_offsets: Vec<u64>,
    /// Concatenated adjacency lists (edge-store handles; import checks each
    /// names a live edge touching its vertex, listed once per endpoint).
    pub adj_data: Vec<u32>,
    /// Per-vertex ranges into `vocc_data`.
    pub vocc_offsets: Vec<u64>,
    /// Concatenated per-vertex occurrence lists.
    pub vocc_data: Vec<u32>,
    /// Principal occurrence per vertex.
    pub principal: Vec<u32>,
    /// Chunk of each vertex's principal copy.
    pub vertex_chunk: Vec<u32>,
    /// The chunk + occurrence banks.
    pub chunks: ChunkArenaImage,
    /// The contiguous `CAdj` row store.
    pub rows: RowBankImage,
    /// Chunk slot (`id_c`) owner table.
    pub slot_owner: Vec<u32>,
    /// Retired chunk slots, in recycling order.
    pub slot_free: Vec<u32>,
    /// Chunks queued for Invariant-1 fix-up (normally empty at a batch
    /// boundary, but serialized so a mid-operation image stays faithful).
    pub touched: Vec<u32>,
    /// Number of forest (tree) edges.
    pub num_tree_edges: u64,
    /// Total forest weight (`-inf` summed as 0).
    pub forest_weight: i128,
}

/// Flatten ragged lists into an offsets + data pair.
fn flatten<L: IntoIterator<Item = u32>>(
    lists: impl ExactSizeIterator<Item = L>,
) -> (Vec<u64>, Vec<u32>) {
    let mut offsets = Vec::with_capacity(lists.len() + 1);
    let mut data = Vec::new();
    offsets.push(0u64);
    for list in lists {
        data.extend(list);
        offsets.push(data.len() as u64);
    }
    (offsets, data)
}

/// Rebuild ragged lists from an offsets + data pair, validating coverage.
fn unflatten(what: &str, offsets: &[u64], data: &[u32]) -> Result<Vec<Vec<u32>>, String> {
    if offsets.first() != Some(&0) || offsets.last().copied() != Some(data.len() as u64) {
        return Err(format!("{what} offsets do not cover the data"));
    }
    let mut lists = Vec::with_capacity(offsets.len().saturating_sub(1));
    for w in offsets.windows(2) {
        let (lo, hi) = (w[0] as usize, w[1] as usize);
        if hi < lo || hi > data.len() {
            return Err(format!("{what} offsets are not monotone"));
        }
        lists.push(data[lo..hi].to_vec());
    }
    Ok(lists)
}

/// Dump a production forest plus the structure's bookkeeping scalars into
/// an image.
pub(crate) fn forest_to_image(
    forest: &ChunkedEulerForest,
    num_tree_edges: usize,
    forest_weight: i128,
) -> MsfImage {
    let (ids, vals, free) = forest.edges.raw_parts();
    let m = ids.len();
    let mut edge_u = Vec::with_capacity(m);
    let mut edge_v = Vec::with_capacity(m);
    let mut edge_weight = Vec::with_capacity(m);
    let mut edge_fwd = Vec::with_capacity(m);
    let mut edge_bwd = Vec::with_capacity(m);
    for (id, rec) in ids.iter().zip(vals) {
        if id.is_none() {
            // Canonical vacant slot: a freed slot retains a stale record in
            // memory, which must not leak into the checkpoint (identical
            // states would otherwise produce different bytes).
            edge_u.push(0);
            edge_v.push(0);
            edge_weight.push(0);
            edge_fwd.push(NONE);
            edge_bwd.push(NONE);
        } else {
            edge_u.push(rec.edge.u.0);
            edge_v.push(rec.edge.v.0);
            edge_weight.push(rec.edge.weight.raw());
            edge_fwd.push(rec.fwd);
            edge_bwd.push(rec.bwd);
        }
    }
    // The image stores adjacency as edge-store handles; import rebuilds the
    // inline entries from them.
    let (adj_offsets, adj_data) = flatten(forest.adj.iter().map(|list| {
        list.iter().map(|a| {
            forest
                .edges
                .handle_of(a.id)
                .expect("adjacency entries name live edges")
        })
    }));
    let (vocc_offsets, vocc_data) = flatten(forest.vertex_occs.iter().map(|l| l.iter().copied()));
    MsfImage {
        k: forest.k as u64,
        model: match forest.model {
            CostModel::Sequential => 0,
            CostModel::Erew => 1,
        },
        exec: 0,
        edge_ids: ids.iter().map(|id| id.0).collect(),
        edge_u,
        edge_v,
        edge_weight,
        edge_fwd,
        edge_bwd,
        edge_free: free.to_vec(),
        adj_offsets,
        adj_data,
        vocc_offsets,
        vocc_data,
        principal: forest.principal.clone(),
        vertex_chunk: forest.vertex_chunk.clone(),
        chunks: forest.chunks.to_image(),
        rows: forest.rows.to_image(),
        slot_owner: forest.slot_owner.clone(),
        slot_free: forest.slot_free.clone(),
        touched: forest.touched.clone(),
        num_tree_edges: num_tree_edges as u64,
        forest_weight,
    }
}

/// Rebuild a production forest from an image (everything but the bookkeeping
/// scalars, which the caller cross-validates).
pub(crate) fn forest_from_image(image: &MsfImage) -> Result<ChunkedEulerForest, String> {
    let m = image.edge_ids.len();
    if [
        image.edge_u.len(),
        image.edge_v.len(),
        image.edge_weight.len(),
        image.edge_fwd.len(),
        image.edge_bwd.len(),
    ]
    .iter()
    .any(|&l| l != m)
    {
        return Err("msf image edge lanes disagree in length".to_string());
    }
    let mut vals = Vec::with_capacity(m);
    for i in 0..m {
        vals.push(EdgeRec {
            edge: Edge {
                id: EdgeId(image.edge_ids[i]),
                u: VertexId(image.edge_u[i]),
                v: VertexId(image.edge_v[i]),
                weight: Weight::from_raw(image.edge_weight[i]),
            },
            fwd: image.edge_fwd[i],
            bwd: image.edge_bwd[i],
        });
    }
    let edges = EdgeSlotMap::from_raw_parts(
        image.edge_ids.iter().map(|&id| EdgeId(id)).collect(),
        vals,
        image.edge_free.clone(),
    )
    .map_err(|e| format!("msf image edge store: {e}"))?;
    let adj = unflatten("msf image adjacency", &image.adj_offsets, &image.adj_data)?;
    let adj = adjacency_from_handles(&edges, &adj)?;
    let vertex_occs = unflatten(
        "msf image vertex-occurrence",
        &image.vocc_offsets,
        &image.vocc_data,
    )?;
    let n = adj.len();
    if vertex_occs.len() != n || image.principal.len() != n || image.vertex_chunk.len() != n {
        return Err("msf image per-vertex lanes disagree in length".to_string());
    }
    let chunks = ChunkArena::from_image(&image.chunks).map_err(|e| format!("msf image: {e}"))?;
    let rows = RowBank::from_image(&image.rows).map_err(|e| format!("msf image: {e}"))?;
    let num_chunks = chunks.len() as u32;
    for &c in image.touched.iter().chain(&image.slot_owner) {
        if c != NONE && c >= num_chunks {
            return Err(format!("msf image names out-of-range chunk {c}"));
        }
    }
    let mut seen = vec![false; image.slot_owner.len()];
    for &s in &image.slot_free {
        match seen.get_mut(s as usize) {
            Some(x) if !*x => *x = true,
            _ => return Err(format!("msf image slot free list names invalid slot {s}")),
        }
    }
    if image.k < 2 {
        return Err("msf image chunk parameter below 2".to_string());
    }
    if image.exec > 1 {
        return Err(format!("msf image has unknown exec mode {}", image.exec));
    }
    Ok(ChunkedEulerForest {
        k: image.k as usize,
        model: match image.model {
            0 => CostModel::Sequential,
            1 => CostModel::Erew,
            other => return Err(format!("msf image has unknown cost model {other}")),
        },
        meter: CostMeter::new(),
        edges,
        adj,
        vertex_occs,
        principal: image.principal.clone(),
        vertex_chunk: image.vertex_chunk.clone(),
        chunks,
        rows,
        slot_owner: image.slot_owner.clone(),
        slot_free: image.slot_free.clone(),
        scratch_row: Vec::new(),
        scratch_row2: Vec::new(),
        scratch_order: Vec::new(),
        scratch_dirty: Vec::new(),
        scratch_slots: Vec::new(),
        touched: image.touched.clone(),
        stale: Vec::new(),
    })
}

/// Rebuild the inline adjacency entries from an image's per-vertex handle
/// lists. Every handle must name a live slot whose edge touches the list's
/// vertex, and every live edge must be listed exactly once at each endpoint
/// (once in all for a self-loop); anything else is refused.
fn adjacency_from_handles(
    edges: &EdgeSlotMap<EdgeRec>,
    handles: &[Vec<u32>],
) -> Result<Vec<Vec<AdjEntry>>, String> {
    let (ids, vals, _) = edges.raw_parts();
    // Per slot: bit 0 = listed at `u`, bit 1 = listed at `v`.
    let mut listed = vec![0u8; ids.len()];
    let mut adj = Vec::with_capacity(handles.len());
    for (v, list) in handles.iter().enumerate() {
        let v = VertexId(v as u32);
        let mut entries = Vec::with_capacity(list.len());
        for &h in list {
            let e = match ids.get(h as usize) {
                Some(id) if !id.is_none() => vals[h as usize].edge,
                _ => {
                    return Err(format!(
                        "msf image adjacency of vertex {} names dead or out-of-range handle {h}",
                        v.0
                    ))
                }
            };
            let bit = if v == e.u {
                1
            } else if v == e.v {
                2
            } else {
                return Err(format!(
                    "msf image adjacency of vertex {} holds edge {} of {}–{}",
                    v.0, e.id.0, e.u.0, e.v.0
                ));
            };
            if listed[h as usize] & bit != 0 {
                return Err(format!(
                    "msf image adjacency of vertex {} lists edge {} twice",
                    v.0, e.id.0
                ));
            }
            listed[h as usize] |= bit;
            entries.push(AdjEntry::new(e, v));
        }
        adj.push(entries);
    }
    for (h, id) in ids.iter().enumerate() {
        if id.is_none() {
            continue;
        }
        let e = vals[h].edge;
        let want = if e.u == e.v { 1 } else { 3 };
        if listed[h] != want {
            return Err(format!(
                "msf image adjacency misses edge {} at an endpoint",
                e.id.0
            ));
        }
    }
    Ok(adj)
}

#[cfg(test)]
mod tests {
    use crate::{CostModel, SeqDynamicMsf};
    use pdmsf_graph::{DynamicMsf, Edge, EdgeId, VertexId, Weight};

    /// An EREW-metered structure over `n` vertices at chunk parameter `k`.
    fn erew(n: usize, k: usize) -> SeqDynamicMsf {
        SeqDynamicMsf::with_parameters(n, k, CostModel::Erew)
    }

    fn e(id: u32, u: u32, v: u32, w: i64) -> Edge {
        Edge {
            id: EdgeId(id),
            u: VertexId(u),
            v: VertexId(v),
            weight: Weight::new(w),
        }
    }

    #[test]
    fn msf_image_round_trips_and_future_behaviour_matches() {
        let mut orig = SeqDynamicMsf::with_parameters(24, 3, CostModel::Sequential);
        let mut next_id = 0u32;
        // A mixed history: ring + chords + deletions, enough to force chunk
        // splits/merges, slab churn and edge-slot recycling.
        for i in 0..24u32 {
            orig.insert(e(next_id, i, (i + 1) % 24, (37 * i % 19) as i64));
            next_id += 1;
        }
        for i in 0..12u32 {
            orig.insert(e(next_id, i, (i + 7) % 24, (5 * i % 23) as i64 - 4));
            next_id += 1;
        }
        for id in [3u32, 9, 14, 25, 30] {
            orig.delete(EdgeId(id));
        }
        orig.validate();

        let image = orig.to_image();
        let mut restored = SeqDynamicMsf::from_image(&image).expect("round trip");
        restored.validate();
        assert_eq!(restored.forest_weight(), orig.forest_weight());
        assert_eq!(restored.num_forest_edges(), orig.num_forest_edges());
        assert_eq!(restored.forest_edges(), orig.forest_edges());
        assert_eq!(restored.chunk_parameter(), orig.chunk_parameter());

        // Identical *future* behaviour, including the recycled edge slots
        // and connectivity answers.
        for i in 0..12u32 {
            let a = orig.insert(e(next_id, 2 * i % 24, (3 * i + 1) % 24, i as i64));
            let b = restored.insert(e(next_id, 2 * i % 24, (3 * i + 1) % 24, i as i64));
            assert_eq!(a, b);
            next_id += 1;
        }
        for id in [0u32, 17, 36, 40] {
            assert_eq!(orig.delete(EdgeId(id)), restored.delete(EdgeId(id)));
        }
        for u in 0..24u32 {
            assert_eq!(
                orig.connected(VertexId(u), VertexId((u + 11) % 24)),
                restored.connected(VertexId(u), VertexId((u + 11) % 24))
            );
        }
        orig.validate();
        restored.validate();
        assert_eq!(restored.forest_weight(), orig.forest_weight());
        assert_eq!(orig.to_image(), restored.to_image());
    }

    #[test]
    fn msf_image_import_rejects_inconsistent_scalars() {
        let mut m = erew(8, 2);
        for i in 0..6u32 {
            m.insert(e(i, i, i + 1, i as i64));
        }
        let good = m.to_image();
        assert!(SeqDynamicMsf::from_image(&good).is_ok());

        let mut bad = good.clone();
        bad.num_tree_edges += 1;
        assert!(SeqDynamicMsf::from_image(&bad).is_err());

        let mut bad = good.clone();
        bad.forest_weight -= 1;
        assert!(SeqDynamicMsf::from_image(&bad).is_err());

        let mut bad = good.clone();
        bad.principal.pop();
        assert!(SeqDynamicMsf::from_image(&bad).is_err());

        let mut bad = good;
        bad.model = 9;
        assert!(SeqDynamicMsf::from_image(&bad).is_err());
    }

    #[test]
    fn msf_image_import_rejects_bad_adjacency() {
        let mut m = erew(8, 2);
        for i in 0..6u32 {
            m.insert(e(i, i, i + 1, i as i64));
        }
        m.insert(e(6, 3, 3, 1));
        let good = m.to_image();
        assert!(SeqDynamicMsf::from_image(&good).is_ok());

        // A handle past the edge store.
        let mut bad = good.clone();
        bad.adj_data[0] = good.edge_ids.len() as u32;
        let err = SeqDynamicMsf::from_image(&bad).err().expect("refused");
        assert!(err.contains("adjacency"), "{err}");

        // A handle taken from another vertex's list: vertex 0's only edge
        // (0–1) replaced by vertex 5's last edge (5–6), which misses 0.
        let mut bad = good.clone();
        let v5_last = good.adj_offsets[6] as usize - 1;
        bad.adj_data[good.adj_offsets[0] as usize] = good.adj_data[v5_last];
        let err = SeqDynamicMsf::from_image(&bad).err().expect("refused");
        assert!(err.contains("adjacency"), "{err}");

        // An edge listed twice at one endpoint and missing at the other:
        // vertex 1's entry for edge 0–1 replaced by its entry for 1–2.
        let mut bad = good.clone();
        let v1 = good.adj_offsets[1] as usize;
        bad.adj_data[v1] = good.adj_data[v1 + 1];
        assert!(SeqDynamicMsf::from_image(&bad).is_err());

        // A self-loop listed twice at its vertex.
        let mut bad = good;
        let v3 = bad.adj_offsets[3] as usize;
        let loop_at = (v3..bad.adj_offsets[4] as usize)
            .find(|&i| bad.edge_ids[bad.adj_data[i] as usize] == 6)
            .expect("self-loop listed at vertex 3");
        let other = if loop_at == v3 { v3 + 1 } else { v3 };
        bad.adj_data[other] = bad.adj_data[loop_at];
        assert!(SeqDynamicMsf::from_image(&bad).is_err());
    }

    /// Images are written with exec mode 0; images written while engines
    /// fanned kernels out over the pool carry 1 and still import.
    #[test]
    fn msf_image_exec_mode_is_written_as_zero_and_legacy_one_imports() {
        let mut m = erew(8, 3);
        for i in 0..6u32 {
            m.insert(e(i, i, i + 1, 7 - i as i64));
        }
        let image = m.to_image();
        assert_eq!(image.exec, 0);

        let mut legacy = image.clone();
        legacy.exec = 1;
        let mut restored = SeqDynamicMsf::from_image(&legacy).expect("exec 1 imports");
        restored.validate();
        assert_eq!(restored.forest_edges(), m.forest_edges());
        assert_eq!(restored.chunk_parameter(), 3);
        // Re-exported images normalise the mode and are otherwise identical.
        assert_eq!(restored.to_image(), image);
        assert_eq!(m.delete(EdgeId(2)), restored.delete(EdgeId(2)));
    }

    #[test]
    fn msf_image_import_refuses_unknown_exec_modes() {
        let mut m = erew(4, 2);
        m.insert(e(0, 0, 1, 1));
        for exec in [2u8, 7, u8::MAX] {
            let mut bad = m.to_image();
            bad.exec = exec;
            let err = SeqDynamicMsf::from_image(&bad).err().expect("refused");
            assert!(err.contains("exec mode"), "{err}");
        }
    }
}
