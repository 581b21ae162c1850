//! Checkpointing: flatten an [`Engine`] or a [`ShardedService`] into the
//! versioned, CRC-guarded section stream of [`crate::format`], and restore
//! it — with every image importer's structural validation *and* the
//! engine/service-level cross-validation applied on the way back in, so a
//! checkpoint either restores to exactly the state that was saved or is
//! refused with an error naming what broke.
//!
//! What a checkpoint holds is the serializable image layer of the stack:
//! the [`DynGraph`] mirror image, the full SoA bank image of the MSF
//! structure ([`pdmsf_core::MsfImage`] — chunk banks, row bank, free lists
//! in recycling order), the engine's op-log sequence number and counters,
//! and (for a service) the tenant table. Everything rebuilt instead of
//! stored — the link-cut tree, the cost meter, scratch buffers — is
//! documented in `pdmsf_core::snapshot`.

use std::io::{Read, Write};
use std::time::Instant;

use pdmsf_core::{ChunkArenaImage, MsfImage, ParDynamicMsf, RowBankImage};
use pdmsf_engine::{Engine, EngineStats};
use pdmsf_graph::{DynGraph, DynGraphImage, EdgeId, TenantId};
use pdmsf_shard::{ServiceStats, ShardedService, TenantRecord};

use crate::format::{
    expect_section, read_header, write_header, write_section, Dec, Enc, PersistError, KIND_ENGINE,
    KIND_SERVICE, SEC_END, SEC_ENGINE, SEC_SHARD, SEC_TENANTS,
};
use crate::metrics::{metrics, CountingWriter};

/// Stamp one finished checkpoint into the `pdmsf_persist_checkpoint_*`
/// families.
fn note_checkpoint(bytes: u64, started: Instant) {
    let m = metrics();
    m.checkpoint_ns.record_duration(started.elapsed());
    m.checkpoint_bytes.add(bytes);
    m.checkpoint_last_bytes.set(bytes as i64);
    m.checkpoints.inc();
}

// ---------------------------------------------------------------------------
// Engine blob codec (shared by the engine checkpoint and the per-shard
// sections of a service checkpoint).
// ---------------------------------------------------------------------------

fn encode_engine(engine: &Engine) -> Vec<u8> {
    let mut e = Enc::new();
    e.u64(engine.applied_seq());
    let s = engine.stats();
    e.u64(s.batches);
    e.u64(s.ops);
    e.u64(s.applied_updates);
    e.u64(s.cancelled_pairs);
    e.u64(s.rejected);
    e.u64(s.queries);
    e.u64(s.deduped_queries);
    e.u64(s.snapshots);
    e.u64(s.update_groups);
    e.u64(s.group_conflicts);

    let g = engine.graph().to_image();
    e.lane_u32(&g.edge_u);
    e.lane_u32(&g.edge_v);
    e.lane_i64(&g.edge_weight);
    e.lane_u8(&g.edge_alive);
    e.lane_u64(&g.adj_offsets);
    e.lane_u32(&g.adj_data);

    let m = engine.structure().to_image();
    e.u64(m.k);
    e.u8(m.model);
    e.u8(m.exec);
    e.lane_u32(&m.edge_ids);
    e.lane_u32(&m.edge_u);
    e.lane_u32(&m.edge_v);
    e.lane_i64(&m.edge_weight);
    e.lane_u32(&m.edge_fwd);
    e.lane_u32(&m.edge_bwd);
    e.lane_u32(&m.edge_free);
    e.lane_u64(&m.adj_offsets);
    e.lane_u32(&m.adj_data);
    e.lane_u64(&m.vocc_offsets);
    e.lane_u32(&m.vocc_data);
    e.lane_u32(&m.principal);
    e.lane_u32(&m.vertex_chunk);
    let c = &m.chunks;
    e.lane_u32(&c.parent);
    e.lane_u32(&c.left);
    e.lane_u32(&c.right);
    e.lane_u32(&c.size);
    e.lane_u64(&c.occ_offsets);
    e.lane_u32(&c.occ_data);
    e.lane_u64(&c.adj_count);
    e.lane_u32(&c.slot);
    e.lane_u32(&c.row);
    e.lane_u8(&c.flags);
    e.lane_u32(&c.free_ids);
    e.lane_u32(&c.occ_vertex);
    e.lane_u32(&c.occ_chunk);
    e.lane_u32(&c.occ_pos);
    e.lane_u32(&c.occ_vpos);
    e.lane_u32(&c.occ_arc);
    e.lane_u8(&c.occ_flags);
    e.lane_u32(&c.occ_free);
    let r = &m.rows;
    e.u64(r.stride);
    e.u64(r.slabs);
    e.lane_i64(&r.key_weight);
    e.lane_u32(&r.key_edge);
    e.lane_u8(&r.memb);
    e.lane_u32(&r.free);
    e.lane_u32(&m.slot_owner);
    e.lane_u32(&m.slot_free);
    e.lane_u32(&m.touched);
    e.u64(m.num_tree_edges);
    e.i128(m.forest_weight);
    e.into_bytes()
}

fn decode_engine(payload: &[u8]) -> Result<Engine, PersistError> {
    let mut d = Dec::new(payload);
    let applied_seq = d.u64()?;
    let stats = EngineStats {
        batches: d.u64()?,
        ops: d.u64()?,
        applied_updates: d.u64()?,
        cancelled_pairs: d.u64()?,
        rejected: d.u64()?,
        queries: d.u64()?,
        deduped_queries: d.u64()?,
        snapshots: d.u64()?,
        update_groups: d.u64()?,
        group_conflicts: d.u64()?,
        // Not part of the format: checkpoints exist only for
        // single-structure engines, where the partitioned structure's
        // migration/rebalance counters are identically zero.
        ..EngineStats::default()
    };
    let graph_image = DynGraphImage {
        edge_u: d.lane_u32()?,
        edge_v: d.lane_u32()?,
        edge_weight: d.lane_i64()?,
        edge_alive: d.lane_u8()?,
        adj_offsets: d.lane_u64()?,
        adj_data: d.lane_u32()?,
    };
    let msf_image = MsfImage {
        k: d.u64()?,
        model: d.u8()?,
        exec: d.u8()?,
        edge_ids: d.lane_u32()?,
        edge_u: d.lane_u32()?,
        edge_v: d.lane_u32()?,
        edge_weight: d.lane_i64()?,
        edge_fwd: d.lane_u32()?,
        edge_bwd: d.lane_u32()?,
        edge_free: d.lane_u32()?,
        adj_offsets: d.lane_u64()?,
        adj_data: d.lane_u32()?,
        vocc_offsets: d.lane_u64()?,
        vocc_data: d.lane_u32()?,
        principal: d.lane_u32()?,
        vertex_chunk: d.lane_u32()?,
        chunks: ChunkArenaImage {
            parent: d.lane_u32()?,
            left: d.lane_u32()?,
            right: d.lane_u32()?,
            size: d.lane_u32()?,
            occ_offsets: d.lane_u64()?,
            occ_data: d.lane_u32()?,
            adj_count: d.lane_u64()?,
            slot: d.lane_u32()?,
            row: d.lane_u32()?,
            flags: d.lane_u8()?,
            free_ids: d.lane_u32()?,
            occ_vertex: d.lane_u32()?,
            occ_chunk: d.lane_u32()?,
            occ_pos: d.lane_u32()?,
            occ_vpos: d.lane_u32()?,
            occ_arc: d.lane_u32()?,
            occ_flags: d.lane_u8()?,
            occ_free: d.lane_u32()?,
        },
        rows: RowBankImage {
            stride: d.u64()?,
            slabs: d.u64()?,
            key_weight: d.lane_i64()?,
            key_edge: d.lane_u32()?,
            memb: d.lane_u8()?,
            free: d.lane_u32()?,
        },
        slot_owner: d.lane_u32()?,
        slot_free: d.lane_u32()?,
        touched: d.lane_u32()?,
        num_tree_edges: d.u64()?,
        forest_weight: d.i128()?,
    };
    d.finish("engine section")?;

    let graph = DynGraph::from_image(&graph_image).map_err(PersistError::Inconsistent)?;
    let msf = ParDynamicMsf::from_image(&msf_image).map_err(PersistError::Inconsistent)?;
    Engine::from_restored_parts(graph, msf, stats, applied_seq).map_err(PersistError::Inconsistent)
}

// ---------------------------------------------------------------------------
// Tenant table codec.
// ---------------------------------------------------------------------------

fn encode_tenants(service: &ShardedService) -> Vec<u8> {
    let mut e = Enc::new();
    e.u64(service.num_shards() as u64);
    let s = service.stats();
    e.u64(s.batches);
    e.u64(s.ops);
    e.u64(s.router_rejected);
    e.u64(s.shard_batches);
    e.u64(s.weight_sweeps);
    let tenants = service.export_tenants();
    e.u64(tenants.len() as u64);
    for t in &tenants {
        e.u32(t.id.0);
        e.u32(t.shard);
        e.u32(t.base);
        e.u32(t.vertices);
        let globals: Vec<u32> = t.edge_ids.iter().map(|id| id.0).collect();
        e.lane_u32(&globals);
    }
    e.into_bytes()
}

fn decode_tenants(
    payload: &[u8],
) -> Result<(usize, ServiceStats, Vec<TenantRecord>), PersistError> {
    let mut d = Dec::new(payload);
    let shards = d.u64()? as usize;
    let stats = ServiceStats {
        batches: d.u64()?,
        ops: d.u64()?,
        router_rejected: d.u64()?,
        shard_batches: d.u64()?,
        weight_sweeps: d.u64()?,
    };
    let n = d.u64()?;
    let mut tenants = Vec::with_capacity(n.min(1 << 20) as usize);
    for _ in 0..n {
        tenants.push(TenantRecord {
            id: TenantId(d.u32()?),
            shard: d.u32()?,
            base: d.u32()?,
            vertices: d.u32()?,
            edge_ids: d.lane_u32()?.into_iter().map(EdgeId).collect(),
        });
    }
    d.finish("tenant section")?;
    Ok((shards, stats, tenants))
}

// ---------------------------------------------------------------------------
// Public API.
// ---------------------------------------------------------------------------

/// Checkpoint/restore on [`Engine`].
pub trait EngineCheckpointExt: Sized {
    /// Serialize the engine's full state into `w` as a versioned,
    /// CRC-guarded checkpoint stream.
    fn checkpoint<W: Write>(&self, w: W) -> Result<(), PersistError>;

    /// Rebuild an engine from a stream written by
    /// [`EngineCheckpointExt::checkpoint`]. Truncated or bit-flipped
    /// streams, and internally inconsistent ones, are refused. The restored
    /// engine has **no op-log sink attached** — recovery attaches one after
    /// replaying the log tail — and keeps the checkpointed chunk parameter
    /// `K` (see [`Engine::from_restored_parts`]).
    fn restore<R: Read>(r: R) -> Result<Self, PersistError>;
}

impl EngineCheckpointExt for Engine {
    fn checkpoint<W: Write>(&self, w: W) -> Result<(), PersistError> {
        if self.is_partitioned() {
            // Flattening a component-partitioned structure into the
            // single-structure image format is not supported yet; refuse
            // with a clear error instead of panicking inside
            // `Engine::structure()`.
            return Err(PersistError::Inconsistent(
                "component-partitioned engines do not support checkpointing yet \
                 (their op log is replayable as usual)"
                    .to_string(),
            ));
        }
        let t0 = Instant::now();
        let mut w = CountingWriter::new(w);
        write_header(&mut w, KIND_ENGINE)?;
        write_section(&mut w, SEC_ENGINE, &encode_engine(self))?;
        write_section(&mut w, SEC_END, &[])?;
        w.flush()?;
        note_checkpoint(w.written, t0);
        Ok(())
    }

    fn restore<R: Read>(mut r: R) -> Result<Engine, PersistError> {
        let kind = read_header(&mut r)?;
        if kind != KIND_ENGINE {
            return Err(PersistError::Corrupt(format!(
                "expected an engine checkpoint (kind {KIND_ENGINE}), found kind {kind}"
            )));
        }
        let payload = expect_section(&mut r, SEC_ENGINE, "engine")?;
        let engine = decode_engine(&payload)?;
        expect_section(&mut r, SEC_END, "end")?;
        Ok(engine)
    }
}

/// Checkpoint/restore on [`ShardedService`].
pub trait ServiceCheckpointExt: Sized {
    /// Serialize the whole service — tenant table, service counters, and
    /// every shard engine as its own CRC-guarded section — into `w`.
    fn checkpoint_all<W: Write>(&self, w: W) -> Result<(), PersistError>;

    /// Rebuild a service from a stream written by
    /// [`ServiceCheckpointExt::checkpoint_all`]: every shard section is
    /// restored and re-wired to the router through the validated
    /// tenant-table section. Restored shard engines have no op-log sinks.
    fn restore_all<R: Read>(r: R) -> Result<Self, PersistError>;
}

impl ServiceCheckpointExt for ShardedService {
    fn checkpoint_all<W: Write>(&self, w: W) -> Result<(), PersistError> {
        if (0..self.num_shards()).any(|s| self.shard_engine(s).is_partitioned()) {
            return Err(PersistError::Inconsistent(
                "component-partitioned shard engines do not support checkpointing yet \
                 (their op log is replayable as usual)"
                    .to_string(),
            ));
        }
        let t0 = Instant::now();
        let mut w = CountingWriter::new(w);
        write_header(&mut w, KIND_SERVICE)?;
        write_section(&mut w, SEC_TENANTS, &encode_tenants(self))?;
        for shard in 0..self.num_shards() {
            let mut blob = Enc::new();
            blob.u32(shard as u32);
            let mut bytes = blob.into_bytes();
            bytes.extend_from_slice(&encode_engine(self.shard_engine(shard)));
            write_section(&mut w, SEC_SHARD, &bytes)?;
        }
        write_section(&mut w, SEC_END, &[])?;
        w.flush()?;
        note_checkpoint(w.written, t0);
        Ok(())
    }

    fn restore_all<R: Read>(mut r: R) -> Result<ShardedService, PersistError> {
        let kind = read_header(&mut r)?;
        if kind != KIND_SERVICE {
            return Err(PersistError::Corrupt(format!(
                "expected a service checkpoint (kind {KIND_SERVICE}), found kind {kind}"
            )));
        }
        let tenant_payload = expect_section(&mut r, SEC_TENANTS, "tenant table")?;
        let (num_shards, stats, tenants) = decode_tenants(&tenant_payload)?;
        let mut shards = Vec::with_capacity(num_shards.min(1 << 16));
        for expect in 0..num_shards {
            let payload = expect_section(&mut r, SEC_SHARD, "shard engine")?;
            if payload.len() < 4 {
                return Err(PersistError::Corrupt(
                    "shard section too short for its index".to_string(),
                ));
            }
            let ix = u32::from_le_bytes(payload[0..4].try_into().unwrap());
            if ix as usize != expect {
                return Err(PersistError::Corrupt(format!(
                    "shard sections out of order: expected shard {expect}, found {ix}"
                )));
            }
            shards.push(decode_engine(&payload[4..])?);
        }
        expect_section(&mut r, SEC_END, "end")?;
        ShardedService::from_restored_parts(shards, tenants, stats)
            .map_err(PersistError::Inconsistent)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::read_section;
    use pdmsf_graph::{BatchOp, TenantOp, VertexId, Weight};
    use pdmsf_shard::TenantSpec;

    fn link(u: u32, v: u32, w: i64) -> BatchOp {
        BatchOp::Link {
            u: VertexId(u),
            v: VertexId(v),
            weight: Weight::new(w),
        }
    }

    fn build_engine() -> Engine {
        let mut engine = Engine::new(16);
        engine.execute(&[
            link(0, 1, 5),
            link(1, 2, 3),
            link(2, 3, 8),
            link(0, 3, 1),
            link(4, 5, 2),
        ]);
        engine.execute(&[BatchOp::Cut { id: EdgeId(0) }, link(5, 6, 7), link(6, 4, 4)]);
        engine
    }

    #[test]
    fn engine_checkpoint_round_trips() {
        let engine = build_engine();
        let mut buf = Vec::new();
        engine.checkpoint(&mut buf).unwrap();
        let restored = Engine::restore(&buf[..]).unwrap();
        assert_eq!(restored.forest_edges(), engine.forest_edges());
        assert_eq!(restored.forest_weight(), engine.forest_weight());
        assert_eq!(restored.stats(), engine.stats());
        assert_eq!(restored.applied_seq(), engine.applied_seq());
        restored.structure().validate();
        // Bank-exact restore: re-checkpointing produces identical bytes.
        let mut buf2 = Vec::new();
        restored.checkpoint(&mut buf2).unwrap();
        assert_eq!(buf, buf2);

        // A checkpoint keeps its own K, even one `Engine::new` no longer
        // picks (engines once served at K = sqrt n = 4 here).
        let mut sqrt_k = Engine::with_chunk_parameter(16, 4);
        sqrt_k.execute(&[link(0, 1, 5), link(1, 2, 3)]);
        let mut buf = Vec::new();
        sqrt_k.checkpoint(&mut buf).unwrap();
        let restored = Engine::restore(&buf[..]).unwrap();
        assert_eq!(restored.structure().chunk_parameter(), 4);
        assert_ne!(Engine::new(16).structure().chunk_parameter(), 4);
    }

    #[test]
    fn engine_checkpoint_detects_corruption_everywhere() {
        let engine = build_engine();
        let mut buf = Vec::new();
        engine.checkpoint(&mut buf).unwrap();
        // Every truncation is refused.
        for cut in 0..buf.len() {
            assert!(
                Engine::restore(&buf[..cut]).is_err(),
                "truncation at {cut} of {} restored silently",
                buf.len()
            );
        }
        // A bit flip in every byte is refused (stride 7 keeps this fast
        // while still visiting every section and the header).
        for byte in (0..buf.len()).step_by(7) {
            let mut bad = buf.clone();
            bad[byte] ^= 0x10;
            assert!(
                Engine::restore(&bad[..]).is_err(),
                "bit flip at byte {byte} restored silently"
            );
        }
    }

    #[test]
    fn service_checkpoint_round_trips_and_rewires_tenants() {
        let tenants: Vec<TenantSpec> = (0..6).map(|t| TenantSpec::new(TenantId(t), 8)).collect();
        let mut service = ShardedService::new(3, &tenants);
        let op = |t: u32, u: u32, v: u32, w: i64| TenantOp {
            tenant: TenantId(t),
            op: link(u, v, w),
        };
        service.execute(&[
            op(0, 0, 1, 5),
            op(1, 2, 3, 7),
            op(2, 0, 4, 2),
            op(3, 1, 2, 9),
            op(4, 5, 6, 4),
            op(5, 0, 7, 3),
        ]);
        service.execute(&[TenantOp {
            tenant: TenantId(1),
            op: BatchOp::Cut { id: EdgeId(0) },
        }]);

        let mut buf = Vec::new();
        service.checkpoint_all(&mut buf).unwrap();
        let mut restored = ShardedService::restore_all(&buf[..]).unwrap();
        assert_eq!(restored.num_shards(), service.num_shards());
        assert_eq!(restored.num_tenants(), service.num_tenants());
        assert_eq!(
            restored.total_forest_weight(),
            service.total_forest_weight()
        );
        assert_eq!(restored.stats(), service.stats());
        for t in 0..6 {
            assert_eq!(
                restored.tenant_forest_weight(TenantId(t)),
                service.tenant_forest_weight(TenantId(t)),
                "tenant {t} weight drifted through the checkpoint"
            );
        }
        // The restored router still translates tenant-local ids correctly:
        // the same new op produces the same outcome on both services.
        let probe = [op(3, 3, 4, 6)];
        let a = restored.execute(&probe);
        let b = service.execute(&probe);
        assert_eq!(a.outcomes, b.outcomes);
        assert_eq!(
            restored.total_forest_weight(),
            service.total_forest_weight()
        );
    }

    #[test]
    fn service_checkpoint_refuses_shard_section_shuffles() {
        let tenants: Vec<TenantSpec> = (0..4).map(|t| TenantSpec::new(TenantId(t), 4)).collect();
        let service = ShardedService::new(2, &tenants);
        let mut buf = Vec::new();
        service.checkpoint_all(&mut buf).unwrap();
        // Reassemble with the two shard sections swapped — each section's
        // CRC still passes, but the embedded shard indices expose the swap.
        let mut r = &buf[..];
        let kind = read_header(&mut r).unwrap();
        let (t1, tenants_payload) = read_section(&mut r).unwrap();
        let (t2, shard0) = read_section(&mut r).unwrap();
        let (t3, shard1) = read_section(&mut r).unwrap();
        assert_eq!((t1, t2, t3), (SEC_TENANTS, SEC_SHARD, SEC_SHARD));
        let mut swapped = Vec::new();
        write_header(&mut swapped, kind).unwrap();
        write_section(&mut swapped, SEC_TENANTS, &tenants_payload).unwrap();
        write_section(&mut swapped, SEC_SHARD, &shard1).unwrap();
        write_section(&mut swapped, SEC_SHARD, &shard0).unwrap();
        write_section(&mut swapped, SEC_END, &[]).unwrap();
        assert!(ShardedService::restore_all(&swapped[..]).is_err());
    }
}
