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
//!
//! Engines split into several component partitions once appended a
//! **tail** to their engine section (the partition count first, then the
//! further partitions). Those engines are gone; a section that still
//! carries such a tail is refused as [`PersistError::Inconsistent`], naming
//! its partition count.

use std::io::{Read, Write};
use std::time::Instant;

use pdmsf_core::{ChunkArenaImage, MsfImage, RowBankImage, SeqDynamicMsf};
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
    // Two retired counters (update groups and group conflicts of the
    // partitioned engines), kept as zeros so the layout does not move.
    e.u64(0);
    e.u64(0);

    let g = engine.graph().to_image();
    e.lane_u32(&g.edge_u);
    e.lane_u32(&g.edge_v);
    e.lane_i64(&g.edge_weight);
    e.lane_u8(&g.edge_alive);
    e.lane_u64(&g.adj_offsets);
    e.lane_u32(&g.adj_data);

    encode_msf(&mut e, &engine.structure().to_image());
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
    };
    // The two retired group counters.
    d.u64()?;
    d.u64()?;
    let graph_image = DynGraphImage {
        edge_u: d.lane_u32()?,
        edge_v: d.lane_u32()?,
        edge_weight: d.lane_i64()?,
        edge_alive: d.lane_u8()?,
        adj_offsets: d.lane_u64()?,
        adj_data: d.lane_u32()?,
    };
    let image = decode_msf(&mut d)?;
    if d.remaining() > 0 {
        let parts = d.u64()?;
        return Err(if parts >= 2 {
            PersistError::Inconsistent(format!(
                "the engine section holds {parts} partitions; partitioned engines \
                 no longer exist, so only one-partition checkpoints restore"
            ))
        } else {
            PersistError::Corrupt(format!(
                "engine tail declares {parts} partitions; only multi-partition engines wrote one"
            ))
        });
    }

    let graph = DynGraph::from_image(&graph_image).map_err(PersistError::Inconsistent)?;
    let msf = SeqDynamicMsf::from_image(&image).map_err(PersistError::Inconsistent)?;
    Engine::from_restored_parts(graph, msf, stats, applied_seq).map_err(PersistError::Inconsistent)
}

fn encode_msf(e: &mut Enc, m: &MsfImage) {
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
}

fn decode_msf(d: &mut Dec) -> Result<MsfImage, PersistError> {
    Ok(MsfImage {
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
    })
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
    use pdmsf_core::CostModel;
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

    fn tenant_link(t: u32, u: u32, v: u32, w: i64) -> TenantOp {
        TenantOp {
            tenant: TenantId(t),
            op: link(u, v, w),
        }
    }

    /// Six 8-vertex tenants over three shards built by `factory`, after a
    /// link batch and a cut.
    fn build_service(factory: impl Fn(usize) -> Engine) -> ShardedService {
        let tenants: Vec<TenantSpec> = (0..6).map(|t| TenantSpec::new(TenantId(t), 8)).collect();
        let mut service = ShardedService::with_engine_factory(3, &tenants, factory);
        let op = tenant_link;
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
        service
    }

    #[test]
    fn service_checkpoint_round_trips_and_rewires_tenants() {
        let mut service = build_service(Engine::new);
        let op = tenant_link;
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

    /// One-partition engines keep the format's original layout: no
    /// partition tail. The bytes move only when the structure state the
    /// script leaves behind moves (tours that are single chunks never
    /// attach row slabs since links splice them in place); older
    /// checkpoints of the same script still restore, see
    /// `older_checkpoints_restore_and_continue_like_a_fresh_run`.
    #[test]
    fn one_partition_checkpoint_bytes_did_not_move() {
        let mut buf = Vec::new();
        build_engine().checkpoint(&mut buf).unwrap();
        assert_eq!((buf.len(), crate::crc32(&buf)), (2_689, 0x865f_a94a));
        let mut buf = Vec::new();
        build_service(Engine::new).checkpoint_all(&mut buf).unwrap();
        assert_eq!((buf.len(), crate::crc32(&buf)), (7_165, 0x63bc_f8b7));
    }

    /// Checkpoints of `build_engine()` and `build_service(Engine::new)`
    /// written before links and cuts stayed inside one chunk (the bytes
    /// `one_partition_checkpoint_bytes_did_not_move` pinned until then)
    /// restore, validate, and go on exactly like the same scripts run
    /// fresh.
    #[test]
    fn older_checkpoints_restore_and_continue_like_a_fresh_run() {
        let old = include_bytes!("../tests/fixtures/build_engine.ckpt");
        assert_eq!((old.len(), crate::crc32(old)), (4_029, 0xa91d_c2ba));
        let mut restored = Engine::restore(&old[..]).unwrap();
        restored.structure().validate();
        let mut fresh = build_engine();
        assert_eq!(restored.forest_edges(), fresh.forest_edges());
        assert_eq!(restored.forest_weight(), fresh.forest_weight());
        for ops in [
            vec![link(3, 7, 6), link(7, 8, 2), link(1, 8, 9), link(4, 0, 3)],
            vec![
                BatchOp::Cut { id: EdgeId(2) },
                BatchOp::Cut { id: EdgeId(6) },
                link(2, 9, 1),
                BatchOp::QueryConnected {
                    u: VertexId(3),
                    v: VertexId(9),
                },
                BatchOp::QueryForestWeight,
            ],
        ] {
            assert_eq!(
                restored.execute(&ops).outcomes,
                fresh.execute(&ops).outcomes
            );
            assert_eq!(restored.forest_edges(), fresh.forest_edges());
            assert_eq!(restored.forest_weight(), fresh.forest_weight());
        }
        restored.structure().validate();

        let old = include_bytes!("../tests/fixtures/build_service.ckpt");
        assert_eq!((old.len(), crate::crc32(old)), (9_973, 0x2e65_eca6));
        let mut restored = ShardedService::restore_all(&old[..]).unwrap();
        let mut fresh = build_service(Engine::new);
        let same_forests = |a: &ShardedService, b: &ShardedService| {
            assert_eq!(a.num_shards(), b.num_shards());
            for shard in 0..a.num_shards() {
                let (ea, eb) = (a.shard_engine(shard), b.shard_engine(shard));
                ea.structure().validate();
                assert_eq!(ea.forest_edges(), eb.forest_edges(), "shard {shard}");
                assert_eq!(ea.forest_weight(), eb.forest_weight(), "shard {shard}");
            }
            assert_eq!(a.total_forest_weight(), b.total_forest_weight());
        };
        same_forests(&restored, &fresh);
        let op = tenant_link;
        for ops in [
            vec![
                op(0, 1, 3, 2),
                op(2, 4, 5, 6),
                op(1, 0, 2, 1),
                op(4, 6, 7, 8),
            ],
            vec![
                TenantOp {
                    tenant: TenantId(0),
                    op: BatchOp::Cut { id: EdgeId(0) },
                },
                op(3, 2, 7, 1),
                op(5, 7, 6, 2),
            ],
        ] {
            assert_eq!(
                restored.execute(&ops).outcomes,
                fresh.execute(&ops).outcomes
            );
            same_forests(&restored, &fresh);
        }
    }

    /// The checkpoint of a 32-vertex engine split into 4 component
    /// partitions (K = 4, rebalance floor 1), written before partitioned
    /// engines were removed: one 8-vertex chain per partition block, bridges
    /// from vertices 8, 16 and 24 to vertex 0 (migrations), cuts of those
    /// bridges and of edge 3 (a rebalance), then three more links. Its
    /// engine section carries a 4-partition tail.
    #[test]
    fn partitioned_checkpoints_are_refused_as_inconsistent() {
        let old = include_bytes!("../tests/fixtures/partitioned_engine.ckpt");
        assert_eq!((old.len(), crate::crc32(old)), (42_249, 0x1315_7116));
        match Engine::restore(&old[..]) {
            Err(PersistError::Inconsistent(why)) => {
                assert!(why.contains("4 partitions"), "{why}")
            }
            Err(other) => panic!("refused with the wrong error: {other}"),
            Ok(_) => panic!("a partitioned checkpoint restored"),
        }
    }

    /// `build_engine()`'s section followed by a hand-written tail laid out
    /// as partitioned engines wrote it: partition count, rebalance floor,
    /// four partition counters, the `home` lane and partition 1's image.
    fn with_tail(parts: u64) -> Vec<u8> {
        let engine = build_engine();
        let (n, k) = (engine.num_vertices(), engine.structure().chunk_parameter());
        let mut tail = Enc::new();
        tail.u64(parts);
        tail.u64(64);
        for _ in 0..4 {
            tail.u64(0);
        }
        tail.lane_u32(&vec![0; n]);
        let empty = SeqDynamicMsf::with_parameters(n, k, CostModel::Erew);
        encode_msf(&mut tail, &empty.to_image());
        let mut payload = encode_engine(&engine);
        payload.extend(tail.into_bytes());
        payload
    }

    #[test]
    fn partitioned_import_refuses_inconsistent_parts() {
        assert!(decode_engine(&encode_engine(&build_engine())).is_ok());
        match decode_engine(&with_tail(2)) {
            Err(PersistError::Inconsistent(why)) => {
                assert!(why.contains("2 partitions"), "{why}")
            }
            other => panic!("a two-partition tail was not refused: {:?}", other.err()),
        }
        // A one-partition tail was never written.
        assert!(matches!(
            decode_engine(&with_tail(1)),
            Err(PersistError::Corrupt(_))
        ));
    }
}
