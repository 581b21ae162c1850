//! Checkpointing: write an [`Engine`] or a [`ShardedService`] as the
//! versioned, CRC-guarded section stream of [`crate::format`], and restore
//! it, so a checkpoint either restores to the state that was saved or is
//! refused with an error naming what broke.
//!
//! A checkpoint is the graph. Per engine it holds the planner scalars (the
//! op-log sequence number and the counters), the [`DynGraph`] mirror's
//! image (the vertex count and the edge slots, which allocate edge ids) and
//! the chunk parameter `K`; a service checkpoint adds the tenant
//! placements. Nothing of the MSF structure is stored: the MSF is unique
//! under `WKey` order, so restore rebuilds the structure from the mirror
//! ([`pdmsf_core::SeqDynamicMsf::from_graph`]) and re-derives every
//! tenant's edge-id map from the shard mirrors. Outcomes, forests and
//! future op-log bytes are those of the engine that checkpointed; the
//! chunking, and so the meter's charges, may differ.
//!
//! Versions 1 and 2 ([`crate::FORMAT_VERSION`] is 3) stored the mirror's
//! adjacency lists as an offsets lane and an entries lane where version 3
//! stores the vertex count. Restore takes the count as the offsets lane's
//! length minus one and skips both lanes unread: nothing is built from
//! them. Version 1 also dumped the structure's banks after `K`, and stored
//! each tenant's edge-id map. Restore skips the structure lanes and refuses
//! a stored tenant map that differs from the derived one. Engines split
//! into several component partitions once appended a **tail** to their
//! version-1 engine section (the partition count first, then the further
//! partitions). Those engines are gone; a section that still carries such a
//! tail is refused as [`PersistError::Inconsistent`], naming its partition
//! count.

use std::io::{Read, Write};
use std::time::Instant;

use pdmsf_engine::{Engine, EngineStats};
use pdmsf_graph::{DynGraph, DynGraphImage, TenantId};
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
    let g = engine.graph().to_image();
    e.lane_u32(&g.edge_u);
    e.lane_u32(&g.edge_v);
    e.lane_i64(&g.edge_weight);
    e.lane_u8(&g.edge_alive);
    e.u64(g.num_vertices);
    e.u64(engine.structure().chunk_parameter() as u64);
    e.into_bytes()
}

/// Skip the structure dump a version-1 engine section carried after its
/// chunk parameter: this build rebuilds the structure from the mirror.
fn skip_v1_structure(d: &mut Dec) -> Result<(), PersistError> {
    // Cost model and exec bytes.
    d.skip(2)?;
    // Edge store (ids, endpoints, weights, arc tails, free list), the
    // adjacency and occurrence lists, the principal copies.
    for bytes in [4, 4, 4, 8, 4, 4, 4, 8, 4, 8, 4, 4, 4] {
        d.skip_lane(bytes)?;
    }
    // Chunk banks (splay topology, occurrence lists, metadata, free list),
    // then the occurrence banks.
    for bytes in [4, 4, 4, 4, 8, 4, 8, 4, 4, 1, 4, 4, 4, 4, 4, 4, 1, 4] {
        d.skip_lane(bytes)?;
    }
    // Row bank (stride and slab count, keys, membership, free list), chunk
    // slots, free slots and touched chunks.
    d.skip(16)?;
    for bytes in [8, 4, 1, 4, 4, 4, 4] {
        d.skip_lane(bytes)?;
    }
    // Tree-edge count and forest weight.
    d.skip(24)
}

fn decode_engine(version: u32, payload: &[u8]) -> Result<Engine, PersistError> {
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
    if version == 1 {
        // Two retired counters of the partitioned engines, written as zeros.
        d.skip(16)?;
    }
    let edge_u = d.lane_u32()?;
    let edge_v = d.lane_u32()?;
    let edge_weight = d.lane_i64()?;
    let edge_alive = d.lane_u8()?;
    let num_vertices = if version < 3 {
        // Adjacency lists: an offsets lane of one entry per vertex plus
        // one, then the entries. Only the count is used.
        let offsets = d.skip_lane(8)?;
        d.skip_lane(4)?;
        match offsets.checked_sub(1) {
            Some(n) => n as u64,
            None => {
                return Err(PersistError::Inconsistent(
                    "the engine section's adjacency offsets lane is empty".to_string(),
                ))
            }
        }
    } else {
        d.u64()?
    };
    let graph_image = DynGraphImage {
        num_vertices,
        edge_u,
        edge_v,
        edge_weight,
        edge_alive,
    };
    let k = d.u64()?;
    if version == 1 {
        skip_v1_structure(&mut d)?;
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
    }
    d.finish("engine section")?;
    if k < 2 {
        return Err(PersistError::Inconsistent(format!(
            "the engine section's chunk parameter {k} is below 2"
        )));
    }
    let graph = DynGraph::from_image(&graph_image).map_err(PersistError::Inconsistent)?;
    Ok(Engine::from_restored_parts(
        graph,
        k as usize,
        stats,
        applied_seq,
    ))
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
    }
    e.into_bytes()
}

/// Decode a tenant section. Version 1 stored each tenant's edge-id map,
/// returned in the records; version 2 stores none, and the maps come back
/// empty.
fn decode_tenants(
    version: u32,
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
            edge_ids: if version == 1 {
                d.lane_u32()?.into_iter().map(pdmsf_graph::EdgeId).collect()
            } else {
                Vec::new()
            },
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
    /// Serialize the engine's state — scalars, graph mirror, chunk
    /// parameter — into `w` as a versioned, CRC-guarded checkpoint stream.
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
        let (version, kind) = read_header(&mut r)?;
        if kind != KIND_ENGINE {
            return Err(PersistError::Corrupt(format!(
                "expected an engine checkpoint (kind {KIND_ENGINE}), found kind {kind}"
            )));
        }
        let payload = expect_section(&mut r, SEC_ENGINE, "engine")?;
        let engine = decode_engine(version, &payload)?;
        expect_section(&mut r, SEC_END, "end")?;
        Ok(engine)
    }
}

/// Checkpoint/restore on [`ShardedService`].
pub trait ServiceCheckpointExt: Sized {
    /// Serialize the whole service — tenant placements, service counters,
    /// and every shard engine as its own CRC-guarded section — into `w`.
    fn checkpoint_all<W: Write>(&self, w: W) -> Result<(), PersistError>;

    /// Rebuild a service from a stream written by
    /// [`ServiceCheckpointExt::checkpoint_all`]: every shard section is
    /// restored and re-wired to the router through the validated tenant
    /// table, whose edge-id maps are derived from the shard mirrors.
    /// Restored shard engines have no op-log sinks.
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
        let (version, kind) = read_header(&mut r)?;
        if kind != KIND_SERVICE {
            return Err(PersistError::Corrupt(format!(
                "expected a service checkpoint (kind {KIND_SERVICE}), found kind {kind}"
            )));
        }
        let tenant_payload = expect_section(&mut r, SEC_TENANTS, "tenant table")?;
        let (num_shards, stats, tenants) = decode_tenants(version, &tenant_payload)?;
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
            shards.push(decode_engine(version, &payload[4..])?);
        }
        expect_section(&mut r, SEC_END, "end")?;
        let service = ShardedService::from_restored_parts(shards, tenants.clone(), stats)
            .map_err(PersistError::Inconsistent)?;
        if version == 1 {
            for (stored, derived) in tenants.iter().zip(service.export_tenants()) {
                if stored.edge_ids != derived.edge_ids {
                    return Err(PersistError::Inconsistent(format!(
                        "tenant {:?}: the checkpointed edge-id map differs from the one \
                         its shard's mirror derives",
                        stored.id
                    )));
                }
            }
        }
        Ok(service)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::{read_section, CKP_MAGIC, FORMAT_VERSION};
    use pdmsf_graph::{BatchOp, EdgeId, TenantOp, VertexId, Weight};
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
        // Re-checkpointing the restored engine produces identical bytes.
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

    /// Every truncation of `buf`, and a bit flip in every 7th byte (enough
    /// to visit the header and every section), is refused by `restore`.
    fn assert_corruption_is_refused<T>(
        buf: &[u8],
        restore: impl Fn(&[u8]) -> Result<T, PersistError>,
    ) {
        for cut in 0..buf.len() {
            assert!(
                restore(&buf[..cut]).is_err(),
                "truncation at {cut} of {} restored silently",
                buf.len()
            );
        }
        for byte in (0..buf.len()).step_by(7) {
            let mut bad = buf.to_vec();
            bad[byte] ^= 0x10;
            assert!(
                restore(&bad[..]).is_err(),
                "bit flip at byte {byte} restored silently"
            );
        }
    }

    #[test]
    fn engine_checkpoint_detects_corruption_everywhere() {
        let engine = build_engine();
        let mut buf = Vec::new();
        engine.checkpoint(&mut buf).unwrap();
        assert_corruption_is_refused(&buf, |b| Engine::restore(b));
    }

    /// The tenant section plus each shard section of a service checkpoint
    /// take the same truncation and bit-flip sweep as an engine's.
    #[test]
    fn service_checkpoint_detects_corruption_everywhere() {
        let mut buf = Vec::new();
        build_service(Engine::new).checkpoint_all(&mut buf).unwrap();
        assert!(ShardedService::restore_all(&buf[..]).is_ok());
        assert_corruption_is_refused(&buf, |b| ShardedService::restore_all(b));
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
        assert_eq!(restored.export_tenants(), service.export_tenants());
        // Re-checkpointing the restored service gives back the same bytes.
        let mut buf2 = Vec::new();
        restored.checkpoint_all(&mut buf2).unwrap();
        assert_eq!(buf, buf2);
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
        let (_, kind) = read_header(&mut r).unwrap();
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

    /// The version-3 bytes of two scripts: an engine section holds the
    /// scalars, the mirror's vertex count and edge slots, and `K`, so these
    /// move only when the format or the scripts' graphs do, never with the
    /// structure's layout. Older checkpoints of the same scripts still
    /// restore, see `older_checkpoints_restore_and_continue_like_a_fresh_run`.
    #[test]
    fn one_partition_checkpoint_bytes_did_not_move() {
        let mut buf = Vec::new();
        build_engine().checkpoint(&mut buf).unwrap();
        assert_eq!((buf.len(), crate::crc32(&buf)), (284, 0x8151_5347));
        let mut buf = Vec::new();
        build_service(Engine::new).checkpoint_all(&mut buf).unwrap();
        assert_eq!((buf.len(), crate::crc32(&buf)), (719, 0x301d_4822));
    }

    /// Older checkpoints of `build_engine()` and `build_service(Engine::new)`
    /// restore, validate, and go on exactly like the same scripts run
    /// fresh: version 1, written before links and cuts stayed inside one
    /// chunk (it also dumped the structure), and version 2, the bytes
    /// `one_partition_checkpoint_bytes_did_not_move` pinned until the
    /// mirror's adjacency lists left the format.
    #[test]
    fn older_checkpoints_restore_and_continue_like_a_fresh_run() {
        let engines: [(&[u8], _); 2] = [
            (
                include_bytes!("../tests/fixtures/build_engine.ckpt"),
                (4_029, 0xa91d_c2ba),
            ),
            (
                include_bytes!("../tests/fixtures/build_engine_v2.ckpt"),
                (476, 0x4a5a_fcc7),
            ),
        ];
        for (old, pin) in engines {
            assert_eq!((old.len(), crate::crc32(old)), pin);
            older_engine_continues_like_a_fresh_run(old);
        }
        let services: [(&[u8], _); 2] = [
            (
                include_bytes!("../tests/fixtures/build_service.ckpt"),
                (9_973, 0x2e65_eca6),
            ),
            (
                include_bytes!("../tests/fixtures/build_service_v2.ckpt"),
                (1_191, 0x21f7_accb),
            ),
        ];
        for (old, pin) in services {
            assert_eq!((old.len(), crate::crc32(old)), pin);
            older_service_continues_like_a_fresh_run(old);
        }
    }

    fn older_engine_continues_like_a_fresh_run(old: &[u8]) {
        let mut restored = Engine::restore(old).unwrap();
        restored.structure().validate();
        let mut fresh = build_engine();
        // The mirror comes back whole: vertex count and every edge slot.
        assert_eq!(restored.graph().to_image(), fresh.graph().to_image());
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
    }

    fn older_service_continues_like_a_fresh_run(old: &[u8]) {
        let mut restored = ShardedService::restore_all(old).unwrap();
        let mut fresh = build_service(Engine::new);
        let same_forests = |a: &ShardedService, b: &ShardedService| {
            assert_eq!(a.num_shards(), b.num_shards());
            for shard in 0..a.num_shards() {
                let (ea, eb) = (a.shard_engine(shard), b.shard_engine(shard));
                ea.structure().validate();
                assert_eq!(
                    ea.graph().to_image(),
                    eb.graph().to_image(),
                    "shard {shard}"
                );
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

    /// The sections of a committed checkpoint, after its header: `(tag,
    /// payload)` pairs up to and including the end marker.
    fn sections(bytes: &[u8]) -> (u32, u8, Vec<(u32, Vec<u8>)>) {
        let mut r = bytes;
        let (version, kind) = read_header(&mut r).unwrap();
        let mut out = Vec::new();
        loop {
            let (tag, payload) = read_section(&mut r).unwrap();
            out.push((tag, payload));
            if tag == SEC_END {
                return (version, kind, out);
            }
        }
    }

    /// `build_engine()`'s committed version-1 section followed by a tail
    /// laid out as partitioned engines wrote it: partition count, rebalance
    /// floor, four partition counters, the `home` lane and partition 1's
    /// image (the same section's structure dump).
    fn with_tail(parts: u64) -> Vec<u8> {
        let (version, _, sections) =
            sections(include_bytes!("../tests/fixtures/build_engine.ckpt"));
        assert_eq!((version, sections[0].0), (1, SEC_ENGINE));
        let section = &sections[0].1;
        // The structure dump starts where the mirror's lanes end.
        let mut d = Dec::new(section);
        d.skip(11 * 8).unwrap();
        for bytes in [4, 4, 8, 1, 8, 4] {
            d.skip_lane(bytes).unwrap();
        }
        let dump = &section[section.len() - d.remaining()..];
        let mut tail = Enc::new();
        tail.u64(parts);
        tail.u64(64);
        for _ in 0..4 {
            tail.u64(0);
        }
        tail.lane_u32(&[0; 16]);
        let mut payload = section.clone();
        payload.extend(tail.into_bytes());
        payload.extend_from_slice(dump);
        payload
    }

    #[test]
    fn partitioned_import_refuses_inconsistent_parts() {
        let (_, _, sections) = sections(include_bytes!("../tests/fixtures/build_engine.ckpt"));
        assert!(decode_engine(1, &sections[0].1).is_ok());
        match decode_engine(1, &with_tail(2)) {
            Err(PersistError::Inconsistent(why)) => {
                assert!(why.contains("2 partitions"), "{why}")
            }
            other => panic!("a two-partition tail was not refused: {:?}", other.err()),
        }
        // A one-partition tail was never written.
        assert!(matches!(
            decode_engine(1, &with_tail(1)),
            Err(PersistError::Corrupt(_))
        ));
    }

    /// A version-1 tenant section laid out as it was written: placements
    /// and each tenant's stored edge-id map.
    fn v1_tenant_section(shards: usize, stats: ServiceStats, tenants: &[TenantRecord]) -> Vec<u8> {
        let mut e = Enc::new();
        e.u64(shards as u64);
        for x in [
            stats.batches,
            stats.ops,
            stats.router_rejected,
            stats.shard_batches,
            stats.weight_sweeps,
        ] {
            e.u64(x);
        }
        e.u64(tenants.len() as u64);
        for t in tenants {
            e.u32(t.id.0);
            e.u32(t.shard);
            e.u32(t.base);
            e.u32(t.vertices);
            e.lane_u32(&t.edge_ids.iter().map(|id| id.0).collect::<Vec<_>>());
        }
        e.into_bytes()
    }

    /// The committed version-1 service checkpoint with its tenant section
    /// replaced by `tenants`.
    fn v1_service_with(tenants: &[TenantRecord]) -> Vec<u8> {
        let old = include_bytes!("../tests/fixtures/build_service.ckpt");
        let (version, _, sections) = sections(old);
        let (shards, stats, _) = decode_tenants(version, &sections[0].1).unwrap();
        // Magic, version 1 and the kind byte.
        let mut out = old[..13].to_vec();
        write_section(
            &mut out,
            SEC_TENANTS,
            &v1_tenant_section(shards, stats, tenants),
        )
        .unwrap();
        for (tag, payload) in &sections[1..] {
            write_section(&mut out, *tag, payload).unwrap();
        }
        out
    }

    /// A version-1 tenant table that maps one tenant's local edge to
    /// another tenant's edge on the same shard passes every CRC; restore
    /// refuses it rather than letting the first tenant cut the second's
    /// edge.
    #[test]
    fn tampered_tenant_maps_are_refused() {
        let (version, _, sections) =
            sections(include_bytes!("../tests/fixtures/build_service.ckpt"));
        let (_, _, stored) = decode_tenants(version, &sections[0].1).unwrap();
        assert!(ShardedService::restore_all(&v1_service_with(&stored)[..]).is_ok());
        let (a, b) = (0..stored.len())
            .flat_map(|a| (0..stored.len()).map(move |b| (a, b)))
            .find(|&(a, b)| {
                a != b
                    && stored[a].shard == stored[b].shard
                    && !stored[a].edge_ids.is_empty()
                    && !stored[b].edge_ids.is_empty()
            })
            .expect("two tenants with edges share a shard");
        let mut tampered = stored.clone();
        tampered[a].edge_ids[0] = stored[b].edge_ids[0];
        match ShardedService::restore_all(&v1_service_with(&tampered)[..]) {
            Err(PersistError::Inconsistent(why)) => assert!(why.contains("edge-id map"), "{why}"),
            other => panic!("a tampered tenant map was not refused: {:?}", other.err()),
        }
    }

    /// A CRC-valid engine section whose mirror is corrupt — a live edge
    /// naming vertex 99 of 16 — is refused as inconsistent, not restored
    /// into an engine that panics later, in this build's format and in
    /// version 2 (the committed fixture, re-framed).
    #[test]
    fn a_corrupt_mirror_is_refused_on_restore() {
        let mut current = Vec::new();
        build_engine().checkpoint(&mut current).unwrap();
        let v2 = include_bytes!("../tests/fixtures/build_engine_v2.ckpt");
        for (bytes, version) in [(&current[..], FORMAT_VERSION), (&v2[..], 2)] {
            let (got, _, sections) = sections(bytes);
            assert_eq!((got, sections[0].0), (version, SEC_ENGINE));
            let section = &sections[0].1;
            // The scalars, then the four edge lanes; the rest is copied.
            let mut d = Dec::new(section);
            d.skip(9 * 8).unwrap();
            let edge_u = d.lane_u32().unwrap();
            let mut edge_v = d.lane_u32().unwrap();
            let edge_weight = d.lane_i64().unwrap();
            let edge_alive = d.lane_u8().unwrap();
            let live = edge_alive.iter().position(|&a| a == 1).unwrap();
            edge_v[live] = 99;
            let mut e = Enc::new();
            e.lane_u32(&edge_u);
            e.lane_u32(&edge_v);
            e.lane_i64(&edge_weight);
            e.lane_u8(&edge_alive);
            let mut payload = section[..9 * 8].to_vec();
            payload.extend(e.into_bytes());
            payload.extend_from_slice(&section[section.len() - d.remaining()..]);
            // Magic, version and the kind byte.
            let mut buf = bytes[..13].to_vec();
            write_section(&mut buf, SEC_ENGINE, &payload).unwrap();
            write_section(&mut buf, SEC_END, &[]).unwrap();
            match Engine::restore(&buf[..]) {
                Err(PersistError::Inconsistent(why)) => {
                    assert!(why.contains("99") && why.contains("16 vertices"), "{why}")
                }
                other => panic!(
                    "a corrupt version-{version} mirror was not refused: {:?}",
                    other.err()
                ),
            }
        }
    }

    /// The vertex count is outside input. CRC-valid sections with no edges
    /// are refused as inconsistent, before anything is sized by the count,
    /// when a version-3 section claims 2³² vertices or a version-2 section's
    /// adjacency offsets lane is empty (a count of −1).
    #[test]
    fn impossible_vertex_counts_are_refused() {
        let v3_count = (1u64 << 32).to_le_bytes().to_vec();
        let mut v2_lanes = Enc::new();
        v2_lanes.lane_u64(&[]);
        v2_lanes.lane_u32(&[]);
        for (version, count, want) in [
            (3u32, v3_count, "4294967296 vertices"),
            (2, v2_lanes.into_bytes(), "offsets lane is empty"),
        ] {
            // Nine zero scalars and four empty edge lanes, the count, K = 4.
            let mut payload = vec![0u8; 13 * 8];
            payload.extend(count);
            payload.extend(4u64.to_le_bytes());
            let mut buf = CKP_MAGIC.to_vec();
            buf.extend(version.to_le_bytes());
            buf.push(KIND_ENGINE);
            write_section(&mut buf, SEC_ENGINE, &payload).unwrap();
            write_section(&mut buf, SEC_END, &[]).unwrap();
            match Engine::restore(&buf[..]) {
                Err(PersistError::Inconsistent(why)) => assert!(why.contains(want), "{why}"),
                other => panic!(
                    "version {version}: an impossible vertex count was not refused: {:?}",
                    other.err()
                ),
            }
        }
    }
}
