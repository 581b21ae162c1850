//! Crash recovery: newest valid checkpoint + op-log tail replay.
//!
//! The recovery invariant the proptests pin down:
//!
//! > `restore(checkpoint(S))` followed by replaying every **acknowledged**
//! > logged batch after the checkpoint's sequence number reproduces `S`
//! > exactly — same forest edges, same weights, same future behaviour.
//!
//! Replay routes through the engine's normal
//! [`pdmsf_engine::Engine::replay_logged`] → `execute_planned` path, so a
//! recovered engine exercised the same application code as the original,
//! and each record is re-planned first: one the planner does not reproduce
//! is refused. Queries, rejected ops and query-only batches are never
//! logged, so over the replayed tail a recovered engine's `EngineStats`
//! count fewer ops, queries, rejects and batches than the original did.
//! Corruption never degrades silently: a damaged checkpoint refuses to
//! restore, a torn log tail is truncated and **reported**, and a log that
//! cannot reach the engine's expected next sequence number fails recovery
//! with an error instead of shipping a shortened history.
//!
//! A recovered engine keeps the chunk parameter `K` its checkpoint was
//! written with (see [`pdmsf_engine::Engine::from_restored_parts`]), so a
//! checkpoint from an engine that served at `K = sqrt n` recovers at that
//! `K`, not at the `K = sqrt(n log n)` a fresh [`Engine::new`] picks. The
//! replayed history and every answer are the same at any `K`; only the
//! per-update cost differs.

use pdmsf_engine::Engine;
use pdmsf_shard::ShardedService;
use std::io::Read;

use crate::checkpoint::{EngineCheckpointExt, ServiceCheckpointExt};
use crate::format::PersistError;
use crate::oplog::read_log;

/// What one engine's recovery did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// The engine's sequence number as restored from the checkpoint.
    pub checkpoint_seq: u64,
    /// Valid records found in the log (including ones at or before the
    /// checkpoint, which are skipped).
    pub log_records: u64,
    /// Records actually replayed (sequence numbers after the checkpoint).
    pub replayed: u64,
    /// The engine's sequence number after replay.
    pub recovered_seq: u64,
    /// Bytes of torn log tail dropped (0 after a clean shutdown). A torn
    /// tail can only hold batches that were never acknowledged — the engine
    /// logs before it applies, and callers are answered after.
    pub dropped_log_bytes: u64,
    /// Byte length of the log's valid prefix — truncate the log file here
    /// before appending new records.
    pub log_valid_len: u64,
}

/// Recover one engine: restore the checkpoint from `checkpoint`, read the
/// op log `log_bytes` (stamped with `expect_stream`), and replay every
/// logged batch the checkpoint does not already cover.
pub fn recover_engine<R: Read>(
    checkpoint: R,
    log_bytes: &[u8],
    expect_stream: u32,
) -> Result<(Engine, RecoveryReport), PersistError> {
    let mut engine = Engine::restore(checkpoint)?;
    let report = replay_into(&mut engine, log_bytes, expect_stream)?;
    Ok((engine, report))
}

/// Recover a sharded service: restore the service checkpoint, then replay
/// each shard's op log (`logs[shard]`, stamped with stream id = shard
/// index). Returns the per-shard reports in shard order.
pub fn recover_service<R: Read>(
    checkpoint: R,
    logs: &[&[u8]],
) -> Result<(ShardedService, Vec<RecoveryReport>), PersistError> {
    let mut service = ShardedService::restore_all(checkpoint)?;
    if logs.len() != service.num_shards() {
        return Err(PersistError::Inconsistent(format!(
            "service has {} shards but {} op logs were supplied",
            service.num_shards(),
            logs.len()
        )));
    }
    let mut reports = Vec::with_capacity(logs.len());
    for (shard, log) in logs.iter().enumerate() {
        let report = replay_into(service.shard_engine_mut(shard), log, shard as u32).map_err(
            |e| match e {
                PersistError::Corrupt(m) => PersistError::Corrupt(format!("shard {shard}: {m}")),
                PersistError::Inconsistent(m) => {
                    PersistError::Inconsistent(format!("shard {shard}: {m}"))
                }
                io => io,
            },
        )?;
        reports.push(report);
    }
    // Replay advanced the shard engines past the restored tenant maps;
    // derive them again from the recovered mirrors.
    service
        .rebuild_tenant_edge_maps()
        .map_err(PersistError::Inconsistent)?;
    Ok((service, reports))
}

/// Replay the log tail into a restored engine.
fn replay_into(
    engine: &mut Engine,
    log_bytes: &[u8],
    expect_stream: u32,
) -> Result<RecoveryReport, PersistError> {
    let log = read_log(log_bytes)?;
    if log.stream_id != expect_stream {
        return Err(PersistError::Inconsistent(format!(
            "op log belongs to stream {} but stream {expect_stream} was expected",
            log.stream_id
        )));
    }
    let checkpoint_seq = engine.applied_seq();
    let mut replayed = 0u64;
    for record in &log.records {
        if record.seq <= checkpoint_seq {
            // The checkpoint already contains this batch's effects.
            continue;
        }
        engine
            .replay_logged(record)
            .map_err(PersistError::Inconsistent)?;
        replayed += 1;
    }
    Ok(RecoveryReport {
        checkpoint_seq,
        log_records: log.records.len() as u64,
        replayed,
        recovered_seq: engine.applied_seq(),
        dropped_log_bytes: log.dropped_bytes,
        log_valid_len: log.valid_len,
    })
}
