//! Crash-recovery property tests: `restore(checkpoint(S)) + replay == S`,
//! verified in lockstep against an uninterrupted twin under fault
//! injection — crashes at arbitrary byte offsets of the op log (torn
//! tails), bit flips in the checkpoint and in the log, and truncations.
//!
//! The twin discipline models acknowledgement: the engine logs a batch
//! before applying it and the caller is answered after, so a crash can only
//! lose batches whose records did not fully survive — and the recovered
//! state must equal a fresh engine that executed exactly the surviving
//! prefix of mutating batches (plus all interleaved queries, which mutate
//! nothing).

use pdmsf_engine::{Engine, LoggedBatch, Op, OpSink, PlannedUpdate};
use pdmsf_graph::{EdgeId, TenantId, TenantOp, VertexId, Weight};
use pdmsf_persist::{
    read_log, recover_engine, recover_service, EngineCheckpointExt, FlushPolicy, OpLogWriter,
    PersistError, ServiceCheckpointExt, SharedDisk,
};
use pdmsf_shard::{ShardedService, TenantSpec};
use proptest::prelude::*;

/// Compact op encoding, concretised against the running id allocation
/// (mirrors the engine lockstep suite).
#[derive(Clone, Copy, Debug)]
enum RawOp {
    Link { u: u8, v: u8, w: u8 },
    CutNth(u8),
    CutBogus(u8),
    QueryConn { u: u8, v: u8 },
}

fn raw_op() -> impl Strategy<Value = RawOp> {
    prop_oneof![
        5 => (any::<u8>(), any::<u8>(), any::<u8>()).prop_map(|(u, v, w)| RawOp::Link { u, v, w }),
        3 => any::<u8>().prop_map(RawOp::CutNth),
        1 => any::<u8>().prop_map(RawOp::CutBogus),
        2 => (any::<u8>(), any::<u8>()).prop_map(|(u, v)| RawOp::QueryConn { u, v }),
    ]
}

fn concretise(n: usize, raw_batches: &[Vec<RawOp>]) -> Vec<Vec<Op>> {
    let endpoint = |x: u8| VertexId((x as usize % (n + 1)) as u32);
    let mut next_id = 0u32;
    let mut live: Vec<EdgeId> = Vec::new();
    let mut batches = Vec::with_capacity(raw_batches.len());
    for raw in raw_batches {
        let mut ops = Vec::with_capacity(raw.len());
        for r in raw {
            let op = match *r {
                RawOp::Link { u, v, w } => {
                    let (u, v) = (endpoint(u), endpoint(v));
                    if u.index() < n && v.index() < n && u != v {
                        live.push(EdgeId(next_id));
                        next_id += 1;
                    }
                    Op::Link {
                        u,
                        v,
                        weight: Weight::new(w as i64),
                    }
                }
                RawOp::CutNth(k) => {
                    if live.is_empty() {
                        Op::Cut { id: EdgeId(9999) }
                    } else {
                        let idx = k as usize % live.len();
                        Op::Cut {
                            id: live.swap_remove(idx),
                        }
                    }
                }
                RawOp::CutBogus(k) => Op::Cut {
                    id: EdgeId((k as u32) % (next_id + 3)),
                },
                RawOp::QueryConn { u, v } => Op::QueryConnected {
                    u: endpoint(u),
                    v: endpoint(v),
                },
            };
            ops.push(op);
        }
        batches.push(ops);
    }
    batches
}

/// Builds the engine under test for `n` vertices.
type MakeEngine = fn(usize) -> Engine;

/// Assert two engines are in the same state: forest, weight, component
/// structure over every vertex pair, internal invariants, and identical
/// future behaviour on a probe batch.
fn assert_same_state(recovered: &mut Engine, twin: &mut Engine) {
    assert_eq!(recovered.forest_edges(), twin.forest_edges());
    assert_eq!(recovered.forest_weight(), twin.forest_weight());
    assert_eq!(recovered.applied_seq(), twin.applied_seq());
    recovered.structure().validate();
    let n = recovered.num_vertices() as u32;
    let pairs: Vec<Op> = (0..n)
        .flat_map(|u| {
            (u + 1..n).map(move |v| Op::QueryConnected {
                u: VertexId(u),
                v: VertexId(v),
            })
        })
        .collect();
    let a = recovered.execute(&pairs);
    let b = twin.execute(&pairs);
    assert_eq!(a.outcomes, b.outcomes, "component labels diverged");
    // Future behaviour: one more mutating batch lands identically.
    let probe = [
        Op::Link {
            u: VertexId(0),
            v: VertexId(1),
            weight: Weight::new(1),
        },
        Op::Link {
            u: VertexId(n - 1),
            v: VertexId(n - 2),
            weight: Weight::new(2),
        },
    ];
    let a = recovered.execute(&probe);
    let b = twin.execute(&probe);
    assert_eq!(
        a.outcomes, b.outcomes,
        "post-recovery id allocation drifted"
    );
    assert_eq!(recovered.forest_weight(), twin.forest_weight());
}

/// Run `batches` on a logged engine, checkpointing after batch
/// `checkpoint_after`. Returns the checkpoint bytes, the log disk, and the
/// engine's applied_seq after each batch.
fn run_logged(
    make: MakeEngine,
    n: usize,
    batches: &[Vec<Op>],
    checkpoint_after: usize,
) -> (Vec<u8>, SharedDisk, Vec<u64>, Engine) {
    let disk = SharedDisk::new();
    let mut engine = make(n);
    engine.set_sink(Box::new(
        OpLogWriter::create(disk.clone(), 0, FlushPolicy::EveryBatch).unwrap(),
    ));
    let mut checkpoint = Vec::new();
    let mut seq_after = Vec::with_capacity(batches.len());
    for (i, ops) in batches.iter().enumerate() {
        engine.execute(ops);
        seq_after.push(engine.applied_seq());
        if i == checkpoint_after {
            engine.checkpoint(&mut checkpoint).unwrap();
        }
    }
    if checkpoint.is_empty() {
        // checkpoint_after past the stream: checkpoint the final state.
        engine.checkpoint(&mut checkpoint).unwrap();
    }
    (checkpoint, disk, seq_after, engine)
}

/// The twin: a fresh, unlogged engine that executes every batch whose
/// mutations are covered by `covered_seq` (query-only batches included —
/// they mutate nothing).
fn build_twin(
    make: MakeEngine,
    n: usize,
    batches: &[Vec<Op>],
    seq_after: &[u64],
    covered_seq: u64,
) -> Engine {
    let mut twin = make(n);
    for (i, ops) in batches.iter().enumerate() {
        if seq_after[i] > covered_seq {
            break;
        }
        twin.execute(ops);
    }
    twin
}

/// Crash at an arbitrary byte offset of the op log: recovery from the
/// checkpoint plus the surviving log prefix reproduces exactly the state of
/// an uninterrupted twin that executed the surviving batches.
fn crash_recovers_the_acked_prefix(
    make: MakeEngine,
    raw: &[Vec<RawOp>],
    checkpoint_after: u8,
    crash_permille: u32,
) {
    let n = 8;
    let batches = concretise(n, raw);
    let ckpt_ix = checkpoint_after as usize % batches.len();
    let (checkpoint, disk, seq_after, _live) = run_logged(make, n, &batches, ckpt_ix);

    // Crash: only a prefix of the log survives (never shorter than the
    // header — a missing log file is a different failure mode).
    let full_log = disk.snapshot();
    let crash_at = 16 + ((full_log.len() - 16) as u64 * crash_permille as u64 / 1000) as usize;
    let torn = &full_log[..crash_at];

    let (mut recovered, report) = recover_engine(&checkpoint[..], torn, 0).unwrap();
    assert_eq!(
        report.dropped_log_bytes as usize,
        crash_at - report.log_valid_len as usize
    );

    // The twin executes exactly the batches recovery could cover: the
    // checkpoint's seq or the last surviving log record, whichever is
    // newer.
    let surviving_seq = read_log(torn).unwrap().records.last().map_or(0, |r| r.seq);
    let covered = surviving_seq.max(report.checkpoint_seq);
    assert_eq!(report.recovered_seq, covered);
    let mut twin = build_twin(make, n, &batches, &seq_after, covered);
    assert_same_state(&mut recovered, &mut twin);
}

/// A flipped bit anywhere in the checkpoint refuses to restore — never a
/// silently wrong engine.
fn checkpoint_bit_flip_is_refused(
    make: MakeEngine,
    raw: &[Vec<RawOp>],
    flip_byte: u32,
    flip_bit: u8,
) {
    let n = 8;
    let batches = concretise(n, raw);
    let (checkpoint, _disk, _seq, _live) = run_logged(make, n, &batches, batches.len() - 1);
    let mut bad = checkpoint.clone();
    let byte = flip_byte as usize % bad.len();
    bad[byte] ^= 1 << flip_bit;
    assert!(
        Engine::restore(&bad[..]).is_err(),
        "flip at byte {} of {} restored silently",
        byte,
        bad.len()
    );
}

/// A flipped bit in the op log is either caught as a clean tail truncation
/// (recovery lands on the surviving prefix, twin-verified) or refused
/// outright — never absorbed into a diverged state.
fn log_bit_flip_truncates_or_refuses(
    make: MakeEngine,
    raw: &[Vec<RawOp>],
    flip_byte: u32,
    flip_bit: u8,
) {
    let n = 8;
    let batches = concretise(n, raw);
    let (checkpoint, disk, seq_after, _live) = run_logged(make, n, &batches, 0);
    let full_log = disk.snapshot();
    let mut bad = full_log.clone();
    let byte = flip_byte as usize % bad.len();
    bad[byte] ^= 1 << flip_bit;

    match recover_engine(&checkpoint[..], &bad, 0) {
        Err(_) => {} // header flip, or a replay that no longer lines up
        Ok((mut recovered, report)) => {
            let surviving_seq = read_log(&bad).unwrap().records.last().map_or(0, |r| r.seq);
            let covered = surviving_seq.max(report.checkpoint_seq);
            let mut twin = build_twin(make, n, &batches, &seq_after, covered);
            assert_same_state(&mut recovered, &mut twin);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 16,
        .. ProptestConfig::default()
    })]

    #[test]
    fn recovery_reproduces_the_acked_prefix(
        raw in proptest::collection::vec(proptest::collection::vec(raw_op(), 0..16), 1..7),
        checkpoint_after in any::<u8>(),
        crash_permille in 0u32..=1000,
    ) {
        crash_recovers_the_acked_prefix(Engine::new, &raw, checkpoint_after, crash_permille);
    }

    #[test]
    fn checkpoint_bit_flips_never_restore(
        raw in proptest::collection::vec(proptest::collection::vec(raw_op(), 1..16), 1..4),
        flip_byte in any::<u32>(),
        flip_bit in 0u8..8,
    ) {
        checkpoint_bit_flip_is_refused(Engine::new, &raw, flip_byte, flip_bit);
    }

    #[test]
    fn log_bit_flips_truncate_or_refuse(
        raw in proptest::collection::vec(proptest::collection::vec(raw_op(), 2..16), 2..6),
        flip_byte in any::<u32>(),
        flip_bit in 0u8..8,
    ) {
        log_bit_flip_truncates_or_refuses(Engine::new, &raw, flip_byte, flip_bit);
    }
}

/// Deterministic end-to-end service recovery: per-shard op logs, a
/// mid-stream checkpoint, a crash that tears one shard's log, and recovery
/// that re-wires the tenant table — verified tenant by tenant against the
/// uninterrupted service.
#[test]
fn service_recovery_replays_per_shard_logs_and_rewires_tenants() {
    let tenants: Vec<TenantSpec> = (0..5).map(|t| TenantSpec::new(TenantId(t), 6)).collect();
    let mut service = ShardedService::new(2, &tenants);
    let disks: Vec<SharedDisk> = (0..2).map(|_| SharedDisk::new()).collect();
    for (shard, disk) in disks.iter().enumerate() {
        service.shard_engine_mut(shard).set_sink(Box::new(
            OpLogWriter::create(disk.clone(), shard as u32, FlushPolicy::EveryBatch).unwrap(),
        ));
    }
    let link = |t: u32, u: u32, v: u32, w: i64| TenantOp {
        tenant: TenantId(t),
        op: Op::Link {
            u: VertexId(u),
            v: VertexId(v),
            weight: Weight::new(w),
        },
    };
    let cut = |t: u32, id: u32| TenantOp {
        tenant: TenantId(t),
        op: Op::Cut { id: EdgeId(id) },
    };

    service.execute(&[
        link(0, 0, 1, 5),
        link(1, 1, 2, 3),
        link(2, 2, 3, 8),
        link(3, 3, 4, 1),
        link(4, 4, 5, 9),
    ]);
    let mut checkpoint = Vec::new();
    service.checkpoint_all(&mut checkpoint).unwrap();

    // Post-checkpoint traffic: new links and a cut, all covered only by the
    // per-shard logs.
    service.execute(&[
        link(0, 2, 3, 2),
        link(1, 3, 4, 7),
        cut(2, 0),
        link(3, 0, 1, 4),
        link(4, 0, 2, 6),
    ]);

    // Crash. Both log disks survive in full (EveryBatch policy).
    let logs: Vec<Vec<u8>> = disks.iter().map(SharedDisk::snapshot).collect();
    let log_refs: Vec<&[u8]> = logs.iter().map(Vec::as_slice).collect();
    let (mut recovered, reports) = recover_service(&checkpoint[..], &log_refs).unwrap();
    assert!(
        reports.iter().any(|r| r.replayed > 0),
        "nothing was replayed — the test lost its post-checkpoint traffic"
    );
    assert_eq!(
        recovered.total_forest_weight(),
        service.total_forest_weight()
    );
    for t in 0..5 {
        assert_eq!(
            recovered.tenant_forest_weight(TenantId(t)),
            service.tenant_forest_weight(TenantId(t)),
            "tenant {t} diverged through recovery"
        );
    }
    // The re-derived tenant table still routes tenant-local ids correctly:
    // cutting a post-checkpoint edge by its tenant-local id works on both.
    let probe = [cut(1, 1), link(0, 4, 5, 1)];
    let a = recovered.execute(&probe);
    let b = service.execute(&probe);
    assert_eq!(a.outcomes, b.outcomes);
    assert_eq!(
        recovered.total_forest_weight(),
        service.total_forest_weight()
    );
}

/// A torn tail on one shard's log rolls just that shard back to its last
/// surviving record; the other shards recover in full, and every recovered
/// tenant matches a twin service that only saw the surviving batches.
#[test]
fn service_recovery_tolerates_a_torn_shard_log() {
    let tenants: Vec<TenantSpec> = (0..4)
        .map(|t| TenantSpec::pinned(TenantId(t), 6, (t % 2) as usize))
        .collect();
    let build = || {
        let mut s = ShardedService::new(2, &tenants);
        let disks: Vec<SharedDisk> = (0..2).map(|_| SharedDisk::new()).collect();
        for (shard, disk) in disks.iter().enumerate() {
            s.shard_engine_mut(shard).set_sink(Box::new(
                OpLogWriter::create(disk.clone(), shard as u32, FlushPolicy::EveryBatch).unwrap(),
            ));
        }
        (s, disks)
    };
    let link = |t: u32, u: u32, v: u32, w: i64| TenantOp {
        tenant: TenantId(t),
        op: Op::Link {
            u: VertexId(u),
            v: VertexId(v),
            weight: Weight::new(w),
        },
    };
    let batch1 = [link(0, 0, 1, 5), link(1, 1, 2, 3)];
    let batch2 = [link(2, 2, 3, 8), link(3, 3, 4, 1)];
    let batch3 = [link(0, 1, 2, 2), link(1, 3, 4, 7)];

    let (mut service, disks) = build();
    service.execute(&batch1);
    let mut checkpoint = Vec::new();
    service.checkpoint_all(&mut checkpoint).unwrap();
    service.execute(&batch2);
    service.execute(&batch3);

    // Shard 0's log is torn 3 bytes short: its final record is dropped.
    let log0_full = disks[0].snapshot();
    let log0_torn = &log0_full[..log0_full.len() - 3];
    let log1 = disks[1].snapshot();
    let (recovered, reports) = recover_service(&checkpoint[..], &[log0_torn, &log1]).unwrap();
    assert!(reports[0].dropped_log_bytes > 0);
    assert_eq!(reports[1].dropped_log_bytes, 0);

    // Twin: shard 0 saw batches up to its surviving seq; rebuild the same
    // coverage by replaying the op stream batch by batch on a fresh
    // service and comparing per-tenant weights for the tenants whose shard
    // recovered in full.
    for t in [1u32, 3] {
        // Tenants pinned to shard 1 — fully recovered.
        assert_eq!(
            recovered.tenant_forest_weight(TenantId(t)),
            service.tenant_forest_weight(TenantId(t)),
            "fully-logged tenant {t} diverged"
        );
    }
    // Shard 0 lost its last acked record (batch3's sub-batch); its tenants
    // roll back to the batch2 point.
    let (mut twin, _) = build();
    twin.execute(&batch1);
    twin.execute(&batch2);
    for t in [0u32, 2] {
        assert_eq!(
            recovered.tenant_forest_weight(TenantId(t)),
            twin.tenant_forest_weight(TenantId(t)),
            "torn-log tenant {t} did not roll back to the surviving prefix"
        );
    }
}

/// Recovery refuses a log that belongs to a different stream (a shard's
/// log fed to the wrong shard).
#[test]
fn recovery_refuses_a_foreign_log_stream() {
    let mut engine = Engine::new(4);
    let disk = SharedDisk::new();
    engine.set_sink(Box::new(
        OpLogWriter::create(disk.clone(), 3, FlushPolicy::EveryBatch).unwrap(),
    ));
    engine.execute(&[Op::Link {
        u: VertexId(0),
        v: VertexId(1),
        weight: Weight::new(1),
    }]);
    let mut checkpoint = Vec::new();
    engine.checkpoint(&mut checkpoint).unwrap();
    let log = disk.snapshot();
    assert!(recover_engine(&checkpoint[..], &log, 0).is_err());
    assert!(recover_engine(&checkpoint[..], &log, 3).is_ok());
}

/// Outcomes are acknowledged only after the log write: a batch whose
/// record fully survives is never lost, checked across every record
/// boundary of a multi-batch log.
#[test]
fn every_fully_logged_batch_survives_recovery() {
    let n = 6;
    let batches: Vec<Vec<Op>> = (0..4)
        .map(|i| {
            vec![Op::Link {
                u: VertexId(i),
                v: VertexId(i + 1),
                weight: Weight::new(i as i64 + 1),
            }]
        })
        .collect();
    let (checkpoint, disk, seq_after, _live) = run_logged(Engine::new, n, &batches, 0);
    let full_log = disk.snapshot();
    // Find each record boundary by re-reading prefixes.
    for cut in 16..=full_log.len() {
        let torn = &full_log[..cut];
        let report = read_log(torn).unwrap();
        let (mut recovered, _) = recover_engine(&checkpoint[..], torn, 0).unwrap();
        let covered = report.records.last().map_or(1, |r| r.seq);
        let mut twin = build_twin(Engine::new, n, &batches, &seq_after, covered.max(1));
        assert_same_state(&mut recovered, &mut twin);
    }
}

/// A log record the planner could never have written — here a cancelled
/// cut of a pre-record edge with no link to pair with — fails recovery
/// instead of replaying into a structure that disagrees with its mirror.
#[test]
fn recovery_refuses_an_impossible_log_record() {
    let mut checkpoint = Vec::new();
    Engine::new(4).checkpoint(&mut checkpoint).unwrap();
    let disk = SharedDisk::new();
    let mut writer = OpLogWriter::create(disk.clone(), 0, FlushPolicy::EveryBatch).unwrap();
    let records = [
        vec![PlannedUpdate::Link {
            id: EdgeId(0),
            u: VertexId(0),
            v: VertexId(1),
            weight: Weight::new(5),
            cancelled: false,
        }],
        vec![PlannedUpdate::Cut {
            id: EdgeId(0),
            cancelled: true,
        }],
    ];
    for (i, updates) in records.into_iter().enumerate() {
        let batch = LoggedBatch {
            seq: i as u64 + 1,
            id_base: 1.min(i as u64),
            updates,
        };
        writer.record(batch.seq, &batch).unwrap();
    }
    let log = disk.snapshot();
    assert_eq!(read_log(&log).unwrap().records.len(), 2);
    assert!(matches!(
        recover_engine(&checkpoint[..], &log, 0),
        Err(PersistError::Inconsistent(_))
    ));
}
