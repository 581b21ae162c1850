//! WAL byte-identity: the op log is serialized from the *plan*, before any
//! update applies, so the apply path — grouped concurrent apply on a
//! partitioned engine, forced arrival-order serial apply, or a
//! one-partition engine — can never influence the log bytes. This test
//! pins that: three engines with all three apply paths, fed identical
//! batches through identically-configured log sinks, must produce
//! **byte-identical** log streams, and replaying that one stream must
//! reproduce the same forest on every engine kind.

use pdmsf_core::seq::default_sequential_k;
use pdmsf_engine::{Engine, Op};
use pdmsf_graph::{EdgeId, VertexId, Weight};
use pdmsf_persist::{
    read_log, recover_engine, EngineCheckpointExt, FlushPolicy, OpLogWriter, SharedDisk,
};

/// An engine with four partitions at the serving chunk parameter.
fn partitioned(n: usize) -> Engine {
    Engine::with_partitions(n, 4, default_sequential_k(n))
}

fn link(u: u32, v: u32, w: i64) -> Op {
    Op::Link {
        u: VertexId(u),
        v: VertexId(v),
        weight: Weight::new(w),
    }
}

/// A workload over 32 vertices in four 8-vertex partition blocks: multiple
/// independent groups per batch, a cross-block link (migration), a flap
/// pair (cancelled, but still logged), a rejected op (never logged) and
/// queries (never logged).
fn batches() -> Vec<Vec<Op>> {
    vec![
        vec![
            link(0, 1, 5),   // block 0
            link(8, 9, 3),   // block 1
            link(16, 17, 9), // block 2
            link(24, 25, 2), // block 3
            link(1, 2, 4),
        ],
        vec![
            link(2, 3, 1),
            link(9, 10, 6),
            link(17, 24, 7), // crosses blocks 2 and 3 → migration
            link(30, 31, 8),
            Op::QueryConnected {
                u: VertexId(17),
                v: VertexId(25),
            },
        ],
        vec![
            link(4, 5, 11),             // flap…
            Op::Cut { id: EdgeId(9) },  // …cancelled in-batch
            Op::Cut { id: EdgeId(0) },  // real cut, block 0
            Op::Cut { id: EdgeId(6) },  // real cut, block 1
            Op::Cut { id: EdgeId(99) }, // rejected — must not be logged
            link(10, 11, 12),
            Op::QueryForestWeight,
        ],
    ]
}

fn run_with_log(mut engine: Engine) -> (SharedDisk, Engine) {
    let disk = SharedDisk::new();
    engine.set_sink(Box::new(
        OpLogWriter::create(disk.clone(), 0, FlushPolicy::EveryBatch).unwrap(),
    ));
    for ops in batches() {
        engine.execute(&ops);
    }
    (disk, engine)
}

#[test]
fn grouped_serial_and_single_apply_write_identical_log_bytes() {
    let n = 32;
    let grouped = partitioned(n);
    let mut forced_serial = partitioned(n);
    forced_serial.set_serial_apply(true);
    let single = Engine::new(n);

    let (grouped_disk, grouped) = run_with_log(grouped);
    let (serial_disk, forced_serial) = run_with_log(forced_serial);
    let (single_disk, single) = run_with_log(single);

    let bytes = grouped_disk.snapshot();
    assert!(!bytes.is_empty());
    assert_eq!(
        bytes,
        serial_disk.snapshot(),
        "grouped vs forced-serial apply diverged in WAL bytes"
    );
    assert_eq!(
        bytes,
        single_disk.snapshot(),
        "partitioned vs one-partition engine diverged in WAL bytes"
    );

    // The engines agree on state too (the log equality is not vacuous).
    assert_eq!(grouped.forest_edges(), single.forest_edges());
    assert_eq!(grouped.forest_weight(), single.forest_weight());
    assert_eq!(forced_serial.forest_edges(), single.forest_edges());
    assert!(grouped.stats().update_groups > 0);
    assert_eq!(forced_serial.stats().update_groups, 0);
    grouped.structure().validate();

    // One log stream replays onto every engine kind and lands on the same
    // forest — grouped replay included (replay routes through the normal
    // grouped apply path).
    let report = read_log(&bytes).unwrap();
    assert_eq!(report.dropped_bytes, 0);
    assert_eq!(report.records.len(), 3);
    let mut replay_grouped = partitioned(n);
    let mut replay_single = Engine::new(n);
    for record in &report.records {
        replay_grouped.replay_logged(record).unwrap();
        replay_single.replay_logged(record).unwrap();
    }
    assert_eq!(replay_grouped.forest_edges(), grouped.forest_edges());
    assert_eq!(replay_single.forest_edges(), grouped.forest_edges());
    assert_eq!(replay_grouped.forest_weight(), grouped.forest_weight());
    replay_grouped.structure().validate();
}

/// Pile-up workload over the same 32-vertex/4-block layout: per-block
/// chains, bridge links that drag every component into vertex 0's
/// partition, cuts that strand them there (the rebalance trigger), then
/// block-local churn and a second pile-up cycle. With the rebalance floor
/// forced to 1 the partitioned engines re-home components mid-stream.
fn migration_batches() -> Vec<Vec<Op>> {
    let mut chains = Vec::new();
    for b in 0..4u32 {
        for i in 0..7u32 {
            // ids 0..27
            chains.push(link(8 * b + i, 8 * b + i + 1, (8 * b + i) as i64 + 1));
        }
    }
    vec![
        chains,
        // Bridges, ids 28..30: each migrates one block's chain into
        // vertex 0's partition.
        vec![link(8, 0, 100), link(16, 0, 101), link(24, 0, 102)],
        // Cuts strand four components in one partition → rebalance.
        vec![
            Op::Cut { id: EdgeId(28) },
            Op::Cut { id: EdgeId(29) },
            Op::Cut { id: EdgeId(30) },
            Op::QueryForestWeight,
        ],
        // Block-local churn on the rebalanced layout, ids 31..34.
        vec![
            link(0, 2, 50),
            link(9, 11, 51),
            link(17, 19, 52),
            link(25, 27, 53),
        ],
        // Second cycle, ids 35..37 — rebalancing happens mid-stream, not
        // just once at the end.
        vec![link(8, 0, 103), link(16, 0, 104), link(24, 0, 105)],
        vec![
            Op::Cut { id: EdgeId(35) },
            Op::Cut { id: EdgeId(36) },
            Op::Cut { id: EdgeId(37) },
        ],
    ]
}

/// Rebalancing must be WAL-invisible: re-homing components between
/// batches re-inserts the same edges in ascending `WKey` order and never
/// touches the plan, so a rebalancing engine, a forced-serial rebalancing
/// engine and a one-partition engine (which never migrates at all)
/// write **byte-identical** logs — and replay, itself rebalancing under
/// the same floor, reconstructs identical forests *and* identical homes.
#[test]
fn migration_and_rebalance_heavy_stream_keeps_wal_bytes_identical() {
    let n = 32;
    let run = |mut engine: Engine| -> (SharedDisk, Engine) {
        let disk = SharedDisk::new();
        engine.set_sink(Box::new(
            OpLogWriter::create(disk.clone(), 0, FlushPolicy::EveryBatch).unwrap(),
        ));
        for ops in migration_batches() {
            engine.execute(&ops);
        }
        (disk, engine)
    };
    let mut grouped = partitioned(n);
    grouped.set_rebalance_min(1);
    let mut forced_serial = partitioned(n);
    forced_serial.set_serial_apply(true);
    forced_serial.set_rebalance_min(1);
    let single = Engine::new(n);

    let (grouped_disk, grouped) = run(grouped);
    let (serial_disk, forced_serial) = run(forced_serial);
    let (single_disk, single) = run(single);

    let bytes = grouped_disk.snapshot();
    assert!(!bytes.is_empty());
    assert_eq!(
        bytes,
        serial_disk.snapshot(),
        "grouped vs forced-serial rebalancing diverged in WAL bytes"
    );
    assert_eq!(
        bytes,
        single_disk.snapshot(),
        "rebalancing partitioned vs one-partition engine diverged in WAL bytes"
    );

    // The stream really exercised the machinery, and it stayed invisible.
    assert!(grouped.stats().rebalances >= 2, "two pile-up cycles");
    assert!(grouped.stats().migrations >= 6);
    assert_eq!(grouped.stats().rebalances, forced_serial.stats().rebalances);
    assert_eq!(grouped.forest_edges(), single.forest_edges());
    assert_eq!(grouped.forest_weight(), single.forest_weight());
    assert_eq!(forced_serial.forest_edges(), single.forest_edges());
    grouped.structure().validate();
    forced_serial.structure().validate();

    // Replay under the same rebalance floor reproduces not just the
    // forest but the exact component homes — the rebalance decision
    // sequence is a pure function of the logged update stream.
    let report = read_log(&bytes).unwrap();
    assert_eq!(report.dropped_bytes, 0);
    let mut replay = partitioned(n);
    replay.set_rebalance_min(1);
    for record in &report.records {
        replay.replay_logged(record).unwrap();
    }
    assert_eq!(replay.forest_edges(), grouped.forest_edges());
    assert_eq!(replay.forest_weight(), grouped.forest_weight());
    let (rp, gp) = (replay.structure(), grouped.structure());
    for v in 0..n as u32 {
        assert_eq!(
            rp.home_of(VertexId(v)),
            gp.home_of(VertexId(v)),
            "replay diverged from live execution on the home of vertex {v}"
        );
    }
    replay.structure().validate();
}

/// A rebalancing partitioned engine checkpoints mid-stream; recovery from
/// that checkpoint plus the log tail lands on the live engine's forest,
/// homes and counters, and keeps logging byte-identically afterwards.
#[test]
fn partitioned_checkpoint_recovers_through_the_log_tail() {
    let n = 32;
    let disk = SharedDisk::new();
    let mut live = partitioned(n);
    live.set_rebalance_min(1);
    live.set_sink(Box::new(
        OpLogWriter::create(disk.clone(), 0, FlushPolicy::EveryBatch).unwrap(),
    ));
    let mut checkpoint = Vec::new();
    for (i, ops) in migration_batches().iter().enumerate() {
        live.execute(ops);
        if i == 1 {
            live.checkpoint(&mut checkpoint).unwrap();
        }
    }
    let (recovered, report) = recover_engine(&checkpoint[..], &disk.snapshot(), 0).unwrap();
    assert!(
        report.replayed >= 4,
        "the tail must replay the rebalancing batches"
    );
    assert_eq!(recovered.forest_edges(), live.forest_edges());
    // Queries are not logged, so only the update-side counters compare.
    let (r, l) = (recovered.stats(), live.stats());
    assert_eq!(
        (r.applied_updates, r.migrations, r.rebalances),
        (l.applied_updates, l.migrations, l.rebalances)
    );
    assert_eq!(recovered.structure().homes(), live.structure().homes());
    assert_eq!(
        recovered.structure().occupancy(),
        live.structure().occupancy()
    );
    assert_eq!(
        recovered.structure().partition_stats(),
        live.structure().partition_stats()
    );
    recovered.structure().validate();
}
