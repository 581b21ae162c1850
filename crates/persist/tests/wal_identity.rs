//! WAL byte identity: the op log is serialized from the *plan*, before any
//! update applies, so its bytes are a pure function of the batches fed in.
//! These tests pin the exact bytes two workloads write (length and CRC-32),
//! replay each log onto a fresh engine to reach the live forest, and
//! recover a mid-stream checkpoint through the log tail.

use pdmsf_engine::{Engine, Op};
use pdmsf_graph::{EdgeId, VertexId, Weight};
use pdmsf_persist::{
    crc32, read_log, recover_engine, EngineCheckpointExt, FlushPolicy, OpLogWriter, SharedDisk,
};

fn link(u: u32, v: u32, w: i64) -> Op {
    Op::Link {
        u: VertexId(u),
        v: VertexId(v),
        weight: Weight::new(w),
    }
}

/// A workload over 32 vertices in four 8-vertex blocks: independent links
/// per block, a cross-block link, a flap pair (cancelled, but still
/// logged), a rejected op (never logged) and queries (never logged).
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
            link(17, 24, 7), // crosses blocks 2 and 3
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

/// Pile-up workload over the same 32-vertex/4-block layout: per-block
/// chains, bridge links from every block to vertex 0, cuts of those
/// bridges, then block-local churn and a second bridge-and-cut cycle.
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
        // Bridges, ids 28..30: each joins one block's chain to vertex 0.
        vec![link(8, 0, 100), link(16, 0, 101), link(24, 0, 102)],
        // Cuts split the four chains apart again.
        vec![
            Op::Cut { id: EdgeId(28) },
            Op::Cut { id: EdgeId(29) },
            Op::Cut { id: EdgeId(30) },
            Op::QueryForestWeight,
        ],
        // Block-local churn, ids 31..34.
        vec![
            link(0, 2, 50),
            link(9, 11, 51),
            link(17, 19, 52),
            link(25, 27, 53),
        ],
        // Second cycle, ids 35..37.
        vec![link(8, 0, 103), link(16, 0, 104), link(24, 0, 105)],
        vec![
            Op::Cut { id: EdgeId(35) },
            Op::Cut { id: EdgeId(36) },
            Op::Cut { id: EdgeId(37) },
        ],
    ]
}

/// Run `batches` through `Engine::new(32)` with an every-batch log sink.
fn run_with_log(batches: &[Vec<Op>]) -> (Vec<u8>, Engine) {
    let disk = SharedDisk::new();
    let mut engine = Engine::new(32);
    engine.set_sink(Box::new(
        OpLogWriter::create(disk.clone(), 0, FlushPolicy::EveryBatch).unwrap(),
    ));
    for ops in batches {
        engine.execute(ops);
    }
    (disk.snapshot(), engine)
}

/// The log's exact bytes are pinned, and replaying it onto a fresh engine
/// lands on the live engine's forest.
fn assert_pinned_and_replays(batches: &[Vec<Op>], pin: (usize, u32)) {
    let (bytes, live) = run_with_log(batches);
    assert_eq!((bytes.len(), crc32(&bytes)), pin, "WAL bytes moved");
    let report = read_log(&bytes).unwrap();
    assert_eq!(report.dropped_bytes, 0);
    let mut replayed = Engine::new(32);
    for record in &report.records {
        replayed.replay_logged(record).unwrap();
    }
    assert_eq!(replayed.forest_edges(), live.forest_edges());
    assert_eq!(replayed.forest_weight(), live.forest_weight());
    replayed.structure().validate();
}

#[test]
fn batches_write_pinned_log_bytes_and_replay() {
    assert_pinned_and_replays(&batches(), (372, 0xc21b_83e4));
}

#[test]
fn migration_batches_write_pinned_log_bytes_and_replay() {
    assert_pinned_and_replays(&migration_batches(), (1_080, 0x16d0_d307));
}

/// An engine checkpoints after batch 1; recovery from that checkpoint plus
/// the log tail lands on the live engine's forest and update count.
#[test]
fn checkpoint_recovers_through_the_log_tail() {
    let disk = SharedDisk::new();
    let mut live = Engine::new(32);
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
    assert_eq!(report.replayed, 4, "the tail holds the last four batches");
    assert_eq!(recovered.forest_edges(), live.forest_edges());
    // Queries are not logged, so only the update-side counter compares.
    assert_eq!(
        recovered.stats().applied_updates,
        live.stats().applied_updates
    );
    recovered.structure().validate();
}
