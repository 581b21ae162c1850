//! One guard per phase: a phase's histogram sample is exactly its trace
//! span's `End.ts − Begin.ts`, because both come from the same two clock
//! readings. Pinned for the engine's query phase on both answer paths
//! (through the structure, and from a captured snapshot) and for the WAL
//! append.
//!
//! The registry and the trace ring are process-global, so these tests run
//! in a binary of their own. Each reads only the histogram families no
//! other test here records into, and only its own trace ids' events.

use pdmsf::obs;
use pdmsf::obs::trace::{self, EventKind, Phase, TraceId};
use pdmsf::persist::{FlushPolicy, OpLogWriter};
use pdmsf::prelude::*;

/// The lengths of the closed `phase` spans traced under `id`.
fn span_lengths(id: TraceId, phase: Phase) -> Vec<u64> {
    let events: Vec<_> = trace::events()
        .into_iter()
        .filter(|e| e.trace == id.0 && e.phase == phase)
        .collect();
    events
        .chunks(2)
        .map(|pair| {
            assert_eq!(
                (pair[0].kind, pair[1].kind),
                (EventKind::Begin, EventKind::End)
            );
            pair[1].ts_ns - pair[0].ts_ns
        })
        .collect()
}

/// Count and sum of the global histogram `name`.
fn count_and_sum(name: &str) -> (u64, u64) {
    let s = obs::global().histogram(name, "").snapshot();
    (s.count, s.sum)
}

fn link(u: u32, v: u32, w: i64) -> BatchOp {
    BatchOp::Link {
        u: VertexId(u),
        v: VertexId(v),
        weight: Weight::new(w),
    }
}

fn qconn(u: u32, v: u32) -> BatchOp {
    BatchOp::QueryConnected {
        u: VertexId(u),
        v: VertexId(v),
    }
}

#[test]
fn engine_snapshot_samples_equal_their_spans_on_both_answer_paths() {
    trace::enable_default();
    let mut engine = Engine::new(64);
    engine.enable_metrics();
    engine.execute(&[link(0, 1, 3), link(1, 2, 5)]);
    // One query is answered through the structure; nine distinct ones
    // over 64 vertices pay for a snapshot capture.
    let through_structure = vec![qconn(0, 2)];
    let from_snapshot: Vec<BatchOp> = (0..9).map(|v| qconn(0, v)).collect();
    for (ops, captures) in [(through_structure, 0), (from_snapshot, 1)] {
        let (count, sum) = count_and_sum("pdmsf_engine_snapshot_ns");
        let captured = engine.stats().snapshots;
        let id = trace::next_id();
        {
            let _scope = trace::scope(id);
            engine.execute(&ops);
        }
        assert_eq!(engine.stats().snapshots - captured, captures);
        let spans = span_lengths(id, Phase::Snapshot);
        assert_eq!(spans.len(), 1, "one engine.snapshot span per batch");
        let (count_after, sum_after) = count_and_sum("pdmsf_engine_snapshot_ns");
        assert_eq!(
            (count_after - count, sum_after - sum),
            (1, spans[0]),
            "the snapshot sample is not its span's length (captures: {captures})"
        );
    }
}

#[test]
fn wal_append_samples_equal_their_spans() {
    trace::enable_default();
    let mut engine = Engine::new(8);
    engine.set_sink(Box::new(
        OpLogWriter::create(Vec::new(), 0, FlushPolicy::Manual).unwrap(),
    ));
    let (count, sum) = count_and_sum("pdmsf_persist_wal_append_ns");
    let id = trace::next_id();
    {
        let _scope = trace::scope(id);
        engine.execute(&[link(0, 1, 3), link(1, 2, 5), link(2, 3, 1)]);
    }
    let spans = span_lengths(id, Phase::WalAppend);
    assert_eq!(spans.len(), 1, "one wal.append span per record");
    let (count_after, sum_after) = count_and_sum("pdmsf_persist_wal_append_ns");
    assert_eq!((count_after - count, sum_after - sum), (1, spans[0]));
}
