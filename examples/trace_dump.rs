//! Drive a traced multi-tenant workload through a [`ShardedService`] with a
//! write-ahead op log, capture one batch in the flight recorder, and dump
//! what the tracing layer saw: a compact text timeline plus the Chrome
//! trace-event JSON (load it in Perfetto or `about://tracing`).
//!
//! The example also *checks* the tentpole propagation property: the
//! captured batch must contain spans from all four instrumented layers —
//! shard (routing), engine (plan/apply), pool (range execution) and
//! persist (WAL) — all attributed to one [`obs::trace::TraceId`].
//!
//! ```text
//! cargo run --release --example trace_dump
//! ```

use std::collections::BTreeSet;

use pdmsf::obs;
use pdmsf::persist::{FlushPolicy, OpLogWriter};
use pdmsf::prelude::*;
use pdmsf::shard::TenantSpec;

fn main() {
    let tenants = 8;
    let tenant_vertices = 192;
    let shards = 4;
    let specs: Vec<TenantSpec> = (0..tenants)
        .map(|t| TenantSpec::new(TenantId(t), tenant_vertices))
        .collect();
    let mut service = ShardedService::new(shards, &specs);
    service.enable_metrics();
    service.enable_tracing(); // every batch gets a TraceId

    // WAL sinks so the persist layer emits wal.append / wal.fsync spans.
    for shard in 0..shards {
        service.shard_engine_mut(shard).set_sink(Box::new(
            OpLogWriter::create(Vec::new(), shard as u32, FlushPolicy::EveryBatch).unwrap(),
        ));
    }

    let stream = TenantStream::generate(&TenantStreamSpec {
        tenants: tenants as usize,
        tenant_vertices,
        tenant_edges: 2 * tenant_vertices,
        batches: 12,
        batch_size: 256,
        burst: 32,
        zipf_permille: 700,
        kind: BatchKind::Bursty {
            query_permille: 500,
            flap_permille: 300,
        },
        seed: 31,
    });
    service.execute(&stream.base_ops()); // warm state

    // Arm the flight recorder for the next batch, then run the stream; the
    // armed batch is pinned regardless of how fast it was.
    obs::trace::capture_next();
    for batch in &stream.batches {
        service.execute(batch);
    }

    let captured = obs::trace::take_captured();
    let cap = captured
        .first()
        .expect("capture_next() pins the armed batch");

    println!("=== flight-recorder capture ===\n");
    println!(
        "trace {} | {:.1} us end-to-end | {} spans\n",
        cap.trace,
        cap.total_ns as f64 / 1e3,
        cap.spans.len()
    );

    println!("=== text timeline ===\n");
    print!("{}", obs::trace::text_timeline(&cap.spans));

    println!("\n=== per-phase totals ===\n");
    for (phase, ns) in obs::trace::phase_durations(&cap.spans) {
        println!(
            "{:<18} [{}] {:>10.1} us",
            phase.name(),
            phase.layer(),
            ns as f64 / 1e3
        );
    }

    // The acceptance check: one TraceId, spans from all four layers.
    let ids: BTreeSet<u64> = cap.spans.iter().map(|s| s.trace).collect();
    assert_eq!(ids.len(), 1, "a capture holds exactly one trace id");
    let layers: BTreeSet<&str> = cap.spans.iter().map(|s| s.phase.layer()).collect();
    for layer in ["shard", "engine", "pool", "persist"] {
        assert!(
            layers.contains(layer),
            "captured batch is missing {layer}-layer spans (got {layers:?})"
        );
    }
    println!(
        "\nall four layers present under trace {}: {layers:?}",
        cap.trace
    );

    println!("\n=== Chrome trace-event JSON (paste into Perfetto) ===\n");
    println!("{}", obs::trace::chrome_trace_json(&cap.spans));
}
