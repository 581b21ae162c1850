//! End-to-end tracing propagation: a traced [`ShardedService`] batch with a
//! WAL sink must land spans from all four instrumented layers — shard
//! routing, engine phases, pool range execution and persist WAL writes —
//! in the flight recorder under a single [`pdmsf::obs::trace::TraceId`],
//! and the Chrome exporter must render them as a loadable trace.
//!
//! The flight-recorder state (capture buffer, arm flag, threshold) is
//! process-global, so everything runs in one test function.

use std::collections::BTreeSet;

use pdmsf::obs;
use pdmsf::persist::{FlushPolicy, OpLogWriter};
use pdmsf::prelude::*;
use pdmsf::shard::TenantSpec;

#[test]
fn traced_batch_attributes_all_four_layers_to_one_id() {
    let tenants = 6;
    let tenant_vertices = 128;
    let shards = 3;
    let specs: Vec<TenantSpec> = (0..tenants)
        .map(|t| TenantSpec::new(TenantId(t), tenant_vertices))
        .collect();
    let mut service = ShardedService::new(shards, &specs);
    service.enable_tracing();

    for shard in 0..shards {
        service.shard_engine_mut(shard).set_sink(Box::new(
            OpLogWriter::create(Vec::new(), shard as u32, FlushPolicy::EveryBatch).unwrap(),
        ));
    }

    let stream = TenantStream::generate(&TenantStreamSpec {
        tenants: tenants as usize,
        tenant_vertices,
        tenant_edges: 2 * tenant_vertices,
        batches: 6,
        batch_size: 192,
        burst: 24,
        zipf_permille: 0,
        kind: BatchKind::Bursty {
            query_permille: 400,
            flap_permille: 200,
        },
        seed: 17,
    });
    service.execute(&stream.base_ops());

    // Drain captures pinned by other tests in this binary, then arm.
    let _ = obs::trace::take_captured();
    obs::trace::capture_next();
    for batch in &stream.batches {
        service.execute(batch);
    }

    let captured = obs::trace::take_captured();
    assert!(
        !captured.is_empty(),
        "capture_next() must pin the armed batch"
    );
    let cap = &captured[0];
    assert!(cap.total_ns > 0);
    assert!(!cap.spans.is_empty());

    // One id across the whole capture, spans from all four layers.
    let ids: BTreeSet<u64> = cap.spans.iter().map(|s| s.trace).collect();
    assert_eq!(ids.len(), 1, "a capture holds exactly one trace id");
    assert_eq!(ids.iter().next().copied(), Some(cap.trace));
    let layers: BTreeSet<&str> = cap.spans.iter().map(|s| s.phase.layer()).collect();
    for layer in ["shard", "engine", "pool", "persist"] {
        assert!(
            layers.contains(layer),
            "missing {layer}-layer spans in {layers:?}"
        );
    }

    // Phase attribution: the batch span dominates, and apply/plan/WAL all
    // accumulated spans.
    let durations = obs::trace::phase_durations(&cap.spans);
    let ns_of = |p: obs::trace::Phase| {
        durations
            .iter()
            .find(|(phase, _)| *phase == p)
            .map_or(0, |&(_, ns)| ns)
    };
    let batch_ns = ns_of(obs::trace::Phase::Batch);
    assert!(batch_ns > 0, "batch span must close");
    assert!(ns_of(obs::trace::Phase::Plan) > 0, "plan spans must close");
    assert!(
        ns_of(obs::trace::Phase::Apply) > 0,
        "apply spans must close"
    );
    assert!(
        ns_of(obs::trace::Phase::WalAppend) > 0,
        "WAL append spans must close"
    );
    assert!(batch_ns >= ns_of(obs::trace::Phase::Route));

    // The exporter renders one complete event per span, with Perfetto's
    // required fields.
    let json = obs::trace::chrome_trace_json(&cap.spans);
    assert!(json.starts_with("{\"traceEvents\":["));
    assert!(json.contains("\"name\":\"service.batch\""));
    assert!(json.contains("\"name\":\"wal.append\""));
    assert_eq!(
        json.matches("\"ph\":\"X\"").count(),
        cap.spans.len(),
        "one complete event per captured span"
    );
    assert_eq!(json.matches("{\"name\":").count(), cap.spans.len());

    // Untraced services stay span-free: a fresh service without
    // enable_tracing must not offer anything to the recorder.
    let mut untraced = ShardedService::new(shards, &specs);
    obs::trace::capture_next();
    untraced.execute(&stream.base_ops());
    assert!(
        obs::trace::take_captured().is_empty(),
        "untraced batches must never reach the flight recorder"
    );
    // Disarm for any later test in this process.
    let _ = obs::trace::take_captured();
}
