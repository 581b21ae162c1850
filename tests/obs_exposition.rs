//! Golden coverage test for the Prometheus exposition: after driving one
//! instrumented workload across the whole stack — pool jobs, engine
//! batches, sharded routing, WAL appends and a checkpoint —
//! `obs::global().render_text()` must expose **exactly** the pinned set of
//! metric families, each with its `# TYPE` declaration.
//!
//! Deliberately a single test in its own file: integration-test files run
//! as separate processes, so this is the only code touching the global
//! registry here and the family set is deterministic. (Bucket contents are
//! timing-dependent, so the golden pins the family/TYPE lines, not sample
//! values; the byte-exact render golden on a fresh registry lives in
//! `pdmsf-obs`'s unit tests.)

use pdmsf::obs;
use pdmsf::persist::{FlushPolicy, OpLogWriter, ServiceCheckpointExt};
use pdmsf::prelude::*;
use pdmsf::shard::TenantSpec;

/// Every family the four instrumented layers must expose, with its type —
/// the golden. Adding a metric means updating this list (that is the
/// point: exposition is API).
const GOLDEN_FAMILIES: &[(&str, &str)] = &[
    // engine (opt-in via enable_metrics)
    ("pdmsf_engine_apply_ns", "histogram"),
    ("pdmsf_engine_batches_total", "counter"),
    ("pdmsf_engine_ops_rejected_total", "counter"),
    ("pdmsf_engine_ops_total", "counter"),
    ("pdmsf_engine_pairs_cancelled_total", "counter"),
    ("pdmsf_engine_plan_ns", "histogram"),
    ("pdmsf_engine_queries_total", "counter"),
    ("pdmsf_engine_snapshot_ns", "histogram"),
    ("pdmsf_engine_updates_applied_total", "counter"),
    // persist (always on)
    ("pdmsf_persist_checkpoint_bytes_total", "counter"),
    ("pdmsf_persist_checkpoint_last_bytes", "gauge"),
    ("pdmsf_persist_checkpoint_ns", "histogram"),
    ("pdmsf_persist_checkpoints_total", "counter"),
    ("pdmsf_persist_wal_append_ns", "histogram"),
    ("pdmsf_persist_wal_bytes_total", "counter"),
    ("pdmsf_persist_wal_fsync_ns", "histogram"),
    ("pdmsf_persist_wal_records_total", "counter"),
    // pool (always on)
    ("pdmsf_pool_inline_runs_total", "counter"),
    ("pdmsf_pool_jobs_total", "counter"),
    ("pdmsf_pool_parks_total", "counter"),
    ("pdmsf_pool_shards_executed_total", "counter"),
    ("pdmsf_pool_wakes_total", "counter"),
    ("pdmsf_pool_workers", "gauge"),
    ("pdmsf_pool_workers_parked", "gauge"),
    // shard (opt-in via enable_metrics)
    ("pdmsf_shard_batch_ns", "histogram"),
    ("pdmsf_shard_queue_batch_ops", "histogram"),
    ("pdmsf_shard_routing_rejects_total", "counter"),
    ("pdmsf_shard_service_batches_total", "counter"),
];

#[test]
fn exposition_covers_all_four_layers() {
    // Drive every layer once.
    let specs: Vec<TenantSpec> = (0..6).map(|t| TenantSpec::new(TenantId(t), 64)).collect();
    let mut service = ShardedService::new(3, &specs);
    service.enable_metrics();
    for shard in 0..3 {
        service.shard_engine_mut(shard).set_sink(Box::new(
            OpLogWriter::create(Vec::new(), shard as u32, FlushPolicy::EveryBatch).unwrap(),
        ));
    }
    let stream = TenantStream::generate(&TenantStreamSpec {
        tenants: 6,
        tenant_vertices: 64,
        tenant_edges: 128,
        batches: 4,
        batch_size: 96,
        burst: 12,
        zipf_permille: 500,
        kind: BatchKind::Bursty {
            query_permille: 500,
            flap_permille: 300,
        },
        seed: 11,
    });
    service.execute(&stream.base_ops());
    for batch in &stream.batches {
        service.execute(batch);
    }
    let mut sink = Vec::new();
    service.checkpoint_all(&mut sink).unwrap();

    let text = obs::global().render_text();

    // Exactly the golden family set, each declared with the golden type.
    let mut declared: Vec<(String, String)> = text
        .lines()
        .filter_map(|l| l.strip_prefix("# TYPE "))
        .map(|rest| {
            let mut it = rest.split_whitespace();
            (
                it.next().expect("family name").to_string(),
                it.next().expect("family type").to_string(),
            )
        })
        .collect();
    declared.sort();
    let golden: Vec<(String, String)> = GOLDEN_FAMILIES
        .iter()
        .map(|&(n, t)| (n.to_string(), t.to_string()))
        .collect();
    assert_eq!(
        declared, golden,
        "exposed metric families diverged from the golden set — \
         if the change is intentional, update GOLDEN_FAMILIES"
    );

    // Spot-check the layers actually recorded. Deterministic values first
    // (5 service executes, one checkpoint), then presence-only for the
    // counters whose totals depend on how many shards each batch touched.
    for needle in [
        "pdmsf_shard_service_batches_total 5",
        "pdmsf_persist_checkpoints_total 1",
        "pdmsf_pool_jobs_total ",
        "pdmsf_engine_batches_total ",
        "pdmsf_persist_wal_records_total ",
    ] {
        assert!(text.contains(needle), "missing `{needle}` in:\n{text}");
    }
    let value_of = |series: &str| -> u64 {
        text.lines()
            .find(|l| l.starts_with(series) && !l.starts_with('#'))
            .and_then(|l| l.rsplit(' ').next())
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("series {series} not found"))
    };
    assert!(value_of("pdmsf_engine_batches_total ") >= 5);
    assert!(value_of("pdmsf_persist_wal_records_total ") >= 1);
    assert!(value_of("pdmsf_persist_wal_bytes_total ") > 0);
    assert!(value_of("pdmsf_persist_checkpoint_bytes_total ") > 0);
    for shard in 0..3 {
        let label = format!("pdmsf_shard_batch_ns_count{{shard=\"{shard}\"}}");
        assert!(text.contains(&label), "missing series {label}");
    }
    // HELP precedes TYPE for every family.
    assert_eq!(
        text.matches("# HELP ").count(),
        GOLDEN_FAMILIES.len(),
        "one HELP line per family"
    );
}
