//! Grouped-apply stress: shard-level concurrency *and* intra-batch group
//! concurrency at once. Several submitter threads each drive a partitioned
//! service (whose shard jobs nest group jobs inside themselves on the same
//! pool) against a forced-serial-apply partitioned service and a plain
//! one-partition service over the same tenant stream — all three must
//! agree on every outcome and on the final forests.
//!
//! A single `#[test]` in its own integration binary: the pool width
//! override below is process-global and must be set before anything
//! touches the pool, so no other test may share this process.

use pdmsf_core::seq::default_sequential_k;
use pdmsf_engine::Engine;
use pdmsf_graph::{BatchKind, TenantId, TenantStream, TenantStreamSpec};
use pdmsf_pram::pool;
use pdmsf_shard::{ShardedService, TenantSpec};

/// Bursty multi-tenant stream with a high update share so the grouped
/// apply path actually gets multi-group batches.
fn stress_stream(tenants: usize, tenant_n: usize, seed: u64) -> TenantStream {
    TenantStream::generate(&TenantStreamSpec {
        tenants,
        tenant_vertices: tenant_n,
        tenant_edges: 2 * tenant_n,
        batches: 20,
        batch_size: 56,
        burst: 6,
        zipf_permille: 600,
        kind: BatchKind::Bursty {
            query_permille: 300,
            flap_permille: 300,
        },
        seed,
    })
}

#[test]
fn grouped_apply_under_shard_concurrency_matches_serial_paths() {
    // Force real workers even on a 1-core machine (read once, before the
    // pool spawns — this test binary owns the process, so nothing has
    // touched the pool yet).
    std::env::set_var("PDMSF_POOL_THREADS", "4");
    assert!(!pool::is_initialized());

    let snap = pool::snapshot();
    let submitters = 3usize;
    std::thread::scope(|scope| {
        for t in 0..submitters {
            scope.spawn(move || {
                let tenants = 10usize;
                let tenant_n = 32usize;
                let num_parts = 4usize;
                let specs: Vec<TenantSpec> = (0..tenants)
                    .map(|x| TenantSpec::new(TenantId(x as u32), tenant_n))
                    .collect();
                // 4 shards × 4 partitions: per-shard jobs fan out and each
                // nests group jobs, so the pool sees two submission layers
                // from three threads at once.
                let partitioned =
                    move |n: usize| Engine::with_partitions(n, num_parts, default_sequential_k(n));
                let mut grouped = ShardedService::with_engine_factory(4, &specs, partitioned);
                let mut forced_serial = ShardedService::with_engine_factory(4, &specs, move |n| {
                    let mut e = partitioned(n);
                    e.set_serial_apply(true);
                    e
                });
                let mut plain = ShardedService::new(4, &specs);
                let stream = stress_stream(tenants, tenant_n, t as u64);
                let mut batches: Vec<_> = vec![stream.base_ops()];
                batches.extend(stream.batches.iter().cloned());
                let mut saw_groups = 0usize;
                for batch in &batches {
                    let a = grouped.execute(batch);
                    let b = forced_serial.execute(batch);
                    let c = plain.execute(batch);
                    assert_eq!(
                        a.outcomes, b.outcomes,
                        "grouped apply diverged from forced-serial apply"
                    );
                    assert_eq!(
                        a.outcomes, c.outcomes,
                        "partitioned service diverged from plain service"
                    );
                    assert_eq!(a.summary.forest_weight, c.summary.forest_weight);
                    assert_eq!(b.summary.update_groups, 0);
                    saw_groups += a.summary.update_groups;
                }
                assert!(saw_groups > 0, "stress never exercised a grouped batch");
                assert_eq!(grouped.total_forest_weight(), plain.total_forest_weight());
                assert_eq!(
                    grouped.total_forest_weight(),
                    forced_serial.total_forest_weight()
                );
            });
        }
    });

    // The stress actually went through the pooled scheduler, including the
    // nested group jobs.
    let delta = snap.delta();
    assert!(delta.jobs_run > 0, "no pooled jobs ran during the stress");
    assert!(delta.shards_executed > 0);
    assert_eq!(pool::parallelism(), 4);
}
