//! Scheduler stress: the many-small-jobs regime the sharded service
//! creates — several submitter threads, each dispatching per-shard jobs
//! onto the pool's open-job queue at once — must produce outcomes
//! identical to the serial (dispatcher-off) path, which the shard crate's
//! lockstep suite pins against per-tenant engines and Kruskal.
//!
//! A single `#[test]` in its own integration binary: the pool width
//! override below is process-global and must be set before anything
//! touches the pool, so no other test may share this process.

use pdmsf_graph::{BatchKind, TenantId, TenantStream, TenantStreamSpec};
use pdmsf_pram::pool;
use pdmsf_shard::{ShardedService, TenantSpec};

/// Bursty multi-tenant stream (the serving workload shape of
/// `pdmsf_bench::tenant_stream`).
fn stress_stream(tenants: usize, tenant_n: usize, seed: u64) -> TenantStream {
    TenantStream::generate(&TenantStreamSpec {
        tenants,
        tenant_vertices: tenant_n,
        tenant_edges: 2 * tenant_n,
        batches: 24,
        batch_size: 48,
        burst: 6,
        zipf_permille: 700,
        kind: BatchKind::Bursty {
            query_permille: 550,
            flap_permille: 350,
        },
        seed,
    })
}

#[test]
fn concurrent_sharded_execution_matches_serial_dispatch_under_load() {
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
                let tenants = 12usize;
                let tenant_n = 24usize;
                let specs: Vec<TenantSpec> = (0..tenants)
                    .map(|x| TenantSpec::new(TenantId(x as u32), tenant_n))
                    .collect();
                // 8 shards over 12 tenants → several small concurrent jobs
                // per batch, imbalanced shard loads (hash placement), and
                // small batches so jobs stay tiny.
                let mut concurrent = ShardedService::new(8, &specs);
                let mut serial = ShardedService::new(8, &specs);
                let stream = stress_stream(tenants, tenant_n, t as u64);
                let mut batches: Vec<_> = vec![stream.base_ops()];
                batches.extend(stream.batches.iter().cloned());
                for batch in &batches {
                    let a = concurrent.execute(batch);
                    let b = serial.execute_serial(batch);
                    assert_eq!(
                        a.outcomes, b.outcomes,
                        "concurrent scheduler diverged from serial dispatch"
                    );
                    assert_eq!(a.summary.forest_weight, b.summary.forest_weight);
                }
                assert_eq!(
                    concurrent.total_forest_weight(),
                    serial.total_forest_weight()
                );
            });
        }
    });

    // The stress actually went through the pooled scheduler: jobs ran, and
    // their slots executed.
    let delta = snap.delta();
    assert!(delta.jobs_run > 0, "no pooled jobs ran during the stress");
    assert!(delta.shards_executed > 0);
    assert_eq!(pool::parallelism(), 4);
}
