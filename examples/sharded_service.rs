//! A miniature multi-tenant MSF serving deployment: Zipf-skewed tenants
//! sending bursty link-flap traffic, routed through the sharded service —
//! per-tenant order preserved, every touched shard applied as its own
//! concurrent pool job, outcomes reassembled with tenant-local ids.
//!
//! Per burst the demo prints nothing; every few bursts it prints the
//! per-shard summaries (applied / cancelled / rejected, queries, forest
//! weights) and cross-checks each shard's forest against a Kruskal
//! recompute of its mirror.
//!
//! Run with `cargo run --release --example sharded_service`.

use pdmsf::prelude::*;

fn main() {
    let spec = TenantStreamSpec {
        tenants: 12,
        tenant_vertices: 512,
        tenant_edges: 1_024,
        batches: 24,
        batch_size: 512,
        burst: 64,
        zipf_permille: 900,
        kind: BatchKind::Bursty {
            query_permille: 500,
            flap_permille: 300,
        },
        seed: 7,
    };
    let stream = TenantStream::generate(&spec);
    let shards = 4;
    println!(
        "serving {} tenants ({} vertices each) on {shards} shards — {} bursts of {} ops",
        spec.tenants,
        spec.tenant_vertices,
        stream.num_batches(),
        stream.batches[0].len(),
    );
    let counts = stream.ops_per_tenant();
    println!(
        "tenant popularity (zipf {}): head tenant {} ops, tail tenant {} ops",
        spec.zipf_permille,
        counts[0],
        counts[spec.tenants - 1]
    );

    let tenants: Vec<TenantSpec> = (0..spec.tenants)
        // Pin the hottest tenant to shard 0; everyone else places by the
        // stable hash.
        .map(|t| {
            if t == 0 {
                TenantSpec::pinned(TenantId(0), spec.tenant_vertices, 0)
            } else {
                TenantSpec::new(TenantId(t as u32), spec.tenant_vertices)
            }
        })
        .collect();
    let mut service = ShardedService::new(shards, &tenants);
    for t in 0..spec.tenants {
        println!(
            "  tenant t{t:<2} → shard {}",
            service.shard_of(TenantId(t as u32)).unwrap()
        );
    }

    // Load the per-tenant base graphs as one (untimed) batch.
    service.execute(&stream.base_ops());

    let pool_before = pdmsf::pram::pool::snapshot();
    let started = std::time::Instant::now();
    let mut answered_true = 0usize;
    for (i, burst) in stream.batches.iter().enumerate() {
        let result = service.execute(burst);
        answered_true += result
            .outcomes
            .iter()
            .filter(|o| matches!(o, Outcome::Connected { connected: true }))
            .count();
        if (i + 1) % 8 == 0 {
            println!("\nafter {:>2} bursts:", i + 1);
            for s in &result.summary.per_shard {
                println!(
                    "  shard {}: {:>4} ops, {:>3} applied, {:>3} cancelled pairs, \
                     {:>2} rejected, {:>3} queries ({:>3} unique), \
                     forest weight {:>12}",
                    s.shard,
                    s.ops,
                    s.applied_updates,
                    s.cancelled_pairs,
                    s.rejected,
                    s.queries,
                    s.unique_queries,
                    s.forest_weight,
                );
                assert_matches_kruskal(
                    service.shard_engine(s.shard).structure(),
                    service.shard_engine(s.shard).graph(),
                );
            }
        }
    }
    let elapsed = started.elapsed();
    let pool_delta = pool_before.delta();
    let stats = service.stats();
    println!(
        "\n{} ops in {:.1}ms — {:.0} ops/s over {} shard batches \
         ({} pool jobs, {} pool shards, {} inline runs since start)",
        stream.total_ops(),
        elapsed.as_secs_f64() * 1e3,
        stream.total_ops() as f64 / elapsed.as_secs_f64(),
        stats.shard_batches,
        pool_delta.jobs_run,
        pool_delta.shards_executed,
        pool_delta.inline_runs,
    );
    println!("{answered_true} connectivity probes answered true");
}
