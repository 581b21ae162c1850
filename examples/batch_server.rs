//! A miniature MSF serving loop: bursts of mixed update/query traffic —
//! link flaps around per-burst hotspots, duplicate connectivity probes, the
//! odd forest-weight poll — executed through the batch engine.
//!
//! Each burst goes through [`Engine::execute`]: batch planning cancels the
//! flap pairs before they reach the `O(sqrt(n) log n)` update path, queries
//! are deduplicated and answered at one post-update point from the
//! structure's Euler-tour lists, and the per-op outcomes come back
//! index-aligned with the burst. Every few bursts the maintained forest is
//! checked against a Kruskal recompute over the engine's mirror graph.
//!
//! Run with `cargo run --release --example batch_server`.

use pdmsf::prelude::*;

fn main() {
    let n = 4_096;
    let stream = BatchStream::generate(&BatchStreamSpec {
        base: GraphSpec::RandomSparse {
            n,
            m: 2 * n,
            seed: 11,
        },
        batches: 40,
        batch_size: 512,
        kind: BatchKind::Bursty {
            query_permille: 550,
            flap_permille: 350,
        },
        seed: 12,
    });
    let (updates, queries) = stream.count_ops();
    println!(
        "serving {} bursts of {} ops over {n} vertices ({updates} updates, {queries} queries)",
        stream.num_batches(),
        stream.batches[0].len(),
    );

    let mut engine = Engine::new(n);
    // Load the base graph as one (untimed) initial batch.
    engine.execute(&stream.base_ops());

    let started = std::time::Instant::now();
    let mut answered_true = 0usize;
    for (i, burst) in stream.batches.iter().enumerate() {
        let result = engine.execute(burst);
        answered_true += result
            .outcomes
            .iter()
            .filter(|o| matches!(o, Outcome::Connected { connected: true }))
            .count();
        if (i + 1) % 10 == 0 {
            let s = engine.stats();
            println!(
                "after {:>2} bursts: forest weight = {:>12}, cancelled pairs = {:>4}, \
                 deduped queries = {:>4}",
                i + 1,
                engine.forest_weight(),
                s.cancelled_pairs,
                s.deduped_queries,
            );
            assert_matches_kruskal(engine.structure(), engine.graph());
        }
    }
    let elapsed = started.elapsed();
    let stats = engine.stats();
    println!(
        "\n{} ops in {:.1}ms — {:.0} ops/s",
        stream.total_ops(),
        elapsed.as_secs_f64() * 1e3,
        stream.total_ops() as f64 / elapsed.as_secs_f64()
    );
    println!(
        "batch leverage: {} updates skipped as cancelled flap pairs, {} of {} queries \
         answered from a duplicate's result",
        2 * stats.cancelled_pairs,
        stats.deduped_queries,
        stats.queries,
    );
    println!("{answered_true} connectivity probes answered true");
}
