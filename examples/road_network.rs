//! Road-network maintenance scenario: a grid "city" where road segments fail
//! and are repaired, while the operator keeps a minimum-cost spanning
//! backbone (e.g. for snow clearing or fibre routing) at all times.
//!
//! Compares the paper's structure against the naive linear-scan baseline on
//! the same failure/repair stream and reports wall-clock plus the structural
//! statistics of the chunked forest.
//!
//! Run with `cargo run --release --example road_network`.

use pdmsf::prelude::*;
use std::time::Instant;

fn drive<M: DynamicMsf>(msf: &mut M, stream: &UpdateStream) -> (i128, std::time::Duration) {
    let start = Instant::now();
    stream.replay_with(|mirror, op| match op {
        None => {
            for e in mirror.edges() {
                msf.insert(e);
            }
        }
        Some(&UpdateOp::Insert(e)) => {
            msf.insert(e);
        }
        Some(UpdateOp::Delete { id }) => {
            msf.delete(*id);
        }
    });
    (msf.forest_weight(), start.elapsed())
}

fn main() {
    let rows = 40;
    let cols = 40;
    let n = rows * cols;
    // Failure/repair stream: half deletions of random live segments, half new
    // (repaired or temporary) segments.
    let stream = UpdateStream::generate(&UpdateStreamSpec {
        base: GraphSpec::Grid {
            rows,
            cols,
            seed: 7,
        },
        ops: 4_000,
        kind: StreamKind::Mixed {
            insert_permille: 500,
        },
        seed: 99,
    });
    println!(
        "road network: {rows}x{cols} grid, {} vertices, {} initial segments, {} updates",
        n,
        stream.base_edges.len(),
        stream.len()
    );

    let mut kpr = SeqDynamicMsf::new(n);
    let (w_kpr, t_kpr) = drive(&mut kpr, &stream);
    let stats = kpr.forest_stats();
    println!(
        "paper structure  : weight {w_kpr:>12}  time {:>10.2?}  (K={}, chunks={}, ids={}, max n_c={})",
        t_kpr,
        stats.k,
        stats.chunks,
        stats.slots,
        stats.max_nc
    );

    let mut naive = NaiveDynamicMsf::new(n);
    let (w_naive, t_naive) = drive(&mut naive, &stream);
    println!(
        "naive linear scan: weight {w_naive:>12}  time {:>10.2?}",
        t_naive
    );

    let mut recompute = RecomputeMsf::new(n);
    let (w_rec, t_rec) = drive(&mut recompute, &stream);
    println!(
        "recompute Kruskal: weight {w_rec:>12}  time {:>10.2?}",
        t_rec
    );

    assert_eq!(w_kpr, w_naive);
    assert_eq!(w_kpr, w_rec);
    println!("\nall three structures agree on the final backbone ✓");
}
