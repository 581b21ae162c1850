//! Sliding-window edge stream: keep the minimum spanning forest of the most
//! recent `W` edges of an endless link-measurement stream (the classic
//! "graph stream with expiry" workload that motivates fully dynamic MSF —
//! every arrival is an insertion, every expiry a deletion).
//!
//! Uses the degree-reduction wrapper so the core structure only ever sees
//! vertices of degree at most 3, exactly as the paper assumes.
//!
//! Run with `cargo run --release --example streaming_edges`.

use pdmsf::core::seq::default_sequential_k;
use pdmsf::prelude::*;

fn main() {
    let n = 512;
    let window = 2 * n;
    let stream = UpdateStream::generate(&UpdateStreamSpec {
        base: GraphSpec::RandomSparse { n, m: n, seed: 3 },
        ops: 20_000,
        kind: StreamKind::SlidingWindow { window },
        seed: 4,
    });

    // The paper's structure behind Frederickson's degree-3 reduction. The
    // wrapper owns the vertex-copy bookkeeping, so the inner structure must
    // start empty; its chunk parameter is sized for the copies it will
    // hold, about one per live edge end plus one per vertex.
    let copies = n + 2 * window;
    let inner = SeqDynamicMsf::with_chunk_parameter(0, default_sequential_k(copies));
    let mut msf = DegreeReduced::new(n, inner);
    println!(
        "sliding window over {n} vertices, window = {window} edges, {} stream operations",
        stream.len()
    );

    let mut checkpoints = 0usize;
    let mirror = stream.replay_with(|mirror, op| {
        match op {
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
        }
        // Periodically report and verify the window's spanning forest.
        let processed = mirror.edge_id_bound();
        if processed % 4096 == 0 {
            checkpoints += 1;
            let components = n - msf.num_forest_edges();
            println!(
                "after {:>6} arrivals: window edges = {:>5}, forest weight = {:>12}, components = {components}",
                processed,
                mirror.num_edges(),
                msf.forest_weight()
            );
            assert_matches_kruskal(&msf, mirror);
        }
    });

    println!();
    println!(
        "final window: {} live edges, forest weight {}",
        mirror.num_edges(),
        msf.forest_weight()
    );
    assert_matches_kruskal(&msf, &mirror);
    println!("verified {checkpoints} checkpoints against Kruskal ✓");
}
