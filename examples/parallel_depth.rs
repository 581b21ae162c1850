//! PRAM cost-model demo: drive the parallel structure (Theorem 1.1) over
//! graphs of increasing size and print the quantities the theorem bounds —
//! worst-case parallel depth per update (`O(log n)`), work per update
//! (`O(sqrt n log n)`) and peak processors (`O(sqrt n)`).
//!
//! Run with `cargo run --release --example parallel_depth`.

use pdmsf::prelude::*;

fn main() {
    println!(
        "{:>8} {:>6} {:>12} {:>12} {:>12} {:>12}",
        "n", "K", "worst depth", "mean depth", "mean work", "peak procs"
    );
    for exp in 8..=13 {
        let n = 1usize << exp;
        let stream = UpdateStream::generate(&UpdateStreamSpec {
            base: GraphSpec::RandomSparse {
                n,
                m: 2 * n,
                seed: 42,
            },
            ops: 1_000,
            kind: StreamKind::Mixed {
                insert_permille: 500,
            },
            seed: 43,
        });
        let mut msf = ParDynamicMsf::new(n);
        stream.replay_with(|mirror, op| match op {
            None => {
                for e in mirror.edges() {
                    msf.insert(e);
                }
            }
            Some(UpdateOp::Insert { .. }) => {
                let newest = mirror.edges().max_by_key(|e| e.id).unwrap();
                msf.insert(newest);
            }
            Some(UpdateOp::Delete { id }) => {
                msf.delete(*id);
            }
        });
        let meter = msf.meter();
        println!(
            "{:>8} {:>6} {:>12} {:>12.1} {:>12.1} {:>12}",
            n,
            msf.chunk_parameter(),
            meter.worst_op().depth,
            meter.mean_depth(),
            meter.mean_work(),
            meter.total().peak_processors
        );
    }
    println!();
    println!("depth grows ~logarithmically while work grows ~sqrt(n) log n,");
    println!("matching Theorem 1.1 (`experiments -- paper` fits and checks them per update).");
}
