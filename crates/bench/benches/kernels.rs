//! E7 bench: the EREW PRAM kernels — phased tournament vs model reduction.
//!
//! Runs on the in-repo harness (`pdmsf_bench::harness`), so it works offline:
//! `cargo bench -p pdmsf-bench --bench kernels`.

use pdmsf_bench::harness::BenchGroup;
use pdmsf_pram::{erew_tournament_min, par_entrywise_min, par_min_index, CostMeter};

fn main() {
    let mut group = BenchGroup::new("e7_kernels");
    for size in [1usize << 10, 1 << 14, 1 << 18] {
        let xs: Vec<u64> = (0..size as u64)
            .map(|i| (i * 2654435761) % 1_000_003)
            .collect();
        group.bench(&format!("model_min/{size}"), || {
            par_min_index(&xs, &mut CostMeter::new())
        });
        group.bench(&format!("phased_tournament/{size}"), || {
            erew_tournament_min(&xs, &mut CostMeter::new(), None)
        });
        let src: Vec<u64> = xs.iter().rev().copied().collect();
        group.bench(&format!("entrywise_min/{size}"), || {
            let mut dst = xs.clone();
            par_entrywise_min(&mut dst, &src, &mut CostMeter::new());
            dst
        });
    }
}
