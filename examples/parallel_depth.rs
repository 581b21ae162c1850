//! PRAM cost-model demo: drive the EREW-metered structure of Theorem 1.1
//! (`K = sqrt n`) over graphs of increasing size and print the quantities
//! the theorem bounds per update — worst-case parallel depth (`O(log n)`),
//! work (`O(sqrt n log n)`) and peak processors (`O(sqrt n)`). Costs are
//! read from the meter after each stream update, as the `paper` experiment
//! reads them; the base-graph build is not counted.
//!
//! Run with `cargo run --release --example parallel_depth`.

use pdmsf_bench::pram_profile;

fn main() {
    println!(
        "{:>8} {:>6} {:>12} {:>12} {:>12} {:>12}",
        "n", "K", "worst depth", "mean depth", "mean work", "peak procs"
    );
    for exp in 8..=13 {
        let profile = pram_profile(1usize << exp, 1_000, 42);
        println!(
            "{:>8} {:>6} {:>12} {:>12.1} {:>12.1} {:>12}",
            profile.n,
            profile.k,
            profile.worst.depth,
            profile.mean_depth,
            profile.mean_work,
            profile.peak_processors
        );
    }
    println!();
    println!("depth grows ~logarithmically while work grows ~sqrt(n) log n,");
    println!("matching Theorem 1.1 (`experiments -- paper` fits and checks them per update).");
}
