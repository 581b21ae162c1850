//! Histogram semantics under concurrency: a storm of concurrent
//! recorders must lose no increments.

use std::sync::Arc;

use pdmsf_obs::Histogram;

/// Hammer one histogram from many threads; after joining, count, sum and
/// every bucket must account for every single record — the lock-free
/// record path loses nothing.
#[test]
fn concurrent_recorders_lose_no_increments() {
    const THREADS: u64 = 8;
    const PER_THREAD: u64 = 50_000;
    let hist = Arc::new(Histogram::new());
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let hist = Arc::clone(&hist);
            std::thread::spawn(move || {
                // Deterministic per-thread value pattern covering many
                // buckets (zero included).
                let mut local_sum = 0u64;
                for i in 0..PER_THREAD {
                    let v = (i.wrapping_mul(2654435761) ^ (t << 56)) % (1 << (1 + (i % 40)));
                    hist.record(v);
                    local_sum = local_sum.wrapping_add(v);
                }
                local_sum
            })
        })
        .collect();
    let mut expected_sum = 0u64;
    for h in handles {
        expected_sum = expected_sum.wrapping_add(h.join().expect("recorder thread panicked"));
    }
    let snap = hist.snapshot();
    assert_eq!(snap.count, THREADS * PER_THREAD, "lost increments");
    assert_eq!(snap.sum, expected_sum, "lost sum contributions");
    assert_eq!(
        snap.buckets.iter().sum::<u64>(),
        THREADS * PER_THREAD,
        "bucket totals disagree with the count"
    );
}
