//! The observability **overhead guard**: the instrumented E1 batched-engine
//! path (per-phase histograms + outcome counters live,
//! [`Engine::enable_metrics`]) against the plain engine on the same bursty
//! stream — asserting the instrumentation costs **less than 2% median
//! overhead**, the budget documented in `pdmsf-obs`'s crate docs.
//!
//! Methodology: container wall clock swings far more than 2% between runs
//! (and an engine's speed depends on the heap it was built on), so the
//! medians of two separate bench loops would be dominated by drift. Each
//! **pair** therefore builds a plain and an instrumented engine back to
//! back and drives them side by side through one stream, batch by batch,
//! **alternating which engine takes a batch first** (and which takes the
//! first batch, pair by pair); a variant's time is the sum of its batch
//! times, about 70 ms each. Both variants see the same clock phases
//! within a fraction of a millisecond, and neither always runs on the
//! warmer cache. The guard is the **median of the per-pair ratios** over
//! 41 pairs, robust to scheduling spikes in either direction; the whole
//! bench stays under about 10 s.
//!
//! `cargo bench -p pdmsf-bench --bench obs_overhead`.

use std::time::{Duration, Instant};

use pdmsf_bench::bursty_batch_stream;
use pdmsf_engine::Engine;
use pdmsf_graph::BatchStream;

/// Maximum tolerated instrumented/plain median-of-ratios (the documented
/// <2% observability budget).
const MAX_RATIO: f64 = 1.02;

/// Interleaved pairs measured (odd, so the median is a single pair).
const PAIRS: usize = 41;

/// Batches of [`BATCH`] ops per pair: about 70 ms per variant on a 2-core
/// VM.
const BATCHES: usize = 192;

/// Operations per batch.
const BATCH: usize = 256;

/// One pair: a plain and an instrumented engine over the same base graph
/// drive the stream side by side, batch by batch, alternating which engine
/// takes each batch first (`first` picks the first batch's). Returns each
/// variant's summed batch time and op count, plain first.
fn run_pair(stream: &BatchStream, first: usize) -> [(Duration, usize); 2] {
    let n = stream.num_vertices;
    let mut engines = [Engine::new(n), Engine::new(n)];
    engines[1].enable_metrics();
    let base = stream.base_ops();
    for engine in &mut engines {
        engine.execute(&base);
    }
    let mut totals = [(Duration::ZERO, 0usize); 2];
    for (b, batch) in stream.batches.iter().enumerate() {
        for k in 0..2 {
            let v = (b + first + k) % 2;
            let start = Instant::now();
            std::hint::black_box(engines[v].execute(batch));
            totals[v].0 += start.elapsed();
            totals[v].1 += batch.len();
        }
    }
    totals
}

fn main() {
    // Tracing is compiled into every engine phase but must be OFF here:
    // the <2% budget is the cost of the *disabled* two-tier check (one
    // relaxed load + branch per span site) riding along with the metrics.
    assert!(
        !pdmsf_obs::trace::enabled(),
        "obs_overhead measures the tracing-off path; nothing may enable \
         the global tracer in this process"
    );

    let stream = bursty_batch_stream(2_048, 1_024, BATCHES, BATCH, 5);

    // Warm both paths (first-touch allocation, registry resolution).
    std::hint::black_box(run_pair(&stream, 0));

    println!("\n== obs_overhead ({PAIRS} interleaved pairs) ==");
    println!(
        "{:>6} {:>14} {:>14} {:>8}",
        "pair", "plain", "metrics", "ratio"
    );
    let mut ratios: Vec<f64> = Vec::with_capacity(PAIRS);
    for pair in 0..PAIRS {
        let [(plain, plain_ops), (instrumented, instrumented_ops)] = run_pair(&stream, pair % 2);
        // Both variants timed the same, non-empty work.
        assert!(plain_ops > 0, "pair {pair}: the plain run processed no ops");
        assert_eq!(
            plain_ops, instrumented_ops,
            "pair {pair}: the two variants processed different op counts"
        );
        let ratio = instrumented.as_secs_f64() / plain.as_secs_f64();
        println!(
            "{:>6} {:>12.2}ms {:>12.2}ms {:>8.4}",
            pair,
            plain.as_secs_f64() * 1e3,
            instrumented.as_secs_f64() * 1e3,
            ratio
        );
        ratios.push(ratio);
    }
    ratios.sort_by(|a, b| a.partial_cmp(b).expect("ratios are finite"));
    let median = ratios[ratios.len() / 2];
    println!(
        "median ratio {median:.4} (budget < {MAX_RATIO:.2}); spread {:.4}..{:.4}",
        ratios[0],
        ratios[ratios.len() - 1]
    );
    assert!(
        median < MAX_RATIO,
        "instrumented E1 batched path regressed {:.2}% in the median (budget < {:.0}%): \
         the observability layer must stay near-free on the hot path",
        (median - 1.0) * 100.0,
        (MAX_RATIO - 1.0) * 100.0
    );

    // The measured pairs must all have run with tracing still disabled.
    assert!(!pdmsf_obs::trace::enabled());
}
