//! Sample statistics, the seeded generator of benchmark-side inputs, and
//! the process's peak memory.

/// The `q`-quantile of `samples` by nearest rank (`0 < q <= 1`); 0 when empty.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// [`quantile`] over samples that each stand for `weight` equal values (the
/// ops of one batch, which all complete together).
pub fn weighted_quantile(samples: &[(f64, u64)], q: f64) -> f64 {
    let total: u64 = samples.iter().map(|&(_, w)| w).sum();
    if total == 0 {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
    let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
    let mut seen = 0;
    for &(value, weight) in &sorted {
        seen += weight;
        if seen >= rank {
            return value;
        }
    }
    sorted[sorted.len() - 1].0
}

/// A run's timing figure from the figures of its windows (consecutive
/// stretches of the run): their faster quartile. A shared machine's speed
/// drifts by tens of percent from one second to the next and only ever
/// slows work down, so the faster quartile is what the program does when
/// the machine lets it; a slow spell over up to three quarters of the run
/// does not move it, while a slower program moves every window.
pub fn faster_quartile(latencies: &[f64]) -> f64 {
    quantile(latencies, 0.25)
}

/// [`faster_quartile`] for rates, where faster is higher.
pub fn faster_quartile_rate(rates: &[f64]) -> f64 {
    quantile(rates, 0.75)
}

/// Most windows a run is split into by [`windowed_quantile`] and
/// [`windowed_rate`].
const WINDOWS: usize = 20;

/// `len` samples (in the order measured) split into `windows` consecutive
/// chunks; the last one takes the remainder.
fn chunks(len: usize, windows: usize) -> impl Iterator<Item = std::ops::Range<usize>> {
    let size = len / windows;
    (0..windows).map(move |w| {
        w * size..if w + 1 == windows {
            len
        } else {
            (w + 1) * size
        }
    })
}

/// Each window's `q`-quantile, combined by [`faster_quartile`]. The run is
/// split into as many windows (at most [`WINDOWS`]) as still leave ten
/// samples beyond the quantile in each. Each sample is `(value, weight)`: a
/// batch's latency stands for every op it carried, but counts as one
/// sample, since its ops were not timed apart.
pub fn windowed_quantile(samples: &[(f64, u64)], q: f64) -> f64 {
    let need = (10.0 / (1.0 - q)).ceil() as usize;
    let windows = (samples.len() / need).clamp(1, WINDOWS);
    let per: Vec<f64> = chunks(samples.len(), windows)
        .map(|r| weighted_quantile(&samples[r], q))
        .collect();
    faster_quartile(&per)
}

/// The throughput (ops/s) of each of [`WINDOWS`] consecutive windows of
/// batches, combined by [`faster_quartile_rate`]. `done_ns[i]` is when
/// batch `i` completed on the phase's busy clock (the time spent in the
/// program, from the start of the phase), and `ops[i]` how many ops it
/// carried.
pub fn windowed_rate(done_ns: &[f64], ops: &[u64]) -> f64 {
    let windows = done_ns.len().clamp(1, WINDOWS);
    let per: Vec<f64> = chunks(done_ns.len(), windows)
        .map(|r| {
            let start = if r.start == 0 {
                0.0
            } else {
                done_ns[r.start - 1]
            };
            let n: u64 = ops[r.clone()].iter().sum();
            ratio(n as f64 * 1e9, done_ns[r.end - 1] - start)
        })
        .collect();
    faster_quartile_rate(&per)
}

/// Median of `samples` (mean of the two middle values for an even count).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// splitmix64: the benchmark's own inputs (the `update` stream) come from
/// this, seeded by `--seed`, so equal seeds give equal inputs.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed ^ 0x5EED_BE4C_0000_0001)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}
