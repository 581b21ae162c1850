//! The depth formula the cost model builds on ([`log2_ceil`]) and the
//! pooling cutoff ([`PAR_CUTOFF`]).
//!
//! The structure in `pdmsf-core` charges its tournament scans by formula,
//! `⌈log₂ max(s, 2)⌉ + 1` rounds on one processor per entry for a scan over
//! `s` entries (the tournament tree of the paper's Lemma 3.1), and runs
//! each scan as one loop on the calling thread. See [`PAR_CUTOFF`] for why
//! no scan fans out over the worker pool.

/// `ceil(log2(n))`, with `log2_ceil(0) == 0` and `log2_ceil(1) == 0`.
#[inline]
pub fn log2_ceil(n: usize) -> u64 {
    if n <= 1 {
        0
    } else {
        (usize::BITS - (n - 1).leading_zeros()) as u64
    }
}

/// The input size below which fanning a bulk kernel out over the worker
/// pool cannot pay: publishing the job and waking a worker cost more than
/// the scan itself (on a 2-core x86-64 VM a pooled minimum took 1.24 µs
/// against 0.75 µs inline at 1 024 entries, median, and still lost at
/// 16 384). The structures run every
/// kernel inline, and the chunk parameter they serve with keeps `CAdj` rows
/// (about `2n / K` entries) under this size until roughly 1.3M vertices per
/// engine. Benchmark metadata stamps it next to the pool width.
pub const PAR_CUTOFF: usize = 512;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log2_ceil_small_values() {
        assert_eq!(log2_ceil(0), 0);
        assert_eq!(log2_ceil(1), 0);
        assert_eq!(log2_ceil(2), 1);
        assert_eq!(log2_ceil(3), 2);
        assert_eq!(log2_ceil(4), 2);
        assert_eq!(log2_ceil(5), 3);
        assert_eq!(log2_ceil(1024), 10);
        assert_eq!(log2_ceil(1025), 11);
    }
}
