//! The tournament-tree minimum of the paper's Lemma 3.1, played phase by
//! phase, and the depth formula the cost model builds on ([`log2_ceil`]).
//!
//! [`erew_tournament_min`] reproduces the four-phase protocol of Lemma 3.1
//! step by step on the calling thread, charges its PRAM cost (`depth`,
//! `work`, `processors`) to a [`CostMeter`], and can record every simulated
//! memory access in an [`AccessLog`], so the exclusive-read-exclusive-write
//! argument of the paper is checked rather than taken on faith. This
//! module's tests and the `paper` experiment's `erew` section run it under
//! the logger. The structure in `pdmsf-core` charges its own tournament
//! scans by formula instead, because the charge depends on the structure's
//! cost model; see [`PAR_CUTOFF`] for why no scan fans out over the worker
//! pool.

use crate::cost::CostMeter;
use crate::erew::{cell, AccessKind, AccessLog};

/// `ceil(log2(n))`, with `log2_ceil(0) == 0` and `log2_ceil(1) == 0`.
#[inline]
pub fn log2_ceil(n: usize) -> u64 {
    if n <= 1 {
        0
    } else {
        (usize::BITS - (n - 1).leading_zeros()) as u64
    }
}

/// Explicit phased simulation of the four-phase tournament of Lemma 3.1.
///
/// `xs[k]` is the value held by processor `p_k` (the weight of the `k`-th
/// edge it fetched with `getEdge`). The function plays the synchronous
/// phases on a binary tournament tree, optionally recording every simulated
/// memory access into `log` (one [`AccessLog`] step per phase), charges the
/// model cost to `meter`, and returns the index of the winning (minimum,
/// leftmost-on-tie) element.
pub fn erew_tournament_min<T: Ord + Copy>(
    xs: &[T],
    meter: &mut CostMeter,
    mut log: Option<&mut AccessLog>,
) -> Option<usize> {
    if xs.is_empty() {
        return None;
    }
    const TREE_REGION: u32 = 0xA110;

    // Complete binary tree with `cap` leaves (cap = next power of two).
    let cap = xs.len().next_power_of_two();
    let mut tree: Vec<Option<(T, usize)>> = vec![None; 2 * cap];

    // Initialisation: processor k writes its value into leaf k.
    for (k, &x) in xs.iter().enumerate() {
        tree[cap + k] = Some((x, k));
        if let Some(l) = log.as_deref_mut() {
            l.access(
                k as u32,
                cell(TREE_REGION, (cap + k) as u32),
                AccessKind::Write,
            );
        }
    }
    if let Some(l) = log.as_deref_mut() {
        l.next_step();
    }

    // `active[k]` — whether processor k still participates; `at[k]` — the
    // tree vertex processor k is currently assigned to.
    let mut active: Vec<bool> = vec![true; xs.len()];
    let mut at: Vec<usize> = (0..xs.len()).map(|k| cap + k).collect();

    let levels = log2_ceil(cap).max(1);
    for _level in 0..levels {
        // Phase 1: processors on left children copy their value to the parent.
        for k in 0..xs.len() {
            if active[k] && at[k].is_multiple_of(2) {
                let parent = at[k] / 2;
                tree[parent] = tree[at[k]];
                if let Some(l) = log.as_deref_mut() {
                    l.access(
                        k as u32,
                        cell(TREE_REGION, parent as u32),
                        AccessKind::Write,
                    );
                }
            }
        }
        if let Some(l) = log.as_deref_mut() {
            l.next_step();
        }

        // Phase 2: processors on right children challenge the parent value.
        for k in 0..xs.len() {
            if active[k] && at[k] % 2 == 1 {
                let parent = at[k] / 2;
                if let Some(l) = log.as_deref_mut() {
                    l.access(k as u32, cell(TREE_REGION, parent as u32), AccessKind::Read);
                }
                let mine = tree[at[k]];
                let theirs = tree[parent];
                let win = match (mine, theirs) {
                    (Some(m), Some(t)) => m.0 < t.0, // strict: ties favour the left child
                    (Some(_), None) => true,
                    _ => false,
                };
                if win {
                    tree[parent] = mine;
                    if let Some(l) = log.as_deref_mut() {
                        l.access(
                            k as u32,
                            cell(TREE_REGION, parent as u32),
                            AccessKind::Write,
                        );
                    }
                } else {
                    active[k] = false;
                }
            }
        }
        if let Some(l) = log.as_deref_mut() {
            l.next_step();
        }

        // Phase 3: left-child processors check whether they were beaten.
        for k in 0..xs.len() {
            if active[k] && at[k].is_multiple_of(2) {
                let parent = at[k] / 2;
                if let Some(l) = log.as_deref_mut() {
                    l.access(k as u32, cell(TREE_REGION, parent as u32), AccessKind::Read);
                }
                if tree[parent] != tree[at[k]] {
                    active[k] = false;
                }
            }
        }
        if let Some(l) = log.as_deref_mut() {
            l.next_step();
        }

        // Phase 4: surviving processors move up to the parent.
        for k in 0..xs.len() {
            if active[k] {
                at[k] /= 2;
            }
        }
        if let Some(l) = log.as_deref_mut() {
            l.next_step();
        }
    }

    meter.round(
        xs.len() as u64,
        4 * levels,
        (xs.len() as u64) * 4, // every processor does O(1) work per level until it dies
    );
    tree[1].map(|(_, idx)| idx)
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
    use proptest::prelude::*;

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

    #[test]
    fn tournament_matches_sequential_min_and_is_erew() {
        let xs = vec![9, 4, 7, 4, 12, 3, 3, 8, 100, 0];
        let mut meter = CostMeter::new();
        let mut log = AccessLog::new();
        let winner = erew_tournament_min(&xs, &mut meter, Some(&mut log)).unwrap();
        assert_eq!(winner, 9); // value 0 at index 9
        log.assert_exclusive();
        // Depth is 4 phases per level.
        assert!(meter.total().depth >= 4 * log2_ceil(xs.len()));
    }

    #[test]
    fn tournament_tie_breaks_to_the_left() {
        let xs = vec![7, 7, 7, 7];
        let mut meter = CostMeter::new();
        let winner = erew_tournament_min(&xs, &mut meter, None).unwrap();
        assert_eq!(winner, 0);
    }

    #[test]
    fn tournament_single_element() {
        let mut meter = CostMeter::new();
        assert_eq!(erew_tournament_min(&[42], &mut meter, None), Some(0));
        assert_eq!(erew_tournament_min::<i32>(&[], &mut meter, None), None);
    }

    proptest! {
        #[test]
        fn prop_tournament_equals_min(xs in proptest::collection::vec(-1000i64..1000, 1..200)) {
            let mut meter = CostMeter::new();
            let mut log = AccessLog::new();
            let winner = erew_tournament_min(&xs, &mut meter, Some(&mut log)).unwrap();
            let best = *xs.iter().min().unwrap();
            prop_assert_eq!(xs[winner], best);
            // Leftmost tie-break.
            let leftmost = xs.iter().position(|&x| x == best).unwrap();
            prop_assert_eq!(winner, leftmost);
            log.assert_exclusive();
        }
    }
}
