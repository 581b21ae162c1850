//! The parallel primitives of the paper's Section 3.
//!
//! Every kernel comes in a *model* form: it computes the (deterministic)
//! result on the calling thread and charges the PRAM cost the paper's lemmas
//! assign to it (`depth`, `work`, `processors`) to a [`CostMeter`]. The
//! tournament kernel additionally has an explicit **phased simulation**
//! ([`erew_tournament_min`]) that reproduces the four-phase protocol of
//! Lemma 3.1 step by step and can record every memory access in an
//! [`AccessLog`], so the exclusive-read-exclusive-write argument of the paper
//! is checked by the test-suite rather than taken on faith.
//!
//! The structures run these scans on the calling thread; see [`PAR_CUTOFF`]
//! for why none of them fans out over the worker pool.

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

/// Index of the minimum element (leftmost on ties), charging tournament-tree
/// costs to `meter`: depth `ceil(log2 n)`, work `n`, processors `ceil(n/2)`.
///
/// This is the "use a tournament tree to find the smallest entry" step used
/// throughout Section 3 (e.g. finding `argmin γ[i]` during the MWR search).
pub fn par_min_index<T: Ord + Copy>(xs: &[T], meter: &mut CostMeter) -> Option<usize> {
    if xs.is_empty() {
        return None;
    }
    meter.round(
        xs.len().div_ceil(2) as u64,
        log2_ceil(xs.len()).max(1),
        xs.len() as u64,
    );
    let mut best = 0usize;
    for (i, x) in xs.iter().enumerate().skip(1) {
        if *x < xs[best] {
            best = i;
        }
    }
    Some(best)
}

/// Entry-wise minimum `dst[i] = min(dst[i], src[i])`, charging one parallel
/// round with `len` processors (the "entry-wise minimum of CAdj vectors"
/// operation of Lemma 3.1's merge case).
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn par_entrywise_min<T: Ord + Copy>(dst: &mut [T], src: &[T], meter: &mut CostMeter) {
    assert_eq!(dst.len(), src.len(), "entry-wise min over unequal lengths");
    meter.round(dst.len() as u64, 1, dst.len() as u64);
    for (d, s) in dst.iter_mut().zip(src) {
        if *s < *d {
            *d = *s;
        }
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

/// Assign ranked processors to leaves: given the number of items stored at
/// each leaf of a (conceptual) balanced tree, return for every rank `k`
/// (0-based, `k < total`) the index of the leaf holding the `k`-th item.
///
/// This is the cost/behaviour model of the paper's `getEdge_c(k)` procedure
/// (Section 3): `O(log K)` parallel depth using one processor per item, each
/// descending the edge-counter tree `BT_c`. The returned assignment is what
/// the parallel chunk-rebuild and MWR kernels consume.
pub fn ranked_descent(leaf_counts: &[usize], meter: &mut CostMeter) -> Vec<usize> {
    let total: usize = leaf_counts.iter().sum();
    meter.round(
        total as u64,
        log2_ceil(leaf_counts.len().max(1)).max(1),
        (total + leaf_counts.len()) as u64,
    );
    let mut out = Vec::with_capacity(total);
    for (leaf, &count) in leaf_counts.iter().enumerate() {
        for _ in 0..count {
            out.push(leaf);
        }
    }
    out
}

/// Charge the cost of the "sweep up from all leaves, only the leftmost child
/// proceeds" procedure of Lemma 3.2 over a balanced tree with `num_leaves`
/// leaves: `O(log J)` depth, `O(J)` work, `J` processors.
pub fn sweep_up_costs(num_leaves: usize, meter: &mut CostMeter) {
    if num_leaves == 0 {
        return;
    }
    meter.round(
        num_leaves as u64,
        log2_ceil(num_leaves).max(1),
        (2 * num_leaves) as u64,
    );
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
    fn min_index_finds_leftmost_minimum() {
        let mut m = CostMeter::new();
        assert_eq!(par_min_index::<i32>(&[], &mut m), None);
        assert_eq!(par_min_index(&[5], &mut m), Some(0));
        assert_eq!(par_min_index(&[3, 1, 4, 1, 5], &mut m), Some(1));
        // Cost model: 5 elements -> depth ceil(log2 5) = 3, work 5.
        let r = m.total();
        assert_eq!(r.work, 1 + 5);
        assert!(r.depth >= 3);
    }

    #[test]
    fn entrywise_min_takes_pointwise_minimum() {
        let mut m = CostMeter::new();
        let mut dst = vec![5, 1, 9, 0];
        par_entrywise_min(&mut dst, &[3, 2, 9, -1], &mut m);
        assert_eq!(dst, vec![3, 1, 9, -1]);
        assert_eq!(m.total().depth, 1);
        assert_eq!(m.total().peak_processors, 4);
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

    #[test]
    fn ranked_descent_enumerates_leaves_in_order() {
        let mut meter = CostMeter::new();
        let assignment = ranked_descent(&[2, 0, 3, 1], &mut meter);
        assert_eq!(assignment, vec![0, 0, 2, 2, 2, 3]);
        assert!(meter.total().depth >= 2);
    }

    #[test]
    fn sweep_up_charges_logarithmic_depth() {
        let mut meter = CostMeter::new();
        sweep_up_costs(0, &mut meter);
        assert_eq!(meter.total().depth, 0);
        sweep_up_costs(128, &mut meter);
        assert_eq!(meter.total().depth, 7);
        assert_eq!(meter.total().peak_processors, 128);
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

        #[test]
        fn prop_min_index_matches_iterator_min(xs in proptest::collection::vec(any::<i32>(), 0..100)) {
            let mut meter = CostMeter::new();
            let got = par_min_index(&xs, &mut meter);
            let expected = xs
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.cmp(b.1).then(a.0.cmp(&b.0)))
                .map(|(i, _)| i);
            prop_assert_eq!(got, expected);
        }

        #[test]
        fn prop_ranked_descent_is_a_valid_assignment(counts in proptest::collection::vec(0usize..5, 0..50)) {
            let mut meter = CostMeter::new();
            let assignment = ranked_descent(&counts, &mut meter);
            let total: usize = counts.iter().sum();
            prop_assert_eq!(assignment.len(), total);
            // Each leaf receives exactly its count of ranks, in order.
            let mut per_leaf = vec![0usize; counts.len()];
            for &leaf in &assignment {
                per_leaf[leaf] += 1;
            }
            prop_assert_eq!(per_leaf, counts);
            prop_assert!(assignment.windows(2).all(|w| w[0] <= w[1]));
        }
    }
}
