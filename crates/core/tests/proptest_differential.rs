//! Property-based differential tests: arbitrary update sequences applied to
//! the paper's structures must always produce exactly the forest that the
//! recompute-from-scratch baseline produces, for every prefix of the
//! sequence, and the structural invariants of the chunked forest must hold
//! throughout.

use pdmsf_baselines::RecomputeMsf;
use pdmsf_core::seq::default_parallel_k;
use pdmsf_core::SeqDynamicMsf;
use pdmsf_graph::{DegreeReduced, DynamicMsf, Edge, EdgeId, VertexId, Weight};
use proptest::prelude::*;

/// A compact encoding of an update sequence: weights index into a small
/// range so that ties (resolved by edge id) are actually exercised.
#[derive(Clone, Debug)]
enum Op {
    Insert { u: u8, v: u8, w: u8 },
    DeleteNth(u8),
}

fn op_strategy(n: u8) -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0..n, 0..n, any::<u8>()).prop_map(|(u, v, w)| Op::Insert { u, v, w }),
        2 => any::<u8>().prop_map(Op::DeleteNth),
    ]
}

/// Apply the ops to both structures, checking forests after every step.
fn run_differential<M: DynamicMsf>(n: usize, ops: &[Op], mut structure: M, validate: impl Fn(&M)) {
    let mut oracle = RecomputeMsf::new(n);
    let mut live: Vec<Edge> = Vec::new();
    let mut next_id = 0u32;
    for op in ops {
        match *op {
            Op::Insert { u, v, w } => {
                let e = Edge {
                    id: EdgeId(next_id),
                    u: VertexId(u as u32 % n as u32),
                    v: VertexId(v as u32 % n as u32),
                    weight: Weight::new(w as i64),
                };
                next_id += 1;
                live.push(e);
                let d1 = structure.insert(e);
                let d2 = oracle.insert(e);
                assert_eq!(d1, d2, "insert delta mismatch for {e:?}");
            }
            Op::DeleteNth(k) => {
                if live.is_empty() {
                    continue;
                }
                let idx = k as usize % live.len();
                let e = live.swap_remove(idx);
                let d1 = structure.delete(e.id);
                let d2 = oracle.delete(e.id);
                assert_eq!(d1, d2, "delete delta mismatch for {e:?}");
            }
        }
        assert_eq!(
            structure.forest_edges(),
            oracle.forest_edges(),
            "forest diverged from the recompute oracle"
        );
        assert_eq!(structure.forest_weight(), oracle.forest_weight());
        validate(&structure);
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        .. ProptestConfig::default()
    })]

    /// The structure (with a tiny chunk parameter, to maximise chunk
    /// splits/merges and short-list transitions) matches the oracle on
    /// arbitrary update sequences and never violates an internal invariant.
    #[test]
    fn seq_structure_matches_oracle(ops in proptest::collection::vec(op_strategy(10), 1..120)) {
        let structure = SeqDynamicMsf::with_chunk_parameter(10, 2);
        run_differential(10, &ops, structure, |s| s.validate());
    }

    /// Same property with the paper's default K.
    #[test]
    fn seq_structure_matches_oracle_default_k(ops in proptest::collection::vec(op_strategy(16), 1..100)) {
        let structure = SeqDynamicMsf::new(16);
        run_differential(16, &ops, structure, |s| s.validate());
    }

    /// The structure at the paper's parallel `K = sqrt n` is exactly
    /// equivalent.
    #[test]
    fn par_structure_matches_oracle(ops in proptest::collection::vec(op_strategy(12), 1..100)) {
        let structure = SeqDynamicMsf::with_chunk_parameter(12, default_parallel_k(12));
        run_differential(12, &ops, structure, |s| s.validate());
    }

    /// Three-way lockstep differential: identical randomized update streams
    /// through the structure at the serving engines' `K = sqrt(n log n)`
    /// and at the paper's parallel `K = sqrt n`, and the Kruskal-based
    /// recompute reference — asserting identical deltas, forests and MSF
    /// weight after every single operation.
    #[test]
    fn seq_par_and_kruskal_agree_in_lockstep(
        ops in proptest::collection::vec(op_strategy(14), 1..110),
    ) {
        let n = 14;
        let mut seq = SeqDynamicMsf::new(n);
        let mut par_sim = SeqDynamicMsf::with_chunk_parameter(n, default_parallel_k(n));
        let mut oracle = RecomputeMsf::new(n);
        let mut live: Vec<Edge> = Vec::new();
        let mut next_id = 0u32;
        for op in &ops {
            let deltas = match *op {
                Op::Insert { u, v, w } => {
                    let e = Edge {
                        id: EdgeId(next_id),
                        u: VertexId(u as u32 % n as u32),
                        v: VertexId(v as u32 % n as u32),
                        weight: Weight::new(w as i64),
                    };
                    next_id += 1;
                    live.push(e);
                    [seq.insert(e), par_sim.insert(e), oracle.insert(e)]
                }
                Op::DeleteNth(k) => {
                    if live.is_empty() {
                        continue;
                    }
                    let idx = k as usize % live.len();
                    let e = live.swap_remove(idx);
                    [seq.delete(e.id), par_sim.delete(e.id), oracle.delete(e.id)]
                }
            };
            prop_assert_eq!(deltas[0], deltas[1], "simulated par delta diverged from seq");
            prop_assert_eq!(deltas[0], deltas[2], "seq delta diverged from Kruskal oracle");
            let forest = seq.forest_edges();
            prop_assert_eq!(&forest, &par_sim.forest_edges());
            prop_assert_eq!(&forest, &oracle.forest_edges());
            let weight = seq.forest_weight();
            prop_assert_eq!(weight, par_sim.forest_weight());
            prop_assert_eq!(weight, oracle.forest_weight());
        }
    }

    /// The degree-3 reduction wrapper preserves exactness (the inner
    /// structure only ever sees degree <= 3).
    #[test]
    fn degree_reduced_structure_matches_oracle(ops in proptest::collection::vec(op_strategy(8), 1..80)) {
        let structure = DegreeReduced::new(8, SeqDynamicMsf::with_chunk_parameter(0, 3));
        run_differential(8, &ops, structure, |_| ());
    }

    /// PRAM accounting sanity: depth never exceeds work, processors never
    /// exceed work, and every update reports a non-zero cost.
    #[test]
    fn pram_costs_are_well_formed(ops in proptest::collection::vec(op_strategy(12), 1..60)) {
        let mut structure = SeqDynamicMsf::with_chunk_parameter(12, default_parallel_k(12));
        let mut live: Vec<Edge> = Vec::new();
        let mut next_id = 0u32;
        for op in &ops {
            match *op {
                Op::Insert { u, v, w } => {
                    let e = Edge {
                        id: EdgeId(next_id),
                        u: VertexId(u as u32 % 12),
                        v: VertexId(v as u32 % 12),
                        weight: Weight::new(w as i64),
                    };
                    next_id += 1;
                    live.push(e);
                    structure.insert(e);
                }
                Op::DeleteNth(k) => {
                    if live.is_empty() { continue; }
                    let idx = k as usize % live.len();
                    let e = live.swap_remove(idx);
                    structure.delete(e.id);
                }
            }
            let cost = structure.last_op_cost();
            prop_assert!(cost.work >= cost.depth);
            prop_assert!(cost.work >= 1);
            prop_assert!(cost.peak_processors >= 1);
        }
    }
}
