//! Workspace-level integration tests: every dynamic-MSF implementation in the
//! workspace (the paper's structure at its sequential and parallel chunk
//! parameters, the degree-reduction wrapper, and both baselines) is driven through the
//! same update streams and must produce identical forests, identical deltas
//! and forests identical to the static Kruskal reference.

use pdmsf::core::seq::default_parallel_k;
use pdmsf::prelude::*;

/// The structure of Theorem 3.1 at the paper's `K = ⌈√n⌉`.
fn erew(n: usize) -> SeqDynamicMsf {
    SeqDynamicMsf::with_chunk_parameter(n, default_parallel_k(n))
}

fn drive_and_check<M: DynamicMsf>(structure: &mut M, stream: &UpdateStream) {
    stream.replay_with(|mirror, op| {
        match op {
            None => {
                for e in mirror.edges() {
                    structure.insert(e);
                }
            }
            Some(&UpdateOp::Insert(e)) => {
                structure.insert(e);
            }
            Some(UpdateOp::Delete { id }) => {
                structure.delete(*id);
            }
        }
        assert_matches_kruskal(structure, mirror);
    });
}

fn mixed_stream(n: usize, m: usize, ops: usize, seed: u64) -> UpdateStream {
    UpdateStream::generate(&UpdateStreamSpec {
        base: GraphSpec::RandomSparse { n, m, seed },
        ops,
        kind: StreamKind::Mixed {
            insert_permille: 500,
        },
        seed: seed ^ 0xABCD,
    })
}

#[test]
fn all_implementations_match_kruskal_on_the_same_stream() {
    let n = 40;
    let stream = mixed_stream(n, 70, 300, 1);
    drive_and_check(&mut SeqDynamicMsf::new(n), &stream);
    drive_and_check(&mut erew(n), &stream);
    drive_and_check(&mut NaiveDynamicMsf::new(n), &stream);
    drive_and_check(&mut RecomputeMsf::new(n), &stream);
    drive_and_check(&mut DegreeReduced::new(n, SeqDynamicMsf::new(0)), &stream);
}

#[test]
fn deltas_agree_between_paper_structure_and_baseline() {
    let n = 32;
    let stream = mixed_stream(n, 60, 400, 2);
    let mut a = SeqDynamicMsf::new(n);
    let mut b = NaiveDynamicMsf::new(n);
    stream.replay_with(|mirror, op| {
        match op {
            None => {
                for e in mirror.edges() {
                    assert_eq!(a.insert(e), b.insert(e));
                }
            }
            Some(&UpdateOp::Insert(e)) => {
                assert_eq!(a.insert(e), b.insert(e));
            }
            Some(UpdateOp::Delete { id }) => {
                assert_eq!(a.delete(*id), b.delete(*id));
            }
        }
        assert_eq!(a.forest_weight(), b.forest_weight());
        assert_eq!(a.forest_edges(), b.forest_edges());
    });
}

#[test]
fn degree_reduced_parallel_structure_on_skewed_graph() {
    // Preferential attachment produces high-degree hubs; the degree-reduction
    // wrapper keeps the core structure within the paper's assumptions.
    let n = 48;
    let stream = UpdateStream::generate(&UpdateStreamSpec {
        base: GraphSpec::PreferentialAttachment {
            n,
            attach: 3,
            seed: 5,
        },
        ops: 250,
        kind: StreamKind::Mixed {
            insert_permille: 480,
        },
        seed: 6,
    });
    drive_and_check(&mut DegreeReduced::new(n, erew(0)), &stream);
}

/// The plain structure, under both cost models, at densities up to
/// m = 12n: nothing sparsifies a dense graph first (the name is that of
/// the sparsification test this sweep used to drive).
#[test]
fn sparsified_structure_handles_density_sweep() {
    let n = 24;
    for density in [2usize, 6, 12] {
        let stream = mixed_stream(n, density * n, 150, density as u64 + 10);
        drive_and_check(&mut SeqDynamicMsf::new(n), &stream);
        drive_and_check(&mut erew(n), &stream);
    }
}

#[test]
fn failure_streams_disconnect_and_reconnect_consistently() {
    let stream = UpdateStream::generate(&UpdateStreamSpec {
        base: GraphSpec::Grid {
            rows: 5,
            cols: 8,
            seed: 9,
        },
        ops: 10_000,
        kind: StreamKind::Failures,
        seed: 10,
    });
    let n = 40;
    let mut seq = SeqDynamicMsf::new(n);
    let mut naive = NaiveDynamicMsf::new(n);
    stream.replay_with(|mirror, op| {
        match op {
            None => {
                for e in mirror.edges() {
                    seq.insert(e);
                    naive.insert(e);
                }
            }
            Some(UpdateOp::Insert(_)) => unreachable!("failure streams only delete"),
            Some(UpdateOp::Delete { id }) => {
                seq.delete(*id);
                naive.delete(*id);
            }
        }
        assert_eq!(seq.num_forest_edges(), naive.num_forest_edges());
        assert_matches_kruskal(&seq, mirror);
    });
    // Everything deleted: no forest edges remain.
    assert_eq!(seq.num_forest_edges(), 0);
}

#[test]
fn parallel_cost_model_reports_sublinear_depth_scaling() {
    // Depth per update should grow far slower than sqrt(n): compare n=256 and
    // n=4096 (16x) — worst-case depth should grow by far less than 4x.
    let mut worst = Vec::new();
    for n in [256usize, 4096] {
        let stream = mixed_stream(n, 2 * n, 400, 77);
        let mut msf = erew(n);
        stream.replay_with(|mirror, op| match op {
            None => {
                for e in mirror.edges() {
                    msf.insert(e);
                }
            }
            Some(&UpdateOp::Insert(e)) => {
                msf.insert(e);
            }
            Some(UpdateOp::Delete { id }) => {
                msf.delete(*id);
            }
        });
        worst.push(msf.meter().worst_op());
    }
    let depth_ratio = worst[1].depth as f64 / worst[0].depth.max(1) as f64;
    assert!(
        depth_ratio < 4.0,
        "worst-case depth grew by {depth_ratio:.2}x for a 16x larger graph (expected ~log factor)"
    );
    // Work should grow noticeably (≈ sqrt(16) = 4x modulo constants), and the
    // processor requirement should also grow.
    assert!(worst[1].work > worst[0].work);
}
