//! The serving engine's update path runs on the calling thread: at the
//! chunk parameter [`Engine::new`] picks (`K = sqrt(n log n)`), no kernel
//! submits a pool job, even on a pool forced wide enough to take them.
//!
//! A single `#[test]` in its own integration binary: the pool width
//! override is process-global and must be set before anything touches the
//! pool, and the pool counters are process-wide, so no other test may share
//! this process.

use pdmsf_core::seq::default_sequential_k;
use pdmsf_engine::{Engine, Op, Outcome};
use pdmsf_graph::{kruskal_msf, EdgeId, GraphSpec, VertexId, Weight};
use pdmsf_pram::pool;

/// A served engine's size. The test guards that none of its updates, at
/// this size and on a pool four workers wide, submits a pool job.
const N: usize = 16_384;

#[test]
fn single_update_batches_submit_no_pool_jobs() {
    std::env::set_var("PDMSF_POOL_THREADS", "4");
    assert_eq!(pool::parallelism(), 4);

    let mut engine = Engine::new(N);
    assert_eq!(
        engine.structure().chunk_parameter(),
        default_sequential_k(N)
    );
    let base: Vec<Op> = GraphSpec::RandomSparse {
        n: N,
        m: N,
        seed: 7,
    }
    .edges()
    .into_iter()
    .map(|(u, v, weight)| Op::Link { u, v, weight })
    .collect();
    engine.execute(&base);

    // Alternate a random link with a cut of a random live edge, one update
    // per batch (the benchmark's `update` traffic).
    let snap = pool::snapshot();
    let mut live: Vec<EdgeId> = (0..N as u32).map(EdgeId).collect();
    let mut next_id = N as u32;
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = |bound: usize| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % bound as u64) as usize
    };
    for i in 0..600 {
        let op = if i % 2 == 0 {
            let u = next(N) as u32;
            let v = (u + 1 + next(N - 1) as u32) % N as u32;
            live.push(EdgeId(next_id));
            next_id += 1;
            Op::Link {
                u: VertexId(u),
                v: VertexId(v),
                weight: Weight::new(1 + next(1_000_000) as i64),
            }
        } else {
            let k = next(live.len());
            Op::Cut {
                id: live.swap_remove(k),
            }
        };
        let result = engine.execute(&[op]);
        assert!(
            !matches!(result.outcomes[0], Outcome::Rejected { .. }),
            "generated update {i} was rejected"
        );
    }
    let delta = snap.delta();
    assert_eq!(delta.jobs_run, 0, "an update submitted a pool job");
    assert_eq!(delta.shards_executed, 0);
    assert!(
        !pool::is_initialized(),
        "single-update batches spawned the pool"
    );
    assert_eq!(
        engine.forest_weight(),
        kruskal_msf(engine.graph()).total_weight
    );

    // Positive control: the pool is reachable at this width, so the zero
    // above is not vacuous — a two-slot job submits one.
    pool::run_shards(2, |_| {});
    assert_eq!(
        snap.delta().jobs_run,
        1,
        "a two-slot job never reached the pool"
    );
}
