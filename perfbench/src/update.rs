//! Workload `update`: the paper's regime. One `Engine::new(32768)` over a
//! fixed random sparse base graph with m = n edges, driven by single-update
//! batches that alternate a random link with a cut of a random live edge
//! (the live-edge count stays constant). No queries, no WAL, no router:
//! the `core` structure and the `pram` kernel fan-out do the work.

use std::time::Instant;

use pdmsf_engine::{Engine, Op};
use pdmsf_graph::{kruskal_msf, EdgeId, GraphSpec, VertexId, Weight};

use crate::layers::{self, Counters, EngineSums};
use crate::stats::{self, SplitMix};
use crate::{trace, Pass, Report};

const N: usize = 32_768;
/// Updates per measured second: a run drives `UPDATES_PER_SECOND * seconds`
/// updates (0.7 to 1 ms each on a 2-core x86-64 VM), enough at 20 seconds
/// for 20 windows of p99 samples.
const UPDATES_PER_SECOND: u64 = 1_600;
/// Set-ups per untraced run (each takes 6 to 8 s: 32 768 links).
const SETUPS: usize = 2;
/// The base graph is the same on every run: base graphs drawn from
/// different seeds cost up to a fifth more or less per update, which would
/// read as noise between runs. `--seed` draws the update traffic.
const BASE_SEED: u64 = 1;

/// The base graph as one link batch (ids `0..N`).
fn base_ops(seed: u64) -> Vec<Op> {
    GraphSpec::RandomSparse { n: N, m: N, seed }
        .edges()
        .into_iter()
        .map(|(u, v, weight)| Op::Link { u, v, weight })
        .collect()
}

/// `count` updates alternating a random link with a cut of a uniformly
/// random live edge, starting from the `N` live base edges.
fn update_stream(count: usize, seed: u64) -> Vec<Op> {
    let mut rng = SplitMix::new(seed);
    let mut live: Vec<EdgeId> = (0..N as u32).map(EdgeId).collect();
    let mut next_id = N as u32;
    (0..count)
        .map(|i| {
            if i % 2 == 0 {
                let u = rng.below(N as u64) as u32;
                let v = (u + 1 + rng.below(N as u64 - 1) as u32) % N as u32;
                live.push(EdgeId(next_id));
                next_id += 1;
                Op::Link {
                    u: VertexId(u),
                    v: VertexId(v),
                    weight: Weight::new(1 + rng.below(1_000_000) as i64),
                }
            } else {
                let k = rng.below(live.len() as u64) as usize;
                Op::Cut {
                    id: live.swap_remove(k),
                }
            }
        })
        .collect()
}

pub fn run(pass: Pass) -> Report {
    let count = (UPDATES_PER_SECOND * pass.seconds) as usize;
    let base = base_ops(BASE_SEED);
    let ops = update_stream(count, pass.seed);

    // `setup_s` is the median of several set-ups; a traced run needs one.
    let setups = if pass.traced { 1 } else { SETUPS };
    let mut setup_s = Vec::with_capacity(setups);
    let mut engine = None;
    for _ in 0..setups {
        drop(engine.take());
        let t0 = Instant::now();
        let mut e = Engine::new(N);
        e.enable_metrics();
        e.execute(&base);
        setup_s.push(t0.elapsed().as_secs_f64());
        engine = Some(e);
    }
    let mut engine = engine.expect("at least one set-up");

    // Every batch is one update, due at its dispatch: op and update latency
    // are the same samples. `busy_ns` counts time spent in the program.
    let mut latency_ns: Vec<(f64, u64)> = Vec::with_capacity(count);
    let mut done_ns: Vec<f64> = Vec::with_capacity(count);
    let mut busy_ns = 0.0;
    let mut depth_max = 0u64;
    let mut work_sum = 0u64;
    let mut sums = EngineSums::default();
    trace::set_enabled(pass.traced);
    let counters = Counters::take();
    for (i, op) in ops.iter().enumerate() {
        trace::set_batch(i as u64 + 1);
        let root = trace::span("harness.batch");
        let started = Instant::now();
        let plan = {
            let _s = trace::span("engine.plan_batch");
            engine.plan_batch(std::slice::from_ref(op))
        };
        let result = {
            let _s = trace::span("engine.execute_planned");
            engine.execute_planned(plan)
        };
        let ns = started.elapsed().as_nanos() as f64;
        busy_ns += ns;
        latency_ns.push((ns, 1));
        done_ns.push(busy_ns);
        drop(root);
        sums.add_batch(&result.summary);
        if pass.traced {
            let cost = engine.structure().last_op_cost();
            depth_max = depth_max.max(cost.depth);
            work_sum += cost.work;
        }
    }
    let delta = counters.delta();
    trace::set_enabled(false);

    let mut report = Report {
        attempted: count as u64,
        throughput: stats::windowed_rate(&done_ns, &vec![1; count]),
        ..Report::default()
    };
    if sums.rejected > 0 {
        report
            .problems
            .push(format!("{} generated updates were rejected", sums.rejected));
        report.failed += sums.rejected;
    }
    let want = kruskal_msf(engine.graph()).total_weight;
    if engine.forest_weight() != want {
        report.problems.push(format!(
            "forest weight {} differs from Kruskal's {want}",
            engine.forest_weight()
        ));
        report.failed = report.attempted;
    }

    let ms = |ns: f64| ns / 1e6;
    let e2e = &mut report.end_to_end;
    e2e.insert("setup_s", stats::median(&setup_s));
    e2e.insert("op_p50_ms", ms(stats::windowed_quantile(&latency_ns, 0.5)));
    e2e.insert("op_p99_ms", ms(stats::windowed_quantile(&latency_ns, 0.99)));
    e2e.insert("peak_rss_mib", stats::peak_rss_mib());

    let s = engine.structure();
    if pass.traced {
        let spans = trace::take();
        sums.snapshots = engine.stats().snapshots;
        let l = &mut report.per_layer;
        layers::insert_common(l, &sums, &delta, &spans);
        let log2n = (N as f64).log2();
        l.insert("core.k", s.chunk_parameter() as f64);
        l.insert("core.depth_max_over_log2n", depth_max as f64 / log2n);
        l.insert(
            "core.work_mean_over_sqrtn_log2n",
            work_sum as f64 / count as f64 / ((N as f64).sqrt() * log2n),
        );
        report.spans = spans;
    }
    report.stamps = vec![
        ("vertices", N.to_string()),
        ("engine_k", s.chunk_parameter().to_string()),
        ("engine_exec", format!("\"{:?}\"", s.execution_mode())),
        ("flush_policy", "\"none\"".to_string()),
        ("paced_rps", "0".to_string()),
    ];
    report
}
