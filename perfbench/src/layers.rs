//! Per-layer figures: baselines of the program's process-wide counters, and
//! the figures every workload derives from them, its spans and its batch
//! summaries in the same way.

use std::collections::BTreeMap;

use pdmsf_engine::BatchSummary;
use pdmsf_obs as obs;
use pdmsf_shard::ServiceSummary;

use crate::stats::ratio;
use crate::trace::{self, SpanRec};

pub type Metrics = BTreeMap<&'static str, f64>;

/// The engine's phase histograms (recorded once `enable_metrics` is on):
/// plan, apply, snapshot.
const ENGINE_PHASES: [&str; 3] = [
    "pdmsf_engine_plan_ns",
    "pdmsf_engine_apply_ns",
    "pdmsf_engine_snapshot_ns",
];

/// A baseline of the process-wide counters the program keeps (pool
/// scheduler, pool wakes, engine batches and phase times); `delta` reports
/// the activity since the baseline was taken.
pub struct Counters {
    pool: pdmsf_pram::pool::StatsSnapshot,
    wakes: u64,
    engine_batches: u64,
    phase_ns: [u64; 3],
}

/// Activity between a [`Counters`] baseline and now.
pub struct CounterDelta {
    jobs: u64,
    inline_runs: u64,
    steals: u64,
    wakes: u64,
    /// Engine batches executed (every shard sub-batch counts once).
    engine_batches: u64,
    /// Total ns per [`ENGINE_PHASES`] entry.
    phase_ns: [u64; 3],
}

fn wakes() -> u64 {
    obs::global()
        .counter("pdmsf_pool_wakes_total", "times a parked worker was woken")
        .get()
}

fn engine_batches() -> u64 {
    obs::global()
        .counter("pdmsf_engine_batches_total", "batches executed")
        .get()
}

fn phase_ns() -> [u64; 3] {
    ENGINE_PHASES.map(|name| {
        obs::global()
            .histogram(name, "engine phase latency")
            .snapshot()
            .sum
    })
}

impl Counters {
    pub fn take() -> Counters {
        Counters {
            pool: pdmsf_pram::pool::snapshot(),
            wakes: wakes(),
            engine_batches: engine_batches(),
            phase_ns: phase_ns(),
        }
    }

    pub fn delta(&self) -> CounterDelta {
        let pool = self.pool.delta();
        let now = phase_ns();
        CounterDelta {
            jobs: pool.jobs_run,
            inline_runs: pool.inline_runs,
            steals: pool.steals,
            wakes: wakes() - self.wakes,
            engine_batches: engine_batches() - self.engine_batches,
            phase_ns: std::array::from_fn(|i| now[i].wrapping_sub(self.phase_ns[i])),
        }
    }
}

/// Engine facts summed over the measured batches.
#[derive(Default)]
pub struct EngineSums {
    pub batches: u64,
    pub ops: u64,
    pub applied: u64,
    pub cancelled: u64,
    pub rejected: u64,
    pub queries: u64,
    pub unique_queries: u64,
    pub snapshots: u64,
}

impl EngineSums {
    /// One engine batch (its snapshot count is read from `Engine::stats`
    /// and added separately).
    pub fn add_batch(&mut self, s: &BatchSummary) {
        self.batches += 1;
        self.ops += s.ops as u64;
        self.applied += s.applied_updates as u64;
        self.cancelled += s.cancelled_pairs as u64;
        self.rejected += s.rejected as u64;
        self.queries += s.queries as u64;
        self.unique_queries += s.unique_queries as u64;
    }

    /// One service batch, all its shard batches together.
    pub fn add_service(&mut self, s: &ServiceSummary) {
        self.batches += 1;
        self.ops += s.ops as u64;
        self.applied += s.applied_updates as u64;
        self.cancelled += s.cancelled_pairs as u64;
        self.rejected += s.rejected as u64;
        self.queries += s.queries as u64;
        self.unique_queries += s.unique_queries as u64;
        self.snapshots += s.per_shard.iter().map(|p| p.snapshots).sum::<u64>();
    }
}

/// The `engine`, `pram` and self-share figures, the same on every workload.
/// Engine phase times are per engine batch: from the benchmark's spans
/// around `plan_batch` / `execute_planned` where it calls them, else from
/// the engine's own histograms (on `serve` the shard layer calls the
/// engine).
pub fn insert_common(l: &mut Metrics, sums: &EngineSums, delta: &CounterDelta, spans: &[SpanRec]) {
    let (batches, ops) = (sums.batches as f64, sums.ops as f64);
    let per_engine_batch = |ns: f64| ratio(ns, delta.engine_batches as f64) / 1e3;
    let spanned = |name: &str, phase: usize| {
        let d = trace::durations(spans, name);
        if d.is_empty() {
            delta.phase_ns[phase] as f64
        } else {
            d.iter().sum()
        }
    };
    l.insert(
        "engine.plan_us",
        per_engine_batch(spanned("engine.plan_batch", 0)),
    );
    l.insert(
        "engine.apply_us",
        per_engine_batch(spanned("engine.execute_planned", 1)),
    );
    l.insert(
        "engine.snapshot_us",
        per_engine_batch(delta.phase_ns[2] as f64),
    );
    l.insert("engine.applied_per_op", ratio(sums.applied as f64, ops));
    l.insert(
        "engine.cancelled_pairs_per_batch",
        ratio(sums.cancelled as f64, batches),
    );
    l.insert(
        "engine.unique_query_share",
        ratio(sums.unique_queries as f64, sums.queries as f64),
    );
    l.insert(
        "engine.snapshots_per_batch",
        ratio(sums.snapshots as f64, batches),
    );
    l.insert("pram.jobs_per_op", ratio(delta.jobs as f64, ops));
    l.insert(
        "pram.inline_runs_per_op",
        ratio(delta.inline_runs as f64, ops),
    );
    l.insert("pram.wakes_per_batch", ratio(delta.wakes as f64, batches));
    l.insert("pram.steals_per_batch", ratio(delta.steals as f64, batches));
    let (self_ns, root_ns) = trace::layer_self_ns(spans);
    for (layer, key) in [
        ("shard", "shard.self_share"),
        ("engine", "engine.self_share"),
        ("persist", "persist.self_share"),
        ("harness", "harness.self_share"),
    ] {
        let ns = self_ns.get(layer).copied().unwrap_or(0);
        l.insert(key, ratio(ns as f64, root_ns as f64));
    }
}
