//! Experiment E4: the **closed-loop serve-latency ramp**.
//!
//! The throughput experiments (E1/E2/E3) drive batches back-to-back and
//! report ops/sec — they answer "how fast can the stack drain work", not
//! "what load can it *sustain* while staying responsive". E4 answers the
//! second question the way a capacity test does (the classic
//! `initial_rps`/`increment_rps`/`max_rps` ramp of interactive-consistency
//! harnesses):
//!
//! 1. Offered load starts at [`RampConfig::initial_rps`] and climbs by
//!    [`RampConfig::increment_rps`] per round up to [`RampConfig::max_rps`].
//! 2. Each round drives a fresh [`ShardedService`] with a generated
//!    tenant-tagged stream ([`crate::tenant_stream`] — the same Bursty /
//!    Zipf-skewed generators as E2) under **virtual arrival pacing**: op
//!    `j` of the round arrives at `t0 + j/rate`, a batch dispatches when
//!    its last op has arrived, and the driver only sleeps when it is
//!    *ahead* of the arrival clock — when a batch takes longer than its
//!    arrival window the next batches start late and queueing delay shows
//!    up in the per-op latencies, exactly as in a real ingest queue.
//! 3. Per-op latency (completion − arrival) and per-batch service time are
//!    recorded into [`pdmsf_obs`] histograms — the round report *is* the
//!    histogram snapshot (exact count, p50/p95/p99 to one log2 bucket).
//! 4. The ramp stops early once the service is clearly saturated:
//!    failure rate (ops slower than [`RampConfig::timeout`]) above
//!    [`RampConfig::stop_failure_rate`], or median latency above
//!    [`RampConfig::stop_t_median`].
//!
//! The headline is the **knee point**: the highest offered rps whose round
//! still met the SLO (p95 ≤ [`RampConfig::slo`] and failure rate ≤
//! [`RampConfig::stop_failure_rate`]). `experiments -- e4` writes the full
//! per-round table plus the knee to `BENCH_serve_latency.json`.

use std::time::{Duration, Instant};

use pdmsf_obs as obs;
use pdmsf_shard::{ShardedService, TenantSpec};

use crate::{tenant_stream, RunMeta};

/// One serve workload: the tenant topology and stream shape a ramp runs
/// against. Scenarios are data, composed from the existing generators —
/// adding one is adding a literal.
#[derive(Clone, Debug)]
pub struct ServeScenario {
    /// Label stamped into records (`uniform`, `zipf_hot`, ...).
    pub name: &'static str,
    pub tenants: usize,
    pub tenant_vertices: usize,
    pub shards: usize,
    /// Ops per service batch (the arrival-window size).
    pub batch_size: usize,
    /// Tenant-pick skew for the stream generator (0 = uniform).
    pub zipf_permille: u32,
    /// Partitions per shard engine: `> 0` builds the service with
    /// component-partitioned engines ([`ShardedService::new_partitioned`],
    /// grouped intra-batch apply + adaptive rebalancing), `0` keeps the
    /// classic single-structure engines.
    pub partitions: usize,
    pub seed: u64,
}

/// The ramp schedule and stop/SLO thresholds.
#[derive(Clone, Debug)]
pub struct RampConfig {
    pub initial_rps: u64,
    pub increment_rps: u64,
    pub max_rps: u64,
    /// Ops driven per round (larger = tighter quantiles, longer rounds).
    pub round_ops: usize,
    /// The p95 service-level objective a sustainable round must meet.
    pub slo: Duration,
    /// Per-op failure threshold: an op slower than this counts as failed.
    pub timeout: Duration,
    /// Stop the ramp (and disqualify the round) once this failure-rate is
    /// exceeded.
    pub stop_failure_rate: f64,
    /// Stop the ramp once median latency exceeds this (the service is far
    /// past its knee; later rounds only burn time).
    pub stop_t_median: Duration,
    /// Trace 1 in `trace_sample` batches through the flight recorder
    /// (0 disables tracing entirely). Traced rounds stamp a per-phase
    /// breakdown of their slowest captured batch into the round record,
    /// and the slowest capture of the whole ramp is returned for export.
    pub trace_sample: u32,
}

impl RampConfig {
    /// The default capacity ramp (full E4 run).
    pub fn standard() -> RampConfig {
        RampConfig {
            initial_rps: 20_000,
            increment_rps: 20_000,
            max_rps: 1_000_000,
            round_ops: 40_000,
            slo: Duration::from_millis(50),
            timeout: Duration::from_millis(250),
            stop_failure_rate: 0.05,
            stop_t_median: Duration::from_millis(100),
            trace_sample: 8,
        }
    }

    /// A seconds-long smoke ramp for CI.
    pub fn quick() -> RampConfig {
        RampConfig {
            initial_rps: 5_000,
            increment_rps: 15_000,
            max_rps: 50_000,
            round_ops: 4_000,
            ..RampConfig::standard()
        }
    }
}

/// One measured round of a serve ramp.
#[derive(Clone, Debug)]
pub struct ServeRecord {
    pub scenario: &'static str,
    pub shards: usize,
    pub tenants: usize,
    /// Chunk parameter K of shard 0's structure.
    pub k: usize,
    /// Partitions per shard engine (0 = single-structure engines).
    pub partitions: usize,
    pub round: usize,
    pub offered_rps: u64,
    pub ops: usize,
    /// Ops over the round's actual span (first arrival → last completion).
    pub achieved_rps: f64,
    pub p50_ns: u64,
    pub p95_ns: u64,
    pub p99_ns: u64,
    pub mean_ns: u64,
    /// p95 of per-batch service time (dispatch → completion).
    pub batch_p95_ns: u64,
    pub failures: u64,
    pub failure_rate: f64,
    /// Did this round meet the SLO (p95 ≤ slo, failure rate in bounds)?
    pub sustainable: bool,
    /// Pool scheduler activity over the round
    /// ([`pdmsf_pram::pool::StatsSnapshot::delta`]).
    pub pool_jobs: u64,
    pub pool_shards: u64,
    pub pool_inline: u64,
    pub pool_chunks: u64,
    pub pool_steals: u64,
    /// Conflict-free update groups dispatched over the round's batches
    /// (zero on non-partitioned engines; see
    /// [`pdmsf_shard::ServiceSummary::update_groups`]).
    pub update_groups: u64,
    /// Updates that shared a group because their component classes
    /// collided on a partition bank.
    pub group_conflicts: u64,
    /// Component migrations over the round (cross-partition links plus
    /// rebalance moves).
    pub migrations: u64,
    /// Post-batch rebalance passes that moved a component.
    pub rebalances: u64,
    /// End-to-end latency of the round's slowest flight-recorder capture
    /// (0 when the round was untraced or nothing was captured).
    pub trace_total_ns: u64,
    /// Per-phase time of that slowest capture ([`obs::trace::phase_durations`];
    /// `wal` = append + fsync; note group/mirror spans nest inside apply).
    pub trace_plan_ns: u64,
    pub trace_group_ns: u64,
    pub trace_apply_ns: u64,
    pub trace_snapshot_ns: u64,
    pub trace_wal_ns: u64,
    /// Wall-clock per-phase time of the same capture
    /// ([`obs::trace::phase_wall_durations`]): each phase's interval
    /// *union* across workers, so overlapping concurrent spans count once
    /// and these never exceed `trace_total_ns`.
    pub trace_plan_wall_ns: u64,
    pub trace_group_wall_ns: u64,
    pub trace_apply_wall_ns: u64,
    pub trace_snapshot_wall_ns: u64,
    pub trace_wal_wall_ns: u64,
}

/// Phase attribution pulled out of one captured batch's span set, as
/// `(thread_time, wall_time)` in plan/group/apply/snapshot/wal order.
/// Thread-time ([`obs::trace::phase_durations`]) sums every worker's spans,
/// so a phase on `k` concurrent workers counts `k×`; wall-time
/// ([`obs::trace::phase_wall_durations`]) is the phase's interval union and
/// counts overlapped spans once.
fn phase_breakdown(cap: &obs::trace::CapturedTrace) -> ([u64; 5], [u64; 5]) {
    use obs::trace::Phase;
    let slot = |phase: Phase| match phase {
        Phase::Plan => Some(0),
        Phase::Group => Some(1),
        Phase::Apply => Some(2),
        Phase::Snapshot => Some(3),
        Phase::WalAppend | Phase::WalFsync => Some(4),
        _ => None,
    };
    let mut thread = [0u64; 5];
    for (phase, ns) in obs::trace::phase_durations(&cap.events) {
        if let Some(i) = slot(phase) {
            thread[i] += ns;
        }
    }
    let mut wall = [0u64; 5];
    for (phase, ns) in obs::trace::phase_wall_durations(&cap.events) {
        if let Some(i) = slot(phase) {
            wall[i] += ns;
        }
    }
    (thread, wall)
}

/// Run the full ramp for one scenario. Returns the per-round records (the
/// knee is derived by [`knee_point`]) plus the slowest flight-recorder
/// capture of the whole ramp (`None` when `config.trace_sample == 0` or
/// nothing was captured) — `experiments -- e4` exports it as Chrome
/// trace-event JSON next to the latency table.
pub fn drive_serve_ramp(
    scenario: &ServeScenario,
    config: &RampConfig,
) -> (Vec<ServeRecord>, Option<obs::trace::CapturedTrace>) {
    // Global-registry handles so `metrics_dump` / the exposition test see
    // the bench layer too; per-round local histograms produce the report.
    let reg = obs::global();
    let op_family = reg.histogram(
        "pdmsf_bench_serve_op_ns",
        "E4 per-op serve latency (arrival to completion)",
    );
    let batch_family = reg.histogram(
        "pdmsf_bench_serve_batch_ns",
        "E4 per-batch service time (dispatch to completion)",
    );

    if config.trace_sample > 0 {
        // Pin every traced batch: retention keeps the slowest, so each
        // round's drain yields its worst batches. Drain stale captures
        // from earlier ramps in this process first.
        obs::trace::set_capture_threshold_ns(1);
        let _ = obs::trace::take_captured();
    }

    let mut records = Vec::new();
    let mut slowest: Option<obs::trace::CapturedTrace> = None;
    let mut offered = config.initial_rps.max(1);
    let mut round = 0;
    loop {
        // A fresh service + stream per round: rounds are independent
        // samples of the same workload at different rates (replaying one
        // stream would make later rounds cut edges earlier rounds linked).
        let specs: Vec<TenantSpec> = (0..scenario.tenants)
            .map(|t| TenantSpec::new(pdmsf_graph::TenantId(t as u32), scenario.tenant_vertices))
            .collect();
        let mut service = if scenario.partitions > 0 {
            ShardedService::new_partitioned(scenario.shards, &specs, scenario.partitions)
        } else {
            ShardedService::new(scenario.shards, &specs)
        };
        service.enable_metrics();
        let engine0 = service.shard_engine(0);
        let k = match engine0.partitioned_structure() {
            Some(p) => p.chunk_parameter(),
            None => engine0.structure().chunk_parameter(),
        };

        let batches = (config.round_ops / scenario.batch_size).max(1);
        let stream = tenant_stream(
            scenario.tenants,
            scenario.tenant_vertices,
            batches,
            scenario.batch_size,
            scenario.zipf_permille,
            scenario.seed ^ (round as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        service.execute(&stream.base_ops()); // warm state, untimed
        if config.trace_sample > 0 {
            // After the warm batch so the oversized warmup is never traced
            // (it would otherwise dominate the flight recorder).
            service.enable_tracing();
            service.set_trace_sampling(config.trace_sample);
        }
        let pool_snap = pdmsf_pram::pool::snapshot();

        let op_hist = obs::Histogram::new();
        let batch_hist = obs::Histogram::new();
        let mut failures = 0u64;
        let mut ops_done = 0usize;
        // Grouped-apply attribution accumulated from each batch's summary
        // (the warm batch above is deliberately excluded).
        let mut update_groups = 0u64;
        let mut group_conflicts = 0u64;
        let mut migrations = 0u64;
        let mut rebalances = 0u64;
        let timeout_ns = config.timeout.as_nanos() as u64;
        let ns_per_op = 1_000_000_000f64 / offered as f64;

        let t0 = Instant::now();
        let mut arrived = 0usize; // ops arrived before the current batch
        let mut last_completion_ns = 0u64;
        for batch in &stream.batches {
            let last_arrival_ns = ((arrived + batch.len()) as f64 * ns_per_op) as u64;
            // Closed loop: wait for the batch's arrival window to fill —
            // but never sleep when already behind (queueing builds up).
            let now_ns = t0.elapsed().as_nanos() as u64;
            if last_arrival_ns > now_ns {
                std::thread::sleep(Duration::from_nanos(last_arrival_ns - now_ns));
            }
            let dispatch = Instant::now();
            let result = service.execute(batch);
            let batch_ns = dispatch.elapsed().as_nanos() as u64;
            batch_hist.record(batch_ns);
            batch_family.record(batch_ns);
            update_groups += result.summary.update_groups as u64;
            group_conflicts += result.summary.group_conflicts as u64;
            migrations += result.summary.migrations;
            rebalances += result.summary.rebalances;

            let completion_ns = t0.elapsed().as_nanos() as u64;
            last_completion_ns = completion_ns;
            for j in 0..batch.len() {
                let arrival_ns = ((arrived + j + 1) as f64 * ns_per_op) as u64;
                let latency = completion_ns.saturating_sub(arrival_ns);
                op_hist.record(latency);
                op_family.record(latency);
                if latency > timeout_ns {
                    failures += 1;
                }
            }
            arrived += batch.len();
            ops_done += batch.len();
        }

        let snap = op_hist.snapshot();
        let failure_rate = failures as f64 / ops_done.max(1) as f64;
        let p95 = snap.quantile(0.95);
        let pool_delta = pool_snap.delta();
        // Drain this round's captures: the slowest one yields the round's
        // phase breakdown, and the slowest across all rounds is exported.
        let mut round_trace = [0u64; 5];
        let mut round_wall = [0u64; 5];
        let mut round_total = 0u64;
        if config.trace_sample > 0 {
            for cap in obs::trace::take_captured() {
                if round_total == 0 {
                    round_total = cap.total_ns;
                    (round_trace, round_wall) = phase_breakdown(&cap);
                }
                if slowest.as_ref().is_none_or(|s| cap.total_ns > s.total_ns) {
                    slowest = Some(cap);
                }
            }
        }
        let record = ServeRecord {
            scenario: scenario.name,
            shards: scenario.shards,
            tenants: scenario.tenants,
            k,
            partitions: scenario.partitions,
            round,
            offered_rps: offered,
            ops: ops_done,
            achieved_rps: ops_done as f64 * 1e9 / last_completion_ns.max(1) as f64,
            p50_ns: snap.quantile(0.5),
            p95_ns: p95,
            p99_ns: snap.quantile(0.99),
            mean_ns: snap.mean() as u64,
            batch_p95_ns: batch_hist.snapshot().quantile(0.95),
            failures,
            failure_rate,
            sustainable: p95 <= config.slo.as_nanos() as u64
                && failure_rate <= config.stop_failure_rate,
            pool_jobs: pool_delta.jobs_run,
            pool_shards: pool_delta.shards_executed,
            pool_inline: pool_delta.inline_runs,
            pool_chunks: pool_delta.chunks_claimed,
            pool_steals: pool_delta.steals,
            update_groups,
            group_conflicts,
            migrations,
            rebalances,
            trace_total_ns: round_total,
            trace_plan_ns: round_trace[0],
            trace_group_ns: round_trace[1],
            trace_apply_ns: round_trace[2],
            trace_snapshot_ns: round_trace[3],
            trace_wal_ns: round_trace[4],
            trace_plan_wall_ns: round_wall[0],
            trace_group_wall_ns: round_wall[1],
            trace_apply_wall_ns: round_wall[2],
            trace_snapshot_wall_ns: round_wall[3],
            trace_wal_wall_ns: round_wall[4],
        };
        let stop = record.failure_rate > config.stop_failure_rate
            || record.p50_ns > config.stop_t_median.as_nanos() as u64
            || offered >= config.max_rps;
        records.push(record);
        if stop {
            break;
        }
        offered = (offered + config.increment_rps).min(config.max_rps);
        round += 1;
    }
    (records, slowest)
}

/// The knee of a ramp: the highest offered rps among sustainable rounds
/// (`None` when even the first round missed the SLO).
pub fn knee_point(records: &[ServeRecord]) -> Option<u64> {
    records
        .iter()
        .filter(|r| r.sustainable)
        .map(|r| r.offered_rps)
        .max()
}

/// Serialize an E4 run as `BENCH_serve_latency.json` (hand-rolled JSON; see
/// [`crate::bench_records_to_json`]).
pub fn serve_records_to_json(
    meta: &RunMeta,
    config: &RampConfig,
    records: &[ServeRecord],
) -> String {
    let knee = knee_point(records);
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"benchmark\": \"serve_latency\",\n");
    out.push_str("  \"unit\": \"rps\",\n");
    out.push_str(&format!("  \"meta\": {},\n", meta.to_json()));
    out.push_str(&format!(
        "  \"config\": {{\"initial_rps\": {}, \"increment_rps\": {}, \"max_rps\": {}, \"round_ops\": {}, \"slo_ms\": {}, \"timeout_ms\": {}, \"stop_failure_rate\": {}, \"stop_t_median_ms\": {}}},\n",
        config.initial_rps,
        config.increment_rps,
        config.max_rps,
        config.round_ops,
        config.slo.as_millis(),
        config.timeout.as_millis(),
        config.stop_failure_rate,
        config.stop_t_median.as_millis()
    ));
    // Phase attribution at the knee: each phase's share of the knee
    // round's slowest captured batch (null when the knee round was
    // untraced or captured nothing). Two families per phase:
    //
    // * `*_thread_share` divides summed *thread-time* by the batch's
    //   wall-clock — a phase running concurrently on several pool workers
    //   (apply, typically) can legitimately exceed 1.0. It answers
    //   "where did the CPUs go".
    // * `*_wall_share` divides the phase's interval *union* by the same
    //   wall-clock — overlapping worker spans count once, so it is always
    //   ≤ 1.0. It answers "what was the batch waiting on".
    let knee_phases = knee
        .and_then(|k| {
            records
                .iter()
                .rfind(|r| r.sustainable && r.offered_rps == k)
        })
        .filter(|r| r.trace_total_ns > 0)
        .map_or("null".to_string(), |r| {
            let share = |ns: u64| ns as f64 / r.trace_total_ns as f64;
            format!(
                "{{\"plan_thread_share\": {:.4}, \"plan_wall_share\": {:.4}, \"group_thread_share\": {:.4}, \"group_wall_share\": {:.4}, \"apply_thread_share\": {:.4}, \"apply_wall_share\": {:.4}, \"snapshot_thread_share\": {:.4}, \"snapshot_wall_share\": {:.4}, \"wal_thread_share\": {:.4}, \"wal_wall_share\": {:.4}}}",
                share(r.trace_plan_ns),
                share(r.trace_plan_wall_ns),
                share(r.trace_group_ns),
                share(r.trace_group_wall_ns),
                share(r.trace_apply_ns),
                share(r.trace_apply_wall_ns),
                share(r.trace_snapshot_ns),
                share(r.trace_snapshot_wall_ns),
                share(r.trace_wal_ns),
                share(r.trace_wal_wall_ns)
            )
        });
    out.push_str(&format!(
        "  \"headline\": {{\"knee_rps\": {}, \"slo_p95_ms\": {}, \"knee_phase_shares\": {}}},\n",
        knee.map_or("null".to_string(), |k| k.to_string()),
        config.slo.as_millis(),
        knee_phases
    ));
    out.push_str("  \"results\": [\n");
    for (i, r) in records.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"scenario\": \"{}\", \"shards\": {}, \"tenants\": {}, \"k\": {}, \"partitions\": {}, \"round\": {}, \"offered_rps\": {}, \"ops\": {}, \"achieved_rps\": {:.1}, \"p50_us\": {:.1}, \"p95_us\": {:.1}, \"p99_us\": {:.1}, \"mean_us\": {:.1}, \"batch_p95_us\": {:.1}, \"failures\": {}, \"failure_rate\": {:.4}, \"sustainable\": {}, \"pool_jobs\": {}, \"pool_shards\": {}, \"pool_inline\": {}, \"pool_chunks\": {}, \"pool_steals\": {}, \"update_groups\": {}, \"group_conflicts\": {}, \"migrations\": {}, \"rebalances\": {}, \"trace_total_us\": {:.1}, \"trace_plan_us\": {:.1}, \"trace_group_us\": {:.1}, \"trace_apply_us\": {:.1}, \"trace_snapshot_us\": {:.1}, \"trace_wal_us\": {:.1}, \"trace_plan_wall_us\": {:.1}, \"trace_group_wall_us\": {:.1}, \"trace_apply_wall_us\": {:.1}, \"trace_snapshot_wall_us\": {:.1}, \"trace_wal_wall_us\": {:.1}}}{}\n",
            r.scenario,
            r.shards,
            r.tenants,
            r.k,
            r.partitions,
            r.round,
            r.offered_rps,
            r.ops,
            r.achieved_rps,
            r.p50_ns as f64 / 1e3,
            r.p95_ns as f64 / 1e3,
            r.p99_ns as f64 / 1e3,
            r.mean_ns as f64 / 1e3,
            r.batch_p95_ns as f64 / 1e3,
            r.failures,
            r.failure_rate,
            r.sustainable,
            r.pool_jobs,
            r.pool_shards,
            r.pool_inline,
            r.pool_chunks,
            r.pool_steals,
            r.update_groups,
            r.group_conflicts,
            r.migrations,
            r.rebalances,
            r.trace_total_ns as f64 / 1e3,
            r.trace_plan_ns as f64 / 1e3,
            r.trace_group_ns as f64 / 1e3,
            r.trace_apply_ns as f64 / 1e3,
            r.trace_snapshot_ns as f64 / 1e3,
            r.trace_wal_ns as f64 / 1e3,
            r.trace_plan_wall_ns as f64 / 1e3,
            r.trace_group_wall_ns as f64 / 1e3,
            r.trace_apply_wall_ns as f64 / 1e3,
            r.trace_snapshot_wall_ns as f64 / 1e3,
            r.trace_wal_wall_ns as f64 / 1e3,
            if i + 1 < records.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// The flight recorder is process-global: ramp tests that trace must
    /// not interleave their capture/drain cycles.
    static RECORDER_LOCK: Mutex<()> = Mutex::new(());

    fn tiny_config() -> RampConfig {
        RampConfig {
            initial_rps: 50_000,
            increment_rps: 50_000,
            max_rps: 100_000,
            round_ops: 128,
            slo: Duration::from_secs(5),
            timeout: Duration::from_secs(10),
            stop_failure_rate: 0.5,
            stop_t_median: Duration::from_secs(5),
            trace_sample: 1,
        }
    }

    #[test]
    fn tiny_ramp_produces_rounds_and_knee() {
        let _serial = RECORDER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let scenario = ServeScenario {
            name: "test",
            tenants: 3,
            tenant_vertices: 64,
            shards: 2,
            batch_size: 32,
            zipf_permille: 0,
            partitions: 0,
            seed: 7,
        };
        let config = tiny_config();
        let (records, slowest) = drive_serve_ramp(&scenario, &config);
        assert!(!records.is_empty() && records.len() <= 2);
        assert!(records.iter().all(|r| r.ops >= 128));
        // Generous SLO: every round sustains, knee = last offered rate.
        assert_eq!(
            knee_point(&records),
            Some(records.last().unwrap().offered_rps)
        );
        // Every batch traced with a 1ns capture threshold: each round must
        // carry a phase breakdown and the ramp a slowest capture.
        assert!(records.iter().all(|r| r.trace_total_ns > 0));
        // Single-structure engines never group or migrate.
        assert!(records.iter().all(|r| r.update_groups == 0));
        assert!(records.iter().all(|r| r.migrations == 0));
        let slowest = slowest.expect("traced ramp pins at least one batch");
        assert!(!slowest.events.is_empty());
        let json = serve_records_to_json(&RunMeta::collect(), &config, &records);
        assert!(json.contains("\"knee_rps\""));
        assert!(json.contains("\"knee_phase_shares\""));
        // Both share families present (knee round is traced here).
        assert!(json.contains("\"apply_thread_share\""));
        assert!(json.contains("\"apply_wall_share\""));
        assert!(json.contains("\"scenario\": \"test\""));
        assert!(json.contains("\"partitions\": 0"));
        assert!(json.contains("\"pool_jobs\""));
        assert!(json.contains("\"trace_total_us\""));
        assert!(json.contains("\"trace_apply_wall_us\""));
    }

    #[test]
    fn partitioned_ramp_stamps_group_attribution() {
        let _serial = RECORDER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let scenario = ServeScenario {
            name: "test_parts",
            tenants: 2,
            tenant_vertices: 64,
            shards: 2,
            batch_size: 32,
            zipf_permille: 0,
            partitions: 4,
            seed: 11,
        };
        let mut config = tiny_config();
        config.max_rps = 50_000;
        let (records, _) = drive_serve_ramp(&scenario, &config);
        assert!(!records.is_empty());
        for r in &records {
            assert_eq!(r.partitions, 4);
            assert!(
                r.update_groups > 0,
                "partitioned engines must dispatch update groups"
            );
            assert!(r.trace_total_ns > 0);
            // Wall-time is an interval union: it can never exceed the
            // capture's end-to-end span (thread-time can).
            for wall in [
                r.trace_plan_wall_ns,
                r.trace_group_wall_ns,
                r.trace_apply_wall_ns,
                r.trace_snapshot_wall_ns,
                r.trace_wal_wall_ns,
            ] {
                assert!(wall <= r.trace_total_ns);
            }
        }
        let json = serve_records_to_json(&RunMeta::collect(), &config, &records);
        assert!(json.contains("\"partitions\": 4"));
        assert!(json.contains("\"update_groups\""));
        assert!(json.contains("\"rebalances\""));
    }
}
