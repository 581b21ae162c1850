//! Workload `serve`: durable multi-tenant serving through
//! `ShardedService::new` — the production path, where the router, planner,
//! query snapshot, WAL and shard fan-out do most of the work.
//!
//! 8 shards host 16 tenants of 512 vertices; traffic is the E2/E4 tenant
//! stream (Zipf-hot tenants, bursty ops with 55% queries and flap pairs) in
//! batches of 256. Every shard writes its own `OpLogWriter<File>` with
//! `FlushPolicy::EveryN(8)`. A paced phase offers a fixed 20 000 ops/s
//! (open loop: op `j` is due at `j / rate`, a batch dispatches once its
//! last op is due, and each op is timed from its due time); a drain phase
//! then drives the rest of the stream back to back.

use std::fs::File;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pdmsf_bench::tenant_stream;
use pdmsf_graph::{kruskal_msf, TenantId, TenantOp};
use pdmsf_persist::{read_log, FlushPolicy, OpLogWriter};
use pdmsf_shard::{ShardedService, TenantSpec};

use crate::layers::{self, Counters, EngineSums};
use crate::stats;
use crate::wal::{CountedFile, SpannedSink, WalCounts};
use crate::{trace, Pass, Report};

const SHARDS: usize = 8;
const TENANTS: usize = 16;
const TENANT_VERTICES: usize = 512;
const BATCH: usize = 256;
const ZIPF_PERMILLE: u32 = 1_000;
const FLUSH_EVERY: u64 = 8;
/// A quarter to a fifth of what the service drains on a 2-core x86-64 VM,
/// so the paced phase stays clear of saturation when a shared machine
/// slows (at 40 000 ops/s, runs in a slow spell fell behind by seconds).
const PACED_RPS: u64 = 20_000;
/// An op that completes later than this after its due time is late.
const TIMEOUT_NS: f64 = 250e6;
/// Drain-phase ops per measured second on the reference machine.
const DRAIN_RPS: u64 = 90_000;
/// Set-ups per untraced run (each is a fraction of a second, nearly all of
/// it the base load's compute; one set-up's time moves by a fifth).
const SETUPS: usize = 9;

struct Durable {
    service: ShardedService,
    dir: PathBuf,
    counts: Vec<Arc<WalCounts>>,
}

/// Build the service, attach one log file per shard under `dir`, and load
/// every tenant's base graph (through the logs, like any other batch).
fn set_up(dir: &Path, base: &[TenantOp]) -> std::io::Result<Durable> {
    std::fs::create_dir_all(dir)?;
    let specs: Vec<TenantSpec> = (0..TENANTS)
        .map(|t| TenantSpec::new(TenantId(t as u32), TENANT_VERTICES))
        .collect();
    let mut service = ShardedService::new(SHARDS, &specs);
    service.enable_metrics();
    let mut counts = Vec::with_capacity(SHARDS);
    for s in 0..SHARDS {
        let file = File::create(log_path(dir, s))?;
        let c = Arc::new(WalCounts::default());
        let writer = OpLogWriter::create(
            CountedFile::new(file, c.clone()),
            s as u32,
            FlushPolicy::EveryN(FLUSH_EVERY),
        )?;
        service
            .shard_engine_mut(s)
            .set_sink(Box::new(SpannedSink(writer)));
        counts.push(c);
    }
    service.execute(base);
    Ok(Durable {
        service,
        dir: dir.to_path_buf(),
        counts,
    })
}

fn log_path(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("shard-{shard}.log"))
}

fn wal_totals(counts: &[Arc<WalCounts>]) -> (u64, u64) {
    // Relaxed: statistics, read after every pool job has joined.
    counts.iter().fold((0, 0), |(b, f), c| {
        (
            b + c.bytes.load(Ordering::Relaxed),
            f + c.fsyncs.load(Ordering::Relaxed),
        )
    })
}

pub fn run(pass: Pass) -> Report {
    let paced_batches = (PACED_RPS * pass.seconds / 2) as usize / BATCH;
    let drain_batches = (DRAIN_RPS * pass.seconds / 2) as usize / BATCH;
    let stream = tenant_stream(
        TENANTS,
        TENANT_VERTICES,
        paced_batches + drain_batches,
        BATCH,
        ZIPF_PERMILLE,
        pass.seed,
    );
    let base = stream.base_ops();
    let (paced, drain) = stream.batches.split_at(paced_batches);
    let paced_ops: usize = paced.iter().map(Vec::len).sum();
    let drain_ops: usize = drain.iter().map(Vec::len).sum();

    // Logs live inside the working directory, removed when the run ends.
    let root = PathBuf::from(format!(".perfbench-wal-{}", std::process::id()));
    // `setup_s` is the median of several set-ups; a traced run needs one.
    let setups = if pass.traced { 1 } else { SETUPS };
    let mut setup_s = Vec::with_capacity(setups);
    let mut durable: Option<Durable> = None;
    for i in 0..setups {
        if let Some(old) = durable.take() {
            let dir = old.dir.clone();
            drop(old);
            let _ = std::fs::remove_dir_all(dir);
        }
        let t0 = Instant::now();
        let d = set_up(&root.join(format!("setup-{i}")), &base).expect("create the shard logs");
        setup_s.push(t0.elapsed().as_secs_f64());
        durable = Some(d);
    }
    let Durable {
        mut service,
        dir,
        counts,
    } = durable.expect("at least one set-up");

    // Paced phase: each op is timed from its due time.
    let mut op_ns: Vec<(f64, u64)> = Vec::with_capacity(paced_ops);
    let mut queue_wait_ns: Vec<f64> = Vec::with_capacity(paced_ops);
    let mut gen_lag_ns: Vec<f64> = Vec::with_capacity(paced.len());
    let mut depth_ratios: Vec<f64> = Vec::new();
    let mut work_ratios: Vec<f64> = Vec::new();
    let mut late = 0u64;
    let mut sums = EngineSums::default();
    let ns_per_op = 1e9 / PACED_RPS as f64;
    trace::set_enabled(pass.traced);
    let counters = Counters::take();
    let wal_before = wal_totals(&counts);
    let t0 = Instant::now();
    let mut arrived = 0usize;
    let mut last_done = 0.0;
    for (b, batch) in paced.iter().enumerate() {
        let due_last = (arrived + batch.len()) as f64 * ns_per_op;
        let now = t0.elapsed().as_nanos() as f64;
        if due_last > now {
            std::thread::sleep(Duration::from_nanos((due_last - now) as u64));
        }
        trace::set_batch(b as u64 + 1);
        let root_span = trace::span("harness.batch");
        let dispatch = t0.elapsed().as_nanos() as f64;
        let result = {
            let _s = trace::outer_span("shard.execute");
            service.execute(batch)
        };
        let done = t0.elapsed().as_nanos() as f64;
        gen_lag_ns.push(dispatch - due_last);
        for j in 0..batch.len() {
            let due = (arrived + j + 1) as f64 * ns_per_op;
            op_ns.push((done - due, 1));
            queue_wait_ns.push(dispatch - due);
            if done - due > TIMEOUT_NS {
                late += 1;
            }
        }
        drop(root_span);
        arrived += batch.len();
        last_done = done;
        sums.add_service(&result.summary);
        if pass.traced {
            for p in result
                .summary
                .per_shard
                .iter()
                .filter(|p| p.applied_updates > 0)
            {
                let engine = service.shard_engine(p.shard);
                let cost = engine.structure().last_op_cost();
                let n = engine.num_vertices() as f64;
                depth_ratios.push(cost.depth as f64 / n.log2());
                work_ratios.push(cost.work as f64 / (n.sqrt() * n.log2()));
            }
        }
    }
    let delta = counters.delta();
    let wal_after = wal_totals(&counts);
    let paced_spans = trace::take();

    // Drain phase, timed on a busy clock: the time spent in the program.
    let mut drain_done_ns: Vec<f64> = Vec::with_capacity(drain.len());
    let mut drain_batch_ops: Vec<u64> = Vec::with_capacity(drain.len());
    let mut busy_ns = 0.0;
    let mut drain_rejected = 0u64;
    for (b, batch) in drain.iter().enumerate() {
        trace::set_batch((paced.len() + b) as u64 + 1);
        let _root = trace::span("harness.batch");
        let dispatch = Instant::now();
        let result = {
            let _s = trace::outer_span("shard.execute");
            service.execute(batch)
        };
        busy_ns += dispatch.elapsed().as_nanos() as f64;
        drain_done_ns.push(busy_ns);
        drain_batch_ops.push(batch.len() as u64);
        drain_rejected += result.summary.rejected as u64;
    }
    trace::set_enabled(false);

    let mut report = Report {
        attempted: (paced_ops + drain_ops) as u64,
        throughput: stats::windowed_rate(&drain_done_ns, &drain_batch_ops),
        ..Report::default()
    };
    let rejected = sums.rejected + drain_rejected;
    if rejected > 0 {
        report
            .problems
            .push(format!("{rejected} generated ops were rejected"));
        report.failed += rejected;
    }
    check(&mut service, &dir, &mut report);
    if !report.problems.is_empty() {
        report.failed = report.attempted;
    }
    let ks: Vec<usize> = (0..SHARDS)
        .map(|s| service.shard_engine(s).structure().chunk_parameter())
        .collect();
    let k_list: Vec<String> = ks.iter().map(usize::to_string).collect();
    report.stamps = vec![
        ("shards", SHARDS.to_string()),
        ("tenants", TENANTS.to_string()),
        ("tenant_vertices", TENANT_VERTICES.to_string()),
        ("engine_k", format!("[{}]", k_list.join(", "))),
        (
            "engine_exec",
            format!(
                "\"{:?}\"",
                service.shard_engine(0).structure().execution_mode()
            ),
        ),
        ("flush_policy", format!("\"EveryN({FLUSH_EVERY})\"")),
        ("paced_rps", PACED_RPS.to_string()),
        ("late_ops", late.to_string()),
    ];
    drop(service);
    let _ = std::fs::remove_dir_all(&root);

    let ms = |ns: f64| ns / 1e6;
    let e2e = &mut report.end_to_end;
    e2e.insert("setup_s", stats::median(&setup_s));
    e2e.insert("op_p50_ms", ms(stats::windowed_quantile(&op_ns, 0.5)));
    e2e.insert("op_p99_ms", ms(stats::windowed_quantile(&op_ns, 0.99)));
    e2e.insert("peak_rss_mib", stats::peak_rss_mib());

    if pass.traced {
        let batches = sums.batches as f64;
        let ops = sums.ops as f64;
        let execute = trace::durations(&paced_spans, "shard.execute");
        let record = trace::durations(&paced_spans, "persist.record");
        let fsync = trace::durations(&paced_spans, "persist.fsync");
        let l = &mut report.per_layer;
        layers::insert_common(l, &sums, &delta, &paced_spans);
        l.insert("shard.drain_ops_s", report.throughput);
        l.insert("shard.execute_p50_ms", ms(stats::quantile(&execute, 0.5)));
        l.insert("shard.execute_p99_ms", ms(stats::quantile(&execute, 0.99)));
        l.insert(
            "shard.busy_share",
            stats::ratio(execute.iter().sum(), last_done),
        );
        l.insert(
            "shard.queue_wait_p99_ms",
            ms(stats::quantile(&queue_wait_ns, 0.99)),
        );
        l.insert("core.k", ks.iter().copied().max().unwrap_or(0) as f64);
        l.insert(
            "core.depth_max_over_log2n",
            depth_ratios.iter().copied().fold(0.0, f64::max),
        );
        l.insert(
            "core.work_mean_over_sqrtn_log2n",
            stats::ratio(work_ratios.iter().sum(), work_ratios.len() as f64),
        );
        l.insert("persist.record_p50_us", stats::quantile(&record, 0.5) / 1e3);
        l.insert(
            "persist.record_p99_us",
            stats::quantile(&record, 0.99) / 1e3,
        );
        l.insert("persist.fsync_p50_ms", ms(stats::quantile(&fsync, 0.5)));
        l.insert("persist.fsync_p99_ms", ms(stats::quantile(&fsync, 0.99)));
        l.insert(
            "persist.fsyncs_per_batch",
            (wal_after.1 - wal_before.1) as f64 / batches,
        );
        l.insert(
            "persist.bytes_per_op",
            stats::ratio((wal_after.0 - wal_before.0) as f64, ops),
        );
        l.insert(
            "harness.gen_lag_p99_ms",
            ms(stats::quantile(&gen_lag_ns, 0.99)),
        );
        let mut spans = paced_spans;
        spans.extend(trace::take());
        report.spans = spans;
    }
    report
}

/// Correctness and durability checks after the run: every shard's forest
/// weight equals Kruskal's over its mirror, and every shard's log reads
/// back with no dropped bytes up to the engine's last applied batch.
fn check(service: &mut ShardedService, dir: &Path, report: &mut Report) {
    for s in 0..SHARDS {
        let engine = service.shard_engine_mut(s);
        drop(engine.take_sink());
        let applied = engine.applied_seq();
        let want = kruskal_msf(engine.graph()).total_weight;
        if engine.forest_weight() != want {
            report.problems.push(format!(
                "shard {s}: forest weight {} differs from Kruskal's {want}",
                engine.forest_weight()
            ));
        }
        match std::fs::read(log_path(dir, s)).map(|bytes| read_log(&bytes)) {
            Ok(Ok(log)) => {
                let last = log.records.last().map_or(0, |r| r.seq);
                if log.dropped_bytes != 0 || last != applied {
                    report.problems.push(format!(
                        "shard {s}: log has {} dropped bytes and last seq {last}, engine applied {applied}",
                        log.dropped_bytes
                    ));
                }
            }
            Ok(Err(e)) => report
                .problems
                .push(format!("shard {s}: log unreadable: {e:?}")),
            Err(e) => report
                .problems
                .push(format!("shard {s}: log unreadable: {e}")),
        }
    }
}
