//! Experiment driver: prints the evaluation tables (E0–E13) and writes the
//! machine-readable benchmark JSON artifacts.
//!
//! Usage:
//! ```text
//! cargo run --release -p pdmsf-bench --bin experiments            # all experiments
//! cargo run --release -p pdmsf-bench --bin experiments -- e2 e6   # a selection
//! cargo run --release -p pdmsf-bench --bin experiments -- quick   # smaller sizes
//! ```
//!
//! The machine-readable experiments also write JSON artifacts: E0 emits
//! `BENCH_update_time.json` (per-update throughput; `gate` adds the CI
//! regression gate), E1 emits `BENCH_batch_throughput.json` (batched vs
//! one-op-at-a-time engine paths over bursty/clustered batch streams),
//! E2 emits `BENCH_shard_throughput.json` (sharded multi-tenant service vs
//! one flat merged engine, across shard counts and tenant skews), E3
//! emits `BENCH_sched_throughput.json` (the work-stealing scheduler under
//! many-small-jobs workloads, steal/claim counters stamped per record),
//! E5 emits `BENCH_persist.json` (checkpoint size, checkpoint/restore wall
//! time vs cold rebuild — the persistence warm-start story) and E6 emits
//! `BENCH_intra_batch.json` (grouped concurrent apply on a
//! component-partitioned engine vs forced serial apply; run once per
//! `PDMSF_POOL_THREADS` width and merge — the pool width is read once per
//! process, so one run cannot sweep it).
//!
//! E4 emits `BENCH_serve_latency.json`: the **closed-loop serve-latency
//! ramp** — offered load on a sharded service climbs round by round
//! (`initial_rps` + k·`increment_rps`) under virtual arrival pacing,
//! per-op and per-batch latencies flow through `pdmsf-obs` histograms,
//! and the headline is the knee point: the highest offered rps whose
//! round still met the p95 SLO (see `pdmsf_bench::serve`). E4 used to
//! alias the legacy PRAM-scaling tables, which live at `e11`; the legacy
//! density sweep that held `e6` before the intra-batch benchmark took
//! that slot is now `e13` (renumbered like E10–E12 before it).

use pdmsf_baselines::{NaiveDynamicMsf, RecomputeMsf};
use pdmsf_bench::serve::{
    drive_serve_ramp, knee_point, serve_records_to_json, RampConfig, ServeScenario,
};
use pdmsf_bench::{
    batch_records_to_json, bench_records_to_json, bursty_batch_stream, clustered_batch_stream,
    clustered_mix_batch_stream, drive, drive_engine_batched, drive_engine_one_by_one,
    drive_service_flat, drive_service_sharded, drive_updates_only, failure_stream, grid_stream,
    insert_stream, intra_batch_records_to_json, migration_churn_batch_stream, mixed_stream,
    persist_records_to_json, pram_profile, sched_records_to_json, seq_mean_update_time,
    shard_records_to_json, tenant_stream, BatchRecord, BenchRecord, IntraBatchRecord,
    MergedTenantEngine, PersistRecord, RunMeta, SchedRecord, ShardRecord,
};
use pdmsf_core::{
    seq::default_sequential_k, MapSeqDynamicMsf, ParDynamicMsf, SeqDynamicMsf, SparsifiedMsf,
};
use pdmsf_engine::{Engine, Op};
use pdmsf_graph::{DynamicMsf, TenantId, UpdateStream};
use pdmsf_persist::{EngineCheckpointExt, ServiceCheckpointExt};
use pdmsf_pram::{erew_tournament_min, par_min_index, pool, AccessLog, CostMeter};
use pdmsf_shard::{ShardedService, TenantSpec};
use std::time::{Duration, Instant};

fn micros(d: Duration, ops: usize) -> f64 {
    if ops == 0 {
        0.0
    } else {
        d.as_secs_f64() * 1e6 / ops as f64
    }
}

/// Median of a non-empty rate sample (upper median; sorts in place).
fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("rates are finite"));
    xs[xs.len() / 2]
}

struct Config {
    sizes: Vec<usize>,
    ops: usize,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).map(|s| s.to_lowercase()).collect();
    let quick = args.iter().any(|a| a == "quick");
    let gate = args.iter().any(|a| a == "gate");
    let config = if quick {
        Config {
            sizes: vec![1 << 8, 1 << 10, 1 << 12],
            ops: 400,
        }
    } else {
        Config {
            sizes: vec![1 << 8, 1 << 10, 1 << 12, 1 << 14, 1 << 16],
            ops: 1_500,
        }
    };
    let selected: Vec<&str> = args
        .iter()
        .filter(|a| a.starts_with('e'))
        .map(String::as_str)
        .collect();
    let want = |name: &str| selected.is_empty() || selected.contains(&name);

    if want("e0") {
        e0_bench_json(quick, gate);
    }
    if want("e1") {
        e1_batch_throughput(quick);
    }
    if want("e2") {
        e2_shard_throughput(quick);
    }
    if want("e3") {
        e3_sched_throughput(quick);
    }
    if want("e4") {
        e4_serve_latency(quick);
    }
    if want("e11") {
        e11_pram_scaling(&config);
    }
    if want("e5") {
        e5_persist(&config);
    }
    if want("e6") {
        e6_intra_batch(quick);
    }
    if want("e7") {
        e7_kernels();
    }
    if want("e8") {
        e8_chunk_size(&config);
    }
    if want("e9") {
        e9_mwr_cost(&config);
    }
    if want("e10") {
        e10_seq_update_time(&config);
    }
    if want("e12") {
        e12_workloads(&config);
    }
    if want("e13") {
        e13_sparsification(&config);
    }
}

/// E0: the machine-readable update-time benchmark — ops/sec for insert-only,
/// delete-only and mixed streams at n ∈ {1e3, 1e4, 1e5}, for the arena-backed
/// structure and the map-backed bookkeeping baseline. Emits
/// `BENCH_update_time.json` (stamped with git SHA, `K`, core count and pool
/// width) so every future change has an attributable trajectory to beat.
///
/// With `gate`, the mixed stream is measured five times per structure (a
/// single rep's ratio can swing ±20% on a noisy shared runner; the median
/// of five is stable) and the run **fails** (non-zero exit) unless the
/// arena structure's median stays at least 1.5× the map baseline's median
/// at the largest mixed size — the CI bench-smoke regression gate (see
/// [`gate_mixed_ratio`]).
fn e0_bench_json(quick: bool, gate: bool) {
    println!("\n== E0: update-time benchmark (writes BENCH_update_time.json) ==");
    println!("structures: arena-seq (flat bookkeeping on the SoA chunk banks), map-seq");
    println!("(the seed's keyed-map bookkeeping and refresh policies, kept for");
    println!("comparison)");
    // The headline comparison (and acceptance gate) is the mixed stream at
    // n = 1e5; the insert/delete streams stop a decade earlier by default to
    // keep the full run under a few minutes (the seed baseline's base-graph
    // build dominates).
    let (sizes_mixed, sizes_rest): (&[usize], &[usize]) = if quick {
        (&[1_000, 10_000], &[1_000, 10_000])
    } else {
        (&[1_000, 10_000, 100_000], &[1_000, 10_000])
    };
    let ops = 2_000usize;
    type StreamMaker = fn(usize, usize) -> UpdateStream;
    let streams: [(&str, &[usize], StreamMaker); 3] = [
        ("insert", sizes_rest, |n, ops| {
            insert_stream(n, 2 * n, ops, 71)
        }),
        ("delete", sizes_rest, |n, ops| {
            // Failure streams generate one delete per base edge; size the
            // base graph to cover the requested op count, then truncate so
            // every stream times exactly `ops` operations.
            let mut stream = failure_stream(n, (2 * n).max(ops), 72);
            stream.ops.truncate(ops);
            stream
        }),
        ("mixed", sizes_mixed, |n, ops| {
            mixed_stream(n, 2 * n, ops, 73)
        }),
    ];
    let mut records: Vec<BenchRecord> = Vec::new();
    // Median mixed-stream ops/sec per (structure, n), for the gate.
    let mut mixed_medians: Vec<(String, usize, f64)> = Vec::new();
    println!(
        "{:>8} {:>8} {:>14} {:>14} {:>10}",
        "stream", "n", "arena (op/s)", "map (op/s)", "arena/map"
    );
    for (stream_name, sizes, make) in streams {
        // The gate compares medians, so gated mixed cells get repetitions.
        let reps = if gate && stream_name == "mixed" { 5 } else { 1 };
        for &n in sizes {
            let stream = make(n, ops);
            let mut rates: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
            for _ in 0..reps {
                let mut run = |structure: &str, k: usize, t: Duration, o: usize| {
                    records.push(BenchRecord {
                        structure: structure.to_string(),
                        stream: stream_name.to_string(),
                        n,
                        k,
                        ops: o,
                        elapsed_ns: t.as_nanos(),
                    });
                    records.last().unwrap().ops_per_sec()
                };
                let mut arena = SeqDynamicMsf::new(n);
                let (t_arena, o_arena) = drive_updates_only(&mut arena, &stream);
                rates[0].push(run("arena-seq", arena.chunk_parameter(), t_arena, o_arena));

                let mut map = MapSeqDynamicMsf::new(n);
                let (t_map, o_map) = drive_updates_only(&mut map, &stream);
                rates[1].push(run("map-seq", map.chunk_parameter(), t_map, o_map));

                // The two structures must agree — this benchmark doubles as
                // a large-n differential test.
                assert_eq!(arena.forest_weight(), map.forest_weight());
            }
            let m_arena = median(&mut rates[0]);
            let m_map = median(&mut rates[1]);
            if stream_name == "mixed" {
                mixed_medians.push(("arena-seq".into(), n, m_arena));
                mixed_medians.push(("map-seq".into(), n, m_map));
            }
            println!(
                "{:>8} {:>8} {:>14.0} {:>14.0} {:>9.2}x",
                stream_name,
                n,
                m_arena,
                m_map,
                if m_map > 0.0 { m_arena / m_map } else { 0.0 }
            );
        }
    }
    let meta = RunMeta::collect();
    let json = bench_records_to_json("update_time", &meta, &records);
    let path = "BENCH_update_time.json";
    std::fs::write(path, json).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    println!(
        "wrote {path} ({} records, git {}, {} pool thread(s))",
        records.len(),
        meta.git_sha,
        meta.threads
    );
    if gate {
        gate_mixed_ratio(&mixed_medians);
    }
}

/// The CI regression gate: at the **largest** mixed size of the run, the
/// arena structure's median throughput must be ≥ 1.5× the map baseline's
/// median. The largest size is the asymptotic regime the ROADMAP target is
/// stated for (the actual margin there is around 1.8–2×, so 1.5× triggers on
/// real regressions, not machine noise); small-n ratios are dominated by
/// constant factors and sit just below 1.5× by design, so they are printed
/// but not gated.
fn gate_mixed_ratio(mixed_medians: &[(String, usize, f64)]) {
    const MIN_RATIO: f64 = 1.5;
    let gated_n = mixed_medians
        .iter()
        .map(|(_, n, _)| *n)
        .max()
        .expect("gate mode measured at least one mixed size");
    let mut failed = false;
    println!("\n-- bench-smoke gate: arena-seq vs map-seq medians (mixed stream) --");
    for (structure, n, arena_rate) in mixed_medians {
        if structure != "arena-seq" {
            continue;
        }
        let map_rate = mixed_medians
            .iter()
            .find(|(s, m, _)| s == "map-seq" && m == n)
            .map(|(_, _, r)| *r)
            .expect("map baseline measured for every mixed size");
        let ratio = if map_rate > 0.0 {
            arena_rate / map_rate
        } else {
            f64::INFINITY
        };
        if *n != gated_n {
            println!("n = {n:>7}: arena/map = {ratio:.2}x (informational)");
            continue;
        }
        let ok = ratio >= MIN_RATIO;
        println!(
            "n = {n:>7}: arena/map = {ratio:.2}x (gate: >= {MIN_RATIO}x) {}",
            if ok { "ok" } else { "FAIL" }
        );
        failed |= !ok;
    }
    if failed {
        eprintln!("bench-smoke gate FAILED: arena structure regressed against the map baseline");
        std::process::exit(1);
    }
    println!("bench-smoke gate passed");
}

/// E1: batch-engine throughput — the batched path (preprocessing,
/// cancellation, query snapshot + pooled fan-out) vs the one-op-at-a-time
/// engine path on identical bursty and tenant-clustered batch streams.
/// Emits `BENCH_batch_throughput.json` with the same run-metadata stamping
/// as E0. The ROADMAP acceptance bar: batched ≥ 1.3× one-by-one on the
/// mixed (bursty) stream at the largest measured batch size, comparing
/// medians.
fn e1_batch_throughput(quick: bool) {
    println!("\n== E1: batch engine throughput (writes BENCH_batch_throughput.json) ==");
    println!("paths: batched (plan + cancel + dedup + snapshot fan-out) vs one-by-one");
    println!("(same ops through the same structure, no batch leverage); identical");
    println!("outcomes, so the ratio is pure batching leverage");
    let (sizes, batch_sizes, total_ops, reps): (&[usize], &[usize], usize, usize) = if quick {
        (&[1_000], &[32, 256], 2_048, 1)
    } else {
        (&[1_000, 10_000], &[16, 64, 256, 1_024], 8_192, 3)
    };
    type StreamMaker = fn(usize, usize, usize, usize, u64) -> pdmsf_graph::BatchStream;
    let streams: [(&str, StreamMaker); 2] = [
        ("bursty", bursty_batch_stream),
        ("clustered", clustered_batch_stream),
    ];
    let mut records: Vec<BatchRecord> = Vec::new();
    println!(
        "{:>10} {:>8} {:>7} {:>16} {:>16} {:>12}",
        "stream", "n", "batch", "batched (op/s)", "1-by-1 (op/s)", "batched/1x1"
    );
    for (stream_name, make) in streams {
        for &n in sizes {
            for &batch_size in batch_sizes {
                let batches = (total_ops / batch_size).max(1);
                let stream = make(n, 2 * n, batches, batch_size, 81);
                let mut rates: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
                for _ in 0..reps {
                    let mut run = |path: &str, engine: &Engine, t: Duration, ops: usize| -> f64 {
                        records.push(BatchRecord {
                            path: path.to_string(),
                            stream: stream_name.to_string(),
                            n,
                            k: engine.structure().chunk_parameter(),
                            batch_size,
                            batches,
                            ops,
                            elapsed_ns: t.as_nanos(),
                        });
                        records.last().unwrap().ops_per_sec()
                    };
                    let mut batched = Engine::new(n);
                    let (t_b, ops_b) = drive_engine_batched(&mut batched, &stream);
                    rates[0].push(run("batched", &batched, t_b, ops_b));

                    let mut serial = Engine::new(n);
                    let (t_s, ops_s) = drive_engine_one_by_one(&mut serial, &stream);
                    rates[1].push(run("one-by-one", &serial, t_s, ops_s));

                    // The two paths must agree — this benchmark doubles as a
                    // large-n differential test of the batch semantics.
                    assert_eq!(batched.forest_weight(), serial.forest_weight());
                    assert_eq!(batched.forest_edges(), serial.forest_edges());
                }
                let m_batched = median(&mut rates[0]);
                let m_serial = median(&mut rates[1]);
                println!(
                    "{:>10} {:>8} {:>7} {:>16.0} {:>16.0} {:>11.2}x",
                    stream_name,
                    n,
                    batch_size,
                    m_batched,
                    m_serial,
                    if m_serial > 0.0 {
                        m_batched / m_serial
                    } else {
                        0.0
                    }
                );
            }
        }
    }
    let meta = RunMeta::collect();
    let json = batch_records_to_json(&meta, &records);
    let path = "BENCH_batch_throughput.json";
    std::fs::write(path, json).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    println!(
        "wrote {path} ({} records, git {}, {} pool thread(s))",
        records.len(),
        meta.git_sha,
        meta.threads
    );
}

/// E2: sharded-service throughput — the multi-tenant sharded service
/// (tenant routing, per-shard planning, concurrent shard application on
/// the pool injector) vs one flat single-`Engine` over the merged vertex
/// space, on identical tenant-tagged streams, across shard counts and
/// tenant popularity skews. Emits `BENCH_shard_throughput.json`, each
/// record stamped with the pool-stats delta of its timed region on top of
/// the usual run metadata.
///
/// The ROADMAP acceptance bar: sharded with ≥ 4 shards ≥ 1.2× the flat
/// merged engine (median ops/sec) at the largest quick size on the skewed
/// stream. The win has two independent sources — each shard holds
/// `n_shard << n_total` vertices, so the `O(sqrt(n) log n)` updates and
/// the `O(n)` query snapshots are cheaper *per core*; and shard batches
/// run concurrently when cores exist — so the bar holds on one core too.
fn e2_shard_throughput(quick: bool) {
    println!("\n== E2: sharded service throughput (writes BENCH_shard_throughput.json) ==");
    println!("paths: sharded (tenant routing + per-shard plan + concurrent shard jobs)");
    println!("vs flat-merged (one engine over the merged vertex space); identical");
    println!("streams and final forests, so the ratio is pure sharding leverage");
    let (sizes, shard_counts, total_ops, reps): (&[(usize, usize)], &[usize], usize, usize) =
        if quick {
            (&[(16, 256), (16, 512)], &[1, 2, 4, 8], 4_096, 1)
        } else {
            (
                &[(16, 256), (16, 512), (32, 512), (16, 1_024)],
                &[1, 2, 4, 8],
                8_192,
                3,
            )
        };
    let batch_size = 512usize;
    let skews: &[(&str, u32)] = &[("skewed", 900), ("uniform", 0)];
    let mut records: Vec<ShardRecord> = Vec::new();
    println!(
        "{:>8} {:>8} {:>8} {:>7} {:>16} {:>14}",
        "stream", "total_n", "tenants", "shards", "ops/s (median)", "vs flat"
    );
    for &(tenants, tenant_n) in sizes {
        let total_n = tenants * tenant_n;
        for &(skew_name, zipf) in skews {
            let batches = (total_ops / batch_size).max(1);
            let stream = tenant_stream(tenants, tenant_n, batches, batch_size, zipf, 91);
            let specs: Vec<TenantSpec> = (0..tenants)
                .map(|t| TenantSpec::new(TenantId(t as u32), tenant_n))
                .collect();
            // The flat merged baseline first; shard counts ride against it.
            // Its final forest weight is the differential reference every
            // sharded run below is checked against.
            let mut flat_rates: Vec<f64> = Vec::new();
            let mut flat_weight = 0i128;
            for _ in 0..reps {
                let mut flat = MergedTenantEngine::new(tenants, tenant_n);
                let snap = pool::snapshot();
                let (t, ops) = drive_service_flat(&mut flat, &stream);
                let delta = snap.delta();
                flat_weight = flat.engine().forest_weight();
                records.push(ShardRecord {
                    path: "flat-merged".into(),
                    shards: 1,
                    tenants,
                    tenant_n,
                    total_n,
                    zipf_permille: zipf,
                    batch_size,
                    batches,
                    ops,
                    elapsed_ns: t.as_nanos(),
                    pool_jobs: delta.jobs_run,
                    pool_shards: delta.shards_executed,
                    pool_inline: delta.inline_runs,
                    pool_chunks: delta.chunks_claimed,
                    pool_steals: delta.steals,
                });
                flat_rates.push(records.last().unwrap().ops_per_sec());
            }
            let m_flat = median(&mut flat_rates);
            println!(
                "{:>8} {:>8} {:>8} {:>7} {:>16.0} {:>13.2}x",
                skew_name, total_n, tenants, "flat", m_flat, 1.0
            );
            for &shards in shard_counts {
                let mut rates: Vec<f64> = Vec::new();
                for _ in 0..reps {
                    let mut service = ShardedService::new(shards, &specs);
                    let snap = pool::snapshot();
                    let (t, ops) = drive_service_sharded(&mut service, &stream);
                    let delta = snap.delta();
                    records.push(ShardRecord {
                        path: "sharded".into(),
                        shards,
                        tenants,
                        tenant_n,
                        total_n,
                        zipf_permille: zipf,
                        batch_size,
                        batches,
                        ops,
                        elapsed_ns: t.as_nanos(),
                        pool_jobs: delta.jobs_run,
                        pool_shards: delta.shards_executed,
                        pool_inline: delta.inline_runs,
                        pool_chunks: delta.chunks_claimed,
                        pool_steals: delta.steals,
                    });
                    rates.push(records.last().unwrap().ops_per_sec());
                    // The two paths must agree — this benchmark doubles as a
                    // large-n differential test of the sharded semantics.
                    assert_eq!(
                        service.total_forest_weight(),
                        flat_weight,
                        "sharded and flat-merged forests diverged"
                    );
                }
                let m = median(&mut rates);
                println!(
                    "{:>8} {:>8} {:>8} {:>7} {:>16.0} {:>13.2}x",
                    skew_name,
                    total_n,
                    tenants,
                    shards,
                    m,
                    if m_flat > 0.0 { m / m_flat } else { 0.0 }
                );
            }
        }
    }
    let meta = RunMeta::collect();
    let json = shard_records_to_json(&meta, &records);
    let path = "BENCH_shard_throughput.json";
    std::fs::write(path, json).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    println!(
        "wrote {path} ({} records, git {}, {} pool thread(s))",
        records.len(),
        meta.git_sha,
        meta.threads
    );
}

/// E3: scheduler throughput — the work-stealing pool under the
/// many-small-jobs regimes the sharded service creates, measured straight
/// at the pool plus one end-to-end service scenario. Emits
/// `BENCH_sched_throughput.json`, every record stamped with the pool-stats
/// delta of its timed region (jobs, chunk claims, **steals**, inline runs)
/// so scheduler behaviour is attributable in the JSON trajectory.
///
/// Scenarios:
/// * `many-small` — several submitter threads × many tiny flat jobs
///   (many shards × small batches in service terms);
/// * `imbalanced` — shard work grows quadratically with the shard index
///   (imbalanced shard sizes; stealing is what rebalances the tail);
/// * `nested` — every outer shard submits a nested job (nested-job depth);
/// * `service-small` — the sharded service on a many-tenants × small-batch
///   tenant stream (the real dispatcher path end to end).
///
/// On a 1-core machine the global pool runs inline (steals = 0 by design —
/// the counters make that visible); concurrency behaviour needs either
/// cores or a `PDMSF_POOL_THREADS` override, and the acceptance bar is
/// "medians no worse than the committed FIFO-injector baseline", with
/// concurrency upside informational.
fn e3_sched_throughput(quick: bool) {
    println!("\n== E3: scheduler throughput (writes BENCH_sched_throughput.json) ==");
    println!("work-stealing pool under many-small-jobs scenarios; per-record pool");
    println!("deltas (chunks claimed, steals, inline runs) attribute the scheduling");
    let reps = if quick { 3 } else { 5 };
    let spin = |units: usize| {
        let mut acc = 0u64;
        for i in 0..units * 40 {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i as u64);
            std::hint::black_box(acc);
        }
        acc
    };
    let mut records: Vec<SchedRecord> = Vec::new();
    println!(
        "{:>14} {:>6} {:>6} {:>7} {:>16} {:>8} {:>8}",
        "scenario", "thr", "jobs", "shards", "ops/s (median)", "chunks", "steals"
    );

    // Pool-level scenarios: (name, submitters, jobs/submitter, shards/job,
    // depth, per-shard work closure).
    type ShardWork = Box<dyn Fn(usize) + Sync>;
    let scenarios: Vec<(&str, usize, usize, usize, usize, ShardWork)> = vec![
        (
            "many-small",
            4,
            64,
            8,
            1,
            Box::new(move |_shard| {
                std::hint::black_box(spin(8));
            }),
        ),
        (
            "imbalanced",
            2,
            32,
            8,
            1,
            Box::new(move |shard| {
                std::hint::black_box(spin(8 * (shard + 1) * (shard + 1)));
            }),
        ),
        (
            "nested",
            2,
            16,
            4,
            2,
            Box::new(move |_outer| {
                pool::run_shards(4, |_inner| {
                    std::hint::black_box(spin(10));
                });
            }),
        ),
    ];
    for (name, submitters, jobs, shards, depth, work) in &scenarios {
        let mut rates: Vec<f64> = Vec::new();
        let mut last: Option<SchedRecord> = None;
        for _ in 0..reps {
            // Every executed shard counts as an op: in the nested scenario
            // each outer shard additionally submits a 4-shard inner job,
            // so a job executes `shards` outer + `shards * 4` leaf shards
            // (matching the pool_shards delta stamped into the record).
            let ops = submitters * jobs * shards * if *depth > 1 { 1 + 4 } else { 1 };
            let snap = pool::snapshot();
            let start = std::time::Instant::now();
            std::thread::scope(|scope| {
                for _ in 0..*submitters {
                    scope.spawn(|| {
                        for _ in 0..*jobs {
                            pool::run_shards(*shards, &*work);
                        }
                    });
                }
            });
            let elapsed = start.elapsed();
            let delta = snap.delta();
            let rec = SchedRecord {
                scenario: name.to_string(),
                submitters: *submitters,
                jobs: *jobs,
                shards_per_job: *shards,
                depth: *depth,
                ops,
                elapsed_ns: elapsed.as_nanos(),
                pool_jobs: delta.jobs_run,
                pool_shards: delta.shards_executed,
                pool_inline: delta.inline_runs,
                pool_chunks: delta.chunks_claimed,
                pool_steals: delta.steals,
            };
            rates.push(rec.ops_per_sec());
            records.push(rec.clone());
            last = Some(rec);
        }
        let last = last.expect("at least one rep ran");
        println!(
            "{:>14} {:>6} {:>6} {:>7} {:>16.0} {:>8} {:>8}",
            name,
            submitters,
            jobs,
            shards,
            median(&mut rates),
            last.pool_chunks,
            last.pool_steals
        );
    }

    // End-to-end: the sharded service on many shards × small batches.
    let (tenants, tenant_n, shards) = (16usize, 128usize, 8usize);
    let batches = if quick { 16 } else { 32 };
    let stream = tenant_stream(tenants, tenant_n, batches, 64, 700, 99);
    let specs: Vec<TenantSpec> = (0..tenants)
        .map(|t| TenantSpec::new(TenantId(t as u32), tenant_n))
        .collect();
    let mut rates: Vec<f64> = Vec::new();
    let mut last: Option<SchedRecord> = None;
    for _ in 0..reps {
        let mut service = ShardedService::new(shards, &specs);
        let snap = pool::snapshot();
        let (t, ops) = drive_service_sharded(&mut service, &stream);
        let delta = snap.delta();
        let rec = SchedRecord {
            scenario: "service-small".into(),
            submitters: 1,
            jobs: batches,
            shards_per_job: shards,
            depth: 1,
            ops,
            elapsed_ns: t.as_nanos(),
            pool_jobs: delta.jobs_run,
            pool_shards: delta.shards_executed,
            pool_inline: delta.inline_runs,
            pool_chunks: delta.chunks_claimed,
            pool_steals: delta.steals,
        };
        rates.push(rec.ops_per_sec());
        records.push(rec.clone());
        last = Some(rec);
    }
    let last = last.expect("at least one rep ran");
    println!(
        "{:>14} {:>6} {:>6} {:>7} {:>16.0} {:>8} {:>8}",
        "service-small",
        1,
        batches,
        shards,
        median(&mut rates),
        last.pool_chunks,
        last.pool_steals
    );

    let meta = RunMeta::collect();
    let json = sched_records_to_json(&meta, &records);
    let path = "BENCH_sched_throughput.json";
    std::fs::write(path, json).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    println!(
        "wrote {path} ({} records, git {}, {} pool thread(s))",
        records.len(),
        meta.git_sha,
        meta.threads
    );
}

/// E10: per-update wall clock vs n — paper structure vs baselines
/// (numbered E1 before the batch engine claimed that slot).
fn e10_seq_update_time(cfg: &Config) {
    println!("\n== E10: sequential update time vs n (mixed stream, m ≈ 2n) ==");
    println!(
        "{:>8} {:>14} {:>14} {:>14}",
        "n", "kpr-seq (µs)", "naive (µs)", "recompute (µs)"
    );
    for &n in &cfg.sizes {
        let stream = mixed_stream(n, 2 * n, cfg.ops, 11);
        let mut seq = SeqDynamicMsf::new(n);
        let (t_seq, ops) = drive_updates_only(&mut seq, &stream);
        // The O(m)-per-update baselines become painfully slow at large n;
        // scale their measured op-count down and extrapolate per-op cost.
        let baseline_ops = cfg.ops.min(300);
        let small_stream = mixed_stream(n, 2 * n, baseline_ops, 11);
        let mut naive = NaiveDynamicMsf::new(n);
        let (t_naive, ops_naive) = drive_updates_only(&mut naive, &small_stream);
        let (t_rec, ops_rec) = if n <= 1 << 12 {
            let mut rec = RecomputeMsf::new(n);
            drive_updates_only(&mut rec, &small_stream)
        } else {
            (Duration::ZERO, 0)
        };
        println!(
            "{:>8} {:>14.2} {:>14.2} {:>14.2}",
            n,
            micros(t_seq, ops),
            micros(t_naive, ops_naive),
            micros(t_rec, ops_rec),
        );
    }
}

/// E4: the closed-loop serve-latency ramp (see [`pdmsf_bench::serve`]).
/// Offered load on a sharded service climbs `initial_rps` →
/// `max_rps` in `increment_rps` steps under virtual arrival pacing; per
/// round the per-op latency distribution (arrival → completion, queueing
/// included) flows through `pdmsf-obs` histograms and is reported as
/// p50/p95/p99 + failure rate. The ramp stops at saturation
/// (failure-rate / median-latency thresholds), and the headline knee —
/// the highest offered rps whose round met the p95 SLO — lands in
/// `BENCH_serve_latency.json` next to the full per-round table.
fn e4_serve_latency(quick: bool) {
    println!("\n== E4: closed-loop serve latency ramp (writes BENCH_serve_latency.json) ==");
    println!("offered load ramps per round; per-op latency = arrival -> completion");
    println!("(queueing included); knee = max offered rps meeting the p95 SLO");
    let config = if quick {
        RampConfig::quick()
    } else {
        RampConfig::standard()
    };
    // Every run drives each workload twice: once on one-partition shard
    // engines (`partitions: 0`) and once on multi-partition engines
    // (grouped intra-batch apply + adaptive rebalancing) — the `*_parts`
    // rows. Comparing the two knees in one run is the E4 read on whether
    // partitioned serving holds the one-partition capacity while stamping
    // group attribution.
    let scenarios: &[ServeScenario] = if quick {
        &[
            ServeScenario {
                name: "uniform",
                tenants: 8,
                tenant_vertices: 256,
                shards: 4,
                batch_size: 256,
                zipf_permille: 0,
                partitions: 0,
                seed: 41,
            },
            ServeScenario {
                name: "uniform_parts",
                tenants: 8,
                tenant_vertices: 256,
                shards: 4,
                batch_size: 256,
                zipf_permille: 0,
                partitions: 4,
                seed: 41,
            },
        ]
    } else {
        &[
            ServeScenario {
                name: "uniform",
                tenants: 16,
                tenant_vertices: 512,
                shards: 8,
                batch_size: 512,
                zipf_permille: 0,
                partitions: 0,
                seed: 41,
            },
            ServeScenario {
                name: "uniform_parts",
                tenants: 16,
                tenant_vertices: 512,
                shards: 8,
                batch_size: 512,
                zipf_permille: 0,
                partitions: 8,
                seed: 41,
            },
            ServeScenario {
                name: "zipf_hot",
                tenants: 16,
                tenant_vertices: 512,
                shards: 8,
                batch_size: 512,
                zipf_permille: 900,
                partitions: 0,
                seed: 41,
            },
            ServeScenario {
                name: "zipf_hot_parts",
                tenants: 16,
                tenant_vertices: 512,
                shards: 8,
                batch_size: 512,
                zipf_permille: 900,
                partitions: 8,
                seed: 41,
            },
        ]
    };
    let mut records = Vec::new();
    println!(
        "{:>9} {:>6} {:>12} {:>12} {:>10} {:>10} {:>10} {:>9} {:>5}",
        "scenario", "round", "offered_rps", "achieved", "p50_us", "p95_us", "p99_us", "fail", "ok"
    );
    let mut slowest: Option<pdmsf_obs::trace::CapturedTrace> = None;
    for scenario in scenarios {
        let (ramp, scenario_slowest) = drive_serve_ramp(scenario, &config);
        if let Some(cap) = scenario_slowest {
            if slowest.as_ref().is_none_or(|s| cap.total_ns > s.total_ns) {
                slowest = Some(cap);
            }
        }
        for r in &ramp {
            println!(
                "{:>9} {:>6} {:>12} {:>12.0} {:>10.1} {:>10.1} {:>10.1} {:>8.2}% {:>5}",
                r.scenario,
                r.round,
                r.offered_rps,
                r.achieved_rps,
                r.p50_ns as f64 / 1e3,
                r.p95_ns as f64 / 1e3,
                r.p99_ns as f64 / 1e3,
                r.failure_rate * 100.0,
                if r.sustainable { "yes" } else { "NO" }
            );
        }
        match knee_point(&ramp) {
            Some(knee) => println!(
                "  {}: knee = {} rps sustained under p95 <= {} ms",
                scenario.name,
                knee,
                config.slo.as_millis()
            ),
            None => println!(
                "  {}: no sustainable round (SLO p95 <= {} ms missed from the start)",
                scenario.name,
                config.slo.as_millis()
            ),
        }
        records.extend(ramp);
    }
    // Pairwise knee read: each partitioned scenario against its
    // one-partition twin from the same run.
    for scenario in scenarios.iter().filter(|s| s.partitions > 0) {
        let base = scenario.name.trim_end_matches("_parts");
        let knee_of = |name: &str| {
            let rows: Vec<_> = records
                .iter()
                .filter(|r| r.scenario == name)
                .cloned()
                .collect();
            knee_point(&rows)
        };
        if let (Some(plain), Some(parts)) = (knee_of(base), knee_of(scenario.name)) {
            println!(
                "  {} vs {}: knee {} -> {} rps ({}x)",
                base,
                scenario.name,
                plain,
                parts,
                parts as f64 / plain as f64
            );
        }
    }
    let json = serve_records_to_json(&RunMeta::collect(), &config, &records);
    let path = "BENCH_serve_latency.json";
    std::fs::write(path, json).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    println!("wrote {path}");
    // Export the ramp's slowest captured batch as Chrome trace-event JSON
    // (loadable in Perfetto / about://tracing) for tail-latency forensics.
    if let Some(cap) = slowest {
        let trace_path = "BENCH_serve_trace.json";
        let trace_json = pdmsf_obs::trace::chrome_trace_json(&cap.events);
        std::fs::write(trace_path, trace_json)
            .unwrap_or_else(|e| panic!("cannot write {trace_path}: {e}"));
        println!(
            "wrote {trace_path} (slowest captured batch: trace {} at {:.1} us end-to-end, {} events)",
            cap.trace,
            cap.total_ns as f64 / 1e3,
            cap.events.len()
        );
    }
}

/// E11: PRAM depth, work and processors per update vs n (numbered E2/E3/E4
/// before the sharded service claimed E2 and the serve-latency ramp
/// claimed E4).
fn e11_pram_scaling(cfg: &Config) {
    println!("\n== E11: EREW PRAM scaling of the parallel structure (formerly E2/E3/E4) ==");
    println!(
        "{:>8} {:>6} {:>12} {:>12} {:>14} {:>14} {:>12} {:>10}",
        "n", "K", "worst depth", "mean depth", "worst work", "mean work", "peak procs", "sqrt(n)"
    );
    for &n in &cfg.sizes {
        let run = pram_profile(n, cfg.ops, 21);
        println!(
            "{:>8} {:>6} {:>12} {:>12.1} {:>14} {:>14.1} {:>12} {:>10.0}",
            run.n,
            run.k,
            run.worst.depth,
            run.mean_depth,
            run.worst.work,
            run.mean_work,
            run.peak_processors,
            (n as f64).sqrt()
        );
    }
}

/// E5: persistence warm start — checkpoint size and wall time, restore
/// (warm-start) wall time against rebuilding the same state cold by
/// replaying the full op stream through the normal execution path: one
/// engine cell per benchmark size plus a sharded-service cell. Emits
/// `BENCH_persist.json` with the same run-metadata stamping as the other
/// artifacts, and differentially checks every restored state against the
/// original (forest weight) before recording it.
fn e5_persist(cfg: &Config) {
    println!("\n== E5: persistence warm start (writes BENCH_persist.json) ==");
    println!(
        "{:>8} {:>8} {:>7} {:>7} {:>11} {:>10} {:>11} {:>10} {:>8}",
        "scenario",
        "n",
        "ops",
        "edges",
        "ckpt bytes",
        "ckpt us",
        "restore us",
        "cold us",
        "speedup"
    );
    let us = |ns: u128| ns as f64 / 1e3;
    let batch_size = 16usize;
    let batches = (cfg.ops / batch_size).max(4);
    let mut records: Vec<PersistRecord> = Vec::new();

    for &n in &cfg.sizes {
        let stream = bursty_batch_stream(n, 2 * n, batches, batch_size, 7);
        let build = || {
            let mut engine = Engine::new(stream.num_vertices);
            let base: Vec<Op> = stream
                .base_edges
                .iter()
                .map(|&(u, v, weight)| Op::Link { u, v, weight })
                .collect();
            engine.execute(&base);
            let mut ops = base.len();
            for batch in &stream.batches {
                engine.execute(batch);
                ops += batch.len();
            }
            (engine, ops)
        };
        let start = Instant::now();
        let (engine, ops) = build();
        let cold = start.elapsed();
        let mut blob = Vec::new();
        let start = Instant::now();
        engine.checkpoint(&mut blob).unwrap();
        let ckpt = start.elapsed();
        let start = Instant::now();
        let restored = Engine::restore(&blob[..]).unwrap();
        let restore = start.elapsed();
        assert_eq!(
            restored.forest_weight(),
            engine.forest_weight(),
            "restored engine diverged at n={n}"
        );
        records.push(PersistRecord {
            scenario: "engine".into(),
            n: stream.num_vertices,
            k: default_sequential_k(stream.num_vertices),
            ops,
            live_edges: engine.graph().num_edges(),
            checkpoint_bytes: blob.len(),
            checkpoint_ns: ckpt.as_nanos(),
            restore_ns: restore.as_nanos(),
            cold_rebuild_ns: cold.as_nanos(),
        });
        let r = records.last().unwrap();
        println!(
            "{:>8} {:>8} {:>7} {:>7} {:>11} {:>10.1} {:>11.1} {:>10.1} {:>7.1}x",
            r.scenario,
            r.n,
            r.ops,
            r.live_edges,
            r.checkpoint_bytes,
            us(r.checkpoint_ns),
            us(r.restore_ns),
            us(r.cold_rebuild_ns),
            r.speedup()
        );
    }

    // The sharded-service cell: checkpoint_all / restore_all over every
    // shard plus the tenant table, at the middle benchmark size.
    {
        let tenants = 8usize;
        let tenant_n = (cfg.sizes[cfg.sizes.len() / 2] / tenants).max(16);
        let stream = tenant_stream(tenants, tenant_n, batches, batch_size, 400, 11);
        let specs: Vec<TenantSpec> = (0..tenants)
            .map(|t| TenantSpec::new(TenantId(t as u32), tenant_n))
            .collect();
        let build = || {
            let mut service = ShardedService::new(4, &specs);
            let base = stream.base_ops();
            service.execute(&base);
            let mut ops = base.len();
            for batch in &stream.batches {
                service.execute(batch);
                ops += batch.len();
            }
            (service, ops)
        };
        let start = Instant::now();
        let (service, ops) = build();
        let cold = start.elapsed();
        let mut blob = Vec::new();
        let start = Instant::now();
        service.checkpoint_all(&mut blob).unwrap();
        let ckpt = start.elapsed();
        let start = Instant::now();
        let restored = ShardedService::restore_all(&blob[..]).unwrap();
        let restore = start.elapsed();
        assert_eq!(
            restored.total_forest_weight(),
            service.total_forest_weight(),
            "restored service diverged"
        );
        let live: usize = (0..service.num_shards())
            .map(|s| service.shard_engine(s).graph().num_edges())
            .sum();
        records.push(PersistRecord {
            scenario: "service".into(),
            n: tenants * tenant_n,
            k: default_sequential_k(tenant_n),
            ops,
            live_edges: live,
            checkpoint_bytes: blob.len(),
            checkpoint_ns: ckpt.as_nanos(),
            restore_ns: restore.as_nanos(),
            cold_rebuild_ns: cold.as_nanos(),
        });
        let r = records.last().unwrap();
        println!(
            "{:>8} {:>8} {:>7} {:>7} {:>11} {:>10.1} {:>11.1} {:>10.1} {:>7.1}x",
            r.scenario,
            r.n,
            r.ops,
            r.live_edges,
            r.checkpoint_bytes,
            us(r.checkpoint_ns),
            us(r.restore_ns),
            us(r.cold_rebuild_ns),
            r.speedup()
        );
    }

    let json = persist_records_to_json(&RunMeta::collect(), &records);
    let path = "BENCH_persist.json";
    std::fs::write(path, json).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    println!("wrote {path} ({} records)", records.len());
}

/// E12: realistic workloads (grid failures/repairs, sliding windows) —
/// numbered E5 before the persistence benchmark took that slot.
fn e12_workloads(cfg: &Config) {
    println!("\n== E12: workload throughput (updates/s) ==");
    println!(
        "{:>24} {:>10} {:>14} {:>14}",
        "workload", "n", "kpr-seq", "naive"
    );
    let side = (cfg.sizes[cfg.sizes.len() / 2] as f64).sqrt() as usize;
    let scenarios = vec![
        ("grid failures/repairs", grid_stream(side, side, cfg.ops, 3)),
        (
            "random mixed",
            mixed_stream(side * side, 2 * side * side, cfg.ops, 4),
        ),
    ];
    for (name, stream) in scenarios {
        let n = stream.num_vertices;
        let mut seq = SeqDynamicMsf::new(n);
        let (t_seq, ops) = drive_updates_only(&mut seq, &stream);
        let mut naive = NaiveDynamicMsf::new(n);
        let (t_naive, ops_n) = drive_updates_only(&mut naive, &stream);
        let rate = |t: Duration, o: usize| {
            if t.is_zero() {
                0.0
            } else {
                o as f64 / t.as_secs_f64()
            }
        };
        println!(
            "{:>24} {:>10} {:>14.0} {:>14.0}",
            name,
            n,
            rate(t_seq, ops),
            rate(t_naive, ops_n)
        );
    }
}

/// E6: intra-batch update parallelism — a component-partitioned engine
/// applying its conflict-free update groups as concurrent pool jobs
/// (`grouped`) vs the same engine forced to arrival-order serial apply
/// (`serial`), over block-mixed streams whose blocks align with the
/// partition homes. Identical outcomes and forests (asserted every rep —
/// the benchmark doubles as a large-n differential test of the grouped
/// apply), so the ratio is pure intra-batch parallelism leverage. Emits
/// `BENCH_intra_batch.json`, each record stamped with **its own** pool
/// width: `PDMSF_POOL_THREADS` is read once per process, so the committed
/// artifact merges one run at width 4 with one at width 1 (where grouped
/// falls back to inline apply and must not regress).
///
/// The ROADMAP acceptance bar: grouped ≥ 1.2× serial (median ops/sec) at
/// pool width 4 on the largest cell, and no regression at width 1.
fn e6_intra_batch(quick: bool) {
    println!("\n== E6: intra-batch grouped apply (writes BENCH_intra_batch.json) ==");
    println!("paths: grouped (conflict coloring + concurrent group jobs on the pool)");
    println!("vs serial (same partitioned engine, arrival-order apply); identical");
    println!("outcomes, so the ratio is pure intra-batch parallelism leverage");
    let partitions = 8usize;
    let (sizes, batch_sizes, total_ops, reps): (&[usize], &[usize], usize, usize) = if quick {
        (&[1 << 12], &[256], 2_048, 1)
    } else {
        (&[1 << 12, 1 << 14, 1 << 16], &[256, 1_024], 8_192, 3)
    };
    let threads = pool::parallelism();
    let mut records: Vec<IntraBatchRecord> = Vec::new();
    println!(
        "{:>8} {:>7} {:>8} {:>9} {:>16} {:>16} {:>12}",
        "n", "batch", "threads", "groups", "grouped (op/s)", "serial (op/s)", "grouped/ser"
    );
    for &n in sizes {
        for &batch_size in batch_sizes {
            let batches = (total_ops / batch_size).max(1);
            // Blocks = partitions, so each block is its own update group
            // (modulo the ceil/floor boundary between the generator's
            // blocks and the structure's homes — those show as conflicts).
            // The base graph must be empty: a random-sparse base is one
            // giant cross-block component whose load would migrate nearly
            // every vertex into a single partition before the timed region
            // starts — the stream's own block-local links build the state.
            let stream = clustered_mix_batch_stream(n, 0, batches, batch_size, partitions, 83);
            let mut rates: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
            let mut groups_dispatched = 0u64;
            for _ in 0..reps {
                let mut run = |path: &str, engine: &Engine, t: Duration, ops: usize| -> f64 {
                    let stats = engine.stats();
                    records.push(IntraBatchRecord {
                        path: path.to_string(),
                        stream: "clustered".to_string(),
                        n,
                        partitions,
                        threads,
                        batch_size,
                        batches,
                        ops,
                        update_groups: stats.update_groups,
                        group_conflicts: stats.group_conflicts,
                        migrations: stats.migrations,
                        rebalances: stats.rebalances,
                        elapsed_ns: t.as_nanos(),
                    });
                    records.last().unwrap().ops_per_sec()
                };
                let k = default_sequential_k(n);
                let mut grouped = Engine::with_partitions(n, partitions, k);
                let (t_g, ops_g) = drive_engine_batched(&mut grouped, &stream);
                rates[0].push(run("grouped", &grouped, t_g, ops_g));
                groups_dispatched = grouped.stats().update_groups;

                let mut serial = Engine::with_partitions(n, partitions, k);
                serial.set_serial_apply(true);
                let (t_s, ops_s) = drive_engine_batched(&mut serial, &stream);
                rates[1].push(run("serial", &serial, t_s, ops_s));

                // The two paths must agree — this benchmark doubles as a
                // large-n differential test of the grouped apply.
                assert_eq!(grouped.forest_weight(), serial.forest_weight());
                assert_eq!(grouped.forest_edges(), serial.forest_edges());
                grouped.structure().validate();
            }
            let m_grouped = median(&mut rates[0]);
            let m_serial = median(&mut rates[1]);
            println!(
                "{:>8} {:>7} {:>8} {:>9} {:>16.0} {:>16.0} {:>11.2}x",
                n,
                batch_size,
                threads,
                groups_dispatched,
                m_grouped,
                m_serial,
                if m_serial > 0.0 {
                    m_grouped / m_serial
                } else {
                    0.0
                }
            );
        }
    }
    // --- migration-heavy cell: adaptive rebalancing vs static homes ---
    // A concentrate batch drags every block's component into one partition
    // (see `migration_churn_batch_stream`); the cut batch strands them
    // there; the rest of the stream is block-local churn. The adaptive arm
    // (default engine) re-homes components right after the pile-up and
    // runs the churn as ~one group per block on small per-partition
    // structures; the static arm (floor `u64::MAX`) stays collapsed
    // forever — a single serial group against one partition holding every
    // live edge. Same stream, bit-identical forests — the ratio is pure
    // rebalancing leverage. The cycle spans the whole stream (one pile-up):
    // re-homing costs edge mass, so what rebalancing buys is the churn
    // span that follows, and this cell measures exactly that trade.
    println!("migration stream: adaptive (default rebalancing) vs static (rebalance off)");
    let (mig_n, mig_batches, mig_batch_size) = if quick {
        (1 << 14, 18, 512)
    } else {
        (1 << 16, 48, 1024)
    };
    let mig_stream = migration_churn_batch_stream(
        mig_n,
        mig_batches,
        mig_batch_size,
        partitions,
        mig_batches,
        97,
    );
    let mig_ops: usize = mig_stream.batches.iter().map(|b| b.len()).sum();
    let mut mig_rates: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut mig_rebalances = 0u64;
    let mut mig_migrations = 0u64;
    for _ in 0..reps {
        let mut run = |path: &str, engine: &Engine, t: Duration, ops: usize| -> f64 {
            let stats = engine.stats();
            records.push(IntraBatchRecord {
                path: path.to_string(),
                stream: "migration".to_string(),
                n: mig_n,
                partitions,
                threads,
                batch_size: mig_batch_size,
                batches: mig_stream.batches.len(),
                ops,
                update_groups: stats.update_groups,
                group_conflicts: stats.group_conflicts,
                migrations: stats.migrations,
                rebalances: stats.rebalances,
                elapsed_ns: t.as_nanos(),
            });
            records.last().unwrap().ops_per_sec()
        };
        let mig_k = default_sequential_k(mig_n);
        let mut adaptive = Engine::with_partitions(mig_n, partitions, mig_k);
        let (t_a, ops_a) = drive_engine_batched(&mut adaptive, &mig_stream);
        mig_rates[0].push(run("adaptive", &adaptive, t_a, ops_a));
        mig_rebalances = adaptive.stats().rebalances;
        mig_migrations = adaptive.stats().migrations;

        let mut static_e = Engine::with_partitions(mig_n, partitions, mig_k);
        static_e.set_rebalance_min(u64::MAX);
        let (t_s, ops_s) = drive_engine_batched(&mut static_e, &mig_stream);
        mig_rates[1].push(run("static", &static_e, t_s, ops_s));

        // Rebalancing must be observable *and* invisible: the adaptive arm
        // has to re-home components, and both arms' forests must agree.
        assert!(adaptive.stats().rebalances > 0);
        assert_eq!(static_e.stats().rebalances, 0);
        assert_eq!(adaptive.forest_weight(), static_e.forest_weight());
        assert_eq!(adaptive.forest_edges(), static_e.forest_edges());
        adaptive.structure().validate();
        static_e.structure().validate();
    }
    let m_adaptive = median(&mut mig_rates[0]);
    let m_static = median(&mut mig_rates[1]);
    println!(
        "{:>8} {:>7} {:>8} {:>9} {:>16.0} {:>16.0} {:>11.2}x  ({} ops, {} rebalances, {} migrations)",
        mig_n,
        mig_batch_size,
        threads,
        "-",
        m_adaptive,
        m_static,
        if m_static > 0.0 {
            m_adaptive / m_static
        } else {
            0.0
        },
        mig_ops,
        mig_rebalances,
        mig_migrations
    );
    let meta = RunMeta::collect();
    let json = intra_batch_records_to_json(&meta, &records);
    let path = "BENCH_intra_batch.json";
    std::fs::write(path, json).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    println!(
        "wrote {path} ({} records, git {}, {} pool thread(s))",
        records.len(),
        meta.git_sha,
        threads
    );
}

/// E13: update time vs density with and without sparsification — numbered
/// E6 before the intra-batch parallelism benchmark took that slot.
fn e13_sparsification(cfg: &Config) {
    println!("\n== E13: density sweep (fixed n, growing m) ==");
    let n = cfg.sizes[0].max(256);
    println!(
        "{:>8} {:>8} {:>18} {:>18} {:>14}",
        "n", "m/n", "sparsified (µs)", "naive scan (µs)", "levels"
    );
    for density in [2usize, 4, 8, 16, 32] {
        let m = density * n;
        let ops = cfg.ops.min(400);
        let stream = mixed_stream(n, m, ops, 31);
        let mut sparse = SparsifiedMsf::new_with_capacity(n, 2 * m, SeqDynamicMsf::new);
        let levels = sparse.num_levels();
        let (t_sparse, o1) = drive_updates_only(&mut sparse, &stream);
        let mut naive = NaiveDynamicMsf::new(n);
        let (t_naive, o2) = drive_updates_only(&mut naive, &stream);
        println!(
            "{:>8} {:>8} {:>18.2} {:>18.2} {:>14}",
            n,
            density,
            micros(t_sparse, o1),
            micros(t_naive, o2),
            levels
        );
    }
}

/// E7: the EREW kernels — correctness of the phased tournament under the
/// access checker plus wall-clock of the model kernels.
fn e7_kernels() {
    println!("\n== E7: EREW kernel check (phased tournament of Lemma 3.1) ==");
    println!(
        "{:>10} {:>12} {:>12} {:>14} {:>12}",
        "elements", "depth", "work", "accesses", "EREW clean"
    );
    for size in [1usize << 8, 1 << 10, 1 << 12, 1 << 14] {
        let xs: Vec<u64> = (0..size as u64)
            .map(|i| (i * 2654435761) % 1_000_003)
            .collect();
        let mut meter = CostMeter::new();
        let mut log = AccessLog::new();
        let winner = erew_tournament_min(&xs, &mut meter, Some(&mut log)).unwrap();
        let mut check_meter = CostMeter::new();
        assert_eq!(Some(winner), par_min_index(&xs, &mut check_meter));
        println!(
            "{:>10} {:>12} {:>12} {:>14} {:>12}",
            size,
            meter.total().depth,
            meter.total().work,
            log.num_accesses(),
            log.is_exclusive()
        );
    }
}

/// E8: chunk-parameter ablation around the paper's K = sqrt(n log n).
fn e8_chunk_size(cfg: &Config) {
    println!("\n== E8: chunk-size ablation (sequential structure) ==");
    let n = cfg.sizes[cfg.sizes.len() / 2];
    let k_star = default_sequential_k(n);
    println!("n = {n}, paper K* = {k_star}");
    println!("{:>10} {:>12} {:>18}", "K/K*", "K", "mean update (µs)");
    for factor in [0.25, 0.5, 1.0, 2.0, 4.0] {
        let k = ((k_star as f64 * factor) as usize).max(2);
        let t = seq_mean_update_time(n, k, cfg.ops.min(600), 41);
        println!("{:>10.2} {:>12} {:>18.2}", factor, k, t.as_secs_f64() * 1e6);
    }
}

/// E9: MWR-heavy streams (delete-only) — per-delete cost vs n.
fn e9_mwr_cost(cfg: &Config) {
    println!("\n== E9: deletion-only (MWR-heavy) streams ==");
    println!(
        "{:>8} {:>16} {:>16} {:>16}",
        "n", "kpr-seq (µs)", "naive (µs)", "par depth (worst)"
    );
    for &n in &cfg.sizes {
        let stream = failure_stream(n, 2 * n, 51);
        let mut seq = SeqDynamicMsf::new(n);
        let (t_seq, o1) = drive_updates_only(&mut seq, &stream);
        let small = failure_stream(n.min(1 << 12), 2 * n.min(1 << 12), 51);
        let mut naive = NaiveDynamicMsf::new(small.num_vertices);
        let (t_naive, o2) = drive_updates_only(&mut naive, &small);
        let mut par = ParDynamicMsf::new(n);
        drive(&mut par, &stream);
        println!(
            "{:>8} {:>16.2} {:>16.2} {:>16}",
            n,
            micros(t_seq, o1),
            micros(t_naive, o2),
            par.meter().worst_op().depth
        );
    }
}
