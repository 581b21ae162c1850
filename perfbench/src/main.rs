//! The repository benchmark: runs one named workload against the pdmsf
//! stack through its public APIs, checks the outputs, and prints every
//! metric with its unit.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <serve|update> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the workload runs untraced and the last stdout line
//! carries the end-to-end metrics. With `--trace 1` it runs twice with the
//! same seed, untraced and then traced by the benchmark's own spans, and the
//! last line carries the per-layer metrics. The line before it stamps the
//! run (commit, cores, pool width, kernel cutoff, engine settings, seed).
//! `perfbench/README.md` defines every metric.

mod layers;
mod serve;
mod stats;
mod trace;
mod update;
mod wal;

use std::collections::BTreeMap;
use std::process::ExitCode;

/// End-to-end metrics (name, unit), reported on every workload.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p99_ms", "ms"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics (name, unit), reported on every workload by the traced
/// run; a layer a workload does not run through reads 0.
pub const PER_LAYER: [(&str, &str); 31] = [
    ("shard.drain_ops_s", "1/s"),
    ("shard.execute_p50_ms", "ms"),
    ("shard.execute_p99_ms", "ms"),
    ("shard.busy_share", "share"),
    ("shard.queue_wait_p99_ms", "ms"),
    ("shard.self_share", "share"),
    ("engine.plan_us", "us"),
    ("engine.apply_us", "us"),
    ("engine.snapshot_us", "us"),
    ("engine.applied_per_op", "ratio"),
    ("engine.cancelled_pairs_per_batch", "count"),
    ("engine.unique_query_share", "share"),
    ("engine.snapshots_per_batch", "count"),
    ("engine.self_share", "share"),
    ("core.k", "count"),
    ("core.depth_max_over_log2n", "ratio"),
    ("core.work_mean_over_sqrtn_log2n", "ratio"),
    ("persist.record_p50_us", "us"),
    ("persist.record_p99_us", "us"),
    ("persist.fsync_p50_ms", "ms"),
    ("persist.fsync_p99_ms", "ms"),
    ("persist.fsyncs_per_batch", "count"),
    ("persist.bytes_per_op", "B"),
    ("persist.self_share", "share"),
    ("pram.jobs_per_op", "count"),
    ("pram.inline_runs_per_op", "count"),
    ("pram.wakes_per_batch", "count"),
    ("pram.steals_per_batch", "count"),
    ("obs.trace_overhead_share", "share"),
    ("harness.gen_lag_p99_ms", "ms"),
    ("harness.self_share", "share"),
];

/// How one pass of a workload runs.
#[derive(Clone, Copy, Debug)]
pub struct Pass {
    pub seed: u64,
    pub seconds: u64,
    /// Record the benchmark's spans and the per-layer metrics.
    pub traced: bool,
}

/// What one pass of a workload measured and checked.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Correctness or durability checks that did not hold.
    pub problems: Vec<String>,
    /// The workload's throughput (ops/s), compared across the two passes of
    /// a traced run.
    pub throughput: f64,
    pub end_to_end: BTreeMap<&'static str, f64>,
    pub per_layer: BTreeMap<&'static str, f64>,
    /// Run stamps, each value already JSON-encoded.
    pub stamps: Vec<(&'static str, String)>,
    pub spans: Vec<trace::SpanRec>,
}

const USAGE: &str =
    "usage: perfbench --workload <serve|update> --seed <n> --seconds <1..=60> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        flags.insert(flag.as_str(), value.as_str());
    }
    let get = |flag: &str| flags.get(flag).copied().ok_or(format!("missing {flag}"));
    let workload = get("--workload")?.to_string();
    if !["serve", "update"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: u64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(1..=60).contains(&seconds) {
        return Err("--seconds must be in 1..=60".to_string());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    if flags.len() != 4 {
        return Err("unexpected arguments".to_string());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn run_pass(workload: &str, pass: Pass) -> Report {
    match workload {
        "serve" => serve::run(pass),
        _ => update::run(pass),
    }
}

/// `git rev-parse HEAD` when the working directory is a git checkout.
fn git_sha() -> String {
    if !std::path::Path::new(".git").exists() {
        return "unknown".to_string();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// A JSON number; non-finite values (never expected) become 0.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn metrics_json(catalog: &[(&str, &str)], values: &BTreeMap<&'static str, f64>) -> String {
    let fields: Vec<String> = catalog
        .iter()
        .map(|&(name, unit)| {
            let value = values.get(name).copied().unwrap_or(0.0);
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(value)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let pass = Pass {
        seed: args.seed,
        seconds: args.seconds,
        traced: false,
    };
    let (report, metrics) = if args.trace {
        let plain = run_pass(&args.workload, pass);
        let mut traced = run_pass(
            &args.workload,
            Pass {
                traced: true,
                ..pass
            },
        );
        traced.per_layer.insert(
            "obs.trace_overhead_share",
            1.0 - stats::ratio(traced.throughput, plain.throughput),
        );
        let path = std::path::PathBuf::from("perfbench-out")
            .join(format!("spans-{}-seed{}.csv", args.workload, args.seed));
        if let Err(e) = trace::write_csv(&path, &traced.spans) {
            eprintln!("perfbench: could not write {}: {e}", path.display());
        }
        // Both passes count toward the run's attempted/failed totals.
        traced.attempted += plain.attempted;
        traced.failed += plain.failed;
        traced.problems.extend(plain.problems);
        let metrics = metrics_json(&PER_LAYER, &traced.per_layer);
        (traced, metrics)
    } else {
        let report = run_pass(&args.workload, pass);
        let metrics = metrics_json(&END_TO_END, &report.end_to_end);
        (report, metrics)
    };
    let (attempted, failed, problems) = (report.attempted, report.failed, &report.problems);
    for p in problems {
        eprintln!("perfbench: check failed: {p}");
    }
    let mut stamps = vec![
        ("git_sha", format!("\"{}\"", git_sha())),
        (
            "cores",
            std::thread::available_parallelism()
                .map_or(1, |n| n.get())
                .to_string(),
        ),
        ("pool_width", pdmsf_pram::pool::parallelism().to_string()),
        ("par_cutoff", pdmsf_pram::kernels::PAR_CUTOFF.to_string()),
        ("workload", format!("\"{}\"", args.workload)),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        (
            "failed_share",
            num(stats::ratio(failed as f64, attempted as f64)),
        ),
    ];
    stamps.extend(report.stamps.iter().cloned());
    let stamps: Vec<String> = stamps
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    println!("{{\"meta\": {{{}}}}}", stamps.join(", "));
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        problems.is_empty(),
        attempted.max(1),
        failed,
        metrics
    );
    ExitCode::SUCCESS
}
