//! Shared harness code for the `experiments` binary.
//!
//! The paper has no experimental section, so the `experiments` binary in
//! this crate defines the evaluation: `paper` checks the paper's cost
//! bounds ([`paper`]), and E0, E1 and E5 measure this system (update
//! throughput, batching, persistence), each timing only the cells its own
//! bar reads. This crate provides the common machinery: stream
//! construction (mixed update streams, bursty batched update/query streams
//! and tenant-tagged multi-tenant streams), structure and batch-engine
//! drivers, wall-clock and cost-meter measurement, and the
//! machine-readable record types behind the `BENCH_*.json` files.

pub mod paper;

use pdmsf_core::seq::default_parallel_k;
use pdmsf_core::SeqDynamicMsf;
use pdmsf_engine::{Engine, Op};
use pdmsf_graph::{
    kruskal_msf, BatchKind, BatchStream, BatchStreamSpec, DynGraph, DynamicMsf, GraphSpec,
    StreamKind, TenantStream, TenantStreamSpec, UpdateOp, UpdateStream, UpdateStreamSpec,
};
use pdmsf_pram::CostReport;
use std::path::Path;
use std::process::Command;
use std::time::{Duration, Instant};

/// Standard mixed insert/delete stream over a random sparse graph.
pub fn mixed_stream(n: usize, m: usize, ops: usize, seed: u64) -> UpdateStream {
    UpdateStream::generate(&UpdateStreamSpec {
        base: GraphSpec::RandomSparse { n, m, seed },
        ops,
        kind: StreamKind::Mixed {
            insert_permille: 500,
        },
        seed: seed ^ 0x5EED,
    })
}

/// Bursty batched update/query stream: per-batch hotspots, flapping links
/// (opposing insert/delete pairs within a batch) and a query-heavy mix with
/// natural duplicates — the E1 serving workload.
pub fn bursty_batch_stream(
    n: usize,
    m: usize,
    batches: usize,
    batch_size: usize,
    seed: u64,
) -> BatchStream {
    BatchStream::generate(&BatchStreamSpec {
        base: GraphSpec::RandomSparse { n, m, seed },
        batches,
        batch_size,
        kind: BatchKind::Bursty {
            query_permille: 550,
            flap_permille: 350,
        },
        seed: seed ^ 0xB457,
    })
}

/// Multi-tenant tenant-tagged stream with Zipf-skewed tenant popularity and
/// bursty per-tenant traffic (flap pairs, duplicate queries) — the serving
/// workload of perfbench `serve`.
/// `zipf_permille = 0` gives uniform popularity.
pub fn tenant_stream(
    tenants: usize,
    tenant_vertices: usize,
    batches: usize,
    batch_size: usize,
    zipf_permille: u32,
    seed: u64,
) -> TenantStream {
    TenantStream::generate(&TenantStreamSpec {
        tenants,
        tenant_vertices,
        tenant_edges: 2 * tenant_vertices,
        batches,
        batch_size,
        burst: (batch_size / 8).max(1),
        zipf_permille,
        kind: BatchKind::Bursty {
            query_permille: 550,
            flap_permille: 350,
        },
        seed: seed ^ 0x5AA2_D001,
    })
}

/// Feed a batch stream's base graph into an engine (untimed), then drive
/// every batch through [`Engine::execute`] (timed). Returns (batch wall
/// clock, operations processed).
pub fn drive_engine_batched(engine: &mut Engine, stream: &BatchStream) -> (Duration, usize) {
    drive_engine(engine, stream, |engine, ops| {
        engine.execute(ops);
    })
}

/// Same stream, but every op runs as its own single-op batch through
/// [`Engine::execute`] — no cancellation and no dedup: the baseline the
/// batched path is measured against.
pub fn drive_engine_one_by_one(engine: &mut Engine, stream: &BatchStream) -> (Duration, usize) {
    drive_engine(engine, stream, |engine, ops| {
        for op in ops {
            engine.execute(std::slice::from_ref(op));
        }
    })
}

fn drive_engine(
    engine: &mut Engine,
    stream: &BatchStream,
    step: impl Fn(&mut Engine, &[Op]),
) -> (Duration, usize) {
    step(engine, &stream.base_ops());
    let mut elapsed = Duration::ZERO;
    let mut ops = 0usize;
    for batch in &stream.batches {
        let start = Instant::now();
        step(engine, batch);
        elapsed += start.elapsed();
        ops += batch.len();
    }
    (elapsed, ops)
}

/// Drive the update portion of a stream (the base graph is loaded first,
/// outside the timed region), calling `after` with the structure and the
/// wall clock of each update right after it. Returns the final graph.
pub fn drive_updates_each<M: DynamicMsf>(
    structure: &mut M,
    stream: &UpdateStream,
    mut after: impl FnMut(&M, Duration),
) -> DynGraph {
    stream.replay_with(|mirror, op| match op {
        None => {
            for e in mirror.edges() {
                structure.insert(e);
            }
        }
        Some(&UpdateOp::Insert(e)) => {
            let start = Instant::now();
            structure.insert(e);
            after(structure, start.elapsed());
        }
        Some(UpdateOp::Delete { id }) => {
            let start = Instant::now();
            structure.delete(*id);
            after(structure, start.elapsed());
        }
    })
}

/// Median wall clock, in nanoseconds, of `runs` Kruskal computations over
/// `graph`: E0's machine-speed calibration.
pub fn kruskal_ns(graph: &DynGraph, runs: usize) -> f64 {
    let mut times: Vec<f64> = (0..runs.max(1))
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(kruskal_msf(graph));
            start.elapsed().as_nanos() as f64
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).expect("times are finite"));
    times[times.len() / 2]
}

/// Per-update costs of one stream, read from the meter after each update;
/// the base-graph build is not counted.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostProfile {
    /// Number of vertices.
    pub n: usize,
    /// Chunk parameter used.
    pub k: usize,
    /// Number of updates profiled.
    pub updates: u64,
    /// Field-wise maxima over the updates (the deepest and the most
    /// expensive update need not be the same one).
    pub worst: CostReport,
    /// Mean depth per update.
    pub mean_depth: f64,
    /// Mean work per update.
    pub mean_work: f64,
    /// Peak processors of any update.
    pub peak_processors: u64,
}

/// Drive `structure` through the updates of `stream` and summarize their
/// metered costs.
pub(crate) fn cost_profile(mut structure: SeqDynamicMsf, stream: &UpdateStream) -> CostProfile {
    let (mut worst, mut total) = (CostReport::default(), CostReport::default());
    let mut updates = 0u64;
    drive_updates_each(&mut structure, stream, |s, _| {
        let c = s.last_op_cost();
        worst = CostReport {
            depth: worst.depth.max(c.depth),
            work: worst.work.max(c.work),
            peak_processors: worst.peak_processors.max(c.peak_processors),
        };
        total = total.then(c);
        updates += 1;
    });
    let mean = |x: u64| x as f64 / updates.max(1) as f64;
    CostProfile {
        n: stream.num_vertices,
        k: structure.chunk_parameter(),
        updates,
        worst,
        mean_depth: mean(total.depth),
        mean_work: mean(total.work),
        peak_processors: worst.peak_processors,
    }
}

/// The structure of Theorem 3.1: the paper's `K = sqrt n`.
pub(crate) fn erew_msf(n: usize) -> SeqDynamicMsf {
    SeqDynamicMsf::with_chunk_parameter(n, default_parallel_k(n))
}

/// The per-update PRAM cost profile of the structure of Theorem 3.1 over a
/// standard mixed stream.
pub fn pram_profile(n: usize, ops: usize, seed: u64) -> CostProfile {
    cost_profile(erew_msf(n), &mixed_stream(n, 2 * n, ops, seed))
}

// ---------------------------------------------------------------------
// Machine-readable benchmark records (BENCH_update_time.json)
// ---------------------------------------------------------------------

/// One measured (structure, stream, n) cell of the update-time benchmark.
#[derive(Clone, Debug)]
pub struct BenchRecord {
    /// Structure label (`"arena-seq"`).
    pub structure: String,
    /// Stream label (`"insert"`, `"delete"`, `"mixed"`).
    pub stream: String,
    /// Number of vertices.
    pub n: usize,
    /// Chunk parameter `K` the structure ran with.
    pub k: usize,
    /// Number of timed update operations.
    pub ops: usize,
    /// Wall-clock nanoseconds spent inside the timed updates.
    pub elapsed_ns: u128,
}

impl BenchRecord {
    /// Updates per second.
    pub fn ops_per_sec(&self) -> f64 {
        per_sec(self.ops, self.elapsed_ns)
    }
}

/// Run-level metadata stamped into the benchmark JSON so perf trajectories
/// stay attributable: which commit produced the numbers, how many cores the
/// machine offered and how wide the worker pool was.
#[derive(Clone, Debug)]
pub struct RunMeta {
    /// `git rev-parse HEAD` of the checkout the binary was built from
    /// (`"unknown"` outside git), with a `-dirty` suffix when uncommitted
    /// changes were present, whatever the working directory.
    pub git_sha: String,
    /// Cores available to the process (`available_parallelism`), stamped
    /// next to `threads` because `PDMSF_POOL_THREADS` can make the pool
    /// wider than the machine.
    pub cores: usize,
    /// Worker-pool width (workers + the calling thread).
    pub threads: usize,
}

impl RunMeta {
    /// Collect the metadata of the current process / checkout.
    pub fn collect() -> RunMeta {
        RunMeta {
            git_sha: git_sha_at(Path::new(env!("CARGO_MANIFEST_DIR"))),
            cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            threads: pdmsf_pram::pool::parallelism(),
        }
    }

    /// The `"meta"` object of a `BENCH_*.json` file.
    pub fn to_json(&self) -> String {
        self.to_json_with("")
    }

    /// [`RunMeta::to_json`] with `extra` (preformatted `, "key": value`
    /// pairs) appended inside the object.
    pub fn to_json_with(&self, extra: &str) -> String {
        format!(
            "{{\"git_sha\": \"{}\", \"cores\": {}, \"threads\": {}{extra}}}",
            self.git_sha, self.cores, self.threads
        )
    }
}

/// `git rev-parse HEAD` of the checkout holding `dir`, with `-dirty` when
/// `git status` lists changes; `"unknown"` when `dir` is in no checkout or
/// `git` is not installed.
fn git_sha_at(dir: &Path) -> String {
    let git = |args: &[&str]| {
        let out = Command::new("git").arg("-C").arg(dir).args(args).output();
        (out.ok().filter(|o| o.status.success()))
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    match git(&["rev-parse", "HEAD"]).filter(|sha| !sha.is_empty()) {
        None => "unknown".to_string(),
        Some(sha) if git(&["status", "--porcelain"]).is_some_and(|s| !s.is_empty()) => {
            format!("{sha}-dirty")
        }
        Some(sha) => sha,
    }
}

/// `ops` per second over `elapsed_ns` (0 when nothing was timed).
fn per_sec(ops: usize, elapsed_ns: u128) -> f64 {
    if elapsed_ns == 0 {
        0.0
    } else {
        ops as f64 * 1e9 / elapsed_ns as f64
    }
}

/// A `BENCH_*.json` document: benchmark name, unit, the `meta` object and
/// one preformatted JSON object per result (hand-rolled: every value is a
/// number or a label that never needs escaping, and the offline build has
/// no serde).
fn results_json(
    benchmark: &str,
    unit: &str,
    meta: &str,
    results: impl Iterator<Item = String>,
) -> String {
    let mut rows: String = results
        .map(|r| format!("    {r}"))
        .collect::<Vec<_>>()
        .join(",\n");
    if !rows.is_empty() {
        rows.push('\n');
    }
    format!(
        "{{\n  \"benchmark\": \"{benchmark}\",\n  \"unit\": \"{unit}\",\n  \"meta\": {meta},\n  \"results\": [\n{rows}  ]\n}}\n"
    )
}

/// Serialize update-time records as JSON, with `calibration_ns` stamped as
/// `meta.calibration_ns`.
pub fn bench_records_to_json(
    benchmark: &str,
    meta: &RunMeta,
    calibration_ns: f64,
    records: &[BenchRecord],
) -> String {
    let calibration = format!(", \"calibration_ns\": {calibration_ns:.0}");
    let rows = records.iter().map(|r| {
        format!(
                    "{{\"structure\": \"{}\", \"stream\": \"{}\", \"n\": {}, \"k\": {}, \"ops\": {}, \"elapsed_ns\": {}, \"ops_per_sec\": {:.2}}}",
            r.structure,
            r.stream,
            r.n,
            r.k,
            r.ops,
            r.elapsed_ns,
            r.ops_per_sec(),
        )
    });
    results_json(
        benchmark,
        "ops_per_sec",
        &meta.to_json_with(&calibration),
        rows,
    )
}

// ---------------------------------------------------------------------
// Batch-throughput records (BENCH_batch_throughput.json)
// ---------------------------------------------------------------------

/// One measured (path, stream, n, batch size) cell of the E1 batch
/// throughput benchmark.
#[derive(Clone, Debug)]
pub struct BatchRecord {
    /// Engine path (`"batched"` / `"one-by-one"`).
    pub path: String,
    /// Stream label (`"bursty"` / `"clustered"`).
    pub stream: String,
    /// Number of vertices.
    pub n: usize,
    /// Chunk parameter `K` the backing structure ran with.
    pub k: usize,
    /// Operations per batch.
    pub batch_size: usize,
    /// Number of timed batches.
    pub batches: usize,
    /// Total timed operations (updates + queries).
    pub ops: usize,
    /// Wall-clock nanoseconds spent inside the timed batches.
    pub elapsed_ns: u128,
}

impl BatchRecord {
    /// Operations per second.
    pub fn ops_per_sec(&self) -> f64 {
        per_sec(self.ops, self.elapsed_ns)
    }
}

/// Serialize batch-throughput records as JSON, stamped with the same run
/// metadata as `BENCH_update_time.json` (hand-rolled for the same reason as
/// [`bench_records_to_json`]).
pub fn batch_records_to_json(meta: &RunMeta, records: &[BatchRecord]) -> String {
    let rows = records.iter().map(|r| {
        format!(
                    "{{\"path\": \"{}\", \"stream\": \"{}\", \"n\": {}, \"k\": {}, \"batch_size\": {}, \"batches\": {}, \"ops\": {}, \"elapsed_ns\": {}, \"ops_per_sec\": {:.2}}}",
            r.path,
            r.stream,
            r.n,
            r.k,
            r.batch_size,
            r.batches,
            r.ops,
            r.elapsed_ns,
            r.ops_per_sec(),
        )
    });
    results_json("batch_throughput", "ops_per_sec", &meta.to_json(), rows)
}

// ---------------------------------------------------------------------
// Persistence warm-start records (BENCH_persist.json)
// ---------------------------------------------------------------------

/// One measured (n, batch size) cell of the E5 persistence benchmark:
/// checkpoint size and wall time, restore (warm-start) wall time, and the
/// cold-rebuild wall time it competes with — replaying the full op stream
/// through the engine from scratch.
#[derive(Clone, Debug)]
pub struct PersistRecord {
    /// Scenario label (`"engine"` / `"service"`).
    pub scenario: String,
    /// Number of vertices.
    pub n: usize,
    /// Chunk parameter `K` the backing structure ran with.
    pub k: usize,
    /// Total update operations executed before the checkpoint.
    pub ops: usize,
    /// Live edges at checkpoint time.
    pub live_edges: usize,
    /// Checkpoint size in bytes.
    pub checkpoint_bytes: usize,
    /// Wall-clock nanoseconds to write the checkpoint.
    pub checkpoint_ns: u128,
    /// Wall-clock nanoseconds to restore from the checkpoint.
    pub restore_ns: u128,
    /// Wall-clock nanoseconds to rebuild the same state cold (full op
    /// replay through the normal execution path).
    pub cold_rebuild_ns: u128,
}

impl PersistRecord {
    /// Cold-rebuild time over restore time (higher = warm start wins more).
    pub fn speedup(&self) -> f64 {
        if self.restore_ns == 0 {
            0.0
        } else {
            self.cold_rebuild_ns as f64 / self.restore_ns as f64
        }
    }

    /// Checkpoint bytes per live edge (the size E5 bounds).
    pub fn bytes_per_live_edge(&self) -> f64 {
        self.checkpoint_bytes as f64 / self.live_edges.max(1) as f64
    }
}

/// Serialize persistence warm-start records as JSON, stamped with the same
/// run metadata as the other benchmark artifacts (hand-rolled for the same
/// reason as [`bench_records_to_json`]).
pub fn persist_records_to_json(meta: &RunMeta, records: &[PersistRecord]) -> String {
    let rows = records.iter().map(|r| {
        format!(
                    "{{\"scenario\": \"{}\", \"n\": {}, \"k\": {}, \"ops\": {}, \"live_edges\": {}, \"checkpoint_bytes\": {}, \"bytes_per_live_edge\": {:.2}, \"checkpoint_ns\": {}, \"restore_ns\": {}, \"cold_rebuild_ns\": {}, \"restore_speedup\": {:.2}}}",
            r.scenario,
            r.n,
            r.k,
            r.ops,
            r.live_edges,
            r.checkpoint_bytes,
            r.bytes_per_live_edge(),
            r.checkpoint_ns,
            r.restore_ns,
            r.cold_rebuild_ns,
            r.speedup(),
        )
    });
    results_json("persist_warm_start", "ns", &meta.to_json(), rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdmsf_baselines::NaiveDynamicMsf;
    use pdmsf_graph::assert_matches_kruskal;

    fn test_meta() -> RunMeta {
        RunMeta {
            git_sha: "deadbeef".into(),
            cores: 2,
            threads: 4,
        }
    }

    #[test]
    fn bench_json_is_well_formed() {
        let records = vec![
            BenchRecord {
                structure: "arena-seq".into(),
                stream: "mixed".into(),
                n: 1000,
                k: 100,
                ops: 500,
                elapsed_ns: 2_000_000,
            },
            BenchRecord {
                structure: "arena-seq".into(),
                stream: "insert".into(),
                n: 1000,
                k: 100,
                ops: 500,
                elapsed_ns: 4_000_000,
            },
        ];
        let meta = test_meta();
        let json = bench_records_to_json("update_time", &meta, 2_500_000.0, &records);
        assert!(json.contains("\"benchmark\": \"update_time\""));
        assert!(json.contains("\"threads\": 4, \"calibration_ns\": 2500000}"));
        assert!(json.contains("\"structure\": \"arena-seq\""));
        assert!(json.contains("\"ops_per_sec\": 250000.00"));
        assert!(json.contains("\"git_sha\": \"deadbeef\""));
        assert!(json.contains("\"cores\": 2, \"threads\": 4"));
        assert!(json.contains("\"k\": 100"));
        // Exactly one separating comma between the two records (meta is an
        // inline object, not a record).
        assert_eq!(json.matches("},\n").count(), 2);
        assert_eq!(records[0].ops_per_sec(), 250_000.0);
    }

    #[test]
    fn batch_json_is_well_formed() {
        let records = vec![
            BatchRecord {
                path: "batched".into(),
                stream: "bursty".into(),
                n: 1000,
                k: 32,
                batch_size: 256,
                batches: 8,
                ops: 2048,
                elapsed_ns: 1_024_000,
            },
            BatchRecord {
                path: "one-by-one".into(),
                stream: "bursty".into(),
                n: 1000,
                k: 32,
                batch_size: 256,
                batches: 8,
                ops: 2048,
                elapsed_ns: 2_048_000,
            },
        ];
        let meta = test_meta();
        let json = batch_records_to_json(&meta, &records);
        assert!(json.contains("\"benchmark\": \"batch_throughput\""));
        assert!(json.contains("\"path\": \"batched\""));
        assert!(json.contains("\"path\": \"one-by-one\""));
        assert!(json.contains("\"batch_size\": 256"));
        assert!(json.contains("\"ops_per_sec\": 2000000.00"));
        assert!(json.contains("\"git_sha\": \"deadbeef\""));
        assert_eq!(json.matches("},\n").count(), 2);
        assert_eq!(records[0].ops_per_sec(), 2_000_000.0);
    }

    #[test]
    fn engine_drivers_agree_on_the_final_forest() {
        let stream = bursty_batch_stream(64, 128, 6, 24, 3);
        let mut batched = Engine::new(64);
        let mut serial = Engine::new(64);
        let (_, ops_a) = drive_engine_batched(&mut batched, &stream);
        let (_, ops_b) = drive_engine_one_by_one(&mut serial, &stream);
        assert_eq!(ops_a, stream.total_ops());
        assert_eq!(ops_a, ops_b);
        assert_eq!(batched.forest_edges(), serial.forest_edges());
        assert_eq!(batched.forest_weight(), serial.forest_weight());
        // The bursty stream actually exercised the batch leverage.
        assert!(batched.stats().cancelled_pairs > 0);
    }

    /// Every `BENCH_*.json` writer stamps the core count next to the pool
    /// width (E0 appends its calibration).
    #[test]
    fn every_writer_stamps_cores_next_to_threads() {
        let meta = test_meta();
        let both = "\"meta\": {\"git_sha\": \"deadbeef\", \"cores\": 2, \"threads\": 4";
        for json in [
            bench_records_to_json("update_time", &meta, 0.0, &[]),
            paper::paper_json(&meta, &[], &[], &[]),
            batch_records_to_json(&meta, &[]),
            persist_records_to_json(&meta, &[]),
        ] {
            assert!(
                json.contains(both),
                "meta line missing cores/threads: {json}"
            );
        }
    }

    /// The stamp reads the checkout it is pointed at, not the working
    /// directory: a fresh directory outside any checkout reads `"unknown"`,
    /// and this crate's directory a full commit id, when `git` is installed
    /// and the sources are a checkout.
    #[test]
    fn git_sha_reads_the_checkout_it_is_given() {
        let outside = std::env::temp_dir().join(format!("pdmsf-git-sha-{}", std::process::id()));
        std::fs::create_dir_all(&outside).unwrap();
        let sha = git_sha_at(&outside);
        std::fs::remove_dir(&outside).unwrap();
        assert_eq!(sha, "unknown");

        let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
        let in_checkout = Command::new("git")
            .arg("-C")
            .arg(manifest)
            .args(["rev-parse", "--is-inside-work-tree"])
            .output()
            .is_ok_and(|o| o.status.success());
        if !in_checkout {
            return;
        }
        let sha = git_sha_at(manifest);
        let hex = sha.strip_suffix("-dirty").unwrap_or(&sha);
        assert!(
            hex.len() == 40 && hex.bytes().all(|b| b.is_ascii_hexdigit()),
            "{sha}"
        );
    }

    #[test]
    fn run_meta_collects_plausible_values() {
        let meta = RunMeta::collect();
        assert!(meta.cores >= 1);
        assert!(meta.threads >= 1);
        assert!(!meta.git_sha.is_empty());
    }

    #[test]
    fn drivers_produce_consistent_forests() {
        let stream = mixed_stream(24, 48, 100, 5);
        let mut a = SeqDynamicMsf::new(24);
        let mut b = NaiveDynamicMsf::new(24);
        let mut updates = 0;
        let graph = drive_updates_each(&mut a, &stream, |_, _| updates += 1);
        drive_updates_each(&mut b, &stream, |_, _| ());
        assert_eq!(updates, stream.ops.len());
        assert_eq!(a.forest_edges(), b.forest_edges());
        assert_matches_kruskal(&a, &graph);
    }

    #[test]
    fn pram_profile_reports_costs() {
        let run = pram_profile(128, 100, 3);
        assert!(run.worst.depth > 0);
        assert!(run.mean_work > 0.0);
        assert!(run.peak_processors > 0);
        assert_eq!(run.n, 128);
    }
}
