//! Shared harness code for the `experiments` binary.
//!
//! The paper has no experimental section, so the `experiments` binary in
//! this crate defines the evaluation: E0–E6 measure this system (update
//! throughput, batching, sharding, scheduling, serving, persistence,
//! grouped apply) and `paper` checks the paper's cost bounds ([`paper`]).
//! This crate provides the common machinery: stream construction (update
//! streams, batched update/query streams and tenant-tagged multi-tenant
//! streams), structure, batch-engine and sharded-service drivers,
//! wall-clock and cost-meter measurement, and the machine-readable record
//! types behind the `BENCH_*.json` files.

pub mod paper;
pub mod serve;

use pdmsf_core::seq::default_parallel_k;
use pdmsf_core::{CostModel, SeqDynamicMsf};
use pdmsf_engine::{Engine, Op};
use pdmsf_graph::{
    kruskal_msf, BatchKind, BatchOp, BatchStream, BatchStreamSpec, DynGraph, DynamicMsf, EdgeId,
    GraphSpec, StreamKind, TenantOp, TenantStream, TenantStreamSpec, UpdateOp, UpdateStream,
    UpdateStreamSpec, VertexId, Weight,
};
use pdmsf_pram::CostReport;
use pdmsf_shard::ShardedService;
use std::time::{Duration, Instant};

/// Insert-only stream over a random sparse graph (the "growing network"
/// workload of the `BENCH_update_time.json` pipeline).
pub fn insert_stream(n: usize, m: usize, ops: usize, seed: u64) -> UpdateStream {
    UpdateStream::generate(&UpdateStreamSpec {
        base: GraphSpec::RandomSparse { n, m, seed },
        ops,
        kind: StreamKind::Mixed {
            insert_permille: 1000,
        },
        seed: seed ^ 0x1A5E,
    })
}

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

/// Delete-only failure stream (adversarial for the MWR search).
pub fn failure_stream(n: usize, m: usize, seed: u64) -> UpdateStream {
    UpdateStream::generate(&UpdateStreamSpec {
        base: GraphSpec::RandomSparse { n, m, seed },
        ops: m,
        kind: StreamKind::Failures,
        seed: seed ^ 0xFA11,
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

/// Tenant-clustered batched stream: each batch's traffic stays inside one
/// vertex block (the E1 multi-tenant workload).
pub fn clustered_batch_stream(
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
        kind: BatchKind::Clustered {
            clusters: 8,
            query_permille: 500,
        },
        seed: seed ^ 0xC105,
    })
}

/// Block-mixed batched stream: every operation stays inside one of
/// `clusters` vertex blocks but each op picks its block independently, so a
/// single batch spreads across many blocks — the E6 grouped-apply workload
/// (blocks aligned with the partitioned structure's homes become
/// independent update groups). Update-heavy (15% queries) so the apply
/// phase dominates the timed region.
pub fn clustered_mix_batch_stream(
    n: usize,
    m: usize,
    batches: usize,
    batch_size: usize,
    clusters: usize,
    seed: u64,
) -> BatchStream {
    BatchStream::generate(&BatchStreamSpec {
        base: GraphSpec::RandomSparse { n, m, seed },
        batches,
        batch_size,
        kind: BatchKind::ClusteredMix {
            clusters,
            query_permille: 150,
        },
        seed: seed ^ 0xC316,
    })
}

/// Migration-churn batched stream: the E6 **migration-heavy** workload
/// that separates adaptive partition rebalancing from static homes.
///
/// Batch 0 builds one chain component per vertex block (blocks aligned
/// with the partitioned structure's initial homes). The remaining batches
/// cycle through three phases with period `cycle` (`cycle >= batches`
/// gives a single pile-up followed by pure churn):
///
/// 1. **Concentrate** — a bridge link from every other block's chain to
///    vertex 0. Cross-partition links migrate the smaller side (`u` on a
///    tie), so each bridge drags that block's whole component into vertex
///    0's partition; by the end of the batch *every* component is homed
///    there.
/// 2. **Cut** — delete the bridges. The chains are separate components
///    again but all still live in one partition: without rebalancing the
///    structure stays collapsed forever (block-local churn never crosses
///    partitions, so nothing migrates back out).
/// 3. **Churn** (the remaining `cycle - 2` batches of each period) —
///    block-local link/cut pairs plus connectivity queries across all
///    blocks: the parallelizable work. A rebalancing engine re-homed the
///    chains after the cut batch and colors ~one group per block; a
///    static engine sees every update in the one loaded partition and
///    collapses to a single serial group *and* pays the bigger collapsed
///    structure on every operation. Migration itself costs edge mass
///    (every migrated edge re-inserts), so the churn span is what the
///    adaptive arm's rebalance buys back — `cycle` sets that ratio.
///
/// Deterministic for a given seed (hand-rolled xorshift), so the adaptive
/// and static arms replay the identical stream and their forests must
/// agree bit-for-bit.
pub fn migration_churn_batch_stream(
    n: usize,
    batches: usize,
    batch_size: usize,
    blocks: usize,
    cycle: usize,
    seed: u64,
) -> BatchStream {
    assert!(
        blocks >= 2 && n.is_multiple_of(blocks),
        "blocks must divide n"
    );
    assert!(
        cycle >= 3,
        "a cycle needs concentrate, cut and churn phases"
    );
    let bsize = n / blocks;
    assert!(bsize >= 2, "blocks need at least two vertices");
    let mut state = seed ^ 0x9E37_79B9_7F4A_7C15;
    let mut rng = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };

    let mut out: Vec<Vec<BatchOp>> = Vec::with_capacity(batches + 1);
    let mut next_id = 0u32;
    let mut build = Vec::with_capacity(blocks * (bsize - 1));
    for b in 0..blocks {
        for i in 0..bsize - 1 {
            let u = (b * bsize + i) as u32;
            build.push(BatchOp::Link {
                u: VertexId(u),
                v: VertexId(u + 1),
                weight: Weight::new((rng() % 1_000 + 1) as i64),
            });
            next_id += 1;
        }
    }
    out.push(build);

    let mut bridges: Vec<EdgeId> = Vec::new();
    // Block-local churn edges linked in *earlier* batches (cutting an edge
    // linked in the same batch would just be a cancelled pair).
    let mut cuttable: std::collections::VecDeque<EdgeId> = std::collections::VecDeque::new();
    for t in 0..batches {
        let mut batch = Vec::with_capacity(batch_size);
        match t % cycle {
            0 => {
                for b in 1..blocks {
                    batch.push(BatchOp::Link {
                        u: VertexId((b * bsize) as u32),
                        v: VertexId(0),
                        weight: Weight::new(1_000_000),
                    });
                    bridges.push(EdgeId(next_id));
                    next_id += 1;
                }
            }
            1 => {
                for id in bridges.drain(..) {
                    batch.push(BatchOp::Cut { id });
                }
            }
            _ => {
                let updates = batch_size * 850 / 1_000;
                let mut old_edges = cuttable.len();
                let mut b = 0usize;
                while batch.len() < updates {
                    if old_edges > 0 && batch.len() % 2 == 1 {
                        batch.push(BatchOp::Cut {
                            id: cuttable.pop_front().expect("counted above"),
                        });
                        old_edges -= 1;
                    } else {
                        let base = (b % blocks) * bsize;
                        let u = base + (rng() % bsize as u64) as usize;
                        let mut v = base + (rng() % bsize as u64) as usize;
                        if v == u {
                            v = base + (u - base + 1) % bsize;
                        }
                        batch.push(BatchOp::Link {
                            u: VertexId(u as u32),
                            v: VertexId(v as u32),
                            weight: Weight::new((rng() % 1_000 + 1) as i64),
                        });
                        cuttable.push_back(EdgeId(next_id));
                        next_id += 1;
                        b += 1;
                    }
                }
            }
        }
        while batch.len() < batch_size {
            let u = (rng() % n as u64) as u32;
            let v = (rng() % n as u64) as u32;
            batch.push(BatchOp::QueryConnected {
                u: VertexId(u),
                v: VertexId(v),
            });
        }
        out.push(batch);
    }
    BatchStream {
        num_vertices: n,
        base_edges: Vec::new(),
        batches: out,
    }
}

/// Multi-tenant tenant-tagged stream with Zipf-skewed tenant popularity and
/// bursty per-tenant traffic (flap pairs, duplicate queries) — the E2
/// serving workload. `zipf_permille = 0` gives uniform popularity.
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

/// One flat [`Engine`] over the **merged** vertex space of every tenant —
/// the baseline the sharded service is measured against in E2. Tenant
/// vertices translate by a per-tenant block offset and tenant-local edge
/// ids through per-tenant id maps that mirror the merged engine's global
/// sequential allocation, so the same tenant-tagged stream drives both
/// paths. (Tenant weight queries become whole-forest weight queries here —
/// cheaper than the sharded service's per-tenant sweeps, which only biases
/// the comparison *against* sharding.)
pub struct MergedTenantEngine {
    engine: Engine,
    tenant_vertices: usize,
    id_maps: Vec<Vec<EdgeId>>,
    next_gid: u32,
    scratch: Vec<BatchOp>,
}

impl MergedTenantEngine {
    /// A merged engine over `tenants * tenant_vertices` vertices.
    pub fn new(tenants: usize, tenant_vertices: usize) -> MergedTenantEngine {
        MergedTenantEngine {
            engine: Engine::new(tenants * tenant_vertices),
            tenant_vertices,
            id_maps: vec![Vec::new(); tenants],
            next_gid: 0,
            scratch: Vec::new(),
        }
    }

    /// Translate and execute one tenant-tagged batch.
    pub fn execute(&mut self, ops: &[TenantOp]) -> pdmsf_engine::BatchResult {
        let block = self.tenant_vertices as u32;
        self.scratch.clear();
        for top in ops {
            let t = top.tenant.index();
            let offset = |v: VertexId| VertexId(top.tenant.0 * block + v.0);
            let op = match top.op {
                BatchOp::Link { u, v, weight } => {
                    // Every generated link is valid, so it consumes the next
                    // global id — mirror the allocation for later Cuts.
                    self.id_maps[t].push(EdgeId(self.next_gid));
                    self.next_gid += 1;
                    BatchOp::Link {
                        u: offset(u),
                        v: offset(v),
                        weight,
                    }
                }
                BatchOp::Cut { id } => BatchOp::Cut {
                    id: self.id_maps[t][id.index()],
                },
                BatchOp::QueryConnected { u, v } => BatchOp::QueryConnected {
                    u: offset(u),
                    v: offset(v),
                },
                BatchOp::QueryForestWeight => BatchOp::QueryForestWeight,
            };
            self.scratch.push(op);
        }
        let batch = std::mem::take(&mut self.scratch);
        let result = self.engine.execute(&batch);
        self.scratch = batch;
        result
    }

    /// The underlying merged engine.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }
}

/// Feed a tenant stream's per-tenant base graphs into the sharded service
/// (untimed), then drive every service batch through
/// [`ShardedService::execute`] (timed). Returns (wall clock, ops).
pub fn drive_service_sharded(
    service: &mut ShardedService,
    stream: &TenantStream,
) -> (Duration, usize) {
    service.execute(&stream.base_ops());
    let mut elapsed = Duration::ZERO;
    let mut ops = 0usize;
    for batch in &stream.batches {
        let start = Instant::now();
        service.execute(batch);
        elapsed += start.elapsed();
        ops += batch.len();
    }
    (elapsed, ops)
}

/// Same stream through the flat merged single-engine baseline (base graphs
/// untimed, batches timed). Returns (wall clock, ops).
pub fn drive_service_flat(
    merged: &mut MergedTenantEngine,
    stream: &TenantStream,
) -> (Duration, usize) {
    merged.execute(&stream.base_ops());
    let mut elapsed = Duration::ZERO;
    let mut ops = 0usize;
    for batch in &stream.batches {
        let start = Instant::now();
        merged.execute(batch);
        elapsed += start.elapsed();
        ops += batch.len();
    }
    (elapsed, ops)
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
/// [`Engine::execute`] — no cancellation, no dedup, no snapshot: the
/// baseline the batched path is measured against.
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
    let base: Vec<Op> = stream
        .base_edges
        .iter()
        .map(|&(u, v, weight)| Op::Link { u, v, weight })
        .collect();
    step(engine, &base);
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
        Some(UpdateOp::Insert { .. }) => {
            let newest =
                (mirror.edges().max_by_key(|e| e.id)).expect("an insert leaves at least one edge");
            let start = Instant::now();
            structure.insert(newest);
            after(structure, start.elapsed());
        }
        Some(UpdateOp::Delete { id }) => {
            let start = Instant::now();
            structure.delete(*id);
            after(structure, start.elapsed());
        }
    })
}

/// Drive only the update portion of a stream (see [`drive_updates_each`]).
/// Returns (updates-only wall clock, number of updates).
pub fn drive_updates_only<M: DynamicMsf>(
    structure: &mut M,
    stream: &UpdateStream,
) -> (Duration, usize) {
    let mut elapsed = Duration::ZERO;
    let mut updates = 0usize;
    drive_updates_each(structure, stream, |_, t| {
        elapsed += t;
        updates += 1;
    });
    (elapsed, updates)
}

/// Median wall clock, in nanoseconds, of `runs` Kruskal computations over
/// `graph`: E0's machine-speed calibration, and the per-update cost of
/// recomputing the forest from scratch.
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
/// metered costs. Also returns the updates' wall clock.
pub(crate) fn cost_profile(
    mut structure: SeqDynamicMsf,
    stream: &UpdateStream,
) -> (CostProfile, Duration) {
    let (mut worst, mut total) = (CostReport::default(), CostReport::default());
    let (mut updates, mut elapsed) = (0u64, Duration::ZERO);
    drive_updates_each(&mut structure, stream, |s, t| {
        let c = s.last_op_cost();
        worst = CostReport {
            depth: worst.depth.max(c.depth),
            work: worst.work.max(c.work),
            peak_processors: worst.peak_processors.max(c.peak_processors),
        };
        total = total.then(c);
        updates += 1;
        elapsed += t;
    });
    let mean = |x: u64| x as f64 / updates.max(1) as f64;
    let profile = CostProfile {
        n: stream.num_vertices,
        k: structure.chunk_parameter(),
        updates,
        worst,
        mean_depth: mean(total.depth),
        mean_work: mean(total.work),
        peak_processors: worst.peak_processors,
    };
    (profile, elapsed)
}

/// The structure of Theorem 3.1: EREW accounting at the paper's
/// `K = sqrt n`.
pub(crate) fn erew_msf(n: usize) -> SeqDynamicMsf {
    SeqDynamicMsf::with_parameters(n, default_parallel_k(n), CostModel::Erew)
}

/// The per-update PRAM cost profile of the structure of Theorem 3.1 over a
/// standard mixed stream.
pub fn pram_profile(n: usize, ops: usize, seed: u64) -> CostProfile {
    cost_profile(erew_msf(n), &mixed_stream(n, 2 * n, ops, seed)).0
}

/// Per-update mean wall-clock of the sequential structure with an explicit
/// chunk parameter (used by the `K` ablation).
pub fn seq_mean_update_time(n: usize, k: usize, ops: usize, seed: u64) -> Duration {
    let stream = mixed_stream(n, 2 * n, ops, seed);
    let mut msf = SeqDynamicMsf::with_parameters(n, k, CostModel::Sequential);
    let (elapsed, updates) = drive_updates_only(&mut msf, &stream);
    if updates == 0 {
        Duration::ZERO
    } else {
        elapsed / updates as u32
    }
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
/// across PRs stay attributable: which commit produced the numbers, how many
/// cores the machine offered, how wide the worker pool was, and the pooling
/// cutoff in force.
#[derive(Clone, Debug)]
pub struct RunMeta {
    /// `git rev-parse HEAD` of the working tree (`"unknown"` outside git),
    /// with a `-dirty` suffix when uncommitted changes were present.
    pub git_sha: String,
    /// Cores available to the process (`available_parallelism`), stamped
    /// next to `threads` because `PDMSF_POOL_THREADS` can make the pool
    /// wider than the machine.
    pub cores: usize,
    /// Worker-pool width (workers + the calling thread).
    pub threads: usize,
    /// [`pdmsf_pram::kernels::PAR_CUTOFF`] at build time.
    pub par_cutoff: usize,
}

impl RunMeta {
    /// Collect the metadata of the current process / checkout.
    pub fn collect() -> RunMeta {
        let git_sha = std::process::Command::new("git")
            .args(["rev-parse", "HEAD"])
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".to_string());
        let dirty = std::process::Command::new("git")
            .args(["status", "--porcelain"])
            .output()
            .ok()
            .filter(|o| o.status.success())
            .is_some_and(|o| !o.stdout.is_empty());
        RunMeta {
            git_sha: if dirty && git_sha != "unknown" {
                format!("{git_sha}-dirty")
            } else {
                git_sha
            },
            cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            threads: pdmsf_pram::pool::parallelism(),
            par_cutoff: pdmsf_pram::kernels::PAR_CUTOFF,
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
            "{{\"git_sha\": \"{}\", \"cores\": {}, \"threads\": {}, \"par_cutoff\": {}{extra}}}",
            self.git_sha, self.cores, self.threads, self.par_cutoff
        )
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
// Shard-throughput records (BENCH_shard_throughput.json)
// ---------------------------------------------------------------------

/// One measured (path, shard count, size, skew) cell of the E2 shard
/// throughput benchmark. On top of the usual wall-clock fields, each record
/// carries the **pool-stats delta** of its timed region
/// (`pdmsf_pram::pool::snapshot`), so pool activity — dispatched jobs,
/// executed shards, inline degradations — is attributable per cell.
#[derive(Clone, Debug)]
pub struct ShardRecord {
    /// Execution path (`"sharded"` / `"flat-merged"`).
    pub path: String,
    /// Shard count of the service (1 for the flat-merged engine).
    pub shards: usize,
    /// Number of tenants.
    pub tenants: usize,
    /// Vertices per tenant.
    pub tenant_n: usize,
    /// Merged vertex-space size (`tenants * tenant_n`).
    pub total_n: usize,
    /// Tenant popularity skew of the stream, in permille.
    pub zipf_permille: u32,
    /// Operations per service batch.
    pub batch_size: usize,
    /// Number of timed service batches.
    pub batches: usize,
    /// Total timed operations.
    pub ops: usize,
    /// Wall-clock nanoseconds inside the timed batches.
    pub elapsed_ns: u128,
    /// Pool jobs dispatched during the timed region.
    pub pool_jobs: u64,
    /// Pool shards executed during the timed region.
    pub pool_shards: u64,
    /// Inline (non-pooled) runs during the timed region.
    pub pool_inline: u64,
    /// Injector chunks claimed during the timed region (each one shared-
    /// queue interaction covering a run of shards).
    pub pool_chunks: u64,
    /// Successful work steals during the timed region (0 when the pool ran
    /// inline or stayed balanced).
    pub pool_steals: u64,
}

impl ShardRecord {
    /// Operations per second.
    pub fn ops_per_sec(&self) -> f64 {
        per_sec(self.ops, self.elapsed_ns)
    }
}

/// Serialize shard-throughput records as JSON, stamped with the same run
/// metadata as the other benchmark artifacts (hand-rolled for the same
/// reason as [`bench_records_to_json`]).
pub fn shard_records_to_json(meta: &RunMeta, records: &[ShardRecord]) -> String {
    let rows = records.iter().map(|r| {
        format!(
                    "{{\"path\": \"{}\", \"shards\": {}, \"tenants\": {}, \"tenant_n\": {}, \"total_n\": {}, \"zipf_permille\": {}, \"batch_size\": {}, \"batches\": {}, \"ops\": {}, \"elapsed_ns\": {}, \"ops_per_sec\": {:.2}, \"pool_jobs\": {}, \"pool_shards\": {}, \"pool_inline\": {}, \"pool_chunks\": {}, \"pool_steals\": {}}}",
            r.path,
            r.shards,
            r.tenants,
            r.tenant_n,
            r.total_n,
            r.zipf_permille,
            r.batch_size,
            r.batches,
            r.ops,
            r.elapsed_ns,
            r.ops_per_sec(),
            r.pool_jobs,
            r.pool_shards,
            r.pool_inline,
            r.pool_chunks,
            r.pool_steals,
        )
    });
    results_json("shard_throughput", "ops_per_sec", &meta.to_json(), rows)
}

// ---------------------------------------------------------------------
// Scheduler-throughput records (BENCH_sched_throughput.json)
// ---------------------------------------------------------------------

/// One measured scenario cell of the E3 scheduler benchmark: a
/// many-small-jobs workload driven straight through the worker pool (or
/// through the sharded service for the end-to-end scenario), stamped with
/// the pool-stats delta of its timed region so claims, steals and inline
/// degradations are attributable per cell.
#[derive(Clone, Debug)]
pub struct SchedRecord {
    /// Scenario label (`"many-small"`, `"imbalanced"`, `"nested"`,
    /// `"service-small"`).
    pub scenario: String,
    /// Concurrent submitter threads.
    pub submitters: usize,
    /// Jobs submitted per submitter (service batches for
    /// `"service-small"`).
    pub jobs: usize,
    /// Shards per job (service shard count for `"service-small"`).
    pub shards_per_job: usize,
    /// Nested submission depth (1 = flat jobs).
    pub depth: usize,
    /// Total timed operations (shard executions; tenant ops for
    /// `"service-small"`).
    pub ops: usize,
    /// Wall-clock nanoseconds of the timed region.
    pub elapsed_ns: u128,
    /// Pool jobs completed during the timed region.
    pub pool_jobs: u64,
    /// Pool shards executed during the timed region.
    pub pool_shards: u64,
    /// Inline (non-pooled) runs during the timed region.
    pub pool_inline: u64,
    /// Injector chunks claimed during the timed region.
    pub pool_chunks: u64,
    /// Successful work steals during the timed region.
    pub pool_steals: u64,
}

impl SchedRecord {
    /// Operations per second.
    pub fn ops_per_sec(&self) -> f64 {
        per_sec(self.ops, self.elapsed_ns)
    }
}

/// Serialize scheduler-throughput records as JSON, stamped with the same
/// run metadata as the other benchmark artifacts (hand-rolled for the same
/// reason as [`bench_records_to_json`]).
pub fn sched_records_to_json(meta: &RunMeta, records: &[SchedRecord]) -> String {
    let rows = records.iter().map(|r| {
        format!(
                    "{{\"scenario\": \"{}\", \"submitters\": {}, \"jobs\": {}, \"shards_per_job\": {}, \"depth\": {}, \"ops\": {}, \"elapsed_ns\": {}, \"ops_per_sec\": {:.2}, \"pool_jobs\": {}, \"pool_shards\": {}, \"pool_inline\": {}, \"pool_chunks\": {}, \"pool_steals\": {}}}",
            r.scenario,
            r.submitters,
            r.jobs,
            r.shards_per_job,
            r.depth,
            r.ops,
            r.elapsed_ns,
            r.ops_per_sec(),
            r.pool_jobs,
            r.pool_shards,
            r.pool_inline,
            r.pool_chunks,
            r.pool_steals,
        )
    });
    results_json("sched_throughput", "ops_per_sec", &meta.to_json(), rows)
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
}

/// Serialize persistence warm-start records as JSON, stamped with the same
/// run metadata as the other benchmark artifacts (hand-rolled for the same
/// reason as [`bench_records_to_json`]).
pub fn persist_records_to_json(meta: &RunMeta, records: &[PersistRecord]) -> String {
    let rows = records.iter().map(|r| {
        format!(
                    "{{\"scenario\": \"{}\", \"n\": {}, \"k\": {}, \"ops\": {}, \"live_edges\": {}, \"checkpoint_bytes\": {}, \"checkpoint_ns\": {}, \"restore_ns\": {}, \"cold_rebuild_ns\": {}, \"restore_speedup\": {:.2}}}",
            r.scenario,
            r.n,
            r.k,
            r.ops,
            r.live_edges,
            r.checkpoint_bytes,
            r.checkpoint_ns,
            r.restore_ns,
            r.cold_rebuild_ns,
            r.speedup(),
        )
    });
    results_json("persist_warm_start", "ns", &meta.to_json(), rows)
}

// ---------------------------------------------------------------------
// Intra-batch grouped-apply records (BENCH_intra_batch.json)
// ---------------------------------------------------------------------

/// One measured (path, n, batch size) cell of the E6 intra-batch
/// parallelism benchmark: a component-partitioned engine applying its
/// conflict-free update groups concurrently (`"grouped"`) vs the same
/// engine forced to arrival-order serial apply (`"serial"`). Each record
/// carries its **own** pool width — `PDMSF_POOL_THREADS` is read once per
/// process, so the committed artifact merges records from one run per
/// width and `threads` is per-record, not run-level.
#[derive(Clone, Debug)]
pub struct IntraBatchRecord {
    /// Apply path: `"grouped"` / `"serial"` on the clustered stream
    /// (conflict-colored concurrent apply vs forced arrival-order apply),
    /// `"adaptive"` / `"static"` on the migration stream (default
    /// post-batch rebalancing vs rebalancing disabled).
    pub path: String,
    /// Workload: `"clustered"` ([`clustered_mix_batch_stream`]) or
    /// `"migration"` ([`migration_churn_batch_stream`]).
    pub stream: String,
    /// Number of vertices.
    pub n: usize,
    /// Partition count of the component-partitioned structure.
    pub partitions: usize,
    /// Pool width this record ran under (workers + caller).
    pub threads: usize,
    /// Operations per batch.
    pub batch_size: usize,
    /// Number of timed batches.
    pub batches: usize,
    /// Total timed operations (updates + queries).
    pub ops: usize,
    /// Update groups the grouped path dispatched (0 on the serial path).
    pub update_groups: u64,
    /// Surviving updates that shared a group (0 on the serial path).
    pub group_conflicts: u64,
    /// Component migrations over the run (cross-partition links plus
    /// rebalance moves).
    pub migrations: u64,
    /// Post-batch rebalance passes that moved a component (always 0 on
    /// the `"static"` path).
    pub rebalances: u64,
    /// Wall-clock nanoseconds spent inside the timed batches.
    pub elapsed_ns: u128,
}

impl IntraBatchRecord {
    /// Operations per second.
    pub fn ops_per_sec(&self) -> f64 {
        per_sec(self.ops, self.elapsed_ns)
    }
}

/// Serialize intra-batch grouped-apply records as JSON (hand-rolled for
/// the same reason as [`bench_records_to_json`]; `threads` is stamped per
/// record, see [`IntraBatchRecord::threads`]).
pub fn intra_batch_records_to_json(meta: &RunMeta, records: &[IntraBatchRecord]) -> String {
    let rows = records.iter().map(|r| {
        format!(
                    "{{\"path\": \"{}\", \"stream\": \"{}\", \"n\": {}, \"partitions\": {}, \"threads\": {}, \"batch_size\": {}, \"batches\": {}, \"ops\": {}, \"update_groups\": {}, \"group_conflicts\": {}, \"migrations\": {}, \"rebalances\": {}, \"elapsed_ns\": {}, \"ops_per_sec\": {:.2}}}",
            r.path,
            r.stream,
            r.n,
            r.partitions,
            r.threads,
            r.batch_size,
            r.batches,
            r.ops,
            r.update_groups,
            r.group_conflicts,
            r.migrations,
            r.rebalances,
            r.elapsed_ns,
            r.ops_per_sec(),
        )
    });
    results_json(
        "intra_batch",
        "ops_per_sec",
        &format!(
            "{{\"git_sha\": \"{}\", \"cores\": {}, \"par_cutoff\": {}}}",
            meta.git_sha, meta.cores, meta.par_cutoff
        ),
        rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdmsf_baselines::NaiveDynamicMsf;

    fn test_meta() -> RunMeta {
        RunMeta {
            git_sha: "deadbeef".into(),
            cores: 2,
            threads: 4,
            par_cutoff: 512,
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
        assert!(json.contains("\"par_cutoff\": 512, \"calibration_ns\": 2500000}"));
        assert!(json.contains("\"structure\": \"arena-seq\""));
        assert!(json.contains("\"ops_per_sec\": 250000.00"));
        assert!(json.contains("\"git_sha\": \"deadbeef\""));
        assert!(json.contains("\"cores\": 2, \"threads\": 4"));
        assert!(json.contains("\"par_cutoff\": 512"));
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

    #[test]
    fn shard_json_is_well_formed() {
        let records = vec![
            ShardRecord {
                path: "sharded".into(),
                shards: 4,
                tenants: 16,
                tenant_n: 256,
                total_n: 4096,
                zipf_permille: 900,
                batch_size: 512,
                batches: 8,
                ops: 4096,
                elapsed_ns: 2_048_000,
                pool_jobs: 12,
                pool_shards: 40,
                pool_inline: 3,
                pool_chunks: 18,
                pool_steals: 5,
            },
            ShardRecord {
                path: "flat-merged".into(),
                shards: 1,
                tenants: 16,
                tenant_n: 256,
                total_n: 4096,
                zipf_permille: 900,
                batch_size: 512,
                batches: 8,
                ops: 4096,
                elapsed_ns: 4_096_000,
                pool_jobs: 0,
                pool_shards: 0,
                pool_inline: 8,
                pool_chunks: 0,
                pool_steals: 0,
            },
        ];
        let meta = test_meta();
        let json = shard_records_to_json(&meta, &records);
        assert!(json.contains("\"benchmark\": \"shard_throughput\""));
        assert!(json.contains("\"path\": \"sharded\""));
        assert!(json.contains("\"path\": \"flat-merged\""));
        assert!(json.contains("\"shards\": 4"));
        assert!(json.contains("\"zipf_permille\": 900"));
        assert!(json.contains("\"ops_per_sec\": 2000000.00"));
        assert!(json.contains("\"pool_jobs\": 12"));
        assert!(json.contains("\"pool_chunks\": 18"));
        assert!(json.contains("\"pool_steals\": 5"));
        assert_eq!(json.matches("},\n").count(), 2);
        assert_eq!(records[0].ops_per_sec(), 2_000_000.0);
    }

    #[test]
    fn sched_json_is_well_formed() {
        let records = vec![
            SchedRecord {
                scenario: "many-small".into(),
                submitters: 4,
                jobs: 64,
                shards_per_job: 8,
                depth: 1,
                ops: 2048,
                elapsed_ns: 1_024_000,
                pool_jobs: 256,
                pool_shards: 2048,
                pool_inline: 0,
                pool_chunks: 512,
                pool_steals: 31,
            },
            SchedRecord {
                scenario: "nested".into(),
                submitters: 2,
                jobs: 16,
                shards_per_job: 4,
                depth: 2,
                ops: 512,
                elapsed_ns: 2_048_000,
                pool_jobs: 160,
                pool_shards: 640,
                pool_inline: 0,
                pool_chunks: 200,
                pool_steals: 7,
            },
        ];
        let meta = test_meta();
        let json = sched_records_to_json(&meta, &records);
        assert!(json.contains("\"benchmark\": \"sched_throughput\""));
        assert!(json.contains("\"scenario\": \"many-small\""));
        assert!(json.contains("\"depth\": 2"));
        assert!(json.contains("\"ops_per_sec\": 2000000.00"));
        assert!(json.contains("\"pool_steals\": 31"));
        assert_eq!(json.matches("},\n").count(), 2);
        assert_eq!(records[0].ops_per_sec(), 2_000_000.0);
    }

    #[test]
    fn sharded_and_flat_drivers_agree_on_total_weight() {
        use pdmsf_graph::TenantId;
        use pdmsf_shard::TenantSpec;
        let stream = tenant_stream(4, 32, 5, 48, 800, 9);
        let specs: Vec<TenantSpec> = (0..4).map(|t| TenantSpec::new(TenantId(t), 32)).collect();
        let mut sharded = ShardedService::new(2, &specs);
        let mut flat = MergedTenantEngine::new(4, 32);
        let (_, ops_a) = drive_service_sharded(&mut sharded, &stream);
        let (_, ops_b) = drive_service_flat(&mut flat, &stream);
        assert_eq!(ops_a, stream.total_ops());
        assert_eq!(ops_a, ops_b);
        assert_eq!(sharded.total_forest_weight(), flat.engine().forest_weight());
    }

    #[test]
    fn intra_batch_json_is_well_formed() {
        let records = vec![
            IntraBatchRecord {
                path: "grouped".into(),
                stream: "clustered".into(),
                n: 4096,
                partitions: 8,
                threads: 4,
                batch_size: 256,
                batches: 16,
                ops: 4096,
                update_groups: 96,
                group_conflicts: 12,
                migrations: 0,
                rebalances: 0,
                elapsed_ns: 1_000_000,
            },
            IntraBatchRecord {
                path: "serial".into(),
                stream: "clustered".into(),
                n: 4096,
                partitions: 8,
                threads: 1,
                batch_size: 256,
                batches: 16,
                ops: 4096,
                update_groups: 0,
                group_conflicts: 0,
                migrations: 0,
                rebalances: 0,
                elapsed_ns: 2_000_000,
            },
            IntraBatchRecord {
                path: "adaptive".into(),
                stream: "migration".into(),
                n: 4096,
                partitions: 8,
                threads: 4,
                batch_size: 256,
                batches: 16,
                ops: 4096,
                update_groups: 80,
                group_conflicts: 4,
                migrations: 42,
                rebalances: 5,
                elapsed_ns: 1_500_000,
            },
        ];
        let meta = test_meta();
        let json = intra_batch_records_to_json(&meta, &records);
        assert!(json.contains("\"benchmark\": \"intra_batch\""));
        assert!(json.contains("\"path\": \"grouped\""));
        assert!(json.contains("\"stream\": \"clustered\""));
        assert!(json.contains("\"stream\": \"migration\""));
        assert!(json.contains("\"update_groups\": 96"));
        assert!(json.contains("\"migrations\": 42"));
        assert!(json.contains("\"rebalances\": 5"));
        // Threads is per-record (merged multi-width artifact), not run-level;
        // the core count is run-level.
        assert!(json.contains("\"threads\": 1") && json.contains("\"threads\": 4"));
        assert!(json.contains("\"cores\": 2, \"par_cutoff\": 512}"));
        assert_eq!(records[0].ops_per_sec(), 4_096_000_000.0 / 1_000.0);
        assert_eq!(json.matches("},\n").count(), 3);
    }

    #[test]
    fn migration_churn_stream_piles_up_and_rebalances() {
        use pdmsf_engine::Engine;
        let n = 256;
        let blocks = 4;
        let stream = migration_churn_batch_stream(n, 7, 64, blocks, 3, 97);
        assert_eq!(stream.batches.len(), 8); // build + 7 cycling

        // Adaptive (default) vs static (rebalance off): identical forests,
        // but only adaptive ever rebalances.
        let k = pdmsf_core::seq::default_sequential_k(n);
        let mut adaptive = Engine::with_partitions(n, blocks, k);
        let mut static_e = Engine::with_partitions(n, blocks, k);
        static_e.set_rebalance_min(u64::MAX);
        for batch in &stream.batches {
            adaptive.execute(batch);
            static_e.execute(batch);
        }
        assert_eq!(adaptive.forest_weight(), static_e.forest_weight());
        assert_eq!(adaptive.forest_edges(), static_e.forest_edges());
        adaptive.structure().validate();
        static_e.structure().validate();
        let (a, s) = (adaptive.stats(), static_e.stats());
        assert!(a.migrations > 0, "bridges must force migrations");
        assert!(a.rebalances > 0, "cut batches must trigger rebalances");
        assert_eq!(s.rebalances, 0);
        // The static engine stays collapsed: every component homed in one
        // partition, so the cut batch leaves occupancy concentrated.
        let occ = static_e.structure().occupancy().to_vec();
        let total: u64 = occ.iter().sum();
        assert!(
            occ.iter().any(|&o| o * 2 > total),
            "static homes should stay concentrated, occupancy {occ:?}"
        );
    }

    /// Every `BENCH_*.json` writer stamps the core count next to the pool
    /// width (E6 stamps its width per record; E0 appends its calibration).
    #[test]
    fn every_writer_stamps_cores_next_to_threads() {
        let meta = test_meta();
        let both = "\"meta\": {\"git_sha\": \"deadbeef\", \"cores\": 2, \"threads\": 4, \"par_cutoff\": 512";
        for json in [
            bench_records_to_json("update_time", &meta, 0.0, &[]),
            paper::paper_json(&meta, &[], &[], &[]),
            batch_records_to_json(&meta, &[]),
            shard_records_to_json(&meta, &[]),
            sched_records_to_json(&meta, &[]),
            persist_records_to_json(&meta, &[]),
            crate::serve::serve_records_to_json(&meta, &crate::serve::RampConfig::quick(), &[]),
        ] {
            assert!(
                json.contains(both),
                "meta line missing cores/threads: {json}"
            );
        }
        assert!(intra_batch_records_to_json(&meta, &[]).contains("\"cores\": 2"));
    }

    #[test]
    fn run_meta_collects_plausible_values() {
        let meta = RunMeta::collect();
        assert!(meta.cores >= 1);
        assert!(meta.threads >= 1);
        assert_eq!(meta.par_cutoff, pdmsf_pram::kernels::PAR_CUTOFF);
        assert!(!meta.git_sha.is_empty());
    }

    #[test]
    fn drivers_produce_consistent_forests() {
        let stream = mixed_stream(24, 48, 100, 5);
        let mut a = SeqDynamicMsf::new(24);
        let mut b = NaiveDynamicMsf::new(24);
        drive_updates_only(&mut a, &stream);
        drive_updates_only(&mut b, &stream);
        assert_eq!(a.forest_edges(), b.forest_edges());
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
