//! Experiment driver: times the cells each experiment's bar reads, writes
//! the machine-readable benchmark JSON artifacts and checks every bar.
//!
//! Usage:
//! ```text
//! cargo run --release -p pdmsf-bench --bin experiments              # everything
//! cargo run --release -p pdmsf-bench --bin experiments -- e1 paper  # a selection
//! cargo run --release -p pdmsf-bench --bin experiments -- quick     # smaller sizes
//! cargo run --release -p pdmsf-bench --bin experiments -- e0 gate   # E0 + trajectory gate
//! ```
//!
//! The selectors are `e0`, `e1`, `e5` and `paper`, plus the modifiers
//! `quick` (smaller E0, E1 and `paper` runs) and `gate`; anything else is a
//! usage error (exit status 2). A failed check exits with status 1: the E0
//! trajectory gate, the paper's bounds, and the same-process speed ratios
//! of E1 and E5, which every run checks.
//!
//! Every experiment times only the cells a bar reads, and every timed cell
//! checks its result: forest = Kruskal (E0), batched = one-by-one (E1),
//! restored = original (E5).
//!
//! * E0 → `BENCH_update_time.json`: updates/s on the mixed stream at
//!   n = 10 000 (full runs add n = 100 000), with a same-process Kruskal
//!   calibration (`gate` compares the calibrated rate against the
//!   committed snapshot).
//! * E1 → `BENCH_batch_throughput.json`: batched vs one-op-at-a-time
//!   engine paths over one bursty batch stream (quick: n = 1 000, batch
//!   256; full: n = 10 000, batch 1 024). Bar: batched ≥ `E1_FLOOR`×
//!   one-by-one.
//! * E5 → `BENCH_persist.json`: one n = 65 536 engine's checkpoint size
//!   and checkpoint/restore wall time vs a cold rebuild. Bars: restore
//!   ≥ `E5_FLOOR`× faster than the cold rebuild, and the checkpoint at
//!   most `E5_MAX_BYTES_PER_EDGE` bytes per live edge.
//! * `paper` → `BENCH_paper.json`: the paper's cost bounds as exponents
//!   fitted over meter counts, checked on every run. The file holds no
//!   wall-clock time, so a full run reproduces it outside its `meta` line
//!   (see `pdmsf_bench::paper`).

use pdmsf_bench::{
    batch_records_to_json, bench_records_to_json, bursty_batch_stream, drive_engine_batched,
    drive_engine_one_by_one, drive_updates_each, kruskal_ns, mixed_stream, paper,
    persist_records_to_json, BatchRecord, BenchRecord, PersistRecord, RunMeta,
};
use pdmsf_core::SeqDynamicMsf;
use pdmsf_engine::Engine;
use pdmsf_graph::{kruskal_msf, BatchStream, DynamicMsf, EdgeId};
use pdmsf_persist::EngineCheckpointExt;
use std::time::{Duration, Instant};

/// Median of a non-empty rate sample (upper median; sorts in place).
fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("rates are finite"));
    xs[xs.len() / 2]
}

/// Time one arm of a same-process comparison: drive `stream` through
/// `engine`, hand the engine and the timing to `record`, and drop the
/// engine before returning, so that the next arm runs with no other engine
/// alive. A live engine once slowed the arm timed after it: two identical
/// arms over a since-deleted block-mixed stream read 1.8× apart while the
/// first engine stayed alive, and 1.04× once it was dropped.
/// Returns the forest weight and edges for the arms' differential checks.
fn time_arm(
    mut engine: Engine,
    stream: &BatchStream,
    drive: fn(&mut Engine, &BatchStream) -> (Duration, usize),
    record: impl FnOnce(&Engine, Duration, usize),
) -> (i128, Vec<EdgeId>) {
    let (elapsed, ops) = drive(&mut engine, stream);
    record(&engine, elapsed, ops);
    (engine.forest_weight(), engine.forest_edges())
}

/// Vertex counts of a full `paper` run (`quick` runs the first three).
const SIZES: [usize; 5] = [1 << 8, 1 << 10, 1 << 12, 1 << 14, 1 << 16];

/// Every experiment selector, in run order.
const EXPERIMENTS: [&str; 4] = ["e0", "e1", "e5", "paper"];

/// What one invocation runs.
#[derive(Debug, PartialEq)]
struct Selection {
    experiments: Vec<&'static str>,
    quick: bool,
    gate: bool,
}

/// Parse the command line (selectors and modifiers, case-insensitive). No
/// selector means every experiment; an unknown word is a usage error.
fn parse_args(args: &[String]) -> Result<Selection, String> {
    let mut selection = Selection {
        experiments: Vec::new(),
        quick: false,
        gate: false,
    };
    for arg in args {
        let arg = arg.to_lowercase();
        match arg.as_str() {
            "quick" => selection.quick = true,
            "gate" => selection.gate = true,
            name => match EXPERIMENTS.iter().find(|&&e| e == name) {
                Some(e) => selection.experiments.push(e),
                None => {
                    return Err(format!(
                        "unknown selection `{arg}`\nusage: experiments [{}]... [quick] [gate]",
                        EXPERIMENTS.join("|")
                    ))
                }
            },
        }
    }
    if selection.experiments.is_empty() {
        selection.experiments = EXPERIMENTS.to_vec();
    }
    Ok(selection)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let selection = parse_args(&args).unwrap_or_else(|usage| {
        eprintln!("{usage}");
        std::process::exit(2);
    });
    let quick = selection.quick;
    let mut failures: Vec<String> = Vec::new();
    for name in EXPERIMENTS {
        if !selection.experiments.contains(&name) {
            continue;
        }
        match name {
            "e0" => failures.extend(e0_bench_json(quick, selection.gate).err()),
            "e1" => failures.extend(e1_batch_throughput(quick).err()),
            "e5" => failures.extend(e5_persist().err()),
            "paper" if quick => failures.extend(paper::run(&SIZES[..3], 400)),
            "paper" => failures.extend(paper::run(&SIZES, 1_500)),
            _ => unreachable!("EXPERIMENTS lists {name}"),
        }
    }
    if !failures.is_empty() {
        for failure in &failures {
            eprintln!("FAILED: {failure}");
        }
        std::process::exit(1);
    }
}

/// One experiment's bar. `(num, den)` holds the two medians of a
/// same-process ratio (`num / den`: machine speed cancels out), and the
/// ratio must reach `floor`. A non-finite median or a denominator that is
/// not positive fails: a bar never passes for want of a measurement.
fn check_bar(name: &str, (num, den): (f64, f64), floor: f64) -> Result<String, String> {
    if !(num.is_finite() && den.is_finite() && den > 0.0) {
        return Err(format!(
            "{name}: no valid ratio ({num} over {den}; floor {floor:.2}x)"
        ));
    }
    let ratio = num / den;
    let report = format!("{name}: {ratio:.2}x (floor {floor:.2}x)");
    if ratio >= floor {
        Ok(report)
    } else {
        Err(report)
    }
}

/// The committed E0 snapshot the trajectory gate compares against.
const SNAPSHOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_update_time.json");

/// Kruskal runs after each mixed rep at [`CALIBRATION_N`]; the median of
/// all of them (15 runs spread over the cell's reps, so they see the same
/// machine speed as the timed updates) is E0's calibration.
const CALIBRATION_RUNS_PER_REP: usize = 3;

/// E0's one quick cell, whose final graph the calibration times: full
/// runs time it too, so the two stay comparable.
const CALIBRATION_N: usize = 10_000;

/// Timed repetitions of every mixed cell (the gate reads their median).
const MIXED_REPS: usize = 5;

/// The gate fails when the calibrated rate drops below 1/`MAX_SLOWDOWN` of
/// the snapshot's.
const MAX_SLOWDOWN: f64 = 1.5;

/// E0: the machine-readable update-time benchmark — updates/s of the
/// sequential structure on the mixed stream (m = 2n, 2 000 updates) at
/// n = [`CALIBRATION_N`], and at n = 100 000 too in full runs.
/// Emits `BENCH_update_time.json` (stamped with git SHA, `K`, core count,
/// pool width and `calibration_ns`: the median Kruskal time over the final
/// graph of the `n = CALIBRATION_N` cell). Every rep checks the
/// structure's forest weight against Kruskal on the stream's final graph,
/// so the benchmark doubles as a large-`n` differential test.
///
/// With `gate`, the committed snapshot is read first and the run fails
/// (see [`gate_decision`]) when the mixed stream's median rate × the
/// calibration falls below 1/[`MAX_SLOWDOWN`] of the snapshot's at the
/// largest `n` both share. Multiplying by the calibration cancels machine
/// speed, so a snapshot from a different machine still gates.
fn e0_bench_json(quick: bool, gate: bool) -> Result<(), String> {
    println!("\n== E0: update-time benchmark (writes BENCH_update_time.json) ==");
    // Read the committed snapshot before this run overwrites it.
    let snapshot = gate.then(|| std::fs::read_to_string(SNAPSHOT).ok());
    let sizes: &[usize] = if quick {
        &[CALIBRATION_N]
    } else {
        &[CALIBRATION_N, 100_000]
    };
    let mut records: Vec<BenchRecord> = Vec::new();
    // Median updates/s per n, for the gate.
    let mut mixed_medians: Vec<(usize, f64)> = Vec::new();
    let mut calibration_samples: Vec<f64> = Vec::new();
    for &n in sizes {
        let stream = mixed_stream(n, 2 * n, 2_000, 73);
        let mut rates = Vec::new();
        for _ in 0..MIXED_REPS {
            let mut arena = SeqDynamicMsf::new(n);
            let (mut elapsed, mut updates) = (Duration::ZERO, 0usize);
            let final_graph = drive_updates_each(&mut arena, &stream, |_, t| {
                elapsed += t;
                updates += 1;
            });
            assert_eq!(
                arena.forest_weight(),
                kruskal_msf(&final_graph).total_weight,
                "E0 mixed n = {n}: forest weight differs from Kruskal"
            );
            records.push(BenchRecord {
                structure: "arena-seq".to_string(),
                stream: "mixed".to_string(),
                n,
                k: arena.chunk_parameter(),
                ops: updates,
                elapsed_ns: elapsed.as_nanos(),
            });
            rates.push(records.last().unwrap().ops_per_sec());
            if n == CALIBRATION_N {
                calibration_samples
                    .extend((0..CALIBRATION_RUNS_PER_REP).map(|_| kruskal_ns(&final_graph, 1)));
            }
        }
        let m = median(&mut rates);
        mixed_medians.push((n, m));
        println!("mixed n = {n}: median {m:.0} updates/s");
    }
    let calibration_ns = median(&mut calibration_samples);
    println!(
        "calibration: Kruskal over the n = {CALIBRATION_N} mixed graph, median of {} runs: {calibration_ns:.0} ns",
        calibration_samples.len()
    );
    let meta = RunMeta::collect();
    let json = bench_records_to_json("update_time", &meta, calibration_ns, &records);
    let path = "BENCH_update_time.json";
    std::fs::write(path, json).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    println!(
        "wrote {path} ({} records, git {}, {} pool thread(s))",
        records.len(),
        meta.git_sha,
        meta.threads
    );
    let Some(snapshot) = snapshot else {
        return Ok(());
    };
    println!("\n-- trajectory gate vs {SNAPSHOT} --");
    let report = gate_decision(snapshot.as_deref(), &mixed_medians, calibration_ns)
        .map_err(|report| format!("E0 trajectory gate: {report}"))?;
    println!("{report}\ntrajectory gate passed");
    Ok(())
}

/// The E0 trajectory gate. `snapshot` is the committed
/// `BENCH_update_time.json` (`None` when it could not be read), `run` this
/// run's mixed-stream median updates/s per `n`, and `calibration_ns` this
/// run's calibration. At the largest `n` present in both, the calibrated
/// rate (updates/s × calibration seconds: updates per Kruskal run) must be
/// at least 1/[`MAX_SLOWDOWN`] of the snapshot's. A missing snapshot,
/// calibration or shared cell is a failure, never a pass.
fn gate_decision(
    snapshot: Option<&str>,
    run: &[(usize, f64)],
    calibration_ns: f64,
) -> Result<String, String> {
    let snapshot = snapshot.ok_or("no committed BENCH_update_time.json to compare against")?;
    let snap_calibration = snapshot
        .lines()
        .find(|l| l.contains("\"meta\""))
        .and_then(|l| json_number(l, "calibration_ns"))
        .filter(|&c| c > 0.0)
        .ok_or("the committed snapshot has no meta.calibration_ns")?;
    if calibration_ns <= 0.0 {
        return Err(format!(
            "this run has no calibration (no mixed cell at n = {CALIBRATION_N})"
        ));
    }
    let snap_rates = |n: usize| -> Vec<f64> {
        snapshot
            .lines()
            .filter(|l| l.contains("\"structure\": \"arena-seq\", \"stream\": \"mixed\""))
            .filter(|l| json_number(l, "n") == Some(n as f64))
            .filter_map(|l| json_number(l, "ops_per_sec"))
            .collect()
    };
    let (n, rate, mut snap) = run
        .iter()
        .filter_map(|&(n, rate)| Some((n, rate, snap_rates(n))).filter(|c| !c.2.is_empty()))
        .max_by_key(|c| c.0)
        .ok_or("the committed snapshot shares no mixed-stream n with this run")?;
    let now = rate * calibration_ns / 1e9;
    let then = median(&mut snap) * snap_calibration / 1e9;
    let report = format!(
        "n = {n}: {now:.2} updates per calibration run vs {then:.2} in the snapshot ({:.2}x; floor {:.2}x)",
        now / then,
        1.0 / MAX_SLOWDOWN
    );
    if now * MAX_SLOWDOWN >= then {
        Ok(report)
    } else {
        Err(report)
    }
}

/// The number after `"key": ` on one JSON line.
fn json_number(line: &str, key: &str) -> Option<f64> {
    let start = line.find(&format!("\"{key}\": "))? + key.len() + 4;
    let rest = &line[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// E1's bar: batched ≥ this × one-by-one, medians of [`E1_REPS`] reps, on
/// the run's one bursty cell.
const E1_FLOOR: f64 = 1.3;

/// Timed repetitions of E1's cell, quick or full.
const E1_REPS: usize = 3;

/// Timed batches of E1's cell, quick or full.
const E1_BATCHES: usize = 8;

/// E1: batch-engine throughput — the batched path (preprocessing,
/// cancellation, query dedup) vs the one-op-at-a-time engine path on one
/// bursty batch stream: n = 1 000 with batches of 256 ops (quick), or
/// n = 10 000 with batches of 1 024 (full). Both arms must end on the same
/// forest. Emits `BENCH_batch_throughput.json` with the same run-metadata
/// stamping as E0, then checks [`E1_FLOOR`].
fn e1_batch_throughput(quick: bool) -> Result<(), String> {
    println!("\n== E1: batch engine throughput (writes BENCH_batch_throughput.json) ==");
    println!("paths: batched (plan + cancel + dedup) vs one-by-one");
    println!("(same ops through the same structure, no batch leverage); identical");
    println!("outcomes, so the ratio is pure batching leverage");
    let (n, batch_size) = if quick { (1_000, 256) } else { (10_000, 1_024) };
    let stream = bursty_batch_stream(n, 2 * n, E1_BATCHES, batch_size, 81);
    let mut records: Vec<BatchRecord> = Vec::new();
    let mut rates: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    for _ in 0..E1_REPS {
        let mut run = |path: &str, engine: &Engine, t: Duration, ops: usize| -> f64 {
            records.push(BatchRecord {
                path: path.to_string(),
                stream: "bursty".to_string(),
                n,
                k: engine.structure().chunk_parameter(),
                batch_size,
                batches: E1_BATCHES,
                ops,
                elapsed_ns: t.as_nanos(),
            });
            records.last().unwrap().ops_per_sec()
        };
        let batched = time_arm(
            Engine::new(n),
            &stream,
            drive_engine_batched,
            |e, t, ops| rates[0].push(run("batched", e, t, ops)),
        );
        let serial = time_arm(
            Engine::new(n),
            &stream,
            drive_engine_one_by_one,
            |e, t, ops| rates[1].push(run("one-by-one", e, t, ops)),
        );
        // The two paths must agree — this benchmark doubles as a large-n
        // differential test of the batch semantics.
        assert_eq!(batched, serial);
    }
    let m_batched = median(&mut rates[0]);
    let m_serial = median(&mut rates[1]);
    println!("batched {m_batched:.0} op/s, one-by-one {m_serial:.0} op/s");
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
    let name = format!("E1 bursty n = {n} batch {batch_size}: batched / one-by-one");
    println!("{}", check_bar(&name, (m_batched, m_serial), E1_FLOOR)?);
    Ok(())
}

/// E5's bar: restoring E5's engine from its checkpoint is at least this ×
/// faster than rebuilding it cold.
const E5_FLOOR: f64 = 10.0;

/// E5's size bar: the engine's checkpoint takes at most this many bytes
/// per live edge. Its mirror's edge slots take about 17 (17 B a slot, dead
/// slots included); adjacency lists, at 4 B an entry and two entries a
/// live edge, would not fit under the bar again.
const E5_MAX_BYTES_PER_EDGE: f64 = 20.0;

/// Vertices of E5's engine.
const E5_N: usize = 1 << 16;

/// Operations of E5's engine beyond the base graph.
const E5_OPS: usize = 1_500;

/// E5: persistence warm start — one engine at n = [`E5_N`] (a bursty
/// stream, m = 2n), its checkpoint size and wall time, and its restore
/// (warm-start) wall time against rebuilding the same state cold by
/// replaying the full op stream through the normal execution path. Checks
/// the restored engine against the original (forest weight) and emits
/// `BENCH_persist.json` with the same run-metadata stamping as the other
/// artifacts. Then checks both bars: [`E5_FLOOR`] (one rep: the restore
/// is well over the floor, beyond the clock's swing) and
/// [`E5_MAX_BYTES_PER_EDGE`] (deterministic), reported as the allowance
/// over the measured size, which must reach 1.
fn e5_persist() -> Result<(), String> {
    println!("\n== E5: persistence warm start (writes BENCH_persist.json) ==");
    let batch_size = 16usize;
    let stream = bursty_batch_stream(E5_N, 2 * E5_N, E5_OPS / batch_size, batch_size, 7);
    let start = Instant::now();
    let mut engine = Engine::new(E5_N);
    let base = stream.base_ops();
    engine.execute(&base);
    let mut ops = base.len();
    for batch in &stream.batches {
        engine.execute(batch);
        ops += batch.len();
    }
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
        "restored engine diverged at n = {E5_N}"
    );
    let r = PersistRecord {
        scenario: "engine".into(),
        n: E5_N,
        k: engine.structure().chunk_parameter(),
        ops,
        live_edges: engine.graph().num_edges(),
        checkpoint_bytes: blob.len(),
        checkpoint_ns: ckpt.as_nanos(),
        restore_ns: restore.as_nanos(),
        cold_rebuild_ns: cold.as_nanos(),
    };
    println!(
        "engine n = {E5_N}: {} ops, {} live edges; checkpoint {} B in {:?}, restore {:?}, cold rebuild {:?}",
        r.ops, r.live_edges, r.checkpoint_bytes, ckpt, restore, cold
    );
    let json = persist_records_to_json(&RunMeta::collect(), std::slice::from_ref(&r));
    let path = "BENCH_persist.json";
    std::fs::write(path, json).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    println!("wrote {path}");
    let bars = [
        check_bar(
            &format!("E5 engine n = {E5_N}: cold rebuild / restore"),
            (r.cold_rebuild_ns as f64, r.restore_ns as f64),
            E5_FLOOR,
        ),
        check_bar(
            &format!(
                "E5 engine n = {E5_N}: {E5_MAX_BYTES_PER_EDGE} B / checkpoint bytes per live edge"
            ),
            (E5_MAX_BYTES_PER_EDGE, r.bytes_per_live_edge()),
            1.0,
        ),
    ];
    let mut misses = Vec::new();
    for bar in bars {
        match bar {
            Ok(report) => println!("{report}"),
            Err(miss) => misses.push(miss),
        }
    }
    if misses.is_empty() {
        Ok(())
    } else {
        Err(misses.join("; "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    #[test]
    fn selectors_and_modifiers_parse() {
        let all = parse_args(&[]).unwrap();
        assert_eq!(all.experiments, EXPERIMENTS.to_vec());
        assert!(!all.quick && !all.gate);
        let some = parse_args(&args(&["PAPER", "e0", "quick", "gate"])).unwrap();
        assert_eq!(some.experiments, vec!["paper", "e0"]);
        assert!(some.quick && some.gate);
        let modifiers_only = parse_args(&args(&["quick"])).unwrap();
        assert_eq!(modifiers_only.experiments.len(), 4);
    }

    #[test]
    fn unknown_selections_are_usage_errors() {
        for bad in [
            "e42", "quikc", "e2", "e3", "e4", "e6", "e7", "e13", "e12", "",
        ] {
            let err = parse_args(&args(&["e0", bad])).unwrap_err();
            assert!(err.contains(&format!("`{bad}`")), "{err}");
            for name in ["e0", "e5", "paper", "quick", "gate"] {
                assert!(err.contains(name), "usage must name {name}: {err}");
            }
        }
    }

    #[test]
    fn a_bar_passes_at_its_floor_and_fails_below() {
        let ok = check_bar("E1 cell", (2.6, 2.0), 1.3).unwrap();
        assert_eq!(ok, "E1 cell: 1.30x (floor 1.30x)");
        assert!(check_bar("E5 cell", (100.0, 10.0), 10.0).is_ok());
        let miss = check_bar("E1 cell", (1.29, 1.0), 1.3).unwrap_err();
        assert_eq!(miss, "E1 cell: 1.29x (floor 1.30x)");
    }

    #[test]
    fn a_bar_without_a_valid_measurement_fails() {
        for cell in [
            (f64::NAN, 1.0),
            (1.0, f64::NAN),
            (1.0, 0.0),
            (0.0, 0.0),
            (f64::INFINITY, 1.0),
            (1.0, -1.0),
        ] {
            let err = check_bar("E1 cell", cell, 1.3).unwrap_err();
            assert!(err.contains("no valid ratio"), "{cell:?}: {err}");
        }
        // A zero numerator is a measured ratio of 0, below any floor.
        assert!(check_bar("E5 cell", (0.0, 1.0), 10.0).is_err());
    }

    /// A snapshot whose mixed cells run at `rates` (n, updates/s) with the
    /// given calibration, written by the real writer.
    fn snapshot(calibration_ns: f64, rates: &[(usize, f64)]) -> String {
        let meta = RunMeta {
            git_sha: "snap".into(),
            cores: 2,
            threads: 1,
        };
        let records: Vec<BenchRecord> = rates
            .iter()
            .flat_map(|&(n, rate)| {
                // Three reps around `rate`, so the gate must take the median.
                [0.5, 1.0, 1.5].map(|f| BenchRecord {
                    structure: "arena-seq".into(),
                    stream: "mixed".into(),
                    n,
                    k: 10,
                    ops: 1_000,
                    elapsed_ns: (1e12 / (rate * f)).round() as u128,
                })
            })
            .collect();
        bench_records_to_json("update_time", &meta, calibration_ns, &records)
    }

    #[test]
    fn gate_passes_equal_and_fails_a_slowdown() {
        let snap = snapshot(2e6, &[(1_000, 30_000.0), (10_000, 10_000.0)]);
        let run = [(1_000, 30_000.0), (10_000, 10_000.0)];
        let ok = gate_decision(Some(&snap), &run, 2e6).unwrap();
        assert!(ok.contains("n = 10000") && ok.contains("1.00x"), "{ok}");
        // The same code on a machine twice as fast: rates double, the
        // calibration halves, and the gate still passes.
        let fast = [(10_000, 20_000.0)];
        assert!(gate_decision(Some(&snap), &fast, 1e6).is_ok());
        // 1.6x slower after calibration fails.
        let slow = [(10_000, 10_000.0 / 1.6)];
        let err = gate_decision(Some(&snap), &slow, 2e6).unwrap_err();
        assert!(err.contains("(0.62x; floor 0.67x)"), "{err}");
        // Only a shared n is compared: the largest one.
        let larger = [(10_000, 10_000.0), (100_000, 1.0)];
        assert!(gate_decision(Some(&snap), &larger, 2e6).is_ok());
    }

    #[test]
    fn gate_fails_without_snapshot_calibration_or_cell() {
        let run = [(10_000, 10_000.0)];
        let missing = gate_decision(None, &run, 2e6).unwrap_err();
        assert!(missing.contains("no committed"), "{missing}");
        let uncalibrated =
            snapshot(0.0, &[(10_000, 10_000.0)]).replace(", \"calibration_ns\": 0", "");
        let err = gate_decision(Some(&uncalibrated), &run, 2e6).unwrap_err();
        assert!(err.contains("calibration_ns"), "{err}");
        let other_cell = snapshot(2e6, &[(100_000, 1_000.0)]);
        let err = gate_decision(Some(&other_cell), &run, 2e6).unwrap_err();
        assert!(err.contains("shares no mixed-stream n"), "{err}");
        let snap = snapshot(2e6, &[(10_000, 10_000.0)]);
        let err = gate_decision(Some(&snap), &run, 0.0).unwrap_err();
        assert!(err.contains("no calibration"), "{err}");
    }
}
