//! The `paper` experiment: the source paper's cost bounds as one checked
//! artifact, `BENCH_paper.json`.
//!
//! The paper claims three bounds per update: `O(log n)` depth and
//! `O(sqrt(n) log n)` work on `O(sqrt n)` EREW processors (Theorems 1.1 and
//! 3.1), and `O(sqrt(n log n))` sequential time (Theorem 1.2). The
//! experiment reads each update's cost from the structures' own meters
//! right after the update (the base-graph build is not counted), fits a
//! power law `cost ∝ n^b` over the sizes, and checks every exponent `b`
//! against a band around its bound (`BANDS`):
//!
//! | series                 | bound              | band        |
//! |------------------------|--------------------|-------------|
//! | `pram_worst_depth`     | `O(log n)`         | ≤ 0.25      |
//! | `pram_mean_work`       | `O(sqrt(n) log n)` | 0.35 – 0.75 |
//! | `pram_peak_processors` | `O(sqrt n)`        | 0.35 – 0.65 |
//! | `seq_mean_work`        | `O(sqrt(n log n))` | ≤ 0.75      |
//!
//! Meter counts are deterministic, so these checks cannot flake. Every EREW
//! tournament must also pass the exclusive-access check. The wall-clock
//! tables (sequential µs per update next to the naive and recompute
//! baselines, the MWR-heavy delete stream, the `K` ablation and the
//! sparsification density sweep) and the sequential wall-clock exponent
//! are reported, not checked.

use crate::{
    cost_profile, drive_updates_only, failure_stream, kruskal_ns, mixed_stream, pram_profile,
    seq_mean_update_time, RunMeta,
};
use pdmsf_baselines::NaiveDynamicMsf;
use pdmsf_core::{seq::default_sequential_k, ParDynamicMsf, SeqDynamicMsf, SparsifiedMsf};
use pdmsf_graph::UpdateStream;
use pdmsf_pram::{erew_tournament_min, par_min_index, AccessLog, CostMeter};
use std::time::Duration;

/// Seed of the mixed streams the fitted series run on.
const SEED: u64 = 21;

/// Updates the `O(m)`-per-delete naive baseline is timed on.
const BASELINE_OPS: usize = 300;

const OPEN: f64 = f64::INFINITY;

/// Each fitted series and the band its exponent must stay in (see the
/// module docs); the wall-clock series is reported only.
const BANDS: [(&str, f64, f64); 5] = [
    ("pram_worst_depth", -OPEN, 0.25),
    ("pram_mean_work", 0.35, 0.75),
    ("pram_peak_processors", 0.35, 0.65),
    ("seq_mean_work", -OPEN, 0.75),
    ("seq_wall_clock_us", -OPEN, OPEN),
];

/// One printed table and its `BENCH_paper.json` section: named columns and
/// rows of numbers.
pub(crate) struct Section {
    /// JSON key of the section.
    name: &'static str,
    /// Column names, also the keys of each JSON row.
    columns: Vec<&'static str>,
    /// One value per column in each row.
    rows: Vec<Vec<f64>>,
}

impl Section {
    /// An empty section; `columns` are separated by spaces.
    fn new(name: &'static str, columns: &'static str) -> Self {
        let columns = columns.split_whitespace().collect();
        Section {
            name,
            columns,
            rows: Vec::new(),
        }
    }

    fn print(&self) {
        println!("\n-- {} --", self.name);
        let line = |cells: Vec<String>| {
            let padded: Vec<String> = (self.columns.iter().zip(cells))
                .map(|(c, cell)| format!("{cell:>w$}", w = c.len().max(10)))
                .collect();
            println!("{}", padded.join(" "));
        };
        line(self.columns.iter().map(|c| c.to_string()).collect());
        for row in &self.rows {
            line(row.iter().map(|&v| number(v)).collect());
        }
    }

    fn to_json(&self) -> String {
        let rows: Vec<String> = (self.rows.iter())
            .map(|row| {
                let fields: Vec<String> = (self.columns.iter().zip(row))
                    .map(|(c, &v)| format!("\"{c}\": {}", number(v)))
                    .collect();
                format!("    {{{}}}", fields.join(", "))
            })
            .collect();
        format!("  \"{}\": [\n{}\n  ]", self.name, rows.join(",\n"))
    }
}

/// Integers print as integers, other finite values with three decimals,
/// open bounds as `null`.
fn number(v: f64) -> String {
    if !v.is_finite() {
        "null".to_string()
    } else if v.fract() == 0.0 {
        format!("{v:.0}")
    } else {
        format!("{v:.3}")
    }
}

/// One fitted exponent next to its band.
pub(crate) struct Fit {
    /// Series name.
    name: &'static str,
    /// Fitted exponent `b` of `cost ∝ n^b`.
    exponent: f64,
    /// Lowest allowed exponent (`-inf`: open).
    min: f64,
    /// Highest allowed exponent (`inf`: open).
    max: f64,
}

impl Fit {
    /// Whether the exponent lies inside its band (a NaN exponent never
    /// does).
    fn ok(&self) -> bool {
        self.min <= self.exponent && self.exponent <= self.max
    }
}

/// Least-squares slope of `ln y` against `ln x`: the exponent `b` of the
/// power law `y = a·x^b` that best fits `points`.
fn power_law_exponent(points: &[(f64, f64)]) -> f64 {
    let logs: Vec<(f64, f64)> = points.iter().map(|&(x, y)| (x.ln(), y.ln())).collect();
    let k = logs.len() as f64;
    let mx = logs.iter().map(|p| p.0).sum::<f64>() / k;
    let my = logs.iter().map(|p| p.1).sum::<f64>() / k;
    let sxy: f64 = logs.iter().map(|&(x, y)| (x - mx) * (y - my)).sum();
    let sxx: f64 = logs.iter().map(|&(x, _)| (x - mx) * (x - mx)).sum();
    sxy / sxx
}

/// Run the experiment at `sizes` with `ops` updates per mixed stream: print
/// every table, write `BENCH_paper.json` to the working directory and
/// return the failed checks (empty when the paper's bounds hold).
pub fn run(sizes: &[usize], ops: usize) -> Vec<String> {
    println!("\n== paper: the paper's cost bounds, fitted over n (writes BENCH_paper.json) ==");
    let (pram, sequential, fits) = scaling_sections(sizes, ops);
    let sections = [
        erew_section(),
        pram,
        sequential,
        mwr_section(sizes),
        chunk_section(sizes, ops),
        sparsification_section(sizes, ops),
    ];
    sections.iter().for_each(Section::print);
    let mut failures: Vec<String> = (sections[0].rows.iter())
        .filter(|row| row[4] != 1.0)
        .map(|row| format!("EREW tournament over {} elements is not exclusive", row[0]))
        .collect();
    println!("\n-- fits: exponent b of cost ∝ n^b over n = {sizes:?} --");
    for fit in &fits {
        let band = format!("[{}, {}]", number(fit.min), number(fit.max));
        let verdict = match (fit.ok(), fit.min.is_finite() || fit.max.is_finite()) {
            (false, _) => "FAIL",
            (true, true) => "ok",
            (true, false) => "reported",
        };
        println!(
            "{:>22} {:>7.3}  {band:>14}  {verdict}",
            fit.name, fit.exponent
        );
        if !fit.ok() {
            let b = fit.exponent;
            failures.push(format!("{} exponent {b:.3} is outside {band}", fit.name));
        }
    }
    let path = "BENCH_paper.json";
    let json = paper_json(&RunMeta::collect(), &sections, &fits, &failures);
    std::fs::write(path, json).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    println!("wrote {path}");
    failures
}

/// `BENCH_paper.json`: run metadata, one array per section, the fits and
/// the failed checks (hand-rolled JSON; no value needs escaping).
pub(crate) fn paper_json(
    meta: &RunMeta,
    sections: &[Section],
    fits: &[Fit],
    failures: &[String],
) -> String {
    let mut parts = vec![
        "  \"benchmark\": \"paper\"".to_string(),
        format!("  \"meta\": {}", meta.to_json()),
    ];
    parts.extend(sections.iter().map(Section::to_json));
    let fits: Vec<String> = (fits.iter())
        .map(|f| {
            let (b, min, max, ok) = (f.exponent, number(f.min), number(f.max), f.ok());
            let body =
                format!("\"exponent\": {b:.4}, \"min\": {min}, \"max\": {max}, \"ok\": {ok}");
            format!("    \"{}\": {{{body}}}", f.name)
        })
        .collect();
    parts.push(format!("  \"fits\": {{\n{}\n  }}", fits.join(",\n")));
    let failures: Vec<String> = failures.iter().map(|f| format!("\"{f}\"")).collect();
    parts.push(format!("  \"failures\": [{}]", failures.join(", ")));
    format!("{{\n{}\n}}\n", parts.join(",\n"))
}

/// The phased tournament of Lemma 3.1 under the EREW access checker.
fn erew_section() -> Section {
    let mut section = Section::new("erew", "elements depth work accesses exclusive");
    for size in [1usize << 8, 1 << 10, 1 << 12, 1 << 14] {
        let xs: Vec<u64> = (0..size as u64)
            .map(|i| (i * 2654435761) % 1_000_003)
            .collect();
        let mut meter = CostMeter::new();
        let mut log = AccessLog::new();
        let winner = erew_tournament_min(&xs, &mut meter, Some(&mut log))
            .expect("a non-empty input has a minimum");
        assert_eq!(Some(winner), par_min_index(&xs, &mut CostMeter::new()));
        let total = meter.total();
        let exclusive = if log.is_exclusive() { 1.0 } else { 0.0 };
        let accesses = log.num_accesses() as f64;
        let (depth, work) = (total.depth as f64, total.work as f64);
        let row = vec![size as f64, depth, work, accesses, exclusive];
        section.rows.push(row);
    }
    section
}

/// The PRAM profile (Theorems 1.1/3.1) and the sequential profile
/// (Theorem 1.2) per size, and the fits over them.
fn scaling_sections(sizes: &[usize], ops: usize) -> (Section, Section, Vec<Fit>) {
    let pram_columns = "n k worst_depth mean_depth worst_work mean_work peak_processors";
    let mut pram = Section::new("pram", pram_columns);
    let sequential_columns = "n k mean_work mean_update_us naive_us recompute_us";
    let mut sequential = Section::new("sequential", sequential_columns);
    let mut series: [Vec<(f64, f64)>; 5] = Default::default();
    for &n in sizes {
        // The fit inputs: the parallel structure's EREW costs at
        // `K = sqrt n` and the sequential one's at `K = sqrt(n log n)`,
        // over the same stream.
        let stream = mixed_stream(n, 2 * n, ops, SEED);
        let par = pram_profile(n, ops, SEED);
        let (seq, elapsed) = cost_profile(SeqDynamicMsf::new(n), &stream);
        let seq_us = micros(elapsed, seq.updates as usize);
        let naive_us = naive_update_us(&stream);
        let recompute_us = kruskal_ns(&stream.replay_with(|_, _| {}), 5) / 1e3;
        let x = n as f64;
        let (worst_depth, worst_work) = (par.worst.depth as f64, par.worst.work as f64);
        let procs = par.peak_processors as f64;
        let (mean_depth, mean_work) = (par.mean_depth, par.mean_work);
        let row = vec![
            x,
            par.k as f64,
            worst_depth,
            mean_depth,
            worst_work,
            mean_work,
            procs,
        ];
        pram.rows.push(row);
        let row = vec![
            x,
            seq.k as f64,
            seq.mean_work,
            seq_us,
            naive_us,
            recompute_us,
        ];
        sequential.rows.push(row);
        let ys = [worst_depth, mean_work, procs, seq.mean_work, seq_us];
        for (points, y) in series.iter_mut().zip(ys) {
            points.push((x, y));
        }
    }
    let fits = (BANDS.iter().zip(&series))
        .map(|(&(name, min, max), points)| Fit {
            name,
            exponent: power_law_exponent(points),
            min,
            max,
        })
        .collect();
    (pram, sequential, fits)
}

/// Mean µs per update of the naive baseline over the first
/// [`BASELINE_OPS`] updates of `stream`.
fn naive_update_us(stream: &UpdateStream) -> f64 {
    let mut short = stream.clone();
    short.ops.truncate(BASELINE_OPS);
    let mut naive = NaiveDynamicMsf::new(stream.num_vertices);
    let (elapsed, updates) = drive_updates_only(&mut naive, &short);
    micros(elapsed, updates)
}

/// Delete-only (MWR-heavy) streams: per-delete cost vs `n`.
fn mwr_section(sizes: &[usize]) -> Section {
    let mut section = Section::new("mwr", "n seq_us naive_us par_worst_depth");
    for &n in sizes {
        let stream = failure_stream(n, 2 * n, 51);
        let (t_seq, o_seq) = drive_updates_only(&mut SeqDynamicMsf::new(n), &stream);
        let (par, _) = cost_profile(ParDynamicMsf::new(n), &stream);
        let (seq_us, naive_us) = (micros(t_seq, o_seq), naive_update_us(&stream));
        let row = vec![n as f64, seq_us, naive_us, par.worst.depth as f64];
        section.rows.push(row);
    }
    section
}

/// Chunk-parameter ablation around the paper's `K* = sqrt(n log n)` at the
/// middle size.
fn chunk_section(sizes: &[usize], ops: usize) -> Section {
    let mut section = Section::new("chunk_ablation", "n k_over_kstar k mean_update_us");
    let n = sizes[sizes.len() / 2];
    let k_star = default_sequential_k(n);
    for factor in [0.25, 0.5, 1.0, 2.0, 4.0] {
        let k = ((k_star as f64 * factor) as usize).max(2);
        let us = seq_mean_update_time(n, k, ops.min(600), 41).as_secs_f64() * 1e6;
        section.rows.push(vec![n as f64, factor, k as f64, us]);
    }
    section
}

/// Update time vs density at fixed `n`, with and without sparsification
/// (Section 5).
fn sparsification_section(sizes: &[usize], ops: usize) -> Section {
    let columns = "n density levels sparsified_us naive_us";
    let mut section = Section::new("sparsification", columns);
    let n = sizes[0].max(256);
    for density in [2usize, 4, 8, 16, 32] {
        let m = density * n;
        let stream = mixed_stream(n, m, ops.min(400), 31);
        let mut sparse = SparsifiedMsf::new_with_capacity(n, 2 * m, SeqDynamicMsf::new);
        let levels = sparse.num_levels() as f64;
        let (t_sparse, o_sparse) = drive_updates_only(&mut sparse, &stream);
        let (t_naive, o_naive) = drive_updates_only(&mut NaiveDynamicMsf::new(n), &stream);
        let (sparse_us, naive_us) = (micros(t_sparse, o_sparse), micros(t_naive, o_naive));
        let row = vec![n as f64, density as f64, levels, sparse_us, naive_us];
        section.rows.push(row);
    }
    section
}

fn micros(d: Duration, ops: usize) -> f64 {
    d.as_secs_f64() * 1e6 / ops.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_law_fit_recovers_exact_exponents() {
        for b in [0.5, 1.0] {
            let points: Vec<(f64, f64)> = [256.0, 1024.0, 4096.0, 16384.0]
                .iter()
                .map(|&x: &f64| (x, 3.0 * x.powf(b)))
                .collect();
            assert!((power_law_exponent(&points) - b).abs() < 1e-12);
        }
    }

    #[test]
    fn fit_inputs_are_deterministic() {
        let seq = || cost_profile(SeqDynamicMsf::new(256), &mixed_stream(256, 512, 200, SEED)).0;
        let par = pram_profile(256, 200, SEED);
        assert_eq!(par, pram_profile(256, 200, SEED));
        assert_eq!(seq(), seq());
        assert_eq!(par.updates, 200);
        assert!(par.worst.depth > 0 && seq().mean_work > 0.0);
    }

    #[test]
    fn bands_accept_inside_and_reject_outside() {
        let fit = |exponent, min, max| Fit {
            name: "x",
            exponent,
            min,
            max,
        };
        assert!(fit(0.5, 0.35, 0.65).ok());
        assert!(!fit(0.99, 0.35, 0.65).ok());
        assert!(!fit(0.2, 0.35, OPEN).ok());
        assert!(fit(9.0, -OPEN, OPEN).ok());
        assert!(!fit(f64::NAN, -OPEN, 0.25).ok());
    }
}
