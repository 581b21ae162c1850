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
//! Meter counts are deterministic, so these checks cannot flake, and every
//! number in `BENCH_paper.json` is a meter count or a fit over meter
//! counts: a full run rewrites the committed file byte for byte except its
//! `meta` line. No wall-clock time is recorded.

use crate::{cost_profile, erew_msf, mixed_stream, RunMeta};
use pdmsf_core::SeqDynamicMsf;

/// Seed of the mixed streams the fitted series run on.
const SEED: u64 = 21;

const OPEN: f64 = f64::INFINITY;

/// Each fitted series and the band its exponent must stay in (see the
/// module docs).
const BANDS: [(&str, f64, f64); 4] = [
    ("pram_worst_depth", -OPEN, 0.25),
    ("pram_mean_work", 0.35, 0.75),
    ("pram_peak_processors", 0.35, 0.65),
    ("seq_mean_work", -OPEN, 0.75),
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
    /// Lowest allowed exponent (`-inf`: no floor).
    min: f64,
    /// Highest allowed exponent.
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
/// both tables and the fits, write `BENCH_paper.json` to the working
/// directory and return the failed checks (empty when the paper's bounds
/// hold).
pub fn run(sizes: &[usize], ops: usize) -> Vec<String> {
    println!("\n== paper: the paper's cost bounds, fitted over n (writes BENCH_paper.json) ==");
    let (sections, fits) = scaling_sections(sizes, ops);
    sections.iter().for_each(Section::print);
    println!("\n-- fits: exponent b of cost ∝ n^b over n = {sizes:?} --");
    let mut failures = Vec::new();
    for fit in &fits {
        let (name, b) = (fit.name, fit.exponent);
        let band = format!("[{}, {}]", number(fit.min), number(fit.max));
        let verdict = if fit.ok() { "ok" } else { "FAIL" };
        println!("{name:>22} {b:>7.3}  {band:>14}  {verdict}");
        if !fit.ok() {
            failures.push(format!("{name} exponent {b:.3} is outside {band}"));
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

/// The PRAM profile (Theorems 1.1/3.1) and the sequential profile
/// (Theorem 1.2) per size, and the fits over them.
fn scaling_sections(sizes: &[usize], ops: usize) -> ([Section; 2], Vec<Fit>) {
    let pram_columns = "n k worst_depth mean_depth worst_work mean_work peak_processors";
    let mut pram = Section::new("pram", pram_columns);
    let mut sequential = Section::new("sequential", "n k mean_work");
    let mut series: [Vec<(f64, f64)>; 4] = Default::default();
    for &n in sizes {
        // The fit inputs: the structure's EREW costs at `K = sqrt n` and
        // its sequential costs at `K = sqrt(n log n)`, over the same
        // stream.
        let stream = mixed_stream(n, 2 * n, ops, SEED);
        let par = cost_profile(erew_msf(n), &stream);
        let seq = cost_profile(SeqDynamicMsf::new(n), &stream);
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
        sequential.rows.push(vec![x, seq.k as f64, seq.mean_work]);
        let ys = [worst_depth, mean_work, procs, seq.mean_work];
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
    ([pram, sequential], fits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pram_profile;

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
        let seq = || cost_profile(SeqDynamicMsf::new(256), &mixed_stream(256, 512, 200, SEED));
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
