//! Parallel depth / work / processor accounting.
//!
//! The accounting convention follows the paper's statements:
//!
//! * **depth** — number of synchronous PRAM rounds (the paper's "parallel
//!   worst-case time"),
//! * **work** — total number of primitive operations summed over all
//!   processors and rounds,
//! * **processors** — the number of processors a round needs; the peak over
//!   an operation is the machine size the operation requires.
//!
//! A [`CostMeter`] accumulates rounds; [`CostMeter::finish_op`] snapshots the
//! cost of one graph update so the experiments can report per-update
//! worst-case and mean values, exactly the quantities in Theorems 1.1/3.1.

/// How the structures execute their kernels.
///
/// Kernels run on the calling thread and charge the PRAM rounds to the
/// meter; this is the only mode. At the chunk parameter the engines serve
/// with, `CAdj` rows stay below [`crate::kernels::PAR_CUTOFF`] entries, where
/// a pooled row scan loses to an inline one.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// Simulate the PRAM rounds on the calling thread, charging costs to the
    /// meter. Deterministic.
    #[default]
    Simulated,
}

/// Cost of one operation (or of a whole run) in the PRAM model.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CostReport {
    /// Number of synchronous parallel rounds.
    pub depth: u64,
    /// Total primitive operations across all processors.
    pub work: u64,
    /// Peak number of processors used by any single round.
    pub peak_processors: u64,
}

impl CostReport {
    /// Merge another report as if it ran *after* this one (depths and work
    /// add, peak processors take the maximum).
    pub fn then(self, other: CostReport) -> CostReport {
        CostReport {
            depth: self.depth + other.depth,
            work: self.work + other.work,
            peak_processors: self.peak_processors.max(other.peak_processors),
        }
    }

    /// Merge another report as if it ran *concurrently* with this one
    /// (depth takes the maximum, work adds, processors add).
    pub fn alongside(self, other: CostReport) -> CostReport {
        CostReport {
            depth: self.depth.max(other.depth),
            work: self.work + other.work,
            peak_processors: self.peak_processors + other.peak_processors,
        }
    }
}

/// Accumulator of PRAM costs.
///
/// The meter tracks both a *cumulative* total (over its whole lifetime) and a
/// *current operation* that is reset by [`CostMeter::begin_op`] /
/// [`CostMeter::finish_op`]. It also remembers the most expensive operation
/// seen so far, which is what "worst-case update time" experiments report.
#[derive(Clone, Debug, Default)]
pub struct CostMeter {
    total: CostReport,
    current: CostReport,
    worst_op: CostReport,
    ops: u64,
}

impl CostMeter {
    /// A fresh meter with all counters at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one parallel round that uses `processors` processors and
    /// performs `work` primitive operations in `depth` synchronous steps.
    pub fn round(&mut self, processors: u64, depth: u64, work: u64) {
        self.current.depth += depth;
        self.current.work += work;
        self.current.peak_processors = self.current.peak_processors.max(processors);
        self.total.depth += depth;
        self.total.work += work;
        self.total.peak_processors = self.total.peak_processors.max(processors);
    }

    /// Record sequential work performed by a single processor (`depth ==
    /// work == amount`).
    pub fn sequential(&mut self, amount: u64) {
        self.round(1, amount, amount);
    }

    /// Start measuring a new operation (clears the per-operation counters).
    pub fn begin_op(&mut self) {
        self.current = CostReport::default();
    }

    /// Finish the current operation, fold it into the worst-case tracker and
    /// return its cost.
    pub fn finish_op(&mut self) -> CostReport {
        let report = self.current;
        self.ops += 1;
        if report.depth > self.worst_op.depth
            || (report.depth == self.worst_op.depth && report.work > self.worst_op.work)
        {
            self.worst_op = report;
        }
        self.current = CostReport::default();
        report
    }

    /// Cumulative cost since the meter was created.
    pub fn total(&self) -> CostReport {
        self.total
    }

    /// Cost of the current (unfinished) operation.
    pub fn current(&self) -> CostReport {
        self.current
    }

    /// The most expensive single operation seen so far (by depth, then work).
    pub fn worst_op(&self) -> CostReport {
        self.worst_op
    }

    /// Number of finished operations.
    pub fn num_ops(&self) -> u64 {
        self.ops
    }

    /// Mean work per finished operation (0 if none).
    pub fn mean_work(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.total.work as f64 / self.ops as f64
        }
    }

    /// Mean depth per finished operation (0 if none).
    pub fn mean_depth(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.total.depth as f64 / self.ops as f64
        }
    }

    /// Reset every counter.
    pub fn reset(&mut self) {
        *self = CostMeter::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_accumulate() {
        let mut m = CostMeter::new();
        m.begin_op();
        m.round(8, 3, 24);
        m.round(4, 1, 4);
        let op = m.finish_op();
        assert_eq!(
            op,
            CostReport {
                depth: 4,
                work: 28,
                peak_processors: 8
            }
        );
        assert_eq!(m.total().work, 28);
        assert_eq!(m.num_ops(), 1);
    }

    #[test]
    fn worst_op_tracks_deepest_operation() {
        let mut m = CostMeter::new();
        m.begin_op();
        m.round(2, 10, 20);
        m.finish_op();
        m.begin_op();
        m.round(16, 3, 48);
        m.finish_op();
        assert_eq!(m.worst_op().depth, 10);
        assert_eq!(m.num_ops(), 2);
        assert!((m.mean_depth() - 6.5).abs() < 1e-9);
        assert!((m.mean_work() - 34.0).abs() < 1e-9);
    }

    #[test]
    fn sequential_charges_single_processor() {
        let mut m = CostMeter::new();
        m.begin_op();
        m.sequential(5);
        let op = m.finish_op();
        assert_eq!(op.depth, 5);
        assert_eq!(op.work, 5);
        assert_eq!(op.peak_processors, 1);
    }

    #[test]
    fn report_composition() {
        let a = CostReport {
            depth: 3,
            work: 10,
            peak_processors: 4,
        };
        let b = CostReport {
            depth: 5,
            work: 7,
            peak_processors: 2,
        };
        assert_eq!(
            a.then(b),
            CostReport {
                depth: 8,
                work: 17,
                peak_processors: 4
            }
        );
        assert_eq!(
            a.alongside(b),
            CostReport {
                depth: 5,
                work: 17,
                peak_processors: 6
            }
        );
    }

    #[test]
    fn reset_clears_everything() {
        let mut m = CostMeter::new();
        m.begin_op();
        m.round(1, 1, 1);
        m.finish_op();
        m.reset();
        assert_eq!(m.total(), CostReport::default());
        assert_eq!(m.num_ops(), 0);
    }
}
