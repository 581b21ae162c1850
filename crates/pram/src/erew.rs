//! EREW (exclusive-read exclusive-write) access checking.
//!
//! The correctness arguments of the paper's Section 3 repeatedly hinge on an
//! *exclusive-assignment property*: in every synchronous step, no two
//! processors read or write the same memory cell. [`AccessLog`] lets the
//! phased tournament in [`crate::kernels`] record every simulated access
//! and then assert that the property really holds — turning the paper's
//! prose argument into an executable check. The structure in `pdmsf-core`
//! does not log its accesses.

use std::collections::HashMap;

/// Whether an access reads or writes the cell.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// The processor reads the cell.
    Read,
    /// The processor writes the cell.
    Write,
}

/// A detected violation of the EREW discipline.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// The synchronous step in which the conflict happened.
    pub step: u64,
    /// The memory cell that was accessed by more than one processor.
    pub cell: u64,
    /// The processors involved (at least two).
    pub processors: Vec<u32>,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct AccessRecord {
    step: u64,
    cell: u64,
}

/// A log of simulated memory accesses, organised by synchronous step.
///
/// Cells are identified by caller-chosen `u64` values; the kernels use simple
/// encodings such as `(array_id << 32) | index`.
#[derive(Clone, Debug, Default)]
pub struct AccessLog {
    current_step: u64,
    /// (step, cell) -> processors that touched it in that step.
    touched: HashMap<AccessRecord, Vec<u32>>,
    accesses: u64,
}

impl AccessLog {
    /// A fresh, empty log positioned at step 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// The step subsequent accesses will be recorded under.
    pub fn current_step(&self) -> u64 {
        self.current_step
    }

    /// Total number of accesses recorded.
    pub fn num_accesses(&self) -> u64 {
        self.accesses
    }

    /// Advance to the next synchronous step.
    pub fn next_step(&mut self) {
        self.current_step += 1;
    }

    /// Record that `processor` accessed `cell` in the current step.
    ///
    /// In the EREW model a read and a write to the same cell in the same step
    /// conflict just like two writes do, so the kind is recorded only for
    /// diagnostics and both kinds count towards violations.
    pub fn access(&mut self, processor: u32, cell: u64, _kind: AccessKind) {
        self.accesses += 1;
        self.touched
            .entry(AccessRecord {
                step: self.current_step,
                cell,
            })
            .or_default()
            .push(processor);
    }

    /// All violations recorded so far (cells touched by two *distinct*
    /// processors in the same step).
    pub fn violations(&self) -> Vec<Violation> {
        let mut out = Vec::new();
        for (rec, procs) in &self.touched {
            let mut distinct = procs.clone();
            distinct.sort_unstable();
            distinct.dedup();
            if distinct.len() > 1 {
                out.push(Violation {
                    step: rec.step,
                    cell: rec.cell,
                    processors: distinct,
                });
            }
        }
        out.sort_by_key(|v| (v.step, v.cell));
        out
    }

    /// Whether the log is EREW-clean.
    pub fn is_exclusive(&self) -> bool {
        self.touched.iter().all(|(_, procs)| {
            procs.windows(2).all(|w| w[0] == w[1]) || {
                let mut d = procs.clone();
                d.sort_unstable();
                d.dedup();
                d.len() <= 1
            }
        })
    }

    /// Panic with a readable message if any violation was recorded.
    pub fn assert_exclusive(&self) {
        let violations = self.violations();
        assert!(
            violations.is_empty(),
            "EREW violations detected: {violations:?}"
        );
    }
}

/// Helper to build cell identifiers: `region` tags an array / structure and
/// `index` the element within it.
#[inline]
pub fn cell(region: u32, index: u32) -> u64 {
    ((region as u64) << 32) | index as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exclusive_accesses_pass() {
        let mut log = AccessLog::new();
        log.access(0, cell(1, 0), AccessKind::Write);
        log.access(1, cell(1, 1), AccessKind::Write);
        log.next_step();
        // Same cell in a *different* step is fine.
        log.access(1, cell(1, 0), AccessKind::Read);
        assert!(log.is_exclusive());
        log.assert_exclusive();
        assert_eq!(log.num_accesses(), 3);
        assert_eq!(log.current_step(), 1);
    }

    #[test]
    fn concurrent_accesses_are_detected() {
        let mut log = AccessLog::new();
        log.access(0, cell(2, 7), AccessKind::Read);
        log.access(3, cell(2, 7), AccessKind::Write);
        assert!(!log.is_exclusive());
        let v = log.violations();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].cell, cell(2, 7));
        assert_eq!(v[0].processors, vec![0, 3]);
    }

    #[test]
    #[should_panic(expected = "EREW violations")]
    fn assert_exclusive_panics_on_conflict() {
        let mut log = AccessLog::new();
        log.access(0, 5, AccessKind::Write);
        log.access(1, 5, AccessKind::Write);
        log.assert_exclusive();
    }

    #[test]
    fn same_processor_may_touch_a_cell_twice() {
        let mut log = AccessLog::new();
        log.access(4, 9, AccessKind::Read);
        log.access(4, 9, AccessKind::Write);
        assert!(log.is_exclusive());
    }

    #[test]
    fn cell_encoding_is_injective_per_region() {
        assert_ne!(cell(0, 1), cell(1, 0));
        assert_ne!(cell(2, 3), cell(2, 4));
    }
}
