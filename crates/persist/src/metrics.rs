//! Always-on `pdmsf_persist_*` instrumentation, backed by the
//! [`pdmsf_obs::global`] registry.
//!
//! Persistence events are rare relative to the structures they guard (one
//! WAL record per state-mutating batch, one checkpoint per policy window),
//! so unlike the engine and shard layers there is no opt-in switch: every
//! append, fsync and checkpoint records unconditionally. The cost is one
//! `OnceLock` initialized-check plus a handful of relaxed atomic adds per
//! event — noise next to the I/O it measures.

use std::io::{self, Write};
use std::sync::{Arc, OnceLock};

use pdmsf_obs as obs;

pub(crate) struct PersistMetrics {
    /// WAL record serialization + write latency, the `wal.append` phase
    /// (excludes the fsync, which `wal_fsync_ns` reports separately).
    pub wal_append_ns: Arc<obs::Histogram>,
    /// Durability-barrier latency per [`crate::OpLogWriter::sync`], the
    /// `wal.fsync` phase.
    pub wal_fsync_ns: Arc<obs::Histogram>,
    pub wal_bytes: Arc<obs::Counter>,
    pub wal_records: Arc<obs::Counter>,
    /// End-to-end duration of one checkpoint serialization, the
    /// `persist.checkpoint` phase.
    pub checkpoint_ns: Arc<obs::Histogram>,
    pub checkpoint_bytes: Arc<obs::Counter>,
    /// Size of the most recent checkpoint, for capacity dashboards.
    pub checkpoint_last_bytes: Arc<obs::Gauge>,
    pub checkpoints: Arc<obs::Counter>,
}

static PERSIST_METRICS: OnceLock<PersistMetrics> = OnceLock::new();

pub(crate) fn metrics() -> &'static PersistMetrics {
    PERSIST_METRICS.get_or_init(|| {
        let r = obs::global();
        PersistMetrics {
            wal_append_ns: r.histogram(
                "pdmsf_persist_wal_append_ns",
                "op-log record serialize+write latency (excluding fsync)",
            ),
            wal_fsync_ns: r.histogram(
                "pdmsf_persist_wal_fsync_ns",
                "op-log durability barrier latency",
            ),
            wal_bytes: r.counter(
                "pdmsf_persist_wal_bytes_total",
                "bytes appended to op logs (headers excluded)",
            ),
            wal_records: r.counter(
                "pdmsf_persist_wal_records_total",
                "records appended to op logs",
            ),
            checkpoint_ns: r.histogram(
                "pdmsf_persist_checkpoint_ns",
                "checkpoint serialization duration",
            ),
            checkpoint_bytes: r.counter(
                "pdmsf_persist_checkpoint_bytes_total",
                "bytes written by checkpoints",
            ),
            checkpoint_last_bytes: r.gauge(
                "pdmsf_persist_checkpoint_last_bytes",
                "size of the most recent checkpoint",
            ),
            checkpoints: r.counter("pdmsf_persist_checkpoints_total", "checkpoints written"),
        }
    })
}

/// A pass-through [`Write`] adapter counting the bytes that reach the inner
/// sink — how the checkpoint paths learn their output size without touching
/// the serializers.
pub(crate) struct CountingWriter<W> {
    inner: W,
    pub written: u64,
}

impl<W: Write> CountingWriter<W> {
    pub fn new(inner: W) -> Self {
        CountingWriter { inner, written: 0 }
    }
}

impl<W: Write> Write for CountingWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.written += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}
