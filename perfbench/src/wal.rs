//! Benchmark-side wrappers around the write-ahead log of the `serve`
//! workload: a [`LogMedium`] over `File` that counts bytes and fsyncs and
//! spans each fsync, and an [`OpSink`] over `OpLogWriter` that spans each
//! record. Both forward to the program unchanged.

use std::fs::File;
use std::io::{self, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use pdmsf_engine::{LoggedBatch, OpSink};
use pdmsf_persist::{LogMedium, OpLogWriter};

use crate::trace;

/// Bytes written and fsyncs issued by one shard's log file.
#[derive(Default)]
pub struct WalCounts {
    pub bytes: AtomicU64,
    pub fsyncs: AtomicU64,
}

pub struct CountedFile {
    file: File,
    counts: Arc<WalCounts>,
}

impl CountedFile {
    pub fn new(file: File, counts: Arc<WalCounts>) -> CountedFile {
        CountedFile { file, counts }
    }
}

impl Write for CountedFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.file.write(buf)?;
        // Relaxed: a statistic, read after the pool jobs have joined.
        self.counts.bytes.fetch_add(n as u64, Ordering::Relaxed);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.file.flush()
    }
}

impl LogMedium for CountedFile {
    fn sync(&mut self) -> io::Result<()> {
        let _span = trace::span("persist.fsync");
        self.counts.fsyncs.fetch_add(1, Ordering::Relaxed);
        self.file.sync()
    }
}

pub struct SpannedSink(pub OpLogWriter<CountedFile>);

impl OpSink for SpannedSink {
    fn record(&mut self, seq: u64, batch: &LoggedBatch) -> io::Result<()> {
        let _span = trace::span("persist.record");
        self.0.record(seq, batch)
    }
}
