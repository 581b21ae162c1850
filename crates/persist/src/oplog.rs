//! The per-engine append-only op log: every state-mutating batch the engine
//! applies is serialized — sequence number, id base, planned updates — and
//! CRC-guarded *before* the batch executes (the engine enforces the
//! write-ahead order; see [`pdmsf_engine::OpSink`]).
//!
//! ## Record format
//!
//! A log stream is `magic ++ version ++ stream_id ++ record*`, each record
//!
//! ```text
//! seq: u64 | len: u32 | crc32(seq ++ payload): u32 | payload: [u8; len]
//! ```
//!
//! with the payload a [`LoggedBatch`] body (id base + tagged updates).
//!
//! ## Torn tails
//!
//! A crash can land mid-record: the process died while the final record was
//! being written. That is the *expected* failure mode of an append-only log,
//! not corruption — [`read_log`] stops at the first invalid record, returns
//! every record before it plus the byte offset of the valid prefix, and the
//! caller truncates the medium there before appending again. The dropped
//! tail is **reported** ([`LogReadReport::dropped_bytes`]), never silently
//! absorbed: the recovery layer surfaces it so an operator can tell "clean
//! shutdown" from "lost the final in-flight batch". Batches are acknowledged
//! to callers only after the log write returns, so a dropped tail can only
//! contain batches that were never acknowledged.

use std::fs::File;
use std::io::{self, Write};

use pdmsf_engine::{LoggedBatch, OpSink, PlannedUpdate};
use pdmsf_graph::{EdgeId, VertexId, Weight};
use pdmsf_obs::trace::{Phase, TSpan};

use crate::format::{payload_crc, PersistError, LOG_MAGIC, LOG_VERSION};
use crate::metrics::metrics;

/// Update tag byte: a link record follows.
const UPD_LINK: u8 = 0;
/// Update tag byte: a cut record follows.
const UPD_CUT: u8 = 1;
/// Encoded size of a link update: tag 1, id 4, u 4, v 4, weight 8, cancel
/// flag 1.
const LINK_BYTES: usize = 22;
/// Encoded size of a cut update: tag 1, id 4, cancel flag 1 (the smallest
/// update).
const CUT_BYTES: usize = 6;

/// A writable log device: an ordered byte sink with a durability barrier.
/// The generic parameter of [`OpLogWriter`] — files in production, in-memory
/// buffers and fault-injecting wrappers in tests.
pub trait LogMedium: Write {
    /// Make everything written so far durable (fsync for files; a no-op for
    /// memory media).
    fn sync(&mut self) -> io::Result<()>;
}

impl LogMedium for File {
    fn sync(&mut self) -> io::Result<()> {
        self.sync_data()
    }
}

impl LogMedium for Vec<u8> {
    fn sync(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl<M: LogMedium + ?Sized> LogMedium for &mut M {
    fn sync(&mut self) -> io::Result<()> {
        (**self).sync()
    }
}

/// When the log writer issues its durability barrier.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlushPolicy {
    /// Sync after every record — strongest durability, every acknowledged
    /// batch survives any crash.
    EveryBatch,
    /// Sync after every `n` records — bounded loss window of at most `n-1`
    /// acknowledged batches on a crash (plus whatever the OS flushed on its
    /// own).
    EveryN(u64),
    /// Never sync automatically; the caller invokes [`OpLogWriter::sync`]
    /// at its own checkpoints.
    Manual,
}

/// An append-only op-log writer over a [`LogMedium`]. Implements
/// [`OpSink`], so it plugs directly into [`pdmsf_engine::Engine::set_sink`].
pub struct OpLogWriter<M: LogMedium> {
    medium: M,
    policy: FlushPolicy,
    /// Records written since the last sync.
    unsynced: u64,
    /// Sequence number of the last record written (0 before any).
    last_seq: u64,
}

impl<M: LogMedium> OpLogWriter<M> {
    /// Start a **new** log on an empty medium: writes the stream header,
    /// syncs it, and accepts records starting at sequence 1.
    pub fn create(mut medium: M, stream_id: u32, policy: FlushPolicy) -> io::Result<Self> {
        medium.write_all(&LOG_MAGIC)?;
        medium.write_all(&LOG_VERSION.to_le_bytes())?;
        medium.write_all(&stream_id.to_le_bytes())?;
        medium.sync()?;
        Ok(OpLogWriter {
            medium,
            policy,
            unsynced: 0,
            last_seq: 0,
        })
    }

    /// Resume appending to an **existing** log. The medium must be
    /// positioned at the end of its valid prefix (after the caller truncated
    /// any torn tail reported by [`read_log`]); `last_seq` is the sequence
    /// number of the final valid record (0 if the log holds only a header).
    pub fn resume(medium: M, policy: FlushPolicy, last_seq: u64) -> Self {
        OpLogWriter {
            medium,
            policy,
            unsynced: 0,
            last_seq,
        }
    }

    /// Issue the durability barrier now.
    pub fn sync(&mut self) -> io::Result<()> {
        let span = TSpan::begin(
            Phase::WalFsync,
            Some(&metrics().wal_fsync_ns),
            self.last_seq,
            self.unsynced,
        );
        self.medium.sync()?;
        span.end();
        self.unsynced = 0;
        Ok(())
    }

    /// Sequence number of the last record written (0 if none yet).
    pub fn last_seq(&self) -> u64 {
        self.last_seq
    }

    /// Sync and hand back the medium.
    pub fn into_medium(mut self) -> io::Result<M> {
        self.medium.sync()?;
        Ok(self.medium)
    }
}

impl<M: LogMedium + Send> OpSink for OpLogWriter<M> {
    fn record(&mut self, seq: u64, batch: &LoggedBatch) -> io::Result<()> {
        debug_assert_eq!(seq, batch.seq);
        if seq != self.last_seq + 1 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "op log got seq {seq} after {}: the log would not replay",
                    self.last_seq
                ),
            ));
        }
        let m = metrics();
        let span = TSpan::begin(
            Phase::WalAppend,
            Some(&m.wal_append_ns),
            seq,
            batch.updates.len() as u64,
        );
        let payload = encode_batch(batch);
        self.medium.write_all(&seq.to_le_bytes())?;
        self.medium
            .write_all(&(payload.len() as u32).to_le_bytes())?;
        self.medium
            .write_all(&payload_crc(seq, &payload).to_le_bytes())?;
        self.medium.write_all(&payload)?;
        span.end();
        m.wal_bytes.add(16 + payload.len() as u64);
        m.wal_records.inc();
        self.last_seq = seq;
        self.unsynced += 1;
        let due = match self.policy {
            FlushPolicy::EveryBatch => true,
            FlushPolicy::EveryN(n) => self.unsynced >= n.max(1),
            FlushPolicy::Manual => false,
        };
        if due {
            self.sync()?;
        }
        Ok(())
    }
}

fn encode_batch(batch: &LoggedBatch) -> Vec<u8> {
    // 8 (id_base) + 8 (count), then each update at its exact size.
    let links = batch
        .updates
        .iter()
        .filter(|u| matches!(u, PlannedUpdate::Link { .. }))
        .count();
    let cuts = batch.updates.len() - links;
    let mut out = Vec::with_capacity(16 + links * LINK_BYTES + cuts * CUT_BYTES);
    out.extend_from_slice(&batch.id_base.to_le_bytes());
    out.extend_from_slice(&(batch.updates.len() as u64).to_le_bytes());
    for u in &batch.updates {
        match *u {
            PlannedUpdate::Link {
                id,
                u,
                v,
                weight,
                cancelled,
            } => {
                out.push(UPD_LINK);
                out.extend_from_slice(&id.0.to_le_bytes());
                out.extend_from_slice(&u.0.to_le_bytes());
                out.extend_from_slice(&v.0.to_le_bytes());
                out.extend_from_slice(&weight.raw().to_le_bytes());
                out.push(u8::from(cancelled));
            }
            PlannedUpdate::Cut { id, cancelled } => {
                out.push(UPD_CUT);
                out.extend_from_slice(&id.0.to_le_bytes());
                out.push(u8::from(cancelled));
            }
        }
    }
    out
}

fn decode_batch(seq: u64, payload: &[u8]) -> Result<LoggedBatch, PersistError> {
    let mut d = crate::format::Dec::new(payload);
    let id_base = d.u64()?;
    let count = d.u64()?;
    if count > payload.len() as u64 {
        return Err(PersistError::Corrupt(format!(
            "log record {seq} declares {count} updates in a {}-byte payload",
            payload.len()
        )));
    }
    // No record holds more updates than cuts fit in its payload.
    let mut updates = Vec::with_capacity((count as usize).min((payload.len() - 16) / CUT_BYTES));
    for _ in 0..count {
        let tag = d.u8()?;
        let update = match tag {
            UPD_LINK => PlannedUpdate::Link {
                id: EdgeId(d.u32()?),
                u: VertexId(d.u32()?),
                v: VertexId(d.u32()?),
                weight: Weight::new(d.i64()?),
                cancelled: match d.u8()? {
                    0 => false,
                    1 => true,
                    b => {
                        return Err(PersistError::Corrupt(format!(
                            "log record {seq} has a non-boolean cancel flag {b}"
                        )))
                    }
                },
            },
            UPD_CUT => PlannedUpdate::Cut {
                id: EdgeId(d.u32()?),
                cancelled: match d.u8()? {
                    0 => false,
                    1 => true,
                    b => {
                        return Err(PersistError::Corrupt(format!(
                            "log record {seq} has a non-boolean cancel flag {b}"
                        )))
                    }
                },
            },
            t => {
                return Err(PersistError::Corrupt(format!(
                    "log record {seq} has an unknown update tag {t}"
                )))
            }
        };
        updates.push(update);
    }
    d.finish(&format!("log record {seq}"))?;
    Ok(LoggedBatch {
        seq,
        id_base,
        updates,
    })
}

/// What [`read_log`] found.
pub struct LogReadReport {
    /// The stream id stamped into the log header at creation.
    pub stream_id: u32,
    /// Every valid record, in sequence order.
    pub records: Vec<LoggedBatch>,
    /// Byte length of the valid prefix (header + intact records). The
    /// caller truncates the medium to this length before resuming appends.
    pub valid_len: u64,
    /// Bytes after the valid prefix — a torn final record from a crash
    /// mid-append (0 after a clean shutdown). Reported, never hidden.
    pub dropped_bytes: u64,
}

/// Read an op log from raw bytes: validate the header, then decode records
/// until the bytes run out or a record fails its length/CRC/shape checks
/// (the torn-tail point).
///
/// Damage *before* the tail is still fatal-by-construction in practice: a
/// flipped bit in record `i` truncates the log at `i`, and recovery then
/// fails loudly when the engine's `applied_seq` (or a later checkpoint)
/// expects records beyond it — corruption surfaces as a refused recovery,
/// not as silently shortened history.
pub fn read_log(bytes: &[u8]) -> Result<LogReadReport, PersistError> {
    if bytes.len() < 16 {
        return Err(PersistError::Corrupt(
            "op log shorter than its header".to_string(),
        ));
    }
    if bytes[0..8] != LOG_MAGIC {
        return Err(PersistError::Corrupt(
            "bad magic: not a pdmsf op log".to_string(),
        ));
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    if version != LOG_VERSION {
        return Err(PersistError::Corrupt(format!(
            "unsupported op-log format version {version} (this build reads {LOG_VERSION})"
        )));
    }
    let stream_id = u32::from_le_bytes(bytes[12..16].try_into().unwrap());
    let mut records = Vec::new();
    let mut pos = 16usize;
    let mut expected_seq: Option<u64> = None;
    loop {
        let record = try_record(&bytes[pos..], expected_seq);
        match record {
            Some((batch, consumed)) => {
                expected_seq = Some(batch.seq + 1);
                records.push(batch);
                pos += consumed;
            }
            None => break,
        }
    }
    Ok(LogReadReport {
        stream_id,
        records,
        valid_len: pos as u64,
        dropped_bytes: (bytes.len() - pos) as u64,
    })
}

/// Decode one record from the front of `bytes`; `None` if the bytes do not
/// hold a complete, checksummed, correctly-sequenced record.
fn try_record(bytes: &[u8], expected_seq: Option<u64>) -> Option<(LoggedBatch, usize)> {
    if bytes.len() < 16 {
        return None;
    }
    let seq = u64::from_le_bytes(bytes[0..8].try_into().unwrap());
    let len = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
    let crc = u32::from_le_bytes(bytes[12..16].try_into().unwrap());
    if bytes.len() < 16 + len {
        return None;
    }
    let payload = &bytes[16..16 + len];
    if payload_crc(seq, payload) != crc {
        return None;
    }
    if let Some(want) = expected_seq {
        if seq != want {
            return None;
        }
    }
    let batch = decode_batch(seq, payload).ok()?;
    Some((batch, 16 + len))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch(seq: u64, id_base: u64) -> LoggedBatch {
        LoggedBatch {
            seq,
            id_base,
            updates: vec![
                PlannedUpdate::Link {
                    id: EdgeId(id_base as u32),
                    u: VertexId(0),
                    v: VertexId(1),
                    weight: Weight::new(5),
                    cancelled: false,
                },
                PlannedUpdate::Cut {
                    id: EdgeId(0),
                    cancelled: false,
                },
            ],
        }
    }

    /// A record is encoded into a buffer of exactly its size: 16 bytes of
    /// header, 22 per link and 6 per cut.
    #[test]
    fn records_encode_into_buffers_of_their_exact_size() {
        let link = |i: u32| PlannedUpdate::Link {
            id: EdgeId(i),
            u: VertexId(i),
            v: VertexId(i + 1),
            weight: Weight::new(i as i64),
            cancelled: i.is_multiple_of(2),
        };
        let cut = |i: u32| PlannedUpdate::Cut {
            id: EdgeId(i),
            cancelled: false,
        };
        let all_links = (0..100).map(link).collect::<Vec<_>>();
        let mixed = (0..100u32)
            .map(|i| if i.is_multiple_of(3) { cut(i) } else { link(i) })
            .collect::<Vec<_>>();
        for (updates, links, cuts) in [(all_links, 100, 0), (mixed, 66, 34)] {
            let b = LoggedBatch {
                seq: 1,
                id_base: 0,
                updates,
            };
            let out = encode_batch(&b);
            assert_eq!(out.len(), 16 + 22 * links + 6 * cuts);
            assert_eq!(
                out.capacity(),
                out.len(),
                "the buffer grew or was oversized"
            );
            assert_eq!(decode_batch(1, &out).unwrap(), b);
        }
    }

    #[test]
    fn log_round_trips_records() {
        let mut writer = OpLogWriter::create(Vec::new(), 7, FlushPolicy::EveryBatch).unwrap();
        let batches = [batch(1, 0), batch(2, 1), batch(3, 2)];
        for b in &batches {
            writer.record(b.seq, b).unwrap();
        }
        assert_eq!(writer.last_seq(), 3);
        let bytes = writer.into_medium().unwrap();
        let report = read_log(&bytes).unwrap();
        assert_eq!(report.stream_id, 7);
        assert_eq!(report.records, batches);
        assert_eq!(report.dropped_bytes, 0);
        assert_eq!(report.valid_len, bytes.len() as u64);
    }

    #[test]
    fn writer_refuses_sequence_gaps() {
        let mut writer = OpLogWriter::create(Vec::new(), 0, FlushPolicy::Manual).unwrap();
        writer.record(1, &batch(1, 0)).unwrap();
        assert!(writer.record(3, &batch(3, 2)).is_err());
        assert!(writer.record(1, &batch(1, 0)).is_err());
        writer.record(2, &batch(2, 1)).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_and_reported() {
        let mut writer = OpLogWriter::create(Vec::new(), 0, FlushPolicy::EveryBatch).unwrap();
        writer.record(1, &batch(1, 0)).unwrap();
        writer.record(2, &batch(2, 1)).unwrap();
        let full = writer.into_medium().unwrap();
        let clean = read_log(&full).unwrap();
        let record2_start = {
            // Re-read record 1 alone to find its end.
            let mut w = OpLogWriter::create(Vec::new(), 0, FlushPolicy::EveryBatch).unwrap();
            w.record(1, &batch(1, 0)).unwrap();
            w.into_medium().unwrap().len()
        };
        // Every torn prefix of record 2 drops exactly record 2.
        for cut in record2_start..full.len() {
            let torn = &full[..cut];
            let report = read_log(torn).unwrap();
            assert_eq!(report.records.len(), 1, "cut at {cut}");
            assert_eq!(report.records[0], clean.records[0]);
            assert_eq!(report.valid_len as usize, record2_start);
            assert_eq!(report.dropped_bytes as usize, cut - record2_start);
        }
    }

    #[test]
    fn mid_record_bit_flips_stop_the_replay_at_that_record() {
        let mut writer = OpLogWriter::create(Vec::new(), 0, FlushPolicy::EveryBatch).unwrap();
        for s in 1..=3 {
            writer.record(s, &batch(s, s - 1)).unwrap();
        }
        let full = writer.into_medium().unwrap();
        let header_and_first = {
            let mut w = OpLogWriter::create(Vec::new(), 0, FlushPolicy::EveryBatch).unwrap();
            w.record(1, &batch(1, 0)).unwrap();
            w.into_medium().unwrap().len()
        };
        // Flip one bit inside record 2: the log reads as [record 1] with
        // the rest reported dropped — never as three records with a
        // corrupted middle.
        let mut bad = full.clone();
        bad[header_and_first + 20] ^= 0x40;
        let report = read_log(&bad).unwrap();
        assert_eq!(report.records.len(), 1);
        assert!(report.dropped_bytes > 0);
    }

    #[test]
    fn resume_appends_after_a_valid_prefix() {
        let mut writer = OpLogWriter::create(Vec::new(), 0, FlushPolicy::EveryBatch).unwrap();
        writer.record(1, &batch(1, 0)).unwrap();
        let mut bytes = writer.into_medium().unwrap();
        // Simulate a crash that tore a half-written record 2.
        bytes.extend_from_slice(&2u64.to_le_bytes());
        bytes.extend_from_slice(&[9, 9, 9]);
        let report = read_log(&bytes).unwrap();
        assert_eq!(report.records.len(), 1);
        bytes.truncate(report.valid_len as usize);
        let last = report.records.last().unwrap().seq;
        let mut resumed = OpLogWriter::resume(bytes, FlushPolicy::EveryBatch, last);
        resumed.record(2, &batch(2, 1)).unwrap();
        let bytes = resumed.into_medium().unwrap();
        let report = read_log(&bytes).unwrap();
        assert_eq!(report.records.len(), 2);
        assert_eq!(report.dropped_bytes, 0);
    }

    #[test]
    fn empty_log_and_bad_headers() {
        let writer = OpLogWriter::create(Vec::new(), 3, FlushPolicy::Manual).unwrap();
        let bytes = writer.into_medium().unwrap();
        let report = read_log(&bytes).unwrap();
        assert_eq!(report.stream_id, 3);
        assert!(report.records.is_empty());
        assert!(read_log(b"short").is_err());
        assert!(read_log(b"NOTALOG!....0000").is_err());
    }
}
