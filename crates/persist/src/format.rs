//! The byte-level checkpoint format: little-endian scalar and lane
//! primitives, and the length-prefixed CRC-guarded **section** framing every
//! checkpoint is built from.
//!
//! A checkpoint is `magic ++ version ++ kind ++ section*`, where each
//! section is
//!
//! ```text
//! tag: u32 | len: u64 | payload: [u8; len] | crc32(tag ++ payload): u32
//! ```
//!
//! and the final section is always the empty [`SEC_END`]. The framing makes
//! the two failure modes of at-rest state explicit:
//!
//! * **Truncation** — a payload or trailer that ends early, or a stream that
//!   ends before [`SEC_END`], reads as [`PersistError::Corrupt`]; a prefix of
//!   a checkpoint never restores silently.
//! * **Bit rot** — any flipped bit inside a section fails that section's
//!   CRC; the reader reports *which* section broke.

use std::fmt;
use std::io::{self, Read, Write};

use crate::crc32::Crc32;

/// First bytes of every checkpoint stream.
pub const CKP_MAGIC: [u8; 8] = *b"PDMSFCKP";
/// First bytes of every op-log stream.
pub const LOG_MAGIC: [u8; 8] = *b"PDMSFLOG";
/// Checkpoint format version this build writes. Version 3 stores each
/// engine's graph as its vertex count and edge slots; version 2 also stored
/// the graph's adjacency lists, and version 1 the structure's banks on top.
/// Both still restore (what this build does not use is skipped unread).
pub const FORMAT_VERSION: u32 = 3;
/// Op-log format version. The log did not change when checkpoints moved to
/// versions 2 and 3.
pub const LOG_VERSION: u32 = 1;

/// Checkpoint kind byte: a single [`pdmsf_engine::Engine`].
pub const KIND_ENGINE: u8 = 0;
/// Checkpoint kind byte: a whole [`pdmsf_shard::ShardedService`].
pub const KIND_SERVICE: u8 = 1;

/// Section tag: one engine's state (scalars, graph mirror, chunk parameter).
pub const SEC_ENGINE: u32 = 0x454E_4731; // "ENG1"
/// Section tag: the service's tenant table + service scalars.
pub const SEC_TENANTS: u32 = 0x544E_5431; // "TNT1"
/// Section tag: one shard's engine blob inside a service checkpoint.
pub const SEC_SHARD: u32 = 0x5348_4431; // "SHD1"
/// Section tag: end-of-checkpoint marker (empty payload).
pub const SEC_END: u32 = 0x454E_4421; // "END!"

/// Everything that can go wrong writing, reading or applying persisted
/// state.
#[derive(Debug)]
pub enum PersistError {
    /// The underlying reader/writer failed.
    Io(io::Error),
    /// The bytes are not a valid stream: bad magic, unsupported version,
    /// failed CRC, truncated section, unknown tag.
    Corrupt(String),
    /// The bytes decoded fine but describe an inconsistent state (the
    /// graph or tenant table fails validation, or a log record does not
    /// follow from the restored state).
    Inconsistent(String),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "persist i/o error: {e}"),
            PersistError::Corrupt(msg) => write!(f, "corrupt persisted state: {msg}"),
            PersistError::Inconsistent(msg) => write!(f, "inconsistent persisted state: {msg}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<io::Error> for PersistError {
    fn from(e: io::Error) -> Self {
        // A reader that runs dry mid-structure is truncation, not a
        // transport failure — report it as corruption so callers treat a
        // half-written checkpoint exactly like a checksum miss.
        if e.kind() == io::ErrorKind::UnexpectedEof {
            PersistError::Corrupt("stream truncated".to_string())
        } else {
            PersistError::Io(e)
        }
    }
}

/// Refuse to allocate lane buffers beyond this many bytes from a declared
/// length — a corrupt length field must not become an OOM.
const MAX_SANE_LEN: u64 = 1 << 40;

// ---------------------------------------------------------------------------
// Payload encoding: scalars and flat lanes into a Vec<u8>.
// ---------------------------------------------------------------------------

/// Growable payload buffer with little-endian primitive writers.
#[derive(Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// A fresh empty payload.
    pub fn new() -> Enc {
        Enc::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Length-prefixed `u8` lane.
    pub fn lane_u8(&mut self, lane: &[u8]) {
        self.u64(lane.len() as u64);
        self.buf.extend_from_slice(lane);
    }

    /// Length-prefixed `u32` lane.
    pub fn lane_u32(&mut self, lane: &[u32]) {
        self.u64(lane.len() as u64);
        for &v in lane {
            self.u32(v);
        }
    }

    /// Length-prefixed `u64` lane.
    pub fn lane_u64(&mut self, lane: &[u64]) {
        self.u64(lane.len() as u64);
        for &v in lane {
            self.u64(v);
        }
    }

    /// Length-prefixed `i64` lane.
    pub fn lane_i64(&mut self, lane: &[i64]) {
        self.u64(lane.len() as u64);
        for &v in lane {
            self.i64(v);
        }
    }
}

// ---------------------------------------------------------------------------
// Payload decoding: a cursor over a section payload.
// ---------------------------------------------------------------------------

/// Cursor over an in-memory payload with checked little-endian readers.
/// Every read is bounds-checked: a payload that runs dry reads as
/// [`PersistError::Corrupt`], never as a panic.
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// A cursor over `buf`.
    pub fn new(buf: &'a [u8]) -> Dec<'a> {
        Dec { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Error unless the payload was consumed exactly.
    pub fn finish(&self, what: &str) -> Result<(), PersistError> {
        if self.remaining() != 0 {
            return Err(PersistError::Corrupt(format!(
                "{what}: {} trailing bytes after the payload",
                self.remaining()
            )));
        }
        Ok(())
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], PersistError> {
        if self.remaining() < n {
            return Err(PersistError::Corrupt(format!(
                "payload truncated: wanted {n} bytes, {} left",
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub fn u8(&mut self) -> Result<u8, PersistError> {
        Ok(self.take(1)?[0])
    }

    pub fn u32(&mut self) -> Result<u32, PersistError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub fn u64(&mut self) -> Result<u64, PersistError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub fn i64(&mut self) -> Result<i64, PersistError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn lane_len(&mut self, elem_size: u64) -> Result<usize, PersistError> {
        let n = self.u64()?;
        if n.saturating_mul(elem_size) > MAX_SANE_LEN || n * elem_size > self.remaining() as u64 {
            return Err(PersistError::Corrupt(format!(
                "lane length {n} exceeds the payload"
            )));
        }
        Ok(n as usize)
    }

    /// Skip a fixed `n`-byte field.
    pub fn skip(&mut self, n: usize) -> Result<(), PersistError> {
        self.take(n).map(drop)
    }

    /// Skip a length-prefixed lane of `elem_size`-byte elements; returns
    /// its element count.
    pub fn skip_lane(&mut self, elem_size: u64) -> Result<usize, PersistError> {
        let n = self.lane_len(elem_size)?;
        self.skip(n * elem_size as usize)?;
        Ok(n)
    }

    pub fn lane_u8(&mut self) -> Result<Vec<u8>, PersistError> {
        let n = self.lane_len(1)?;
        Ok(self.take(n)?.to_vec())
    }

    pub fn lane_u32(&mut self) -> Result<Vec<u32>, PersistError> {
        let n = self.lane_len(4)?;
        let raw = self.take(n * 4)?;
        Ok(raw
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }

    pub fn lane_i64(&mut self) -> Result<Vec<i64>, PersistError> {
        let n = self.lane_len(8)?;
        let raw = self.take(n * 8)?;
        Ok(raw
            .chunks_exact(8)
            .map(|c| i64::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }
}

// ---------------------------------------------------------------------------
// Section framing.
// ---------------------------------------------------------------------------

/// Write the checkpoint stream header.
pub fn write_header<W: Write>(w: &mut W, kind: u8) -> Result<(), PersistError> {
    w.write_all(&CKP_MAGIC)?;
    w.write_all(&FORMAT_VERSION.to_le_bytes())?;
    w.write_all(&[kind])?;
    Ok(())
}

/// Read and validate the checkpoint stream header; returns the format
/// version (1 to [`FORMAT_VERSION`]) and the kind byte.
pub fn read_header<R: Read>(r: &mut R) -> Result<(u32, u8), PersistError> {
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if magic != CKP_MAGIC {
        return Err(PersistError::Corrupt(
            "bad magic: not a pdmsf checkpoint".to_string(),
        ));
    }
    let mut v = [0u8; 4];
    r.read_exact(&mut v)?;
    let version = u32::from_le_bytes(v);
    if !(1..=FORMAT_VERSION).contains(&version) {
        return Err(PersistError::Corrupt(format!(
            "unsupported checkpoint format version {version} (this build reads 1 to {FORMAT_VERSION})"
        )));
    }
    let mut kind = [0u8; 1];
    r.read_exact(&mut kind)?;
    Ok((version, kind[0]))
}

/// Write one framed section: tag, length, payload, CRC over tag + payload.
pub fn write_section<W: Write>(w: &mut W, tag: u32, payload: &[u8]) -> Result<(), PersistError> {
    w.write_all(&tag.to_le_bytes())?;
    w.write_all(&(payload.len() as u64).to_le_bytes())?;
    w.write_all(payload)?;
    let mut crc = Crc32::new();
    crc.update(&tag.to_le_bytes());
    crc.update(payload);
    w.write_all(&crc.finish().to_le_bytes())?;
    Ok(())
}

/// Read one framed section, verifying length sanity and the CRC. Returns
/// `(tag, payload)`.
pub fn read_section<R: Read>(r: &mut R) -> Result<(u32, Vec<u8>), PersistError> {
    let mut head = [0u8; 12];
    r.read_exact(&mut head)?;
    let tag = u32::from_le_bytes(head[0..4].try_into().unwrap());
    let len = u64::from_le_bytes(head[4..12].try_into().unwrap());
    if len > MAX_SANE_LEN {
        return Err(PersistError::Corrupt(format!(
            "section {tag:#x} declares an implausible length {len}"
        )));
    }
    // Read through `take` instead of preallocating `len`: a corrupt length
    // then fails as truncation, not as a giant allocation.
    let mut payload = Vec::with_capacity(len.min(1 << 20) as usize);
    let got = r.take(len).read_to_end(&mut payload)?;
    if got as u64 != len {
        return Err(PersistError::Corrupt(format!(
            "section {tag:#x} truncated: declared {len} bytes, found {got}"
        )));
    }
    let mut trailer = [0u8; 4];
    r.read_exact(&mut trailer)?;
    let want = u32::from_le_bytes(trailer);
    let mut crc = Crc32::new();
    crc.update(&tag.to_le_bytes());
    crc.update(&payload);
    let got_crc = crc.finish();
    if got_crc != want {
        return Err(PersistError::Corrupt(format!(
            "section {tag:#x} failed its checksum (stored {want:#010x}, computed {got_crc:#010x})"
        )));
    }
    Ok((tag, payload))
}

/// Read the next section and require its tag.
pub fn expect_section<R: Read>(r: &mut R, want: u32, what: &str) -> Result<Vec<u8>, PersistError> {
    let (tag, payload) = read_section(r)?;
    if tag != want {
        return Err(PersistError::Corrupt(format!(
            "expected the {what} section ({want:#x}), found tag {tag:#x}"
        )));
    }
    Ok(payload)
}

/// The CRC guarding one op-log record: over the sequence number and the
/// record payload (the length field is implied by the payload).
pub fn payload_crc(seq: u64, payload: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(&seq.to_le_bytes());
    crc.update(payload);
    crc.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sections_round_trip() {
        let mut buf = Vec::new();
        write_header(&mut buf, KIND_ENGINE).unwrap();
        write_section(&mut buf, SEC_ENGINE, b"hello payload").unwrap();
        write_section(&mut buf, SEC_END, b"").unwrap();

        let mut r = &buf[..];
        assert_eq!(read_header(&mut r).unwrap(), (FORMAT_VERSION, KIND_ENGINE));
        let (tag, payload) = read_section(&mut r).unwrap();
        assert_eq!(tag, SEC_ENGINE);
        assert_eq!(payload, b"hello payload");
        let (tag, payload) = read_section(&mut r).unwrap();
        assert_eq!(tag, SEC_END);
        assert!(payload.is_empty());
    }

    #[test]
    fn every_single_bit_flip_in_a_section_is_detected() {
        let mut buf = Vec::new();
        write_section(&mut buf, SEC_ENGINE, b"guarded bytes").unwrap();
        for byte in 0..buf.len() {
            for bit in 0..8 {
                let mut bad = buf.clone();
                bad[byte] ^= 1 << bit;
                let mut r = &bad[..];
                // Either the CRC catches it, the tag changes (caught by
                // expect_section), or the length changes (truncation) — a
                // flip is never silently absorbed into an identical read.
                match read_section(&mut r) {
                    Err(_) => {}
                    Ok((tag, payload)) => {
                        assert!(
                            tag != SEC_ENGINE || payload != b"guarded bytes",
                            "flip at byte {byte} bit {bit} read back unchanged"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn truncation_anywhere_is_detected() {
        let mut buf = Vec::new();
        write_header(&mut buf, KIND_ENGINE).unwrap();
        write_section(&mut buf, SEC_ENGINE, b"some payload bytes").unwrap();
        for cut in 0..buf.len() {
            let mut r = &buf[..cut];
            let header = read_header(&mut r);
            let ok = header.is_ok() && read_section(&mut r).is_ok();
            assert!(!ok, "truncation at {cut} of {} went unnoticed", buf.len());
        }
    }

    #[test]
    fn bad_magic_and_version_are_refused() {
        let mut buf = Vec::new();
        write_header(&mut buf, KIND_ENGINE).unwrap();
        let mut bad = buf.clone();
        bad[0] = b'X';
        assert!(matches!(
            read_header(&mut &bad[..]),
            Err(PersistError::Corrupt(_))
        ));
        let mut future = buf.clone();
        future[8] = 99;
        let err = read_header(&mut &future[..]).unwrap_err();
        assert!(err.to_string().contains("version"));
        let mut zero = buf.clone();
        zero[8] = 0;
        assert!(read_header(&mut &zero[..]).is_err());
    }

    #[test]
    fn dec_rejects_overruns_and_trailing_bytes() {
        let mut e = Enc::new();
        e.u32(7);
        e.lane_u32(&[1, 2, 3]);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert_eq!(d.u32().unwrap(), 7);
        assert_eq!(d.lane_u32().unwrap(), vec![1, 2, 3]);
        d.finish("test payload").unwrap();
        assert!(d.u8().is_err());

        // A lane length pointing past the payload is refused up front.
        let mut e = Enc::new();
        e.u64(1 << 30);
        let bytes = e.into_bytes();
        assert!(Dec::new(&bytes).lane_u32().is_err());
    }
}
