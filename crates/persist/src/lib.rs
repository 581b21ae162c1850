//! # pdmsf-persist
//!
//! Durability for the `pdmsf` serving stack: **checkpoint/restore** of
//! engines and sharded services, a **write-ahead op log**, **crash
//! recovery**, and the **fault-injection** harness that proves the story
//! under torn writes and bit rot.
//!
//! A checkpoint is the graph: the MSF is unique under `WKey` order, so the
//! live edges determine the forest. Each engine stores its planner scalars,
//! its `DynGraph` mirror (the vertex count, then one 17-byte slot per edge
//! id ever allocated: endpoints, weight and live bit, in flat lanes; about
//! 17 bytes per live edge on the E5 benchmark's largest engine) and its
//! chunk parameter `K`; restore rebuilds the structure from the mirror
//! (`SeqDynamicMsf::from_graph`). No structure layout and no adjacency is
//! stored, so a layout change never moves the format. Format 3 is current;
//! formats 1 and 2, which also stored the mirror's adjacency lists, still
//! restore.
//!
//! ## The format, in one screen
//!
//! * **Checkpoints** ([`EngineCheckpointExt::checkpoint`],
//!   [`ServiceCheckpointExt::checkpoint_all`]): magic `PDMSFCKP`, format
//!   version ([`FORMAT_VERSION`]), a kind byte, then length-prefixed
//!   **sections** each guarded by a CRC-32 over its tag and payload, closed
//!   by an end marker. A service checkpoint holds a tenant-table section
//!   plus one section per shard engine. Truncation and bit flips are
//!   *detected* — restore returns [`PersistError::Corrupt`], never a
//!   plausible-but-wrong structure; states that decode but are impossible
//!   (an edge endpoint outside the vertex range, a vertex count beyond
//!   32-bit ids, a tenant table that disagrees with the shard mirrors) are
//!   refused as [`PersistError::Inconsistent`].
//! * **Op log** ([`OpLogWriter`], one per engine/shard): magic `PDMSFLOG`,
//!   version, stream id, then one CRC-guarded record per state-mutating
//!   batch, written **before** the batch applies (the engine's
//!   [`pdmsf_engine::OpSink`] hook enforces the order) and fsync-gated by a
//!   [`FlushPolicy`]. A crash mid-append leaves a **torn tail**: recovery
//!   truncates it at the first invalid record and reports the dropped
//!   bytes — by the write-ahead + ack-after-log discipline those bytes can
//!   only hold batches no caller was ever told succeeded.
//! * **Recovery** ([`recover_engine`], [`recover_service`]): restore the
//!   newest valid checkpoint, then replay the log tail through the engine's
//!   planner (a record replays only if re-planning its ops reproduces it)
//!   and normal batch-application path. The invariant — pinned by the
//!   fault-injection proptest in `tests/recovery.rs` — is
//!   `restore(checkpoint(S)) + replay == S`, checked against an
//!   uninterrupted twin by forest weights, component labels and a full
//!   structure `validate()` walk.
//!
//! ```
//! use pdmsf_engine::{Engine, Op};
//! use pdmsf_graph::{VertexId, Weight};
//! use pdmsf_persist::{
//!     recover_engine, EngineCheckpointExt, FlushPolicy, OpLogWriter, SharedDisk,
//! };
//!
//! // A serving engine with a write-ahead op log.
//! let log = SharedDisk::new();
//! let mut engine = Engine::new(8);
//! engine.set_sink(Box::new(
//!     OpLogWriter::create(log.clone(), 0, FlushPolicy::EveryBatch).unwrap(),
//! ));
//! let link = |u: u32, v: u32, w: i64| Op::Link {
//!     u: VertexId(u), v: VertexId(v), weight: Weight::new(w),
//! };
//! engine.execute(&[link(0, 1, 5), link(1, 2, 3)]);
//!
//! // Checkpoint, then keep serving (the log covers the tail).
//! let mut checkpoint = Vec::new();
//! engine.checkpoint(&mut checkpoint).unwrap();
//! engine.execute(&[link(2, 3, 9)]);
//!
//! // Crash. Recover from checkpoint + log: the post-checkpoint batch is
//! // replayed and nothing is lost.
//! let (recovered, report) = recover_engine(&checkpoint[..], &log.snapshot(), 0).unwrap();
//! assert_eq!(report.replayed, 1);
//! assert_eq!(recovered.forest_weight(), engine.forest_weight());
//! ```

pub mod checkpoint;
pub mod crc32;
pub mod faults;
pub mod format;
mod metrics;
pub mod oplog;
pub mod recover;

pub use checkpoint::{EngineCheckpointExt, ServiceCheckpointExt};
pub use crc32::{crc32, Crc32};
pub use faults::{FailingDisk, SharedDisk, TornDisk};
pub use format::{PersistError, FORMAT_VERSION};
pub use oplog::{read_log, FlushPolicy, LogMedium, LogReadReport, OpLogWriter};
pub use recover::{recover_engine, recover_service, RecoveryReport};
