//! # pdmsf-core
//!
//! The paper's contribution: worst-case deterministic (parallel) dynamic
//! minimum spanning forest built from chunked Euler tours, `CAdj`/`Memb`
//! connectivity vectors, a list-sum data structure (LSDS) and
//! minimum-weight-replacement (MWR) search.
//!
//! * [`forest`] — the central data structure shared by the sequential and
//!   parallel front-ends: Euler tours of the MSF trees stored as lists of
//!   vertex occurrences, partitioned into chunks (Invariant 1), with
//!   per-chunk `CAdj` rows, per-list aggregation trees and the surgical
//!   operations of Lemma 2.1.
//! * [`seq`] — [`seq::SeqDynamicMsf`], the sequential structure of Theorem
//!   1.2 (`O(sqrt(n log n))` worst-case time per update with
//!   `K = sqrt(n log n)`).
//! * [`par`] — [`par::ParDynamicMsf`], the EREW PRAM structure of Theorem
//!   3.1 / 1.1 (`K = sqrt n`, `O(log n)` parallel depth, `O(sqrt n)`
//!   processors, `O(sqrt n log n)` work), executed through the cost-model
//!   substrate of `pdmsf-pram`.
//! * [`sparsify`] — the sparsification tree of Section 5 (Eppstein et al.),
//!   generic over the per-level dynamic-MSF structure, which removes the
//!   sparsity assumption (`m = O(n)`) without changing the asymptotic costs.
//!
//! ## Performance architecture: SoA chunk banks + row bank
//!
//! The chunked forest stores **no per-chunk structs**. Chunk state is split
//! by access pattern into the structure-of-arrays banks of
//! `forest::arena` (crate-private):
//!
//! * `ChunkArena` keeps the splay-tree topology (`parent` / `left` /
//!   `right` / `size`) in four flat `Vec<u32>`s — rotations, root walks and
//!   rank queries touch 4-byte lanes instead of dragging ~100-byte records
//!   through the cache — the list metadata (`occs`, `adj_count`,
//!   `slot`, flags) in separate banks consulted only by surgery and
//!   rebalancing, and the Euler-tour **occurrence records** in flat `occ_*`
//!   banks (`vertex` / `chunk` / `pos` / `vpos` / arc handle / flags): the
//!   surgery reindex loops (in-chunk shifts, split/merge re-chunking) and
//!   the principal-copy scans of the MWR/row-rebuild paths are sweeps over
//!   dense banks, with no per-occurrence struct left anywhere.
//! * `RowBank` stores every `CAdj` `base`/`agg` row contiguously in one
//!   backing `Vec<WKey>` (and every `Memb` row in one `Vec<bool>`),
//!   addressed by compact slab handles (`offset = slab · stride`,
//!   `len = stride`). The aggregates' entry-wise merges, the `γ`/MWR argmin
//!   and full-row rebuilds are linear sweeps over dense memory; slabs
//!   recycle through a free list and a stride growth is one compacting
//!   re-layout.
//!
//! With `K` fixed, an update's time is constant factors, and four choices
//! cut them:
//!
//! * **Inline adjacency.** An adjacency entry is `{weight, id, other}`
//!   (16 bytes), so the `O(K)` edge scans (row rebuilds, pair recomputes,
//!   the short-list and `γ`-winner scans) never load an edge record; the
//!   full edge is looked up by id only for a scan's winner.
//! * **Minimum-only pair rescans.** Rows hold exact minima, so an edge
//!   deletion rescans its chunk pair only when it removes the pair's
//!   minimum; otherwise the step is `O(1)`.
//! * **One-pass re-chunking.** A chunk split or merge walks the moved
//!   occurrences once, restamping them, retargeting the principal-chunk
//!   cache and summing their adjacency count.
//! * **Aggregates recomputed once per update.** A structural change marks
//!   the touched chunks stale instead of recomputing their `O(J)` vectors;
//!   each stale chunk is recomputed once, bottom-up, before the `γ` search
//!   and at the end of every insert and delete. Aggregates are exact
//!   between public operations, and the meter still charges the model's
//!   `O(J)` per touched node.
//!
//! Every kernel runs on the calling thread. The serving engines build
//! their structures at the sequential `K = sqrt(n log n)`
//! ([`seq::default_sequential_k`]), which keeps rows at about
//! `2 sqrt(n / log n)` entries — below `pdmsf_pram::kernels::PAR_CUTOFF`
//! until roughly 1.3M vertices per engine, so a pooled scan could not pay.
//! Bank layouts are pinned by SoA-vs-AoS reference-walk proptests over the
//! chunk, row **and occurrence** banks, and the seq/par/Kruskal lockstep
//! proptest pins behaviour across chunk parameters and cost models.

pub mod forest;
pub mod par;
pub mod partition;
pub mod seq;
pub mod snapshot;
pub mod sparsify;

pub use forest::{
    ChunkArenaImage, ChunkedEulerForest, CostModel, EdgeRec, ForestStats, RowBankImage,
};
pub use par::ParDynamicMsf;
pub use partition::{ComponentPartitionedMsf, GroupUpdate, PartitionStats, UpdateGroup};
pub use seq::SeqDynamicMsf;
pub use snapshot::MsfImage;
pub use sparsify::SparsifiedMsf;
