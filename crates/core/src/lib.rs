//! # pdmsf-core
//!
//! The paper's contribution: worst-case deterministic (parallel) dynamic
//! minimum spanning forest built from chunked Euler tours, `CAdj`
//! connectivity vectors, a list-sum data structure (LSDS) and
//! minimum-weight-replacement (MWR) search. The LSDS aggregates the `CAdj`
//! minima only: the paper's second aggregate, which chunk ids a list
//! holds, is replaced by the MWR search marking one list's ids by walking
//! its tree.
//!
//! * [`forest`] — the central data structure: Euler tours of the MSF trees
//!   stored as lists of vertex occurrences, partitioned into chunks
//!   (Invariant 1), with per-chunk `CAdj` rows, per-list aggregation trees
//!   and the surgical operations of Lemma 2.1.
//! * [`seq`] — [`seq::SeqDynamicMsf`], the one structure front end, built
//!   from `(n, K)` and metered in EREW rounds with the cost-model substrate
//!   of `pdmsf-pram`: at `K = sqrt n` it is the EREW PRAM structure of
//!   Theorem 3.1 / 1.1 (`O(log n)` parallel depth, `O(sqrt n)` processors,
//!   `O(sqrt n log n)` work), and at `K = sqrt(n log n)` its metered work,
//!   the primitives' sequential cost, is Theorem 1.2's `O(sqrt(n log n))`
//!   worst-case time per update. [`seq::SeqDynamicMsf::from_graph`]
//!   builds the structure over a graph's live edges, which is how a
//!   checkpoint (it stores only the graph) restores.
//!
//! The paper's Section 5 sparsification, which removes the `m = O(n)`
//! assumption from the bounds, is not implemented: the structure serves
//! graphs of any density as they are (PAPER.md, substitution 3).
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
//!   banks (`vertex` / `chunk` / order `label` / `vpos` / arc handle /
//!   flags): the surgery re-chunking loops (split/merge, splice,
//!   extraction) and the principal-copy scans of the MWR/row-rebuild paths
//!   are sweeps over dense banks, with no per-occurrence struct left
//!   anywhere.
//! * `RowBank` is the one chunk-id table: it hands out the ids
//!   (`id_c < J`), records each id's owner chunk, and stores every `CAdj`
//!   `base`/`agg` row contiguously in one backing `Vec<WKey>`, a slotted
//!   chunk's two rows (`J` keys each) at its id. The aggregates' entry-wise
//!   merges, the `γ`/MWR argmin and full-row rebuilds are linear sweeps
//!   over dense memory; a released id, rows and all, is handed out again
//!   before a new one, and a growth of `J` is one compacting re-layout.
//! * `SpanStore` pools the per-vertex lists: each vertex's adjacency
//!   entries and its occurrence ids are one span (offset, length) of a
//!   shared backing `Vec`, in a block of the smallest power of two that
//!   fits, and retired blocks recycle through one free list per size
//!   class. No vertex owns a heap block or a `Vec` header, so a vertex
//!   costs a few words: two spans, its principal copy and that copy's
//!   chunk.
//!
//! A vertex with no incident edge holds no occurrence, no chunk and no
//! chunk-bank entry: its one-occurrence tour (what an isolated vertex's
//! tour always is) is created when its first edge is registered and
//! released at the end of the update that removes its last. Neither step
//! charges the meter, so chunk ids scale with the trees that have edges,
//! not with `n`, and every charge is what it was with a tour per vertex.
//!
//! With `K` fixed, an update's time is constant factors, and six choices
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
//!   occurrences once, stamping their chunk, retargeting the principal-chunk
//!   cache and summing their adjacency count, then labels them between
//!   their new neighbours.
//! * **Order-labelled occurrences.** An occurrence stores an order label,
//!   not its index: labels increase along a chunk with gaps between them,
//!   so an in-chunk insertion labels one occurrence, a removal relabels
//!   none, and an index is a binary search over the chunk's labels. A
//!   chunk is relabelled whole, in `O(n_c)`, only when a gap runs out.
//! * **Aggregates recomputed once per update.** A structural change marks
//!   the touched chunks stale instead of recomputing their `O(J)` vectors;
//!   each stale chunk is recomputed once, bottom-up, before the `γ` search
//!   and at the end of every insert and delete. Aggregates are exact
//!   between public operations, and the meter still charges the model's
//!   `O(J)` per touched node.
//! * **In-chunk tour surgery.** A link whose one tour is a single chunk
//!   splices that tour into the other endpoint's chunk, lowering only the
//!   row entries its edges improve; a cut whose two arc tails share a
//!   chunk moves the run between them into a new single-chunk list,
//!   rebuilding the host row only if a moved edge held a pair minimum.
//!   Neither splits a chunk whose pieces rebalancing would merge straight
//!   back; every other link and cut takes the general split/join path.
//!
//! Every primitive runs on the calling thread. The serving engines build
//! their structures at the sequential `K = sqrt(n log n)`
//! ([`seq::default_sequential_k`]), which keeps rows at about
//! `2 sqrt(n / log n)` entries — below `pdmsf_pram::kernels::PAR_CUTOFF`
//! until roughly 1.3M vertices per engine, so a pooled scan could not pay.
//! Bank layouts are pinned by SoA-vs-AoS reference-walk proptests over the
//! chunk, row **and occurrence** banks and the pooled per-vertex lists.
//! Behaviour across chunk parameters is pinned by
//! `tests/proptest_differential.rs` (the structure at `K = 2`, `√n` and
//! `√(n log n)` against a recompute-from-scratch oracle and Kruskal) and by
//! `small_k_streams_validate_after_every_op` (every invariant after every
//! op at `K = 2`), and `meter_charges_are_pinned` pins the exact charges.

#![forbid(unsafe_code)]

pub mod forest;
pub mod seq;

pub use forest::{ChunkedEulerForest, EdgeRec, ForestStats};
pub use seq::SeqDynamicMsf;
