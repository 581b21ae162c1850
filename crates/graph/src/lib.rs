//! # pdmsf-graph
//!
//! Dynamic-graph substrate for the `pdmsf` workspace — the reproduction of
//! Kopelowitz, Porat & Rosenmutter, *Improved Worst-Case Deterministic
//! Parallel Dynamic Minimum Spanning Forest* (SPAA 2018).
//!
//! This crate contains everything the paper treats as "given":
//!
//! * [`ids`] — strongly-typed vertex / edge identifiers,
//! * [`arena`] — the flat, index-based edge bookkeeping layer
//!   ([`EdgeSlotMap`]),
//! * [`weight`] — a totally ordered weight domain (every `i64`) with
//!   deterministic tie-breaking so the minimum spanning forest is unique,
//! * [`graph`] — a dynamic multigraph ([`DynGraph`]) with edge insertion and
//!   deletion,
//! * [`unionfind`] / [`kruskal`] — the static reference MSF used as ground
//!   truth by every test and by the recompute baseline,
//! * [`msf`] — the [`DynamicMsf`] trait shared by all dynamic-MSF
//!   implementations in the workspace (the paper's structure and the
//!   baselines),
//! * [`generators`] — deterministic workload generators (random sparse
//!   graphs, grids, preferential attachment, update streams, batched
//!   update/query streams — bursty hotspots with flapping links, tenant-
//!   clustered traffic — consumed by the batch engine, and tenant-tagged
//!   multi-tenant streams with Zipf-skewed tenant popularity consumed by
//!   the sharded serving layer) used by the examples, tests and the
//!   benchmark harness.
//!
//! The paper also takes maximum degree 3 as given, through Frederickson's
//! reduction. That reduction is not implemented (PAPER.md, substitution
//! 4): every structure accepts vertices of any degree.

pub mod arena;
pub mod generators;
pub mod graph;
pub mod ids;
pub mod kruskal;
pub mod msf;
pub mod unionfind;
pub mod weight;

pub use arena::{EdgeSlotMap, NO_HANDLE};
pub use generators::{
    BatchKind, BatchOp, BatchStream, BatchStreamSpec, GraphSpec, StreamKind, TenantOp,
    TenantStream, TenantStreamSpec, UpdateOp, UpdateStream, UpdateStreamSpec,
};
pub use graph::{DynGraph, DynGraphImage, Edge};
pub use ids::{EdgeId, TenantId, VertexId};
pub use kruskal::{kruskal_msf, MsfSummary};
pub use msf::{assert_matches_kruskal, verify_against_kruskal, DynamicMsf, MsfDelta};
pub use unionfind::UnionFind;
pub use weight::{WKey, Weight};
