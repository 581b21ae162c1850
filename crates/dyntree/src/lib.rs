//! # pdmsf-dyntree
//!
//! Sleator–Tarjan dynamic trees (link-cut trees) with *maximum-weight edge on
//! a path* queries.
//!
//! The paper uses "the dynamic tree data structure of Sleator and Tarjan
//! \[19\], which costs `O(log n)` worst-case time per forest update or path
//! query" (Section 2.1) for exactly one purpose: when an edge `(u, v)` is
//! inserted and both endpoints are already in the same tree of the MSF, the
//! algorithm must find the **heaviest edge on the `u`–`v` path** to decide
//! whether the new edge replaces it. This crate provides that structure.
//!
//! The structure calls three operations, and besides its constructor and
//! two counts they are all [`LinkCutForest`] has: `link(u, v, key)`,
//! `cut(u, v)` (which returns the edge's key) and `path_max(u, v)`, which
//! also answers whether `u` and `v` are connected. A forest edge is named
//! by its endpoints, since two trees never share an edge. The
//! implementation is a classical link-cut tree over splay trees of
//! preferred paths, written with index arenas (no `Rc`, no `unsafe`):
//!
//! * every forest **vertex** is a node,
//! * every forest **edge** is also a node (its
//!   [`WKey`](pdmsf_graph::WKey) stored beside it), spliced between its two
//!   endpoints, which is the standard trick for edge-weighted path
//!   aggregation,
//! * subtree aggregates store the heaviest edge node, so a path query
//!   returns the unique heaviest edge (ties broken by edge id).
//!
//! Operations are amortised `O(log n)` (the paper quotes the worst-case
//! variant of \[19\]; the amortised variant is the standard practical
//! substitute — PAPER.md's reproduction notes list the substitutions).

mod lct;

pub use lct::LinkCutForest;
