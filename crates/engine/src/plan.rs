//! Batch preprocessing: one pure pass over the incoming operations that
//! assigns edge ids, validates every op, cancels opposing insert/delete
//! pairs and partitions queries from updates.
//!
//! It is the engine's one validator: a replayed log record is valid iff
//! this pass reproduces it, and the sharded router checks endpoints with
//! its [`link_reject`] and [`query_reject`].
//!
//! The plan is computed against an immutable view of the engine's
//! [`DynGraph`] mirror plus batch-local bookkeeping, so it performs no
//! structural work at all — the expensive `O(sqrt(n) log n)` updates happen
//! only for the operations that survive planning.

use crate::{Outcome, Reject};
use pdmsf_graph::{BatchOp, DynGraph, EdgeId, VertexId, Weight};
use std::collections::HashMap;

/// Validate a `Link`'s endpoints against `n` vertices: the planner's link
/// rule, which the sharded router applies against each tenant's vertex
/// count too.
pub fn link_reject(n: usize, u: VertexId, v: VertexId) -> Option<Reject> {
    if u.index() >= n || v.index() >= n {
        Some(Reject::EndpointOutOfRange)
    } else if u == v {
        Some(Reject::SelfLoop)
    } else {
        None
    }
}

/// Validate a `QueryConnected`'s endpoints against `n` vertices (the
/// planner's query rule, shared with the sharded router like
/// [`link_reject`]).
pub fn query_reject(n: usize, u: VertexId, v: VertexId) -> Option<Reject> {
    if u.index() >= n || v.index() >= n {
        Some(Reject::EndpointOutOfRange)
    } else {
        None
    }
}

/// An update that survived validation, in arrival order — the planned form
/// of a mutation, with its pre-assigned edge id and cancellation flag, and
/// the record the op log stores ([`crate::LoggedBatch`]). `cancelled`
/// updates still apply to the engine's [`DynGraph`] mirror (the mirror is
/// the id allocator, so cancelled links must consume their id exactly as a
/// one-op-at-a-time execution would, and cancelled cuts still free theirs)
/// but skip the MSF structure entirely.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlannedUpdate {
    /// Insert `id = (u, v, weight)`.
    Link {
        /// Pre-assigned edge id (next sequential id of the mirror).
        id: EdgeId,
        /// First endpoint.
        u: VertexId,
        /// Second endpoint.
        v: VertexId,
        /// Weight.
        weight: Weight,
        /// The matching `Cut` arrives later in this same batch.
        cancelled: bool,
    },
    /// Delete edge `id`.
    Cut {
        /// The edge to delete.
        id: EdgeId,
        /// The matching `Link` arrived earlier in this same batch.
        cancelled: bool,
    },
}

/// A deduplicated query. Connectivity queries are keyed on the unordered
/// endpoint pair, so `connected(u, v)` and `connected(v, u)` share one
/// answer slot; all forest-weight queries share a single slot.
#[derive(Clone, Copy, Debug)]
pub(crate) enum PlannedQuery {
    /// Are `u` and `v` in the same component?
    Connected {
        /// First endpoint.
        u: VertexId,
        /// Second endpoint.
        v: VertexId,
    },
    /// Total forest weight.
    ForestWeight,
}

/// The result of planning one batch.
pub(crate) struct BatchPlan {
    /// Valid updates in arrival order (including cancelled ones).
    pub updates: Vec<PlannedUpdate>,
    /// Deduplicated queries, in first-appearance order.
    pub unique_queries: Vec<PlannedQuery>,
    /// `(outcome index, unique query index)` for every query op, so the
    /// answers computed over `unique_queries` scatter back to each op.
    pub query_refs: Vec<(usize, usize)>,
    /// Per-op outcomes. Update and rejection outcomes are final; query
    /// slots hold provisional values overwritten by the scatter.
    pub outcomes: Vec<Outcome>,
    /// Opposing link/cut pairs elided from the MSF structure.
    pub cancelled_pairs: usize,
    /// Ops rejected by validation.
    pub rejected: usize,
}

/// Plan `ops` against the current mirror state. Pure: touches neither the
/// mirror nor the MSF structure.
pub(crate) fn plan(graph: &DynGraph, ops: &[BatchOp]) -> BatchPlan {
    let n = graph.num_vertices();
    let mut next_id = graph.edge_id_bound() as u32;
    // Edges born in this batch → index of their Link in `updates`.
    let mut born: HashMap<EdgeId, usize> = HashMap::new();
    // Edges cut in this batch (born earlier or in-batch).
    let mut killed: std::collections::HashSet<EdgeId> = std::collections::HashSet::new();
    // Dedup tables.
    let mut connected_slots: HashMap<(u32, u32), usize> = HashMap::new();
    let mut weight_slot: Option<usize> = None;

    let mut updates = Vec::new();
    let mut unique_queries = Vec::new();
    let mut query_refs = Vec::new();
    let mut outcomes = Vec::with_capacity(ops.len());
    let mut cancelled_pairs = 0usize;
    let mut rejected = 0usize;

    for (i, op) in ops.iter().enumerate() {
        let outcome = match *op {
            BatchOp::Link { u, v, weight } => {
                if let Some(reason) = link_reject(n, u, v) {
                    rejected += 1;
                    Outcome::Rejected { reason }
                } else {
                    let id = EdgeId(next_id);
                    next_id += 1;
                    born.insert(id, updates.len());
                    updates.push(PlannedUpdate::Link {
                        id,
                        u,
                        v,
                        weight,
                        cancelled: false,
                    });
                    Outcome::Linked { id }
                }
            }
            BatchOp::Cut { id } => {
                let alive = !killed.contains(&id) && (graph.is_live(id) || born.contains_key(&id));
                if !alive {
                    rejected += 1;
                    Outcome::Rejected {
                        reason: Reject::UnknownOrDeadEdge,
                    }
                } else {
                    killed.insert(id);
                    let cancelled = if let Some(&link_idx) = born.get(&id) {
                        // Opposing pair: the link is still in flight within
                        // this batch — neither side reaches the structure.
                        if let PlannedUpdate::Link { cancelled, .. } = &mut updates[link_idx] {
                            *cancelled = true;
                        }
                        cancelled_pairs += 1;
                        true
                    } else {
                        false
                    };
                    updates.push(PlannedUpdate::Cut { id, cancelled });
                    Outcome::Cut { id }
                }
            }
            BatchOp::QueryConnected { u, v } => {
                if let Some(reason) = query_reject(n, u, v) {
                    rejected += 1;
                    Outcome::Rejected { reason }
                } else {
                    let key = (u.0.min(v.0), u.0.max(v.0));
                    let slot = *connected_slots.entry(key).or_insert_with(|| {
                        unique_queries.push(PlannedQuery::Connected { u, v });
                        unique_queries.len() - 1
                    });
                    query_refs.push((i, slot));
                    // Provisional; overwritten by the answer scatter.
                    Outcome::Connected { connected: false }
                }
            }
            BatchOp::QueryForestWeight => {
                let slot = *weight_slot.get_or_insert_with(|| {
                    unique_queries.push(PlannedQuery::ForestWeight);
                    unique_queries.len() - 1
                });
                query_refs.push((i, slot));
                Outcome::ForestWeight { weight: 0 }
            }
        };
        outcomes.push(outcome);
    }

    BatchPlan {
        updates,
        unique_queries,
        query_refs,
        outcomes,
        cancelled_pairs,
        rejected,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdmsf_graph::Weight;

    fn link(u: u32, v: u32, w: i64) -> BatchOp {
        BatchOp::Link {
            u: VertexId(u),
            v: VertexId(v),
            weight: Weight::new(w),
        }
    }

    #[test]
    fn plan_assigns_sequential_ids_and_cancels_opposing_pairs() {
        let mut g = DynGraph::new(4);
        g.insert_edge(VertexId(0), VertexId(1), Weight::new(5)); // id 0
        let ops = vec![
            link(1, 2, 7),                    // id 1
            link(2, 3, 9),                    // id 2 — flap
            BatchOp::Cut { id: EdgeId(2) },   // cancels the flap
            BatchOp::Cut { id: EdgeId(0) },   // cuts a pre-existing edge
            BatchOp::Cut { id: EdgeId(0) },   // duplicate → rejected
            BatchOp::Cut { id: EdgeId(100) }, // unknown → rejected
        ];
        let plan = plan(&g, &ops);
        assert_eq!(plan.updates.len(), 4);
        assert_eq!(plan.cancelled_pairs, 1);
        assert_eq!(plan.rejected, 2);
        assert!(matches!(
            plan.updates[1],
            PlannedUpdate::Link {
                id: EdgeId(2),
                cancelled: true,
                ..
            }
        ));
        assert!(matches!(
            plan.updates[2],
            PlannedUpdate::Cut {
                id: EdgeId(2),
                cancelled: true
            }
        ));
        assert!(matches!(
            plan.updates[3],
            PlannedUpdate::Cut {
                id: EdgeId(0),
                cancelled: false
            }
        ));
        assert_eq!(plan.outcomes[0], Outcome::Linked { id: EdgeId(1) });
        assert!(matches!(plan.outcomes[4], Outcome::Rejected { .. }));
        assert!(matches!(plan.outcomes[5], Outcome::Rejected { .. }));
    }

    #[test]
    fn plan_dedups_queries_in_both_orientations() {
        let g = DynGraph::new(4);
        let ops = vec![
            BatchOp::QueryConnected {
                u: VertexId(0),
                v: VertexId(1),
            },
            BatchOp::QueryConnected {
                u: VertexId(1),
                v: VertexId(0),
            },
            BatchOp::QueryForestWeight,
            BatchOp::QueryForestWeight,
            BatchOp::QueryConnected {
                u: VertexId(2),
                v: VertexId(3),
            },
        ];
        let plan = plan(&g, &ops);
        assert_eq!(plan.unique_queries.len(), 3);
        assert_eq!(plan.query_refs.len(), 5);
        assert_eq!(plan.query_refs[0].1, plan.query_refs[1].1);
        assert_eq!(plan.query_refs[2].1, plan.query_refs[3].1);
        assert_ne!(plan.query_refs[0].1, plan.query_refs[4].1);
    }

    #[test]
    fn plan_rejects_bad_endpoints_and_self_loops() {
        let g = DynGraph::new(3);
        let ops = vec![
            link(0, 9, 1),
            link(1, 1, 1),
            BatchOp::QueryConnected {
                u: VertexId(7),
                v: VertexId(0),
            },
        ];
        let plan = plan(&g, &ops);
        assert_eq!(plan.rejected, 3);
        assert!(plan.updates.is_empty());
        assert!(plan.unique_queries.is_empty());
        // Rejected links consume no id: the next valid link gets the first
        // free id.
        let plan2 = super::plan(&g, &[link(0, 9, 1), link(0, 1, 1)]);
        assert_eq!(plan2.outcomes[1], Outcome::Linked { id: EdgeId(0) });
    }
}
