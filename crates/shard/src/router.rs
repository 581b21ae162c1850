//! The routing pass: one pure-ish sweep over a tenant-tagged batch that
//! partitions it into per-shard sub-batches.
//!
//! The router does three jobs in one pass, all in plain code (no structural
//! work):
//!
//! * **Validation against the tenant, not the shard.** A shard engine hosts
//!   several tenants, so its own range checks are too permissive: vertex 9
//!   of a 4-vertex tenant may be a perfectly valid vertex *of the shard*
//!   (it belongs to the next tenant's block). Every link and connectivity
//!   query is therefore checked here by the planner's own rules
//!   ([`link_reject`], [`query_reject`]) against the tenant's vertex
//!   count, and invalid operations are resolved to [`Outcome::Rejected`]
//!   immediately — they never reach a shard, and they consume no edge id
//!   (exactly like a per-tenant engine).
//! * **Identifier translation.** Vertices shift by the tenant's block base.
//!   Edge ids translate through the tenant's id map: the router *pre-
//!   assigns* the shard-global id of every forwarded link by mirroring the
//!   shard engine's deterministic sequential allocation (the shard planner
//!   allocates ids in sub-batch order for exactly the links the router
//!   forwards, starting at the mirror's frontier — so the prediction is
//!   exact, and `debug_assert`ed at reassembly). This is what lets a `Cut`
//!   later in the same batch name a link born earlier in the batch — the
//!   flap pattern the shard planner then cancels.
//! * **Order preservation.** Ops are appended to their shard's sub-batch in
//!   arrival order, so any two ops of one tenant keep their relative order
//!   (a tenant lives on exactly one shard). Ops of different tenants on
//!   different shards run concurrently — they commute, because tenants
//!   never share vertices.
//!
//! Tenant forest-weight queries are not forwarded as shard-engine ops at
//! all (an engine's weight query answers for its *whole* shard): they
//! become per-tenant sweep requests, deduplicated per tenant, served by
//! [`pdmsf_engine::Engine::forest_weight_in_range`] after the shard's
//! updates have been applied — the same post-update snapshot point every
//! other query of the batch observes.

use crate::TenantRecord;
use pdmsf_engine::{link_reject, query_reject, Engine, Op, Outcome, Reject};
use pdmsf_graph::{BatchOp, EdgeId, TenantId, TenantOp, VertexId};
use std::collections::HashMap;

/// Where each per-op outcome comes from, in the caller's op order.
#[derive(Clone, Copy, Debug)]
pub enum Source {
    /// Resolved by the router (rejections).
    Ready(Outcome),
    /// A forwarded link: outcome is `Linked` with the tenant-local id
    /// `local` (the shard's global id is translated away).
    Link {
        /// Dispatch slot.
        slot: u32,
        /// Position in the slot's sub-batch.
        pos: u32,
        /// Tenant-local edge id assigned to this link.
        local: u32,
    },
    /// A forwarded cut: `Cut` translates back to the tenant-local id
    /// `local`; a rejection (dead/duplicate edge) passes through.
    Cut {
        /// Dispatch slot.
        slot: u32,
        /// Position in the slot's sub-batch.
        pos: u32,
        /// Tenant-local id the caller named.
        local: u32,
    },
    /// A forwarded connectivity query: outcome passes through unchanged.
    Query {
        /// Dispatch slot.
        slot: u32,
        /// Position in the slot's sub-batch.
        pos: u32,
    },
    /// A tenant forest-weight query, answered by sweep request `req` of
    /// dispatch slot `slot`.
    Weight {
        /// Dispatch slot.
        slot: u32,
        /// Index into the slot's weight-request list.
        req: u32,
    },
}

/// A routed service batch: per-slot sub-batches plus the outcome mapping.
/// Slots are shards the batch touches, in first-touch order.
pub(crate) struct Routed {
    /// Shard index per slot.
    pub slots: Vec<usize>,
    /// Translated shard-engine ops per slot.
    pub sub_batches: Vec<Vec<Op>>,
    /// Tenant indices (dense) whose forest weight each slot must sweep.
    pub weight_reqs: Vec<Vec<u32>>,
    /// Outcome source per original op.
    pub sources: Vec<Source>,
    /// Ops rejected by the router.
    pub router_rejected: usize,
    /// Tenant weight queries routed (before per-tenant dedup).
    pub weight_queries: usize,
}

/// Route `ops` into per-shard sub-batches. Mutates only the tenants'
/// edge-id maps (pre-assigned link ids); engines are read for their id
/// frontier.
pub(crate) fn route(
    tenants: &mut [TenantRecord],
    lookup: &HashMap<TenantId, u32>,
    shards: &[Engine],
    ops: &[TenantOp],
) -> Routed {
    let mut slots: Vec<usize> = Vec::new();
    let mut sub_batches: Vec<Vec<Op>> = Vec::new();
    let mut weight_reqs: Vec<Vec<u32>> = Vec::new();
    // Predicted next shard-global edge id per slot (the shard planner
    // allocates sequentially from the mirror's frontier).
    let mut next_gid: Vec<u32> = Vec::new();
    let mut slot_of_shard: Vec<Option<u32>> = vec![None; shards.len()];
    // Weight-sweep request per tenant, deduplicated within the batch.
    let mut weight_req_of_tenant: Vec<Option<u32>> = vec![None; tenants.len()];
    let mut sources: Vec<Source> = Vec::with_capacity(ops.len());
    let mut router_rejected = 0usize;
    let mut weight_queries = 0usize;

    let mut slot_for = |shard: usize,
                        slots: &mut Vec<usize>,
                        sub_batches: &mut Vec<Vec<Op>>,
                        weight_reqs: &mut Vec<Vec<u32>>,
                        next_gid: &mut Vec<u32>|
     -> u32 {
        match slot_of_shard[shard] {
            Some(slot) => slot,
            None => {
                let slot = slots.len() as u32;
                slot_of_shard[shard] = Some(slot);
                slots.push(shard);
                sub_batches.push(Vec::new());
                weight_reqs.push(Vec::new());
                next_gid.push(shards[shard].graph().edge_id_bound() as u32);
                slot
            }
        }
    };

    for op in ops {
        let Some(&tix) = lookup.get(&op.tenant) else {
            sources.push(Source::Ready(Outcome::Rejected {
                reason: Reject::UnknownTenant,
            }));
            router_rejected += 1;
            continue;
        };
        let (shard, base, tn) = {
            let t = &tenants[tix as usize];
            (t.shard as usize, t.base, t.vertices as usize)
        };
        let translate = |v: VertexId| VertexId(base + v.0);
        let source = match op.op {
            BatchOp::Link { u, v, weight } => {
                if let Some(reason) = link_reject(tn, u, v) {
                    router_rejected += 1;
                    Source::Ready(Outcome::Rejected { reason })
                } else {
                    let slot = slot_for(
                        shard,
                        &mut slots,
                        &mut sub_batches,
                        &mut weight_reqs,
                        &mut next_gid,
                    );
                    let gid = EdgeId(next_gid[slot as usize]);
                    next_gid[slot as usize] += 1;
                    let t = &mut tenants[tix as usize];
                    let local = t.edge_ids.len() as u32;
                    t.edge_ids.push(gid);
                    let pos = sub_batches[slot as usize].len() as u32;
                    sub_batches[slot as usize].push(Op::Link {
                        u: translate(u),
                        v: translate(v),
                        weight,
                    });
                    Source::Link { slot, pos, local }
                }
            }
            BatchOp::Cut { id } => {
                match tenants[tix as usize].edge_ids.get(id.index()).copied() {
                    None => {
                        // The tenant never allocated this local id; a
                        // per-tenant engine would reject it the same way.
                        router_rejected += 1;
                        Source::Ready(Outcome::Rejected {
                            reason: Reject::UnknownOrDeadEdge,
                        })
                    }
                    Some(gid) => {
                        let slot = slot_for(
                            shard,
                            &mut slots,
                            &mut sub_batches,
                            &mut weight_reqs,
                            &mut next_gid,
                        );
                        let pos = sub_batches[slot as usize].len() as u32;
                        sub_batches[slot as usize].push(Op::Cut { id: gid });
                        Source::Cut {
                            slot,
                            pos,
                            local: id.0,
                        }
                    }
                }
            }
            BatchOp::QueryConnected { u, v } => {
                if let Some(reason) = query_reject(tn, u, v) {
                    router_rejected += 1;
                    Source::Ready(Outcome::Rejected { reason })
                } else {
                    let slot = slot_for(
                        shard,
                        &mut slots,
                        &mut sub_batches,
                        &mut weight_reqs,
                        &mut next_gid,
                    );
                    let pos = sub_batches[slot as usize].len() as u32;
                    sub_batches[slot as usize].push(Op::QueryConnected {
                        u: translate(u),
                        v: translate(v),
                    });
                    Source::Query { slot, pos }
                }
            }
            BatchOp::QueryForestWeight => {
                weight_queries += 1;
                let slot = slot_for(
                    shard,
                    &mut slots,
                    &mut sub_batches,
                    &mut weight_reqs,
                    &mut next_gid,
                );
                let req = match weight_req_of_tenant[tix as usize] {
                    Some(req) => req,
                    None => {
                        let req = weight_reqs[slot as usize].len() as u32;
                        weight_reqs[slot as usize].push(tix);
                        weight_req_of_tenant[tix as usize] = Some(req);
                        req
                    }
                };
                Source::Weight { slot, req }
            }
        };
        sources.push(source);
    }

    Routed {
        slots,
        sub_batches,
        weight_reqs,
        sources,
        router_rejected,
        weight_queries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ShardedService, TenantSpec};
    use pdmsf_graph::Weight;

    fn ops_for(t: u32, n: u32) -> Vec<TenantOp> {
        (0..n)
            .map(|i| TenantOp {
                tenant: TenantId(t),
                op: BatchOp::Link {
                    u: VertexId(i % 4),
                    v: VertexId((i + 1) % 4),
                    weight: Weight::new(i as i64 + 1),
                },
            })
            .collect()
    }

    /// Routing an interleaved two-tenant batch keeps each tenant's ops in
    /// arrival order inside its shard sub-batch.
    #[test]
    fn per_tenant_order_is_preserved() {
        let specs = [
            TenantSpec::pinned(TenantId(0), 4, 0),
            TenantSpec::pinned(TenantId(1), 4, 0), // same shard on purpose
            TenantSpec::pinned(TenantId(2), 4, 1),
        ];
        let mut svc = ShardedService::new(2, &specs);
        // Round-robin over the three tenants; the weight encodes arrival
        // order so the routed sub-batches can be checked for it.
        let ops: Vec<TenantOp> = (0..6u32)
            .map(|i| TenantOp {
                tenant: TenantId(i % 3),
                op: BatchOp::Link {
                    u: VertexId(0),
                    v: VertexId(1 + (i / 3)),
                    weight: Weight::new(i as i64 + 1),
                },
            })
            .collect();
        let routed = route(&mut svc.tenants, &svc.lookup, &svc.shards, &ops);
        // Shard 0 hosts tenants 0 and 1 interleaved; weights encode arrival
        // order, so each tenant's weights must appear increasing.
        let slot0 = routed
            .slots
            .iter()
            .position(|&s| s == 0)
            .expect("shard 0 touched");
        let weights: Vec<i64> = routed.sub_batches[slot0]
            .iter()
            .map(|op| match op {
                Op::Link { weight, .. } => weight.raw(),
                _ => unreachable!("only links routed"),
            })
            .collect();
        // Tenant 0 sent weights 1, 4; tenant 1 sent 2, 5 — interleaved as
        // 1, 2, 4, 5 by arrival order.
        assert_eq!(weights, vec![1, 2, 4, 5]);
        // Shard 1 (tenant 2) got 3, 6.
        let slot1 = routed.slots.iter().position(|&s| s == 1).unwrap();
        let w1: Vec<i64> = routed.sub_batches[slot1]
            .iter()
            .map(|op| match op {
                Op::Link { weight, .. } => weight.raw(),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(w1, vec![3, 6]);
    }

    /// The same batch routed against two freshly built services produces
    /// identical slots, sub-batches and sources — deterministic placement
    /// and routing across runs.
    #[test]
    fn routing_is_deterministic_across_runs() {
        let specs: Vec<TenantSpec> = (0..8).map(|t| TenantSpec::new(TenantId(t), 6)).collect();
        let mut ops = Vec::new();
        for t in 0..8u32 {
            ops.extend(ops_for(t, 3));
            ops.push(TenantOp {
                tenant: TenantId(t),
                op: BatchOp::QueryForestWeight,
            });
        }
        let mut a = ShardedService::new(4, &specs);
        let mut b = ShardedService::new(4, &specs);
        let ra = route(&mut a.tenants, &a.lookup, &a.shards, &ops);
        let rb = route(&mut b.tenants, &b.lookup, &b.shards, &ops);
        assert_eq!(ra.slots, rb.slots);
        assert_eq!(ra.sub_batches, rb.sub_batches);
        assert_eq!(ra.weight_reqs, rb.weight_reqs);
        assert_eq!(ra.router_rejected, 0);
        assert_eq!(ra.weight_queries, 8);
        // Sources have no Eq derive; compare the debug rendering.
        assert_eq!(format!("{:?}", ra.sources), format!("{:?}", rb.sources));
    }

    /// Weight queries dedup to one sweep per tenant per batch.
    #[test]
    fn weight_queries_dedup_per_tenant() {
        let specs = [
            TenantSpec::new(TenantId(0), 4),
            TenantSpec::new(TenantId(1), 4),
        ];
        let mut svc = ShardedService::new(2, &specs);
        let ops: Vec<TenantOp> = (0..6)
            .map(|i| TenantOp {
                tenant: TenantId(i % 2),
                op: BatchOp::QueryForestWeight,
            })
            .collect();
        let routed = route(&mut svc.tenants, &svc.lookup, &svc.shards, &ops);
        assert_eq!(routed.weight_queries, 6);
        let total_reqs: usize = routed.weight_reqs.iter().map(Vec::len).sum();
        assert_eq!(total_reqs, 2, "one sweep per tenant, not per query");
    }
}
