//! Conflict coloring of a planned batch's surviving updates.
//!
//! On an engine with more than one partition (see
//! [`crate::Engine::with_partitions`]) the apply pass defers a batch's
//! structure-surviving updates and splits them into [`UpdateGroup`]s whose
//! **partition classes are disjoint**, so the groups can mutate the
//! component-partitioned structure concurrently with no synchronization.
//! One-partition engines and forced-serial apply never color.
//!
//! The coloring is **component-granular with partition-bank escalation**:
//! every update is keyed by its endpoints' component representatives —
//! `home_of(v)` resolves a vertex to the partition owning its component,
//! which *is* the component's location under the containment invariant —
//! and two updates merge into one group exactly when their components
//! would touch the same partition's banks (a link additionally fuses its
//! two endpoints' classes, since a cross-partition link migrates one
//! component into the other's partition). Updates whose classes meet form
//! one group, in batch arrival order (the first update of a class fixes
//! the group's position, so group order is deterministic too).
//!
//! Escalating to the partition level whenever two components share a bank
//! makes the fixpoint identical to a union-find over partition ids — the
//! granularity at which the structure can actually be mutated
//! independently — so the produced groups are exactly the old
//! partition-granular ones and every downstream identity argument carries
//! over unchanged. What changes is the cost: the coloring is a union-find
//! over the batch's *updates* with one hash probe per endpoint, `O(U·α)`
//! for `U` surviving updates, independent of the partition count `P`. The
//! old coloring allocated and swept a `P`-sized union-find per batch,
//! which stops being noise once adaptive rebalancing
//! ([`ComponentPartitionedMsf::maybe_rebalance`]) raises effective
//! partition counts well above the batch size. The grouping stays *closed
//! under migration*: a group's cross-partition links only ever move
//! components between partitions of that group's own class, so the
//! classes stay disjoint for the whole batch (the safety argument of
//! `pdmsf_core::partition`).

use pdmsf_core::{ComponentPartitionedMsf, GroupUpdate, UpdateGroup};
use pdmsf_graph::UnionFind;

/// Color the resolved updates into conflict-free groups (see module docs).
/// Groups appear in order of their first update's arrival; updates keep
/// arrival order inside each group.
pub(crate) fn color_groups(
    structure: &ComponentPartitionedMsf,
    resolved: &[GroupUpdate],
) -> Vec<UpdateGroup> {
    use std::collections::hash_map::Entry;
    use std::collections::HashMap;

    let m = resolved.len();
    // Union-find over *updates*. Each update resolves its endpoints to
    // their component representatives' partitions; two updates fuse when a
    // component of one would touch a partition bank a component of the
    // other already claimed. `first_touch` maps each claimed bank to the
    // first update that touched it — one hash probe per endpoint keeps the
    // whole pass O(U·α), independent of the partition count.
    let mut uf = UnionFind::new(m);
    let mut first_touch: HashMap<u32, u32> = HashMap::new();
    let mut touched: Vec<(u32, u32)> = Vec::with_capacity(m);
    for (i, update) in resolved.iter().enumerate() {
        let (pu, pv) = match *update {
            GroupUpdate::Link(e) => (structure.home_of(e.u), structure.home_of(e.v)),
            GroupUpdate::Cut { endpoint, .. } => {
                let p = structure.home_of(endpoint);
                (p, p)
            }
        };
        touched.push((pu, pv));
        for p in [pu, pv] {
            match first_touch.entry(p) {
                Entry::Occupied(o) => {
                    uf.union(i, *o.get() as usize);
                }
                Entry::Vacant(slot) => {
                    slot.insert(i as u32);
                }
            }
        }
    }
    let mut class_group: Vec<u32> = vec![u32::MAX; m];
    let mut groups: Vec<UpdateGroup> = Vec::new();
    for (i, update) in resolved.iter().enumerate() {
        let class = uf.find(i);
        let gi = if class_group[class] == u32::MAX {
            class_group[class] = groups.len() as u32;
            groups.push(UpdateGroup {
                updates: Vec::new(),
                parts: Vec::new(),
            });
            groups.len() - 1
        } else {
            class_group[class] as usize
        };
        groups[gi].updates.push(*update);
        // Accumulate the group's partition closure from its members'
        // endpoint homes — exactly the banks the apply path may touch
        // (migrations only move components between a group's own banks).
        let (pu, pv) = touched[i];
        groups[gi].parts.push(pu);
        if pv != pu {
            groups[gi].parts.push(pv);
        }
    }
    for g in &mut groups {
        g.parts.sort_unstable();
        g.parts.dedup();
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdmsf_core::ComponentPartitionedMsf;
    use pdmsf_graph::{Edge, EdgeId, VertexId, Weight};

    fn link(id: u32, u: u32, v: u32) -> GroupUpdate {
        GroupUpdate::Link(Edge {
            id: EdgeId(id),
            u: VertexId(u),
            v: VertexId(v),
            weight: Weight::new(1),
        })
    }

    #[test]
    fn disjoint_partitions_get_disjoint_groups() {
        // 16 vertices, 4 block partitions of 4 vertices each.
        let structure = ComponentPartitionedMsf::with_chunk_parameter(16, 4, 4);
        let resolved = vec![
            link(0, 0, 1),   // partition 0
            link(1, 4, 5),   // partition 1
            link(2, 8, 13),  // crosses partitions 2 and 3
            link(3, 1, 2),   // partition 0 again — joins group 0
            link(4, 14, 15), // partition 3 — joins the {2,3} group
        ];
        let groups = color_groups(&structure, &resolved);
        assert_eq!(groups.len(), 3);
        assert_eq!(groups[0].updates, vec![resolved[0], resolved[3]]);
        assert_eq!(groups[1].updates, vec![resolved[1]]);
        assert_eq!(groups[2].updates, vec![resolved[2], resolved[4]]);
        assert_eq!(groups[0].parts, vec![0]);
        assert_eq!(groups[1].parts, vec![1]);
        assert_eq!(groups[2].parts, vec![2, 3]);
    }

    #[test]
    fn cuts_color_by_their_edge_partition() {
        let structure = ComponentPartitionedMsf::with_chunk_parameter(8, 2, 3);
        let resolved = vec![
            GroupUpdate::Cut {
                id: EdgeId(0),
                endpoint: VertexId(0), // partition 0
            },
            link(1, 5, 6), // partition 1
        ];
        let groups = color_groups(&structure, &resolved);
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].parts, vec![0]);
        assert_eq!(groups[1].parts, vec![1]);
    }
}
