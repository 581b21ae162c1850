//! Sparsification (paper Section 5, after Eppstein et al.).
//!
//! The core structure assumes a sparse graph (`m = O(n)`). Sparsification
//! removes that assumption: edges are partitioned into groups arranged as the
//! leaves of a balanced binary tree; every tree node maintains a dynamic MSF
//! instance over the union of its children's *certificates* (their MSF edge
//! sets), so each instance only ever holds `O(n)` edges. An update touches
//! one leaf and propagates at most one insertion plus one deletion per level
//! (this is exactly the [`MsfDelta`] the [`DynamicMsf`] trait reports), so
//! the cost per update is `O(log(m/n))` instances of the inner structure's
//! update cost. As in the paper's parallel sparsification, the per-level
//! updates are independent and could run concurrently; this wrapper runs
//! them in turn, and each inner structure meters only its own updates.
//!
//! Substitution note (listed in PAPER.md's reproduction notes): the paper
//! builds the edge-partition tree over a recursive *vertex* partition,
//! which yields geometrically shrinking local graphs. We use the classical
//! edge-group variant of Eppstein et al.'s sparsification, which has the
//! same interface, the same `O(1)` certificate-change-per-level property
//! and the same qualitative behaviour for the `paper` experiment's density
//! sweep: the update cost depends on `n` and only logarithmically on `m`.

use pdmsf_graph::arena::EdgeSlotMap;
use pdmsf_graph::{DynamicMsf, Edge, EdgeId, MsfDelta, VertexId};

/// A node of the sparsification tree.
struct Node<M> {
    /// Dynamic MSF instance over this node's local edge set.
    instance: M,
    parent: Option<usize>,
}

/// Sparsified dynamic MSF: a balanced binary tree of inner structures, each
/// holding `O(n)` edges.
pub struct SparsifiedMsf<M> {
    nodes: Vec<Node<M>>,
    leaves: Vec<usize>,
    root: usize,
    num_vertices: usize,
    /// Live edges: id -> (edge, leaf index), in a flat slot arena.
    edges: EdgeSlotMap<(Edge, u32)>,
    /// Live-edge count per leaf (used to pick the least-loaded leaf).
    leaf_load: Vec<usize>,
    /// Target number of edges per leaf.
    group_size: usize,
}

impl<M: DynamicMsf> SparsifiedMsf<M> {
    /// Build a sparsification tree over `n` vertices with `num_leaves` edge
    /// groups (rounded up to a power of two), creating inner instances with
    /// `factory(n)`.
    pub fn with_leaves<F: FnMut(usize) -> M>(n: usize, num_leaves: usize, mut factory: F) -> Self {
        let num_leaves = num_leaves.max(1).next_power_of_two();
        let mut nodes = Vec::new();
        let mut level: Vec<usize> = Vec::new();
        let mut leaves = Vec::new();
        for _ in 0..num_leaves {
            let idx = nodes.len();
            nodes.push(Node {
                instance: Self::make_instance(&mut factory, n),
                parent: None,
            });
            level.push(idx);
            leaves.push(idx);
        }
        while level.len() > 1 {
            let mut next = Vec::new();
            for pair in level.chunks(2) {
                let idx = nodes.len();
                nodes.push(Node {
                    instance: Self::make_instance(&mut factory, n),
                    parent: None,
                });
                nodes[pair[0]].parent = Some(idx);
                if let Some(&r) = pair.get(1) {
                    nodes[r].parent = Some(idx);
                }
                next.push(idx);
            }
            level = next;
        }
        let root = level[0];
        SparsifiedMsf {
            nodes,
            leaf_load: vec![0; leaves.len()],
            leaves,
            root,
            num_vertices: n,
            edges: EdgeSlotMap::default(),
            group_size: n.max(8),
        }
    }

    /// Convenience constructor sized for graphs with up to `expected_edges`
    /// edges (`~ expected_edges / n` leaves).
    pub fn new_with_capacity<F: FnMut(usize) -> M>(
        n: usize,
        expected_edges: usize,
        factory: F,
    ) -> Self {
        let leaves = (expected_edges / n.max(1)).max(1);
        Self::with_leaves(n, leaves, factory)
    }

    fn make_instance<F: FnMut(usize) -> M>(factory: &mut F, n: usize) -> M {
        let instance = factory(n);
        assert_eq!(
            instance.num_vertices(),
            n,
            "sparsification factory must create instances over n vertices"
        );
        instance
    }

    /// Number of tree levels (root inclusive).
    pub fn num_levels(&self) -> usize {
        let mut depth = 1;
        let mut cur = self.leaves[0];
        while let Some(p) = self.nodes[cur].parent {
            depth += 1;
            cur = p;
        }
        depth
    }

    /// Number of inner instances.
    pub fn num_instances(&self) -> usize {
        self.nodes.len()
    }

    /// The root instance (whose forest is the MSF of the whole graph).
    pub fn root_instance(&self) -> &M {
        &self.nodes[self.root].instance
    }

    /// Pick the leaf for a new edge: the least-loaded leaf (keeps every leaf
    /// at `O(m / num_leaves)` edges).
    fn pick_leaf(&self) -> usize {
        let mut best = 0;
        for (i, &load) in self.leaf_load.iter().enumerate() {
            if load < self.leaf_load[best] {
                best = i;
            }
        }
        // `group_size` is only advisory: exceeding it keeps the structure
        // correct, it just makes that leaf's instance larger.
        let _ = self.group_size;
        best
    }

    /// Propagate a certificate change from `node` upwards.
    ///
    /// At each ancestor we delete every edge that left the child's
    /// certificate and insert every edge that entered it, then continue with
    /// that ancestor's own net certificate change. Eppstein et al.'s
    /// stability argument bounds the change at one swap per level for MSF
    /// certificates; the implementation nevertheless carries *lists* of
    /// changes so that correctness never depends on that bound. The net
    /// change at the root (a single graph update changes the global MSF by at
    /// most one swap) is returned as an ordinary [`MsfDelta`].
    fn propagate(&mut self, start: usize, delta: MsfDelta) -> MsfDelta {
        let mut added: Vec<EdgeId> = delta.added.into_iter().collect();
        let mut removed: Vec<EdgeId> = delta.removed.into_iter().collect();
        let mut node = start;
        while let Some(parent) = self.nodes[node].parent {
            if added.is_empty() && removed.is_empty() {
                return MsfDelta::NONE;
            }
            let mut effects = Vec::new();
            for &gone in &removed {
                if self.nodes[parent].instance.contains_edge(gone) {
                    effects.push(self.nodes[parent].instance.delete(gone));
                }
            }
            for &fresh in &added {
                let edge = self
                    .edges
                    .get_by_id(fresh)
                    .expect("certificate edge must be live")
                    .0;
                if !self.nodes[parent].instance.contains_edge(fresh) {
                    effects.push(self.nodes[parent].instance.insert(edge));
                }
            }
            let (a, r) = combine_deltas(&effects);
            added = a;
            removed = r;
            node = parent;
        }
        debug_assert!(added.len() <= 1 && removed.len() <= 1);
        MsfDelta {
            added: added.first().copied(),
            removed: removed.first().copied(),
        }
    }
}

/// Combine the certificate effects of the operations applied at one level
/// into net lists of edges that entered / left that level's certificate.
fn combine_deltas(effects: &[MsfDelta]) -> (Vec<EdgeId>, Vec<EdgeId>) {
    let mut added = Vec::new();
    let mut removed = Vec::new();
    for d in effects {
        if let Some(a) = d.added {
            added.push(a);
        }
        if let Some(r) = d.removed {
            removed.push(r);
        }
    }
    // Cancel edges that both entered and left within the same level.
    added.retain(|a| {
        if let Some(pos) = removed.iter().position(|r| r == a) {
            removed.remove(pos);
            false
        } else {
            true
        }
    });
    (added, removed)
}

impl<M: DynamicMsf> DynamicMsf for SparsifiedMsf<M> {
    fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    fn add_vertex(&mut self) -> VertexId {
        let mut id = None;
        for node in &mut self.nodes {
            let v = node.instance.add_vertex();
            match id {
                None => id = Some(v),
                Some(prev) => debug_assert_eq!(prev, v),
            }
        }
        self.num_vertices += 1;
        id.expect("sparsification tree has at least one node")
    }

    fn insert(&mut self, e: Edge) -> MsfDelta {
        let leaf_idx = self.pick_leaf();
        let leaf = self.leaves[leaf_idx];
        // The slot map panics on duplicate registration.
        self.edges.insert(e.id, (e, leaf_idx as u32));
        self.leaf_load[leaf_idx] += 1;
        let delta = self.nodes[leaf].instance.insert(e);
        self.propagate(leaf, delta)
    }

    fn delete(&mut self, id: EdgeId) -> MsfDelta {
        let (_, leaf_idx) = self
            .edges
            .remove(id)
            .unwrap_or_else(|| panic!("edge {id:?} is not live"));
        let leaf_idx = leaf_idx as usize;
        self.leaf_load[leaf_idx] -= 1;
        let leaf = self.leaves[leaf_idx];
        let delta = self.nodes[leaf].instance.delete(id);
        self.propagate(leaf, delta)
    }

    fn contains_edge(&self, id: EdgeId) -> bool {
        self.edges.get_by_id(id).is_some()
    }

    fn is_forest_edge(&self, id: EdgeId) -> bool {
        self.nodes[self.root].instance.is_forest_edge(id)
    }

    fn forest_edges(&self) -> Vec<EdgeId> {
        self.nodes[self.root].instance.forest_edges()
    }

    fn forest_weight(&self) -> i128 {
        self.nodes[self.root].instance.forest_weight()
    }

    fn connected(&mut self, u: VertexId, v: VertexId) -> bool {
        self.nodes[self.root].instance.connected(u, v)
    }
}
