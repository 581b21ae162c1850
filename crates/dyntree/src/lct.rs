//! Link-cut trees over splay trees, with maximum-`WKey` path aggregation.
//!
//! Each operation makes at most two accesses: `path_max` roots the tree at
//! one endpoint and finds the root from the other, which answers
//! connectivity and exposes the path at once; `link` checks for a cycle
//! the same way; `cut` roots at one endpoint and accesses the other, which
//! exposes exactly the edge and its endpoints, and detaches them locally.
//!
//! A splay node is five `u32`s and a flag (24 bytes): its links, its edge
//! slot (none for a vertex node) and the edge slot of the heaviest edge in
//! its splay subtree. An edge's key and endpoints are stored once, in its
//! slot, and aggregation compares keys through the slots.

use pdmsf_graph::arena::EdgeIdIndex;
use pdmsf_graph::{EdgeId, VertexId, WKey};

const NONE: u32 = u32::MAX;

#[derive(Clone, Copy, Debug)]
struct Node {
    parent: u32,
    child: [u32; 2],
    /// The node's edge slot: `NONE` for a vertex node.
    edge: u32,
    /// Edge slot of the heaviest edge in this node's splay subtree
    /// (including its own), `NONE` if the subtree holds no edge node.
    max: u32,
    /// Lazy "reverse this splay subtree" flag (needed for `make_root`).
    flip: bool,
}

// A node holds no key or endpoints, only indices; keep it that small.
const _: () = assert!(std::mem::size_of::<Node>() <= 24);

impl Node {
    /// A detached node for edge slot `edge` (`NONE`: a vertex node).
    fn new(edge: u32) -> Self {
        Node {
            parent: NONE,
            child: [NONE, NONE],
            edge,
            max: edge,
            flip: false,
        }
    }
}

/// A forest of rooted trees supporting `link`, `cut`, `connected` and
/// "heaviest edge on the path between two vertices" queries, all in
/// amortised `O(log n)`.
///
/// Vertices are identified by [`VertexId`]; forest edges carry an [`EdgeId`]
/// and a [`WKey`] and are represented internally as their own nodes.
#[derive(Clone, Debug, Default)]
pub struct LinkCutForest {
    nodes: Vec<Node>,
    /// Internal node index of each vertex.
    vertex_node: Vec<u32>,
    /// Paged edge id -> internal edge node index (no hashing; the node's
    /// edge slot holds the endpoints).
    edge_node: EdgeIdIndex,
    /// Key of the edge in each edge slot.
    keys: Vec<WKey>,
    /// Endpoints of the edge in each edge slot.
    ends: Vec<(VertexId, VertexId)>,
    /// Edge nodes and their edge slots freed by cuts, reused together.
    free_edges: Vec<(u32, u32)>,
    num_edges: usize,
    /// `splay`'s push-down path, kept between calls to reuse its buffer.
    splay_path: Vec<u32>,
}

impl LinkCutForest {
    /// A forest of `n` isolated vertices.
    pub fn new(n: usize) -> Self {
        let mut forest = LinkCutForest::default();
        for _ in 0..n {
            forest.add_vertex();
        }
        forest
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.vertex_node.len()
    }

    /// Number of live forest edges.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Append a new isolated vertex.
    pub fn add_vertex(&mut self) -> VertexId {
        let id = VertexId::from(self.vertex_node.len());
        self.vertex_node.push(self.nodes.len() as u32);
        self.nodes.push(Node::new(NONE));
        id
    }

    /// Whether the forest currently contains the given edge.
    pub fn contains_edge(&self, e: EdgeId) -> bool {
        self.edge_node.get(e).is_some()
    }

    /// The endpoints of a live forest edge.
    pub fn edge_endpoints(&self, e: EdgeId) -> Option<(VertexId, VertexId)> {
        self.edge_node
            .get(e)
            .map(|n| self.ends[self.nodes[n as usize].edge as usize])
    }

    /// Whether `u` and `v` are in the same tree.
    pub fn connected(&mut self, u: VertexId, v: VertexId) -> bool {
        if u == v {
            return true;
        }
        let (nu, nv) = (self.vertex_node[u.index()], self.vertex_node[v.index()]);
        let ru = self.find_root(nu);
        let rv = self.find_root(nv);
        ru == rv
    }

    /// Add the edge `e = {u, v}` with key `key` to the forest.
    ///
    /// # Panics
    /// Panics if `u` and `v` are already connected, if `u == v`, or if `e` is
    /// already present.
    pub fn link(&mut self, u: VertexId, v: VertexId, e: EdgeId, key: WKey) {
        assert!(u != v, "cannot link a vertex to itself");
        assert!(!self.contains_edge(e), "edge {e:?} already in the forest");
        let nu = self.vertex_node[u.index()];
        let nv = self.vertex_node[v.index()];
        // Once u roots its tree, v's tree has another root unless they are
        // connected.
        self.make_root(nu);
        assert!(
            self.find_root(nv) != nu,
            "link({u:?}, {v:?}) would create a cycle"
        );
        let enode = match self.free_edges.pop() {
            Some((enode, slot)) => {
                self.keys[slot as usize] = key;
                self.ends[slot as usize] = (u, v);
                self.nodes[enode as usize] = Node::new(slot);
                enode
            }
            None => {
                self.keys.push(key);
                self.ends.push((u, v));
                self.nodes.push(Node::new((self.keys.len() - 1) as u32));
                (self.nodes.len() - 1) as u32
            }
        };
        // Attach u - enode - v with two path-parent pointers: u still roots
        // its tree and its splay tree (the root find ran in v's tree), and
        // the fresh enode is a tree of its own.
        self.nodes[nu as usize].parent = enode;
        self.nodes[enode as usize].parent = nv;
        self.edge_node.set(e, enode);
        self.num_edges += 1;
    }

    /// Remove the edge `e` from the forest.
    ///
    /// # Panics
    /// Panics if the edge is not present.
    pub fn cut(&mut self, e: EdgeId) {
        let enode = self
            .edge_node
            .remove(e)
            .unwrap_or_else(|| panic!("edge {e:?} is not in the forest"));
        let slot = self.nodes[enode as usize].edge;
        let (u, v) = self.ends[slot as usize];
        let nu = self.vertex_node[u.index()];
        let nv = self.vertex_node[v.index()];
        // With u the root, accessing v exposes the path u, enode, v: v's
        // splay tree holds exactly these three nodes, u and enode to its left.
        self.make_root(nu);
        self.access(nv);
        let left = self.nodes[nv as usize].child[0];
        debug_assert!(
            (left == nu && self.nodes[nu as usize].child.contains(&enode))
                || (left == enode && self.nodes[enode as usize].child.contains(&nu)),
            "edge {e:?} does not join its endpoints"
        );
        self.nodes[nv as usize].child[0] = NONE;
        self.pull_up(nv);
        // u keeps its other subtrees (they hang off it by path-parent
        // pointers) and is left alone in its splay tree.
        let node = &mut self.nodes[nu as usize];
        node.parent = NONE;
        node.child = [NONE, NONE];
        node.flip = false;
        node.max = node.edge;
        self.free_edges.push((enode, slot));
        self.num_edges -= 1;
    }

    /// The heaviest edge (by `WKey`) on the path from `u` to `v`, or `None`
    /// if `u == v` or they are not connected; so it answers connectivity
    /// too.
    pub fn path_max(&mut self, u: VertexId, v: VertexId) -> Option<WKey> {
        if u == v {
            return None;
        }
        let nu = self.vertex_node[u.index()];
        let nv = self.vertex_node[v.index()];
        self.make_root(nu);
        // The root find leaves u at the root of the splay tree of the path
        // from v's root to v, so u's aggregate covers the u–v path.
        if self.find_root(nv) != nu {
            return None;
        }
        let max = self.nodes[nu as usize].max;
        (max != NONE).then(|| self.keys[max as usize])
    }

    // ------------------------------------------------------------------
    // Internal splay-tree machinery.
    // ------------------------------------------------------------------

    #[inline]
    fn is_splay_root(&self, x: u32) -> bool {
        let p = self.nodes[x as usize].parent;
        p == NONE || (self.nodes[p as usize].child[0] != x && self.nodes[p as usize].child[1] != x)
    }

    #[inline]
    fn push_down(&mut self, x: u32) {
        if self.nodes[x as usize].flip {
            let [l, r] = self.nodes[x as usize].child;
            self.nodes[x as usize].child = [r, l];
            for c in [l, r] {
                if c != NONE {
                    self.nodes[c as usize].flip ^= true;
                }
            }
            self.nodes[x as usize].flip = false;
        }
    }

    #[inline]
    fn pull_up(&mut self, x: u32) {
        let node = self.nodes[x as usize];
        let mut max = node.edge;
        for c in node.child {
            if c == NONE {
                continue;
            }
            let m = self.nodes[c as usize].max;
            if m != NONE && (max == NONE || self.keys[m as usize] > self.keys[max as usize]) {
                max = m;
            }
        }
        self.nodes[x as usize].max = max;
    }

    fn rotate(&mut self, x: u32) {
        let p = self.nodes[x as usize].parent;
        let g = self.nodes[p as usize].parent;
        let dir = (self.nodes[p as usize].child[1] == x) as usize;
        let b = self.nodes[x as usize].child[1 - dir];

        // p adopts b in x's former place.
        self.nodes[p as usize].child[dir] = b;
        if b != NONE {
            self.nodes[b as usize].parent = p;
        }
        // x adopts p.
        self.nodes[x as usize].child[1 - dir] = p;
        self.nodes[p as usize].parent = x;
        // g adopts x (or x becomes a splay root keeping the path-parent).
        self.nodes[x as usize].parent = g;
        if g != NONE {
            if self.nodes[g as usize].child[0] == p {
                self.nodes[g as usize].child[0] = x;
            } else if self.nodes[g as usize].child[1] == p {
                self.nodes[g as usize].child[1] = x;
            }
        }
        self.pull_up(p);
        self.pull_up(x);
    }

    fn splay(&mut self, x: u32) {
        // Push pending flips from the splay root down to x first.
        let mut path = std::mem::take(&mut self.splay_path);
        path.push(x);
        let mut cur = x;
        while !self.is_splay_root(cur) {
            cur = self.nodes[cur as usize].parent;
            path.push(cur);
        }
        while let Some(node) = path.pop() {
            self.push_down(node);
        }
        self.splay_path = path;

        while !self.is_splay_root(x) {
            let p = self.nodes[x as usize].parent;
            if !self.is_splay_root(p) {
                let g = self.nodes[p as usize].parent;
                let zig_zig = (self.nodes[g as usize].child[1] == p)
                    == (self.nodes[p as usize].child[1] == x);
                if zig_zig {
                    self.rotate(p);
                } else {
                    self.rotate(x);
                }
            }
            self.rotate(x);
        }
        self.pull_up(x);
    }

    /// Make the path from `x` to the root of its represented tree preferred,
    /// and splay `x` to the root of its splay tree. Returns the last
    /// path-parent jump (the classical `access` return value).
    fn access(&mut self, x: u32) -> u32 {
        self.splay(x);
        // Detach the preferred child below x.
        let right = self.nodes[x as usize].child[1];
        if right != NONE {
            self.nodes[x as usize].child[1] = NONE;
            // `right` keeps x as its path-parent (parent pointer stays).
            self.pull_up(x);
        }
        let mut last = x;
        while self.nodes[x as usize].parent != NONE {
            let p = self.nodes[x as usize].parent;
            self.splay(p);
            // Replace p's preferred child with x.
            let old = self.nodes[p as usize].child[1];
            self.nodes[p as usize].child[1] = x;
            if old != NONE {
                // old keeps p as path-parent.
            }
            self.pull_up(p);
            self.splay(x);
            last = p;
        }
        last
    }

    /// Make `x` the root of its represented tree.
    fn make_root(&mut self, x: u32) {
        self.access(x);
        self.nodes[x as usize].flip ^= true;
        self.push_down(x);
    }

    /// Root of the represented tree containing `x`, splayed to the root of
    /// the splay tree of the path from it to `x`.
    fn find_root(&mut self, x: u32) -> u32 {
        self.access(x);
        let mut cur = x;
        loop {
            self.push_down(cur);
            let left = self.nodes[cur as usize].child[0];
            if left == NONE {
                break;
            }
            cur = left;
        }
        self.splay(cur);
        cur
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdmsf_graph::Weight;
    use proptest::prelude::*;
    use rand::prelude::*;
    use rand_chacha::ChaCha8Rng;

    fn key(w: i64, e: u32) -> WKey {
        WKey::new(Weight::new(w), EdgeId(e))
    }

    /// Brute-force forest oracle: adjacency lists + BFS path search.
    #[derive(Default)]
    struct Oracle {
        adj: Vec<Vec<(usize, WKey)>>,
        edges: std::collections::HashMap<EdgeId, (usize, usize, WKey)>,
    }

    impl Oracle {
        fn new(n: usize) -> Self {
            Oracle {
                adj: vec![Vec::new(); n],
                edges: Default::default(),
            }
        }
        fn link(&mut self, u: usize, v: usize, e: EdgeId, k: WKey) {
            self.adj[u].push((v, k));
            self.adj[v].push((u, k));
            self.edges.insert(e, (u, v, k));
        }
        fn cut(&mut self, e: EdgeId) {
            let (u, v, k) = self.edges.remove(&e).unwrap();
            self.adj[u].retain(|&(x, kk)| !(x == v && kk == k));
            self.adj[v].retain(|&(x, kk)| !(x == u && kk == k));
        }
        fn path(&self, u: usize, v: usize) -> Option<Vec<WKey>> {
            // DFS returning the edge keys along the unique path, if any.
            fn dfs(
                adj: &[Vec<(usize, WKey)>],
                cur: usize,
                target: usize,
                parent: usize,
                path: &mut Vec<WKey>,
            ) -> bool {
                if cur == target {
                    return true;
                }
                for &(next, k) in &adj[cur] {
                    if next == parent {
                        continue;
                    }
                    path.push(k);
                    if dfs(adj, next, target, cur, path) {
                        return true;
                    }
                    path.pop();
                }
                false
            }
            let mut path = Vec::new();
            if dfs(&self.adj, u, v, usize::MAX, &mut path) {
                Some(path)
            } else {
                None
            }
        }
        fn connected(&self, u: usize, v: usize) -> bool {
            self.path(u, v).is_some()
        }
        fn path_max(&self, u: usize, v: usize) -> Option<WKey> {
            let p = self.path(u, v)?;
            p.into_iter().max()
        }
    }

    #[test]
    fn single_path_queries() {
        let mut f = LinkCutForest::new(5);
        f.link(VertexId(0), VertexId(1), EdgeId(0), key(5, 0));
        f.link(VertexId(1), VertexId(2), EdgeId(1), key(9, 1));
        f.link(VertexId(2), VertexId(3), EdgeId(2), key(2, 2));
        assert!(f.connected(VertexId(0), VertexId(3)));
        assert!(!f.connected(VertexId(0), VertexId(4)));
        assert_eq!(f.path_max(VertexId(0), VertexId(3)), Some(key(9, 1)));
        assert_eq!(f.path_max(VertexId(2), VertexId(3)), Some(key(2, 2)));
        assert_eq!(f.path_max(VertexId(0), VertexId(0)), None);
        assert_eq!(f.path_max(VertexId(0), VertexId(4)), None);
    }

    #[test]
    fn cut_splits_tree() {
        let mut f = LinkCutForest::new(4);
        f.link(VertexId(0), VertexId(1), EdgeId(0), key(1, 0));
        f.link(VertexId(1), VertexId(2), EdgeId(1), key(2, 1));
        f.link(VertexId(2), VertexId(3), EdgeId(2), key(3, 2));
        f.cut(EdgeId(1));
        assert!(f.connected(VertexId(0), VertexId(1)));
        assert!(f.connected(VertexId(2), VertexId(3)));
        assert!(!f.connected(VertexId(1), VertexId(2)));
        assert_eq!(f.num_edges(), 2);
        // Relink differently.
        f.link(VertexId(0), VertexId(3), EdgeId(3), key(7, 3));
        assert!(f.connected(VertexId(1), VertexId(2)));
        assert_eq!(f.path_max(VertexId(1), VertexId(2)), Some(key(7, 3)));
    }

    #[test]
    #[should_panic(expected = "cycle")]
    fn linking_connected_vertices_panics() {
        let mut f = LinkCutForest::new(3);
        f.link(VertexId(0), VertexId(1), EdgeId(0), key(1, 0));
        f.link(VertexId(1), VertexId(2), EdgeId(1), key(1, 1));
        f.link(VertexId(0), VertexId(2), EdgeId(2), key(1, 2));
    }

    #[test]
    fn edge_endpoints_are_reported() {
        let mut f = LinkCutForest::new(3);
        f.link(VertexId(2), VertexId(0), EdgeId(5), key(4, 5));
        assert_eq!(
            f.edge_endpoints(EdgeId(5)),
            Some((VertexId(2), VertexId(0)))
        );
        assert!(f.contains_edge(EdgeId(5)));
        f.cut(EdgeId(5));
        assert!(!f.contains_edge(EdgeId(5)));
        assert_eq!(f.edge_endpoints(EdgeId(5)), None);
    }

    #[test]
    fn randomized_against_oracle() {
        let mut rng = ChaCha8Rng::seed_from_u64(0xDECAF);
        for trial in 0..30 {
            let n = 2 + (trial % 9) * 7;
            let mut f = LinkCutForest::new(n);
            let mut oracle = Oracle::new(n);
            let mut live: Vec<EdgeId> = Vec::new();
            let mut next_edge = 0u32;
            for _step in 0..300 {
                let op = rng.gen_range(0..10);
                if op < 4 {
                    // Try to link two random vertices if they are disconnected.
                    let u = rng.gen_range(0..n);
                    let v = rng.gen_range(0..n);
                    if u != v && !oracle.connected(u, v) {
                        let k = key(rng.gen_range(1..100), next_edge);
                        let e = EdgeId(next_edge);
                        next_edge += 1;
                        f.link(VertexId::from(u), VertexId::from(v), e, k);
                        oracle.link(u, v, e, k);
                        live.push(e);
                    }
                } else if op < 6 && !live.is_empty() {
                    let idx = rng.gen_range(0..live.len());
                    let e = live.swap_remove(idx);
                    f.cut(e);
                    oracle.cut(e);
                } else {
                    let u = rng.gen_range(0..n);
                    let v = rng.gen_range(0..n);
                    assert_eq!(
                        f.connected(VertexId::from(u), VertexId::from(v)),
                        oracle.connected(u, v),
                        "connectivity mismatch (n={n}, u={u}, v={v})"
                    );
                    if u != v {
                        assert_eq!(
                            f.path_max(VertexId::from(u), VertexId::from(v)),
                            oracle.path_max(u, v),
                            "path_max mismatch (n={n}, u={u}, v={v})"
                        );
                    }
                }
            }
            assert_eq!(f.num_edges(), live.len());
        }
    }

    #[test]
    fn long_path_then_random_cuts() {
        let n = 200;
        let mut f = LinkCutForest::new(n);
        let mut oracle = Oracle::new(n);
        for i in 0..n - 1 {
            let k = key((i as i64 * 37) % 101, i as u32);
            f.link(
                VertexId::from(i),
                VertexId::from(i + 1),
                EdgeId(i as u32),
                k,
            );
            oracle.link(i, i + 1, EdgeId(i as u32), k);
        }
        let mut rng = ChaCha8Rng::seed_from_u64(99);
        for _ in 0..50 {
            let u = rng.gen_range(0..n);
            let v = rng.gen_range(0..n);
            if u != v {
                assert_eq!(
                    f.path_max(VertexId::from(u), VertexId::from(v)),
                    oracle.path_max(u, v)
                );
            }
        }
        // Cut every third edge and re-check connectivity structure.
        for i in (0..n - 1).step_by(3) {
            f.cut(EdgeId(i as u32));
            oracle.cut(EdgeId(i as u32));
        }
        for _ in 0..100 {
            let u = rng.gen_range(0..n);
            let v = rng.gen_range(0..n);
            assert_eq!(
                f.connected(VertexId::from(u), VertexId::from(v)),
                oracle.connected(u, v)
            );
        }
    }

    /// Every pair's `connected` and `path_max` answers against the oracle's.
    fn assert_all_pairs_agree(f: &mut LinkCutForest, oracle: &Oracle, n: usize) {
        for u in 0..n {
            for v in 0..n {
                let (vu, vv) = (VertexId::from(u), VertexId::from(v));
                assert_eq!(
                    f.connected(vu, vv),
                    oracle.connected(u, v),
                    "connected({u}, {v})"
                );
                assert_eq!(
                    f.path_max(vu, vv),
                    oracle.path_max(u, v),
                    "path_max({u}, {v})"
                );
            }
        }
    }

    /// Cutting any one edge of a path splits it exactly there, and linking
    /// it back (the other way round) restores every answer; then every edge
    /// is cut in turn. Before each cut a path query reroots the tree
    /// elsewhere, so cuts also meet paths with pending reversals.
    #[test]
    fn cutting_each_edge_of_a_path_splits_it_there() {
        let n = 12;
        let mut f = LinkCutForest::new(n);
        let mut oracle = Oracle::new(n);
        let k = |i: usize| key((i as i64 * 7) % 5, i as u32);
        for i in 0..n - 1 {
            f.link(
                VertexId::from(i),
                VertexId::from(i + 1),
                EdgeId(i as u32),
                k(i),
            );
            oracle.link(i, i + 1, EdgeId(i as u32), k(i));
        }
        for i in 0..n - 1 {
            f.path_max(VertexId::from(n - 1 - i), VertexId::from(i / 2));
            f.cut(EdgeId(i as u32));
            oracle.cut(EdgeId(i as u32));
            assert_all_pairs_agree(&mut f, &oracle, n);
            f.link(
                VertexId::from(i + 1),
                VertexId::from(i),
                EdgeId(i as u32),
                k(i),
            );
            oracle.link(i + 1, i, EdgeId(i as u32), k(i));
            assert_all_pairs_agree(&mut f, &oracle, n);
        }
        for i in (0..n - 1).rev() {
            f.cut(EdgeId(i as u32));
            oracle.cut(EdgeId(i as u32));
            assert_all_pairs_agree(&mut f, &oracle, n);
        }
        assert_eq!(f.num_edges(), 0);
    }

    #[derive(Clone, Debug)]
    enum Op {
        /// Link two vertices (mod n) with a weight, if they are in
        /// different trees.
        Link(u8, u8, u8),
        /// Cut the k-th live edge (mod the live count).
        Cut(u8),
        /// Ask `connected` and `path_max` of two vertices (mod n).
        Query(u8, u8),
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            4 => (any::<u8>(), any::<u8>(), any::<u8>()).prop_map(|(u, v, w)| Op::Link(u, v, w)),
            2 => any::<u8>().prop_map(Op::Cut),
            4 => (any::<u8>(), any::<u8>()).prop_map(|(u, v)| Op::Query(u, v)),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        /// Random link / cut / `connected` / `path_max` sequences on small
        /// forests agree with a naive path walk. Every link first asks
        /// `path_max` of its endpoints, which must be `None` (they are in
        /// different trees), as an insertion does.
        #[test]
        fn random_sequences_match_a_naive_path_walk(
            n in 2usize..12,
            ops in collection::vec(op_strategy(), 1..200),
        ) {
            let mut f = LinkCutForest::new(n);
            let mut oracle = Oracle::new(n);
            let mut live: Vec<EdgeId> = Vec::new();
            for (next, op) in ops.iter().enumerate() {
                match *op {
                    Op::Link(u, v, w) => {
                        let (u, v) = (u as usize % n, v as usize % n);
                        if u == v || oracle.connected(u, v) {
                            continue;
                        }
                        let (vu, vv) = (VertexId::from(u), VertexId::from(v));
                        prop_assert_eq!(f.path_max(vu, vv), None);
                        let e = EdgeId(next as u32);
                        let k = key(w as i64, e.0);
                        f.link(vu, vv, e, k);
                        oracle.link(u, v, e, k);
                        live.push(e);
                    }
                    Op::Cut(k) => {
                        if live.is_empty() {
                            continue;
                        }
                        let e = live.swap_remove(k as usize % live.len());
                        f.cut(e);
                        oracle.cut(e);
                    }
                    Op::Query(u, v) => {
                        let (u, v) = (u as usize % n, v as usize % n);
                        let (vu, vv) = (VertexId::from(u), VertexId::from(v));
                        prop_assert_eq!(f.connected(vu, vv), oracle.connected(u, v));
                        prop_assert_eq!(f.path_max(vu, vv), oracle.path_max(u, v));
                    }
                }
                prop_assert_eq!(f.num_edges(), live.len());
            }
            assert_all_pairs_agree(&mut f, &oracle, n);
        }
    }

    #[test]
    fn add_vertex_grows_forest() {
        let mut f = LinkCutForest::new(1);
        let v = f.add_vertex();
        assert_eq!(v, VertexId(1));
        assert_eq!(f.num_vertices(), 2);
        f.link(VertexId(0), v, EdgeId(0), key(1, 0));
        assert!(f.connected(VertexId(0), v));
    }
}
