//! Link-cut trees over splay trees, with maximum-`WKey` path aggregation.
//!
//! The forest has the three operations the dynamic MSF calls, each with at
//! most two accesses. `path_max` roots the tree at one endpoint and finds
//! the root from the other, which answers connectivity and exposes the
//! path at once; `link` checks for a cycle the same way; `cut` roots at one
//! endpoint and accesses the other, which exposes the edge between them,
//! if there is one, and detaches it locally. A forest edge is named by its
//! endpoints: two trees never share an edge, so a pair names at most one.
//!
//! A splay node is four `u32`s and a flag (20 bytes): its links and the
//! heaviest edge node in its splay subtree. Vertex `v` is node `v`, the
//! edge nodes follow the `n` vertex nodes, and edge node `x` keeps its key
//! at `keys[x − n]`, so aggregation compares keys through node indices.

use pdmsf_graph::{VertexId, WKey};

const NONE: u32 = u32::MAX;

#[derive(Clone, Copy, Debug)]
struct Node {
    parent: u32,
    child: [u32; 2],
    /// The heaviest edge node in this node's splay subtree (itself
    /// included), `NONE` if the subtree holds no edge node.
    max: u32,
    /// Lazy "reverse this splay subtree" flag (needed for `make_root`).
    flip: bool,
}

// A node holds no key, only indices; keep it that small.
const _: () = assert!(std::mem::size_of::<Node>() <= 20);

impl Node {
    /// A detached node whose subtree's heaviest edge node is `max`: itself
    /// for an edge node, `NONE` for a vertex node.
    fn new(max: u32) -> Self {
        Node {
            parent: NONE,
            child: [NONE, NONE],
            max,
            flip: false,
        }
    }
}

/// A forest of rooted trees supporting `link`, `cut` and "heaviest edge on
/// the path between two vertices" queries, all in amortised `O(log n)`.
///
/// Vertices are identified by [`VertexId`]. A forest edge carries a
/// [`WKey`], is named by its two endpoints, and is represented internally
/// as a node of its own.
#[derive(Clone, Debug, Default)]
pub struct LinkCutForest {
    /// Vertex `v` is node `v`; edge nodes follow the `num_vertices` vertex
    /// nodes.
    nodes: Vec<Node>,
    num_vertices: usize,
    /// The key of edge node `x`, at `x − num_vertices`.
    keys: Vec<WKey>,
    /// Edge nodes freed by cuts, reused by links.
    free: Vec<u32>,
    /// `splay`'s push-down path, kept between calls to reuse its buffer.
    splay_path: Vec<u32>,
}

impl LinkCutForest {
    /// A forest of `n` isolated vertices.
    pub fn new(n: usize) -> Self {
        LinkCutForest {
            nodes: vec![Node::new(NONE); n],
            num_vertices: n,
            ..LinkCutForest::default()
        }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of live forest edges.
    pub fn num_edges(&self) -> usize {
        self.keys.len() - self.free.len()
    }

    /// Add the edge `{u, v}` with key `key` to the forest.
    ///
    /// # Panics
    /// Panics if `u` and `v` are already connected (`u == v` included).
    pub fn link(&mut self, u: VertexId, v: VertexId, key: WKey) {
        let (nu, nv) = (self.vertex_node(u), self.vertex_node(v));
        // Once u roots its tree, v's tree has another root unless they are
        // connected.
        self.make_root(nu);
        assert!(
            self.find_root(nv) != nu,
            "link({u:?}, {v:?}) would create a cycle"
        );
        let enode = self.free.pop().unwrap_or_else(|| {
            self.keys.push(key);
            self.nodes.push(Node::new(NONE));
            (self.nodes.len() - 1) as u32
        });
        self.keys[enode as usize - self.num_vertices] = key;
        self.nodes[enode as usize] = Node::new(enode);
        // Attach u - enode - v with two path-parent pointers: u still roots
        // its tree and its splay tree (the root find ran in v's tree), and
        // the fresh enode is a tree of its own.
        self.nodes[nu as usize].parent = enode;
        self.nodes[enode as usize].parent = nv;
    }

    /// Remove the forest edge `{u, v}` and return its key.
    ///
    /// # Panics
    /// Panics if `{u, v}` is not a forest edge.
    pub fn cut(&mut self, u: VertexId, v: VertexId) -> WKey {
        let (nu, nv) = (self.vertex_node(u), self.vertex_node(v));
        // With u the root, accessing v leaves the u–v path in v's splay
        // tree, all of it to v's left: the pair is an edge iff that left
        // subtree is u and one edge node.
        self.make_root(nu);
        self.access(nv);
        let enode = self.edge_beside(nu, self.nodes[nv as usize].child[0]);
        assert!(enode != NONE, "({u:?}, {v:?}) is not a forest edge");
        self.nodes[nv as usize].child[0] = NONE;
        self.pull_up(nv);
        // u keeps its other subtrees (they hang off it by path-parent
        // pointers) and is left alone in its splay tree.
        self.nodes[nu as usize] = Node::new(NONE);
        self.free.push(enode);
        self.key(enode)
    }

    /// The heaviest edge (by `WKey`) on the path from `u` to `v`, or `None`
    /// if `u == v` or they are not connected; so it answers connectivity
    /// too.
    pub fn path_max(&mut self, u: VertexId, v: VertexId) -> Option<WKey> {
        if u == v {
            return None;
        }
        let (nu, nv) = (self.vertex_node(u), self.vertex_node(v));
        self.make_root(nu);
        // The root find leaves u at the root of the splay tree of the path
        // from v's root to v, so u's aggregate covers the u–v path.
        if self.find_root(nv) != nu {
            return None;
        }
        let max = self.nodes[nu as usize].max;
        (max != NONE).then(|| self.key(max))
    }

    /// The node of vertex `v`.
    #[inline]
    fn vertex_node(&self, v: VertexId) -> u32 {
        assert!(v.index() < self.num_vertices, "vertex {v:?} out of range");
        v.0
    }

    /// The key of edge node `x`.
    #[inline]
    fn key(&self, x: u32) -> WKey {
        self.keys[x as usize - self.num_vertices]
    }

    /// The edge node `e` if the splay subtree at `top` is `nu` and `e`, one
    /// the other's only child; else `NONE`.
    fn edge_beside(&self, nu: u32, top: u32) -> u32 {
        let below = match self.nodes.get(top as usize).map(|t| t.child) {
            Some([NONE, c] | [c, NONE]) if c != NONE => c,
            _ => return NONE,
        };
        // A vertex node's index is below every edge node's.
        let e = top.max(below);
        let pair = top.min(below) == nu && e as usize >= self.num_vertices;
        if pair && self.nodes[below as usize].child == [NONE, NONE] {
            e
        } else {
            NONE
        }
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
        let mut max = if x as usize >= self.num_vertices {
            x
        } else {
            NONE
        };
        for c in self.nodes[x as usize].child {
            if c == NONE {
                continue;
            }
            let m = self.nodes[c as usize].max;
            if m != NONE && (max == NONE || self.key(m) > self.key(max)) {
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
    /// and splay `x` to the root of its splay tree.
    fn access(&mut self, x: u32) {
        self.splay(x);
        // Detach the preferred child below x; it keeps x as its
        // path-parent (its parent pointer stays).
        if self.nodes[x as usize].child[1] != NONE {
            self.nodes[x as usize].child[1] = NONE;
            self.pull_up(x);
        }
        while self.nodes[x as usize].parent != NONE {
            let p = self.nodes[x as usize].parent;
            self.splay(p);
            // x replaces p's preferred child, which keeps p as its
            // path-parent.
            self.nodes[p as usize].child[1] = x;
            self.pull_up(p);
            self.splay(x);
        }
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
    use pdmsf_graph::{EdgeId, Weight};
    use proptest::prelude::*;
    use rand::prelude::*;
    use rand_chacha::ChaCha8Rng;

    fn key(w: i64, e: u32) -> WKey {
        WKey::new(Weight::new(w), EdgeId(e))
    }

    fn vx(i: usize) -> VertexId {
        VertexId::from(i)
    }

    /// Connectivity as the forest answers it: through `path_max`.
    fn connected(f: &mut LinkCutForest, u: usize, v: usize) -> bool {
        u == v || f.path_max(vx(u), vx(v)).is_some()
    }

    /// Brute-force forest oracle: adjacency lists + DFS path search.
    struct Oracle {
        adj: Vec<Vec<(usize, WKey)>>,
    }

    impl Oracle {
        fn new(n: usize) -> Self {
            Oracle {
                adj: vec![Vec::new(); n],
            }
        }
        fn link(&mut self, u: usize, v: usize, k: WKey) {
            self.adj[u].push((v, k));
            self.adj[v].push((u, k));
        }
        /// Remove the edge `{u, v}` and return its key.
        fn cut(&mut self, u: usize, v: usize) -> WKey {
            let at = self.adj[u].iter().position(|&(x, _)| x == v).unwrap();
            let (_, k) = self.adj[u].swap_remove(at);
            self.adj[v].retain(|&(x, _)| x != u);
            k
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
        f.link(vx(0), vx(1), key(5, 0));
        f.link(vx(1), vx(2), key(9, 1));
        f.link(vx(2), vx(3), key(2, 2));
        assert_eq!(f.path_max(vx(0), vx(3)), Some(key(9, 1)));
        assert_eq!(f.path_max(vx(2), vx(3)), Some(key(2, 2)));
        assert_eq!(f.path_max(vx(0), vx(0)), None);
        assert_eq!(f.path_max(vx(0), vx(4)), None);
    }

    #[test]
    fn cut_splits_tree() {
        let mut f = LinkCutForest::new(4);
        f.link(vx(0), vx(1), key(1, 0));
        f.link(vx(1), vx(2), key(2, 1));
        f.link(vx(2), vx(3), key(3, 2));
        // A cut names its edge by its endpoints, in either order.
        assert_eq!(f.cut(vx(2), vx(1)), key(2, 1));
        assert!(connected(&mut f, 0, 1));
        assert!(connected(&mut f, 2, 3));
        assert!(!connected(&mut f, 1, 2));
        assert_eq!(f.num_edges(), 2);
        // Relink differently.
        f.link(vx(0), vx(3), key(7, 3));
        assert!(connected(&mut f, 1, 2));
        assert_eq!(f.path_max(vx(1), vx(2)), Some(key(7, 3)));
    }

    #[test]
    #[should_panic(expected = "cycle")]
    fn linking_connected_vertices_panics() {
        let mut f = LinkCutForest::new(3);
        f.link(vx(0), vx(1), key(1, 0));
        f.link(vx(1), vx(2), key(1, 1));
        f.link(vx(0), vx(2), key(1, 2));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn vertices_past_n_are_refused() {
        // Node 2 exists, but it is the edge node, not a vertex.
        let mut f = LinkCutForest::new(2);
        f.link(vx(0), vx(1), key(1, 0));
        f.path_max(vx(0), vx(2));
    }

    /// The path 0 – 1 – 2 and the isolated vertex 3.
    fn path_and_a_vertex() -> LinkCutForest {
        let mut f = LinkCutForest::new(4);
        f.link(vx(0), vx(1), key(1, 0));
        f.link(vx(1), vx(2), key(2, 1));
        f
    }

    #[test]
    #[should_panic(expected = "not a forest edge")]
    fn cutting_two_non_adjacent_vertices_of_one_tree_panics() {
        path_and_a_vertex().cut(vx(0), vx(2));
    }

    #[test]
    #[should_panic(expected = "not a forest edge")]
    fn cutting_vertices_of_two_trees_panics() {
        path_and_a_vertex().cut(vx(2), vx(3));
    }

    #[test]
    #[should_panic(expected = "not a forest edge")]
    fn cutting_a_vertex_with_itself_panics() {
        path_and_a_vertex().cut(vx(1), vx(1));
    }

    #[test]
    #[should_panic(expected = "not a forest edge")]
    fn cutting_an_edge_twice_panics() {
        let mut f = path_and_a_vertex();
        assert_eq!(f.cut(vx(0), vx(1)), key(1, 0));
        f.cut(vx(1), vx(0));
    }

    #[test]
    fn randomized_against_oracle() {
        let mut rng = ChaCha8Rng::seed_from_u64(0xDECAF);
        for trial in 0..30 {
            let n = 2 + (trial % 9) * 7;
            let mut f = LinkCutForest::new(n);
            let mut oracle = Oracle::new(n);
            let mut live: Vec<(usize, usize)> = Vec::new();
            let mut next_edge = 0u32;
            for _step in 0..300 {
                let op = rng.gen_range(0..10);
                if op < 4 {
                    // Try to link two random vertices if they are disconnected.
                    let u = rng.gen_range(0..n);
                    let v = rng.gen_range(0..n);
                    if u != v && !oracle.connected(u, v) {
                        let k = key(rng.gen_range(1..100), next_edge);
                        next_edge += 1;
                        f.link(vx(u), vx(v), k);
                        oracle.link(u, v, k);
                        live.push((u, v));
                    }
                } else if op < 6 && !live.is_empty() {
                    let idx = rng.gen_range(0..live.len());
                    let (mut u, mut v) = live.swap_remove(idx);
                    if rng.gen_range(0..2) == 0 {
                        (u, v) = (v, u);
                    }
                    assert_eq!(f.cut(vx(u), vx(v)), oracle.cut(u, v), "cut({u}, {v})");
                } else {
                    let u = rng.gen_range(0..n);
                    let v = rng.gen_range(0..n);
                    assert_eq!(
                        connected(&mut f, u, v),
                        oracle.connected(u, v),
                        "connectivity mismatch (n={n}, u={u}, v={v})"
                    );
                    if u != v {
                        assert_eq!(
                            f.path_max(vx(u), vx(v)),
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
            f.link(vx(i), vx(i + 1), k);
            oracle.link(i, i + 1, k);
        }
        let mut rng = ChaCha8Rng::seed_from_u64(99);
        for _ in 0..50 {
            let u = rng.gen_range(0..n);
            let v = rng.gen_range(0..n);
            if u != v {
                assert_eq!(f.path_max(vx(u), vx(v)), oracle.path_max(u, v));
            }
        }
        // Cut every third edge and re-check connectivity structure.
        for i in (0..n - 1).step_by(3) {
            assert_eq!(f.cut(vx(i), vx(i + 1)), oracle.cut(i, i + 1));
        }
        for _ in 0..100 {
            let u = rng.gen_range(0..n);
            let v = rng.gen_range(0..n);
            assert_eq!(connected(&mut f, u, v), oracle.connected(u, v));
        }
    }

    /// Every pair's connectivity and `path_max` answers against the
    /// oracle's.
    fn assert_all_pairs_agree(f: &mut LinkCutForest, oracle: &Oracle, n: usize) {
        for u in 0..n {
            for v in 0..n {
                assert_eq!(
                    connected(f, u, v),
                    oracle.connected(u, v),
                    "connected({u}, {v})"
                );
                assert_eq!(
                    f.path_max(vx(u), vx(v)),
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
            f.link(vx(i), vx(i + 1), k(i));
            oracle.link(i, i + 1, k(i));
        }
        for i in 0..n - 1 {
            f.path_max(vx(n - 1 - i), vx(i / 2));
            assert_eq!(f.cut(vx(i), vx(i + 1)), k(i));
            oracle.cut(i, i + 1);
            assert_all_pairs_agree(&mut f, &oracle, n);
            f.link(vx(i + 1), vx(i), k(i));
            oracle.link(i + 1, i, k(i));
            assert_all_pairs_agree(&mut f, &oracle, n);
        }
        for i in (0..n - 1).rev() {
            assert_eq!(f.cut(vx(i + 1), vx(i)), k(i));
            oracle.cut(i + 1, i);
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
        /// Ask connectivity and `path_max` of two vertices (mod n).
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

        /// Random link / cut / `path_max` sequences on small forests agree
        /// with a naive path walk, and every cut returns its edge's key.
        /// Every link first asks `path_max` of its endpoints, which must be
        /// `None` (they are in different trees), as an insertion does.
        #[test]
        fn random_sequences_match_a_naive_path_walk(
            n in 2usize..12,
            ops in collection::vec(op_strategy(), 1..200),
        ) {
            let mut f = LinkCutForest::new(n);
            let mut oracle = Oracle::new(n);
            let mut live: Vec<(usize, usize)> = Vec::new();
            for (next, op) in ops.iter().enumerate() {
                match *op {
                    Op::Link(u, v, w) => {
                        let (u, v) = (u as usize % n, v as usize % n);
                        if u == v || oracle.connected(u, v) {
                            continue;
                        }
                        prop_assert_eq!(f.path_max(vx(u), vx(v)), None);
                        let k = key(w as i64, next as u32);
                        f.link(vx(u), vx(v), k);
                        oracle.link(u, v, k);
                        live.push((u, v));
                    }
                    Op::Cut(k) => {
                        if live.is_empty() {
                            continue;
                        }
                        let (u, v) = live.swap_remove(k as usize % live.len());
                        prop_assert_eq!(f.cut(vx(u), vx(v)), oracle.cut(u, v));
                    }
                    Op::Query(u, v) => {
                        let (u, v) = (u as usize % n, v as usize % n);
                        prop_assert_eq!(connected(&mut f, u, v), oracle.connected(u, v));
                        prop_assert_eq!(f.path_max(vx(u), vx(v)), oracle.path_max(u, v));
                    }
                }
                prop_assert_eq!(f.num_edges(), live.len());
            }
            assert_all_pairs_agree(&mut f, &oracle, n);
        }
    }
}
