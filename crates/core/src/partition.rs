//! Component-partitioned dynamic MSF: the interior-mutability seam that
//! lets **disjoint groups of batch updates apply concurrently**.
//!
//! [`ComponentPartitionedMsf`] splits the vertex space across `P`
//! independent EREW-metered [`SeqDynamicMsf`] partitions plus a
//! `home: Vec<u32>` map (vertex → partition). The structural invariant is
//! *component containment*: every live edge has both endpoints in the same
//! home partition, so a connected component — tree edges, non-tree edges,
//! MWR candidate sets, Euler tours, LSDS rows — lives entirely inside one
//! partition and never sees another partition's state.
//!
//! That containment is what makes intra-batch update parallelism safe: two
//! updates whose endpoint partitions are disjoint touch disjoint
//! `SeqDynamicMsf` instances and disjoint `home` entries, so they can run
//! on different pool workers with no synchronization at all. The batch
//! engine colors a planned batch's surviving updates into groups whose
//! partition sets are disjoint ([`UpdateGroup`]) and calls
//! [`ComponentPartitionedMsf::apply_groups`]; each group is applied
//! serially in arrival order by one pool job, through a raw-pointer
//! [`PartView`] whose every partition access is checked against the
//! group's owned set in debug builds.
//!
//! ## Cross-partition links: migration
//!
//! A link whose endpoints live in different partitions first **migrates**
//! the smaller of the two components into the other endpoint's partition
//! (the component is re-homed, its edges deleted from the source partition
//! — non-tree first, so tree-edge deletions never search for replacements
//! — and re-inserted into the destination in ascending `WKey` order, which
//! rebuilds exactly the same unique MSF with zero swap churn). "Smaller"
//! is decided by a **lockstep bidirectional BFS** from the two endpoints —
//! the first side to exhaust its component is moved (ties move the `u`
//! side) — so the migration costs `O(min(|C_u|, |C_v|))` discovery plus
//! that component's worth of structural updates, and the choice is a pure
//! function of the structure state (deterministic).
//!
//! Because a group's migrations only ever move components between
//! partitions *inside the group's own partition class* (the destination is
//! the other endpoint's home, which the conflict coloring already placed
//! in the same class), the per-partition operation sequences — and hence
//! the partitions' internal bytes — are identical whether groups run
//! concurrently, serially in group order, or fully serially in arrival
//! order. That closure argument is what the engine's lockstep and
//! WAL-byte-identity tests pin down.
//!
//! ## Adaptive rebalancing
//!
//! Migration is one-way: cutting the bridge that forced a migration leaves
//! both components homed in the destination partition, so skewed streams
//! concentrate state into ever fewer partitions and starve the conflict
//! coloring of parallelism. Per-partition live-edge **occupancy counters**
//! (maintained incrementally at every insert/delete/migration) feed
//! [`ComponentPartitionedMsf::maybe_rebalance`], which the engine calls at
//! a deterministic point *between* batches: when the fullest partition
//! exceeds twice the mean occupancy, its smallest components are re-homed
//! into the least-loaded partitions through the same ascending-`WKey`
//! migration path — so forests, outcomes and (plan-time-serialized) WAL
//! bytes stay bit-for-bit identical, and the decision, being a pure
//! function of structure state, fires identically under grouped and
//! forced-serial execution.

use crate::forest::CostModel;
use crate::seq::SeqDynamicMsf;
use pdmsf_graph::{DynamicMsf, Edge, EdgeId, MsfDelta, VertexId, WKey};
use pdmsf_pram::pool::{self, SendPtr};
use pdmsf_pram::{CostReport, ExecMode};
use std::collections::HashSet;

/// One structure-surviving update of a planned batch, in the resolved form
/// the partitioned structure consumes: cuts carry one endpoint of the
/// doomed edge so its partition is `home[endpoint]` — no global edge →
/// partition map is needed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GroupUpdate {
    /// Insert this edge.
    Link(Edge),
    /// Delete edge `id`; `endpoint` is one of its current endpoints.
    Cut {
        /// The edge to delete.
        id: EdgeId,
        /// One endpoint of that edge (locates its partition via `home`).
        endpoint: VertexId,
    },
}

/// A conflict-free group of updates: applied serially in arrival order by
/// one pool job. Groups of one batch must have **disjoint** `parts` sets
/// that are closed under the union of every member update's endpoint
/// partitions (the engine's conflict coloring guarantees this; debug
/// builds re-check every access).
#[derive(Clone, Debug)]
pub struct UpdateGroup {
    /// The group's updates, in batch arrival order.
    pub updates: Vec<GroupUpdate>,
    /// The partitions this group may touch (its color class).
    pub parts: Vec<u32>,
}

/// Cumulative migration/rebalance counters of a
/// [`ComponentPartitionedMsf`]. Rebalance component moves reuse the
/// migration machinery, so they count into the migration totals too.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PartitionStats {
    /// Component migrations (cross-partition links plus rebalance moves).
    pub migrations: u64,
    /// Vertices re-homed by those migrations.
    pub migrated_vertices: u64,
    /// Edges deleted + re-inserted by those migrations.
    pub migrated_edges: u64,
    /// Rebalance passes that moved at least one component
    /// (see [`ComponentPartitionedMsf::maybe_rebalance`]).
    pub rebalances: u64,
}

impl PartitionStats {
    fn add(&mut self, other: &PartitionStats) {
        self.migrations += other.migrations;
        self.migrated_vertices += other.migrated_vertices;
        self.migrated_edges += other.migrated_edges;
        self.rebalances += other.rebalances;
    }
}

/// Dynamic MSF over `P` component-containing partitions; see the module
/// docs. Observable behaviour ([`DynamicMsf`]) is identical to a single
/// [`SeqDynamicMsf`] over the same update sequence.
pub struct ComponentPartitionedMsf {
    parts: Vec<SeqDynamicMsf>,
    /// `home[v]` = the partition whose component structure owns vertex `v`.
    /// A vertex exists in *every* partition but is isolated (degree 0) in
    /// all but its home.
    home: Vec<u32>,
    /// `occupancy[p]` = live edges currently homed in partition `p`,
    /// maintained incrementally at every insert/delete/migration so the
    /// rebalance trigger never rescans a partition.
    occupancy: Vec<u64>,
    /// Smallest max-partition occupancy at which [`Self::maybe_rebalance`]
    /// fires — keeps tiny structures (unit tests, warm-up) from churning.
    rebalance_min: u64,
    stats: PartitionStats,
}

/// Default [`ComponentPartitionedMsf::set_rebalance_min`] floor: below this
/// many live edges in the fullest partition, skew is noise, not load.
pub const REBALANCE_MIN_OCCUPANCY: u64 = 64;

impl ComponentPartitionedMsf {
    /// A structure over `n` isolated vertices split into `num_parts`
    /// partitions, each with chunk parameter `k` and EREW accounting (the
    /// engine serves at `K = sqrt(n log n)`). Initial homes are contiguous
    /// vertex blocks (`v * P / n`), which aligns with the block-clustered
    /// workload generators.
    pub fn with_chunk_parameter(n: usize, num_parts: usize, k: usize) -> Self {
        let p = num_parts.clamp(1, n.max(1));
        let parts = (0..p)
            .map(|_| SeqDynamicMsf::with_parameters(n, k, CostModel::Erew))
            .collect();
        let home = (0..n)
            .map(|v| ((v * p / n.max(1)) as u32).min(p as u32 - 1))
            .collect();
        ComponentPartitionedMsf {
            parts,
            home,
            occupancy: vec![0; p],
            rebalance_min: REBALANCE_MIN_OCCUPANCY,
            stats: PartitionStats::default(),
        }
    }

    /// Reassemble a structure from its parts (the checkpoint import path):
    /// the partitions, the `home` lane, the rebalance floor and the
    /// cumulative counters. Occupancy is recounted from the partitions.
    /// Refused unless there is at least one partition, every partition has
    /// `home.len()` vertices and the same `K`, every home names an existing
    /// partition, and every vertex with edges in a partition is homed there
    /// (component containment) — never a panic.
    pub fn from_parts(
        parts: Vec<SeqDynamicMsf>,
        home: Vec<u32>,
        rebalance_min: u64,
        stats: PartitionStats,
    ) -> Result<Self, String> {
        check_parts(&parts, &home)?;
        let occupancy = live_edge_counts(&parts, home.len());
        Ok(ComponentPartitionedMsf {
            parts,
            home,
            occupancy,
            rebalance_min,
            stats,
        })
    }

    /// Number of partitions.
    pub fn num_partitions(&self) -> usize {
        self.parts.len()
    }

    /// The partitions, in partition-id order (checkpointing and
    /// diagnostics).
    pub fn partitions(&self) -> &[SeqDynamicMsf] {
        &self.parts
    }

    /// The `home` lane: `homes()[v]` is the partition owning vertex `v`.
    pub fn homes(&self) -> &[u32] {
        &self.home
    }

    /// Chunk parameter K shared by every partition's structure.
    pub fn chunk_parameter(&self) -> usize {
        self.parts[0].chunk_parameter()
    }

    /// PRAM cost of the most recent update. Each partition meters its own
    /// updates, so with one partition this is exactly that structure's
    /// [`SeqDynamicMsf::last_op_cost`]. With more, it is the most recent
    /// update cost of the partition whose latest update was deepest (ties
    /// by work): an upper bound on the depth of any partition's latest
    /// update, not necessarily the cost of the batch's final update.
    pub fn last_op_cost(&self) -> CostReport {
        self.parts
            .iter()
            .map(SeqDynamicMsf::last_op_cost)
            .max_by_key(|c| (c.depth, c.work))
            .expect("at least one partition")
    }

    /// The kernel execution mode: always [`ExecMode::Simulated`] (every
    /// primitive runs on the calling thread).
    pub fn execution_mode(&self) -> ExecMode {
        ExecMode::Simulated
    }

    /// The partition currently owning vertex `v`'s component.
    pub fn home_of(&self, v: VertexId) -> u32 {
        self.home[v.index()]
    }

    /// Cumulative migration counters.
    pub fn partition_stats(&self) -> PartitionStats {
        self.stats
    }

    /// Live edges currently homed in each partition.
    pub fn occupancy(&self) -> &[u64] {
        &self.occupancy
    }

    /// Set the occupancy floor below which [`Self::maybe_rebalance`] is a
    /// no-op (tests force small structures through the rebalance path with
    /// 1; `u64::MAX` switches rebalancing off).
    pub fn set_rebalance_min(&mut self, min: u64) {
        self.rebalance_min = min;
    }

    /// The current rebalance occupancy floor.
    pub fn rebalance_min(&self) -> u64 {
        self.rebalance_min
    }

    /// Spread load back across partitions after migrations have
    /// concentrated it: when the fullest partition holds more than twice
    /// the mean occupancy (and at least `rebalance_min` edges), re-home its
    /// smallest components — smallest edge count first, ties by lowest
    /// start vertex — into the least-loaded other partitions until it is
    /// back at the mean (the largest component always stays put). Each move
    /// reuses [`migrate`]'s ascending-`WKey` re-insertion, so the rebuilt
    /// forests are the identical unique MSF and observable behaviour is
    /// unchanged; WAL bytes are untouched because the engine serializes
    /// batches at plan time.
    ///
    /// The whole decision is a pure function of the structure state, so
    /// grouped and forced-serial executions of the same batch stream — whose
    /// states are bit-for-bit equal between batches — rebalance identically.
    /// Call it **between** batches only (outside any group). Returns `true`
    /// if anything moved.
    pub fn maybe_rebalance(&mut self) -> bool {
        let p = self.parts.len();
        if p <= 1 {
            return false;
        }
        let total: u64 = self.occupancy.iter().sum();
        let mut src = 0usize;
        for q in 1..p {
            if self.occupancy[q] > self.occupancy[src] {
                src = q;
            }
        }
        let max_occ = self.occupancy[src];
        if max_occ < self.rebalance_min || max_occ * p as u64 <= 2 * total {
            return false;
        }
        // Enumerate the overloaded partition's components by ascending
        // start vertex (full BFS each, over live-edge adjacency).
        let n = self.home.len();
        let mut seen = vec![false; n];
        let mut comps: Vec<Bfs> = Vec::new();
        for v in 0..n {
            if self.home[v] != src as u32 || seen[v] {
                continue;
            }
            if self.parts[src].forest().adj[v].is_empty() {
                continue;
            }
            let mut bfs = Bfs::new(VertexId(v as u32));
            while !bfs.step(&self.parts[src]) {}
            for w in &bfs.verts {
                seen[w.index()] = true;
            }
            comps.push(bfs);
        }
        if comps.len() <= 1 {
            // One giant component: nothing to split off (partitions hold
            // whole components by invariant).
            return false;
        }
        comps.sort_by_key(|c| (c.edges.len(), c.verts[0].0));
        let mean = total / p as u64;
        let view = self.full_view();
        let mut st = PartitionStats::default();
        let mut moved = false;
        let keep_largest = comps.len() - 1;
        for bfs in &comps[..keep_largest] {
            if view.occ(src as u32) <= mean {
                break;
            }
            let mut dst = if src == 0 { 1 } else { 0 };
            for q in 0..p {
                if q != src && view.occ(q as u32) < view.occ(dst as u32) {
                    dst = q;
                }
            }
            migrate(&view, &mut st, bfs, src as u32, dst as u32);
            moved = true;
        }
        if moved {
            st.rebalances = 1;
        }
        self.stats.add(&st);
        moved
    }

    /// Apply the surviving updates of one batch, partitioned into
    /// conflict-free groups by the engine. Groups run as concurrent pool
    /// jobs when there is more than one group and the pool is wider than
    /// one; otherwise the same code runs inline, in group order. Either
    /// way the result is bit-for-bit identical to applying the updates
    /// serially in arrival order (see the module docs).
    pub fn apply_groups(&mut self, groups: &[UpdateGroup]) {
        if groups.is_empty() {
            return;
        }
        if groups.len() <= 1 || pool::parallelism() <= 1 {
            let view = self.full_view();
            let mut st = PartitionStats::default();
            for g in groups {
                apply_group(&view, &mut st, &g.updates);
            }
            self.stats.add(&st);
            return;
        }
        let num_parts = self.parts.len();
        let num_vertices = self.home.len();
        let owned: Vec<Vec<bool>> = groups
            .iter()
            .map(|g| {
                let mut m = vec![false; num_parts];
                for &p in &g.parts {
                    m[p as usize] = true;
                }
                m
            })
            .collect();
        let mut group_stats = vec![PartitionStats::default(); groups.len()];
        let parts_ptr = SendPtr(self.parts.as_mut_ptr());
        let home_ptr = SendPtr(self.home.as_mut_ptr());
        let occ_ptr = SendPtr(self.occupancy.as_mut_ptr());
        let stats_ptr = SendPtr(group_stats.as_mut_ptr());
        let owned_ref = &owned;
        // Each group job touches only the partitions (and `home` entries of
        // vertices homed in partitions) of its own disjoint color class, and
        // writes its migration counters to its own output slot — disjoint
        // access all the way down, checked per access in debug builds.
        pool::run_shard_ranges(groups.len(), |range| {
            for gi in range {
                let view = PartView {
                    parts: parts_ptr.get(),
                    num_parts,
                    home: home_ptr.get(),
                    num_vertices,
                    occ: occ_ptr.get(),
                    owned: Some(&owned_ref[gi]),
                };
                let st = unsafe { &mut *stats_ptr.get().add(gi) };
                apply_group(&view, st, &groups[gi].updates);
            }
        });
        for st in &group_stats {
            self.stats.add(st);
        }
    }

    /// Apply one update at once, outside any grouping — the engine's
    /// immediate arm (one partition, or forced-serial apply). Runs the same
    /// `apply_group` loop as [`Self::apply_groups`].
    pub fn apply(&mut self, update: GroupUpdate) {
        let view = self.full_view();
        let mut st = PartitionStats::default();
        apply_group(&view, &mut st, std::slice::from_ref(&update));
        self.stats.add(&st);
    }

    /// Validate every partition's internal invariants, the occupancy
    /// counters, and the shape and containment checks of
    /// [`Self::from_parts`]. Test-only helper, `O(P·n + m)`.
    pub fn validate(&self) {
        for part in &self.parts {
            part.validate();
        }
        if let Err(e) = check_parts(&self.parts, &self.home) {
            panic!("{e}");
        }
        assert_eq!(
            self.occupancy,
            live_edge_counts(&self.parts, self.home.len()),
            "occupancy counters drifted from the partitions' live edges"
        );
    }

    fn full_view(&mut self) -> PartView<'static> {
        PartView {
            parts: self.parts.as_mut_ptr(),
            num_parts: self.parts.len(),
            home: self.home.as_mut_ptr(),
            num_vertices: self.home.len(),
            occ: self.occupancy.as_mut_ptr(),
            owned: None,
        }
    }
}

impl DynamicMsf for ComponentPartitionedMsf {
    fn num_vertices(&self) -> usize {
        self.home.len()
    }

    fn add_vertex(&mut self) -> VertexId {
        // The vertex must exist in every partition (any of them may host
        // its component later); it starts isolated, homed in the last
        // partition.
        let mut id = VertexId(0);
        for part in &mut self.parts {
            id = part.add_vertex();
        }
        self.home.push(self.parts.len() as u32 - 1);
        id
    }

    fn insert(&mut self, e: Edge) -> MsfDelta {
        let view = self.full_view();
        let mut st = PartitionStats::default();
        let delta = view_link(&view, &mut st, e);
        self.stats.add(&st);
        delta
    }

    fn delete(&mut self, id: EdgeId) -> MsfDelta {
        // Trait callers name no endpoint (the engine's cuts carry one, see
        // `GroupUpdate::Cut`): scan for the owning partition.
        for p in 0..self.parts.len() {
            if self.parts[p].contains_edge(id) {
                self.occupancy[p] -= 1;
                return self.parts[p].delete(id);
            }
        }
        panic!("delete of unknown edge {}", id.0);
    }

    fn contains_edge(&self, id: EdgeId) -> bool {
        self.parts.iter().any(|p| p.contains_edge(id))
    }

    fn is_forest_edge(&self, id: EdgeId) -> bool {
        self.parts.iter().any(|p| p.is_forest_edge(id))
    }

    fn forest_edges(&self) -> Vec<EdgeId> {
        let mut all: Vec<EdgeId> = self.parts.iter().flat_map(|p| p.forest_edges()).collect();
        all.sort_unstable();
        all
    }

    fn forest_weight(&self) -> i128 {
        self.parts.iter().map(|p| p.forest_weight()).sum()
    }

    fn num_forest_edges(&self) -> usize {
        self.parts.iter().map(|p| p.num_forest_edges()).sum()
    }

    fn connected(&mut self, u: VertexId, v: VertexId) -> bool {
        // Components never span partitions, so different homes means
        // disconnected without touching any structure.
        let (pu, pv) = (self.home[u.index()], self.home[v.index()]);
        pu == pv && self.parts[pu as usize].connected(u, v)
    }
}

/// The shape and containment checks shared by
/// [`ComponentPartitionedMsf::from_parts`] and `validate`: at least one
/// partition, all with `home.len()` vertices and one `K`, every home in
/// range, and every vertex with edges in a partition homed there. Given
/// valid partitions, the last check is component containment: an edge's
/// two endpoints both list it, so both are homed in the partition holding
/// it. `O(P·n)`.
fn check_parts(parts: &[SeqDynamicMsf], home: &[u32]) -> Result<(), String> {
    let first = parts
        .first()
        .ok_or("a partitioned structure needs at least one partition")?;
    let (n, k) = (home.len(), first.chunk_parameter());
    for (pi, part) in parts.iter().enumerate() {
        if part.num_vertices() != n {
            return Err(format!(
                "partition {pi} has {} vertices but the home lane has {n}",
                part.num_vertices()
            ));
        }
        if part.chunk_parameter() != k {
            return Err(format!(
                "partition {pi} has K = {} but partition 0 has K = {k}",
                part.chunk_parameter()
            ));
        }
    }
    if let Some(v) = home.iter().position(|&h| h as usize >= parts.len()) {
        return Err(format!(
            "vertex {v} is homed in partition {} of {}",
            home[v],
            parts.len()
        ));
    }
    for (pi, part) in parts.iter().enumerate() {
        let adj = &part.forest().adj;
        if let Some(v) = (0..n).find(|&v| !adj[v].is_empty() && home[v] as usize != pi) {
            return Err(format!(
                "vertex {v} has edges in partition {pi} but is homed in {}",
                home[v]
            ));
        }
    }
    Ok(())
}

/// Live edges held by each partition, counted from scratch (each edge is
/// listed once per endpoint).
fn live_edge_counts(parts: &[SeqDynamicMsf], n: usize) -> Vec<u64> {
    parts
        .iter()
        .map(|part| {
            let adj = &part.forest().adj;
            ((0..n).map(|v| adj[v].len()).sum::<usize>() / 2) as u64
        })
        .collect()
}

// ---------------------------------------------------------------------------
// PartView: the disjoint-access seam
// ---------------------------------------------------------------------------

/// Raw-pointer view over the partition array and the `home` map, scoped to
/// one group's owned partition set (`owned: None` = the serial path, which
/// owns everything). Every partition access and every `home` write goes
/// through an accessor that debug-asserts ownership, so a conflict-coloring
/// bug surfaces as an assertion in debug builds instead of a data race.
struct PartView<'a> {
    parts: *mut SeqDynamicMsf,
    num_parts: usize,
    home: *mut u32,
    num_vertices: usize,
    /// Per-partition live-edge counters; an entry is only touched together
    /// with its partition, so group disjointness covers it too.
    occ: *mut u64,
    owned: Option<&'a [bool]>,
}

impl PartView<'_> {
    #[inline]
    fn check_owned(&self, p: u32) {
        debug_assert!((p as usize) < self.num_parts, "partition out of range");
        if let Some(owned) = self.owned {
            debug_assert!(
                owned[p as usize],
                "group touched partition {p} outside its color class"
            );
        }
    }

    /// Mutable access to partition `p`.
    ///
    /// Safety: callers of the same batch hold disjoint `owned` sets, so no
    /// two live `&mut` references alias (the engine's conflict coloring is
    /// the proof obligation; `check_owned` is the debug-build witness).
    #[inline]
    #[allow(clippy::mut_from_ref)]
    fn part(&self, p: u32) -> &mut SeqDynamicMsf {
        self.check_owned(p);
        unsafe { &mut *self.parts.add(p as usize) }
    }

    #[inline]
    fn part_ref(&self, p: u32) -> &SeqDynamicMsf {
        self.check_owned(p);
        unsafe { &*self.parts.add(p as usize) }
    }

    #[inline]
    fn home(&self, v: VertexId) -> u32 {
        debug_assert!(v.index() < self.num_vertices);
        unsafe { *self.home.add(v.index()) }
    }

    #[inline]
    fn set_home(&self, v: VertexId, p: u32) {
        self.check_owned(self.home(v));
        self.check_owned(p);
        unsafe { *self.home.add(v.index()) = p }
    }

    #[inline]
    fn occ(&self, p: u32) -> u64 {
        self.check_owned(p);
        unsafe { *self.occ.add(p as usize) }
    }

    #[inline]
    fn occ_add(&self, p: u32, k: u64) {
        self.check_owned(p);
        unsafe { *self.occ.add(p as usize) += k }
    }

    #[inline]
    fn occ_sub(&self, p: u32, k: u64) {
        self.check_owned(p);
        unsafe { *self.occ.add(p as usize) -= k }
    }
}

fn apply_group(view: &PartView, st: &mut PartitionStats, updates: &[GroupUpdate]) {
    for update in updates {
        match *update {
            GroupUpdate::Link(e) => {
                view_link(view, st, e);
            }
            GroupUpdate::Cut { id, endpoint } => {
                let p = view.home(endpoint);
                view.part(p).delete(id);
                view.occ_sub(p, 1);
            }
        }
    }
}

fn view_link(view: &PartView, st: &mut PartitionStats, e: Edge) -> MsfDelta {
    let (pu, pv) = (view.home(e.u), view.home(e.v));
    let p = if pu == pv {
        pu
    } else {
        unify(view, st, e.u, e.v)
    };
    view.occ_add(p, 1);
    view.part(p).insert(e)
}

/// Bring the components of `u` and `v` into one partition by migrating the
/// smaller of the two, and return that common partition. Pre: their homes
/// differ.
fn unify(view: &PartView, st: &mut PartitionStats, u: VertexId, v: VertexId) -> u32 {
    let (pu, pv) = (view.home(u), view.home(v));
    debug_assert_ne!(pu, pv);
    let mut a = Bfs::new(u);
    let mut b = Bfs::new(v);
    // Lockstep expansion, one vertex per side per round, `u` side first:
    // the first side to exhaust its component is the smaller (ties move
    // the `u` side) — found in O(min(|C_u|, |C_v|)) adjacency work.
    loop {
        if a.step(view.part_ref(pu)) {
            migrate(view, st, &a, pu, pv);
            return pv;
        }
        if b.step(view.part_ref(pv)) {
            migrate(view, st, &b, pv, pu);
            return pu;
        }
    }
}

/// Incremental BFS over one partition's live-edge adjacency (a component's
/// tree *and* non-tree edges — non-tree edges never leave a component, so
/// reachability over all live edges equals forest reachability).
struct Bfs {
    /// Discovered vertices, in discovery order; `head` indexes the next
    /// one to expand.
    verts: Vec<VertexId>,
    head: usize,
    seen_verts: HashSet<u32>,
    /// Discovered edge records, deduplicated.
    edges: Vec<Edge>,
    seen_edges: HashSet<u32>,
}

impl Bfs {
    fn new(start: VertexId) -> Bfs {
        let mut seen_verts = HashSet::new();
        seen_verts.insert(start.0);
        Bfs {
            verts: vec![start],
            head: 0,
            seen_verts,
            edges: Vec::new(),
            seen_edges: HashSet::new(),
        }
    }

    /// Expand one vertex; returns `true` when the component is fully
    /// enumerated (no vertex left to expand).
    fn step(&mut self, part: &SeqDynamicMsf) -> bool {
        if self.head == self.verts.len() {
            return true;
        }
        let w = self.verts[self.head];
        self.head += 1;
        let forest = part.forest();
        for a in &forest.adj[w.index()] {
            if self.seen_edges.insert(a.id.0) {
                self.edges
                    .push(forest.edge(a.id).expect("adjacency names a live edge"));
            }
            if self.seen_verts.insert(a.other.0) {
                self.verts.push(a.other);
            }
        }
        false
    }
}

/// Move the fully-enumerated component `bfs` from partition `src` to
/// partition `dst`: delete its edges from `src` (non-tree first, so no
/// tree-edge deletion ever runs a replacement search), re-home its
/// vertices, and re-insert the edges into `dst` in ascending `WKey` order
/// (Kruskal order — rebuilds the identical unique MSF with no swaps).
fn migrate(view: &PartView, st: &mut PartitionStats, bfs: &Bfs, src: u32, dst: u32) {
    debug_assert_ne!(src, dst);
    let src_part = view.part(src);
    let mut non_tree: Vec<Edge> = Vec::new();
    let mut tree: Vec<Edge> = Vec::new();
    for &e in &bfs.edges {
        if src_part.forest().is_tree_edge(e.id) {
            tree.push(e);
        } else {
            non_tree.push(e);
        }
    }
    non_tree.sort_unstable_by_key(|e| e.id);
    tree.sort_unstable_by_key(|e| e.id);
    for e in &non_tree {
        src_part.delete(e.id);
    }
    for e in &tree {
        src_part.delete(e.id);
    }
    for &w in &bfs.verts {
        view.set_home(w, dst);
    }
    let mut all = non_tree;
    all.append(&mut tree);
    all.sort_unstable_by_key(|e| WKey::new(e.weight, e.id));
    let dst_part = view.part(dst);
    for &e in &all {
        dst_part.insert(e);
    }
    view.occ_sub(src, all.len() as u64);
    view.occ_add(dst, all.len() as u64);
    st.migrations += 1;
    st.migrated_vertices += bfs.verts.len() as u64;
    st.migrated_edges += all.len() as u64;
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdmsf_graph::Weight;

    fn edge(id: u32, u: u32, v: u32, w: i64) -> Edge {
        Edge {
            id: EdgeId(id),
            u: VertexId(u),
            v: VertexId(v),
            weight: Weight::new(w),
        }
    }

    /// Deterministic xorshift for the differential tests.
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }
        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    #[test]
    fn cross_partition_links_migrate_and_match_reference() {
        let n = 24;
        let mut part = ComponentPartitionedMsf::with_chunk_parameter(n, 4, 5);
        let mut reference = SeqDynamicMsf::with_parameters(n, 5, CostModel::Erew);
        let mut rng = Rng(0x1234_5678);
        let mut live: Vec<Edge> = Vec::new();
        let mut next_id = 0u32;
        for _ in 0..300 {
            if live.is_empty() || rng.below(3) < 2 {
                let u = rng.below(n as u64) as u32;
                let mut v = rng.below(n as u64) as u32;
                if v == u {
                    v = (v + 1) % n as u32;
                }
                let e = edge(next_id, u, v, rng.below(100) as i64);
                next_id += 1;
                live.push(e);
                assert_eq!(part.insert(e), reference.insert(e));
            } else {
                let k = rng.below(live.len() as u64) as usize;
                let e = live.swap_remove(k);
                assert_eq!(part.delete(e.id), reference.delete(e.id));
            }
        }
        assert!(part.partition_stats().migrations > 0);
        assert_eq!(part.forest_edges(), reference.forest_edges());
        assert_eq!(part.forest_weight(), reference.forest_weight());
        assert_eq!(part.num_forest_edges(), reference.num_forest_edges());
        for u in 0..n as u32 {
            for v in 0..n as u32 {
                assert_eq!(
                    part.connected(VertexId(u), VertexId(v)),
                    reference.connected(VertexId(u), VertexId(v)),
                    "connectivity of ({u}, {v})"
                );
            }
        }
        part.validate();
    }

    #[test]
    fn grouped_apply_matches_serial_apply() {
        // Two independent vertex blocks (partitions 0 and 1 of a 2-way
        // split over 16 vertices) plus one block that merges partitions 2
        // and 3 via a cross-partition link.
        let n = 16;
        let build = || ComponentPartitionedMsf::with_chunk_parameter(n, 4, 4);
        let g0 = vec![
            GroupUpdate::Link(edge(0, 0, 1, 5)),
            GroupUpdate::Link(edge(1, 1, 2, 3)),
            GroupUpdate::Cut {
                id: EdgeId(0),
                endpoint: VertexId(0),
            },
        ];
        let g1 = vec![
            GroupUpdate::Link(edge(2, 4, 5, 9)),
            GroupUpdate::Link(edge(3, 5, 6, 1)),
        ];
        let g2 = vec![
            GroupUpdate::Link(edge(4, 8, 9, 2)),
            // Crosses partitions 2 (vertices 8..12) and 3 (12..16).
            GroupUpdate::Link(edge(5, 9, 13, 4)),
            GroupUpdate::Link(edge(6, 13, 14, 6)),
        ];
        let groups = vec![
            UpdateGroup {
                updates: g0.clone(),
                parts: vec![0],
            },
            UpdateGroup {
                updates: g1.clone(),
                parts: vec![1],
            },
            UpdateGroup {
                updates: g2.clone(),
                parts: vec![2, 3],
            },
        ];
        let mut grouped = build();
        grouped.apply_groups(&groups);
        let mut serial = build();
        // Interleave the groups the way an arrival-order batch would.
        for update in [g0[0], g1[0], g2[0], g0[1], g1[1], g2[1], g0[2], g2[2]] {
            serial.apply(update);
        }
        assert_eq!(grouped.forest_edges(), serial.forest_edges());
        assert_eq!(grouped.forest_weight(), serial.forest_weight());
        for v in 0..n {
            assert_eq!(
                grouped.home_of(VertexId(v as u32)),
                serial.home_of(VertexId(v as u32)),
                "home of {v}"
            );
        }
        assert_eq!(grouped.partition_stats(), serial.partition_stats());
        grouped.validate();
        serial.validate();
    }

    #[test]
    fn add_vertex_lands_in_every_partition() {
        let mut part = ComponentPartitionedMsf::with_chunk_parameter(4, 2, 2);
        let v = part.add_vertex();
        assert_eq!(v, VertexId(4));
        assert_eq!(part.num_vertices(), 5);
        // The new vertex can immediately participate in links that force a
        // migration into its home partition.
        part.insert(edge(0, 0, 4, 7));
        part.validate();
        assert!(part.connected(VertexId(0), VertexId(4)));
    }

    #[test]
    fn rebalance_spreads_concentrated_components() {
        // Four 8-vertex blocks, one chain component per block, then pile
        // every chain into partition 0 via bridge links that are cut right
        // after (migration is one-way, so the chains stay where the bridge
        // dragged them). Linking `(8b, 0)` moves the `u` side — block `b`'s
        // chain — into partition 0 on the size tie.
        let n = 32;
        let mut part = ComponentPartitionedMsf::with_chunk_parameter(n, 4, 4);
        let mut id = 0u32;
        for b in 0..4u32 {
            for i in 0..7 {
                part.insert(edge(id, 8 * b + i, 8 * b + i + 1, (id + 1) as i64));
                id += 1;
            }
        }
        for b in 1..4u32 {
            let bridge = id;
            part.insert(edge(bridge, 8 * b, 0, 1));
            id += 1;
            part.delete(EdgeId(bridge));
        }
        assert_eq!(part.occupancy(), &[28, 0, 0, 0]);
        part.validate();

        // Floor above current load: trigger refuses.
        part.set_rebalance_min(100);
        assert!(!part.maybe_rebalance());

        part.set_rebalance_min(1);
        assert!(part.maybe_rebalance());
        // Smallest-first moves into least-loaded partitions: 28 edges
        // spread back to exactly 7 per partition, largest component stays.
        assert_eq!(part.occupancy(), &[7, 7, 7, 7]);
        let st = part.partition_stats();
        assert_eq!(st.rebalances, 1);
        part.validate();
        // All four chains still intact and mutually disconnected.
        for b in 0..4u32 {
            assert!(part.connected(VertexId(8 * b), VertexId(8 * b + 7)));
        }
        assert!(!part.connected(VertexId(0), VertexId(8)));
        assert_eq!(part.num_forest_edges(), 28);

        // Already balanced: a second pass is a no-op.
        assert!(!part.maybe_rebalance());
        assert_eq!(part.partition_stats().rebalances, 1);
    }

    #[test]
    fn rebalance_keeps_a_single_giant_component_in_place() {
        let n = 16;
        let mut part = ComponentPartitionedMsf::with_chunk_parameter(n, 4, 4);
        part.set_rebalance_min(1);
        // One chain spanning every vertex: everything migrates into one
        // partition, but a lone component cannot be split across
        // partitions, so rebalance must decline.
        for i in 0..15u32 {
            part.insert(edge(i, i, i + 1, 1));
        }
        let homes: Vec<u32> = (0..n as u32).map(|v| part.home_of(VertexId(v))).collect();
        assert!(!part.maybe_rebalance());
        let after: Vec<u32> = (0..n as u32).map(|v| part.home_of(VertexId(v))).collect();
        assert_eq!(homes, after);
        assert_eq!(part.partition_stats().rebalances, 0);
        part.validate();
    }

    #[test]
    fn migration_moves_the_smaller_component() {
        let n = 12;
        let mut part = ComponentPartitionedMsf::with_chunk_parameter(n, 2, 4);
        // Big component in partition 0 (vertices 0..6), small one in
        // partition 1 (vertices 6..12).
        for (i, (u, v)) in [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)].iter().enumerate() {
            part.insert(edge(i as u32, *u, *v, 1));
        }
        part.insert(edge(5, 6, 7, 1));
        // Linking the two components must move the 2-vertex side into
        // partition 0, not the 6-vertex side into partition 1.
        part.insert(edge(6, 0, 6, 1));
        assert_eq!(part.home_of(VertexId(6)), 0);
        assert_eq!(part.home_of(VertexId(7)), 0);
        let st = part.partition_stats();
        assert_eq!(st.migrations, 1);
        assert_eq!(st.migrated_vertices, 2);
        assert_eq!(st.migrated_edges, 1);
        part.validate();
    }
}
