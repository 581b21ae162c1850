//! Lockstep property tests for the sharded serving layer: a
//! [`ShardedService`] over a tenant-tagged stream must be **observationally
//! identical** to one flat [`Engine`] per tenant run on that tenant's
//! sub-batch, which in turn is pinned to a per-tenant Kruskal recompute — per-op outcomes
//! (tenant-local ids included), per-tenant forest weights and total service
//! weight all agree, for every batch, under hostile inputs: unknown
//! tenants, out-of-range endpoints, self-loops, never-allocated and
//! duplicate cuts, in-batch flap pairs, duplicate queries, tenant pinning,
//! empty shards (more shards than tenants) and uneven tenant sizes.

use pdmsf_engine::{Engine, Outcome, Reject};
use pdmsf_graph::{
    kruskal_msf, BatchKind, BatchOp, EdgeId, TenantId, TenantOp, TenantStream, TenantStreamSpec,
    VertexId, Weight,
};
use pdmsf_shard::{ShardedService, TenantSpec};
use proptest::prelude::*;

/// Uneven tenant sizes so vertex-range translation is actually exercised
/// (equal sizes would let an off-by-one base slip through).
const TENANT_SIZES: [usize; 4] = [6, 3, 9, 5];

/// A tenant id the service never registers.
const UNKNOWN: TenantId = TenantId(77);

#[derive(Clone, Copy, Debug)]
enum RawOp {
    /// Insert; endpoints reduce mod `tenant_n + 1`, so a slice lands out of
    /// the tenant's range and some pairs collide into self-loops.
    Link { u: u8, v: u8, w: u8 },
    /// Cut the `k`-th live tenant-local edge (frequently one born earlier
    /// in the same batch — the flap case the shard planner cancels).
    CutNth(u8),
    /// Cut an arbitrary tenant-local id near the frontier: never-allocated
    /// ids, dead ids and duplicates.
    CutBogus(u8),
    /// Connectivity query (same endpoint encoding as `Link`).
    QueryConn { u: u8, v: u8 },
    /// Tenant forest-weight query.
    QueryWeight,
}

/// `(tenant selector, op)`: selector `TENANT_SIZES.len()` means the
/// unknown tenant.
fn raw_op() -> impl Strategy<Value = (u8, RawOp)> {
    let op = prop_oneof![
        4 => (any::<u8>(), any::<u8>(), any::<u8>()).prop_map(|(u, v, w)| RawOp::Link { u, v, w }),
        3 => any::<u8>().prop_map(RawOp::CutNth),
        1 => any::<u8>().prop_map(RawOp::CutBogus),
        3 => (any::<u8>(), any::<u8>()).prop_map(|(u, v)| RawOp::QueryConn { u, v }),
        1 => (0u32..1).prop_map(|_| RawOp::QueryWeight),
    ];
    (any::<u8>(), op)
}

/// Concretise raw batches into tenant ops, tracking per-tenant live lists
/// (mirroring the tenant-local id allocation: only valid links consume an
/// id) so `CutNth` usually targets real edges.
fn concretise(raw_batches: &[Vec<(u8, RawOp)>]) -> Vec<Vec<TenantOp>> {
    let tenants = TENANT_SIZES.len();
    let mut next_local = vec![0u32; tenants];
    let mut live: Vec<Vec<EdgeId>> = vec![Vec::new(); tenants];
    let mut batches = Vec::with_capacity(raw_batches.len());
    for raw in raw_batches {
        let mut ops = Vec::with_capacity(raw.len());
        for &(sel, r) in raw {
            let t = sel as usize % (tenants + 1);
            let (tenant, n) = if t == tenants {
                (UNKNOWN, 4) // any n; every op of this tenant is rejected
            } else {
                (TenantId(t as u32), TENANT_SIZES[t])
            };
            let endpoint = |x: u8| VertexId((x as usize % (n + 1)) as u32);
            let op = match r {
                RawOp::Link { u, v, w } => {
                    let (u, v) = (endpoint(u), endpoint(v));
                    if t < tenants && u.index() < n && v.index() < n && u != v {
                        live[t].push(EdgeId(next_local[t]));
                        next_local[t] += 1;
                    }
                    BatchOp::Link {
                        u,
                        v,
                        weight: Weight::new(w as i64),
                    }
                }
                RawOp::CutNth(k) => {
                    if t == tenants || live[t].is_empty() {
                        BatchOp::Cut { id: EdgeId(9999) }
                    } else {
                        let idx = k as usize % live[t].len();
                        BatchOp::Cut {
                            id: live[t].swap_remove(idx),
                        }
                    }
                }
                RawOp::CutBogus(k) => {
                    let bound = if t < tenants { next_local[t] } else { 0 };
                    BatchOp::Cut {
                        id: EdgeId((k as u32) % (bound + 3)),
                    }
                }
                RawOp::QueryConn { u, v } => BatchOp::QueryConnected {
                    u: endpoint(u),
                    v: endpoint(v),
                },
                RawOp::QueryWeight => BatchOp::QueryForestWeight,
            };
            ops.push(TenantOp { tenant, op });
        }
        batches.push(ops);
    }
    batches
}

/// The reference: one flat engine per tenant, each service batch split into
/// per-tenant sub-batches (order preserved) that each engine executes, with
/// unknown tenants rejected — the documented service semantics implemented
/// the straightforward way.
struct PerTenantRef {
    engines: Vec<Engine>,
}

impl PerTenantRef {
    fn new() -> PerTenantRef {
        PerTenantRef {
            engines: TENANT_SIZES.iter().map(|&n| Engine::new(n)).collect(),
        }
    }

    fn run_batch(&mut self, ops: &[TenantOp]) -> Vec<Outcome> {
        let tenants = self.engines.len();
        let mut outcomes = vec![
            Outcome::Rejected {
                reason: Reject::UnknownTenant
            };
            ops.len()
        ];
        let mut per: Vec<Vec<(usize, pdmsf_engine::Op)>> = vec![Vec::new(); tenants];
        for (i, op) in ops.iter().enumerate() {
            if op.tenant.index() < tenants && op.tenant != UNKNOWN {
                per[op.tenant.index()].push((i, op.op));
            }
        }
        for (t, grouped) in per.into_iter().enumerate() {
            if grouped.is_empty() {
                continue;
            }
            let batch: Vec<pdmsf_engine::Op> = grouped.iter().map(|&(_, op)| op).collect();
            let result = self.engines[t].execute(&batch);
            for ((i, _), outcome) in grouped.into_iter().zip(result.outcomes) {
                outcomes[i] = outcome;
            }
        }
        outcomes
    }
}

/// The core lockstep check: service (concurrent) == service (serial
/// dispatch) == per-tenant flat engines == per-tenant Kruskal, after every
/// batch.
fn check_lockstep(
    batches: &[Vec<TenantOp>],
    mut service: ShardedService,
    mut serial: ShardedService,
) {
    let mut reference = PerTenantRef::new();
    for (b, ops) in batches.iter().enumerate() {
        let expected = reference.run_batch(ops);
        let got = service.execute(ops);
        let got_serial = serial.execute_serial(ops);
        assert_eq!(
            got.outcomes, expected,
            "sharded outcomes diverged from the per-tenant flat engines in batch {b}"
        );
        assert_eq!(
            got_serial.outcomes, expected,
            "serial-dispatch outcomes diverged from the per-tenant flat engines in batch {b}"
        );
        // Structural lockstep per tenant: flat engine == Kruskal == the
        // tenant's ranged weight inside its shard.
        let mut total = 0i128;
        for (t, engine) in reference.engines.iter().enumerate() {
            let kruskal = kruskal_msf(engine.graph());
            assert_eq!(
                engine.forest_weight(),
                kruskal.total_weight,
                "per-tenant reference diverged from Kruskal for tenant {t} in batch {b}"
            );
            assert_eq!(
                service.tenant_forest_weight(TenantId(t as u32)),
                Some(kruskal.total_weight),
                "sharded tenant weight diverged from Kruskal for tenant {t} in batch {b}"
            );
            total += kruskal.total_weight;
        }
        assert_eq!(service.total_forest_weight(), total);
        assert_eq!(serial.total_forest_weight(), total);
    }
}

/// Registered tenants with a pin mixed in (tenant 1 forced onto shard 0,
/// wherever the stable hash would have put it).
fn specs() -> Vec<TenantSpec> {
    TENANT_SIZES
        .iter()
        .enumerate()
        .map(|(t, &n)| {
            if t == 1 {
                TenantSpec::pinned(TenantId(t as u32), n, 0)
            } else {
                TenantSpec::new(TenantId(t as u32), n)
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 16,
        .. ProptestConfig::default()
    })]

    /// Default engine configuration, shard counts from 1 (the flat merged
    /// case) past the tenant count (empty shards).
    #[test]
    fn sharded_matches_per_tenant_engines_and_kruskal(
        raw in proptest::collection::vec(proptest::collection::vec(raw_op(), 0..20), 1..6),
        shards in 1usize..7,
    ) {
        let batches = concretise(&raw);
        check_lockstep(
            &batches,
            ShardedService::new(shards, &specs()),
            ShardedService::new(shards, &specs()),
        );
    }

    /// Stress configuration: tiny chunk parameter (maximal chunk churn), so
    /// the shard engines take different internal paths from the
    /// reference's defaults.
    #[test]
    fn sharded_matches_under_stress_configuration(
        raw in proptest::collection::vec(proptest::collection::vec(raw_op(), 0..20), 1..5),
    ) {
        let batches = concretise(&raw);
        let stress = |n: usize| Engine::with_chunk_parameter(n, 2);
        check_lockstep(
            &batches,
            ShardedService::with_engine_factory(3, &specs(), stress),
            ShardedService::with_engine_factory(3, &specs(), stress),
        );
    }
}

/// The generator-produced multi-tenant streams (the traffic shape of
/// perfbench `serve` and the sharded examples) also hold the lockstep
/// property — pinning the benchmark inputs to the verified semantics, flap
/// pairs, skewed popularity and all.
#[test]
fn generated_tenant_streams_hold_the_lockstep_property() {
    let stream = TenantStream::generate(&TenantStreamSpec {
        tenants: 6,
        tenant_vertices: 24,
        tenant_edges: 36,
        batches: 8,
        batch_size: 48,
        burst: 12,
        zipf_permille: 800,
        kind: BatchKind::Bursty {
            query_permille: 450,
            flap_permille: 350,
        },
        seed: 29,
    });
    let specs: Vec<TenantSpec> = (0..6)
        .map(|t| TenantSpec::new(TenantId(t), stream.tenant_vertices))
        .collect();
    let mut service = ShardedService::new(4, &specs);
    let mut engines: Vec<Engine> = (0..6)
        .map(|_| Engine::new(stream.tenant_vertices))
        .collect();

    let run = |service: &mut ShardedService, engines: &mut Vec<Engine>, ops: &[TenantOp]| {
        let got = service.execute(ops);
        // Reference: split per tenant, run each through a flat engine.
        let mut expected = vec![Outcome::ForestWeight { weight: -1 }; ops.len()];
        let mut per: Vec<Vec<(usize, pdmsf_engine::Op)>> = vec![Vec::new(); engines.len()];
        for (i, op) in ops.iter().enumerate() {
            per[op.tenant.index()].push((i, op.op));
        }
        for (t, grouped) in per.into_iter().enumerate() {
            if grouped.is_empty() {
                continue;
            }
            let batch: Vec<pdmsf_engine::Op> = grouped.iter().map(|&(_, op)| op).collect();
            let result = engines[t].execute(&batch);
            for ((i, _), outcome) in grouped.into_iter().zip(result.outcomes) {
                expected[i] = outcome;
            }
        }
        assert_eq!(got.outcomes, expected);
    };

    run(&mut service, &mut engines, &stream.base_ops());
    for ops in &stream.batches {
        run(&mut service, &mut engines, ops);
    }
    // The bursty per-tenant traffic carried flap pairs and the shard
    // planners actually cancelled some.
    let cancelled: u64 = (0..service.num_shards())
        .map(|s| service.shard_engine(s).stats().cancelled_pairs)
        .sum();
    assert!(cancelled > 0, "stream exercised no cancellation at all");
    // Per-tenant forests agree with Kruskal at the end.
    let mut total = 0i128;
    for (t, engine) in engines.iter().enumerate() {
        let kruskal = kruskal_msf(engine.graph());
        assert_eq!(
            service.tenant_forest_weight(TenantId(t as u32)),
            Some(kruskal.total_weight)
        );
        total += kruskal.total_weight;
    }
    assert_eq!(service.total_forest_weight(), total);
}
