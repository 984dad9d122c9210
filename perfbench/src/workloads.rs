//! The workloads: how each builds its deployment from the seed, what its
//! timed phase is, and the independent oracle its outputs are checked
//! against.  Every deployment drives the public facade (`pasn`), pins its
//! worker count explicitly, and takes every input from the seed.

use crate::host;
use crate::spans::Spans;
use pasn::prelude::*;
use pasn::{forensics, workload};
use pasn_crypto::{KeyAuthority, Principal};
use pasn_datalog::prelude::{localize_program, validate_program};
use pasn_datalog::{compile_program, parse_program, Program};
use pasn_net::Link;
use pasn_provenance::traceback;
use std::collections::HashMap;

/// Best-Path deployment size (nodes, average out-degree three).
const BESTPATH_NODES: u32 = 60;
/// Generational reachability size: clusters of `STREAM_CLUSTER_SIZE`.
const STREAM_CLUSTERS: u32 = 50;
const STREAM_CLUSTER_SIZE: u32 = 20;
/// Forensic deployment size and the queries one timed batch issues.
const FORENSIC_NODES: u32 = 20;
const FORENSIC_BATCH: usize = 200;
/// Soft-state lifetime of the forensic deployment's tuples; far beyond its
/// convergence time, so nothing expires before the benchmark expires it.
const FORENSIC_TTL_US: u64 = 60_000_000;
/// Seed of the one Best-Path topology every seed perturbs.
const TOPOLOGY_SEED: u64 = 5;
/// Worker count of the stream's pool round, which only the traced run
/// makes (see `layers::traced`).  Fixed rather than read from the host, so
/// the pool's counters do not depend on the machine.
pub const POOL_WORKERS: usize = 2;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    /// SeNDLogProv Best-Path: per-tuple RSA frames, condensed provenance.
    BestPath,
    /// Generational reachability over lossy session channels.
    Stream,
    /// Closed-loop forensic queries over a converged deployment.
    Forensic,
}

pub const NAMES: [&str; 3] = [
    "bestpath_rsa_prov",
    "stream_lossy_session",
    "forensic_queries",
];

impl Kind {
    pub fn from_name(name: &str) -> Option<Kind> {
        Some(match name {
            "bestpath_rsa_prov" => Kind::BestPath,
            "stream_lossy_session" => Kind::Stream,
            "forensic_queries" => Kind::Forensic,
            _ => return None,
        })
    }
}

/// One forensic query: a tuple key and the node it is stored at.
#[derive(Clone, Debug)]
pub struct Query {
    pub location: Value,
    pub key: String,
}

/// A freshly built deployment, ready for its timed phase.
pub struct Deployment {
    pub net: SecureNetwork,
    /// The streamed churn events (stream workloads).
    pub events: Vec<(SimTime, ChurnEvent)>,
    /// Metrics of the set-up fixpoint (forensic workload).
    pub setup_metrics: Option<RunMetrics>,
    /// The seeded query list (forensic workload).
    pub queries: Vec<Query>,
}

/// What one forensic batch observed, summed over its queries.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BatchOutcome {
    pub failed: u64,
    pub base_tuples: u64,
    pub archived: u64,
    pub visited: u64,
    pub remote_hops: u64,
}

/// A small deterministic generator (splitmix64) for seeded choices.
struct SplitMix(u64);

impl SplitMix {
    fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The engine configuration of `kind`, with every environment-sensitive
/// input pinned: one worker, fault plan seeded from the benchmark seed
/// (the process clears `PASN_FAULT_SEED` before any plan is built).
pub fn config(kind: Kind, seed: u64, lossless: bool) -> EngineConfig {
    let base = match kind {
        Kind::BestPath => SystemVariant::SeNDLogProv.config(),
        Kind::Stream => {
            let plan = if lossless {
                FaultPlan::lossless(seed)
            } else {
                FaultPlan::new(seed)
            };
            EngineConfig::sendlog_session()
                .with_batching()
                .with_fault_plan(plan)
        }
        Kind::Forensic => {
            let mut c = EngineConfig::sendlog_session()
                .with_graph_mode(GraphMode::Distributed)
                .with_default_ttl_us(FORENSIC_TTL_US);
            c.archive_offline = true;
            c
        }
    };
    base.with_workers(1)
}

fn program_text(kind: Kind) -> &'static str {
    match kind {
        Kind::BestPath => pasn::programs::BEST_PATH,
        _ => pasn::programs::REACHABILITY_NDLOG,
    }
}

/// The set-up phase: topology, program, keys, facts — and, for the
/// forensic workload, the fixpoint plus partial expiry.  With spans
/// enabled it additionally runs the datalog passes and key provisioning on
/// their own, so each layer's share of set-up shows by name (the builder
/// repeats that work inside `core.build`).
pub fn setup(kind: Kind, seed: u64, cfg: EngineConfig, sp: &mut Spans) -> Deployment {
    let nodes = match kind {
        Kind::BestPath => BESTPATH_NODES,
        Kind::Stream => STREAM_CLUSTERS * STREAM_CLUSTER_SIZE,
        Kind::Forensic => FORENSIC_NODES,
    };
    // Reachability does the same work on any strongly connected topology
    // (every node derives every other), so the forensic deployment draws a
    // fresh one per seed; Best-Path work depends on the topology's shape.
    let topology = match kind {
        Kind::BestPath => Some(sp.span("net.topology", |_| seeded_topology(nodes, seed))),
        Kind::Forensic => Some(sp.span("net.topology", |_| {
            workload::evaluation_topology(nodes, seed)
        })),
        Kind::Stream => None,
    };
    let program: Program = sp.span("datalog.parse", |_| {
        parse_program(program_text(kind)).expect("built-in program parses")
    });
    if sp.enabled() {
        sp.span("datalog.validate", |_| {
            validate_program(&program).expect("built-in program validates")
        });
        sp.span("datalog.localize", |_| {
            localize_program(&program).expect("built-in program localizes")
        });
        sp.span("datalog.compile", |_| {
            compile_program(&program).expect("built-in program compiles")
        });
        if cfg.says_level.is_some() {
            let principals: Vec<Principal> = (0..nodes)
                .map(|i| Principal::new(i, Value::Addr(i).to_string()))
                .collect();
            sp.span("crypto.provision", |_| {
                KeyAuthority::provision_with_modulus(
                    &principals,
                    cfg.key_seed,
                    cfg.rsa_modulus_bits,
                )
                .expect("keys provision")
            });
        }
    }
    let mut dep = match (kind, topology) {
        (Kind::Stream, _) => sp.span("core.build", |_| {
            let (net, events) = pasn_bench::generational_reachability_workload(
                STREAM_CLUSTERS,
                STREAM_CLUSTER_SIZE,
                cfg,
            );
            Deployment {
                net,
                events,
                setup_metrics: None,
                queries: Vec::new(),
            }
        }),
        (_, Some(topology)) => sp.span("core.build", |_| Deployment {
            net: SecureNetwork::builder()
                .program(program)
                .topology(topology)
                .config(cfg)
                .build()
                .expect("deployment builds"),
            events: Vec::new(),
            setup_metrics: None,
            queries: Vec::new(),
        }),
        (_, None) => unreachable!("only the stream workloads have no topology"),
    };
    if kind == Kind::Forensic {
        let metrics = sp.span("core.run", |_| dep.net.run().expect("forensic fixpoint"));
        dep.queries = sp.span("core.expire", |_| expire_and_pick(&mut dep.net, seed));
        dep.setup_metrics = Some(metrics);
    }
    dep
}

/// The Section 6 evaluation topology (average out-degree three) drawn
/// once from [`TOPOLOGY_SEED`], perturbed and relabelled by `seed`: one
/// link's cost moves by one, then node ids are permuted.  Every seed thus
/// gets its own network of nearly the same size.  (A fresh random topology
/// per seed changes the Best-Path work by about ±20%, which would hide any
/// change smaller than that.)
fn seeded_topology(nodes: u32, seed: u64) -> Topology {
    let base = workload::evaluation_topology(nodes, TOPOLOGY_SEED);
    let mut rng = SplitMix::new(seed);
    let mut links: Vec<Link> = base.links().to_vec();
    let pick = rng.below(links.len());
    let link = &mut links[pick];
    link.cost = if link.cost > 1 && rng.below(2) == 0 {
        link.cost - 1
    } else {
        link.cost + 1
    };
    let mut perm: Vec<u32> = (0..nodes).collect();
    for i in (1..perm.len()).rev() {
        perm.swap(i, rng.below(i + 1));
    }
    let links = links
        .iter()
        .map(|l| Link {
            src: NodeId(perm[l.src.0 as usize]),
            dst: NodeId(perm[l.dst.0 as usize]),
            cost: l.cost,
        })
        .collect();
    Topology::new((0..nodes).map(NodeId), links)
}

/// Expires the older half of the converged `reachable` soft state and
/// picks the seeded query list: half live tuples, half expired ones.
fn expire_and_pick(net: &mut SecureNetwork, seed: u64) -> Vec<Query> {
    let locations = net.engine().locations().to_vec();
    let rows: Vec<(Value, Tuple, SimTime)> = locations
        .iter()
        .flat_map(|loc| {
            net.query_ordered(loc, "reachable")
                .into_iter()
                .map(|(t, m)| {
                    (
                        loc.clone(),
                        t,
                        m.expires_at.expect("reachable is soft state"),
                    )
                })
        })
        .collect();
    let mut deadlines: Vec<SimTime> = rows.iter().map(|r| r.2).collect();
    deadlines.sort();
    let cutoff = deadlines[deadlines.len() / 2];
    net.expire(cutoff);
    let (mut live, mut expired) = (Vec::new(), Vec::new());
    for (location, tuple, deadline) in rows {
        let q = Query {
            location,
            key: tuple.render_located(Some(0)),
        };
        if deadline <= cutoff {
            expired.push(q)
        } else {
            live.push(q)
        }
    }
    assert!(
        !live.is_empty() && !expired.is_empty(),
        "expiry must leave both live and expired tuples"
    );
    let mut rng = SplitMix::new(seed ^ 0xf0_4e_45_1c);
    (0..FORENSIC_BATCH)
        .map(|i| {
            let pool = if i % 2 == 0 { &live } else { &expired };
            pool[rng.below(pool.len())].clone()
        })
        .collect()
}

/// The timed phase of the fixpoint workloads: one evaluation to fixpoint.
/// A stream's queries are its updates, and their service times (process
/// CPU µs) go to `latencies_us`: each distinct event instant is timed from
/// the engine pulling its first event to the engine pulling the next
/// instant's (or the run ending), which covers everything the update set
/// off.
pub fn run(
    kind: Kind,
    dep: &mut Deployment,
    sp: &mut Spans,
    latencies_us: &mut Vec<f64>,
) -> RunMetrics {
    match kind {
        Kind::BestPath => sp.span("core.run", |_| dep.net.run().expect("Best-Path fixpoint")),
        Kind::Stream => {
            let events = std::mem::take(&mut dep.events);
            let mut pulls: Vec<(SimTime, f64)> = Vec::with_capacity(events.len());
            let m = sp.span("core.run_streaming", |_| {
                let stamped = events
                    .into_iter()
                    .inspect(|(at, _)| pulls.push((*at, host::process_cpu_s())));
                dep.net.run_streaming(stamped).expect("streaming fixpoint")
            });
            let ended = host::process_cpu_s();
            pulls.dedup_by_key(|(at, _)| *at);
            let ends = pulls.iter().skip(1).map(|(_, t)| *t).chain([ended]);
            latencies_us.extend(
                pulls
                    .iter()
                    .zip(ends)
                    .map(|((_, from), to)| (to - from) * 1e6),
            );
            m
        }
        Kind::Forensic => unreachable!("the forensic workload's timed phase is a query batch"),
    }
}

/// One closed-loop batch of forensic queries, one client: each query's
/// service time (process CPU µs) is appended to `latencies_us`.  Untraced batches call
/// the facade's `forensics::investigate`; traced ones make the same three
/// calls it makes, each in its own span, and the traced run checks that
/// their outcome equals the untraced batches'.
pub fn query_batch(dep: &Deployment, sp: &mut Spans, latencies_us: &mut Vec<f64>) -> BatchOutcome {
    let mut out = BatchOutcome::default();
    for q in &dep.queries {
        let started = host::process_cpu_s();
        sp.span("forensic.investigate", |sp| {
            let report = if sp.enabled() {
                let stores = sp.span("prov.distributed_stores", |_| dep.net.distributed_stores());
                let result = sp.span("prov.traceback", |_| {
                    traceback(&stores, &q.location.to_string(), &q.key)
                });
                let archived = sp.span("prov.archived_activity", |_| {
                    forensics::archived_activity(&dep.net, &q.key, None, None)
                });
                forensics::ForensicReport {
                    key: q.key.clone(),
                    traceback: result,
                    archived: archived.into_iter().map(|(_, e)| e).collect(),
                }
            } else {
                forensics::investigate(&dep.net, &q.location, &q.key)
            };
            if !report.has_origin() || report.archived.is_empty() {
                out.failed += 1;
            }
            out.base_tuples += report.traceback.base_tuples.len() as u64;
            out.archived += report.archived.len() as u64;
            out.visited += report.traceback.visited.len() as u64;
            out.remote_hops += report.traceback.remote_hops as u64;
        });
        latencies_us.push((host::process_cpu_s() - started) * 1e6);
    }
    out
}

/// Oracle for a finished fixpoint round: `(attempted, failed)` checks.
/// Best-Path's checks are client route lookups; each client's reads of
/// its whole routing table are one query, whose service time (process CPU
/// µs) goes to `latencies_us`.  The verification is untimed.
pub fn check(
    kind: Kind,
    dep: &Deployment,
    m: &RunMetrics,
    latencies_us: &mut Vec<f64>,
) -> (u64, u64) {
    match kind {
        Kind::BestPath => check_best_paths(&dep.net, latencies_us),
        // Every generation's links go down and its soft state expires, so
        // a correct run ends with nothing stored and no forged frame.
        Kind::Stream => {
            let leftover = m.tuples_stored + m.verification_failures;
            (m.churn_events.max(1), leftover)
        }
        Kind::Forensic => unreachable!("forensic queries are checked per batch"),
    }
}

/// One client route lookup: every stored `bestPath` row from `location` to
/// `dst`, and the condensed provenance of the cheapest (which principals
/// the route depends on).
fn route_lookup(net: &SecureNetwork, location: &Value, dst: u32) -> (Vec<Tuple>, Option<String>) {
    let rows: Vec<Tuple> = net
        .query(location, "bestPath")
        .into_iter()
        .map(|(t, _)| t)
        .filter(|t| t.values[1] == Value::Addr(dst))
        .collect();
    let provenance = rows
        .iter()
        .min_by_key(|t| t.values[3].as_int())
        .and_then(|t| net.render_provenance(location, t));
    (rows, provenance)
}

/// Looks up the route for every reachable `(S, D)`: the cheapest stored
/// `bestPath(@S,D,P,C)` must carry the cost Dijkstra gives and have a
/// provenance annotation, and every row's path `P` must exist in the
/// topology from `S` to `D` and cost `C`.  (Monotone evaluation keeps rows
/// a later, cheaper `a_MIN` result superseded, so only the cheapest row
/// per pair is the answer.)  Rows for pairs Dijkstra cannot reach fail too.
fn check_best_paths(net: &SecureNetwork, latencies_us: &mut Vec<f64>) -> (u64, u64) {
    let topo = net.topology().expect("Best-Path runs over a topology");
    let cost_of: HashMap<(u32, u32), u64> = topo
        .links()
        .iter()
        .map(|l| ((l.src.0, l.dst.0), l.cost as u64))
        .collect();
    let real_path = |src: u32, dst: u32, row: &Tuple| -> bool {
        let (Value::List(hops), Some(cost)) = (&row.values[2], row.values[3].as_int()) else {
            return false;
        };
        let ids: Option<Vec<u32>> = hops.iter().map(Value::as_addr).collect();
        ids.is_some_and(|ids| {
            ids.first() == Some(&src)
                && ids.last() == Some(&dst)
                && ids
                    .windows(2)
                    .map(|w| cost_of.get(&(w[0], w[1])))
                    .sum::<Option<u64>>()
                    == Some(cost as u64)
        })
    };
    let (mut attempted, mut failed) = (0, 0);
    for src in topo.nodes() {
        let location = Value::Addr(src.0);
        let want = topo.shortest_path_costs(*src);
        let dsts: Vec<(u32, u64)> = want
            .iter()
            .filter(|(dst, _)| *dst != src)
            .map(|(dst, cost)| (dst.0, *cost))
            .collect();
        let started = host::process_cpu_s();
        let routes: Vec<_> = dsts
            .iter()
            .map(|&(dst, _)| route_lookup(net, &location, dst))
            .collect();
        latencies_us.push((host::process_cpu_s() - started) * 1e6);
        for (&(dst, cost), (rows, provenance)) in dsts.iter().zip(routes) {
            let cheapest = rows.iter().filter_map(|t| t.values[3].as_int()).min();
            attempted += 1;
            if cheapest != Some(cost as i64)
                || provenance.is_none()
                || !rows.iter().all(|t| real_path(src.0, dst, t))
            {
                failed += 1;
            }
        }
        let stray = net
            .query(&location, "bestPath")
            .iter()
            .filter(|(t, _)| {
                t.values[1]
                    .as_addr()
                    .is_none_or(|d| d == src.0 || !want.contains_key(&NodeId(d)))
            })
            .count() as u64;
        attempted += stray;
        failed += stray;
    }
    (attempted, failed)
}

/// Every counter of a run except the host wall clock the engine records:
/// the determinism guard compares these strings across rounds.
pub fn fingerprint(m: &RunMetrics) -> String {
    format!(
        "{:?}",
        RunMetrics {
            wall_clock: std::time::Duration::ZERO,
            ..m.clone()
        }
    )
}
