//! The traced run and the self-check.
//!
//! A traced run first repeats untraced rounds for half its time (the
//! baseline the tracing overhead is measured against), then runs one round
//! with benchmark spans around every public call and the engine's flight
//! recorder on.  Its counters must equal the untraced rounds' exactly.
//! Per-layer metrics come from `RunMetrics`, the flight recorder, the spans,
//! and direct calls into `pasn_crypto` at the workload's modulus and mean
//! frame size.

use crate::host::{self, median, timed};
use crate::spans::Spans;
use crate::workloads::{self, BatchOutcome, Kind};
use crate::Samples;
use pasn::prelude::*;
use pasn_crypto::{Authenticator, KeyAuthority, Principal, PrincipalId, SaysLevel};

/// Simulated-time interval between the flight recorder's gauge samples.
const GAUGE_INTERVAL_US: u64 = 10_000;
/// Host CPU each crypto micro-measurement runs for.
const CRYPTO_BUDGET_S: f64 = 0.2;

type Metric = (&'static str, &'static str, f64);

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Runs the traced round; returns the untraced baseline samples (whose
/// `attempted`/`failed` include the traced round's checks), the per-layer
/// metrics, and the spans.
pub fn traced(
    kind: Kind,
    seed: u64,
    seconds: f64,
    jiffies_before: Option<(u64, u64)>,
) -> (Samples, Vec<Metric>, Spans) {
    let mut base = crate::measure(kind, seed, seconds / 2.0);
    let cfg = workloads::config(kind, seed, false)
        .with_tracing(TraceConfig::new().with_gauge_interval_us(GAUGE_INTERVAL_US));
    let mut sp = Spans::new(true);
    let mut dep = sp.span("setup", |sp| workloads::setup(kind, seed, cfg.clone(), sp));
    let mut batch = BatchOutcome::default();
    let (metrics, wall) = if kind == Kind::Forensic {
        let mut latencies = Vec::new();
        let (out, _, wall) = timed(|| {
            sp.span("timed", |sp| {
                workloads::query_batch(&dep, sp, &mut latencies)
            })
        });
        base.attempted += dep.queries.len() as u64;
        base.failed += out.failed;
        // The traced batch makes investigate's calls one by one; it must
        // observe exactly what the untraced batches did.
        base.pin("batch results", format!("{out:?}"));
        batch = out;
        (dep.setup_metrics.clone().expect("set-up ran"), wall)
    } else {
        let (m, _, wall) = timed(|| {
            sp.span("timed", |sp| {
                workloads::run(kind, &mut dep, sp, &mut Vec::new())
            })
        });
        let (attempted, failed) = workloads::check(kind, &dep, &m, &mut Vec::new());
        base.attempted += attempted;
        base.failed += failed;
        (m, wall)
    };
    // Tracing must not change what the engine did.
    let counters = if kind == Kind::Forensic {
        "set-up counters"
    } else {
        "run counters"
    };
    base.pin(counters, workloads::fingerprint(&metrics));
    // The stream once more on a worker pool, untraced: the only round in
    // which the wave-coordination layer runs.  Everything but the shard
    // layout must equal the one-worker rounds.
    let pool = (kind == Kind::Stream).then(|| {
        let cfg = workloads::config(kind, seed, false).with_workers(workloads::POOL_WORKERS);
        let mut off = Spans::new(false);
        let mut dep = workloads::setup(kind, seed, cfg, &mut off);
        let (pm, _, wall) = timed(|| workloads::run(kind, &mut dep, &mut off, &mut Vec::new()));
        let (attempted, failed) = workloads::check(kind, &dep, &pm, &mut Vec::new());
        base.attempted += attempted;
        base.failed += failed;
        for run in [&metrics, &pm] {
            base.pin(
                "counters apart from the worker layout",
                workloads::fingerprint(&without_layout(run)),
            );
        }
        (pm, wall)
    });
    let recorder = dep.net.trace().expect("tracing enabled");
    let m = &metrics;
    let (pm, pool_wall) = pool.as_ref().map_or((m, 0.0), |(pm, wall)| (pm, *wall));

    // Flight-recorder aggregates: queue and wave gauges, hot rule, and
    // first-attempt deliveries.
    let (mut max_depth, mut max_inflight, mut waves, mut wave_items) = (0u64, 0u64, 0u64, 0u64);
    let (mut shipped, mut first_drops) = (0u64, 0u64);
    for e in recorder.events() {
        match &e.kind {
            TraceEventKind::Gauge {
                queue_depth,
                inflight_frames,
                ..
            } => {
                max_depth = max_depth.max(*queue_depth);
                max_inflight = max_inflight.max(*inflight_frames);
            }
            TraceEventKind::Wave { items, .. } => {
                waves += 1;
                wave_items += *items as u64;
            }
            TraceEventKind::FrameShipped { .. } => shipped += 1,
            TraceEventKind::FrameDropped { attempt: 0, .. } => first_drops += 1,
            _ => {}
        }
    }
    let rules = recorder.hot_rules(usize::MAX);
    let rule_cpu: u64 = rules.iter().map(|r| r.cpu_us).sum();
    let hot_share = ratio(
        rules.first().map_or(0, |r| r.cpu_us) as f64,
        rule_cpu as f64,
    );

    let cpu_s = median(&base.cpu_s);
    let base_wall = median(&base.wall_s);
    let queries = dep.queries.len() as f64;
    let crypto = crypto_costs(&cfg, m);
    let passes_s: f64 = ["datalog.validate", "datalog.localize", "datalog.compile"]
        .iter()
        .map(|n| sp.self_s(n))
        .sum();
    let parse_s = sp.self_s("datalog.parse");
    let compile_s = parse_s + passes_s;
    let (build_s, keygen_s) = (sp.self_s("core.build"), sp.self_s("crypto.provision"));
    // The builder validates, localizes, compiles and provisions keys
    // itself; the stream workload's builder also parses, while the others
    // are handed a parsed program.  Its own share is what is left of its
    // span once the measured costs of that repeated work are off.
    let repeated_s = keygen_s + passes_s + if kind == Kind::Stream { parse_s } else { 0.0 };
    let evaluates = kind != Kind::Forensic;
    let per_layer = vec![
        ("datalog.compile_s", "s", compile_s),
        ("net.topology_s", "s", sp.self_s("net.topology")),
        ("core.build_s", "s", build_s),
        ("core.build_own_s", "s", (build_s - repeated_s).max(0.0)),
        ("crypto.keygen_s", "s", keygen_s),
        ("crypto.rsa_sign_ops", "count", m.rsa_sign_ops as f64),
        ("crypto.rsa_verify_ops", "count", m.rsa_verify_ops as f64),
        ("crypto.hmac_ops", "count", m.hmac_ops as f64),
        ("crypto.handshakes", "count", m.handshakes as f64),
        (
            "crypto.handshake_batches",
            "count",
            m.handshake_batches as f64,
        ),
        (
            "crypto.verification_failures",
            "count",
            m.verification_failures as f64,
        ),
        ("crypto.sign_us", "us", crypto.sign_us),
        ("crypto.verify_us", "us", crypto.verify_us),
        ("crypto.frame_mac_us", "us", crypto.frame_mac_us),
        ("crypto.handshake_us", "us", crypto.handshake_us),
        ("store.index_probes", "count", m.index_probes as f64),
        (
            "store.index_hit_ratio",
            "ratio",
            ratio(m.index_hits as f64, (m.index_hits + m.scan_probes) as f64),
        ),
        ("store.scan_probes", "count", m.scan_probes as f64),
        ("store.peak_tuples", "count", m.peak_tuples as f64),
        (
            "store.compaction_walked",
            "count",
            m.compaction_walked as f64,
        ),
        (
            "store.compaction_per_retraction",
            "ratio",
            ratio(m.compaction_walked as f64, m.retractions as f64),
        ),
        ("eval.derivations", "count", m.derivations as f64),
        (
            "eval.derivations_per_cpu_s",
            "1/s",
            if evaluates {
                ratio(m.derivations as f64, cpu_s)
            } else {
                0.0
            },
        ),
        ("eval.hot_rule_cpu_share", "ratio", hot_share),
        ("dyn.churn_events", "count", m.churn_events as f64),
        ("dyn.retractions", "count", m.retractions as f64),
        ("dyn.rederivations", "count", m.rederivations as f64),
        ("dyn.tombstone_frames", "count", m.tombstone_frames as f64),
        ("net.messages", "count", m.messages as f64),
        ("net.frames", "count", m.frames as f64),
        (
            "net.batch_occupancy",
            "tuples/frame",
            m.mean_batch_occupancy(),
        ),
        (
            "net.auth_bytes_share",
            "ratio",
            ratio(m.auth_bytes as f64, m.bytes as f64),
        ),
        (
            "net.prov_bytes_share",
            "ratio",
            ratio(m.provenance_bytes as f64, m.bytes as f64),
        ),
        ("net.frames_dropped", "count", m.frames_dropped as f64),
        ("net.frames_duplicated", "count", m.frames_duplicated as f64),
        ("net.retransmits", "count", m.retransmits as f64),
        ("net.acks", "count", m.acks as f64),
        ("net.backoff_events", "count", m.backoff_events as f64),
        (
            "net.max_retransmit_per_frame",
            "count",
            m.max_retransmit_per_frame as f64,
        ),
        (
            "net.first_try_ratio",
            "ratio",
            1.0 - ratio(first_drops as f64, shipped as f64),
        ),
        ("prov.provenance_ops", "count", m.provenance_ops as f64),
        ("prov.provenance_bytes", "B", m.provenance_bytes as f64),
        (
            "prov.snapshot_us",
            "us",
            sp.mean_self_us("prov.distributed_stores"),
        ),
        ("prov.traceback_us", "us", sp.mean_self_us("prov.traceback")),
        (
            "prov.archive_scan_us",
            "us",
            sp.mean_self_us("prov.archived_activity"),
        ),
        (
            "prov.visited_per_query",
            "count",
            ratio(batch.visited as f64, queries),
        ),
        (
            "prov.remote_hops_per_query",
            "count",
            ratio(batch.remote_hops as f64, queries),
        ),
        ("queue.max_depth", "count", max_depth as f64),
        ("queue.max_inflight_frames", "count", max_inflight as f64),
        ("queue.waves", "count", waves as f64),
        (
            "queue.mean_wave_items",
            "count",
            ratio(wave_items as f64, waves as f64),
        ),
        ("pool.partitions", "count", pm.partitions as f64),
        (
            "pool.cross_partition_frames",
            "count",
            pm.cross_partition_frames as f64,
        ),
        (
            "pool.max_partition_queue",
            "count",
            pm.max_partition_queue as f64,
        ),
        (
            "pool.modeled_parallel_wall_s",
            "s",
            pm.parallel_wall.as_secs_f64(),
        ),
        ("pool.wall_s", "s", pool_wall),
        (
            "host.cpu_util",
            "ratio",
            ratio(base.cpu_s.iter().sum(), base.wall_s.iter().sum()),
        ),
        (
            "host.steal_frac",
            "ratio",
            host::steal_frac(jiffies_before, host::cpu_jiffies()),
        ),
        ("trace.overhead_ratio", "ratio", ratio(wall, base_wall)),
        (
            "check.failed_frac",
            "ratio",
            ratio(base.failed as f64, base.attempted as f64),
        ),
    ];
    (base, per_layer, sp)
}

/// `m` without the fields that describe how the run was sharded over
/// workers.
fn without_layout(m: &RunMetrics) -> RunMetrics {
    RunMetrics {
        worker_threads: 0,
        partitions: 0,
        cross_partition_frames: 0,
        max_partition_queue: 0,
        parallel_wall: std::time::Duration::ZERO,
        ..m.clone()
    }
}

struct CryptoCosts {
    sign_us: f64,
    verify_us: f64,
    frame_mac_us: f64,
    handshake_us: f64,
}

/// Mean µs of `op`, repeated until it has used [`CRYPTO_BUDGET_S`] of CPU.
fn per_op_us(mut op: impl FnMut()) -> f64 {
    let start = host::Stamp::now();
    let mut n = 0u64;
    loop {
        for _ in 0..16 {
            op();
        }
        n += 16;
        let (cpu, _) = start.elapsed();
        if cpu >= CRYPTO_BUDGET_S {
            return cpu * 1e6 / n as f64;
        }
    }
}

/// Host cost of one RSA sign and verify, one session-frame MAC plus its
/// verification, and one channel handshake (open plus accept), measured by
/// calling `pasn_crypto` directly at the workload's modulus on a frame of
/// the workload's mean size and occupancy.
fn crypto_costs(cfg: &EngineConfig, m: &RunMetrics) -> CryptoCosts {
    let principals = [Principal::new(0u32, "a"), Principal::new(1u32, "b")];
    let authority = KeyAuthority::provision_with_modulus(&principals, 7, cfg.rsa_modulus_bits)
        .expect("keys provision");
    let auth = |id: u32, level| {
        Authenticator::new(
            authority.keyring_for(PrincipalId(id)).expect("provisioned"),
            level,
        )
    };
    let tuples = m.mean_batch_occupancy().round().max(1.0) as usize;
    let body =
        m.bytes.saturating_sub(m.auth_bytes + m.provenance_bytes) as f64 / m.frames.max(1) as f64;
    let tuple_len = ((body / tuples as f64).round() as usize).max(1);
    let frame: Vec<Vec<u8>> = (0..tuples)
        .map(|i| (0..tuple_len).map(|j| (i * 31 + j) as u8).collect())
        .collect();

    let (a, b) = (auth(0, SaysLevel::Rsa), auth(1, SaysLevel::Rsa));
    let signed = a.assert_frame(&frame);
    let sign_us = per_op_us(|| {
        std::hint::black_box(a.assert_frame(std::hint::black_box(&frame)));
    });
    let verify_us = per_op_us(|| {
        b.verify_frame(std::hint::black_box(&frame), &signed)
            .expect("signature verifies");
    });

    let (a, b) = (auth(0, SaysLevel::Session), auth(1, SaysLevel::Session));
    let mut epoch = 0u32;
    let handshake_us = per_op_us(|| {
        epoch += 1;
        let (hs, _) = a.open_channel(PrincipalId(1), epoch, u64::MAX);
        std::hint::black_box(b.accept_channel(&hs).expect("handshake verifies"));
    });
    let (hs, mut send) = a.open_channel(PrincipalId(1), 0, u64::MAX);
    let mut recv = b.accept_channel(&hs).expect("handshake verifies");
    let frame_mac_us = per_op_us(|| {
        let proof = a.assert_frame_on(&mut send, std::hint::black_box(&frame));
        b.verify_frame_on(&mut recv, &frame, &proof, SaysLevel::Session)
            .expect("frame MAC verifies");
    });
    CryptoCosts {
        sign_us,
        verify_us,
        frame_mac_us,
        handshake_us,
    }
}

/// Checks run once rather than on every measured run: one round through
/// the workload's oracle, and for the stream workloads, that the lossy
/// stream's counters equal the same stream over a lossless transport (same
/// reliability layer, no drops, duplicates or delays).  Exit code 0 when
/// every check holds.
pub fn self_check(kind: Kind, seed: u64) -> i32 {
    let mut off = Spans::new(false);
    let mut ok = true;
    if kind == Kind::Forensic {
        let dep = workloads::setup(kind, seed, workloads::config(kind, seed, false), &mut off);
        let out = workloads::query_batch(&dep, &mut off, &mut Vec::new());
        eprintln!(
            "forensic oracle: {} of {} queries failed",
            out.failed,
            dep.queries.len()
        );
        return i32::from(out.failed != 0);
    }
    let mut round = |lossless: bool| {
        let mut dep = workloads::setup(
            kind,
            seed,
            workloads::config(kind, seed, lossless),
            &mut off,
        );
        let m = workloads::run(kind, &mut dep, &mut off, &mut Vec::new());
        let (attempted, failed) = workloads::check(kind, &dep, &m, &mut Vec::new());
        eprintln!(
            "{} oracle: {failed} of {attempted} checks failed",
            if lossless { "lossless" } else { "measured" }
        );
        ok &= failed == 0;
        m
    };
    let lossy = round(false);
    if kind == Kind::Stream {
        let lossless = round(true);
        // What the stream derived, stored and retracted must not depend on
        // the transport.  How tuples were packed into frames, and when the
        // footprint was sampled, follows delivery timing, which drops and
        // delays change: those counters are shown, not compared.
        let semantic = |m: &RunMetrics| {
            [
                ("derivations", m.derivations),
                ("tuples_stored", m.tuples_stored),
                ("churn_events", m.churn_events),
                ("retractions", m.retractions),
                ("rederivations", m.rederivations),
                ("batched_tuples", m.batched_tuples),
                ("handshakes", m.handshakes),
                ("verification_failures", m.verification_failures),
            ]
        };
        let timing = |m: &RunMetrics| {
            [
                ("frames", m.frames),
                ("tombstone_frames", m.tombstone_frames),
                ("peak_tuples", m.peak_tuples),
            ]
        };
        for ((name, a), (_, b)) in semantic(&lossy).into_iter().zip(semantic(&lossless)) {
            ok &= a == b;
            let verdict = if a == b { "equal" } else { "DIFFERENT" };
            eprintln!("  {name:<24} lossy {a:>10}  lossless {b:>10}  {verdict}");
        }
        for ((name, a), (_, b)) in timing(&lossy).into_iter().zip(timing(&lossless)) {
            eprintln!("  {name:<24} lossy {a:>10}  lossless {b:>10}  (timing-dependent)");
        }
    }
    i32::from(!ok)
}
