//! The PASN benchmark: one workload per process, end-to-end metrics on
//! untraced runs, per-layer metrics on a separate traced run.
//!
//! ```text
//! pasn-perfbench --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
//! pasn-perfbench --workload stream_lossy_session --seed N --self-check
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; a readable summary goes
//! to standard error.  See `perfbench/NOTES.md` for what each workload and
//! metric is for.

mod host;
mod layers;
mod spans;
mod workloads;

use host::{median, quantile, timed};
use spans::Spans;
use std::collections::BTreeMap;
use std::time::Instant;
use workloads::Kind;

#[global_allocator]
static ALLOC: host::CountingAlloc = host::CountingAlloc;

/// Fewest timed rounds a run reports, however short `--seconds` is.
const MIN_ROUNDS: usize = 3;
/// Set-ups of the forensic deployment per run (its timed phase reuses one).
const FORENSIC_SETUPS: usize = 10;

struct Args {
    kind: Kind,
    name: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    self_check: bool,
    out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Option<&str> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
    };
    let name = value("--workload").ok_or("--workload NAME is required")?;
    let kind = Kind::from_name(name).ok_or_else(|| {
        format!(
            "unknown workload {name:?}; expected one of {}",
            workloads::NAMES.join(", ")
        )
    })?;
    let number = |flag: &str, default: &str| -> Result<u64, String> {
        value(flag)
            .unwrap_or(default)
            .parse::<u64>()
            .map_err(|e| format!("{flag}: {e}"))
    };
    Ok(Args {
        kind,
        name: name.to_string(),
        seed: number("--seed", "1")?,
        seconds: number("--seconds", "10")?.max(1) as f64,
        trace: number("--trace", "0")? != 0,
        self_check: argv.iter().any(|a| a == "--self-check"),
        out: value("--out").map(str::to_string),
    })
}

/// Everything the untraced rounds of one run observed.
#[derive(Default)]
pub struct Samples {
    pub setup_s: Vec<f64>,
    pub cpu_s: Vec<f64>,
    pub wall_s: Vec<f64>,
    pub heap_peak_b: Vec<f64>,
    /// Per round, the service time of each query it served: process CPU
    /// µs, which leaves out the time the host took the CPU away.
    pub query_us: Vec<Vec<f64>>,
    pub attempted: u64,
    pub failed: u64,
    /// Counters of the evaluation the metrics describe (the run, or the
    /// forensic set-up fixpoint).
    pub metrics: Option<pasn::prelude::RunMetrics>,
    fingerprints: BTreeMap<&'static str, String>,
}

impl Samples {
    /// The determinism guard: every round must reproduce the first round's
    /// `what` exactly, or the benchmark stops without a result.
    fn pin(&mut self, what: &'static str, fingerprint: String) {
        match self.fingerprints.get(what) {
            None => {
                self.fingerprints.insert(what, fingerprint);
            }
            Some(first) if *first == fingerprint => {}
            Some(first) => {
                eprintln!("determinism guard: {what} differs between rounds");
                eprintln!("  first: {first}");
                eprintln!("  now:   {fingerprint}");
                std::process::exit(3);
            }
        }
    }
}

/// Untraced rounds for `seconds`: each fixpoint round builds a fresh
/// deployment (one set-up sample) and evaluates it (one timed sample); the
/// forensic workload sets up several times, then times query batches.
fn measure(kind: Kind, seed: u64, seconds: f64) -> Samples {
    let mut s = Samples::default();
    let mut off = Spans::new(false);
    let started = Instant::now();
    let more =
        |s: &Samples| s.cpu_s.len() < MIN_ROUNDS || started.elapsed().as_secs_f64() < seconds;
    let config = || workloads::config(kind, seed, false);
    if kind == Kind::Forensic {
        let mut dep = None;
        for _ in 0..FORENSIC_SETUPS {
            drop(dep.take());
            let (d, cpu, _) = timed(|| workloads::setup(kind, seed, config(), &mut off));
            s.setup_s.push(cpu);
            let setup_metrics = d.setup_metrics.as_ref().expect("set-up ran");
            s.pin("set-up counters", workloads::fingerprint(setup_metrics));
            dep = Some(d);
        }
        let dep = dep.expect("set up at least once");
        s.metrics = dep.setup_metrics.clone();
        while more(&s) {
            host::reset_heap_peak();
            let mut latencies = Vec::with_capacity(dep.queries.len());
            let (out, cpu, wall) = timed(|| workloads::query_batch(&dep, &mut off, &mut latencies));
            s.heap_peak_b.push(host::heap_peak_bytes() as f64);
            s.cpu_s.push(cpu);
            s.wall_s.push(wall);
            s.query_us.push(latencies);
            s.attempted += dep.queries.len() as u64;
            s.failed += out.failed;
            s.pin("batch results", format!("{out:?}"));
        }
        return s;
    }
    while more(&s) {
        let (mut dep, setup_cpu, _) = timed(|| workloads::setup(kind, seed, config(), &mut off));
        host::reset_heap_peak();
        let mut latencies = Vec::new();
        let (m, cpu, wall) = timed(|| workloads::run(kind, &mut dep, &mut off, &mut latencies));
        s.heap_peak_b.push(host::heap_peak_bytes() as f64);
        let (attempted, failed) = workloads::check(kind, &dep, &m, &mut latencies);
        drop(dep);
        s.setup_s.push(setup_cpu);
        s.cpu_s.push(cpu);
        s.wall_s.push(wall);
        s.query_us.push(latencies);
        s.attempted += attempted;
        s.failed += failed;
        s.pin("run counters", workloads::fingerprint(&m));
        s.metrics = Some(m);
    }
    s
}

/// The end-to-end metrics, in `BENCHMARK.json` order.
fn end_to_end(s: &Samples) -> Vec<(&'static str, &'static str, f64)> {
    let m = s.metrics.as_ref().expect("at least one round ran");
    // Each round's queries have tails of their own, and the median over
    // rounds keeps one slow stretch of the host from moving them.
    let p50s: Vec<f64> = s.query_us.iter().map(|r| quantile(r, 0.5)).collect();
    let p95s: Vec<f64> = s.query_us.iter().map(|r| quantile(r, 0.95)).collect();
    let (p50, p95) = (median(&p50s), median(&p95s));
    vec![
        ("setup_s", "s", median(&s.setup_s)),
        ("cpu_s", "s", median(&s.cpu_s)),
        ("wall_s", "s", median(&s.wall_s)),
        ("sim_convergence_s", "s", m.completion_secs()),
        ("wire_mb", "MB", m.megabytes()),
        (
            "peak_state_kb",
            "kB",
            (m.peak_store_bytes + m.peak_index_bytes) as f64 / 1e3,
        ),
        ("peak_heap_mb", "MB", median(&s.heap_peak_b) / 1e6),
        ("query_p50_us", "us", p50),
        ("query_p95_us", "us", p95),
    ]
}

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[(&str, &str, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn report(args: &Args, s: &Samples, metrics: &[(&str, &str, f64)], steal: f64) {
    let cpu: f64 = s.cpu_s.iter().sum();
    let wall: f64 = s.wall_s.iter().sum();
    eprintln!(
        "{} seed={} rounds={} setups={} queries={} failed_frac={} host.cpu_util={:.4} host.steal_frac={:.4}",
        args.name,
        args.seed,
        s.cpu_s.len(),
        s.setup_s.len(),
        s.query_us.iter().map(Vec::len).sum::<usize>(),
        s.failed as f64 / s.attempted.max(1) as f64,
        cpu / wall.max(f64::MIN_POSITIVE),
        steal
    );
    for (name, unit, value) in metrics {
        eprintln!("  {name:<36} {value:>16.6} {unit}");
    }
    println!(
        "{}",
        json_line(s.failed == 0, s.attempted.max(1), s.failed, metrics)
    );
}

fn main() {
    // Pin the workload against the environment: these overrides are read
    // once per process by the engine, before any of them can matter here.
    for var in ["PASN_WORKERS", "PASN_FAULT_SEED"] {
        std::env::remove_var(var);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pasn-perfbench: {e}");
            std::process::exit(2);
        }
    };
    if args.self_check {
        std::process::exit(layers::self_check(args.kind, args.seed));
    }
    let steal_before = host::cpu_jiffies();
    if args.trace {
        let (s, per_layer, spans) =
            layers::traced(args.kind, args.seed, args.seconds, steal_before);
        if let Some(dir) = &args.out {
            let path = std::path::Path::new(dir)
                .join(format!("{}-seed{}-spans.json", args.name, args.seed));
            if std::fs::create_dir_all(dir)
                .and_then(|_| std::fs::write(&path, spans.to_chrome_json()))
                .is_ok()
            {
                eprintln!("spans written to {}", path.display());
            }
        }
        let steal = host::steal_frac(steal_before, host::cpu_jiffies());
        report(&args, &s, &per_layer, steal);
    } else {
        let s = measure(args.kind, args.seed, args.seconds);
        let steal = host::steal_frac(steal_before, host::cpu_jiffies());
        report(&args, &s, &end_to_end(&s), steal);
    }
}
