//! `hostbench` — the repository's benchmark.
//!
//! ```text
//! cargo run --release --manifest-path hostbench/Cargo.toml -- \
//!     --workload bookstore-ordering --seed 42 --seconds 20 --trace 0
//! ```
//!
//! One process runs one workload on one thread. It populates the base
//! database several times (set-up), then repeats rounds of the workload's
//! sweep points until `--seconds` have passed. Each point forks the base
//! database, runs `ExperimentSpec::run` on the application wrapped in a
//! timing decorator, and audits the result. Host metrics are medians over
//! rounds, normalized for machine speed by a reference kernel run at every
//! round boundary (see `probe`); raw wall-clock figures are `wall.*`.
//! Modeled metrics are deterministic for a seed and must repeat
//! bit-for-bit in every round.
//!
//! With `--trace 1` half the rounds also record spans (`point` →
//! `sqldb.fork` / `workload.run` → `app.handle` / `harness.audit` /
//! `sqldb.drop`); the run reports per-layer self time and the tracing
//! overhead, and writes the last traced round to `hostbench/out/`.
//!
//! Every metric is printed by name with its unit; the last stdout line is
//! one JSON object with the end-to-end metrics (`--trace 0`) or the
//! per-layer metrics (`--trace 1`).

mod probe;
mod timed;
mod workloads;

use dynamid_sim::LatencyHistogram;
use dynamid_sqldb::{Database, DbStats};
use dynamid_workload::{CacheStats, ExperimentResult, Mix};
use probe::Probe;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::Instant;
use timed::{Timed, Tracer};
use workloads::{App, Point, Workload};

/// Times the base database is populated; `setup_s` is the median.
const SETUP_REPS: usize = 5;
/// Rounds run even when `--seconds` is shorter than one round.
const MIN_ROUNDS: usize = 2;
/// Population scale of the decorator self-test.
const SELF_TEST_SCALE: f64 = 0.01;

/// Metrics of `--trace 0`, in output order.
const END_TO_END: [&str; 5] =
    ["setup_s", "run_s", "interactions_per_s", "peak_rss_mb", "model.goodput_ipm"];

/// Metrics of `--trace 1`, in output order. The modeled latencies and
/// error share lead: they are end-to-end outcomes, but half-octave
/// histogram buckets make the latencies read alike on most seeds and the
/// error share is 0 on the closed loops, so they carry no bound. The raw
/// wall-clock figures behind the normalized host times follow.
const PER_LAYER: [&str; 54] = [
    "model.latency_p50_ms",
    "model.latency_p99_ms",
    "model.latency_samples",
    "model.error_share",
    "wall.setup_s",
    "wall.run_s",
    "wall.interactions_per_s",
    "wall.probe_ms",
    "app.handle_s",
    "app.handle_calls",
    "app.handle_us.p50",
    "app.handle_us.p99",
    "app.handle_share",
    "sqldb.populate_s",
    "sqldb.fork_s",
    "sqldb.drop_s",
    "sqldb.statements_per_interaction",
    "sqldb.plan_cache_hit_ratio",
    "sqldb.result_cache_hit_ratio",
    "sqldb.result_cache_invalidations",
    "sqldb.errors",
    "engine.self_s",
    "engine.ns_per_event",
    "sim.events",
    "sim.stale_ratio",
    "sim.peak_calendar",
    "sim.aborted",
    "sim.deadlocks",
    "sim.lock_wait_ms",
    "sim.lock_contended",
    "workload.run_s",
    "workload.sessions",
    "workload.retries",
    "workload.timeouts",
    "workload.shed",
    "workload.breaker_open",
    "workload.abandoned",
    "core.method_cache_hit_ratio",
    "core.cpu_util.db",
    "core.cpu_util.web",
    "core.nic_mbps.db",
    "core.nic_mbps.web",
    "harness.audit_s",
    "harness.audit_violations",
    "trace.overhead_ratio",
    "trace.spans",
    "trace.run_s",
    "trace.self_s.app",
    "trace.self_s.engine",
    "trace.self_s.sqldb.fork",
    "trace.self_s.sqldb.drop",
    "trace.self_s.harness.audit",
    "trace.self_s.point",
    "trace.unattributed_s",
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> String {
    let names: Vec<&str> = workloads::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: hostbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
        names.join("|")
    )
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args =
        Args { workload: Workload::BookstoreOrdering, seed: 42, seconds: 20.0, trace: false };
    let mut workload = None;
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload =
                    Some(Workload::parse(&v).ok_or_else(|| format!("unknown workload {v}"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "--seconds needs a number")?;
                if !(args.seconds >= 0.0 && args.seconds.is_finite()) {
                    return Err("--seconds must be a finite number >= 0".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

/// FNV-1a over formatted text: the modeled-output digest.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl std::fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for b in s.bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        Ok(())
    }
}

/// Digest of every modeled output of one run: throughput, counters,
/// histogram buckets, resources, locks, ledger, cache counters.
fn digest(r: &ExperimentResult) -> u64 {
    let mut h = Fnv::new();
    write!(h, "{r:?}").expect("hashing cannot fail");
    h.0
}

/// What one point measured.
struct PointRun {
    fork_s: f64,
    run_s: f64,
    audit_s: f64,
    drop_s: f64,
    point_s: f64,
    handle_ns: Vec<u64>,
    result: ExperimentResult,
    db_before: DbStats,
    db_after: DbStats,
    violations: Vec<String>,
    digest: u64,
}

/// Runs one point: fork, run, audit, drop — each timed, each a span when
/// traced.
fn run_point(
    app: &App,
    base: &Database,
    mix: &Mix,
    point: &Point,
    tracer: Option<&Tracer>,
) -> PointRun {
    let span = |name| tracer.map(|t| t.open(name));
    let close = |s: Option<usize>| {
        if let (Some(t), Some(s)) = (tracer, s) {
            t.close(s);
        }
    };
    let p_span = span("point");
    let t_point = Instant::now();

    let s = span("sqldb.fork");
    let t = Instant::now();
    let mut db = base.clone();
    let fork_s = t.elapsed().as_secs_f64();
    close(s);

    let timed = Timed::new(app.as_dyn(), tracer);
    let db_before = db.stats();
    let s = span("workload.run");
    let t = Instant::now();
    let result = point.spec(mix).run(&mut db, &timed);
    let run_s = t.elapsed().as_secs_f64();
    close(s);
    let db_after = db.stats();

    let s = span("harness.audit");
    let t = Instant::now();
    let report = app.audit(base, &db, &result.ledger);
    let audit_s = t.elapsed().as_secs_f64();
    close(s);

    // Freeing the tables the run copied on write is part of every point.
    let s = span("sqldb.drop");
    let t = Instant::now();
    drop(db);
    let drop_s = t.elapsed().as_secs_f64();
    close(s);

    let point_s = t_point.elapsed().as_secs_f64();
    close(p_span);
    PointRun {
        fork_s,
        run_s,
        audit_s,
        drop_s,
        point_s,
        handle_ns: timed.into_durations(),
        digest: digest(&result),
        result,
        db_before,
        db_after,
        violations: report.violations,
    }
}

/// Checks one point; returns why it failed, if it did.
fn check_point(p: &PointRun, reference: Option<u64>) -> Option<String> {
    let e = &p.result.engine;
    if let Some(first) = p.violations.first() {
        return Some(format!("{} audit violation(s), first: {first}", p.violations.len()));
    }
    // The run stops at its horizon, not drained: the engine's balance is
    // submitted == completed + aborted + rejected + in flight, and only
    // the driver knows the submissions.
    if e.completed + e.aborted + e.rejected > e.submitted
        || e.submitted != p.result.metrics.submitted_total
    {
        return Some(format!(
            "job accounting: engine submitted {}, driver {}, completed {} + aborted {} + \
             rejected {}",
            e.submitted, p.result.metrics.submitted_total, e.completed, e.aborted, e.rejected
        ));
    }
    match reference {
        Some(d) if d != p.digest => {
            Some(format!("modeled digest {:016x} differs from round 1's {d:016x}", p.digest))
        }
        _ => None,
    }
}

/// Host timings of one round, summed over its points.
#[derive(Debug, Clone, Copy, Default)]
struct RoundHost {
    /// `run_s` before normalization.
    wall_run_s: f64,
    run_s: f64,
    fork_s: f64,
    workload_run_s: f64,
    handle_s: f64,
    audit_s: f64,
    drop_s: f64,
    handle_calls: u64,
    handle_p50_us: f64,
    handle_p99_us: f64,
}

impl RoundHost {
    /// Keeps the raw round time and normalizes every host time by `f`.
    fn normalize(&mut self, f: f64) {
        self.wall_run_s = self.run_s;
        for t in [
            &mut self.run_s,
            &mut self.fork_s,
            &mut self.workload_run_s,
            &mut self.handle_s,
            &mut self.audit_s,
            &mut self.drop_s,
            &mut self.handle_p50_us,
            &mut self.handle_p99_us,
        ] {
            *t *= f;
        }
    }
}

/// Quantile `q` of `v` (nearest rank), or 0 when empty.
fn quantile_u64(v: &mut [u64], q: f64) -> u64 {
    if v.is_empty() {
        return 0;
    }
    let k = ((v.len() as f64 * q).ceil() as usize).clamp(1, v.len()) - 1;
    *v.select_nth_unstable(k).1
}

fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// `VmHWM` (peak resident set) of this process, in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The decorator self-test: one short point on a tiny database must give
/// the same modeled digest bare, wrapped, and wrapped with a tracer.
fn self_test(w: Workload, seed: u64) -> Result<u64, String> {
    let base = w.build_db(SELF_TEST_SCALE, seed);
    let app = w.app(SELF_TEST_SCALE);
    let mix = w.mix();
    let point = w.points(seed)[0].shortened();
    let run =
        |a: &dyn dynamid_core::Application| digest(&point.spec(&mix).run(&mut base.clone(), a));
    let bare = run(app.as_dyn());
    let wrapped = run(&Timed::new(app.as_dyn(), None));
    let tracer = Tracer::new();
    let traced = run(&Timed::new(app.as_dyn(), Some(&tracer)));
    if bare == wrapped && bare == traced {
        Ok(bare)
    } else {
        Err(format!("self-test: bare {bare:016x}, wrapped {wrapped:016x}, traced {traced:016x}"))
    }
}

/// Accumulated metrics: name → (value, unit).
#[derive(Default)]
struct Metrics(BTreeMap<&'static str, (f64, &'static str)>);

impl Metrics {
    fn set(&mut self, name: &'static str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.insert(name, (value, unit));
    }

    /// The final JSON line over `names` (those measured in this mode).
    fn json(&self, names: &[&str], correct: bool, attempted: u64, failed: u64) -> String {
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        let mut first = true;
        for name in names {
            if let Some((v, unit)) = self.0.get(name) {
                let sep = if first { "" } else { ", " };
                first = false;
                let _ = write!(out, "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}");
            }
        }
        out.push_str("}}");
        out
    }
}

/// Modeled metrics from one round's points (identical in every round).
fn modeled_metrics(m: &mut Metrics, runs: &[PointRun]) {
    let n = runs.len() as f64;
    let sum = |f: &dyn Fn(&PointRun) -> u64| runs.iter().map(f).sum::<u64>() as f64;
    let mut hist = LatencyHistogram::new();
    for p in runs {
        hist.merge(&p.result.metrics.latency);
    }
    let ms = |q| hist.quantile(q).as_micros() as f64 / 1e3;
    // The busiest web-tier machine: `web`, or `web-1`/`web-2` in a farm.
    let web = |p: &PointRun, of: fn(&ExperimentResult, &str) -> Option<f64>| {
        p.result
            .resources
            .cpu_util
            .iter()
            .filter(|(name, _)| name == "web" || name.starts_with("web-"))
            .filter_map(|(name, _)| of(&p.result, name))
            .fold(0.0, f64::max)
    };
    let calls = sum(&|p| p.handle_ns.len() as u64);

    m.set("model.goodput_ipm", runs.iter().map(|p| p.result.goodput_ipm).sum::<f64>() / n, "ipm");
    m.set("model.latency_p50_ms", ms(0.5), "ms");
    m.set("model.latency_p99_ms", ms(0.99), "ms");
    m.set("model.latency_samples", hist.count() as f64, "count");
    m.set(
        "model.error_share",
        ratio(
            sum(&|p| p.result.errors.failed_attempts() + p.result.metrics.errors),
            sum(&|p| p.result.metrics.offered),
        ),
        "ratio",
    );

    let db = |f: fn(&DbStats) -> u64| sum(&|p| f(&p.db_after) - f(&p.db_before));
    m.set("sqldb.statements_per_interaction", ratio(db(|s| s.statements), calls), "count");
    let plan_hits = db(|s| s.plan_cache_hits);
    m.set(
        "sqldb.plan_cache_hit_ratio",
        ratio(plan_hits, plan_hits + db(|s| s.plan_cache_misses)),
        "ratio",
    );
    m.set("sqldb.errors", db(|s| s.errors), "count");
    let cache = |f: fn(&CacheStats) -> u64| sum(&|p| p.result.cache_stats.as_ref().map_or(0, f));
    let rc_hits = cache(|c| c.query_hits);
    m.set(
        "sqldb.result_cache_hit_ratio",
        ratio(rc_hits, rc_hits + cache(|c| c.query_misses)),
        "ratio",
    );
    m.set("sqldb.result_cache_invalidations", cache(|c| c.query_invalidations), "count");

    let events = sum(&|p| p.result.engine.events);
    m.set("sim.events", events, "count");
    m.set("sim.stale_ratio", ratio(sum(&|p| p.result.engine.stale_events), events), "ratio");
    let peak = runs.iter().map(|p| p.result.engine.peak_calendar).max().unwrap_or(0);
    m.set("sim.peak_calendar", peak as f64, "count");
    m.set("sim.aborted", sum(&|p| p.result.engine.aborted), "count");
    m.set("sim.deadlocks", sum(&|p| p.result.engine.deadlocks), "count");
    m.set("sim.lock_wait_ms", sum(&|p| p.result.lock_stats.wait_micros) / 1e3, "ms");
    m.set("sim.lock_contended", sum(&|p| p.result.lock_stats.contended), "count");

    m.set("workload.sessions", sum(&|p| p.result.metrics.sessions), "count");
    m.set("workload.retries", sum(&|p| p.result.errors.retries), "count");
    m.set("workload.timeouts", sum(&|p| p.result.errors.timeouts), "count");
    m.set("workload.shed", sum(&|p| p.result.errors.shed), "count");
    m.set("workload.breaker_open", sum(&|p| p.result.errors.breaker_open), "count");
    m.set("workload.abandoned", sum(&|p| p.result.errors.abandoned), "count");

    let m_hits = cache(|c| c.method.hits);
    m.set(
        "core.method_cache_hit_ratio",
        ratio(m_hits, m_hits + cache(|c| c.method.misses)),
        "ratio",
    );
    let mean = |f: &dyn Fn(&PointRun) -> f64| runs.iter().map(f).sum::<f64>() / n;
    m.set("core.cpu_util.db", mean(&|p| p.result.cpu_of("db").unwrap_or(0.0)), "ratio");
    m.set("core.cpu_util.web", mean(&|p| web(p, ExperimentResult::cpu_of)), "ratio");
    m.set("core.nic_mbps.db", mean(&|p| p.result.nic_of("db").unwrap_or(0.0)), "Mb/s");
    m.set("core.nic_mbps.web", mean(&|p| web(p, ExperimentResult::nic_of)), "Mb/s");
    m.set("harness.audit_violations", sum(&|p| p.violations.len() as u64), "count");
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let scale = w.scale();

    // Set-up: populate the base database SETUP_REPS times, keep the last.
    let mut probe = Probe::new();
    let mut probe_s = Vec::new();
    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut wall_setup = Vec::with_capacity(SETUP_REPS);
    let mut base = None;
    for _ in 0..SETUP_REPS {
        drop(base.take());
        let t = Instant::now();
        let db = w.build_db(scale, args.seed);
        let s = t.elapsed().as_secs_f64();
        let (f, k) = probe.factor();
        probe_s.push(k);
        wall_setup.push(s);
        setup.push(s * f);
        base = Some(db);
    }
    let base = base.expect("SETUP_REPS > 0");
    let app = w.app(scale);
    let mix = w.mix();
    let points = w.points(args.seed);
    let tracer = args.trace.then(Tracer::new);

    // Measurement: whole rounds until the time is up. With tracing, rounds
    // go untraced, traced, traced, untraced, ... so both kinds see the
    // same machine conditions and as many odd rounds as even ones: a strict
    // alternation measured odd rounds a few percent slower than even ones.
    let mut attempted = 0u64;
    let mut failures: Vec<String> = Vec::new();
    let mut reference: Option<Vec<PointRun>> = None;
    let mut untraced: Vec<RoundHost> = Vec::new();
    let mut traced: Vec<(f64, BTreeMap<&'static str, f64>)> = Vec::new();
    let start = Instant::now();
    let mut round = 0usize;
    while round < MIN_ROUNDS || start.elapsed().as_secs_f64() < args.seconds {
        let tr = tracer.as_ref().filter(|_| matches!(round % 4, 1 | 2));
        if let Some(t) = tr {
            t.clear();
        }
        let mut host = RoundHost::default();
        let mut handle_ns = Vec::new();
        let mut runs = Vec::with_capacity(points.len());
        for (i, point) in points.iter().enumerate() {
            attempted += 1;
            if let Some(t) = tr {
                t.set_point(i as u32);
            }
            let out = catch_unwind(AssertUnwindSafe(|| run_point(&app, &base, &mix, point, tr)));
            let p = match out {
                Ok(p) => p,
                Err(_) => {
                    failures.push(format!("round {} point {}: panicked", round + 1, point.label));
                    continue;
                }
            };
            let expected = reference.as_ref().and_then(|r| r.get(i)).map(|r| r.digest);
            if let Some(why) = check_point(&p, expected) {
                failures.push(format!("round {} point {}: {why}", round + 1, point.label));
            }
            host.run_s += p.point_s;
            host.fork_s += p.fork_s;
            host.workload_run_s += p.run_s;
            host.audit_s += p.audit_s;
            host.drop_s += p.drop_s;
            host.handle_s += p.handle_ns.iter().sum::<u64>() as f64 / 1e9;
            handle_ns.extend_from_slice(&p.handle_ns);
            runs.push(p);
        }
        host.handle_calls = handle_ns.len() as u64;
        host.handle_p50_us = quantile_u64(&mut handle_ns, 0.5) as f64 / 1e3;
        host.handle_p99_us = quantile_u64(&mut handle_ns, 0.99) as f64 / 1e3;
        let (f, k) = probe.factor();
        probe_s.push(k);
        host.normalize(f);
        match tr {
            Some(t) => {
                let self_s = t.self_seconds().into_iter().map(|(name, s)| (name, s * f)).collect();
                traced.push((host.run_s, self_s));
            }
            None => untraced.push(host),
        }
        if reference.is_none() && runs.len() == points.len() {
            for (p, point) in runs.iter().zip(&points) {
                eprintln!(
                    "  {:<9} goodput {:>8.1} ipm  p99 {:>8.1} ms  handlers {:>5.1}% of {:.3} s  \
                     {} events",
                    point.label,
                    p.result.goodput_ipm,
                    p.result.latency_p99.as_micros() as f64 / 1e3,
                    100.0 * ratio(p.handle_ns.iter().sum::<u64>() as f64 / 1e9, p.run_s),
                    p.run_s,
                    p.result.engine.events,
                );
            }
            reference = Some(runs);
        }
        round += 1;
    }

    attempted += 1;
    let self_test = self_test(w, args.seed);
    if let Err(e) = &self_test {
        failures.push(e.clone());
    }

    // Metrics.
    let mut m = Metrics::default();
    let med = |f: fn(&RoundHost) -> f64| median(untraced.iter().map(f).collect());
    let setup_s = median(setup);
    let run_s = med(|h| h.run_s);
    m.set("setup_s", setup_s, "s");
    m.set("run_s", run_s, "s");
    m.set("interactions_per_s", med(|h| ratio(h.handle_calls as f64, h.run_s)), "1/s");
    m.set("wall.setup_s", median(wall_setup), "s");
    m.set("wall.run_s", med(|h| h.wall_run_s), "s");
    m.set("wall.interactions_per_s", med(|h| ratio(h.handle_calls as f64, h.wall_run_s)), "1/s");
    m.set("wall.probe_ms", median(probe_s) * 1e3, "ms");
    m.set("app.handle_s", med(|h| h.handle_s), "s");
    m.set("app.handle_calls", med(|h| h.handle_calls as f64), "count");
    m.set("app.handle_us.p50", med(|h| h.handle_p50_us), "us");
    m.set("app.handle_us.p99", med(|h| h.handle_p99_us), "us");
    m.set("app.handle_share", med(|h| ratio(h.handle_s, h.workload_run_s)), "ratio");
    m.set("sqldb.populate_s", setup_s, "s");
    m.set("sqldb.fork_s", med(|h| h.fork_s), "s");
    m.set("sqldb.drop_s", med(|h| h.drop_s), "s");
    m.set("engine.self_s", med(|h| h.workload_run_s - h.handle_s), "s");
    m.set("workload.run_s", med(|h| h.workload_run_s), "s");
    m.set("harness.audit_s", med(|h| h.audit_s), "s");
    let digest = reference.as_ref().map(|runs| {
        modeled_metrics(&mut m, runs);
        let events = runs.iter().map(|p| p.result.engine.events).sum::<u64>() as f64;
        m.set("engine.ns_per_event", med(|h| h.workload_run_s - h.handle_s) / events * 1e9, "ns");
        let mut h = Fnv::new();
        for p in runs {
            write!(h, "{:016x}", p.digest).expect("hashing cannot fail");
        }
        h.0
    });
    if let Some(t) = &tracer {
        // Self times come from the traced round of median length, so they
        // add up to that round's run_s.
        traced.sort_by(|a, b| a.0.total_cmp(&b.0));
        let (traced_run_s, self_s) = traced[traced.len() / 2].clone();
        m.set("trace.overhead_ratio", ratio(traced_run_s, run_s), "ratio");
        m.set("trace.spans", t.len() as f64, "count");
        m.set("trace.run_s", traced_run_s, "s");
        let parts = [
            ("trace.self_s.app", "app.handle"),
            ("trace.self_s.engine", "workload.run"),
            ("trace.self_s.sqldb.fork", "sqldb.fork"),
            ("trace.self_s.sqldb.drop", "sqldb.drop"),
            ("trace.self_s.harness.audit", "harness.audit"),
            ("trace.self_s.point", "point"),
        ];
        let mut attributed = 0.0;
        for (metric, span) in parts {
            let v = self_s.get(span).copied().unwrap_or(0.0);
            attributed += v;
            m.set(metric, v, "s");
        }
        m.set("trace.unattributed_s", traced_run_s - attributed, "s");
        let dir = std::path::Path::new("hostbench").join("out");
        let path = dir.join(format!("spans-{}-seed{}.json", w.name(), args.seed));
        match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, t.chrome_json())) {
            Ok(()) => eprintln!("spans of the last traced round written to {}", path.display()),
            Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
        }
    }
    m.set("peak_rss_mb", peak_rss_mb(), "MB");

    // Report.
    let failed = failures.len() as u64;
    let correct = failed == 0;
    println!(
        "# hostbench {} seed={} seconds={} trace={} rounds={} points/round={}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        round,
        points.len()
    );
    for (name, (v, unit)) in &m.0 {
        println!("{name:<34} {v:>18.6} {unit}");
    }
    match (digest, &self_test) {
        (Some(d), Ok(t)) => println!("{:<34} {d:>18x} (self-test {t:016x} ok)", "model.digest"),
        (d, _) => {
            println!("{:<34} {:>18}", "model.digest", d.map_or("-".into(), |d| format!("{d:x}")))
        }
    }
    for f in &failures {
        println!("FAILED {f}");
    }
    let names: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
    println!("{}", m.json(names, correct, attempted, failed));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
