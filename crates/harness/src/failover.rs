//! The failover sweep: goodput under a primary DB crash, with and without
//! the replicated tier.
//!
//! The availability sweep asks how each architecture degrades under a
//! *storm* of random faults; this family pins the scariest single fault —
//! the primary database machine dying mid-measurement — and asks what the
//! replicated DB tier buys back. Every grid point crashes the initial
//! primary at the same sim time (a quarter into the measurement window, for
//! half the window), optionally layers a deterministic fault storm on top,
//! and measures goodput, tail latency, the failure taxonomy, and the
//! detection-to-promotion failover latency versus replica count.
//!
//! `replicas == 0` is the single-DB baseline: the raw outage the failover
//! is supposed to beat. With replicas, reads keep flowing to the surviving
//! replicas throughout the outage, and after one lease the caught-up-most
//! replica is promoted and takes the writes. Every point ends with the
//! consistency audit — whatever the crash interrupted must have unwound.

use crate::audit::run_audited;
use crate::availability::storm_spec;
use crate::{Benchmark, HarnessConfig};
use dynamid_core::{ReplicaPolicy, StandardConfig};
use dynamid_sim::{ErrorCounters, SimDuration};
use dynamid_workload::Mix;

/// The architectures the sweep compares (same family as the availability
/// sweep): C1 `WsPhp-DB`, C4 `Ws-Servlet-DB`, C6 `Ws-Servlet-EJB-DB`.
pub const FAILOVER_CONFIGS: [StandardConfig; 3] =
    [StandardConfig::PhpColocated, StandardConfig::ServletDedicated, StandardConfig::EjbFourTier];

/// The default replica-count ladder. `0` is the single-DB baseline every
/// replicated point is gated against.
pub const DEFAULT_REPLICAS: [usize; 4] = [0, 1, 2, 4];

/// The default storm-intensity ladder layered on top of the pinned kill.
pub const DEFAULT_STORM_INTENSITIES: [f64; 3] = [0.0, 0.25, 0.5];

/// The replication knobs every sweep point runs under: 5 ms ship lag,
/// 100 ms heartbeat, 400 ms lease — fast enough that a failover completes
/// well inside the smoke-scale measurement window.
pub fn sweep_policy(replicas: usize) -> ReplicaPolicy {
    ReplicaPolicy { replicas, lag_us: 5_000, heartbeat_us: 100_000, lease_us: 400_000 }
}

/// When the pinned kill drops the primary: a quarter into the measurement
/// window.
pub fn kill_at(cfg: &HarnessConfig) -> SimDuration {
    SimDuration::from_micros(cfg.ramp_up.as_micros() + cfg.measure.as_micros() / 4)
}

/// How long the killed primary stays down: half the measurement window —
/// long enough that the no-replica baseline visibly bleeds goodput.
pub fn kill_outage(cfg: &HarnessConfig) -> SimDuration {
    SimDuration::from_micros((cfg.measure.as_micros() / 2).max(1))
}

/// One (configuration, replica count, storm intensity) measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct FailoverPoint {
    /// The deployment measured.
    pub config: StandardConfig,
    /// Read replicas behind the primary (0 = single-DB baseline).
    pub replicas: usize,
    /// Storm intensity in `[0, 1]` layered on the pinned kill.
    pub intensity: f64,
    /// Attempts per minute offered inside the window.
    pub offered_ipm: f64,
    /// Completions per minute inside the window.
    pub throughput_ipm: f64,
    /// Good completions per minute inside the window.
    pub goodput_ipm: f64,
    /// 99th-percentile response time (ms) of window completions.
    pub latency_p99_ms: f64,
    /// Detection-to-promotion latency (ms) of the first failover (0 when
    /// none happened — the baseline rows).
    pub failover_latency_ms: f64,
    /// Election rounds that found no eligible replica (whole run).
    pub elections_failed: u64,
    /// Replica fencings over the run (missed frames, crashes, rejoins).
    pub fences: u64,
    /// Completed catch-up replays over the run.
    pub catchups: u64,
    /// The run's failure taxonomy inside the window; `errors.failovers`
    /// counts the successful primary promotions.
    pub errors: ErrorCounters,
}

/// A complete failover sweep: configurations × replica counts × storm
/// intensities, in grid order.
#[derive(Debug, Clone, PartialEq)]
pub struct FailoverData {
    /// The replica-count ladder used.
    pub replicas: Vec<usize>,
    /// The storm-intensity ladder used.
    pub intensities: Vec<f64>,
    /// Points in grid order: config-major, then replicas, then intensity.
    pub points: Vec<FailoverPoint>,
}

impl FailoverData {
    /// The point at `(config, replicas, intensity)`, if present.
    pub fn point(
        &self,
        config: StandardConfig,
        replicas: usize,
        intensity: f64,
    ) -> Option<&FailoverPoint> {
        self.points
            .iter()
            .find(|p| p.config == config && p.replicas == replicas && p.intensity == intensity)
    }

    /// Grid points where a replicated tier (≥ 2 replicas) failed to beat
    /// the single-DB baseline's goodput at the same storm intensity — the
    /// sweep's headline guarantee. Empty means the guarantee holds.
    pub fn baseline_violations(&self) -> Vec<String> {
        let mut violations = Vec::new();
        for p in self.points.iter().filter(|p| p.replicas >= 2) {
            let Some(base) = self.point(p.config, 0, p.intensity) else { continue };
            if p.goodput_ipm <= base.goodput_ipm {
                violations.push(format!(
                    "{} @ intensity {}: {} replicas goodput {:.1} <= baseline {:.1}",
                    p.config.paper_name(),
                    p.intensity,
                    p.replicas,
                    p.goodput_ipm,
                    base.goodput_ipm
                ));
            }
        }
        violations
    }
}

/// Runs one sweep point. Self-contained and deterministically seeded, so
/// points can run in any order or in parallel without changing results.
/// The storm at `intensity` is the availability sweep's: the same rank
/// draws the same storm whatever the architecture or replica count, since
/// per-machine forked streams mean adding replicas never perturbs the
/// other machines' schedules.
fn run_failover_point(
    cfg: &HarnessConfig,
    base_db: &dynamid_sqldb::Database,
    mix: &Mix,
    config: StandardConfig,
    replicas: usize,
    intensity: f64,
) -> FailoverPoint {
    let spec = storm_spec(cfg, mix, config, intensity)
        .kill_primary(kill_at(cfg), kill_outage(cfg))
        .replication(sweep_policy(replicas));
    let (r, audit) = run_audited(Benchmark::Bookstore, cfg.scale, base_db, &spec);
    // The sweep's oracle: after the crash, the failover, and the driver's
    // unwind, the surviving database must be exactly "baseline + committed
    // transactions" — stale promotion or fencing bugs would surface here.
    audit.assert_clean(&format!(
        "{} with {replicas} replicas at intensity {intensity}",
        config.paper_name()
    ));
    // Baseline rows install no replicated tier: zero stats and latency.
    let rep = r.replication.unwrap_or_default();
    let failover_latency_ms =
        rep.first_failover_latency().map_or(0.0, |d| d.as_micros() as f64 / 1_000.0);
    if cfg.verbose {
        eprintln!(
            "  {:<22} replicas={} intensity={:<5} goodput={:>8.0} ipm \
             failover={:>6.1} ms fences={} catchups={}",
            config.paper_name(),
            replicas,
            intensity,
            r.goodput_ipm,
            failover_latency_ms,
            rep.stats.fences,
            rep.stats.catchups,
        );
    }
    FailoverPoint {
        config,
        replicas,
        intensity,
        offered_ipm: r.offered_ipm,
        throughput_ipm: r.throughput_ipm,
        goodput_ipm: r.goodput_ipm,
        latency_p99_ms: r.latency_p99.as_micros() as f64 / 1_000.0,
        failover_latency_ms,
        elections_failed: rep.stats.failed_elections,
        fences: rep.stats.fences,
        catchups: rep.stats.catchups,
        errors: r.errors,
    }
}

/// Runs the full failover sweep over [`FAILOVER_CONFIGS`] × `replicas` ×
/// `intensities` on [`par_grid`](crate::par_grid), one fresh database fork
/// per point (results are bit-identical for any `--jobs` value).
pub fn run_failover(cfg: &HarnessConfig, replicas: &[usize], intensities: &[f64]) -> FailoverData {
    let base_db = Benchmark::Bookstore.build_db(cfg.scale, cfg.seed);
    let mix = dynamid_bookstore::mixes::shopping();
    let grid: Vec<(StandardConfig, usize, f64)> = FAILOVER_CONFIGS
        .iter()
        .flat_map(|&c| {
            replicas.iter().flat_map(move |&r| intensities.iter().map(move |&i| (c, r, i)))
        })
        .collect();
    let points = crate::par_grid(
        cfg.effective_jobs(),
        &grid,
        || (),
        |(), &(config, n, intensity)| run_failover_point(cfg, &base_db, &mix, config, n, intensity),
    );
    FailoverData { replicas: replicas.to_vec(), intensities: intensities.to_vec(), points }
}

/// Renders the sweep as CSV (stable column order; used by `repro failover`
/// and the check gate's golden comparison).
pub fn failover_csv(data: &FailoverData) -> String {
    let mut out = String::from(
        "config,replicas,intensity,offered_ipm,throughput_ipm,goodput_ipm,latency_p99_ms,\
         failovers,failover_latency_ms,elections_failed,fences,catchups,\
         timeouts,rejects,aborts,retries,abandoned,deadlocks\n",
    );
    for p in &data.points {
        out.push_str(&format!(
            "{},{},{},{:.1},{:.1},{:.1},{:.3},{},{:.3},{},{},{},{},{},{},{},{},{}\n",
            p.config.paper_name(),
            p.replicas,
            p.intensity,
            p.offered_ipm,
            p.throughput_ipm,
            p.goodput_ipm,
            p.latency_p99_ms,
            p.errors.failovers,
            p.failover_latency_ms,
            p.elections_failed,
            p.fences,
            p.catchups,
            p.errors.timeouts,
            p.errors.rejects,
            p.errors.aborts,
            p.errors.retries,
            p.errors.abandoned,
            p.errors.deadlocks,
        ));
    }
    out
}

/// Renders a compact markdown table: goodput per configuration per replica
/// count at the calmest and stormiest intensities.
pub fn failover_markdown(data: &FailoverData) -> String {
    let mut out =
        String::from("# Failover sweep: goodput (ipm) under a mid-measurement primary kill\n\n");
    out.push_str("| config | replicas |");
    for i in &data.intensities {
        out.push_str(&format!(" storm={i} |"));
    }
    out.push_str("\n|---|---|");
    for _ in &data.intensities {
        out.push_str("---|");
    }
    out.push('\n');
    for config in FAILOVER_CONFIGS {
        for &n in &data.replicas {
            out.push_str(&format!("| {} | {} |", config.paper_name(), n));
            for &i in &data.intensities {
                match data.point(config, n, i) {
                    Some(p) => out.push_str(&format!(" {:.0} |", p.goodput_ipm)),
                    None => out.push_str(" - |"),
                }
            }
            out.push('\n');
        }
    }
    let violations = data.baseline_violations();
    if violations.is_empty() {
        out.push_str("\nEvery ≥2-replica point beats its single-DB baseline.\n");
    } else {
        out.push_str("\n**Baseline violations:**\n");
        for v in &violations {
            out.push_str(&format!("- {v}\n"));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> HarnessConfig {
        let mut cfg = HarnessConfig::smoke();
        cfg.clients = vec![15];
        cfg.jobs = 1;
        cfg
    }

    #[test]
    fn pinned_kill_fails_over_and_beats_the_baseline() {
        let data = run_failover(&tiny(), &[0, 2], &[0.0]);
        assert_eq!(data.points.len(), FAILOVER_CONFIGS.len() * 2);
        for config in FAILOVER_CONFIGS {
            let base = data.point(config, 0, 0.0).expect("baseline point");
            let repl = data.point(config, 2, 0.0).expect("replicated point");
            // The baseline has no tier to fail over to.
            assert_eq!(base.errors.failovers, 0, "{config}: baseline cannot fail over");
            assert_eq!(base.failover_latency_ms, 0.0);
            // The replicated tier promoted exactly once, inside the window.
            assert_eq!(repl.errors.failovers, 1, "{config}: expected one failover");
            assert!(repl.failover_latency_ms > 0.0, "{config}: no latency recorded");
            // The ex-primary rejoined fenced and replayed the stream.
            assert!(repl.fences > 0, "{config}: rejoin never fenced");
        }
        assert!(
            data.baseline_violations().is_empty(),
            "replicated goodput lost to the raw outage: {:?}",
            data.baseline_violations()
        );
    }

    #[test]
    fn sweep_is_bit_identical_for_any_job_count() {
        let mut serial = tiny();
        serial.seed = 42;
        let mut parallel = serial.clone();
        parallel.jobs = 4;
        let a = run_failover(&serial, &[0, 1], &[0.0, 0.5]);
        let b = run_failover(&parallel, &[0, 1], &[0.0, 0.5]);
        assert_eq!(a, b, "--jobs changed sweep results");
        assert_eq!(failover_csv(&a), failover_csv(&b));
        let c = run_failover(&parallel, &[0, 1], &[0.0, 0.5]);
        assert_eq!(failover_csv(&b), failover_csv(&c));
    }

    #[test]
    fn csv_and_markdown_have_stable_shape() {
        let data = FailoverData {
            replicas: vec![0, 2],
            intensities: vec![0.0],
            points: vec![FailoverPoint {
                config: StandardConfig::PhpColocated,
                replicas: 2,
                intensity: 0.0,
                offered_ipm: 100.0,
                throughput_ipm: 99.0,
                goodput_ipm: 98.0,
                latency_p99_ms: 12.5,
                failover_latency_ms: 450.5,
                elections_failed: 0,
                fences: 1,
                catchups: 1,
                errors: ErrorCounters {
                    timeouts: 1,
                    rejects: 2,
                    aborts: 3,
                    retries: 4,
                    abandoned: 5,
                    deadlocks: 6,
                    failovers: 1,
                    ..ErrorCounters::default()
                },
            }],
        };
        let csv = failover_csv(&data);
        let mut lines = csv.lines();
        assert!(lines.next().unwrap().starts_with("config,replicas,intensity,offered_ipm"));
        assert_eq!(
            lines.next().unwrap(),
            "WsPhp-DB,2,0,100.0,99.0,98.0,12.500,1,450.500,0,1,1,1,2,3,4,5,6"
        );
        let md = failover_markdown(&data);
        assert!(md.contains("WsPhp-DB"));
    }
}
