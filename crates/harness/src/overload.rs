//! The flash-crowd sweep: open-loop overload, metastable collapse, and the
//! controls that prevent it.
//!
//! The paper's closed-loop methodology cannot produce a flash crowd: each
//! emulated browser waits for its response before thinking, so offered
//! load is throttled by the very congestion it causes. This sweep switches
//! the driver to an open [`ArrivalProcess::FlashCrowd`] — arrivals fire on
//! their own schedule regardless of completions — and rides every
//! architecture through the same spike three times:
//!
//! * **naive** — no overload control. Queued requests age past their
//!   deadline, admitted work dies mid-service, and unbudgeted retries keep
//!   the queues full after the spike ends: the metastable retry storm.
//! * **shed** — deadline-aware queue shedding only. Stale waiters are
//!   dropped at dequeue so every granted request still has budget to
//!   finish; the server stops doing doomed work.
//! * **full** — shedding plus a client-side circuit breaker (brownout:
//!   fast-fail while the backend is melting) plus a retry token budget
//!   (caps the amplification that sustains the storm).
//!
//! Each point runs with a per-second [`TimelineBucket`] tape, so goodput
//! is reported separately for the pre-spike, spike, and recovery phases;
//! the headline metric is *retention* — recovery-phase goodput over
//! pre-spike goodput. Base rates are calibrated per architecture (75% of
//! the sustainable open-loop rate, found by a deterministic probe ladder)
//! so the same relative spike hits every configuration, and every point
//! ends with the PR 4 consistency audit.
//!
//! [`ArrivalProcess::FlashCrowd`]: dynamid_workload::ArrivalProcess
//! [`TimelineBucket`]: dynamid_workload::TimelineBucket

use crate::audit::run_audited;
use crate::{Benchmark, HarnessConfig, FAMILY_CONFIGS};
use dynamid_bookstore::{Bookstore, BookstoreScale};
use dynamid_core::{AdmissionControl, BreakerPolicy, OverloadControl, StandardConfig};
use dynamid_sim::{ErrorCounters, SimDuration};
use dynamid_workload::{
    ArrivalProcess, ExperimentSpec, ResilienceConfig, RetryBudget, TimelineBucket, WorkloadConfig,
};

/// Default spike intensities (arrival-rate multipliers during the spike).
pub const DEFAULT_SPIKE_MULTS: [f64; 2] = [4.0, 8.0];

/// Fraction of the calibrated sustainable open-loop rate offered as the
/// base (pre-spike) arrival rate.
pub const BASE_RATE_FRACTION: f64 = 0.75;

/// One overload-control arm of the sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverloadMode {
    /// No control: queues grow, deadlines expire, retries amplify.
    Naive,
    /// Deadline-aware queue shedding on the web/DB pools only.
    Shed,
    /// Shedding + circuit breaker (brownout) + retry token budget.
    Full,
}

impl OverloadMode {
    /// Stable lower-case label used in CSV output.
    pub fn label(&self) -> &'static str {
        match self {
            OverloadMode::Naive => "naive",
            OverloadMode::Shed => "shed",
            OverloadMode::Full => "full",
        }
    }
}

/// All arms, in sweep order.
pub const OVERLOAD_MODES: [OverloadMode; 3] =
    [OverloadMode::Naive, OverloadMode::Shed, OverloadMode::Full];

// The pinned run shape (seconds). The spike sits strictly inside the
// measurement window with a pre-spike baseline before it and a recovery
// phase after its ramp-down; per-second timeline buckets slice the phases.
const RAMP_UP_SECS: u64 = 2;
const PRE_SECS: u64 = 6;
const SPIKE_SECS: u64 = 6;
const SPIKE_RAMP_SECS: u64 = 2;
const RECOVERY_SECS: u64 = 8;
const RAMP_DOWN_SECS: u64 = 1;
const MEASURE_SECS: u64 = PRE_SECS + SPIKE_SECS + SPIKE_RAMP_SECS + RECOVERY_SECS;

/// The client-side policy per arm: a 2 s deadline with two retries; only
/// the `full` arm budgets them.
pub fn overload_resilience(mode: OverloadMode) -> ResilienceConfig {
    ResilienceConfig {
        request_timeout: Some(SimDuration::from_secs(2)),
        max_retries: 2,
        backoff_base: SimDuration::from_millis(250),
        backoff_cap: SimDuration::from_secs(1),
        retry_budget: matches!(mode, OverloadMode::Full)
            .then_some(RetryBudget { per_fresh: 0.1, burst: 10.0 }),
    }
}

/// The server-side limits every arm runs under: a bounded DB connection
/// pool with an unbounded wait queue, so overload manifests as queueing
/// delay (timeouts, shedding) rather than admission rejects.
pub fn overload_admission() -> AdmissionControl {
    AdmissionControl { web_accept_queue: None, db_connections: Some(16), db_accept_queue: None }
}

/// The overload controls installed per arm.
pub fn overload_control(mode: OverloadMode) -> OverloadControl {
    let shed = Some(SimDuration::from_millis(500));
    match mode {
        OverloadMode::Naive => OverloadControl::default(),
        OverloadMode::Shed => {
            OverloadControl { web_shed_target: shed, db_shed_target: shed, breaker: None }
        }
        OverloadMode::Full => OverloadControl {
            web_shed_target: shed,
            db_shed_target: shed,
            breaker: Some(BreakerPolicy {
                failure_threshold: 8,
                cooldown: SimDuration::from_secs(1),
            }),
        },
    }
}

/// One (configuration, mode, spike intensity) measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct OverloadPoint {
    /// The deployment measured.
    pub config: StandardConfig,
    /// The overload-control arm.
    pub mode: OverloadMode,
    /// Arrival-rate multiplier during the spike.
    pub spike_mult: f64,
    /// Calibrated base arrival rate (requests per second).
    pub base_rps: f64,
    /// Goodput (ipm) over the pre-spike phase.
    pub pre_goodput_ipm: f64,
    /// Goodput (ipm) over the spike + its ramp-down.
    pub spike_goodput_ipm: f64,
    /// Goodput (ipm) over the recovery phase (after the spike's
    /// ramp-down) — did the system come back?
    pub recovery_goodput_ipm: f64,
    /// `recovery / pre` — the headline metastability metric.
    pub retention: f64,
    /// 99th-percentile latency (ms) of window completions.
    pub latency_p99_ms: f64,
    /// The run's failure taxonomy inside the window.
    pub errors: ErrorCounters,
}

/// A complete flash-crowd sweep: configurations × modes × intensities, in
/// grid order.
#[derive(Debug, Clone, PartialEq)]
pub struct OverloadData {
    /// The deployments swept, in grid order.
    pub configs: Vec<StandardConfig>,
    /// The spike-intensity ladder used.
    pub spike_mults: Vec<f64>,
    /// Points in grid order (config-major, then mode, then intensity).
    pub points: Vec<OverloadPoint>,
}

impl OverloadData {
    /// The point for one cell of the grid.
    pub fn point(
        &self,
        config: StandardConfig,
        mode: OverloadMode,
        spike_mult: f64,
    ) -> Option<&OverloadPoint> {
        self.points
            .iter()
            .find(|p| p.config == config && p.mode == mode && p.spike_mult == spike_mult)
    }

    /// Checks the headline claim at the *highest* spike intensity: naive
    /// must collapse (retention < 30%) and full control must survive
    /// (retention ≥ 70%) on every architecture. Returns human-readable
    /// violations (empty = claim holds).
    pub fn violations(&self) -> Vec<String> {
        let mut out = Vec::new();
        let Some(&top) = self.spike_mults.last() else { return out };
        for &config in &self.configs {
            if let Some(p) = self.point(config, OverloadMode::Naive, top) {
                if p.retention >= 0.30 {
                    out.push(format!(
                        "{} naive at {top}x: retention {:.2} — expected metastable collapse < 0.30",
                        config.paper_name(),
                        p.retention
                    ));
                }
            }
            if let Some(p) = self.point(config, OverloadMode::Full, top) {
                if p.retention < 0.70 {
                    out.push(format!(
                        "{} full at {top}x: retention {:.2} — overload control failed to \
                         recover >= 0.70",
                        config.paper_name(),
                        p.retention
                    ));
                }
            }
        }
        out
    }
}

/// Goodput in interactions per minute over a bucket range of the
/// per-second timeline (missing trailing buckets count as zero).
fn phase_goodput_ipm(timeline: &[TimelineBucket], from_sec: u64, to_sec: u64) -> f64 {
    debug_assert!(to_sec > from_sec);
    let good: u64 =
        (from_sec..to_sec).map(|i| timeline.get(i as usize).map_or(0, |b| b.good)).sum();
    good as f64 / (to_sec - from_sec) as f64 * 60.0
}

/// One calibration probe: an open-loop Poisson run at `rate` under the
/// sweep's admission limits, with the sweep's deadline but no retries and
/// no overload controls. "Sustainable" means ≥ 90% of offered attempts
/// completed without error — the slack absorbs the intrinsic failure rate
/// (deadlock victims in write-heavy mixes) that exists at any load.
fn probe_sustains(
    cfg: &HarnessConfig,
    base_db: &dynamid_sqldb::Database,
    config: StandardConfig,
    rate: f64,
) -> bool {
    let mut db = base_db.clone();
    let app = Bookstore::new(BookstoreScale::scaled(cfg.scale));
    let mix = dynamid_bookstore::mixes::shopping();
    let workload = WorkloadConfig {
        clients: 0,
        think_time: cfg.think_time,
        session_time: cfg.session_time,
        ramp_up: SimDuration::from_secs(2),
        measure: SimDuration::from_secs(8),
        ramp_down: SimDuration::from_secs(1),
        seed: cfg.seed ^ 0xCA11_B8A7E,
        resilience: ResilienceConfig {
            request_timeout: Some(SimDuration::from_secs(2)),
            max_retries: 0,
            backoff_base: SimDuration::from_millis(250),
            backoff_cap: SimDuration::from_secs(1),
            retry_budget: None,
        },
        arrivals: ArrivalProcess::Poisson { rate_per_sec: rate },
        timeline_bucket: None,
    };
    let r = ExperimentSpec::for_config(config)
        .mix(&mix)
        .workload(workload)
        .policy(cfg.policy)
        .admission(overload_admission())
        .defer_unwind(true)
        .run(&mut db, &app);
    if cfg.verbose {
        eprintln!(
            "  {:<22} probe rate={rate:>7.1}/s offered={:>7.0} goodput={:>7.0} ipm p99={:.0} ms",
            config.paper_name(),
            r.offered_ipm,
            r.goodput_ipm,
            r.latency_p99.as_micros() as f64 / 1_000.0,
        );
    }
    r.metrics.offered > 0 && r.goodput_ipm >= 0.90 * r.offered_ipm
}

/// Finds one architecture's sustainable open-loop arrival rate (requests
/// per second) by climbing a geometric rate ladder until probes start
/// failing. The closed-loop figures cannot provide this number: lock
/// contention under a large closed population inflates latency and
/// understates how much open-loop traffic the deployment absorbs.
/// Deterministic, so the calibrated base rates are reproducible.
fn calibrate_capacity_ips(
    cfg: &HarnessConfig,
    base_db: &dynamid_sqldb::Database,
    config: StandardConfig,
) -> f64 {
    let mut last_ok = 4.0;
    let mut rate = 8.0;
    while rate <= 2048.0 && probe_sustains(cfg, base_db, config, rate) {
        last_ok = rate;
        rate *= 1.5;
    }
    last_ok
}

/// Runs one sweep point. Self-contained and deterministically seeded, so
/// points can run in any order or in parallel without changing results.
fn run_overload_point(
    cfg: &HarnessConfig,
    base_db: &dynamid_sqldb::Database,
    config: StandardConfig,
    capacity_ips: f64,
    mode: OverloadMode,
    spike_mult: f64,
) -> OverloadPoint {
    let mix = dynamid_bookstore::mixes::shopping();
    let base_rps = BASE_RATE_FRACTION * capacity_ips;
    let workload = WorkloadConfig {
        clients: 0, // open loop: slots grow on demand
        think_time: cfg.think_time,
        session_time: cfg.session_time,
        ramp_up: SimDuration::from_secs(RAMP_UP_SECS),
        measure: SimDuration::from_secs(MEASURE_SECS),
        ramp_down: SimDuration::from_secs(RAMP_DOWN_SECS),
        // The intensity rank folds into the seed so ladder points draw
        // independent arrival streams; the mode does NOT, so all three
        // arms face the bit-identical flash crowd.
        seed: cfg.seed ^ ((spike_mult * 1_000.0).round() as u64).wrapping_mul(0xF1A5),
        resilience: overload_resilience(mode),
        arrivals: ArrivalProcess::FlashCrowd {
            base_rate: base_rps,
            spike_mult,
            spike_start: SimDuration::from_secs(RAMP_UP_SECS + PRE_SECS),
            spike_len: SimDuration::from_secs(SPIKE_SECS),
            ramp_down: SimDuration::from_secs(SPIKE_RAMP_SECS),
        },
        timeline_bucket: Some(SimDuration::from_secs(1)),
    };
    let spec = ExperimentSpec::for_config(config)
        .mix(&mix)
        .workload(workload)
        .policy(cfg.policy)
        .admission(overload_admission())
        .overload(overload_control(mode));
    let (r, audit) = run_audited(Benchmark::Bookstore, cfg.scale, base_db, &spec);
    // The consistency audit runs at every point: overload shedding,
    // breaker denials, and abandoned retries must never leak a partial
    // transaction into the surviving database.
    audit.assert_clean(&format!("{} {} at {spike_mult}x spike", config.paper_name(), mode.label()));
    let spike_start = RAMP_UP_SECS + PRE_SECS;
    let spike_end = spike_start + SPIKE_SECS + SPIKE_RAMP_SECS;
    let horizon = RAMP_UP_SECS + MEASURE_SECS;
    let pre = phase_goodput_ipm(&r.metrics.timeline, RAMP_UP_SECS, spike_start);
    let spike = phase_goodput_ipm(&r.metrics.timeline, spike_start, spike_end);
    let recovery = phase_goodput_ipm(&r.metrics.timeline, spike_end, horizon);
    let retention = if pre > 0.0 { recovery / pre } else { 0.0 };
    if cfg.verbose {
        eprintln!(
            "  {:<22} {:<5} spike={spike_mult}x base={base_rps:>6.1}/s \
             pre={pre:>7.0} spike={spike:>7.0} rec={recovery:>7.0} ipm \
             retention={retention:.2} shed={} brk={} abandoned={}",
            config.paper_name(),
            mode.label(),
            r.errors.shed,
            r.errors.breaker_open,
            r.errors.abandoned,
        );
    }
    OverloadPoint {
        config,
        mode,
        spike_mult,
        base_rps,
        pre_goodput_ipm: pre,
        spike_goodput_ipm: spike,
        recovery_goodput_ipm: recovery,
        retention,
        latency_p99_ms: r.latency_p99.as_micros() as f64 / 1_000.0,
        errors: r.errors,
    }
}

/// Runs the full flash-crowd sweep over [`FAMILY_CONFIGS`] ×
/// [`OVERLOAD_MODES`] × `spike_mults`. Shorthand for
/// [`run_overload_configs`] on the default trio.
pub fn run_overload(cfg: &HarnessConfig, spike_mults: &[f64]) -> OverloadData {
    run_overload_configs(cfg, &FAMILY_CONFIGS, spike_mults)
}

/// Runs the flash-crowd sweep over an explicit configuration list ×
/// [`OVERLOAD_MODES`] × `spike_mults` on [`par_grid`](crate::par_grid), one
/// fresh database fork per point (results are bit-identical for any
/// `--jobs` value).
/// Capacities are calibrated once per configuration up front.
pub fn run_overload_configs(
    cfg: &HarnessConfig,
    configs: &[StandardConfig],
    spike_mults: &[f64],
) -> OverloadData {
    let base_db = Benchmark::Bookstore.build_db(cfg.scale, cfg.seed);
    let capacities: Vec<f64> = configs
        .iter()
        .map(|&c| {
            let ips = calibrate_capacity_ips(cfg, &base_db, c);
            if cfg.verbose {
                eprintln!("  {:<22} capacity ~{ips:.1} req/s", c.paper_name());
            }
            ips
        })
        .collect();
    let grid: Vec<(usize, OverloadMode, f64)> = (0..configs.len())
        .flat_map(|ci| {
            OVERLOAD_MODES.iter().flat_map(move |&m| spike_mults.iter().map(move |&x| (ci, m, x)))
        })
        .collect();
    let points = crate::par_grid(
        cfg.effective_jobs(),
        &grid,
        || (),
        |(), &(ci, mode, spike)| {
            run_overload_point(cfg, &base_db, configs[ci], capacities[ci], mode, spike)
        },
    );
    OverloadData { configs: configs.to_vec(), spike_mults: spike_mults.to_vec(), points }
}

/// Renders the sweep as CSV (stable column order; used by `repro overload`
/// and the smoke gate).
pub fn overload_csv(data: &OverloadData) -> String {
    let mut out = String::from(
        "config,mode,spike_mult,base_rps,pre_goodput_ipm,spike_goodput_ipm,\
         recovery_goodput_ipm,retention,latency_p99_ms,timeouts,shed,breaker_open,\
         abandoned,retries\n",
    );
    for p in &data.points {
        out.push_str(&format!(
            "{},{},{},{:.1},{:.1},{:.1},{:.1},{:.3},{:.3},{},{},{},{},{}\n",
            p.config.paper_name(),
            p.mode.label(),
            p.spike_mult,
            p.base_rps,
            p.pre_goodput_ipm,
            p.spike_goodput_ipm,
            p.recovery_goodput_ipm,
            p.retention,
            p.latency_p99_ms,
            p.errors.timeouts,
            p.errors.shed,
            p.errors.breaker_open,
            p.errors.abandoned,
            p.errors.retries,
        ));
    }
    out
}

/// Renders a compact markdown table: retention per configuration per
/// (mode, intensity) column.
pub fn overload_markdown(data: &OverloadData) -> String {
    let mut out = String::from("# Flash-crowd sweep: goodput retention (recovery / pre-spike)\n\n");
    out.push_str("| config |");
    for mode in OVERLOAD_MODES {
        for m in &data.spike_mults {
            out.push_str(&format!(" {} {m}x |", mode.label()));
        }
    }
    out.push_str("\n|---|");
    for _ in 0..OVERLOAD_MODES.len() * data.spike_mults.len() {
        out.push_str("---|");
    }
    out.push('\n');
    for &config in &data.configs {
        out.push_str(&format!("| {} |", config.paper_name()));
        for mode in OVERLOAD_MODES {
            for &m in &data.spike_mults {
                let cell = data
                    .point(config, mode, m)
                    .map_or_else(|| "-".to_string(), |p| format!("{:.2}", p.retention));
                out.push_str(&format!(" {cell} |"));
            }
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> HarnessConfig {
        let mut cfg = HarnessConfig::smoke();
        cfg.jobs = 1;
        cfg
    }

    #[test]
    fn naive_collapses_and_full_control_recovers() {
        let data = run_overload(&tiny(), &[6.0]);
        assert_eq!(data.points.len(), FAMILY_CONFIGS.len() * OVERLOAD_MODES.len());
        for p in &data.points {
            assert!(p.pre_goodput_ipm > 0.0, "{:?}: no pre-spike goodput", (p.config, p.mode));
        }
        let violations = data.violations();
        assert!(violations.is_empty(), "headline claim failed:\n{}", violations.join("\n"));
        // The controls actually engaged: shedding and breaker denials are
        // visible in the taxonomy, and the budget capped retries below the
        // naive arm's storm.
        for config in FAMILY_CONFIGS {
            let naive = data.point(config, OverloadMode::Naive, 6.0).unwrap();
            let full = data.point(config, OverloadMode::Full, 6.0).unwrap();
            assert!(
                full.errors.shed + full.errors.breaker_open > 0,
                "{config}: controls never engaged"
            );
            assert!(
                full.errors.retries <= naive.errors.retries,
                "{config}: budgeted retries ({}) exceed the naive storm ({})",
                full.errors.retries,
                naive.errors.retries
            );
        }
    }

    #[test]
    fn sweep_is_bit_identical_for_any_job_count() {
        let mut serial = tiny();
        serial.seed = 42;
        let mut parallel = serial.clone();
        parallel.jobs = 4;
        let a = run_overload(&serial, &[6.0]);
        let b = run_overload(&parallel, &[6.0]);
        assert_eq!(a, b, "--jobs changed sweep results");
        assert_eq!(overload_csv(&a), overload_csv(&b));
    }

    #[test]
    fn front_ended_sweep_is_deterministic_and_recovers() {
        let serial = tiny();
        let mut parallel = serial.clone();
        parallel.jobs = 4;
        let a = run_overload_configs(&serial, &StandardConfig::FRONT_ENDED, &[6.0]);
        let b = run_overload_configs(&parallel, &StandardConfig::FRONT_ENDED, &[6.0]);
        assert_eq!(a, b, "--jobs changed front-ended sweep results");
        assert_eq!(a.points.len(), StandardConfig::FRONT_ENDED.len() * OVERLOAD_MODES.len());
        for p in &a.points {
            assert!(p.pre_goodput_ipm > 0.0, "{:?}: no pre-spike goodput", (p.config, p.mode));
        }
        let violations = a.violations();
        assert!(
            violations.is_empty(),
            "flash-crowd claim failed behind a front end:\n{}",
            violations.join("\n")
        );
    }

    #[test]
    fn csv_has_header_and_rows() {
        let data = OverloadData {
            configs: vec![StandardConfig::PhpColocated],
            spike_mults: vec![6.0],
            points: vec![OverloadPoint {
                config: StandardConfig::PhpColocated,
                mode: OverloadMode::Full,
                spike_mult: 6.0,
                base_rps: 80.0,
                pre_goodput_ipm: 4800.0,
                spike_goodput_ipm: 1200.0,
                recovery_goodput_ipm: 4600.0,
                retention: 0.958,
                latency_p99_ms: 42.5,
                errors: ErrorCounters {
                    timeouts: 1,
                    shed: 2,
                    breaker_open: 3,
                    abandoned: 4,
                    retries: 5,
                    ..ErrorCounters::default()
                },
            }],
        };
        let csv = overload_csv(&data);
        let mut lines = csv.lines();
        assert!(lines.next().unwrap().starts_with("config,mode,spike_mult,base_rps"));
        assert_eq!(
            lines.next().unwrap(),
            "WsPhp-DB,full,6,80.0,4800.0,1200.0,4600.0,0.958,42.500,1,2,3,4,5"
        );
        let md = overload_markdown(&data);
        assert!(md.contains("WsPhp-DB"));
        assert!(md.contains("full 6x"));
    }
}
