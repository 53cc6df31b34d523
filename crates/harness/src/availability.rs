//! The availability sweep: goodput, tail latency, and failure taxonomy
//! versus fault intensity.
//!
//! The paper's figures ask "how fast is each architecture when everything
//! works"; this family asks the complementary robustness question: as the
//! environment degrades — transient faults, machine crash/restart cycles,
//! CPU/NIC brownouts — how gracefully does each architecture shed load?
//! More tiers mean more machines that can fail (the four-tier EJB
//! deployment exposes twice the crash surface of co-located PHP), but also
//! more places to reject early before work is wasted.
//!
//! Every point runs with the same client-side resilience policy (deadline,
//! two retries with capped exponential backoff) and the same server-side
//! admission limits, so the curves isolate the architecture, not the
//! policy. Fault schedules compile deterministically from the sweep seed:
//! the whole sweep is bit-reproducible.

use crate::audit::run_audited;
use crate::figures::sweep_workload;
use crate::{Benchmark, HarnessConfig};
use dynamid_core::{AdmissionControl, StandardConfig};
use dynamid_sim::{ErrorCounters, SimDuration};
use dynamid_workload::{ExperimentSpec, FaultSpec, Mix, ResilienceConfig, WorkloadConfig};

/// The three architectures the sweep compares, one per paper family:
/// C1 `WsPhp-DB` (2 machines), C4 `Ws-Servlet-DB` (3 machines), and
/// C6 `Ws-Servlet-EJB-DB` (4 machines).
pub const AVAILABILITY_CONFIGS: [StandardConfig; 3] =
    [StandardConfig::PhpColocated, StandardConfig::ServletDedicated, StandardConfig::EjbFourTier];

/// The default fault-intensity ladder (see [`FaultSpec::at_intensity`]).
pub const DEFAULT_INTENSITIES: [f64; 5] = [0.0, 0.25, 0.5, 0.75, 1.0];

/// The client-side policy every sweep point runs under.
pub fn sweep_resilience() -> ResilienceConfig {
    ResilienceConfig {
        request_timeout: Some(SimDuration::from_secs(5)),
        max_retries: 2,
        backoff_base: SimDuration::from_millis(250),
        backoff_cap: SimDuration::from_secs(2),
        retry_budget: None,
    }
}

/// The server-side admission limits every sweep point runs under.
pub fn sweep_admission() -> AdmissionControl {
    AdmissionControl {
        web_accept_queue: Some(128),
        db_connections: Some(48),
        db_accept_queue: Some(64),
    }
}

/// The spec every availability and failover point starts from: the
/// bookstore shopping `mix` at the first client count, under the sweep's
/// resilience and admission policy, hit by the fault storm at `intensity`
/// (trivial at 0, so the run installs no faults).
pub(crate) fn storm_spec<'a>(
    cfg: &HarnessConfig,
    mix: &'a Mix,
    config: StandardConfig,
    intensity: f64,
) -> ExperimentSpec<'a> {
    let clients = cfg.clients.first().copied().unwrap_or(100);
    // The storm seed folds in the intensity rank so ladder points draw
    // independent schedules, but nothing about the configuration: the same
    // storm hits every architecture.
    let seed = cfg.seed ^ ((intensity * 1_000.0).round() as u64).wrapping_mul(0x9E37);
    ExperimentSpec::for_config(config)
        .mix(mix)
        .workload(WorkloadConfig { resilience: sweep_resilience(), ..sweep_workload(cfg, clients) })
        .policy(cfg.policy)
        .admission(sweep_admission())
        .faults(FaultSpec::at_intensity(seed, intensity))
}

/// One (configuration, fault intensity) measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct AvailabilityPoint {
    /// The deployment measured.
    pub config: StandardConfig,
    /// Fault intensity in `[0, 1]`.
    pub intensity: f64,
    /// Attempts per minute the clients offered inside the window.
    pub offered_ipm: f64,
    /// Completions per minute inside the window.
    pub throughput_ipm: f64,
    /// Good (error-free) completions per minute inside the window.
    pub goodput_ipm: f64,
    /// 99th-percentile response time (ms) of window completions.
    pub latency_p99_ms: f64,
    /// The run's failure taxonomy inside the window.
    pub errors: ErrorCounters,
}

/// A complete availability sweep: configurations × intensities, in grid
/// order.
#[derive(Debug, Clone, PartialEq)]
pub struct AvailabilityData {
    /// The intensity ladder used.
    pub intensities: Vec<f64>,
    /// Points grouped by configuration (outer order =
    /// [`AVAILABILITY_CONFIGS`] order), intensities ascending within.
    pub points: Vec<AvailabilityPoint>,
}

/// Runs one sweep point. Self-contained and deterministically seeded, so
/// points can run in any order or in parallel without changing results.
fn run_avail_point(
    cfg: &HarnessConfig,
    base_db: &dynamid_sqldb::Database,
    mix: &Mix,
    config: StandardConfig,
    intensity: f64,
) -> AvailabilityPoint {
    let spec = storm_spec(cfg, mix, config, intensity);
    let (r, audit) = run_audited(Benchmark::Bookstore, cfg.scale, base_db, &spec);
    // Every sweep point ends with a consistency audit: after the driver's
    // crash-consistent unwind the surviving database must be exactly
    // "baseline + committed transactions", whatever the faults did.
    audit.assert_clean(&format!("{} at intensity {intensity}", config.paper_name()));
    if cfg.verbose {
        eprintln!(
            "  {:<22} intensity={:<5} goodput={:>8.0} ipm p99={:>7.1} ms \
             t/o={} rej={} abort={}",
            config.paper_name(),
            intensity,
            r.goodput_ipm,
            r.latency_p99.as_micros() as f64 / 1_000.0,
            r.errors.timeouts,
            r.errors.rejects,
            r.errors.aborts,
        );
    }
    AvailabilityPoint {
        config,
        intensity,
        offered_ipm: r.offered_ipm,
        throughput_ipm: r.throughput_ipm,
        goodput_ipm: r.goodput_ipm,
        latency_p99_ms: r.latency_p99.as_micros() as f64 / 1_000.0,
        errors: r.errors,
    }
}

/// Runs the full availability sweep over [`AVAILABILITY_CONFIGS`] ×
/// `intensities` on [`par_grid`](crate::par_grid), one fresh database fork
/// per point (results are bit-identical for any `--jobs` value).
pub fn run_availability(cfg: &HarnessConfig, intensities: &[f64]) -> AvailabilityData {
    let base_db = Benchmark::Bookstore.build_db(cfg.scale, cfg.seed);
    let mix = dynamid_bookstore::mixes::shopping();
    let grid: Vec<(StandardConfig, f64)> = AVAILABILITY_CONFIGS
        .iter()
        .flat_map(|&c| intensities.iter().map(move |&i| (c, i)))
        .collect();
    let points = crate::par_grid(
        cfg.effective_jobs(),
        &grid,
        || (),
        |(), &(config, intensity)| run_avail_point(cfg, &base_db, &mix, config, intensity),
    );
    AvailabilityData { intensities: intensities.to_vec(), points }
}

/// Renders the sweep as CSV (stable column order; used by `repro avail`
/// and the chaos smoke probe).
pub fn availability_csv(data: &AvailabilityData) -> String {
    let mut out = String::from(
        "config,intensity,offered_ipm,throughput_ipm,goodput_ipm,latency_p99_ms,\
         timeouts,rejects,aborts,retries,abandoned,deadlocks,shed,breaker_open\n",
    );
    for p in &data.points {
        out.push_str(&format!(
            "{},{},{:.1},{:.1},{:.1},{:.3},{},{},{},{},{},{},{},{}\n",
            p.config.paper_name(),
            p.intensity,
            p.offered_ipm,
            p.throughput_ipm,
            p.goodput_ipm,
            p.latency_p99_ms,
            p.errors.timeouts,
            p.errors.rejects,
            p.errors.aborts,
            p.errors.retries,
            p.errors.abandoned,
            p.errors.deadlocks,
            p.errors.shed,
            p.errors.breaker_open,
        ));
    }
    out
}

/// Renders a compact markdown table: goodput (and failure counts) per
/// configuration per intensity.
pub fn availability_markdown(data: &AvailabilityData) -> String {
    let mut out = String::from("# Availability sweep: goodput (ipm) vs fault intensity\n\n");
    out.push_str("| config |");
    for i in &data.intensities {
        out.push_str(&format!(" i={i} |"));
    }
    out.push_str("\n|---|");
    for _ in &data.intensities {
        out.push_str("---|");
    }
    out.push('\n');
    for config in AVAILABILITY_CONFIGS {
        out.push_str(&format!("| {} |", config.paper_name()));
        for p in data.points.iter().filter(|p| p.config == config) {
            out.push_str(&format!(" {:.0} |", p.goodput_ipm));
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
        cfg.clients = vec![15];
        cfg.jobs = 1;
        cfg
    }

    #[test]
    fn sweep_covers_grid_and_zero_intensity_is_clean() {
        let data = run_availability(&tiny(), &[0.0, 1.0]);
        assert_eq!(data.points.len(), AVAILABILITY_CONFIGS.len() * 2);
        for config in AVAILABILITY_CONFIGS {
            let clean = data
                .points
                .iter()
                .find(|p| p.config == config && p.intensity == 0.0)
                .expect("zero point");
            assert!(clean.goodput_ipm > 0.0, "{config}: no goodput");
            // No fault state is installed at intensity 0: nothing can be
            // fault-aborted, and this light load cannot fill the admission
            // queues. (Client timeouts can still fire on a slow-but-healthy
            // deployment — that is the resilience policy, not a fault.)
            assert_eq!(clean.errors.aborts, 0, "{config}: fault aborts at intensity 0");
            assert_eq!(clean.errors.rejects, 0, "{config}: admission rejects at intensity 0");
        }
        // Full intensity hurts someone: at least one failure recorded
        // somewhere in the hostile column.
        let hostile: u64 = data
            .points
            .iter()
            .filter(|p| p.intensity == 1.0)
            .map(|p| p.errors.timeouts + p.errors.rejects + p.errors.aborts)
            .sum();
        assert!(hostile > 0, "full intensity produced zero failures");
    }

    #[test]
    fn sweep_is_deterministic() {
        let a = run_availability(&tiny(), &[0.0, 0.75]);
        let b = run_availability(&tiny(), &[0.0, 0.75]);
        assert_eq!(a, b);
        assert_eq!(availability_csv(&a), availability_csv(&b));
    }

    #[test]
    fn sweep_is_bit_identical_for_any_job_count() {
        let mut serial = tiny();
        serial.seed = 42;
        let mut parallel = serial.clone();
        parallel.jobs = 4;
        let a = run_availability(&serial, &[0.0, 0.5, 1.0]);
        let b = run_availability(&parallel, &[0.0, 0.5, 1.0]);
        assert_eq!(a, b, "--jobs changed sweep results");
        assert_eq!(availability_csv(&a), availability_csv(&b));
        // And a repeat at the same seed replays bit-identically.
        let c = run_availability(&parallel, &[0.0, 0.5, 1.0]);
        assert_eq!(availability_csv(&b), availability_csv(&c));
    }

    #[test]
    fn csv_has_header_and_rows() {
        let data = AvailabilityData {
            intensities: vec![0.0],
            points: vec![AvailabilityPoint {
                config: StandardConfig::PhpColocated,
                intensity: 0.0,
                offered_ipm: 100.0,
                throughput_ipm: 99.0,
                goodput_ipm: 98.0,
                latency_p99_ms: 12.5,
                errors: ErrorCounters {
                    timeouts: 1,
                    rejects: 2,
                    aborts: 3,
                    retries: 4,
                    abandoned: 5,
                    deadlocks: 6,
                    shed: 7,
                    breaker_open: 8,
                    ..ErrorCounters::default()
                },
            }],
        };
        let csv = availability_csv(&data);
        let mut lines = csv.lines();
        assert!(lines.next().unwrap().starts_with("config,intensity,offered_ipm"));
        assert_eq!(lines.next().unwrap(), "WsPhp-DB,0,100.0,99.0,98.0,12.500,1,2,3,4,5,6,7,8");
        let md = availability_markdown(&data);
        assert!(md.contains("WsPhp-DB"));
    }
}
