//! # dynamid-harness — regenerating every figure of the paper
//!
//! The paper's evaluation consists of five throughput-vs-clients figures
//! and five companion CPU-utilization-at-peak figures (Figures 5–14),
//! covering two benchmarks × their mixes × six deployment configurations.
//! This crate enumerates them ([`FIGURES`]), runs the sweeps
//! ([`run_figure`]), and renders the paper-style tables
//! ([`report`]).
//!
//! The `repro` binary is the command-line entry point:
//!
//! ```text
//! repro fig05                   # one figure pair (table + CPU breakdown)
//! repro auction-bidding         # same thing, by name
//! repro all                     # the whole evaluation, writes results/*.csv
//! repro summary                 # peak throughput of every config on every mix
//! repro trace fig05 --config C1 # traced point: Chrome trace + bottleneck CSV
//! repro --fast all              # scaled-down populations and short windows
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod audit;
pub mod availability;
pub mod cache_sweep;
pub mod failover;
pub mod figures;
mod grid;
pub mod overload;
pub mod report;
pub mod trace_run;

pub use audit::{audit_auction, audit_bookstore, AuditReport};
pub use availability::{
    availability_csv, availability_markdown, run_availability, AvailabilityData, AvailabilityPoint,
    DEFAULT_INTENSITIES,
};
pub use cache_sweep::{
    cache_arms, cache_csv, cache_markdown, run_cache_sweep, CacheMode, CachePoint, CacheSweepData,
    CacheWorkload, CACHE_MODES, CACHE_TTL_MICROS, CACHE_WORKLOADS, DEFAULT_CACHE_CAPACITIES,
    DEFAULT_CACHE_TTLS,
};
pub use failover::{
    failover_csv, failover_markdown, run_failover, FailoverData, FailoverPoint, DEFAULT_REPLICAS,
    DEFAULT_STORM_INTENSITIES,
};
pub use figures::{
    default_clients, find_figure, run_figure, Benchmark, ConfigCurve, CurvePoint, FigureData,
    FigurePair, FIGURES,
};
pub use grid::par_grid;
pub use overload::{
    overload_csv, overload_markdown, run_overload, run_overload_configs, OverloadData,
    OverloadMode, OverloadPoint, BASE_RATE_FRACTION, DEFAULT_SPIKE_MULTS, OVERLOAD_MODES,
};
pub use trace_run::{default_trace_clients, run_traced, TracedRun, CPU_SHARE_TOLERANCE};

use dynamid_core::StandardConfig;
use dynamid_sim::{GrantPolicy, SimDuration};

/// The three deployments the availability, failover and overload sweeps
/// compare, one per paper family: C1 `WsPhp-DB` (2 machines), C4
/// `Ws-Servlet-DB` (3 machines) and C6 `Ws-Servlet-EJB-DB` (4 machines).
pub const FAMILY_CONFIGS: [StandardConfig; 3] =
    [StandardConfig::PhpColocated, StandardConfig::ServletDedicated, StandardConfig::EjbFourTier];

/// Everything that parameterizes a harness run.
#[derive(Debug, Clone)]
pub struct HarnessConfig {
    /// Population scale relative to the paper (1.0 = paper sizes).
    pub scale: f64,
    /// Client sweep; empty means the per-benchmark default grid.
    pub clients: Vec<usize>,
    /// Configurations to run (default: all six).
    pub configs: Vec<StandardConfig>,
    /// Mean think time.
    pub think_time: SimDuration,
    /// Mean session length.
    pub session_time: SimDuration,
    /// Ramp-up phase.
    pub ramp_up: SimDuration,
    /// Measurement phase.
    pub measure: SimDuration,
    /// Ramp-down phase.
    pub ramp_down: SimDuration,
    /// Lock grant policy (MyISAM default: writer priority).
    pub policy: GrantPolicy,
    /// Master seed.
    pub seed: u64,
    /// Print progress to stderr.
    pub verbose: bool,
    /// Worker threads for sweep points (`0` = one per available core).
    ///
    /// Points are independent and deterministically seeded, so results do
    /// not depend on this value — only wall-clock time does.
    pub jobs: usize,
}

impl Default for HarnessConfig {
    /// Paper-scale populations with shortened (but steady-state) phases:
    /// 20 s ramp-up, 100 s measurement, 5 s ramp-down. The paper used
    /// 1–5 min / 20–30 min / 1–5 min on real hardware; in simulation the
    /// variance at 100 s is already below the plot resolution.
    fn default() -> Self {
        HarnessConfig {
            scale: 1.0,
            clients: Vec::new(),
            configs: StandardConfig::ALL.to_vec(),
            think_time: SimDuration::from_secs(7),
            session_time: SimDuration::from_mins(15),
            ramp_up: SimDuration::from_secs(20),
            measure: SimDuration::from_secs(100),
            ramp_down: SimDuration::from_secs(5),
            policy: GrantPolicy::default(),
            seed: 42,
            verbose: false,
            jobs: 0,
        }
    }
}

impl HarnessConfig {
    /// A scaled-down configuration for quick runs (`repro --fast`).
    pub fn fast() -> Self {
        HarnessConfig {
            scale: 0.1,
            ramp_up: SimDuration::from_secs(10),
            measure: SimDuration::from_secs(40),
            ramp_down: SimDuration::from_secs(2),
            ..Self::default()
        }
    }

    /// A tiny configuration for unit tests.
    pub fn smoke() -> Self {
        HarnessConfig {
            scale: 0.002,
            clients: vec![5, 20],
            configs: vec![StandardConfig::PhpColocated, StandardConfig::ServletDedicated],
            think_time: SimDuration::from_millis(500),
            session_time: SimDuration::from_secs(60),
            ramp_up: SimDuration::from_secs(2),
            measure: SimDuration::from_secs(8),
            ramp_down: SimDuration::from_secs(1),
            policy: GrantPolicy::default(),
            seed: 7,
            verbose: false,
            jobs: 1,
        }
    }

    /// Resolves [`jobs`](Self::jobs): `0` means one worker per available
    /// core.
    pub fn effective_jobs(&self) -> usize {
        if self.jobs == 0 {
            std::thread::available_parallelism().map(usize::from).unwrap_or(1)
        } else {
            self.jobs
        }
    }
}
