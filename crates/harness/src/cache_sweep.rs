//! The cache-ablation sweep: throughput versus caching policy across the
//! deployment configurations and benchmark mixes.
//!
//! The paper's headline is that the EJB configurations lose to PHP and
//! servlets largely on per-interaction middleware cost — exactly the cost
//! a transaction-consistent cache amortizes away (Pfeifer & Lockemann's
//! transactional method caching). This sweep quantifies that: every
//! configuration × workload mix × {cache off, TTL, transactional} × cache
//! capacity × TTL duration. The bookstore browsing mix is where the
//! recipe has the most to gain; the auction mixes (browsing and the
//! ~15 %-write bidding mix) price how fast write traffic erodes the
//! benefit.
//!
//! Every point ends with the post-run consistency audit. Points running
//! with the cache **off** or under **transactional** invalidation must be
//! audit-clean — commit-driven invalidation guarantees coherent hits, so a
//! violation means the caching tier corrupted a run and the sweep panics.
//! **TTL** points are allowed to be stale by construction; their violation
//! counts are *recorded* in the CSV instead, making the auditor the
//! pricing oracle for TTL staleness: sweeping the TTL duration turns the
//! `audit_violations` column into a staleness-versus-hit-rate curve.

use crate::audit::run_audited;
use crate::{Benchmark, HarnessConfig};
use dynamid_core::{CacheInvalidation, CachePolicy, CacheScope, StandardConfig};
use dynamid_workload::{CacheStats, ExperimentSpec, Mix};

/// The caching policies the sweep ablates over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheMode {
    /// No caching tier installed: the baseline every figure golden uses.
    Off,
    /// Both layers with time-to-live expiry (the arm's `ttl_us`); commits
    /// do not invalidate, so hits may be stale.
    Ttl,
    /// Both layers with commit-driven (transactional) invalidation; hits
    /// are always coherent with committed state.
    Transactional,
}

/// Sweep order: baseline first, then the two cached policies.
pub const CACHE_MODES: [CacheMode; 3] = [CacheMode::Off, CacheMode::Ttl, CacheMode::Transactional];

/// Default TTL for [`CacheMode::Ttl`] points, in simulated microseconds
/// (2 s — long enough to serve stale reads across commits, short enough
/// that the working set keeps turning over).
pub const CACHE_TTL_MICROS: u64 = 2_000_000;

/// TTL durations the TTL mode sweeps over: a short expiry that bounds
/// staleness tightly, and the long default that maximizes hit rate. The
/// audit-violation column prices the difference.
pub const DEFAULT_CACHE_TTLS: [u64; 2] = [250_000, CACHE_TTL_MICROS];

/// Cache capacities the cached modes sweep over: a constrained cache that
/// churns under the browsing working set, and an ample one.
pub const DEFAULT_CACHE_CAPACITIES: [usize; 2] = [256, 4096];

/// The benchmark mixes the ablation runs over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheWorkload {
    /// Bookstore browsing: read-only, the cache's best case.
    BookstoreBrowsing,
    /// Auction browsing: read-only on the auction schema.
    AuctionBrowsing,
    /// Auction bidding: ~15 % read-write — commits churn the cache and
    /// widen the TTL staleness window.
    AuctionBidding,
}

/// Sweep order for the workload axis.
pub const CACHE_WORKLOADS: [CacheWorkload; 3] = [
    CacheWorkload::BookstoreBrowsing,
    CacheWorkload::AuctionBrowsing,
    CacheWorkload::AuctionBidding,
];

impl CacheWorkload {
    /// CSV / display label.
    pub fn label(self) -> &'static str {
        match self {
            CacheWorkload::BookstoreBrowsing => "bookstore-browsing",
            CacheWorkload::AuctionBrowsing => "auction-browsing",
            CacheWorkload::AuctionBidding => "auction-bidding",
        }
    }

    /// The transition matrix for this workload.
    pub fn mix(self) -> Mix {
        match self {
            CacheWorkload::BookstoreBrowsing => dynamid_bookstore::mixes::browsing(),
            CacheWorkload::AuctionBrowsing => dynamid_auction::mixes::browsing(),
            CacheWorkload::AuctionBidding => dynamid_auction::mixes::bidding(),
        }
    }

    fn benchmark(self) -> Benchmark {
        match self {
            CacheWorkload::BookstoreBrowsing => Benchmark::Bookstore,
            CacheWorkload::AuctionBrowsing | CacheWorkload::AuctionBidding => Benchmark::Auction,
        }
    }
}

impl CacheMode {
    /// CSV / display label.
    pub fn label(self) -> &'static str {
        match self {
            CacheMode::Off => "off",
            CacheMode::Ttl => "ttl",
            CacheMode::Transactional => "txn",
        }
    }

    /// The experiment policy for this mode at `capacity` with expiry
    /// `ttl_us` (ignored except by [`CacheMode::Ttl`]); `None` for
    /// [`CacheMode::Off`].
    pub fn policy(self, capacity: usize, ttl_us: u64) -> Option<CachePolicy> {
        let invalidation = match self {
            CacheMode::Off => return None,
            CacheMode::Ttl => CacheInvalidation::Ttl(ttl_us),
            CacheMode::Transactional => CacheInvalidation::Transactional,
        };
        Some(CachePolicy { capacity, scope: CacheScope::Both, invalidation })
    }

    /// Whether the consistency auditor must be clean at this mode's points.
    /// TTL trades coherence for hit rate on purpose; everything else has no
    /// excuse.
    pub fn must_audit_clean(self) -> bool {
        !matches!(self, CacheMode::Ttl)
    }
}

/// One (workload, configuration, mode, capacity, ttl, client count)
/// measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct CachePoint {
    /// The benchmark mix measured.
    pub workload: CacheWorkload,
    /// The deployment measured.
    pub config: StandardConfig,
    /// Caching policy.
    pub mode: CacheMode,
    /// Cache capacity per layer (0 for [`CacheMode::Off`]).
    pub capacity: usize,
    /// TTL expiry in simulated microseconds (0 for non-TTL modes).
    pub ttl_us: u64,
    /// Offered clients.
    pub clients: usize,
    /// Measured throughput (interactions per minute).
    pub throughput_ipm: f64,
    /// 90th-percentile response time (ms) of window completions.
    pub latency_p90_ms: f64,
    /// Cache counters for the run (all zero for [`CacheMode::Off`]).
    pub cache: CacheStats,
    /// Invariant checks the post-run consistency audit performed.
    pub audit_checks: u64,
    /// Invariants the audit found violated. Always 0 for off/transactional
    /// points (the sweep panics otherwise); TTL points record their
    /// staleness damage here.
    pub audit_violations: u64,
}

/// A complete cache-ablation sweep, points in grid order: workloads in
/// [`CACHE_WORKLOADS`] order, then configurations in `cfg.configs` order,
/// then (mode, capacity, ttl) arms, then client counts ascending.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheSweepData {
    /// The workloads each configuration ran.
    pub workloads: Vec<CacheWorkload>,
    /// The (mode, capacity, ttl_us) arms each (workload, configuration)
    /// ran (capacity 0 = off; ttl 0 = no expiry).
    pub arms: Vec<(CacheMode, usize, u64)>,
    /// The client ladder.
    pub clients: Vec<usize>,
    /// All measured points.
    pub points: Vec<CachePoint>,
}

impl CacheSweepData {
    /// The point for an exact (workload, config, mode, capacity, ttl,
    /// clients) tuple.
    #[allow(clippy::too_many_arguments)]
    pub fn point(
        &self,
        workload: CacheWorkload,
        config: StandardConfig,
        mode: CacheMode,
        capacity: usize,
        ttl_us: u64,
        clients: usize,
    ) -> Option<&CachePoint> {
        self.points.iter().find(|p| {
            p.workload == workload
                && p.config == config
                && p.mode == mode
                && p.capacity == capacity
                && p.ttl_us == ttl_us
                && p.clients == clients
        })
    }

    /// Best throughput any arm of `mode` reaches for (workload, config) at
    /// the largest client count.
    pub fn best_at_peak_clients(
        &self,
        workload: CacheWorkload,
        config: StandardConfig,
        mode: CacheMode,
    ) -> Option<f64> {
        let &peak = self.clients.last()?;
        self.points
            .iter()
            .filter(|p| {
                p.workload == workload && p.config == config && p.mode == mode && p.clients == peak
            })
            .map(|p| p.throughput_ipm)
            .max_by(f64::total_cmp)
    }
}

/// Runs one sweep point: fresh database fork, one experiment under the
/// arm's cache policy, then the consistency audit. Self-contained and
/// deterministically seeded, so points can run in any order or in parallel
/// without changing results.
#[allow(clippy::too_many_arguments)]
fn run_cache_point(
    cfg: &HarnessConfig,
    base_db: &dynamid_sqldb::Database,
    workload: CacheWorkload,
    config: StandardConfig,
    mode: CacheMode,
    capacity: usize,
    ttl_us: u64,
    clients: usize,
) -> CachePoint {
    let mix = workload.mix();
    let mut spec = ExperimentSpec::for_config(config)
        .mix(&mix)
        .workload(crate::figures::sweep_workload(cfg, clients))
        .policy(cfg.policy);
    if let Some(policy) = mode.policy(capacity, ttl_us) {
        spec = spec.caching(policy);
    }
    let (r, report) = run_audited(workload.benchmark(), cfg.scale, base_db, &spec);
    if mode.must_audit_clean() {
        report.assert_clean(&format!(
            "{} workload={} cache={} capacity={capacity} clients={clients}",
            config.paper_name(),
            workload.label(),
            mode.label()
        ));
    }
    let cache = r.cache_stats.unwrap_or_default();
    if cfg.verbose {
        eprintln!(
            "  {:<22} {:<19} cache={:<4} cap={:<5} ttl={:<8} clients={:<5} ipm={:>9.0} \
             q-hit={:.2} m-hit={:.2} audit {}/{}",
            config.paper_name(),
            workload.label(),
            mode.label(),
            capacity,
            ttl_us,
            clients,
            r.throughput_ipm,
            cache.query_hit_rate(),
            cache.method_hit_rate(),
            report.violations.len(),
            report.checks,
        );
    }
    CachePoint {
        workload,
        config,
        mode,
        capacity,
        ttl_us,
        clients,
        throughput_ipm: r.throughput_ipm,
        latency_p90_ms: r.metrics.latency.quantile(0.9).as_micros() as f64 / 1_000.0,
        cache,
        audit_checks: report.checks,
        audit_violations: report.violations.len() as u64,
    }
}

/// Builds the (mode, capacity, ttl) arm list: the off baseline, then TTL
/// arms over `capacities` × `ttls`, then transactional arms over
/// `capacities`.
pub fn cache_arms(capacities: &[usize], ttls: &[u64]) -> Vec<(CacheMode, usize, u64)> {
    let mut arms: Vec<(CacheMode, usize, u64)> = vec![(CacheMode::Off, 0, 0)];
    for &c in capacities {
        arms.extend(ttls.iter().map(|&t| (CacheMode::Ttl, c, t)));
    }
    arms.extend(capacities.iter().map(|&c| (CacheMode::Transactional, c, 0)));
    arms
}

/// Runs the full cache-ablation sweep over `workloads` × `cfg.configs` ×
/// ([`CacheMode::Off`] + cached modes × `capacities` × `ttls`) × the
/// client ladder on [`par_grid`](crate::par_grid), one fresh database fork
/// per point (results are bit-identical for any `--jobs` value).
///
/// # Panics
///
/// Panics when the consistency audit finds a violation at a point whose
/// mode demands coherence (off or transactional) — see the module docs.
pub fn run_cache_sweep(
    cfg: &HarnessConfig,
    workloads: &[CacheWorkload],
    capacities: &[usize],
    ttls: &[u64],
) -> CacheSweepData {
    let clients = if cfg.clients.is_empty() {
        crate::figures::default_clients(Benchmark::Bookstore)
    } else {
        cfg.clients.clone()
    };
    let arms = cache_arms(capacities, ttls);
    let bookstore_db = Benchmark::Bookstore.build_db(cfg.scale, cfg.seed);
    let auction_db = workloads
        .iter()
        .any(|w| w.benchmark() == Benchmark::Auction)
        .then(|| Benchmark::Auction.build_db(cfg.scale, cfg.seed));

    let mut grid = Vec::new();
    for &workload in workloads {
        for &config in &cfg.configs {
            for &arm in &arms {
                grid.extend(clients.iter().map(|&n| (workload, config, arm, n)));
            }
        }
    }
    let points = crate::par_grid(
        cfg.effective_jobs(),
        &grid,
        || (),
        |(), &(workload, config, (mode, capacity, ttl_us), clients)| {
            let base_db = match workload.benchmark() {
                Benchmark::Bookstore => &bookstore_db,
                Benchmark::Auction => auction_db.as_ref().expect("auction population built"),
            };
            run_cache_point(cfg, base_db, workload, config, mode, capacity, ttl_us, clients)
        },
    );
    CacheSweepData { workloads: workloads.to_vec(), arms, clients, points }
}

/// Renders the sweep as CSV (stable column order; used by `repro cache`
/// and byte-compared against `results/golden/cache.csv` by check.sh).
pub fn cache_csv(data: &CacheSweepData) -> String {
    let mut out = String::from(
        "config,workload,mode,capacity,ttl_us,clients,throughput_ipm,latency_p90_ms,\
         query_hits,query_misses,query_invalidations,query_bypasses,\
         method_hits,method_misses,method_invalidations,method_bypasses,\
         audit_checks,audit_violations\n",
    );
    for p in &data.points {
        out.push_str(&format!(
            "{},{},{},{},{},{},{:.1},{:.3},{},{},{},{},{},{},{},{},{},{}\n",
            p.config.paper_name(),
            p.workload.label(),
            p.mode.label(),
            p.capacity,
            p.ttl_us,
            p.clients,
            p.throughput_ipm,
            p.latency_p90_ms,
            p.cache.query_hits,
            p.cache.query_misses,
            p.cache.query_invalidations,
            p.cache.query_bypasses,
            p.cache.method.hits,
            p.cache.method.misses,
            p.cache.method.invalidations,
            p.cache.method.bypasses,
            p.audit_checks,
            p.audit_violations,
        ));
    }
    out
}

/// Renders the headline comparison as markdown: per workload and
/// configuration, the throughput at the largest client count for each arm,
/// the uplift of the best transactional arm over cache-off, and (on the
/// bookstore browsing mix) the EJB+cache versus best-servlet gap the sweep
/// exists to quantify.
pub fn cache_markdown(data: &CacheSweepData) -> String {
    let mut out =
        String::from("# Cache ablation: throughput (ipm) at the largest client count\n\n");
    let Some(&peak) = data.clients.last() else { return out };
    for &workload in &data.workloads {
        out.push_str(&format!("## {} at {peak} clients\n\n| config |", workload.label()));
        for &(mode, cap, ttl) in &data.arms {
            match mode {
                CacheMode::Off => out.push_str(" off |"),
                CacheMode::Ttl => out.push_str(&format!(" ttl@{cap}/{:.2}s |", ttl as f64 / 1e6)),
                CacheMode::Transactional => out.push_str(&format!(" txn@{cap} |")),
            }
        }
        out.push_str(" txn uplift |\n|---|");
        for _ in &data.arms {
            out.push_str("---|");
        }
        out.push_str("---|\n");
        let mut configs: Vec<StandardConfig> = Vec::new();
        for p in &data.points {
            if p.workload == workload && !configs.contains(&p.config) {
                configs.push(p.config);
            }
        }
        for &config in &configs {
            out.push_str(&format!("| {} |", config.paper_name()));
            for &(mode, cap, ttl) in &data.arms {
                match data.point(workload, config, mode, cap, ttl, peak) {
                    Some(p) => out.push_str(&format!(" {:.0} |", p.throughput_ipm)),
                    None => out.push_str(" - |"),
                }
            }
            let off = data.best_at_peak_clients(workload, config, CacheMode::Off).unwrap_or(0.0);
            let txn = data
                .best_at_peak_clients(workload, config, CacheMode::Transactional)
                .unwrap_or(0.0);
            if off > 0.0 {
                out.push_str(&format!(" {:+.0}% |\n", (txn / off - 1.0) * 100.0));
            } else {
                out.push_str(" - |\n");
            }
        }
        out.push('\n');
    }
    // The headline: does transactional caching close the EJB-vs-servlet
    // gap the paper measured? (Bookstore browsing, the paper's Figure 7
    // territory.)
    let wl = CacheWorkload::BookstoreBrowsing;
    let ejb = StandardConfig::EjbFourTier;
    let mut configs: Vec<StandardConfig> = Vec::new();
    for p in &data.points {
        if p.workload == wl && !configs.contains(&p.config) {
            configs.push(p.config);
        }
    }
    let servlet_best = configs
        .iter()
        .filter(|c| !matches!(c, StandardConfig::EjbFourTier))
        .filter_map(|&c| data.best_at_peak_clients(wl, c, CacheMode::Off).map(|t| (c, t)))
        .max_by(|a, b| a.1.total_cmp(&b.1));
    if let (Some(off), Some(txn), Some((sc, st))) = (
        data.best_at_peak_clients(wl, ejb, CacheMode::Off),
        data.best_at_peak_clients(wl, ejb, CacheMode::Transactional),
        servlet_best,
    ) {
        out.push_str(&format!(
            "EJB four-tier at {peak} clients (bookstore browsing): {off:.0} ipm uncached vs \
             {txn:.0} ipm with transactional caching ({:+.0}%); best non-EJB config uncached \
             ({}) reaches {st:.0} ipm — the cached EJB stack runs at {:.0}% of it \
             (uncached: {:.0}%).\n",
            (txn / off - 1.0) * 100.0,
            sc.paper_name(),
            txn / st * 100.0,
            off / st * 100.0,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> HarnessConfig {
        let mut cfg = HarnessConfig::smoke();
        cfg.configs = vec![StandardConfig::PhpColocated, StandardConfig::EjbFourTier];
        cfg.clients = vec![10];
        cfg.jobs = 1;
        cfg
    }

    #[test]
    fn sweep_covers_grid_and_caches_actually_hit() {
        let data = run_cache_sweep(&tiny(), &CACHE_WORKLOADS, &[1024], &[CACHE_TTL_MICROS]);
        // 3 workloads × 2 configs × (off + ttl×1 + txn×1) × 1 client count.
        assert_eq!(data.points.len(), 3 * 2 * 3);
        for p in &data.points {
            assert!(p.throughput_ipm > 0.0, "{} produced no throughput", p.config);
            match p.mode {
                CacheMode::Off => assert_eq!(p.cache, CacheStats::default()),
                _ => assert!(
                    p.cache.query_hits > 0,
                    "{} {} {}: query cache never hit",
                    p.config,
                    p.workload.label(),
                    p.mode.label()
                ),
            }
            // Off and transactional points reached us, so they audited
            // clean (assert_clean panics otherwise) — the recorded count
            // must agree.
            if p.mode.must_audit_clean() {
                assert_eq!(p.audit_violations, 0);
            }
            assert!(p.audit_checks > 0, "audit ran no checks");
        }
        // The EJB configuration's method cache participates.
        let ejb_txn = data
            .point(
                CacheWorkload::BookstoreBrowsing,
                StandardConfig::EjbFourTier,
                CacheMode::Transactional,
                1024,
                0,
                10,
            )
            .expect("grid point");
        assert!(ejb_txn.cache.method.hits > 0, "method cache never hit on the EJB config");
        let csv = cache_csv(&data);
        assert_eq!(csv.lines().count(), 1 + data.points.len());
        assert!(csv.starts_with("config,workload,mode,capacity,ttl_us,clients,"));
        let md = cache_markdown(&data);
        assert!(md.contains("EJB four-tier"));
        assert!(md.contains("auction-bidding"));
    }

    #[test]
    fn ttl_axis_changes_expiry_and_arms_enumerate_in_order() {
        let arms = cache_arms(&[64, 128], &[100, 200]);
        assert_eq!(
            arms,
            vec![
                (CacheMode::Off, 0, 0),
                (CacheMode::Ttl, 64, 100),
                (CacheMode::Ttl, 64, 200),
                (CacheMode::Ttl, 128, 100),
                (CacheMode::Ttl, 128, 200),
                (CacheMode::Transactional, 64, 0),
                (CacheMode::Transactional, 128, 0),
            ]
        );
        assert_eq!(
            CacheMode::Ttl.policy(64, 100).expect("ttl arm").invalidation,
            CacheInvalidation::Ttl(100)
        );
        assert_eq!(CacheMode::Off.policy(64, 100), None);
    }

    #[test]
    fn sweep_is_bit_identical_for_any_job_count() {
        let serial = tiny();
        let mut parallel = serial.clone();
        parallel.jobs = 4;
        let workloads = [CacheWorkload::BookstoreBrowsing, CacheWorkload::AuctionBidding];
        let a = run_cache_sweep(&serial, &workloads, &[256], &DEFAULT_CACHE_TTLS);
        let b = run_cache_sweep(&parallel, &workloads, &[256], &DEFAULT_CACHE_TTLS);
        assert_eq!(a, b, "--jobs changed cache sweep results");
        assert_eq!(cache_csv(&a), cache_csv(&b));
    }
}
