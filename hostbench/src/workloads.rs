//! The three benchmark workloads. Each one puts a different layer on the
//! host's critical path:
//!
//! * `bookstore-ordering` — closed loop, 50/50 read/write ordering mix on a
//!   large bookstore (scale 0.3), 30 clients with 1 s think time, on the
//!   paper's six configurations (C1 `LOCK TABLES`, C3 container locks, C6
//!   EJB among them): handlers, and so sqldb, dominate.
//! * `auction-browsing` — closed loop, read-only auction browsing at 3200
//!   clients on a small auction (scale 0.05), on C1, C4 and C8: the web
//!   tier saturates and the event engine dominates.
//! * `flash-crowd-cached` — open loop, bookstore shopping mix through a 6x
//!   flash crowd with transactional result and method caching, naive vs
//!   full overload control on C1 and C6: sessions on demand, timeouts,
//!   retries, shedding, a breaker and a hot result cache. Each open arrival
//!   is a one-interaction session entering the mix at Home, so the crowd
//!   is read-only: nothing commits and nothing invalidates the cache, as in
//!   the repository's own flash-crowd sweep.
//!
//! Every point simulates 2 s of ramp-up, an 8 s window and 1 s of
//! ramp-down.
//!
//! Every input derives from the seed: the populated database, the client
//! streams and the arrival tape.

use dynamid_auction::{Auction, AuctionScale};
use dynamid_bookstore::{Bookstore, BookstoreScale};
use dynamid_core::{
    AdmissionControl, Application, BreakerPolicy, CacheInvalidation, CachePolicy, CacheScope,
    OverloadControl, StandardConfig,
};
use dynamid_harness::AuditReport;
use dynamid_sim::SimDuration;
use dynamid_sqldb::Database;
use dynamid_workload::{
    ArrivalProcess, CommitLedger, ExperimentSpec, Mix, ResilienceConfig, RetryBudget,
    WorkloadConfig,
};

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The sqldb-bound case.
    BookstoreOrdering,
    /// The engine-bound case.
    AuctionBrowsing,
    /// The overload and cache path.
    FlashCrowdCached,
}

/// Every workload, in the order `--workload` lists them.
pub const ALL: [Workload; 3] =
    [Workload::BookstoreOrdering, Workload::AuctionBrowsing, Workload::FlashCrowdCached];

/// Base arrival rate of the flash crowd (req/s): C1's calibrated base rate
/// in `results/golden/overload.csv`, pinned so the benchmark never
/// recalibrates.
const FLASH_BASE_RPS: f64 = 153.8;
/// Spike multiplier of the flash crowd.
const FLASH_SPIKE_MULT: f64 = 6.0;
/// Entry capacity of each enabled cache layer.
const CACHE_CAPACITY: usize = 4096;

// Run shape shared by every point (simulated seconds).
const RAMP_UP_SECS: u64 = 2;
const MEASURE_SECS: u64 = 8;
const RAMP_DOWN_SECS: u64 = 1;

/// One sweep point: a deployment plus the knobs that differ per point.
#[derive(Debug, Clone)]
pub struct Point {
    /// Short label, e.g. `C3` or `C6/full`.
    pub label: String,
    config: StandardConfig,
    workload: WorkloadConfig,
    admission: Option<AdmissionControl>,
    overload: OverloadControl,
    caching: Option<CachePolicy>,
}

impl Point {
    fn closed(config: StandardConfig, workload: WorkloadConfig) -> Self {
        Point {
            label: config.code().to_string(),
            config,
            workload,
            admission: None,
            overload: OverloadControl::default(),
            caching: None,
        }
    }

    /// The experiment this point runs. Tracing inside the program stays
    /// off: the benchmark records its own spans.
    pub fn spec<'a>(&self, mix: &'a Mix) -> ExperimentSpec<'a> {
        let mut spec = ExperimentSpec::for_config(self.config)
            .mix(mix)
            .workload(self.workload.clone())
            .overload(self.overload)
            .tracing(false);
        if let Some(a) = self.admission {
            spec = spec.admission(a);
        }
        if let Some(c) = self.caching {
            spec = spec.caching(c);
        }
        spec
    }

    /// The same point with a 3 s window, for the decorator self-test.
    pub fn shortened(&self) -> Point {
        let mut p = self.clone();
        p.workload.ramp_up = SimDuration::from_secs(1);
        p.workload.measure = SimDuration::from_secs(3);
        p.workload.ramp_down = SimDuration::from_millis(500);
        p
    }
}

fn phases(mut w: WorkloadConfig, seed: u64) -> WorkloadConfig {
    w.ramp_up = SimDuration::from_secs(RAMP_UP_SECS);
    w.measure = SimDuration::from_secs(MEASURE_SECS);
    w.ramp_down = SimDuration::from_secs(RAMP_DOWN_SECS);
    w.seed = seed;
    w
}

/// The application under test, with the auditor that matches it.
pub enum App {
    /// TPC-W-like bookstore.
    Bookstore(Bookstore),
    /// RUBiS-like auction site.
    Auction(Auction),
}

impl App {
    /// The bare application.
    pub fn as_dyn(&self) -> &dyn Application {
        match self {
            App::Bookstore(a) => a,
            App::Auction(a) => a,
        }
    }

    /// The post-run consistency audit for this application.
    pub fn audit(&self, base: &Database, fin: &Database, ledger: &CommitLedger) -> AuditReport {
        match self {
            App::Bookstore(_) => dynamid_harness::audit_bookstore(base, fin, ledger),
            App::Auction(_) => dynamid_harness::audit_auction(base, fin, ledger),
        }
    }
}

impl Workload {
    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::BookstoreOrdering => "bookstore-ordering",
            Workload::AuctionBrowsing => "auction-browsing",
            Workload::FlashCrowdCached => "flash-crowd-cached",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// Population scale relative to the paper.
    pub fn scale(self) -> f64 {
        match self {
            Workload::BookstoreOrdering => 0.3,
            Workload::AuctionBrowsing => 0.05,
            Workload::FlashCrowdCached => 0.1,
        }
    }

    /// Populates the base database at `scale` (the set-up being timed).
    pub fn build_db(self, scale: f64, seed: u64) -> Database {
        match self {
            Workload::AuctionBrowsing => {
                dynamid_auction::build_db(&AuctionScale::scaled(scale), seed)
            }
            _ => dynamid_bookstore::build_db(&BookstoreScale::scaled(scale), seed),
        }
        .expect("populating a generated database cannot fail")
    }

    /// The application, sized like the database at `scale`.
    pub fn app(self, scale: f64) -> App {
        match self {
            Workload::AuctionBrowsing => App::Auction(Auction::new(AuctionScale::scaled(scale))),
            _ => App::Bookstore(Bookstore::new(BookstoreScale::scaled(scale))),
        }
    }

    /// The interaction mix clients draw from.
    pub fn mix(self) -> Mix {
        match self {
            Workload::BookstoreOrdering => dynamid_bookstore::mixes::ordering(),
            Workload::AuctionBrowsing => dynamid_auction::mixes::browsing(),
            Workload::FlashCrowdCached => dynamid_bookstore::mixes::shopping(),
        }
    }

    /// The points one round runs, in order.
    pub fn points(self, seed: u64) -> Vec<Point> {
        use StandardConfig::*;
        match self {
            Workload::BookstoreOrdering => {
                let mut w = WorkloadConfig::new(30);
                w.think_time = SimDuration::from_secs(1);
                // Each configuration draws its own client streams, so the
                // few scan-heavy interactions a seed happens to draw do not
                // repeat in all six points and swing the whole round.
                (0u64..)
                    .zip(StandardConfig::ALL)
                    .map(|(i, c)| Point::closed(c, phases(w.clone(), seed ^ (i << 32))))
                    .collect()
            }
            Workload::AuctionBrowsing => [PhpColocated, ServletDedicated, WebFarm]
                .map(|c| Point::closed(c, phases(WorkloadConfig::new(3200), seed)))
                .to_vec(),
            Workload::FlashCrowdCached => {
                let mut points = Vec::new();
                for config in [PhpColocated, EjbFourTier] {
                    for full in [false, true] {
                        points.push(flash_point(config, full, seed));
                    }
                }
                points
            }
        }
    }
}

/// One flash-crowd point: 2 s of base load, a 3 s spike at 6x with a 1 s
/// ramp-down, then 2 s of recovery inside the window. Clients time out at
/// 2 s and retry twice; the `full` arm sheds stale waiters, opens a breaker
/// on the DB pool and budgets retries, the naive arm does none of that.
fn flash_point(config: StandardConfig, full: bool, seed: u64) -> Point {
    let mut w = phases(WorkloadConfig::new(0), seed);
    w.arrivals = ArrivalProcess::FlashCrowd {
        base_rate: FLASH_BASE_RPS,
        spike_mult: FLASH_SPIKE_MULT,
        spike_start: SimDuration::from_secs(RAMP_UP_SECS + 2),
        spike_len: SimDuration::from_secs(3),
        ramp_down: SimDuration::from_secs(1),
    };
    w.resilience = ResilienceConfig {
        request_timeout: Some(SimDuration::from_secs(2)),
        max_retries: 2,
        backoff_base: SimDuration::from_millis(250),
        backoff_cap: SimDuration::from_secs(1),
        retry_budget: full.then_some(RetryBudget { per_fresh: 0.1, burst: 10.0 }),
    };
    let shed = full.then_some(SimDuration::from_millis(500));
    Point {
        label: format!("{}/{}", config.code(), if full { "full" } else { "naive" }),
        config,
        workload: w,
        admission: Some(AdmissionControl {
            web_accept_queue: None,
            db_connections: Some(16),
            db_accept_queue: None,
        }),
        overload: OverloadControl {
            web_shed_target: shed,
            db_shed_target: shed,
            breaker: full.then_some(BreakerPolicy {
                failure_threshold: 8,
                cooldown: SimDuration::from_secs(1),
            }),
        },
        caching: Some(CachePolicy {
            capacity: CACHE_CAPACITY,
            scope: CacheScope::Both,
            invalidation: CacheInvalidation::Transactional,
        }),
    }
}
