//! The paper's experiment catalog: one entry per throughput/CPU figure
//! pair, plus the sweep runner that regenerates them.

use crate::HarnessConfig;
use dynamid_auction::{Auction, AuctionScale};
use dynamid_bookstore::{Bookstore, BookstoreScale};
use dynamid_core::{Application, StandardConfig};
use dynamid_sim::EngineStats;
use dynamid_sqldb::Database;
use dynamid_workload::{ArrivalProcess, ExperimentResult, ExperimentSpec, Mix, WorkloadConfig};

/// Which benchmark application a figure uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Benchmark {
    /// TPC-W online bookstore.
    Bookstore,
    /// Auction site.
    Auction,
}

impl Benchmark {
    /// The populated database for this benchmark at `scale` and `seed`.
    /// It depends on nothing else — never on the deployment — so one
    /// build serves every point of a sweep through cheap forks.
    pub fn build_db(self, scale: f64, seed: u64) -> Database {
        match self {
            Benchmark::Bookstore => {
                dynamid_bookstore::build_db(&BookstoreScale::scaled(scale), seed)
            }
            Benchmark::Auction => dynamid_auction::build_db(&AuctionScale::scaled(scale), seed),
        }
        .expect("population")
    }
}

/// One throughput-curve figure and its companion CPU-utilization figure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FigurePair {
    /// Paper id of the throughput figure ("fig05").
    pub throughput_id: &'static str,
    /// Paper id of the CPU figure ("fig06").
    pub cpu_id: &'static str,
    /// The benchmark.
    pub benchmark: Benchmark,
    /// Mix name within the benchmark.
    pub mix: &'static str,
    /// Human-readable description.
    pub title: &'static str,
}

/// All five figure pairs of the paper's evaluation (Figures 5–14).
pub const FIGURES: [FigurePair; 5] = [
    FigurePair {
        throughput_id: "fig05",
        cpu_id: "fig06",
        benchmark: Benchmark::Bookstore,
        mix: "shopping",
        title: "Online bookstore, shopping mix (80/20)",
    },
    FigurePair {
        throughput_id: "fig07",
        cpu_id: "fig08",
        benchmark: Benchmark::Bookstore,
        mix: "browsing",
        title: "Online bookstore, browsing mix (95/5)",
    },
    FigurePair {
        throughput_id: "fig09",
        cpu_id: "fig10",
        benchmark: Benchmark::Bookstore,
        mix: "ordering",
        title: "Online bookstore, ordering mix (50/50)",
    },
    FigurePair {
        throughput_id: "fig11",
        cpu_id: "fig12",
        benchmark: Benchmark::Auction,
        mix: "bidding",
        title: "Auction site, bidding mix (15% read-write)",
    },
    FigurePair {
        throughput_id: "fig13",
        cpu_id: "fig14",
        benchmark: Benchmark::Auction,
        mix: "browsing",
        title: "Auction site, browsing mix (read-only)",
    },
];

/// Looks a figure pair up by either of its ids or by
/// `"<benchmark>-<mix>"`.
pub fn find_figure(key: &str) -> Option<FigurePair> {
    FIGURES.iter().copied().find(|f| {
        f.throughput_id == key
            || f.cpu_id == key
            || format!(
                "{}-{}",
                match f.benchmark {
                    Benchmark::Bookstore => "bookstore",
                    Benchmark::Auction => "auction",
                },
                f.mix
            ) == key
    })
}

/// One sweep point: a full experiment at one client count.
#[derive(Debug, Clone, PartialEq)]
pub struct CurvePoint {
    /// Offered clients.
    pub clients: usize,
    /// Measured throughput (interactions per minute).
    pub ipm: f64,
    /// Fraction of completions that errored.
    pub error_rate: f64,
    /// Per-machine CPU utilization (0..1) over the window.
    pub cpu: Vec<(String, f64)>,
    /// Per-machine NIC throughput (Mb/s) over the window.
    pub nic: Vec<(String, f64)>,
    /// Total lock wait time per completed interaction (ms) — contention
    /// diagnostic.
    pub lock_wait_ms_per_interaction: f64,
    /// Median response time (ms) of window completions.
    pub latency_p50_ms: f64,
    /// 90th-percentile response time (ms).
    pub latency_p90_ms: f64,
    /// Engine-level event accounting for the run behind this point
    /// (host-cost diagnostics: calendar traffic, stale-event ratio,
    /// calendar high-water mark). Not part of any figure CSV.
    pub engine: EngineStats,
}

impl CurvePoint {
    fn from_result(r: &ExperimentResult) -> CurvePoint {
        let lock_wait_ms = if r.metrics.completed > 0 {
            r.lock_stats.wait_micros as f64 / 1_000.0 / r.metrics.completed as f64
        } else {
            0.0
        };
        CurvePoint {
            clients: r.clients,
            ipm: r.throughput_ipm,
            error_rate: r.metrics.error_rate(),
            cpu: r.resources.cpu_util.clone(),
            nic: r.resources.nic_mbps.clone(),
            lock_wait_ms_per_interaction: lock_wait_ms,
            latency_p50_ms: r.metrics.latency.quantile(0.5).as_micros() as f64 / 1000.0,
            latency_p90_ms: r.metrics.latency.quantile(0.9).as_micros() as f64 / 1000.0,
            engine: r.engine,
        }
    }

    /// CPU utilization of the named machine, if present.
    pub fn cpu_of(&self, machine: &str) -> Option<f64> {
        self.cpu.iter().find(|(n, _)| n == machine).map(|(_, u)| *u)
    }

    /// NIC Mb/s of the named machine, if present.
    pub fn nic_of(&self, machine: &str) -> Option<f64> {
        self.nic.iter().find(|(n, _)| n == machine).map(|(_, u)| *u)
    }

    /// CPU utilization of the busiest web-tier machine (`web` or
    /// `web-<i>` in a farm), if any. Equals [`cpu_of`](Self::cpu_of)
    /// `("web")` for single-web deployments.
    pub fn web_cpu(&self) -> Option<f64> {
        Self::web_max(&self.cpu)
    }

    /// NIC Mb/s of the busiest web-tier machine — the saturation view:
    /// each machine owns a 100 Mb/s NIC, so the farm bottlenecks when
    /// its *busiest* member's NIC fills, not the sum.
    pub fn web_nic(&self) -> Option<f64> {
        Self::web_max(&self.nic)
    }

    fn web_max(series: &[(String, f64)]) -> Option<f64> {
        series
            .iter()
            .filter(|(n, _)| n == "web" || n.starts_with("web-"))
            .map(|(_, u)| *u)
            .fold(None, |acc, u| Some(acc.map_or(u, |a: f64| a.max(u))))
    }
}

/// The sweep of one deployment configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ConfigCurve {
    /// The deployment.
    pub config: StandardConfig,
    /// Points in increasing client order.
    pub points: Vec<CurvePoint>,
}

impl ConfigCurve {
    /// The point with the highest throughput.
    pub fn peak(&self) -> &CurvePoint {
        self.points
            .iter()
            .max_by(|a, b| a.ipm.total_cmp(&b.ipm))
            .expect("curve has at least one point")
    }
}

/// A fully executed figure pair.
#[derive(Debug, Clone, PartialEq)]
pub struct FigureData {
    /// Which figure this is.
    pub pair: FigurePair,
    /// One curve per deployment configuration.
    pub curves: Vec<ConfigCurve>,
}

impl FigureData {
    /// The curve for one configuration.
    pub fn curve(&self, config: StandardConfig) -> Option<&ConfigCurve> {
        self.curves.iter().find(|c| c.config == config)
    }
}

pub(crate) fn mix_for(pair: &FigurePair) -> Mix {
    match (pair.benchmark, pair.mix) {
        (Benchmark::Bookstore, "browsing") => dynamid_bookstore::mixes::browsing(),
        (Benchmark::Bookstore, "shopping") => dynamid_bookstore::mixes::shopping(),
        (Benchmark::Bookstore, "ordering") => dynamid_bookstore::mixes::ordering(),
        (Benchmark::Auction, "bidding") => dynamid_auction::mixes::bidding(),
        (Benchmark::Auction, "browsing") => dynamid_auction::mixes::browsing(),
        other => panic!("unknown benchmark/mix {other:?}"),
    }
}

/// Default client sweep for a benchmark at population scale 1.0. Chosen to
/// bracket the saturation knee of every configuration under the default
/// cost model.
pub fn default_clients(benchmark: Benchmark) -> Vec<usize> {
    match benchmark {
        Benchmark::Bookstore => vec![50, 100, 150, 225, 325, 450],
        Benchmark::Auction => vec![100, 250, 500, 800, 1200, 1700, 2300, 3000],
    }
}

/// Builds a fresh application instance for one experiment point.
///
/// Applications hold per-run state and are not shareable across threads,
/// but constructing one is trivial next to the seconds-long experiment it
/// drives.
pub(crate) fn make_app(benchmark: Benchmark, scale: f64) -> Box<dyn Application> {
    match benchmark {
        Benchmark::Bookstore => Box::new(Bookstore::new(BookstoreScale::scaled(scale))),
        Benchmark::Auction => Box::new(Auction::new(AuctionScale::scaled(scale))),
    }
}

/// The workload phases for one sweep point: harness phase lengths with
/// the point seed derived only from the master seed and the client count.
pub fn sweep_workload(cfg: &HarnessConfig, clients: usize) -> WorkloadConfig {
    WorkloadConfig {
        clients,
        think_time: cfg.think_time,
        session_time: cfg.session_time,
        ramp_up: cfg.ramp_up,
        measure: cfg.measure,
        ramp_down: cfg.ramp_down,
        seed: cfg.seed ^ clients as u64,
        resilience: Default::default(),
        arrivals: ArrivalProcess::Closed,
        timeline_bucket: None,
    }
}

/// Runs one (configuration, client count) point of a sweep.
///
/// Each point is fully self-contained: it starts from the pristine
/// populated database (the worker rewinds its fork between points), builds
/// its own application instance, and derives its seed only from the master
/// seed and the client count. That independence is what makes the parallel
/// sweep in [`run_figure`] bit-identical to the sequential one — no state
/// flows between points, in either order of execution. (Statement and plan
/// caches do stay warm across points within a worker, but statement cost
/// is a pure function of per-query counters, never of cache warmth.)
fn run_point(
    pair: &FigurePair,
    cfg: &HarnessConfig,
    db: &mut Database,
    mix: &Mix,
    config: StandardConfig,
    n: usize,
) -> CurvePoint {
    let stats_before = db.stats();
    let app = make_app(pair.benchmark, cfg.scale);
    let result = ExperimentSpec::for_config(config)
        .mix(mix)
        .workload(sweep_workload(cfg, n))
        .policy(cfg.policy)
        .defer_unwind(true)
        .run(db, app.as_ref());
    if cfg.verbose {
        let s = db.stats();
        let hits = s.plan_cache_hits - stats_before.plan_cache_hits;
        let misses = s.plan_cache_misses - stats_before.plan_cache_misses;
        eprintln!(
            "  {:<22} clients={:<6} ipm={:>9.0} errors={:.2}% plan-cache {hits}/{} hits",
            config.paper_name(),
            n,
            result.throughput_ipm,
            result.metrics.error_rate() * 100.0,
            hits + misses,
        );
    }
    CurvePoint::from_result(&result)
}

/// Runs the full sweep for one figure pair.
///
/// The (configuration × client count) grid runs on [`HarnessConfig::jobs`]
/// workers through [`par_grid`](crate::par_grid); every point is
/// independent and deterministically seeded, so the returned curves are
/// bit-identical regardless of thread count — `--jobs 1` and `--jobs 8`
/// produce the same [`FigureData`]. Points are returned in sweep order
/// (configurations in `cfg.configs` order, client counts ascending as
/// given).
pub fn run_figure(pair: FigurePair, cfg: &HarnessConfig) -> FigureData {
    let clients =
        if cfg.clients.is_empty() { default_clients(pair.benchmark) } else { cfg.clients.clone() };
    let mix = mix_for(&pair);
    let base_db = pair.benchmark.build_db(cfg.scale, cfg.seed);
    let grid: Vec<(StandardConfig, usize)> =
        cfg.configs.iter().flat_map(|&c| clients.iter().map(move |&n| (c, n))).collect();

    // Each worker holds ONE copy-on-write fork of the base database for its
    // whole lifetime and rewinds it to pristine between points, so the
    // per-point cost is proportional to the rows the point touched instead
    // of a table clone (O(pages)) for every table it writes, plus the page
    // copies, and their drop, per point. A point whose run
    // performed a mutation the rewind journal cannot exactly reverse (an
    // in-flight abort's rollback) poisons the journal; the worker then
    // discards the fork and re-clones — correctness never depends on
    // approximate unwinding.
    let fork = || {
        let mut db = base_db.clone();
        db.begin_rewind();
        db
    };
    let points = crate::par_grid(cfg.effective_jobs(), &grid, fork, |db, &(config, n)| {
        let point = run_point(&pair, cfg, db, &mix, config, n);
        if !db.rewind() {
            *db = fork();
        }
        debug_assert!(
            db.same_data(&base_db),
            "rewind must restore the pristine populated database"
        );
        point
    });

    let mut points = points.into_iter();
    let curves = cfg
        .configs
        .iter()
        .map(|config| ConfigCurve {
            config: *config,
            points: points.by_ref().take(clients.len()).collect(),
        })
        .collect();
    FigureData { pair, curves }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_covers_all_ten_figures() {
        assert_eq!(FIGURES.len(), 5);
        let ids: Vec<&str> = FIGURES.iter().flat_map(|f| [f.throughput_id, f.cpu_id]).collect();
        assert_eq!(
            ids,
            vec![
                "fig05", "fig06", "fig07", "fig08", "fig09", "fig10", "fig11", "fig12", "fig13",
                "fig14"
            ]
        );
    }

    #[test]
    fn lookup_by_any_key() {
        assert_eq!(find_figure("fig05").unwrap().mix, "shopping");
        assert_eq!(find_figure("fig12").unwrap().mix, "bidding");
        assert_eq!(find_figure("bookstore-ordering").unwrap().cpu_id, "fig10");
        assert_eq!(find_figure("auction-browsing").unwrap().throughput_id, "fig13");
        assert!(find_figure("fig99").is_none());
    }

    #[test]
    fn tiny_sweep_produces_curves() {
        let cfg = HarnessConfig::smoke();
        let pair = find_figure("fig11").unwrap();
        let data = run_figure(pair, &cfg);
        assert_eq!(data.curves.len(), cfg.configs.len());
        for curve in &data.curves {
            assert_eq!(curve.points.len(), cfg.clients.len());
            assert!(curve.peak().ipm > 0.0, "{}", curve.config);
            // Every point reports the web and db machines.
            for p in &curve.points {
                assert!(p.cpu_of("web").is_some());
                assert!(p.cpu_of("db").is_some());
                assert!(p.nic_of("web").is_some());
            }
        }
        assert!(data.curve(cfg.configs[0]).is_some());
    }

    /// A multi-threaded sweep must be bit-identical to the sequential
    /// one: every point is independent and deterministically seeded, so
    /// thread count only changes wall-clock time.
    #[test]
    fn parallel_sweep_matches_sequential() {
        let mut cfg = HarnessConfig::smoke();
        let pair = find_figure("fig05").unwrap();
        cfg.jobs = 1;
        let sequential = run_figure(pair, &cfg);
        cfg.jobs = 4;
        let parallel = run_figure(pair, &cfg);
        assert_eq!(sequential, parallel);
    }
}
