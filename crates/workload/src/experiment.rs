//! One-call experiment execution: install a deployment, run the client
//! population through its phases, and report the paper's metrics.

use crate::driver::{
    CommitLedger, ReplicationReport, ResourceWindow, WorkloadConfig, WorkloadDriver,
    WorkloadMetrics,
};
use crate::fault::FaultSpec;
use crate::mix::Mix;
use dynamid_core::{
    AdmissionControl, Application, CachePolicy, CacheScope, CostModel, InstallOptions,
    MethodCacheConfig, MethodCacheStats, Middleware, OverloadControl, ReplicaPolicy,
    StandardConfig,
};
use dynamid_sim::fault::{CrashWindow, FaultPlan};
use dynamid_sim::{
    EngineStats, ErrorCounters, GrantPolicy, LockStats, SimDuration, SimTime, Simulation,
};
use dynamid_sqldb::{Database, ResultCacheConfig};
use dynamid_trace::TraceCapture;

/// One-way LAN latency between the paper's machines (switched 100 Mb/s
/// Ethernet).
pub const LAN_LATENCY: SimDuration = SimDuration::from_micros(100);

/// Caching-tier counters for one run, present in the result only when the
/// spec enabled caching via [`ExperimentSpec::caching`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Result-cache hits inside the database tier.
    pub query_hits: u64,
    /// Result-cache misses (cacheable statements that executed).
    pub query_misses: u64,
    /// Result-cache entries dropped by commit-driven invalidation.
    pub query_invalidations: u64,
    /// Result-cache lookups bypassed because the open transaction had
    /// written one of the statement's read tables.
    pub query_bypasses: u64,
    /// Middleware session-façade method-cache counters (all zero outside
    /// EJB configurations).
    pub method: MethodCacheStats,
}

impl CacheStats {
    /// Hit rate of the query result cache (0 when it never looked up).
    pub fn query_hit_rate(&self) -> f64 {
        let total = self.query_hits + self.query_misses;
        if total == 0 {
            0.0
        } else {
            self.query_hits as f64 / total as f64
        }
    }

    /// Hit rate of the method cache (0 when it never looked up).
    pub fn method_hit_rate(&self) -> f64 {
        let total = self.method.hits + self.method.misses;
        if total == 0 {
            0.0
        } else {
            self.method.hits as f64 / total as f64
        }
    }
}

/// Everything measured by one experiment run (one configuration at one
/// client count).
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// The deployment configuration measured.
    pub config: StandardConfig,
    /// Offered client population.
    pub clients: usize,
    /// Throughput in interactions per minute over the measurement window.
    pub throughput_ipm: f64,
    /// Workload counters.
    pub metrics: WorkloadMetrics,
    /// Per-machine CPU and NIC usage over the window.
    pub resources: ResourceWindow,
    /// Aggregate lock statistics over the whole run (contention
    /// diagnostics).
    pub lock_stats: LockStats,
    /// Simulator event count (run cost diagnostics).
    pub events: u64,
    /// Engine-level job accounting over the whole run (submitted ==
    /// completed + aborted + rejected once drained).
    pub engine: EngineStats,
    /// Window failure taxonomy (all zero on a healthy run).
    pub errors: ErrorCounters,
    /// Offered load in attempts per minute over the window.
    pub offered_ipm: f64,
    /// Goodput in good responses per minute over the window.
    pub goodput_ipm: f64,
    /// 99th-percentile latency of window completions.
    pub latency_p99: SimDuration,
    /// Committed-transaction receipts over the whole run; transactions
    /// still in flight at the horizon were rolled back before this was
    /// taken, so the final database equals "initial + committed".
    pub ledger: CommitLedger,
    /// Span trace of the run, present only when the spec enabled tracing.
    pub trace: Option<TraceCapture>,
    /// Caching-tier counters, present only when the spec enabled caching.
    pub cache_stats: Option<CacheStats>,
    /// Replication activity (routing, ships, fences, elections, failover
    /// latencies), present only when the spec enabled the replicated tier.
    pub replication: Option<ReplicationReport>,
}

impl ExperimentResult {
    /// CPU utilization (0..1) of the machine with the given name, if it
    /// exists in this deployment.
    pub fn cpu_of(&self, machine: &str) -> Option<f64> {
        self.resources.cpu_util.iter().find(|(n, _)| n == machine).map(|(_, u)| *u)
    }

    /// NIC throughput in Mb/s of the machine with the given name.
    pub fn nic_of(&self, machine: &str) -> Option<f64> {
        self.resources.nic_mbps.iter().find(|(n, _)| n == machine).map(|(_, u)| *u)
    }
}

/// Builder for one experiment run — the single entry point for every
/// combination of configuration, cost model, lock policy, faults,
/// admission control, and tracing.
///
/// Defaults reproduce the paper's setup: default cost model, default lock
/// grant policy, no faults, no admission control, patient clients, and no
/// tracing. Every knob is an orthogonal builder method:
///
/// ```ignore
/// let result = ExperimentSpec::for_config(StandardConfig::EjbFourTier)
///     .mix(&mix)
///     .workload(WorkloadConfig::new(100))
///     .tracing(true)
///     .run(&mut db, &app);
/// ```
#[derive(Debug, Clone)]
pub struct ExperimentSpec<'a> {
    config: StandardConfig,
    costs: CostModel,
    mix: Option<&'a Mix>,
    workload: WorkloadConfig,
    policy: GrantPolicy,
    faults: Option<FaultSpec>,
    admission: AdmissionControl,
    tracing: bool,
    defer_unwind: bool,
    caching: Option<CachePolicy>,
    replication: ReplicaPolicy,
    primary_kill: Option<(SimDuration, SimDuration)>,
    overload: OverloadControl,
}

impl<'a> ExperimentSpec<'a> {
    /// Starts a spec for one deployment configuration with paper defaults
    /// (10 clients until [`workload`](Self::workload) overrides it).
    pub fn for_config(config: StandardConfig) -> Self {
        ExperimentSpec {
            config,
            costs: CostModel::default(),
            mix: None,
            workload: WorkloadConfig::new(10),
            policy: GrantPolicy::default(),
            faults: None,
            admission: AdmissionControl::default(),
            tracing: false,
            defer_unwind: false,
            caching: None,
            replication: ReplicaPolicy::default(),
            primary_kill: None,
            overload: OverloadControl::default(),
        }
    }

    /// The interaction mix clients draw from (required before `run`).
    pub fn mix(mut self, mix: &'a Mix) -> Self {
        self.mix = Some(mix);
        self
    }

    /// Overrides the cost model.
    pub fn costs(mut self, costs: CostModel) -> Self {
        self.costs = costs;
        self
    }

    /// Client population and phase structure.
    pub fn workload(mut self, workload: WorkloadConfig) -> Self {
        self.workload = workload;
        self
    }

    /// Lock grant policy for the simulation.
    pub fn policy(mut self, policy: GrantPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Fault injection compiled against the deployment's server machines.
    pub fn faults(mut self, faults: FaultSpec) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Admission-control limits (bounded accept queue, DB connection pool).
    pub fn admission(mut self, admission: AdmissionControl) -> Self {
        self.admission = admission;
        self
    }

    /// Server-side overload control: deadline-aware queue shedding on the
    /// web/DB pools and a circuit breaker fast-failing attempts while the
    /// DB tier is melting down. Disabled by default (bit-identical to the
    /// paper's setup); pair with an open [`ArrivalProcess`] and a retry
    /// budget to reproduce — and then survive — a flash crowd.
    ///
    /// [`ArrivalProcess`]: crate::arrivals::ArrivalProcess
    pub fn overload(mut self, overload: OverloadControl) -> Self {
        self.overload = overload;
        self
    }

    /// Record span traces: the result's [`trace`](ExperimentResult::trace)
    /// is populated with every completed request's span tree and the
    /// engine's timed op intervals. Recording is purely observational — the
    /// event stream, metrics, and figures are bit-identical either way.
    pub fn tracing(mut self, on: bool) -> Self {
        self.tracing = on;
        self
    }

    /// Enables the transactional caching tier: the database-tier read-query
    /// result cache and/or the middleware session-façade method cache,
    /// per the policy's [`scope`](CachePolicy::scope). Off by default (the
    /// paper's setup); the result's
    /// [`cache_stats`](ExperimentResult::cache_stats) is populated when on.
    /// The result cache is enabled on the database for the duration of the
    /// run and disabled again before returning, so the caller's database is
    /// left in its baseline mode.
    pub fn caching(mut self, policy: CachePolicy) -> Self {
        self.caching = Some(policy);
        self
    }

    /// Installs the replicated DB tier: one primary plus
    /// [`ReplicaPolicy::replicas`] read replicas, with the paper-shaped
    /// primary-copy protocol (committed write-sets shipped as frames with
    /// modeled lag, fencing for replicas that miss frames, lease-based
    /// failover). With `replicas == 0` (the default) nothing is installed
    /// and runs are bit-identical to the single-DB path. The result's
    /// [`replication`](ExperimentResult::replication) is populated when on.
    pub fn replication(mut self, policy: ReplicaPolicy) -> Self {
        self.replication = policy;
        self
    }

    /// Crashes the *initial* primary DB machine at sim-time offset `at`,
    /// restarting it `outage` later — the failover sweep's pinned
    /// mid-measurement kill. Independent of [`faults`](Self::faults) (the
    /// storm), and meaningful with or without replicas: the no-replica
    /// baseline measures the raw outage the failover is supposed to beat.
    pub fn kill_primary(mut self, at: SimDuration, outage: SimDuration) -> Self {
        self.primary_kill = Some((at, outage));
        self
    }

    /// Skip the end-of-run database unwind of in-flight transactions,
    /// leaving their writes in place (ledger accounting is unchanged: they
    /// still count as rolled back). Only correct when the caller restores
    /// the database wholesale after the run — the sweep harness rewinds to
    /// the pristine base between points, which makes the per-transaction
    /// unwind redundant work. Every reported metric is bit-identical either
    /// way; only the post-run table state differs.
    pub fn defer_unwind(mut self, on: bool) -> Self {
        self.defer_unwind = on;
        self
    }

    /// Runs the experiment: installs the deployment, runs the client
    /// population through its phases, unwinds in-flight transactions, and
    /// reports the paper's metrics (plus the trace, when enabled).
    ///
    /// # Panics
    ///
    /// Panics when no mix was set or the simulation fails.
    pub fn run(&self, db: &mut Database, app: &dyn Application) -> ExperimentResult {
        let mix = self.mix.expect("ExperimentSpec::mix must be set before run()");
        let config = self.config;
        let workload = self.workload.clone();
        let mut sim = Simulation::with_policy(LAN_LATENCY, self.policy);
        if self.tracing {
            sim.enable_tracing();
        }
        let query_cache = self
            .caching
            .is_some_and(|p| matches!(p.scope, CacheScope::QueryResults | CacheScope::Both));
        if let Some(p) = self.caching {
            if query_cache {
                db.enable_result_cache(ResultCacheConfig {
                    capacity: p.capacity,
                    invalidation: p.invalidation,
                });
            }
        }
        let db_stats_before = db.stats();
        let middleware = Middleware::install_opts(
            &mut sim,
            config,
            db,
            app,
            self.costs.clone(),
            InstallOptions {
                admission: self.admission,
                tracing: self.tracing,
                method_cache: self.caching.and_then(|p| {
                    matches!(p.scope, CacheScope::Methods | CacheScope::Both).then_some(
                        MethodCacheConfig { capacity: p.capacity, invalidation: p.invalidation },
                    )
                }),
                replication: self.replication,
                overload: self.overload,
            },
        );
        let total = workload.total();
        let mut plan = FaultPlan::none();
        if let Some(spec) = self.faults {
            if !spec.is_trivial() {
                let d = middleware.deployment();
                let mut servers = Vec::new();
                servers.extend(d.front_machine());
                servers.extend_from_slice(d.web_machines());
                if let Some(s) = d.servlet_machine() {
                    if !d.web_machines().contains(&s) {
                        servers.push(s);
                    }
                }
                servers.extend(d.ejb_machine());
                servers.push(d.db_machine());
                // Replica machines ride the same storm; each machine draws
                // from its own forked stream, so adding replicas never
                // perturbs the other machines' fault schedules.
                servers.extend_from_slice(middleware.deployment().replicas());
                plan = spec.compile(&servers, total);
            }
        }
        if let Some((at, outage)) = self.primary_kill {
            plan.crashes.push(CrashWindow {
                machine: middleware.deployment().db_machine(),
                at: SimTime::ZERO + at,
                restart: SimTime::ZERO + at + outage,
            });
        }
        if !plan.is_trivial() {
            sim.install_faults(plan);
        }
        let measure = workload.measure;
        let clients = workload.clients;
        let mut driver = WorkloadDriver::start(&mut sim, app, mix, &middleware, db, workload);
        sim.run(SimTime::ZERO + total, &mut driver).unwrap_or_else(|e| {
            panic!("simulation failed ({config}, {clients} clients): {e}");
        });

        // Crash-consistent unwind: jobs still in flight at the horizon never
        // completed, so their transactions roll back (newest-first) — unless
        // the caller rewinds the whole database afterwards anyway.
        if self.defer_unwind {
            driver.discard_in_flight();
        } else {
            driver.rollback_in_flight();
        }
        let trace = driver.take_trace(&mut sim);
        let replication = driver.replication_report();
        let ledger = driver.ledger().clone();
        let metrics = driver.metrics().clone();
        let resources = driver.resources().clone();
        let throughput_ipm = metrics.throughput_ipm(measure);
        let offered_ipm = metrics.offered_ipm(measure);
        let goodput_ipm = metrics.goodput_ipm(measure);
        let latency_p99 = metrics.latency.quantile(0.99);
        let errors = metrics.errors_detail;
        let cache_stats = self.caching.map(|_| {
            let s1 = db.stats();
            let s0 = db_stats_before;
            CacheStats {
                query_hits: s1.result_cache_hits.saturating_sub(s0.result_cache_hits),
                query_misses: s1.result_cache_misses.saturating_sub(s0.result_cache_misses),
                query_invalidations: s1
                    .result_cache_invalidations
                    .saturating_sub(s0.result_cache_invalidations),
                query_bypasses: s1.result_cache_bypasses.saturating_sub(s0.result_cache_bypasses),
                method: middleware.method_cache_stats().unwrap_or_default(),
            }
        });
        if query_cache {
            db.disable_result_cache();
        }
        ExperimentResult {
            config,
            clients,
            throughput_ipm,
            metrics,
            resources,
            lock_stats: sim.total_lock_stats(),
            events: sim.stats().events,
            engine: sim.stats(),
            errors,
            offered_ipm,
            goodput_ipm,
            latency_p99,
            ledger,
            trace,
            cache_stats,
            replication,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::ResilienceConfig;
    use crate::mix::TransitionMatrix;
    use dynamid_core::{
        AppLockSpec, AppResult, Application, InteractionSpec, LogicStyle, RequestCtx, SessionData,
    };
    use dynamid_sim::SimRng;
    use dynamid_sqldb::{ColumnType, TableSchema, Value};

    /// A two-interaction mini-application with a contended write.
    struct MiniApp;

    impl Application for MiniApp {
        fn name(&self) -> &str {
            "mini"
        }
        fn interactions(&self) -> &[InteractionSpec] {
            &[
                InteractionSpec { name: "Read", read_only: true, secure: false },
                InteractionSpec { name: "Write", read_only: false, secure: false },
            ]
        }
        fn app_locks(&self) -> Vec<AppLockSpec> {
            vec![AppLockSpec::new("counter", 16)]
        }
        fn handle(
            &self,
            id: usize,
            ctx: &mut RequestCtx<'_>,
            _session: &mut SessionData,
            rng: &mut SimRng,
        ) -> AppResult<()> {
            let key = rng.uniform_i64(1, 50);
            match id {
                0 => {
                    let v = if matches!(ctx.style(), LogicStyle::EntityBean) {
                        // Read-only façade, eligible for the method cache
                        // (identical to a plain façade when none is
                        // installed).
                        ctx.facade_cached("Counter.read", &[Value::Int(key)], |em| {
                            match em.find("counters", Value::Int(key))? {
                                Some(h) => em.get(h, "v"),
                                None => Ok(Value::Int(0)),
                            }
                        })?
                        .as_int()
                        .unwrap_or(0)
                    } else {
                        let r =
                            ctx.query("SELECT v FROM counters WHERE id = ?", &[Value::Int(key)])?;
                        r.rows.first().and_then(|r| r[0].as_int()).unwrap_or(0)
                    };
                    ctx.emit(&format!("<html>{v}</html>"));
                }
                _ => {
                    match ctx.style() {
                        LogicStyle::ExplicitSql { sync: false } => {
                            ctx.query("LOCK TABLES counters WRITE", &[])?;
                            ctx.query(
                                "UPDATE counters SET v = v + 1 WHERE id = ?",
                                &[Value::Int(key)],
                            )?;
                            ctx.query("UNLOCK TABLES", &[])?;
                        }
                        LogicStyle::ExplicitSql { sync: true } => {
                            ctx.app_lock("counter", key as u64);
                            ctx.query(
                                "UPDATE counters SET v = v + 1 WHERE id = ?",
                                &[Value::Int(key)],
                            )?;
                            ctx.app_unlock("counter", key as u64);
                        }
                        LogicStyle::EntityBean => {
                            ctx.facade("Counter.incr", |em| {
                                if let Some(h) = em.find("counters", Value::Int(key))? {
                                    let v = em.get(h, "v")?.as_int().unwrap();
                                    em.set(h, "v", Value::Int(v + 1))?;
                                }
                                Ok(())
                            })?;
                        }
                    }
                    ctx.emit("<html>ok</html>");
                }
            }
            Ok(())
        }
    }

    fn mini_db() -> Database {
        let mut db = Database::new();
        db.create_table(
            TableSchema::builder("counters")
                .column("id", ColumnType::Int)
                .column("v", ColumnType::Int)
                .primary_key("id")
                .build()
                .unwrap(),
        )
        .unwrap();
        for i in 1..=50 {
            db.execute("INSERT INTO counters (id, v) VALUES (?, 0)", &[Value::Int(i)]).unwrap();
        }
        db
    }

    fn mini_mix() -> Mix {
        // 70% reads, 30% writes.
        let m = TransitionMatrix::from_rows(vec![vec![0.7, 0.3], vec![0.7, 0.3]]).unwrap();
        Mix::new("mini", m, vec![1.0, 0.0]).unwrap()
    }

    fn quick(clients: usize) -> WorkloadConfig {
        WorkloadConfig {
            clients,
            think_time: SimDuration::from_millis(500),
            session_time: SimDuration::from_secs(60),
            ramp_up: SimDuration::from_secs(2),
            measure: SimDuration::from_secs(10),
            ramp_down: SimDuration::from_secs(1),
            seed: 7,
            resilience: crate::fault::ResilienceConfig::disabled(),
            arrivals: crate::arrivals::ArrivalProcess::Closed,
            timeline_bucket: None,
        }
    }

    #[test]
    fn experiment_produces_throughput_and_utilization() {
        let mix = mini_mix();
        let mut db = mini_db();
        let r = ExperimentSpec::for_config(StandardConfig::PhpColocated)
            .mix(&mix)
            .workload(quick(20))
            .run(&mut db, &MiniApp);
        assert!(r.throughput_ipm > 0.0, "no throughput: {r:?}");
        assert!(r.metrics.completed > 0);
        assert_eq!(r.metrics.error_rate(), 0.0);
        let web = r.cpu_of("web").expect("web machine reported");
        let db = r.cpu_of("db").expect("db machine reported");
        assert!(web > 0.0 && web <= 1.0);
        assert!(db > 0.0 && db <= 1.0);
        assert!(r.nic_of("web").unwrap() > 0.0);
        assert!(r.events > 0);
    }

    #[test]
    fn all_configs_run_the_mini_app() {
        let mix = mini_mix();
        for config in StandardConfig::ALL {
            let mut db = mini_db();
            let r = ExperimentSpec::for_config(config)
                .mix(&mix)
                .workload(quick(10))
                .run(&mut db, &MiniApp);
            assert!(r.throughput_ipm > 0.0, "{config} produced nothing");
            assert_eq!(r.metrics.error_rate(), 0.0, "{config} errored");
        }
    }

    #[test]
    fn determinism_same_seed_same_result() {
        let mix = mini_mix();
        let run = || {
            let mut db = mini_db();
            ExperimentSpec::for_config(StandardConfig::ServletColocated)
                .mix(&mix)
                .workload(quick(10))
                .run(&mut db, &MiniApp)
        };
        let a = run();
        let b = run();
        assert_eq!(a.metrics.completed, b.metrics.completed);
        assert_eq!(a.events, b.events);
        assert_eq!(a.throughput_ipm, b.throughput_ipm);
    }

    #[test]
    fn more_clients_more_throughput_until_saturation() {
        let mix = mini_mix();
        let at = |clients: usize| {
            let mut db = mini_db();
            ExperimentSpec::for_config(StandardConfig::PhpColocated)
                .mix(&mix)
                .workload(quick(clients))
                .run(&mut db, &MiniApp)
        };
        let few = at(5);
        let many = at(50);
        assert!(
            many.throughput_ipm > few.throughput_ipm * 2.0,
            "few={} many={}",
            few.throughput_ipm,
            many.throughput_ipm
        );
    }

    #[test]
    fn database_state_reflects_the_run() {
        let mix = mini_mix();
        let mut db = mini_db();
        let _ = ExperimentSpec::for_config(StandardConfig::PhpColocated)
            .mix(&mix)
            .workload(quick(10))
            .run(&mut db, &MiniApp);
        let total = db.execute("SELECT SUM(v) FROM counters", &[]).unwrap();
        // Some writes happened.
        assert!(total.rows[0][0].as_int().unwrap() > 0);
    }

    #[test]
    fn chaos_run_is_deterministic_and_balanced() {
        use crate::fault::FaultSpec;
        use dynamid_core::AdmissionControl;

        let mix = mini_mix();
        let run = || {
            let mut db = mini_db();
            ExperimentSpec::for_config(StandardConfig::ServletDedicated)
                .mix(&mix)
                .workload(WorkloadConfig {
                    resilience: ResilienceConfig {
                        request_timeout: Some(SimDuration::from_secs(2)),
                        max_retries: 2,
                        backoff_base: SimDuration::from_millis(100),
                        backoff_cap: SimDuration::from_secs(1),
                        retry_budget: None,
                    },
                    ..quick(25)
                })
                .faults(FaultSpec::at_intensity(13, 0.8))
                .admission(AdmissionControl {
                    web_accept_queue: Some(8),
                    db_connections: Some(4),
                    db_accept_queue: Some(2),
                })
                .run(&mut db, &MiniApp)
        };
        let a = run();
        // Conservation: every submission is accounted once. Jobs still in
        // flight at the horizon are the remainder.
        let e = a.engine;
        assert!(e.completed + e.aborted + e.rejected <= e.submitted);
        assert_eq!(e.submitted, a.metrics.submitted_total);
        // The environment was hostile enough to actually exercise the
        // resilience machinery.
        assert!(
            a.errors.failed_attempts() > 0,
            "0.8 intensity produced no failures: {:?}",
            a.errors
        );
        assert!(a.metrics.offered > 0);
        assert!(a.goodput_ipm <= a.throughput_ipm + 1e-9);
        // Determinism: the identical spec replays bit-identically.
        let b = run();
        assert_eq!(a.engine, b.engine);
        assert_eq!(a.errors, b.errors);
        assert_eq!(a.metrics.completed, b.metrics.completed);
        assert_eq!(a.metrics.latency, b.metrics.latency);
        assert_eq!(a.throughput_ipm, b.throughput_ipm);
        assert_eq!(a.latency_p99, b.latency_p99);
    }

    #[test]
    fn aborted_transactions_leave_db_equal_to_committed_ledger_replay() {
        use crate::fault::FaultSpec;
        use dynamid_core::AdmissionControl;

        // A hostile run: crashes, transient faults, deadlines, and a tight
        // DB admission queue guarantee plenty of mid-transaction aborts.
        let mix = mini_mix();
        let mut db = mini_db();
        let r = ExperimentSpec::for_config(StandardConfig::ServletDedicated)
            .mix(&mix)
            .workload(WorkloadConfig {
                resilience: ResilienceConfig {
                    request_timeout: Some(SimDuration::from_secs(2)),
                    max_retries: 2,
                    backoff_base: SimDuration::from_millis(100),
                    backoff_cap: SimDuration::from_secs(1),
                    retry_budget: None,
                },
                ..quick(25)
            })
            .faults(FaultSpec::at_intensity(13, 0.8))
            .admission(AdmissionControl {
                web_accept_queue: Some(8),
                db_connections: Some(4),
                db_accept_queue: Some(2),
            })
            .run(&mut db, &MiniApp);
        assert!(r.engine.aborted > 0, "no aborts — the property would be vacuous");
        assert!(r.ledger.rolled_back > 0, "aborted jobs must roll back");
        assert!(r.ledger.committed > 0, "some jobs must still commit");
        // Every transaction is accounted exactly once over the whole run.
        assert_eq!(
            r.ledger.committed + r.ledger.rolled_back,
            r.metrics.submitted_total,
            "ledger does not cover every submitted attempt"
        );
        // The crash-consistency oracle: each committed Write interaction
        // incremented exactly one counter by one; every aborted or in-flight
        // one was rolled back. The surviving database must equal a replay of
        // only the committed ledger.
        let committed_writes = r.ledger.per_interaction.get(1).copied().unwrap_or(0);
        let total = db.execute("SELECT SUM(v) FROM counters", &[]).unwrap();
        assert_eq!(
            total.rows[0][0].as_int().unwrap_or(0),
            committed_writes as i64,
            "SUM(v) diverged from the committed-interaction ledger"
        );
        // Updates are row-count neutral and no rows were created/destroyed.
        let count = db.execute("SELECT COUNT(*) FROM counters", &[]).unwrap();
        assert_eq!(count.rows[0][0].as_int().unwrap(), 50);
        assert!(r.ledger.row_deltas.values().all(|d| *d == 0));
        // Invalidation-key extraction: each committed Write updated exactly
        // one primary-keyed row, so the ledger's key stream is one row key
        // per committed write, no wildcards — and the rolled-back
        // transactions (including deadline and fault aborts) contributed
        // nothing, despite having executed their writes eagerly.
        let counters_id = db.table_index("counters").unwrap();
        assert_eq!(
            r.ledger.invalidation_keys.get(&counters_id).copied().unwrap_or_default(),
            (committed_writes, 0)
        );
        assert_eq!(r.ledger.row_keys(), committed_writes);
        assert_eq!(r.ledger.wildcards(), 0);
    }

    #[test]
    fn query_cache_serves_hits_and_keeps_the_commit_oracle() {
        use dynamid_core::{CacheInvalidation, CachePolicy, CacheScope};

        let mix = mini_mix();
        let mut db = mini_db();
        let r = ExperimentSpec::for_config(StandardConfig::PhpColocated)
            .mix(&mix)
            .workload(quick(20))
            .caching(CachePolicy {
                capacity: 256,
                scope: CacheScope::QueryResults,
                invalidation: CacheInvalidation::Transactional,
            })
            .run(&mut db, &MiniApp);
        let cs = r.cache_stats.expect("cache stats populated");
        assert!(cs.query_hits > 0, "no result-cache hits: {cs:?}");
        assert!(cs.query_misses > 0);
        assert!(cs.query_invalidations > 0, "committed writes must invalidate");
        // Caching is a read-path shortcut: every write still executed, so
        // the committed-ledger oracle must hold exactly.
        let committed_writes = r.ledger.per_interaction.get(1).copied().unwrap_or(0);
        let total = db.execute("SELECT SUM(v) FROM counters", &[]).unwrap();
        assert_eq!(total.rows[0][0].as_int().unwrap_or(0), committed_writes as i64);
        // The run leaves the database back in baseline (cache-off) mode.
        assert!(!db.result_cache_enabled());
    }

    #[test]
    fn method_cache_lifts_ejb_throughput() {
        use dynamid_core::{CacheInvalidation, CachePolicy, CacheScope};

        let mix = mini_mix();
        let mut db1 = mini_db();
        let plain = ExperimentSpec::for_config(StandardConfig::EjbFourTier)
            .mix(&mix)
            .workload(quick(30))
            .run(&mut db1, &MiniApp);
        let mut db2 = mini_db();
        let cached = ExperimentSpec::for_config(StandardConfig::EjbFourTier)
            .mix(&mix)
            .workload(quick(30))
            .caching(CachePolicy {
                capacity: 256,
                scope: CacheScope::Both,
                invalidation: CacheInvalidation::Transactional,
            })
            .run(&mut db2, &MiniApp);
        assert!(plain.cache_stats.is_none());
        let cs = cached.cache_stats.expect("cache stats populated");
        assert!(cs.method.hits > 0, "no method-cache hits: {cs:?}");
        assert!(
            cached.throughput_ipm >= plain.throughput_ipm,
            "caching must not lose throughput: {} vs {}",
            cached.throughput_ipm,
            plain.throughput_ipm
        );
        // Correctness under caching: the commit oracle holds.
        let committed_writes = cached.ledger.per_interaction.get(1).copied().unwrap_or(0);
        let total = db2.execute("SELECT SUM(v) FROM counters", &[]).unwrap();
        assert_eq!(total.rows[0][0].as_int().unwrap_or(0), committed_writes as i64);
    }

    #[test]
    fn ttl_caching_still_satisfies_the_commit_oracle() {
        use dynamid_core::{CacheInvalidation, CachePolicy, CacheScope};

        // Stale reads are the TTL ablation's point — but the write path
        // never goes through the cache, so database state and ledger stay
        // exact even with a very long TTL.
        let mix = mini_mix();
        let mut db = mini_db();
        let r = ExperimentSpec::for_config(StandardConfig::PhpColocated)
            .mix(&mix)
            .workload(quick(20))
            .caching(CachePolicy {
                capacity: 256,
                scope: CacheScope::QueryResults,
                invalidation: CacheInvalidation::Ttl(10_000_000),
            })
            .run(&mut db, &MiniApp);
        let cs = r.cache_stats.expect("cache stats populated");
        assert!(cs.query_hits > 0);
        // TTL mode never invalidates at commit.
        assert_eq!(cs.query_invalidations, 0);
        let committed_writes = r.ledger.per_interaction.get(1).copied().unwrap_or(0);
        let total = db.execute("SELECT SUM(v) FROM counters", &[]).unwrap();
        assert_eq!(total.rows[0][0].as_int().unwrap_or(0), committed_writes as i64);
    }

    #[test]
    fn cached_runs_replay_bit_identically() {
        use dynamid_core::{CacheInvalidation, CachePolicy, CacheScope};

        let mix = mini_mix();
        let run = || {
            let mut db = mini_db();
            ExperimentSpec::for_config(StandardConfig::EjbFourTier)
                .mix(&mix)
                .workload(quick(15))
                .caching(CachePolicy {
                    capacity: 128,
                    scope: CacheScope::Both,
                    invalidation: CacheInvalidation::Transactional,
                })
                .run(&mut db, &MiniApp)
        };
        let a = run();
        let b = run();
        assert_eq!(a.events, b.events);
        assert_eq!(a.metrics.completed, b.metrics.completed);
        assert_eq!(a.throughput_ipm, b.throughput_ipm);
        assert_eq!(a.cache_stats, b.cache_stats);
    }

    #[test]
    fn zero_intensity_faults_and_default_admission_match_plain_run() {
        let mix = mini_mix();
        let mut db1 = mini_db();
        let plain = ExperimentSpec::for_config(StandardConfig::PhpColocated)
            .mix(&mix)
            .workload(quick(10))
            .run(&mut db1, &MiniApp);
        let mut db2 = mini_db();
        let chaos = ExperimentSpec::for_config(StandardConfig::PhpColocated)
            .mix(&mix)
            .workload(quick(10))
            .faults(FaultSpec::at_intensity(13, 0.0))
            .admission(AdmissionControl::default())
            .run(&mut db2, &MiniApp);
        assert_eq!(plain.events, chaos.events, "trivial chaos must not perturb the event stream");
        assert_eq!(plain.metrics.completed, chaos.metrics.completed);
        assert_eq!(plain.throughput_ipm, chaos.throughput_ipm);
        assert_eq!(chaos.errors, dynamid_sim::ErrorCounters::default());
        assert_eq!(chaos.engine.rejected, 0);
        assert_eq!(chaos.engine.aborted, 0);
    }

    #[test]
    fn tracing_captures_spans_without_perturbing_the_run() {
        let mix = mini_mix();
        let mut db1 = mini_db();
        let plain = ExperimentSpec::for_config(StandardConfig::ServletDedicated)
            .mix(&mix)
            .workload(quick(10))
            .run(&mut db1, &MiniApp);
        let mut db2 = mini_db();
        let traced = ExperimentSpec::for_config(StandardConfig::ServletDedicated)
            .mix(&mix)
            .workload(quick(10))
            .tracing(true)
            .run(&mut db2, &MiniApp);
        // Observational: the event stream and metrics are bit-identical.
        assert_eq!(plain.events, traced.events);
        assert_eq!(plain.metrics.completed, traced.metrics.completed);
        assert_eq!(plain.metrics.latency, traced.metrics.latency);
        assert_eq!(plain.throughput_ipm, traced.throughput_ipm);
        assert!(plain.trace.is_none());
        let cap = traced.trace.expect("trace captured");
        assert_eq!(cap.jobs.len() as u64, traced.engine.completed);
        assert!(!cap.intervals.is_empty());
        dynamid_trace::verify_capture(&cap).expect("well-formed capture");
    }

    #[test]
    fn rejected_attempt_is_counted_once_not_as_timeout() {
        use dynamid_core::AdmissionControl;

        // A single DB connection with a zero-length wait queue under many
        // clients forces admission rejects; every client also carries a
        // deadline, so a double-counting bug would tally the same attempt
        // under both `rejects` and `timeouts`.
        let mix = mini_mix();
        let mut db = mini_db();
        let r = ExperimentSpec::for_config(StandardConfig::PhpColocated)
            .mix(&mix)
            .workload(WorkloadConfig {
                resilience: ResilienceConfig {
                    request_timeout: Some(SimDuration::from_secs(5)),
                    max_retries: 0,
                    backoff_base: SimDuration::from_millis(100),
                    backoff_cap: SimDuration::from_secs(1),
                    retry_budget: None,
                },
                ..quick(40)
            })
            .admission(AdmissionControl {
                web_accept_queue: None,
                db_connections: Some(1),
                db_accept_queue: Some(0),
            })
            .run(&mut db, &MiniApp);
        assert!(r.errors.rejects > 0, "overload never tripped admission control: {:?}", r.errors);
        // Every attempt resolves exactly once: good completion or exactly
        // one failure class. Attempts in flight across the window edges can
        // shift counts by at most the client population (40); a
        // double-counting bug (reject also tallied as timeout when the
        // stale deadline fires) would blow past the upper bound.
        let resolved = r.metrics.completed + r.errors.failed_attempts();
        assert!(
            resolved <= r.metrics.offered + 40 && resolved + 40 >= r.metrics.offered,
            "attempts not counted exactly once: completed={} failed={:?} offered={}",
            r.metrics.completed,
            r.errors,
            r.metrics.offered
        );
        // The engine agrees with the window taxonomy direction: rejects in
        // the window cannot exceed engine-level rejects.
        assert!(r.errors.rejects <= r.engine.rejected);
        assert!(r.errors.timeouts <= r.engine.aborted);
    }

    /// Replication knobs sized for the quick() phases: fast detector, short
    /// lease, visible lag.
    fn test_policy(replicas: usize) -> ReplicaPolicy {
        ReplicaPolicy { replicas, lag_us: 5_000, heartbeat_us: 100_000, lease_us: 400_000 }
    }

    /// Retrying clients so a primary outage degrades goodput instead of
    /// silently stalling every session.
    fn retrying() -> ResilienceConfig {
        ResilienceConfig {
            request_timeout: Some(SimDuration::from_secs(2)),
            max_retries: 3,
            backoff_base: SimDuration::from_millis(100),
            backoff_cap: SimDuration::from_secs(1),
            retry_budget: None,
        }
    }

    #[test]
    fn zero_replicas_is_bit_identical_to_no_replication() {
        let mix = mini_mix();
        let mut db1 = mini_db();
        let plain = ExperimentSpec::for_config(StandardConfig::ServletDedicated)
            .mix(&mix)
            .workload(quick(15))
            .run(&mut db1, &MiniApp);
        let mut db2 = mini_db();
        let zero = ExperimentSpec::for_config(StandardConfig::ServletDedicated)
            .mix(&mix)
            .workload(quick(15))
            .replication(ReplicaPolicy { replicas: 0, ..test_policy(0) })
            .run(&mut db2, &MiniApp);
        assert_eq!(plain.events, zero.events);
        assert_eq!(plain.metrics.completed, zero.metrics.completed);
        assert_eq!(plain.metrics.latency, zero.metrics.latency);
        assert_eq!(plain.throughput_ipm, zero.throughput_ipm);
        assert!(zero.replication.is_none());
    }

    #[test]
    fn replicated_healthy_run_routes_reads_and_ships_frames() {
        let mix = mini_mix();
        let mut db = mini_db();
        let r = ExperimentSpec::for_config(StandardConfig::ServletDedicated)
            .mix(&mix)
            .workload(quick(20))
            .replication(test_policy(2))
            .run(&mut db, &MiniApp);
        let rep = r.replication.as_ref().expect("replication report populated");
        assert!(rep.stats.reads_to_replicas > 0, "reads never reached replicas: {rep:?}");
        assert!(rep.stats.writes_to_primary > 0);
        // Every committed write-set shipped to both replicas.
        assert!(rep.stats.frames_shipped > 0);
        assert_eq!(rep.stats.fences, 0, "healthy run must not fence: {rep:?}");
        assert_eq!(rep.stats.elections, 0);
        assert_eq!(rep.stats.failed_elections, 0);
        assert!(rep.failover_latencies.is_empty());
        assert_eq!(r.errors, dynamid_sim::ErrorCounters::default());
        // Routing is a cost-model decision only: the commit oracle holds.
        let committed_writes = r.ledger.per_interaction.get(1).copied().unwrap_or(0);
        let total = db.execute("SELECT SUM(v) FROM counters", &[]).unwrap();
        assert_eq!(total.rows[0][0].as_int().unwrap_or(0), committed_writes as i64);
        // db-r1/db-r2 exist and absorbed work.
        assert!(r.cpu_of("db-r1").unwrap() > 0.0);
        assert!(r.cpu_of("db-r2").unwrap() > 0.0);
    }

    #[test]
    fn primary_kill_elects_a_replica_and_keeps_the_oracle() {
        let mix = mini_mix();
        let mut db = mini_db();
        let r = ExperimentSpec::for_config(StandardConfig::ServletDedicated)
            .mix(&mix)
            .workload(WorkloadConfig { resilience: retrying(), ..quick(20) })
            .replication(test_policy(2))
            .kill_primary(SimDuration::from_secs(4), SimDuration::from_secs(6))
            .run(&mut db, &MiniApp);
        let rep = r.replication.expect("replication report populated");
        assert_eq!(rep.stats.elections, 1, "exactly one failover expected: {rep:?}");
        assert_eq!(r.errors.failovers, 1, "failover happened mid-window: {:?}", r.errors);
        let lat = rep.first_failover_latency().expect("latency recorded");
        // Detection-to-promotion is lease-bounded, quantized by heartbeats.
        let policy = test_policy(2);
        assert!(
            lat >= SimDuration::from_micros(policy.lease_us)
                && lat <= SimDuration::from_micros(policy.lease_us + 2 * policy.heartbeat_us),
            "failover latency {lat:?} outside the lease window"
        );
        // The dead primary's in-flight transactions unwound; the surviving
        // database equals a replay of the committed ledger.
        let committed_writes = r.ledger.per_interaction.get(1).copied().unwrap_or(0);
        let total = db.execute("SELECT SUM(v) FROM counters", &[]).unwrap();
        assert_eq!(total.rows[0][0].as_int().unwrap_or(0), committed_writes as i64);
        // The restarted ex-primary rejoined fenced and caught up.
        assert!(rep.stats.fences > 0);
        assert!(rep.stats.catchups > 0, "ex-primary never replayed the stream: {rep:?}");
    }

    #[test]
    fn replicas_beat_the_single_db_baseline_under_a_primary_kill() {
        let mix = mini_mix();
        let kill = |replicas: usize| {
            let mut db = mini_db();
            let mut spec = ExperimentSpec::for_config(StandardConfig::ServletDedicated)
                .mix(&mix)
                .workload(WorkloadConfig { resilience: retrying(), ..quick(20) })
                .kill_primary(SimDuration::from_secs(4), SimDuration::from_secs(6));
            if replicas > 0 {
                spec = spec.replication(test_policy(replicas));
            }
            spec.run(&mut db, &MiniApp)
        };
        let single = kill(0);
        let replicated = kill(2);
        assert!(
            replicated.goodput_ipm > single.goodput_ipm,
            "failover did not beat the raw outage: {} vs {}",
            replicated.goodput_ipm,
            single.goodput_ipm
        );
    }

    #[test]
    fn replicated_failover_runs_replay_bit_identically() {
        let mix = mini_mix();
        let run = || {
            let mut db = mini_db();
            ExperimentSpec::for_config(StandardConfig::ServletDedicated)
                .mix(&mix)
                .workload(WorkloadConfig { resilience: retrying(), ..quick(20) })
                .faults(FaultSpec::at_intensity(13, 0.4))
                .replication(test_policy(2))
                .kill_primary(SimDuration::from_secs(4), SimDuration::from_secs(6))
                .run(&mut db, &MiniApp)
        };
        let a = run();
        let b = run();
        assert_eq!(a.events, b.events);
        assert_eq!(a.errors, b.errors);
        assert_eq!(a.metrics.completed, b.metrics.completed);
        assert_eq!(a.replication, b.replication);
        assert_eq!(a.throughput_ipm, b.throughput_ipm);
    }

    #[test]
    fn traced_failover_captures_ship_and_election_spans() {
        use dynamid_trace::SpanKind;

        let mix = mini_mix();
        let mut db = mini_db();
        let r = ExperimentSpec::for_config(StandardConfig::ServletDedicated)
            .mix(&mix)
            .workload(WorkloadConfig { resilience: retrying(), ..quick(15) })
            .replication(test_policy(2))
            .kill_primary(SimDuration::from_secs(4), SimDuration::from_secs(6))
            .tracing(true)
            .run(&mut db, &MiniApp);
        let cap = r.trace.expect("trace captured");
        dynamid_trace::verify_capture(&cap).expect("well-formed capture");
        let kinds: Vec<SpanKind> =
            cap.jobs.iter().flat_map(|j| j.spans.iter().map(|s| s.kind)).collect();
        assert!(kinds.contains(&SpanKind::ReplicaShip), "no ship spans captured");
        assert!(kinds.contains(&SpanKind::Election), "no election span captured");
        let repl_idx = cap
            .interactions
            .iter()
            .position(|n| n == "[replication]")
            .expect("replication name-table entry");
        assert!(cap.jobs.iter().any(|j| j.interaction == repl_idx));
    }

    #[test]
    fn window_metrics_exclude_rampdown_only_runs() {
        // With a measurement window of zero length nothing is counted.
        let mix = mini_mix();
        let mut cfg = quick(5);
        cfg.measure = SimDuration::ZERO;
        let mut db = mini_db();
        let r = ExperimentSpec::for_config(StandardConfig::PhpColocated)
            .mix(&mix)
            .workload(cfg)
            .run(&mut db, &MiniApp);
        assert_eq!(r.metrics.completed, 0);
        assert_eq!(r.throughput_ipm, 0.0);
        assert!(r.metrics.submitted_total > 0);
    }
}
