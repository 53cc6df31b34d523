//! The client-browser emulator: sessions, think times, and measurement.
//!
//! Implements §4.1 and §4.5 of the paper: each emulated client holds a
//! persistent connection, waits an exponentially distributed think time
//! (mean 7 s) between interactions, and abandons its session after an
//! exponentially distributed session length (mean 15 min), immediately
//! starting a fresh one so the offered client population stays constant.
//! Measurements are taken only inside the measurement window, bracketed by
//! ramp-up and ramp-down phases.

use crate::arrivals::ArrivalProcess;
use crate::fault::{ResilienceConfig, RetryTokens};
use crate::mix::Mix;
use dynamid_core::{Application, Middleware, ReplicationStats, SessionData};
use dynamid_sim::{
    AbortReason, Activity, Driver, ErrorCounters, JobAborted, JobDone, JobId, LatencyHistogram,
    MachineId, Op, SimDuration, SimRng, SimTime, Simulation, Trace, WindowSnapshot,
};
use dynamid_sqldb::{Database, ReplicationStream, TxnLog};
use dynamid_trace::{IntervalKind, IntervalTable, JobRecord, SpanDef, SpanKind, TraceCapture};
use std::collections::{BTreeMap, HashMap, HashSet};

/// Timer token marking the start of the measurement window.
const TOKEN_WINDOW_START: u64 = u64::MAX;
/// Timer token marking the end of the measurement window.
const TOKEN_WINDOW_END: u64 = u64::MAX - 1;
/// Timer token of the replication failure detector's heartbeat (armed only
/// when the replicated DB tier is installed).
const TOKEN_HEARTBEAT: u64 = u64::MAX - 2;
/// Timer token of the open-loop arrival process (armed only for open
/// arrival processes).
const TOKEN_ARRIVAL: u64 = u64::MAX - 3;
/// Job tag marking replication ship/catch-up jobs. Never used for dispatch
/// (ship jobs are tracked by [`JobId`]); it only keeps them visibly distinct
/// from client tags in debug output.
const SHIP_TAG: u64 = u64::MAX;
/// Sentinel interaction index for replication trace records, remapped to a
/// real `"[replication]"` name-table entry in `take_trace`.
const REPLICATION_INTERACTION: usize = usize::MAX;
/// Salt for the open-loop arrival-gap RNG root. Closed-loop runs never
/// construct this stream, so they stay bit-identical to pre-open-loop
/// builds.
const ARRIVAL_RNG_SALT: u64 = 0xA441_11A7_0000_0001;
/// Salt for the open-loop client-slot RNG root (forked once per slot).
const SLOT_RNG_SALT: u64 = 0xA441_11A7_0000_0002;

/// Emulator parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadConfig {
    /// Number of concurrent emulated clients.
    pub clients: usize,
    /// Mean think time between interactions (exponential).
    pub think_time: SimDuration,
    /// Mean session length (exponential).
    pub session_time: SimDuration,
    /// Ramp-up phase length.
    pub ramp_up: SimDuration,
    /// Measurement phase length.
    pub measure: SimDuration,
    /// Ramp-down phase length.
    pub ramp_down: SimDuration,
    /// Master seed; every client derives an independent stream.
    pub seed: u64,
    /// Client-side timeout/retry policy (disabled by default, matching the
    /// paper's patient clients).
    pub resilience: ResilienceConfig,
    /// How arrivals are generated. The default ([`ArrivalProcess::Closed`])
    /// is the paper's closed loop: `clients` emulated browsers with think
    /// times. Open processes generate arrivals independently of
    /// completions; `clients` then only names client-slot RNG streams
    /// (slots grow on demand and are recycled), and think/session times are
    /// unused — each arrival runs one interaction to completion or
    /// abandonment.
    pub arrivals: ArrivalProcess,
    /// When `Some(w)`, the driver additionally records a whole-run timeline
    /// of per-`w` bucket counters ([`WorkloadMetrics::timeline`]) so
    /// overload sweeps can chart goodput through a spike and its recovery.
    /// Purely observational: `None` (the default) records nothing and
    /// changes nothing.
    pub timeline_bucket: Option<SimDuration>,
}

impl WorkloadConfig {
    /// The paper's client model with shortened phases suitable for
    /// simulation.
    pub fn new(clients: usize) -> Self {
        WorkloadConfig {
            clients,
            think_time: SimDuration::from_secs(7),
            session_time: SimDuration::from_mins(15),
            ramp_up: SimDuration::from_secs(30),
            measure: SimDuration::from_secs(120),
            ramp_down: SimDuration::from_secs(10),
            seed: 42,
            resilience: ResilienceConfig::disabled(),
            arrivals: ArrivalProcess::Closed,
            timeline_bucket: None,
        }
    }

    /// Total run length.
    pub fn total(&self) -> SimDuration {
        self.ramp_up + self.measure + self.ramp_down
    }

    /// The measurement window `[start, end)`.
    pub fn window(&self) -> (SimTime, SimTime) {
        (SimTime::ZERO + self.ramp_up, SimTime::ZERO + self.ramp_up + self.measure)
    }
}

/// Counters for one timeline bucket (see
/// [`WorkloadConfig::timeline_bucket`]). Timeline counters cover the whole
/// run, not just the measurement window — the timeline exists to chart
/// behaviour through an overload spike and its recovery, which the window
/// aggregate would hide.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TimelineBucket {
    /// Attempts submitted in this bucket (retries and breaker-denied
    /// attempts included).
    pub offered: u64,
    /// Interactions completed in this bucket.
    pub completed: u64,
    /// Completions without an application error (the goodput numerator).
    pub good: u64,
    /// Attempts aborted in flight for non-shed reasons (timeouts, admission
    /// rejects, crashes, deadlocks).
    pub failed: u64,
    /// Attempts shed at dequeue by an overloaded pool.
    pub shed: u64,
    /// Attempts fast-failed client-side by an open circuit breaker.
    pub breaker_denied: u64,
    /// Interactions given up after exhausting retries or the retry budget.
    pub abandoned: u64,
}

/// Counters and distributions collected during the measurement window.
#[derive(Debug, Clone)]
pub struct WorkloadMetrics {
    /// Interactions completed inside the window.
    pub completed: u64,
    /// Interactions completed inside the window that ended in an
    /// application error.
    pub errors: u64,
    /// Per-interaction completion counts (index = interaction id).
    pub per_interaction: Vec<u64>,
    /// Latency distribution of window completions.
    pub latency: LatencyHistogram,
    /// All interactions submitted over the whole run (any phase).
    pub submitted_total: u64,
    /// Sessions started over the whole run.
    pub sessions: u64,
    /// Attempts submitted inside the window (offered load, including
    /// retries).
    pub offered: u64,
    /// Failure taxonomy over the window: timeouts, admission rejects,
    /// fault aborts, retries, abandons — each attempt counted exactly once.
    pub errors_detail: ErrorCounters,
    /// Whole-run per-bucket timeline, empty unless
    /// [`WorkloadConfig::timeline_bucket`] was set. Bucket `i` covers
    /// `[i*w, (i+1)*w)`; trailing all-zero buckets are not materialized.
    pub timeline: Vec<TimelineBucket>,
}

impl WorkloadMetrics {
    fn new(interactions: usize) -> Self {
        WorkloadMetrics {
            completed: 0,
            errors: 0,
            per_interaction: vec![0; interactions],
            latency: LatencyHistogram::new(),
            submitted_total: 0,
            sessions: 0,
            offered: 0,
            errors_detail: ErrorCounters::default(),
            timeline: Vec::new(),
        }
    }

    /// Throughput in interactions per minute over a window of `measure`.
    pub fn throughput_ipm(&self, measure: SimDuration) -> f64 {
        if measure.is_zero() {
            return 0.0;
        }
        self.completed as f64 * 60.0 / measure.as_secs_f64()
    }

    /// Fraction of window completions that errored.
    pub fn error_rate(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.errors as f64 / self.completed as f64
        }
    }

    /// Goodput in interactions per minute: window completions that neither
    /// errored at the application level nor failed in transit.
    pub fn goodput_ipm(&self, measure: SimDuration) -> f64 {
        if measure.is_zero() {
            return 0.0;
        }
        self.completed.saturating_sub(self.errors) as f64 * 60.0 / measure.as_secs_f64()
    }

    /// Offered load in attempts per minute over the window.
    pub fn offered_ipm(&self, measure: SimDuration) -> f64 {
        if measure.is_zero() {
            return 0.0;
        }
        self.offered as f64 * 60.0 / measure.as_secs_f64()
    }
}

/// The committed-transaction ledger: one entry of bookkeeping per
/// interaction whose simulated job ran to completion (= commit). Aborted
/// jobs roll their transaction back instead and count under
/// [`rolled_back`](Self::rolled_back), so at end of run the database equals
/// "initial state + exactly the committed transactions" — the invariant the
/// harness's consistency auditor replays this ledger to check.
#[derive(Debug, Clone, Default)]
pub struct CommitLedger {
    /// Transactions committed (simulated job completed).
    pub committed: u64,
    /// Transactions rolled back (aborted in flight, or still in flight when
    /// the run ended).
    pub rolled_back: u64,
    /// Committed transactions per interaction id.
    pub per_interaction: Vec<u64>,
    /// Net committed live-row delta per table catalog id.
    pub row_deltas: BTreeMap<usize, i64>,
    /// Per-table invalidation-key accounting extracted from committed
    /// receipts: `(row-keyed invalidation keys, wildcard invalidations)`
    /// per table catalog id. This is exactly the key stream the caching
    /// tier consumes at commit time (a primary-key-attributable write
    /// yields one key per written row; a write the extractor cannot pin to
    /// rows yields one wildcard), recorded whether or not a cache was
    /// enabled — rolled-back receipts contribute nothing, which is the
    /// invariant the cache tests lean on.
    pub invalidation_keys: BTreeMap<usize, (u64, u64)>,
}

impl CommitLedger {
    fn record_commit(&mut self, interaction: Option<usize>, log: &TxnLog, db: &Database) {
        self.committed += 1;
        if let Some(id) = interaction {
            if id >= self.per_interaction.len() {
                self.per_interaction.resize(id + 1, 0);
            }
            self.per_interaction[id] += 1;
        }
        for (table, delta) in log.row_deltas() {
            *self.row_deltas.entry(table).or_default() += delta;
        }
        for w in db.write_set(log) {
            let entry = self.invalidation_keys.entry(w.table).or_default();
            match &w.rows {
                Some(rows) => entry.0 += rows.len() as u64,
                None => entry.1 += 1,
            }
        }
    }

    /// Total row-keyed invalidation keys across all tables.
    pub fn row_keys(&self) -> u64 {
        self.invalidation_keys.values().map(|(rows, _)| rows).sum()
    }

    /// Total wildcard (whole-table) invalidations across all tables.
    pub fn wildcards(&self) -> u64 {
        self.invalidation_keys.values().map(|(_, wild)| wild).sum()
    }

    /// Net committed row delta for table catalog id `table`.
    pub fn delta(&self, table: usize) -> i64 {
        self.row_deltas.get(&table).copied().unwrap_or(0)
    }
}

/// Replication activity over one run, present in the result only when the
/// replicated DB tier was installed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReplicationReport {
    /// Control-plane counters (routing, ships, fences, elections).
    pub stats: ReplicationStats,
    /// Detection-to-promotion latency of every successful failover, in
    /// occurrence order (empty when the primary never failed over).
    pub failover_latencies: Vec<SimDuration>,
}

impl ReplicationReport {
    /// Latency of the first failover, if any happened.
    pub fn first_failover_latency(&self) -> Option<SimDuration> {
        self.failover_latencies.first().copied()
    }
}

/// What an in-flight replication job is doing, keyed by engine [`JobId`].
#[derive(Debug, Clone, Copy)]
enum ShipKind {
    /// A live write-set frame shipping to one replica; completion means the
    /// replica has applied `lsn`.
    Frame {
        /// Stable replica id.
        replica: usize,
        /// The frame's LSN.
        lsn: u64,
    },
    /// A catch-up replay to a fenced replica, targeting the stream head
    /// `lsn` observed at submit time; completion unfences if the head has
    /// not moved since.
    Catchup {
        /// Stable replica id.
        replica: usize,
        /// Stream head LSN at submit time.
        lsn: u64,
    },
}

/// Driver-side replication machinery: the authoritative write-set stream,
/// in-flight ship jobs, and failure-detector bookkeeping.
struct ReplDriverState {
    /// The primary's committed write-set stream (frames in commit order).
    stream: ReplicationStream,
    /// In-flight ship/catch-up jobs by engine job id.
    ships: HashMap<JobId, ShipKind>,
    /// Replicas with a catch-up replay in flight (at most one each).
    catchup_inflight: HashSet<usize>,
    /// When the current primary was first observed down (heartbeat time);
    /// cleared on recovery or promotion.
    primary_down_since: Option<SimTime>,
    /// Detection-to-promotion latency of each successful failover.
    failover_latencies: Vec<SimDuration>,
    /// Crashed ex-primaries awaiting restart, with the replica id each will
    /// rejoin under.
    ex_primaries: Vec<(usize, MachineId)>,
    /// Next rejoin id (starts past the installed replica ids and only
    /// grows, so ids never collide however many failovers happen).
    next_rejoin_id: usize,
    /// Fabricated trace-record ids handed to election spans.
    elections_traced: u64,
}

/// Per-machine resource usage over the measurement window.
#[derive(Debug, Clone, Default)]
pub struct ResourceWindow {
    /// `(machine name, cpu utilization 0..1)` per distinct machine.
    pub cpu_util: Vec<(String, f64)>,
    /// `(machine name, NIC throughput in Mb/s)` per distinct machine.
    pub nic_mbps: Vec<(String, f64)>,
}

struct ClientState {
    session: SessionData,
    rng: SimRng,
    /// Last completed interaction (None right after a session reset).
    current: Option<usize>,
    session_end: SimTime,
    /// Outcome of the interaction currently in flight.
    pending_error: bool,
    /// Which attempt the in-flight interaction is on (0 = first send).
    attempt: u32,
    /// Set while a backoff timer is pending; the next wake re-sends the
    /// current interaction instead of advancing the session.
    retry_pending: bool,
    /// Undo log of the in-flight interaction's transaction, tagged with a
    /// global begin-sequence number. Completion commits (drops) it; an
    /// abort applies it back; end-of-run unwinds survivors newest-first.
    pending_txn: Option<(u64, TxnLog)>,
    /// Web server the front-end balancer routed the in-flight interaction
    /// to (None without a balancer). Handed back to the middleware when the
    /// job completes or aborts so least-connections counts stay honest.
    pending_route: Option<usize>,
}

/// Open-loop driver machinery, present only for open arrival processes.
struct OpenLoopState {
    /// The arrival process generating the load.
    process: ArrivalProcess,
    /// Dedicated stream for inter-arrival gaps.
    arrival_rng: SimRng,
    /// Root for per-slot client streams, forked once per slot index so a
    /// slot's behaviour never depends on which arrival claimed it.
    slot_root: SimRng,
    /// Recycled client slots (LIFO, deterministic).
    free_slots: Vec<usize>,
}

/// Span bookkeeping for traced runs: the span trees of jobs still in
/// flight, and the completed-job records in completion order (which is
/// engine event order, hence deterministic).
#[derive(Debug, Default)]
struct TraceState {
    pending: HashMap<JobId, PendingSpans>,
    jobs: Vec<JobRecord>,
}

#[derive(Debug)]
struct PendingSpans {
    client: u64,
    interaction: usize,
    spans: Vec<SpanDef>,
}

/// The [`Driver`] implementation that emulates the client population.
pub struct WorkloadDriver<'a> {
    app: &'a dyn Application,
    mix: &'a Mix,
    middleware: &'a Middleware,
    db: &'a mut Database,
    cfg: WorkloadConfig,
    clients: Vec<ClientState>,
    metrics: WorkloadMetrics,
    window: (SimTime, SimTime),
    cpu_snaps: Vec<(u32, WindowSnapshot, WindowSnapshot)>,
    nic_snaps: Vec<(u32, WindowSnapshot, WindowSnapshot)>,
    resources: ResourceWindow,
    /// Global transaction begin-sequence counter (orders end-of-run unwind).
    txn_seq: u64,
    ledger: CommitLedger,
    /// Present only when the middleware was installed with tracing on.
    trace: Option<TraceState>,
    /// Present only when the middleware was installed with a replicated DB
    /// tier.
    repl: Option<ReplDriverState>,
    /// Present only for open arrival processes.
    open: Option<OpenLoopState>,
    /// Population-wide retry-budget token bucket (inert without a budget).
    retry_tokens: RetryTokens,
}

impl std::fmt::Debug for WorkloadDriver<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkloadDriver")
            .field("clients", &self.clients.len())
            .field("completed", &self.metrics.completed)
            .finish()
    }
}

impl<'a> WorkloadDriver<'a> {
    /// Creates the driver and schedules every client's first arrival
    /// (staggered across the ramp-up phase) plus the window-boundary
    /// timers.
    pub fn start(
        sim: &mut Simulation,
        app: &'a dyn Application,
        mix: &'a Mix,
        middleware: &'a Middleware,
        db: &'a mut Database,
        cfg: WorkloadConfig,
    ) -> WorkloadDriver<'a> {
        assert_eq!(
            mix.interaction_count(),
            app.interactions().len(),
            "mix does not match the application's interaction catalog"
        );
        let mut open = cfg.arrivals.is_open().then(|| OpenLoopState {
            process: cfg.arrivals,
            arrival_rng: SimRng::new(cfg.seed ^ ARRIVAL_RNG_SALT),
            slot_root: SimRng::new(cfg.seed ^ SLOT_RNG_SALT),
            free_slots: Vec::new(),
        });
        let mut clients = Vec::new();
        if let Some(o) = open.as_mut() {
            // Open loop: slots are created on demand by arrivals; only the
            // first arrival timer is armed here.
            let first = SimTime::ZERO + o.process.next_gap(SimTime::ZERO, &mut o.arrival_rng);
            if first < SimTime::ZERO + cfg.total() {
                sim.set_timer(first, TOKEN_ARRIVAL);
            }
        } else {
            assert!(cfg.clients > 0, "at least one client required");
            let mut root = SimRng::new(cfg.seed);
            clients.reserve(cfg.clients);
            for i in 0..cfg.clients {
                clients.push(ClientState {
                    session: SessionData::new(i as u64),
                    rng: root.fork(i as u64),
                    current: None,
                    session_end: SimTime::ZERO, // set at first wake
                    pending_error: false,
                    attempt: 0,
                    retry_pending: false,
                    pending_txn: None,
                    pending_route: None,
                });
            }
            // Stagger client starts uniformly over the ramp-up phase.
            let ramp = cfg.ramp_up.as_micros().max(1);
            for i in 0..cfg.clients {
                let offset = ramp * i as u64 / cfg.clients as u64;
                sim.set_timer(SimTime::from_micros(offset), i as u64);
            }
        }
        let (w0, w1) = cfg.window();
        sim.set_timer(w0, TOKEN_WINDOW_START);
        sim.set_timer(w1, TOKEN_WINDOW_END);
        let repl = middleware.replication().map(|rs| {
            let rs = rs.borrow();
            sim.set_timer(SimTime::from_micros(rs.policy().heartbeat_us.max(1)), TOKEN_HEARTBEAT);
            ReplDriverState {
                stream: ReplicationStream::new(),
                ships: HashMap::new(),
                catchup_inflight: HashSet::new(),
                primary_down_since: None,
                failover_latencies: Vec::new(),
                ex_primaries: Vec::new(),
                next_rejoin_id: rs.policy().replicas + 1,
                elections_traced: 0,
            }
        });
        let metrics = WorkloadMetrics::new(mix.interaction_count());
        let retry_tokens = RetryTokens::new(cfg.resilience.retry_budget);
        WorkloadDriver {
            app,
            mix,
            middleware,
            db,
            cfg,
            clients,
            metrics,
            window: (w0, w1),
            cpu_snaps: Vec::new(),
            nic_snaps: Vec::new(),
            resources: ResourceWindow::default(),
            txn_seq: 0,
            ledger: CommitLedger::default(),
            trace: middleware.tracing().then(TraceState::default),
            repl,
            open,
            retry_tokens,
        }
    }

    /// Collected workload metrics.
    pub fn metrics(&self) -> &WorkloadMetrics {
        &self.metrics
    }

    /// Per-machine resource usage over the window (valid after the run
    /// passed the window end).
    pub fn resources(&self) -> &ResourceWindow {
        &self.resources
    }

    /// The measurement window.
    pub fn window(&self) -> (SimTime, SimTime) {
        self.window
    }

    /// The committed-transaction ledger (valid after the run; in-flight
    /// transactions should be unwound first via
    /// [`rollback_in_flight`](Self::rollback_in_flight)).
    pub fn ledger(&self) -> &CommitLedger {
        &self.ledger
    }

    /// Assembles the run's [`TraceCapture`] (traced runs only, else
    /// `None`): drains the engine's op intervals, resolves machine and
    /// lock/semaphore names so the capture is self-contained, and pairs the
    /// intervals with the completed requests' span trees.
    pub fn take_trace(&mut self, sim: &mut Simulation) -> Option<TraceCapture> {
        let ts = self.trace.take()?;
        let machines: Vec<String> = (0..sim.machine_count() as u32)
            .map(|i| sim.machine_name(dynamid_sim::MachineId(i)).to_string())
            .collect();
        let mut interactions: Vec<String> =
            self.app.interactions().iter().map(|s| s.name.to_string()).collect();
        // Replication ship/election records carry a sentinel interaction
        // index; give them a real name-table entry so the capture stays
        // self-contained.
        let mut jobs = ts.jobs;
        if jobs.iter().any(|j| j.interaction == REPLICATION_INTERACTION) {
            let idx = interactions.len();
            interactions.push("[replication]".to_string());
            for j in &mut jobs {
                if j.interaction == REPLICATION_INTERACTION {
                    j.interaction = idx;
                }
            }
        }
        let cols = sim.take_op_intervals();
        let mut intervals = IntervalTable::default();
        intervals.reserve(cols.len());
        for iv in cols.iter() {
            let kind = match iv.activity {
                Activity::Cpu { machine, demand_micros } => {
                    IntervalKind::Cpu { machine: machine.0, demand_micros }
                }
                Activity::Net { from, to, bytes } => {
                    IntervalKind::Net { from: from.0, to: to.0, bytes }
                }
                Activity::Delay => IntervalKind::Delay,
                // Names are interned: one stored string per lock/semaphore
                // for the whole capture, not one per wait interval.
                Activity::LockWait { lock } => {
                    IntervalKind::LockWait { name: intervals.intern(sim.lock_name(lock)) }
                }
                Activity::SemWait { sem } => {
                    IntervalKind::SemWait { name: intervals.intern(sim.semaphore_name(sem)) }
                }
            };
            intervals.push(iv.job.0, iv.op_index, kind, iv.start.as_micros(), iv.end.as_micros());
        }
        let (w0, w1) = self.window;
        Some(TraceCapture {
            machines,
            interactions,
            window_start_us: w0.as_micros(),
            window_end_us: w1.as_micros(),
            jobs,
            intervals,
        })
    }

    /// Rolls back every transaction still in flight when the simulation
    /// stopped (crash-consistent unwind), newest-first so interleaved
    /// writes peel off in reverse begin order. Returns how many were
    /// unwound.
    pub fn rollback_in_flight(&mut self) -> u64 {
        let mut pending: Vec<(u64, TxnLog)> =
            self.clients.iter_mut().filter_map(|c| c.pending_txn.take()).collect();
        pending.sort_by_key(|(seq, _)| std::cmp::Reverse(*seq));
        let n = pending.len() as u64;
        for (_, log) in pending {
            // Flush dependent method-cache entries (uncounted) before the
            // rows revert; the result cache purges itself inside
            // `apply_rollback`.
            self.middleware.purge_method_tables(&log.touched_tables());
            self.db.apply_rollback(log);
            self.ledger.rolled_back += 1;
        }
        n
    }

    /// Like [`rollback_in_flight`](Self::rollback_in_flight) for ledger
    /// accounting — every surviving in-flight transaction counts as rolled
    /// back — but the undo logs are dropped without touching the database.
    /// Only valid when the caller restores the database wholesale afterwards
    /// (the sweep harness rewinds to the pristine base between points, which
    /// erases in-flight writes along with everything else).
    pub fn discard_in_flight(&mut self) -> u64 {
        let mut n = 0;
        for c in &mut self.clients {
            if c.pending_txn.take().is_some() {
                self.ledger.rolled_back += 1;
                n += 1;
            }
        }
        n
    }

    fn begin_interaction(&mut self, sim: &mut Simulation, client_id: usize) {
        let now = sim.now();
        let client = &mut self.clients[client_id];
        // Session bookkeeping.
        if client.current.is_none() || now >= client.session_end {
            client.session.reset();
            client.current = None;
            client.session_end = now + client.rng.exponential(self.cfg.session_time);
            self.metrics.sessions += 1;
        }
        let client = &mut self.clients[client_id];
        let next = match client.current {
            None => self.mix.entry(&mut client.rng),
            Some(cur) => self.mix.next(cur, &mut client.rng),
        };
        client.current = Some(next);
        client.attempt = 0;
        self.retry_tokens.deposit(self.cfg.resilience.retry_budget);
        self.submit_attempt(sim, client_id, next);
    }

    /// One open-loop arrival: schedules its successor, claims a client slot
    /// (recycled LIFO, grown on demand), and starts a one-interaction
    /// session on it.
    fn on_arrival(&mut self, sim: &mut Simulation) {
        let now = sim.now();
        let horizon = SimTime::ZERO + self.cfg.total();
        let recycled = {
            let o = self.open.as_mut().expect("arrival timer without open-loop state");
            // Schedule the successor before doing anything with this
            // arrival: the process is independent of what the system does
            // with the request — that independence is what "open loop"
            // means.
            let next = now + o.process.next_gap(now, &mut o.arrival_rng);
            if next < horizon {
                sim.set_timer(next, TOKEN_ARRIVAL);
            }
            o.free_slots.pop()
        };
        let slot = match recycled {
            Some(s) => s,
            None => {
                let idx = self.clients.len();
                let o = self.open.as_mut().expect("arrival without open-loop state");
                self.clients.push(ClientState {
                    session: SessionData::new(idx as u64),
                    rng: o.slot_root.fork(idx as u64),
                    current: None,
                    session_end: SimTime::ZERO,
                    pending_error: false,
                    attempt: 0,
                    retry_pending: false,
                    pending_txn: None,
                    pending_route: None,
                });
                idx
            }
        };
        let next = {
            let client = &mut self.clients[slot];
            client.session.reset();
            client.session_end = horizon; // one interaction per arrival
            client.attempt = 0;
            client.retry_pending = false;
            let ix = self.mix.entry(&mut client.rng);
            client.current = Some(ix);
            ix
        };
        self.metrics.sessions += 1;
        self.retry_tokens.deposit(self.cfg.resilience.retry_budget);
        self.submit_attempt(sim, slot, next);
    }

    /// Returns an open-loop client slot to the free list (no-op closed
    /// loop).
    fn release_slot(&mut self, slot: usize) {
        if let Some(o) = self.open.as_mut() {
            o.free_slots.push(slot);
        }
    }

    /// Applies `f` to the timeline bucket covering `at`. No-op unless
    /// [`WorkloadConfig::timeline_bucket`] is set.
    fn record_timeline(&mut self, at: SimTime, f: impl FnOnce(&mut TimelineBucket)) {
        let Some(bucket) = self.cfg.timeline_bucket else { return };
        let w = bucket.as_micros().max(1);
        let idx = (at.as_micros() / w) as usize;
        if idx >= self.metrics.timeline.len() {
            self.metrics.timeline.resize(idx + 1, TimelineBucket::default());
        }
        f(&mut self.metrics.timeline[idx]);
    }

    /// The shared attempt-failure tail (engine aborts and breaker
    /// denials): retry with capped jittered backoff while the attempt count
    /// and the retry budget allow, otherwise abandon the interaction —
    /// counted under `abandoned`, never dropped silently.
    fn after_attempt_failure(
        &mut self,
        sim: &mut Simulation,
        client_id: usize,
        in_window: bool,
        now: SimTime,
    ) {
        let resilience = self.cfg.resilience;
        let wants_retry = self.clients[client_id].attempt < resilience.max_retries;
        if wants_retry && self.retry_tokens.try_withdraw(resilience.retry_budget) {
            if in_window {
                self.metrics.errors_detail.retries += 1;
            }
            let client = &mut self.clients[client_id];
            client.attempt += 1;
            client.retry_pending = true;
            // Capped exponential backoff with deterministic jitter in
            // [0.5, 1.0) of the nominal delay, drawn from the client's own
            // stream so runs replay bit-identically.
            let nominal = resilience.backoff_for(client.attempt).as_micros();
            let jittered = (nominal as f64 * (0.5 + 0.5 * client.rng.unit())).round() as u64;
            sim.set_timer_after(SimDuration::from_micros(jittered.max(1)), client_id as u64);
        } else {
            // Retries (or the retry budget) exhausted: give up on this
            // interaction.
            if in_window {
                self.metrics.errors_detail.abandoned += 1;
            }
            self.record_timeline(now, |b| b.abandoned += 1);
            let client = &mut self.clients[client_id];
            client.attempt = 0;
            client.retry_pending = false;
            if self.open.is_some() {
                self.clients[client_id].current = None;
                self.release_slot(client_id);
            } else {
                let think = client.rng.exponential(self.cfg.think_time);
                sim.set_timer_after(think, client_id as u64);
            }
        }
    }

    /// Compiles and submits one attempt of interaction `id` for the client,
    /// with a deadline when the resilience policy sets one.
    fn submit_attempt(&mut self, sim: &mut Simulation, client_id: usize, id: usize) {
        let now = sim.now();
        // Brownout gate: an open circuit breaker fails the attempt
        // client-side before the eager host execution runs — no transaction
        // begins, nothing queues on the saturated pool. Denied attempts
        // still count as offered load and feed the retry machinery.
        if let Some(b) = self.middleware.breaker() {
            if !b.borrow_mut().admit(now) {
                let (w0, w1) = self.window;
                let in_window = now >= w0 && now < w1;
                if in_window {
                    self.metrics.offered += 1;
                    self.metrics.errors_detail.breaker_open += 1;
                }
                self.record_timeline(now, |b| {
                    b.offered += 1;
                    b.breaker_denied += 1;
                });
                self.after_attempt_failure(sim, client_id, in_window, now);
                return;
            }
        }
        // Advance both cache clocks to simulated time before the eager
        // host-side execution, so TTL freshness is judged at submit time
        // (no-ops when no cache is enabled, and under transactional
        // invalidation the clock is never consulted).
        self.db.set_cache_clock(now.as_micros());
        self.middleware.set_cache_clock(now.as_micros());
        let seq = self.txn_seq;
        self.txn_seq += 1;
        let client = &mut self.clients[client_id];
        let prep = self.middleware.run_interaction(
            self.db,
            self.app,
            id,
            &mut client.session,
            &mut client.rng,
            false,
        );
        client.pending_error = !prep.is_ok();
        client.retry_pending = false;
        client.pending_txn = Some((seq, prep.txn));
        client.pending_route = prep.route;
        self.metrics.submitted_total += 1;
        let (w0, w1) = self.window;
        if now >= w0 && now < w1 {
            self.metrics.offered += 1;
        }
        self.record_timeline(now, |b| b.offered += 1);
        let job = match self.cfg.resilience.request_timeout {
            Some(deadline) => sim.submit_with_deadline(prep.trace, client_id as u64, deadline),
            None => sim.submit(prep.trace, client_id as u64),
        };
        if let Some(ts) = &mut self.trace {
            ts.pending.insert(
                job,
                PendingSpans { client: client_id as u64, interaction: id, spans: prep.spans },
            );
        }
    }

    /// Replication activity over the run, or `None` when the replicated DB
    /// tier was not installed.
    pub fn replication_report(&self) -> Option<ReplicationReport> {
        let repl = self.repl.as_ref()?;
        let stats = self.middleware.replication()?.borrow().stats;
        Some(ReplicationReport { stats, failover_latencies: repl.failover_latencies.clone() })
    }

    /// One tick of the replication failure detector: sync replica health
    /// from the engine, re-admit restarted ex-primaries, run the
    /// lease-expiry election, and launch catch-up replays for fenced
    /// replicas. Re-arms itself until the run's horizon.
    fn heartbeat(&mut self, sim: &mut Simulation) {
        let Some(repl) = self.repl.as_mut() else { return };
        let cell = self.middleware.replication().expect("replication installed");
        let mut rs = cell.borrow_mut();
        let now = sim.now();
        let policy = rs.policy();

        // 1. Health sync: a replica observed down is fenced by `set_up` (it
        //    will miss every frame shipped while it is gone).
        let health: Vec<(usize, MachineId, bool)> =
            rs.replicas().iter().map(|r| (r.id, r.machine, r.up)).collect();
        for (id, machine, was_up) in health {
            let up = !sim.machine_is_down(machine);
            if up != was_up {
                rs.set_up(id, up);
            }
        }

        // 2. Restarted ex-primaries rejoin as fenced replicas with an empty
        //    log: whatever they knew as primary is treated as lost with the
        //    crash, so they owe a full stream replay before serving reads.
        repl.ex_primaries.retain(|&(id, machine)| {
            if sim.machine_is_down(machine) {
                true
            } else {
                rs.rejoin(id, machine, 0);
                false
            }
        });

        // 3. Lease-based failure detection: the primary must be observed
        //    down for a full lease before a replica may be promoted, so a
        //    short blip never produces two machines acting as primary.
        if sim.machine_is_down(rs.primary()) {
            let since = *repl.primary_down_since.get_or_insert(now);
            if now - since >= SimDuration::from_micros(policy.lease_us) {
                let old = rs.primary();
                if let Some(win) = rs.elect() {
                    repl.failover_latencies.push(now - since);
                    let (w0, w1) = self.window;
                    if now >= w0 && now < w1 {
                        self.metrics.errors_detail.failovers += 1;
                    }
                    let id = repl.next_rejoin_id;
                    repl.next_rejoin_id += 1;
                    repl.ex_primaries.push((id, old));
                    repl.primary_down_since = None;
                    if let Some(ts) = &mut self.trace {
                        // Elections are control-plane decisions, not engine
                        // jobs: record a fabricated job spanning
                        // detection→promotion so the capture shows the
                        // failover window.
                        let job = u64::MAX - repl.elections_traced;
                        repl.elections_traced += 1;
                        ts.jobs.push(JobRecord {
                            job,
                            client: u64::MAX,
                            interaction: REPLICATION_INTERACTION,
                            submitted_us: since.as_micros(),
                            completed_us: now.as_micros(),
                            spans: vec![SpanDef {
                                kind: SpanKind::Election,
                                label: format!(
                                    "promote r{} @ lsn {}",
                                    win.winner_id, win.applied_lsn
                                ),
                                start_op: 0,
                                end_op: 0,
                                parent: None,
                                cache_hit: None,
                                cost_micros: None,
                            }],
                        });
                    }
                }
                // A failed round (nobody eligible) is counted inside
                // `elect` and retried on the next heartbeat.
            }
        } else {
            repl.primary_down_since = None;
        }

        // 4. Catch-up replays: a fenced-but-up replica replays the stream
        //    span it missed (priced by `catchup_from`), sourced from the
        //    primary — so only while the primary is serving.
        if !sim.machine_is_down(rs.primary()) {
            let fenced: Vec<(usize, MachineId, u64)> = rs
                .replicas()
                .iter()
                .filter(|r| r.up && r.fenced && !repl.catchup_inflight.contains(&r.id))
                .map(|r| (r.id, r.machine, r.applied_lsn))
                .collect();
            for (id, machine, applied) in fenced {
                let head = repl.stream.head_lsn();
                let plan = repl.stream.catchup_from(applied);
                if plan.frames == 0 {
                    rs.unfence(id, head);
                    continue;
                }
                let mut t = Trace::with_capacity(3);
                t.push(Op::Net { from: rs.primary(), to: machine, bytes: plan.bytes });
                t.push(Op::Delay { micros: policy.lag_us });
                t.push(Op::Cpu { machine, micros: plan.apply_micros });
                let job = sim.submit(t, SHIP_TAG);
                repl.ships.insert(job, ShipKind::Catchup { replica: id, lsn: head });
                repl.catchup_inflight.insert(id);
                if let Some(ts) = &mut self.trace {
                    ts.pending.insert(
                        job,
                        PendingSpans {
                            client: u64::MAX,
                            interaction: REPLICATION_INTERACTION,
                            spans: vec![SpanDef {
                                kind: SpanKind::ReplicaShip,
                                label: format!("catch-up r{id} -> lsn {head}"),
                                start_op: 0,
                                end_op: 3,
                                parent: None,
                                cache_hit: None,
                                cost_micros: None,
                            }],
                        },
                    );
                }
            }
        }
        sim.set_timer_after(SimDuration::from_micros(policy.heartbeat_us.max(1)), TOKEN_HEARTBEAT);
    }

    /// Ships the just-committed write-set to every readable replica as a
    /// `Net → Delay(lag) → Cpu(apply)` job; commit-driven cache
    /// invalidation keys ride the same frame (counted per fan-out).
    fn ship_commit(&mut self, sim: &mut Simulation, log: &TxnLog) {
        let Some(repl) = self.repl.as_mut() else { return };
        let Some(frame) = repl.stream.commit(log) else { return };
        let cell = self.middleware.replication().expect("replication installed");
        let mut rs = cell.borrow_mut();
        let primary = rs.primary();
        let lag = rs.policy().lag_us;
        let targets: Vec<(usize, MachineId)> =
            rs.replicas().iter().filter(|r| r.readable()).map(|r| (r.id, r.machine)).collect();
        for (id, machine) in targets {
            let mut t = Trace::with_capacity(3);
            t.push(Op::Net { from: primary, to: machine, bytes: frame.ship_bytes() });
            t.push(Op::Delay { micros: lag });
            t.push(Op::Cpu { machine, micros: frame.apply_micros() });
            let job = sim.submit(t, SHIP_TAG);
            repl.ships.insert(job, ShipKind::Frame { replica: id, lsn: frame.lsn });
            rs.stats.frames_shipped += 1;
            rs.stats.invalidations_fanned += frame.entries;
            if let Some(ts) = &mut self.trace {
                ts.pending.insert(
                    job,
                    PendingSpans {
                        client: u64::MAX,
                        interaction: REPLICATION_INTERACTION,
                        spans: vec![SpanDef {
                            kind: SpanKind::ReplicaShip,
                            label: format!("ship lsn {} -> r{id}", frame.lsn),
                            start_op: 0,
                            end_op: 3,
                            parent: None,
                            cache_hit: None,
                            cost_micros: None,
                        }],
                    },
                );
            }
        }
    }

    /// Handles completion of a replication job, if `done` is one. A
    /// finished frame ship advances the replica's applied LSN; a finished
    /// catch-up unfences the replica unless the stream head moved while the
    /// replay ran (the next heartbeat ships the remainder).
    fn handle_ship_complete(&mut self, done: &JobDone) -> bool {
        let Some(repl) = self.repl.as_mut() else { return false };
        let Some(kind) = repl.ships.remove(&done.id) else { return false };
        let cell = self.middleware.replication().expect("replication installed");
        let mut rs = cell.borrow_mut();
        match kind {
            ShipKind::Frame { replica, lsn } => rs.applied(replica, lsn),
            ShipKind::Catchup { replica, lsn } => {
                repl.catchup_inflight.remove(&replica);
                rs.applied(replica, lsn);
                if repl.stream.head_lsn() == lsn {
                    rs.unfence(replica, lsn);
                }
            }
        }
        if let Some(ts) = &mut self.trace {
            if let Some(p) = ts.pending.remove(&done.id) {
                ts.jobs.push(JobRecord {
                    job: done.id.0,
                    client: p.client,
                    interaction: p.interaction,
                    submitted_us: done.submitted.as_micros(),
                    completed_us: done.completed.as_micros(),
                    spans: p.spans,
                });
            }
        }
        true
    }

    /// Handles abortion of a replication job, if `info` is one. A dead
    /// frame ship means the replica missed a committed write-set: fence it
    /// until it replays. A dead catch-up just retries on a later heartbeat
    /// (the replica was already fenced).
    fn handle_ship_abort(&mut self, info: &JobAborted) -> bool {
        let Some(repl) = self.repl.as_mut() else { return false };
        let Some(kind) = repl.ships.remove(&info.id) else { return false };
        let cell = self.middleware.replication().expect("replication installed");
        let mut rs = cell.borrow_mut();
        match kind {
            ShipKind::Frame { replica, .. } => rs.fence(replica),
            ShipKind::Catchup { replica, .. } => {
                repl.catchup_inflight.remove(&replica);
            }
        }
        if let Some(ts) = &mut self.trace {
            ts.pending.remove(&info.id);
        }
        true
    }

    fn snapshot(&mut self, sim: &mut Simulation, end: bool) {
        let n = sim.machine_count() as u32;
        if !end {
            self.cpu_snaps.clear();
            self.nic_snaps.clear();
            for i in 0..n {
                let m = dynamid_sim::MachineId(i);
                let at = sim.now();
                let cpu = WindowSnapshot::capture(at, sim.cpu_stats(m));
                let nic = WindowSnapshot::capture(at, sim.nic_stats(m));
                self.cpu_snaps.push((i, cpu, WindowSnapshot::default()));
                self.nic_snaps.push((i, nic, WindowSnapshot::default()));
            }
            return;
        }
        for idx in 0..self.cpu_snaps.len() {
            let m = dynamid_sim::MachineId(self.cpu_snaps[idx].0);
            let at = sim.now();
            self.cpu_snaps[idx].2 = WindowSnapshot::capture(at, sim.cpu_stats(m));
            self.nic_snaps[idx].2 = WindowSnapshot::capture(at, sim.nic_stats(m));
        }
        self.resources = ResourceWindow {
            cpu_util: self
                .cpu_snaps
                .iter()
                .map(|(i, s0, s1)| {
                    (
                        sim.machine_name(dynamid_sim::MachineId(*i)).to_string(),
                        s0.utilization_until(s1),
                    )
                })
                .collect(),
            nic_mbps: self
                .nic_snaps
                .iter()
                .map(|(i, s0, s1)| {
                    let bytes_per_sec = s0.throughput_until(s1);
                    (
                        sim.machine_name(dynamid_sim::MachineId(*i)).to_string(),
                        bytes_per_sec * 8.0 / 1e6,
                    )
                })
                .collect(),
        };
    }
}

impl Driver for WorkloadDriver<'_> {
    fn on_job_complete(&mut self, sim: &mut Simulation, done: JobDone) {
        if self.handle_ship_complete(&done) {
            return;
        }
        let client_id = done.tag as usize;
        // The front-end balancer (if any) sees the connection close here.
        self.middleware.route_done(self.clients[client_id].pending_route.take());
        // Job completion is the commit point: record the receipt in the
        // ledger and drop the undo log — and, with a replicated tier, the
        // committed write-set becomes the next stream frame, shipped to
        // every readable replica.
        if let Some((_, log)) = self.clients[client_id].pending_txn.take() {
            self.ledger.record_commit(self.clients[client_id].current, &log, self.db);
            self.ship_commit(sim, &log);
        }
        if let Some(ts) = &mut self.trace {
            if let Some(p) = ts.pending.remove(&done.id) {
                ts.jobs.push(JobRecord {
                    job: done.id.0,
                    client: p.client,
                    interaction: p.interaction,
                    submitted_us: done.submitted.as_micros(),
                    completed_us: done.completed.as_micros(),
                    spans: p.spans,
                });
            }
        }
        // A completed interaction is the breaker's recovery signal.
        if let Some(b) = self.middleware.breaker() {
            b.borrow_mut().record_success();
        }
        let (w0, w1) = self.window;
        if done.completed >= w0 && done.completed < w1 {
            self.metrics.completed += 1;
            if self.clients[client_id].pending_error {
                self.metrics.errors += 1;
            }
            if let Some(cur) = self.clients[client_id].current {
                self.metrics.per_interaction[cur] += 1;
            }
            self.metrics.latency.record(done.latency());
        }
        let good = !self.clients[client_id].pending_error;
        self.record_timeline(done.completed, |b| {
            b.completed += 1;
            if good {
                b.good += 1;
            }
        });
        if self.open.is_some() {
            // Open loop: this arrival is done — recycle its slot. The next
            // request comes from the arrival process, not from this client.
            let client = &mut self.clients[client_id];
            client.attempt = 0;
            client.retry_pending = false;
            client.current = None;
            self.release_slot(client_id);
        } else {
            // Think, then next interaction.
            let think = {
                let client = &mut self.clients[client_id];
                client.attempt = 0;
                client.retry_pending = false;
                client.rng.exponential(self.cfg.think_time)
            };
            sim.set_timer_after(think, client_id as u64);
        }
    }

    fn on_timer(&mut self, sim: &mut Simulation, token: u64) {
        match token {
            TOKEN_WINDOW_START => self.snapshot(sim, false),
            TOKEN_WINDOW_END => self.snapshot(sim, true),
            TOKEN_HEARTBEAT => self.heartbeat(sim),
            TOKEN_ARRIVAL => self.on_arrival(sim),
            client_id => {
                let client_id = client_id as usize;
                let retry = self.clients[client_id].retry_pending;
                match (retry, self.clients[client_id].current) {
                    (true, Some(id)) => self.submit_attempt(sim, client_id, id),
                    // Open-loop slots wake only for retry backoff; anything
                    // else is a stale timer against a recycled slot.
                    _ if self.open.is_some() => {}
                    _ => self.begin_interaction(sim, client_id),
                }
            }
        }
    }

    fn on_job_aborted(&mut self, sim: &mut Simulation, info: JobAborted) {
        if self.handle_ship_abort(&info) {
            return;
        }
        let client_id = info.tag as usize;
        // The balancer's connection drops with the aborted job; a retry
        // will route afresh.
        self.middleware.route_done(self.clients[client_id].pending_route.take());
        // An aborted job never completed, so its eagerly-executed writes
        // must not survive: roll the transaction back before anything else
        // (in particular before a retry re-executes the interaction).
        if let Some((_, log)) = self.clients[client_id].pending_txn.take() {
            // Aborted writes never published: flush dependent method-cache
            // entries (uncounted — this is coherence, not invalidation)
            // before the rows revert, then unwind the transaction.
            self.middleware.purge_method_tables(&log.touched_tables());
            self.db.apply_rollback(log);
            self.ledger.rolled_back += 1;
        }
        // An aborted request never completed: its span tree is dropped (the
        // engine likewise discards its half-open interval), though its
        // finished intervals still count toward machine load.
        if let Some(ts) = &mut self.trace {
            ts.pending.remove(&info.id);
        }
        let (w0, w1) = self.window;
        let in_window = info.aborted >= w0 && info.aborted < w1;
        if in_window {
            match info.reason {
                AbortReason::DeadlineExpired => self.metrics.errors_detail.timeouts += 1,
                AbortReason::Rejected => self.metrics.errors_detail.rejects += 1,
                AbortReason::Deadlock => self.metrics.errors_detail.deadlocks += 1,
                AbortReason::Shed => self.metrics.errors_detail.shed += 1,
                AbortReason::MachineCrash
                | AbortReason::TransientFault
                | AbortReason::Cancelled => self.metrics.errors_detail.aborts += 1,
            }
        }
        // Deadline expiries and sheds are the overload signals the breaker
        // trips on; crashes, deadlocks and admission rejects are not its
        // business.
        if matches!(info.reason, AbortReason::DeadlineExpired | AbortReason::Shed) {
            if let Some(b) = self.middleware.breaker() {
                b.borrow_mut().record_failure(info.aborted);
            }
        }
        let was_shed = matches!(info.reason, AbortReason::Shed);
        self.record_timeline(info.aborted, |b| {
            if was_shed {
                b.shed += 1;
            } else {
                b.failed += 1;
            }
        });
        self.after_attempt_failure(sim, client_id, in_window, info.aborted);
    }
}
