//! The database facade: catalog, statement cache, execution entry point.

use crate::ast::Stmt;
use crate::cache::{CacheKey, ResultCache, ResultCacheConfig, TableWrites};
use crate::compile::{compile, exec_compiled, CompiledStmt};
use crate::cost::{DbCostModel, QueryCounters};
use crate::error::{SqlError, SqlResult};
use crate::exec::{QueryResult, StatementKind};
use crate::parser::parse;
use crate::schema::TableSchema;
use crate::table::{RowId, Table};
use crate::txn::{TxnLog, UndoOp};
use crate::value::Value;
use std::collections::HashMap;
use std::sync::Arc;

/// Cumulative engine statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DbStats {
    /// Statements executed.
    pub statements: u64,
    /// Statement-cache hits.
    pub cache_hits: u64,
    /// Statements that returned an error.
    pub errors: u64,
    /// Executions served by a cached compiled plan.
    pub plan_cache_hits: u64,
    /// Executions that had to compile (or recompile) a plan.
    pub plan_cache_misses: u64,
    /// Cached plans discarded because DDL changed the schema version.
    pub plan_invalidations: u64,
    /// Read statements answered from the result cache without executing.
    pub result_cache_hits: u64,
    /// Cacheable read statements that missed the result cache.
    pub result_cache_misses: u64,
    /// Result-cache entries dropped by commit-driven invalidation.
    pub result_cache_invalidations: u64,
    /// Cacheable reads that skipped the result cache because the open
    /// transaction had written one of their tables.
    pub result_cache_bypasses: u64,
}

impl DbStats {
    /// Classifies the plan-cache outcome of the statements executed between
    /// the `before` snapshot and this one: `Some(true)` when every execution
    /// hit a cached plan, `Some(false)` when at least one compiled, and
    /// `None` when nothing touched the plan cache (e.g. transaction-control
    /// statements, which bypass it).
    pub fn plan_outcome_since(&self, before: &DbStats) -> Option<bool> {
        let hits = self.plan_cache_hits - before.plan_cache_hits;
        let misses = self.plan_cache_misses - before.plan_cache_misses;
        if misses > 0 {
            Some(false)
        } else if hits > 0 {
            Some(true)
        } else {
            None
        }
    }
}

/// An in-memory relational database: tables, a parsed-statement cache, and
/// a cost model.
///
/// Modeled on MySQL 3.23 with MyISAM tables, as used in the paper:
/// table-level locking (enforced by the middleware layer via the lock
/// metadata each [`QueryResult`] carries), `LOCK TABLES` / `UNLOCK TABLES`
/// statements, and auto-increment keys. On top of that base the engine
/// supports undo-logged transactions (`BEGIN` / `COMMIT` / `ROLLBACK`, or
/// the host-side [`begin_txn`](Self::begin_txn) family): bare statements
/// auto-commit exactly as before, while statements inside a transaction
/// record per-row undo entries so rollback restores the pre-transaction
/// state byte-for-byte.
///
/// ```
/// use dynamid_sqldb::{Database, TableSchema, ColumnType, Value};
/// let mut db = Database::new();
/// db.create_table(
///     TableSchema::builder("users")
///         .column("id", ColumnType::Int)
///         .column("name", ColumnType::Str)
///         .primary_key("id")
///         .auto_increment()
///         .build()?,
/// )?;
/// db.execute("INSERT INTO users (id, name) VALUES (NULL, ?)", &[Value::str("ann")])?;
/// let r = db.execute("SELECT name FROM users WHERE id = ?", &[Value::Int(1)])?;
/// assert_eq!(r.rows[0][0], Value::str("ann"));
/// # Ok::<(), dynamid_sqldb::SqlError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Database {
    /// Tables are `Arc`-shared between clones: `Database::clone` is an
    /// O(tables) copy-on-write snapshot fork, and the first write to a table
    /// in either copy un-shares just that table (`Arc::make_mut`). The
    /// harness leans on this to fork a populated database per sweep point.
    tables: Vec<Arc<Table>>,
    by_name: HashMap<String, usize>,
    cost: DbCostModel,
    stmt_cache: HashMap<String, Arc<Stmt>>,
    plan_cache: HashMap<String, Arc<CompiledStmt>>,
    schema_version: u64,
    stats: DbStats,
    /// Undo log of the open transaction, if any. `None` = auto-commit mode.
    txn: Option<TxnLog>,
    /// Rewind journal: when armed (see [`begin_rewind`](Self::begin_rewind)),
    /// every surviving row mutation — auto-commit writes directly, committed
    /// transactions at commit — is appended in host execution order, so
    /// [`rewind`](Self::rewind) can restore the armed-at state byte-exactly
    /// by applying the journal in reverse.
    journal: Option<TxnLog>,
    /// Set when a mutation the journal cannot exactly reverse happened (an
    /// [`apply_rollback`](Self::apply_rollback) of an already-journaled
    /// receipt). `rewind` then refuses and the caller must re-fork.
    journal_dirty: bool,
    /// Opt-in transactional read-query result cache (see [`crate::cache`]).
    result_cache: Option<ResultCache>,
    /// Id source for plans entering the plan cache; `(plan id, parameters)`
    /// keys the result cache.
    next_plan_id: u64,
}

impl Database {
    /// Creates an empty database with the default cost model.
    pub fn new() -> Self {
        Self::with_cost_model(DbCostModel::default())
    }

    /// Creates an empty database with an explicit cost model.
    pub fn with_cost_model(cost: DbCostModel) -> Self {
        Database {
            tables: Vec::new(),
            by_name: HashMap::new(),
            cost,
            stmt_cache: HashMap::new(),
            plan_cache: HashMap::new(),
            schema_version: 0,
            stats: DbStats::default(),
            txn: None,
            journal: None,
            journal_dirty: false,
            result_cache: None,
            next_plan_id: 0,
        }
    }

    /// The cost model used by [`statement_cost`](Self::statement_cost).
    pub fn cost_model(&self) -> &DbCostModel {
        &self.cost
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> DbStats {
        self.stats
    }

    /// Registers a new table.
    ///
    /// # Errors
    ///
    /// Fails if a table with the same name exists.
    pub fn create_table(&mut self, schema: TableSchema) -> SqlResult<()> {
        let name = schema.name().to_string();
        if self.by_name.contains_key(&name) {
            return Err(SqlError::TableExists(name));
        }
        self.by_name.insert(name, self.tables.len());
        self.tables.push(Arc::new(Table::new(schema)));
        // DDL invalidates every compiled plan: column positions, table
        // ids, and name resolution may all have changed.
        self.schema_version += 1;
        Ok(())
    }

    /// Drops both the parsed-statement cache and the compiled-plan cache.
    ///
    /// Every subsequent statement pays the full parse + compile cost once
    /// again; useful for cold-cache benchmarking and cache-equivalence
    /// tests. Table data and cumulative statistics are untouched.
    pub fn clear_caches(&mut self) {
        self.stmt_cache.clear();
        self.plan_cache.clear();
        if let Some(cache) = self.result_cache.as_mut() {
            cache.clear();
        }
    }

    /// Enables the read-query result cache with the given configuration,
    /// replacing (and emptying) any previous one. See [`crate::cache`] for
    /// the coherence protocol.
    pub fn enable_result_cache(&mut self, cfg: ResultCacheConfig) {
        self.result_cache = Some(ResultCache::new(cfg));
    }

    /// Disables and drops the result cache. Cumulative statistics remain.
    pub fn disable_result_cache(&mut self) {
        self.result_cache = None;
    }

    /// `true` while the result cache is enabled.
    pub fn result_cache_enabled(&self) -> bool {
        self.result_cache.is_some()
    }

    /// Number of result sets currently cached (diagnostics).
    pub fn result_cache_len(&self) -> usize {
        self.result_cache.as_ref().map_or(0, ResultCache::len)
    }

    /// Feeds the simulated-time clock used by TTL invalidation. A no-op
    /// while the cache is disabled or under transactional invalidation.
    pub fn set_cache_clock(&mut self, micros: u64) {
        if let Some(cache) = self.result_cache.as_mut() {
            cache.set_clock(micros);
        }
    }

    /// Current schema version (bumped by every DDL statement).
    pub(crate) fn schema_version(&self) -> u64 {
        self.schema_version
    }

    /// Catalog id of a table, for compiled plans.
    pub(crate) fn table_id(&self, name: &str) -> SqlResult<usize> {
        self.by_name.get(name).copied().ok_or_else(|| SqlError::UnknownTable(name.to_string()))
    }

    /// Table by catalog id (ids come from [`table_id`](Self::table_id) and
    /// stay valid for one schema version).
    pub(crate) fn table_at(&self, id: usize) -> &Table {
        &self.tables[id]
    }

    /// Catalog id of a table by name, if it exists. Ids stay valid for one
    /// schema version; the middleware method cache uses them as dependency
    /// keys.
    pub fn table_index(&self, name: &str) -> Option<usize> {
        self.by_name.get(name).copied()
    }

    /// `true` when a transaction is open and has written any of the given
    /// tables (by catalog id) — the bypass predicate shared by the result
    /// cache and the middleware method cache.
    pub fn txn_touches(&self, tables: &[usize]) -> bool {
        self.txn.as_ref().is_some_and(|t| t.touches(tables))
    }

    /// Extracts the per-table invalidation write-set from a transaction's
    /// undo log, against the *current* (post-commit) table state.
    ///
    /// Each written table maps to the primary-key values of its touched
    /// rows when they are attributable — update and delete ops carry their
    /// pre-image (and post-image), and an insert's key is read from the
    /// live row, with any later same-transaction mutation of that row
    /// contributing the key through its own op. A table without a primary
    /// key yields a wildcard (`rows: None`) that invalidates every
    /// dependent entry.
    pub fn write_set(&self, log: &TxnLog) -> Vec<TableWrites> {
        let mut per: std::collections::BTreeMap<usize, Option<Vec<Value>>> =
            std::collections::BTreeMap::new();
        let mut add = |table: usize, keys: &mut dyn Iterator<Item = Value>| {
            let entry = per.entry(table).or_insert_with(|| Some(Vec::new()));
            match (self.tables[table].schema().primary_key(), entry.as_mut()) {
                (Some(_), Some(rows)) => rows.extend(keys),
                (None, _) => *entry = None,
                (Some(_), None) => {}
            }
        };
        for op in log.ops() {
            match op {
                UndoOp::Insert { table, rid, .. } => {
                    let pk = self.tables[*table].schema().primary_key();
                    let key =
                        pk.and_then(|pk| self.tables[*table].get(*rid).map(|row| row[pk].clone()));
                    add(*table, &mut key.into_iter());
                }
                UndoOp::Update { table, old_row, new_row, .. } => {
                    let pk = self.tables[*table].schema().primary_key();
                    let keys = pk.map(|pk| {
                        let old = old_row[pk].clone();
                        let renamed = (old_row[pk] != new_row[pk]).then(|| new_row[pk].clone());
                        (old, renamed)
                    });
                    match keys {
                        Some((old, renamed)) => {
                            add(*table, &mut std::iter::once(old).chain(renamed))
                        }
                        None => add(*table, &mut std::iter::empty()),
                    }
                }
                UndoOp::Delete { table, old_row, .. } => {
                    let pk = self.tables[*table].schema().primary_key();
                    let key = pk.map(|pk| old_row[pk].clone());
                    add(*table, &mut key.into_iter());
                }
            }
        }
        per.into_iter().map(|(table, rows)| TableWrites { table, rows }).collect()
    }

    /// Names of all tables, in creation order.
    pub fn table_names(&self) -> Vec<&str> {
        self.tables.iter().map(|t| t.schema().name()).collect()
    }

    /// Immutable access to a table.
    ///
    /// # Errors
    ///
    /// Fails when the table does not exist.
    pub fn table(&self, name: &str) -> SqlResult<&Table> {
        self.by_name
            .get(name)
            .map(|i| self.tables[*i].as_ref())
            .ok_or_else(|| SqlError::UnknownTable(name.to_string()))
    }

    /// Mutable access to a table (used by the executor and by bulk loaders).
    ///
    /// # Errors
    ///
    /// Fails when the table does not exist.
    pub fn table_mut(&mut self, name: &str) -> SqlResult<&mut Table> {
        match self.by_name.get(name) {
            Some(i) => Ok(Arc::make_mut(&mut self.tables[*i])),
            None => Err(SqlError::UnknownTable(name.to_string())),
        }
    }

    /// Opens a transaction. Subsequent statements record undo entries until
    /// [`commit_txn`](Self::commit_txn) or [`rollback_txn`](Self::rollback_txn).
    ///
    /// # Errors
    ///
    /// Fails with [`SqlError::Transaction`] when a transaction is already
    /// open — the engine does not nest transactions.
    pub fn begin_txn(&mut self) -> SqlResult<()> {
        if self.txn.is_some() {
            return Err(SqlError::Transaction("BEGIN while a transaction is open".into()));
        }
        self.txn = Some(TxnLog::default());
        Ok(())
    }

    /// `true` while a transaction is open.
    pub fn in_txn(&self) -> bool {
        self.txn.is_some()
    }

    /// Commits the open transaction, keeping its writes, and returns the
    /// undo log as the transaction's write receipt (`None` when no
    /// transaction was open — a bare `COMMIT` is a no-op, as in MySQL).
    ///
    /// With the rewind journal armed, the committed ops are also absorbed
    /// into the journal. Host-side mutation is strictly sequential (one
    /// transaction open at a time, executed eagerly), so absorbing at
    /// commit keeps the journal in exact execution order.
    pub fn commit_txn(&mut self) -> Option<TxnLog> {
        let log = self.txn.take()?;
        if let Some(journal) = self.journal.as_mut() {
            journal.extend_cloned(&log);
        }
        // The commit publishes the transaction's writes: drop every result
        // cache entry its write-set invalidates.
        if self.result_cache.is_some() && !log.is_empty() {
            let writes = self.write_set(&log);
            let mut removed = 0;
            if let Some(cache) = self.result_cache.as_mut() {
                removed = cache.invalidate_commit(&writes);
            }
            self.stats.result_cache_invalidations += removed;
        }
        Some(log)
    }

    /// Rolls back the open transaction, restoring the exact pre-`BEGIN`
    /// state. A bare `ROLLBACK` with no open transaction is a no-op.
    ///
    /// Journal-neutral: an open transaction's ops were never absorbed into
    /// the rewind journal, so undoing them here nets out to zero.
    pub fn rollback_txn(&mut self) {
        if let Some(log) = self.txn.take() {
            self.apply_undo_log(log);
        }
    }

    /// Applies an undo log in reverse against the current tables. Used by
    /// [`rollback_txn`](Self::rollback_txn) and by hosts that unwind a
    /// transaction whose log was already taken (e.g. an aborted in-flight
    /// request whose receipt travelled with the request).
    ///
    /// When the rewind journal is armed, the receipt being unwound here was
    /// already absorbed at commit, and undo application is not exactly
    /// invertible out of order (free-list and slot-vector layout can
    /// diverge), so this poisons the journal: the next
    /// [`rewind`](Self::rewind) reports the database unrecoverable and the
    /// caller re-forks.
    pub fn apply_rollback(&mut self, log: TxnLog) {
        if self.journal.is_some() {
            self.journal_dirty = true;
        }
        // Unwinding reverts the data the dependent cache entries were
        // computed from: purge them. A coherence flush, not an
        // invalidation — aborts are deliberately not counted (and, unlike
        // commits, flush even under TTL invalidation: the receipt's writes
        // are disappearing, not being published).
        if let Some(cache) = self.result_cache.as_mut() {
            if !log.is_empty() {
                let mut tables: Vec<usize> = log.ops().iter().map(UndoOp::table).collect();
                tables.sort_unstable();
                tables.dedup();
                let writes: Vec<TableWrites> =
                    tables.into_iter().map(|table| TableWrites { table, rows: None }).collect();
                cache.purge(&writes);
            }
        }
        self.apply_undo_log(log);
    }

    /// Arms the rewind journal: from this point on, every surviving row
    /// mutation is recorded so [`rewind`](Self::rewind) can restore the
    /// current table state byte-exactly. Re-arming resets the journal.
    ///
    /// The harness uses this to reuse one database fork across many sweep
    /// points instead of paying a full copy-on-write table clone (and drop)
    /// per point.
    pub fn begin_rewind(&mut self) {
        self.journal = Some(TxnLog::default());
        self.journal_dirty = false;
    }

    /// Restores the table state captured by the last
    /// [`begin_rewind`](Self::begin_rewind) by applying the journal in
    /// reverse, then re-arms the journal. Returns `false` (leaving the
    /// database untouched) when an un-journalable mutation poisoned the
    /// journal — the caller must discard this instance and re-fork.
    ///
    /// Caches and statistics are deliberately left alone: statement cost is
    /// a pure function of per-query counters, never of cache warmth, so a
    /// rewound database drives byte-identical experiments while keeping its
    /// warm plan cache.
    ///
    /// # Panics
    ///
    /// Panics if a transaction is still open.
    pub fn rewind(&mut self) -> bool {
        assert!(self.txn.is_none(), "rewind with a transaction open");
        if self.journal_dirty {
            return false;
        }
        if let Some(log) = self.journal.take() {
            self.apply_undo_log(log);
            self.journal = Some(TxnLog::default());
        }
        // Rewinding reverts the data wholesale; cached result sets computed
        // since the journal was armed would be stale against it.
        if let Some(cache) = self.result_cache.as_mut() {
            cache.clear();
        }
        true
    }

    fn apply_undo_log(&mut self, log: TxnLog) {
        for op in log.into_ops().into_iter().rev() {
            match op {
                UndoOp::Insert { table, rid, new_slot, prev_next_auto, post_next_auto } => {
                    Arc::make_mut(&mut self.tables[table]).undo_insert(
                        rid,
                        new_slot,
                        prev_next_auto,
                        post_next_auto,
                    );
                }
                UndoOp::Update { table, rid, old_row, new_row, sec_pos } => {
                    Arc::make_mut(&mut self.tables[table])
                        .undo_update(rid, old_row, new_row, &sec_pos);
                }
                UndoOp::Delete { table, rid, old_row, sec_pos } => {
                    Arc::make_mut(&mut self.tables[table]).undo_delete(rid, old_row, &sec_pos);
                }
            }
        }
    }

    /// `true` when both databases hold byte-identical table data (schemas,
    /// rows, slot layout, free lists, indexes, and auto-increment counters).
    /// Caches and statistics are ignored — this is the rollback oracle:
    /// after `BEGIN … ROLLBACK` the database must compare equal to a
    /// [`deep_clone`](Self::deep_clone) taken at `BEGIN`.
    pub fn same_data(&self, other: &Database) -> bool {
        self.by_name == other.by_name
            && self.tables.len() == other.tables.len()
            && self.tables.iter().zip(&other.tables).all(|(a, b)| **a == **b)
    }

    /// Inserts a row into table `id`, recording undo information when a
    /// transaction is open. All executor insert paths go through here.
    pub(crate) fn insert_into(
        &mut self,
        id: usize,
        row: Vec<Value>,
    ) -> SqlResult<(RowId, Option<i64>)> {
        let recording = self.txn.is_some() || self.journal.is_some();
        let table = Arc::make_mut(&mut self.tables[id]);
        if !recording {
            return table.insert(row);
        }
        let prev_next_auto = table.next_auto();
        let len_before = table.slot_count();
        let (rid, assigned) = table.insert(row)?;
        let post_next_auto = table.next_auto();
        self.record_undo(UndoOp::Insert {
            table: id,
            rid,
            new_slot: rid == len_before,
            prev_next_auto,
            post_next_auto,
        });
        Ok((rid, assigned))
    }

    /// Routes one undo record to the open transaction's log, or — for
    /// auto-commit writes — straight into the armed rewind journal.
    fn record_undo(&mut self, op: UndoOp) {
        match self.txn.as_mut() {
            Some(txn) => txn.record(op),
            None => {
                if let Some(journal) = self.journal.as_mut() {
                    journal.record(op);
                }
            }
        }
    }

    /// Replaces the row at `rid` in table `id`, recording the pre-image
    /// when a transaction is open. All executor update paths go through
    /// here.
    pub(crate) fn update_row(
        &mut self,
        id: usize,
        rid: RowId,
        new_row: Vec<Value>,
    ) -> SqlResult<()> {
        let recording = self.txn.is_some() || self.journal.is_some();
        let table = Arc::make_mut(&mut self.tables[id]);
        if !recording {
            return table.update(rid, new_row);
        }
        let old_row = table.get(rid).map(<[Value]>::to_vec);
        let sec_pos = if old_row.is_some() { table.sec_positions(rid) } else { Vec::new() };
        let post_image = new_row.clone();
        table.update(rid, new_row)?;
        if let Some(old_row) = old_row {
            self.record_undo(UndoOp::Update {
                table: id,
                rid,
                old_row,
                new_row: post_image,
                sec_pos,
            });
        }
        Ok(())
    }

    /// Deletes the row at `rid` in table `id`, recording the pre-image when
    /// a transaction is open. All executor delete paths go through here.
    pub(crate) fn delete_row(&mut self, id: usize, rid: RowId) -> SqlResult<Vec<Value>> {
        let recording = self.txn.is_some() || self.journal.is_some();
        let table = Arc::make_mut(&mut self.tables[id]);
        if !recording {
            return table.delete(rid);
        }
        let sec_pos = if table.get(rid).is_some() { table.sec_positions(rid) } else { Vec::new() };
        let old_row = table.delete(rid)?;
        self.record_undo(UndoOp::Delete { table: id, rid, old_row: old_row.clone(), sec_pos });
        Ok(old_row)
    }

    /// A fully materialized copy: every table's rows and indexes are
    /// duplicated up front instead of shared copy-on-write. Only useful as
    /// the baseline in snapshot benchmarks; `Database::clone` is the cheap
    /// O(tables) fork every caller should prefer.
    pub fn deep_clone(&self) -> Database {
        let mut copy = self.clone();
        for t in &mut copy.tables {
            *t = Arc::new((**t).clone());
        }
        copy
    }

    /// Executes a statement through the retained AST interpreter instead of
    /// the compiled-plan path.
    ///
    /// The interpreter is the reference implementation the executor-parity
    /// tests compare against: results and counters must be byte-identical
    /// to [`execute`](Self::execute). It re-parses on every call and
    /// bypasses both caches and the [`DbStats`] accounting, so it is slow
    /// on purpose — use it only as an oracle.
    ///
    /// # Errors
    ///
    /// Same error surface as [`execute`](Self::execute).
    pub fn execute_interpreted(&mut self, sql: &str, params: &[Value]) -> SqlResult<QueryResult> {
        let stmt = parse(sql)?;
        crate::exec::execute_stmt(self, &stmt, params)
    }

    /// Executes one SQL statement with positional `?` parameters.
    ///
    /// Statements are compiled once per SQL text and schema version: the
    /// first execution parses, resolves names, and selects an access-path
    /// shape; repeat executions bind parameters into the cached
    /// [`CompiledStmt`] and run directly. DDL bumps the schema version,
    /// which lazily invalidates stale plans. The parsed-statement (AST)
    /// cache survives plan invalidation, so recompilation after DDL skips
    /// the parser.
    ///
    /// # Errors
    ///
    /// Any parse, resolution, type, or constraint error. Failed parses and
    /// failed compilations are never cached.
    pub fn execute(&mut self, sql: &str, params: &[Value]) -> SqlResult<QueryResult> {
        // Transaction control is free: it neither touches the caches nor
        // counts against any [`DbStats`] counter, so wrapping a statement
        // sequence in BEGIN/COMMIT leaves the statistics byte-identical to
        // running it in auto-commit mode.
        if let Some(kind) = txn_control(sql) {
            return self.exec_txn_control(kind);
        }
        self.stats.statements += 1;

        match self.plan_cache.get(sql) {
            Some(plan) if plan.version == self.schema_version => {
                self.stats.cache_hits += 1;
                self.stats.plan_cache_hits += 1;
                let plan = Arc::clone(plan);
                return self.run_plan(&plan, params);
            }
            Some(_) => {
                self.plan_cache.remove(sql);
                self.stats.plan_invalidations += 1;
            }
            None => {}
        }
        self.stats.plan_cache_misses += 1;

        let stmt = match self.stmt_cache.get(sql) {
            Some(s) => {
                self.stats.cache_hits += 1;
                Arc::clone(s)
            }
            None => {
                let parsed = match parse(sql) {
                    Ok(p) => Arc::new(p),
                    Err(e) => {
                        self.stats.errors += 1;
                        return Err(e);
                    }
                };
                self.stmt_cache.insert(sql.to_string(), Arc::clone(&parsed));
                parsed
            }
        };
        let mut plan = match compile(self, &stmt) {
            Ok(p) => p,
            Err(e) => {
                self.stats.errors += 1;
                return Err(e);
            }
        };
        // Mint the plan's result-cache id as it enters the plan cache; a
        // recompiled (DDL-invalidated) plan gets a fresh id, orphaning any
        // entries of the old one until LRU ages them out.
        self.next_plan_id += 1;
        plan.id = self.next_plan_id;
        let plan = Arc::new(plan);
        self.plan_cache.insert(sql.to_string(), Arc::clone(&plan));
        self.run_plan(&plan, params)
    }

    /// Executes a cached plan, consulting the result cache for SELECTs.
    ///
    /// The cache sits *after* all statement/plan-cache bookkeeping and
    /// stores the complete [`QueryResult`] (rows and modeled
    /// [`QueryCounters`] alike), so with transactional invalidation every
    /// counter visible to the cost model and the legacy [`DbStats`] fields
    /// stays byte-identical to running with the cache off.
    fn run_plan(&mut self, plan: &Arc<CompiledStmt>, params: &[Value]) -> SqlResult<QueryResult> {
        let mut store: Option<(CacheKey, Vec<usize>)> = None;
        if self.result_cache.is_some() && plan.id != 0 {
            if let Some(ids) = plan.read_table_ids() {
                if self.txn.as_ref().is_some_and(|t| t.touches(&ids)) {
                    // The open transaction wrote one of the read tables: a
                    // cached (committed-state) result would hide its own
                    // uncommitted writes. Skip both lookup and store.
                    self.stats.result_cache_bypasses += 1;
                } else {
                    let key = CacheKey::from_values(params);
                    let hit =
                        self.result_cache.as_mut().and_then(|cache| cache.lookup(plan.id, &key));
                    if let Some(hit) = hit {
                        self.stats.result_cache_hits += 1;
                        return Ok(hit);
                    }
                    self.stats.result_cache_misses += 1;
                    store = Some((key, ids));
                }
            }
        }
        let result = match exec_compiled(self, plan, params) {
            Ok(r) => r,
            Err(e) => {
                self.stats.errors += 1;
                return Err(e);
            }
        };
        if let Some((key, ids)) = store {
            let pk = plan.pk_point(self, params);
            if let Some(cache) = self.result_cache.as_mut() {
                cache.store(plan.id, key, result.clone(), ids, pk);
            }
        } else if result.kind == StatementKind::Write && self.txn.is_none() {
            // An auto-commit write is an immediate commit. There is no undo
            // log to attribute rows from, so invalidate coarsely by table.
            self.autocommit_invalidate(&result.write_tables);
        }
        Ok(result)
    }

    /// Commit-time invalidation for auto-commit writes: wildcard per
    /// written table name.
    fn autocommit_invalidate(&mut self, write_tables: &[String]) {
        if self.result_cache.is_none() || write_tables.is_empty() {
            return;
        }
        let writes: Vec<TableWrites> = write_tables
            .iter()
            .filter_map(|n| self.by_name.get(n).copied())
            .map(|table| TableWrites { table, rows: None })
            .collect();
        let mut removed = 0;
        if let Some(cache) = self.result_cache.as_mut() {
            removed = cache.invalidate_commit(&writes);
        }
        self.stats.result_cache_invalidations += removed;
    }

    /// CPU microseconds the database machine should be charged for a
    /// statement with the given counters.
    pub fn statement_cost(&self, counters: &QueryCounters) -> u64 {
        self.cost.cost_micros(counters)
    }

    pub(crate) fn exec_txn_control(&mut self, kind: StatementKind) -> SqlResult<QueryResult> {
        match kind {
            StatementKind::Begin => self.begin_txn()?,
            StatementKind::Commit => {
                self.commit_txn();
            }
            StatementKind::Rollback => self.rollback_txn(),
            _ => unreachable!("not a transaction-control kind"),
        }
        Ok(QueryResult::empty(kind))
    }
}

/// Recognizes `BEGIN` / `START TRANSACTION` / `COMMIT` / `ROLLBACK` without
/// going through the parser, so `execute` can dispatch transaction control
/// before any statistics or cache accounting.
fn txn_control(sql: &str) -> Option<StatementKind> {
    let t = sql.trim().trim_end_matches(';').trim_end();
    if t.eq_ignore_ascii_case("begin") {
        return Some(StatementKind::Begin);
    }
    if t.eq_ignore_ascii_case("commit") {
        return Some(StatementKind::Commit);
    }
    if t.eq_ignore_ascii_case("rollback") {
        return Some(StatementKind::Rollback);
    }
    let mut words = t.split_whitespace();
    if words.next().is_some_and(|w| w.eq_ignore_ascii_case("start"))
        && words.next().is_some_and(|w| w.eq_ignore_ascii_case("transaction"))
        && words.next().is_none()
    {
        return Some(StatementKind::Begin);
    }
    None
}

impl Default for Database {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::StatementKind;
    use crate::schema::ColumnType;

    fn db_with_users() -> Database {
        let mut db = Database::new();
        db.create_table(
            TableSchema::builder("users")
                .column("id", ColumnType::Int)
                .column("nickname", ColumnType::Str)
                .column("region", ColumnType::Int)
                .column("rating", ColumnType::Int)
                .primary_key("id")
                .auto_increment()
                .index("region")
                .build()
                .unwrap(),
        )
        .unwrap();
        for (nick, region, rating) in [("ann", 1, 5), ("bob", 1, 3), ("cat", 2, 9), ("dee", 3, 1)] {
            db.execute(
                "INSERT INTO users (id, nickname, region, rating) VALUES (NULL, ?, ?, ?)",
                &[Value::str(nick), Value::Int(region), Value::Int(rating)],
            )
            .unwrap();
        }
        db
    }

    #[test]
    fn create_insert_select_roundtrip() {
        let mut db = db_with_users();
        let r =
            db.execute("SELECT nickname FROM users WHERE region = ?", &[Value::Int(1)]).unwrap();
        let mut names: Vec<&str> = r.rows.iter().map(|r| r[0].as_str().unwrap()).collect();
        names.sort_unstable();
        assert_eq!(names, vec!["ann", "bob"]);
        assert_eq!(r.kind, StatementKind::Read);
        assert_eq!(r.read_tables, vec!["users"]);
        // Used the secondary index: 2 rows examined, not 4.
        assert_eq!(r.counters.rows_examined, 2);
        assert_eq!(r.counters.index_lookups, 1);
    }

    #[test]
    fn duplicate_table_rejected() {
        let mut db = db_with_users();
        let err = db
            .create_table(
                TableSchema::builder("users").column("id", ColumnType::Int).build().unwrap(),
            )
            .unwrap_err();
        assert!(matches!(err, SqlError::TableExists(_)));
    }

    #[test]
    fn update_and_delete_affect_counts() {
        let mut db = db_with_users();
        let r = db.execute("UPDATE users SET rating = rating + 1 WHERE region = 1", &[]).unwrap();
        assert_eq!(r.affected, 2);
        assert_eq!(r.write_tables, vec!["users"]);
        let r = db.execute("SELECT rating FROM users WHERE nickname = 'ann'", &[]).unwrap();
        assert_eq!(r.rows[0][0], Value::Int(6));
        // Ratings now: ann=6, bob=4, cat=9, dee=1.
        let r = db.execute("DELETE FROM users WHERE rating < 4", &[]).unwrap();
        assert_eq!(r.affected, 1);
        let r = db.execute("SELECT COUNT(*) FROM users", &[]).unwrap();
        assert_eq!(r.scalar(), Some(&Value::Int(3)));
    }

    #[test]
    fn last_insert_id_flows_through() {
        let mut db = db_with_users();
        let r = db
            .execute(
                "INSERT INTO users (id, nickname, region, rating) VALUES (NULL, 'eve', 2, 2)",
                &[],
            )
            .unwrap();
        assert_eq!(r.last_insert_id, Some(5));
    }

    #[test]
    fn statement_cache_hits() {
        let mut db = db_with_users();
        let before = db.stats();
        for i in 0..5 {
            db.execute("SELECT * FROM users WHERE id = ?", &[Value::Int(i + 1)]).unwrap();
        }
        let after = db.stats();
        assert_eq!(after.statements - before.statements, 5);
        assert_eq!(after.cache_hits - before.cache_hits, 4);
    }

    #[test]
    fn lock_statements_classified() {
        let mut db = db_with_users();
        let r = db.execute("LOCK TABLES users WRITE", &[]).unwrap();
        match r.kind {
            StatementKind::LockTables(l) => {
                assert_eq!(l, vec![("users".to_string(), crate::ast::TableLockKind::Write)]);
            }
            other => panic!("wrong kind: {other:?}"),
        }
        let r = db.execute("UNLOCK TABLES", &[]).unwrap();
        assert_eq!(r.kind, StatementKind::UnlockTables);
        // Locking a missing table errors.
        assert!(db.execute("LOCK TABLES nope WRITE", &[]).is_err());
    }

    #[test]
    fn errors_are_counted_and_reported() {
        let mut db = db_with_users();
        assert!(db.execute("SELEKT * FROM users", &[]).is_err());
        assert!(db.execute("SELECT * FROM missing", &[]).is_err());
        assert!(db.execute("SELECT * FROM users WHERE id = ?", &[]).is_err());
        assert_eq!(db.stats().errors, 3);
    }

    #[test]
    fn table_names_in_order() {
        let db = db_with_users();
        assert_eq!(db.table_names(), vec!["users"]);
    }

    #[test]
    fn cow_snapshots_isolate_writes() {
        let base = db_with_users();
        let mut fork_a = base.clone();
        let mut fork_b = base.clone();
        fork_a.execute("UPDATE users SET rating = 100 WHERE nickname = 'ann'", &[]).unwrap();
        fork_b.execute("DELETE FROM users WHERE nickname = 'bob'", &[]).unwrap();
        // Each fork sees only its own write; the shared base sees neither.
        let rating = |db: &mut Database| {
            db.execute("SELECT rating FROM users WHERE nickname = 'ann'", &[])
                .unwrap()
                .scalar()
                .cloned()
        };
        assert_eq!(rating(&mut fork_a), Some(Value::Int(100)));
        assert_eq!(rating(&mut fork_b), Some(Value::Int(5)));
        assert_eq!(rating(&mut base.clone()), Some(Value::Int(5)));
        assert_eq!(fork_a.table("users").unwrap().row_count(), 4);
        assert_eq!(fork_b.table("users").unwrap().row_count(), 3);
        assert_eq!(base.table("users").unwrap().row_count(), 4);
    }

    #[test]
    fn deep_clone_matches_cow_fork() {
        let base = db_with_users();
        let mut deep = base.deep_clone();
        let mut cow = base.clone();
        let q = "SELECT id, nickname, region, rating FROM users ORDER BY id";
        assert_eq!(deep.execute(q, &[]).unwrap(), cow.execute(q, &[]).unwrap());
    }

    #[test]
    fn interpreter_oracle_agrees_with_compiled_path() {
        let mut db = db_with_users();
        let q = "SELECT region, COUNT(*) AS n FROM users GROUP BY region ORDER BY n DESC";
        let compiled = db.execute(q, &[]).unwrap();
        let interpreted = db.execute_interpreted(q, &[]).unwrap();
        assert_eq!(compiled, interpreted);
    }

    #[test]
    fn rollback_restores_exact_pre_begin_state() {
        let mut db = db_with_users();
        let baseline = db.deep_clone();
        db.execute("BEGIN", &[]).unwrap();
        assert!(db.in_txn());
        db.execute(
            "INSERT INTO users (id, nickname, region, rating) VALUES (NULL, 'eve', 2, 2)",
            &[],
        )
        .unwrap();
        db.execute("UPDATE users SET rating = rating + 10 WHERE region = 1", &[]).unwrap();
        db.execute("DELETE FROM users WHERE nickname = 'cat'", &[]).unwrap();
        assert!(!db.same_data(&baseline));
        db.execute("ROLLBACK", &[]).unwrap();
        assert!(!db.in_txn());
        assert!(db.same_data(&baseline));
        // The next auto-increment id is also restored.
        let r = db
            .execute(
                "INSERT INTO users (id, nickname, region, rating) VALUES (NULL, 'fay', 3, 1)",
                &[],
            )
            .unwrap();
        assert_eq!(r.last_insert_id, Some(5));
    }

    #[test]
    fn txn_control_is_stats_and_cache_neutral() {
        let mut db = db_with_users();
        let before = db.stats();
        db.execute("BEGIN", &[]).unwrap();
        db.execute("COMMIT", &[]).unwrap();
        db.execute("start transaction", &[]).unwrap();
        db.execute("ROLLBACK;", &[]).unwrap();
        db.execute("rollback", &[]).unwrap(); // bare ROLLBACK is a no-op
        db.execute("commit", &[]).unwrap(); // bare COMMIT too
        assert_eq!(db.stats(), before);
    }

    #[test]
    fn nested_begin_is_rejected() {
        let mut db = db_with_users();
        db.execute("BEGIN", &[]).unwrap();
        let err = db.execute("BEGIN", &[]).unwrap_err();
        assert!(matches!(err, SqlError::Transaction(_)));
        db.execute("ROLLBACK", &[]).unwrap();
    }

    #[test]
    fn commit_keeps_writes_and_returns_receipt() {
        let mut db = db_with_users();
        db.begin_txn().unwrap();
        db.execute(
            "INSERT INTO users (id, nickname, region, rating) VALUES (NULL, 'eve', 2, 2)",
            &[],
        )
        .unwrap();
        let log = db.commit_txn().expect("open transaction");
        assert_eq!(log.len(), 1);
        let users = db.table_id("users").unwrap();
        assert_eq!(log.row_deltas(), vec![(users, 1)]);
        let r = db.execute("SELECT COUNT(*) FROM users", &[]).unwrap();
        assert_eq!(r.scalar(), Some(&Value::Int(5)));
    }

    #[test]
    fn deferred_rollback_never_reuses_observed_auto_ids() {
        let mut db = db_with_users();
        db.begin_txn().unwrap();
        db.execute(
            "INSERT INTO users (id, nickname, region, rating) VALUES (NULL, 'eve', 2, 2)",
            &[],
        )
        .unwrap();
        let log = db.commit_txn().expect("open transaction");
        // Another client inserts (auto-commit) before the first transaction
        // is unwound — its id must not be reissued after the rollback.
        let r = db
            .execute(
                "INSERT INTO users (id, nickname, region, rating) VALUES (NULL, 'fay', 3, 1)",
                &[],
            )
            .unwrap();
        assert_eq!(r.last_insert_id, Some(6));
        db.apply_rollback(log);
        assert_eq!(db.table("users").unwrap().row_count(), 5);
        let r = db
            .execute(
                "INSERT INTO users (id, nickname, region, rating) VALUES (NULL, 'gil', 1, 4)",
                &[],
            )
            .unwrap();
        assert_eq!(r.last_insert_id, Some(7));
    }

    #[test]
    fn interpreter_handles_txn_control_like_execute() {
        let mut db = db_with_users();
        let baseline = db.deep_clone();
        db.execute_interpreted("BEGIN", &[]).unwrap();
        db.execute_interpreted("DELETE FROM users WHERE region = 1", &[]).unwrap();
        db.execute_interpreted("ROLLBACK", &[]).unwrap();
        assert!(db.same_data(&baseline));
        let r = db.execute_interpreted("COMMIT", &[]).unwrap();
        assert_eq!(r.kind, StatementKind::Commit);
    }

    fn txn_cache() -> crate::cache::ResultCacheConfig {
        crate::cache::ResultCacheConfig {
            capacity: 64,
            invalidation: crate::cache::CacheInvalidation::Transactional,
        }
    }

    /// Two-table fixture: `users` (as in [`db_with_users`]) plus a `tags`
    /// table, both populated before any plan is compiled so DDL does not
    /// invalidate cached plans mid-test.
    fn db_with_users_and_tags() -> Database {
        let mut db = db_with_users();
        db.create_table(
            TableSchema::builder("tags")
                .column("id", ColumnType::Int)
                .column("label", ColumnType::Str)
                .primary_key("id")
                .auto_increment()
                .build()
                .unwrap(),
        )
        .unwrap();
        for label in ["new", "used"] {
            db.execute("INSERT INTO tags (id, label) VALUES (NULL, ?)", &[Value::str(label)])
                .unwrap();
        }
        db
    }

    #[test]
    fn result_cache_hit_returns_identical_result() {
        let mut db = db_with_users();
        db.enable_result_cache(txn_cache());
        let sql = "SELECT nickname FROM users WHERE region = ?";
        let first = db.execute(sql, &[Value::Int(1)]).unwrap();
        let second = db.execute(sql, &[Value::Int(1)]).unwrap();
        // The hit is the complete stored result — rows AND counters.
        assert_eq!(first, second);
        let s = db.stats();
        assert_eq!((s.result_cache_hits, s.result_cache_misses), (1, 1));
        assert_eq!(db.result_cache_len(), 1);
        // Different parameters are a different key.
        let other = db.execute(sql, &[Value::Int(2)]).unwrap();
        assert_eq!(other.rows.len(), 1);
        assert_eq!(db.stats().result_cache_misses, 2);
    }

    #[test]
    fn result_cache_bypassed_only_for_touched_tables() {
        let mut db = db_with_users_and_tags();
        db.enable_result_cache(txn_cache());
        db.begin_txn().unwrap();
        db.execute("UPDATE users SET rating = 0 WHERE id = 1", &[]).unwrap();
        // Read of the table this transaction wrote: bypassed, not cached.
        db.execute("SELECT rating FROM users WHERE id = 1", &[]).unwrap();
        assert_eq!(db.stats().result_cache_bypasses, 1);
        assert_eq!(db.result_cache_len(), 0);
        // Read of an untouched table: served from / stored into the cache.
        db.execute("SELECT label FROM tags WHERE id = 1", &[]).unwrap();
        db.execute("SELECT label FROM tags WHERE id = 1", &[]).unwrap();
        let s = db.stats();
        assert_eq!((s.result_cache_hits, s.result_cache_misses), (1, 1));
        db.commit_txn();
    }

    #[test]
    fn commit_invalidates_dependent_entries() {
        let mut db = db_with_users();
        db.enable_result_cache(txn_cache());
        let sql = "SELECT rating FROM users WHERE region = ?";
        db.execute(sql, &[Value::Int(1)]).unwrap();
        assert_eq!(db.result_cache_len(), 1);
        db.begin_txn().unwrap();
        db.execute("UPDATE users SET rating = 99 WHERE id = 1", &[]).unwrap();
        // Uncommitted writes invalidate nothing.
        assert_eq!(db.stats().result_cache_invalidations, 0);
        db.commit_txn().unwrap();
        assert_eq!(db.stats().result_cache_invalidations, 1);
        let fresh = db.execute(sql, &[Value::Int(1)]).unwrap();
        assert!(fresh.rows.iter().any(|r| r[0] == Value::Int(99)));
        assert_eq!(db.stats().result_cache_hits, 0);
    }

    #[test]
    fn pk_point_entries_survive_writes_to_other_rows() {
        let mut db = db_with_users();
        db.enable_result_cache(txn_cache());
        let sql = "SELECT nickname FROM users WHERE id = ?";
        db.execute(sql, &[Value::Int(1)]).unwrap();
        db.execute(sql, &[Value::Int(2)]).unwrap();
        db.begin_txn().unwrap();
        db.execute("UPDATE users SET nickname = 'rob' WHERE id = 2", &[]).unwrap();
        db.commit_txn().unwrap();
        // Only the row-2 entry is invalidated; row 1 still hits.
        assert_eq!(db.stats().result_cache_invalidations, 1);
        db.execute(sql, &[Value::Int(1)]).unwrap();
        assert_eq!(db.stats().result_cache_hits, 1);
        let r = db.execute(sql, &[Value::Int(2)]).unwrap();
        assert_eq!(r.rows[0][0], Value::str("rob"));
        assert_eq!(db.stats().result_cache_hits, 1);
    }

    #[test]
    fn rollback_leaves_cache_coherent_and_uncounted() {
        let mut db = db_with_users();
        db.enable_result_cache(txn_cache());
        let sql = "SELECT rating FROM users WHERE id = ?";
        let before = db.execute(sql, &[Value::Int(1)]).unwrap();
        db.begin_txn().unwrap();
        db.execute("UPDATE users SET rating = 99 WHERE id = 1", &[]).unwrap();
        db.rollback_txn();
        // The write never committed: no invalidation, and the cached entry
        // still matches the (restored) table state.
        assert_eq!(db.stats().result_cache_invalidations, 0);
        let after = db.execute(sql, &[Value::Int(1)]).unwrap();
        assert_eq!(before, after);
        assert_eq!(db.stats().result_cache_hits, 1);
    }

    #[test]
    fn apply_rollback_purges_without_counting() {
        let mut db = db_with_users();
        db.enable_result_cache(txn_cache());
        let sql = "SELECT rating FROM users WHERE id = ?";
        db.begin_txn().unwrap();
        db.execute("UPDATE users SET rating = 99 WHERE id = 1", &[]).unwrap();
        let receipt = db.commit_txn().unwrap();
        // Cached against the committed (rating = 99) state.
        db.execute(sql, &[Value::Int(1)]).unwrap();
        assert_eq!(db.result_cache_len(), 1);
        let counted = db.stats().result_cache_invalidations;
        db.apply_rollback(receipt);
        // The entry is purged (its data reverted) but the abort is not an
        // invalidation event.
        assert_eq!(db.result_cache_len(), 0);
        assert_eq!(db.stats().result_cache_invalidations, counted);
        let r = db.execute(sql, &[Value::Int(1)]).unwrap();
        assert_eq!(r.rows[0][0], Value::Int(5));
    }

    #[test]
    fn ttl_expires_by_cache_clock_and_ignores_commits() {
        let mut db = db_with_users();
        db.enable_result_cache(crate::cache::ResultCacheConfig {
            capacity: 64,
            invalidation: crate::cache::CacheInvalidation::Ttl(1_000),
        });
        let sql = "SELECT rating FROM users WHERE id = ?";
        db.execute(sql, &[Value::Int(1)]).unwrap();
        // Within the TTL a commit does NOT invalidate: the hit is stale.
        db.begin_txn().unwrap();
        db.execute("UPDATE users SET rating = 99 WHERE id = 1", &[]).unwrap();
        db.commit_txn().unwrap();
        db.set_cache_clock(500);
        let stale = db.execute(sql, &[Value::Int(1)]).unwrap();
        assert_eq!(stale.rows[0][0], Value::Int(5));
        assert_eq!(db.stats().result_cache_invalidations, 0);
        // Past the TTL the entry expires and the fresh value is read.
        db.set_cache_clock(2_000);
        let fresh = db.execute(sql, &[Value::Int(1)]).unwrap();
        assert_eq!(fresh.rows[0][0], Value::Int(99));
    }

    #[test]
    fn ttl_zero_is_equivalent_to_cache_off() {
        let mut db = db_with_users();
        db.enable_result_cache(crate::cache::ResultCacheConfig {
            capacity: 64,
            invalidation: crate::cache::CacheInvalidation::Ttl(0),
        });
        let sql = "SELECT rating FROM users WHERE id = ?";
        db.execute(sql, &[Value::Int(1)]).unwrap();
        db.execute(sql, &[Value::Int(1)]).unwrap();
        assert_eq!(db.stats().result_cache_hits, 0);
        assert_eq!(db.stats().result_cache_misses, 2);
    }

    #[test]
    fn auto_commit_write_invalidates_immediately() {
        let mut db = db_with_users();
        db.enable_result_cache(txn_cache());
        let sql = "SELECT rating FROM users WHERE region = ?";
        db.execute(sql, &[Value::Int(1)]).unwrap();
        assert_eq!(db.result_cache_len(), 1);
        // A bare write is its own commit: coarse per-table invalidation.
        db.execute("UPDATE users SET rating = 7 WHERE id = 3", &[]).unwrap();
        assert_eq!(db.stats().result_cache_invalidations, 1);
        assert_eq!(db.result_cache_len(), 0);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut db = db_with_users();
        db.enable_result_cache(crate::cache::ResultCacheConfig {
            capacity: 2,
            invalidation: crate::cache::CacheInvalidation::Transactional,
        });
        let sql = "SELECT nickname FROM users WHERE id = ?";
        db.execute(sql, &[Value::Int(1)]).unwrap();
        db.execute(sql, &[Value::Int(2)]).unwrap();
        // Refresh entry 1, then insert a third: entry 2 is the LRU victim.
        db.execute(sql, &[Value::Int(1)]).unwrap();
        db.execute(sql, &[Value::Int(3)]).unwrap();
        assert_eq!(db.result_cache_len(), 2);
        db.execute(sql, &[Value::Int(1)]).unwrap();
        assert_eq!(db.stats().result_cache_hits, 2);
        db.execute(sql, &[Value::Int(2)]).unwrap();
        assert_eq!(db.stats().result_cache_hits, 2); // evicted → miss
    }

    #[test]
    fn rewind_clears_result_cache() {
        let mut db = db_with_users();
        db.enable_result_cache(txn_cache());
        db.begin_rewind();
        db.execute("SELECT nickname FROM users WHERE id = 1", &[]).unwrap();
        assert_eq!(db.result_cache_len(), 1);
        assert!(db.rewind());
        assert_eq!(db.result_cache_len(), 0);
    }

    #[test]
    fn statement_cost_scales_with_counters() {
        let db = db_with_users();
        let small = QueryCounters { rows_examined: 1, ..Default::default() };
        let big = QueryCounters { rows_examined: 100_000, ..Default::default() };
        assert!(db.statement_cost(&big) > db.statement_cost(&small) * 100);
    }
}
