//! Row storage with primary-key and secondary indexes, copy-on-write at
//! page granularity.

use crate::error::{SqlError, SqlResult};
use crate::schema::TableSchema;
use crate::value::{Istr, Value};
use std::cmp::Ordering;
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::ops::Bound;
use std::sync::Arc;

/// Identifies a row slot within one table. Stable for the row's lifetime;
/// slots of deleted rows are reused.
pub type RowId = usize;

/// Per-table string interner: one canonical `Arc<Istr>` per distinct byte
/// string, bucketed by the cached FNV-1a hash. Interning at insert/update
/// time means equal strings across rows share one allocation, so the
/// `Arc::ptr_eq` fast paths in `Value::cmp`/`Value::eq` fire on index
/// probes and join keys instead of falling back to byte scans.
///
/// Buckets are keyed by the cached hash directly (rather than wrapping a
/// `HashMap<Arc<Istr>, _>`) because lookups start from an already-hashed
/// `Istr`; no hasher runs during interning.
#[derive(Debug, Default)]
struct StrInterner {
    buckets: HashMap<u64, Arc<Istr>>,
}

/// The interner is a sharing cache, not table state (`PartialEq` for
/// `Table` already ignores it), and for a populated table its bucket map
/// is as big as an index. Cloning it would make the copy-on-write table
/// fork — the hot path under per-point experiment forks — pay for a
/// structure the clone can rebuild lazily, so a cloned interner starts
/// empty. Existing rows keep their shared `Arc`s; only post-clone inserts
/// re-establish sharing as they go.
impl Clone for StrInterner {
    fn clone(&self) -> StrInterner {
        StrInterner::default()
    }
}

impl StrInterner {
    /// Canonicalizes a string value in place; non-strings pass through.
    ///
    /// One canonical entry per 64-bit hash: on the (astronomically rare)
    /// collision of two distinct strings, the later one simply keeps its
    /// own allocation — interning is best-effort sharing, never identity,
    /// so correctness only ever rests on `Value`'s byte-level equality.
    fn intern(&mut self, v: &mut Value) {
        let Value::Str(s) = v else { return };
        match self.buckets.entry(s.cached_hash()) {
            Entry::Occupied(e) => {
                if e.get().as_str() == s.as_str() {
                    *s = Arc::clone(e.get());
                }
            }
            Entry::Vacant(e) => {
                e.insert(Arc::clone(s));
            }
        }
    }
}

/// Sentinel for an unoccupied dense primary-key slot.
const PK_NONE: RowId = RowId::MAX;

/// The primary-key index.
///
/// Every benchmark table keys on a dense auto-increment integer, so the
/// default representation is a direct-map vector (`slots[key - base]` is
/// the row id): O(1) probes instead of a B-tree descent, and — what the
/// copy-on-write table fork cares about — a clone that is one `memcpy`
/// instead of a node-by-node tree rebuild. String keys, or integer keys
/// that go sparse (span > 4·len + 1024), demote the index to a `BTreeMap`
/// permanently.
///
/// Ordering-sensitive callers (`range`, `pairs`) see the exact sequence
/// the B-tree would produce: dense keys are all `Value::Int`, and
/// ascending offset IS ascending `Value::cmp` order; range bounds are
/// resolved by binary search with `Value::cmp` itself, so cross-type
/// bounds (floats, strings) behave identically in both representations.
#[derive(Debug, Clone)]
enum PkIndex {
    /// `slots[k - base]` holds the row id for integer key `k`.
    Dense {
        base: i64,
        slots: Vec<RowId>,
        len: usize,
    },
    Sparse(BTreeMap<Value, RowId>),
}

impl Default for PkIndex {
    fn default() -> Self {
        PkIndex::Dense { base: 0, slots: Vec::new(), len: 0 }
    }
}

impl PkIndex {
    fn len(&self) -> usize {
        match self {
            PkIndex::Dense { len, .. } => *len,
            PkIndex::Sparse(m) => m.len(),
        }
    }

    fn get(&self, key: &Value) -> Option<RowId> {
        match self {
            PkIndex::Dense { base, slots, .. } => {
                let k = key.as_int()?;
                let off = usize::try_from(k.checked_sub(*base)?).ok()?;
                match slots.get(off) {
                    Some(&rid) if rid != PK_NONE => Some(rid),
                    _ => None,
                }
            }
            PkIndex::Sparse(m) => m.get(key).copied(),
        }
    }

    fn contains(&self, key: &Value) -> bool {
        self.get(key).is_some()
    }

    /// `true` when a dense vector spanning `span` slots for `n` keys is
    /// still an acceptable trade of memory for probe speed.
    fn density_ok(span: usize, n: usize) -> bool {
        span <= n.saturating_mul(4) + 1024
    }

    /// Inserts `key -> rid`. The caller has already rejected duplicates.
    fn insert(&mut self, key: Value, rid: RowId) {
        if let PkIndex::Dense { base, slots, len } = self {
            let Some(k) = key.as_int() else {
                self.demote().insert(key, rid);
                return;
            };
            if slots.is_empty() {
                *base = k;
                slots.push(rid);
                *len = 1;
                return;
            }
            match k.checked_sub(*base) {
                Some(off) if off >= 0 => {
                    let off = off as usize;
                    if off < slots.len() {
                        debug_assert_eq!(slots[off], PK_NONE, "duplicate pk slot");
                        slots[off] = rid;
                        *len += 1;
                    } else if Self::density_ok(off + 1, *len + 1) {
                        slots.resize(off + 1, PK_NONE);
                        slots[off] = rid;
                        *len += 1;
                    } else {
                        self.demote().insert(Value::Int(k), rid);
                    }
                }
                Some(neg_off) => {
                    // Key below the base: shift the map down (rare — keys
                    // from auto-increment only ever ascend).
                    let shift = neg_off.unsigned_abs() as usize;
                    if Self::density_ok(slots.len() + shift, *len + 1) {
                        slots.splice(0..0, std::iter::repeat_n(PK_NONE, shift));
                        slots[0] = rid;
                        *base = k;
                        *len += 1;
                    } else {
                        self.demote().insert(Value::Int(k), rid);
                    }
                }
                None => {
                    self.demote().insert(Value::Int(k), rid);
                }
            }
            return;
        }
        let PkIndex::Sparse(m) = self else { unreachable!() };
        m.insert(key, rid);
    }

    fn remove(&mut self, key: &Value) {
        match self {
            PkIndex::Dense { base, slots, len } => {
                let Some(off) = key
                    .as_int()
                    .and_then(|k| k.checked_sub(*base))
                    .and_then(|o| usize::try_from(o).ok())
                else {
                    return;
                };
                if let Some(slot) = slots.get_mut(off) {
                    if *slot != PK_NONE {
                        *slot = PK_NONE;
                        *len -= 1;
                    }
                }
            }
            PkIndex::Sparse(m) => {
                m.remove(key);
            }
        }
    }

    /// Rebuilds as a B-tree and returns it for the pending insert.
    fn demote(&mut self) -> &mut Self {
        if let PkIndex::Dense { base, slots, .. } = self {
            let map: BTreeMap<Value, RowId> = slots
                .iter()
                .enumerate()
                .filter(|(_, rid)| **rid != PK_NONE)
                .map(|(off, rid)| (Value::Int(*base + off as i64), *rid))
                .collect();
            *self = PkIndex::Sparse(map);
        }
        self
    }

    /// First dense offset whose key satisfies `keep` (a monotone predicate
    /// under `Value::cmp`, which ascending offsets follow).
    fn dense_boundary(base: i64, n: usize, keep: impl Fn(&Value) -> bool) -> usize {
        let (mut lo, mut hi) = (0usize, n);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if keep(&Value::Int(base + mid as i64)) {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        lo
    }

    /// Row ids with keys inside the bounds, in ascending key order —
    /// byte-identical to what `BTreeMap::range` over the same pairs yields.
    fn range(&self, lo: Bound<&Value>, hi: Bound<&Value>) -> Vec<RowId> {
        match self {
            PkIndex::Dense { base, slots, .. } => {
                let start = match lo {
                    Bound::Unbounded => 0,
                    Bound::Included(b) => {
                        Self::dense_boundary(*base, slots.len(), |k| k.cmp(b).is_ge())
                    }
                    Bound::Excluded(b) => {
                        Self::dense_boundary(*base, slots.len(), |k| k.cmp(b).is_gt())
                    }
                };
                let end = match hi {
                    Bound::Unbounded => slots.len(),
                    Bound::Included(b) => {
                        Self::dense_boundary(*base, slots.len(), |k| k.cmp(b).is_gt())
                    }
                    Bound::Excluded(b) => {
                        Self::dense_boundary(*base, slots.len(), |k| k.cmp(b).is_ge())
                    }
                };
                slots[start..end.max(start)].iter().copied().filter(|r| *r != PK_NONE).collect()
            }
            PkIndex::Sparse(m) => m.range((lo, hi)).map(|(_, r)| *r).collect(),
        }
    }

    /// `(key, rid)` pairs in ascending key order (equality and diagnostics;
    /// dense keys are synthesized, sparse keys cloned).
    fn pairs(&self) -> Box<dyn Iterator<Item = (Value, RowId)> + '_> {
        match self {
            PkIndex::Dense { base, slots, .. } => Box::new(
                slots
                    .iter()
                    .enumerate()
                    .filter(|(_, rid)| **rid != PK_NONE)
                    .map(move |(off, rid)| (Value::Int(*base + off as i64), *rid)),
            ),
            PkIndex::Sparse(m) => Box::new(m.iter().map(|(k, r)| (k.clone(), *r))),
        }
    }
}

/// Representation-independent equality: the same key→rid mapping compares
/// equal whether it lives in a dense vector or a demoted B-tree.
impl PartialEq for PkIndex {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.pairs().eq(other.pairs())
    }
}

/// Row slots per page, as a shift: slot `rid` lives on page
/// `rid >> PAGE_SHIFT` at offset `rid & (PAGE_ROWS - 1)`.
const PAGE_SHIFT: u32 = 6;
/// Row slots per page: one bit each in a page's `u64` liveness mask.
const PAGE_ROWS: usize = 1 << PAGE_SHIFT;
const _: () = assert!(PAGE_ROWS <= u64::BITS as usize);
/// Keys a secondary-index leaf holds before it splits in two.
const LEAF_KEYS: usize = 128;

/// The page and in-page offset of row slot `rid`.
fn page_of(rid: RowId) -> (usize, usize) {
    (rid >> PAGE_SHIFT, rid & (PAGE_ROWS - 1))
}

/// Offsets of the set bits of a page's liveness mask, ascending.
fn live_offsets(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let off = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            off
        })
    })
}

/// A run of one secondary index's `(key, row ids)` entries, in key order.
type Leaf = Vec<(Value, Vec<RowId>)>;

/// Position of `key`'s entry in a leaf (`Ok`), or where it would go
/// (`Err`). The last entry is checked first, as in
/// [`SecIndex::leaf_of`].
fn search(leaf: &Leaf, key: &Value) -> Result<usize, usize> {
    match leaf.last().map(|(last, _)| last.cmp(key)) {
        Some(Ordering::Less) => Err(leaf.len()),
        Some(Ordering::Equal) => Ok(leaf.len() - 1),
        _ => leaf.binary_search_by(|(k, _)| k.cmp(key)),
    }
}

/// One secondary index: its entries in ascending key order, cut into
/// `Arc`-shared leaves of at most `LEAF_KEYS` keys, each paired with a
/// separator key. Every key in a leaf is at least its separator and below
/// the next leaf's (leaf 0 also takes keys below its separator), so a key
/// is found by binary search over the separators, then within the leaf. A
/// leaf splits in half when it outgrows `LEAF_KEYS`, the upper half's
/// first key becoming its separator, and is dropped when it empties.
/// Leaves are never merged or rebalanced: where they are cut depends on
/// the mutation history, never on what the index holds.
#[derive(Debug, Clone, Default)]
struct SecIndex {
    leaves: Vec<(Value, Arc<Leaf>)>,
}

impl SecIndex {
    /// The leaf that holds `key` if any does: the last one whose separator
    /// is not above it (leaf 0 for keys below every separator).
    ///
    /// The last leaf is checked first: keys that only ascend (foreign keys
    /// to auto-increment ids) always land there.
    fn leaf_of(&self, key: &Value) -> usize {
        match self.leaves.last() {
            Some((sep, _)) if sep <= key => self.leaves.len() - 1,
            _ => self.leaves.partition_point(|(sep, _)| sep <= key).saturating_sub(1),
        }
    }

    /// `(leaf, position in leaf)` of `key`'s entry.
    fn find(&self, key: &Value) -> Option<(usize, usize)> {
        let li = self.leaf_of(key);
        let pos = search(&self.leaves.get(li)?.1, key).ok()?;
        Some((li, pos))
    }

    fn get(&self, key: &Value) -> Option<&[RowId]> {
        self.find(key).map(|(li, pos)| self.leaves[li].1[pos].1.as_slice())
    }

    /// Number of distinct keys.
    fn len(&self) -> usize {
        self.leaves.iter().map(|(_, leaf)| leaf.len()).sum()
    }

    fn iter(&self) -> impl Iterator<Item = &(Value, Vec<RowId>)> + '_ {
        self.leaves.iter().flat_map(|(_, leaf)| leaf.iter())
    }

    /// Inserts `rid` into `key`'s entry at position `pos` (clamped), or at
    /// the end when `pos` is `None`.
    fn insert(&mut self, key: &Value, rid: RowId, pos: Option<usize>) {
        if self.leaves.is_empty() {
            self.leaves.push((key.clone(), Arc::new(vec![(key.clone(), vec![rid])])));
            return;
        }
        let li = self.leaf_of(key);
        let leaf = Arc::make_mut(&mut self.leaves[li].1);
        match search(leaf, key) {
            Ok(i) => {
                let rids = &mut leaf[i].1;
                rids.insert(pos.unwrap_or(rids.len()).min(rids.len()), rid);
            }
            Err(i) => {
                leaf.insert(i, (key.clone(), vec![rid]));
                if leaf.len() > LEAF_KEYS {
                    let upper = leaf.split_off(leaf.len() / 2);
                    self.leaves.insert(li + 1, (upper[0].0.clone(), Arc::new(upper)));
                }
            }
        }
    }

    /// Removes `rid` from `key`'s entry, dropping the entry (and its leaf)
    /// once empty.
    fn remove(&mut self, key: &Value, rid: RowId) {
        let Some((li, pos)) = self.find(key) else { return };
        let leaf = Arc::make_mut(&mut self.leaves[li].1);
        leaf[pos].1.retain(|r| *r != rid);
        if leaf[pos].1.is_empty() {
            leaf.remove(pos);
            if leaf.is_empty() {
                self.leaves.remove(li);
            }
        }
    }

    /// Row ids with keys inside the bounds, in key order.
    fn range(&self, lo: Bound<&Value>, hi: Bound<&Value>) -> Vec<RowId> {
        let (li, skip) = match lo {
            Bound::Unbounded => (0, 0),
            Bound::Included(b) | Bound::Excluded(b) => {
                let li = self.leaf_of(b);
                let below =
                    |k: &Value| if matches!(lo, Bound::Included(_)) { k < b } else { k <= b };
                let skip = self
                    .leaves
                    .get(li)
                    .map_or(0, |(_, leaf)| leaf.partition_point(|(k, _)| below(k)));
                (li, skip)
            }
        };
        self.leaves[li..]
            .iter()
            .flat_map(|(_, leaf)| leaf.iter())
            .skip(skip)
            .take_while(|(k, _)| match hi {
                Bound::Unbounded => true,
                Bound::Included(b) => k <= b,
                Bound::Excluded(b) => k < b,
            })
            .flat_map(|(_, rids)| rids.iter().copied())
            .collect()
    }

    /// Gives every leaf its own allocation.
    fn unshare(&mut self) {
        for (_, leaf) in &mut self.leaves {
            *leaf = Arc::new(Leaf::clone(leaf));
        }
    }
}

/// Equality of the entry sequences, wherever the leaves are cut. A leaf
/// both sides share, and both reach at its start, is skipped unread.
impl PartialEq for SecIndex {
    fn eq(&self, other: &Self) -> bool {
        let (a, b) = (&self.leaves, &other.leaves);
        // (leaf, entry within leaf) cursors into each side.
        let (mut i, mut x, mut j, mut y) = (0, 0, 0, 0);
        loop {
            if i < a.len() && x == a[i].1.len() {
                (i, x) = (i + 1, 0);
                continue;
            }
            if j < b.len() && y == b[j].1.len() {
                (j, y) = (j + 1, 0);
                continue;
            }
            match (i < a.len(), j < b.len()) {
                (false, false) => return true,
                (true, true) => {}
                _ => return false,
            }
            if x == 0 && y == 0 && Arc::ptr_eq(&a[i].1, &b[j].1) {
                (i, j) = (i + 1, j + 1);
            } else if a[i].1[x] != b[j].1[y] {
                return false;
            } else {
                (x, y) = (x + 1, y + 1);
            }
        }
    }
}

/// A stored table: schema, row slots, and indexes.
///
/// Storage is copy-on-write at page granularity, so cloning a table (a
/// database fork) costs O(pages), not O(rows). Rows live in fixed-size
/// pages of whole rows, each page one flat cell run with a liveness mask,
/// so reading a row is a slice borrow. Secondary indexes are sorted runs
/// of shared leaves. A write un-shares (`Arc::make_mut`) only the page of
/// the row it touches and the one leaf per index that holds the row's key;
/// inserts append to the last page. The dense primary-key index is copied
/// whole on clone (one `memcpy`).
///
/// ```
/// use dynamid_sqldb::{Table, TableSchema, ColumnType, Value};
/// let schema = TableSchema::builder("users")
///     .column("id", ColumnType::Int)
///     .column("nickname", ColumnType::Str)
///     .primary_key("id")
///     .auto_increment()
///     .index("nickname")
///     .build()
///     .unwrap();
/// let mut t = Table::new(schema);
/// let (rid, id) = t.insert(vec![Value::Null, Value::str("bob")]).unwrap();
/// assert_eq!(id, Some(1));
/// assert_eq!(t.get(rid).unwrap()[1], Value::str("bob"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    schema: TableSchema,
    /// Row cells in pages of `PAGE_ROWS` slots, `width` cells per slot,
    /// allocated whole. Dead slots keep their last values (excluded from
    /// equality) until the slot is reused; slots past the last hold nulls.
    pages: Vec<Arc<[Value]>>,
    /// One liveness mask per page: bit `off` is set while slot `off` of the
    /// page holds a live row.
    live_mask: Vec<u64>,
    /// Number of row slots, live or dead.
    slots: usize,
    /// Cells per row (= number of schema columns).
    width: usize,
    live: usize,
    free: Vec<RowId>,
    pk_index: PkIndex,
    /// Parallel to `schema.indexes()`.
    sec: Vec<SecIndex>,
    next_auto: i64,
    interner: StrInterner,
}

/// Equality compares logical content: schema, slot layout, live rows,
/// free list, indexes, and the auto counter. The interner and the garbage
/// cells of dead slots are deliberately excluded — they are caches whose
/// contents depend on mutation history, not on the data. Pages and index
/// leaves shared by both sides are equal without being read.
impl PartialEq for Table {
    fn eq(&self, other: &Self) -> bool {
        self.schema == other.schema
            && self.live == other.live
            && self.next_auto == other.next_auto
            && self.slots == other.slots
            && self.live_mask == other.live_mask
            && self.free == other.free
            && self.pk_index == other.pk_index
            && self.sec == other.sec
            && self.pages.iter().zip(&other.pages).zip(&self.live_mask).all(|((a, b), mask)| {
                Arc::ptr_eq(a, b)
                    || live_offsets(*mask).all(|off| {
                        let cells = off * self.width..(off + 1) * self.width;
                        a[cells.clone()] == b[cells]
                    })
            })
    }
}

impl Table {
    /// Creates an empty table for the schema.
    pub fn new(schema: TableSchema) -> Self {
        let sec = schema.indexes().iter().map(|_| SecIndex::default()).collect();
        let width = schema.columns().len();
        Table {
            schema,
            pages: Vec::new(),
            live_mask: Vec::new(),
            slots: 0,
            width,
            live: 0,
            free: Vec::new(),
            pk_index: PkIndex::default(),
            sec,
            next_auto: 1,
            interner: StrInterner::default(),
        }
    }

    /// A copy that shares no page or index leaf with `self` (a clone
    /// shares all of them until either side writes).
    pub(crate) fn deep_clone(&self) -> Table {
        let mut copy = self.clone();
        for page in &mut copy.pages {
            *page = Arc::from(&page[..]);
        }
        for index in &mut copy.sec {
            index.unshare();
        }
        copy
    }

    /// The table's schema.
    pub fn schema(&self) -> &TableSchema {
        &self.schema
    }

    /// Number of live rows.
    pub fn row_count(&self) -> usize {
        self.live
    }

    /// Inserts a row (values in schema column order). For an auto-increment
    /// table, pass `Value::Null` as the key to have one assigned. Returns
    /// the row id and the auto-assigned key, if any.
    ///
    /// # Errors
    ///
    /// Fails on arity/type/nullability violations or a duplicate primary
    /// key.
    pub fn insert(&mut self, mut row: Vec<Value>) -> SqlResult<(RowId, Option<i64>)> {
        let mut assigned = None;
        if let Some(pk) = self.schema.primary_key() {
            if self.schema.is_auto_increment() && row.get(pk).is_some_and(Value::is_null) {
                let id = self.next_auto;
                self.next_auto += 1;
                row[pk] = Value::Int(id);
                assigned = Some(id);
            }
        }
        self.schema.check_row(&row)?;
        if let Some(pk) = self.schema.primary_key() {
            if self.pk_index.contains(&row[pk]) {
                return Err(SqlError::DuplicateKey(format!(
                    "{}={}",
                    self.schema.columns()[pk].name(),
                    row[pk]
                )));
            }
            // Keep the auto counter ahead of explicit keys.
            if self.schema.is_auto_increment() {
                if let Some(k) = row[pk].as_int() {
                    self.next_auto = self.next_auto.max(k + 1);
                }
            }
        }
        for v in &mut row {
            self.interner.intern(v);
        }
        let rid = self.free.pop().unwrap_or_else(|| self.push_slot());
        self.live += 1;
        self.write_live(rid, row, &[]);
        Ok((rid, assigned))
    }

    /// The row at `rid`, if live.
    pub fn get(&self, rid: RowId) -> Option<&[Value]> {
        self.is_live(rid).then(|| self.cells(rid))
    }

    /// Replaces the row at `rid`, maintaining all indexes.
    ///
    /// # Errors
    ///
    /// Fails if the row id is dead, the new row violates the schema, or the
    /// new primary key duplicates another row's.
    pub fn update(&mut self, rid: RowId, mut new_row: Vec<Value>) -> SqlResult<()> {
        self.schema.check_row(&new_row)?;
        let Some(old) = self.get(rid) else {
            return Err(SqlError::Constraint(format!("no row {rid}")));
        };
        if let Some(pk) = self.schema.primary_key() {
            if old[pk] != new_row[pk] && self.pk_index.contains(&new_row[pk]) {
                return Err(SqlError::DuplicateKey(format!(
                    "{}={}",
                    self.schema.columns()[pk].name(),
                    new_row[pk]
                )));
            }
        }
        for v in &mut new_row {
            self.interner.intern(v);
        }
        self.index_remove(rid);
        self.write_live(rid, new_row, &[]);
        Ok(())
    }

    /// Deletes the row at `rid`.
    ///
    /// # Errors
    ///
    /// Fails if the row id is dead.
    pub fn delete(&mut self, rid: RowId) -> SqlResult<Vec<Value>> {
        if !self.is_live(rid) {
            return Err(SqlError::Constraint(format!("no row {rid}")));
        }
        self.index_remove(rid);
        let row = self
            .slot_mut(rid, false)
            .iter_mut()
            .map(|cell| std::mem::replace(cell, Value::Null))
            .collect();
        self.free.push(rid);
        self.live -= 1;
        Ok(row)
    }

    /// Iterates live rows in slot order.
    pub fn scan(&self) -> impl Iterator<Item = (RowId, &[Value])> + '_ {
        let width = self.width;
        self.pages.iter().zip(&self.live_mask).enumerate().flat_map(move |(p, (page, mask))| {
            live_offsets(*mask)
                .map(move |off| ((p << PAGE_SHIFT) + off, &page[off * width..(off + 1) * width]))
        })
    }

    /// Looks up a row by primary key.
    pub fn pk_lookup(&self, key: &Value) -> Option<RowId> {
        self.pk_index.get(key)
    }

    /// `true` when lookups on this column can use an index (primary or
    /// secondary).
    pub fn has_index_on(&self, col: usize) -> bool {
        self.schema.primary_key() == Some(col) || self.schema.indexes().contains(&col)
    }

    /// Row ids matching `key` on column `col`, using an index.
    ///
    /// # Panics
    ///
    /// Panics if the column is not indexed; callers check
    /// [`has_index_on`](Self::has_index_on) first (the planner does).
    pub fn index_lookup(&self, col: usize, key: &Value) -> Vec<RowId> {
        if self.schema.primary_key() == Some(col) {
            return self.pk_lookup(key).into_iter().collect();
        }
        let slot = self.secondary_slot(col);
        self.sec[slot].get(key).map(<[RowId]>::to_vec).unwrap_or_default()
    }

    /// Row ids with column `col` in the given bounds, in key order, using an
    /// index.
    ///
    /// # Panics
    ///
    /// Panics if the column is not indexed.
    pub fn index_range(&self, col: usize, lo: Bound<&Value>, hi: Bound<&Value>) -> Vec<RowId> {
        if self.schema.primary_key() == Some(col) {
            return self.pk_index.range(lo, hi);
        }
        self.sec[self.secondary_slot(col)].range(lo, hi)
    }

    /// Iterates the distinct keys of the index on `col` with their row ids,
    /// in key order. Primary-key entries yield one-element slices; secondary
    /// entries yield ids in insertion order, exactly as
    /// [`index_lookup`](Self::index_lookup) would return them. The hash-join
    /// build side uses this to snapshot an index in one pass instead of one
    /// index probe per outer row.
    ///
    /// # Panics
    ///
    /// Panics if the column is not indexed.
    pub fn index_groups(&self, col: usize) -> Box<dyn Iterator<Item = (&Value, &[RowId])> + '_> {
        if self.schema.primary_key() == Some(col) {
            match &self.pk_index {
                // Ascending offset is ascending key order; the key `Value`
                // is borrowed from the row's own pk cell.
                PkIndex::Dense { slots, .. } => Box::new(
                    slots
                        .iter()
                        .filter(|rid| **rid != PK_NONE)
                        .map(move |rid| (&self.cells(*rid)[col], std::slice::from_ref(rid))),
                ),
                PkIndex::Sparse(m) => {
                    Box::new(m.iter().map(|(k, rid)| (k, std::slice::from_ref(rid))))
                }
            }
        } else {
            let slot = self.secondary_slot(col);
            Box::new(self.sec[slot].iter().map(|(k, rids)| (k, rids.as_slice())))
        }
    }

    /// Number of distinct keys in the index on `col` (diagnostics).
    pub fn index_cardinality(&self, col: usize) -> usize {
        if self.schema.primary_key() == Some(col) {
            self.pk_index.len()
        } else {
            self.sec[self.secondary_slot(col)].len()
        }
    }

    /// Current auto-increment counter (undo-log bookkeeping).
    pub(crate) fn next_auto(&self) -> i64 {
        self.next_auto
    }

    /// Number of row slots, live or tombstoned (undo-log bookkeeping).
    pub(crate) fn slot_count(&self) -> usize {
        self.slots
    }

    /// Position of `rid` within each secondary-index entry, parallel to
    /// `schema.indexes()`. Captured before an update/delete so undo can
    /// re-insert the id at the same position instead of appending.
    pub(crate) fn sec_positions(&self, rid: RowId) -> Vec<usize> {
        let row = self.get(rid).expect("live row");
        self.schema
            .indexes()
            .iter()
            .zip(&self.sec)
            .map(|(col, index)| {
                index
                    .get(&row[*col])
                    .and_then(|rids| rids.iter().position(|r| *r == rid))
                    .expect("indexed live row")
            })
            .collect()
    }

    /// Reverses an insert: removes the row and restores the slot layout,
    /// free list, and (if no later insert advanced it) the auto-increment
    /// counter to their pre-insert state.
    pub(crate) fn undo_insert(
        &mut self,
        rid: RowId,
        new_slot: bool,
        prev_next_auto: i64,
        post_next_auto: i64,
    ) {
        if self.is_live(rid) {
            self.index_remove(rid);
            self.slot_mut(rid, false);
            self.live -= 1;
            if new_slot && rid + 1 == self.slots {
                self.pop_slot();
            } else {
                // The slot came off the top of the free stack; put it back.
                self.free.push(rid);
            }
        }
        // Never reuse ids another (committed) insert may have observed:
        // only rewind when the counter is exactly where this insert left it.
        if self.next_auto == post_next_auto {
            self.next_auto = prev_next_auto;
        }
    }

    /// Reverses an update: restores the pre-image row and re-inserts its
    /// index entries at their original positions.
    ///
    /// Integer columns are compensated (`current + (old - new)`) instead of
    /// restored, so counter-style writes from transactions that committed
    /// after this one (`stock = stock - ?`) survive the unwind; with no
    /// interleaving `current == new` and the result is the exact pre-image.
    ///
    /// Concurrent in-flight transactions also unwind in abort order, not
    /// reverse begin order, so the slot may meanwhile have been tombstoned
    /// (or even popped) by another transaction's insert-undo; restoring the
    /// pre-image then resurrects it as a live row.
    pub(crate) fn undo_update(
        &mut self,
        rid: RowId,
        old_row: Vec<Value>,
        new_row: Vec<Value>,
        sec_pos: &[usize],
    ) {
        self.grow_to(rid);
        let restored: Vec<Value> = match self.get(rid) {
            Some(current) => old_row
                .into_iter()
                .zip(new_row)
                .zip(current.iter())
                .map(|((old, new), cur)| match (&old, &new, cur) {
                    (Value::Int(o), Value::Int(n), Value::Int(c)) => {
                        Value::Int(c.wrapping_add(o.wrapping_sub(*n)))
                    }
                    _ => old,
                })
                .collect(),
            None => old_row,
        };
        if self.is_live(rid) {
            self.index_remove(rid);
        } else {
            if let Some(pos) = self.free.iter().rposition(|r| *r == rid) {
                self.free.remove(pos);
            }
            self.live += 1;
        }
        self.write_live(rid, restored, sec_pos);
    }

    /// Reverses a delete: un-tombstones the slot, removes it from the free
    /// list, and re-inserts its index entries at their original positions.
    /// Tolerates a slot already restored or popped by an interleaved
    /// rollback (see [`undo_update`](Self::undo_update)).
    pub(crate) fn undo_delete(&mut self, rid: RowId, old_row: Vec<Value>, sec_pos: &[usize]) {
        self.grow_to(rid);
        if let Some(pos) = self.free.iter().rposition(|r| *r == rid) {
            self.free.remove(pos);
        }
        if self.is_live(rid) {
            self.index_remove(rid);
        } else {
            self.live += 1;
        }
        self.write_live(rid, old_row, sec_pos);
    }

    /// Stores `row` in slot `rid` as a live row and indexes it (`sec_pos`
    /// as for [`index_insert`](Self::index_insert)).
    fn write_live(&mut self, rid: RowId, row: Vec<Value>, sec_pos: &[usize]) {
        for (cell, v) in self.slot_mut(rid, true).iter_mut().zip(row) {
            *cell = v;
        }
        self.index_insert(rid, sec_pos);
    }

    /// Ensures slot `rid` exists (as a dead slot) so an undo can restore a
    /// row whose slot was popped by an interleaved insert-undo.
    fn grow_to(&mut self, rid: RowId) {
        while self.slots <= rid {
            self.push_slot();
        }
    }

    /// `true` while slot `rid` exists and holds a live row.
    fn is_live(&self, rid: RowId) -> bool {
        let (p, off) = page_of(rid);
        self.live_mask.get(p).is_some_and(|mask| mask >> off & 1 == 1)
    }

    /// The cells of slot `rid`, live or dead.
    fn cells(&self, rid: RowId) -> &[Value] {
        let (p, off) = page_of(rid);
        &self.pages[p][off * self.width..(off + 1) * self.width]
    }

    /// Marks slot `rid` live or dead and returns its cells, un-sharing
    /// its page.
    fn slot_mut(&mut self, rid: RowId, live: bool) -> &mut [Value] {
        let (p, off) = page_of(rid);
        let mask = &mut self.live_mask[p];
        *mask = *mask & !(1 << off) | u64::from(live) << off;
        &mut Arc::make_mut(&mut self.pages[p])[off * self.width..(off + 1) * self.width]
    }

    /// Appends a dead slot after the last one; returns its id.
    fn push_slot(&mut self) -> RowId {
        let rid = self.slots;
        if rid & (PAGE_ROWS - 1) == 0 {
            self.pages.push(std::iter::repeat_n(Value::Null, PAGE_ROWS * self.width).collect());
            self.live_mask.push(0);
        }
        self.slots += 1;
        rid
    }

    /// Removes the last slot, which is dead (and its page, once empty).
    fn pop_slot(&mut self) {
        self.slots -= 1;
        if self.slots & (PAGE_ROWS - 1) == 0 {
            self.pages.pop();
            self.live_mask.pop();
        } else {
            self.slot_mut(self.slots, false).fill(Value::Null);
        }
    }

    fn secondary_slot(&self, col: usize) -> usize {
        self.schema
            .indexes()
            .iter()
            .position(|c| *c == col)
            .unwrap_or_else(|| panic!("column {col} is not indexed"))
    }

    /// Indexes the row at `rid`. Each row id goes into its secondary-index
    /// entry at the position recorded in `sec_pos` (parallel to
    /// `schema.indexes()`), or at the end where none is recorded, so undo
    /// restores the exact pre-mutation index layout.
    fn index_insert(&mut self, rid: RowId, sec_pos: &[usize]) {
        let (p, off) = page_of(rid);
        let Table { schema, pages, width, pk_index, sec, .. } = self;
        let row = &pages[p][off * *width..(off + 1) * *width];
        if let Some(pk) = schema.primary_key() {
            pk_index.insert(row[pk].clone(), rid);
        }
        for (slot, (col, index)) in schema.indexes().iter().zip(sec).enumerate() {
            index.insert(&row[*col], rid, sec_pos.get(slot).copied());
        }
    }

    fn index_remove(&mut self, rid: RowId) {
        let (p, off) = page_of(rid);
        let Table { schema, pages, width, pk_index, sec, .. } = self;
        let row = &pages[p][off * *width..(off + 1) * *width];
        if let Some(pk) = schema.primary_key() {
            pk_index.remove(&row[pk]);
        }
        for (col, index) in schema.indexes().iter().zip(sec) {
            index.remove(&row[*col], rid);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnType;

    fn users() -> Table {
        let schema = TableSchema::builder("users")
            .column("id", ColumnType::Int)
            .column("nickname", ColumnType::Str)
            .column("region", ColumnType::Int)
            .primary_key("id")
            .auto_increment()
            .index("nickname")
            .index("region")
            .build()
            .unwrap();
        Table::new(schema)
    }

    fn row(nick: &str, region: i64) -> Vec<Value> {
        vec![Value::Null, Value::str(nick), Value::Int(region)]
    }

    #[test]
    fn auto_increment_assigns_sequential_keys() {
        let mut t = users();
        let (_, a) = t.insert(row("ann", 1)).unwrap();
        let (_, b) = t.insert(row("bob", 2)).unwrap();
        assert_eq!((a, b), (Some(1), Some(2)));
        // Explicit key advances the counter.
        t.insert(vec![Value::Int(10), Value::str("cat"), Value::Int(1)]).unwrap();
        let (_, c) = t.insert(row("dee", 3)).unwrap();
        assert_eq!(c, Some(11));
        assert_eq!(t.row_count(), 4);
    }

    #[test]
    fn duplicate_pk_rejected() {
        let mut t = users();
        t.insert(vec![Value::Int(5), Value::str("a"), Value::Int(1)]).unwrap();
        let err = t.insert(vec![Value::Int(5), Value::str("b"), Value::Int(1)]).unwrap_err();
        assert!(matches!(err, SqlError::DuplicateKey(_)));
    }

    #[test]
    fn pk_and_secondary_lookup() {
        let mut t = users();
        let (r1, _) = t.insert(row("ann", 1)).unwrap();
        let (r2, _) = t.insert(row("bob", 1)).unwrap();
        let (r3, _) = t.insert(row("bob", 2)).unwrap();
        assert_eq!(t.pk_lookup(&Value::Int(1)), Some(r1));
        assert_eq!(t.pk_lookup(&Value::Int(99)), None);
        let mut bobs = t.index_lookup(1, &Value::str("bob"));
        bobs.sort_unstable();
        assert_eq!(bobs, vec![r2, r3]);
        assert_eq!(t.index_lookup(2, &Value::Int(1)).len(), 2);
        assert!(t.has_index_on(0));
        assert!(t.has_index_on(1));
        assert!(!t.has_index_on(999));
    }

    #[test]
    fn index_range_on_pk_and_secondary() {
        let mut t = users();
        for (n, r) in [("a", 1), ("b", 2), ("c", 3), ("d", 4)] {
            t.insert(row(n, r)).unwrap();
        }
        let ids =
            t.index_range(0, Bound::Included(&Value::Int(2)), Bound::Excluded(&Value::Int(4)));
        assert_eq!(ids.len(), 2);
        let regs = t.index_range(2, Bound::Excluded(&Value::Int(2)), Bound::Unbounded);
        assert_eq!(regs.len(), 2);
    }

    #[test]
    fn update_maintains_indexes() {
        let mut t = users();
        let (rid, _) = t.insert(row("ann", 1)).unwrap();
        t.update(rid, vec![Value::Int(1), Value::str("anna"), Value::Int(7)]).unwrap();
        assert!(t.index_lookup(1, &Value::str("ann")).is_empty());
        assert_eq!(t.index_lookup(1, &Value::str("anna")), vec![rid]);
        assert_eq!(t.index_lookup(2, &Value::Int(7)), vec![rid]);
        assert_eq!(t.get(rid).unwrap()[1], Value::str("anna"));
    }

    #[test]
    fn update_pk_change_checked_for_duplicates() {
        let mut t = users();
        let (r1, _) = t.insert(row("a", 1)).unwrap();
        t.insert(row("b", 2)).unwrap();
        let err = t.update(r1, vec![Value::Int(2), Value::str("a"), Value::Int(1)]).unwrap_err();
        assert!(matches!(err, SqlError::DuplicateKey(_)));
        // Changing to a fresh key works and remaps the pk index.
        t.update(r1, vec![Value::Int(9), Value::str("a"), Value::Int(1)]).unwrap();
        assert_eq!(t.pk_lookup(&Value::Int(9)), Some(r1));
        assert_eq!(t.pk_lookup(&Value::Int(1)), None);
    }

    #[test]
    fn delete_frees_slot_and_cleans_indexes() {
        let mut t = users();
        let (r1, _) = t.insert(row("ann", 1)).unwrap();
        let deleted = t.delete(r1).unwrap();
        assert_eq!(deleted[1], Value::str("ann"));
        assert_eq!(t.row_count(), 0);
        assert!(t.get(r1).is_none());
        assert!(t.pk_lookup(&Value::Int(1)).is_none());
        assert!(t.index_lookup(1, &Value::str("ann")).is_empty());
        assert!(t.delete(r1).is_err());
        // Slot reuse.
        let (r2, _) = t.insert(row("bob", 2)).unwrap();
        assert_eq!(r2, r1);
    }

    #[test]
    fn scan_skips_tombstones() {
        let mut t = users();
        let (r1, _) = t.insert(row("a", 1)).unwrap();
        t.insert(row("b", 2)).unwrap();
        t.delete(r1).unwrap();
        let names: Vec<&str> = t.scan().map(|(_, row)| row[1].as_str().unwrap()).collect();
        assert_eq!(names, vec!["b"]);
    }

    #[test]
    fn index_groups_matches_index_lookup() {
        let mut t = users();
        t.insert(row("x", 1)).unwrap();
        t.insert(row("x", 2)).unwrap();
        t.insert(row("y", 2)).unwrap();
        for col in [0, 1, 2] {
            for (key, rids) in t.index_groups(col) {
                assert_eq!(rids, t.index_lookup(col, key).as_slice());
            }
            assert_eq!(t.index_groups(col).count(), t.index_cardinality(col));
        }
    }

    #[test]
    fn cardinality_reporting() {
        let mut t = users();
        t.insert(row("x", 1)).unwrap();
        t.insert(row("x", 2)).unwrap();
        t.insert(row("y", 2)).unwrap();
        assert_eq!(t.index_cardinality(0), 3);
        assert_eq!(t.index_cardinality(1), 2);
        assert_eq!(t.index_cardinality(2), 2);
    }

    #[test]
    fn interner_shares_equal_strings_across_rows() {
        let mut t = users();
        let (r1, _) = t.insert(row("bob", 1)).unwrap();
        let (r2, _) = t.insert(row("bob", 2)).unwrap();
        match (&t.get(r1).unwrap()[1], &t.get(r2).unwrap()[1]) {
            (Value::Str(a), Value::Str(b)) => assert!(Arc::ptr_eq(a, b)),
            other => panic!("expected strings, got {other:?}"),
        }
    }

    #[test]
    fn equality_ignores_interner_history() {
        let mut a = users();
        let mut b = users();
        // Same logical content, different mutation history: each table has
        // interned a string the other never saw, and each carries a dead
        // slot. Equality must look only at live data.
        let (dead_a, _) = a.insert(row("ghost", 9)).unwrap();
        a.insert(row("ann", 1)).unwrap();
        a.delete(dead_a).unwrap();
        let (dead_b, _) = b.insert(row("other", 3)).unwrap();
        b.insert(row("ann", 1)).unwrap();
        b.delete(dead_b).unwrap();
        assert_eq!(a, b);
    }

    /// Leaves of `fork`'s index `slot` that `base` does not share.
    fn unshared_leaves(fork: &Table, base: &Table, slot: usize) -> usize {
        let shared =
            |leaf: &Arc<Leaf>| base.sec[slot].leaves.iter().any(|(_, b)| Arc::ptr_eq(leaf, b));
        fork.sec[slot].leaves.iter().filter(|(_, leaf)| !shared(leaf)).count()
    }

    #[test]
    fn fork_write_unshares_one_page_and_one_leaf_per_index() {
        let mut base = users();
        for i in 0..4 * PAGE_ROWS as i64 {
            base.insert(row(&format!("n{i:04}"), i % 7)).unwrap();
        }
        assert!(base.pages.len() >= 3 && base.sec[0].leaves.len() >= 3);
        let before = base.deep_clone();

        let mut fork = base.clone();
        assert!(fork.pages.iter().zip(&base.pages).all(|(a, b)| Arc::ptr_eq(a, b)));
        let rid = PAGE_ROWS + 5;
        let mut new_row = fork.get(rid).unwrap().to_vec();
        // Both keys change, each to one in the same leaf as the old key.
        new_row[1] = Value::str(format!("{}b", new_row[1]));
        new_row[2] = Value::Int(6 - new_row[2].as_int().unwrap());
        fork.update(rid, new_row.clone()).unwrap();

        let unshared: Vec<usize> = (0..fork.pages.len())
            .filter(|p| !Arc::ptr_eq(&fork.pages[*p], &base.pages[*p]))
            .collect();
        assert_eq!(unshared, vec![page_of(rid).0]);
        assert_eq!(unshared_leaves(&fork, &base, 0), 1);
        assert_eq!(unshared_leaves(&fork, &base, 1), 1);
        assert_eq!(fork.get(rid).unwrap(), new_row.as_slice());
        assert_eq!(base, before);
        assert_ne!(fork, base);
    }
}
