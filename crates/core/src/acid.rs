//! Crash-safe ACID writes: the transactional side of the delta store
//! (paper Section 7 outlook; Hive's ACID tables).
//!
//! Every INSERT / UPDATE / DELETE / compaction follows one commit
//! protocol and never mutates a committed file in place:
//!
//!  1. build the transaction's output under the commit scratch space
//!     (`/tmp/txn/<table>/`, invisible to every reader),
//!  2. barrier: read the just-written file back and verify it (row count
//!     for data files, CRC decode for delete files and manifests) — a torn
//!     write can never be renamed into place,
//!  3. atomically rename data/delete files into the table directory
//!     (still invisible: no manifest lists them),
//!  4. atomically rename the new `_manifest_<N+1>` into place — **the
//!     commit point**. Readers pin the newest valid manifest at plan
//!     time, so they observe the old snapshot or the new one, never a
//!     hybrid.
//!
//! A writer killed anywhere in that sequence leaves only scratch files
//! and unreferenced warehouse files, both swept by [`recover`] the next
//! time anyone locks the table. A writer builds only on the newest listed
//! manifest: if that one does not verify, the transaction fails `Corrupt`
//! and deletes nothing. The deterministic crash-point registry
//! ([`WRITER_CRASH_POINTS`], [`COMPACTOR_CRASH_POINTS`]) lets tests kill
//! a transaction at every step via `hive.txn.crash.point` and prove
//! exactly that.
//!
//! Compaction reuses the same protocol, and both modes read through one
//! full merge-on-read scan in the MapReduce engine — task scheduling,
//! workload-management preemption token and all. Major scans the snapshot
//! into a fresh `base_<txn>`; minor scans the snapshot pinned without its
//! base into one delta, and keeps the base-addressed delete keys in one
//! delete file.
//!
//! A compaction commits, then cleans: still under the table lock, it
//! deletes every file its snapshot does not name and every manifest below
//! its own ([`sweep`]). Reads take no lock; a [`ReadLease`] held for the
//! length of each statement is what keeps the clean off the files a read
//! pinned. While a lease older than the compaction's commit is live, the
//! clean waits, and the next transaction's [`recover`] runs it.

use crate::metastore::{Metastore, PinnedSnapshot, TableInfo};
use hive_common::config::keys;
use hive_common::{CancelToken, HiveConf, HiveError, Result, Row, Schema, Value};
use hive_dfs::Dfs;
use hive_exec::expr::cast_value;
use hive_formats::delta::{
    decode_delete_file, encode_delete_file, is_acid_path, manifest_path, DeleteKey, Fallback,
    TableSnapshot, BASE_PREFIX, DELETE_PREFIX, DELTA_PREFIX, MANIFEST_PREFIX, VIRTUAL_COLUMNS,
};
use hive_formats::{create_writer, open_reader, FormatKind, ReadOptions, WriteOptions};
use hive_mapreduce::{DagReport, MrEngine};
use hive_obs::MetricsRegistry;
use hive_planner::catalog::StaticCatalog;
use hive_planner::{plan_query, semantic::lower};
use hive_ql::{
    CompactMode, DeleteStmt, Expr, InsertStmt, SelectItem, SelectStmt, TableRef, UpdateStmt,
};
use parking_lot::Mutex;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::Arc;

/// Every crash point on the DML write path, in execution order. Tests
/// enumerate these, killing one transaction per point.
pub const WRITER_CRASH_POINTS: &[&str] = &[
    "writer.before.delta.temp",
    "writer.after.delta.temp",
    "writer.before.delta.rename",
    "writer.after.delta.rename",
    "writer.before.delete.rename",
    "writer.after.delete.rename",
    "writer.before.manifest.temp",
    "writer.after.manifest.temp",
    "writer.before.manifest.rename",
    "writer.after.manifest.rename",
];

/// Every crash point on the compaction path, in execution order.
pub const COMPACTOR_CRASH_POINTS: &[&str] = &[
    "compactor.before.read",
    "compactor.before.output.rename",
    "compactor.after.output.rename",
    "compactor.before.delete.rename",
    "compactor.after.delete.rename",
    "compactor.before.manifest.temp",
    "compactor.after.manifest.temp",
    "compactor.before.manifest.rename",
    "compactor.after.manifest.rename",
    "compactor.before.clean",
    "compactor.mid.clean",
];

/// Deterministic crash injection: when `hive.txn.crash.point` names the
/// point the transaction is currently passing, die right there — no
/// cleanup, no unwinding of the steps already taken — exactly like a
/// `kill -9` of the writer process. Recovery, not error handling, must
/// cope with whatever state is left behind.
pub fn crash_point(conf: &HiveConf, name: &str) -> Result<()> {
    if conf.get_raw(keys::TXN_CRASH_POINT) == Some(name) {
        return Err(HiveError::Crashed(name.to_string()));
    }
    Ok(())
}

/// Table write locks and read leases. One writer or compactor per table at
/// a time; the manifest chain makes reads lock-free (they just pin a
/// snapshot), and a read's lease keeps a compaction's clean off the files
/// it pinned.
#[derive(Default)]
pub struct TxnManager {
    locks: Mutex<HashMap<String, Arc<Mutex<()>>>>,
    leases: Mutex<Leases>,
}

#[derive(Default)]
struct Leases {
    /// Ticked by every lease and every compaction commit, so a lease whose
    /// tick is below a commit's was taken before that commit.
    clock: u64,
    /// Ticks of the leases still held.
    live: BTreeSet<u64>,
    /// Per table location, the committed compaction whose clean has not
    /// run: its manifest version and its commit's tick. Only touched under
    /// that table's lock.
    pending: HashMap<String, (u64, u64)>,
}

impl Leases {
    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }
}

/// A statement-scoped read lease: until it drops, no compaction that
/// commits after it was taken deletes anything (see `sweep`). Every
/// `SELECT`/`EXPLAIN` holds one from before it plans until it returns; a
/// caller that runs `plan_query` + `run_dag` itself takes one from
/// `HiveServer::read_lease`.
pub struct ReadLease<'a> {
    leases: &'a Mutex<Leases>,
    tick: u64,
}

impl Drop for ReadLease<'_> {
    fn drop(&mut self) {
        self.leases.lock().live.remove(&self.tick);
    }
}

impl TxnManager {
    pub fn new() -> TxnManager {
        TxnManager::default()
    }

    fn lock_for(&self, location: &str) -> Arc<Mutex<()>> {
        self.locks
            .lock()
            .entry(location.to_string())
            .or_default()
            .clone()
    }

    /// A lease for one read, held until the returned guard drops.
    pub fn read_lease(&self) -> ReadLease<'_> {
        let mut leases = self.leases.lock();
        let tick = leases.tick();
        leases.live.insert(tick);
        ReadLease {
            leases: &self.leases,
            tick,
        }
    }

    /// Record that a compaction of `location` just committed `version`:
    /// its clean is pending until [`TxnManager::due_clean`] says otherwise.
    fn compaction_committed(&self, location: &str, version: u64) {
        let mut leases = self.leases.lock();
        let tick = leases.tick();
        leases.pending.insert(location.to_string(), (version, tick));
    }

    /// The version of `location`'s pending compaction when its clean may
    /// run now: no lease taken before its commit is still live. A pending
    /// version beyond the table's `current` one belongs to a dropped table
    /// that once lived there and never fires.
    fn due_clean(&self, location: &str, current: u64) -> Option<u64> {
        let leases = self.leases.lock();
        let &(version, committed) = leases.pending.get(location)?;
        let unleased = leases.live.first().is_none_or(|&oldest| oldest > committed);
        (unleased && version <= current).then_some(version)
    }

    fn cleaned(&self, location: &str) {
        self.leases.lock().pending.remove(location);
    }
}

/// Commit scratch space. Lives under `/tmp/` on purpose: writes here do
/// not advance the DFS data generation, so a half-built transaction never
/// churns the plan cache — only the renames into the warehouse do, which
/// is precisely when cached plans must become unreachable.
fn txn_tmp_dir(table: &str) -> String {
    format!("/tmp/txn/{table}/")
}

fn lookup(metastore: &Metastore, table: &str) -> Result<TableInfo> {
    metastore
        .get(table)
        .ok_or_else(|| HiveError::Metastore(format!("unknown table `{table}`")))
}

/// The state a new transaction builds on: the metastore's pin of the
/// newest listed manifest (`Corrupt` if it does not verify), or — for a
/// table that has never committed one — the existing data files as the
/// initial base. ACID-prefixed names are excluded from that raw listing:
/// their visibility is the manifest's call, and there is no manifest.
fn current_snapshot(dfs: &Dfs, metastore: &Metastore, info: &TableInfo) -> Result<PinnedSnapshot> {
    Ok(match metastore.pin_snapshot(dfs, info, Fallback::Refuse)? {
        Some(pinned) => pinned,
        None => PinnedSnapshot {
            snapshot: Arc::new(TableSnapshot::initial(
                dfs.list(&info.location)
                    .into_iter()
                    .filter(|p| !is_acid_path(p))
                    .collect(),
            )),
            deletes: Arc::default(),
        },
    })
}

/// Crash recovery, run under the table lock before every transaction: pin
/// the snapshot to build on (nothing is deleted if that fails), empty the
/// commit scratch space, and [`sweep`] the table directory.
fn recover(
    dfs: &Dfs,
    conf: &HiveConf,
    metastore: &Metastore,
    info: &TableInfo,
    tmp: &str,
    txn: &TxnManager,
) -> Result<PinnedSnapshot> {
    let pinned = current_snapshot(dfs, metastore, info)?;
    for p in dfs.list(tmp) {
        dfs.delete(&p);
    }
    sweep(dfs, conf, info, &pinned.snapshot, txn)?;
    Ok(pinned)
}

/// The one deletion rule, run under the table lock by every transaction's
/// recovery and by a compaction right after its commit, over `snap`, the
/// newest manifest's snapshot. Of the files under the table's location, it
/// deletes
///
///  * always: orphans of a died writer — files tagged with a transaction id
///    beyond `snap.last_txn`, which no manifest names and so no lease can
///    reach;
///  * once the table's pending compaction clean is due (no lease older
///    than its commit is live): every other file `snap` does not name —
///    the old base (pre-ACID `part-*` files included), folded deltas and
///    delete files, leftovers of an interrupted clean — and every manifest
///    below the compaction's. The manifests of DML since then stay: each
///    names a subset of `snap`'s files, so a reader that cannot verify the
///    newest one still has the one before to fall back to.
fn sweep(
    dfs: &Dfs,
    conf: &HiveConf,
    info: &TableInfo,
    snap: &TableSnapshot,
    txn: &TxnManager,
) -> Result<()> {
    let floor = txn.due_clean(&info.location, snap.version);
    let named: HashSet<&String> = snap
        .base
        .iter()
        .chain(snap.deltas.iter().chain(&snap.deletes).map(|(_, p)| p))
        .collect();
    let stale: Vec<String> = dfs
        .list(&info.location)
        .into_iter()
        .filter(|p| {
            let name = p.rsplit('/').next().unwrap_or("");
            let number = |prefix: &str| {
                name.strip_prefix(prefix)
                    .and_then(|s| s.parse::<u64>().ok())
            };
            if let Some(v) = number(MANIFEST_PREFIX) {
                return floor.is_some_and(|f| v < f);
            }
            let orphan = [DELTA_PREFIX, DELETE_PREFIX, BASE_PREFIX]
                .into_iter()
                .filter_map(number)
                .any(|t| t > snap.last_txn);
            !named.contains(p) && (orphan || floor.is_some())
        })
        .collect();
    for (i, p) in stale.iter().enumerate() {
        dfs.delete(p);
        if i == 0 && floor.is_some() {
            crash_point(conf, "compactor.mid.clean")?;
        }
    }
    if floor.is_some() {
        txn.cleaned(&info.location);
    }
    Ok(())
}

/// Write `bytes` to `path` and barrier: the bytes must be back-readable
/// at full length before the caller may rename the file into visibility.
/// Any failure deletes the partial file so a retry starts clean.
fn write_bytes_checked(dfs: &Dfs, path: &str, bytes: &[u8]) -> Result<()> {
    let mut w = dfs.create(path);
    w.write(bytes);
    if let Err(e) = w.try_close() {
        dfs.delete(path);
        return Err(e);
    }
    if dfs.len(path)? != bytes.len() as u64 {
        dfs.delete(path);
        return Err(HiveError::Dfs(format!(
            "write barrier: `{path}` landed short"
        )));
    }
    Ok(())
}

/// Write `rows` to `path` in the table's format, then barrier by reading
/// the file back and recounting — a torn or short data file never gets
/// past this point.
fn write_rows_checked(
    dfs: &Dfs,
    conf: &HiveConf,
    path: &str,
    schema: &Schema,
    format: FormatKind,
    rows: &[Row],
) -> Result<()> {
    let mut w = create_writer(
        dfs,
        path,
        schema,
        conf,
        &WriteOptions {
            format,
            ..Default::default()
        },
    )?;
    for r in rows {
        w.write_row(r)?;
    }
    if let Err(e) = w.close() {
        dfs.delete(path);
        return Err(e);
    }
    let mut reader = open_reader(
        dfs,
        path,
        schema,
        conf,
        &ReadOptions {
            format,
            ..Default::default()
        },
    )?;
    let mut n = 0u64;
    while reader.next_row()?.is_some() {
        n += 1;
    }
    if n != rows.len() as u64 {
        dfs.delete(path);
        return Err(HiveError::Dfs(format!(
            "write barrier: `{path}` holds {n} rows, expected {}",
            rows.len()
        )));
    }
    Ok(())
}

/// Atomic move with duplicate-retry tolerance: if the rename reports an
/// error but the destination exists and the source is gone, the move
/// happened and only the acknowledgement was lost — a retried commit of
/// an already-committed step must not fail.
fn rename_durable(dfs: &Dfs, from: &str, to: &str) -> Result<()> {
    match dfs.rename(from, to) {
        Ok(()) => Ok(()),
        Err(e) => {
            if dfs.exists(to) && !dfs.exists(from) {
                Ok(())
            } else {
                Err(e)
            }
        }
    }
}

/// Rename a prepared scratch file into the table directory, with the
/// `<who>.{before,after}.<what>.rename` crash points around the move.
fn install(
    dfs: &Dfs,
    conf: &HiveConf,
    tmp_path: &str,
    final_path: &str,
    who: &str,
    what: &str,
) -> Result<()> {
    crash_point(conf, &format!("{who}.before.{what}.rename"))?;
    rename_durable(dfs, tmp_path, final_path)?;
    crash_point(conf, &format!("{who}.after.{what}.rename"))?;
    Ok(())
}

/// The commit point: write the next manifest to scratch, verify it
/// decodes (CRC included), and rename it into place. Until that last
/// rename lands, readers resolve the previous snapshot; after it, the
/// new one. There is no in-between.
fn publish_manifest(
    dfs: &Dfs,
    conf: &HiveConf,
    location: &str,
    tmp: &str,
    next: &TableSnapshot,
    who: &str,
) -> Result<()> {
    crash_point(conf, &format!("{who}.before.manifest.temp"))?;
    let tmp_path = format!("{tmp}{MANIFEST_PREFIX}{:010}", next.version);
    write_bytes_checked(dfs, &tmp_path, &next.encode())?;
    crash_point(conf, &format!("{who}.after.manifest.temp"))?;
    let landed = dfs.open(&tmp_path, None)?.read_all()?;
    TableSnapshot::decode(&landed)?;
    crash_point(conf, &format!("{who}.before.manifest.rename"))?;
    rename_durable(dfs, &tmp_path, &manifest_path(location, next.version))?;
    crash_point(conf, &format!("{who}.after.manifest.rename"))?;
    Ok(())
}

/// The snapshot a transaction on `snap` commits before its own files join
/// it: the next version, under the next transaction id. A manifest at the
/// end of either counter is `Corrupt`: no writer can build on it.
fn successor(snap: &TableSnapshot) -> Result<TableSnapshot> {
    let bump = |n: u64, what: &str| {
        n.checked_add(1)
            .ok_or_else(|| HiveError::Corrupt(format!("manifest {what} {n} cannot advance")))
    };
    Ok(TableSnapshot {
        version: bump(snap.version, "version")?,
        last_txn: bump(snap.last_txn, "txn")?,
        ..snap.clone()
    })
}

/// Materialize INSERT literal tuples as rows, cast to the column types. A
/// `VALUES` tuple holds constants: no column, function or `*` means
/// anything there.
fn literal_rows(ins: &InsertStmt, schema: &Schema) -> Result<Vec<Row>> {
    let empty = Row::new(Vec::new());
    ins.rows
        .iter()
        .map(|tuple| {
            if tuple.len() != schema.len() {
                return Err(HiveError::Plan(format!(
                    "INSERT row has {} value(s) but `{}` has {} column(s)",
                    tuple.len(),
                    ins.table,
                    schema.len()
                )));
            }
            let vals = tuple
                .iter()
                .zip(schema.fields())
                .map(|(e, f)| {
                    let v = lower(e, &[], &mut |_| Ok(None))?.eval(&empty)?;
                    cast_value(&v, &f.data_type)
                })
                .collect::<Result<Vec<Value>>>()?;
            Ok(Row::new(vals))
        })
        .collect()
}

/// `SELECT <projections> FROM <info's table> [WHERE <predicate>]`.
fn select_from(info: &TableInfo, projections: Vec<Expr>, predicate: Option<Expr>) -> SelectStmt {
    let item = |expr| SelectItem { expr, alias: None };
    SelectStmt {
        projections: projections.into_iter().map(item).collect(),
        from: TableRef::Table {
            name: info.name.clone(),
            alias: None,
        },
        joins: Vec::new(),
        where_clause: predicate,
        group_by: Vec::new(),
        having: None,
        order_by: Vec::new(),
        limit: None,
    }
}

/// `INPUT__FILE__NAME, ROW__ID` (a row's delete key), then `rest`.
fn keyed(rest: Vec<Expr>) -> Vec<Expr> {
    let key = VIRTUAL_COLUMNS.iter().map(|(name, _)| Expr::col(name));
    key.chain(rest).collect()
}

/// Every column of `info`'s table, by name.
fn table_columns(info: &TableInfo) -> Vec<Expr> {
    let fields = info.schema.fields().iter();
    fields.map(|f| Expr::col(&f.name)).collect()
}

/// The delete key a DML query row leads with (`INPUT__FILE__NAME,
/// ROW__ID`), and the rest of the row.
fn split_key(row: Row) -> Result<(DeleteKey, Vec<Value>)> {
    let mut values = row.into_values().into_iter();
    match (values.next(), values.next()) {
        (Some(Value::String(path)), Some(Value::Int(ordinal))) => {
            Ok(((path, ordinal as u64), values.collect()))
        }
        other => Err(HiveError::Internal(format!(
            "DML row without a delete key: {other:?}"
        ))),
    }
}

/// Run `stmt`, a SELECT over `info`'s table alone, as an engine job over
/// exactly `pinned`, the snapshot the caller recovered under the table
/// lock: base files, then deltas in commit order, each in physical order.
fn select_pinned(
    stmt: &SelectStmt,
    dfs: &Dfs,
    conf: &HiveConf,
    metastore: &Metastore,
    info: &TableInfo,
    pinned: &PinnedSnapshot,
    cancel: Option<&Arc<CancelToken>>,
) -> Result<(DagReport, Vec<Row>)> {
    let catalog = StaticCatalog {
        tables: vec![metastore.table_meta(info, pinned)],
    };
    let compiled = plan_query(stmt, &catalog, conf)?;
    let (paths, version) = (pinned.snapshot.scan_paths(), pinned.snapshot.version);
    let scans_pin = |i: &hive_mapreduce::job::JobInput| {
        i.paths == paths && i.overlay.as_ref().is_none_or(|o| o.snapshot_gen == version)
    };
    if !compiled.jobs.iter().flat_map(|j| &j.inputs).all(scans_pin) {
        return Err(HiveError::Internal(format!(
            "a scan of `{}` left snapshot {version}",
            info.name
        )));
    }
    let mut engine = MrEngine::new(dfs.clone(), conf.clone());
    if let Some(c) = cancel {
        engine = engine.with_cancel(Arc::clone(c));
    }
    engine.run_dag(&compiled.jobs)
}

// ---------------------------------------------------------------------------
// The transactions.

/// `INSERT INTO t VALUES ...`: append one delta file, bump the manifest.
pub fn execute_insert(
    ins: &InsertStmt,
    dfs: &Dfs,
    conf: &HiveConf,
    metastore: &Metastore,
    registry: &MetricsRegistry,
    txn: &TxnManager,
) -> Result<u64> {
    let info = lookup(metastore, &ins.table)?;
    let rows = literal_rows(ins, &info.schema)?;
    let lock = txn.lock_for(&info.location);
    let _guard = lock.lock();
    let tmp = txn_tmp_dir(&info.name);
    let mut next = successor(&recover(dfs, conf, metastore, &info, &tmp, txn)?.snapshot)?;
    let txn_id = next.last_txn;

    crash_point(conf, "writer.before.delta.temp")?;
    let tmp_delta = format!("{tmp}{DELTA_PREFIX}{txn_id:010}");
    write_rows_checked(dfs, conf, &tmp_delta, &info.schema, info.format, &rows)?;
    crash_point(conf, "writer.after.delta.temp")?;
    let delta = format!("{}{DELTA_PREFIX}{txn_id:010}", info.location);
    install(dfs, conf, &tmp_delta, &delta, "writer", "delta")?;
    next.deltas.push((txn_id, delta));
    publish_manifest(dfs, conf, &info.location, &tmp, &next, "writer")?;

    registry
        .counter_with("acid.txn.committed", &[("op", "insert")])
        .inc();
    registry
        .counter_with("acid.rows_written", &[("op", "insert")])
        .add(rows.len() as u64);
    maybe_auto_compact(dfs, conf, metastore, registry, txn, &info, &next)?;
    Ok(rows.len() as u64)
}

/// `DELETE FROM t [WHERE p]`: find the matching rows with `SELECT
/// INPUT__FILE__NAME, ROW__ID FROM t [WHERE p]` over the live snapshot,
/// record the keys it returns in one delete file, bump the manifest. Row
/// data is never touched — the mask is the deletion. Returns the count and
/// the query's report.
pub fn execute_delete(
    del: &DeleteStmt,
    dfs: &Dfs,
    conf: &HiveConf,
    metastore: &Metastore,
    registry: &MetricsRegistry,
    txn: &TxnManager,
    cancel: Option<&Arc<CancelToken>>,
) -> Result<(u64, DagReport)> {
    let info = lookup(metastore, &del.table)?;
    let lock = txn.lock_for(&info.location);
    let _guard = lock.lock();
    let tmp = txn_tmp_dir(&info.name);
    let pinned = recover(dfs, conf, metastore, &info, &tmp, txn)?;
    let mut next = successor(&pinned.snapshot)?;
    let txn_id = next.last_txn;

    let query = select_from(&info, keyed(Vec::new()), del.predicate.clone());
    let (report, rows) = select_pinned(&query, dfs, conf, metastore, &info, &pinned, cancel)?;
    let keys: Vec<DeleteKey> = rows
        .into_iter()
        .map(|row| Ok(split_key(row)?.0))
        .collect::<Result<_>>()?;
    if keys.is_empty() {
        return Ok((0, report)); // nothing matched: no transaction, no new snapshot
    }
    let del_path = install_delete_file(dfs, conf, &info, &tmp, txn_id, &keys, "writer")?;
    next.deletes.push((txn_id, del_path));
    publish_manifest(dfs, conf, &info.location, &tmp, &next, "writer")?;

    registry
        .counter_with("acid.txn.committed", &[("op", "delete")])
        .inc();
    registry.counter("acid.rows_deleted").add(keys.len() as u64);
    Ok((keys.len() as u64, report))
}

/// `UPDATE t SET c = e, ... [WHERE p]`: delete-plus-reinsert in one
/// transaction. The query that finds the rows also rewrites them: each
/// matching row's delete key, then every column with each SET target `c`
/// replaced by `CAST(e AS <c's type>)`. The rows are masked by a delete
/// file and their rewritten versions appended as a delta, published by a
/// single manifest bump so readers see either all old or all new versions.
pub fn execute_update(
    upd: &UpdateStmt,
    dfs: &Dfs,
    conf: &HiveConf,
    metastore: &Metastore,
    registry: &MetricsRegistry,
    txn: &TxnManager,
    cancel: Option<&Arc<CancelToken>>,
) -> Result<(u64, DagReport)> {
    let info = lookup(metastore, &upd.table)?;
    let schema = &info.schema;
    let mut columns = table_columns(&info);
    for (name, e) in &upd.sets {
        if e.has_aggregate() {
            return Err(HiveError::Semantic(format!("`{name}` set to an aggregate")));
        }
        let c = schema.index_of(name)?;
        columns[c] = Expr::Cast {
            expr: Box::new(e.clone()),
            target: schema.field(c).data_type.clone(),
        };
    }
    let lock = txn.lock_for(&info.location);
    let _guard = lock.lock();
    let tmp = txn_tmp_dir(&info.name);
    let pinned = recover(dfs, conf, metastore, &info, &tmp, txn)?;
    let mut next = successor(&pinned.snapshot)?;
    let txn_id = next.last_txn;

    let query = select_from(&info, keyed(columns), upd.predicate.clone());
    let (report, rows) = select_pinned(&query, dfs, conf, metastore, &info, &pinned, cancel)?;
    let mut keys: Vec<DeleteKey> = Vec::with_capacity(rows.len());
    let mut rewritten: Vec<Row> = Vec::with_capacity(rows.len());
    for row in rows {
        let (key, values) = split_key(row)?;
        keys.push(key);
        rewritten.push(Row::new(values));
    }
    if keys.is_empty() {
        return Ok((0, report));
    }

    crash_point(conf, "writer.before.delta.temp")?;
    let tmp_delta = format!("{tmp}{DELTA_PREFIX}{txn_id:010}");
    write_rows_checked(dfs, conf, &tmp_delta, schema, info.format, &rewritten)?;
    crash_point(conf, "writer.after.delta.temp")?;
    let delta = format!("{}{DELTA_PREFIX}{txn_id:010}", info.location);
    install(dfs, conf, &tmp_delta, &delta, "writer", "delta")?;
    let del_path = install_delete_file(dfs, conf, &info, &tmp, txn_id, &keys, "writer")?;
    next.deltas.push((txn_id, delta));
    next.deletes.push((txn_id, del_path));
    publish_manifest(dfs, conf, &info.location, &tmp, &next, "writer")?;

    registry
        .counter_with("acid.txn.committed", &[("op", "update")])
        .inc();
    registry
        .counter_with("acid.rows_written", &[("op", "update")])
        .add(rewritten.len() as u64);
    maybe_auto_compact(dfs, conf, metastore, registry, txn, &info, &next)?;
    Ok((keys.len() as u64, report))
}

/// Write, verify, and install one delete file for `txn_id`.
fn install_delete_file(
    dfs: &Dfs,
    conf: &HiveConf,
    info: &TableInfo,
    tmp: &str,
    txn_id: u64,
    keys: &[DeleteKey],
    who: &str,
) -> Result<String> {
    let tmp_del = format!("{tmp}{DELETE_PREFIX}{txn_id:010}");
    write_bytes_checked(dfs, &tmp_del, &encode_delete_file(keys))?;
    let landed = dfs.open(&tmp_del, None)?.read_all()?;
    decode_delete_file(&landed)?;
    let del_path = format!("{}{DELETE_PREFIX}{txn_id:010}", info.location);
    install(dfs, conf, &tmp_del, &del_path, who, "delete")?;
    Ok(del_path)
}

/// `ALTER TABLE t COMPACT 'minor'|'major'`.
#[allow(clippy::too_many_arguments)] // mirrors run_statement's parameter list + mode
pub fn execute_compact(
    table: &str,
    mode: CompactMode,
    dfs: &Dfs,
    conf: &HiveConf,
    metastore: &Metastore,
    registry: &MetricsRegistry,
    txn: &TxnManager,
    cancel: Option<&Arc<CancelToken>>,
) -> Result<u64> {
    let info = lookup(metastore, table)?;
    let lock = txn.lock_for(&info.location);
    let _guard = lock.lock();
    let tmp = txn_tmp_dir(&info.name);
    let pinned = recover(dfs, conf, metastore, &info, &tmp, txn)?;
    compact_snapshot(
        dfs, conf, metastore, registry, txn, &info, &pinned, mode, cancel,
    )
}

/// One compaction transaction over an already-recovered snapshot, caller
/// holding the table lock: commit, then clean ([`sweep`]) what the new
/// snapshot made obsolete — at once when no read lease predates the
/// commit, else on a later transaction's recovery.
#[allow(clippy::too_many_arguments)]
fn compact_snapshot(
    dfs: &Dfs,
    conf: &HiveConf,
    metastore: &Metastore,
    registry: &MetricsRegistry,
    txn: &TxnManager,
    info: &TableInfo,
    pinned: &PinnedSnapshot,
    mode: CompactMode,
    cancel: Option<&Arc<CancelToken>>,
) -> Result<u64> {
    let snap = &pinned.snapshot;
    if snap.deltas.is_empty() && snap.deletes.is_empty() && mode == CompactMode::Minor {
        return Ok(0); // nothing to fold
    }
    crash_point(conf, "compactor.before.read")?;
    let tmp = txn_tmp_dir(&info.name);
    let mut next = TableSnapshot {
        deltas: Vec::new(),
        deletes: Vec::new(),
        ..successor(snap)?
    };
    let txn_id = next.last_txn;
    // Both modes run one engine query: a full merge-on-read scan, with real
    // task scheduling and the statement's preemption token polled at every
    // engine checkpoint. Major scans the whole snapshot into a fresh base.
    // Minor scans the deltas alone, under the same delete set: it pins the
    // snapshot with no base, so base-addressed keys match no row and mask
    // nothing, and the live delta rows fold into one delta.
    let deltas_only;
    let source = match mode {
        CompactMode::Minor => {
            let snapshot = Arc::new(TableSnapshot {
                base: Vec::new(),
                ..TableSnapshot::clone(snap)
            });
            let deletes = Arc::clone(&pinned.deletes);
            deltas_only = PinnedSnapshot { snapshot, deletes };
            &deltas_only
        }
        CompactMode::Major => pinned,
    };
    let query = select_from(info, table_columns(info), None);
    let (_, rows) = select_pinned(&query, dfs, conf, metastore, info, source, cancel)?;
    let (prefix, label) = match mode {
        CompactMode::Minor => (DELTA_PREFIX, "minor"),
        CompactMode::Major => (BASE_PREFIX, "major"),
    };
    if mode == CompactMode::Major {
        next.base.clear();
    }
    if !rows.is_empty() {
        let tmp_out = format!("{tmp}{prefix}{txn_id:010}");
        write_rows_checked(dfs, conf, &tmp_out, &info.schema, info.format, &rows)?;
        let out = format!("{}{prefix}{txn_id:010}", info.location);
        install(dfs, conf, &tmp_out, &out, "compactor", "output")?;
        match mode {
            CompactMode::Minor => next.deltas.push((txn_id, out)),
            CompactMode::Major => next.base.push(out),
        }
    }
    if mode == CompactMode::Minor {
        // Keys masking *base* rows survive (base files are untouched);
        // keys masking delta rows were applied by the fold and die with
        // the old deltas.
        let base_keys: Vec<DeleteKey> = pinned
            .deletes
            .iter()
            .filter(|(p, _)| snap.base.iter().any(|b| b == p))
            .map(|(p, o)| (p.to_string(), o))
            .collect();
        if !base_keys.is_empty() {
            let del_path =
                install_delete_file(dfs, conf, info, &tmp, txn_id, &base_keys, "compactor")?;
            next.deletes.push((txn_id, del_path));
        }
    }
    let rows_out = rows.len() as u64;
    publish_manifest(dfs, conf, &info.location, &tmp, &next, "compactor")?;
    txn.compaction_committed(&info.location, next.version);
    crash_point(conf, "compactor.before.clean")?;
    sweep(dfs, conf, info, &next, txn)?;
    registry
        .counter_with("compaction.runs", &[("mode", label)])
        .inc();
    registry.counter("compaction.rows_written").add(rows_out);
    Ok(rows_out)
}

/// After a committed DML: fold the delta chain when it crossed
/// `hive.compactor.delta.threshold` and `hive.compactor.auto.enabled` is
/// on. Runs inline under the same table lock — the DML's commit already
/// happened, so a crash here loses only the compaction. Not preemptible for
/// the same reason: a preempted statement is re-run from scratch, which
/// would apply the committed DML twice.
fn maybe_auto_compact(
    dfs: &Dfs,
    conf: &HiveConf,
    metastore: &Metastore,
    registry: &MetricsRegistry,
    txn: &TxnManager,
    info: &TableInfo,
    snap: &TableSnapshot,
) -> Result<()> {
    if !conf.get_bool(keys::COMPACTOR_AUTO)? {
        return Ok(());
    }
    if snap.deltas.len() < conf.get_i64(keys::COMPACTOR_DELTA_THRESHOLD)? as usize {
        return Ok(());
    }
    registry.counter("compaction.auto_triggered").inc();
    // The caller holds the table lock and just committed `snap`, so the
    // metastore's pin is a pin of `snap`.
    let pinned = match metastore.pin_snapshot(dfs, info, Fallback::Refuse)? {
        Some(pinned) if *pinned.snapshot == *snap => pinned,
        _ => {
            return Err(HiveError::Internal(format!(
                "`{}` moved off snapshot {} under its table lock",
                info.name, snap.version
            )))
        }
    };
    compact_snapshot(
        dfs,
        conf,
        metastore,
        registry,
        txn,
        info,
        &pinned,
        CompactMode::Minor,
        None,
    )?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crash_point_fires_only_on_its_name() {
        let conf = HiveConf::default().with("hive.txn.crash.point", "writer.after.delta.rename");
        assert!(crash_point(&conf, "writer.before.delta.temp").is_ok());
        let err = crash_point(&conf, "writer.after.delta.rename").unwrap_err();
        assert!(!err.is_retryable(), "a crash is not a retryable fault");
        assert!(matches!(err, HiveError::Crashed(_)));
        assert!(crash_point(&HiveConf::default(), "writer.after.delta.rename").is_ok());
    }

    #[test]
    fn crash_point_registries_are_distinct_and_ordered() {
        for points in [WRITER_CRASH_POINTS, COMPACTOR_CRASH_POINTS] {
            let mut seen = std::collections::BTreeSet::new();
            for p in points {
                assert!(seen.insert(*p), "duplicate crash point {p}");
            }
        }
        assert!(WRITER_CRASH_POINTS.iter().all(|p| p.starts_with("writer.")));
        assert!(COMPACTOR_CRASH_POINTS
            .iter()
            .all(|p| p.starts_with("compactor.")));
    }

    #[test]
    fn insert_values_are_constants() {
        let schema = Schema::parse(&[("k", "bigint"), ("v", "string")]).unwrap();
        let values = |tuple: Vec<Expr>| {
            let ins = InsertStmt {
                table: "t".into(),
                rows: vec![tuple],
            };
            literal_rows(&ins, &schema)
        };
        let sum = Expr::binary(
            hive_ql::BinOp::Add,
            Expr::Literal(Value::Int(1)),
            Expr::Literal(Value::Int(2)),
        );
        let rows = values(vec![sum, Expr::Literal(Value::Int(7))]).unwrap();
        let want = Row::new(vec![Value::Int(3), Value::String("7".into())]);
        assert_eq!(rows, vec![want], "folded and cast to the column types");
        // A column, an aggregate or `*` is a semantic error, not a panic.
        let agg = Expr::Function {
            name: "sum".into(),
            args: vec![Expr::col("k")],
            distinct: false,
        };
        for bad in [Expr::col("k"), agg, Expr::Star] {
            let err = values(vec![bad.clone(), bad]).unwrap_err();
            assert!(matches!(err, HiveError::Semantic(_)), "{err}");
        }
    }
}
