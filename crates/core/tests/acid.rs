//! End-to-end ACID: DML through the server, merge-on-read scans, snapshot
//! isolation, compaction, plan-cache interaction, and the observability
//! surface. The kill-anywhere crash suite lives in `acid_chaos.rs`.

use hive_common::config::keys;
use hive_common::{HiveError, Row, Value};
use hive_core::{HiveSession, StatementCtx};
use hive_dfs::Dfs;
use hive_formats::delta::{load_snapshot, manifest_path, Fallback};
use std::collections::BTreeSet;

fn sorted(mut rows: Vec<Row>) -> Vec<Row> {
    rows.sort_by(|a, b| hive_common::key::cmp(a.values(), b.values()));
    rows
}

/// A session over a server with one ORC table `t(k, v)` holding 30 base
/// rows loaded the pre-ACID way (plain files, no manifest).
fn acid_session() -> HiveSession {
    let mut hive = HiveSession::builder()
        .knob(hive_common::config::knobs::EXEC_SIM_DETERMINISTIC_CPU, true)
        .build()
        .unwrap();
    hive.execute("CREATE TABLE t (k BIGINT, v BIGINT) STORED AS orc")
        .unwrap();
    hive.load_rows(
        "t",
        (0..30).map(|i| Row::new(vec![Value::Int(i % 6), Value::Int(i)])),
    )
    .unwrap();
    hive
}

fn select_all(hive: &mut HiveSession) -> Vec<Row> {
    sorted(hive.execute("SELECT k, v FROM t").unwrap().rows)
}

/// The table directory holds exactly the current snapshot's files and the
/// manifests from version `since` (the last compaction's, or 1) on:
/// nothing a compaction made obsolete, no orphan.
fn assert_only_the_chain(dfs: &Dfs, location: &str, since: u64) {
    let snap = load_snapshot(dfs, location).unwrap().unwrap();
    let mut want: BTreeSet<String> = snap.scan_paths().into_iter().collect();
    want.extend(snap.deletes.iter().map(|(_, p)| p.clone()));
    want.extend((since..=snap.version).map(|v| manifest_path(location, v)));
    let got: BTreeSet<String> = dfs.list(location).into_iter().collect();
    assert_eq!(got, want, "files beside the chain since version {since}");
}

fn count(hive: &mut HiveSession) -> i64 {
    let r = hive.execute("SELECT COUNT(*) FROM t").unwrap();
    match r.rows[0][0] {
        Value::Int(n) => n,
        ref other => panic!("COUNT(*) returned {other:?}"),
    }
}

#[test]
fn insert_appends_rows_through_a_delta() {
    let mut hive = acid_session();
    let r = hive
        .execute("INSERT INTO t VALUES (100, 1), (101, 2)")
        .unwrap();
    assert_eq!(r.columns, vec!["rows_inserted"]);
    assert_eq!(r.rows, vec![Row::new(vec![Value::Int(2)])]);
    assert_eq!(count(&mut hive), 32);
    let got = sorted(
        hive.execute("SELECT k, v FROM t WHERE k >= 100")
            .unwrap()
            .rows,
    );
    assert_eq!(
        got,
        vec![
            Row::new(vec![Value::Int(100), Value::Int(1)]),
            Row::new(vec![Value::Int(101), Value::Int(2)]),
        ]
    );
    // The commit is a manifest + one delta beside the untouched base files.
    let snap = load_snapshot(hive.dfs(), "/warehouse/t/").unwrap().unwrap();
    assert_eq!(snap.version, 1);
    assert_eq!(snap.deltas.len(), 1);
    assert!(snap.deletes.is_empty());
}

#[test]
fn update_rewrites_only_matching_rows() {
    let mut hive = acid_session();
    let before = select_all(&mut hive);
    let r = hive
        .execute("UPDATE t SET v = v + 1000 WHERE k = 3")
        .unwrap();
    assert_eq!(r.rows, vec![Row::new(vec![Value::Int(5)])]);
    let after = select_all(&mut hive);
    assert_eq!(
        after.len(),
        before.len(),
        "UPDATE must not change row count"
    );
    let expected: Vec<Row> = sorted(
        before
            .iter()
            .map(|row| {
                let (k, v) = (row[0].clone(), row[1].clone());
                if k == Value::Int(3) {
                    let Value::Int(v) = v else { unreachable!() };
                    Row::new(vec![k, Value::Int(v + 1000)])
                } else {
                    Row::new(vec![k, v])
                }
            })
            .collect(),
    );
    assert_eq!(after, expected);
    // An UPDATE that matches nothing commits nothing.
    let snap_before = load_snapshot(hive.dfs(), "/warehouse/t/").unwrap().unwrap();
    let r = hive.execute("UPDATE t SET v = 0 WHERE k = 99").unwrap();
    assert_eq!(r.rows, vec![Row::new(vec![Value::Int(0)])]);
    let snap_after = load_snapshot(hive.dfs(), "/warehouse/t/").unwrap().unwrap();
    assert_eq!(snap_before.version, snap_after.version);
}

#[test]
fn delete_masks_rows_without_touching_data() {
    let mut hive = acid_session();
    let r = hive.execute("DELETE FROM t WHERE k < 2").unwrap();
    assert_eq!(r.columns, vec!["rows_deleted"]);
    assert_eq!(r.rows, vec![Row::new(vec![Value::Int(10)])]);
    assert_eq!(count(&mut hive), 20);
    assert!(hive
        .execute("SELECT k FROM t WHERE k < 2")
        .unwrap()
        .rows
        .is_empty());
    // Base files are intact; only a delete file + manifest appeared.
    let snap = load_snapshot(hive.dfs(), "/warehouse/t/").unwrap().unwrap();
    assert_eq!(snap.deletes.len(), 1);
    assert!(snap.deltas.is_empty());
    // Deleting the same rows again is a no-op, not a new transaction.
    let r = hive.execute("DELETE FROM t WHERE k < 2").unwrap();
    assert_eq!(r.rows, vec![Row::new(vec![Value::Int(0)])]);
    let again = load_snapshot(hive.dfs(), "/warehouse/t/").unwrap().unwrap();
    assert_eq!(again.version, snap.version);
}

/// DML resolves columns against the target table alone, under its own
/// name: a reference qualified by anything else used to have its qualifier
/// ignored (`DELETE ... WHERE other.k = 2` deleted rows), and statistics
/// answered `MAX(zz.v)` from the footers.
#[test]
fn dml_and_stats_answers_reject_references_outside_their_one_table_scope() {
    let mut hive = acid_session();
    let before = select_all(&mut hive);
    for sql in [
        "DELETE FROM t WHERE other.k = 2",
        "UPDATE t SET v = 0 WHERE nope.k = 3",
        "UPDATE t SET v = other.v + 1 WHERE k = 3",
        "DELETE FROM t WHERE t.nope = 2",
    ] {
        let err = hive.execute(sql).unwrap_err();
        assert!(
            err.to_string().contains("[semantic] unknown column"),
            "{sql}: {err}"
        );
        assert_eq!(select_all(&mut hive), before, "{sql} changed data");
    }
    // A DML expression is per row: an aggregate has no meaning there.
    for sql in [
        "UPDATE t SET v = sum(v)",
        "DELETE FROM t WHERE count(*) > 1",
    ] {
        let err = hive.execute(sql).unwrap_err();
        assert!(matches!(err, HiveError::Semantic(_)), "{sql}: {err}");
    }
    assert!(
        load_snapshot(hive.dfs(), "/warehouse/t/")
            .unwrap()
            .is_none(),
        "a rejected statement must not commit"
    );

    hive.set(keys::COMPUTE_USING_STATS, "true");
    for sql in ["SELECT MAX(zz.v) FROM t", "SELECT MAX(t.v) FROM t x"] {
        let err = hive.execute(sql).unwrap_err();
        assert!(err.to_string().contains("unknown column"), "{sql}: {err}");
    }
    let max = |hive: &mut HiveSession, sql: &str| hive.execute(sql).unwrap().rows[0][0].clone();
    assert_eq!(max(&mut hive, "SELECT MAX(t.v) FROM t"), Value::Int(29));
    assert_eq!(max(&mut hive, "SELECT MAX(x.v) FROM t x"), Value::Int(29));
    let answered = hive.server().metrics().snapshot();
    let answered = answered.counter("query.stats_answered", &[]);
    assert_eq!(answered, Some(2), "both came from the footers");
    hive.set(keys::COMPUTE_USING_STATS, "false");

    // The table's own name still qualifies.
    let r = hive.execute("UPDATE t SET v = t.v + 100 WHERE t.k = 3 AND v < 6");
    assert_eq!(r.unwrap().rows, vec![Row::new(vec![Value::Int(1)])]);
    let r = hive.execute("DELETE FROM t WHERE t.k = 2").unwrap();
    assert_eq!(r.rows, vec![Row::new(vec![Value::Int(5)])]);
    assert_eq!(count(&mut hive), 25);
}

/// Minor compaction is an engine query, like major: with vectorization on
/// or off it folds the same live delta rows, in the same order, into one
/// delta file, and keeps the base-addressed keys in one delete file.
#[test]
fn minor_compaction_folds_the_same_delta_with_vectorization_on_and_off() {
    let folds: Vec<_> = ["true", "false"]
        .into_iter()
        .map(|vectorized| {
            let mut hive = acid_session();
            hive.set(keys::VECTORIZED_ENABLED, vectorized);
            for i in 0..3 {
                hive.execute(&format!(
                    "INSERT INTO t VALUES ({}, {i}), (7, {i})",
                    100 + i
                ))
                .unwrap();
            }
            // Masks rows of the base and of every delta.
            hive.execute("UPDATE t SET v = v + 1000 WHERE k = 7 OR k = 4")
                .unwrap();
            hive.execute("DELETE FROM t WHERE v = 1 OR k = 101 OR k = 5")
                .unwrap();
            let want = select_all(&mut hive);
            hive.execute("ALTER TABLE t COMPACT 'minor'").unwrap();
            assert_eq!(select_all(&mut hive), want, "vectorized={vectorized}");
            let snap = load_snapshot(hive.dfs(), "/warehouse/t/").unwrap().unwrap();
            assert_eq!(snap.deltas.len(), 1, "vectorized={vectorized}");
            assert_eq!(snap.deletes.len(), 1, "vectorized={vectorized}");
            let read = |path: &str| hive.dfs().open(path, None).unwrap().read_all().unwrap();
            let files = [&snap.deltas[0].1, &snap.deletes[0].1].map(|p| (p.clone(), read(p)));
            (want, files)
        })
        .collect();
    assert_eq!(folds[0], folds[1], "the same rows, delta and delete file");
}

#[test]
fn compaction_preserves_results_and_shrinks_the_chain() {
    let mut hive = acid_session();
    for i in 0..4 {
        hive.execute(&format!(
            "INSERT INTO t VALUES ({}, {i}), (2, {i})",
            200 + i
        ))
        .unwrap();
    }
    hive.execute("UPDATE t SET v = v * 2 WHERE k = 2").unwrap();
    hive.execute("DELETE FROM t WHERE k = 1").unwrap();
    let want = select_all(&mut hive);

    // Minor: deltas and delta-addressed deletes fold into one delta; keys
    // masking base rows survive in one delete file; base untouched.
    let r = hive.execute("ALTER TABLE t COMPACT 'minor'").unwrap();
    assert_eq!(r.columns, vec!["rows_compacted"]);
    assert_eq!(
        select_all(&mut hive),
        want,
        "minor compaction changed results"
    );
    let snap = load_snapshot(hive.dfs(), "/warehouse/t/").unwrap().unwrap();
    assert_eq!(snap.deltas.len(), 1, "minor must fold deltas into one");
    assert_eq!(snap.deletes.len(), 1, "base delete keys must survive minor");

    // Major: the whole table becomes one fresh base file.
    hive.execute("ALTER TABLE t COMPACT 'major'").unwrap();
    assert_eq!(
        select_all(&mut hive),
        want,
        "major compaction changed results"
    );
    let snap = load_snapshot(hive.dfs(), "/warehouse/t/").unwrap().unwrap();
    assert_eq!(snap.base.len(), 1);
    assert!(snap.base[0].contains("base_"), "{:?}", snap.base);
    assert!(snap.deltas.is_empty());
    assert!(snap.deletes.is_empty());
    // And the table keeps working transactionally afterwards.
    hive.execute("INSERT INTO t VALUES (300, 300)").unwrap();
    assert_eq!(count(&mut hive), want.len() as i64 + 1);
}

/// Space as a count, not a timer: three `acid_mixed`-shaped cycles. Between
/// compactions each commit adds exactly its own files; after each major
/// compaction the directory is its base and its manifest, byte for byte.
#[test]
fn each_major_compaction_leaves_only_its_base_and_its_manifest() {
    let mut hive = acid_session();
    let dfs = hive.dfs().clone();
    let location = "/warehouse/t/";
    let commit = |hive: &mut HiveSession, sql: &str, files: usize| {
        let before = dfs.list(location).len();
        hive.execute(sql).unwrap();
        assert_eq!(dfs.list(location).len(), before + files, "{sql}");
    };
    for cycle in 0..3i64 {
        for i in 0..4 {
            let k = 1000 + cycle * 10 + i;
            // A delta and a manifest.
            commit(
                &mut hive,
                &format!("INSERT INTO t VALUES ({k}, {cycle})"),
                2,
            );
        }
        // A delta, a delete file and a manifest.
        commit(&mut hive, "UPDATE t SET v = v + 1 WHERE k = 1", 3);
        // A delete file and a manifest.
        let sql = format!("DELETE FROM t WHERE k = {}", 1000 + cycle * 10);
        commit(&mut hive, &sql, 2);

        hive.execute("ALTER TABLE t COMPACT 'major'").unwrap();
        let snap = load_snapshot(&dfs, location).unwrap().unwrap();
        let (base, manifest) = (&snap.base[0], manifest_path(location, snap.version));
        let mut want = vec![base.clone(), manifest.clone()];
        want.sort();
        assert_eq!(dfs.list(location), want, "cycle {cycle}");
        assert_eq!(
            dfs.size_of(location),
            dfs.len(base).unwrap() + dfs.len(&manifest).unwrap(),
            "cycle {cycle}"
        );
    }
    assert_eq!(count(&mut hive), 30 + 3 * 3);
}

/// Merge-on-read keeps what the plain scan had, and compaction gives the
/// rest back — all on counters and the deterministic clock. Over a table
/// of 20 index groups a SARG-filtered aggregate must still prune groups
/// while the overlay is live, read deltas and mask rows with the same
/// accounting vectorized and row mode, and after a major compaction pay no
/// merge at all and be back within 10 % of the pre-churn scan's time.
#[test]
fn sarg_prunes_under_the_overlay_and_compaction_restores_the_scan() {
    const SQL: &str = "SELECT cust, COUNT(*) AS n, SUM(total) AS rev FROM orders \
         WHERE okey >= 15000 GROUP BY cust ORDER BY cust";
    let mut hive = HiveSession::builder()
        .knob(hive_common::config::knobs::EXEC_SIM_DETERMINISTIC_CPU, true)
        .build()
        .unwrap();
    // No block cache: every scan below is a cold one, so their simulated
    // times compare like with like.
    hive.set(keys::IO_CACHE_BYTES, "0")
        .set(keys::ORC_ROW_INDEX_STRIDE, "1000");
    hive.execute("CREATE TABLE orders (okey BIGINT, cust BIGINT, total DOUBLE) STORED AS orc")
        .unwrap();
    hive.load_rows(
        "orders",
        (0..20_000i64).map(|i| {
            Row::new(vec![
                Value::Int(i),
                Value::Int(i % 100),
                Value::Double((i % 500) as f64 / 2.0),
            ])
        }),
    )
    .unwrap();

    /// `(groups_read, groups_total, delta_rows_read, rows_masked)`.
    fn scan_counters(r: &hive_core::QueryResult) -> (u64, u64, u64, u64) {
        r.report.jobs.iter().fold((0, 0, 0, 0), |acc, j| {
            (
                acc.0 + j.scan.groups_read,
                acc.1 + j.scan.groups_total,
                acc.2 + j.scan.delta_rows_read,
                acc.3 + j.scan.rows_masked,
            )
        })
    }

    let base = hive.execute(SQL).unwrap();
    let (read, total, delta_rows, masked) = scan_counters(&base);
    assert!(total >= 20 && read < total, "groups={read}/{total}");
    assert_eq!((delta_rows, masked), (0, 0));

    for c in 0..4i64 {
        let values: Vec<String> = (0..50)
            .map(|i| {
                let okey = 20_000 + c * 50 + i;
                format!("({okey}, {}, {}.5)", okey % 100, okey % 500)
            })
            .collect();
        hive.execute(&format!("INSERT INTO orders VALUES {}", values.join(", ")))
            .unwrap();
    }
    hive.execute("UPDATE orders SET total = total + 1.0 WHERE cust = 7")
        .unwrap();
    hive.execute("DELETE FROM orders WHERE cust = 13").unwrap();

    let merged = hive.execute(SQL).unwrap();
    hive.set(keys::VECTORIZED_ENABLED, "false");
    let merged_row = hive.execute(SQL).unwrap();
    hive.set(keys::VECTORIZED_ENABLED, "true");
    assert_ne!(merged.rows, base.rows, "churn must be visible to the scan");
    assert_eq!(merged.rows, merged_row.rows);
    let (read, total, delta_rows, masked) = scan_counters(&merged);
    assert!(
        read < total,
        "SARG pruned nothing under the overlay: groups={read}/{total}"
    );
    assert!(delta_rows > 0 && masked > 0, "{delta_rows} / {masked}");
    assert_eq!(
        scan_counters(&merged_row),
        scan_counters(&merged),
        "merge accounting differs across modes"
    );

    hive.execute("ALTER TABLE orders COMPACT 'major'").unwrap();
    let post = hive.execute(SQL).unwrap();
    assert_eq!(post.rows, merged.rows, "compaction changed the answer");
    let (read, total, delta_rows, masked) = scan_counters(&post);
    assert_eq!(
        (delta_rows, masked),
        (0, 0),
        "compacted scan still pays the merge"
    );
    assert!(read < total, "groups={read}/{total}");
    assert!(
        post.report.sim_total_s <= 1.10 * base.report.sim_total_s,
        "post-compaction scan {}s vs pre-churn {}s",
        post.report.sim_total_s,
        base.report.sim_total_s
    );
}

#[test]
fn auto_compaction_triggers_at_the_delta_threshold() {
    let mut hive = acid_session();
    hive.set(keys::COMPACTOR_AUTO, "true")
        .set(keys::COMPACTOR_DELTA_THRESHOLD, "3");
    for i in 0..3 {
        hive.execute(&format!("INSERT INTO t VALUES ({}, 0)", 400 + i))
            .unwrap();
    }
    // The third commit crossed the threshold and folded the chain inline.
    let snap = load_snapshot(hive.dfs(), "/warehouse/t/").unwrap().unwrap();
    assert_eq!(snap.deltas.len(), 1, "auto compaction did not run");
    assert_eq!(count(&mut hive), 33);
    let snapshot = hive.server().metrics().snapshot();
    assert_eq!(snapshot.counter("compaction.auto_triggered", &[]), Some(1));
}

/// The compaction that follows a committed DML is not preemptible: a
/// preempted statement is re-run from scratch, so a preemption after the
/// commit would apply the DML twice. With the statement's token already
/// fired, the INSERT commits once, its compaction runs, and it reports `Ok`.
#[test]
fn auto_compaction_after_a_commit_ignores_the_statements_preemption() {
    let mut hive = acid_session();
    let server = hive.server();
    let conf = server
        .defaults()
        .clone()
        .with(keys::COMPACTOR_AUTO, "true")
        .with(keys::COMPACTOR_DELTA_THRESHOLD, "1");
    let txn = hive_core::TxnManager::new();
    let cancel = std::sync::Arc::new(hive_common::CancelToken::new());
    cancel.cancel("yield slot to pool `interactive`");
    let ctx = StatementCtx {
        cancel: Some(&cancel),
        txn: Some(&txn),
        ..Default::default()
    };
    let res = hive_core::driver::run_statement(
        "INSERT INTO t VALUES (99, 99)",
        server.dfs(),
        &conf,
        server.metastore(),
        server.metrics(),
        &ctx,
    );
    assert!(res.is_ok(), "{:?}", res.err());
    let runs = server.metrics().snapshot();
    assert_eq!(
        runs.counter("compaction.runs", &[("mode", "minor")]),
        Some(1)
    );
    assert_eq!(count(&mut hive), 31);
}

/// The snapshot-isolation guarantee itself: a plan pinned before a commit
/// keeps reading the generation it pinned, even when executed after the
/// commit landed — old rows exactly, never a hybrid.
#[test]
fn pinned_plan_reads_its_snapshot_after_a_later_commit() {
    let mut hive = acid_session();
    hive.execute("INSERT INTO t VALUES (100, 1)").unwrap();
    let old = select_all(&mut hive);

    // Pin: plan the scan against the current manifest.
    let hive_ql::Statement::Select(stmt) = hive_ql::parse("SELECT k, v FROM t").unwrap() else {
        unreachable!()
    };
    let server = hive.server().clone();
    let compiled = hive_planner::plan_query(&stmt, server.metastore(), server.defaults()).unwrap();

    // Commit two more transactions after the pin.
    hive.execute("INSERT INTO t VALUES (101, 2)").unwrap();
    hive.execute("DELETE FROM t WHERE k = 100").unwrap();
    assert_ne!(select_all(&mut hive), old);

    // The pinned plan still reads generation-1 rows, bit for bit.
    let engine = hive_mapreduce::MrEngine::new(server.dfs().clone(), server.defaults().clone());
    let (_report, rows) = engine.run_dag(&compiled.jobs).unwrap();
    assert_eq!(sorted(rows), old, "pinned snapshot drifted");
}

/// The same guarantee across the files a compaction obsoletes: a plan
/// pinned under a read lease keeps every file it pinned through a major
/// compaction and a later commit (whose recovery would run the clean), and
/// reads its own rows. Once the lease drops, the next commit leaves only
/// the new chain.
#[test]
fn pinned_plan_reads_its_snapshot_across_a_compaction_and_its_clean() {
    let mut hive = acid_session();
    hive.execute("INSERT INTO t VALUES (100, 1)").unwrap();
    hive.execute("DELETE FROM t WHERE k = 0").unwrap();
    let old = select_all(&mut hive);
    let server = hive.server().clone();
    let location = "/warehouse/t/";

    let lease = server.read_lease();
    let hive_ql::Statement::Select(stmt) = hive_ql::parse("SELECT k, v FROM t").unwrap() else {
        unreachable!()
    };
    let compiled = hive_planner::plan_query(&stmt, server.metastore(), server.defaults()).unwrap();
    let pinned_files = server.dfs().list(location);

    hive.execute("ALTER TABLE t COMPACT 'major'").unwrap();
    hive.execute("DELETE FROM t WHERE k = 100").unwrap();
    assert_ne!(select_all(&mut hive), old);
    for f in &pinned_files {
        assert!(server.dfs().exists(f), "`{f}` cleaned under a live lease");
    }
    let engine = hive_mapreduce::MrEngine::new(server.dfs().clone(), server.defaults().clone());
    let (_report, rows) = engine.run_dag(&compiled.jobs).unwrap();
    assert_eq!(sorted(rows), old, "pinned snapshot drifted");

    drop(lease);
    hive.execute("INSERT INTO t VALUES (101, 2)").unwrap();
    // The compaction committed version 3.
    assert_only_the_chain(server.dfs(), location, 3);
    assert!(pinned_files.iter().all(|f| !server.dfs().exists(f)));
}

/// Satellite: a cached plan must be invalidated by a committed UPDATE (and
/// by compaction) — the commit bumps the DFS data generation, which is part
/// of the plan-cache key, so staleness is structural.
#[test]
fn plan_cache_entry_is_invalidated_by_committed_update() {
    let mut hive = acid_session();
    hive.set(keys::PLAN_CACHE_ENABLED, "true");
    let sql = "SELECT k, v FROM t WHERE k = 4";
    let hits = |hive: &HiveSession| {
        let s = hive.server().metrics().snapshot();
        (
            s.counter("plan_cache.hit", &[]).unwrap_or(0),
            s.counter("plan_cache.miss", &[]).unwrap_or(0),
        )
    };
    let first = sorted(hive.execute(sql).unwrap().rows);
    assert_eq!(sorted(hive.execute(sql).unwrap().rows), first);
    let (h, m) = hits(&hive);
    assert_eq!((h, m), (1, 1), "second run must hit the cache");

    hive.execute("UPDATE t SET v = v + 500 WHERE k = 4")
        .unwrap();
    let updated = sorted(hive.execute(sql).unwrap().rows);
    assert_ne!(updated, first, "UPDATE must be visible");
    let (h, m) = hits(&hive);
    assert_eq!((h, m), (1, 2), "committed UPDATE must invalidate the plan");

    // Compaction rewrites files — also a new generation, also a miss.
    assert_eq!(sorted(hive.execute(sql).unwrap().rows), updated);
    hive.execute("ALTER TABLE t COMPACT 'major'").unwrap();
    assert_eq!(sorted(hive.execute(sql).unwrap().rows), updated);
    let (h, m) = hits(&hive);
    assert_eq!((h, m), (2, 3), "compaction must invalidate the plan");
}

/// ORC footer-stats answers are per-file and blind to delete masks; an
/// ACID table must fall back to merge-on-read for correctness.
#[test]
fn stats_answers_stand_down_on_acid_tables() {
    let mut hive = acid_session();
    hive.set(keys::COMPUTE_USING_STATS, "true");
    assert_eq!(count(&mut hive), 30); // plain table: stats may answer
    let answered_before = hive
        .server()
        .metrics()
        .snapshot()
        .counter("query.stats_answered", &[])
        .unwrap_or(0);
    assert!(
        answered_before > 0,
        "expected the plain COUNT(*) from stats"
    );
    hive.execute("DELETE FROM t WHERE v < 5").unwrap();
    assert_eq!(count(&mut hive), 25, "stale footer answer after DELETE");
    let answered_after = hive
        .server()
        .metrics()
        .snapshot()
        .counter("query.stats_answered", &[])
        .unwrap_or(0);
    assert_eq!(
        answered_before, answered_after,
        "ACID COUNT(*) must not come from footers"
    );
}

/// Observability: ACID scans report delta/masked rows and the pinned
/// generation in EXPLAIN ANALYZE; scans of plain tables render
/// byte-identically to the pre-ACID output — even while other tables in
/// the same server carry deltas.
#[test]
fn explain_analyze_acid_lines_are_gated_on_acid_state() {
    let mut hive = acid_session();
    // Bypass the block cache so repeated runs render identical profiles
    // (cache hit counters would otherwise differ run to run).
    hive.set(keys::IO_CACHE_BYTES, "0");
    hive.execute("CREATE TABLE plain (k BIGINT, v BIGINT) STORED AS orc")
        .unwrap();
    hive.load_rows(
        "plain",
        (0..20).map(|i| Row::new(vec![Value::Int(i % 4), Value::Int(i)])),
    )
    .unwrap();
    let plain_sql = "EXPLAIN ANALYZE SELECT k, COUNT(*) FROM plain GROUP BY k";
    let before = hive.execute(plain_sql).unwrap().explain.unwrap();
    assert!(
        !before.contains("acid"),
        "plain scan mentions acid:\n{before}"
    );

    hive.execute("INSERT INTO t VALUES (100, 1), (101, 2)")
        .unwrap();
    hive.execute("DELETE FROM t WHERE k = 0").unwrap();
    let acid = hive
        .execute("EXPLAIN ANALYZE SELECT k, COUNT(*) FROM t GROUP BY k")
        .unwrap()
        .explain
        .unwrap();
    assert!(
        acid.contains("acid: snapshot_gen=2 delta_files=1"),
        "missing snapshot line:\n{acid}"
    );
    assert!(
        acid.contains("delta_rows=2") && acid.contains("rows_masked=5"),
        "missing merge-on-read stats:\n{acid}"
    );

    // The plain table's rendering is untouched by ACID activity elsewhere.
    let after = hive.execute(plain_sql).unwrap().explain.unwrap();
    assert_eq!(before, after, "plain EXPLAIN ANALYZE drifted");

    // Major compaction leaves a base-only, delete-free snapshot: no more
    // merge-on-read, so the acid lines disappear again.
    hive.execute("ALTER TABLE t COMPACT 'major'").unwrap();
    let compacted = hive
        .execute("EXPLAIN ANALYZE SELECT k, COUNT(*) FROM t GROUP BY k")
        .unwrap()
        .explain
        .unwrap();
    assert!(
        !compacted.contains("acid"),
        "compacted table still renders acid lines:\n{compacted}"
    );
}

/// The vectorized-ACID guarantee: merge-on-read chains are batch-native
/// end to end — the runtime profile shows Vector* operators even while the
/// scan is merging live deltas and masking deletes. Turning
/// `hive.vectorized.execution.enabled` off must run the row-at-a-time merge
/// path (no vectorized operators — the chain simply is not built) and
/// return byte-identical rows.
#[test]
fn acid_chains_vectorize_with_zero_row_bridges() {
    let mut hive = acid_session();
    hive.execute("CREATE TABLE dim (k BIGINT, name STRING) STORED AS orc")
        .unwrap();
    hive.load_rows(
        "dim",
        (0..6).map(|i| Row::new(vec![Value::Int(i), Value::String(format!("k-{i}"))])),
    )
    .unwrap();
    // Live deltas AND live deletes: the scan must merge on read.
    hive.execute("INSERT INTO t VALUES (2, 1000), (3, 2000)")
        .unwrap();
    hive.execute("DELETE FROM t WHERE v < 4").unwrap();

    let queries = [
        // filter → group-by
        "SELECT k, COUNT(*) AS n, SUM(v) AS s FROM t WHERE k >= 1 GROUP BY k",
        // filter → map-join → group-by
        "SELECT dim.name, COUNT(*) AS n FROM t JOIN dim ON (t.k = dim.k) \
         WHERE t.v >= 2 GROUP BY dim.name",
    ];
    for sql in queries {
        let vec_rows = sorted(hive.execute(sql).unwrap().rows);
        let profile = hive
            .execute(&format!("EXPLAIN ANALYZE {sql}"))
            .unwrap()
            .explain
            .unwrap();
        assert!(
            profile.contains("Vector"),
            "ACID chain did not vectorize for {sql}:\n{profile}"
        );
        assert!(
            profile.contains("acid: snapshot_gen="),
            "merge-on-read lines missing for {sql}:\n{profile}"
        );

        hive.set(keys::VECTORIZED_ENABLED, "false");
        let row_rows = sorted(hive.execute(sql).unwrap().rows);
        let row_profile = hive
            .execute(&format!("EXPLAIN ANALYZE {sql}"))
            .unwrap()
            .explain
            .unwrap();
        assert!(
            !row_profile.contains("Vector"),
            "vectorization off must run pure row mode for {sql}:\n{row_profile}"
        );
        assert!(
            row_profile.contains("acid: snapshot_gen="),
            "row-mode merge lost its acid lines for {sql}:\n{row_profile}"
        );
        hive.set(keys::VECTORIZED_ENABLED, "true");

        assert_eq!(vec_rows, row_rows, "modes disagree for {sql}");
    }
}

/// A q6-shaped statement — a conjunction over a dictionary string and two
/// doubles, an aggregate over a column the filter never reads — on a table
/// with live deltas and deletes. The batch scan fills the first conjunct's
/// column, unselects the deleted ordinals, and materializes the rest for the
/// rows each conjunct keeps; it must return what the row-mode merge returns,
/// with the same merge accounting.
#[test]
fn q6_shaped_scan_over_deltas_and_deletes_matches_row_mode() {
    const SQL: &str = "SELECT SUM(price * discount) AS revenue, COUNT(*) AS n FROM lines \
         WHERE shipdate >= '1994-01-01' AND shipdate < '1995-01-01' \
         AND discount BETWEEN 0.05 AND 0.07 AND quantity < 24";
    let mut hive = HiveSession::builder()
        .knob(hive_common::config::knobs::EXEC_SIM_DETERMINISTIC_CPU, true)
        .build()
        .unwrap();
    hive.set(keys::ORC_ROW_INDEX_STRIDE, "500");
    hive.execute(
        "CREATE TABLE lines (id BIGINT, quantity DOUBLE, price DOUBLE, discount DOUBLE, \
         shipdate STRING) STORED AS orc",
    )
    .unwrap();
    let line = |i: i64| {
        let (year, day) = (1992 + i % 7, 1 + i % 28);
        vec![
            Value::Int(i),
            Value::Double((i % 50) as f64),
            Value::Double(900.0 + (i % 1000) as f64 / 4.0),
            Value::Double((i % 11) as f64 / 100.0),
            Value::String(format!("{year}-{:02}-{day:02}", 1 + i % 12)),
        ]
    };
    hive.load_rows("lines", (0..6000).map(|i| Row::new(line(i))))
        .unwrap();
    for c in 0..3i64 {
        let values: Vec<String> = (0..40)
            .map(|i| {
                let v = line(6000 + c * 40 + i);
                format!("({}, {}, {}, {}, '{}')", v[0], v[1], v[2], v[3], v[4])
            })
            .collect();
        hive.execute(&format!("INSERT INTO lines VALUES {}", values.join(", ")))
            .unwrap();
    }
    hive.execute("UPDATE lines SET discount = 0.06 WHERE id < 300")
        .unwrap();
    hive.execute("DELETE FROM lines WHERE quantity = 7.0")
        .unwrap();

    let vectorized = hive.execute(SQL).unwrap();
    let profile = hive.execute(&format!("EXPLAIN ANALYZE {SQL}")).unwrap();
    let profile = profile.explain.unwrap();
    assert!(profile.contains("VectorFilter["), "{profile}");
    hive.set(keys::VECTORIZED_ENABLED, "false");
    let by_row = hive.execute(SQL).unwrap();
    let merge = |r: &hive_core::QueryResult| {
        let scans = r.report.jobs.iter().map(|j| &j.scan);
        scans.fold((0, 0), |acc, s| {
            (acc.0 + s.delta_rows_read, acc.1 + s.rows_masked)
        })
    };
    let (delta_rows, masked) = merge(&vectorized);
    assert!(delta_rows > 0 && masked > 0, "{delta_rows} / {masked}");
    assert_eq!(merge(&by_row), (delta_rows, masked));
    assert_eq!(vectorized.rows, by_row.rows);
    let Value::Int(n) = vectorized.rows[0][1] else {
        panic!("COUNT(*) is an int");
    };
    assert!(n > 50, "the predicate keeps {n} rows: too few to mean much");
}

/// A map-joined ACID table honours its delete set: the broadcast side is
/// masked by file ordinal like any scan, so `big JOIN small_acid` returns
/// the same rows whether the join converts or shuffles. The side is 1 500
/// rows, read in two batches, and its deletes fall on both sides of the
/// boundary between them (ordinals 1 023 and 1 024).
#[test]
fn map_joined_acid_table_masks_its_deletes() {
    let mut hive = acid_session();
    hive.execute("CREATE TABLE dim (k BIGINT, name STRING) STORED AS orc")
        .unwrap();
    let values: Vec<String> = (0..1500).map(|k| format!("({k}, 'n{k}')")).collect();
    hive.execute(&format!("INSERT INTO dim VALUES {}", values.join(", ")))
        .unwrap();
    hive.execute("DELETE FROM dim WHERE k = 1021 OR k = 1023 OR k = 1024")
        .unwrap();

    // `t.k` is 0..5, so `t.k + 1020` probes ordinals 1 020..1 025.
    let sql = "SELECT t.v, dim.name FROM t JOIN dim ON (t.k + 1020 = dim.k) WHERE t.v < 6";
    let plan = hive.execute(&format!("EXPLAIN {sql}")).unwrap();
    assert!(
        plan.explain.as_deref().unwrap_or("").contains("MapJoin"),
        "join did not convert: {:?}",
        plan.explain
    );
    let map_join = sorted(hive.execute(sql).unwrap().rows);
    hive.set(keys::VECTORIZED_ENABLED, "false");
    let row_map_join = sorted(hive.execute(sql).unwrap().rows);
    hive.set(keys::VECTORIZED_ENABLED, "true");
    hive.set(keys::AUTO_CONVERT_JOIN, "false");
    let reduce_join = sorted(hive.execute(sql).unwrap().rows);

    let live: Vec<Row> = [(0, "n1020"), (2, "n1022"), (5, "n1025")]
        .into_iter()
        .map(|(v, name)| Row::new(vec![Value::Int(v), Value::String(name.into())]))
        .collect();
    assert_eq!(reduce_join, live);
    assert_eq!(map_join, live, "map join resurrected a deleted row");
    assert_eq!(
        row_map_join, live,
        "row-mode map join resurrected a deleted row"
    );
}

#[test]
fn concurrent_inserts_serialize_into_one_manifest_chain() {
    let hive = acid_session();
    let server = hive.server().clone();
    let mut handles = Vec::new();
    for th in 0..4 {
        let srv = server.clone();
        handles.push(std::thread::spawn(move || {
            for i in 0..5 {
                srv.execute(&format!(
                    "INSERT INTO t VALUES ({}, {th})",
                    1000 + th * 10 + i
                ))
                .unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let snap = load_snapshot(server.dfs(), "/warehouse/t/")
        .unwrap()
        .unwrap();
    assert_eq!(snap.version, 20, "every commit bumps the manifest once");
    assert_eq!(snap.last_txn, 20);
    assert_eq!(snap.deltas.len(), 20);
    let r = server.execute("SELECT COUNT(*) FROM t").unwrap();
    assert_eq!(r.rows[0][0], Value::Int(50));
}

/// DML needs the server's transaction manager; a bare driver context must
/// refuse rather than write without a lock.
#[test]
fn dml_without_a_transaction_manager_is_refused() {
    let hive = acid_session();
    let server = hive.server();
    let err = hive_core::driver::run_statement(
        "INSERT INTO t VALUES (1, 1)",
        server.dfs(),
        server.defaults(),
        server.metastore(),
        server.metrics(),
        &StatementCtx::default(),
    )
    .unwrap_err();
    assert!(err.to_string().contains("transaction manager"), "{err}");
}

/// The delta store is format-agnostic: deltas are written in the table's
/// own format, so a text table is just as transactional as an ORC one.
#[test]
fn text_tables_support_the_full_dml_surface() {
    let mut hive = HiveSession::builder().build().unwrap();
    hive.execute("CREATE TABLE t (k BIGINT, v BIGINT) STORED AS textfile")
        .unwrap();
    hive.load_rows(
        "t",
        (0..12).map(|i| Row::new(vec![Value::Int(i % 3), Value::Int(i)])),
    )
    .unwrap();
    hive.execute("INSERT INTO t VALUES (7, 70), (8, 80)")
        .unwrap();
    hive.execute("UPDATE t SET v = 0 WHERE k = 1").unwrap();
    assert_eq!(
        hive.execute("DELETE FROM t WHERE k = 2").unwrap().rows[0][0],
        Value::Int(4)
    );
    assert_eq!(count(&mut hive), 10);
    assert_eq!(
        sorted(hive.execute("SELECT v FROM t WHERE k = 1").unwrap().rows),
        vec![Row::new(vec![Value::Int(0)]); 4]
    );
    hive.execute("ALTER TABLE t COMPACT 'major'").unwrap();
    assert_eq!(count(&mut hive), 10);
}

// ---------------------------------------------------------------------------
// Snapshot pinning: the metastore keeps the last decoded snapshot and
// delete set per table, reusable while the files they came from keep their
// DFS stamps. These tests are that cache's invalidation argument.

/// Result rows of a `SELECT k, v` as sorted `(k, v)` pairs.
fn to_pairs(rows: Vec<Row>) -> Vec<(i64, i64)> {
    let mut out: Vec<(i64, i64)> = rows
        .iter()
        .map(|r| match (&r[0], &r[1]) {
            (Value::Int(k), Value::Int(v)) => (*k, *v),
            other => panic!("unexpected row {other:?}"),
        })
        .collect();
    out.sort_unstable();
    out
}

fn pairs(server: &hive_core::HiveServer) -> Vec<(i64, i64)> {
    to_pairs(server.execute("SELECT k, v FROM t").unwrap().rows)
}

fn base_pairs() -> Vec<(i64, i64)> {
    let mut out: Vec<(i64, i64)> = (0..30).map(|i| (i % 6, i)).collect();
    out.sort_unstable();
    out
}

fn snapshot_counters(server: &hive_core::HiveServer) -> (u64, u64) {
    let s = server.metrics().snapshot();
    let of = |name| s.counter(name, &[("table", "t")]).unwrap_or(0);
    (of("acid.snapshot.loads"), of("acid.snapshot.cache_hits"))
}

/// (a) Every commit and every compaction is visible to the very next
/// statement of *another* session on the same server, whose previous read
/// left the cache warm.
#[test]
fn commits_are_visible_to_the_next_statement_of_another_session() {
    let mut writer = acid_session();
    let server = writer.server().clone();
    let mut reader = server.new_session();
    let mut model = base_pairs();
    let mut read = |want: &[(i64, i64)], after: &str| {
        let got = to_pairs(reader.execute("SELECT k, v FROM t").unwrap().rows);
        assert_eq!(got, want, "other session's read after {after}");
    };
    read(&model, "load");
    for step in 0..12i64 {
        writer
            .execute(&format!("INSERT INTO t VALUES ({}, {step})", 100 + step))
            .unwrap();
        model.push((100 + step, step));
        model.sort_unstable();
        read(&model, "INSERT");
        read(&model, "a second, cache-served read");

        writer
            .execute(&format!("UPDATE t SET v = v + 1000 WHERE k = {}", step % 6))
            .unwrap();
        for p in model.iter_mut().filter(|p| p.0 == step % 6) {
            p.1 += 1000;
        }
        model.sort_unstable();
        read(&model, "UPDATE");

        writer
            .execute(&format!("DELETE FROM t WHERE k = {}", 100 + step - 1))
            .unwrap();
        model.retain(|p| p.0 != 100 + step - 1);
        read(&model, "DELETE");

        if step % 4 == 1 {
            writer.execute("ALTER TABLE t COMPACT 'minor'").unwrap();
            read(&model, "minor compaction");
        }
        if step % 4 == 3 {
            writer.execute("ALTER TABLE t COMPACT 'major'").unwrap();
            read(&model, "major compaction");
        }
    }
}

/// Observability: one load per commit, hits after it — and nothing at all
/// registered for a server that never resolved an ACID table.
#[test]
fn a_select_burst_between_commits_is_one_load_then_hits() {
    let mut hive = acid_session();
    let server = hive.server().clone();
    assert_eq!(count(&mut hive), 30);
    assert!(
        !server
            .metrics()
            .snapshot()
            .counters
            .keys()
            .any(|k| k.render().starts_with("acid.snapshot.")),
        "a plain-table statement registered acid.snapshot.*"
    );

    hive.execute("INSERT INTO t VALUES (100, 1)").unwrap();
    let (loads, hits) = snapshot_counters(&server);
    for _ in 0..10 {
        assert_eq!(count(&mut hive), 31);
    }
    let (loads_after, hits_after) = snapshot_counters(&server);
    assert_eq!(
        (loads_after - loads, hits_after - hits),
        (1, 9),
        "10 SELECTs after one commit"
    );

    // The next commit's own pin is still a hit; the read after it loads.
    hive.execute("DELETE FROM t WHERE k = 100").unwrap();
    assert_eq!(count(&mut hive), 30);
    assert_eq!(count(&mut hive), 30);
    let (loads_end, hits_end) = snapshot_counters(&server);
    assert_eq!((loads_end - loads_after, hits_end - hits_after), (1, 2));
}

/// (b) Tampering with a file the cache was built from moves its DFS
/// generation, so the very next statement behaves exactly as an uncached
/// one: a corrupt manifest is skipped and the older one governs, a corrupt
/// delete file is an error — never the cached copy.
#[test]
fn tampered_files_are_never_served_from_the_cache() {
    let hive = acid_session();
    let server = hive.server().clone();
    let dfs = server.dfs();
    server.execute("DELETE FROM t WHERE k = 0").unwrap();
    let before = pairs(&server);
    server.execute("INSERT INTO t VALUES (100, 1)").unwrap();
    let after = pairs(&server);
    assert_eq!(pairs(&server), after, "warm read");
    let snap = load_snapshot(dfs, "/warehouse/t/").unwrap().unwrap();
    assert_eq!((snap.version, snap.deletes.len()), (2, 1));

    // Manifest 2, cached: flip a byte → manifest 1 governs; flip it back →
    // manifest 2 again.
    let manifest = "/warehouse/t/_manifest_0000000002";
    dfs.corrupt_stored(manifest, 20, 0x40).unwrap();
    assert_eq!(pairs(&server), before, "the older manifest must govern");
    assert_eq!(pairs(&server), before);
    dfs.corrupt_stored(manifest, 20, 0x40).unwrap();
    assert_eq!(pairs(&server), after, "restored manifest must govern again");

    // The delete file, cached: flip a byte → reads and writes fail with the
    // DFS checksum error; flip it back → both work.
    let delete_file = snap.deletes[0].1.as_str();
    dfs.corrupt_stored(delete_file, 16, 0x01).unwrap();
    assert!(server.execute("SELECT k, v FROM t").is_err());
    let err = server.execute("DELETE FROM t WHERE k = 1").unwrap_err();
    assert!(
        matches!(err, hive_common::HiveError::Corrupt(_)),
        "expected the checksum failure, got {err}"
    );
    dfs.corrupt_stored(delete_file, 16, 0x01).unwrap();
    assert_eq!(pairs(&server), after);
    server.execute("DELETE FROM t WHERE k = 1").unwrap();
    assert!(pairs(&server).iter().all(|p| p.0 != 1));
}

/// (c) A load that dies on an injected first-touch read fault stores
/// nothing; the retry reads the file for real and only then is there
/// something to hit.
#[test]
fn a_faulted_load_leaves_no_entry_and_the_retry_succeeds() {
    let hive = acid_session();
    let server = hive.server().clone();
    server.execute("INSERT INTO t VALUES (100, 1)").unwrap();
    let after_insert = pairs(&server);
    server.execute("DELETE FROM t WHERE k = 0").unwrap();
    // The new manifest reaches the block cache (reads served from there
    // are past fault injection); the new delete file has never been read.
    load_snapshot(server.dfs(), "/warehouse/t/")
        .unwrap()
        .unwrap();

    let conf = hive_common::HiveConf::new()
        .with("dfs.fault.read.error.rate", "1.0")
        .with("dfs.fault.seed", "7");
    let faulty = server
        .dfs()
        .for_statement(hive_dfs::FaultPlan::from_conf(&conf).unwrap(), true);
    let metastore = server.metastore();
    let info = metastore.get("t").unwrap();
    let counters = snapshot_counters(&server);

    let err = metastore
        .pin_snapshot(&faulty, &info, Fallback::Older)
        .unwrap_err();
    assert!(matches!(err, hive_common::HiveError::Transient(_)), "{err}");
    assert_eq!(
        snapshot_counters(&server),
        counters,
        "a failure counts as neither"
    );

    // Same handle, second touch: the fault is spent.
    let pinned = metastore
        .pin_snapshot(&faulty, &info, Fallback::Older)
        .unwrap()
        .unwrap();
    assert_eq!(pinned.snapshot.version, 2);
    assert_eq!(pinned.deletes.len(), 5);
    assert_eq!(
        snapshot_counters(&server),
        (counters.0 + 1, counters.1),
        "the retry had to load: the failed attempt stored nothing"
    );
    metastore
        .pin_snapshot(&faulty, &info, Fallback::Older)
        .unwrap()
        .unwrap();
    assert_eq!(snapshot_counters(&server), (counters.0 + 1, counters.1 + 1));
    let want: Vec<(i64, i64)> = after_insert.into_iter().filter(|p| p.0 != 0).collect();
    assert_eq!(pairs(&server), want);
}

/// A transient read fault is not a torn manifest. The newest manifest has
/// never been read when a writer's first touch of it faults: skipping it
/// as if its commit never happened would hand `recover` an older snapshot
/// — or none — and with it every later file to delete as an orphan. The
/// writer must fail `Transient` (or ride the fault out and commit on top);
/// either way the commit it could not read is still there afterwards.
#[test]
fn a_transient_manifest_read_fault_never_rolls_a_writer_back() {
    let hive = acid_session();
    let server = hive.server().clone();
    server.execute("INSERT INTO t VALUES (100, 1)").unwrap();
    let after_insert = pairs(&server);
    // Commit 2; nothing has read its manifest or its delete file yet.
    server.execute("DELETE FROM t WHERE k = 0").unwrap();
    let mut want: Vec<(i64, i64)> = after_insert.into_iter().filter(|p| p.0 != 0).collect();

    let outcome = server.execute_with(
        "INSERT INTO t VALUES (200, 2)",
        &[
            ("dfs.fault.read.error.rate", "1.0"),
            ("dfs.fault.seed", "7"),
        ],
    );
    match outcome {
        Err(e) => assert!(matches!(e, hive_common::HiveError::Transient(_)), "{e}"),
        Ok(_) => {
            want.push((200, 2));
            want.sort_unstable();
        }
    }
    assert_eq!(pairs(&server), want, "the DELETE's commit was rolled back");
    let snap = load_snapshot(server.dfs(), "/warehouse/t/")
        .unwrap()
        .unwrap();
    assert!(
        snap.version >= 2,
        "manifest chain rewound to {}",
        snap.version
    );
    assert_eq!(snap.deletes.len(), 1);
}

/// A writer never builds on a manifest it cannot verify. With the table's
/// only manifest flipped at rest, the next INSERT fails `Corrupt` and
/// deletes nothing, and a reader fails `Corrupt` too instead of taking the
/// directory for a plain pre-ACID table; once the byte is flipped back
/// every row is there and the table takes writes again.
#[test]
fn a_corrupt_newest_manifest_fails_the_writer_and_loses_nothing() {
    let hive = acid_session();
    let server = hive.server().clone();
    let dfs = server.dfs();
    server.execute("INSERT INTO t VALUES (100, 1)").unwrap();
    let want = pairs(&server);
    let files = dfs.list("/warehouse/t/");

    let manifest = "/warehouse/t/_manifest_0000000001";
    dfs.corrupt_stored(manifest, 20, 0x40).unwrap();
    let err = server.execute("INSERT INTO t VALUES (200, 2)").unwrap_err();
    assert!(matches!(err, HiveError::Corrupt(_)), "{err}");
    assert_eq!(
        dfs.list("/warehouse/t/"),
        files,
        "the failed writer deleted files"
    );
    let err = server.execute("SELECT k, v FROM t").unwrap_err();
    assert!(matches!(err, HiveError::Corrupt(_)), "{err}");

    dfs.corrupt_stored(manifest, 20, 0x40).unwrap();
    assert_eq!(pairs(&server), want);
    server.execute("INSERT INTO t VALUES (200, 2)").unwrap();
    assert_eq!(pairs(&server).len(), want.len() + 1);
}

/// (d) Dropping a table evicts its pin, and a same-named table re-created
/// over the same paths (`_manifest_0000000001`, `delete_0000000002`) gets
/// fresh DFS generations anyway: the old snapshot is unreachable twice
/// over.
#[test]
fn a_recreated_table_never_sees_the_dropped_tables_pin() {
    let mut hive = acid_session();
    let server = hive.server().clone();
    hive.execute("INSERT INTO t VALUES (100, 1)").unwrap();
    hive.execute("DELETE FROM t WHERE k < 3").unwrap();
    assert_eq!(pairs(&server).len(), 16);

    assert!(server.metastore().drop_table("t"));
    assert!(server.execute("SELECT k, v FROM t").is_err());
    hive.execute("CREATE TABLE t (k BIGINT, v BIGINT) STORED AS orc")
        .unwrap();
    hive.load_rows(
        "t",
        (0..4).map(|i| Row::new(vec![Value::Int(i), Value::Int(-i)])),
    )
    .unwrap();
    assert_eq!(pairs(&server), vec![(0, 0), (1, -1), (2, -2), (3, -3)]);
    hive.execute("INSERT INTO t VALUES (7, 7)").unwrap();
    assert_eq!(pairs(&server).len(), 5);
    hive.execute("DELETE FROM t WHERE k = 2").unwrap();
    assert_eq!(pairs(&server), vec![(0, 0), (1, -1), (3, -3), (7, 7)]);
}

/// (e) Four readers against one writer for 200 commits: every read is the
/// model at *some* committed version — a stale pin would be an old version
/// (allowed only while it is current), a torn one a hybrid (never).
#[test]
fn concurrent_reads_always_equal_some_committed_version() {
    use std::collections::BTreeSet;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, Barrier, Mutex};

    let hive = acid_session();
    let server = hive.server().clone();
    // Every state the table has ever committed, published *before* the
    // statement that commits it runs (a reader may see it any time after).
    let versions = Arc::new(Mutex::new(BTreeSet::from([base_pairs()])));
    let done = Arc::new(AtomicBool::new(false));
    let start = Arc::new(Barrier::new(5));

    let readers: Vec<_> = (0..4)
        .map(|_| {
            let (server, versions, done, start) = (
                server.clone(),
                Arc::clone(&versions),
                Arc::clone(&done),
                Arc::clone(&start),
            );
            std::thread::spawn(move || {
                start.wait();
                let mut reads = 0u64;
                while !done.load(Ordering::SeqCst) {
                    let got = pairs(&server);
                    assert!(
                        versions.lock().unwrap().contains(&got),
                        "read {reads} matches no committed version: {got:?}"
                    );
                    reads += 1;
                }
                reads
            })
        })
        .collect();

    start.wait();
    let mut model = base_pairs();
    let commit = |sql: String, model: &Vec<(i64, i64)>| {
        versions.lock().unwrap().insert(model.clone());
        server.execute(&sql).unwrap();
    };
    for i in 0..200i64 {
        match i % 5 {
            0..=2 => {
                model.push((1000 + i, i));
                model.sort_unstable();
                commit(format!("INSERT INTO t VALUES ({}, {i})", 1000 + i), &model);
            }
            3 => {
                for p in model.iter_mut().filter(|p| p.0 == 1000 + i - 1) {
                    p.1 += 5000;
                }
                model.sort_unstable();
                commit(
                    format!("UPDATE t SET v = v + 5000 WHERE k = {}", 1000 + i - 1),
                    &model,
                );
            }
            _ => {
                model.retain(|p| p.0 != 1000 + i - 4);
                commit(format!("DELETE FROM t WHERE k = {}", 1000 + i - 4), &model);
            }
        }
        if i % 40 == 39 {
            let mode = if i % 80 == 39 { "minor" } else { "major" };
            commit(format!("ALTER TABLE t COMPACT '{mode}'"), &model);
        }
    }
    done.store(true, Ordering::SeqCst);
    let reads: u64 = readers.into_iter().map(|r| r.join().unwrap()).sum();
    assert!(reads > 0);
    assert_eq!(pairs(&server), model);
    let snap = load_snapshot(server.dfs(), "/warehouse/t/")
        .unwrap()
        .unwrap();
    assert_eq!(snap.version, 205, "200 DML commits + 5 compactions");

    // With the readers gone, the next commit runs whatever clean their
    // leases held off: nothing outside the chain since the last compaction
    // (version 205) remains.
    server.execute("INSERT INTO t VALUES (5000, 0)").unwrap();
    assert_only_the_chain(server.dfs(), "/warehouse/t/", 205);
}

/// `k` of row `i` in [`skipping_table`]: scattered over 0..509, so a key's
/// rows land in a few index groups that min/max statistics cannot isolate.
fn scattered_k(i: i64) -> i64 {
    (i * 7919) % 509
}

/// 4 000 rows `(scattered_k(i), i)` in one file of many small stripes over
/// 4 KB blocks, with a bloom filter on `k` and a replica sorted on `k`.
fn skipping_table(vectorized: bool) -> HiveSession {
    let mut hive = HiveSession::builder()
        .knob(hive_common::config::knobs::EXEC_SIM_DETERMINISTIC_CPU, true)
        .dfs_config(hive_dfs::DfsConfig {
            block_size: 4 << 10,
            replication: 2,
            nodes: 4,
        })
        .build()
        .unwrap();
    hive.set(keys::ORC_STRIPE_SIZE, "4000")
        .set(keys::ORC_ROW_INDEX_STRIDE, "100")
        .set(keys::ORC_BLOOM_FILTER_COLUMNS, "k")
        .set(keys::ORC_REPLICA_SORT_COLUMNS, "k")
        .set(keys::OPT_PPD_STORAGE, "true")
        .set(keys::VECTORIZED_ENABLED, vectorized.to_string());
    hive.execute("CREATE TABLE t (k BIGINT, v BIGINT) STORED AS orc")
        .unwrap();
    let rows = (0..4000).map(|i| Row::new(vec![Value::Int(scattered_k(i)), Value::Int(i)]));
    hive.load_rows("t", rows).unwrap();
    hive
}

/// The keys of the newest delete file of `t`, as written.
fn newest_delete_keys(dfs: &Dfs) -> Vec<(String, u64)> {
    let snap = load_snapshot(dfs, "/warehouse/t/").unwrap().unwrap();
    let (_, path) = snap.deletes.last().expect("a delete file");
    let bytes = dfs.open(path, None).unwrap().read_all().unwrap();
    hive_formats::delta::decode_delete_file(&bytes).unwrap()
}

/// `INPUT__FILE__NAME` and `ROW__ID` are a row's delete key: over a
/// multi-stripe ORC table with a bloom filter on `k` and SARG pruning on,
/// `SELECT INPUT__FILE__NAME, ROW__ID FROM t WHERE k = x` returns exactly
/// the keys `DELETE FROM t WHERE k = x` then writes — with vectorization
/// on or off, with a replica sorted on `k` present, and before and after a
/// major compaction. The keyed scan reads the base copy and still prunes
/// by bloom.
#[test]
fn virtual_columns_are_the_delete_keys() {
    for vectorized in [true, false] {
        let mut hive = skipping_table(vectorized);
        // The sorted replica is there, and serves a plain point lookup.
        let plain = hive.execute("SELECT v FROM t WHERE k = 7").unwrap();
        assert!(!plain.report.jobs[0].replica_choices.is_empty());

        for (step, x) in [7i64, 300, 42].into_iter().enumerate() {
            if step == 2 {
                hive.execute("ALTER TABLE t COMPACT 'major'").unwrap();
            }
            let sql = format!("SELECT INPUT__FILE__NAME, ROW__ID FROM t WHERE k = {x}");
            let found = hive.execute(&sql).unwrap();
            let job = &found.report.jobs[0];
            let when = format!("vectorized={vectorized} step {step}");
            assert!(job.map_tasks >= 2, "{when}: {} split(s)", job.map_tasks);
            assert!(job.replica_choices.is_empty(), "{when}: read a sorted copy");
            assert_eq!(job.scan.batches > 0, vectorized, "{when}: engine");
            assert!(
                job.scan.groups_bloom_pruned > 0,
                "{when}: bloom pruned nothing"
            );
            let keys: Vec<(String, u64)> = found
                .rows
                .iter()
                .map(|r| match (&r[0], &r[1]) {
                    (Value::String(path), Value::Int(ord)) => (path.clone(), *ord as u64),
                    other => panic!("{when}: not a key: {other:?}"),
                })
                .collect();
            if step == 0 {
                // Physical ordinals of the one base file.
                let want: Vec<(String, u64)> = (0..4000)
                    .filter(|&i| scattered_k(i) == x)
                    .map(|i| ("/warehouse/t/part-00000".to_string(), i as u64))
                    .collect();
                assert_eq!(keys, want, "{when}");
                // A predicate on the ordinal alone (every real column
                // deferred in batch mode) finds rows `v = i` by `i`.
                let by_id = hive.execute("SELECT v FROM t WHERE ROW__ID BETWEEN 998 AND 1001");
                let v = |i| Row::new(vec![Value::Int(i)]);
                assert_eq!(by_id.unwrap().rows, (998..=1001).map(v).collect::<Vec<_>>());
            }
            assert!(!keys.is_empty(), "{when}");

            let deleted = hive
                .execute(&format!("DELETE FROM t WHERE k = {x}"))
                .unwrap();
            assert_eq!(deleted.rows[0][0], Value::Int(keys.len() as i64), "{when}");
            assert_eq!(newest_delete_keys(hive.dfs()), keys, "{when}");
            assert!(hive.execute(&sql).unwrap().rows.is_empty(), "{when}");
        }
    }
}

/// UPDATE and DELETE find their rows with an engine job: one map-only job
/// with a map task per split, in the statement's report. At 1 and 4 worker
/// threads they count the same rows and write byte-identical delete files
/// and deltas.
#[test]
fn update_and_delete_run_as_engine_jobs() {
    let run = |threads: u64| {
        let mut hive = HiveSession::builder()
            .knob(hive_common::config::knobs::EXEC_SIM_DETERMINISTIC_CPU, true)
            .knob(hive_common::config::knobs::EXEC_WORKER_THREADS, threads)
            .build()
            .unwrap();
        hive.execute("CREATE TABLE t (k BIGINT, v BIGINT) STORED AS orc")
            .unwrap();
        for file in 0..2i64 {
            let rows =
                (0..500).map(|i| Row::new(vec![Value::Int(i % 7), Value::Int(file * 500 + i)]));
            hive.load_rows("t", rows).unwrap();
        }
        let mut counts = Vec::new();
        for sql in [
            "UPDATE t SET v = v * 2 WHERE k < 3",
            "DELETE FROM t WHERE v % 4 = 0",
        ] {
            let r = hive.execute(sql).unwrap();
            let jobs = &r.report.jobs;
            assert_eq!(jobs.len(), 1, "{sql}");
            assert!(
                jobs[0].map_tasks >= 2,
                "{sql}: {} map task(s)",
                jobs[0].map_tasks
            );
            assert_eq!(jobs[0].reduce_tasks, 0, "{sql}");
            counts.push(r.rows[0][0].clone());
        }
        let dfs = hive.dfs();
        let snap = load_snapshot(dfs, "/warehouse/t/").unwrap().unwrap();
        let written: Vec<Vec<u8>> = (snap.deltas.iter().chain(&snap.deletes))
            .map(|(_, p)| dfs.open(p, None).unwrap().read_all().unwrap())
            .collect();
        assert_eq!(written.len(), 3, "one delta, two delete files");
        (counts, written)
    };
    let model: Vec<(i64, i64)> = (0..1000).map(|v| (v % 500 % 7, v)).collect();
    let updated = model.iter().filter(|(k, _)| *k < 3).count();
    let v_after = |&(k, v): &(i64, i64)| if k < 3 { v * 2 } else { v };
    let deleted = model.iter().map(v_after).filter(|v| v % 4 == 0).count();
    let one = run(1);
    let want = vec![Value::Int(updated as i64), Value::Int(deleted as i64)];
    assert_eq!(one.0, want);
    assert_eq!(one, run(4));
}

/// A verified manifest at the end of its version or transaction counter
/// has no successor: every writer fails `Corrupt` on it, and reads go on.
#[test]
fn a_manifest_at_the_end_of_its_counters_fails_the_next_writer() {
    for at_end in ["version", "txn"] {
        let hive = acid_session();
        let server = hive.server().clone();
        let dfs = server.dfs();
        server.execute("INSERT INTO t VALUES (100, 1)").unwrap();
        let want = pairs(&server);
        let mut snap = load_snapshot(dfs, "/warehouse/t/").unwrap().unwrap();
        match at_end {
            "version" => snap.version = u64::MAX,
            _ => {
                snap.version += 1;
                snap.last_txn = u64::MAX;
            }
        }
        let mut w = dfs.create(&manifest_path("/warehouse/t/", snap.version));
        w.write(&snap.encode());
        w.try_close().unwrap();
        for sql in [
            "INSERT INTO t VALUES (200, 2)",
            "UPDATE t SET v = 0 WHERE k = 1",
            "DELETE FROM t WHERE k = 1",
            "ALTER TABLE t COMPACT 'minor'",
            "ALTER TABLE t COMPACT 'major'",
        ] {
            let err = server.execute(sql).unwrap_err();
            assert!(
                matches!(err, HiveError::Corrupt(_)),
                "{at_end}: {sql}: {err}"
            );
        }
        assert_eq!(pairs(&server), want, "{at_end}");
    }
}
