//! ACID chaos suite: kill the writer and the compactor at every registered
//! crash point, lose rename acks, tear writes, and randomize write-path
//! fault plans — then prove the snapshot contract holds: a reader sees the
//! OLD snapshot or the NEW snapshot, never a hybrid, and a restarted
//! writer recovers to a clean, writable table.
//!
//! The crash-point registry makes every interleaving deterministic:
//! `hive.txn.crash.point=<name>` turns exactly one protocol step into a
//! process death (`HiveError::Crashed`, non-retryable), so "kill -9
//! anywhere" becomes an enumerable test matrix instead of a race.

mod common;

use hive_common::config::keys;
use hive_common::{HiveError, Row, Value};
use hive_core::{HiveServer, HiveSession, COMPACTOR_CRASH_POINTS, WRITER_CRASH_POINTS};
use hive_formats::delta::{load_snapshot, manifest_path};
use proptest::prelude::*;
use std::collections::BTreeSet;

fn sorted(mut rows: Vec<Row>) -> Vec<Row> {
    rows.sort_by(|a, b| hive_common::key::cmp(a.values(), b.values()));
    rows
}

/// One ORC table `t(k, v)` with 40 base rows and one committed delta, so
/// crashes land on a table that already has a manifest chain.
fn seeded() -> HiveSession {
    let mut hive = HiveSession::builder()
        .knob(hive_common::config::knobs::EXEC_SIM_DETERMINISTIC_CPU, true)
        .build()
        .unwrap();
    hive.execute("CREATE TABLE t (k BIGINT, v BIGINT) STORED AS orc")
        .unwrap();
    hive.load_rows(
        "t",
        (0..40).map(|i| Row::new(vec![Value::Int(i % 8), Value::Int(i)])),
    )
    .unwrap();
    hive.execute("INSERT INTO t VALUES (500, 500), (501, 501)")
        .unwrap();
    hive
}

/// `seeded()` plus more history: several deltas and a delete file that
/// masks rows in BOTH the base and a delta — so minor compaction exercises
/// its fold-and-carry-base-keys branches, not just the happy path.
fn seeded_with_history() -> HiveSession {
    let mut hive = seeded();
    hive.execute("INSERT INTO t VALUES (502, 502)").unwrap();
    hive.execute("INSERT INTO t VALUES (2, 900)").unwrap();
    hive.execute("INSERT INTO t VALUES (503, 503)").unwrap();
    hive.execute("DELETE FROM t WHERE k = 2").unwrap();
    hive
}

/// After a restart, `t`'s directory is exactly the current snapshot's files
/// plus the manifests from version `since` (the last compaction's, or 1):
/// no orphan of the crash, nothing an interrupted clean left behind.
fn assert_only_the_chain(server: &HiveServer, since: u64, when: &str) {
    let location = "/warehouse/t/";
    let snap = load_snapshot(server.dfs(), location).unwrap().unwrap();
    let mut want: BTreeSet<String> = snap.scan_paths().into_iter().collect();
    want.extend(snap.deletes.iter().map(|(_, p)| p.clone()));
    want.extend((since..=snap.version).map(|v| manifest_path(location, v)));
    let got: BTreeSet<String> = server.dfs().list(location).into_iter().collect();
    assert_eq!(got, want, "{when}: files beside the chain");
}

/// Every chaos read runs BOTH execution modes — the default batch-native
/// merge and the row-at-a-time path (`hive.vectorized.execution.
/// enabled=false`) — and they must agree before either counts as "the
/// visible snapshot". This folds the vectorized reader into every
/// crash-point assertion below: at any writer/compactor death, vectorized
/// reads see exactly the old or the new snapshot, never a hybrid.
fn select_all(hive: &HiveSession) -> Vec<Row> {
    let vec_rows = sorted(hive.server().execute("SELECT k, v FROM t").unwrap().rows);
    let row_rows = sorted(
        hive.server()
            .execute_with("SELECT k, v FROM t", &[(keys::VECTORIZED_ENABLED, "false")])
            .unwrap()
            .rows,
    );
    assert_eq!(
        vec_rows, row_rows,
        "vectorized and row-mode ACID reads disagree on the visible snapshot"
    );
    vec_rows
}

/// The three DML shapes, each with the rows they are expected to leave
/// behind once committed (computed per run from a twin session).
const OPS: [&str; 3] = [
    "INSERT INTO t VALUES (900, 1), (901, 2)",
    "UPDATE t SET v = v + 1000 WHERE k = 3",
    "DELETE FROM t WHERE k = 5",
];

/// Satellite 3, writer half: for every DML shape × every writer crash
/// point, the visible table is the old snapshot or the new one — decided
/// entirely by whether the manifest rename (the commit point) happened.
/// After a "restart" (recovery runs on the next statement), the scratch
/// area is empty and the op can be completed exactly once.
#[test]
fn kill_at_every_writer_crash_point_yields_old_or_new_snapshot() {
    for op in OPS {
        // What committing `op` on the seeded history produces.
        let new = {
            let hive = seeded_with_history();
            hive.server().execute(op).unwrap();
            select_all(&hive)
        };
        for &point in WRITER_CRASH_POINTS {
            let hive = seeded_with_history();
            let server = hive.server().clone();
            let old = select_all(&hive);
            assert_ne!(old, new, "op must change the table: {op}");

            let committed = match server.execute_with(op, &[("hive.txn.crash.point", point)]) {
                // Crash point not on this op's path: the statement commits.
                Ok(_) => true,
                Err(e) => {
                    assert!(
                        matches!(e, HiveError::Crashed(_)),
                        "{op} at {point}: expected a crash, got {e}"
                    );
                    // The commit point is the manifest rename; only a crash
                    // AFTER it may expose the new snapshot.
                    point == "writer.after.manifest.rename"
                }
            };
            let visible = select_all(&hive);
            let want = if committed { &new } else { &old };
            assert_eq!(
                &visible, want,
                "{op} killed at {point}: visible rows are neither old nor new snapshot"
            );

            // "Restart": any later statement runs recovery first. If the op
            // never committed, re-running it must land exactly once; if it
            // did, a no-op DML still sweeps the scratch space.
            if committed {
                server.execute("DELETE FROM t WHERE k < 0").unwrap();
            } else {
                server.execute(op).unwrap();
            }
            assert_eq!(select_all(&hive), new, "{op} after restart at {point}");
            assert!(
                server.dfs().list("/tmp/txn/").is_empty(),
                "{op} at {point}: recovery left scratch files"
            );
            assert_only_the_chain(&server, 1, &format!("{op} after restart at {point}"));
        }
    }
}

/// Satellite 3, compactor half: compaction is content-neutral, so killing
/// it at ANY point — before or after its own commit, or while it cleans —
/// must leave the visible rows untouched. A clean retry then finishes the
/// job, its own clean included.
#[test]
fn kill_anywhere_during_compaction_is_never_visible() {
    for mode in ["minor", "major"] {
        let sql = format!("ALTER TABLE t COMPACT '{mode}'");
        for &point in COMPACTOR_CRASH_POINTS {
            let hive = seeded_with_history();
            let server = hive.server().clone();
            let old = select_all(&hive);

            match server.execute_with(&sql, &[("hive.txn.crash.point", point)]) {
                Ok(_) => {}
                Err(e) => assert!(matches!(e, HiveError::Crashed(_)), "{mode} at {point}: {e}"),
            }
            assert_eq!(
                select_all(&hive),
                old,
                "{mode} compaction killed at {point} changed visible rows"
            );

            // Retry clean: must complete and still be invisible to readers.
            server.execute(&sql).unwrap();
            assert_eq!(select_all(&hive), old, "clean {mode} retry after {point}");
            assert!(
                server.dfs().list("/tmp/txn/").is_empty(),
                "{mode} at {point}: recovery left scratch files"
            );
            let snap = load_snapshot(server.dfs(), "/warehouse/t/")
                .unwrap()
                .unwrap();
            let when = format!("{mode} retried after {point}");
            assert_only_the_chain(&server, snap.version, &when);
            if mode == "major" {
                assert_eq!(snap.base.len(), 1, "{point}");
                assert!(snap.deltas.is_empty() && snap.deletes.is_empty(), "{point}");
            }
        }
    }
}

/// The two matrices above start every cell on a fresh server, so the
/// metastore's snapshot pins are always cold. This runs both on ONE
/// long-lived server, twice back to back: every crash lands on a table
/// whose pin is warm from the statements before it, and the second pass
/// starts on the cache the first one left. A twin server that executes
/// exactly the statements that committed is the old-or-new reference.
#[test]
fn crash_matrices_hold_twice_over_on_one_warm_server() {
    let crashy = seeded_with_history();
    let twin = seeded_with_history();
    let (server, reference) = (crashy.server().clone(), twin.server().clone());
    let in_step = |when: &str| {
        let visible = select_all(&crashy);
        assert_eq!(
            visible,
            select_all(&twin),
            "{when}: visible rows are neither old nor new snapshot"
        );
        assert_eq!(select_all(&crashy), visible, "{when}: cache-served re-read");
    };
    // The last compaction's version: the oldest manifest a restart keeps.
    let mut since = 1;
    for pass in 0..2 {
        for (idx, &point) in WRITER_CRASH_POINTS.iter().enumerate() {
            // Fresh keys per cell, so every op changes the table.
            let k = 900 + pass * WRITER_CRASH_POINTS.len() + idx;
            for op in [
                format!("INSERT INTO t VALUES ({k}, 1), ({k}, 2)"),
                "UPDATE t SET v = v + 1000 WHERE k = 3".to_string(),
                format!("DELETE FROM t WHERE k = {k}"),
            ] {
                let when = format!("pass {pass}: {op} killed at {point}");
                let committed = match server.execute_with(&op, &[("hive.txn.crash.point", point)]) {
                    Ok(_) => true,
                    Err(e) => {
                        assert!(matches!(e, HiveError::Crashed(_)), "{when}: {e}");
                        point == "writer.after.manifest.rename"
                    }
                };
                if committed {
                    reference.execute(&op).unwrap();
                }
                in_step(&when);
                // "Restart": the retry (or any later statement) recovers.
                if committed {
                    server.execute("DELETE FROM t WHERE k < 0").unwrap();
                } else {
                    server.execute(&op).unwrap();
                    reference.execute(&op).unwrap();
                }
                in_step(&format!("{when}, after restart"));
                assert!(server.dfs().list("/tmp/txn/").is_empty(), "{when}");
                assert_only_the_chain(&server, since, &when);
            }
        }
        for mode in ["minor", "major"] {
            let sql = format!("ALTER TABLE t COMPACT '{mode}'");
            for &point in COMPACTOR_CRASH_POINTS {
                let when = format!("pass {pass}: {mode} compaction killed at {point}");
                // Something to fold, so no cell is the nothing-to-do path.
                for srv in [&server, &reference] {
                    srv.execute("INSERT INTO t VALUES (2, 901)").unwrap();
                    srv.execute("DELETE FROM t WHERE k = 2").unwrap();
                }
                match server.execute_with(&sql, &[("hive.txn.crash.point", point)]) {
                    Ok(_) => {}
                    Err(e) => assert!(matches!(e, HiveError::Crashed(_)), "{when}: {e}"),
                }
                in_step(&when);
                server.execute(&sql).unwrap();
                in_step(&format!("{when}, after a clean retry"));
                assert!(server.dfs().list("/tmp/txn/").is_empty(), "{when}");
                since = load_snapshot(server.dfs(), "/warehouse/t/")
                    .unwrap()
                    .unwrap()
                    .version;
                assert_only_the_chain(&server, since, &when);
            }
        }
    }
}

/// A lost rename acknowledgement (the rename happened, the reply didn't)
/// must not abort the commit, and must never double-apply it.
#[test]
fn lost_rename_acks_still_commit_exactly_once() {
    let hive = seeded();
    let server = hive.server().clone();
    let before = select_all(&hive);
    server
        .execute_with(
            "INSERT INTO t VALUES (600, 1), (601, 2)",
            &[
                (keys::DFS_FAULT_RENAME_ACK_LOST_RATE, "1.0"),
                (keys::DFS_FAULT_SEED, "7"),
            ],
        )
        .unwrap();
    let after = select_all(&hive);
    assert_eq!(after.len(), before.len() + 2);
    let landed: Vec<&Row> = after
        .iter()
        .filter(|r| r[0] == Value::Int(600) || r[0] == Value::Int(601))
        .collect();
    assert_eq!(landed.len(), 2, "ack-lost commit duplicated or lost rows");
}

/// A rename that genuinely fails aborts the statement pre-commit; retrying
/// on a clean connection lands the rows exactly once (not zero, not twice).
#[test]
fn failed_then_retried_commit_lands_exactly_once() {
    let hive = seeded();
    let server = hive.server().clone();
    let before = select_all(&hive);
    let err = server
        .execute_with(
            "INSERT INTO t VALUES (600, 1), (601, 2)",
            &[
                (keys::DFS_FAULT_RENAME_ERROR_RATE, "1.0"),
                (keys::DFS_FAULT_SEED, "7"),
            ],
        )
        .unwrap_err();
    assert!(!matches!(err, HiveError::Crashed(_)), "{err}");
    assert_eq!(select_all(&hive), before, "failed commit left rows behind");

    server
        .execute("INSERT INTO t VALUES (600, 1), (601, 2)")
        .unwrap();
    assert_eq!(
        select_all(&hive).len(),
        before.len() + 2,
        "retry must land once"
    );
}

/// Torn (truncated) writes are caught by the verify barrier before the
/// commit point: the statement fails, the old snapshot stays intact, and
/// the table remains writable.
#[test]
fn torn_writes_never_become_visible() {
    for seed in [1u64, 17, 4242] {
        let hive = seeded();
        let server = hive.server().clone();
        let before = select_all(&hive);
        let res = server.execute_with(
            "INSERT INTO t VALUES (700, 7)",
            &[
                (keys::DFS_FAULT_WRITE_TORN_RATE, "1.0"),
                (keys::DFS_FAULT_SEED, &seed.to_string()),
            ],
        );
        assert!(res.is_err(), "seed={seed}: torn write passed the barrier");
        assert_eq!(select_all(&hive), before, "seed={seed}: torn data visible");
        server.execute("INSERT INTO t VALUES (700, 7)").unwrap();
        assert_eq!(select_all(&hive).len(), before.len() + 1, "seed={seed}");
    }
}

// Randomized write-path chaos: under any mix of write errors, torn
// writes, rename errors and lost acks, every statement either commits its
// rows exactly or leaves the table untouched — the visible state always
// equals the model, and the table always stays writable afterwards.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn write_faults_yield_old_or_new_snapshot_never_hybrid(
        seed in 0u64..=1_000_000,
        write_err in (0u32..=40).prop_map(|x| x as f64 / 100.0),
        torn in (0u32..=40).prop_map(|x| x as f64 / 100.0),
        rename_err in (0u32..=40).prop_map(|x| x as f64 / 100.0),
        ack_lost in (0u32..=40).prop_map(|x| x as f64 / 100.0),
    ) {
        let hive = seeded();
        let server = hive.server().clone();
        let mut model = select_all(&hive);
        for i in 0..6i64 {
            let k = 800 + i;
            let res = server.execute_with(
                &format!("INSERT INTO t VALUES ({k}, {i})"),
                &[
                    (keys::DFS_FAULT_SEED, &(seed + i as u64).to_string()),
                    (keys::DFS_FAULT_WRITE_ERROR_RATE, &write_err.to_string()),
                    (keys::DFS_FAULT_WRITE_TORN_RATE, &torn.to_string()),
                    (keys::DFS_FAULT_RENAME_ERROR_RATE, &rename_err.to_string()),
                    (keys::DFS_FAULT_RENAME_ACK_LOST_RATE, &ack_lost.to_string()),
                ],
            );
            if res.is_ok() {
                model.push(Row::new(vec![Value::Int(k), Value::Int(i)]));
                model = sorted(model);
            }
            prop_assert_eq!(
                &select_all(&hive), &model,
                "seed={} rates=({},{},{},{}) stmt={}: visible state is neither \
                 pre- nor post-statement snapshot",
                seed, write_err, torn, rename_err, ack_lost, i
            );
        }
        // Whatever the faults did, a clean writer must still get through.
        server.execute("INSERT INTO t VALUES (999, 999)").unwrap();
        model.push(Row::new(vec![Value::Int(999), Value::Int(999)]));
        prop_assert_eq!(&select_all(&hive), &sorted(model), "table left unwritable");
    }
}

/// A session whose ORC files are many small stripes (100-row index
/// stride) over 4 KB DFS blocks, so one corrupt checksum chunk costs index
/// groups mid-file, not the table, and ordinals span many groups — and the
/// table `c(k, v, s)` with `v` = the row's position in the base file.
/// Unique strings defeat dictionary encoding so the file is large and a
/// corrupt mid-file chunk misses the footer tail.
fn many_stripe_table(nrows: i64) -> HiveSession {
    let mut hive = HiveSession::with_dfs_config(hive_dfs::DfsConfig {
        block_size: 4 << 10,
        replication: 2,
        nodes: 4,
    });
    hive.set(keys::ORC_STRIPE_SIZE, "16384")
        .set(keys::ORC_ROW_INDEX_STRIDE, "100");
    hive.execute("CREATE TABLE c (k BIGINT, v BIGINT, s STRING) STORED AS orc")
        .unwrap();
    hive.load_rows(
        "c",
        (0..nrows).map(|i| {
            Row::new(vec![
                Value::Int(i % 17),
                Value::Int(i),
                Value::String(format!("unique-row-padding-{i:024}")),
            ])
        }),
    )
    .unwrap();
    hive
}

/// Salvage × delete-mask interaction: when `hive.exec.orc.skip.corrupt.
/// data` drops corrupt index groups from a base file that live delete
/// masks address, the masked ordinals must stay aligned — every stripe and
/// group advances the ordinal clock whether it was read, pruned, or
/// salvaged away, so surviving rows keep their true file ordinals. An
/// off-by-one after the corrupt region would resurrect deleted rows (or
/// silently drop survivors), in either execution mode.
#[test]
fn salvaged_corrupt_stripes_keep_delete_masks_aligned() {
    const NROWS: i64 = 8000;
    let mut hive = many_stripe_table(NROWS);
    // Mask every 17th row — deletes spread across every stripe.
    hive.execute("DELETE FROM c WHERE k = 5").unwrap();
    // Corrupt the base file at rest AFTER the delete committed.
    let snap = load_snapshot(hive.dfs(), "/warehouse/c/").unwrap().unwrap();
    let base = snap.base[0].clone();
    let len = hive.dfs().len(&base).unwrap();
    assert!(len > 64 << 10, "fixture file too small ({len} bytes)");
    let at = common::mid_stripe_data_byte(hive.dfs(), &base, "v");
    hive.dfs().corrupt_stored(&base, at, 0x5a).unwrap();

    let server = hive.server().clone();
    let read = |knobs: &[(&str, &str)]| {
        let mut knobs = knobs.to_vec();
        knobs.push((keys::ORC_SKIP_CORRUPT, "true"));
        let r = server.execute_with("SELECT k, v FROM c", &knobs).unwrap();
        assert!(
            r.report.rows_skipped > 0,
            "corruption cost no rows — fixture no longer covers salvage"
        );
        sorted(r.rows)
    };
    let vec_rows = read(&[]);
    let row_rows = read(&[(keys::VECTORIZED_ENABLED, "false")]);
    assert_eq!(vec_rows, row_rows, "salvage + masks diverge across modes");
    assert!(!vec_rows.is_empty(), "salvage lost every row");
    for row in &vec_rows {
        let v = row[1].as_int().unwrap();
        assert_eq!(
            row[0],
            Value::Int(v % 17),
            "surviving row has corrupt values"
        );
        assert_ne!(
            row[0],
            Value::Int(5),
            "deleted row resurrected after salvage — delete mask misaligned"
        );
    }
}

/// `SELECT k, v FROM c` under corrupt-data salvage, in both execution
/// modes (which must agree), as sorted `(k, v)` pairs.
fn salvaged_pairs(hive: &HiveSession) -> Vec<(i64, i64)> {
    let read = |vectorized: &str| {
        let r = hive
            .server()
            .execute_with(
                "SELECT k, v FROM c",
                &[
                    (keys::ORC_SKIP_CORRUPT, "true"),
                    (keys::VECTORIZED_ENABLED, vectorized),
                ],
            )
            .unwrap();
        let mut pairs: Vec<(i64, i64)> = r
            .rows
            .iter()
            .map(|row| (row[0].as_int().unwrap(), row[1].as_int().unwrap()))
            .collect();
        pairs.sort_unstable_by_key(|p| (p.1, p.0));
        pairs
    };
    let vec_pairs = read("true");
    assert_eq!(vec_pairs, read("false"), "modes disagree under salvage");
    vec_pairs
}

/// Salvage × DML: a DELETE or UPDATE that runs with `hive.exec.orc.skip.
/// corrupt.data=true` over a base file with a salvaged stripe must record
/// each matching row's *true* file ordinal. Counting the rows the reader
/// happened to return instead shifts every key after the corrupt region
/// by the salvaged row count, and the statement masks rows it never
/// matched.
#[test]
fn dml_after_a_salvaged_stripe_masks_exactly_the_rows_it_matched() {
    const NROWS: i64 = 8000;
    let hive = many_stripe_table(NROWS);
    // First commit: a snapshot exists, so the base keeps its identity.
    hive.server().execute("DELETE FROM c WHERE v = 0").unwrap();
    let snap = load_snapshot(hive.dfs(), "/warehouse/c/").unwrap().unwrap();
    let base = snap.base[0].clone();
    let at = common::mid_stripe_data_byte(hive.dfs(), &base, "v");
    hive.dfs().corrupt_stored(&base, at, 0x5a).unwrap();

    let salvage = [(keys::ORC_SKIP_CORRUPT, "true")];
    let mut model = salvaged_pairs(&hive);
    let lost: Vec<i64> = (1..NROWS)
        .filter(|v| model.binary_search_by_key(v, |p| p.1).is_err())
        .collect();
    assert!(
        !lost.is_empty(),
        "corruption cost no rows — fixture no longer covers salvage"
    );
    let after = *lost.last().unwrap();
    assert!(
        after < NROWS - 1500,
        "salvaged region reaches the end of the file; nothing lies after it"
    );

    // DELETE rows that all sit after the salvaged stripe.
    let deleted = hive
        .server()
        .execute_with(
            &format!("DELETE FROM c WHERE v > {after} AND k = 5"),
            &salvage,
        )
        .unwrap();
    let gone = model.iter().filter(|p| p.1 > after && p.0 == 5).count();
    assert!(gone > 50);
    assert_eq!(deleted.rows[0][0], Value::Int(gone as i64));
    model.retain(|p| !(p.1 > after && p.0 == 5));
    assert_eq!(
        salvaged_pairs(&hive),
        model,
        "DELETE masked rows it did not match"
    );

    // UPDATE more of them: the old versions must be the ones masked.
    hive.server()
        .execute_with(
            &format!("UPDATE c SET k = 99 WHERE v > {after} AND k = 3"),
            &salvage,
        )
        .unwrap();
    for p in model.iter_mut().filter(|p| p.1 > after && p.0 == 3) {
        p.0 = 99;
    }
    assert_eq!(
        salvaged_pairs(&hive),
        model,
        "UPDATE masked rows it did not match"
    );

    // A major compaction under salvage rewrites exactly what was visible.
    hive.server()
        .execute_with("ALTER TABLE c COMPACT 'major'", &salvage)
        .unwrap();
    assert_eq!(
        salvaged_pairs(&hive),
        model,
        "major compaction changed the table"
    );
}

/// The same contract for minor compaction: folding a delta that has a
/// salvaged stripe must apply the delete keys addressing it by true
/// ordinal, so the merged delta holds exactly the rows a reader saw.
#[test]
fn minor_compaction_over_a_salvaged_delta_keeps_its_delete_keys_aligned() {
    const BASE: i64 = 200;
    const DELTA: i64 = 4000;
    let mut hive = many_stripe_table(BASE);
    // One big multi-stripe delta (written under the session's small-stripe
    // knobs), then delete keys spread across it.
    let tuples: Vec<String> = (BASE..BASE + DELTA)
        .map(|i| format!("({}, {i}, 'unique-row-padding-{i:024}')", i % 17))
        .collect();
    hive.execute(&format!("INSERT INTO c VALUES {}", tuples.join(", ")))
        .unwrap();
    hive.server().execute("DELETE FROM c WHERE k = 5").unwrap();
    let snap = load_snapshot(hive.dfs(), "/warehouse/c/").unwrap().unwrap();
    let delta = snap.deltas[0].1.clone();
    let len = hive.dfs().len(&delta).unwrap();
    assert!(len > 64 << 10, "fixture delta too small ({len} bytes)");
    let at = common::mid_stripe_data_byte(hive.dfs(), &delta, "v");
    hive.dfs().corrupt_stored(&delta, at, 0x5a).unwrap();

    let model = salvaged_pairs(&hive);
    let lost = (BASE..BASE + DELTA)
        .filter(|v| v % 17 != 5 && model.binary_search_by_key(v, |p| p.1).is_err())
        .count();
    assert!(
        lost > 0,
        "corruption cost no rows — fixture no longer covers salvage"
    );
    assert!(model.iter().all(|p| p.0 != 5));

    hive.server()
        .execute_with(
            "ALTER TABLE c COMPACT 'minor'",
            &[(keys::ORC_SKIP_CORRUPT, "true")],
        )
        .unwrap();
    let snap = load_snapshot(hive.dfs(), "/warehouse/c/").unwrap().unwrap();
    assert_eq!(snap.deltas.len(), 1);
    assert_ne!(snap.deltas[0].1, delta, "the delta was not folded");
    // The merged delta is clean: salvage has nothing left to drop, and
    // every row a reader saw before the fold is still there — no more.
    assert_eq!(
        salvaged_pairs(&hive),
        model,
        "minor compaction misapplied delete keys"
    );
}

/// Satellite 2 at the server level: a statement's write-fault plan rides
/// on its scoped DFS view. A thread whose INSERTs always fail must not
/// make a concurrent clean writer fail or lose rows.
#[test]
fn write_fault_confs_stay_statement_scoped() {
    let hive = seeded();
    let server = hive.server().clone();
    let faulty = {
        let srv = server.clone();
        std::thread::spawn(move || {
            for i in 0..10i64 {
                let res = srv.execute_with(
                    &format!("INSERT INTO t VALUES ({}, 0)", 600 + i),
                    &[
                        (keys::DFS_FAULT_WRITE_ERROR_RATE, "1.0"),
                        (keys::DFS_FAULT_SEED, &(i as u64).to_string()),
                    ],
                );
                assert!(res.is_err(), "statement {i} should have hit its fault");
            }
        })
    };
    let clean = {
        let srv = server.clone();
        std::thread::spawn(move || {
            for i in 0..10i64 {
                srv.execute(&format!("INSERT INTO t VALUES ({}, 0)", 700 + i))
                    .unwrap();
            }
        })
    };
    faulty.join().unwrap();
    clean.join().unwrap();

    let rows = select_all(&hive);
    let count = |lo: i64, hi: i64| {
        rows.iter()
            .filter(|r| matches!(r[0], Value::Int(k) if k >= lo && k < hi))
            .count()
    };
    assert_eq!(count(600, 700), 0, "a faulted statement leaked rows");
    assert_eq!(
        count(700, 800),
        10,
        "the fault plan leaked onto clean writers"
    );
}
