//! End-to-end SQL tests across the whole stack, including the paper's
//! running example (Figure 4) and every optimization's on/off equivalence:
//! optimized and unoptimized plans must produce identical results.

mod common;

use hive_common::config::keys;
use hive_common::{Row, Value};
use hive_core::HiveSession;

fn session() -> HiveSession {
    let mut hive = HiveSession::with_dfs_config(hive_dfs::DfsConfig {
        block_size: 1 << 20,
        replication: 2,
        nodes: 4,
    });
    // Small tables for joins.
    hive.execute(
        "CREATE TABLE big1 (key BIGINT, skey1 BIGINT, skey2 BIGINT, value1 DOUBLE) STORED AS orc",
    )
    .unwrap();
    hive.execute("CREATE TABLE big2 (key BIGINT, value1 DOUBLE, value2 DOUBLE) STORED AS orc")
        .unwrap();
    hive.execute("CREATE TABLE big3 (key BIGINT, value1 DOUBLE, value2 DOUBLE) STORED AS orc")
        .unwrap();
    hive.execute("CREATE TABLE small1 (key BIGINT, value1 STRING) STORED AS orc")
        .unwrap();
    hive.execute("CREATE TABLE small2 (key BIGINT, value1 STRING) STORED AS orc")
        .unwrap();

    hive.load_rows(
        "big1",
        (0..500).map(|i| {
            Row::new(vec![
                Value::Int(i % 50),
                Value::Int(i % 5),
                Value::Int(i % 7),
                Value::Double(i as f64),
            ])
        }),
    )
    .unwrap();
    for t in ["big2", "big3"] {
        hive.load_rows(
            t,
            (0..400).map(|i| {
                Row::new(vec![
                    Value::Int(i % 50),
                    Value::Double((i * 2) as f64),
                    Value::Double((i * 3) as f64),
                ])
            }),
        )
        .unwrap();
    }
    hive.load_rows(
        "small1",
        (0..5).map(|i| Row::new(vec![Value::Int(i), Value::String(format!("s1-{i}"))])),
    )
    .unwrap();
    hive.load_rows(
        "small2",
        (0..7).map(|i| Row::new(vec![Value::Int(i), Value::String(format!("s2-{i}"))])),
    )
    .unwrap();
    hive
}

fn sorted(mut rows: Vec<Row>) -> Vec<Row> {
    rows.sort_by(|a, b| hive_common::key::cmp(a.values(), b.values()));
    rows
}

/// Run the same query under every combination of optimizer knobs and
/// demand identical results.
fn assert_knob_equivalence(sql: &str) -> Vec<Row> {
    let mut reference: Option<Vec<Row>> = None;
    for mapjoin in ["true", "false"] {
        for corr in ["true", "false"] {
            for merge in ["true", "false"] {
                for vec in ["true", "false"] {
                    let mut hive = session();
                    hive.set(keys::AUTO_CONVERT_JOIN, mapjoin)
                        .set(keys::OPT_CORRELATION, corr)
                        .set(keys::MERGE_MAPONLY_JOBS, merge)
                        .set(keys::VECTORIZED_ENABLED, vec);
                    let r = hive.execute(sql).unwrap_or_else(|e| {
                        panic!("mapjoin={mapjoin} corr={corr} merge={merge} vec={vec}: {e}\n{sql}")
                    });
                    let rows = sorted(r.rows);
                    match &reference {
                        None => reference = Some(rows),
                        Some(exp) => assert_eq!(
                            &rows, exp,
                            "knobs mapjoin={mapjoin} corr={corr} merge={merge} vec={vec} diverged\n{sql}"
                        ),
                    }
                }
            }
        }
    }
    reference.unwrap()
}

#[test]
fn inner_join_reduce_side() {
    let mut hive = session();
    hive.set(keys::AUTO_CONVERT_JOIN, "false");
    let r = hive
        .execute(
            "SELECT big2.key, big2.value1, big3.value2 FROM big2 \
             JOIN big3 ON (big2.key = big3.key) WHERE big2.value1 < 20",
        )
        .unwrap();
    // keys 0..50 each appear 8 times per table; value1 < 20 keeps i ∈
    // {0..9} on big2, each joining 8 big3 rows.
    assert_eq!(r.rows.len(), 80);
}

#[test]
fn map_join_star_matches_reduce_join() {
    let sql = "SELECT big1.key, small1.value1, small2.value1 FROM big1 \
               JOIN small1 ON (big1.skey1 = small1.key) \
               JOIN small2 ON (big1.skey2 = small2.key) \
               WHERE big1.value1 < 100";
    let rows = assert_knob_equivalence(sql);
    assert!(!rows.is_empty());
}

#[test]
fn left_outer_join() {
    let mut hive = session();
    // skey1 ∈ 0..5, small1 keys 0..5 — extend with keys that miss.
    let r = hive
        .execute(
            "SELECT big1.skey2, small2.value1 FROM big1 \
             LEFT JOIN small2 ON (big1.skey2 = small2.key) WHERE big1.value1 < 10",
        )
        .unwrap();
    assert_eq!(r.rows.len(), 10);
    // skey2 = i % 7 for i in 0..10: misses none (small2 has 0..7)... all
    // matched; force a miss via a filtered build side.
    let r2 = hive
        .execute(
            "SELECT big1.key, small1.value1 FROM big1 \
             LEFT JOIN small1 ON (big1.key = small1.key) WHERE big1.value1 < 10",
        )
        .unwrap();
    // big1.key = i % 50 ∈ 0..10, small1 keys 0..5 → half null.
    let nulls = r2.rows.iter().filter(|r| r[1] == Value::Null).count();
    assert_eq!(r2.rows.len(), 10);
    assert_eq!(nulls, 5);
}

#[test]
fn figure_4_running_example() {
    // The paper's Section 5 running example, adapted to this dialect
    // (joins + subquery with aggregation + correlated key usage).
    let sql = "SELECT big1.key, small1.value1, small2.value1, big2.value1, sq1.total \
               FROM big1 \
               JOIN small1 ON (big1.skey1 = small1.key) \
               JOIN small2 ON (big1.skey2 = small2.key) \
               JOIN (SELECT big2.key AS key, avg(big3.value1) AS avg, sum(big3.value2) AS total \
                     FROM big2 JOIN big3 ON (big2.key = big3.key) \
                     GROUP BY big2.key) sq1 ON (big1.key = sq1.key) \
               JOIN big2 ON (sq1.key = big2.key) \
               WHERE big2.value1 > sq1.avg";
    let rows = assert_knob_equivalence(sql);
    assert!(!rows.is_empty(), "running example must produce rows");
}

#[test]
fn join_then_group_by_join_key_correlation() {
    // The q95-style job-flow correlation shape.
    let sql = "SELECT big2.key, COUNT(*) AS n, SUM(big3.value1) AS s \
               FROM big2 JOIN big3 ON (big2.key = big3.key) \
               GROUP BY big2.key";
    let rows = assert_knob_equivalence(sql);
    assert_eq!(rows.len(), 50);
    // Each key appears 8× in each table → 64 joined rows per key.
    assert_eq!(rows[0][1], Value::Int(64));
}

#[test]
fn self_join_input_correlation() {
    let sql = "SELECT a.key, COUNT(*) AS n FROM big2 a JOIN big2 b ON (a.key = b.key) \
               GROUP BY a.key";
    let rows = assert_knob_equivalence(sql);
    assert_eq!(rows.len(), 50);
    assert_eq!(rows[0][1], Value::Int(64));
}

#[test]
fn correlation_reduces_job_count() {
    let sql = "SELECT big2.key, SUM(big3.value1) FROM big2 \
               JOIN big3 ON (big2.key = big3.key) GROUP BY big2.key";
    let mut on = session();
    on.set(keys::OPT_CORRELATION, "true")
        .set(keys::AUTO_CONVERT_JOIN, "false");
    let r_on = on.execute(sql).unwrap();

    let mut off = session();
    off.set(keys::OPT_CORRELATION, "false")
        .set(keys::AUTO_CONVERT_JOIN, "false");
    let r_off = off.execute(sql).unwrap();

    assert_eq!(
        r_on.report.jobs.len() + 1,
        r_off.report.jobs.len(),
        "correlation must remove one MapReduce job"
    );
    assert_eq!(sorted(r_on.rows), sorted(r_off.rows));
}

#[test]
fn merging_map_only_jobs_reduces_job_count() {
    let sql = "SELECT big1.key, small1.value1, small2.value1 FROM big1 \
               JOIN small1 ON (big1.skey1 = small1.key) \
               JOIN small2 ON (big1.skey2 = small2.key)";
    let mut merged = session();
    merged
        .set(keys::MERGE_MAPONLY_JOBS, "true")
        .set(keys::AUTO_CONVERT_JOIN, "true");
    let r_m = merged.execute(sql).unwrap();
    assert_eq!(r_m.report.jobs.len(), 1, "merged: single map-only job");

    let mut unmerged = session();
    unmerged
        .set(keys::MERGE_MAPONLY_JOBS, "false")
        .set(keys::AUTO_CONVERT_JOIN, "true");
    let r_u = unmerged.execute(sql).unwrap();
    assert_eq!(r_u.report.jobs.len(), 3, "unmerged: one job per map join");
    assert_eq!(sorted(r_m.rows), sorted(r_u.rows));
    assert!(
        r_u.report.sim_total_s > r_m.report.sim_total_s,
        "unnecessary Map phases must cost simulated time: {} vs {}",
        r_u.report.sim_total_s,
        r_m.report.sim_total_s
    );
}

#[test]
fn having_and_arithmetic_projections() {
    let mut hive = session();
    let r = hive
        .execute(
            "SELECT key, SUM(value1) + 1 AS s FROM big2 GROUP BY key \
             HAVING COUNT(*) > 0 ORDER BY s DESC LIMIT 3",
        )
        .unwrap();
    assert_eq!(r.rows.len(), 3);
    // Biggest key group sums: key 49 → i ∈ {49, 99, ...}; check descending.
    let s0 = r.rows[0][1].as_double().unwrap();
    let s1 = r.rows[1][1].as_double().unwrap();
    assert!(s0 >= s1);
}

#[test]
fn order_by_limit_and_case() {
    let mut hive = session();
    let r = hive
        .execute(
            "SELECT value1, CASE WHEN value1 < 100 THEN 'small' ELSE 'large' END AS c \
             FROM big2 ORDER BY value1 LIMIT 5",
        )
        .unwrap();
    assert_eq!(r.rows.len(), 5);
    assert_eq!(r.rows[0][1], Value::String("small".into()));
}

#[test]
fn vectorized_and_row_mode_agree_on_aggregation() {
    for vec in ["true", "false"] {
        let mut hive = session();
        hive.set(keys::VECTORIZED_ENABLED, vec);
        let r = hive
            .execute(
                "SELECT skey1, SUM(value1) AS s, AVG(value1) AS a, COUNT(*) AS n \
                 FROM big1 WHERE value1 BETWEEN 10.0 AND 400.0 GROUP BY skey1 ORDER BY skey1",
            )
            .unwrap();
        assert_eq!(r.rows.len(), 5, "vec={vec}");
        let total: i64 = r.rows.iter().map(|x| x[3].as_int().unwrap()).sum();
        assert_eq!(total, 391, "rows 10..=400, vec={vec}");
    }
}

#[test]
fn cbo_join_reordering_preserves_results_and_helps_mapjoins() {
    // Written in a hostile order: the big-big join first, the small joins
    // last. With CBO on, the small tables hoist ahead and become map joins
    // in the first job's map phase instead of post-shuffle jobs.
    let qualified = "SELECT big1.key, COUNT(*) AS n FROM big1 \
                     JOIN big2 ON (big1.key = big2.key) \
                     JOIN small1 ON (big1.skey1 = small1.key) \
                     JOIN small2 ON (big1.skey2 = small2.key) \
                     GROUP BY big1.key ORDER BY big1.key";
    // The same statement with every reference that can go unqualified
    // (`skey1`, `skey2` exist in big1 only) left so: the reorder works on
    // bound references, so the spelling cannot matter.
    let unqualified = "SELECT big1.key, COUNT(*) AS n FROM big1 \
                       JOIN big2 ON (big1.key = big2.key) \
                       JOIN small1 ON (skey1 = small1.key) \
                       JOIN small2 ON (skey2 = small2.key) \
                       GROUP BY big1.key ORDER BY big1.key";
    let run = |sql: &str, cbo: &str| {
        let mut s = session();
        let small_max = s
            .metastore()
            .table_size("small1")
            .max(s.metastore().table_size("small2"));
        s.set(keys::MAPJOIN_SMALLTABLE_SIZE, format!("{}", small_max + 1))
            .set("hive.cbo.enable", cbo);
        s.execute(sql).unwrap()
    };
    let baseline = run(qualified, "false");
    for sql in [qualified, unqualified] {
        let off = run(sql, "false");
        let on = run(sql, "true");
        assert_eq!(off.rows, baseline.rows, "{sql}");
        assert_eq!(on.rows, baseline.rows, "CBO must not change results: {sql}");
        assert!(
            on.report.jobs.len() < off.report.jobs.len(),
            "CBO should shrink the job DAG here: {} vs {} for {sql}",
            on.report.jobs.len(),
            off.report.jobs.len()
        );
    }
}

#[test]
fn modulo_and_case_vectorize_with_row_mode_answers() {
    // `%` and CASE have vector kernels: the stage runs batch-native end to
    // end and answers what the row engine answers.
    let sql = "SELECT value1, CASE WHEN key % 2 = 0 THEN 'even' ELSE 'odd' END AS par \
               FROM big2 WHERE key % 7 = 3 ORDER BY value1 LIMIT 5";
    let mut on = session();
    on.set(keys::VECTORIZED_ENABLED, "true");
    let r_on = on.execute(sql).unwrap();
    let profile = on.execute(&format!("EXPLAIN ANALYZE {sql}")).unwrap();
    let profile = profile.explain.unwrap();
    let map_ops = profile.split("map operators:").nth(1).unwrap();
    let map_ops = map_ops.split("reduce operators:").next().unwrap();
    assert!(
        map_ops
            .lines()
            .skip(1)
            .all(|l| l.trim().starts_with("Vector")),
        "{profile}"
    );
    let mut off = session();
    off.set(keys::VECTORIZED_ENABLED, "false");
    let r_off = off.execute(sql).unwrap();
    assert_eq!(r_on.rows, r_off.rows);
    assert_eq!(r_on.rows.len(), 5);
}

#[test]
fn case_values_take_one_type() {
    // An INT branch beside a DOUBLE one is a DOUBLE in every row, in both
    // engines; a string beside a number is a type error at bind time.
    for vectorize in ["true", "false"] {
        let mut hive = session();
        hive.set(keys::VECTORIZED_ENABLED, vectorize);
        let r = hive
            .execute(
                "SELECT key, CASE WHEN key > 2 THEN key ELSE value1 END AS c FROM big2 \
                 WHERE key < 5 ORDER BY key",
            )
            .unwrap();
        assert!(!r.rows.is_empty());
        for row in &r.rows {
            assert!(matches!(row[1], Value::Double(_)), "{vectorize}: {row:?}");
        }
        let err = hive
            .execute("SELECT CASE WHEN key > 2 THEN key ELSE 'x' END AS c FROM big2")
            .unwrap_err();
        assert!(
            matches!(err, hive_common::HiveError::Semantic(_)),
            "{vectorize}: {err}"
        );
    }
}

#[test]
fn sum_and_avg_take_numbers_in_both_engines() {
    // SUM and AVG over a BOOLEAN, a TIMESTAMP or a STRING are type errors at
    // bind time, vectorized or not; over numbers (and a NULL literal) both
    // engines answer alike.
    for vectorize in ["true", "false"] {
        let mut hive = HiveSession::in_memory();
        hive.set(keys::VECTORIZED_ENABLED, vectorize);
        hive.execute("CREATE TABLE t (k BIGINT, b BOOLEAN, ts TIMESTAMP, s STRING) STORED AS orc")
            .unwrap();
        hive.execute("INSERT INTO t VALUES (1, true, 1000, 'a'), (2, false, 3000, 'b')")
            .unwrap();
        for sql in [
            "SELECT SUM(b) FROM t",
            "SELECT AVG(b) FROM t",
            "SELECT AVG(ts) FROM t",
            "SELECT SUM(s) FROM t",
            "SELECT k, SUM(ts) FROM t GROUP BY k",
        ] {
            let err = hive.execute(sql).unwrap_err();
            assert!(
                matches!(&err, hive_common::HiveError::Semantic(m) if m.contains("type mismatch")),
                "{vectorize}: {sql}: {err}"
            );
        }
        let r = hive
            .execute("SELECT SUM(k), AVG(k), SUM(NULL), AVG(NULL) FROM t")
            .unwrap();
        let want = [Value::Int(3), Value::Double(1.5), Value::Null, Value::Null];
        assert_eq!(r.rows[0].values(), want, "{vectorize}");
    }
}

#[test]
fn avg_is_sum_over_count_in_both_engines() {
    // The binder plans AVG(x) as SUM(x as DOUBLE) / COUNT(x): a BIGINT AVG
    // adds DOUBLEs and never wraps, while SUM of the same values does; an
    // AVG over no row (or only NULLs) is NULL.
    for vectorize in ["true", "false"] {
        let mut hive = HiveSession::in_memory();
        hive.set(keys::VECTORIZED_ENABLED, vectorize);
        hive.execute("CREATE TABLE t (k BIGINT, v BIGINT, d DOUBLE) STORED AS orc")
            .unwrap();
        hive.execute(
            "INSERT INTO t VALUES (1, 9223372036854775807, 1.5), \
             (2, 9223372036854775807, 2.25), (3, NULL, NULL)",
        )
        .unwrap();
        let r = hive
            .execute("SELECT AVG(v), SUM(v), AVG(d), COUNT(v) FROM t")
            .unwrap();
        let printed: Vec<String> = r.rows[0].values().iter().map(Value::to_string).collect();
        assert_eq!(
            printed,
            ["9223372036854776000", "-2", "1.875", "2"],
            "{vectorize}"
        );
        let r = hive.execute("SELECT AVG(v) FROM t WHERE k > 5").unwrap();
        assert_eq!(r.rows[0].values(), [Value::Null], "{vectorize}");
        let r = hive
            .execute("SELECT k, AVG(d) FROM t GROUP BY k ORDER BY k")
            .unwrap();
        let avgs: Vec<&Value> = r.rows.iter().map(|row| &row[1]).collect();
        let want = [Value::Double(1.5), Value::Double(2.25), Value::Null];
        assert_eq!(avgs, want.iter().collect::<Vec<_>>(), "{vectorize}");
    }
}

/// `t(k, v, d, b)` over `(1,10,1.5,true)`, `(2,0,0.0,false)` and a row of
/// NULLs, in the engine `vectorize` names.
fn typing_session(vectorize: &str) -> HiveSession {
    let mut hive = HiveSession::in_memory();
    hive.set(keys::VECTORIZED_ENABLED, vectorize);
    hive.execute("CREATE TABLE t (k BIGINT, v BIGINT, d DOUBLE, b BOOLEAN) STORED AS orc")
        .unwrap();
    hive.execute(
        "INSERT INTO t VALUES (1, 10, 1.5, true), (2, 0, 0.0, false), (3, NULL, NULL, NULL)",
    )
    .unwrap();
    hive
}

fn assert_type_mismatch(hive: &mut HiveSession, sql: &str, vectorize: &str) {
    let err = hive.execute(sql).unwrap_err();
    assert!(
        matches!(&err, hive_common::HiveError::Semantic(m) if m.contains("type mismatch")),
        "{vectorize}: {sql}: {err}"
    );
}

#[test]
fn not_and_or_and_filters_take_booleans_in_both_engines() {
    // A non-boolean operand of NOT / AND / OR, or a non-boolean WHERE,
    // HAVING or ON predicate, is rejected at bind time, so no engine
    // decides it per row.
    for vectorize in ["true", "false"] {
        let mut hive = typing_session(vectorize);
        for sql in [
            "SELECT k FROM t WHERE NOT v",
            "SELECT k, b OR d FROM t",
            "SELECT k FROM t WHERE b AND v",
            "SELECT k FROM t WHERE v",
            "SELECT k FROM t WHERE 1",
            "SELECT k, COUNT(*) FROM t GROUP BY k HAVING SUM(v)",
            "SELECT t.k FROM t JOIN t u ON (t.k = u.k AND u.d)",
        ] {
            assert_type_mismatch(&mut hive, sql, vectorize);
        }
        // BOOLEAN and the NULL literal are predicates.
        let keys = |hive: &mut HiveSession, sql: &str| {
            let rows = hive.execute(sql).unwrap().rows;
            rows.iter().map(|r| r[0].clone()).collect::<Vec<_>>()
        };
        assert_eq!(keys(&mut hive, "SELECT k FROM t WHERE b"), [Value::Int(1)]);
        assert_eq!(keys(&mut hive, "SELECT k FROM t WHERE NOT NULL"), []);
        assert_eq!(
            keys(&mut hive, "SELECT k FROM t WHERE NULL OR k > 2"),
            [Value::Int(3)]
        );
    }
}

#[test]
fn casts_that_cannot_succeed_are_bind_errors() {
    // A CAST that fails for every non-NULL value of its source type is
    // rejected at bind time, even where no row would reach it.
    for vectorize in ["true", "false"] {
        let mut hive = typing_session(vectorize);
        for sql in [
            "SELECT k, CAST(d AS BOOLEAN) FROM t WHERE d = 0.0",
            "SELECT k, CAST(d AS BOOLEAN) FROM t WHERE k > 100",
            "SELECT CAST('true' AS BOOLEAN) FROM t",
            "SELECT CAST(d AS TIMESTAMP) FROM t",
            "SELECT CAST(b AS TIMESTAMP) FROM t",
            "SELECT CAST(CAST(k AS TIMESTAMP) AS DOUBLE) FROM t",
        ] {
            assert_type_mismatch(&mut hive, sql, vectorize);
        }
        let r = hive
            .execute(
                "SELECT CAST(v AS BOOLEAN), CAST(b AS DOUBLE), CAST(k AS TIMESTAMP), \
                 CAST(NULL AS BOOLEAN) FROM t WHERE k = 1",
            )
            .unwrap();
        let want = [
            Value::Boolean(true),
            Value::Double(1.0),
            Value::Timestamp(1),
            Value::Null,
        ];
        assert_eq!(r.rows[0].values(), want, "{vectorize}");
    }
}

#[test]
fn in_list_and_null_semantics() {
    let mut hive = session();
    let r = hive
        .execute("SELECT COUNT(*) FROM big1 WHERE skey1 IN (1, 3) AND value1 IS NOT NULL")
        .unwrap();
    // skey1 = i % 5 → 2 of 5 values → 200 of 500 rows.
    assert_eq!(r.rows[0][0], Value::Int(200));
}

#[test]
fn aggregates_over_outer_join_nulls() {
    // COUNT(col) skips the NULLs produced by the outer join's unmatched
    // side; COUNT(*) does not.
    let mut hive = session();
    let r = hive
        .execute(
            "SELECT COUNT(small1.value1) AS matched, COUNT(*) AS total FROM big1 \
             LEFT JOIN small1 ON (big1.key = small1.key)",
        )
        .unwrap();
    // big1.key = i % 50; small1 keys 0..5 → 10% of 500 rows match.
    assert_eq!(r.rows[0].values(), &[Value::Int(50), Value::Int(500)]);
}

#[test]
fn subquery_feeding_aggregation() {
    let mut hive = session();
    let r = hive
        .execute(
            "SELECT AVG(t.s) AS a FROM \
             (SELECT key AS k, SUM(value1) AS s FROM big2 GROUP BY key) t",
        )
        .unwrap();
    // SUM over all of big2.value1 / 50 groups.
    let total: f64 = (0..400).map(|i| (i * 2) as f64).sum();
    assert!((r.rows[0][0].as_double().unwrap() - total / 50.0).abs() < 1e-6);
}

#[test]
fn repeated_queries_reuse_session_state() {
    // Back-to-back queries (temp paths, query counter) must not collide.
    let mut hive = session();
    for _ in 0..3 {
        let r = hive
            .execute("SELECT big2.key, COUNT(*) FROM big2 JOIN big3 ON (big2.key = big3.key) GROUP BY big2.key")
            .unwrap();
        assert_eq!(r.rows.len(), 50);
    }
}

/// The parallel task runtime must be invisible to results: any worker
/// count, with or without DAG-level job parallelism, produces the same
/// rows in the same order, the same I/O counters, and (with deterministic
/// CPU accounting) bit-identical per-job simulated times.
#[test]
fn parallel_runtime_is_deterministic() {
    let sql = "SELECT big1.skey1, COUNT(*), SUM(big2.value1) FROM big1 \
               JOIN big2 ON (big1.key = big2.key) GROUP BY big1.skey1";
    let run = |threads: &str, parallel: &str| {
        let mut hive = session();
        hive.set(keys::EXEC_WORKER_THREADS, threads)
            .set(keys::EXEC_PARALLEL, parallel)
            .set(keys::EXEC_SIM_DETERMINISTIC_CPU, "true")
            .set(keys::AUTO_CONVERT_JOIN, "false"); // multi-job plan
        hive.execute(sql).unwrap()
    };

    let baseline = run("1", "false");
    assert!(baseline.report.jobs.len() > 1, "want a multi-job DAG");
    for (threads, parallel) in [("8", "false"), ("1", "true"), ("8", "true")] {
        let r = run(threads, parallel);
        // Exact order, not just content: task results merge by task index.
        assert_eq!(
            r.rows, baseline.rows,
            "threads={threads} parallel={parallel} changed the result"
        );
        assert_eq!(r.report.jobs.len(), baseline.report.jobs.len());
        for (job, base) in r.report.jobs.iter().zip(&baseline.report.jobs) {
            let ctx = format!("threads={threads} parallel={parallel} job={}", job.name);
            assert_eq!(job.map_tasks, base.map_tasks, "{ctx}");
            assert_eq!(job.reduce_tasks, base.reduce_tasks, "{ctx}");
            assert_eq!(job.bytes_read, base.bytes_read, "{ctx}");
            assert_eq!(job.bytes_shuffled, base.bytes_shuffled, "{ctx}");
            assert_eq!(job.bytes_written, base.bytes_written, "{ctx}");
            assert_eq!(job.shuffle_records, base.shuffle_records, "{ctx}");
            assert_eq!(job.sim_map_s.to_bits(), base.sim_map_s.to_bits(), "{ctx}");
            assert_eq!(
                job.sim_reduce_s.to_bits(),
                base.sim_reduce_s.to_bits(),
                "{ctx}"
            );
            assert_eq!(
                job.sim_total_s.to_bits(),
                base.sim_total_s.to_bits(),
                "{ctx}"
            );
            assert_eq!(
                job.cpu_seconds.to_bits(),
                base.cpu_seconds.to_bits(),
                "{ctx}"
            );
        }
    }
    // Same worker count, DAG parallelism off: the whole-DAG simulated time
    // is also bit-identical run to run.
    let again = run("1", "false");
    assert_eq!(
        again.report.sim_total_s.to_bits(),
        baseline.report.sim_total_s.to_bits()
    );
}

/// `hive.exec.parallel` runs independent jobs of one query concurrently;
/// its simulated elapsed time can only improve, never the results.
#[test]
fn exec_parallel_never_slows_the_simulated_dag() {
    let sql = "SELECT big2.key, SUM(big2.value1), SUM(big3.value2) FROM big2 \
               JOIN big3 ON (big2.key = big3.key) GROUP BY big2.key";
    let run = |parallel: &str| {
        let mut hive = session();
        hive.set(keys::EXEC_PARALLEL, parallel)
            .set(keys::EXEC_SIM_DETERMINISTIC_CPU, "true")
            .set(keys::AUTO_CONVERT_JOIN, "false");
        hive.execute(sql).unwrap()
    };
    let seq = run("false");
    let par = run("true");
    assert_eq!(sorted(par.rows), sorted(seq.rows));
    assert!(
        par.report.sim_total_s <= seq.report.sim_total_s + 1e-9,
        "parallel {} vs sequential {}",
        par.report.sim_total_s,
        seq.report.sim_total_s
    );
}

// ------------------------------------------------------- fault tolerance --

/// With injected transient read errors and the default retry budget, every
/// query returns rows bit-identical to the fault-free run — the only
/// visible difference is time spent on failed attempts.
#[test]
fn fault_injection_with_retries_is_invisible() {
    let sql = "SELECT big2.key, SUM(big2.value1), SUM(big3.value2) FROM big2 \
               JOIN big3 ON (big2.key = big3.key) GROUP BY big2.key";
    let mut clean = session();
    clean.set(keys::AUTO_CONVERT_JOIN, "false");
    let baseline = clean.execute(sql).unwrap();
    assert_eq!(baseline.report.task_retries, 0);

    // A 5% rate over the few dozen distinct read locations of one query
    // only sometimes draws a fault, so run a handful of fixed seeds: every
    // run must be bit-identical, and at least one must have retried.
    let mut total_retries = 0;
    for seed in 1..=8 {
        let mut hive = session();
        hive.set(keys::AUTO_CONVERT_JOIN, "false")
            .set(keys::DFS_FAULT_READ_ERROR_RATE, "0.05")
            .set(keys::DFS_FAULT_SEED, seed.to_string())
            .set(keys::MAP_MAX_ATTEMPTS, "12")
            .set(keys::REDUCE_MAX_ATTEMPTS, "12");
        let faulted = hive.execute(sql).unwrap();
        assert_eq!(
            faulted.rows, baseline.rows,
            "injected faults changed query results (seed {seed})"
        );
        total_retries += faulted.report.task_retries;
    }
    assert!(
        total_retries > 0,
        "a 5% error rate across eight seeds must trip at least one retry"
    );
}

/// With retries disabled, injected faults surface as ordinary `Err`s from
/// `execute` — never a panic or process abort.
#[test]
fn faults_without_retries_surface_as_errors_not_panics() {
    let mut hive = session();
    hive.set(keys::DFS_FAULT_READ_ERROR_RATE, "0.9")
        .set(keys::DFS_FAULT_SEED, "5")
        .set(keys::MAP_MAX_ATTEMPTS, "1")
        .set(keys::REDUCE_MAX_ATTEMPTS, "1");
    let err = hive
        .execute("SELECT key, SUM(value1) AS s FROM big2 GROUP BY key")
        .expect_err("90% read-error rate with a single attempt must fail");
    assert!(
        matches!(err, hive_common::HiveError::Transient(_)),
        "expected the injected transient error, got {err:?}"
    );
}

/// End to end corrupt-data degradation: an at-rest corrupted chunk of a
/// column the query reads (stale checksums, so retries cannot heal it)
/// fails a strict scan but degrades to a partial result with
/// `hive.exec.orc.skip.corrupt.data`.
#[test]
fn skip_corrupt_data_degrades_query_instead_of_failing() {
    const NROWS: i64 = 8000;
    let build = || {
        let mut hive = HiveSession::with_dfs_config(hive_dfs::DfsConfig {
            block_size: 4 << 10,
            replication: 2,
            nodes: 4,
        });
        // Small stripes so one corrupt checksum chunk costs part of one
        // stripe's rows, not the whole table.
        hive.set(keys::ORC_STRIPE_SIZE, "16384")
            .set(keys::ORC_ROW_INDEX_STRIDE, "100");
        hive.execute("CREATE TABLE t (k BIGINT, v BIGINT, s STRING) STORED AS orc")
            .unwrap();
        // Unique strings defeat dictionary encoding, keeping the file well
        // past the 16 KB tail that `open` reads: the corrupt mid-file chunk
        // must not overlap the postscript/footer read.
        hive.load_rows(
            "t",
            (0..NROWS).map(|i| {
                Row::new(vec![
                    Value::Int(i % 17),
                    Value::Int(i),
                    Value::String(format!("unique-row-padding-{i:024}")),
                ])
            }),
        )
        .unwrap();
        let part = hive.dfs().list("/warehouse/t/")[0].clone();
        let len = hive.dfs().len(&part).unwrap();
        assert!(len > 64 << 10, "fixture file too small ({len} bytes)");
        let at = common::mid_stripe_data_byte(hive.dfs(), &part, "v");
        hive.dfs().corrupt_stored(&part, at, 0x5a).unwrap();
        hive
    };
    let sql = "SELECT k, v FROM t WHERE v >= 0";

    let mut strict = build();
    let err = strict
        .execute(sql)
        .expect_err("stale-checksum chunk must fail the strict scan");
    assert!(err.is_data_corruption(), "got {err:?}");

    let mut hive = build();
    hive.set(keys::ORC_SKIP_CORRUPT, "true");
    let r = hive.execute(sql).unwrap();
    assert!(r.report.rows_skipped > 0, "no rows reported skipped");
    assert!(!r.rows.is_empty(), "degraded scan lost every row");
    assert_eq!(
        r.rows.len() as u64 + r.report.rows_skipped,
        NROWS as u64,
        "surviving + skipped rows must account for the whole table"
    );
    // Every surviving row is intact.
    for row in &r.rows {
        let v = row[1].as_int().unwrap();
        assert_eq!(row[0], Value::Int(v % 17));
    }
}

#[test]
fn multiway_outer_join_on_one_key_answers_as_a_chain() {
    // Consecutive LEFT JOINs on the same key are a left-deep chain of
    // binary joins (one reduce phase with correlation on): every big1 row
    // once, each small table's value where its key exists.
    let rows = assert_knob_equivalence(
        "SELECT big1.key, small1.value1, small2.value1 FROM big1 \
         LEFT JOIN small1 ON (big1.key = small1.key) \
         LEFT JOIN small2 ON (big1.key = small2.key)",
    );
    assert_eq!(rows.len(), 500);
    for row in &rows {
        let key = row[0].as_int().unwrap();
        let value = |prefix: &str, keys: i64| match key < keys {
            true => Value::String(format!("{prefix}-{key}")),
            false => Value::Null,
        };
        assert_eq!(row[1], value("s1", 5), "{row:?}");
        assert_eq!(row[2], value("s2", 7), "{row:?}");
    }
}

#[test]
fn multiway_outer_join_different_keys_stays_left_deep() {
    // LEFT JOINs on *different* keys must not merge; the left-deep chain
    // of binary joins keeps working.
    let mut hive = session();
    let r = hive
        .execute(
            "SELECT big1.key, small1.value1, small2.value1 FROM big1 \
             LEFT JOIN small1 ON (big1.skey1 = small1.key) \
             LEFT JOIN small2 ON (big1.skey2 = small2.key) \
             WHERE big1.value1 < 10",
        )
        .unwrap();
    assert_eq!(r.rows.len(), 10);
}

#[test]
fn non_vectorizable_join_shapes_fall_back_to_row_mode() {
    // A RIGHT OUTER map-join shape is outside the vectorized map-join's
    // (inner + left-outer) support: with vectorization on the join must
    // silently run in row mode and match the all-row-mode answer.
    let sql = "SELECT small1.key, small1.value1, big1.value1 FROM small1 \
               RIGHT JOIN big1 ON (small1.key = big1.key) WHERE big1.value1 < 20";
    let mut on = session();
    let r_on = on.execute(sql).unwrap();
    let analyze = on.execute(&format!("EXPLAIN ANALYZE {sql}")).unwrap();
    let text = analyze.explain.expect("EXPLAIN ANALYZE sets explain text");
    assert!(
        !text.contains("VectorMapJoin"),
        "right-outer join must not vectorize:\n{text}"
    );
    let mut off = session();
    off.set(keys::VECTORIZED_ENABLED, "false");
    let r_off = off.execute(sql).unwrap();
    assert_eq!(sorted(r_on.rows), sorted(r_off.rows));
}
