//! Whole-stack integration tests on the paper's actual workloads at tiny
//! scale: the benchmark queries must return exactly what an independent
//! in-memory computation over the generated rows returns, under both
//! engines and every storage format.

use hive::common::config::keys;
use hive::common::{Row, Value};
use hive::HiveSession;
use std::collections::BTreeMap;

fn tpch_session(fmt: &str) -> (HiveSession, Vec<Row>) {
    let mut s = HiveSession::with_dfs_config(hive::dfs::DfsConfig {
        block_size: 1 << 20,
        replication: 2,
        nodes: 4,
    });
    let format = hive::formats::FormatKind::parse(fmt).unwrap();
    s.create_table("lineitem", hive::datagen::tpch::lineitem_schema(), format)
        .unwrap();
    let rows: Vec<Row> = hive::datagen::tpch::lineitem_rows(0.002, 7).collect();
    s.load_rows("lineitem", rows.clone()).unwrap();
    (s, rows)
}

/// TPC-H q6 computed independently over the raw rows.
fn q6_expected(rows: &[Row]) -> f64 {
    rows.iter()
        .filter(|r| {
            let shipdate = r[10].as_str().unwrap();
            let discount = r[6].as_double().unwrap();
            let quantity = r[4].as_double().unwrap();
            ("1994-01-01".."1995-01-01").contains(&shipdate)
                && (0.05..=0.07).contains(&discount)
                && quantity < 24.0
        })
        .map(|r| r[5].as_double().unwrap() * r[6].as_double().unwrap())
        .sum()
}

const Q6: &str = "SELECT SUM(l_extendedprice * l_discount) AS revenue FROM lineitem \
                  WHERE l_shipdate >= '1994-01-01' AND l_shipdate < '1995-01-01' \
                  AND l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24";

#[test]
fn tpch_q6_exact_across_formats_and_engines() {
    for fmt in ["textfile", "sequencefile", "rcfile", "orc"] {
        for vectorized in ["true", "false"] {
            let (mut s, rows) = tpch_session(fmt);
            s.set(keys::VECTORIZED_ENABLED, vectorized);
            let r = s.execute(Q6).unwrap();
            let got = r.rows[0][0].as_double().unwrap();
            let expect = q6_expected(&rows);
            assert!(
                (got - expect).abs() < 1e-6,
                "fmt={fmt} vec={vectorized}: {got} vs {expect}"
            );
        }
    }
}

#[test]
fn tpch_q1_exact() {
    let (mut s, rows) = tpch_session("orc");
    let r = s
        .execute(
            "SELECT l_returnflag, l_linestatus, SUM(l_quantity) AS q, COUNT(*) AS n, \
                    AVG(l_discount) AS d \
             FROM lineitem WHERE l_shipdate <= '1998-09-02' \
             GROUP BY l_returnflag, l_linestatus ORDER BY l_returnflag, l_linestatus",
        )
        .unwrap();

    // Independent computation.
    let mut groups: BTreeMap<(String, String), (f64, i64, f64)> = BTreeMap::new();
    for row in &rows {
        if row[10].as_str().unwrap() > "1998-09-02" {
            continue;
        }
        let key = (
            row[8].as_str().unwrap().to_string(),
            row[9].as_str().unwrap().to_string(),
        );
        let e = groups.entry(key).or_insert((0.0, 0, 0.0));
        e.0 += row[4].as_double().unwrap();
        e.1 += 1;
        e.2 += row[6].as_double().unwrap();
    }
    assert_eq!(r.rows.len(), groups.len());
    for (got, (key, (q, n, dsum))) in r.rows.iter().zip(groups.iter()) {
        assert_eq!(got[0].as_str().unwrap(), key.0);
        assert_eq!(got[1].as_str().unwrap(), key.1);
        assert!((got[2].as_double().unwrap() - q).abs() < 1e-6);
        assert_eq!(got[3], Value::Int(*n));
        assert!((got[4].as_double().unwrap() - dsum / *n as f64).abs() < 1e-9);
    }
}

#[test]
fn ssdb_query1_counts_match_geometry() {
    let mut s = HiveSession::in_memory();
    hive::datagen::ssdb::load(&mut s, 2, 500, 3).unwrap();
    // step 500 → 30 points per axis per image.
    for (name, var, per_axis_sel) in [
        ("easy", 3750, 8i64),
        ("medium", 7500, 16),
        ("hard", 15_000, 30),
    ] {
        let r = s.execute(&hive::datagen::ssdb::query1(var)).unwrap();
        let expect = 2 * per_axis_sel * per_axis_sel;
        assert_eq!(r.rows[0][1], Value::Int(expect), "{name}");
    }
}

#[test]
fn tpcds_q27_and_q95_consistent_across_all_knobs() {
    let sqls = [
        (
            "q27",
            "SELECT i_item_id, s_state, AVG(ss_quantity) AS a1 \
             FROM store_sales \
             JOIN customer_demographics ON (ss_cdemo_sk = cd_demo_sk) \
             JOIN date_dim ON (ss_sold_date_sk = d_date_sk) \
             JOIN store ON (ss_store_sk = s_store_sk) \
             JOIN item ON (ss_item_sk = i_item_sk) \
             WHERE cd_gender = 'M' AND cd_marital_status = 'S' \
               AND cd_education_status = 'College' AND d_year = 1995 \
               AND s_state IN ('TN', 'SD') \
             GROUP BY i_item_id, s_state ORDER BY i_item_id, s_state LIMIT 50",
        ),
        (
            "q95",
            "SELECT ws1.ws_order_number, COUNT(*) AS n \
             FROM web_sales ws1 \
             JOIN date_dim ON (ws1.ws_ship_date_sk = d_date_sk) \
             JOIN web_sales ws2 ON (ws1.ws_order_number = ws2.ws_order_number) \
             JOIN web_returns ON (ws1.ws_order_number = wr_order_number) \
             WHERE d_date BETWEEN '1995-01-01' AND '1995-12-31' \
               AND ws1.ws_warehouse_sk <> ws2.ws_warehouse_sk \
             GROUP BY ws1.ws_order_number ORDER BY ws1.ws_order_number LIMIT 50",
        ),
    ];
    for (name, sql) in sqls {
        let mut reference: Option<Vec<Row>> = None;
        for (mapjoin, corr, merge) in [
            ("true", "true", "true"),
            ("true", "false", "false"),
            ("false", "true", "true"),
            ("false", "false", "false"),
        ] {
            let mut s = HiveSession::with_dfs_config(hive::dfs::DfsConfig {
                block_size: 1 << 20,
                replication: 2,
                nodes: 4,
            });
            hive::datagen::tpcds::load(&mut s, 0.003, 11).unwrap();
            s.set(keys::AUTO_CONVERT_JOIN, mapjoin)
                .set(keys::OPT_CORRELATION, corr)
                .set(keys::MERGE_MAPONLY_JOBS, merge)
                .set(keys::MAPJOIN_SMALLTABLE_SIZE, "60000");
            let r = s.execute(sql).unwrap_or_else(|e| {
                panic!("{name} mapjoin={mapjoin} corr={corr} merge={merge}: {e}")
            });
            match &reference {
                None => {
                    assert!(!r.rows.is_empty(), "{name} must return rows");
                    reference = Some(r.rows);
                }
                Some(exp) => assert_eq!(
                    &r.rows, exp,
                    "{name} diverged under mapjoin={mapjoin} corr={corr} merge={merge}"
                ),
            }
        }
    }
}

#[test]
fn table2_shape_holds_at_tiny_scale() {
    // The headline Table 2 relationships, checked programmatically.
    let sizes = |fmt: &str, comp: &str, tpch: bool| -> u64 {
        let mut s = HiveSession::in_memory();
        s.set(keys::ORC_COMPRESS, comp);
        let format = hive::formats::FormatKind::parse(fmt).unwrap();
        if tpch {
            s.create_table("lineitem", hive::datagen::tpch::lineitem_schema(), format)
                .unwrap();
            s.load_rows("lineitem", hive::datagen::tpch::lineitem_rows(0.002, 7))
                .unwrap();
            s.metastore().table_size("lineitem")
        } else {
            s.create_table("cycle", hive::datagen::ssdb::cycle_schema(), format)
                .unwrap();
            s.load_rows("cycle", hive::datagen::ssdb::cycle_rows(2, 300, 7))
                .unwrap();
            s.metastore().table_size("cycle")
        }
    };
    for tpch in [false, true] {
        let text = sizes("textfile", "none", tpch);
        let rc = sizes("rcfile", "none", tpch);
        let rc_snappy = sizes("rcfile", "snappy", tpch);
        let orc = sizes("orc", "none", tpch);
        let orc_snappy = sizes("orc", "snappy", tpch);
        assert!(rc < text, "RCFile beats text (tpch={tpch})");
        assert!(orc < rc, "ORC beats RCFile (tpch={tpch})");
        assert!(orc_snappy < orc, "Snappy shrinks ORC (tpch={tpch})");
        assert!(rc_snappy < rc, "Snappy shrinks RCFile (tpch={tpch})");
        if !tpch {
            // The SS-DB headline: type-aware ORC beats even RCFile+Snappy.
            assert!(
                orc < rc_snappy,
                "ORC (uncompressed) beats RCFile+Snappy on SS-DB"
            );
        }
    }
}

#[test]
fn unnecessary_map_phase_elimination_shape() {
    // Fig. 11(a)'s structure at test scale: merged plan = 1 job, unmerged
    // plan = 1 + one map-only job per map join; merged is faster.
    let build = |merge: &str| {
        let mut s = HiveSession::with_dfs_config(hive::dfs::DfsConfig {
            block_size: 1 << 20,
            replication: 2,
            nodes: 4,
        });
        hive::datagen::tpcds::load(&mut s, 0.003, 11).unwrap();
        s.set(keys::MERGE_MAPONLY_JOBS, merge)
            .set(keys::MAPJOIN_SMALLTABLE_SIZE, "60000");
        s
    };
    let sql = "SELECT s_state, COUNT(*) AS n FROM store_sales \
               JOIN store ON (ss_store_sk = s_store_sk) \
               JOIN date_dim ON (ss_sold_date_sk = d_date_sk) \
               WHERE d_year = 1995 GROUP BY s_state ORDER BY s_state";
    let merged = build("true").execute(sql).unwrap();
    let unmerged = build("false").execute(sql).unwrap();
    assert_eq!(merged.report.jobs.len(), 1);
    assert_eq!(unmerged.report.jobs.len(), 3);
    assert_eq!(merged.rows, unmerged.rows);
    assert!(merged.report.sim_total_s < unmerged.report.sim_total_s);
}

/// The key rule (`hive_common::key`) end to end: NaN is one group and one
/// sort position (last), `0.0` keeps its own group, and an INT key joins a
/// DOUBLE key — with identical rows whichever engine runs the map side and
/// whichever join strategy the planner picks.
#[test]
fn key_rule_holds_across_engines_and_join_strategies() {
    // 300 rows in three files: 92 NaN scattered among 4 `0.0` and the 50
    // values 1.0..=50.0.
    let nan2 = -f64::from_bits(f64::NAN.to_bits() | 1);
    let mut values = (1..=50).cycle().map(f64::from);
    let d: Vec<f64> = (0..300)
        .map(|i| match i {
            10 | 110 | 200 | 290 => 0.0,
            _ if i % 3 == 0 && i < 276 => [f64::NAN, nan2][i % 2],
            _ => values.next().unwrap(),
        })
        .collect();
    assert_eq!(d.iter().filter(|x| x.is_nan()).count(), 92);

    let mut answers = Vec::new();
    for (vectorized, map_join) in [(true, true), (true, false), (false, true), (false, false)] {
        let on_off = |on| if on { "true" } else { "false" };
        let mut s = HiveSession::in_memory();
        s.set(keys::VECTORIZED_ENABLED, on_off(vectorized));
        s.set(keys::AUTO_CONVERT_JOIN, on_off(map_join));
        for ddl in [
            "CREATE TABLE nanny (id BIGINT, d DOUBLE) STORED AS orc",
            "CREATE TABLE a (k BIGINT) STORED AS orc",
            "CREATE TABLE b (d DOUBLE, name STRING) STORED AS orc",
        ] {
            s.execute(ddl).unwrap();
        }
        for (file, chunk) in d.chunks(100).enumerate() {
            let row = |(i, x): (usize, &f64)| {
                Row::new(vec![Value::Int((file * 100 + i) as i64), Value::Double(*x)])
            };
            s.load_rows("nanny", chunk.iter().enumerate().map(row))
                .unwrap();
        }
        s.load_rows("a", (1..=7).map(|k| Row::new(vec![Value::Int(k)])))
            .unwrap();
        let b_row = |k: i64| {
            Row::new(vec![
                Value::Double(k as f64),
                Value::String(format!("n{k}")),
            ])
        };
        s.load_rows("b", (1..=7).map(b_row)).unwrap();
        let mut run = |sql: &str| -> Vec<String> {
            let rows = s.execute(sql).unwrap().rows;
            let cells = |r: &Row| r.values().iter().map(Value::to_string).collect::<Vec<_>>();
            rows.iter().map(|r| cells(r).join(" ")).collect()
        };
        let ctx = format!("vectorized={vectorized} map_join={map_join}");

        let groups = run("SELECT d, COUNT(*) FROM nanny GROUP BY d ORDER BY d");
        assert_eq!(groups.len(), 52, "{ctx}: {groups:?}");
        assert_eq!(groups[0], "0.0 4", "{ctx}");
        assert_eq!(groups[1], "1.0 5", "{ctx}");
        assert_eq!(groups[51], "NaN 92", "{ctx}");

        let first = run("SELECT d FROM nanny ORDER BY d LIMIT 5");
        assert_eq!(first, ["0.0", "0.0", "0.0", "0.0", "1.0"], "{ctx}");
        let last = run("SELECT d FROM nanny ORDER BY d DESC LIMIT 5");
        assert_eq!(last, ["NaN"; 5], "{ctx}");

        let joined = run("SELECT a.k, b.d, b.name FROM a JOIN b ON (a.k = b.d) ORDER BY a.k");
        let expect: Vec<String> = (1..=7).map(|k| format!("{k} {k}.0 n{k}")).collect();
        assert_eq!(joined, expect, "{ctx}");
        let flipped = run("SELECT a.k, b.name FROM b JOIN a ON (b.d = a.k) ORDER BY a.k");
        assert_eq!(flipped.len(), 7, "{ctx}: {flipped:?}");

        answers.push((groups, first, last, joined, flipped));
    }
    assert!(answers.iter().all(|a| *a == answers[0]));
}

/// Name binding end to end: a reference the scope cannot bind is an error —
/// never a silently dropped predicate or an ignored qualifier — and a WHERE
/// conjunct on the null-supplying side of an outer join filters the joined
/// rows, whichever engine and join strategy run the plan.
#[test]
fn unbound_references_fail_and_outer_join_filters_run_after_the_join() {
    for (vectorized, map_join) in [(true, true), (true, false), (false, true), (false, false)] {
        let on_off = |on| if on { "true" } else { "false" };
        let mut s = HiveSession::in_memory();
        s.set(keys::VECTORIZED_ENABLED, on_off(vectorized));
        s.set(keys::AUTO_CONVERT_JOIN, on_off(map_join));
        s.execute("CREATE TABLE a (k BIGINT) STORED AS orc")
            .unwrap();
        s.execute("CREATE TABLE b (k BIGINT, name STRING) STORED AS orc")
            .unwrap();
        s.execute("INSERT INTO a VALUES (1), (2), (3), (4)")
            .unwrap();
        s.execute("INSERT INTO b VALUES (1, 'x'), (2, 'y')")
            .unwrap();
        let ctx = format!("vectorized={vectorized} map_join={map_join}");
        let mut run = |sql: &str| -> Vec<String> {
            let rows = s.execute(sql).unwrap().rows;
            let cells = |r: &Row| r.values().iter().map(Value::to_string).collect::<Vec<_>>();
            let mut lines: Vec<String> = rows.iter().map(|r| cells(r).join(" ")).collect();
            lines.sort();
            lines
        };
        let on = "ON (a.k = b.k)";
        for (sql, want) in [
            (
                format!("SELECT a.k, b.name FROM a LEFT OUTER JOIN b {on} WHERE b.name = 'x'"),
                vec!["1 x"],
            ),
            (
                format!("SELECT a.k, b.name FROM a LEFT OUTER JOIN b {on} WHERE b.name IS NULL"),
                vec!["3 NULL", "4 NULL"],
            ),
            (
                format!("SELECT a.k, b.name FROM a FULL OUTER JOIN b {on} WHERE a.k > 3"),
                vec!["4 NULL"],
            ),
            (
                format!("SELECT a.k, b.name FROM b RIGHT OUTER JOIN a {on} WHERE b.name = 'x'"),
                vec!["1 x"],
            ),
            // The preserved side: pushed to the scan as before, same answer.
            (
                format!("SELECT a.k, b.name FROM a LEFT OUTER JOIN b {on} WHERE a.k > 1"),
                vec!["2 y", "3 NULL", "4 NULL"],
            ),
        ] {
            assert_eq!(run(&sql), want, "{ctx}: {sql}");
        }

        for sql in [
            "SELECT COUNT(*) FROM a WHERE zz.k > 1000000",
            "SELECT COUNT(*) FROM a t WHERE a.k > 1000000",
            "DELETE FROM a WHERE other.k = 2",
            "UPDATE b SET name = 'z' WHERE nope.k = 1",
        ] {
            let err = s.execute(sql).expect_err(sql).to_string();
            assert!(
                err.contains("[semantic] unknown column"),
                "{ctx}: {sql}: {err}"
            );
        }
        s.set(keys::COMPUTE_USING_STATS, "true");
        assert!(s.execute("SELECT MAX(zz.k) FROM a").is_err(), "{ctx}");
        s.set(keys::COMPUTE_USING_STATS, "false");
        // Nothing was deleted or updated on the way.
        let mut run = |sql: &str| s.execute(sql).unwrap().rows.len();
        assert_eq!(run("SELECT k FROM a"), 4, "{ctx}");
        assert_eq!(run("SELECT k FROM b WHERE name = 'z'"), 0, "{ctx}");
        assert_eq!(run("SELECT k FROM a WHERE a.k > 1000000"), 0, "{ctx}");
    }
}

/// The value rule end to end (the Rust twin of ci.sh's
/// `tests/golden/value_rule_cli.sql`): predicates, MIN/MAX, SARGs, blooms and
/// join keys compare values by the key rule — a NaN equals a NaN and sorts
/// after `+inf`, `-0.0` is `0.0` — so every block prints the same rows:
/// vectorization on/off × map-join/reduce-join, with stats-answered
/// aggregates and storage pushdown switched on and off across the blocks,
/// over the rows in either order.
#[test]
fn value_rule_holds_across_engines_joins_stats_and_pruning() {
    // 303 rows in four files: 92 NaN, 4 `0.0`, 3 `-0.0`, and 1.0..=50.0.
    let nan2 = -f64::from_bits(f64::NAN.to_bits() | 1);
    let mut values = (1..=50).cycle().map(f64::from);
    let mut d: Vec<f64> = (0..300)
        .map(|i| match i {
            10 | 110 | 200 | 290 => 0.0,
            _ if i % 3 == 0 && i < 276 => [f64::NAN, nan2][i % 2],
            _ => values.next().unwrap(),
        })
        .collect();
    d.extend([-0.0; 3]);
    let blocks = [
        (true, true, false, true),
        (true, false, true, false),
        (false, true, true, true),
        (false, false, false, false),
    ];
    let statements = [
        ("SELECT COUNT(*) FROM nanny WHERE d = 5.0", vec!["4"]),
        ("SELECT COUNT(*) FROM nanny WHERE d > 40", vec!["132"]),
        ("SELECT COUNT(*) FROM nanny WHERE d <> 1.0", vec!["298"]),
        (
            "SELECT COUNT(*) FROM nanny WHERE d = CAST('NaN' AS DOUBLE)",
            vec!["92"],
        ),
        ("SELECT COUNT(*) FROM nanny WHERE d = 0", vec!["7"]),
        ("SELECT MIN(d), MAX(d) FROM nanny", vec!["0.0 NaN"]),
        (
            "SELECT COUNT(*), MIN(d), MAX(d) FROM nanny WHERE id BETWEEN -1 AND 20.5",
            vec!["21 0.0 NaN"],
        ),
        (
            "SELECT d, COUNT(*) FROM nanny WHERE d < 2 GROUP BY d ORDER BY d",
            vec!["0.0 7", "1.0 5"],
        ),
        (
            "SELECT a.k, b.d, b.name FROM a JOIN b ON (a.k = b.d) ORDER BY a.k",
            vec!["0 -0.0 z", "1 1.0 n1", "2 2.0 n2", "3 3.0 n3"],
        ),
    ];
    for reversed in [false, true] {
        let mut rows: Vec<Row> = d
            .iter()
            .enumerate()
            .map(|(i, x)| Row::new(vec![Value::Int(i as i64), Value::Double(*x)]))
            .collect();
        if reversed {
            rows.reverse();
        }
        for (vectorized, map_join, stats, pushdown) in blocks {
            let on_off = |on| if on { "true" } else { "false" };
            let mut s = HiveSession::in_memory();
            s.set(keys::ORC_BLOOM_FILTER_COLUMNS, "d");
            s.set(keys::ORC_ROW_INDEX_STRIDE, "10");
            for ddl in [
                "CREATE TABLE nanny (id BIGINT, d DOUBLE) STORED AS orc",
                "CREATE TABLE a (k BIGINT) STORED AS orc",
                "CREATE TABLE b (d DOUBLE, name STRING) STORED AS orc",
            ] {
                s.execute(ddl).unwrap();
            }
            for chunk in rows.chunks(100) {
                s.load_rows("nanny", chunk.to_vec()).unwrap();
            }
            s.load_rows("a", (0..4).map(|k| Row::new(vec![Value::Int(k)])))
                .unwrap();
            let b_row = |(d, name): (f64, &str)| {
                Row::new(vec![Value::Double(d), Value::String(name.into())])
            };
            let b_rows = [(-0.0, "z"), (1.0, "n1"), (2.0, "n2"), (3.0, "n3")];
            s.load_rows("b", b_rows.map(b_row)).unwrap();
            s.set(keys::VECTORIZED_ENABLED, on_off(vectorized));
            s.set(keys::AUTO_CONVERT_JOIN, on_off(map_join));
            s.set(keys::COMPUTE_USING_STATS, on_off(stats));
            s.set(keys::OPT_PPD_STORAGE, on_off(pushdown));
            let ctx = format!(
                "reversed={reversed} vectorized={vectorized} map_join={map_join} \
                 stats={stats} pushdown={pushdown}"
            );
            for (sql, want) in &statements {
                let r = s.execute(sql).unwrap();
                let cells = |r: &Row| r.values().iter().map(Value::to_string).collect::<Vec<_>>();
                let got: Vec<String> = r.rows.iter().map(|r| cells(r).join(" ")).collect();
                assert_eq!(&got, want, "{ctx}: {sql}");
                if sql.ends_with("FROM nanny") {
                    assert_eq!(r.report.jobs.is_empty(), stats, "{ctx}: stats-answered");
                }
            }
        }
    }
}

/// SQL's global aggregate over empty input is one row — `COUNT` 0, the rest
/// NULL — in both engines; a grouped one is still no row.
#[test]
fn a_global_aggregate_over_empty_input_returns_one_row() {
    for vectorized in ["true", "false"] {
        let mut s = HiveSession::in_memory();
        s.set(keys::VECTORIZED_ENABLED, vectorized);
        s.execute("CREATE TABLE t (v BIGINT, d DOUBLE) STORED AS orc")
            .unwrap();
        s.load_rows(
            "t",
            (0..50).map(|i| Row::new(vec![Value::Int(i), Value::Double(i as f64)])),
        )
        .unwrap();
        let empty = "FROM t WHERE v > 1000000";
        let r = s
            .execute(&format!("SELECT COUNT(*), SUM(v), MAX(d), AVG(d) {empty}"))
            .unwrap();
        let want = [Value::Int(0), Value::Null, Value::Null, Value::Null];
        assert_eq!(r.rows, [Row::new(want.to_vec())], "vectorized={vectorized}");
        let grouped = s.execute(&format!("SELECT v, COUNT(*) {empty} GROUP BY v"));
        assert!(grouped.unwrap().rows.is_empty(), "vectorized={vectorized}");
    }
}

/// The typing rule, the same in both engines: an INT meets a DOUBLE as a
/// DOUBLE one pair at a time (so a mixed BETWEEN is two comparisons, exact
/// on its INT side beyond 2^53), a STRING meets a number as a DOUBLE — in
/// a join key too — and BOOLEAN in arithmetic or against a number is a
/// `[semantic]` error.
#[test]
fn mixed_types_follow_one_typing_rule_in_both_engines() {
    let big = 1i64 << 53;
    for (vectorized, map_join) in [("true", "true"), ("false", "false")] {
        let mut s = HiveSession::in_memory();
        s.set(keys::VECTORIZED_ENABLED, vectorized);
        s.set(keys::AUTO_CONVERT_JOIN, map_join);
        s.execute("CREATE TABLE t (v BIGINT, s STRING, b BOOLEAN) STORED AS orc")
            .unwrap();
        s.execute("CREATE TABLE u (k BIGINT) STORED AS orc")
            .unwrap();
        s.load_rows("u", [5, 6].map(|k| Row::new(vec![Value::Int(k)])))
            .unwrap();
        let row = |(v, s): (i64, &str)| {
            let s = Value::String(s.into());
            Row::new(vec![Value::Int(v), s, Value::Boolean(v % 2 == 0)])
        };
        let rows = [(big, "5"), (big + 1, "5.0"), (big + 2, "05"), (7, "x")];
        s.load_rows("t", rows.map(row)).unwrap();
        let ctx = format!("vectorized={vectorized}");
        let mut count = |sql: &str| s.execute(sql).unwrap().rows[0][0].clone();
        let between = format!(
            "SELECT COUNT(*) FROM t WHERE v BETWEEN {} AND 1e300",
            big + 1
        );
        assert_eq!(count(&between), Value::Int(2), "{ctx}");
        assert_eq!(
            count("SELECT COUNT(*) FROM t WHERE s = 5"),
            Value::Int(3),
            "{ctx}"
        );
        assert_eq!(
            count("SELECT COUNT(*) FROM t WHERE '6' > s"),
            Value::Int(3),
            "{ctx}"
        );
        assert_eq!(
            count("SELECT COUNT(*) FROM t JOIN u ON (t.s = u.k)"),
            Value::Int(3),
            "{ctx}"
        );
        for sql in [
            "SELECT v + TRUE FROM t",
            "SELECT COUNT(*) FROM t WHERE b = 1",
            "SELECT COUNT(*) FROM t WHERE b + 1 > 0",
            "SELECT COUNT(*) FROM t JOIN u ON (t.b = u.k)",
        ] {
            let err = s.execute(sql).expect_err(sql).to_string();
            assert!(err.contains("[semantic]"), "{ctx}: {sql}: {err}");
        }
    }
}

/// A TIMESTAMP literal (a folded `CAST(… AS TIMESTAMP)`) meets a TIMESTAMP
/// column's statistics, which ORC keeps as INT, as the `i64` they store: SARG
/// pruning keeps exactly the groups that hold a match, in both engines.
#[test]
fn timestamp_literals_prune_by_the_statistics_they_meet() {
    let ts = |ms: i64| format!("CAST({ms} AS TIMESTAMP)");
    let statements = [
        (format!("ts = {}", ts(50_000)), 1),
        (format!("ts > {}", ts(89_000)), 10),
        (format!("ts >= {}", ts(90_000)), 10),
        (format!("ts < {}", ts(3_000)), 3),
        (format!("ts BETWEEN {} AND {}", ts(10_000), ts(19_000)), 10),
        (format!("ts IN ({}, {})", ts(5_000), ts(95_000)), 2),
    ];
    for vectorized in ["true", "false"] {
        for pushdown in ["true", "false"] {
            let mut s = HiveSession::in_memory();
            s.set(keys::ORC_ROW_INDEX_STRIDE, "10");
            s.execute("CREATE TABLE t (id BIGINT, ts TIMESTAMP) STORED AS orc")
                .unwrap();
            let row = |i: i64| Row::new(vec![Value::Int(i), Value::Timestamp(i * 1000)]);
            for chunk in (0..100).collect::<Vec<_>>().chunks(25) {
                s.load_rows("t", chunk.iter().map(|&i| row(i))).unwrap();
            }
            s.set(keys::VECTORIZED_ENABLED, vectorized);
            s.set(keys::OPT_PPD_STORAGE, pushdown);
            for (pred, want) in &statements {
                let sql = format!("SELECT COUNT(*) FROM t WHERE {pred}");
                let got = s.execute(&sql).unwrap().rows[0][0].clone();
                let ctx = format!("vectorized={vectorized} pushdown={pushdown}");
                assert_eq!(got, Value::Int(*want), "{ctx}: {sql}");
            }
        }
    }
}

/// A map join whose build side projects ARRAY, MAP and STRUCT columns: the
/// side cannot be read as batches, so its table is built from rows for the
/// row engine (the stage cannot vectorize), once per job — and the join
/// answers what the definition and the reduce join answer, in every engine,
/// with duplicate and NULL build keys and a build filter.
#[test]
fn a_map_join_build_side_with_complex_columns_answers_by_the_definition() {
    let mut s = HiveSession::in_memory();
    s.execute("CREATE TABLE facts (k BIGINT, v BIGINT) STORED AS orc")
        .unwrap();
    s.execute(
        "CREATE TABLE dims (k BIGINT, tags ARRAY<BIGINT>, attrs MAP<STRING,BIGINT>, \
         loc STRUCT<x:BIGINT,y:STRING>) STORED AS orc",
    )
    .unwrap();
    let facts: Vec<Row> = (0..40)
        .map(|i| Row::new(vec![Value::Int(i % 8), Value::Int(i)]))
        .collect();
    s.load_rows("facts", facts.clone()).unwrap();
    // Keys 0..6 with 3 twice and one NULL key.
    let keys = [
        Some(0),
        Some(1),
        Some(2),
        Some(3),
        Some(3),
        Some(4),
        Some(5),
        None,
    ];
    let dims: Vec<Row> = keys
        .iter()
        .enumerate()
        .map(|(i, k)| {
            let i = i as i64;
            Row::new(vec![
                k.map_or(Value::Null, Value::Int),
                Value::Array(vec![Value::Int(i), Value::Int(i * 10)]),
                Value::Map(vec![(Value::String(format!("a{i}")), Value::Int(i))]),
                Value::Struct(vec![Value::Int(i), Value::String(format!("y{i}"))]),
            ])
        })
        .collect();
    s.load_rows("dims", dims.clone()).unwrap();

    let sorted = |mut rows: Vec<Row>| {
        rows.sort_by_key(|r| format!("{r:?}"));
        rows
    };
    // The definition: pairs with equal non-NULL keys, build rows with key 2
    // filtered out first; a LEFT JOIN pads each fact row left without one.
    let expected = |left: bool| {
        let mut out = Vec::new();
        for f in &facts {
            let hits: Vec<&Row> = dims
                .iter()
                .filter(|d| d[0] == f[0] && d[0] != Value::Int(2))
                .collect();
            for d in &hits {
                out.push(Row::new(
                    [f[1].clone()]
                        .into_iter()
                        .chain(d.values().iter().cloned())
                        .collect(),
                ));
            }
            if left && hits.is_empty() {
                out.push(Row::new(vec![
                    f[1].clone(),
                    Value::Null,
                    Value::Null,
                    Value::Null,
                    Value::Null,
                ]));
            }
        }
        sorted(out)
    };
    for (join, left) in [("JOIN", false), ("LEFT JOIN", true)] {
        let sql = format!(
            "SELECT facts.v, dims.k, dims.tags, dims.attrs, dims.loc FROM facts \
             {join} dims ON (facts.k = dims.k AND dims.k <> 2)"
        );
        for (vectorize, map_join) in [(true, true), (false, true), (true, false), (false, false)] {
            s.set(keys::VECTORIZED_ENABLED, vectorize.to_string());
            s.set(keys::AUTO_CONVERT_JOIN, map_join.to_string());
            let plan = s
                .execute(&format!("EXPLAIN {sql}"))
                .unwrap()
                .explain
                .unwrap();
            assert_eq!(plan.contains("MapJoin"), map_join, "{plan}");
            let rows = sorted(s.execute(&sql).unwrap().rows);
            assert_eq!(
                rows,
                expected(left),
                "{join} vectorize={vectorize} map_join={map_join}"
            );
        }
    }
}

/// Outer joins answer what the nested-loop definition answers, in every
/// engine (row/vector x map/reduce join x correlation on/off), with
/// duplicate, NULL and unmatched keys: an ON conjunct over the preserved
/// side, the joined side or both, in LEFT, RIGHT and FULL joins (the join
/// tests each pair, so a row no pair passes is padded, not lost); chains of
/// joins on one key, which are binary joins in one reduce phase when
/// correlated; a join keyed on the side an outer join null-supplies,
/// where a key group holds padded NULL keys beside matched ones; and a
/// GROUP BY over outer joins, which may share their reduce phase only when
/// keyed on a preserved side.
#[test]
fn a_left_join_chain_with_an_on_filter_answers_by_the_definition() {
    let mut s = HiveSession::in_memory();
    let int = |v: Option<i64>| v.map_or(Value::Null, Value::Int);
    let mut load = |name: &str, rows: &[(Option<i64>, i64)]| {
        s.execute(&format!(
            "CREATE TABLE {name} (k BIGINT, v BIGINT) STORED AS orc"
        ))
        .unwrap();
        let rows: Vec<Row> = rows
            .iter()
            .map(|&(k, v)| Row::new(vec![int(k), Value::Int(v)]))
            .collect();
        s.load_rows(name, rows.clone()).unwrap();
        rows
    };
    let a = load(
        "a",
        &[
            (Some(1), 10),
            (Some(1), 12),
            (Some(2), 20),
            (Some(3), 30),
            (None, 40),
            (Some(5), 50),
        ],
    );
    let b = load(
        "b",
        &[
            (Some(1), 0),
            (Some(1), 2),
            (Some(2), 1),
            (Some(3), 3),
            (Some(4), 4),
            (None, 9),
        ],
    );
    let c = load(
        "c",
        &[
            (Some(1), 5),
            (Some(2), -1),
            (Some(3), 7),
            (Some(3), 8),
            (None, 1),
        ],
    );

    let sorted = |mut rows: Vec<Row>| {
        rows.sort_by_key(|r| format!("{r:?}"));
        rows
    };
    // `l <kind> JOIN r ON (on)` by definition: every pair `on` keeps, then,
    // for a preserved side, each of its rows no kept pair includes, padded
    // with NULLs.
    let join = |l: &[Row], r: &[Row], kind: &str, on: &dyn Fn(&Row, &Row) -> bool| {
        let pad = |width: usize| vec![Value::Null; width];
        let concat = |x: &[Value], y: &[Value]| Row::new(x.iter().chain(y).cloned().collect());
        let mut out = Vec::new();
        let mut r_hit = vec![false; r.len()];
        for lr in l {
            let mut hit = false;
            for (rr, r_hit) in r.iter().zip(&mut r_hit) {
                if on(lr, rr) {
                    (hit, *r_hit) = (true, true);
                    out.push(concat(lr.values(), rr.values()));
                }
            }
            if !hit && matches!(kind, "LEFT" | "FULL") {
                out.push(concat(lr.values(), &pad(r[0].len())));
            }
        }
        for (rr, _) in r.iter().zip(r_hit).filter(|(_, hit)| !hit) {
            if matches!(kind, "RIGHT" | "FULL") {
                out.push(concat(&pad(l[0].len()), rr.values()));
            }
        }
        out
    };
    // Column `i` of the left row equals the right row's key; NULL equals
    // nothing.
    let key_eq = |i: usize| move |l: &Row, r: &Row| !l[i].is_null() && l[i] == r[0];
    fn v(row: &Row, i: usize) -> i64 {
        row[i].as_int().unwrap_or(i64::MIN)
    }

    let mut cases: Vec<(String, Vec<Row>)> = Vec::new();
    // One ON conjunct beside the key: over `a`, over `b`, over both.
    type Conjunct = (&'static str, fn(&Row, &Row) -> bool);
    let conjuncts: [Conjunct; 3] = [
        ("a.v > 11", |l, _| v(l, 1) > 11),
        ("b.v > 0", |_, r| v(r, 1) > 0),
        ("a.v > b.v * 10", |l, r| v(l, 1) > v(r, 1) * 10),
    ];
    for kind in ["LEFT", "RIGHT", "FULL"] {
        for (conjunct, keep) in &conjuncts {
            cases.push((
                format!(
                    "SELECT a.k, a.v, b.k, b.v FROM a {kind} JOIN b \
                     ON (a.k = b.k AND {conjunct})"
                ),
                join(&a, &b, kind, &|l, r| key_eq(0)(l, r) && keep(l, r)),
            ));
        }
    }
    // Chains on `a.k`: LEFT with `<table>.v > 0` in neither ON, the first or
    // the second, and FULL.
    let positive =
        |filter: bool| move |l: &Row, r: &Row| key_eq(0)(l, r) && (!filter || v(r, 1) > 0);
    for (kind, filter_b, filter_c) in [
        ("LEFT", false, false),
        ("LEFT", true, false),
        ("LEFT", false, true),
        ("FULL", false, false),
    ] {
        let on = |t: &str, filter: bool| match filter {
            true => format!("a.k = {t}.k AND {t}.v > 0"),
            false => format!("a.k = {t}.k"),
        };
        let ab = join(&a, &b, kind, &positive(filter_b));
        cases.push((
            format!(
                "SELECT a.k, a.v, b.k, b.v, c.k, c.v FROM a \
                 {kind} JOIN b ON ({}) {kind} JOIN c ON ({})",
                on("b", filter_b),
                on("c", filter_c)
            ),
            join(&ab, &c, kind, &positive(filter_c)),
        ));
    }
    // A join keyed on the side an outer join null-supplies: `a.k` after a
    // RIGHT or FULL join, `b.k` after a LEFT join whose residual pads the
    // first of key 1's `a` rows but pairs the second.
    for (first, on, second, key) in [
        ("RIGHT", "a.k = b.k", "INNER", 0),
        ("FULL", "a.k = b.k", "LEFT", 0),
        ("LEFT", "a.k = b.k AND a.v > 11", "INNER", 2),
        ("LEFT", "a.k = b.k AND a.v > 11", "FULL", 2),
    ] {
        let ab = join(&a, &b, first, &|l, r| {
            key_eq(0)(l, r) && (first != "LEFT" || v(l, 1) > 11)
        });
        let side = ["a", "", "b"][key];
        cases.push((
            format!(
                "SELECT a.k, a.v, b.k, b.v, c.k, c.v FROM a {first} JOIN b ON ({on}) \
                 {second} JOIN c ON ({side}.k = c.k)"
            ),
            join(&ab, &c, second, &key_eq(key)),
        ));
    }
    // A GROUP BY over an outer join: keyed on the side a LEFT join with a
    // residual null-supplies (key 1's group holds a padded and a paired
    // row), on either side of a FULL join, and on a LEFT join's preserved
    // side.
    let count_by = |rows: &[Row], col: usize| {
        let mut counts: Vec<(Value, i64)> = Vec::new();
        for row in rows {
            match counts.iter_mut().find(|(k, _)| *k == row[col]) {
                Some((_, n)) => *n += 1,
                None => counts.push((row[col].clone(), 1)),
            }
        }
        let count = |(k, n)| Row::new(vec![k, Value::Int(n)]);
        counts.into_iter().map(count).collect::<Vec<_>>()
    };
    let groupings: [(&str, Conjunct, usize); 4] = [
        ("LEFT", conjuncts[0], 2),
        ("FULL", ("TRUE", |_, _| true), 0),
        ("FULL", ("TRUE", |_, _| true), 2),
        ("LEFT", conjuncts[1], 0),
    ];
    for (kind, (conjunct, keep), key) in groupings {
        let ab = join(&a, &b, kind, &|l, r| key_eq(0)(l, r) && keep(l, r));
        let side = ["a", "", "b"][key];
        cases.push((
            format!(
                "SELECT {side}.k, COUNT(*) FROM a {kind} JOIN b \
                 ON (a.k = b.k AND {conjunct}) GROUP BY {side}.k"
            ),
            count_by(&ab, key),
        ));
    }
    // The same over a chain: the LEFT join preserves `a.k`, but the FULL
    // join below it null-supplies `a.k` inside `b`'s key groups.
    let ab = join(&a, &b, "FULL", &key_eq(0));
    cases.push((
        "SELECT a.k, COUNT(*) FROM a FULL JOIN b ON (a.k = b.k) \
         LEFT JOIN c ON (a.k = c.k) GROUP BY a.k"
            .into(),
        count_by(&join(&ab, &c, "LEFT", &key_eq(0)), 0),
    ));

    for (vectorize, map_join, correlation) in [
        (true, true, true),
        (false, true, true),
        (true, false, true),
        (false, false, true),
        (true, false, false),
        (false, false, false),
    ] {
        s.set(keys::VECTORIZED_ENABLED, vectorize.to_string());
        s.set(keys::AUTO_CONVERT_JOIN, map_join.to_string());
        s.set(keys::OPT_CORRELATION, correlation.to_string());
        for (sql, expected) in &cases {
            let rows = s.execute(sql).unwrap_or_else(|e| panic!("{sql}: {e}")).rows;
            assert_eq!(
                sorted(rows),
                sorted(expected.clone()),
                "{sql} vectorize={vectorize} map_join={map_join} correlation={correlation}"
            );
        }
    }
}
