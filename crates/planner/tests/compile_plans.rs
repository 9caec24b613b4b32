//! Structural tests of the task compiler: SQL in → expected job DAG out,
//! under every optimizer setting (paper Sections 5 and 6.4).

use hive_common::config::keys;
use hive_common::{HiveConf, Schema};
use hive_planner::catalog::{Catalog, StaticCatalog, TableMeta};
use hive_planner::plan_query;
use hive_ql::{parse, Statement};

fn catalog() -> StaticCatalog {
    let t = |name: &str, cols: &[(&str, &str)], size: u64| TableMeta {
        name: name.into(),
        schema: Schema::parse(cols).unwrap(),
        format: hive_formats::FormatKind::Orc,
        paths: vec![format!("/w/{name}/part-0")],
        size_bytes: size,
        acid: None,
    };
    StaticCatalog {
        tables: vec![
            t(
                "fact",
                &[
                    ("k", "bigint"),
                    ("d1", "bigint"),
                    ("d2", "bigint"),
                    ("v", "double"),
                ],
                1 << 30,
            ),
            t("fact2", &[("k", "bigint"), ("v", "double")], 1 << 30),
            t("dim1", &[("k", "bigint"), ("name", "string")], 1 << 10),
            t("dim2", &[("k", "bigint"), ("name", "string")], 1 << 10),
        ],
    }
}

fn compile_with(sql: &str, tweak: impl FnOnce(&mut HiveConf)) -> hive_planner::CompiledQuery {
    let Statement::Select(stmt) = parse(sql).unwrap() else {
        panic!("expected select")
    };
    let mut conf = HiveConf::new();
    tweak(&mut conf);
    plan_query(&stmt, &catalog(), &conf).unwrap()
}

fn job_shape(q: &hive_planner::CompiledQuery) -> (usize, usize) {
    let map_only = q.jobs.iter().filter(|j| j.reduce_factory.is_none()).count();
    (map_only, q.jobs.len() - map_only)
}

#[test]
fn scan_filter_aggregate_is_one_job() {
    let q = compile_with(
        "SELECT k, SUM(v) FROM fact WHERE v > 1.5 GROUP BY k",
        |_| {},
    );
    assert_eq!(job_shape(&q), (0, 1));
}

#[test]
fn global_aggregate_uses_one_reducer() {
    let q = compile_with("SELECT COUNT(*) FROM fact", |_| {});
    assert_eq!(q.jobs.len(), 1);
    assert_eq!(q.jobs[0].num_reducers, 1);
}

#[test]
fn star_join_merges_into_one_job_with_merge_on() {
    let sql = "SELECT dim1.name, SUM(fact.v) FROM fact \
               JOIN dim1 ON (fact.d1 = dim1.k) \
               JOIN dim2 ON (fact.d2 = dim2.k) \
               GROUP BY dim1.name";
    let merged = compile_with(sql, |c| {
        c.set(keys::MERGE_MAPONLY_JOBS, "true");
    });
    assert_eq!(job_shape(&merged), (0, 1), "{}", merged.explain);

    let unmerged = compile_with(sql, |c| {
        c.set(keys::MERGE_MAPONLY_JOBS, "false");
    });
    assert_eq!(job_shape(&unmerged), (2, 1), "{}", unmerged.explain);
}

#[test]
fn big_big_join_stays_a_reduce_join() {
    let q = compile_with(
        "SELECT fact.v, COUNT(*) FROM fact JOIN fact2 ON (fact.k = fact2.k) \
         GROUP BY fact.v",
        |c| {
            c.set(keys::OPT_CORRELATION, "false");
        },
    );
    // join job + group-by job (grouped on a non-key column).
    assert_eq!(job_shape(&q), (0, 2), "{}", q.explain);
}

#[test]
fn correlation_collapses_group_by_on_join_key() {
    let sql = "SELECT fact.k, COUNT(*) FROM fact JOIN fact2 ON (fact.k = fact2.k) \
               GROUP BY fact.k";
    let with = compile_with(sql, |c| {
        c.set(keys::OPT_CORRELATION, "true");
    });
    assert_eq!(job_shape(&with), (0, 1), "{}", with.explain);
    let without = compile_with(sql, |c| {
        c.set(keys::OPT_CORRELATION, "false");
    });
    assert_eq!(job_shape(&without), (0, 2), "{}", without.explain);
}

#[test]
fn a_same_key_outer_join_chain_is_binary_joins_in_one_job() {
    let sql = "SELECT fact.v, dim1.name, dim2.name FROM fact \
               LEFT JOIN dim1 ON (fact.k = dim1.k) \
               LEFT JOIN dim2 ON (fact.k = dim2.k)";
    for (correlation, jobs) in [("true", 1), ("false", 2)] {
        let q = compile_with(sql, |c| {
            c.set(keys::AUTO_CONVERT_JOIN, "false");
            c.set(keys::OPT_CORRELATION, correlation);
        });
        assert_eq!(job_shape(&q), (0, jobs), "{}", q.explain);
        let joins: Vec<&str> = q.explain.lines().filter(|l| l.contains(" Join ")).collect();
        assert_eq!(joins.len(), 2, "{}", q.explain);
        for join in joins {
            assert!(join.ends_with("Join LeftOuter 2 inputs"), "{join}");
        }
    }
}

#[test]
fn an_outer_join_residual_shows_in_explain_and_stays_a_reduce_join() {
    let q = compile_with(
        "SELECT fact.v, dim1.name FROM fact LEFT JOIN dim1 ON (fact.k = dim1.k AND fact.v > 1)",
        |_| {},
    );
    assert_eq!(job_shape(&q), (0, 1), "{}", q.explain);
    assert!(
        q.explain.contains("Join LeftOuter 2 inputs +residual"),
        "{}",
        q.explain
    );
}

#[test]
fn a_group_by_correlates_with_an_outer_join_only_on_a_preserved_side() {
    // A group of an outer join may hold NULL and non-NULL values of a
    // side it null-supplies, so a GROUP BY keyed there keeps its shuffle.
    for (sql, jobs) in [
        (
            "SELECT fact.k, COUNT(*) FROM fact LEFT JOIN dim1 ON (fact.k = dim1.k) GROUP BY fact.k",
            1,
        ),
        (
            "SELECT dim1.k, COUNT(*) FROM fact RIGHT JOIN dim1 ON (fact.k = dim1.k) GROUP BY dim1.k",
            1,
        ),
        (
            "SELECT dim1.k, COUNT(*) FROM fact LEFT JOIN dim1 \
             ON (fact.k = dim1.k AND fact.v > 1) GROUP BY dim1.k",
            2,
        ),
        (
            "SELECT fact.k, COUNT(*) FROM fact FULL JOIN dim1 ON (fact.k = dim1.k) GROUP BY fact.k",
            2,
        ),
        (
            "SELECT fact.k, COUNT(*) FROM fact LEFT JOIN dim1 ON (fact.k = dim1.k) \
             LEFT JOIN dim2 ON (fact.k = dim2.k) GROUP BY fact.k",
            1,
        ),
        (
            "SELECT fact.k, COUNT(*) FROM fact FULL JOIN dim1 ON (fact.k = dim1.k) \
             LEFT JOIN dim2 ON (fact.k = dim2.k) GROUP BY fact.k",
            2,
        ),
    ] {
        let q = compile_with(sql, |c| {
            c.set(keys::AUTO_CONVERT_JOIN, "false");
        });
        assert_eq!(job_shape(&q), (0, jobs), "{sql}\n{}", q.explain);
    }
}

#[test]
fn map_join_then_shuffle_in_same_job() {
    // MapJoin on the scan chain merges into the shuffle job's map phase.
    let q = compile_with(
        "SELECT dim1.name, SUM(fact.v) FROM fact JOIN dim1 ON (fact.d1 = dim1.k) \
         GROUP BY dim1.name",
        |_| {},
    );
    assert_eq!(job_shape(&q), (0, 1));
    assert_eq!(
        q.jobs[0].side_inputs.len(),
        1,
        "dim1 rides the distributed cache"
    );
}

#[test]
fn order_by_resolves_to_driver_side_sort() {
    let q = compile_with(
        "SELECT k, SUM(v) AS s FROM fact GROUP BY k ORDER BY s DESC, k LIMIT 7",
        |_| {},
    );
    assert_eq!(q.order_by, vec![(1, false), (0, true)]);
    assert_eq!(q.limit, Some(7));
    assert_eq!(q.output_names, vec!["k".to_string(), "s".to_string()]);
}

#[test]
fn column_pruning_reaches_the_scan() {
    let q = compile_with("SELECT SUM(v) FROM fact WHERE d1 = 3", |_| {});
    let input = &q.jobs[0].inputs[0];
    // Only d1 and v are needed (columns 1 and 3 of the table).
    assert_eq!(input.projection.as_deref(), Some(&[1usize, 3][..]));
}

#[test]
fn sarg_extraction_respects_ppd_knob() {
    let sql = "SELECT SUM(v) FROM fact WHERE k BETWEEN 10 AND 20";
    let on = compile_with(sql, |_| {});
    assert!(
        on.jobs[0].inputs[0].sarg.is_some(),
        "PPD on → sarg attached"
    );
    let off = compile_with(sql, |c| {
        c.set(keys::OPT_PPD_STORAGE, "false");
    });
    assert!(off.jobs[0].inputs[0].sarg.is_none(), "PPD off → no sarg");
}

#[test]
fn explain_names_every_stage() {
    let q = compile_with(
        "SELECT dim1.name, COUNT(*) FROM fact JOIN dim1 ON (fact.d1 = dim1.k) \
         GROUP BY dim1.name",
        |c| {
            c.set(keys::AUTO_CONVERT_JOIN, "false");
        },
    );
    for needle in ["TableScan", "ReduceSink", "Join", "GroupBy", "FileSink"] {
        assert!(
            q.explain.contains(needle),
            "missing {needle}:\n{}",
            q.explain
        );
    }
}

#[test]
fn unknown_column_and_table_fail_cleanly() {
    let Statement::Select(stmt) = parse("SELECT nope FROM fact").unwrap() else {
        panic!()
    };
    assert!(plan_query(&stmt, &catalog(), &HiveConf::new()).is_err());
    let Statement::Select(stmt) = parse("SELECT 1 FROM ghost").unwrap() else {
        panic!()
    };
    assert!(plan_query(&stmt, &catalog(), &HiveConf::new()).is_err());
}

#[test]
fn non_equi_join_is_rejected() {
    let Statement::Select(stmt) =
        parse("SELECT fact.k FROM fact JOIN dim1 ON (fact.k > dim1.k)").unwrap()
    else {
        panic!()
    };
    assert!(plan_query(&stmt, &catalog(), &HiveConf::new()).is_err());
}

#[test]
fn aggregate_of_nongrouped_column_is_rejected() {
    let Statement::Select(stmt) = parse("SELECT v, COUNT(*) FROM fact GROUP BY k").unwrap() else {
        panic!()
    };
    assert!(plan_query(&stmt, &catalog(), &HiveConf::new()).is_err());
}

#[test]
fn a_map_join_after_a_reduce_join_cuts_once() {
    // TPC-H q3's shape: `fact2` (lineitem) joins `fact` (orders) reduce-side,
    // `dim1` (customer) joins map-side after it, then the group-by shuffles.
    // Rule (a) cuts before the map join, the offender with none upstream of
    // it: the group-by's map half then runs in the same map phase, and the
    // statement is the join job plus one job for the map join and group-by.
    let q = compile_with(
        "SELECT fact2.k, SUM(fact2.v), fact.v FROM fact2 \
         JOIN fact ON (fact2.k = fact.k) \
         JOIN dim1 ON (fact.d1 = dim1.k) \
         WHERE dim1.name = 'BUILDING' \
         GROUP BY fact2.k, fact.v",
        |_| {},
    );
    assert_eq!(job_shape(&q), (0, 2), "{}", q.explain);
}

/// The test catalog, with `fact.k` and `fact2.k` stored in key order (one
/// file each) when `ordered`.
struct OrderedCatalog {
    tables: StaticCatalog,
    ordered: bool,
}

impl Catalog for OrderedCatalog {
    fn table(&self, name: &str) -> hive_common::Result<Option<TableMeta>> {
        self.tables.table(name)
    }

    fn order(&self, table: &TableMeta, column: usize, _cache_metadata: bool) -> Option<usize> {
        let keyed = ["fact", "fact2"].contains(&table.name.as_str()) && column == 0;
        (self.ordered && keyed).then_some(1)
    }
}

fn compile_ordered(sql: &str, ordered: bool) -> hive_planner::CompiledQuery {
    let Statement::Select(stmt) = parse(sql).unwrap() else {
        panic!("expected select")
    };
    let catalog = OrderedCatalog {
        tables: catalog(),
        ordered,
    };
    plan_query(&stmt, &catalog, &HiveConf::new()).unwrap()
}

/// TPC-H q18c's, q12j's and q3j's shapes over `fact2` (lineitem) and
/// `fact` (orders): one job each when both are stored in key order — q18c's
/// and q3j's map-only, their GROUP BYs final in the map task — and today's
/// shapes when they are not.
#[test]
fn ordered_tables_join_and_aggregate_inside_the_map_task() {
    let q18c = "SELECT fact.k, fact.v, t.q FROM fact \
                JOIN (SELECT k, SUM(v) AS q FROM fact2 GROUP BY k) t ON (fact.k = t.k) \
                WHERE t.q > 150";
    let q12j = "SELECT fact2.v, COUNT(*) FROM fact JOIN fact2 ON (fact.k = fact2.k) \
                GROUP BY fact2.v";
    let q3j = "SELECT fact2.k, SUM(fact2.v), fact.v FROM fact2 \
               JOIN fact ON (fact2.k = fact.k) \
               JOIN dim1 ON (fact.d1 = dim1.k) \
               WHERE dim1.name = 'BUILDING' \
               GROUP BY fact2.k, fact.v";
    for (sql, ordered_shape, shuffled_shape) in [
        (q18c, (1, 0), (0, 1)),
        (q12j, (0, 1), (0, 2)),
        (q3j, (1, 0), (0, 2)),
    ] {
        let q = compile_ordered(sql, true);
        assert_eq!(job_shape(&q), ordered_shape, "{sql}\n{}", q.explain);
        let job = &q.jobs[0];
        assert_eq!(job.inputs[0].key_order, Some(0), "{}", q.explain);
        assert!(
            job.side_inputs.iter().any(|s| s.ranged.is_some()),
            "{}",
            q.explain
        );
        assert!(q.explain.contains("  order: "), "{}", q.explain);

        let q = compile_ordered(sql, false);
        assert_eq!(job_shape(&q), shuffled_shape, "{sql}\n{}", q.explain);
        assert!(q
            .jobs
            .iter()
            .all(|j| j.inputs.iter().all(|i| i.key_order.is_none())));
        assert!(!q.explain.contains("order:"), "{}", q.explain);
    }
    // EXPLAIN names the evidence behind each key range.
    let q = compile_ordered(q12j, true);
    assert!(
        q.explain
            .contains("order: fact2.k (1 file), fact.k (1 file)")
            || q.explain
                .contains("order: fact.k (1 file), fact2.k (1 file)"),
        "{}",
        q.explain
    );
}

/// A GROUP BY keyed on the order column finishes in the map task; one
/// keyed elsewhere, or a global aggregate, keeps its shuffle.
#[test]
fn only_a_group_by_on_the_order_column_is_map_final() {
    for (sql, shape) in [
        ("SELECT k, SUM(v) FROM fact GROUP BY k", (1, 0)),
        ("SELECT d1, k, COUNT(*) FROM fact GROUP BY d1, k", (1, 0)),
        ("SELECT d1, SUM(v) FROM fact GROUP BY d1", (0, 1)),
        ("SELECT SUM(v) FROM fact", (0, 1)),
    ] {
        let q = compile_ordered(sql, true);
        assert_eq!(job_shape(&q), shape, "{sql}\n{}", q.explain);
    }
}
