//! Name resolution through the planner's public entry points: a column
//! reference either binds to one FROM-clause entry or the statement is
//! rejected, the spelling of a reference never changes the plan, and a
//! WHERE conjunct is placed by what it is bound to.

use hive_common::config::keys;
use hive_common::{HiveConf, HiveError, Schema};
use hive_planner::catalog::{StaticCatalog, TableMeta};
use hive_planner::{plan_query, translate, PlanOp, Translation};
use hive_ql::{parse, SelectStmt, Statement};

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
                "trips",
                &[("city_id", "bigint"), ("fare", "double")],
                1 << 30,
            ),
            t("a", &[("k", "bigint"), ("v", "bigint")], 1 << 20),
            t("b", &[("k", "bigint"), ("name", "string")], 1 << 20),
            // A q27-style chain: every column name belongs to one table.
            t(
                "sales",
                &[("s_item", "bigint"), ("s_store", "bigint")],
                1 << 40,
            ),
            t(
                "item",
                &[("i_id", "bigint"), ("i_brand", "bigint")],
                1 << 30,
            ),
            t("store", &[("st_id", "bigint")], 1 << 10),
        ],
    }
}

fn select(sql: &str) -> SelectStmt {
    match parse(sql).unwrap() {
        Statement::Select(stmt) => stmt,
        other => panic!("expected a SELECT, got {other:?}"),
    }
}

fn translated(sql: &str) -> Translation {
    translate(&select(sql), &catalog(), &HiveConf::new()).unwrap()
}

fn explain(sql: &str, conf: &HiveConf) -> String {
    plan_query(&select(sql), &catalog(), conf).unwrap().explain
}

#[test]
fn a_qualifier_the_scope_does_not_hold_is_an_unknown_column() {
    for sql in [
        // No such FROM item: the conjunct used to be filed under `zz` and
        // never evaluated.
        "SELECT COUNT(*) FROM trips WHERE zz.fare > 1",
        // An alias hides the table's own name.
        "SELECT COUNT(*) FROM trips t WHERE trips.fare > 1",
        "SELECT zz.fare FROM trips",
        "SELECT fare FROM trips ORDER BY zz.fare",
        "SELECT a.k FROM a JOIN b ON (a.k = zz.k)",
        // The binding exists, the column does not.
        "SELECT COUNT(*) FROM trips WHERE trips.nope > 1",
    ] {
        let err = translate(&select(sql), &catalog(), &HiveConf::new()).unwrap_err();
        assert!(
            matches!(&err, HiveError::Semantic(m) if m.contains("unknown column")),
            "{sql}: {err}"
        );
    }
    let ambiguous = translate(
        &select("SELECT k FROM a JOIN b ON (a.k = b.k)"),
        &catalog(),
        &HiveConf::new(),
    )
    .unwrap_err();
    assert!(ambiguous.to_string().contains("ambiguous column"));
}

/// Every way to spell one statement plans to the same text, node ids
/// included.
#[test]
fn the_spelling_of_a_reference_never_changes_the_plan() {
    let reduce_joins = {
        let mut conf = HiveConf::new();
        conf.set(keys::AUTO_CONVERT_JOIN, "false");
        conf
    };
    for (conf, spellings) in [
        (
            HiveConf::new(),
            vec![
                "SELECT city_id, SUM(fare) AS s FROM trips WHERE fare > 2.5 \
                 GROUP BY city_id HAVING COUNT(*) > 1 ORDER BY s",
                "SELECT trips.city_id, SUM(trips.fare) AS s FROM trips WHERE trips.fare > 2.5 \
                 GROUP BY trips.city_id HAVING COUNT(*) > 1 ORDER BY s",
                "SELECT trips.city_id, SUM(fare) AS s FROM trips WHERE trips.fare > 2.5 \
                 GROUP BY city_id HAVING COUNT(*) > 1 ORDER BY s",
            ],
        ),
        (
            reduce_joins,
            vec![
                "SELECT v, name FROM a JOIN b ON (a.k = b.k) WHERE v > 3 AND name = 'x'",
                "SELECT a.v, b.name FROM a JOIN b ON (a.k = b.k) WHERE a.v > 3 AND b.name = 'x'",
            ],
        ),
        (
            HiveConf::new(),
            vec![
                "SELECT n FROM (SELECT k, COUNT(*) AS n FROM a GROUP BY k) s WHERE n > 1",
                "SELECT s.n FROM (SELECT a.k, COUNT(*) AS n FROM a GROUP BY a.k) s WHERE s.n > 1",
            ],
        ),
    ] {
        let plans: Vec<String> = spellings.iter().map(|sql| explain(sql, &conf)).collect();
        for (sql, plan) in spellings.iter().zip(&plans) {
            assert_eq!(plan, &plans[0], "{sql}");
        }
    }
}

/// (has a SearchArgument, is filtered before the join) per scanned alias.
fn scan_filters(t: &Translation, alias: &str) -> (bool, bool) {
    let scan = t
        .graph
        .nodes
        .iter()
        .find(|n| matches!(&n.op, PlanOp::TableScan { alias: a, .. } if a == alias))
        .unwrap_or_else(|| panic!("no scan of `{alias}`"));
    let PlanOp::TableScan { sarg, .. } = &scan.op else {
        unreachable!()
    };
    let child = &t.graph.nodes[scan.children[0]];
    (sarg.is_some(), matches!(child.op, PlanOp::Filter { .. }))
}

#[test]
fn a_conjunct_on_a_null_supplying_side_runs_after_the_join() {
    for (sql, alias) in [
        ("SELECT a.k, b.name FROM a LEFT OUTER JOIN b ON (a.k = b.k) WHERE b.name = 'x'", "b"),
        ("SELECT a.k, b.name FROM a LEFT OUTER JOIN b ON (a.k = b.k) WHERE b.name IS NULL", "b"),
        ("SELECT a.k, b.name FROM b RIGHT OUTER JOIN a ON (a.k = b.k) WHERE b.name = 'x'", "b"),
        ("SELECT a.k, b.name FROM a FULL OUTER JOIN b ON (a.k = b.k) WHERE a.k > 3", "a"),
        ("SELECT a.k, b.name FROM a FULL OUTER JOIN b ON (a.k = b.k) WHERE b.k > 3", "b"),
        // A later RIGHT join null-extends everything joined before it.
        (
            "SELECT a.k FROM a JOIN b ON (a.k = b.k) RIGHT OUTER JOIN trips ON (a.k = trips.city_id) \
             WHERE b.name = 'x'",
            "b",
        ),
    ] {
        let t = translated(sql);
        assert_eq!(scan_filters(&t, alias), (false, false), "{sql}");
        let joins = t.graph.find(|n| matches!(n.op, PlanOp::Join { .. }));
        let last = *joins.last().expect("a join");
        let after = &t.graph.nodes[t.graph.nodes[last].children[0]];
        assert!(matches!(after.op, PlanOp::Filter { .. }), "{sql}");
    }
}

#[test]
fn a_conjunct_on_a_preserved_side_still_reaches_the_scan() {
    for (sql, alias) in [
        ("SELECT a.k, b.name FROM a LEFT OUTER JOIN b ON (a.k = b.k) WHERE a.k > 1", "a"),
        ("SELECT a.k, b.name FROM a RIGHT OUTER JOIN b ON (a.k = b.k) WHERE b.k > 1", "b"),
        ("SELECT a.k, b.name FROM a JOIN b ON (a.k = b.k) WHERE b.name = 'x'", "b"),
        // The LEFT join's own entry is null-supplying; what came before is not.
        (
            "SELECT a.k FROM a JOIN b ON (a.k = b.k) LEFT OUTER JOIN trips ON (a.k = trips.city_id) \
             WHERE b.name = 'x'",
            "b",
        ),
    ] {
        assert_eq!(scan_filters(&translated(sql), alias), (true, true), "{sql}");
    }
}

/// The order `plan_query` joins in: scans take node ids as they are built.
fn join_order(sql: &str, cbo: bool) -> Vec<String> {
    let mut conf = HiveConf::new();
    conf.set(keys::AUTO_CONVERT_JOIN, "false");
    conf.set(keys::CBO_ENABLE, if cbo { "true" } else { "false" });
    let q = plan_query(&select(sql), &catalog(), &conf).unwrap();
    let mut scans: Vec<(usize, String)> = q
        .jobs
        .iter()
        .flat_map(|j| j.inputs.iter())
        .filter_map(|i| i.alias.split_once('#'))
        .filter(|(alias, _)| *alias != "intermediate" && *alias != "cut")
        .map(|(alias, id)| (id.parse().unwrap(), alias.to_string()))
        .collect();
    scans.sort();
    scans.into_iter().map(|(_, alias)| alias).collect()
}

#[test]
fn cbo_reorders_an_unqualified_join_chain() {
    let sql = "SELECT s_item FROM sales \
               JOIN item ON (s_item = i_id) \
               JOIN store ON (s_store = st_id)";
    assert_eq!(join_order(sql, false), ["sales", "item", "store"]);
    assert_eq!(join_order(sql, true), ["sales", "store", "item"]);
    // ...exactly as it does the qualified spelling.
    let qualified = "SELECT sales.s_item FROM sales \
                     JOIN item ON (sales.s_item = item.i_id) \
                     JOIN store ON (sales.s_store = store.st_id)";
    assert_eq!(join_order(qualified, true), ["sales", "store", "item"]);
}
