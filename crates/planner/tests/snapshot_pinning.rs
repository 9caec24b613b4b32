//! One statement, one snapshot per table: the planner resolves each table
//! name against the catalog once, however many aliases, sub-queries,
//! passes or unqualified column references mention it.

use hive_common::config::keys;
use hive_common::{HiveConf, Schema};
use hive_formats::{AcidOverlay, FormatKind};
use hive_planner::{plan_query, translate, Catalog, CompiledQuery, TableMeta};
use hive_ql::{parse, SelectStmt, Statement};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A catalog whose ACID tables commit between any two calls: every
/// resolution returns a snapshot one version newer, with one more delta
/// file, than the one before — what a metastore under a concurrent writer
/// does to a planner that asks twice.
#[derive(Default)]
struct MovingCatalog {
    calls: RefCell<BTreeMap<String, u64>>,
}

impl MovingCatalog {
    fn calls(&self) -> BTreeMap<String, u64> {
        self.calls.borrow().clone()
    }
}

impl Catalog for MovingCatalog {
    fn table(&self, name: &str) -> hive_common::Result<Option<TableMeta>> {
        let name = name.to_ascii_lowercase();
        let version = {
            let mut calls = self.calls.borrow_mut();
            let n = calls.entry(name.clone()).or_insert(0);
            *n += 1;
            *n
        };
        if !["t", "u"].contains(&name.as_str()) {
            return Ok(None);
        }
        let delta_paths: Vec<String> = (1..=version)
            .map(|txn| format!("/w/{name}/delta_{txn:010}"))
            .collect();
        let mut paths = vec![format!("/w/{name}/part-00000")];
        paths.extend(delta_paths.iter().cloned());
        Ok(Some(TableMeta {
            schema: Schema::parse(&[
                ("k", "bigint"),
                ("a", "bigint"),
                ("b", "bigint"),
                ("c", "double"),
                ("d", "string"),
                ("e", "bigint"),
            ])
            .unwrap(),
            format: FormatKind::Orc,
            // `u` is the larger table, so CBO has sizes to compare.
            size_bytes: if name == "u" { 1 << 30 } else { 1 << 20 },
            paths,
            acid: Some(AcidOverlay {
                snapshot_gen: version,
                delta_paths,
                deletes: Arc::default(),
            }),
            name,
        }))
    }
}

fn select(sql: &str) -> SelectStmt {
    match parse(sql).unwrap() {
        Statement::Select(stmt) => stmt,
        other => panic!("expected a SELECT, got {other:?}"),
    }
}

/// Every scan of `table` in the compiled jobs, as (snapshot, files).
fn scans_of(q: &CompiledQuery, table: &str) -> Vec<(u64, Vec<String>)> {
    let dir = format!("/w/{table}/");
    q.jobs
        .iter()
        .flat_map(|j| j.inputs.iter())
        .filter(|i| i.paths[0].starts_with(&dir))
        .map(|i| {
            let overlay = i.overlay.as_ref().expect("ACID scan without its overlay");
            (overlay.snapshot_gen, i.paths.clone())
        })
        .collect()
}

fn assert_one_snapshot(q: &CompiledQuery, table: &str, scans: usize) {
    let got = scans_of(q, table);
    assert_eq!(got.len(), scans, "scans of `{table}`:\n{}", q.explain);
    assert!(
        got.iter().all(|s| *s == got[0]),
        "`{table}` was pinned at more than one snapshot: {got:?}"
    );
}

/// Reduce-side joins keep both sides as job inputs (a map join would move
/// one into a side input, which carries no overlay to compare).
fn reduce_joins() -> HiveConf {
    let mut conf = HiveConf::new();
    conf.set(keys::AUTO_CONVERT_JOIN, "false");
    conf
}

#[test]
fn a_self_join_scans_one_snapshot() {
    let cat = MovingCatalog::default();
    let q = plan_query(
        &select("SELECT x.k, y.a FROM t x JOIN t y ON (x.k = y.k) WHERE x.a > 3 AND y.b < 9"),
        &cat,
        &reduce_joins(),
    )
    .unwrap();
    assert_one_snapshot(&q, "t", 2);
    assert_eq!(cat.calls(), BTreeMap::from([("t".to_string(), 1)]));
}

#[test]
fn a_subquery_on_the_same_table_scans_the_outer_snapshot() {
    let cat = MovingCatalog::default();
    let q = plan_query(
        &select(
            "SELECT x.k, s.n FROM t x \
             JOIN (SELECT k, COUNT(*) AS n FROM t WHERE a > 1 GROUP BY k) s ON (x.k = s.k)",
        ),
        &cat,
        &reduce_joins(),
    )
    .unwrap();
    assert_one_snapshot(&q, "t", 2);
    assert_eq!(cat.calls(), BTreeMap::from([("t".to_string(), 1)]));
}

/// The regression guard for the 5.4 resolutions per statement: each
/// unqualified column reference used to cost one catalog call.
#[test]
fn unqualified_columns_do_not_multiply_catalog_calls() {
    let sql = "SELECT k, a, b FROM t WHERE c > 1.5 AND d = 'x' AND e < 7";
    let cat = MovingCatalog::default();
    let q = plan_query(&select(sql), &cat, &HiveConf::new()).unwrap();
    assert_one_snapshot(&q, "t", 1);
    assert_eq!(cat.calls(), BTreeMap::from([("t".to_string(), 1)]));

    // `translate` on its own (the entry point the benchmark times) pins too.
    let cat = MovingCatalog::default();
    translate(&select(sql), &cat, &HiveConf::new()).unwrap();
    assert_eq!(cat.calls(), BTreeMap::from([("t".to_string(), 1)]));
}

#[test]
fn join_reordering_and_translation_share_one_resolution_per_table() {
    let mut conf = reduce_joins();
    conf.set(keys::CBO_ENABLE, "true");
    let cat = MovingCatalog::default();
    let q = plan_query(
        &select(
            "SELECT x.k, y.a, z.b FROM t x \
             JOIN u y ON (x.k = y.k) JOIN t z ON (x.k = z.k) WHERE x.e > 2",
        ),
        &cat,
        &conf,
    )
    .unwrap();
    assert_one_snapshot(&q, "t", 2);
    assert_one_snapshot(&q, "u", 1);
    assert_eq!(
        cat.calls(),
        BTreeMap::from([("t".to_string(), 1), ("u".to_string(), 1)])
    );
}

#[test]
fn an_unknown_table_is_asked_for_once_and_stays_unknown() {
    let cat = MovingCatalog::default();
    let err = plan_query(
        &select("SELECT k FROM nope WHERE a > 1"),
        &cat,
        &HiveConf::new(),
    )
    .err()
    .expect("planning against a missing table must fail");
    assert!(err.to_string().contains("unknown table"), "{err}");
    assert_eq!(cat.calls(), BTreeMap::from([("nope".to_string(), 1)]));
}
