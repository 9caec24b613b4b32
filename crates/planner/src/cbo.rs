//! Cost-based join reordering — the paper's Section 9 mentions it as the
//! then-new direction ("Hive has introduced cost based optimizer.
//! Currently its used to do join ordering"); this is that feature.
//!
//! The rule is the classic greedy heuristic over a left-deep inner-join
//! chain: at each step, among the joins whose ON condition only references
//! bindings already in scope, pick the one with the smallest table. Small
//! tables join early, shrinking intermediate results and (downstream)
//! turning into Map Joins whose hash tables fit in memory.
//!
//! Gated by `hive.cbo.enable` (off by default, like Hive 0.13's).

use crate::catalog::Catalog;
use hive_ql::{Expr, Join, JoinKind, SelectStmt, TableRef};
use std::collections::BTreeSet;

/// Reorder the join chain of `stmt` (and, recursively, of FROM-clause
/// subqueries) by table size. Outer joins freeze the order: a chain with
/// any non-inner join is left untouched.
pub fn reorder_joins(stmt: &mut SelectStmt, catalog: &dyn Catalog) {
    // Recurse into subqueries first.
    visit_subqueries(&mut stmt.from, catalog);
    for j in &mut stmt.joins {
        visit_subqueries(&mut j.table, catalog);
    }

    if stmt.joins.len() < 2 {
        return;
    }
    if stmt.joins.iter().any(|j| j.kind != JoinKind::Inner) {
        return;
    }

    let mut in_scope: BTreeSet<String> = BTreeSet::new();
    in_scope.insert(stmt.from.binding().to_ascii_lowercase());
    let mut remaining: Vec<Join> = std::mem::take(&mut stmt.joins);
    let mut ordered = Vec::with_capacity(remaining.len());

    while !remaining.is_empty() {
        // Joins whose condition is satisfiable with the current scope.
        let mut candidates: Vec<(usize, u64)> = remaining
            .iter()
            .enumerate()
            .filter(|(_, j)| {
                let mut scope = in_scope.clone();
                scope.insert(j.table.binding().to_ascii_lowercase());
                condition_in_scope(&j.on, &scope)
            })
            .map(|(i, j)| (i, size_of(&j.table, catalog)))
            .collect();
        if candidates.is_empty() {
            // Cross-referencing conditions we cannot satisfy greedily:
            // fall back to the written order for the rest.
            ordered.append(&mut remaining);
            break;
        }
        candidates.sort_by_key(|&(i, size)| (size, i));
        let (pick, _) = candidates[0];
        let j = remaining.remove(pick);
        in_scope.insert(j.table.binding().to_ascii_lowercase());
        ordered.push(j);
    }
    stmt.joins = ordered;
}

fn visit_subqueries(tref: &mut TableRef, catalog: &dyn Catalog) {
    if let TableRef::Subquery { query, .. } = tref {
        reorder_joins(query, catalog);
    }
}

fn size_of(tref: &TableRef, catalog: &dyn Catalog) -> u64 {
    match tref {
        TableRef::Table { name, .. } => catalog
            .table(name)
            .map(|t| t.size_bytes)
            .unwrap_or(u64::MAX),
        // Derived tables: unknown, order them last.
        TableRef::Subquery { .. } => u64::MAX,
    }
}

/// Does every qualified column reference of `e` stay inside `scope`?
/// Unqualified references cannot be attributed without full resolution, so
/// they conservatively pin the expression (treated as out of scope).
fn condition_in_scope(e: &Expr, scope: &BTreeSet<String>) -> bool {
    let mut inside = true;
    e.walk(&mut |x| {
        if let Expr::Column { table, .. } = x {
            inside &= table
                .as_ref()
                .is_some_and(|t| scope.contains(&t.to_ascii_lowercase()));
        }
        inside
    });
    inside
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{StaticCatalog, TableMeta};
    use hive_common::Schema;
    use hive_ql::{parse, Statement};

    fn catalog() -> StaticCatalog {
        let t = |name: &str, size: u64| TableMeta {
            name: name.into(),
            schema: Schema::parse(&[("k", "bigint"), ("v", "bigint")]).unwrap(),
            format: hive_formats::FormatKind::Orc,
            paths: vec![],
            size_bytes: size,
            acid: None,
        };
        StaticCatalog {
            tables: vec![
                t("huge", 1 << 40),
                t("big", 1 << 30),
                t("mid", 1 << 20),
                t("tiny", 1 << 10),
            ],
        }
    }

    fn joins_of(sql: &str) -> Vec<String> {
        let Statement::Select(mut stmt) = parse(sql).unwrap() else {
            panic!()
        };
        reorder_joins(&mut stmt, &catalog());
        stmt.joins
            .iter()
            .map(|j| j.table.binding().to_string())
            .collect()
    }

    #[test]
    fn smallest_table_joins_first() {
        let order = joins_of(
            "SELECT huge.k FROM huge \
             JOIN big ON (huge.k = big.k) \
             JOIN tiny ON (huge.k = tiny.k) \
             JOIN mid ON (huge.k = mid.k)",
        );
        assert_eq!(order, vec!["tiny", "mid", "big"]);
    }

    #[test]
    fn scope_constraints_are_respected() {
        // tiny's condition depends on big, so big must come first even
        // though tiny is smaller.
        let order = joins_of(
            "SELECT huge.k FROM huge \
             JOIN big ON (huge.k = big.k) \
             JOIN tiny ON (big.v = tiny.k)",
        );
        assert_eq!(order, vec!["big", "tiny"]);
    }

    #[test]
    fn outer_joins_freeze_the_order() {
        let order = joins_of(
            "SELECT huge.k FROM huge \
             JOIN big ON (huge.k = big.k) \
             LEFT JOIN tiny ON (huge.k = tiny.k)",
        );
        assert_eq!(order, vec!["big", "tiny"], "written order preserved");
    }

    #[test]
    fn unqualified_conditions_fall_back_to_written_order() {
        let order = joins_of(
            "SELECT huge.k FROM huge \
             JOIN big ON (huge.k = k) \
             JOIN tiny ON (huge.k = tiny.k)",
        );
        // `k` is unattributable → big pins; tiny can still hoist ahead.
        assert_eq!(order, vec!["tiny", "big"]);
    }
}
