//! Semantic analysis: AST → resolved operator DAG.
//!
//! Performs name resolution against the catalog, column pruning into table
//! scans, predicate pushdown (including SearchArgument extraction for
//! storage-level PPD), ReduceSink insertion for joins and aggregations, and
//! the map-side/reduce-side aggregation split.

use crate::catalog::{Catalog, PinnedCatalog};
use crate::plan::{
    agg_output_type, expr_type, AggCall, ColumnInfo, GroupByPhase, PlanGraph, PlanOp,
};
use hive_common::config::keys;
use hive_common::{DataType, HiveConf, HiveError, Result, Schema, Value};
use hive_exec::agg::{parse_agg_function, AggFunction};
use hive_exec::expr::{BinaryOp, ExprNode, UnaryOp};
use hive_exec::operators::JoinType;
use hive_formats::{PredicateLeaf, PredicateOp, SearchArgument};
use hive_ql::{BinOp, Expr, JoinKind, SelectStmt, TableRef, UnOp};
use std::collections::{BTreeMap, BTreeSet};

/// Reduce tasks per shuffle unless the plan pins another count (a global
/// aggregate pins one), sized to the paper's 10-node cluster.
const REDUCE_TASKS: usize = 10;

/// A translated query: the operator DAG plus the driver-side finishing
/// steps (final sort and limit; see DESIGN.md on ORDER BY handling).
#[derive(Debug, Clone)]
pub struct Translation {
    pub graph: PlanGraph,
    /// Final-output column index + ascending flag.
    pub order_by: Vec<(usize, bool)>,
    pub limit: Option<u64>,
    /// Names of the final output columns.
    pub output_names: Vec<String>,
}

/// A relation under construction: a plan node plus its column bindings.
#[derive(Debug, Clone)]
struct Rel {
    node: usize,
    /// Per output column: (binding, column name, type).
    cols: Vec<(Option<String>, String, DataType)>,
}

impl Rel {
    fn schema(&self) -> Vec<ColumnInfo> {
        self.cols
            .iter()
            .map(|(_, n, t)| ColumnInfo::new(n.clone(), t.clone()))
            .collect()
    }

    /// Find a column by (optional) qualifier and name.
    fn lookup(&self, table: Option<&str>, name: &str) -> Result<usize> {
        let name_l = name.to_ascii_lowercase();
        let mut hits = Vec::new();
        for (i, (binding, cname, _)) in self.cols.iter().enumerate() {
            if cname.to_ascii_lowercase() != name_l {
                continue;
            }
            match (table, binding) {
                (Some(t), Some(b)) if t.eq_ignore_ascii_case(b) => hits.push(i),
                (None, _) => hits.push(i),
                _ => {}
            }
        }
        match hits.len() {
            0 => Err(HiveError::Semantic(format!(
                "unknown column `{}{}`",
                table.map(|t| format!("{t}.")).unwrap_or_default(),
                name
            ))),
            1 => Ok(hits[0]),
            _ => Err(HiveError::Semantic(format!("ambiguous column `{name}`"))),
        }
    }
}

/// Translate a SELECT into an operator DAG ending in a FileSink.
pub fn translate(stmt: &SelectStmt, catalog: &dyn Catalog, conf: &HiveConf) -> Result<Translation> {
    translate_pinned(stmt, &PinnedCatalog::new(catalog), conf)
}

/// [`translate`] against a catalog the caller already pinned. The passes
/// below look tables up by name, some once per column reference; the pin
/// makes that one catalog resolution per table.
pub(crate) fn translate_pinned(
    stmt: &SelectStmt,
    catalog: &PinnedCatalog<'_>,
    conf: &HiveConf,
) -> Result<Translation> {
    let mut g = PlanGraph::default();
    let (rel, order_by, limit, names) = plan_select(&mut g, stmt, catalog, conf)?;
    let schema = rel.schema();
    g.add(PlanOp::FileSink, schema, vec![rel.node]);
    Ok(Translation {
        graph: g,
        order_by,
        limit,
        output_names: names,
    })
}

#[allow(clippy::type_complexity)]
fn plan_select(
    g: &mut PlanGraph,
    stmt: &SelectStmt,
    catalog: &dyn Catalog,
    conf: &HiveConf,
) -> Result<(Rel, Vec<(usize, bool)>, Option<u64>, Vec<String>)> {
    // ------ 1. Column-usage pre-pass for scan pruning. -----------------
    let bindings = collect_bindings(stmt);
    let mut used: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    {
        let mut record = |e: &Expr| collect_columns(e, &bindings, catalog, &mut used);
        for p in &stmt.projections {
            record(&p.expr);
        }
        for j in &stmt.joins {
            record(&j.on);
        }
        if let Some(w) = &stmt.where_clause {
            record(w);
        }
        for e in &stmt.group_by {
            record(e);
        }
        if let Some(h) = &stmt.having {
            record(h);
        }
        for o in &stmt.order_by {
            record(&o.expr);
        }
        // SELECT * needs everything.
        if stmt
            .projections
            .iter()
            .any(|p| matches!(p.expr, Expr::Star))
        {
            for (binding, tref) in &bindings {
                if let TableRef::Table { name, .. } = tref {
                    if let Some(meta) = catalog.table(name) {
                        let set = used.entry(binding.clone()).or_default();
                        for f in meta.schema.fields() {
                            set.insert(f.name.to_ascii_lowercase());
                        }
                    }
                }
            }
        }
    }

    // ------ 2. WHERE split by binding. ---------------------------------
    let empty_where = Expr::Literal(Value::Boolean(true));
    let where_expr = stmt.where_clause.as_ref().unwrap_or(&empty_where);
    let mut per_binding: BTreeMap<String, Vec<&Expr>> = BTreeMap::new();
    let mut post_join: Vec<&Expr> = Vec::new();
    for conj in where_expr.conjuncts() {
        if matches!(conj, Expr::Literal(Value::Boolean(true))) {
            continue;
        }
        match owning_binding(conj, &bindings, catalog) {
            Some(b) => per_binding.entry(b).or_default().push(conj),
            None => post_join.push(conj),
        }
    }

    // ------ 3. Base relations with pushed-down filters. -----------------
    let build_rel = |g: &mut PlanGraph, tref: &TableRef| -> Result<Rel> {
        let binding = tref.binding().to_string();
        let mut rel = plan_table_ref(g, tref, catalog, conf, used.get(&binding))?;
        if let Some(conjs) = per_binding.get(&binding) {
            // Storage-level pushdown into the scan, then a residual Filter
            // (ORC may return whole index groups; the Filter stays correct).
            let pred = conjs
                .iter()
                .map(|e| resolve(e, &rel))
                .collect::<Result<Vec<_>>>()?
                .into_iter()
                .reduce(|a, b| ExprNode::binary(BinaryOp::And, a, b))
                .unwrap();
            if conf.get_bool(keys::OPT_PPD_STORAGE).unwrap_or(true) {
                attach_sarg(g, &rel, &pred);
            }
            let schema = rel.schema();
            let f = g.add(PlanOp::Filter { predicate: pred }, schema, vec![rel.node]);
            rel.node = f;
        }
        Ok(rel)
    };

    let mut acc = build_rel(g, &stmt.from)?;

    // ------ 4. Joins (left-deep chain of binary reduce joins). ----------
    //
    // Consecutive *outer* joins over the same key collapse into one n-ary
    // Join operator, like Hive's JoinOperator merge. The row engine only
    // implements binary outer joins, so such plans surface its
    // "outer joins must be binary" error as a typed HiveError at run time
    // instead of silently producing a wrong left-deep answer.
    let mut outer_merge: Option<OuterMerge> = None;
    for join in &stmt.joins {
        let right = build_rel(g, &join.table)?;
        let (equi, residual) = split_join_condition(&join.on, &acc, &right)?;
        if equi.is_empty() {
            return Err(HiveError::Semantic(
                "join without an equality condition is not supported".into(),
            ));
        }
        let kind = match join.kind {
            JoinKind::Inner => JoinType::Inner,
            JoinKind::LeftOuter => JoinType::LeftOuter,
            JoinKind::RightOuter => JoinType::RightOuter,
            JoinKind::FullOuter => JoinType::FullOuter,
        };
        if let Some(state) = outer_merge.as_mut().filter(|s| {
            kind != JoinType::Inner
                && s.node == acc.node
                && s.kind == kind
                && s.nk == equi.len()
                && residual.is_empty()
                && equi
                    .iter()
                    .enumerate()
                    .all(|(i, (l, _))| matches!(l, ExprNode::Column(c) if s.equiv[i].contains(c)))
        }) {
            merge_outer_join(g, state, &mut acc, right, &equi, REDUCE_TASKS)?;
            continue;
        }
        let nk = equi.len();
        let left_len = acc.cols.len();
        let key_cols: Vec<(Option<usize>, Option<usize>)> = equi
            .iter()
            .map(|(l, r)| {
                let col = |e: &ExprNode| match e {
                    ExprNode::Column(c) => Some(*c),
                    _ => None,
                };
                (col(l), col(r))
            })
            .collect();
        acc = add_reduce_join(g, acc, right, &equi, kind, REDUCE_TASKS)?;
        let mergeable = kind != JoinType::Inner && residual.is_empty();
        for r in residual {
            let pred = resolve(r, &acc)?;
            let schema = acc.schema();
            let f = g.add(PlanOp::Filter { predicate: pred }, schema, vec![acc.node]);
            acc.node = f;
        }
        outer_merge = mergeable.then(|| {
            // Columns of the joined layout [_lkeys, l_cols, _rkeys, r_cols]
            // known equal to key i, so a later join keyed on any of them
            // can merge in.
            let mut equiv = vec![BTreeSet::new(); nk];
            for (i, (lc, rc)) in key_cols.iter().enumerate() {
                equiv[i].insert(i);
                if let Some(c) = lc {
                    equiv[i].insert(nk + c);
                }
                equiv[i].insert(nk + left_len + i);
                if let Some(c) = rc {
                    equiv[i].insert(nk + left_len + nk + c);
                }
            }
            OuterMerge {
                node: acc.node,
                kind,
                nk,
                equiv,
            }
        });
    }

    // ------ 5. Post-join WHERE conjuncts. --------------------------------
    for conj in post_join {
        let pred = resolve(conj, &acc)?;
        let schema = acc.schema();
        let f = g.add(PlanOp::Filter { predicate: pred }, schema, vec![acc.node]);
        acc.node = f;
    }

    // ------ 6. Aggregation. ----------------------------------------------
    let mut agg_calls: Vec<Expr> = Vec::new();
    for p in &stmt.projections {
        collect_agg_calls(&p.expr, &mut agg_calls);
    }
    if let Some(h) = &stmt.having {
        collect_agg_calls(h, &mut agg_calls);
    }
    for o in &stmt.order_by {
        collect_agg_calls(&o.expr, &mut agg_calls);
    }
    let has_agg = !agg_calls.is_empty() || !stmt.group_by.is_empty();

    let (final_rel, group_subst): (Rel, Option<GroupSubst>) = if has_agg {
        let (rel, subst) = add_aggregation(g, acc, &stmt.group_by, &agg_calls)?;
        (rel, Some(subst))
    } else {
        (acc, None)
    };

    // ------ 7. HAVING. -----------------------------------------------------
    let mut final_rel = final_rel;
    if let Some(h) = &stmt.having {
        let pred = match &group_subst {
            Some(s) => resolve_with_groups(h, s)?,
            None => resolve(h, &final_rel)?,
        };
        let schema = final_rel.schema();
        let f = g.add(
            PlanOp::Filter { predicate: pred },
            schema,
            vec![final_rel.node],
        );
        final_rel.node = f;
    }

    // ------ 8. Final projection. ------------------------------------------
    let mut out_exprs = Vec::new();
    let mut out_cols = Vec::new();
    let mut out_names = Vec::new();
    for (i, p) in stmt.projections.iter().enumerate() {
        if matches!(p.expr, Expr::Star) {
            for (c, (b, n, t)) in final_rel.cols.iter().enumerate() {
                out_exprs.push(ExprNode::col(c));
                out_cols.push((b.clone(), n.clone(), t.clone()));
                out_names.push(n.clone());
            }
            continue;
        }
        let e = match &group_subst {
            Some(s) => resolve_with_groups(&p.expr, s)?,
            None => resolve(&p.expr, &final_rel)?,
        };
        let t = expr_type(&e, &final_rel.schema())?;
        let name = p.alias.clone().unwrap_or_else(|| match &p.expr {
            Expr::Column { name, .. } => name.clone(),
            _ => format!("_c{i}"),
        });
        out_exprs.push(e);
        out_cols.push((None, name.clone(), t));
        out_names.push(name);
    }
    let out_schema: Vec<ColumnInfo> = out_cols
        .iter()
        .map(|(_, n, t)| ColumnInfo::new(n.clone(), t.clone()))
        .collect();
    let sel = g.add(
        PlanOp::Select {
            exprs: out_exprs.clone(),
        },
        out_schema,
        vec![final_rel.node],
    );
    let mut result = Rel {
        node: sel,
        cols: out_cols,
    };

    // ------ 9. ORDER BY: resolve to output positions (driver-side sort). --
    let mut order_by = Vec::new();
    for o in &stmt.order_by {
        let idx = resolve_order_item(
            &o.expr,
            stmt,
            &out_names,
            &group_subst,
            &final_rel,
            &out_exprs,
        )?;
        order_by.push((idx, o.ascending));
    }

    // ------ 10. LIMIT (plan-level only when no final sort is pending). ----
    let limit = stmt.limit;
    if let Some(n) = limit {
        if order_by.is_empty() {
            let schema = result.schema();
            let l = g.add(PlanOp::Limit(n), schema, vec![result.node]);
            result.node = l;
        }
    }

    Ok((result, order_by, limit, out_names))
}

/// Collect `(binding, table_ref)` pairs from the FROM clause.
fn collect_bindings(stmt: &SelectStmt) -> Vec<(String, TableRef)> {
    let mut out = vec![(stmt.from.binding().to_string(), stmt.from.clone())];
    for j in &stmt.joins {
        out.push((j.table.binding().to_string(), j.table.clone()));
    }
    out
}

/// Record every column reference of `e` against its owning binding.
fn collect_columns(
    e: &Expr,
    bindings: &[(String, TableRef)],
    catalog: &dyn Catalog,
    used: &mut BTreeMap<String, BTreeSet<String>>,
) {
    e.walk(&mut |x| {
        let Expr::Column { table, name } = x else {
            return true;
        };
        let name_l = name.to_ascii_lowercase();
        match table {
            Some(t) => {
                used.entry(t.to_ascii_lowercase())
                    .or_default()
                    .insert(name_l);
            }
            None => {
                // Attribute to whichever binding's table has the column.
                for (binding, tref) in bindings {
                    let has = match tref {
                        TableRef::Table { name: tname, .. } => catalog
                            .table(tname)
                            .map(|m| m.schema.index_of(name).is_ok())
                            .unwrap_or(false),
                        TableRef::Subquery { query, .. } => query.projections.iter().any(|p| {
                            p.alias.as_deref().map(|a| a.eq_ignore_ascii_case(name)).unwrap_or(
                                matches!(&p.expr, Expr::Column { name: n, .. } if n.eq_ignore_ascii_case(name)),
                            )
                        }),
                    };
                    if has {
                        used.entry(binding.to_ascii_lowercase())
                            .or_default()
                            .insert(name_l.clone());
                    }
                }
            }
        }
        true
    });
}

/// The single binding `e` references, or None (zero or several).
fn owning_binding(
    e: &Expr,
    bindings: &[(String, TableRef)],
    catalog: &dyn Catalog,
) -> Option<String> {
    let mut used: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    collect_columns(e, bindings, catalog, &mut used);
    let refs: Vec<&String> = used
        .iter()
        .filter(|(_, v)| !v.is_empty())
        .map(|(k, _)| k)
        .collect();
    if refs.len() == 1 {
        Some(refs[0].clone())
    } else {
        None
    }
}

/// Plan a FROM-clause table reference.
fn plan_table_ref(
    g: &mut PlanGraph,
    tref: &TableRef,
    catalog: &dyn Catalog,
    conf: &HiveConf,
    used: Option<&BTreeSet<String>>,
) -> Result<Rel> {
    match tref {
        TableRef::Table { name, alias } => {
            let meta = catalog
                .table(name)
                .ok_or_else(|| HiveError::Semantic(format!("unknown table `{name}`")))?;
            let binding = alias.clone().unwrap_or_else(|| name.clone());
            // Column pruning: only the referenced columns are scanned.
            let projection: Vec<usize> = match used {
                Some(set) if !set.is_empty() => meta
                    .schema
                    .fields()
                    .iter()
                    .enumerate()
                    .filter(|(_, f)| set.contains(&f.name.to_ascii_lowercase()))
                    .map(|(i, _)| i)
                    .collect(),
                _ => (0..meta.schema.len()).collect(),
            };
            let projection = if projection.is_empty() {
                vec![0] // always scan something (COUNT(*)-only queries)
            } else {
                projection
            };
            let cols: Vec<(Option<String>, String, DataType)> = projection
                .iter()
                .map(|&i| {
                    let f = meta.schema.field(i);
                    (Some(binding.clone()), f.name.clone(), f.data_type.clone())
                })
                .collect();
            let schema: Vec<ColumnInfo> = cols
                .iter()
                .map(|(_, n, t)| ColumnInfo::new(n.clone(), t.clone()))
                .collect();
            let node = g.add(
                PlanOp::TableScan {
                    alias: binding.clone(),
                    table: meta,
                    projection,
                    sarg: None,
                },
                schema,
                vec![],
            );
            Ok(Rel { node, cols })
        }
        TableRef::Subquery { query, alias } => {
            let (mut rel, order, _limit, _names) = plan_select(g, query, catalog, conf)?;
            if !order.is_empty() {
                return Err(HiveError::Semantic(
                    "ORDER BY in FROM-clause subqueries is not supported".into(),
                ));
            }
            // Re-bind output columns under the subquery alias.
            for c in rel.cols.iter_mut() {
                c.0 = Some(alias.clone());
            }
            Ok(rel)
        }
    }
}

/// Lower an AST expression to the row engine's [`ExprNode`] — the only
/// function that builds one from a `hive_ql::Expr`, and the extension point
/// for anything that must see every lowered expression.
///
/// `leaf` is asked about each node before its structure is lowered:
/// `Some(node)` stands in for that whole sub-tree, `None` lets the lowering
/// continue into it. Columns, functions and `*` mean something only in a
/// context — a relation, a table schema, an aggregation output — so the hook
/// must answer them; one it leaves unanswered is an error.
///
/// A negated numeric literal folds to a plain `Literal` here, once: the
/// parser leaves `-181` as `Neg(181)`, and everything downstream (sarg
/// extraction, the col-scalar vector templates) matches on `Literal` alone.
pub fn lower(
    e: &Expr,
    leaf: &mut dyn FnMut(&Expr) -> Result<Option<ExprNode>>,
) -> Result<ExprNode> {
    if let Some(node) = leaf(e)? {
        return Ok(node);
    }
    let mut sub = |x: &Expr| lower(x, leaf);
    Ok(match e {
        Expr::Literal(v) => ExprNode::Literal(v.clone()),
        Expr::Binary { op, left, right } => ExprNode::Binary {
            op: match op {
                BinOp::Add => BinaryOp::Add,
                BinOp::Subtract => BinaryOp::Subtract,
                BinOp::Multiply => BinaryOp::Multiply,
                BinOp::Divide => BinaryOp::Divide,
                BinOp::Modulo => BinaryOp::Modulo,
                BinOp::Eq => BinaryOp::Eq,
                BinOp::NotEq => BinaryOp::NotEq,
                BinOp::Lt => BinaryOp::Lt,
                BinOp::LtEq => BinaryOp::LtEq,
                BinOp::Gt => BinaryOp::Gt,
                BinOp::GtEq => BinaryOp::GtEq,
                BinOp::And => BinaryOp::And,
                BinOp::Or => BinaryOp::Or,
            },
            left: Box::new(sub(left)?),
            right: Box::new(sub(right)?),
        },
        Expr::Unary {
            op: UnOp::Neg,
            expr,
        } => match sub(expr)? {
            ExprNode::Literal(Value::Int(i)) if i.checked_neg().is_some() => {
                ExprNode::Literal(Value::Int(-i))
            }
            ExprNode::Literal(Value::Double(d)) => ExprNode::Literal(Value::Double(-d)),
            inner => ExprNode::Unary {
                op: UnaryOp::Neg,
                expr: Box::new(inner),
            },
        },
        Expr::Unary {
            op: UnOp::Not,
            expr,
        } => ExprNode::Unary {
            op: UnaryOp::Not,
            expr: Box::new(sub(expr)?),
        },
        Expr::Between {
            expr,
            lo,
            hi,
            negated,
        } => ExprNode::Between {
            expr: Box::new(sub(expr)?),
            lo: Box::new(sub(lo)?),
            hi: Box::new(sub(hi)?),
            negated: *negated,
        },
        Expr::IsNull { expr, negated } => ExprNode::IsNull {
            expr: Box::new(sub(expr)?),
            negated: *negated,
        },
        Expr::InList {
            expr,
            list,
            negated,
        } => ExprNode::InList {
            expr: Box::new(sub(expr)?),
            list: list.iter().map(&mut sub).collect::<Result<_>>()?,
            negated: *negated,
        },
        Expr::Cast { expr, target } => ExprNode::Cast {
            expr: Box::new(sub(expr)?),
            target: target.clone(),
        },
        Expr::Case {
            branches,
            else_value,
        } => ExprNode::Case {
            branches: branches
                .iter()
                .map(|(c, v)| Ok((sub(c)?, sub(v)?)))
                .collect::<Result<_>>()?,
            else_value: match else_value {
                Some(x) => Some(Box::new(sub(x)?)),
                None => None,
            },
        },
        Expr::Column { table, name } => {
            return Err(HiveError::Semantic(format!(
                "unknown column `{}{name}`",
                table.as_ref().map(|t| format!("{t}.")).unwrap_or_default()
            )))
        }
        Expr::Function { name, .. } => {
            return Err(HiveError::Semantic(format!(
                "function `{name}` is not valid here (aggregates need GROUP BY context; \
                 scalar UDFs are not supported)"
            )))
        }
        Expr::Star => return Err(HiveError::Semantic("`*` is only valid in COUNT(*)".into())),
    })
}

/// Resolve an AST expression against a relation: columns bind by
/// (qualifier, name) to the relation's output positions.
fn resolve(e: &Expr, rel: &Rel) -> Result<ExprNode> {
    lower(e, &mut |x| match x {
        Expr::Column { table, name } => rel
            .lookup(table.as_deref(), name)
            .map(|i| Some(ExprNode::Column(i))),
        _ => Ok(None),
    })
}

/// Lower a DML predicate or SET expression over the table's own schema.
/// These are scalar-only: against a single row an aggregate has no
/// meaning, and neither does `*`.
pub fn lower_dml(e: &Expr, schema: &Schema) -> Result<ExprNode> {
    lower(e, &mut |x| match x {
        Expr::Column { name, .. } => Ok(Some(ExprNode::col(schema.index_of(name)?))),
        Expr::Function { name, .. } => Err(HiveError::Plan(format!(
            "function `{name}` is not allowed in DML expressions"
        ))),
        Expr::Star => Err(HiveError::Plan(
            "`*` is not allowed in DML expressions".into(),
        )),
        _ => Ok(None),
    })
}

/// Extract a SearchArgument from scan-level conjuncts and attach it
/// (column indexes refer to the *table schema*, pre-projection).
fn attach_sarg(g: &mut PlanGraph, rel: &Rel, pred: &ExprNode) {
    let node = rel.node;
    let projection = match &g.node(node).op {
        PlanOp::TableScan { projection, .. } => projection.clone(),
        _ => return,
    };
    let mut leaves = Vec::new();
    collect_sarg_leaves(pred, &projection, &mut leaves);
    if !leaves.is_empty() {
        if let PlanOp::TableScan { sarg: s, .. } = &mut g.node_mut(node).op {
            *s = Some(SearchArgument::new(leaves));
        }
    }
}

fn collect_sarg_leaves(e: &ExprNode, projection: &[usize], out: &mut Vec<PredicateLeaf>) {
    match e {
        ExprNode::Binary {
            op: BinaryOp::And,
            left,
            right,
        } => {
            collect_sarg_leaves(left, projection, out);
            collect_sarg_leaves(right, projection, out);
        }
        ExprNode::Binary { op, left, right } => {
            let mapped = |i: usize| projection.get(i).copied();
            let (col, lit, op) = match (&**left, &**right) {
                (ExprNode::Column(i), ExprNode::Literal(v)) => (mapped(*i), v.clone(), *op),
                (ExprNode::Literal(v), ExprNode::Column(i)) => {
                    // Flip the comparison: lit OP col ≡ col OP' lit.
                    let flipped = match op {
                        BinaryOp::Lt => BinaryOp::Gt,
                        BinaryOp::LtEq => BinaryOp::GtEq,
                        BinaryOp::Gt => BinaryOp::Lt,
                        BinaryOp::GtEq => BinaryOp::LtEq,
                        other => *other,
                    };
                    (mapped(*i), v.clone(), flipped)
                }
                _ => return,
            };
            let Some(col) = col else { return };
            let pop = match op {
                BinaryOp::Eq => PredicateOp::Equals,
                BinaryOp::NotEq => PredicateOp::NotEquals,
                BinaryOp::Lt => PredicateOp::LessThan,
                BinaryOp::LtEq => PredicateOp::LessThanEquals,
                BinaryOp::Gt => PredicateOp::GreaterThan,
                BinaryOp::GtEq => PredicateOp::GreaterThanEquals,
                _ => return,
            };
            out.push(PredicateLeaf::new(col, pop, Some(lit)));
        }
        ExprNode::Between {
            expr,
            lo,
            hi,
            negated: false,
        } => {
            if let (ExprNode::Column(i), ExprNode::Literal(l), ExprNode::Literal(h)) =
                (&**expr, &**lo, &**hi)
            {
                if let Some(col) = projection.get(*i).copied() {
                    out.push(PredicateLeaf::between(col, l.clone(), h.clone()));
                }
            }
        }
        ExprNode::IsNull { expr, negated } => {
            if let ExprNode::Column(i) = &**expr {
                if let Some(col) = projection.get(*i).copied() {
                    out.push(PredicateLeaf::new(
                        col,
                        if *negated {
                            PredicateOp::IsNotNull
                        } else {
                            PredicateOp::IsNull
                        },
                        None,
                    ));
                }
            }
        }
        ExprNode::InList {
            expr,
            list,
            negated: false,
        } => {
            if let ExprNode::Column(i) = &**expr {
                let values: Option<Vec<_>> = list
                    .iter()
                    .map(|e| match e {
                        ExprNode::Literal(v) => Some(v.clone()),
                        _ => None,
                    })
                    .collect();
                if let (Some(col), Some(values)) = (projection.get(*i).copied(), values) {
                    out.push(PredicateLeaf::in_list(col, values));
                }
            }
        }
        _ => {}
    }
}

/// Split a join condition into equi-key pairs `(left_expr, right_expr)`
/// and residual conjuncts.
///
/// Keys are typed (`hive_common::key`): an INT key never equals a DOUBLE
/// key. This being the one place key pairs are made, an INT = DOUBLE pair
/// has its INT side cast to DOUBLE here, so both sides shuffle, hash and
/// vectorize as one type. Any other type mismatch is left alone and never
/// matches.
#[allow(clippy::type_complexity)]
fn split_join_condition<'a>(
    on: &'a Expr,
    left: &Rel,
    right: &Rel,
) -> Result<(Vec<(ExprNode, ExprNode)>, Vec<&'a Expr>)> {
    let (left_schema, right_schema) = (left.schema(), right.schema());
    let to_double = |e: ExprNode| ExprNode::Cast {
        expr: Box::new(e),
        target: DataType::Double,
    };
    let typed_alike = |l: ExprNode, r: ExprNode| {
        let types = (expr_type(&l, &left_schema)?, expr_type(&r, &right_schema)?);
        Ok::<_, HiveError>(match types {
            (DataType::Int, DataType::Double) => (to_double(l), r),
            (DataType::Double, DataType::Int) => (l, to_double(r)),
            _ => (l, r),
        })
    };
    let mut equi = Vec::new();
    let mut residual = Vec::new();
    for conj in on.conjuncts() {
        if let Expr::Binary {
            op: BinOp::Eq,
            left: a,
            right: b,
        } = conj
        {
            // Try (a over left, b over right), then flipped.
            if let (Ok(l), Ok(r)) = (resolve(a, left), resolve(b, right)) {
                equi.push(typed_alike(l, r)?);
                continue;
            }
            if let (Ok(l), Ok(r)) = (resolve(b, left), resolve(a, right)) {
                equi.push(typed_alike(l, r)?);
                continue;
            }
        }
        residual.push(conj);
    }
    Ok((equi, residual))
}

/// Merge bookkeeping for consecutive same-key outer joins: the Join node
/// they collapse into and, per key position, the set of output columns of
/// the accumulated relation known equal to that key.
struct OuterMerge {
    node: usize,
    kind: JoinType,
    nk: usize,
    equiv: Vec<BTreeSet<usize>>,
}

/// Fold another input into an existing n-ary outer Join node: add a
/// ReduceSink over `right` keyed like the join, wire it in as one more
/// parent, and extend the joined layout with `[_rkeys, r_cols]`.
fn merge_outer_join(
    g: &mut PlanGraph,
    state: &mut OuterMerge,
    acc: &mut Rel,
    right: Rel,
    equi: &[(ExprNode, ExprNode)],
    num_reducers: usize,
) -> Result<()> {
    let nk = state.nk;
    let rkeys: Vec<ExprNode> = equi.iter().map(|(_, r)| r.clone()).collect();
    let rvals: Vec<ExprNode> = (0..right.cols.len()).map(ExprNode::col).collect();
    let key_types: Vec<DataType> = acc.cols[..nk].iter().map(|(_, _, t)| t.clone()).collect();

    let mut rs_schema: Vec<ColumnInfo> = key_types
        .iter()
        .enumerate()
        .map(|(i, t)| ColumnInfo::new(format!("_key{i}"), t.clone()))
        .collect();
    rs_schema.extend(right.schema());
    let rs = g.add(
        PlanOp::ReduceSink {
            keys: rkeys.clone(),
            values: rvals,
            num_reducers,
            degenerate: false,
        },
        rs_schema,
        vec![right.node],
    );

    let off = acc.cols.len();
    g.nodes[state.node].parents.push(rs);
    g.nodes[rs].children.push(state.node);
    match &mut g.nodes[state.node].op {
        PlanOp::Join { input_widths, .. } => input_widths.push(nk + right.cols.len()),
        _ => unreachable!("outer-merge state always points at a Join node"),
    }
    for (i, t) in key_types.iter().enumerate() {
        acc.cols.push((None, format!("_rkey{i}"), t.clone()));
    }
    acc.cols.extend(right.cols.iter().cloned());
    g.nodes[state.node].schema = acc.schema();

    for (i, key) in rkeys.iter().enumerate() {
        state.equiv[i].insert(off + i);
        if let ExprNode::Column(c) = key {
            state.equiv[i].insert(off + nk + *c);
        }
    }
    Ok(())
}

/// Insert RS + RS + Join for a binary reduce join. The joined row layout is
/// `[l_keys, l_cols, r_keys, r_cols]` because reduce-side rows arrive as
/// key ++ value.
fn add_reduce_join(
    g: &mut PlanGraph,
    left: Rel,
    right: Rel,
    equi: &[(ExprNode, ExprNode)],
    kind: JoinType,
    num_reducers: usize,
) -> Result<Rel> {
    let nk = equi.len();
    let lkeys: Vec<ExprNode> = equi.iter().map(|(l, _)| l.clone()).collect();
    let rkeys: Vec<ExprNode> = equi.iter().map(|(_, r)| r.clone()).collect();
    let lvals: Vec<ExprNode> = (0..left.cols.len()).map(ExprNode::col).collect();
    let rvals: Vec<ExprNode> = (0..right.cols.len()).map(ExprNode::col).collect();

    let key_types: Vec<DataType> = lkeys
        .iter()
        .map(|e| expr_type(e, &left.schema()))
        .collect::<Result<_>>()?;

    let mut rs_schema_l: Vec<ColumnInfo> = key_types
        .iter()
        .enumerate()
        .map(|(i, t)| ColumnInfo::new(format!("_key{i}"), t.clone()))
        .collect();
    rs_schema_l.extend(left.schema());
    let mut rs_schema_r: Vec<ColumnInfo> = key_types
        .iter()
        .enumerate()
        .map(|(i, t)| ColumnInfo::new(format!("_key{i}"), t.clone()))
        .collect();
    rs_schema_r.extend(right.schema());

    let rs_l = g.add(
        PlanOp::ReduceSink {
            keys: lkeys,
            values: lvals,
            num_reducers,
            degenerate: false,
        },
        rs_schema_l.clone(),
        vec![left.node],
    );
    let rs_r = g.add(
        PlanOp::ReduceSink {
            keys: rkeys,
            values: rvals,
            num_reducers,
            degenerate: false,
        },
        rs_schema_r.clone(),
        vec![right.node],
    );

    let mut cols: Vec<(Option<String>, String, DataType)> = Vec::new();
    for i in 0..nk {
        cols.push((None, format!("_lkey{i}"), key_types[i].clone()));
    }
    cols.extend(left.cols.iter().cloned());
    for i in 0..nk {
        cols.push((None, format!("_rkey{i}"), key_types[i].clone()));
    }
    cols.extend(right.cols.iter().cloned());
    let schema: Vec<ColumnInfo> = cols
        .iter()
        .map(|(_, n, t)| ColumnInfo::new(n.clone(), t.clone()))
        .collect();

    let join = g.add(
        PlanOp::Join {
            kind,
            input_widths: vec![nk + left.cols.len(), nk + right.cols.len()],
            nk,
        },
        schema,
        vec![rs_l, rs_r],
    );
    Ok(Rel { node: join, cols })
}

/// The substitution context built by aggregation planning.
#[derive(Debug, Clone)]
struct GroupSubst {
    /// Resolved group expressions (over the pre-GBY rel) → output position.
    groups: Vec<(ExprNode, usize)>,
    /// Aggregate calls: (function, resolved arg) → output position.
    aggs: Vec<(AggFunction, Option<ExprNode>, usize)>,
    /// The pre-aggregation relation (for resolving inner expressions).
    input_rel: Rel,
}

/// Insert map-side hash GBY → RS → reduce-side merge GBY.
fn add_aggregation(
    g: &mut PlanGraph,
    input: Rel,
    group_by: &[Expr],
    agg_calls: &[Expr],
) -> Result<(Rel, GroupSubst)> {
    let nk = group_by.len();
    let mut key_exprs = Vec::with_capacity(nk);
    let mut key_infos = Vec::with_capacity(nk);
    for (i, e) in group_by.iter().enumerate() {
        let r = resolve(e, &input)?;
        let t = expr_type(&r, &input.schema())?;
        let name = match e {
            Expr::Column { name, .. } => name.clone(),
            _ => format!("_gk{i}"),
        };
        key_exprs.push(r);
        key_infos.push(ColumnInfo::new(name, t));
    }

    let mut calls = Vec::with_capacity(agg_calls.len());
    let mut subst_aggs = Vec::new();
    for (i, e) in agg_calls.iter().enumerate() {
        let Expr::Function {
            name,
            args,
            distinct,
        } = e
        else {
            return Err(HiveError::Semantic("expected aggregate call".into()));
        };
        if *distinct {
            return Err(HiveError::Semantic(
                "DISTINCT aggregates are not supported".into(),
            ));
        }
        let star = matches!(args.first(), Some(Expr::Star));
        let function = parse_agg_function(name, star)
            .ok_or_else(|| HiveError::Semantic(format!("unknown aggregate `{name}`")))?;
        let arg = if star || args.is_empty() {
            None
        } else {
            Some(resolve(&args[0], &input)?)
        };
        let arg_type = match &arg {
            Some(a) => Some(expr_type(a, &input.schema())?),
            None => None,
        };
        let out_type = agg_output_type(function, arg_type.as_ref());
        subst_aggs.push((function, arg.clone(), nk + i));
        calls.push(AggCall {
            function,
            arg,
            output_name: format!("_agg{i}"),
            output_type: out_type,
        });
    }

    // Map-side partial aggregation.
    let mut map_schema = key_infos.clone();
    for c in &calls {
        // Partial AVG travels as a struct(sum, count).
        let t = if c.function == AggFunction::Avg {
            DataType::Struct(vec![
                ("sum".into(), DataType::Double),
                ("cnt".into(), DataType::Int),
            ])
        } else {
            c.output_type.clone()
        };
        map_schema.push(ColumnInfo::new(c.output_name.clone(), t));
    }
    let map_gby = g.add(
        PlanOp::GroupBy {
            phase: GroupByPhase::MapHash,
            keys: key_exprs.clone(),
            aggs: calls.clone(),
        },
        map_schema.clone(),
        vec![input.node],
    );

    // Shuffle on the group keys.
    let num_reducers = if nk == 0 { 1 } else { REDUCE_TASKS };
    let rs_keys: Vec<ExprNode> = (0..nk).map(ExprNode::col).collect();
    let rs_values: Vec<ExprNode> = (nk..nk + calls.len()).map(ExprNode::col).collect();
    let rs = g.add(
        PlanOp::ReduceSink {
            keys: rs_keys,
            values: rs_values,
            num_reducers,
            degenerate: false,
        },
        map_schema.clone(),
        vec![map_gby],
    );

    // Reduce-side merge.
    let merge_calls: Vec<AggCall> = calls
        .iter()
        .enumerate()
        .map(|(i, c)| AggCall {
            function: c.function,
            arg: Some(ExprNode::col(nk + i)),
            output_name: c.output_name.clone(),
            output_type: c.output_type.clone(),
        })
        .collect();
    let mut out_schema = key_infos.clone();
    for c in &calls {
        out_schema.push(ColumnInfo::new(
            c.output_name.clone(),
            c.output_type.clone(),
        ));
    }
    let merge_gby = g.add(
        PlanOp::GroupBy {
            phase: GroupByPhase::ReduceMerge,
            keys: (0..nk).map(ExprNode::col).collect(),
            aggs: merge_calls,
        },
        out_schema.clone(),
        vec![rs],
    );

    let cols: Vec<(Option<String>, String, DataType)> = out_schema
        .iter()
        .map(|c| (None, c.name.clone(), c.data_type.clone()))
        .collect();
    let subst = GroupSubst {
        groups: key_exprs
            .into_iter()
            .enumerate()
            .map(|(i, e)| (e, i))
            .collect(),
        aggs: subst_aggs,
        input_rel: input,
    };
    Ok((
        Rel {
            node: merge_gby,
            cols,
        },
        subst,
    ))
}

/// Resolve an expression over the aggregation output: group expressions and
/// aggregate calls become column references; anything else must be composed
/// of them.
fn resolve_with_groups(e: &Expr, subst: &GroupSubst) -> Result<ExprNode> {
    lower(e, &mut |x| {
        // An aggregate call?
        if let Expr::Function { name, args, .. } = x {
            let star = matches!(args.first(), Some(Expr::Star));
            if let Some(f) = parse_agg_function(name, star) {
                let arg = if star || args.is_empty() {
                    None
                } else {
                    Some(resolve(&args[0], &subst.input_rel)?)
                };
                return subst
                    .aggs
                    .iter()
                    .find(|(af, aarg, _)| *af == f && *aarg == arg)
                    .map(|(_, _, idx)| Some(ExprNode::col(*idx)))
                    .ok_or_else(|| {
                        HiveError::Semantic(format!(
                            "aggregate `{name}` was not collected during planning"
                        ))
                    });
            }
        }
        // A group expression (structurally, after resolution)?
        if let Ok(resolved) = resolve(x, &subst.input_rel) {
            if let Some((_, idx)) = subst.groups.iter().find(|(ge, _)| *ge == resolved) {
                return Ok(Some(ExprNode::col(*idx)));
            }
            // A bare column that is not grouped is an error; composite
            // expressions may still decompose below.
            if matches!(x, Expr::Column { .. }) {
                return Err(HiveError::Semantic(format!(
                    "column {x:?} is neither grouped nor aggregated"
                )));
            }
        }
        Ok(None)
    })
}

/// Collect the distinct aggregate calls of `e`, outermost first (an
/// aggregate's own arguments are not searched).
fn collect_agg_calls(e: &Expr, out: &mut Vec<Expr>) {
    e.walk(&mut |x| {
        let is_agg = matches!(x, Expr::Function { name, args, .. }
            if parse_agg_function(name, matches!(args.first(), Some(Expr::Star))).is_some());
        if is_agg && !out.contains(x) {
            out.push(x.clone());
        }
        !is_agg
    });
}

/// Resolve one ORDER BY item to a final-output column index.
fn resolve_order_item(
    e: &Expr,
    _stmt: &SelectStmt,
    out_names: &[String],
    subst: &Option<GroupSubst>,
    final_rel: &Rel,
    out_exprs: &[ExprNode],
) -> Result<usize> {
    // By alias / output name.
    if let Expr::Column { table: None, name } = e {
        if let Some(i) = out_names.iter().position(|n| n.eq_ignore_ascii_case(name)) {
            return Ok(i);
        }
    }
    // By matching the projected expression.
    let resolved = match subst {
        Some(s) => resolve_with_groups(e, s)?,
        None => resolve(e, final_rel)?,
    };
    if let Some(i) = out_exprs.iter().position(|x| *x == resolved) {
        return Ok(i);
    }
    Err(HiveError::Semantic(format!(
        "ORDER BY expression {e:?} is not in the select list"
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{StaticCatalog, TableMeta};
    use hive_ql::{parse, Statement};

    /// Lower with columns bound by position in `names`.
    fn lower_over(e: &Expr, names: &[&str]) -> Result<ExprNode> {
        lower(e, &mut |x| match x {
            Expr::Column { name, .. } => Ok(names
                .iter()
                .position(|n| n.eq_ignore_ascii_case(name))
                .map(ExprNode::col)),
            _ => Ok(None),
        })
    }

    fn where_of(sql: &str) -> Expr {
        let Statement::Select(stmt) = parse(sql).unwrap() else {
            panic!("expected select")
        };
        stmt.where_clause.unwrap()
    }

    fn neg(e: Expr) -> Expr {
        Expr::Unary {
            op: UnOp::Neg,
            expr: Box::new(e),
        }
    }

    #[test]
    fn negated_numeric_literals_fold_to_plain_literals() {
        let int = |i| Expr::Literal(Value::Int(i));
        let lit = |v| Ok::<_, HiveError>(ExprNode::Literal(v));
        assert_eq!(lower_over(&neg(int(3)), &[]), lit(Value::Int(-3)));
        let dbl = Expr::Literal(Value::Double(2.5));
        assert_eq!(lower_over(&neg(neg(dbl)), &[]), lit(Value::Double(2.5)));
        // The parser's own spelling of a negative literal, nested in a range.
        let ExprNode::Between { lo, hi, .. } = lower_over(
            &where_of("SELECT v FROM t WHERE v BETWEEN -181 AND -121"),
            &["v"],
        )
        .unwrap() else {
            panic!("expected BETWEEN")
        };
        assert_eq!(
            (*lo, *hi),
            (
                ExprNode::lit(Value::Int(-181)),
                ExprNode::lit(Value::Int(-121))
            )
        );

        // Only literals fold: a negated column stays an operator...
        assert_eq!(
            lower_over(&neg(Expr::col("v")), &["v"]).unwrap(),
            ExprNode::Unary {
                op: UnaryOp::Neg,
                expr: Box::new(ExprNode::col(0)),
            }
        );
        // ...as does the one integer whose negation does not exist, while
        // its neighbour folds.
        assert_eq!(
            lower_over(&neg(int(i64::MAX)), &[]),
            lit(Value::Int(-i64::MAX))
        );
        assert_eq!(
            lower_over(&neg(int(i64::MIN)), &[]).unwrap(),
            ExprNode::Unary {
                op: UnaryOp::Neg,
                expr: Box::new(ExprNode::lit(Value::Int(i64::MIN))),
            }
        );
        // Non-numeric operands are left for the evaluator to reject.
        assert!(matches!(
            lower_over(&neg(Expr::Literal(Value::Null)), &[]).unwrap(),
            ExprNode::Unary { .. }
        ));
    }

    #[test]
    fn a_pushed_down_negative_range_keeps_its_sarg() {
        let catalog = StaticCatalog {
            tables: vec![TableMeta {
                name: "t".into(),
                schema: Schema::parse(&[("k", "bigint"), ("v", "bigint")]).unwrap(),
                format: hive_formats::FormatKind::Orc,
                paths: vec!["/w/t/part-0".into()],
                size_bytes: 1 << 20,
                acid: None,
            }],
        };
        let Statement::Select(stmt) =
            parse("SELECT v FROM t WHERE v BETWEEN -181 AND -121 AND -7 < v AND v IN (-130, -125)")
                .unwrap()
        else {
            panic!("expected select")
        };
        let t = translate(&stmt, &catalog, &HiveConf::new()).unwrap();
        let sarg = t
            .graph
            .nodes
            .iter()
            .find_map(|n| match &n.op {
                PlanOp::TableScan { sarg, .. } => sarg.clone(),
                _ => None,
            })
            .expect("the scan lost its sarg");
        assert_eq!(
            sarg.leaves,
            vec![
                PredicateLeaf::between(1, Value::Int(-181), Value::Int(-121)),
                PredicateLeaf::new(1, PredicateOp::GreaterThan, Some(Value::Int(-7))),
                PredicateLeaf::in_list(1, vec![Value::Int(-130), Value::Int(-125)]),
            ]
        );
    }

    #[test]
    fn the_leaf_hook_stands_in_for_whole_subtrees_and_must_answer_leaves() {
        // A hook answer replaces the sub-tree it was asked about.
        let e = where_of("SELECT v FROM t WHERE (v BETWEEN 1 AND 2) AND k = 3");
        let node = lower(&e, &mut |x| match x {
            Expr::Between { .. } => Ok(Some(ExprNode::col(9))),
            Expr::Column { .. } => Ok(Some(ExprNode::col(0))),
            _ => Ok(None),
        })
        .unwrap();
        let ExprNode::Binary { left, .. } = node else {
            panic!("expected AND")
        };
        assert_eq!(*left, ExprNode::col(9));
        // Leaves nobody answered are semantic errors, not panics.
        for sql in [
            "SELECT v FROM t WHERE nope = 1",
            "SELECT v FROM t WHERE upper(v) = 1",
        ] {
            let err = lower_over(&where_of(sql), &["v"]).unwrap_err();
            assert!(matches!(err, HiveError::Semantic(_)), "{sql}: {err}");
        }
    }

    #[test]
    fn dml_expressions_are_scalar_only() {
        let schema = Schema::parse(&[("k", "bigint"), ("v", "string")]).unwrap();
        let ok = lower_dml(
            &where_of("SELECT k FROM t WHERE k = -3 AND v IS NOT NULL"),
            &schema,
        );
        assert!(ok.is_ok());
        let agg = where_of("SELECT k FROM t WHERE sum(k) > 1");
        assert!(matches!(lower_dml(&agg, &schema), Err(HiveError::Plan(_))));
        let star = Expr::binary(BinOp::Eq, Expr::Star, Expr::Literal(Value::Int(1)));
        assert!(matches!(lower_dml(&star, &schema), Err(HiveError::Plan(_))));
        assert!(lower_dml(&Expr::col("nope"), &schema).is_err());
    }
}
