//! Semantic analysis: AST → resolved operator DAG.
//!
//! Binds the statement against its scope ([`crate::scope`]), then builds
//! the operator tree from the bound form: column pruning into table scans,
//! predicate pushdown (including SearchArgument extraction for
//! storage-level PPD), cost-based join ordering, ReduceSink insertion for
//! joins and aggregations, and the map-side/reduce-side aggregation split.

use crate::catalog::{Catalog, PinnedCatalog};
use crate::plan::{
    agg_output_type, expr_type, AggCall, ColumnInfo, GroupByPhase, OrderedColumn, PlanGraph, PlanOp,
};
use crate::scope::{bind_select, has_star, output_name, Bound, BoundJoin, Scope, Source};
use hive_common::config::keys;
use hive_common::{DataType, HiveConf, HiveError, Result, Value};
use hive_exec::agg::{parse_agg_function, AggFunction};
use hive_exec::expr::{cast_value, castable, BinaryOp, ExprNode, UnaryOp};
use hive_exec::operators::JoinType;
use hive_formats::delta::VIRTUAL_COLUMNS;
use hive_formats::{PredicateLeaf, PredicateOp, SearchArgument};
use hive_ql::{BinOp, Expr, JoinKind, SelectStmt, UnOp};
use std::collections::BTreeSet;

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

/// A relation under construction: a plan node plus, per output column, the
/// bound reference that names it.
#[derive(Debug, Clone)]
struct Rel {
    node: usize,
    /// Per output column: (binding, column name, type). Columns no
    /// reference can name (join keys, aggregates) have no binding.
    cols: Vec<(Option<String>, String, DataType)>,
}

impl Rel {
    fn schema(&self) -> Vec<ColumnInfo> {
        self.cols
            .iter()
            .map(|(_, n, t)| ColumnInfo::new(n.clone(), t.clone()))
            .collect()
    }

    fn filtered(mut self, g: &mut PlanGraph, predicate: ExprNode) -> Rel {
        self.node = g.add(PlanOp::Filter { predicate }, self.schema(), vec![self.node]);
        self
    }
}

/// Translate a SELECT into an operator DAG ending in a FileSink. The
/// catalog is pinned for the statement: however many FROM items name a
/// table, it is resolved once and scanned at one snapshot.
pub fn translate(stmt: &SelectStmt, catalog: &dyn Catalog, conf: &HiveConf) -> Result<Translation> {
    let catalog = PinnedCatalog::new(catalog);
    let bound = bind_select(stmt, &catalog)?;
    let mut g = PlanGraph::default();
    let (rel, order_by, limit, names) = plan_select(&mut g, bound, &catalog, conf)?;
    let schema = rel.schema();
    g.add(PlanOp::FileSink, schema, vec![rel.node]);
    crate::order::plan_ordered(&mut g, true)?;
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
    mut bound: Bound,
    catalog: &dyn Catalog,
    conf: &HiveConf,
) -> Result<(Rel, Vec<(usize, bool)>, Option<u64>, Vec<String>)> {
    if conf.get_bool(keys::CBO_ENABLE)? {
        reorder_joins(&mut bound);
    }
    let scope = &bound.scope;

    // ------ 1. Column pruning: the bound references per entry. ----------
    let mut used = vec![BTreeSet::new(); bound.sources.len()];
    for (entry, column) in bound.exprs().flat_map(|e| scope.refs(e)) {
        used[entry].insert(column);
    }
    if has_star(&bound.projections) {
        for (entry, columns) in used.iter_mut().enumerate() {
            columns.extend(0..scope.columns(entry).len());
        }
    }

    // ------ 2. WHERE placement. ------------------------------------------
    // A conjunct over exactly one entry runs at that entry's scan, unless
    // an outer join can null-extend the entry's rows: its own join is
    // LEFT/FULL, or a later one is RIGHT/FULL. Filtering below such a join
    // would turn rows it should drop into NULL-padded ones, so those — and
    // conjuncts over zero or several entries — run after the joins.
    let mut null_supplying = vec![false; bound.sources.len()];
    let mut earlier = vec![0];
    for j in &bound.joins {
        if matches!(j.kind, JoinKind::RightOuter | JoinKind::FullOuter) {
            earlier.iter().for_each(|&e| null_supplying[e] = true);
        }
        null_supplying[j.entry] = matches!(j.kind, JoinKind::LeftOuter | JoinKind::FullOuter);
        earlier.push(j.entry);
    }
    let mut pushed: Vec<Vec<&Expr>> = vec![Vec::new(); bound.sources.len()];
    let mut post_join: Vec<&Expr> = Vec::new();
    for conj in bound.filter.iter().flat_map(Expr::conjuncts) {
        if matches!(conj, Expr::Literal(Value::Boolean(true))) {
            continue; // filters nothing
        }
        let entries = scope.entries_of(conj);
        match entries.first() {
            Some(&e) if entries.len() == 1 && !null_supplying[e] => pushed[e].push(conj),
            _ => post_join.push(conj),
        }
    }

    // ------ 3. Base relations with pushed-down filters. -----------------
    // The columns a table's stored order could serve: bare GROUP BY keys
    // and operands of ON equalities.
    let mut keyed = vec![BTreeSet::new(); bound.sources.len()];
    let equalities = bound.joins.iter().flat_map(|j| j.on.conjuncts());
    let operands = equalities.flat_map(|c| match c {
        Expr::Binary {
            op: BinOp::Eq,
            left,
            right,
        } => vec![&**left, &**right],
        _ => Vec::new(),
    });
    for e in operands.chain(&bound.group_by) {
        if let Expr::Column { .. } = e {
            for (entry, column) in scope.refs(e) {
                keyed[entry].insert(column);
            }
        }
    }
    let cache_metadata = conf.get_i64(keys::IO_CACHE_BYTES)? > 0;
    let mut sources: Vec<Option<Source>> = bound.sources.into_iter().map(Some).collect();
    let mut build_rel = |g: &mut PlanGraph, entry: usize| -> Result<Rel> {
        let source = sources[entry].take().expect("each entry is planned once");
        let rel = plan_source(g, source, scope.binding(entry), &used[entry], catalog, conf)?;
        record_order(g, rel.node, &keyed[entry], catalog, cache_metadata);
        // Storage-level pushdown into the scan, then a residual Filter
        // (ORC may return whole index groups; the Filter stays correct).
        let Some(pred) = pushed[entry]
            .iter()
            .map(|e| predicate(e, &rel, "WHERE"))
            .collect::<Result<Vec<_>>>()?
            .into_iter()
            .reduce(|a, b| ExprNode::binary(BinaryOp::And, a, b))
        else {
            return Ok(rel);
        };
        if conf.get_bool(keys::OPT_PPD_STORAGE).unwrap_or(true) {
            attach_sarg(g, &rel, &pred);
        }
        Ok(rel.filtered(g, pred))
    };

    let mut acc = build_rel(g, 0)?;

    // ------ 4. Joins (left-deep chain of binary reduce joins). ----------
    let mut joined = BTreeSet::from([0]);
    for join in &bound.joins {
        let mut right = build_rel(g, join.entry)?;
        let (equi, residual) = split_join_condition(scope, join, &joined, &acc, &right)?;
        joined.insert(join.entry);
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
        // An ON conjunct over the joined entry alone filters its rows
        // before an inner or left outer join (a map join's build filter):
        // after a LEFT JOIN it would drop the rows the join preserves.
        let own = BTreeSet::from([join.entry]);
        let before = matches!(kind, JoinType::Inner | JoinType::LeftOuter);
        let (own_side, residual): (Vec<&Expr>, Vec<&Expr>) = residual
            .into_iter()
            .partition(|c| before && scope.entries_of(c).is_subset(&own));
        for c in own_side {
            let pred = predicate(c, &right, "ON")?;
            right = right.filtered(g, pred);
        }
        // The rest filters an inner join's rows; an outer join tests its
        // pairs against it, so a row no pair passes is still padded.
        let (after, on) = if kind == JoinType::Inner {
            (residual, Vec::new())
        } else {
            (Vec::new(), residual)
        };
        acc = add_reduce_join(g, acc, right, &equi, kind, &on, REDUCE_TASKS)?;
        for c in after {
            let pred = predicate(c, &acc, "ON")?;
            acc = acc.filtered(g, pred);
        }
    }

    // ------ 5. Post-join WHERE conjuncts. --------------------------------
    for conj in post_join {
        let pred = predicate(conj, &acc, "WHERE")?;
        acc = acc.filtered(g, pred);
    }

    // ------ 6. Aggregation. ----------------------------------------------
    let mut agg_calls: Vec<&Expr> = Vec::new();
    let projected = bound.projections.iter().map(|p| &p.expr);
    let ordered = bound.order_by.iter().map(|o| &o.expr);
    for e in projected.chain(&bound.having).chain(ordered) {
        collect_agg_calls(e, &mut agg_calls);
    }
    let has_agg = !agg_calls.is_empty() || !bound.group_by.is_empty();

    let (mut final_rel, group_subst) = if has_agg {
        let (rel, subst) = add_aggregation(g, acc, &bound.group_by, &agg_calls)?;
        (rel, Some(subst))
    } else {
        (acc, None)
    };
    // Over an aggregation, expressions are composed of its outputs; without
    // one, of the joined relation's columns.
    let resolve_final = |e: &Expr, rel: &Rel| match &group_subst {
        Some(s) => resolve_with_groups(e, s, &rel.schema()),
        None => resolve(e, rel),
    };

    // ------ 7. HAVING. -----------------------------------------------------
    if let Some(h) = &bound.having {
        let pred = resolve_final(h, &final_rel)?;
        boolean(&pred, "HAVING", &final_rel.schema())?;
        final_rel = final_rel.filtered(g, pred);
    }

    // ------ 8. Final projection. ------------------------------------------
    let mut out_exprs = Vec::new();
    let mut out_cols = Vec::new();
    for (i, p) in bound.projections.iter().enumerate() {
        if matches!(p.expr, Expr::Star) {
            for (c, (_, n, t)) in final_rel.cols.iter().enumerate() {
                out_exprs.push(ExprNode::col(c));
                out_cols.push((None, n.clone(), t.clone()));
            }
            continue;
        }
        let e = resolve_final(&p.expr, &final_rel)?;
        let t = expr_type(&e, &final_rel.schema())?;
        out_exprs.push(e);
        out_cols.push((None, output_name(i, p), t));
    }
    let out_names: Vec<String> = out_cols.iter().map(|(_, n, _)| n.clone()).collect();
    let mut result = Rel {
        node: final_rel.node,
        cols: out_cols,
    };
    result.node = g.add(
        PlanOp::Select {
            exprs: out_exprs.clone(),
        },
        result.schema(),
        vec![final_rel.node],
    );

    // ------ 9. ORDER BY: resolve to output positions (driver-side sort). --
    let mut order_by = Vec::new();
    for o in &bound.order_by {
        let idx = match &o.expr {
            // Binding left it unqualified: it names an output column.
            Expr::Column { table: None, name } => out_names
                .iter()
                .position(|n| n.eq_ignore_ascii_case(name))
                .ok_or_else(|| HiveError::Semantic(format!("unknown column `{name}`")))?,
            // Anything else must be one of the projected expressions.
            e => {
                let resolved = resolve_final(e, &final_rel)?;
                out_exprs
                    .iter()
                    .position(|x| *x == resolved)
                    .ok_or_else(|| {
                        HiveError::Semantic(format!(
                            "ORDER BY expression {e:?} is not in the select list"
                        ))
                    })?
            }
        };
        order_by.push((idx, o.ascending));
    }

    // ------ 10. LIMIT (plan-level only when no final sort is pending). ----
    if let Some(n) = bound.limit.filter(|_| order_by.is_empty()) {
        result.node = g.add(PlanOp::Limit(n), result.schema(), vec![result.node]);
    }

    Ok((result, order_by, bound.limit, out_names))
}

/// Cost-based join ordering (paper §9: "Hive has introduced cost based
/// optimizer. Currently its used to do join ordering"), behind
/// `hive.cbo.enable`: the classic greedy heuristic over a left-deep
/// inner-join chain. At each step, among the joins whose ON condition only
/// mentions entries already joined, the smallest table goes next — small
/// tables join early, shrink intermediate results and (downstream) turn
/// into Map Joins. Any outer join freezes the written order.
fn reorder_joins(bound: &mut Bound) {
    if bound.joins.len() < 2 || bound.joins.iter().any(|j| j.kind != JoinKind::Inner) {
        return;
    }
    let (scope, sources) = (&bound.scope, &bound.sources);
    let size = |j: &BoundJoin| match &sources[j.entry] {
        Source::Table(meta) => meta.size_bytes,
        // Derived tables: unknown, order them last.
        Source::Query(_) => u64::MAX,
    };
    let mut joined = BTreeSet::from([0]);
    let mut remaining = std::mem::take(&mut bound.joins);
    while !remaining.is_empty() {
        let placeable = |j: &BoundJoin| {
            let mut mentioned = scope.entries_of(&j.on).into_iter();
            mentioned.all(|e| e == j.entry || joined.contains(&e))
        };
        let candidates = remaining.iter().enumerate().filter(|(_, j)| placeable(j));
        let Some((pick, _)) = candidates.min_by_key(|&(i, j)| (size(j), i)) else {
            // Conditions that reach past what is joined so far: keep the
            // written order for the rest.
            bound.joins.append(&mut remaining);
            break;
        };
        let next = remaining.remove(pick);
        joined.insert(next.entry);
        bound.joins.push(next);
    }
}

/// Plan one scope entry's source under its binding, scanning only the
/// `used` columns of a table (all of them when none of its own is
/// referenced). Used virtual columns trail the projection.
fn plan_source(
    g: &mut PlanGraph,
    source: Source,
    binding: &str,
    used: &BTreeSet<usize>,
    catalog: &dyn Catalog,
    conf: &HiveConf,
) -> Result<Rel> {
    match source {
        Source::Table(meta) => {
            let width = meta.schema.len();
            let mut projection: Vec<usize> = used.iter().copied().collect();
            if projection.iter().all(|&i| i >= width) {
                projection.splice(0..0, 0..width);
            }
            let cols: Vec<(Option<String>, String, DataType)> = projection
                .iter()
                .map(|&i| {
                    let (name, t) = match meta.schema.fields().get(i) {
                        Some(f) => (f.name.clone(), f.data_type.clone()),
                        None => {
                            let (name, t) = &VIRTUAL_COLUMNS[i - width];
                            (name.to_string(), t.clone())
                        }
                    };
                    (Some(binding.to_string()), name, t)
                })
                .collect();
            let mut rel = Rel { node: 0, cols };
            rel.node = g.add(
                PlanOp::TableScan {
                    alias: binding.to_string(),
                    table: meta,
                    projection,
                    sarg: None,
                },
                rel.schema(),
                vec![],
            );
            Ok(rel)
        }
        Source::Query(query) => {
            if !query.order_by.is_empty() {
                return Err(HiveError::Semantic(
                    "ORDER BY in FROM-clause subqueries is not supported".into(),
                ));
            }
            let (mut rel, ..) = plan_select(g, *query, catalog, conf)?;
            // Re-bind output columns under the subquery alias.
            for c in rel.cols.iter_mut() {
                c.0 = Some(binding.to_string());
            }
            Ok(rel)
        }
    }
}

/// Record, for the scan `node` (a derived table's plan has none), which of
/// the `keyed` table columns its table is stored in the order of.
fn record_order(
    g: &mut PlanGraph,
    node: usize,
    keyed: &BTreeSet<usize>,
    catalog: &dyn Catalog,
    cache_metadata: bool,
) {
    let PlanOp::TableScan { table, .. } = &g.node(node).op else {
        return;
    };
    let ordered: Vec<OrderedColumn> = keyed
        .iter()
        .filter(|&&column| column < table.schema.len())
        .filter_map(|&column| {
            let files = catalog.order(table, column, cache_metadata)?;
            Some(OrderedColumn { column, files })
        })
        .collect();
    if !ordered.is_empty() {
        g.order.insert(node, ordered);
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
///
/// Operands are typed here too (`typed`), against `input`: the schema
/// the leaf hook's columns index.
pub fn lower(
    e: &Expr,
    input: &[ColumnInfo],
    leaf: &mut dyn FnMut(&Expr) -> Result<Option<ExprNode>>,
) -> Result<ExprNode> {
    if let Some(node) = leaf(e)? {
        return Ok(node);
    }
    let mut sub = |x: &Expr| lower(x, input, leaf);
    Ok(match e {
        Expr::Literal(v) => ExprNode::Literal(v.clone()),
        Expr::Binary { op, left, right } => {
            let op = match op {
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
            };
            let mut pair = [sub(left)?, sub(right)?];
            use BinaryOp::*;
            if let And | Or = op {
                let what = if op == And { "AND" } else { "OR" };
                for e in &pair {
                    boolean(e, what, input)?;
                }
            } else {
                let arith = matches!(op, Add | Subtract | Multiply | Divide | Modulo);
                typed(arith, &mut pair, input)?;
            }
            let [l, r] = pair;
            ExprNode::binary(op, l, r)
        }
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
        } => {
            let e = sub(expr)?;
            boolean(&e, "NOT", input)?;
            ExprNode::Unary {
                op: UnaryOp::Not,
                expr: Box::new(e),
            }
        }
        Expr::Between {
            expr,
            lo,
            hi,
            negated,
        } => {
            let mut operands = [sub(expr)?, sub(lo)?, sub(hi)?];
            typed(false, &mut operands, input)?;
            let [expr, lo, hi] = operands.map(Box::new);
            ExprNode::Between {
                expr,
                lo,
                hi,
                negated: *negated,
            }
        }
        Expr::IsNull { expr, negated } => ExprNode::IsNull {
            expr: Box::new(sub(expr)?),
            negated: *negated,
        },
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            let tested = std::iter::once(&**expr).chain(list);
            let mut operands: Vec<ExprNode> = tested.map(&mut sub).collect::<Result<_>>()?;
            typed(false, &mut operands, input)?;
            let list = operands.split_off(1);
            let expr = Box::new(operands.pop().expect("the tested operand"));
            ExprNode::InList {
                expr,
                list,
                negated: *negated,
            }
        }
        Expr::Cast { expr, target } => {
            let e = sub(expr)?;
            if !matches!(e, ExprNode::Literal(Value::Null)) {
                let from = expr_type(&e, input)?;
                if !castable(&from, target) {
                    return Err(HiveError::Semantic(format!(
                        "type mismatch: CAST of {from} to {target}"
                    )));
                }
            }
            cast(e, target)?
        }
        Expr::Case {
            branches,
            else_value,
        } => {
            let mut conditions = Vec::with_capacity(branches.len());
            let mut values = Vec::with_capacity(branches.len() + 1);
            for (c, v) in branches {
                let c = sub(c)?;
                boolean(&c, "CASE WHEN", input)?;
                conditions.push(c);
                values.push(sub(v)?);
            }
            if let Some(x) = else_value {
                values.push(sub(x)?);
            }
            unified(&mut values, input)?;
            let else_value = else_value.as_ref().and_then(|_| values.pop()).map(Box::new);
            ExprNode::Case {
                branches: conditions.into_iter().zip(values).collect(),
                else_value,
            }
        }
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

/// The typing rule (DESIGN.md §18). Arithmetic takes numbers. A comparison
/// (`=`, `<`, …, BETWEEN, IN) takes operands of one type, or numbers (an INT
/// meets a DOUBLE as a DOUBLE, one pair at a time), or strings and numbers,
/// each STRING then cast to DOUBLE (Hive's rule). The NULL literal meets any
/// type. Anything else — `v + TRUE`, BOOLEAN against BIGINT — is a
/// `[semantic]` error here, so no engine decides it alone.
fn typed(arith: bool, operands: &mut [ExprNode], input: &[ColumnInfo]) -> Result<()> {
    let types = operand_types(operands, input)?;
    let known: Vec<&DataType> = types.iter().flatten().collect();
    let number = |t: &&DataType| matches!(t, DataType::Int | DataType::Double);
    let one_type = !arith && known.windows(2).all(|w| w[0] == w[1]);
    if one_type || known.iter().all(number) {
        return Ok(());
    }
    if arith || !known.iter().all(|t| number(t) || **t == DataType::String) {
        let names: Vec<String> = known.iter().map(|t| t.to_string()).collect();
        let what = if arith {
            "arithmetic over"
        } else {
            "comparing"
        };
        let names = names.join(" and ");
        return Err(HiveError::Semantic(format!(
            "type mismatch: {what} {names}"
        )));
    }
    for (e, t) in operands.iter_mut().zip(types) {
        if t == Some(DataType::String) {
            let string = std::mem::replace(e, ExprNode::Literal(Value::Null));
            *e = cast(string, &DataType::Double)?;
        }
    }
    Ok(())
}

/// A WHERE, HAVING or ON predicate, a CASE WHEN condition, and an operand
/// of NOT, AND or OR, is BOOLEAN or the NULL literal: anything else is a `[semantic]` error here,
/// as in Hive, rather than a per-row decision of each engine.
fn boolean(e: &ExprNode, what: &str, input: &[ColumnInfo]) -> Result<()> {
    if matches!(e, ExprNode::Literal(Value::Null)) {
        return Ok(());
    }
    match expr_type(e, input)? {
        DataType::Boolean => Ok(()),
        t => Err(HiveError::Semantic(format!(
            "type mismatch: {what} over {t}"
        ))),
    }
}

/// A predicate over a relation: resolved, then held to [`boolean`].
fn predicate(e: &Expr, rel: &Rel, what: &str) -> Result<ExprNode> {
    let pred = resolve(e, rel)?;
    boolean(&pred, what, &rel.schema())?;
    Ok(pred)
}

/// Each operand's type; `None` for the NULL literal, which has none.
fn operand_types(operands: &[ExprNode], input: &[ColumnInfo]) -> Result<Vec<Option<DataType>>> {
    let typed = operands.iter().map(|e| match e {
        ExprNode::Literal(Value::Null) => Ok(None),
        e => expr_type(e, input).map(Some),
    });
    typed.collect()
}

/// CASE's values (branches and ELSE) take one type: the type they share, or
/// DOUBLE for a mix of numbers (each INT cast). A NULL literal takes any
/// type; any other mix is a `[semantic]` error.
fn unified(values: &mut [ExprNode], input: &[ColumnInfo]) -> Result<()> {
    let types = operand_types(values, input)?;
    let known: Vec<&DataType> = types.iter().flatten().collect();
    let number = |t: &&DataType| matches!(t, DataType::Int | DataType::Double);
    if known.windows(2).all(|w| w[0] == w[1]) {
        return Ok(());
    } else if !known.iter().all(number) {
        let names: Vec<String> = known.iter().map(|t| t.to_string()).collect();
        let names = names.join(" and ");
        return Err(HiveError::Semantic(format!(
            "type mismatch: CASE over {names}"
        )));
    }
    for (e, t) in values.iter_mut().zip(types) {
        if t == Some(DataType::Int) {
            let int = std::mem::replace(e, ExprNode::Literal(Value::Null));
            *e = cast(int, &DataType::Double)?;
        }
    }
    Ok(())
}

/// `CAST(e AS target)`, folded to a literal when `e` is one (as a negated
/// literal is): `d = CAST('NaN' AS DOUBLE)` and `d = '5'` then reach SARGs,
/// blooms and the col-scalar kernels like any literal comparison.
fn cast(e: ExprNode, target: &DataType) -> Result<ExprNode> {
    Ok(match e {
        ExprNode::Literal(v) => ExprNode::Literal(cast_value(&v, target)?),
        e => ExprNode::Cast {
            expr: Box::new(e),
            target: target.clone(),
        },
    })
}

/// Lower a bound expression over a relation: each reference is the output
/// column carrying that same `(binding, column)`.
fn resolve(e: &Expr, rel: &Rel) -> Result<ExprNode> {
    lower(e, &rel.schema(), &mut |x| {
        let Expr::Column { table, name } = x else {
            return Ok(None);
        };
        let at =
            |(b, n, _): &(Option<String>, String, DataType)| b.is_some() && b == table && n == name;
        Ok(rel.cols.iter().position(at).map(ExprNode::Column))
    })
}

/// Extract a SearchArgument from scan-level conjuncts and attach it
/// (column indexes refer to the *table schema*, pre-projection). A virtual
/// column has no statistics to prune by, so it never becomes a leaf.
fn attach_sarg(g: &mut PlanGraph, rel: &Rel, pred: &ExprNode) {
    let node = rel.node;
    let projection: Vec<usize> = match &g.node(node).op {
        PlanOp::TableScan {
            projection, table, ..
        } => {
            let width = table.schema.len();
            projection
                .iter()
                .copied()
                .take_while(|&c| c < width)
                .collect()
        }
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

/// Split a join's condition into equi-key pairs `(left_expr, right_expr)`
/// and residual conjuncts. `a = b` is a key pair when one operand mentions
/// only entries already `joined` and the other only the join's own entry
/// (an operand mentioning none sits on either side).
///
/// Keys are typed (`hive_common::key`): an INT key never equals a DOUBLE
/// key. This being the one place key pairs are made, a pair of two types
/// the typing rule (`typed`) lets meet — INT, DOUBLE and STRING — has its
/// non-DOUBLE sides cast to DOUBLE here, so both sides shuffle, hash and
/// vectorize as one type. Any other mismatch is a `[semantic]` error.
#[allow(clippy::type_complexity)]
fn split_join_condition<'a>(
    scope: &Scope,
    join: &'a BoundJoin,
    joined: &BTreeSet<usize>,
    left: &Rel,
    right: &Rel,
) -> Result<(Vec<(ExprNode, ExprNode)>, Vec<&'a Expr>)> {
    let (left_schema, right_schema) = (left.schema(), right.schema());
    let to_double = |e: ExprNode, t: &DataType| match t {
        DataType::Double => Ok(e),
        _ => cast(e, &DataType::Double),
    };
    let meets = |t: &DataType| matches!(t, DataType::Int | DataType::Double | DataType::String);
    let own = BTreeSet::from([join.entry]);
    let sides = |l: &Expr, r: &Expr| {
        scope.entries_of(l).is_subset(joined) && scope.entries_of(r).is_subset(&own)
    };
    let mut equi = Vec::new();
    let mut residual = Vec::new();
    for conj in join.on.conjuncts() {
        let pair = match conj {
            Expr::Binary {
                op: BinOp::Eq,
                left: a,
                right: b,
            } => [(a, b), (b, a)].into_iter().find(|(l, r)| sides(l, r)),
            _ => None,
        };
        let Some(pair) = pair else {
            residual.push(conj);
            continue;
        };
        let (l, r) = (resolve(pair.0, left)?, resolve(pair.1, right)?);
        let (lt, rt) = (expr_type(&l, &left_schema)?, expr_type(&r, &right_schema)?);
        if lt == rt {
            equi.push((l, r));
        } else if meets(&lt) && meets(&rt) {
            equi.push((to_double(l, &lt)?, to_double(r, &rt)?));
        } else {
            let mismatch = format!("type mismatch: joining {lt} and {rt}");
            return Err(HiveError::Semantic(mismatch));
        }
    }
    Ok((equi, residual))
}

/// Insert RS + RS + Join for a binary reduce join. The joined row layout is
/// `[l_keys, l_cols, r_keys, r_cols]` because reduce-side rows arrive as
/// key ++ value; `on` (the Join's residual) is bound over it.
fn add_reduce_join(
    g: &mut PlanGraph,
    left: Rel,
    right: Rel,
    equi: &[(ExprNode, ExprNode)],
    kind: JoinType,
    on: &[&Expr],
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

    let key_cols = |side: &'static str| {
        let named = key_types.iter().enumerate();
        named.map(move |(i, t)| (None, format!("_{side}key{i}"), t.clone()))
    };
    let cols: Vec<(Option<String>, String, DataType)> = key_cols("l")
        .chain(left.cols.iter().cloned())
        .chain(key_cols("r"))
        .chain(right.cols.iter().cloned())
        .collect();
    // The node is the Join, added once its residual is bound.
    let mut joined = Rel {
        node: usize::MAX,
        cols,
    };
    let on = on.iter().map(|c| predicate(c, &joined, "ON"));
    let residual = on.collect::<Result<Vec<_>>>()?;
    joined.node = g.add(
        PlanOp::Join {
            kind,
            input_widths: [nk + left.cols.len(), nk + right.cols.len()],
            nk,
            residual: residual
                .into_iter()
                .reduce(|a, b| ExprNode::binary(BinaryOp::And, a, b)),
        },
        joined.schema(),
        vec![rs_l, rs_r],
    );
    Ok(joined)
}

/// The substitution context built by aggregation planning: the bound
/// group expressions, and each bound aggregate call with the expression
/// over the aggregation's output that answers it.
#[derive(Debug)]
struct GroupSubst<'a> {
    groups: &'a [Expr],
    /// An output column, or `sum / count` for AVG.
    aggs: Vec<(&'a Expr, ExprNode)>,
}

/// Insert map-side hash GBY → RS → reduce-side merge GBY. AVG is planned as
/// SUM / COUNT here (Calcite's aggregate reduction), so every aggregate the
/// engines run has a partial equal to its final value: the map side
/// shuffles scalars, and the merge runs the same functions but for COUNT,
/// whose partial counts `MergeCount` sums.
fn add_aggregation<'a>(
    g: &mut PlanGraph,
    input: Rel,
    group_by: &'a [Expr],
    agg_calls: &'a [&'a Expr],
) -> Result<(Rel, GroupSubst<'a>)> {
    let schema = input.schema();
    let nk = group_by.len();
    let mut key_exprs = Vec::with_capacity(nk);
    let mut key_infos = Vec::with_capacity(nk);
    for (i, e) in group_by.iter().enumerate() {
        let r = resolve(e, &input)?;
        let t = expr_type(&r, &schema)?;
        let name = match e {
            Expr::Column { name, .. } => name.clone(),
            _ => format!("_gk{i}"),
        };
        key_exprs.push(r);
        key_infos.push(ColumnInfo::new(name, t));
    }

    let mut calls: Vec<AggCall> = Vec::with_capacity(agg_calls.len());
    let mut answers = Vec::with_capacity(agg_calls.len());
    let column = |i| ExprNode::col(nk + i);
    for &e in agg_calls {
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
        let avg = name == "avg";
        let function = match avg {
            true => AggFunction::Sum,
            false => parse_agg_function(name, star)
                .ok_or_else(|| HiveError::Semantic(format!("unknown aggregate `{name}`")))?,
        };
        let mut arg = if star || args.is_empty() {
            None
        } else {
            Some(resolve(&args[0], &input)?)
        };
        // SUM and AVG add numbers: a NULL literal is typed BIGINT, anything
        // but a number is rejected.
        if function == AggFunction::Sum {
            if let Some(null @ ExprNode::Literal(Value::Null)) = &mut arg {
                let expr = Box::new(std::mem::replace(null, ExprNode::Literal(Value::Null)));
                *null = ExprNode::Cast {
                    expr,
                    target: DataType::Int,
                };
            }
            let name = name.to_uppercase();
            let Some(a) = &arg else {
                return Err(HiveError::Semantic(format!("{name} takes an argument")));
            };
            let t = expr_type(a, &schema)?;
            if !matches!(t, DataType::Int | DataType::Double) {
                return Err(HiveError::Semantic(format!(
                    "type mismatch: {name} over {t}"
                )));
            }
        }
        let answer = match (avg, arg) {
            // AVG(x) is SUM(x as DOUBLE) / COUNT(x): a BIGINT AVG adds
            // DOUBLEs, so it never wraps.
            (true, Some(a)) => {
                let addend = match expr_type(&a, &schema)? {
                    DataType::Double => a.clone(),
                    _ => cast(a.clone(), &DataType::Double)?,
                };
                let sum = shared_call(&mut calls, AggFunction::Sum, Some(addend), &schema)?;
                let count = shared_call(&mut calls, AggFunction::Count, Some(a), &schema)?;
                ExprNode::binary(BinaryOp::Divide, column(sum), column(count))
            }
            (_, arg) => column(shared_call(&mut calls, function, arg, &schema)?),
        };
        answers.push((e, answer));
    }

    // Map-side partial aggregation: its output is the merge's layout.
    let mut out_schema = key_infos;
    for c in &calls {
        out_schema.push(ColumnInfo::new(
            c.output_name.clone(),
            c.output_type.clone(),
        ));
    }
    let map_gby = g.add(
        PlanOp::GroupBy {
            phase: GroupByPhase::MapHash,
            keys: key_exprs,
            aggs: calls.clone(),
        },
        out_schema.clone(),
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
        out_schema.clone(),
        vec![map_gby],
    );

    // Reduce-side merge.
    let merge_calls: Vec<AggCall> = calls
        .into_iter()
        .enumerate()
        .map(|(i, c)| AggCall {
            function: match c.function {
                AggFunction::CountStar | AggFunction::Count => AggFunction::MergeCount,
                f => f,
            },
            arg: Some(ExprNode::col(nk + i)),
            ..c
        })
        .collect();
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
        .into_iter()
        .map(|c| (None, c.name, c.data_type))
        .collect();
    let subst = GroupSubst {
        groups: group_by,
        aggs: answers,
    };
    Ok((
        Rel {
            node: merge_gby,
            cols,
        },
        subst,
    ))
}

/// The position among `calls` of `function(arg)`, collected unless an equal
/// call already is: `AVG(x)` beside `SUM(x)` adds one COUNT, not a SUM.
fn shared_call(
    calls: &mut Vec<AggCall>,
    function: AggFunction,
    arg: Option<ExprNode>,
    input: &[ColumnInfo],
) -> Result<usize> {
    if let Some(i) = calls
        .iter()
        .position(|c| c.function == function && c.arg == arg)
    {
        return Ok(i);
    }
    let arg_type = arg.as_ref().map(|a| expr_type(a, input)).transpose()?;
    calls.push(AggCall {
        function,
        output_type: agg_output_type(function, arg_type.as_ref()),
        arg,
        output_name: format!("_agg{}", calls.len()),
    });
    Ok(calls.len() - 1)
}

/// Lower a bound expression over the aggregation output (`output`): a
/// sub-tree equal to a group expression is its output column, one equal to
/// a collected aggregate call is that call's answer; anything else must be
/// composed of them.
fn resolve_with_groups(e: &Expr, subst: &GroupSubst, output: &[ColumnInfo]) -> Result<ExprNode> {
    lower(e, output, &mut |x| {
        if let Some(i) = subst.groups.iter().position(|g| g == x) {
            return Ok(Some(ExprNode::col(i)));
        }
        if let Some((_, answer)) = subst.aggs.iter().find(|(a, _)| *a == x) {
            return Ok(Some(answer.clone()));
        }
        match x {
            Expr::Column { .. } => Err(HiveError::Semantic(format!(
                "column {x:?} is neither grouped nor aggregated"
            ))),
            _ => Ok(None),
        }
    })
}

/// Collect the distinct aggregate calls of `e`, outermost first (an
/// aggregate's own arguments are not searched).
fn collect_agg_calls<'a>(e: &'a Expr, out: &mut Vec<&'a Expr>) {
    e.walk(&mut |x| {
        let is_agg = matches!(x, Expr::Function { name, args, .. }
            if name == "avg"
                || parse_agg_function(name, matches!(args.first(), Some(Expr::Star))).is_some());
        if is_agg && !out.contains(&x) {
            out.push(x);
        }
        !is_agg
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{StaticCatalog, TableMeta};
    use hive_common::Schema;
    use hive_ql::{parse, Statement};

    /// Lower with BIGINT columns bound by position in `names`.
    fn lower_over(e: &Expr, names: &[&str]) -> Result<ExprNode> {
        let input: Vec<ColumnInfo> = names
            .iter()
            .map(|n| ColumnInfo::new(*n, DataType::Int))
            .collect();
        lower(e, &input, &mut |x| match x {
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
        let input = [
            ColumnInfo::new("k", DataType::Int),
            ColumnInfo::new("b", DataType::Boolean),
        ];
        let node = lower(&e, &input, &mut |x| match x {
            Expr::Between { .. } => Ok(Some(ExprNode::col(1))),
            Expr::Column { .. } => Ok(Some(ExprNode::col(0))),
            _ => Ok(None),
        })
        .unwrap();
        let ExprNode::Binary { left, .. } = node else {
            panic!("expected AND")
        };
        assert_eq!(*left, ExprNode::col(1));
        // Leaves nobody answered are semantic errors, not panics.
        for sql in [
            "SELECT v FROM t WHERE nope = 1",
            "SELECT v FROM t WHERE upper(v) = 1",
        ] {
            let err = lower_over(&where_of(sql), &["v"]).unwrap_err();
            assert!(matches!(err, HiveError::Semantic(_)), "{sql}: {err}");
        }
    }

    /// The join order `hive.cbo.enable` picks, as bindings.
    fn reordered(catalog: &StaticCatalog, sql: &str) -> Vec<String> {
        let Statement::Select(stmt) = parse(sql).unwrap() else {
            panic!("expected select")
        };
        let mut bound = bind_select(&stmt, catalog).unwrap();
        reorder_joins(&mut bound);
        let binding = |j: &BoundJoin| bound.scope.binding(j.entry).to_string();
        bound.joins.iter().map(binding).collect()
    }

    /// (name, columns, bytes).
    type Sized<'a> = (&'a str, &'a [(&'a str, &'a str)], u64);

    fn sized_tables(tables: &[Sized]) -> StaticCatalog {
        let table = |&(name, cols, size): &Sized| TableMeta {
            name: name.into(),
            schema: Schema::parse(cols).unwrap(),
            format: hive_formats::FormatKind::Orc,
            paths: vec![],
            size_bytes: size,
            acid: None,
        };
        StaticCatalog {
            tables: tables.iter().map(table).collect(),
        }
    }

    fn kv_tables() -> StaticCatalog {
        let kv: &[(&str, &str)] = &[("k", "bigint"), ("v", "bigint")];
        sized_tables(&[
            ("huge", kv, 1 << 40),
            ("big", kv, 1 << 30),
            ("mid", kv, 1 << 20),
            ("tiny", kv, 1 << 10),
        ])
    }

    /// The vector map-join keys its hash table by typed key lanes, so it must
    /// never see a probe key and a build key of two types: the binder meets
    /// an INT key with a DOUBLE one as DOUBLE on both sides.
    #[test]
    fn int_and_double_join_keys_meet_as_double_on_both_sides() {
        let catalog = sized_tables(&[
            ("a", &[("k", "bigint")], 1 << 30),
            ("b", &[("d", "double"), ("n", "string")], 1 << 10),
        ]);
        let Statement::Select(stmt) =
            parse("SELECT a.k, b.n FROM a JOIN b ON (a.k = b.d)").unwrap()
        else {
            panic!("expected select")
        };
        let conf = HiveConf::new();
        let mut t = translate(&stmt, &catalog, &conf).unwrap();
        crate::mapjoin::convert_map_joins(&mut t.graph, &conf).unwrap();
        let nodes = &t.graph.nodes;
        let (n, side) = nodes
            .iter()
            .find_map(|n| match &n.op {
                PlanOp::MapJoin(side) if n.alive => Some((n, side)),
                _ => None,
            })
            .expect("b is small enough to build a map join");
        let stream = &nodes[n.parents[0]].schema;
        let probe = expr_type(&side.stream_keys[0], stream).unwrap();
        let build = &n.schema[stream.len()].data_type;
        assert_eq!((probe, build), (DataType::Double, &DataType::Double));
    }

    /// TPC-H q1 collects 8 aggregate calls; AVG is SUM / COUNT and shares
    /// q1's SUM over the same column, so the map side computes 9 scalars.
    #[test]
    fn q1_shares_each_avg_sum_with_its_sum() {
        let cols: &[(&str, &str)] = &[
            ("l_quantity", "double"),
            ("l_extendedprice", "double"),
            ("l_discount", "double"),
            ("l_tax", "double"),
            ("l_returnflag", "string"),
            ("l_linestatus", "string"),
            ("l_shipdate", "string"),
        ];
        let catalog = sized_tables(&[("lineitem", cols, 1 << 30)]);
        let Statement::Select(stmt) = parse(
            "SELECT l_returnflag, l_linestatus, SUM(l_quantity) AS sum_qty, \
             SUM(l_extendedprice) AS sum_base_price, \
             SUM(l_extendedprice * (1 - l_discount)) AS sum_disc_price, \
             SUM(l_extendedprice * (1 - l_discount) * (1 + l_tax)) AS sum_charge, \
             AVG(l_quantity) AS avg_qty, AVG(l_extendedprice) AS avg_price, \
             AVG(l_discount) AS avg_disc, COUNT(*) AS count_order FROM lineitem \
             WHERE l_shipdate <= '1998-09-02' GROUP BY l_returnflag, l_linestatus \
             ORDER BY l_returnflag, l_linestatus",
        )
        .unwrap() else {
            panic!("expected select")
        };
        let t = translate(&stmt, &catalog, &HiveConf::new()).unwrap();
        let mut map_aggs = t.graph.nodes.iter().filter_map(|n| match &n.op {
            PlanOp::GroupBy {
                phase: GroupByPhase::MapHash,
                aggs,
                ..
            } => Some(aggs),
            _ => None,
        });
        let aggs = map_aggs.next().expect("q1 aggregates on the map side");
        assert!(map_aggs.next().is_none());
        let sums_of = |c: usize| {
            let sum = |a: &&AggCall| a.function == AggFunction::Sum;
            let of = |a: &&AggCall| a.arg == Some(ExprNode::col(c));
            aggs.iter().filter(sum).filter(of).count()
        };
        assert_eq!(aggs.len(), 9);
        // The scan projects q1's columns in table order.
        assert_eq!((sums_of(0), sums_of(1)), (1, 1));
        let scalar = aggs.iter().all(|a| a.output_type.is_primitive());
        assert!(scalar, "{aggs:?}");
    }

    #[test]
    fn smallest_table_joins_first() {
        let order = reordered(
            &kv_tables(),
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
        let order = reordered(
            &kv_tables(),
            "SELECT huge.k FROM huge \
             JOIN big ON (huge.k = big.k) \
             JOIN tiny ON (big.v = tiny.k)",
        );
        assert_eq!(order, vec!["big", "tiny"]);
    }

    #[test]
    fn outer_joins_freeze_the_order() {
        let order = reordered(
            &kv_tables(),
            "SELECT huge.k FROM huge \
             JOIN big ON (huge.k = big.k) \
             LEFT JOIN tiny ON (huge.k = tiny.k)",
        );
        assert_eq!(order, vec!["big", "tiny"], "written order preserved");
    }

    #[test]
    fn unqualified_conditions_reorder_like_qualified_ones() {
        // q27 style: every column name belongs to one table, nothing is
        // qualified — the reorder sees the same entries the analyzer does.
        let catalog = sized_tables(&[
            (
                "sales",
                &[("s_item", "bigint"), ("s_store", "bigint")],
                1 << 40,
            ),
            (
                "item",
                &[("i_id", "bigint"), ("i_brand", "bigint")],
                1 << 30,
            ),
            ("brand", &[("b_id", "bigint")], 1 << 10),
            ("store", &[("st_id", "bigint")], 1 << 20),
        ]);
        let order = reordered(
            &catalog,
            "SELECT s_item FROM sales \
             JOIN item ON (s_item = i_id) \
             JOIN brand ON (i_brand = b_id) \
             JOIN store ON (s_store = st_id)",
        );
        // store hoists over item; brand still waits for item.
        assert_eq!(order, vec!["store", "item", "brand"]);
    }
}
