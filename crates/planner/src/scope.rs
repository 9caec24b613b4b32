//! Name resolution: which FROM-clause entry does a column reference belong
//! to? Asked once per reference, answered by [`Scope::bind`] alone.
//!
//! [`bind_select`] rewrites every clause of a SELECT so each column is
//! spelled `(binding, column)` exactly as its scope entry spells them. Two
//! bound references are then the same column iff they are `==`, and every
//! later question — which columns a scan needs, where a conjunct may run,
//! which side of a join an `ON` operand sits on, whether an expression is a
//! GROUP BY key — is read off the bound statement, never re-derived.

use crate::catalog::{Catalog, TableMeta};
use hive_common::{HiveError, Result, Schema};
use hive_formats::delta::VIRTUAL_COLUMNS;
use hive_ql::{Expr, JoinKind, OrderItem, SelectItem, SelectStmt, TableRef};
use std::collections::BTreeSet;

/// What column references can mean: one entry per FROM item, in written
/// order.
#[derive(Debug, Default)]
pub struct Scope {
    entries: Vec<Entry>,
}

#[derive(Debug)]
struct Entry {
    binding: String,
    /// The columns `*` stands for.
    columns: Vec<String>,
    /// A scanned table also binds the [`VIRTUAL_COLUMNS`], numbered after
    /// `columns`.
    scanned: bool,
}

impl Entry {
    fn of_table(binding: &str, schema: &Schema) -> Entry {
        Entry {
            binding: binding.to_string(),
            columns: schema.fields().iter().map(|f| f.name.clone()).collect(),
            scanned: false,
        }
    }

    /// Every name a reference can bind, by column number.
    fn names(&self) -> impl Iterator<Item = &str> {
        let hidden: &[_] = if self.scanned { &VIRTUAL_COLUMNS } else { &[] };
        let columns = self.columns.iter().map(String::as_str);
        columns.chain(hidden.iter().map(|(name, _)| *name))
    }
}

impl Scope {
    /// The one-entry scope a statistics-only answer resolves against:
    /// `binding` hides every other name, the table's own included when it
    /// is an alias.
    pub fn of_table(binding: &str, schema: &Schema) -> Scope {
        Scope {
            entries: vec![Entry::of_table(binding, schema)],
        }
    }

    /// The `(entry, column)` a reference means — the only place that says
    /// *unknown* or *ambiguous*. The lexer lower-cases identifiers; catalog
    /// field names need not be, hence the case-insensitive comparison.
    pub fn bind(&self, qualifier: Option<&str>, name: &str) -> Result<(usize, usize)> {
        let mut hits = self
            .entries
            .iter()
            .enumerate()
            .filter(|(_, e)| qualifier.is_none_or(|q| q.eq_ignore_ascii_case(&e.binding)))
            .flat_map(|(i, e)| {
                let named = e.names().enumerate();
                named
                    .filter(|(_, c)| c.eq_ignore_ascii_case(name))
                    .map(move |(c, _)| (i, c))
            });
        match (hits.next(), hits.next()) {
            (Some(hit), None) => Ok(hit),
            (None, _) => Err(HiveError::Semantic(format!(
                "unknown column `{}{name}`",
                qualifier.map(|q| format!("{q}.")).unwrap_or_default()
            ))),
            _ => Err(HiveError::Semantic(format!("ambiguous column `{name}`"))),
        }
    }

    pub(crate) fn binding(&self, entry: usize) -> &str {
        &self.entries[entry].binding
    }

    /// The columns `*` stands for in `entry`.
    pub(crate) fn columns(&self, entry: usize) -> &[String] {
        &self.entries[entry].columns
    }

    /// `e` with every column reference in its canonical spelling.
    fn bind_expr(&self, e: &Expr) -> Result<Expr> {
        fn rewrite(scope: &Scope, e: &mut Expr) -> Result<()> {
            if let Expr::Column { table, name } = e {
                let (entry, column) = scope.bind(table.as_deref(), name)?;
                let entry = &scope.entries[entry];
                *table = Some(entry.binding.clone());
                if let Some(canonical) = entry.names().nth(column) {
                    *name = canonical.to_string();
                }
            }
            e.children_mut()
                .into_iter()
                .try_for_each(|c| rewrite(scope, c))
        }
        let mut bound = e.clone();
        rewrite(self, &mut bound)?;
        Ok(bound)
    }

    /// Every `(entry, column)` a bound expression mentions.
    pub(crate) fn refs(&self, e: &Expr) -> BTreeSet<(usize, usize)> {
        let mut out = BTreeSet::new();
        e.walk(&mut |x| {
            if let Expr::Column {
                table: Some(t),
                name,
            } = x
            {
                out.extend(self.bind(Some(t), name));
            }
            true
        });
        out
    }

    /// The entries a bound expression mentions.
    pub(crate) fn entries_of(&self, e: &Expr) -> BTreeSet<usize> {
        self.refs(e).into_iter().map(|(entry, _)| entry).collect()
    }
}

/// What a scope entry reads from.
#[derive(Debug)]
pub(crate) enum Source {
    /// The table as the catalog resolved it, once, for this statement.
    Table(TableMeta),
    Query(Box<Bound>),
}

/// `JOIN <entry> ON <on>`.
#[derive(Debug)]
pub(crate) struct BoundJoin {
    pub kind: JoinKind,
    pub entry: usize,
    pub on: Expr,
}

/// A SELECT after binding. Every `Expr::Column` carries its entry's
/// binding and column name; the one exception is an ORDER BY item left
/// unqualified, which names an output column (SQL's alias-first rule).
#[derive(Debug)]
pub(crate) struct Bound {
    pub scope: Scope,
    /// Per scope entry.
    pub sources: Vec<Source>,
    /// In the order they will be joined; join `i` is written against entry
    /// `i + 1` until join reordering permutes them.
    pub joins: Vec<BoundJoin>,
    pub projections: Vec<SelectItem>,
    pub filter: Option<Expr>,
    pub group_by: Vec<Expr>,
    pub having: Option<Expr>,
    pub order_by: Vec<OrderItem>,
    pub limit: Option<u64>,
}

pub(crate) fn has_star(items: &[SelectItem]) -> bool {
    items.iter().any(|p| matches!(p.expr, Expr::Star))
}

/// The name projection `i` gives its output column.
pub(crate) fn output_name(i: usize, item: &SelectItem) -> String {
    item.alias.clone().unwrap_or_else(|| match &item.expr {
        Expr::Column { name, .. } => name.clone(),
        _ => format!("_c{i}"),
    })
}

impl Bound {
    /// Every clause's expressions, for whole-statement questions.
    pub(crate) fn exprs(&self) -> impl Iterator<Item = &Expr> {
        let projections = self.projections.iter().map(|p| &p.expr);
        projections
            .chain(self.joins.iter().map(|j| &j.on))
            .chain(&self.filter)
            .chain(&self.group_by)
            .chain(&self.having)
            .chain(self.order_by.iter().map(|o| &o.expr))
    }

    /// Output column names as an enclosing scope sees them. `*` stands for
    /// every column of every entry.
    fn output_names(&self) -> Vec<String> {
        let mut names = Vec::new();
        for (i, p) in self.projections.iter().enumerate() {
            match p.expr {
                Expr::Star => {
                    let entries = self.scope.entries.iter();
                    names.extend(entries.flat_map(|e| e.columns.iter().cloned()))
                }
                _ => names.push(output_name(i, p)),
            }
        }
        names
    }
}

/// Bind a SELECT, sub-queries first: build its scope (one catalog lookup
/// per table reference), then rewrite every clause against it.
pub(crate) fn bind_select(stmt: &SelectStmt, catalog: &dyn Catalog) -> Result<Bound> {
    let mut scope = Scope::default();
    let mut sources = Vec::new();
    for tref in std::iter::once(&stmt.from).chain(stmt.joins.iter().map(|j| &j.table)) {
        let binding = tref.binding();
        let (entry, source) = match tref {
            TableRef::Table { name, .. } => {
                let meta = catalog
                    .table(name)?
                    .ok_or_else(|| HiveError::Semantic(format!("unknown table `{name}`")))?;
                let entry = Entry {
                    scanned: true,
                    ..Entry::of_table(binding, &meta.schema)
                };
                (entry, Source::Table(meta))
            }
            TableRef::Subquery { query, .. } => {
                let inner = bind_select(query, catalog)?;
                let entry = Entry {
                    binding: binding.to_string(),
                    columns: inner.output_names(),
                    scanned: false,
                };
                (entry, Source::Query(Box::new(inner)))
            }
        };
        scope.entries.push(entry);
        sources.push(source);
    }

    let bind = |e: &Expr| scope.bind_expr(e);
    let projections = stmt
        .projections
        .iter()
        .map(|p| {
            Ok(SelectItem {
                expr: bind(&p.expr)?,
                alias: p.alias.clone(),
            })
        })
        .collect::<Result<Vec<_>>>()?;
    let joins = stmt
        .joins
        .iter()
        .enumerate()
        .map(|(i, j)| {
            Ok(BoundJoin {
                kind: j.kind,
                entry: i + 1,
                on: bind(&j.on)?,
            })
        })
        .collect::<Result<Vec<_>>>()?;
    // ORDER BY looks at the select list first: an unqualified name that is
    // an output column's stays as written and sorts by that column.
    let outputs = projections.iter().enumerate();
    let outputs: Vec<String> = outputs.map(|(i, p)| output_name(i, p)).collect();
    let names_output =
        |name: &str| has_star(&projections) || outputs.iter().any(|o| o.eq_ignore_ascii_case(name));
    let order_by = stmt
        .order_by
        .iter()
        .map(|o| {
            let expr = match &o.expr {
                Expr::Column { table: None, name } if names_output(name) => o.expr.clone(),
                e => bind(e)?,
            };
            Ok(OrderItem {
                expr,
                ascending: o.ascending,
            })
        })
        .collect::<Result<Vec<_>>>()?;
    Ok(Bound {
        joins,
        filter: stmt.where_clause.as_ref().map(bind).transpose()?,
        group_by: stmt.group_by.iter().map(bind).collect::<Result<_>>()?,
        having: stmt.having.as_ref().map(bind).transpose()?,
        order_by,
        limit: stmt.limit,
        projections,
        sources,
        scope,
    })
}
