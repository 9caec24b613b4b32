//! The abstract syntax tree produced by the parser — what Hive's Driver
//! hands to the Planner (paper Section 2).

use hive_common::{DataType, Value};

/// A parsed statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    Select(SelectStmt),
    CreateTable(CreateTableStmt),
    /// `EXPLAIN [ANALYZE] <select>` — show the plan; with ANALYZE the query
    /// also runs and the plan is annotated with observed runtime profiles.
    Explain {
        analyze: bool,
        stmt: Box<Statement>,
    },
    /// `DESCRIBE <table>` — column names and types.
    Describe(String),
    /// `INSERT INTO <table> VALUES (...), (...)` — append rows as an ACID
    /// insert delta.
    Insert(InsertStmt),
    /// `UPDATE <table> SET col = expr, ... [WHERE pred]` — delete-plus-
    /// reinsert through the delta store, committed atomically.
    Update(UpdateStmt),
    /// `DELETE FROM <table> [WHERE pred]` — mask rows via a delete file.
    Delete(DeleteStmt),
    /// `ALTER TABLE <table> COMPACT 'minor'|'major'` — run a compaction.
    Compact {
        table: String,
        mode: CompactMode,
    },
}

/// `INSERT INTO name VALUES (expr, ...), ...`.
#[derive(Debug, Clone, PartialEq)]
pub struct InsertStmt {
    pub table: String,
    /// Literal row tuples; each inner vec is one row in column order.
    pub rows: Vec<Vec<Expr>>,
}

/// `UPDATE name SET col = expr, ... [WHERE pred]`.
#[derive(Debug, Clone, PartialEq)]
pub struct UpdateStmt {
    pub table: String,
    pub sets: Vec<(String, Expr)>,
    pub predicate: Option<Expr>,
}

/// `DELETE FROM name [WHERE pred]`.
#[derive(Debug, Clone, PartialEq)]
pub struct DeleteStmt {
    pub table: String,
    pub predicate: Option<Expr>,
}

/// Which compaction `ALTER TABLE ... COMPACT` requested.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompactMode {
    /// Merge delta/delete files; base files untouched.
    Minor,
    /// Rewrite the table into fresh base files.
    Major,
}

/// `CREATE TABLE name (col type, ...) STORED AS format`.
#[derive(Debug, Clone, PartialEq)]
pub struct CreateTableStmt {
    pub name: String,
    pub columns: Vec<(String, DataType)>,
    /// `STORED AS <format>` spelling, if present.
    pub stored_as: Option<String>,
}

/// A (possibly nested) SELECT.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectStmt {
    pub projections: Vec<SelectItem>,
    pub from: TableRef,
    pub joins: Vec<Join>,
    pub where_clause: Option<Expr>,
    pub group_by: Vec<Expr>,
    pub having: Option<Expr>,
    pub order_by: Vec<OrderItem>,
    pub limit: Option<u64>,
}

/// One projected expression with an optional alias.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectItem {
    pub expr: Expr,
    pub alias: Option<String>,
}

/// A FROM-clause source.
#[derive(Debug, Clone, PartialEq)]
pub enum TableRef {
    Table {
        name: String,
        alias: Option<String>,
    },
    /// Derived table: `(SELECT ...) alias`.
    Subquery {
        query: Box<SelectStmt>,
        alias: String,
    },
}

impl TableRef {
    /// The name this source binds in scope.
    pub fn binding(&self) -> &str {
        match self {
            TableRef::Table { alias: Some(a), .. } => a,
            TableRef::Table { name, .. } => name,
            TableRef::Subquery { alias, .. } => alias,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinKind {
    Inner,
    LeftOuter,
    RightOuter,
    FullOuter,
}

/// `JOIN <table> ON <condition>`.
#[derive(Debug, Clone, PartialEq)]
pub struct Join {
    pub kind: JoinKind,
    pub table: TableRef,
    pub on: Expr,
}

/// `ORDER BY expr [ASC|DESC]`.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderItem {
    pub expr: Expr,
    pub ascending: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    Add,
    Subtract,
    Multiply,
    Divide,
    Modulo,
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    And,
    Or,
}

impl BinOp {
    pub fn is_comparison(&self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::NotEq | BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq
        )
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    Neg,
    Not,
}

/// A scalar or aggregate expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// `[table.]column`.
    Column {
        table: Option<String>,
        name: String,
    },
    Literal(Value),
    Binary {
        op: BinOp,
        left: Box<Expr>,
        right: Box<Expr>,
    },
    Unary {
        op: UnOp,
        expr: Box<Expr>,
    },
    /// `f(args)`; aggregates (`sum`, `count`, `avg`, `min`, `max`) included.
    Function {
        name: String,
        args: Vec<Expr>,
        distinct: bool,
    },
    /// `expr [NOT] BETWEEN lo AND hi`.
    Between {
        expr: Box<Expr>,
        lo: Box<Expr>,
        hi: Box<Expr>,
        negated: bool,
    },
    /// `expr IS [NOT] NULL`.
    IsNull {
        expr: Box<Expr>,
        negated: bool,
    },
    /// `expr [NOT] IN (v1, v2, ...)`.
    InList {
        expr: Box<Expr>,
        list: Vec<Expr>,
        negated: bool,
    },
    /// `*` in `COUNT(*)`.
    Star,
    /// CAST(expr AS type).
    Cast {
        expr: Box<Expr>,
        target: DataType,
    },
    /// `CASE WHEN cond THEN v ... [ELSE v] END`.
    Case {
        branches: Vec<(Expr, Expr)>,
        else_value: Option<Box<Expr>>,
    },
}

impl Expr {
    pub fn col(name: &str) -> Expr {
        Expr::Column {
            table: None,
            name: name.to_string(),
        }
    }

    pub fn qcol(table: &str, name: &str) -> Expr {
        Expr::Column {
            table: Some(table.to_string()),
            name: name.to_string(),
        }
    }

    pub fn binary(op: BinOp, left: Expr, right: Expr) -> Expr {
        Expr::Binary {
            op,
            left: Box::new(left),
            right: Box::new(right),
        }
    }

    /// Direct sub-expressions, in source order — the one place that knows
    /// which variants nest. Every traversal outside the parser goes through
    /// this (or [`Expr::walk`] on top of it), so a new variant is taught to
    /// all of them here.
    pub fn children(&self) -> Vec<&Expr> {
        match self {
            Expr::Column { .. } | Expr::Literal(_) | Expr::Star => Vec::new(),
            Expr::Binary { left, right, .. } => vec![left, right],
            Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } | Expr::Cast { expr, .. } => {
                vec![expr]
            }
            Expr::Function { args, .. } => args.iter().collect(),
            Expr::Between { expr, lo, hi, .. } => vec![expr, lo, hi],
            Expr::InList { expr, list, .. } => {
                std::iter::once(&**expr).chain(list.iter()).collect()
            }
            Expr::Case {
                branches,
                else_value,
            } => branches
                .iter()
                .flat_map(|(c, v)| [c, v])
                .chain(else_value.as_deref())
                .collect(),
        }
    }

    /// [`Expr::children`], mutably — for rewrites that keep the tree's shape.
    pub fn children_mut(&mut self) -> Vec<&mut Expr> {
        match self {
            Expr::Column { .. } | Expr::Literal(_) | Expr::Star => Vec::new(),
            Expr::Binary { left, right, .. } => vec![left, right],
            Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } | Expr::Cast { expr, .. } => {
                vec![expr]
            }
            Expr::Function { args, .. } => args.iter_mut().collect(),
            Expr::Between { expr, lo, hi, .. } => vec![expr, lo, hi],
            Expr::InList { expr, list, .. } => std::iter::once(&mut **expr)
                .chain(list.iter_mut())
                .collect(),
            Expr::Case {
                branches,
                else_value,
            } => branches
                .iter_mut()
                .flat_map(|(c, v)| [c, v])
                .chain(else_value.as_deref_mut())
                .collect(),
        }
    }

    /// Pre-order walk: `visit` sees every node and answers whether to
    /// descend into that node's children.
    pub fn walk<'a, F: FnMut(&'a Expr) -> bool>(&'a self, visit: &mut F) {
        if visit(self) {
            for child in self.children() {
                child.walk(visit);
            }
        }
    }

    /// Whether this expression tree contains an aggregate call.
    pub fn has_aggregate(&self) -> bool {
        let mut found = false;
        self.walk(&mut |e| {
            found |= matches!(e, Expr::Function { name, .. }
                if matches!(name.as_str(), "sum" | "count" | "avg" | "min" | "max"));
            !found
        });
        found
    }

    /// Split a conjunction into its AND-ed factors.
    pub fn conjuncts(&self) -> Vec<&Expr> {
        match self {
            Expr::Binary {
                op: BinOp::And,
                left,
                right,
            } => {
                let mut out = left.conjuncts();
                out.extend(right.conjuncts());
                out
            }
            other => vec![other],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conjuncts_flatten() {
        let e = Expr::binary(
            BinOp::And,
            Expr::binary(BinOp::And, Expr::col("a"), Expr::col("b")),
            Expr::col("c"),
        );
        assert_eq!(e.conjuncts().len(), 3);
    }

    #[test]
    fn aggregate_detection() {
        let agg = Expr::Function {
            name: "sum".into(),
            args: vec![Expr::col("x")],
            distinct: false,
        };
        assert!(agg.has_aggregate());
        let nested = Expr::binary(BinOp::Add, agg, Expr::Literal(Value::Int(1)));
        assert!(nested.has_aggregate());
        assert!(!Expr::col("x").has_aggregate());
    }

    /// One sample per variant with distinct marker sub-expressions, and
    /// the children each must yield. `variant_of` has no wildcard arm, so a
    /// new variant fails to compile here until it gets a sample — and the
    /// sample fails unless `children()` reaches its sub-expressions.
    #[test]
    fn children_yield_each_subexpression_exactly_once() {
        fn variant_of(e: &Expr) -> usize {
            match e {
                Expr::Column { .. } => 0,
                Expr::Literal(_) => 1,
                Expr::Binary { .. } => 2,
                Expr::Unary { .. } => 3,
                Expr::Function { .. } => 4,
                Expr::Between { .. } => 5,
                Expr::IsNull { .. } => 6,
                Expr::InList { .. } => 7,
                Expr::Star => 8,
                Expr::Cast { .. } => 9,
                Expr::Case { .. } => 10,
            }
        }
        let m = |i: i64| Expr::Literal(Value::Int(i));
        let b = |i: i64| Box::new(m(i));
        let samples: Vec<(Expr, Vec<Expr>)> = vec![
            (Expr::qcol("t", "c"), vec![]),
            (m(0), vec![]),
            (Expr::binary(BinOp::Add, m(1), m(2)), vec![m(1), m(2)]),
            (
                Expr::Unary {
                    op: UnOp::Neg,
                    expr: b(1),
                },
                vec![m(1)],
            ),
            (
                Expr::Function {
                    name: "f".into(),
                    args: vec![m(1), m(2), Expr::Star],
                    distinct: false,
                },
                vec![m(1), m(2), Expr::Star],
            ),
            (
                Expr::Between {
                    expr: b(1),
                    lo: b(2),
                    hi: b(3),
                    negated: true,
                },
                vec![m(1), m(2), m(3)],
            ),
            (
                Expr::IsNull {
                    expr: b(1),
                    negated: false,
                },
                vec![m(1)],
            ),
            (
                Expr::InList {
                    expr: b(1),
                    list: vec![m(2), m(3)],
                    negated: false,
                },
                vec![m(1), m(2), m(3)],
            ),
            (Expr::Star, vec![]),
            (
                Expr::Cast {
                    expr: b(1),
                    target: DataType::Double,
                },
                vec![m(1)],
            ),
            (
                Expr::Case {
                    branches: vec![(m(1), m(2)), (m(3), m(4))],
                    else_value: Some(b(5)),
                },
                vec![m(1), m(2), m(3), m(4), m(5)],
            ),
        ];
        let mut seen: Vec<usize> = samples.iter().map(|(e, _)| variant_of(e)).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..=10).collect::<Vec<_>>(), "one sample per variant");
        for (e, want) in &samples {
            let got: Vec<Expr> = e.children().into_iter().cloned().collect();
            assert_eq!(&got, want, "children of {e:?}");
            let got_mut: Vec<Expr> = e
                .clone()
                .children_mut()
                .into_iter()
                .map(|c| c.clone())
                .collect();
            assert_eq!(&got_mut, want, "children_mut of {e:?}");
        }
        // walk = pre-order over children, pruned where the visitor says so.
        let tree = Expr::binary(BinOp::And, samples[5].0.clone(), samples[10].0.clone());
        let mut visited = 0;
        tree.walk(&mut |_| {
            visited += 1;
            true
        });
        assert_eq!(visited, 1 + (1 + 3) + (1 + 5));
        let mut visited = 0;
        tree.walk(&mut |e| {
            visited += 1;
            !matches!(e, Expr::Case { .. })
        });
        assert_eq!(visited, 1 + (1 + 3) + 1);
    }

    #[test]
    fn table_ref_binding() {
        let t = TableRef::Table {
            name: "big1".into(),
            alias: Some("b".into()),
        };
        assert_eq!(t.binding(), "b");
    }
}
