//! Vectorized expressions (paper Section 6.2–6.3) and the **kernel
//! catalogue**: the one place that decides which (operator, lane, operand
//! shape) has a kernel and what it is called.
//!
//! Each expression processes whole column vectors in a tight loop with no
//! method calls inside. Hive generates one class per (type, operator,
//! operand shape) from build-time templates because Java has no generics
//! over primitives; here a handful of kernels are generic over a lane
//! (`i64` / `f64`, the `Prim` trait) and a zero-sized operator type (the
//! `BinOp` and `Cmp` traits), and rustc's monomorphisation plays
//! the template engine: every instantiation is its own specialised loop, and
//! `name()` still renders the Hive-style class name
//! (`FilterDoubleColGreaterDoubleScalar`). Two families exist, as in the
//! paper: expressions producing an output column, and *filter* expressions
//! that achieve "in-place filtering by manipulating the selected array".
//!
//! Callers never name a kernel type. They describe operands ([`Operand`]:
//! a column or scalar of a lane) and ask a constructor — [`arith`],
//! [`compare`], [`filter_compare`], [`filter_between`], [`cast`],
//! [`constant`], … — which answers `None` when no kernel exists for that
//! shape (the vectorizer then widens, takes another template, or fails the
//! plan: a vectorized stage has no row-mode tail).
//! Adding a kernel is one row in one of these constructors; the planner
//! learns nothing. All kernels are same-lane: widening a long operand to
//! double is the caller's job (a [`cast`] into a scratch column, or
//! `x as f64` on a scalar).

mod arith;
mod cast;
mod compare;
mod filters;
mod per_row;

pub use crate::batch::Lane;
pub use arith::DoubleColMultiplyDoubleColumn;

use crate::batch::{ColumnVector, VectorizedRowBatch};
use crate::row_convert::get_value;
use arith::{Add, ColCol, ColScalar, Divide, Modulo, Multiply, Subtract};
use cast::Cast;
use compare::{Equal, Greater, GreaterEqual, Less, LessEqual, NotEqual, Test};
use filters::{
    FilterAnd, FilterBoolColumn, FilterBytesColScalar, FilterColCol, FilterColScalar,
    FilterColumnBetween, FilterIsNull, FilterOr,
};
use hive_common::{DataType, Result, Value};
use per_row::{compare_bytes, truth, PerRow};

/// `lo <= double column <= hi` by its Hive name: the one filter kernel the
/// benchmark's q6 replay builds by struct literal (`benchmark/README.md`).
/// Everything else goes through [`filter_between`].
pub type FilterDoubleColumnBetween = FilterColumnBetween<f64>;

/// A compiled vectorized expression.
///
/// Expressions evaluate their children first (the planner nests them), then
/// run their own loop over the batch.
pub trait VectorExpression: Send {
    /// Evaluate over the valid rows of `batch`.
    fn evaluate(&self, batch: &mut VectorizedRowBatch) -> Result<()>;

    /// Every batch column this expression reads, nested expressions
    /// included (not the scratch column it writes).
    fn inputs(&self) -> Vec<usize>;

    /// The columns that must hold their values when `evaluate` is called on
    /// a batch with deferred columns. All of `inputs`, except for a
    /// conjunction: it materializes each later conjunct's columns itself,
    /// for the rows the earlier ones kept, and so needs only its first's.
    fn needs(&self) -> Vec<usize> {
        self.inputs()
    }

    /// Scratch column holding this expression's result; `None` for filters
    /// (their result is the mutated selection).
    fn output_column(&self) -> Option<usize> {
        None
    }

    /// Diagnostic name, e.g. `LongColAddLongScalar(2 + 5) -> 7`.
    fn name(&self) -> String;
}

type Expr = Box<dyn VectorExpression>;

fn boxed(e: impl VectorExpression + 'static) -> Expr {
    Box::new(e)
}

/// One side of a binary kernel: a batch column or a literal, tagged with
/// its lane. Scalars keep their full width (`i64` stays `i64`).
#[derive(Debug, Clone, PartialEq)]
pub enum Operand {
    LongCol(usize),
    DoubleCol(usize),
    BytesCol(usize),
    LongScalar(i64),
    DoubleScalar(f64),
    BytesScalar(Vec<u8>),
}

impl Operand {
    /// The column operand for batch column `column` of `lane`.
    pub fn col(lane: Lane, column: usize) -> Operand {
        match lane {
            Lane::Long => Operand::LongCol(column),
            Lane::Double => Operand::DoubleCol(column),
            Lane::Bytes => Operand::BytesCol(column),
        }
    }

    pub fn lane(&self) -> Lane {
        match self {
            Operand::LongCol(_) | Operand::LongScalar(_) => Lane::Long,
            Operand::DoubleCol(_) | Operand::DoubleScalar(_) => Lane::Double,
            Operand::BytesCol(_) | Operand::BytesScalar(_) => Lane::Bytes,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArithOp {
    Add,
    Subtract,
    Multiply,
    Divide,
    Modulo,
}

impl ArithOp {
    pub const ALL: [ArithOp; 5] = [
        ArithOp::Add,
        ArithOp::Subtract,
        ArithOp::Multiply,
        ArithOp::Divide,
        ArithOp::Modulo,
    ];
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    Equal,
    NotEqual,
    Less,
    LessEqual,
    Greater,
    GreaterEqual,
}

impl CmpOp {
    pub const ALL: [CmpOp; 6] = [
        CmpOp::Equal,
        CmpOp::NotEqual,
        CmpOp::Less,
        CmpOp::LessEqual,
        CmpOp::Greater,
        CmpOp::GreaterEqual,
    ];
}

/// Box `$body` with `$K` bound to the zero-sized operator type named like
/// the runtime variant in `$op`. The braced list *is* the catalogue row: the
/// operators this operand shape has a kernel for; any other makes the
/// enclosing constructor answer `None`.
macro_rules! by_op {
    (CmpOp::* = $op:expr, $K:ident => $body:expr) => {
        by_op!(
            CmpOp::{Equal, NotEqual, Less, LessEqual, Greater, GreaterEqual} = $op,
            $K => $body
        )
    };
    ($Op:ident::{$($V:ident),+} = $op:expr, $K:ident => $body:expr) => {
        match $op {
            $($Op::$V => {
                type $K = $V;
                boxed($body)
            })+
            #[allow(unreachable_patterns)]
            _ => return None,
        }
    };
}

/// `lhs ⊕ rhs` into scratch column `out`. Long arithmetic wraps on overflow
/// and a zero divisor yields NULL — the row engine's semantics
/// (`exec/src/expr.rs`), so both engines agree on every input.
pub fn arith(op: ArithOp, lhs: Operand, rhs: Operand, out: usize) -> Option<Expr> {
    use Operand::*;
    Some(match (lhs, rhs) {
        (LongCol(c), LongScalar(s)) => {
            by_op!(ArithOp::{Add, Subtract, Multiply, Modulo} = op, K => ColScalar::<i64, K>::new(c, s, out))
        }
        (LongCol(l), LongCol(r)) => {
            by_op!(ArithOp::{Add, Subtract, Multiply, Modulo} = op, K => ColCol::<i64, K>::new(l, r, out))
        }
        (DoubleCol(c), DoubleScalar(s)) => {
            by_op!(ArithOp::{Add, Subtract, Multiply, Divide, Modulo} = op, K => ColScalar::<f64, K>::new(c, s, out))
        }
        (DoubleCol(l), DoubleCol(r)) => {
            by_op!(ArithOp::{Add, Subtract, Multiply, Divide, Modulo} = op, K => ColCol::<f64, K>::new(l, r, out))
        }
        _ => return None,
    })
}

/// `-col` into scratch column `out`.
pub fn negate(col: Operand, out: usize) -> Option<Expr> {
    let minus_one = match col {
        Operand::LongCol(_) => Operand::LongScalar(-1),
        Operand::DoubleCol(_) => Operand::DoubleScalar(-1.0),
        _ => return None,
    };
    arith(ArithOp::Multiply, col, minus_one, out)
}

/// `lhs ⋈ rhs` in value position: a 0/1 long into scratch column `out`
/// (NULL in → NULL out).
pub fn compare(op: CmpOp, lhs: Operand, rhs: Operand, out: usize) -> Option<Expr> {
    use Operand::*;
    Some(match (lhs, rhs) {
        (LongCol(c), LongScalar(s)) => {
            by_op!(CmpOp::* = op, K => ColScalar::<i64, Test<K>>::new(c, s, out))
        }
        (DoubleCol(c), DoubleScalar(s)) => {
            by_op!(CmpOp::* = op, K => ColScalar::<f64, Test<K>>::new(c, s, out))
        }
        (LongCol(l), LongCol(r)) => {
            by_op!(CmpOp::* = op, K => ColCol::<i64, Test<K>>::new(l, r, out))
        }
        (DoubleCol(l), DoubleCol(r)) => {
            by_op!(CmpOp::* = op, K => ColCol::<f64, Test<K>>::new(l, r, out))
        }
        (BytesCol(l), BytesScalar(s)) => {
            by_op!(CmpOp::* = op, K => compare_bytes::<K>(l, None, s, out))
        }
        (BytesCol(l), BytesCol(r)) => {
            by_op!(CmpOp::* = op, K => compare_bytes::<K>(l, Some(r), Vec::new(), out))
        }
        _ => return None,
    })
}

/// Three-valued `lhs AND rhs` (`or`: OR) of two boolean columns in value
/// position, into scratch column `out`.
pub fn logical(or: bool, lhs: Operand, rhs: Operand, out: usize) -> Option<Expr> {
    let (Operand::LongCol(l), Operand::LongCol(r)) = (lhs, rhs) else {
        return None;
    };
    let name = if or { "ColOrCol" } else { "ColAndCol" };
    let cell = move |c: &[_], i| Ok(per_row::logical(or, truth(&c[l], i), truth(&c[r], i)));
    Some(boxed(PerRow::new(name.into(), vec![l, r], out, cell)))
}

/// `NOT col` of a boolean column in value position (NULL stays NULL).
pub fn not(col: Operand, out: usize) -> Option<Expr> {
    compare(CmpOp::Equal, col, Operand::LongScalar(0), out)
}

/// `column IS [NOT] NULL` in value position: a boolean that is never NULL.
pub fn is_null(column: usize, negated: bool, out: usize) -> Expr {
    let name = if negated { "IsNotNull" } else { "IsNull" };
    let cell = move |c: &[ColumnVector], i| Ok(Value::Boolean(c[column].is_null(i) != negated));
    boxed(PerRow::new(name.into(), vec![column], out, cell))
}

/// CASE into scratch column `out`: per row, the value column of the first
/// branch whose condition column is true, else `otherwise`, else NULL. Every
/// value column holds logical type `data_type`.
pub fn case(
    branches: Vec<(usize, usize)>,
    otherwise: Option<usize>,
    data_type: DataType,
    out: usize,
) -> Expr {
    let pairs = branches.iter().flat_map(|&(c, v)| [c, v]);
    let inputs = pairs.chain(otherwise).collect();
    let cell = move |c: &[ColumnVector], i| {
        let hit = branches
            .iter()
            .find(|&&(cond, _)| truth(&c[cond], i) == Some(true));
        Ok(match hit.map(|&(_, v)| v).or(otherwise) {
            Some(v) => get_value(&c[v], i, &data_type),
            None => Value::Null,
        })
    };
    boxed(PerRow::new("Case".into(), inputs, out, cell))
}

/// `lhs ⋈ rhs` in filter position: narrows the selection (NULL fails).
pub fn filter_compare(op: CmpOp, lhs: Operand, rhs: Operand) -> Option<Expr> {
    use Operand::*;
    Some(match (lhs, rhs) {
        (LongCol(c), LongScalar(s)) => {
            by_op!(CmpOp::* = op, K => FilterColScalar::<i64, K>::new(c, s))
        }
        (DoubleCol(c), DoubleScalar(s)) => {
            by_op!(CmpOp::* = op, K => FilterColScalar::<f64, K>::new(c, s))
        }
        (BytesCol(c), BytesScalar(s)) => {
            by_op!(CmpOp::* = op, K => FilterBytesColScalar::<K>::new(c, s))
        }
        (LongCol(l), LongCol(r)) => {
            by_op!(CmpOp::* = op, K => FilterColCol::<i64, K>::new(l, r))
        }
        (DoubleCol(l), DoubleCol(r)) => {
            by_op!(CmpOp::* = op, K => FilterColCol::<f64, K>::new(l, r))
        }
        _ => return None,
    })
}

/// `lo <= col <= hi` in filter position (NULL fails).
pub fn filter_between(col: Operand, lo: Operand, hi: Operand) -> Option<Expr> {
    use Operand::*;
    Some(match (col, lo, hi) {
        (LongCol(column), LongScalar(lo), LongScalar(hi)) => {
            boxed(FilterColumnBetween { column, lo, hi })
        }
        (DoubleCol(column), DoubleScalar(lo), DoubleScalar(hi)) => {
            boxed(FilterColumnBetween { column, lo, hi })
        }
        (BytesCol(c), lo @ BytesScalar(_), hi @ BytesScalar(_)) => filter_and(vec![
            filter_compare(CmpOp::GreaterEqual, BytesCol(c), lo)?,
            filter_compare(CmpOp::LessEqual, BytesCol(c), hi)?,
        ]),
        _ => return None,
    })
}

/// Convert `col` to lane `to` into scratch column `out`.
pub fn cast(col: Operand, to: Lane, out: usize) -> Option<Expr> {
    match (col, to) {
        (Operand::LongCol(c), Lane::Double) => Some(boxed(Cast::<i64, f64>::new(c, out))),
        (Operand::DoubleCol(c), Lane::Long) => Some(boxed(Cast::<f64, i64>::new(c, out))),
        _ => None,
    }
}

/// Convert `column`, of logical type `from`, to `to` by `convert` (the row
/// engine's CAST) into scratch column `out`: the casts [`cast`] has no lane
/// kernel for — into or out of a string, to a boolean.
pub fn cast_cells(
    column: usize,
    from: DataType,
    to: &DataType,
    convert: impl Fn(&Value) -> Result<Value> + Send + 'static,
    out: usize,
) -> Expr {
    let name = format!("Cast[{from} -> {to}]");
    let cell = move |c: &[ColumnVector], i| convert(&get_value(&c[column], i, &from));
    boxed(PerRow::new(name, vec![column], out, cell))
}

/// Fill scratch column `out` with NULL (marked repeating: constant-time).
pub fn null(out: usize) -> Expr {
    boxed(ConstantExpression::Null { output: out })
}

/// Fill scratch column `out` with a scalar (marked repeating:
/// constant-time).
pub fn constant(value: Operand, out: usize) -> Option<Expr> {
    Some(boxed(match value {
        Operand::LongScalar(value) => ConstantExpression::Long { output: out, value },
        Operand::DoubleScalar(value) => ConstantExpression::Double { output: out, value },
        Operand::BytesScalar(value) => ConstantExpression::Bytes { output: out, value },
        _ => return None,
    }))
}

/// A no-op expression whose output is an existing column.
pub fn identity(column: usize) -> Expr {
    boxed(IdentityExpression { column })
}

/// Conjunction: children run in order, each narrowing the selection.
pub fn filter_and(children: Vec<Expr>) -> Expr {
    boxed(FilterAnd::new(children))
}

/// Disjunction: the union of what each child keeps.
pub fn filter_or(children: Vec<Expr>) -> Expr {
    boxed(FilterOr { children })
}

/// Keep rows where `column` is (with `negated`: is not) NULL.
pub fn filter_is_null(column: usize, negated: bool) -> Expr {
    boxed(FilterIsNull { column, negated })
}

/// Keep rows where a boolean (0/1 long) column is true.
pub fn filter_bool(col: Operand) -> Option<Expr> {
    match col {
        Operand::LongCol(column) => Some(boxed(FilterBoolColumn { column })),
        _ => None,
    }
}

/// A no-op expression referencing an existing column (projection of an
/// already-materialized column needs no work).
pub(crate) struct IdentityExpression {
    pub column: usize,
}

impl VectorExpression for IdentityExpression {
    fn evaluate(&self, _batch: &mut VectorizedRowBatch) -> Result<()> {
        Ok(())
    }

    fn inputs(&self) -> Vec<usize> {
        vec![self.column]
    }

    fn output_column(&self) -> Option<usize> {
        Some(self.column)
    }

    fn name(&self) -> String {
        format!("Identity({})", self.column)
    }
}

/// Fill an output column with a constant (marked repeating: constant-time).
pub(crate) enum ConstantExpression {
    Long { output: usize, value: i64 },
    Double { output: usize, value: f64 },
    Bytes { output: usize, value: Vec<u8> },
    Null { output: usize },
}

impl VectorExpression for ConstantExpression {
    fn evaluate(&self, batch: &mut VectorizedRowBatch) -> Result<()> {
        match self {
            ConstantExpression::Long { output, value } => {
                let out = batch.columns[*output].as_long_mut()?;
                out.vector[0] = *value;
                out.is_repeating = true;
                out.no_nulls = true;
            }
            ConstantExpression::Double { output, value } => {
                let out = batch.columns[*output].as_double_mut()?;
                out.vector[0] = *value;
                out.is_repeating = true;
                out.no_nulls = true;
            }
            ConstantExpression::Bytes { output, value } => {
                let out = batch.columns[*output].as_bytes_mut()?;
                out.data.clear();
                out.set(0, value);
                out.is_repeating = true;
                out.no_nulls = true;
            }
            ConstantExpression::Null { output } => match &mut batch.columns[*output] {
                crate::batch::ColumnVector::Long(v) => {
                    v.null[0] = true;
                    v.is_repeating = true;
                    v.no_nulls = false;
                }
                crate::batch::ColumnVector::Double(v) => {
                    v.null[0] = true;
                    v.is_repeating = true;
                    v.no_nulls = false;
                }
                crate::batch::ColumnVector::Bytes(v) => {
                    v.start[0] = 0;
                    v.length[0] = 0;
                    v.null[0] = true;
                    v.is_repeating = true;
                    v.no_nulls = false;
                }
            },
        }
        Ok(())
    }

    fn inputs(&self) -> Vec<usize> {
        Vec::new()
    }

    fn output_column(&self) -> Option<usize> {
        Some(match self {
            ConstantExpression::Long { output, .. }
            | ConstantExpression::Double { output, .. }
            | ConstantExpression::Bytes { output, .. }
            | ConstantExpression::Null { output } => *output,
        })
    }

    fn name(&self) -> String {
        "Constant".to_string()
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use crate::batch::{ColumnVector, VectorizedRowBatch};
    use hive_common::DataType;

    /// A batch with one long column holding `vals` and one double column
    /// holding `dvals`, plus `scratch` extra columns of each type.
    pub fn batch_with(vals: &[i64], dvals: &[f64]) -> VectorizedRowBatch {
        let n = vals.len().max(dvals.len()).max(1);
        let mut b = VectorizedRowBatch::new(&[DataType::Int, DataType::Double], n).unwrap();
        b.size = n;
        if let ColumnVector::Long(v) = &mut b.columns[0] {
            v.vector[..vals.len()].copy_from_slice(vals);
        }
        if let ColumnVector::Double(v) = &mut b.columns[1] {
            v.vector[..dvals.len()].copy_from_slice(dvals);
        }
        b
    }

    pub fn selected_of(b: &VectorizedRowBatch) -> Vec<usize> {
        b.iter_selected().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::batch_with;
    use super::*;
    use hive_common::DataType;

    #[test]
    fn constant_expression_fills_repeating() {
        let mut b = batch_with(&[1, 2, 3], &[]);
        let out = b.add_scratch(&DataType::Int).unwrap();
        let e = ConstantExpression::Long {
            output: out,
            value: 7,
        };
        e.evaluate(&mut b).unwrap();
        let col = b.columns[out].as_long().unwrap();
        assert!(col.is_repeating);
        assert_eq!(col.value(2), 7);
    }

    #[test]
    fn null_constant_sets_null_flags() {
        let mut b = batch_with(&[1], &[]);
        let out = b.add_scratch(&DataType::String).unwrap();
        ConstantExpression::Null { output: out }
            .evaluate(&mut b)
            .unwrap();
        assert!(b.columns[out].is_null(0));
    }

    #[test]
    fn identity_points_at_input() {
        let e = IdentityExpression { column: 1 };
        assert_eq!(e.output_column(), Some(1));
    }

    /// One operand of every shape; columns 0/1/2 are long/double/bytes.
    fn shapes() -> Vec<Operand> {
        vec![
            Operand::LongCol(0),
            Operand::DoubleCol(1),
            Operand::BytesCol(2),
            Operand::LongScalar(1),
            Operand::DoubleScalar(1.0),
            Operand::BytesScalar(b"x".to_vec()),
        ]
    }

    fn shape(o: &Operand) -> String {
        let s = format!("{o:?}");
        s[..s.find('(').unwrap()].to_string()
    }

    /// "What vectorizes" is this table: every (constructor, operand shapes)
    /// that has a kernel, with the operators it has one for. A kernel added
    /// or lost shows up here, not as a plan error at query time.
    #[test]
    fn the_catalogue_is_exactly_this_table() {
        let mut got = Vec::new();
        let mut row = |what: &str, l: &Operand, r: &Operand, ops: Vec<String>| {
            if !ops.is_empty() {
                got.push(format!(
                    "{what} {} {}: {}",
                    shape(l),
                    shape(r),
                    ops.join(" ")
                ));
            }
        };
        for l in shapes() {
            for r in shapes() {
                let some = |o: Option<Expr>, op: String| o.map(|_| op);
                let ops = ArithOp::ALL.iter();
                let ops = ops
                    .filter_map(|&op| some(arith(op, l.clone(), r.clone(), 9), format!("{op:?}")));
                row("arith", &l, &r, ops.collect());
                let ops = CmpOp::ALL.iter();
                let ops = ops.filter_map(|&op| {
                    some(compare(op, l.clone(), r.clone(), 9), format!("{op:?}"))
                });
                row("compare", &l, &r, ops.collect());
                let ops = [false, true].into_iter().filter_map(|or| {
                    some(
                        logical(or, l.clone(), r.clone(), 9),
                        ["And", "Or"][or as usize].into(),
                    )
                });
                row("logical", &l, &r, ops.collect());
                let ops = CmpOp::ALL.iter();
                let ops = ops.filter_map(|&op| {
                    some(filter_compare(op, l.clone(), r.clone()), format!("{op:?}"))
                });
                row("filter_compare", &l, &r, ops.collect());
                let between = some(
                    filter_between(l.clone(), r.clone(), r.clone()),
                    "Between".into(),
                );
                row("filter_between", &l, &r, between.into_iter().collect());
            }
        }
        let all_cmp = "Equal NotEqual Less LessEqual Greater GreaterEqual";
        let want = [
            "arith LongCol LongCol: Add Subtract Multiply Modulo".to_string(),
            format!("compare LongCol LongCol: {all_cmp}"),
            "logical LongCol LongCol: And Or".to_string(),
            format!("filter_compare LongCol LongCol: {all_cmp}"),
            "arith LongCol LongScalar: Add Subtract Multiply Modulo".to_string(),
            format!("compare LongCol LongScalar: {all_cmp}"),
            format!("filter_compare LongCol LongScalar: {all_cmp}"),
            "filter_between LongCol LongScalar: Between".to_string(),
            "arith DoubleCol DoubleCol: Add Subtract Multiply Divide Modulo".to_string(),
            format!("compare DoubleCol DoubleCol: {all_cmp}"),
            format!("filter_compare DoubleCol DoubleCol: {all_cmp}"),
            "arith DoubleCol DoubleScalar: Add Subtract Multiply Divide Modulo".to_string(),
            format!("compare DoubleCol DoubleScalar: {all_cmp}"),
            format!("filter_compare DoubleCol DoubleScalar: {all_cmp}"),
            "filter_between DoubleCol DoubleScalar: Between".to_string(),
            format!("compare BytesCol BytesCol: {all_cmp}"),
            format!("compare BytesCol BytesScalar: {all_cmp}"),
            format!("filter_compare BytesCol BytesScalar: {all_cmp}"),
            "filter_between BytesCol BytesScalar: Between".to_string(),
        ];
        assert_eq!(got, want);

        // Unary entries, by operand shape.
        let unary = |f: &dyn Fn(Operand) -> Option<Expr>| -> Vec<String> {
            let ok = shapes().into_iter().filter(|o| f(o.clone()).is_some());
            ok.map(|o| shape(&o)).collect()
        };
        assert_eq!(unary(&|o| negate(o, 9)), ["LongCol", "DoubleCol"]);
        assert_eq!(unary(&|o| cast(o, Lane::Double, 9)), ["LongCol"]);
        assert_eq!(unary(&|o| cast(o, Lane::Long, 9)), ["DoubleCol"]);
        assert_eq!(unary(&|o| cast(o, Lane::Bytes, 9)), [""; 0]);
        assert_eq!(unary(&|o| filter_bool(o)), ["LongCol"]);
        assert_eq!(unary(&|o| not(o, 9)), ["LongCol"]);
        assert_eq!(
            unary(&|o| constant(o, 9)),
            ["LongScalar", "DoubleScalar", "BytesScalar"]
        );
    }

    /// The EXPLAIN ANALYZE goldens contain these strings: the generic
    /// kernels must keep rendering Hive's per-combination class names.
    #[test]
    fn kernel_names_render_the_hive_class_names() {
        use Operand::*;
        let names = [
            filter_compare(CmpOp::Greater, DoubleCol(1), DoubleScalar(100.0)),
            filter_compare(CmpOp::Equal, LongCol(1), LongScalar(7)),
            filter_compare(CmpOp::Less, LongCol(0), LongCol(3)),
            filter_compare(CmpOp::LessEqual, BytesCol(2), BytesScalar(b"g1".to_vec())),
            filter_between(LongCol(0), LongScalar(100), LongScalar(300)),
            filter_between(DoubleCol(1), DoubleScalar(0.05), DoubleScalar(0.07)),
            arith(ArithOp::Add, LongCol(2), LongScalar(5), 7),
            arith(ArithOp::Divide, DoubleCol(0), DoubleCol(1), 2),
            compare(CmpOp::NotEqual, LongCol(0), LongScalar(5), 3),
            compare(CmpOp::Greater, LongCol(0), LongCol(1), 3),
            cast(LongCol(0), Lane::Double, 4),
            cast(DoubleCol(4), Lane::Long, 5),
        ]
        .map(|e| e.unwrap().name());
        assert_eq!(
            names,
            [
                "FilterDoubleColGreaterDoubleScalar(1 > 100)",
                "FilterLongColEqualLongScalar(1 == 7)",
                "FilterLongColLessLongColumn(0 < 3)",
                "FilterBytesColLessEqualBytesScalar(2 vs \"g1\")",
                "FilterLongColumnBetween(0 in [100, 300])",
                "FilterDoubleColumnBetween(1 in [0.05, 0.07])",
                "LongColAddLongScalar(2 + 5) -> 7",
                "DoubleColDivideDoubleColumn(0 / 1) -> 2",
                "LongColNotEqualLongScalar(0 != 5) -> 3",
                "LongColGreaterLongColumn(0 > 1) -> 3",
                "CastLongToDouble(0) -> 4",
                "CastDoubleToLong(4) -> 5",
            ]
        );
        let multiply = DoubleColMultiplyDoubleColumn {
            left_column: 0,
            right_column: 1,
            output_column: 2,
        };
        assert_eq!(multiply.name(), "DoubleColMultiplyDoubleColumn(0 * 1) -> 2");
    }
}
