//! The kernels that fill their output one row at a time through typed
//! cells ([`get_value`] / [`set_value`]) instead of a lane loop: the shapes
//! whose answer depends on NULLs in ways no `BinOp` expresses — three-valued
//! AND / OR, IS NULL as a value, CASE — plus byte-string comparisons as a
//! value and the casts that leave the long/double lanes. None of them is on
//! a scan's hot path; each is one closure over the row engine's rule, so
//! both engines answer every input alike.

use crate::batch::{ColumnVector, LongColumnVector, VectorizedRowBatch};
use crate::expressions::compare::Cmp;
use crate::expressions::VectorExpression;
use crate::row_convert::{get_value, set_value};
use hive_common::{DataType, Result, Value};

type Cell = dyn Fn(&[ColumnVector], usize) -> Result<Value> + Send;

/// Writes `cell(columns, i)` into scratch column `output` for every valid
/// row `i`.
pub struct PerRow {
    name: String,
    inputs: Vec<usize>,
    output: usize,
    cell: Box<Cell>,
}

impl PerRow {
    pub fn new(
        name: String,
        inputs: Vec<usize>,
        output: usize,
        cell: impl Fn(&[ColumnVector], usize) -> Result<Value> + Send + 'static,
    ) -> PerRow {
        PerRow {
            name,
            inputs,
            output,
            cell: Box::new(cell),
        }
    }
}

impl VectorExpression for PerRow {
    fn evaluate(&self, batch: &mut VectorizedRowBatch) -> Result<()> {
        let empty = ColumnVector::Long(LongColumnVector::with_capacity(0));
        let mut out = std::mem::replace(&mut batch.columns[self.output], empty);
        out.reset();
        let columns = &batch.columns;
        let filled = batch
            .iter_selected()
            .try_for_each(|i| set_value(&mut out, i, &(self.cell)(columns, i)?));
        batch.columns[self.output] = out;
        filled
    }

    fn inputs(&self) -> Vec<usize> {
        self.inputs.clone()
    }

    fn output_column(&self) -> Option<usize> {
        Some(self.output)
    }

    fn name(&self) -> String {
        format!("{}({:?}) -> {}", self.name, self.inputs, self.output)
    }
}

/// A 0/1 long cell as SQL's three-valued boolean.
pub fn truth(c: &ColumnVector, i: usize) -> Option<bool> {
    get_value(c, i, &DataType::Boolean).as_bool()
}

/// The row engine's three-valued AND (`or`: OR) of two truths: either side
/// decides it (FALSE for AND, TRUE for OR), else it is NULL unless both are
/// known.
pub fn logical(or: bool, l: Option<bool>, r: Option<bool>) -> Value {
    match (l, r) {
        (Some(x), _) | (_, Some(x)) if x == or => Value::Boolean(or),
        (Some(_), Some(_)) => Value::Boolean(!or),
        _ => Value::Null,
    }
}

/// Row `i` of a byte-string column; `None` when NULL.
fn bytes(columns: &[ColumnVector], c: usize, i: usize) -> Result<Option<&[u8]>> {
    let v = columns[c].as_bytes()?;
    Ok((!v.is_null(i)).then(|| v.value(i)))
}

/// `left ⋈ right` over byte strings in value position (`right` a column,
/// or else `scalar`): a boolean cell, NULL in → NULL out.
pub fn compare_bytes<C: Cmp>(
    left: usize,
    right: Option<usize>,
    scalar: Vec<u8>,
    out: usize,
) -> PerRow {
    let shape = if right.is_some() { "Column" } else { "Scalar" };
    let name = format!("BytesCol{}Bytes{shape}", C::NAME);
    let inputs = std::iter::once(left).chain(right).collect();
    PerRow::new(name, inputs, out, move |c, i| {
        let r = match right {
            Some(r) => bytes(c, r, i)?,
            None => Some(&scalar[..]),
        };
        Ok(match bytes(c, left, i)?.zip(r) {
            Some((l, r)) => Value::Boolean(C::test(l, r)),
            None => Value::Null,
        })
    })
}

#[cfg(test)]
mod tests {
    use crate::expressions::Operand::*;
    use crate::expressions::{case, cast_cells, compare, is_null, logical, not, CmpOp};
    use crate::row_convert::{get_value, rows_to_batch};
    use crate::VectorizedRowBatch;
    use hive_common::{DataType, Row, Value};

    /// A batch of `rows` over `types`, plus one scratch column of `out`.
    fn batch(types: &[DataType], rows: &[Vec<Value>], out: DataType) -> VectorizedRowBatch {
        let mut b = VectorizedRowBatch::new(types, rows.len()).unwrap();
        let rows: Vec<Row> = rows.iter().cloned().map(Row::new).collect();
        rows_to_batch(&rows, &mut b).unwrap();
        b.add_scratch(&out).unwrap();
        b
    }

    fn column(b: &VectorizedRowBatch, c: usize, dt: &DataType) -> Vec<Value> {
        b.iter_selected()
            .map(|i| get_value(&b.columns[c], i, dt))
            .collect()
    }

    #[test]
    fn and_or_not_are_three_valued() {
        let truths = [Value::Boolean(true), Value::Boolean(false), Value::Null];
        let pairs = truths
            .iter()
            .flat_map(|l| truths.iter().map(|r| vec![l.clone(), r.clone()]));
        let rows: Vec<Vec<Value>> = pairs.collect();
        let types = [DataType::Boolean, DataType::Boolean];
        let (t, f, n) = (Value::Boolean(true), Value::Boolean(false), Value::Null);
        for (or, want) in [
            (false, [&t, &f, &n, &f, &f, &f, &n, &f, &n]),
            (true, [&t, &t, &t, &t, &f, &n, &t, &n, &n]),
        ] {
            let mut b = batch(&types, &rows, DataType::Boolean);
            let k = logical(or, LongCol(0), LongCol(1), 2).unwrap();
            k.evaluate(&mut b).unwrap();
            let want: Vec<Value> = want.into_iter().cloned().collect();
            assert_eq!(column(&b, 2, &DataType::Boolean), want, "{}", k.name());
        }
        let mut b = batch(&types, &rows, DataType::Boolean);
        not(LongCol(1), 2).unwrap().evaluate(&mut b).unwrap();
        assert_eq!(column(&b, 2, &DataType::Boolean)[..3], [f, t, n]);
    }

    #[test]
    fn is_null_in_value_position_is_never_null() {
        let rows = [vec![Value::Int(1)], vec![Value::Null]];
        for (negated, want) in [(false, [false, true]), (true, [true, false])] {
            let mut b = batch(&[DataType::Int], &rows, DataType::Boolean);
            is_null(0, negated, 1).evaluate(&mut b).unwrap();
            let want = want.map(Value::Boolean).to_vec();
            assert_eq!(column(&b, 1, &DataType::Boolean), want);
        }
    }

    #[test]
    fn case_takes_the_first_true_branch_then_else_then_null() {
        // (c1 BOOLEAN, v1 STRING, c2 BOOLEAN, v2 STRING, e STRING)
        let s = |x: &str| Value::String(x.into());
        let (t, f) = (Value::Boolean(true), Value::Boolean(false));
        let rows = [
            vec![t.clone(), s("a"), t.clone(), s("b"), s("e")],
            vec![Value::Null, s("a"), t.clone(), Value::Null, s("e")],
            vec![f.clone(), s("a"), f, s("b"), s("e")],
        ];
        let (b_, s_) = (DataType::Boolean, DataType::String);
        let types = [b_.clone(), s_.clone(), b_, s_.clone(), s_.clone()];
        for (otherwise, last) in [(Some(4), s("e")), (None, Value::Null)] {
            let mut b = batch(&types, &rows, s_.clone());
            case(vec![(0, 1), (2, 3)], otherwise, s_.clone(), 5)
                .evaluate(&mut b)
                .unwrap();
            assert_eq!(column(&b, 5, &s_), [s("a"), Value::Null, last]);
        }
    }

    #[test]
    fn byte_strings_compare_in_value_position() {
        let s = |x: &str| Value::String(x.into());
        let rows = [
            vec![s("g1"), s("g2")],
            vec![s("g2"), s("g2")],
            vec![Value::Null, s("g2")],
        ];
        let types = [DataType::String, DataType::String];
        let mut b = batch(&types, &rows, DataType::Boolean);
        compare(CmpOp::Less, BytesCol(0), BytesCol(1), 2)
            .unwrap()
            .evaluate(&mut b)
            .unwrap();
        let (t, f) = (Value::Boolean(true), Value::Boolean(false));
        assert_eq!(
            column(&b, 2, &DataType::Boolean),
            [t, f.clone(), Value::Null]
        );
        let scalar = BytesScalar(b"g2".to_vec());
        compare(CmpOp::NotEqual, BytesCol(0), scalar, 2)
            .unwrap()
            .evaluate(&mut b)
            .unwrap();
        assert_eq!(column(&b, 2, &DataType::Boolean)[1], f);
    }

    #[test]
    fn cast_cells_convert_by_the_given_rule() {
        let rows = [vec![Value::String(" 2.5".into())], vec![Value::Null]];
        let mut b = batch(&[DataType::String], &rows, DataType::Double);
        let parse = |v: &Value| {
            let text = v.as_str().map(|t| t.trim().parse().map(Value::Double));
            Ok(text.and_then(|r| r.ok()).unwrap_or(Value::Null))
        };
        cast_cells(0, DataType::String, &DataType::Double, parse, 1)
            .evaluate(&mut b)
            .unwrap();
        assert_eq!(
            column(&b, 1, &DataType::Double),
            [Value::Double(2.5), Value::Null]
        );
    }
}
