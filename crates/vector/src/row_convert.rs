//! Conversions between rows and batches, used at vectorization boundaries
//! (a stage's sinks, shuffle edges, the generic row-source reader, and
//! tests).

use crate::batch::{ColumnVector, Lane, VectorizedRowBatch};
use hive_common::{DataType, HiveError, Result, Row, Schema, Value};

/// Whether a schema is vectorizable (primitive scalar columns only) — the
/// check the vectorization validator performs per-table.
pub fn is_vectorizable(schema: &Schema) -> bool {
    schema
        .fields()
        .iter()
        .all(|f| Lane::of(&f.data_type).is_some())
}

/// Write `rows[start..start+n]` into `batch` (resetting it first).
pub fn rows_to_batch(rows: &[Row], batch: &mut VectorizedRowBatch) -> Result<()> {
    batch.reset();
    let n = rows.len().min(batch.max_size);
    for (r, row) in rows.iter().take(n).enumerate() {
        for (c, val) in row.values().iter().enumerate() {
            set_value(&mut batch.columns[c], r, val)?;
        }
    }
    batch.size = n;
    Ok(())
}

/// Set one cell in a column vector from a row value.
pub fn set_value(col: &mut ColumnVector, i: usize, val: &Value) -> Result<()> {
    match (col, val) {
        (ColumnVector::Long(v), Value::Int(x)) => v.vector[i] = *x,
        (ColumnVector::Long(v), Value::Boolean(b)) => v.vector[i] = *b as i64,
        (ColumnVector::Long(v), Value::Timestamp(x)) => v.vector[i] = *x,
        (ColumnVector::Double(v), Value::Double(x)) => v.vector[i] = *x,
        (ColumnVector::Double(v), Value::Int(x)) => v.vector[i] = *x as f64,
        (ColumnVector::Bytes(v), Value::String(s)) => v.set(i, s.as_bytes()),
        (col, Value::Null) => col.set_null(i),
        (_, other) => {
            return Err(HiveError::Execution(format!(
                "value {other} does not fit this column vector"
            )))
        }
    }
    Ok(())
}

/// Read one cell of `batch` back into a row value, using `dt` to pick the
/// logical type (long vectors carry ints, booleans and timestamps alike).
pub fn get_value(col: &ColumnVector, i: usize, dt: &DataType) -> Value {
    cell(col, i, dt).to_value()
}

/// One cell as the value [`get_value`] makes of it, borrowed. The lane
/// encoders (shuffle keys and values, SequenceFile rows) read cells through
/// this, and the `Value` encoders read scalars through [`Cell::of`], so a
/// cell and its value encode to the same bytes by construction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Cell<'a> {
    Null,
    Boolean(bool),
    Int(i64),
    Timestamp(i64),
    Double(f64),
    /// A string's bytes, which SQL reads as UTF-8 with every invalid
    /// sequence replaced ([`Cell::text`]).
    Bytes(&'a [u8]),
}

/// Cell `i` of `col`, honouring nulls and `is_repeating`.
#[inline]
pub fn cell<'a>(col: &'a ColumnVector, i: usize, dt: &DataType) -> Cell<'a> {
    if col.is_null(i) {
        return Cell::Null;
    }
    match col {
        ColumnVector::Long(v) => long_cell(v.value(i), dt),
        ColumnVector::Double(v) => Cell::Double(v.value(i)),
        ColumnVector::Bytes(v) => Cell::Bytes(v.value(i)),
    }
}

/// A long-lane value as the logical type it carries: the one place that
/// knows long vectors hold ints, booleans and timestamps alike.
#[inline]
fn long_cell(v: i64, dt: &DataType) -> Cell<'static> {
    match dt {
        DataType::Boolean => Cell::Boolean(v != 0),
        DataType::Timestamp => Cell::Timestamp(v),
        _ => Cell::Int(v),
    }
}

impl<'a> Cell<'a> {
    /// A scalar value as a cell; `None` for a complex one.
    #[inline]
    pub fn of(v: &'a Value) -> Option<Cell<'a>> {
        Some(match v {
            Value::Null => Cell::Null,
            Value::Boolean(b) => Cell::Boolean(*b),
            Value::Int(x) => Cell::Int(*x),
            Value::Timestamp(x) => Cell::Timestamp(*x),
            Value::Double(x) => Cell::Double(*x),
            Value::String(s) => Cell::Bytes(s.as_bytes()),
            _ => return None,
        })
    }

    /// A string cell's text: its bytes when they are UTF-8 (no copy), else
    /// with each invalid sequence replaced by U+FFFD.
    #[inline]
    pub fn text(bytes: &[u8]) -> std::borrow::Cow<'_, str> {
        String::from_utf8_lossy(bytes)
    }

    pub fn to_value(self) -> Value {
        match self {
            Cell::Null => Value::Null,
            Cell::Boolean(b) => Value::Boolean(b),
            Cell::Int(x) => Value::Int(x),
            Cell::Timestamp(x) => Value::Timestamp(x),
            Cell::Double(x) => Value::Double(x),
            Cell::Bytes(b) => Value::String(Cell::text(b).into_owned()),
        }
    }
}

/// Materialize the valid rows of `batch`, projecting `columns` with their
/// logical types.
pub fn batch_to_rows(batch: &VectorizedRowBatch, columns: &[(usize, DataType)]) -> Vec<Row> {
    let mut out = Vec::with_capacity(batch.size);
    for i in batch.iter_selected() {
        let vals = columns
            .iter()
            .map(|(c, dt)| get_value(&batch.columns[*c], i, dt))
            .collect();
        out.push(Row::new(vals));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::parse(&[
            ("a", "bigint"),
            ("b", "double"),
            ("c", "string"),
            ("d", "boolean"),
        ])
        .unwrap()
    }

    #[test]
    fn round_trip_rows() {
        let s = schema();
        let rows = vec![
            Row::new(vec![
                Value::Int(1),
                Value::Double(1.5),
                Value::String("x".into()),
                Value::Boolean(true),
            ]),
            Row::new(vec![Value::Null, Value::Null, Value::Null, Value::Null]),
            Row::new(vec![
                Value::Int(-9),
                Value::Double(0.0),
                Value::String("".into()),
                Value::Boolean(false),
            ]),
        ];
        let types: Vec<DataType> = s.fields().iter().map(|f| f.data_type.clone()).collect();
        let mut batch = VectorizedRowBatch::new(&types, 8).unwrap();
        rows_to_batch(&rows, &mut batch).unwrap();
        assert_eq!(batch.size, 3);
        let cols: Vec<(usize, DataType)> = types.iter().cloned().enumerate().collect();
        let back = batch_to_rows(&batch, &cols);
        assert_eq!(back, rows);
    }

    #[test]
    fn vectorizable_check() {
        assert!(is_vectorizable(&schema()));
        let complex = Schema::parse(&[("m", "map<string,int>")]).unwrap();
        assert!(!is_vectorizable(&complex));
    }

    #[test]
    fn selection_respected_in_batch_to_rows() {
        let s = Schema::parse(&[("a", "bigint")]).unwrap();
        let types: Vec<DataType> = s.fields().iter().map(|f| f.data_type.clone()).collect();
        let mut batch = VectorizedRowBatch::new(&types, 8).unwrap();
        let rows: Vec<Row> = (0..5).map(|i| Row::new(vec![Value::Int(i)])).collect();
        rows_to_batch(&rows, &mut batch).unwrap();
        batch.selected_in_use = true;
        batch.selected[0] = 1;
        batch.selected[1] = 4;
        batch.size = 2;
        let back = batch_to_rows(&batch, &[(0, DataType::Int)]);
        assert_eq!(
            back,
            vec![Row::new(vec![Value::Int(1)]), Row::new(vec![Value::Int(4)])]
        );
    }

    #[test]
    fn type_mismatch_errors() {
        let mut batch = VectorizedRowBatch::new(&[DataType::Int], 2).unwrap();
        let err = rows_to_batch(&[Row::new(vec![Value::String("nope".into())])], &mut batch);
        assert!(err.is_err());
    }
}
