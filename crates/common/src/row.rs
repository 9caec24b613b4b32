//! Rows: the unit of data in the row-mode (one-row-at-a-time) engine.

use crate::value::Value;

/// A row is a flat vector of values matching some [`crate::Schema`].
///
/// The row-mode engine (paper Section 3, fourth shortcoming) pushes these
/// through the operator tree one at a time; the vectorized engine replaces
/// them with `VectorizedRowBatch`es.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Row {
    values: Vec<Value>,
}

impl Row {
    pub fn new(values: Vec<Value>) -> Row {
        Row { values }
    }

    pub fn values(&self) -> &[Value] {
        &self.values
    }

    pub fn values_mut(&mut self) -> &mut Vec<Value> {
        &mut self.values
    }

    pub fn into_values(self) -> Vec<Value> {
        self.values
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    pub fn get(&self, i: usize) -> &Value {
        &self.values[i]
    }

    /// Project columns by index into a new row.
    pub fn project(&self, indices: &[usize]) -> Row {
        Row {
            values: indices.iter().map(|&i| self.values[i].clone()).collect(),
        }
    }

    /// Concatenate two rows (used when joining).
    pub fn concat(&self, other: &Row) -> Row {
        let mut values = Vec::with_capacity(self.len() + other.len());
        values.extend_from_slice(&self.values);
        values.extend_from_slice(&other.values);
        Row { values }
    }
}

impl From<Vec<Value>> for Row {
    fn from(values: Vec<Value>) -> Row {
        Row { values }
    }
}

impl std::ops::Index<usize> for Row {
    type Output = Value;
    fn index(&self, i: usize) -> &Value {
        &self.values[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn project_and_concat() {
        let r = Row::new(vec![Value::Int(1), Value::Int(2), Value::Int(3)]);
        let p = r.project(&[2, 0]);
        assert_eq!(p.values(), &[Value::Int(3), Value::Int(1)]);
        let c = p.concat(&Row::new(vec![Value::Null]));
        assert_eq!(c.len(), 3);
        assert_eq!(c[2], Value::Null);
    }

    #[test]
    fn indexing_works() {
        let r = Row::new(vec![Value::String("x".into())]);
        assert_eq!(r[0], Value::String("x".into()));
    }
}
