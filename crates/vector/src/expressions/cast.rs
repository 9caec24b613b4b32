//! Type-cast expressions. The planner inserts casts so arithmetic and
//! comparison kernels only need same-lane variants (long⊕long,
//! double⊕double).

use crate::batch::VectorizedRowBatch;
use crate::expressions::arith::{map_col, Prim};
use crate::expressions::VectorExpression;
use hive_common::Result;
use std::marker::PhantomData;

/// Lane conversion with SQL CAST semantics, as in the row engine's
/// `cast_value`: long → double widens, double → long truncates toward zero.
pub trait CastTo<U>: Prim {
    fn cast(self) -> U;
}

impl CastTo<f64> for i64 {
    #[inline(always)]
    fn cast(self) -> f64 {
        self as f64
    }
}

impl CastTo<i64> for f64 {
    #[inline(always)]
    fn cast(self) -> i64 {
        self as i64
    }
}

/// Convert a column of lane `T` into a scratch column of lane `U`.
pub struct Cast<T, U> {
    input_column: usize,
    output_column: usize,
    lanes: PhantomData<(T, U)>,
}

impl<T: CastTo<U>, U: Prim> Cast<T, U> {
    pub fn new(input_column: usize, output_column: usize) -> Self {
        Cast {
            input_column,
            output_column,
            lanes: PhantomData,
        }
    }
}

impl<T: CastTo<U>, U: Prim> VectorExpression for Cast<T, U> {
    fn evaluate(&self, batch: &mut VectorizedRowBatch) -> Result<()> {
        map_col(batch, self.input_column, self.output_column, T::cast)
    }

    fn inputs(&self) -> Vec<usize> {
        vec![self.input_column]
    }

    fn output_column(&self) -> Option<usize> {
        Some(self.output_column)
    }

    fn name(&self) -> String {
        format!(
            "Cast{}To{}({}) -> {}",
            T::LANE,
            U::LANE,
            self.input_column,
            self.output_column
        )
    }
}

#[cfg(test)]
mod tests {
    use crate::expressions::testutil::batch_with;
    use crate::expressions::Operand::*;
    use crate::expressions::{cast, Lane};
    use hive_common::DataType;

    #[test]
    fn long_to_double_and_back() {
        let mut b = batch_with(&[1, -2, 3], &[]);
        let d = b.add_scratch(&DataType::Double).unwrap();
        cast(LongCol(0), Lane::Double, d)
            .unwrap()
            .evaluate(&mut b)
            .unwrap();
        assert_eq!(
            &b.columns[d].as_double().unwrap().vector[..3],
            &[1.0, -2.0, 3.0]
        );

        let l = b.add_scratch(&DataType::Int).unwrap();
        cast(DoubleCol(d), Lane::Long, l)
            .unwrap()
            .evaluate(&mut b)
            .unwrap();
        assert_eq!(&b.columns[l].as_long().unwrap().vector[..3], &[1, -2, 3]);
    }

    #[test]
    fn double_to_long_truncates() {
        let mut b = batch_with(&[], &[1.9, -1.9, 0.5]);
        b.size = 3;
        let l = b.add_scratch(&DataType::Int).unwrap();
        cast(DoubleCol(1), Lane::Long, l)
            .unwrap()
            .evaluate(&mut b)
            .unwrap();
        assert_eq!(&b.columns[l].as_long().unwrap().vector[..3], &[1, -1, 0]);
    }

    #[test]
    fn repeating_cast() {
        let mut b = batch_with(&[9, 0, 0], &[]);
        b.columns[0].as_long_mut().unwrap().is_repeating = true;
        let d = b.add_scratch(&DataType::Double).unwrap();
        cast(LongCol(0), Lane::Double, d)
            .unwrap()
            .evaluate(&mut b)
            .unwrap();
        let out = b.columns[d].as_double().unwrap();
        assert!(out.is_repeating);
        assert_eq!(out.value(2), 9.0);
    }
}
