//! Arithmetic kernels — the reproduction of the paper's Figure 8
//! (`LongColumnAddLongScalarExpression`) and its templates (Section 6.3).
//! Where Hive generates one class per (type, operator, operand shape), the
//! two kernels here are generic over a lane ([`Prim`]) and a zero-sized
//! operator ([`BinOp`]); rustc monomorphises them into the same
//! specializations.
//!
//! Every `evaluate` has the Figure 8 structure: hoist the `selected_in_use`
//! branch out of the loop, then run a tight, data-independent inner loop
//! suitable for superscalar pipelines.

use crate::batch::{ColumnVector, PrimitiveColumnVector, VectorizedRowBatch};
use crate::expressions::{ConstantExpression, VectorExpression};
use hive_common::key::KeyOrd;
use hive_common::Result;
use std::fmt::Display;
use std::marker::PhantomData;

/// A fixed-width lane element: ties `i64` / `f64` to their column vector.
pub trait Prim: Copy + Default + KeyOrd + Display + Send + Sync + 'static {
    /// Lane name as it appears in kernel names (`Long`, `Double`).
    const LANE: &'static str;
    fn vector(c: &ColumnVector) -> Result<&PrimitiveColumnVector<Self>>;
    fn vector_mut(c: &mut ColumnVector) -> Result<&mut PrimitiveColumnVector<Self>>;
}

impl Prim for i64 {
    const LANE: &'static str = "Long";
    fn vector(c: &ColumnVector) -> Result<&PrimitiveColumnVector<i64>> {
        c.as_long()
    }
    fn vector_mut(c: &mut ColumnVector) -> Result<&mut PrimitiveColumnVector<i64>> {
        c.as_long_mut()
    }
}

impl Prim for f64 {
    const LANE: &'static str = "Double";
    fn vector(c: &ColumnVector) -> Result<&PrimitiveColumnVector<f64>> {
        c.as_double()
    }
    fn vector_mut(c: &mut ColumnVector) -> Result<&mut PrimitiveColumnVector<f64>> {
        c.as_double_mut()
    }
}

/// A binary operator over lane `T`, as a zero-sized type so the kernels
/// monomorphise per operator.
pub trait BinOp<T: Prim>: Send + Sync + 'static {
    type Out: Prim;
    /// Operator name and symbol as they appear in kernel names.
    const NAME: &'static str;
    const SYM: &'static str;
    /// Whether [`BinOp::undefined`] can hold (lets total operators skip the
    /// check entirely).
    const PARTIAL: bool = false;
    fn apply(a: T, b: T) -> Self::Out;
    /// Right operands for which the result is NULL, as in the row engine
    /// (`exec/src/expr.rs`): a zero divisor.
    fn undefined(_b: T) -> bool {
        false
    }
}

/// Long arithmetic wraps on overflow, exactly like the row engine's
/// `wrapping_*`; double arithmetic is IEEE.
macro_rules! arith_op {
    ($name:ident, $sym:tt, $wrapping:ident) => {
        pub struct $name;

        impl BinOp<i64> for $name {
            type Out = i64;
            const NAME: &'static str = stringify!($name);
            const SYM: &'static str = stringify!($sym);
            #[inline(always)]
            fn apply(a: i64, b: i64) -> i64 {
                a.$wrapping(b)
            }
        }

        impl BinOp<f64> for $name {
            type Out = f64;
            const NAME: &'static str = stringify!($name);
            const SYM: &'static str = stringify!($sym);
            #[inline(always)]
            fn apply(a: f64, b: f64) -> f64 {
                a $sym b
            }
        }
    };
}

arith_op!(Add, +, wrapping_add);
arith_op!(Subtract, -, wrapping_sub);
arith_op!(Multiply, *, wrapping_mul);

/// Double-only: the planner widens long operands, and `x / 0` is NULL.
pub struct Divide;

impl BinOp<f64> for Divide {
    type Out = f64;
    const NAME: &'static str = "Divide";
    const SYM: &'static str = "/";
    const PARTIAL: bool = true;
    #[inline(always)]
    fn apply(a: f64, b: f64) -> f64 {
        a / b
    }
    #[inline(always)]
    fn undefined(b: f64) -> bool {
        b == 0.0
    }
}

/// `x % 0` is NULL, and `i64::MIN % -1` is 0 as in Java (Rust's `%` would
/// panic on both).
pub struct Modulo;

macro_rules! modulo {
    ($t:ty, |$a:ident, $b:ident| $apply:expr) => {
        impl BinOp<$t> for Modulo {
            type Out = $t;
            const NAME: &'static str = "Modulo";
            const SYM: &'static str = "%";
            const PARTIAL: bool = true;
            #[inline(always)]
            fn apply($a: $t, $b: $t) -> $t {
                $apply
            }
            fn undefined(b: $t) -> bool {
                b == 0 as $t
            }
        }
    };
}

modulo!(i64, |a, b| a.checked_rem(b).unwrap_or(0));
modulo!(f64, |a, b| a % b);

/// Run `f` over the valid row indexes with the `selected_in_use` branch
/// hoisted out of the loop (Figure 8).
#[inline(always)]
fn for_each_valid(selected: &[usize], in_use: bool, n: usize, mut f: impl FnMut(usize)) {
    if in_use {
        for &i in &selected[..n] {
            f(i);
        }
    } else {
        for i in 0..n {
            f(i);
        }
    }
}

/// `out[i] = f(in[i])` over the valid rows; NULL in, NULL out; a repeating
/// input computes once. The loop behind column ⊕ scalar and the casts.
#[inline(always)]
pub(crate) fn map_col<T: Prim, U: Prim>(
    batch: &mut VectorizedRowBatch,
    input: usize,
    output: usize,
    f: impl Fn(T) -> U,
) -> Result<()> {
    let n = batch.size;
    if n == 0 {
        return Ok(());
    }
    let VectorizedRowBatch {
        selected,
        selected_in_use,
        columns,
        ..
    } = batch;
    let (inp, out) = two_cols(columns, input, output);
    let inp = T::vector(inp)?;
    let out = U::vector_mut(out)?;
    out.is_repeating = inp.is_repeating;
    out.no_nulls = inp.no_nulls;
    if inp.is_repeating {
        out.vector[0] = f(inp.vector[0]);
        out.null[0] = !inp.no_nulls && inp.null[0];
        return Ok(());
    }
    for_each_valid(selected, *selected_in_use, n, |i| {
        out.vector[i] = f(inp.vector[i])
    });
    if !inp.no_nulls {
        for_each_valid(selected, *selected_in_use, n, |i| out.null[i] = inp.null[i]);
    }
    Ok(())
}

/// Column ⊕ scalar, per the paper's Figure 8 template.
pub struct ColScalar<T, K> {
    input_column: usize,
    output_column: usize,
    scalar: T,
    op: PhantomData<K>,
}

impl<T: Prim, K: BinOp<T>> ColScalar<T, K> {
    pub fn new(input_column: usize, scalar: T, output_column: usize) -> Self {
        ColScalar {
            input_column,
            output_column,
            scalar,
            op: PhantomData,
        }
    }
}

impl<T: Prim, K: BinOp<T>> VectorExpression for ColScalar<T, K> {
    fn evaluate(&self, batch: &mut VectorizedRowBatch) -> Result<()> {
        let scalar = self.scalar;
        if K::PARTIAL && K::undefined(scalar) {
            // `x / 0` is NULL for every x: a constant, not a loop.
            let output = self.output_column;
            return ConstantExpression::Null { output }.evaluate(batch);
        }
        map_col(batch, self.input_column, self.output_column, |x: T| {
            K::apply(x, scalar)
        })
    }

    fn inputs(&self) -> Vec<usize> {
        vec![self.input_column]
    }

    fn output_column(&self) -> Option<usize> {
        Some(self.output_column)
    }

    fn name(&self) -> String {
        format!(
            "{lane}Col{}{lane}Scalar({} {} {}) -> {}",
            K::NAME,
            self.input_column,
            K::SYM,
            self.scalar,
            self.output_column,
            lane = T::LANE
        )
    }
}

/// Column ⊕ column of the same lane.
pub struct ColCol<T, K> {
    left_column: usize,
    right_column: usize,
    output_column: usize,
    op: PhantomData<(T, K)>,
}

impl<T: Prim, K: BinOp<T>> ColCol<T, K> {
    pub fn new(left_column: usize, right_column: usize, output_column: usize) -> Self {
        ColCol {
            left_column,
            right_column,
            output_column,
            op: PhantomData,
        }
    }
}

impl<T: Prim, K: BinOp<T>> VectorExpression for ColCol<T, K> {
    fn evaluate(&self, batch: &mut VectorizedRowBatch) -> Result<()> {
        let n = batch.size;
        if n == 0 {
            return Ok(());
        }
        let max = batch.max_size.max(n);
        // Both-repeating fast path: constant-time result.
        {
            let l = T::vector(&batch.columns[self.left_column])?;
            let r = T::vector(&batch.columns[self.right_column])?;
            if l.is_repeating && r.is_repeating {
                let v = K::apply(l.vector[0], r.vector[0]);
                let nl = l.is_null(0) || r.is_null(0) || K::undefined(r.vector[0]);
                let out = K::Out::vector_mut(&mut batch.columns[self.output_column])?;
                out.vector[0] = v;
                out.null[0] = nl;
                out.is_repeating = true;
                out.no_nulls = !nl;
                return Ok(());
            }
        }
        T::vector_mut(&mut batch.columns[self.left_column])?.flatten(max);
        T::vector_mut(&mut batch.columns[self.right_column])?.flatten(max);
        let VectorizedRowBatch {
            selected,
            selected_in_use,
            columns,
            ..
        } = batch;
        let (l, r, out) = three_cols(
            columns,
            self.left_column,
            self.right_column,
            self.output_column,
        );
        let l = T::vector(l)?;
        let r = T::vector(r)?;
        let out = K::Out::vector_mut(out)?;
        out.is_repeating = false;
        out.no_nulls = l.no_nulls && r.no_nulls;
        for_each_valid(selected, *selected_in_use, n, |i| {
            out.vector[i] = K::apply(l.vector[i], r.vector[i])
        });
        if K::PARTIAL {
            let mut any_null = false;
            for_each_valid(selected, *selected_in_use, n, |i| {
                out.null[i] = l.is_null(i) || r.is_null(i) || K::undefined(r.vector[i]);
                any_null |= out.null[i];
            });
            out.no_nulls = !any_null;
        } else if !out.no_nulls {
            for_each_valid(selected, *selected_in_use, n, |i| {
                out.null[i] = (!l.no_nulls && l.null[i]) || (!r.no_nulls && r.null[i])
            });
        }
        Ok(())
    }

    fn inputs(&self) -> Vec<usize> {
        vec![self.left_column, self.right_column]
    }

    fn output_column(&self) -> Option<usize> {
        Some(self.output_column)
    }

    fn name(&self) -> String {
        format!(
            "{lane}Col{}{lane}Column({} {} {}) -> {}",
            K::NAME,
            self.left_column,
            K::SYM,
            self.right_column,
            self.output_column,
            lane = T::LANE
        )
    }
}

/// `double ⊗ double` by its Hive name, with public fields: the one arithmetic
/// kernel the benchmark's q6 replay builds by struct literal
/// (`benchmark/README.md`). Everything else goes through
/// [`arith`](crate::expressions::arith()).
pub struct DoubleColMultiplyDoubleColumn {
    pub left_column: usize,
    pub right_column: usize,
    pub output_column: usize,
}

impl DoubleColMultiplyDoubleColumn {
    fn kernel(&self) -> ColCol<f64, Multiply> {
        ColCol::new(self.left_column, self.right_column, self.output_column)
    }
}

impl VectorExpression for DoubleColMultiplyDoubleColumn {
    #[inline]
    fn evaluate(&self, batch: &mut VectorizedRowBatch) -> Result<()> {
        self.kernel().evaluate(batch)
    }

    fn inputs(&self) -> Vec<usize> {
        self.kernel().inputs()
    }

    fn output_column(&self) -> Option<usize> {
        Some(self.output_column)
    }

    fn name(&self) -> String {
        self.kernel().name()
    }
}

/// Split-borrow two distinct columns (input shared, output unique).
fn two_cols(
    columns: &mut [ColumnVector],
    a: usize,
    b: usize,
) -> (&ColumnVector, &mut ColumnVector) {
    assert_ne!(a, b, "input and output columns must differ");
    if a < b {
        let (lo, hi) = columns.split_at_mut(b);
        (&lo[a], &mut hi[0])
    } else {
        let (lo, hi) = columns.split_at_mut(a);
        (&hi[0], &mut lo[b])
    }
}

/// Split-borrow three columns: left/right shared (may alias each other),
/// output unique and distinct from both. Out-of-range indexes panic.
fn three_cols(
    columns: &mut [ColumnVector],
    l: usize,
    r: usize,
    o: usize,
) -> (&ColumnVector, &ColumnVector, &mut ColumnVector) {
    assert!(o != l && o != r, "output column must be a scratch column");
    let (lo, rest) = columns.split_at_mut(o);
    let (out, hi) = rest.split_first_mut().expect("output column out of range");
    let (lo, hi): (&[ColumnVector], &[ColumnVector]) = (lo, hi);
    let input = |i: usize| if i < o { &lo[i] } else { &hi[i - o - 1] };
    (input(l), input(r), out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expressions::testutil::batch_with;
    use crate::expressions::Operand::*;
    use crate::expressions::{arith, ArithOp};
    use hive_common::DataType;

    #[test]
    fn figure_8_add_long_scalar() {
        let mut b = batch_with(&[1, 2, 3, 4], &[]);
        let out = b.add_scratch(&DataType::Int).unwrap();
        arith(ArithOp::Add, LongCol(0), LongScalar(10), out)
            .unwrap()
            .evaluate(&mut b)
            .unwrap();
        assert_eq!(
            &b.columns[out].as_long().unwrap().vector[..4],
            &[11, 12, 13, 14]
        );
    }

    #[test]
    fn add_honours_selected_array() {
        let mut b = batch_with(&[1, 2, 3, 4], &[]);
        let out = b.add_scratch(&DataType::Int).unwrap();
        b.selected_in_use = true;
        b.selected[0] = 1;
        b.selected[1] = 3;
        b.size = 2;
        arith(ArithOp::Add, LongCol(0), LongScalar(100), out)
            .unwrap()
            .evaluate(&mut b)
            .unwrap();
        let v = &b.columns[out].as_long().unwrap().vector;
        assert_eq!(v[1], 102);
        assert_eq!(v[3], 104);
    }

    #[test]
    fn repeating_input_computes_in_constant_time() {
        let mut b = batch_with(&[5, 0, 0, 0], &[]);
        b.columns[0].as_long_mut().unwrap().is_repeating = true;
        let out = b.add_scratch(&DataType::Int).unwrap();
        arith(ArithOp::Multiply, LongCol(0), LongScalar(3), out)
            .unwrap()
            .evaluate(&mut b)
            .unwrap();
        let o = b.columns[out].as_long().unwrap();
        assert!(o.is_repeating);
        assert_eq!(o.value(3), 15);
    }

    #[test]
    fn col_col_double_ops_allow_same_input_twice() {
        let mut b = batch_with(&[], &[1.5, 2.5, 4.0]);
        b.size = 3;
        let out = b.add_scratch(&DataType::Double).unwrap();
        DoubleColMultiplyDoubleColumn {
            left_column: 1,
            right_column: 1,
            output_column: out,
        }
        .evaluate(&mut b)
        .unwrap();
        assert_eq!(
            &b.columns[out].as_double().unwrap().vector[..3],
            &[2.25, 6.25, 16.0]
        );
    }

    #[test]
    fn nulls_propagate() {
        let mut b = batch_with(&[1, 2, 3], &[]);
        {
            let c = b.columns[0].as_long_mut().unwrap();
            c.no_nulls = false;
            c.null[1] = true;
        }
        let out = b.add_scratch(&DataType::Int).unwrap();
        arith(ArithOp::Add, LongCol(0), LongScalar(1), out)
            .unwrap()
            .evaluate(&mut b)
            .unwrap();
        let o = b.columns[out].as_long().unwrap();
        assert!(!o.no_nulls);
        assert!(o.is_null(1));
        assert!(!o.is_null(0));
    }

    #[test]
    fn mixed_repeating_col_col_flattens() {
        let mut b = batch_with(&[7, 0, 0], &[]);
        b.columns[0].as_long_mut().unwrap().is_repeating = true;
        let c2 = b.add_scratch(&DataType::Int).unwrap();
        {
            let c = b.columns[c2].as_long_mut().unwrap();
            c.vector[..3].copy_from_slice(&[10, 20, 30]);
        }
        let out = b.add_scratch(&DataType::Int).unwrap();
        arith(ArithOp::Add, LongCol(0), LongCol(c2), out)
            .unwrap()
            .evaluate(&mut b)
            .unwrap();
        assert_eq!(
            &b.columns[out].as_long().unwrap().vector[..3],
            &[17, 27, 37]
        );
    }

    #[test]
    fn division_by_zero_is_null_like_the_row_engine() {
        // Scalar divisor: one repeating NULL, whatever the numerator.
        let mut b = batch_with(&[], &[1.0, -2.0, 0.0]);
        b.size = 3;
        let out = b.add_scratch(&DataType::Double).unwrap();
        arith(ArithOp::Divide, DoubleCol(1), DoubleScalar(0.0), out)
            .unwrap()
            .evaluate(&mut b)
            .unwrap();
        let o = b.columns[out].as_double().unwrap();
        assert!(o.is_repeating && !o.no_nulls);
        assert!((0..3).all(|i| o.is_null(i)));

        // Column divisor: only the zero lanes (and NULL inputs) are NULL.
        let den = b.add_scratch(&DataType::Double).unwrap();
        {
            let c = b.columns[den].as_double_mut().unwrap();
            c.vector[..3].copy_from_slice(&[2.0, 0.0, -0.0]);
        }
        let q = b.add_scratch(&DataType::Double).unwrap();
        let div = arith(ArithOp::Divide, DoubleCol(1), DoubleCol(den), q).unwrap();
        div.evaluate(&mut b).unwrap();
        let o = b.columns[q].as_double().unwrap();
        assert!(!o.no_nulls);
        assert_eq!(o.vector[0], 0.5);
        assert_eq!(
            (o.is_null(0), o.is_null(1), o.is_null(2)),
            (false, true, true)
        );

        // No zero divisor: the output keeps its no-nulls fast path, and stale
        // null flags from the previous batch are not resurrected.
        b.columns[den].as_double_mut().unwrap().vector[..3].copy_from_slice(&[2.0, 4.0, 8.0]);
        div.evaluate(&mut b).unwrap();
        let o = b.columns[q].as_double().unwrap();
        assert!(o.no_nulls);
        assert_eq!(&o.vector[..3], &[0.5, -0.5, 0.0]);

        // Both repeating, zero divisor: a repeating NULL.
        b.columns[den].as_double_mut().unwrap().vector[0] = 0.0;
        b.columns[den].as_double_mut().unwrap().is_repeating = true;
        b.columns[1].as_double_mut().unwrap().is_repeating = true;
        div.evaluate(&mut b).unwrap();
        let o = b.columns[q].as_double().unwrap();
        assert!(o.is_repeating && o.is_null(2));
    }

    #[test]
    fn long_arithmetic_wraps_like_the_row_engine() {
        // Runs under `cargo test` (debug: unchecked `*` would panic) and
        // under ci.sh's `--release` pass.
        let mut b = batch_with(&[3, i64::MAX, i64::MIN], &[]);
        let s = b.add_scratch(&DataType::Int).unwrap();
        let c = b.add_scratch(&DataType::Int).unwrap();
        for (op, scalar, want) in [
            (
                ArithOp::Multiply,
                i64::MAX,
                [3i64.wrapping_mul(i64::MAX), 1, i64::MIN],
            ),
            (ArithOp::Add, 1, [4, i64::MIN, i64::MIN + 1]),
            (ArithOp::Subtract, 2, [1, i64::MAX - 2, i64::MAX - 1]),
        ] {
            arith(op, LongCol(0), LongScalar(scalar), s)
                .unwrap()
                .evaluate(&mut b)
                .unwrap();
            assert_eq!(
                &b.columns[s].as_long().unwrap().vector[..3],
                &want,
                "{op:?}"
            );
        }
        for (op, want) in [
            (ArithOp::Multiply, [9, 1, 0]),
            (ArithOp::Add, [6, -2, 0]),
            (ArithOp::Subtract, [0, 0, 0]),
        ] {
            arith(op, LongCol(0), LongCol(0), c)
                .unwrap()
                .evaluate(&mut b)
                .unwrap();
            assert_eq!(
                &b.columns[c].as_long().unwrap().vector[..3],
                &want,
                "{op:?}"
            );
        }
    }

    #[test]
    fn modulo_by_zero_is_null_and_i64_min_by_minus_one_is_zero() {
        let mut b = batch_with(&[7, i64::MIN, -7], &[5.5, -5.5, 1.0]);
        let s = b.add_scratch(&DataType::Int).unwrap();
        arith(ArithOp::Modulo, LongCol(0), LongScalar(-1), s)
            .unwrap()
            .evaluate(&mut b)
            .unwrap();
        assert_eq!(&b.columns[s].as_long().unwrap().vector[..3], &[0, 0, 0]);
        // Column divisors 3, -1, 0.
        let d = b.add_scratch(&DataType::Int).unwrap();
        b.columns[d].as_long_mut().unwrap().vector[..3].copy_from_slice(&[3, -1, 0]);
        let c = b.add_scratch(&DataType::Int).unwrap();
        arith(ArithOp::Modulo, LongCol(0), LongCol(d), c)
            .unwrap()
            .evaluate(&mut b)
            .unwrap();
        let o = b.columns[c].as_long().unwrap();
        assert_eq!((o.value(0), o.value(1)), (1, 0));
        assert!(o.is_null(2) && !o.is_null(1));
        // Doubles: IEEE remainder, NULL for a zero divisor.
        let q = b.add_scratch(&DataType::Double).unwrap();
        arith(ArithOp::Modulo, DoubleCol(1), DoubleScalar(2.0), q)
            .unwrap()
            .evaluate(&mut b)
            .unwrap();
        assert_eq!(
            &b.columns[q].as_double().unwrap().vector[..3],
            &[1.5, -1.5, 1.0]
        );
        arith(ArithOp::Modulo, DoubleCol(1), DoubleScalar(0.0), q)
            .unwrap()
            .evaluate(&mut b)
            .unwrap();
        assert!(b.columns[q].as_double().unwrap().is_null(0));
    }

    #[test]
    fn int_scalars_keep_all_64_bits() {
        // 2^53 + 1 is not representable as f64.
        let big = 9_007_199_254_740_993i64;
        let mut b = batch_with(&[0, 1], &[]);
        let out = b.add_scratch(&DataType::Int).unwrap();
        arith(ArithOp::Add, LongCol(0), LongScalar(big), out)
            .unwrap()
            .evaluate(&mut b)
            .unwrap();
        assert_eq!(
            &b.columns[out].as_long().unwrap().vector[..2],
            &[big, big + 1]
        );
    }

    #[test]
    #[should_panic]
    fn out_of_range_input_column_panics() {
        let mut b = batch_with(&[1, 2], &[]);
        let out = b.add_scratch(&DataType::Int).unwrap();
        // Column 9 does not exist: a planner bug must be a panic, not UB.
        let _ = arith(ArithOp::Add, LongCol(0), LongCol(9), out)
            .unwrap()
            .evaluate(&mut b);
    }

    #[test]
    #[should_panic]
    fn out_of_range_output_column_panics() {
        let mut b = batch_with(&[1, 2], &[]);
        let _ = arith(ArithOp::Add, LongCol(0), LongCol(0), 9)
            .unwrap()
            .evaluate(&mut b);
    }
}
