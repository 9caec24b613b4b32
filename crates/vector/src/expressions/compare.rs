//! Comparison operators. Section 6.2's "two sets of implementations" for
//! comparisons share them: in value position (SELECT list, join keys)
//! [`Test`] turns one into a [`BinOp`] whose 0/1 long output column the
//! arithmetic kernels fill; in filter position `filters.rs` narrows the
//! selection with it.

use crate::expressions::arith::{BinOp, Prim};
use hive_common::key::KeyOrd;
use std::marker::PhantomData;

/// A comparison as a zero-sized type; `V` is `i64`, `f64` or `[u8]`
/// (lexicographic, matching Hive's binary collation), compared by the key
/// rule (`hive_common::key`): a NaN equals a NaN and is above `+inf`.
pub trait Cmp: Send + Sync + 'static {
    const NAME: &'static str;
    const SYM: &'static str;
    fn test<V: KeyOrd + ?Sized>(a: &V, b: &V) -> bool;
}

macro_rules! cmp_op {
    ($name:ident, $sym:tt, |$a:ident, $b:ident| $test:expr) => {
        pub struct $name;

        impl Cmp for $name {
            const NAME: &'static str = stringify!($name);
            const SYM: &'static str = stringify!($sym);
            #[inline(always)]
            fn test<V: KeyOrd + ?Sized>($a: &V, $b: &V) -> bool {
                $test
            }
        }
    };
}

cmp_op!(Equal, ==, |a, b| a.key_eq(b));
cmp_op!(NotEqual, !=, |a, b| !a.key_eq(b));
cmp_op!(Less, <, |a, b| a.key_lt(b));
cmp_op!(LessEqual, <=, |a, b| a.key_le(b));
cmp_op!(Greater, >, |a, b| !a.key_le(b));
cmp_op!(GreaterEqual, >=, |a, b| !a.key_lt(b));

/// `left ⋈ right` as a 0/1 long (NULL in → NULL out).
pub struct Test<C>(PhantomData<C>);

impl<T: Prim, C: Cmp> BinOp<T> for Test<C> {
    type Out = i64;
    const NAME: &'static str = C::NAME;
    const SYM: &'static str = C::SYM;
    #[inline(always)]
    fn apply(a: T, b: T) -> i64 {
        C::test(&a, &b) as i64
    }
}

#[cfg(test)]
mod tests {
    use crate::expressions::testutil::batch_with;
    use crate::expressions::Operand::*;
    use crate::expressions::{compare, CmpOp};
    use hive_common::DataType;

    #[test]
    fn boolean_output_column() {
        let mut b = batch_with(&[1, 5, 9], &[]);
        let out = b.add_scratch(&DataType::Boolean).unwrap();
        compare(CmpOp::Greater, LongCol(0), LongScalar(4), out)
            .unwrap()
            .evaluate(&mut b)
            .unwrap();
        assert_eq!(&b.columns[out].as_long().unwrap().vector[..3], &[0, 1, 1]);
    }

    #[test]
    fn null_comparisons_stay_null() {
        let mut b = batch_with(&[1, 5], &[]);
        {
            let c = b.columns[0].as_long_mut().unwrap();
            c.no_nulls = false;
            c.null[0] = true;
        }
        let out = b.add_scratch(&DataType::Boolean).unwrap();
        compare(CmpOp::Less, LongCol(0), LongScalar(100), out)
            .unwrap()
            .evaluate(&mut b)
            .unwrap();
        let o = b.columns[out].as_long().unwrap();
        assert!(o.is_null(0));
        assert!(!o.is_null(1));
        assert_eq!(o.vector[1], 1);
    }

    #[test]
    fn col_col_comparison() {
        let mut b = batch_with(&[1, 5, 3], &[]);
        let c2 = b.add_scratch(&DataType::Int).unwrap();
        b.columns[c2].as_long_mut().unwrap().vector[..3].copy_from_slice(&[3, 3, 3]);
        let out = b.add_scratch(&DataType::Boolean).unwrap();
        compare(CmpOp::Equal, LongCol(0), LongCol(c2), out)
            .unwrap()
            .evaluate(&mut b)
            .unwrap();
        assert_eq!(&b.columns[out].as_long().unwrap().vector[..3], &[0, 0, 1]);
    }

    #[test]
    fn int_scalars_compare_with_all_64_bits() {
        // 2^53 and 2^53 + 1 collapse to one f64; they must not compare equal.
        let big = 9_007_199_254_740_993i64;
        let mut b = batch_with(&[big - 1, big, big + 1], &[]);
        let out = b.add_scratch(&DataType::Boolean).unwrap();
        compare(CmpOp::Equal, LongCol(0), LongScalar(big), out)
            .unwrap()
            .evaluate(&mut b)
            .unwrap();
        assert_eq!(&b.columns[out].as_long().unwrap().vector[..3], &[0, 1, 0]);
    }
}
