//! In-place filter expressions (paper Section 6.2): instead of producing a
//! boolean output column they shrink the batch's `selected` array, so
//! "subsequent expressions only work on rows that are selected by the
//! previous expressions".

use crate::batch::VectorizedRowBatch;
use crate::expressions::arith::Prim;
use crate::expressions::compare::{Cmp, Greater, Less, NotEqual};
use crate::expressions::VectorExpression;
use hive_common::Result;
use std::cell::RefCell;
use std::marker::PhantomData;

/// Narrow the selection to the rows where `keep(i)` holds, with the
/// `selected_in_use` branch hoisted out of the loop. Every row is stored
/// and the cursor advances only past the kept ones, so the loop body has no
/// branch on `keep` to mispredict ("without a branch instruction", §6.2).
#[inline(always)]
fn retain(
    selected: &mut [usize],
    selected_in_use: &mut bool,
    size: &mut usize,
    mut keep: impl FnMut(usize) -> bool,
) {
    let n = *size;
    let mut new_size = 0usize;
    if *selected_in_use {
        for j in 0..n {
            let i = selected[j];
            selected[new_size] = i;
            new_size += keep(i) as usize;
        }
    } else {
        for i in 0..n {
            selected[new_size] = i;
            new_size += keep(i) as usize;
        }
        *selected_in_use = true;
    }
    *size = new_size;
}

/// Keep rows where `column ⋈ scalar` holds (NULL fails).
pub struct FilterColScalar<T, C> {
    column: usize,
    scalar: T,
    op: PhantomData<C>,
}

impl<T: Prim, C: Cmp> FilterColScalar<T, C> {
    pub fn new(column: usize, scalar: T) -> Self {
        FilterColScalar {
            column,
            scalar,
            op: PhantomData,
        }
    }
}

impl<T: Prim, C: Cmp> VectorExpression for FilterColScalar<T, C> {
    fn evaluate(&self, batch: &mut VectorizedRowBatch) -> Result<()> {
        if batch.size == 0 {
            return Ok(());
        }
        let VectorizedRowBatch {
            selected,
            selected_in_use,
            columns,
            size,
            ..
        } = batch;
        let col = T::vector(&columns[self.column])?;
        let scalar = self.scalar;
        if col.is_repeating {
            if col.is_null(0) || !C::test(&col.vector[0], &scalar) {
                *size = 0;
            }
        } else if col.no_nulls {
            retain(selected, selected_in_use, size, |i| {
                C::test(&col.vector[i], &scalar)
            });
        } else {
            retain(selected, selected_in_use, size, |i| {
                !col.null[i] && C::test(&col.vector[i], &scalar)
            });
        }
        Ok(())
    }

    fn inputs(&self) -> Vec<usize> {
        vec![self.column]
    }

    fn name(&self) -> String {
        format!(
            "Filter{lane}Col{}{lane}Scalar({} {} {})",
            C::NAME,
            self.column,
            C::SYM,
            self.scalar,
            lane = T::LANE
        )
    }
}

/// Keep rows where `left ⋈ right` holds between two columns of one lane.
pub struct FilterColCol<T, C> {
    left_column: usize,
    right_column: usize,
    op: PhantomData<(T, C)>,
}

impl<T: Prim, C: Cmp> FilterColCol<T, C> {
    pub fn new(left_column: usize, right_column: usize) -> Self {
        FilterColCol {
            left_column,
            right_column,
            op: PhantomData,
        }
    }
}

impl<T: Prim, C: Cmp> VectorExpression for FilterColCol<T, C> {
    fn evaluate(&self, batch: &mut VectorizedRowBatch) -> Result<()> {
        let n = batch.size;
        if n == 0 {
            return Ok(());
        }
        // Flatten repeating inputs; all-repeating handled naturally.
        let max = batch.max_size.max(n);
        T::vector_mut(&mut batch.columns[self.left_column])?.flatten(max);
        T::vector_mut(&mut batch.columns[self.right_column])?.flatten(max);
        let VectorizedRowBatch {
            selected,
            selected_in_use,
            columns,
            size,
            ..
        } = batch;
        let l = T::vector(&columns[self.left_column])?;
        let r = T::vector(&columns[self.right_column])?;
        if l.no_nulls && r.no_nulls {
            retain(selected, selected_in_use, size, |i| {
                C::test(&l.vector[i], &r.vector[i])
            });
        } else {
            retain(selected, selected_in_use, size, |i| {
                (l.no_nulls || !l.null[i])
                    && (r.no_nulls || !r.null[i])
                    && C::test(&l.vector[i], &r.vector[i])
            });
        }
        Ok(())
    }

    fn inputs(&self) -> Vec<usize> {
        vec![self.left_column, self.right_column]
    }

    fn name(&self) -> String {
        format!(
            "Filter{lane}Col{}{lane}Column({} {} {})",
            C::NAME,
            self.left_column,
            C::SYM,
            self.right_column,
            lane = T::LANE
        )
    }
}

/// Keep rows where `lo <= column <= hi` (SQL BETWEEN; NULL fails). Fields
/// are public because the benchmark's q6 replay builds the double form by
/// struct literal (`benchmark/README.md`).
pub struct FilterColumnBetween<T> {
    pub column: usize,
    pub lo: T,
    pub hi: T,
}

impl<T: Prim> VectorExpression for FilterColumnBetween<T> {
    fn evaluate(&self, batch: &mut VectorizedRowBatch) -> Result<()> {
        if batch.size == 0 {
            return Ok(());
        }
        let VectorizedRowBatch {
            selected,
            selected_in_use,
            columns,
            size,
            ..
        } = batch;
        let col = T::vector(&columns[self.column])?;
        let (lo, hi) = (&self.lo, &self.hi);
        let outside = |v: &T| Less::test(v, lo) || Greater::test(v, hi);
        if col.is_repeating {
            if col.is_null(0) || outside(&col.vector[0]) {
                *size = 0;
            }
            return Ok(());
        }
        retain(selected, selected_in_use, size, |i| {
            (col.no_nulls || !col.null[i]) && !outside(&col.vector[i])
        });
        Ok(())
    }

    fn inputs(&self) -> Vec<usize> {
        vec![self.column]
    }

    fn name(&self) -> String {
        format!(
            "Filter{}ColumnBetween({} in [{}, {}])",
            T::LANE,
            self.column,
            self.lo,
            self.hi
        )
    }
}

/// Keep rows where the byte-string comparison holds (NULL fails).
///
/// A vector that carries its dictionary has each *entry* compared at most
/// once per dictionary — `verdicts` remembers the answer — and its rows are
/// a table lookup; a vector without one compares row by row.
pub struct FilterBytesColScalar<C> {
    column: usize,
    scalar: Vec<u8>,
    op: PhantomData<C>,
    /// `(dictionary id, verdict per entry)`: 0 not compared yet, else
    /// `PASS`/`FAIL`. An expression is `Send`, not `Sync`: one task owns it.
    verdicts: RefCell<(Option<u64>, Vec<u8>)>,
}

const FAIL: u8 = 1;
const PASS: u8 = 2;

impl<C: Cmp> FilterBytesColScalar<C> {
    pub fn new(column: usize, scalar: Vec<u8>) -> Self {
        FilterBytesColScalar {
            column,
            scalar,
            op: PhantomData,
            verdicts: RefCell::new((None, Vec::new())),
        }
    }
}

impl<C: Cmp> VectorExpression for FilterBytesColScalar<C> {
    fn evaluate(&self, batch: &mut VectorizedRowBatch) -> Result<()> {
        if batch.size == 0 {
            return Ok(());
        }
        let VectorizedRowBatch {
            selected,
            selected_in_use,
            columns,
            size,
            ..
        } = batch;
        let col = columns[self.column].as_bytes()?;
        let scalar = self.scalar.as_slice();
        if col.is_repeating {
            if col.is_null(0) || !C::test(col.value(0), scalar) {
                *size = 0;
            }
            return Ok(());
        }
        let Some((dictionary, ids)) = col.dictionary() else {
            retain(selected, selected_in_use, size, |i| {
                !col.is_null(i) && C::test(col.value(i), scalar)
            });
            return Ok(());
        };
        let mut memo = self.verdicts.borrow_mut();
        let (known, verdicts) = &mut *memo;
        if *known != Some(dictionary.id()) {
            *known = Some(dictionary.id());
            verdicts.clear();
            verdicts.resize(dictionary.len(), 0);
        }
        let verdicts = verdicts.as_mut_slice();
        let mut passes = |i: usize| {
            let e = ids[i] as usize;
            if verdicts[e] == 0 {
                let pass = C::test(dictionary.entry(e), scalar);
                verdicts[e] = if pass { PASS } else { FAIL };
            }
            verdicts[e] == PASS
        };
        match columns[self.column].nulls() {
            None => retain(selected, selected_in_use, size, passes),
            Some(null) => retain(selected, selected_in_use, size, |i| !null[i] && passes(i)),
        }
        Ok(())
    }

    fn inputs(&self) -> Vec<usize> {
        vec![self.column]
    }

    fn name(&self) -> String {
        format!(
            "FilterBytesCol{}BytesScalar({} vs {:?})",
            C::NAME,
            self.column,
            String::from_utf8_lossy(&self.scalar)
        )
    }
}

/// Logical AND of filters: children run sequentially, each narrowing the
/// selection further — AND needs no extra mechanism in this model. On a
/// batch with deferred columns, each child's columns are materialized just
/// before it runs: only for the rows its predecessors kept.
pub struct FilterAnd {
    children: Vec<Box<dyn VectorExpression>>,
    /// `needs()` of each child.
    needs: Vec<Vec<usize>>,
}

impl FilterAnd {
    pub fn new(children: Vec<Box<dyn VectorExpression>>) -> FilterAnd {
        let needs = children.iter().map(|c| c.needs()).collect();
        FilterAnd { children, needs }
    }
}

impl VectorExpression for FilterAnd {
    fn evaluate(&self, batch: &mut VectorizedRowBatch) -> Result<()> {
        for (c, needs) in self.children.iter().zip(&self.needs) {
            if batch.size == 0 {
                return Ok(());
            }
            batch.materialize(needs);
            c.evaluate(batch)?;
        }
        Ok(())
    }

    fn inputs(&self) -> Vec<usize> {
        union_of_inputs(&self.children)
    }

    fn needs(&self) -> Vec<usize> {
        self.needs.first().cloned().unwrap_or_default()
    }

    fn name(&self) -> String {
        format!(
            "FilterAnd[{}]",
            self.children
                .iter()
                .map(|c| c.name())
                .collect::<Vec<_>>()
                .join(", ")
        )
    }
}

fn union_of_inputs(children: &[Box<dyn VectorExpression>]) -> Vec<usize> {
    let mut all: Vec<usize> = children.iter().flat_map(|c| c.inputs()).collect();
    all.sort_unstable();
    all.dedup();
    all
}

/// Logical OR of filters: each child runs against the original selection;
/// the surviving sets are unioned (mirrors Hive's `FilterExprOrExpr`).
pub struct FilterOr {
    pub children: Vec<Box<dyn VectorExpression>>,
}

impl VectorExpression for FilterOr {
    fn evaluate(&self, batch: &mut VectorizedRowBatch) -> Result<()> {
        if batch.size == 0 {
            return Ok(());
        }
        let base_selected: Vec<usize> = batch.iter_selected().collect();
        let base_in_use = batch.selected_in_use;
        let mut union: Vec<usize> = Vec::new();
        for c in &self.children {
            // Restore the original selection for this branch.
            batch.size = base_selected.len();
            batch.selected_in_use = true;
            batch.selected[..base_selected.len()].copy_from_slice(&base_selected);
            c.evaluate(batch)?;
            union.extend(batch.iter_selected());
        }
        union.sort_unstable();
        union.dedup();
        batch.size = union.len();
        batch.selected_in_use = base_in_use || union.len() < base_selected.len();
        batch.selected[..union.len()].copy_from_slice(&union);
        // Once we rewrite `selected`, it must be honoured.
        batch.selected_in_use = true;
        Ok(())
    }

    /// Every branch runs against the selection the disjunction was given, so
    /// all of them — `needs` is `inputs` — must be filled for it beforehand.
    fn inputs(&self) -> Vec<usize> {
        union_of_inputs(&self.children)
    }

    fn name(&self) -> String {
        format!(
            "FilterOr[{}]",
            self.children
                .iter()
                .map(|c| c.name())
                .collect::<Vec<_>>()
                .join(", ")
        )
    }
}

/// Keep rows where a boolean (long 0/1) column is true — bridges
/// boolean-producing expressions into filter position.
pub struct FilterBoolColumn {
    pub column: usize,
}

impl VectorExpression for FilterBoolColumn {
    fn evaluate(&self, batch: &mut VectorizedRowBatch) -> Result<()> {
        FilterColScalar::<i64, NotEqual>::new(self.column, 0).evaluate(batch)
    }

    fn inputs(&self) -> Vec<usize> {
        vec![self.column]
    }

    fn name(&self) -> String {
        format!("FilterBoolColumn({})", self.column)
    }
}

/// Keep rows where the column is (not) null.
pub struct FilterIsNull {
    pub column: usize,
    pub negated: bool,
}

impl VectorExpression for FilterIsNull {
    fn evaluate(&self, batch: &mut VectorizedRowBatch) -> Result<()> {
        if batch.size == 0 {
            return Ok(());
        }
        let VectorizedRowBatch {
            selected,
            selected_in_use,
            columns,
            size,
            ..
        } = batch;
        let col = &columns[self.column];
        let negated = self.negated;
        retain(selected, selected_in_use, size, |i| {
            col.is_null(i) != negated
        });
        Ok(())
    }

    fn inputs(&self) -> Vec<usize> {
        vec![self.column]
    }

    fn name(&self) -> String {
        format!(
            "Filter{}Null({})",
            if self.negated { "IsNot" } else { "Is" },
            self.column
        )
    }
}

#[cfg(test)]
mod tests {
    use crate::expressions::testutil::{batch_with, selected_of};
    use crate::expressions::Operand::*;
    use crate::expressions::{filter_between, filter_compare, filter_is_null, filter_or, CmpOp};

    #[test]
    fn less_scalar_narrows_selection() {
        let mut b = batch_with(&[5, 1, 9, 3, 7], &[]);
        filter_compare(CmpOp::Less, LongCol(0), LongScalar(6))
            .unwrap()
            .evaluate(&mut b)
            .unwrap();
        assert!(b.selected_in_use);
        assert_eq!(selected_of(&b), vec![0, 1, 3]);
    }

    #[test]
    fn filters_compose_as_conjunction() {
        let mut b = batch_with(&[5, 1, 9, 3, 7], &[]);
        filter_compare(CmpOp::Greater, LongCol(0), LongScalar(2))
            .unwrap()
            .evaluate(&mut b)
            .unwrap();
        filter_compare(CmpOp::Less, LongCol(0), LongScalar(8))
            .unwrap()
            .evaluate(&mut b)
            .unwrap();
        assert_eq!(selected_of(&b), vec![0, 3, 4]);
    }

    #[test]
    fn between_matches_paper_ssdb_predicate() {
        // WHERE x BETWEEN 0 AND var
        let mut b = batch_with(&[-5, 0, 3750, 3751, 10_000], &[]);
        filter_between(LongCol(0), LongScalar(0), LongScalar(3750))
            .unwrap()
            .evaluate(&mut b)
            .unwrap();
        assert_eq!(selected_of(&b), vec![1, 2]);
    }

    #[test]
    fn nulls_fail_predicates() {
        let mut b = batch_with(&[1, 2, 3], &[]);
        {
            let c = b.columns[0].as_long_mut().unwrap();
            c.no_nulls = false;
            c.null[1] = true;
        }
        filter_compare(CmpOp::Greater, LongCol(0), LongScalar(0))
            .unwrap()
            .evaluate(&mut b)
            .unwrap();
        assert_eq!(selected_of(&b), vec![0, 2]);
    }

    #[test]
    fn repeating_all_or_nothing() {
        let mut b = batch_with(&[5, 0, 0], &[]);
        b.columns[0].as_long_mut().unwrap().is_repeating = true;
        filter_compare(CmpOp::Greater, LongCol(0), LongScalar(4))
            .unwrap()
            .evaluate(&mut b)
            .unwrap();
        assert_eq!(b.size, 3, "repeating pass keeps everything");
        filter_compare(CmpOp::Greater, LongCol(0), LongScalar(10))
            .unwrap()
            .evaluate(&mut b)
            .unwrap();
        assert_eq!(b.size, 0, "repeating fail clears the batch");
    }

    #[test]
    fn or_unions_branches() {
        let mut b = batch_with(&[1, 5, 9, 13], &[]);
        filter_or(vec![
            filter_compare(CmpOp::Less, LongCol(0), LongScalar(4)).unwrap(),
            filter_compare(CmpOp::Greater, LongCol(0), LongScalar(10)).unwrap(),
        ])
        .evaluate(&mut b)
        .unwrap();
        assert_eq!(selected_of(&b), vec![0, 3]);
    }

    #[test]
    fn or_after_existing_selection() {
        let mut b = batch_with(&[1, 5, 9, 13], &[]);
        filter_compare(CmpOp::Greater, LongCol(0), LongScalar(2))
            .unwrap()
            .evaluate(&mut b)
            .unwrap(); // rows 1,2,3
        filter_or(vec![
            filter_compare(CmpOp::Less, LongCol(0), LongScalar(6)).unwrap(),
            filter_compare(CmpOp::Greater, LongCol(0), LongScalar(12)).unwrap(),
        ])
        .evaluate(&mut b)
        .unwrap();
        assert_eq!(selected_of(&b), vec![1, 3]);
    }

    #[test]
    fn bytes_filters() {
        let mut b = batch_with(&[0; 3], &[]);
        let c = b.add_scratch(&hive_common::DataType::String).unwrap();
        {
            let col = b.columns[c].as_bytes_mut().unwrap();
            col.set(0, b"apple");
            col.set(1, b"banana");
            col.set(2, b"cherry");
        }
        b.size = 3;
        filter_compare(
            CmpOp::LessEqual,
            BytesCol(c),
            BytesScalar(b"banana".to_vec()),
        )
        .unwrap()
        .evaluate(&mut b)
        .unwrap();
        assert_eq!(selected_of(&b), vec![0, 1]);
    }

    /// A bytes column over `dictionary` holding its entries `ids`, row `null`
    /// NULL.
    fn dictionary_batch(
        dictionary: &std::sync::Arc<crate::batch::Dictionary>,
        ids: &[u32],
        null: Option<usize>,
    ) -> crate::batch::VectorizedRowBatch {
        let types = [hive_common::DataType::String];
        let mut b = crate::batch::VectorizedRowBatch::new(&types, ids.len()).unwrap();
        b.size = ids.len();
        let col = b.columns[0].as_bytes_mut().unwrap();
        col.refer_to_dictionary(std::sync::Arc::clone(dictionary));
        for (i, &e) in ids.iter().enumerate() {
            col.ids[i] = e;
            (col.start[i], col.length[i]) = dictionary.span(e as usize);
        }
        if let Some(i) = null {
            (col.null[i], col.no_nulls) = (true, false);
        }
        b
    }

    #[test]
    fn dictionary_entries_are_decided_once_and_per_dictionary() {
        use crate::batch::Dictionary;
        use std::sync::Arc;
        let dictionary = |words: &[&str]| {
            let blob: Vec<u8> = words.concat().into_bytes();
            let mut bounds = vec![0u32];
            bounds.extend(words.iter().scan(0, |at, w| {
                *at += w.len() as u32;
                Some(*at)
            }));
            Arc::new(Dictionary::new(Arc::new(blob), bounds).unwrap())
        };
        let fruit = dictionary(&["apple", "banana", "cherry"]);
        let f = filter_compare(
            CmpOp::LessEqual,
            BytesCol(0),
            BytesScalar(b"banana".to_vec()),
        )
        .unwrap();
        let mut b = dictionary_batch(&fruit, &[2, 0, 1, 1, 2, 0], Some(3));
        f.evaluate(&mut b).unwrap();
        assert_eq!(selected_of(&b), vec![1, 2, 5], "NULL fails");
        // A second batch over the same dictionary, already filtered.
        let mut b = dictionary_batch(&fruit, &[1, 2, 0, 0], None);
        b.unselect_rows(&[2]);
        f.evaluate(&mut b).unwrap();
        assert_eq!(selected_of(&b), vec![0, 3]);
        // The next stripe's dictionary orders its entries differently: what
        // was learnt about entry 0 of the last one must not be used.
        let veg = dictionary(&["carrot", "avocado"]);
        let mut b = dictionary_batch(&veg, &[0, 1, 0], None);
        f.evaluate(&mut b).unwrap();
        assert_eq!(selected_of(&b), vec![1]);
        // A vector without a dictionary takes the per-row path.
        let mut b = dictionary_batch(&veg, &[0, 1, 0], None);
        b.columns[0].as_bytes_mut().unwrap().reset();
        for (i, w) in [&b"b"[..], b"c", b"a"].into_iter().enumerate() {
            b.columns[0].as_bytes_mut().unwrap().set(i, w);
        }
        f.evaluate(&mut b).unwrap();
        assert_eq!(selected_of(&b), vec![0, 2]);
    }

    #[test]
    fn conjunction_reports_its_first_step_and_disjunction_every_input() {
        use crate::expressions::{cast, filter_and, Lane};
        let leaf = |c| filter_compare(CmpOp::Less, LongCol(c), LongScalar(5)).unwrap();
        let and = filter_and(vec![leaf(3), leaf(1), leaf(3)]);
        assert_eq!((and.needs(), and.inputs()), (vec![3], vec![1, 3]));
        let or = filter_or(vec![filter_and(vec![leaf(2), leaf(0)]), leaf(4)]);
        assert_eq!(or.needs(), vec![0, 2, 4], "every branch sees the same rows");
        let nested = filter_and(vec![filter_and(vec![leaf(6), leaf(7)]), or]);
        assert_eq!(nested.needs(), vec![6]);
        // A scratch-producing step in front: what *it* reads comes first.
        let widened = filter_and(vec![
            cast(LongCol(0), Lane::Double, 2).unwrap(),
            filter_compare(CmpOp::Less, DoubleCol(2), DoubleCol(1)).unwrap(),
        ]);
        assert_eq!(
            (widened.needs(), widened.inputs()),
            (vec![0], vec![0, 1, 2])
        );
    }

    #[test]
    fn col_col_filter() {
        let mut b = batch_with(&[1, 5, 3], &[]);
        let c2 = b.add_scratch(&hive_common::DataType::Int).unwrap();
        b.columns[c2].as_long_mut().unwrap().vector[..3].copy_from_slice(&[2, 2, 2]);
        filter_compare(CmpOp::Less, LongCol(0), LongCol(c2))
            .unwrap()
            .evaluate(&mut b)
            .unwrap();
        assert_eq!(selected_of(&b), vec![0]);
    }

    #[test]
    fn is_null_filters() {
        let mut b = batch_with(&[1, 2, 3], &[]);
        {
            let c = b.columns[0].as_long_mut().unwrap();
            c.no_nulls = false;
            c.null[1] = true;
        }
        let mut b2 = b.clone();
        filter_is_null(0, false).evaluate(&mut b).unwrap();
        assert_eq!(selected_of(&b), vec![1]);
        filter_is_null(0, true).evaluate(&mut b2).unwrap();
        assert_eq!(selected_of(&b2), vec![0, 2]);
    }
}
