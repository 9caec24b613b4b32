//! Vectorized operators: the batch-at-a-time stages of the batch-native
//! execution layer (paper Sections 6.1 and 6.4).
//!
//! "In vectorized execution, a whole row batch is processed through the
//! operator tree." Every operator here implements one unified
//! batch-in/batch-out trait: consume a [`VectorizedRowBatch`] — usually
//! narrowing its `selected[]` view or filling scratch columns in place —
//! and optionally emit freshly assembled batches (the map join re-batches
//! its output). No vectorized operator produces rows; a stage's rows come
//! into existence only in its exec-layer sink (shuffle records, or the
//! output rows of `VectorFileSinkOperator`).

use crate::batch::VectorizedRowBatch;
use crate::expressions::VectorExpression;
use hive_common::Result;

/// A vectorized operator. Operators run as nodes of the push-based exec
/// graph (wrapped in an adapter that handles `Arc` sharing and profiling),
/// so the trait is pure batch dataflow.
pub trait VectorOperator: Send {
    fn name(&self) -> String;

    /// Process one batch. Returns `true` when the (possibly mutated) input
    /// batch flows on to this operator's child; re-batching operators (the
    /// map join) consume the input and emit fresh batches through `out`.
    fn process(
        &mut self,
        batch: &mut VectorizedRowBatch,
        out: &mut dyn FnMut(VectorizedRowBatch),
    ) -> Result<bool>;

    /// End of input: flush buffered output as batches.
    fn close(&mut self, _out: &mut dyn FnMut(VectorizedRowBatch)) -> Result<()> {
        Ok(())
    }

    /// Operator-specific profile counters (merged across tasks and shown
    /// next to the graph-level row counters in `EXPLAIN ANALYZE`). Row
    /// in/out and CPU are tracked by the operator graph itself.
    fn profile_detail(&self) -> Vec<(String, u64)> {
        Vec::new()
    }
}

/// Applies a compiled filter expression, shrinking the selection in place.
///
/// This is the one operator that accepts a batch with deferred columns (see
/// [`VectorizedRowBatch`]): as its stage's root it sits right behind the
/// reader. It hands the batch on complete — whatever the predicate did not
/// need is materialized for the survivors, or not at all when none is left.
pub struct VectorFilterOperator {
    predicate: Box<dyn VectorExpression>,
    /// The predicate's `needs()`.
    needs: Vec<usize>,
}

impl VectorFilterOperator {
    pub fn new(predicate: Box<dyn VectorExpression>) -> VectorFilterOperator {
        let needs = predicate.needs();
        VectorFilterOperator { predicate, needs }
    }

    /// The batch columns the predicate's first step reads: what a deferring
    /// reader still has to fill itself.
    pub fn first_columns(&self) -> &[usize] {
        &self.needs
    }
}

impl VectorOperator for VectorFilterOperator {
    fn process(
        &mut self,
        batch: &mut VectorizedRowBatch,
        _out: &mut dyn FnMut(VectorizedRowBatch),
    ) -> Result<bool> {
        batch.materialize(&self.needs);
        self.predicate.evaluate(batch)?;
        batch.materialize_all();
        Ok(true)
    }

    fn name(&self) -> String {
        format!("VectorFilter[{}]", self.predicate.name())
    }
}

/// Evaluates projection expressions into scratch columns; the compiler
/// reads the projection from the columns they fill.
pub struct VectorSelectOperator {
    /// Expressions in topological order (children before parents).
    pub expressions: Vec<Box<dyn VectorExpression>>,
}

impl VectorOperator for VectorSelectOperator {
    fn process(
        &mut self,
        batch: &mut VectorizedRowBatch,
        _out: &mut dyn FnMut(VectorizedRowBatch),
    ) -> Result<bool> {
        for e in &self.expressions {
            e.evaluate(batch)?;
        }
        Ok(true)
    }

    fn name(&self) -> String {
        "VectorSelect".to_string()
    }
}

/// A map-side LIMIT: the task's first `limit` selected rows pass, no more.
pub struct VectorLimitOperator {
    limit: u64,
    seen: u64,
}

impl VectorLimitOperator {
    pub fn new(limit: u64) -> VectorLimitOperator {
        VectorLimitOperator { limit, seen: 0 }
    }
}

impl VectorOperator for VectorLimitOperator {
    fn process(
        &mut self,
        batch: &mut VectorizedRowBatch,
        _out: &mut dyn FnMut(VectorizedRowBatch),
    ) -> Result<bool> {
        // The valid rows are a prefix of `selected` (or of `0..size`).
        let keep = (self.limit - self.seen).min(batch.size as u64);
        batch.size = keep as usize;
        self.seen += keep;
        Ok(true)
    }

    fn name(&self) -> String {
        format!("VectorLimit({})", self.limit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregates::{AggKind, AggSpec, VectorHashAggregator};
    use crate::expressions::testutil::batch_with;
    use crate::expressions::{filter_compare, CmpOp, Operand};
    use hive_common::{DataType, Value};

    #[test]
    fn limit_passes_the_first_selected_rows_across_batches() {
        let mut limit = VectorLimitOperator::new(3);
        let mut b = batch_with(&[1, 2, 3, 4], &[]);
        b.selected_in_use = true;
        b.selected[..2].copy_from_slice(&[1, 3]);
        b.size = 2;
        assert!(limit.process(&mut b, &mut |_| {}).unwrap());
        assert_eq!(b.iter_selected().collect::<Vec<_>>(), [1, 3]);
        let mut b = batch_with(&[5, 6, 7], &[]);
        limit.process(&mut b, &mut |_| {}).unwrap();
        assert_eq!(b.iter_selected().collect::<Vec<_>>(), [0]);
        limit.process(&mut b, &mut |_| {}).unwrap();
        assert_eq!(b.size, 0);
    }

    /// Filter, Select and Limit leave a batch's ordinal lane alone: each
    /// row they pass keeps its group.
    #[test]
    fn the_ordinal_lane_passes_filter_select_and_limit() {
        use crate::expressions::{arith, ArithOp};
        let mut b = batch_with(&[1, 5, 2, 7, 9], &[]);
        b.ordinals = vec![0, 0, 1, 2, 2];
        let scratch = b.add_scratch(&DataType::Int).unwrap();
        let ordinals =
            |b: &VectorizedRowBatch| b.iter_selected().map(|i| b.ordinals[i]).collect::<Vec<_>>();
        let mut filter = VectorFilterOperator::new(
            filter_compare(CmpOp::Greater, Operand::LongCol(0), Operand::LongScalar(1)).unwrap(),
        );
        let double = arith(
            ArithOp::Multiply,
            Operand::LongCol(0),
            Operand::LongScalar(2),
            scratch,
        );
        let mut select = VectorSelectOperator {
            expressions: vec![double.unwrap()],
        };
        let mut limit = VectorLimitOperator::new(3);
        let mut out = |_b: VectorizedRowBatch| panic!("no operator here re-batches");
        filter.process(&mut b, &mut out).unwrap();
        assert_eq!(ordinals(&b), [0, 1, 2, 2]);
        select.process(&mut b, &mut out).unwrap();
        assert_eq!(ordinals(&b), [0, 1, 2, 2]);
        assert_eq!(b.columns[scratch].as_long().unwrap().vector[3], 14);
        limit.process(&mut b, &mut out).unwrap();
        assert_eq!(ordinals(&b), [0, 1, 2]);
        assert_eq!(b.iter_selected().collect::<Vec<_>>(), [1, 2, 3]);
    }

    #[test]
    fn filter_narrows_selection_in_place() {
        let mut op = VectorFilterOperator::new(
            filter_compare(CmpOp::Greater, Operand::LongCol(0), Operand::LongScalar(2)).unwrap(),
        );
        let mut emitted = Vec::new();
        let mut out = |b: VectorizedRowBatch| emitted.push(b);
        let mut b = batch_with(&[1, 2, 3, 4, 5], &[]);
        assert!(op.process(&mut b, &mut out).unwrap());
        assert!(emitted.is_empty(), "in-place operators never re-batch");
        assert_eq!(b.iter_selected().collect::<Vec<_>>(), vec![2, 3, 4]);
    }

    /// Column `c`, row `r` holds `r + 10 * c`; records every fill.
    struct Recording(std::sync::Mutex<Vec<(usize, Vec<usize>)>>);

    impl crate::batch::ColumnSource for Recording {
        fn fill(
            &self,
            first_row: usize,
            column: usize,
            n: usize,
            selected: Option<&[usize]>,
            out: &mut crate::batch::ColumnVector,
        ) {
            let rows: Vec<usize> = selected.map_or((0..n).collect(), <[usize]>::to_vec);
            let v = out.as_long_mut().unwrap();
            rows.iter()
                .for_each(|&i| v.vector[i] = (first_row + i + 10 * column) as i64);
            self.0.lock().unwrap().push((column, rows));
        }
    }

    /// The deferred-column invariant: the root filter materializes each
    /// conjunct's columns for the rows still selected just before evaluating
    /// it, and whatever it hands on has no deferred column left.
    #[test]
    fn filter_materializes_per_conjunct_and_hands_on_a_complete_batch() {
        use crate::expressions::filter_and;
        use std::sync::Arc;
        let less = |c, x| filter_compare(CmpOp::Less, Operand::LongCol(c), Operand::LongScalar(x));
        // c0 < 4 AND c1 < 12 over c0 = r, c1 = r + 10, c2 = r + 20 (unread).
        let mut op =
            VectorFilterOperator::new(filter_and(vec![less(0, 4).unwrap(), less(1, 12).unwrap()]));
        assert_eq!(op.first_columns(), [0]);
        let source = Arc::new(Recording(Default::default()));
        let types = vec![DataType::Int; 3];
        let deferred_batch = |first: &[usize]| {
            let mut b = VectorizedRowBatch::new(&types, 8).unwrap();
            b.size = 6;
            let shared = Arc::clone(&source) as Arc<dyn crate::batch::ColumnSource>;
            b.defer(shared, 0, (0..3).filter(|c| !first.contains(c)));
            b
        };
        let mut out = |_b: VectorizedRowBatch| {};
        // A reader that deferred even the first conjunct's column is served.
        let mut b = deferred_batch(&[]);
        assert!(op.process(&mut b, &mut out).unwrap());
        assert!(!b.has_deferred());
        assert_eq!(b.iter_selected().collect::<Vec<_>>(), [0, 1]);
        assert_eq!(
            *source.0.lock().unwrap(),
            [
                (0, (0..6).collect::<Vec<_>>()),
                (1, vec![0, 1, 2, 3]),
                (2, vec![0, 1])
            ]
        );
        assert_eq!(b.columns[2].as_long().unwrap().vector[..2], [20, 21]);
        // No survivor: the later conjunct's and the unread column stay empty.
        source.0.lock().unwrap().clear();
        let mut none =
            VectorFilterOperator::new(filter_and(vec![less(0, 0).unwrap(), less(1, 12).unwrap()]));
        let mut b = deferred_batch(&[]);
        none.process(&mut b, &mut out).unwrap();
        assert_eq!((b.size, b.has_deferred()), (0, false));
        assert_eq!(
            source.0.lock().unwrap().len(),
            1,
            "only column 0 was filled"
        );
    }

    #[test]
    fn filter_then_aggregate_on_batches() {
        // SELECT SUM(a), COUNT(*) WHERE a > 2 over [1,2,3,4,5] → (12, 3):
        // the narrowed selection feeds the typed hash aggregator directly.
        let mut filter = VectorFilterOperator::new(
            filter_compare(CmpOp::Greater, Operand::LongCol(0), Operand::LongScalar(2)).unwrap(),
        );
        let mut agg = VectorHashAggregator::new(
            vec![],
            vec![
                AggSpec {
                    kind: AggKind::SumLong,
                    input: Some((0, DataType::Int)),
                },
                AggSpec {
                    kind: AggKind::CountStar,
                    input: None,
                },
            ],
        );
        let mut out = |_b: VectorizedRowBatch| {};
        let mut b = batch_with(&[1, 2, 3, 4, 5], &[]);
        filter.process(&mut b, &mut out).unwrap();
        agg.process(&b).unwrap();
        let out = agg.finish(8).unwrap();
        let columns = [(0, DataType::Int), (1, DataType::Int)];
        let rows = crate::row_convert::batch_to_rows(&out[0], &columns);
        assert_eq!((out.len(), rows.len()), (1, 1));
        assert_eq!(rows[0].values(), &[Value::Int(12), Value::Int(3)]);
    }
}
