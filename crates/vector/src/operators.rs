//! Vectorized operators: the batch-at-a-time stages of the batch-native
//! execution layer (paper Sections 6.1 and 6.4).
//!
//! "In vectorized execution, a whole row batch is processed through the
//! operator tree." Every operator here implements one unified
//! batch-in/batch-out trait: consume a [`VectorizedRowBatch`] — usually
//! narrowing its `selected[]` view or filling scratch columns in place —
//! and optionally emit freshly assembled batches (the map join re-batches
//! its output). No vectorized operator produces rows; the only batch→row
//! crossing in the engine is the exec layer's `RowBridgeOperator`.

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
pub struct VectorFilterOperator {
    pub predicate: Box<dyn VectorExpression>,
}

impl VectorOperator for VectorFilterOperator {
    fn process(
        &mut self,
        batch: &mut VectorizedRowBatch,
        _out: &mut dyn FnMut(VectorizedRowBatch),
    ) -> Result<bool> {
        self.predicate.evaluate(batch)?;
        Ok(true)
    }

    fn name(&self) -> String {
        format!("VectorFilter[{}]", self.predicate.name())
    }
}

/// Evaluates projection expressions into scratch columns. The projected
/// output columns (post-evaluation) are recorded in `output_columns`.
pub struct VectorSelectOperator {
    /// Expressions in topological order (children before parents).
    pub expressions: Vec<Box<dyn VectorExpression>>,
    /// Batch column index + logical type of each projected output.
    pub output_columns: Vec<(usize, hive_common::DataType)>,
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregates::{AggKind, AggSpec, VectorHashAggregator};
    use crate::expressions::testutil::batch_with;
    use crate::expressions::{filter_compare, CmpOp, Operand};
    use hive_common::{DataType, Value};

    #[test]
    fn filter_narrows_selection_in_place() {
        let mut op = VectorFilterOperator {
            predicate: filter_compare(CmpOp::Greater, Operand::LongCol(0), Operand::LongScalar(2))
                .unwrap(),
        };
        let mut emitted = Vec::new();
        let mut out = |b: VectorizedRowBatch| emitted.push(b);
        let mut b = batch_with(&[1, 2, 3, 4, 5], &[]);
        assert!(op.process(&mut b, &mut out).unwrap());
        assert!(emitted.is_empty(), "in-place operators never re-batch");
        assert_eq!(b.iter_selected().collect::<Vec<_>>(), vec![2, 3, 4]);
    }

    #[test]
    fn filter_then_aggregate_on_batches() {
        // SELECT SUM(a), COUNT(*) WHERE a > 2 over [1,2,3,4,5] → (12, 3):
        // the narrowed selection feeds the typed hash aggregator directly.
        let mut filter = VectorFilterOperator {
            predicate: filter_compare(CmpOp::Greater, Operand::LongCol(0), Operand::LongScalar(2))
                .unwrap(),
        };
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
        let rows = agg.finish();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].values(), &[Value::Int(12), Value::Int(3)]);
    }
}
