//! Exec-graph nodes for batch-native execution.
//!
//! Vectorized operators from `hive-vector` run as ordinary nodes of the
//! push-based operator graph, wrapped in [`VectorOpAdapter`], which handles
//! `Arc` sharing (copy-on-write on mutation) and batch counting. A
//! vectorized map stage runs batch-native from its scan (or intermediate) to
//! its sink, and ends in one of three sinks, each of which hands batches to
//! the task: no row comes into existence between two vector stages.
//!
//! * [`VectorFileSinkOperator`] — a map-only (or reduce) stage's output: a
//!   batch and its output columns.
//! * [`VectorReduceSinkOperator`] — a batch and its shuffle key and value
//!   columns; the task encodes each selected row's record from them.
//! * [`VectorGroupBySinkOperator`] — the fused map-side partial
//!   aggregation + reduce sink: batches stream into a typed vectorized
//!   hash aggregator, whose groups leave at close as batches, through the
//!   same path as a reduce sink's.
//!
//! A vectorized reduce stage runs from the driver's batches through the
//! shared Demux / Mux, [`VectorJoinOperator`] and [`VectorGroupByOperator`]
//! (which answer a window of key groups per `EndGroup`) and the same
//! adapters, to a `VectorFileSinkOperator`.

use crate::expr::ExprNode;
use crate::graph::{Emit, Message, Operator, ShuffleBatch};
use crate::operators::JoinType;
use hive_common::{DataType, HiveError, Result, Row};
use hive_vector::aggregates::{VectorHashAggregator, VectorStreamAggregator};
use hive_vector::row_convert::get_value;
use hive_vector::{VectorExpression, VectorOperator, VectorizedRowBatch, DEFAULT_BATCH_SIZE};
use std::sync::Arc;

fn wiring_bug(op: &str, got: &str) -> HiveError {
    HiveError::Execution(format!(
        "{op} received a {got} message; this is a planner wiring bug"
    ))
}

/// Runs one [`VectorOperator`] as a graph node.
pub struct VectorOpAdapter {
    inner: Box<dyn VectorOperator>,
    batches: u64,
}

impl VectorOpAdapter {
    pub fn new(inner: Box<dyn VectorOperator>) -> VectorOpAdapter {
        VectorOpAdapter { inner, batches: 0 }
    }
}

impl Operator for VectorOpAdapter {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn receive(&mut self, msg: Message) -> Result<Vec<Emit>> {
        match msg {
            Message::Batch { batch, tag } => {
                self.batches += 1;
                let mut shared = batch;
                let mut emits = Vec::new();
                // Copy-on-write: `make_mut` clones the columns only when the
                // batch is actually shared (broadcast fan-out); the common
                // linear-chain case mutates in place.
                let flows = {
                    let b = Arc::make_mut(&mut shared);
                    let mut out = |fresh: VectorizedRowBatch| {
                        emits.push(Emit::Forward {
                            child_slot: 0,
                            msg: Message::Batch {
                                batch: Arc::new(fresh),
                                tag,
                            },
                        });
                    };
                    self.inner.process(b, &mut out)?
                };
                emits.push(if flows && shared.size > 0 {
                    Emit::Forward {
                        child_slot: 0,
                        msg: Message::Batch { batch: shared, tag },
                    }
                } else {
                    Emit::Spent(shared)
                });
                Ok(emits)
            }
            Message::Row { .. } => Err(wiring_bug(&self.name(), "row")),
            signal => Ok(vec![Emit::Broadcast(signal)]),
        }
    }

    fn close(&mut self) -> Result<Vec<Emit>> {
        let mut emits = Vec::new();
        let mut out = |fresh: VectorizedRowBatch| {
            emits.push(Emit::Forward {
                child_slot: 0,
                msg: Message::Batch {
                    batch: Arc::new(fresh),
                    tag: 0,
                },
            });
        };
        self.inner.close(&mut out)?;
        Ok(emits)
    }

    fn profile_detail(&self) -> Vec<(String, u64)> {
        let mut d = vec![("batches".to_string(), self.batches)];
        d.extend(self.inner.profile_detail());
        d
    }
}

/// The output sink of a map-only or reduce vectorized stage (FileSink, or
/// the intermediate a downstream job re-reads): the batch leaves the task
/// with its output columns, each selected row an output row. The task makes
/// rows of it only for a collected output; an intermediate's SequenceFile
/// records are encoded from the columns.
pub struct VectorFileSinkOperator {
    /// Batch column index + logical type of each output column.
    output_columns: Arc<[(usize, DataType)]>,
    batches: u64,
}

impl VectorFileSinkOperator {
    pub fn new(output_columns: Vec<(usize, DataType)>) -> VectorFileSinkOperator {
        VectorFileSinkOperator {
            output_columns: output_columns.into(),
            batches: 0,
        }
    }
}

impl Operator for VectorFileSinkOperator {
    fn name(&self) -> String {
        "VectorFileSink".into()
    }

    fn receive(&mut self, msg: Message) -> Result<Vec<Emit>> {
        match msg {
            Message::Batch { batch, .. } => {
                self.batches += 1;
                let columns = Arc::clone(&self.output_columns);
                Ok(vec![Emit::OutputBatch { batch, columns }])
            }
            Message::Row { .. } => Err(wiring_bug("VectorFileSink", "row")),
            _ => Ok(vec![]),
        }
    }

    fn profile_detail(&self) -> Vec<(String, u64)> {
        vec![("batches".to_string(), self.batches)]
    }
}

/// The shuffle's key and value columns of a sink's batches, and its tag.
struct ShuffleColumns {
    keys: Arc<[(usize, DataType)]>,
    values: Arc<[(usize, DataType)]>,
    tag: usize,
}

impl ShuffleColumns {
    fn emit(&self, batch: Arc<VectorizedRowBatch>) -> Emit {
        Emit::ShuffleBatch(ShuffleBatch {
            batch,
            keys: Arc::clone(&self.keys),
            values: Arc::clone(&self.values),
            tag: self.tag,
        })
    }
}

/// Batch-native reduce sink: evaluates the key and value columns, then hands
/// the batch to the task, which encodes each selected row's record from
/// them (DESIGN.md §20 "The lane encoders").
pub struct VectorReduceSinkOperator {
    /// Scratch-column expressions run per batch before the batch leaves.
    expressions: Vec<Box<dyn VectorExpression>>,
    shuffle: ShuffleColumns,
    batches: u64,
}

impl VectorReduceSinkOperator {
    pub fn new(
        expressions: Vec<Box<dyn VectorExpression>>,
        key_columns: Vec<(usize, DataType)>,
        value_columns: Vec<(usize, DataType)>,
        tag: usize,
    ) -> VectorReduceSinkOperator {
        VectorReduceSinkOperator {
            expressions,
            shuffle: ShuffleColumns {
                keys: key_columns.into(),
                values: value_columns.into(),
                tag,
            },
            batches: 0,
        }
    }
}

impl Operator for VectorReduceSinkOperator {
    fn name(&self) -> String {
        format!("VectorReduceSink(tag {})", self.shuffle.tag)
    }

    fn receive(&mut self, msg: Message) -> Result<Vec<Emit>> {
        match msg {
            Message::Batch { mut batch, tag: _ } => {
                self.batches += 1;
                if !self.expressions.is_empty() {
                    let b = Arc::make_mut(&mut batch);
                    self.expressions.iter().try_for_each(|e| e.evaluate(b))?;
                }
                Ok(vec![self.shuffle.emit(batch)])
            }
            Message::Row { .. } => Err(wiring_bug(&self.name(), "row")),
            // Group signals never cross the shuffle boundary.
            _ => Ok(vec![]),
        }
    }

    fn profile_detail(&self) -> Vec<(String, u64)> {
        vec![("batches".to_string(), self.batches)]
    }
}

/// Fused map-side partial group-by + reduce sink: the batch chain ends in a
/// typed vectorized hash aggregation. At close its groups leave as batches
/// of keys ++ partial aggregates (then the scratch columns the shuffle's key
/// and value expressions fill), through the same path as a reduce sink's.
/// A map task whose groups are final (it owns its keys' every row) forwards
/// them to its child instead ([`forwarding`](Self::forwarding)).
pub struct VectorGroupBySinkOperator {
    /// Scratch-column expressions run per batch (group keys + agg inputs).
    expressions: Vec<Box<dyn VectorExpression>>,
    aggregator: VectorHashAggregator,
    /// Scratch-column expressions run per result batch, and the scratch
    /// columns' types: the shuffle's keys and values over the result.
    finish_expressions: Vec<Box<dyn VectorExpression>>,
    scratch: Vec<DataType>,
    /// Where the groups go: the shuffle, or (`None`) the child.
    shuffle: Option<ShuffleColumns>,
    batches: u64,
    rows_seen: u64,
    groups_out: u64,
}

impl VectorGroupBySinkOperator {
    /// `finish_expressions` fill the `scratch` columns that follow the
    /// aggregator's result columns; `key_columns` and `value_columns` are
    /// the shuffle's, over the two.
    pub fn new(
        expressions: Vec<Box<dyn VectorExpression>>,
        aggregator: VectorHashAggregator,
        finish_expressions: Vec<Box<dyn VectorExpression>>,
        scratch: Vec<DataType>,
        key_columns: Vec<(usize, DataType)>,
        value_columns: Vec<(usize, DataType)>,
        tag: usize,
    ) -> VectorGroupBySinkOperator {
        VectorGroupBySinkOperator {
            expressions,
            aggregator,
            finish_expressions,
            scratch,
            shuffle: Some(ShuffleColumns {
                keys: key_columns.into(),
                values: value_columns.into(),
                tag,
            }),
            batches: 0,
            rows_seen: 0,
            groups_out: 0,
        }
    }

    /// A map-final hash GROUP BY: its groups leave at close as batches for
    /// its child, with the `scratch` columns the child's stage fills.
    pub fn forwarding(
        expressions: Vec<Box<dyn VectorExpression>>,
        aggregator: VectorHashAggregator,
        scratch: Vec<DataType>,
    ) -> VectorGroupBySinkOperator {
        VectorGroupBySinkOperator {
            shuffle: None,
            ..VectorGroupBySinkOperator::new(
                expressions,
                aggregator,
                vec![],
                scratch,
                vec![],
                vec![],
                0,
            )
        }
    }
}

impl Operator for VectorGroupBySinkOperator {
    fn name(&self) -> String {
        match &self.shuffle {
            Some(shuffle) => format!("VectorGroupBySink(tag {})", shuffle.tag),
            None => "VectorGroupBy(hash)".into(),
        }
    }

    fn receive(&mut self, msg: Message) -> Result<Vec<Emit>> {
        match msg {
            Message::Batch { batch, tag: _ } => {
                self.batches += 1;
                let mut shared = batch;
                let b = Arc::make_mut(&mut shared);
                for e in &self.expressions {
                    e.evaluate(b)?;
                }
                self.rows_seen += b.size as u64;
                self.aggregator.process(b)?;
                Ok(vec![Emit::Spent(shared)])
            }
            Message::Row { .. } => Err(wiring_bug(&self.name(), "row")),
            _ => Ok(vec![]),
        }
    }

    fn close(&mut self) -> Result<Vec<Emit>> {
        // Match the row-mode hash GroupBy: no input rows → no partials (the
        // hash table never grew an entry).
        if self.rows_seen == 0 {
            return Ok(vec![]);
        }
        let agg = std::mem::replace(
            &mut self.aggregator,
            VectorHashAggregator::new(vec![], vec![]),
        );
        let mut emits = Vec::new();
        for mut batch in agg.finish(DEFAULT_BATCH_SIZE)? {
            for t in &self.scratch {
                batch.add_scratch(t)?;
            }
            for e in &self.finish_expressions {
                e.evaluate(&mut batch)?;
            }
            self.groups_out += batch.size as u64;
            let batch = Arc::new(batch);
            emits.extend(match &self.shuffle {
                Some(shuffle) => Some(shuffle.emit(batch)),
                None => forward_batch(Some(batch)),
            });
        }
        Ok(emits)
    }

    fn profile_detail(&self) -> Vec<(String, u64)> {
        vec![
            ("batches".to_string(), self.batches),
            ("groups".to_string(), self.groups_out),
        ]
    }
}

/// Reduce-side streaming GROUP BY on batches: each window's groups leave as
/// one batch, keys then aggregates, when its EndGroup arrives (DESIGN.md §16
/// "The reduce side").
pub struct VectorGroupByOperator {
    /// Scratch-column expressions run per batch (group keys + agg inputs).
    expressions: Vec<Box<dyn VectorExpression>>,
    aggregator: VectorStreamAggregator,
    batches: u64,
}

impl VectorGroupByOperator {
    pub fn new(
        expressions: Vec<Box<dyn VectorExpression>>,
        aggregator: VectorStreamAggregator,
    ) -> VectorGroupByOperator {
        VectorGroupByOperator {
            expressions,
            aggregator,
            batches: 0,
        }
    }
}

/// A batch for the operator's only child, unless it has no row.
fn forward_batch(batch: Option<Arc<VectorizedRowBatch>>) -> Option<Emit> {
    let batch = batch.filter(|b| b.size > 0)?;
    let msg = Message::Batch { batch, tag: 0 };
    Some(Emit::Forward { child_slot: 0, msg })
}

impl Operator for VectorGroupByOperator {
    fn name(&self) -> String {
        "VectorGroupBy(streaming)".into()
    }

    fn receive(&mut self, msg: Message) -> Result<Vec<Emit>> {
        match msg {
            Message::Batch { mut batch, .. } => {
                self.batches += 1;
                if !self.expressions.is_empty() {
                    let b = Arc::make_mut(&mut batch);
                    self.expressions.iter().try_for_each(|e| e.evaluate(b))?;
                }
                self.aggregator.process(&batch)?;
                Ok(vec![])
            }
            Message::Row { .. } => Err(wiring_bug(&self.name(), "row")),
            Message::EndGroup => {
                let out = forward_batch(self.aggregator.finish()?);
                Ok(out
                    .into_iter()
                    .chain([Emit::Broadcast(Message::EndGroup)])
                    .collect())
            }
        }
    }

    fn close(&mut self) -> Result<Vec<Emit>> {
        Ok(forward_batch(self.aggregator.close()?)
            .into_iter()
            .collect())
    }

    fn profile_detail(&self) -> Vec<(String, u64)> {
        vec![("batches".to_string(), self.batches)]
    }
}

/// One output row of a join: the (buffered batch, row) each input gives it,
/// `None` where the input is NULL-padded.
type Pick = [Option<(usize, usize)>; 2];

/// Reduce-side binary join on batches: buffers each input's batches for
/// the window and, at its EndGroup, walks the groups by ordinal, writing each
/// group's joined rows into output batches by `CommonJoinOperator`'s rule
/// and in its order: a row whose key has a NULL pairs with nothing, a pair
/// joins if it passes the residual, and an outer join pads each preserved
/// row no pair of it passed.
pub struct VectorJoinOperator {
    join_type: JoinType,
    nk: usize,
    /// Per input: the batch columns of its row, in order.
    inputs: [Vec<usize>; 2],
    /// An outer join's ON conjuncts beyond the keys, over the joined row.
    residual: Option<ExprNode>,
    out_types: Vec<DataType>,
    buffers: [Vec<Arc<VectorizedRowBatch>>; 2],
    /// Per input: the group at hand's rows, as (buffered batch, row), and
    /// whether each can match (its key has no NULL).
    rows: [Vec<((usize, usize), bool)>; 2],
    /// Per right row of the group at hand: whether a pair of it joined.
    right_hit: Vec<bool>,
    /// The pair the residual is tested on, reused from pair to pair.
    pair: Row,
    /// The output batch being assembled: its rows' picks and ordinals.
    picks: Vec<Pick>,
    ordinals: Vec<u32>,
    batches: u64,
}

impl VectorJoinOperator {
    /// `inputs`: per input tag, the batch column of each of its row's
    /// columns; `out_types`: the joined row's columns, then scratch.
    pub fn new(
        join_type: JoinType,
        nk: usize,
        inputs: [Vec<usize>; 2],
        residual: Option<ExprNode>,
        out_types: Vec<DataType>,
    ) -> VectorJoinOperator {
        VectorJoinOperator {
            join_type,
            nk,
            inputs,
            residual,
            out_types,
            buffers: Default::default(),
            rows: Default::default(),
            right_hit: Vec::new(),
            pair: Row::default(),
            picks: Vec::new(),
            ordinals: Vec::new(),
            batches: 0,
        }
    }

    /// Input `t`'s row at `cursor` (buffered batch, position in its
    /// selection), as (batch, physical row).
    fn at(&self, t: usize, (b, p): (usize, usize)) -> Option<(usize, usize)> {
        let batch = self.buffers[t].get(b)?;
        let row = if batch.selected_in_use {
            batch.selected[p]
        } else {
            p
        };
        Some((b, row))
    }

    fn ordinal(&self, t: usize, (b, i): (usize, usize)) -> u32 {
        self.buffers[t][b].ordinals[i]
    }

    /// Every group of the window, in ordinal order.
    fn join_window(&mut self, emits: &mut Vec<Emit>) -> Result<()> {
        let mut cursors = [(0, 0); 2];
        loop {
            let heads = (0..2).filter_map(|t| Some(self.ordinal(t, self.at(t, cursors[t])?)));
            let Some(group) = heads.min() else {
                return self.flush(emits);
            };
            for (t, cursor) in cursors.iter_mut().enumerate() {
                self.take_group(t, cursor, group);
            }
            self.join_group(group, emits)?;
        }
    }

    /// Input `t`'s rows of `group` into `rows[t]`, from `cursor` on.
    fn take_group(&mut self, t: usize, cursor: &mut (usize, usize), group: u32) {
        self.rows[t].clear();
        while let Some(at) = self
            .at(t, *cursor)
            .filter(|&at| self.ordinal(t, at) == group)
        {
            self.rows[t].push((at, self.matchable(t, at)));
            let (b, p) = *cursor;
            *cursor = match p + 1 == self.buffers[t][b].size {
                true => (b + 1, 0),
                false => (b, p + 1),
            };
        }
    }

    /// Whether input `t`'s row can match: its key has no NULL.
    fn matchable(&self, t: usize, (b, i): (usize, usize)) -> bool {
        let batch = &self.buffers[t][b];
        let keys = &self.inputs[t][..self.nk];
        !keys.iter().any(|&c| batch.columns[c].is_null(i))
    }

    /// Whether the pair of left row `a` and right row `b` passes the
    /// residual, evaluated on the pair's values.
    fn passes(&mut self, a: (usize, usize), b: (usize, usize)) -> Result<bool> {
        let Some(residual) = &self.residual else {
            return Ok(true);
        };
        let values = self.pair.values_mut();
        values.clear();
        let mut types = self.out_types.iter();
        for (t, (batch, i)) in [(0, a), (1, b)] {
            let batch = &self.buffers[t][batch];
            for (&c, dt) in self.inputs[t].iter().zip(&mut types) {
                values.push(get_value(&batch.columns[c], i, dt));
            }
        }
        residual.eval_predicate(&self.pair)
    }

    /// One group's joined rows, as `CommonJoinOperator` orders them: the
    /// pairs that pass with input 0 outermost, a preserved left row no pair
    /// of it passed right after its pairs, then the right rows no pair
    /// passed.
    fn join_group(&mut self, group: u32, emits: &mut Vec<Emit>) -> Result<()> {
        use JoinType::*;
        self.right_hit.clear();
        self.right_hit.resize(self.rows[1].len(), false);
        for k in 0..self.rows[0].len() {
            let (a, a_can) = self.rows[0][k];
            let mut hit = false;
            for j in 0..self.rows[1].len() {
                let (b, b_can) = self.rows[1][j];
                if a_can && b_can && self.passes(a, b)? {
                    (hit, self.right_hit[j]) = (true, true);
                    self.push_row([Some(a), Some(b)], group, emits)?;
                }
            }
            if !hit && matches!(self.join_type, LeftOuter | FullOuter) {
                self.push_row([Some(a), None], group, emits)?;
            }
        }
        if matches!(self.join_type, RightOuter | FullOuter) {
            for j in 0..self.rows[1].len() {
                if !self.right_hit[j] {
                    self.push_row([None, Some(self.rows[1][j].0)], group, emits)?;
                }
            }
        }
        Ok(())
    }

    /// One output row of `group`; a full batch leaves.
    fn push_row(&mut self, pick: Pick, group: u32, emits: &mut Vec<Emit>) -> Result<()> {
        self.picks.push(pick);
        self.ordinals.push(group);
        if self.ordinals.len() == DEFAULT_BATCH_SIZE {
            self.flush(emits)?;
        }
        Ok(())
    }

    /// The picked rows as one output batch.
    fn flush(&mut self, emits: &mut Vec<Emit>) -> Result<()> {
        if self.ordinals.is_empty() {
            return Ok(());
        }
        let mut out = VectorizedRowBatch::with_ordinals(&self.out_types, DEFAULT_BATCH_SIZE)?;
        let mut column = 0;
        for (t, cols) in self.inputs.iter().enumerate() {
            for &c in cols {
                let dst = &mut out.columns[column];
                for (j, pick) in self.picks.iter().enumerate() {
                    match pick[t] {
                        Some((b, i)) => dst.copy_cell(j, &self.buffers[t][b].columns[c], i)?,
                        None => dst.set_null(j),
                    }
                }
                column += 1;
            }
        }
        self.picks.clear();
        out.size = self.ordinals.len();
        out.ordinals[..out.size].copy_from_slice(&self.ordinals);
        self.ordinals.clear();
        emits.extend(forward_batch(Some(Arc::new(out))));
        Ok(())
    }
}

impl Operator for VectorJoinOperator {
    fn name(&self) -> String {
        format!("VectorJoin({:?}, 2 way)", self.join_type)
    }

    fn receive(&mut self, msg: Message) -> Result<Vec<Emit>> {
        match msg {
            Message::Batch { batch, tag } => {
                self.batches += 1;
                let buffer = self.buffers.get_mut(tag).ok_or_else(|| {
                    HiveError::Execution(format!("join received tag {tag}, expected < 2"))
                })?;
                if batch.size > 0 {
                    buffer.push(batch);
                }
                Ok(vec![])
            }
            Message::Row { .. } => Err(wiring_bug(&self.name(), "row")),
            Message::EndGroup => {
                let mut emits = Vec::new();
                self.join_window(&mut emits)?;
                self.buffers.iter_mut().for_each(Vec::clear);
                emits.push(Emit::Broadcast(Message::EndGroup));
                Ok(emits)
            }
        }
    }

    fn profile_detail(&self) -> Vec<(String, u64)> {
        vec![("batches".to_string(), self.batches)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{Collected, OperatorGraph, TaskOutput};
    use hive_common::{Row, Value};
    use hive_vector::aggregates::{AggKind, AggSpec};
    use hive_vector::row_convert::rows_to_batch;
    use hive_vector::VectorFilterOperator;

    fn int_batch(vals: &[i64]) -> VectorizedRowBatch {
        let rows: Vec<Row> = vals
            .iter()
            .map(|&v| Row::new(vec![Value::Int(v)]))
            .collect();
        let mut b = VectorizedRowBatch::new(&[DataType::Int], vals.len().max(1)).unwrap();
        rows_to_batch(&rows, &mut b).unwrap();
        b
    }

    #[test]
    fn adapter_filter_then_file_sink_counts_logical_rows() {
        use hive_vector::expressions::{filter_compare, CmpOp, Operand};

        let mut g = OperatorGraph::new();
        let f = g.add(Box::new(VectorOpAdapter::new(Box::new(
            VectorFilterOperator::new(
                filter_compare(CmpOp::Greater, Operand::LongCol(0), Operand::LongScalar(2))
                    .unwrap(),
            ),
        ))));
        let s = g.add(Box::new(VectorFileSinkOperator::new(vec![(
            0,
            DataType::Int,
        )])));
        g.connect(f, s, None);

        let mut out = Collected::default();
        g.push(
            f,
            Message::Batch {
                batch: Arc::new(int_batch(&[1, 2, 3, 4, 5])),
                tag: 0,
            },
            &mut out,
        )
        .unwrap();
        g.finish(&mut out).unwrap();

        assert_eq!(
            out.rows,
            vec![
                Row::new(vec![Value::Int(3)]),
                Row::new(vec![Value::Int(4)]),
                Row::new(vec![Value::Int(5)]),
            ]
        );
        // Logical-row accounting: filter 5 in → 3 out; sink 3 in → 3 out.
        assert_eq!(g.rows_in_of(f), 5);
        assert_eq!(g.rows_out_of(f), 3);
        assert_eq!(g.rows_in_of(s), 3);
        assert_eq!(g.rows_out_of(s), 3);
        let profs = g.profiles();
        assert!(profs[0].detail.contains(&("batches".to_string(), 1)));
    }

    #[test]
    fn vector_reduce_sink_hands_its_batch_and_columns_to_the_task() {
        let mut op = VectorReduceSinkOperator::new(vec![], vec![(0, DataType::Int)], vec![], 2);
        let emits = op
            .receive(Message::Batch {
                batch: Arc::new(int_batch(&[7, 8])),
                tag: 0,
            })
            .unwrap();
        match &emits[..] {
            [Emit::ShuffleBatch(rows)] => {
                assert_eq!(rows.batch.size, 2);
                assert_eq!(&rows.keys[..], [(0, DataType::Int)]);
                assert!(rows.values.is_empty());
                assert_eq!(rows.tag, 2);
            }
            other => panic!("expected one shuffle batch, got {other:?}"),
        }
    }

    /// The task sees a reduce sink's rows as the records the row engine's
    /// ReduceSink would make, and logical rows are counted.
    #[test]
    fn vector_reduce_sink_emits_shuffle_records() {
        let mut g = OperatorGraph::new();
        let rs = g.add(Box::new(VectorReduceSinkOperator::new(
            vec![],
            vec![(0, DataType::Int)],
            vec![(0, DataType::Int)],
            1,
        )));
        let mut batch = int_batch(&[7, 8, 9]);
        batch.selected_in_use = true;
        batch.selected[..2].copy_from_slice(&[0, 2]);
        batch.size = 2;
        let mut out = Collected::default();
        let msg = Message::Batch {
            batch: Arc::new(batch),
            tag: 0,
        };
        g.push(rs, msg, &mut out).unwrap();
        let keys: Vec<Vec<Value>> = out.shuffled.iter().map(|r| r.key.clone()).collect();
        assert_eq!(keys, [[Value::Int(7)], [Value::Int(9)]]);
        assert_eq!(out.shuffled[1].value, Row::new(vec![Value::Int(9)]));
        assert_eq!((g.rows_in_of(rs), g.rows_out_of(rs)), (2, 2));
        assert!(
            g.take_spent().is_some(),
            "the batch comes back to be refilled"
        );
    }

    #[test]
    fn group_by_sink_aggregates_and_flushes_partials_at_close() {
        let mut op = VectorGroupBySinkOperator::new(
            vec![],
            VectorHashAggregator::new(
                vec![(0, DataType::Int)],
                vec![AggSpec {
                    kind: AggKind::CountStar,
                    input: None,
                }],
            ),
            vec![],
            vec![],
            vec![(0, DataType::Int)],
            vec![(1, DataType::Int)],
            0,
        );
        let emits = op
            .receive(Message::Batch {
                batch: Arc::new(int_batch(&[1, 2, 1, 1])),
                tag: 0,
            })
            .unwrap();
        assert!(
            matches!(emits[..], [Emit::Spent(_)]),
            "partials only surface at close"
        );
        let mut out = Collected::default();
        for e in op.close().unwrap() {
            let Emit::ShuffleBatch(rows) = e else {
                panic!("expected a shuffle batch, got {e:?}");
            };
            out.shuffle_batch(&rows).unwrap();
        }
        assert_eq!(out.shuffled.len(), 2);
        assert_eq!(out.shuffled[0].key, vec![Value::Int(1)]);
        assert_eq!(out.shuffled[0].value, Row::new(vec![Value::Int(3)]));
        assert!(op.profile_detail().contains(&("groups".to_string(), 2)));
    }

    #[test]
    fn group_by_sink_empty_input_emits_nothing() {
        let mut op = VectorGroupBySinkOperator::new(
            vec![],
            VectorHashAggregator::new(
                vec![],
                vec![AggSpec {
                    kind: AggKind::CountStar,
                    input: None,
                }],
            ),
            vec![],
            vec![],
            vec![],
            vec![(0, DataType::Int)],
            0,
        );
        assert!(op.close().unwrap().is_empty());
    }

    #[test]
    fn rows_reaching_vector_operators_are_wiring_bugs() {
        let row = Message::Row {
            row: Row::new(vec![]),
            tag: 0,
        };
        let mut sink = VectorFileSinkOperator::new(vec![]);
        assert!(sink.receive(row.clone()).is_err());
        let mut rs = VectorReduceSinkOperator::new(vec![], vec![], vec![], 0);
        assert!(rs.receive(row).is_err());
    }
}
