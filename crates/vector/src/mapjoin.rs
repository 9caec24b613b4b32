//! Vectorized Map Join (paper Section 6 meets Section 5.1): the hash table
//! is built once per job from the broadcast small side's batches and shared
//! by every map task; probe batches flow through without row
//! materialization until the join output itself.
//!
//! Build and probe keys go through the key wrapper that resolves GROUP BY
//! keys (`key_wrapper.rs`; the key rule is DESIGN.md "Keys"). A
//! [`MapJoinBuilder`] runs the build filter and key expressions over each
//! side batch and resolves the surviving rows' keys to dense ids; the
//! [`MapJoinTable`] it finishes holds that key table and the stored rows as
//! columns, grouped by key. Each [`VectorMapJoinOperator`] probes the shared
//! table through scratch of its own: a probe batch is one `find` — typed
//! `u64` lanes, no per-row key object, a NULL key part matching nothing, and
//! one lookup for a batch whose key columns all repeat (the benefit
//! run-length-encoded storage hands to execution). This is the one
//! re-batching operator: it consumes probe batches and emits freshly
//! assembled output batches (stream columns ++ build columns), so a join
//! followed by vectorized filters/aggregates never leaves batch mode.

use crate::batch::{ColumnVector, Lane, VectorizedRowBatch};
use crate::expressions::VectorExpression;
use crate::key_wrapper::{KeyProbe, KeyTable, KeyWrapper, MISS};
use crate::operators::VectorOperator;
use hive_common::{DataType, HiveError, Result};
use std::sync::Arc;

/// The join kinds a map join can be (the planner streams the preserved side
/// of a LEFT OUTER join and converts no other outer join).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MapJoinKind {
    Inner,
    LeftOuter,
}

/// The small-side hash table: the build keys resolved to dense ids, and the
/// stored rows — build keys ++ projected build columns, the row engine's
/// layout — as columns in key order. Key `g`'s rows are
/// `starts[g]..starts[g + 1]`, in the order the side was read. Immutable
/// once built: every map task of a job probes the one table.
pub struct MapJoinTable {
    keys: KeyTable,
    columns: Vec<ColumnVector>,
    starts: Vec<usize>,
}

impl MapJoinTable {
    /// The rows stored: the side's rows that passed the build filter with
    /// no NULL key part.
    pub fn build_rows(&self) -> usize {
        self.starts[self.starts.len() - 1]
    }
}

/// Builds a [`MapJoinTable`] from the small side's batches as its reader
/// fills them.
pub struct MapJoinBuilder {
    /// Run over each batch in order: the build filter, then what computes
    /// the key columns.
    expressions: Vec<Box<dyn VectorExpression>>,
    /// Batch column and type of each stored column: the keys, then the
    /// side's own.
    stored: Vec<(usize, DataType)>,
    keys: KeyWrapper,
    /// The batches added, and per kept row, in the order read: its batch,
    /// its row there and its key's id.
    batches: Vec<VectorizedRowBatch>,
    rows: Vec<(usize, usize, u32)>,
}

impl MapJoinBuilder {
    /// `expressions` run over each side batch in order: a filter among them
    /// unselects rows, the others fill scratch columns. `key_columns` are
    /// the batch column and logical type of each build key, `columns` of
    /// each column the table stores after them.
    pub fn new(
        expressions: Vec<Box<dyn VectorExpression>>,
        key_columns: Vec<(usize, DataType)>,
        columns: Vec<(usize, DataType)>,
    ) -> Result<MapJoinBuilder> {
        if let Some((_, dt)) = key_columns.iter().find(|(_, dt)| Lane::of(dt).is_none()) {
            return Err(HiveError::Execution(format!(
                "type {dt} cannot be a map-join key"
            )));
        }
        let stored = key_columns.iter().cloned().chain(columns).collect();
        Ok(MapJoinBuilder {
            expressions,
            stored,
            keys: KeyWrapper::new(key_columns),
            batches: Vec::new(),
            rows: Vec::new(),
        })
    }

    /// Filter one side batch, compute its keys and keep its rows whose key
    /// has no NULL part (a NULL key never matches). The table copies the
    /// kept rows out of the batch when it is finished.
    pub fn add(&mut self, mut batch: VectorizedRowBatch) -> Result<()> {
        for e in &self.expressions {
            e.evaluate(&mut batch)?;
        }
        let nk = self.keys.table().types().len();
        let keys = &self.stored[..nk];
        let mut kept = 0;
        for j in 0..batch.size {
            let i = if batch.selected_in_use {
                batch.selected[j]
            } else {
                j
            };
            if keys.iter().all(|(c, _)| !batch.columns[*c].is_null(i)) {
                batch.selected[kept] = i;
                kept += 1;
            }
        }
        (batch.selected_in_use, batch.size) = (true, kept);
        if kept == 0 {
            return Ok(());
        }
        let b = self.batches.len();
        let (gids, _) = self.keys.resolve(&batch)?;
        let rows = batch.iter_selected().zip(gids).map(|(i, &g)| (b, i, g));
        self.rows.extend(rows);
        self.batches.push(batch);
        Ok(())
    }

    /// The table: the kept rows' stored columns, copied into key order.
    pub fn finish(self) -> Result<MapJoinTable> {
        let keys = self.keys.into_table();
        let mut starts = vec![0; keys.num_groups() + 1];
        for &(_, _, g) in &self.rows {
            starts[g as usize + 1] += 1;
        }
        for g in 0..keys.num_groups() {
            starts[g + 1] += starts[g];
        }
        // Each kept row's position: after the rows of smaller ids, and
        // after the earlier rows of its own.
        let mut next = starts.clone();
        let at: Vec<usize> = (self.rows.iter())
            .map(|&(_, _, g)| {
                next[g as usize] += 1;
                next[g as usize] - 1
            })
            .collect();
        let n = self.rows.len();
        let mut columns = Vec::with_capacity(self.stored.len());
        for (c, dt) in &self.stored {
            let mut column = ColumnVector::for_type(dt, n)?;
            for (&(b, i, _), &j) in self.rows.iter().zip(&at) {
                column.copy_cell(j, &self.batches[b].columns[*c], i)?;
            }
            columns.push(column);
        }
        Ok(MapJoinTable {
            keys,
            columns,
            starts,
        })
    }
}

/// The output side of the join: assembles stream columns ++ build columns
/// into fresh batches.
struct JoinOutput {
    /// Batch column of each streamed output column.
    stream_columns: Vec<usize>,
    /// Width of a stored row (for null padding on outer misses).
    build_width: usize,
    types: Vec<DataType>,
    batch_size: usize,
    batch: VectorizedRowBatch,
}

impl JoinOutput {
    /// Append one output row: stream columns from `probe[i]`, then stored
    /// row `r` of `build` (or NULLs on a preserved-side miss). Flushes when
    /// full.
    fn emit(
        &mut self,
        probe: &VectorizedRowBatch,
        i: usize,
        build: Option<(&[ColumnVector], usize)>,
        out: &mut dyn FnMut(VectorizedRowBatch),
    ) -> Result<()> {
        let j = self.batch.size;
        let (stream, built) = self.batch.columns.split_at_mut(self.stream_columns.len());
        for (dst, &c) in stream.iter_mut().zip(&self.stream_columns) {
            dst.copy_cell(j, &probe.columns[c], i)?;
        }
        match build {
            Some((columns, r)) => {
                for (dst, src) in built.iter_mut().zip(columns) {
                    dst.copy_cell(j, src, r)?;
                }
            }
            None => built[..self.build_width]
                .iter_mut()
                .for_each(|dst| dst.set_null(j)),
        }
        self.batch.size = j + 1;
        if self.batch.size == self.batch.max_size {
            self.flush(out)?;
        }
        Ok(())
    }

    /// Hand the buffered output batch to `out`, replacing it with a fresh
    /// empty one.
    fn flush(&mut self, out: &mut dyn FnMut(VectorizedRowBatch)) -> Result<()> {
        if self.batch.size > 0 {
            let fresh = VectorizedRowBatch::new(&self.types, self.batch_size)?;
            out(std::mem::replace(&mut self.batch, fresh));
        }
        Ok(())
    }
}

/// Batch-at-a-time hash join against a broadcast small side.
pub struct VectorMapJoinOperator {
    pub kind: MapJoinKind,
    /// Expressions computing probe-key scratch columns (run per batch).
    pub key_expressions: Vec<Box<dyn VectorExpression>>,
    table: Arc<MapJoinTable>,
    probe: KeyProbe,
    output: JoinOutput,
    probe_batches: u64,
    repeat_probes: u64,
}

impl VectorMapJoinOperator {
    /// `key_columns`: batch column index + logical type of each probe key;
    /// the types must be the build keys' (lanes are typed by them).
    /// `stream_columns`: the batch columns the output carries before the
    /// stored row, with their types.
    pub fn new(
        kind: MapJoinKind,
        key_expressions: Vec<Box<dyn VectorExpression>>,
        key_columns: Vec<(usize, DataType)>,
        stream_columns: Vec<(usize, DataType)>,
        table: Arc<MapJoinTable>,
        out_batch_types: &[DataType],
        batch_size: usize,
    ) -> Result<VectorMapJoinOperator> {
        if !key_columns.iter().map(|(_, dt)| dt).eq(table.keys.types()) {
            return Err(HiveError::Execution(
                "map-join probe keys are not typed like the build keys".into(),
            ));
        }
        let output = JoinOutput {
            stream_columns: stream_columns.iter().map(|(c, _)| *c).collect(),
            build_width: table.columns.len(),
            types: out_batch_types.to_vec(),
            batch_size,
            batch: VectorizedRowBatch::new(out_batch_types, batch_size)?,
        };
        Ok(VectorMapJoinOperator {
            kind,
            key_expressions,
            probe: KeyProbe::new(key_columns.iter().map(|(c, _)| *c).collect()),
            table,
            output,
            probe_batches: 0,
            repeat_probes: 0,
        })
    }
}

impl VectorOperator for VectorMapJoinOperator {
    fn process(
        &mut self,
        batch: &mut VectorizedRowBatch,
        out: &mut dyn FnMut(VectorizedRowBatch),
    ) -> Result<bool> {
        for e in &self.key_expressions {
            e.evaluate(batch)?;
        }
        self.probe_batches += 1;
        if batch.size > 0 && self.probe.one_key(batch) {
            self.repeat_probes += 1;
        }
        let table = &*self.table;
        let gids = self.probe.find(&table.keys, batch)?;
        for (&g, i) in gids.iter().zip(batch.iter_selected()) {
            if g != MISS {
                for r in table.starts[g as usize]..table.starts[g as usize + 1] {
                    self.output.emit(batch, i, Some((&table.columns, r)), out)?;
                }
            } else if self.kind == MapJoinKind::LeftOuter {
                self.output.emit(batch, i, None, out)?;
            }
        }
        // Flush the partial tail too: output batches never straddle input
        // batches, so there is no buffered state between `process` calls.
        self.output.flush(out)?;
        Ok(false)
    }

    fn name(&self) -> String {
        match self.kind {
            MapJoinKind::Inner => "VectorMapJoin[Inner]".to_string(),
            MapJoinKind::LeftOuter => "VectorMapJoin[LeftOuter]".to_string(),
        }
    }

    fn profile_detail(&self) -> Vec<(String, u64)> {
        vec![
            ("probe_batches".to_string(), self.probe_batches),
            ("build_rows".to_string(), self.table.build_rows() as u64),
            ("repeat_probes".to_string(), self.repeat_probes),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row_convert::{batch_to_rows, rows_to_batch};
    use hive_common::{Row, Value};

    /// A table over side rows of `types` whose first `nk` columns are the
    /// key, read in batches of `batch_rows`.
    fn build(
        types: &[DataType],
        nk: usize,
        rows: &[Row],
        batch_rows: usize,
    ) -> Result<MapJoinTable> {
        let columns = |r: std::ops::Range<usize>| r.map(|c| (c, types[c].clone())).collect();
        let mut builder = MapJoinBuilder::new(vec![], columns(0..nk), columns(nk..types.len()))?;
        for chunk in rows.chunks(batch_rows) {
            let mut batch = VectorizedRowBatch::new(types, batch_rows)?;
            rows_to_batch(chunk, &mut batch)?;
            builder.add(batch)?;
        }
        builder.finish()
    }

    fn table_from(rows: &[(i64, &str)]) -> Arc<MapJoinTable> {
        let stored = |(k, name): &(i64, &str)| {
            Row::new(vec![Value::Int(*k), Value::String((*name).to_string())])
        };
        let rows: Vec<Row> = rows.iter().map(stored).collect();
        Arc::new(build(&[DataType::Int, DataType::String], 1, &rows, 4).unwrap())
    }

    const OUT_COLS: [(usize, DataType); 4] = [
        (0, DataType::Int),
        (1, DataType::Int),
        (2, DataType::Int),
        (3, DataType::String),
    ];

    fn join_op(kind: MapJoinKind, batch_size: usize) -> VectorMapJoinOperator {
        let out_types = vec![
            DataType::Int,
            DataType::Int,
            DataType::Int,
            DataType::String,
        ];
        VectorMapJoinOperator::new(
            kind,
            vec![],
            vec![(0, DataType::Int)],
            vec![(0, DataType::Int), (1, DataType::Int)],
            table_from(&[(1, "one"), (3, "three"), (3, "trois")]),
            &out_types,
            batch_size,
        )
        .unwrap()
    }

    /// Probe `rows` and materialize every emitted output batch.
    fn probe(op: &mut VectorMapJoinOperator, rows: &[Row]) -> (Vec<Row>, usize) {
        let mut batch =
            VectorizedRowBatch::new(&[DataType::Int, DataType::Int], rows.len().max(1)).unwrap();
        rows_to_batch(rows, &mut batch).unwrap();
        let mut out_rows = Vec::new();
        let mut batches = 0;
        let mut out = |b: VectorizedRowBatch| {
            batches += 1;
            out_rows.extend(batch_to_rows(&b, &OUT_COLS));
        };
        let flows = op.process(&mut batch, &mut out).unwrap();
        assert!(!flows, "map join consumes its input batch");
        op.close(&mut out).unwrap();
        (out_rows, batches)
    }

    fn row2(a: i64, b: i64) -> Row {
        Row::new(vec![Value::Int(a), Value::Int(b)])
    }

    #[test]
    fn inner_join_matches_and_duplicates() {
        let mut op = join_op(MapJoinKind::Inner, 4);
        let (out, _) = probe(&mut op, &[row2(1, 10), row2(2, 20), row2(3, 30)]);
        assert_eq!(
            out,
            vec![
                Row::new(vec![
                    Value::Int(1),
                    Value::Int(10),
                    Value::Int(1),
                    Value::String("one".into())
                ]),
                Row::new(vec![
                    Value::Int(3),
                    Value::Int(30),
                    Value::Int(3),
                    Value::String("three".into())
                ]),
                Row::new(vec![
                    Value::Int(3),
                    Value::Int(30),
                    Value::Int(3),
                    Value::String("trois".into())
                ]),
            ]
        );
    }

    #[test]
    fn left_outer_pads_misses_and_null_keys() {
        let mut op = join_op(MapJoinKind::LeftOuter, 4);
        let (out, _) = probe(
            &mut op,
            &[row2(2, 20), Row::new(vec![Value::Null, Value::Int(9)])],
        );
        assert_eq!(
            out,
            vec![
                Row::new(vec![
                    Value::Int(2),
                    Value::Int(20),
                    Value::Null,
                    Value::Null
                ]),
                Row::new(vec![Value::Null, Value::Int(9), Value::Null, Value::Null]),
            ]
        );
    }

    #[test]
    fn output_flushes_across_batch_boundary() {
        // batch_size 2 forces a mid-probe flush; all rows still appear, in
        // two full batches of 2 (no partial-tail batch left buffered).
        let mut op = join_op(MapJoinKind::Inner, 2);
        let (out, batches) = probe(&mut op, &[row2(1, 10), row2(3, 30), row2(1, 11)]);
        assert_eq!(out.len(), 4);
        assert_eq!(batches, 2);
        let detail = op.profile_detail();
        assert!(detail.iter().any(|(k, v)| k == "build_rows" && *v == 3));
        assert!(detail.iter().any(|(k, v)| k == "probe_batches" && *v == 1));
    }

    #[test]
    fn repeating_key_fast_path() {
        let mut op = join_op(MapJoinKind::Inner, 8);
        let mut batch = VectorizedRowBatch::new(&[DataType::Int, DataType::Int], 4).unwrap();
        rows_to_batch(&[row2(3, 1), row2(3, 2)], &mut batch).unwrap();
        if let ColumnVector::Long(v) = &mut batch.columns[0] {
            v.is_repeating = true;
        }
        let mut out_rows = Vec::new();
        let mut out = |b: VectorizedRowBatch| out_rows.extend(batch_to_rows(&b, &OUT_COLS));
        op.process(&mut batch, &mut out).unwrap();
        op.close(&mut out).unwrap();
        assert_eq!(out_rows.len(), 4, "2 probe rows × 2 matches for key 3");
        assert!(op
            .profile_detail()
            .iter()
            .any(|(k, v)| k == "repeat_probes" && *v == 1));
    }

    /// A one-column DOUBLE probe against a DOUBLE-keyed table whose stored
    /// rows are just their key; returns the matched keys' bit patterns.
    fn probe_doubles(keys: &[f64], probe: &[f64]) -> Vec<u64> {
        let row = |x: &f64| Row::new(vec![Value::Double(*x)]);
        let rows: Vec<Row> = keys.iter().map(row).collect();
        let table = build(&[DataType::Double], 1, &rows, 8);
        let types = [DataType::Double, DataType::Double];
        let mut op = VectorMapJoinOperator::new(
            MapJoinKind::Inner,
            vec![],
            vec![(0, DataType::Double)],
            vec![(0, DataType::Double)],
            Arc::new(table.unwrap()),
            &types,
            8,
        )
        .unwrap();
        let mut batch = VectorizedRowBatch::new(&types[..1], 8).unwrap();
        rows_to_batch(&probe.iter().map(row).collect::<Vec<_>>(), &mut batch).unwrap();
        let mut matched = Vec::new();
        let cols = [(1, DataType::Double)];
        let mut out = |b: VectorizedRowBatch| {
            for r in batch_to_rows(&b, &cols) {
                matched.push(r[0].as_double().unwrap().to_bits());
            }
        };
        op.process(&mut batch, &mut out).unwrap();
        matched
    }

    #[test]
    fn keys_are_typed() {
        // Lanes are typed by the key's DataType: an INT-keyed table cannot
        // be probed by a BOOLEAN (or DOUBLE) column through a shared lane.
        for probe in [DataType::Boolean, DataType::Timestamp, DataType::Double] {
            let op = VectorMapJoinOperator::new(
                MapJoinKind::Inner,
                vec![],
                vec![(0, probe.clone())],
                vec![(0, probe.clone())],
                table_from(&[(1, "one")]),
                &[probe.clone(), DataType::Int, DataType::String],
                4,
            );
            assert!(op.is_err(), "{probe} probe against an INT build key");
        }
        let arr = DataType::Array(Box::new(DataType::Int));
        assert!(MapJoinBuilder::new(vec![], vec![(0, arr)], vec![]).is_err());
        // NaN is one key, and -0.0 is 0.0 (the key rule).
        let nan2 = f64::from_bits(f64::NAN.to_bits() | 1);
        let zero = 0.0f64.to_bits();
        assert_eq!(
            probe_doubles(&[f64::NAN, 0.0], &[-nan2, -0.0, 0.0, 1.0]),
            [f64::NAN.to_bits(), zero, zero]
        );
        let minus_zero = (-0.0f64).to_bits();
        assert_eq!(
            probe_doubles(&[-0.0], &[0.0, -0.0]),
            [minus_zero, minus_zero]
        );
    }

    #[test]
    fn build_keeps_each_keys_rows_in_read_order_across_batches() {
        // Batches of two rows: key 3's rows arrive in three of them, and the
        // NULL-keyed rows are never stored.
        let row = |k: Option<i64>, name: &str| {
            let k = k.map_or(Value::Null, Value::Int);
            Row::new(vec![k, Value::String(name.into())])
        };
        let side = [
            row(Some(3), "a"),
            row(None, "null-0"),
            row(Some(1), "b"),
            row(Some(3), "c"),
            row(None, "null-1"),
            row(None, "null-2"),
            row(Some(3), "d"),
        ];
        let table = build(&[DataType::Int, DataType::String], 1, &side, 2).unwrap();
        assert_eq!(table.build_rows(), 4);
        let mut op = VectorMapJoinOperator::new(
            MapJoinKind::Inner,
            vec![],
            vec![(0, DataType::Int)],
            vec![(0, DataType::Int), (1, DataType::Int)],
            Arc::new(table),
            &[
                DataType::Int,
                DataType::Int,
                DataType::Int,
                DataType::String,
            ],
            8,
        )
        .unwrap();
        let (out, _) = probe(&mut op, &[row2(3, 30), row2(1, 10)]);
        let names: Vec<&Value> = out.iter().map(|r| &r[3]).collect();
        let want = ["a", "c", "d", "b"].map(|n| Value::String(n.into()));
        assert_eq!(names, want.iter().collect::<Vec<_>>());
    }
}
