//! Vectorized Map Join (paper Section 6 meets Section 5.1): the hash table
//! is built once from the broadcast small side; probe batches flow through
//! without row materialization until the join output itself.
//!
//! Build and probe keys go through the same [`KeyWrapper`] that resolves
//! GROUP BY keys (`key_wrapper.rs`; the key rule is DESIGN.md "Keys"): the
//! build side's key columns are resolved, a batch at a time, to dense ids
//! that index the stored rows, and a probe batch is one `find` — typed `u64`
//! lanes, no per-row key object, a NULL key part matching nothing, and one
//! lookup for a batch whose key columns all repeat (the benefit
//! run-length-encoded storage hands to execution). This is the one
//! re-batching operator: it consumes probe batches and emits freshly
//! assembled output batches (stream columns ++ build columns), so a join
//! followed by vectorized filters/aggregates never leaves batch mode.

use crate::batch::{ColumnVector, VectorizedRowBatch, DEFAULT_BATCH_SIZE};
use crate::expressions::VectorExpression;
use crate::key_wrapper::{KeyWrapper, MISS};
use crate::operators::VectorOperator;
use crate::row_convert::set_value;
use hive_common::{DataType, HiveError, Result, Row, Value};

/// The join kinds a map join can be (the planner streams the preserved side
/// of a LEFT OUTER join and converts no other outer join).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MapJoinKind {
    Inner,
    LeftOuter,
}

/// Copy one cell between same-shaped column vectors, honouring nulls and
/// `is_repeating` on the source. The destination is written positionally.
fn copy_cell(src: &ColumnVector, i: usize, dst: &mut ColumnVector, j: usize) -> Result<()> {
    if src.is_null(i) {
        return set_value(dst, j, &Value::Null);
    }
    match (src, dst) {
        (ColumnVector::Long(s), ColumnVector::Long(d)) => d.vector[j] = s.value(i),
        (ColumnVector::Double(s), ColumnVector::Double(d)) => d.vector[j] = s.value(i),
        (ColumnVector::Bytes(s), ColumnVector::Bytes(d)) => d.set(j, s.value(i)),
        _ => {
            return Err(HiveError::Execution(
                "mismatched column vector shapes in map-join output".into(),
            ))
        }
    }
    Ok(())
}

/// The small-side hash table: a key's dense id → its stored rows, laid out
/// as build keys ++ projected build columns (the row engine's layout).
pub struct MapJoinTable {
    keys: KeyWrapper,
    rows_by_gid: Vec<Vec<Row>>,
    build_rows: u64,
}

impl MapJoinTable {
    /// Build the table from the prepared small side: each row starts with
    /// its key columns (of `key_types`, none NULL — a NULL key never
    /// matches) and is stored whole.
    pub fn build(key_types: &[DataType], rows: Vec<Row>) -> Result<MapJoinTable> {
        let mut keys = KeyWrapper::new(key_types.iter().cloned().enumerate().collect());
        let mut batch = VectorizedRowBatch::new(key_types, DEFAULT_BATCH_SIZE)?;
        let mut gids = Vec::with_capacity(rows.len());
        for chunk in rows.chunks(batch.max_size) {
            batch.reset();
            for (r, row) in chunk.iter().enumerate() {
                for (c, col) in batch.columns.iter_mut().enumerate() {
                    set_value(col, r, &row[c])?;
                }
            }
            batch.size = chunk.len();
            gids.extend_from_slice(keys.resolve(&batch)?.0);
        }
        let build_rows = rows.len() as u64;
        let mut rows_by_gid = vec![Vec::new(); keys.num_groups()];
        for (g, row) in gids.into_iter().zip(rows) {
            rows_by_gid[g as usize].push(row);
        }
        Ok(MapJoinTable {
            keys,
            rows_by_gid,
            build_rows,
        })
    }
}

/// The output side of the join: assembles stream columns ++ build columns
/// into fresh batches.
struct JoinOutput {
    /// Batch column index + logical type of each streamed output column.
    stream_columns: Vec<(usize, DataType)>,
    /// Width of a stored build row (for null padding on outer misses).
    build_width: usize,
    types: Vec<DataType>,
    batch_size: usize,
    batch: VectorizedRowBatch,
}

impl JoinOutput {
    /// Append one output row: stream columns from `probe[i]`, then the
    /// build row (or nulls on a preserved-side miss). Flushes when full.
    fn emit(
        &mut self,
        probe: &VectorizedRowBatch,
        i: usize,
        build: Option<&Row>,
        out: &mut dyn FnMut(VectorizedRowBatch),
    ) -> Result<()> {
        let j = self.batch.size;
        for (o, (c, _)) in self.stream_columns.iter().enumerate() {
            copy_cell(&probe.columns[*c], i, &mut self.batch.columns[o], j)?;
        }
        let base = self.stream_columns.len();
        match build {
            Some(row) => {
                for (o, v) in row.values().iter().enumerate() {
                    set_value(&mut self.batch.columns[base + o], j, v)?;
                }
            }
            None => {
                for o in 0..self.build_width {
                    set_value(&mut self.batch.columns[base + o], j, &Value::Null)?;
                }
            }
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
    table: MapJoinTable,
    output: JoinOutput,
    probe_batches: u64,
    repeat_probes: u64,
}

impl VectorMapJoinOperator {
    /// `key_columns`: batch column index + logical type of each probe key;
    /// the types must be the build keys' (lanes are typed by them).
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        kind: MapJoinKind,
        key_expressions: Vec<Box<dyn VectorExpression>>,
        key_columns: Vec<(usize, DataType)>,
        stream_columns: Vec<(usize, DataType)>,
        mut table: MapJoinTable,
        build_width: usize,
        out_batch_types: &[DataType],
        batch_size: usize,
    ) -> Result<VectorMapJoinOperator> {
        let built = table.keys.keys().iter().map(|(_, dt)| dt);
        if !key_columns.iter().map(|(_, dt)| dt).eq(built) {
            return Err(HiveError::Execution(
                "map-join probe keys are not typed like the build keys".into(),
            ));
        }
        table.keys.rebind(key_columns.iter().map(|(c, _)| *c));
        Ok(VectorMapJoinOperator {
            kind,
            key_expressions,
            table,
            output: JoinOutput {
                stream_columns,
                build_width,
                types: out_batch_types.to_vec(),
                batch_size,
                batch: VectorizedRowBatch::new(out_batch_types, batch_size)?,
            },
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
        let MapJoinTable {
            keys, rows_by_gid, ..
        } = &mut self.table;
        if batch.size > 0 && keys.one_key(batch) {
            self.repeat_probes += 1;
        }
        let gids = keys.find(batch)?;
        for (&g, i) in gids.iter().zip(batch.iter_selected()) {
            if g != MISS {
                for row in &rows_by_gid[g as usize] {
                    self.output.emit(batch, i, Some(row), out)?;
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
            ("build_rows".to_string(), self.table.build_rows),
            ("repeat_probes".to_string(), self.repeat_probes),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row_convert::{batch_to_rows, rows_to_batch};

    fn table_from(rows: &[(i64, &str)]) -> MapJoinTable {
        let stored = |(k, name): &(i64, &str)| {
            Row::new(vec![Value::Int(*k), Value::String((*name).to_string())])
        };
        MapJoinTable::build(&[DataType::Int], rows.iter().map(stored).collect()).unwrap()
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
            2,
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
    fn probe_doubles(build: &[f64], probe: &[f64]) -> Vec<u64> {
        let row = |x: &f64| Row::new(vec![Value::Double(*x)]);
        let table = MapJoinTable::build(&[DataType::Double], build.iter().map(row).collect());
        let types = [DataType::Double, DataType::Double];
        let mut op = VectorMapJoinOperator::new(
            MapJoinKind::Inner,
            vec![],
            vec![(0, DataType::Double)],
            vec![(0, DataType::Double)],
            table.unwrap(),
            1,
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
                2,
                &[probe.clone(), DataType::Int, DataType::String],
                4,
            );
            assert!(op.is_err(), "{probe} probe against an INT build key");
        }
        let arr = DataType::Array(Box::new(DataType::Int));
        assert!(MapJoinTable::build(&[arr], vec![]).is_err());
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
}
