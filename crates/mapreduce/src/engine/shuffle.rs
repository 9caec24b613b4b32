//! The shuffle as bytes: each map task writes one sorted run per reducer,
//! and each reducer merges the runs of its partition.
//!
//! A record is its key in the order-preserving encoding
//! ([`sortable`]), its tag as a big-endian `u32`, then its value row in
//! the binary row encoding. `memcmp` over key‖tag is
//! `key::cmp(..).then(tag)`, so a map task sorts a partition on bytes, and
//! a reducer merges its runs on bytes, taking equal records from the lower
//! map-task index first: the order a stable sort of the runs' task-index
//! concatenation gives, which is what reducers have always read.

use hive_common::{key, HiveError, Result, Value};
use hive_exec::graph::{ShuffleBatch, ShuffleRecord};
use hive_formats::serde::{
    binary_deserialize_into_columns, binary_deserialize_values_into, binary_serialize_cells,
    binary_serialize_row, sortable,
};
use hive_vector::ColumnVector;
use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};

/// Width of the tag between a record's key and its value.
const TAG_BYTES: usize = 4;

/// Where one record lies in its run's bytes.
#[derive(Clone, Copy)]
struct Slot {
    start: usize,
    /// End of key‖tag, the bytes the order is decided on; the value follows.
    value: usize,
    end: usize,
}

/// One map task's shuffle output: one run per reducer, each record encoded
/// into the run its key hashes to ([`key::hash`]) as it arrives. A row
/// engine's record and a vector sink's row encode to the same bytes and go
/// to the same reducer.
pub struct ShuffleWriter {
    runs: Vec<RunWriter>,
}

impl ShuffleWriter {
    /// A writer with one run per reducer; with none, records go nowhere.
    pub fn new(reducers: usize) -> ShuffleWriter {
        ShuffleWriter {
            runs: (0..reducers).map(|_| RunWriter::default()).collect(),
        }
    }

    /// The run of the reducer a key with this [`key::hash`] goes to.
    fn run(&mut self, hash: u64) -> Option<&mut RunWriter> {
        let n = self.runs.len() as u64;
        (n > 0).then(|| &mut self.runs[(hash % n) as usize])
    }

    /// A row engine's record.
    pub fn push(&mut self, rec: &ShuffleRecord) {
        if let Some(run) = self.run(key::hash(&rec.key)) {
            let key = |out: &mut Vec<u8>| sortable::encode_key(&rec.key, out);
            run.push(key, rec.tag, |out| binary_serialize_row(&rec.value, out));
        }
    }

    /// Every selected row of a vector sink's batch, encoded from its cells
    /// by the lane twins of the row encoders.
    pub fn push_batch(&mut self, rows: &ShuffleBatch) {
        let columns = &rows.batch.columns;
        for i in rows.batch.iter_selected() {
            if let Some(run) = self.run(sortable::hash_key_cells(columns, &rows.keys, i)) {
                let key =
                    |out: &mut Vec<u8>| sortable::encode_key_cells(columns, &rows.keys, i, out);
                let value =
                    |out: &mut Vec<u8>| binary_serialize_cells(columns, &rows.values, i, out);
                run.push(key, rows.tag, value);
            }
        }
    }

    /// Forget every record, keeping the runs' room.
    pub fn clear(&mut self) {
        for run in &mut self.runs {
            run.bytes.clear();
            run.slots.clear();
        }
    }

    /// One run per reducer, each stably sorted by key‖tag.
    pub fn finish(self) -> Vec<Run> {
        self.runs.into_iter().map(RunWriter::finish).collect()
    }
}

/// One map task's records for one reducer, encoded as they arrive.
#[derive(Default)]
struct RunWriter {
    bytes: Vec<u8>,
    slots: Vec<Slot>,
}

impl RunWriter {
    /// Append one record: key, then tag, then value.
    fn push(
        &mut self,
        key: impl FnOnce(&mut Vec<u8>),
        tag: usize,
        value: impl FnOnce(&mut Vec<u8>),
    ) {
        let start = self.bytes.len();
        key(&mut self.bytes);
        // Tags number a job's shuffle inputs.
        self.bytes.extend_from_slice(&(tag as u32).to_be_bytes());
        let value_at = self.bytes.len();
        value(&mut self.bytes);
        let end = self.bytes.len();
        self.slots.push(Slot {
            start,
            value: value_at,
            end,
        });
    }

    /// The records, stably sorted by key‖tag.
    fn finish(self) -> Run {
        let RunWriter { bytes, mut slots } = self;
        slots.sort_by(|a, b| bytes[a.start..a.value].cmp(&bytes[b.start..b.value]));
        Run { bytes, slots }
    }
}

/// One map task's sorted records for one reducer. Immutable: every attempt
/// of the reducer reads it where it lies.
pub struct Run {
    bytes: Vec<u8>,
    /// In key‖tag order.
    slots: Vec<Slot>,
}

impl Run {
    /// Encoded bytes: what this run moves through the shuffle.
    pub fn byte_len(&self) -> u64 {
        self.bytes.len() as u64
    }

    /// Key‖tag of the `i`-th record in order.
    fn sort_key(&self, i: usize) -> Option<&[u8]> {
        let s = self.slots.get(i)?;
        Some(&self.bytes[s.start..s.value])
    }

    fn record(&self, i: usize) -> Record<'_> {
        let s = self.slots[i];
        let (key, tag) = self.bytes[s.start..s.value].split_at(s.value - s.start - TAG_BYTES);
        Record {
            key,
            tag: tag.iter().fold(0, |t, &b| t << 8 | b as usize),
            value: &self.bytes[s.value..s.end],
        }
    }
}

/// One shuffled record: its tag, and its key and value still encoded.
pub(super) struct Record<'a> {
    /// The encoded key: a key group starts where these bytes change.
    pub(super) key: &'a [u8],
    pub(super) tag: usize,
    value: &'a [u8],
}

impl Record<'_> {
    pub(super) fn decode_key(&self) -> Result<Vec<Value>> {
        sortable::decode_key(self.key, &mut 0)
    }

    /// Append the value row's columns to `out`.
    pub(super) fn decode_value_into(&self, out: &mut Vec<Value>) -> Result<()> {
        binary_deserialize_values_into(self.value, &mut 0, out)
    }

    /// The key into row `row` of `columns`, which must be as many as its
    /// values.
    pub(super) fn decode_key_into(&self, columns: &mut [ColumnVector], row: usize) -> Result<()> {
        match sortable::decode_key_into(self.key, &mut 0, columns, row)? {
            n if n == columns.len() => Ok(()),
            n => Err(HiveError::SerDe(format!(
                "a key of {n} values for {} columns",
                columns.len()
            ))),
        }
    }

    /// The value row into row `row` of `columns`, one column per value.
    pub(super) fn decode_value_into_columns(
        &self,
        columns: &mut [ColumnVector],
        row: usize,
    ) -> Result<()> {
        binary_deserialize_into_columns(self.value, &mut 0, columns, row)
    }
}

/// The records of `runs` (one per map task, in task order) in key‖tag
/// order, equal records from the lower task first.
pub(super) fn merge(runs: &[Run]) -> impl Iterator<Item = Record<'_>> {
    let mut heap: BinaryHeap<Reverse<(&[u8], usize, usize)>> = runs
        .iter()
        .enumerate()
        .filter_map(|(r, run)| Some(Reverse((run.sort_key(0)?, r, 0))))
        .collect();
    std::iter::from_fn(move || {
        let mut top = heap.peek_mut()?;
        let Reverse((_, r, i)) = *top;
        match runs[r].sort_key(i + 1) {
            Some(next) => *top = Reverse((next, r, i + 1)),
            None => drop(PeekMut::pop(top)),
        }
        Some(runs[r].record(i))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hive_common::Row;

    fn record(key: Vec<Value>, tag: usize, v: i64) -> ShuffleRecord {
        ShuffleRecord {
            key,
            value: Row::new(vec![Value::Int(v), Value::String(format!("v{v}"))]),
            tag,
        }
    }

    fn run(records: &[ShuffleRecord]) -> Run {
        let mut w = ShuffleWriter::new(1);
        records.iter().for_each(|r| w.push(r));
        w.finish().pop().unwrap()
    }

    /// Three map tasks' records, merged, come out as the stable sort of
    /// their concatenation by `(key::cmp, tag)` does, keys and values intact.
    #[test]
    fn merged_runs_read_as_the_stable_sort_of_their_concatenation() {
        let pool = [
            vec![],
            vec![Value::Null],
            vec![Value::Int(-3)],
            vec![Value::Int(7)],
            vec![Value::Int(7), Value::String("a\0".into())],
            vec![Value::Double(f64::NAN)],
            vec![Value::Double(0.0)],
            vec![Value::String("ab".into())],
        ];
        let tasks: Vec<Vec<ShuffleRecord>> = (0..3)
            .map(|t| {
                (0..40)
                    .map(|i| {
                        let k = (i * 7 + t * 3) % pool.len();
                        record(pool[k].clone(), i % 2, t as i64 * 100 + i as i64)
                    })
                    .collect()
            })
            .collect();
        let mut expected: Vec<&ShuffleRecord> = tasks.iter().flatten().collect();
        expected.sort_by(|a, b| key::cmp(&a.key, &b.key).then(a.tag.cmp(&b.tag)));

        let runs: Vec<Run> = tasks.iter().map(|t| run(t)).collect();
        let mut merged = 0;
        for (rec, want) in merge(&runs).zip(&expected) {
            let key = rec.decode_key().unwrap();
            assert_eq!(key::cmp(&key, &want.key), std::cmp::Ordering::Equal);
            assert_eq!(rec.tag, want.tag);
            let mut value = Vec::new();
            rec.decode_value_into(&mut value).unwrap();
            assert_eq!(value, want.value.values());
            merged += 1;
        }
        assert_eq!(merged, expected.len());
    }

    /// Cut short or flipped anywhere, a run's bytes decode to an error or to
    /// some values, never a panic, and never to more values than there are
    /// bytes left to hold them.
    #[test]
    fn hostile_run_bytes_are_errors_not_panics() {
        let nested = Value::Array(vec![Value::Map(vec![(
            Value::String("k\u{1}".into()),
            Value::Struct(vec![Value::Double(-1.5), Value::Timestamp(9)]),
        )])]);
        let records = [
            record(vec![Value::Int(1), Value::String("x\0y".into())], 0, 1),
            record(vec![nested.clone(), Value::Boolean(true)], 1, i64::MIN),
            record(vec![Value::Union(2, Box::new(nested))], 0, 5),
        ];
        let bytes = run(&records).bytes;
        // Walk the bytes as a run reader must: key, tag, value, repeat.
        let walk = |bytes: &[u8]| -> Result<usize> {
            let (mut pos, mut values) = (0, 0);
            while pos < bytes.len() {
                values += sortable::decode_key(bytes, &mut pos)?.len();
                pos += TAG_BYTES;
                if pos > bytes.len() {
                    return Err(HiveError::SerDe("tag truncated".into()));
                }
                let mut row = Vec::new();
                binary_deserialize_values_into(bytes, &mut pos, &mut row)?;
                assert!(row.capacity() <= bytes.len(), "sized past the input");
                values += row.len();
            }
            Ok(values)
        };
        assert!(walk(&bytes).is_ok());
        for cut in 0..bytes.len() {
            let _ = walk(&bytes[..cut]);
        }
        for i in 0..bytes.len() {
            for flip in [0x01, 0x80, 0xff] {
                let mut bad = bytes.clone();
                bad[i] ^= flip;
                let _ = walk(&bad);
            }
        }
        // A count far past the bytes that follow it.
        let mut huge = vec![0xff; 9];
        huge.push(0x01);
        assert!(binary_deserialize_values_into(&huge, &mut 0, &mut Vec::new()).is_err());
    }
}
