//! SequenceFile: "a flat file consisting of binary key/value pairs"
//! (paper Section 3). Hive stores the row in the value and leaves the key
//! empty; rows are binary-serialized one at a time.

use crate::serde;
use crate::{TableReader, TableWriter};
use hive_common::{DataType, HiveError, Result, Row, Schema};
use hive_dfs::{Dfs, DfsReader, DfsWriter, NodeId};
use hive_vector::VectorizedRowBatch;

const MAGIC: &[u8; 4] = b"SEQ6";

/// Writer of binary key/value records.
pub struct SequenceWriter {
    writer: DfsWriter,
    /// Scratch: the record being framed.
    buf: Vec<u8>,
    frame: Vec<u8>,
}

impl SequenceWriter {
    pub fn create(dfs: &Dfs, path: &str) -> SequenceWriter {
        let mut writer = dfs.create(path);
        writer.write(MAGIC);
        SequenceWriter {
            writer,
            buf: Vec::new(),
            frame: Vec::new(),
        }
    }

    /// Append one record whose value `value` writes. Record frame: varint
    /// key length (0, Hive leaves keys empty), varint value length, value
    /// bytes.
    fn append(&mut self, value: impl FnOnce(&mut Vec<u8>)) {
        self.buf.clear();
        value(&mut self.buf);
        self.frame.clear();
        hive_codec::varint::write_unsigned(&mut self.frame, 0);
        hive_codec::varint::write_unsigned(&mut self.frame, self.buf.len() as u64);
        self.writer.write(&self.frame);
        self.writer.write(&self.buf);
    }

    /// One record per selected row of `batch`, its value the binary row of
    /// the row's cells of `columns` (batch column, logical type): the bytes
    /// [`write_row`](TableWriter::write_row) writes for the same rows.
    pub fn write_cells(&mut self, batch: &VectorizedRowBatch, columns: &[(usize, DataType)]) {
        for i in batch.iter_selected() {
            self.append(|out| serde::binary_serialize_cells(&batch.columns, columns, i, out));
        }
    }
}

impl TableWriter for SequenceWriter {
    fn write_row(&mut self, row: &Row) -> Result<()> {
        self.append(|out| serde::binary_serialize_row(row, out));
        Ok(())
    }

    fn close(self: Box<Self>) -> Result<u64> {
        self.writer.try_close()
    }
}

/// Sequential reader of binary records.
pub struct SequenceReader {
    reader: DfsReader,
    /// Values per row.
    width: usize,
    projection: Option<Vec<usize>>,
    offset: u64,
    buf: Vec<u8>,
    pos: usize,
}

const READ_CHUNK: usize = 1 << 20;

impl SequenceReader {
    pub fn open(
        dfs: &Dfs,
        path: &str,
        schema: Schema,
        projection: Option<Vec<usize>>,
        node: Option<NodeId>,
    ) -> Result<SequenceReader> {
        let mut reader = dfs.open(path, node)?;
        let header = reader.read_at(0, 4)?;
        if header != MAGIC {
            return Err(HiveError::Format(format!(
                "not a SequenceFile: {path} (bad magic)"
            )));
        }
        Ok(SequenceReader {
            reader,
            width: schema.len(),
            projection,
            offset: 4,
            buf: Vec::new(),
            pos: 0,
        })
    }

    /// Ensure at least `need` unread bytes are buffered, if available.
    fn ensure(&mut self, need: usize) -> Result<()> {
        while self.buf.len() - self.pos < need && self.offset < self.reader.len() {
            let chunk = self.reader.read_at(self.offset, READ_CHUNK)?;
            self.offset += chunk.len() as u64;
            // Compact the consumed prefix occasionally.
            if self.pos > (1 << 20) {
                self.buf.drain(..self.pos);
                self.pos = 0;
            }
            self.buf.extend_from_slice(&chunk);
        }
        Ok(())
    }

    /// The next record's value: where it starts in `buf` and where it ends,
    /// or `None` at the end of the file.
    fn next_value(&mut self) -> Result<Option<(usize, usize)>> {
        self.ensure(10)?;
        if self.pos >= self.buf.len() {
            return Ok(None);
        }
        let key_len = hive_codec::varint::read_unsigned(&self.buf, &mut self.pos)? as usize;
        let val_len = hive_codec::varint::read_unsigned(&self.buf, &mut self.pos)? as usize;
        let truncated = || HiveError::Format("truncated SequenceFile record".into());
        let len = key_len.checked_add(val_len).ok_or_else(truncated)?;
        self.ensure(len)?;
        if self.buf.len() - self.pos < len {
            return Err(truncated());
        }
        self.pos += key_len; // keys are empty in Hive's usage
        let start = self.pos;
        self.pos += val_len;
        Ok(Some((start, self.pos)))
    }
}

fn disagrees() -> HiveError {
    HiveError::Format("SequenceFile value length disagrees with row encoding".into())
}

impl TableReader for SequenceReader {
    fn next_row(&mut self) -> Result<Option<Row>> {
        let Some((mut at, end)) = self.next_value()? else {
            return Ok(None);
        };
        let row = serde::binary_deserialize_row(&self.buf, &mut at)?;
        if at != end {
            return Err(disagrees());
        }
        if row.len() != self.width {
            return Err(HiveError::Format(format!(
                "SequenceFile record has {} values, schema expects {}",
                row.len(),
                self.width
            )));
        }
        Ok(Some(match &self.projection {
            Some(p) => row.project(p),
            None => row,
        }))
    }

    /// Rows decode straight into the batch's columns, building no value
    /// (a projecting reader goes through rows).
    fn next_batch(&mut self, batch: &mut VectorizedRowBatch) -> Result<bool> {
        batch.reset();
        let mut n = 0;
        while n < batch.max_size {
            if self.projection.is_some() {
                let Some(row) = self.next_row()? else { break };
                for (c, v) in row.values().iter().enumerate() {
                    hive_vector::row_convert::set_value(&mut batch.columns[c], n, v)?;
                }
            } else {
                let Some((mut at, end)) = self.next_value()? else {
                    break;
                };
                let columns = &mut batch.columns[..self.width];
                serde::binary_deserialize_into_columns(&self.buf, &mut at, columns, n)?;
                if at != end {
                    return Err(disagrees());
                }
            }
            n += 1;
        }
        batch.size = n;
        Ok(n > 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hive_common::Value;

    fn dfs() -> Dfs {
        Dfs::new(hive_dfs::DfsConfig {
            block_size: 1 << 20,
            replication: 1,
            nodes: 2,
        })
    }

    fn schema() -> Schema {
        Schema::parse(&[("id", "bigint"), ("payload", "map<string,int>")]).unwrap()
    }

    #[test]
    fn round_trip_with_complex_types() {
        let fs = dfs();
        let mut w: Box<dyn TableWriter> = Box::new(SequenceWriter::create(&fs, "/t/seq"));
        for i in 0..500 {
            w.write_row(&Row::new(vec![
                Value::Int(i),
                Value::Map(vec![(Value::String(format!("k{i}")), Value::Int(i * 2))]),
            ]))
            .unwrap();
        }
        w.close().unwrap();

        let mut r = SequenceReader::open(&fs, "/t/seq", schema(), None, None).unwrap();
        let mut n = 0i64;
        while let Some(row) = r.next_row().unwrap() {
            assert_eq!(row[0], Value::Int(n));
            n += 1;
        }
        assert_eq!(n, 500);
    }

    /// Batches read what rows read, batch after batch, and a part written
    /// from a batch's columns is the part written from its rows.
    #[test]
    fn batches_read_as_rows_and_cells_write_as_rows() {
        use hive_vector::row_convert::batch_to_rows;
        let fs = dfs();
        let schema = Schema::parse(&[("id", "bigint"), ("s", "string"), ("d", "double")]).unwrap();
        let types: Vec<DataType> = schema
            .fields()
            .iter()
            .map(|f| f.data_type.clone())
            .collect();
        let rows: Vec<Row> = (0..2500)
            .map(|i| {
                let s = match i % 7 {
                    0 => Value::Null,
                    _ => Value::String(format!("s{}", i % 13)),
                };
                Row::new(vec![Value::Int(i), s, Value::Double(i as f64 / 4.0)])
            })
            .collect();
        let mut w: Box<dyn TableWriter> = Box::new(SequenceWriter::create(&fs, "/t/rows"));
        rows.iter().for_each(|r| w.write_row(r).unwrap());
        w.close().unwrap();

        let mut r = SequenceReader::open(&fs, "/t/rows", schema.clone(), None, None).unwrap();
        let mut cells = SequenceWriter::create(&fs, "/t/cells");
        let columns: Vec<(usize, DataType)> = types.iter().cloned().enumerate().collect();
        let mut b = VectorizedRowBatch::new(&types, 1024).unwrap();
        let mut back = Vec::new();
        while r.next_batch(&mut b).unwrap() {
            back.extend(batch_to_rows(&b, &columns));
            cells.write_cells(&b, &columns);
        }
        assert_eq!(back, rows);
        Box::new(cells).close().unwrap();
        let read = |p: &str| fs.open(p, None).unwrap().read_all().unwrap();
        assert_eq!(read("/t/cells"), read("/t/rows"));
    }

    #[test]
    fn bad_magic_is_rejected() {
        let fs = dfs();
        let mut w = fs.create("/t/notseq");
        w.write(b"nope, not a sequence file");
        w.try_close().unwrap();
        assert!(SequenceReader::open(&fs, "/t/notseq", schema(), None, None).is_err());
    }

    #[test]
    fn empty_file_yields_no_rows() {
        let fs = dfs();
        let w: Box<dyn TableWriter> = Box::new(SequenceWriter::create(&fs, "/t/empty"));
        w.close().unwrap();
        let mut r = SequenceReader::open(&fs, "/t/empty", schema(), None, None).unwrap();
        assert!(r.next_row().unwrap().is_none());
    }

    #[test]
    fn projection_applies() {
        let fs = dfs();
        let mut w: Box<dyn TableWriter> = Box::new(SequenceWriter::create(&fs, "/t/proj"));
        w.write_row(&Row::new(vec![Value::Int(1), Value::Map(vec![])]))
            .unwrap();
        w.close().unwrap();
        let mut r = SequenceReader::open(&fs, "/t/proj", schema(), Some(vec![0]), None).unwrap();
        assert_eq!(r.next_row().unwrap().unwrap().values(), &[Value::Int(1)]);
    }
}
