#![allow(clippy::needless_range_loop)] // column order mirrors the file layout
//! RCFile (Record Columnar File) — the pre-ORC columnar format [He et al.,
//! ICDE 2011] as the paper characterizes it (Sections 3 and 4):
//!
//! * small row groups (4 MB by default — "stripes" in the paper's
//!   terminology),
//! * **data-type-agnostic**: each cell is serialized one row at a time by
//!   the *text* SerDe (Hive's ColumnarSerDe), so no type-specific encoding
//!   is possible and every read re-parses text,
//! * complex types are *not* decomposed — a `map` column is one opaque blob,
//! * no indexes and no predicate pushdown: every row group is read,
//! * lazy column skipping: a reader seeks over the byte ranges of
//!   unprojected columns (the one I/O saving RCFile does provide).
//!
//! Layout: `RCF1` magic, varint column count, then row groups. Each group:
//! varint row count, then per column a run-length-encoded cell-length
//! stream (real RCFile's "key part") followed by the concatenated text
//! cells (the "value part"); the header records both byte lengths.
//! The optional general-purpose codec applies per column value blob.

use crate::serde;
use crate::{TableReader, TableWriter};
use hive_codec::block::Compression;
use hive_common::{HiveError, Result, Row, Schema};
use hive_dfs::{Dfs, DfsReader, DfsWriter, NodeId};

const MAGIC: &[u8; 4] = b"RCF1";

/// Default row-group buffer size: 4 MB, per the paper.
pub const DEFAULT_ROW_GROUP_SIZE: usize = 4 << 20;

/// RCFile writer.
pub struct RcFileWriter {
    writer: DfsWriter,
    ncols: usize,
    cell: Vec<u8>,
    /// Per-column serialized cell buffers for the current row group.
    columns: Vec<Vec<u8>>,
    /// Per-column cell lengths (RLE-encoded at flush, like RCFile's key part).
    lengths: Vec<Vec<i64>>,
    rows_in_group: usize,
    row_group_size: usize,
    compression: Compression,
}

impl RcFileWriter {
    pub fn create(
        dfs: &Dfs,
        path: &str,
        schema: &Schema,
        row_group_size: usize,
        compression: Compression,
    ) -> RcFileWriter {
        let mut writer = dfs.create(path);
        writer.write(MAGIC);
        let mut hdr = Vec::new();
        hive_codec::varint::write_unsigned(&mut hdr, schema.len() as u64);
        hdr.push(match compression {
            Compression::None => 0,
            Compression::Snappy => 1,
            Compression::Zlib => 2,
        });
        writer.write(&hdr);
        RcFileWriter {
            writer,
            ncols: schema.len(),
            cell: Vec::new(),
            columns: vec![Vec::new(); schema.len()],
            lengths: vec![Vec::new(); schema.len()],
            rows_in_group: 0,
            row_group_size,
            compression,
        }
    }

    fn buffered_bytes(&self) -> usize {
        self.columns.iter().map(Vec::len).sum()
    }

    fn flush_group(&mut self) -> Result<()> {
        if self.rows_in_group == 0 {
            return Ok(());
        }
        let codec = self.compression.codec();
        // Per column: RLE'd length stream ("key part") + value blob.
        let mut keys: Vec<Vec<u8>> = Vec::with_capacity(self.ncols);
        let mut blobs: Vec<(Vec<u8>, usize)> = Vec::with_capacity(self.ncols);
        for (col, lens) in self.columns.iter_mut().zip(self.lengths.iter_mut()) {
            keys.push(hive_codec::int_rle::encode(lens));
            lens.clear();
            let raw_len = col.len();
            let blob = match &codec {
                Some(c) => c.compress(col),
                None => std::mem::take(col),
            };
            col.clear();
            blobs.push((blob, raw_len));
        }
        let mut header = Vec::new();
        hive_codec::varint::write_unsigned(&mut header, self.rows_in_group as u64);
        for (key, (blob, raw_len)) in keys.iter().zip(&blobs) {
            hive_codec::varint::write_unsigned(&mut header, key.len() as u64);
            hive_codec::varint::write_unsigned(&mut header, blob.len() as u64);
            hive_codec::varint::write_unsigned(&mut header, *raw_len as u64);
        }
        self.writer.write(&header);
        for (key, (blob, _)) in keys.iter().zip(&blobs) {
            self.writer.write(key);
            self.writer.write(blob);
        }
        self.rows_in_group = 0;
        Ok(())
    }
}

impl TableWriter for RcFileWriter {
    fn write_row(&mut self, row: &Row) -> Result<()> {
        if row.len() != self.ncols {
            return Err(HiveError::SerDe(format!(
                "row has {} columns, table has {}",
                row.len(),
                self.ncols
            )));
        }
        // One-row-at-a-time serialization: each cell appended independently
        // as length-prefixed text, exactly the structure that blocks
        // type-specific encoding (and costs a re-parse per read).
        self.cell.clear();
        for (c, v) in row.values().iter().enumerate() {
            self.cell.clear();
            serde::text_serialize_value(v, &mut self.cell);
            self.lengths[c].push(self.cell.len() as i64);
            self.columns[c].extend_from_slice(&self.cell);
        }
        self.rows_in_group += 1;
        if self.buffered_bytes() >= self.row_group_size {
            self.flush_group()?;
        }
        Ok(())
    }

    fn close(mut self: Box<Self>) -> Result<u64> {
        self.flush_group()?;
        self.writer.try_close()
    }

    fn memory_estimate(&self) -> usize {
        self.buffered_bytes()
    }
}

/// RCFile reader with lazy column skipping.
pub struct RcFileReader {
    reader: DfsReader,
    ncols: usize,
    compression: Compression,
    /// Projected top-level column indexes, in output order.
    projection: Vec<usize>,
    /// Data types of the projected columns (cells re-parse as text).
    projection_types: Vec<hive_common::DataType>,
    offset: u64,
    /// Decoded column cursors for the current group.
    group: Option<GroupCursor>,
    /// Split byte range; groups starting outside it are skipped/stopped at.
    split: Option<(u64, u64)>,
}

struct GroupCursor {
    rows_left: usize,
    /// Per projected column: (cell lengths, value bytes, row idx, byte pos).
    cols: Vec<(Vec<i64>, Vec<u8>, usize, usize)>,
}

impl RcFileReader {
    pub fn open(
        dfs: &Dfs,
        path: &str,
        schema: &Schema,
        projection: Option<Vec<usize>>,
        node: Option<NodeId>,
    ) -> Result<RcFileReader> {
        let mut reader = dfs.open(path, node)?;
        let header = reader.read_at(0, 4 + 10 + 1)?;
        if header.len() < 6 || &header[..4] != MAGIC {
            return Err(HiveError::Format(format!("not an RCFile: {path}")));
        }
        let mut pos = 4;
        let ncols = hive_codec::varint::read_unsigned(&header, &mut pos)? as usize;
        let compression = match header.get(pos) {
            Some(0) => Compression::None,
            Some(1) => Compression::Snappy,
            Some(2) => Compression::Zlib,
            _ => return Err(HiveError::Format("bad RCFile compression flag".into())),
        };
        pos += 1;
        if ncols != schema.len() {
            return Err(HiveError::Format(format!(
                "RCFile has {ncols} columns, schema expects {}",
                schema.len()
            )));
        }
        let projection = projection.unwrap_or_else(|| (0..ncols).collect());
        let projection_types = projection
            .iter()
            .map(|&i| schema.field(i).data_type.clone())
            .collect();
        Ok(RcFileReader {
            reader,
            ncols,
            compression,
            projection,
            projection_types,
            offset: pos as u64,
            group: None,
            split: None,
        })
    }

    /// Restrict to row groups whose start offset lies in `[start, end)` —
    /// the reader scans group headers (the sync-marker walk of real RCFile)
    /// and skips the data bytes of groups it does not own.
    pub fn with_split(mut self, start: u64, end: u64) -> RcFileReader {
        self.split = Some((start, end));
        self
    }

    fn load_group(&mut self) -> Result<bool> {
        loop {
            if self.offset >= self.reader.len() {
                return Ok(false);
            }
            let group_start = self.offset;
            if let Some((_, end)) = self.split {
                if group_start >= end {
                    return Ok(false);
                }
            }
            // Group header: row count + (key_len, comp_len, raw_len) per
            // column. Sized generously; varints are tiny.
            let hdr = self.reader.read_at(self.offset, 10 + self.ncols * 30)?;
            let mut pos = 0usize;
            let nrows = hive_codec::varint::read_unsigned(&hdr, &mut pos)? as usize;
            let mut lens = Vec::with_capacity(self.ncols);
            for _ in 0..self.ncols {
                let key = hive_codec::varint::read_unsigned(&hdr, &mut pos)? as usize;
                let comp = hive_codec::varint::read_unsigned(&hdr, &mut pos)? as usize;
                let raw = hive_codec::varint::read_unsigned(&hdr, &mut pos)? as usize;
                lens.push((key, comp, raw));
            }
            let mut data_off = self.offset + pos as u64;
            if let Some((start, _)) = self.split {
                if group_start < start {
                    // Not our group: hop over its data without reading it.
                    let data_len = lens
                        .iter()
                        .map(|&(k, c, _)| (k as u64).saturating_add(c as u64));
                    self.offset = data_len.fold(data_off, u64::saturating_add);
                    continue;
                }
            }
            let codec = self.compression.codec();
            let mut cols = Vec::with_capacity(self.projection.len());
            // Read projected columns; *seek over* the rest (lazy column skip).
            // Columns must be fetched in file order to keep seek accounting
            // honest; output order is restored below.
            let mut by_file_order: Vec<(usize, Vec<i64>, Vec<u8>)> = Vec::new();
            for c in 0..self.ncols {
                let (key_len, comp_len, _raw) = lens[c];
                if self.projection.contains(&c) {
                    let key = self.reader.read_at(data_off, key_len)?;
                    let cell_lens = hive_codec::int_rle::decode(&key)?;
                    let blob = self
                        .reader
                        .read_at(data_off.saturating_add(key_len as u64), comp_len)?;
                    let buf = match &codec {
                        Some(codec) => codec.decompress(&blob)?,
                        None => blob.into_vec(),
                    };
                    by_file_order.push((c, cell_lens, buf));
                }
                data_off = data_off
                    .saturating_add(key_len as u64)
                    .saturating_add(comp_len as u64);
            }
            self.offset = data_off;
            for &p in &self.projection {
                let (cell_lens, buf) = by_file_order
                    .iter()
                    .find(|(c, _, _)| *c == p)
                    .map(|(_, l, b)| (l.clone(), b.clone()))
                    .ok_or_else(|| HiveError::Format("projected column missing".into()))?;
                cols.push((cell_lens, buf, 0usize, 0usize));
            }
            self.group = Some(GroupCursor {
                rows_left: nrows,
                cols,
            });
            return Ok(true);
        }
    }
}

impl TableReader for RcFileReader {
    fn next_row(&mut self) -> Result<Option<Row>> {
        loop {
            match &mut self.group {
                Some(g) if g.rows_left > 0 => {
                    let mut vals = Vec::with_capacity(g.cols.len());
                    for ((lens, buf, row_idx, pos), dt) in
                        g.cols.iter_mut().zip(&self.projection_types)
                    {
                        let len = *lens.get(*row_idx).ok_or_else(|| {
                            HiveError::Format("RCFile length stream truncated".into())
                        })?;
                        // A length from the file: negative, or past the
                        // cell bytes left, is corrupt.
                        let left = buf.len() - *pos;
                        let len = usize::try_from(len)
                            .ok()
                            .filter(|&len| len <= left)
                            .ok_or_else(|| {
                                HiveError::Format(format!("RCFile cell length {len} is corrupt"))
                            })?;
                        let raw = &buf[*pos..*pos + len];
                        *pos += len;
                        *row_idx += 1;
                        vals.push(serde::text_deserialize_value(raw, dt)?);
                    }
                    g.rows_left -= 1;
                    return Ok(Some(Row::new(vals)));
                }
                _ => {
                    if !self.load_group()? {
                        return Ok(None);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hive_common::Value;

    fn dfs() -> Dfs {
        Dfs::new(hive_dfs::DfsConfig {
            block_size: 8 << 20,
            replication: 1,
            nodes: 2,
        })
    }

    fn schema() -> Schema {
        Schema::parse(&[("id", "bigint"), ("name", "string"), ("tags", "array<int>")]).unwrap()
    }

    fn make_row(i: i64) -> Row {
        Row::new(vec![
            Value::Int(i),
            Value::String(format!("name-{}", i % 50)),
            Value::Array(vec![Value::Int(i), Value::Int(i + 1)]),
        ])
    }

    fn write_file(fs: &Dfs, path: &str, n: i64, group: usize, comp: Compression) {
        let mut w: Box<dyn TableWriter> =
            Box::new(RcFileWriter::create(fs, path, &schema(), group, comp));
        for i in 0..n {
            w.write_row(&make_row(i)).unwrap();
        }
        w.close().unwrap();
    }

    #[test]
    fn round_trip_multiple_groups() {
        let fs = dfs();
        write_file(&fs, "/t/rc", 5000, 8 << 10, Compression::None);
        let mut r = RcFileReader::open(&fs, "/t/rc", &schema(), None, None).unwrap();
        let mut n = 0i64;
        while let Some(row) = r.next_row().unwrap() {
            assert_eq!(row, make_row(n));
            n += 1;
        }
        assert_eq!(n, 5000);
    }

    #[test]
    fn round_trip_with_compression() {
        let fs = dfs();
        for comp in [Compression::Snappy, Compression::Zlib] {
            let path = format!("/t/rc-{comp}");
            write_file(&fs, &path, 2000, 8 << 10, comp);
            let mut r = RcFileReader::open(&fs, &path, &schema(), None, None).unwrap();
            let mut n = 0i64;
            while let Some(row) = r.next_row().unwrap() {
                assert_eq!(row, make_row(n));
                n += 1;
            }
            assert_eq!(n, 2000);
        }
    }

    #[test]
    fn compression_shrinks_file() {
        let fs = dfs();
        write_file(&fs, "/t/rc-plain", 5000, 64 << 10, Compression::None);
        write_file(&fs, "/t/rc-snappy", 5000, 64 << 10, Compression::Snappy);
        assert!(fs.len("/t/rc-snappy").unwrap() < fs.len("/t/rc-plain").unwrap());
    }

    #[test]
    fn projection_skips_unneeded_column_bytes() {
        let fs = dfs();
        write_file(&fs, "/t/rc-proj", 5000, 16 << 10, Compression::None);

        let before = fs.stats().snapshot();
        let mut r = RcFileReader::open(&fs, "/t/rc-proj", &schema(), None, None).unwrap();
        while r.next_row().unwrap().is_some() {}
        let full = fs.stats().snapshot().since(&before).bytes_read();

        let before = fs.stats().snapshot();
        let mut r = RcFileReader::open(&fs, "/t/rc-proj", &schema(), Some(vec![0]), None).unwrap();
        let mut n = 0i64;
        while let Some(row) = r.next_row().unwrap() {
            assert_eq!(row.values(), &[Value::Int(n)]);
            n += 1;
        }
        let projected = fs.stats().snapshot().since(&before).bytes_read();
        assert!(
            projected < full / 2,
            "lazy column skip should cut bytes: {projected} vs {full}"
        );
    }

    #[test]
    fn complex_column_is_one_blob() {
        // Reading just the array column costs its whole serialized form —
        // RCFile cannot decompose it (ORC can).
        let fs = dfs();
        write_file(&fs, "/t/rc-cplx", 100, 16 << 10, Compression::None);
        let mut r = RcFileReader::open(&fs, "/t/rc-cplx", &schema(), Some(vec![2]), None).unwrap();
        let row = r.next_row().unwrap().unwrap();
        assert_eq!(row[0], Value::Array(vec![Value::Int(0), Value::Int(1)]));
    }

    #[test]
    fn schema_mismatch_rejected() {
        let fs = dfs();
        write_file(&fs, "/t/rc-s", 10, 8 << 10, Compression::None);
        let narrow = Schema::parse(&[("only", "bigint")]).unwrap();
        assert!(RcFileReader::open(&fs, "/t/rc-s", &narrow, None, None).is_err());
    }

    /// Every byte of a small file, flipped with each mask, reads to rows or
    /// an error: a length from the file never wraps a slice bound.
    #[test]
    fn flipped_bytes_never_panic() {
        let fs = dfs();
        for comp in [Compression::None, Compression::Snappy] {
            write_file(&fs, "/t/rc-flip", 12, 256, comp);
            let clean = fs.open("/t/rc-flip", None).unwrap().read_all().unwrap();
            for at in 0..clean.len() {
                for mask in [0x01u8, 0x80, 0xFF] {
                    let mut bytes = clean.to_vec();
                    bytes[at] ^= mask;
                    let mut w = fs.create("/t/rc-flipped");
                    w.write(&bytes);
                    w.try_close().unwrap();
                    let read = || -> Result<usize> {
                        let mut r =
                            RcFileReader::open(&fs, "/t/rc-flipped", &schema(), None, None)?;
                        let mut n = 0;
                        while r.next_row()?.is_some() {
                            n += 1;
                        }
                        Ok(n)
                    };
                    let outcome = std::panic::catch_unwind(read);
                    assert!(outcome.is_ok(), "{comp}: byte {at} ^ {mask:#04x} panicked");
                }
            }
        }
    }
}
