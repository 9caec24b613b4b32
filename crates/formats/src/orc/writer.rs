//! The ORC writer (paper Sections 4.1–4.4).
//!
//! The writer is *data-type aware*: it decomposes complex columns into the
//! column tree (Table 1), buffers an entire stripe in memory, and at stripe
//! flush encodes every column with type-specific stream encodings, records
//! per-index-group statistics and position pointers, optionally compresses
//! streams in fixed-size units, optionally pads so stripes never straddle
//! DFS blocks, and cooperates with the [`MemoryManager`] to bound the
//! footprint of many concurrent writers.

use crate::orc::bloom::{self, BloomFilter, ColumnBloom};
use crate::orc::memory::{MemoryManager, Registration};
use crate::orc::stats::{ColumnStatistics, OrderTracker};
use crate::orc::{
    encode_file_footer, encode_postscript, encode_stripe_footer, frame_chunk, ChunkInfo,
    ColumnEncoding, ColumnStreams, FileFooter, PostScript, StreamInfo, StreamKind, StripeFooter,
    StripeInfo, DEFAULT_BLOOM_FPP, DEFAULT_COMPRESS_UNIT, DEFAULT_ROW_INDEX_STRIDE,
};
use crate::TableWriter;
use hive_codec::block::Compression;
use hive_codec::dictionary::{DictionaryBuilder, StringEncoding};
use hive_codec::{bitfield, byte_rle, int_rle, varint};
use hive_common::key::{self, KeyOrd};
use hive_common::{ColumnTree, DataType, HiveError, Result, Row, Schema, Value};
use hive_dfs::{Dfs, DfsWriter};

/// Writer configuration; defaults follow the paper.
#[derive(Debug, Clone)]
pub struct OrcWriterOptions {
    /// Target (buffered, uncompressed) stripe size; paper default 256 MB.
    pub stripe_size: usize,
    /// Rows per index group; paper default 10,000.
    pub row_index_stride: usize,
    /// Dictionary distinct/total threshold; paper default 0.8.
    pub dictionary_threshold: f64,
    pub compression: Compression,
    pub compress_unit: usize,
    /// Pad so a stripe never straddles a DFS block (Section 4.1).
    pub block_padding: bool,
    /// Top-level column indices to build per-index-group bloom filters
    /// for (`hive.orc.bloom.filter.columns` resolved against the schema).
    pub bloom_columns: Vec<usize>,
    /// Target false-positive probability of those filters.
    pub bloom_fpp: f64,
}

impl Default for OrcWriterOptions {
    fn default() -> Self {
        OrcWriterOptions {
            stripe_size: 256 << 20,
            row_index_stride: DEFAULT_ROW_INDEX_STRIDE,
            dictionary_threshold: 0.8,
            compression: Compression::None,
            compress_unit: DEFAULT_COMPRESS_UNIT,
            block_padding: true,
            bloom_columns: Vec::new(),
            bloom_fpp: DEFAULT_BLOOM_FPP,
        }
    }
}

/// Per-column in-memory stripe buffer.
#[derive(Default)]
struct ColumnBuffer {
    /// One presence bit per instance of this column.
    present: Vec<bool>,
    any_null: bool,
    /// Int/timestamp values; array/map lengths.
    longs: Vec<i64>,
    /// Boolean values.
    bools: Vec<bool>,
    doubles: Vec<f64>,
    /// String values (dictionary decision deferred to stripe flush).
    dict: DictionaryBuilder,
    /// Union tags.
    tags: Vec<u8>,
    /// Buffer lengths at each completed index-group boundary.
    marks: Vec<Mark>,
}

#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Mark {
    present: usize,
    longs: usize,
    bools: usize,
    doubles: usize,
    strings: usize,
    tags: usize,
}

impl ColumnBuffer {
    fn mark(&self) -> Mark {
        Mark {
            present: self.present.len(),
            longs: self.longs.len(),
            bools: self.bools.len(),
            doubles: self.doubles.len(),
            strings: self.dict.num_values(),
            tags: self.tags.len(),
        }
    }

    fn memory_size(&self) -> usize {
        self.present.len() / 8
            + self.longs.len() * 8
            + self.bools.len()
            + self.doubles.len() * 8
            + self.dict.memory_size()
            + self.tags.len()
    }

    fn clear(&mut self) {
        self.present.clear();
        self.any_null = false;
        self.longs.clear();
        self.bools.clear();
        self.doubles.clear();
        self.dict.clear();
        self.tags.clear();
        self.marks.clear();
    }
}

/// The ORC file writer.
pub struct OrcWriter {
    writer: DfsWriter,
    schema: Schema,
    tree: ColumnTree,
    options: OrcWriterOptions,
    buffers: Vec<ColumnBuffer>,
    rows_in_stripe: u64,
    rows_in_group: usize,
    total_rows: u64,
    stripes: Vec<StripeInfo>,
    stripe_stats: Vec<Vec<ColumnStatistics>>,
    /// Per top-level column: whether its values have come in key order.
    order: Vec<OrderTracker>,
    registration: Option<Registration>,
    /// Total padding bytes written (exposed for tests/diagnostics).
    pub padding_bytes: u64,
}

impl OrcWriter {
    pub fn create(
        dfs: &Dfs,
        path: &str,
        schema: &Schema,
        options: OrcWriterOptions,
        memory: Option<&MemoryManager>,
    ) -> OrcWriter {
        let tree = schema.column_tree();
        let buffers = (0..tree.len()).map(|_| ColumnBuffer::default()).collect();
        let registration = memory.map(|m| m.register(options.stripe_size as u64));
        OrcWriter {
            writer: dfs.create(path),
            schema: schema.clone(),
            tree,
            options,
            buffers,
            rows_in_stripe: 0,
            rows_in_group: 0,
            total_rows: 0,
            stripes: Vec::new(),
            stripe_stats: Vec::new(),
            order: vec![OrderTracker::default(); schema.len()],
            registration,
            padding_bytes: 0,
        }
    }

    /// The stripe budget currently in force (memory manager may shrink it).
    fn effective_stripe_size(&self) -> usize {
        match &self.registration {
            Some(r) => r.effective_stripe_size() as usize,
            None => self.options.stripe_size,
        }
    }

    fn buffered_memory(&self) -> usize {
        self.buffers.iter().map(ColumnBuffer::memory_size).sum()
    }

    /// Recursively append one value into the column subtree rooted at `col`.
    fn write_value(&mut self, col: usize, value: &Value) -> Result<()> {
        let dt = self.tree.node(col).data_type.clone();
        let is_null = value.is_null();
        {
            let buf = &mut self.buffers[col];
            buf.present.push(!is_null);
            buf.any_null |= is_null;
        }
        if is_null {
            return Ok(());
        }
        match (&dt, value) {
            (DataType::Int, Value::Int(v)) | (DataType::Timestamp, Value::Timestamp(v)) => {
                self.buffers[col].longs.push(*v);
            }
            (DataType::Int, Value::Timestamp(v)) | (DataType::Timestamp, Value::Int(v)) => {
                self.buffers[col].longs.push(*v);
            }
            (DataType::Int, Value::Boolean(b)) => self.buffers[col].longs.push(*b as i64),
            (DataType::Boolean, Value::Boolean(b)) => self.buffers[col].bools.push(*b),
            (DataType::Double, Value::Double(v)) => self.buffers[col].doubles.push(*v),
            (DataType::Double, Value::Int(v)) => self.buffers[col].doubles.push(*v as f64),
            (DataType::String, Value::String(s)) => self.buffers[col].dict.add(s.as_bytes()),
            (DataType::Array(_), Value::Array(items)) => {
                self.buffers[col].longs.push(items.len() as i64);
                let child = self.tree.node(col).children[0];
                for it in items {
                    self.write_value(child, it)?;
                }
            }
            (DataType::Map(_, _), Value::Map(entries)) => {
                self.buffers[col].longs.push(entries.len() as i64);
                let kcol = self.tree.node(col).children[0];
                let vcol = self.tree.node(col).children[1];
                for (k, v) in entries {
                    self.write_value(kcol, k)?;
                    self.write_value(vcol, v)?;
                }
            }
            (DataType::Struct(fields), Value::Struct(vals)) => {
                if fields.len() != vals.len() {
                    return Err(HiveError::SerDe(format!(
                        "struct has {} values, type has {} fields",
                        vals.len(),
                        fields.len()
                    )));
                }
                let children = self.tree.node(col).children.clone();
                for (child, v) in children.iter().zip(vals.iter()) {
                    self.write_value(*child, v)?;
                }
            }
            (DataType::Union(alts), Value::Union(tag, v)) => {
                if *tag as usize >= alts.len() {
                    return Err(HiveError::SerDe(format!("union tag {tag} out of range")));
                }
                self.buffers[col].tags.push(*tag);
                let child = self.tree.node(col).children[*tag as usize];
                self.write_value(child, v)?;
            }
            (dt, v) => {
                return Err(HiveError::SerDe(format!(
                    "value {v} does not match column type {dt}"
                )))
            }
        }
        Ok(())
    }

    fn end_group(&mut self) {
        for buf in &mut self.buffers {
            let m = buf.mark();
            buf.marks.push(m);
        }
        self.rows_in_group = 0;
    }

    fn flush_stripe(&mut self) -> Result<()> {
        if self.rows_in_stripe == 0 {
            return Ok(());
        }
        if self.rows_in_group > 0 {
            self.end_group();
        }
        let compression = self.options.compression;
        let unit = self.options.compress_unit;
        let threshold = self.options.dictionary_threshold;

        let mut columns: Vec<ColumnStreams> = Vec::with_capacity(self.tree.len());
        let mut group_stats: Vec<Vec<ColumnStatistics>> = Vec::with_capacity(self.tree.len());
        let mut data: Vec<u8> = Vec::new();

        for col in 0..self.tree.len() {
            let dt = self.tree.node(col).data_type.clone();
            let is_root = col == 0;
            let (streams, stats) = encode_column(
                &self.buffers[col],
                &dt,
                is_root,
                threshold,
                compression,
                unit,
                &mut data,
            )?;
            columns.push(streams);
            group_stats.push(stats);
        }

        // Index section: per column, group count + per-group statistics.
        let mut index = Vec::new();
        for stats in &group_stats {
            varint::write_unsigned(&mut index, stats.len() as u64);
            for s in stats {
                s.encode(&mut index);
            }
        }

        // Bloom-filter section: one filter per (configured column, index
        // group), CRC-trailed so tampering degrades independently of the
        // DFS block checksums. Empty when no bloom columns are configured,
        // costing zero bytes.
        let bloom_section = self.build_bloom_section();

        // Stripe footer.
        let footer = StripeFooter {
            nrows: self.rows_in_stripe,
            columns,
        };
        let mut footer_buf = Vec::new();
        encode_stripe_footer(&footer, &mut footer_buf);

        // Block padding (Section 4.1): if the stripe would straddle a block
        // and fits in one, pad to the block boundary first.
        let stripe_len = (index.len() + bloom_section.len() + data.len() + footer_buf.len()) as u64;
        if self.options.block_padding {
            let remaining = self.writer.block_remaining();
            if stripe_len > remaining && stripe_len <= self.writer.block_size() {
                self.padding_bytes += remaining;
                self.writer.pad(remaining);
            }
        }

        let offset = self.writer.position();
        self.writer.write(&index);
        self.writer.write(&bloom_section);
        self.writer.write(&data);
        self.writer.write(&footer_buf);
        self.stripes.push(StripeInfo {
            offset,
            index_len: index.len() as u64,
            bloom_len: bloom_section.len() as u64,
            data_len: data.len() as u64,
            footer_len: footer_buf.len() as u64,
            nrows: self.rows_in_stripe,
        });

        // Roll group stats up into stripe stats.
        let mut per_stripe = Vec::with_capacity(self.tree.len());
        for stats in &group_stats {
            let mut it = stats.iter();
            let mut acc = it.next().cloned().unwrap_or(ColumnStatistics::Generic {
                count: 0,
                has_null: false,
            });
            for s in it {
                acc.merge(s)?;
            }
            per_stripe.push(acc);
        }
        self.stripe_stats.push(per_stripe);

        for buf in &mut self.buffers {
            buf.clear();
        }
        self.rows_in_stripe = 0;
        self.rows_in_group = 0;
        Ok(())
    }

    /// Build the serialized bloom section for the stripe being flushed:
    /// for each configured top-level column of a hashable type, one
    /// filter per completed index group, sized for the group's value
    /// count at the configured false-positive probability.
    fn build_bloom_section(&self) -> Vec<u8> {
        if self.options.bloom_columns.is_empty() {
            return Vec::new();
        }
        let fpp = self.options.bloom_fpp;
        let mut cols: Vec<ColumnBloom> = Vec::new();
        for &i in &self.options.bloom_columns {
            if i >= self.schema.len() {
                continue;
            }
            let node = self.tree.top_level(i);
            let dt = &self.tree.node(node).data_type;
            let buf = &self.buffers[node];
            let ngroups = buf.marks.len();
            let mark_at = |g: usize| -> Mark {
                if g == 0 {
                    Mark::default()
                } else {
                    buf.marks[g - 1]
                }
            };
            let mut groups: Vec<BloomFilter> = Vec::with_capacity(ngroups);
            for g in 0..ngroups {
                let (m0, m1) = (mark_at(g), buf.marks[g]);
                let filter = match dt {
                    DataType::Int | DataType::Timestamp => {
                        let vals = &buf.longs[m0.longs..m1.longs];
                        let mut f = BloomFilter::with_expected(vals.len(), fpp);
                        for v in vals {
                            f.add_hash(bloom::hash_i64(*v));
                        }
                        f
                    }
                    DataType::Double => {
                        let vals = &buf.doubles[m0.doubles..m1.doubles];
                        let mut f = BloomFilter::with_expected(vals.len(), fpp);
                        for v in vals {
                            f.add_hash(bloom::hash_f64(*v));
                        }
                        f
                    }
                    DataType::Boolean => {
                        let vals = &buf.bools[m0.bools..m1.bools];
                        let mut f = BloomFilter::with_expected(vals.len(), fpp);
                        for v in vals {
                            f.add_hash(bloom::hash_i64(*v as i64));
                        }
                        f
                    }
                    DataType::String => {
                        let entries = buf.dict.entries();
                        let ids = &buf.dict.row_ids()[m0.strings..m1.strings];
                        let mut f = BloomFilter::with_expected(ids.len(), fpp);
                        for &id in ids {
                            // Dictionary entries are the strings' UTF-8
                            // bytes, so this matches `hash_str` on the
                            // predicate literal exactly.
                            f.add_hash(bloom::hash_bytes(&entries[id as usize]));
                        }
                        f
                    }
                    // Complex types carry no bloom filters.
                    _ => break,
                };
                groups.push(filter);
            }
            if groups.len() == ngroups {
                cols.push(ColumnBloom { column: i, groups });
            }
        }
        if cols.is_empty() {
            return Vec::new();
        }
        bloom::encode_section(&cols)
    }
}

impl TableWriter for OrcWriter {
    fn write_row(&mut self, row: &Row) -> Result<()> {
        if row.len() != self.schema.len() {
            return Err(HiveError::SerDe(format!(
                "row has {} columns, table has {}",
                row.len(),
                self.schema.len()
            )));
        }
        // The root column is the row struct itself.
        self.buffers[0].present.push(true);
        for (i, v) in row.values().iter().enumerate() {
            let col = self.tree.top_level(i);
            self.order[i].observe(&self.tree.node(col).data_type, v);
            self.write_value(col, v)?;
        }
        self.rows_in_stripe += 1;
        self.rows_in_group += 1;
        self.total_rows += 1;
        if self.rows_in_group >= self.options.row_index_stride {
            self.end_group();
        }
        if self.buffered_memory() >= self.effective_stripe_size() {
            self.flush_stripe()?;
        }
        Ok(())
    }

    fn close(mut self: Box<Self>) -> Result<u64> {
        self.flush_stripe()?;
        // File-level statistics: merge stripe stats.
        let ncols = self.tree.len();
        let mut file_stats: Vec<ColumnStatistics> = Vec::with_capacity(ncols);
        for col in 0..ncols {
            let mut acc: Option<ColumnStatistics> = None;
            for per in &self.stripe_stats {
                match &mut acc {
                    Some(a) => a.merge(&per[col])?,
                    None => acc = Some(per[col].clone()),
                }
            }
            file_stats.push(acc.unwrap_or(ColumnStatistics::Generic {
                count: 0,
                has_null: false,
            }));
        }
        let mut ordered = vec![false; ncols];
        for (i, tracker) in self.order.iter().enumerate() {
            ordered[self.tree.top_level(i)] = tracker.ordered();
        }
        let footer = FileFooter {
            nrows: self.total_rows,
            type_string: self.schema.as_struct_type().to_string(),
            row_index_stride: self.options.row_index_stride as u64,
            stripes: std::mem::take(&mut self.stripes),
            stripe_stats: std::mem::take(&mut self.stripe_stats),
            file_stats,
            ordered,
        };
        let mut footer_buf = Vec::new();
        encode_file_footer(&footer, &mut footer_buf);
        self.writer.write(&footer_buf);
        let mut ps_buf = Vec::new();
        encode_postscript(
            &PostScript {
                footer_len: footer_buf.len() as u64,
                compression: self.options.compression,
                compress_unit: self.options.compress_unit as u64,
            },
            &mut ps_buf,
        );
        self.writer.write(&ps_buf);
        self.writer.try_close()
    }

    fn memory_estimate(&self) -> usize {
        self.buffered_memory()
    }
}

/// Encode one column's stripe buffer into streams appended to `data`.
/// Returns the stream directory and per-group statistics.
#[allow(clippy::too_many_arguments)]
fn encode_column(
    buf: &ColumnBuffer,
    dt: &DataType,
    is_root: bool,
    dict_threshold: f64,
    compression: Compression,
    unit: usize,
    data: &mut Vec<u8>,
) -> Result<(ColumnStreams, Vec<ColumnStatistics>)> {
    let ngroups = buf.marks.len();
    let mut streams: Vec<StreamInfo> = Vec::new();
    let mut encoding = None;

    // Group boundary helper: start/end marks of group g.
    let mark_at = |g: usize| -> Mark {
        if g == 0 {
            Mark::default()
        } else {
            buf.marks[g - 1]
        }
    };

    // PRESENT stream, only when the stripe saw a null (root never does).
    if buf.any_null && !is_root {
        let mut stream_bytes = Vec::new();
        let mut chunks = Vec::with_capacity(ngroups);
        for g in 0..ngroups {
            let (s, e) = (mark_at(g).present, buf.marks[g].present);
            let raw = bitfield::encode(&buf.present[s..e]);
            let framed = frame_chunk(&raw, compression, unit);
            chunks.push(ChunkInfo {
                offset: stream_bytes.len() as u64,
                len: framed.len() as u64,
                values: (e - s) as u64,
            });
            stream_bytes.extend_from_slice(&framed);
        }
        streams.push(StreamInfo {
            kind: StreamKind::Present,
            len: stream_bytes.len() as u64,
            chunks,
        });
        data.extend_from_slice(&stream_bytes);
    }

    // Helper to emit a per-group stream from a closure producing raw bytes
    // plus a value count per group.
    let emit_stream = |kind: StreamKind,
                       data: &mut Vec<u8>,
                       per_group: &mut dyn FnMut(usize) -> (Vec<u8>, u64)| {
        let mut stream_bytes = Vec::new();
        let mut chunks = Vec::with_capacity(ngroups);
        for g in 0..ngroups {
            let (raw, values) = per_group(g);
            let framed = frame_chunk(&raw, compression, unit);
            chunks.push(ChunkInfo {
                offset: stream_bytes.len() as u64,
                len: framed.len() as u64,
                values,
            });
            stream_bytes.extend_from_slice(&framed);
        }
        let info = StreamInfo {
            kind,
            len: stream_bytes.len() as u64,
            chunks,
        };
        data.extend_from_slice(&stream_bytes);
        info
    };

    let mut stats: Vec<ColumnStatistics> = Vec::with_capacity(ngroups);

    match dt {
        DataType::Int | DataType::Timestamp => {
            encoding = Some(ColumnEncoding::Direct);
            let info = emit_stream(StreamKind::Data, data, &mut |g| {
                let (s, e) = (mark_at(g).longs, buf.marks[g].longs);
                (int_rle::encode(&buf.longs[s..e]), (e - s) as u64)
            });
            streams.push(info);
            for g in 0..ngroups {
                let m0 = mark_at(g);
                let m1 = buf.marks[g];
                let vals = &buf.longs[m0.longs..m1.longs];
                let has_null = buf.present[m0.present..m1.present].iter().any(|p| !p);
                stats.push(int_stats(vals, has_null));
            }
        }
        DataType::Boolean => {
            encoding = Some(ColumnEncoding::Direct);
            let info = emit_stream(StreamKind::Data, data, &mut |g| {
                let (s, e) = (mark_at(g).bools, buf.marks[g].bools);
                (bitfield::encode(&buf.bools[s..e]), (e - s) as u64)
            });
            streams.push(info);
            for g in 0..ngroups {
                let m0 = mark_at(g);
                let m1 = buf.marks[g];
                let vals = &buf.bools[m0.bools..m1.bools];
                let has_null = buf.present[m0.present..m1.present].iter().any(|p| !p);
                stats.push(ColumnStatistics::Boolean {
                    count: vals.len() as u64,
                    has_null,
                    true_count: vals.iter().filter(|b| **b).count() as u64,
                });
            }
        }
        DataType::Double => {
            encoding = Some(ColumnEncoding::Direct);
            let info = emit_stream(StreamKind::Data, data, &mut |g| {
                let (s, e) = (mark_at(g).doubles, buf.marks[g].doubles);
                let mut raw = Vec::with_capacity((e - s) * 8);
                for v in &buf.doubles[s..e] {
                    raw.extend_from_slice(&v.to_le_bytes());
                }
                (raw, (e - s) as u64)
            });
            streams.push(info);
            for g in 0..ngroups {
                let m0 = mark_at(g);
                let m1 = buf.marks[g];
                let vals = &buf.doubles[m0.doubles..m1.doubles];
                let has_null = buf.present[m0.present..m1.present].iter().any(|p| !p);
                stats.push(double_stats(vals, has_null));
            }
        }
        DataType::String => {
            // The paper's dictionary decision: dictionary-encode when
            // distinct/total ≤ threshold, else store directly.
            let choice = buf.dict.choose(dict_threshold);
            match choice {
                StringEncoding::Dictionary => {
                    encoding = Some(ColumnEncoding::Dictionary {
                        size: buf.dict.num_distinct() as u64,
                    });
                    // Stripe-global dictionary streams (single chunk each).
                    let mut dict_bytes = Vec::new();
                    let mut dict_lens = int_rle::IntRleEncoder::new();
                    for e in buf.dict.entries() {
                        dict_bytes.extend_from_slice(e);
                        dict_lens.write(e.len() as i64);
                    }
                    for (kind, raw, values) in [
                        (
                            StreamKind::DictionaryData,
                            dict_bytes,
                            buf.dict.num_distinct() as u64,
                        ),
                        (
                            StreamKind::DictionaryLength,
                            dict_lens.finish(),
                            buf.dict.num_distinct() as u64,
                        ),
                    ] {
                        let framed = frame_chunk(&raw, compression, unit);
                        streams.push(StreamInfo {
                            kind,
                            len: framed.len() as u64,
                            chunks: vec![ChunkInfo {
                                offset: 0,
                                len: framed.len() as u64,
                                values,
                            }],
                        });
                        data.extend_from_slice(&framed);
                    }
                    // Row ids per group.
                    let row_ids = buf.dict.row_ids();
                    let info = emit_stream(StreamKind::Data, data, &mut |g| {
                        let (s, e) = (mark_at(g).strings, buf.marks[g].strings);
                        let ids: Vec<i64> = row_ids[s..e].iter().map(|&x| x as i64).collect();
                        (int_rle::encode(&ids), (e - s) as u64)
                    });
                    streams.push(info);
                }
                StringEncoding::Direct => {
                    encoding = Some(ColumnEncoding::Direct);
                    let entries = buf.dict.entries();
                    let row_ids = buf.dict.row_ids();
                    let info = emit_stream(StreamKind::Data, data, &mut |g| {
                        let (s, e) = (mark_at(g).strings, buf.marks[g].strings);
                        let mut raw = Vec::new();
                        for &id in &row_ids[s..e] {
                            raw.extend_from_slice(&entries[id as usize]);
                        }
                        (raw, (e - s) as u64)
                    });
                    streams.push(info);
                    let info = emit_stream(StreamKind::Length, data, &mut |g| {
                        let (s, e) = (mark_at(g).strings, buf.marks[g].strings);
                        let mut enc = int_rle::IntRleEncoder::new();
                        for &id in &row_ids[s..e] {
                            enc.write(entries[id as usize].len() as i64);
                        }
                        (enc.finish(), (e - s) as u64)
                    });
                    streams.push(info);
                }
            }
            for g in 0..ngroups {
                let m0 = mark_at(g);
                let m1 = buf.marks[g];
                let has_null = buf.present[m0.present..m1.present].iter().any(|p| !p);
                stats.push(string_stats(buf, m0.strings, m1.strings, has_null));
            }
        }
        DataType::Array(_) | DataType::Map(_, _) => {
            encoding = Some(ColumnEncoding::Direct);
            let info = emit_stream(StreamKind::Length, data, &mut |g| {
                let (s, e) = (mark_at(g).longs, buf.marks[g].longs);
                (int_rle::encode(&buf.longs[s..e]), (e - s) as u64)
            });
            streams.push(info);
            generic_group_stats(buf, &mark_at, ngroups, &mut stats);
        }
        DataType::Union(_) => {
            encoding = Some(ColumnEncoding::Direct);
            let info = emit_stream(StreamKind::Tags, data, &mut |g| {
                let (s, e) = (mark_at(g).tags, buf.marks[g].tags);
                (byte_rle::encode(&buf.tags[s..e]), (e - s) as u64)
            });
            streams.push(info);
            generic_group_stats(buf, &mark_at, ngroups, &mut stats);
        }
        DataType::Struct(_) => {
            generic_group_stats(buf, &mark_at, ngroups, &mut stats);
        }
    }

    Ok((ColumnStreams { encoding, streams }, stats))
}

fn generic_group_stats(
    buf: &ColumnBuffer,
    mark_at: &dyn Fn(usize) -> Mark,
    ngroups: usize,
    stats: &mut Vec<ColumnStatistics>,
) {
    for g in 0..ngroups {
        let (s, e) = (mark_at(g).present, buf.marks[g].present);
        let slice = &buf.present[s..e];
        stats.push(ColumnStatistics::Generic {
            count: slice.iter().filter(|p| **p).count() as u64,
            has_null: slice.iter().any(|p| !p),
        });
    }
}

fn int_stats(vals: &[i64], has_null: bool) -> ColumnStatistics {
    let mut min = None;
    let mut max = None;
    let mut sum: Option<i64> = Some(0);
    for &v in vals {
        min = Some(min.map_or(v, |m| key::least(m, v)));
        max = Some(max.map_or(v, |m| key::greatest(m, v)));
        sum = sum.and_then(|s| s.checked_add(v));
    }
    ColumnStatistics::Int {
        count: vals.len() as u64,
        has_null,
        min,
        max,
        sum: if vals.is_empty() { None } else { sum },
    }
}

/// Min and max by the key order, canonical: a span holding a NaN reports max
/// NaN, so SARGs and stats-answered MAX stay sound.
fn double_stats(vals: &[f64], has_null: bool) -> ColumnStatistics {
    let mut min = None;
    let mut max = None;
    let mut sum = 0.0;
    for &v in vals {
        let v_key = f64::from_bits(key::double_bits(v));
        min = Some(min.map_or(v_key, |m| key::least(m, v_key)));
        max = Some(max.map_or(v_key, |m| key::greatest(m, v_key)));
        sum += v;
    }
    ColumnStatistics::Double {
        count: vals.len() as u64,
        has_null,
        min,
        max,
        sum: if vals.is_empty() { None } else { Some(sum) },
    }
}

fn string_stats(buf: &ColumnBuffer, s: usize, e: usize, has_null: bool) -> ColumnStatistics {
    let entries = buf.dict.entries();
    let ids = &buf.dict.row_ids()[s..e];
    let mut min: Option<&[u8]> = None;
    let mut max: Option<&[u8]> = None;
    let mut total = 0u64;
    for &id in ids {
        let v: &[u8] = &entries[id as usize];
        if min.is_none_or(|m| v.key_lt(m)) {
            min = Some(v);
        }
        if max.is_none_or(|m| m.key_lt(v)) {
            max = Some(v);
        }
        total += v.len() as u64;
    }
    ColumnStatistics::String {
        count: ids.len() as u64,
        has_null,
        min: min.map(|b| b.to_vec()),
        max: max.map(|b| b.to_vec()),
        total_length: total,
    }
}
