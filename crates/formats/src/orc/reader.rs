#![allow(clippy::type_complexity, clippy::needless_range_loop)]
//! The ORC reader (paper Sections 4.2 and 6.5).
//!
//! Reading proceeds stripe by stripe:
//!
//! 1. stripe-level statistics (in the file footer) are tested against the
//!    pushed-down [`SearchArgument`]; stripes that cannot match are never
//!    read from the DFS;
//! 2. within a surviving stripe, the index section's per-group statistics
//!    select index groups; unselected groups' byte ranges are skipped using
//!    the position pointers;
//! 3. only the streams of projected columns are read — including *child*
//!    columns of complex types, which RCFile cannot do.
//!
//! The reader doubles as the **vectorized reader** (Section 6.5): a stripe's
//! decoded columns go straight into `VectorizedRowBatch` column vectors,
//! with the `no_nulls` flag set when a column had no PRESENT stream.
//!
//! **Eager what can fail, lazy what cannot.** Loading a stripe reads and
//! decodes everything that can go wrong — integer RLE, dictionary ids and
//! lengths, PRESENT bits, the length of a double stream, list and map
//! lengths, union tags — so corruption surfaces there (or, for counts that
//! disagree, in the `next_batch` or `next_row` that meets them) and salvage
//! under `skip_corrupt` sees it. What is left is
//! copying: the loaded stripe is immutable and `Arc`-shared
//! ([`StripeData`]), one routine ([`Wanted::gather`]) writes a column's
//! values for the rows that are wanted, doubles are decoded by it straight
//! from the stream's bytes, and strings are not copied at all — a bytes
//! vector refers to the stripe's dictionary or string data. A reader told
//! to ([`TableReader::defer_all_but`]) runs that routine only for the
//! columns a filter reads first and leaves the rest of the batch deferred,
//! to be filled through [`ColumnSource`] for the rows the filter keeps. The
//! row reader reads the same decoded columns, a value at a time
//! ([`StripeCursor::read_value`]).

use crate::orc::sarg::{SearchArgument, TruthValue};
use crate::orc::stats::ColumnStatistics;
use crate::orc::{
    decode_file_footer, decode_postscript, decode_stripe_footer, deframe_chunk, ColumnEncoding,
    StreamKind, StripeFooter, StripeInfo,
};
use crate::{ReadStats, TableReader};
use hive_codec::{bitfield, byte_rle, int_rle};
use hive_common::{ColumnTree, DataType, HiveError, Result, Row, Schema, Value};
use hive_dfs::{Dfs, DfsReader, NodeId};
use hive_vector::{
    BytesColumnVector, ColumnSource, ColumnVector, Dictionary, PrimitiveColumnVector,
    VectorizedRowBatch,
};
use std::borrow::Cow;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Options controlling an ORC read.
#[derive(Debug, Clone, Default)]
pub struct OrcReadOptions {
    /// Top-level columns to materialize (all when `None`).
    pub projection: Option<Vec<usize>>,
    /// Predicates pushed down to the reader.
    pub sarg: Option<SearchArgument>,
    /// Whether to use index-group statistics (`hive.optimize.index.filter`).
    /// When false, only stripe-level stats gate reads and the index section
    /// is not fetched (Fig. 10's "No PPD" configuration).
    pub use_index: bool,
    /// Reading node for locality accounting.
    pub node: Option<NodeId>,
    /// Input-split byte range: only stripes whose start offset falls in
    /// `[start, end)` are read (how Hive assigns stripes to map tasks).
    pub split: Option<(u64, u64)>,
    /// `hive.exec.orc.skip.corrupt.data`: instead of failing the read,
    /// skip stripes (or individual index groups) whose bytes fail checksum
    /// or decode, and count the rows lost in [`ReadStats::rows_skipped`].
    pub skip_corrupt: bool,
    /// Share decoded footers, stripe footers, and row-index statistics
    /// through the process-wide metadata cache, keyed by `(dfs instance,
    /// path, file generation)`; sessions turn it on whenever
    /// `hive.io.cache.bytes` is non-zero. When false the reader decodes
    /// privately.
    pub cache_metadata: bool,
    /// Which sorted copy of the file to read (`0` = the base file in
    /// insertion order; `k > 0` = the replica-slot-`k` variant chosen by
    /// replica-aware split planning). Variants carry their own DFS
    /// generations, so every cache tier stays copy-safe automatically.
    pub variant: usize,
}

/// A chunk's deframed bytes as a window of a shared buffer. For a chunk
/// stored as one uncompressed unit the buffer is the stream read itself —
/// the block cache's allocation, on a hit — and nothing was copied.
struct Window {
    buffer: Arc<Vec<u8>>,
    range: Range<usize>,
}

impl std::ops::Deref for Window {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.buffer[self.range.clone()]
    }
}

impl Window {
    /// Deframe the chunk at `framed` of `buffer`.
    fn deframe(
        buffer: &Arc<Vec<u8>>,
        framed: Range<usize>,
        compression: hive_codec::block::Compression,
    ) -> Result<Window> {
        let chunk = buffer
            .get(framed.clone())
            .ok_or_else(|| HiveError::Format("chunk range exceeds stream".into()))?;
        Ok(match deframe_chunk(chunk, compression)? {
            Cow::Borrowed(body) => Window {
                buffer: Arc::clone(buffer),
                range: framed.end - body.len()..framed.end,
            },
            Cow::Owned(raw) => Window {
                range: 0..raw.len(),
                buffer: Arc::new(raw),
            },
        })
    }
}

/// A double column's values as the stream has them: little-endian bytes, a
/// window per chunk, decoded only into the batch that wants them.
#[derive(Default)]
struct Doubles {
    chunks: Vec<Window>,
    /// Values in chunks `0..=c`.
    ends: Vec<usize>,
}

impl Doubles {
    fn len(&self) -> usize {
        self.ends.last().copied().unwrap_or(0)
    }

    /// Chunk `c`: its bytes, and the values `first..end` they hold.
    #[inline]
    fn chunk(&self, c: usize) -> (&[u8], usize, usize) {
        let first = if c == 0 { 0 } else { self.ends[c - 1] };
        (&self.chunks[c], first, self.ends[c])
    }

    fn get(&self, k: usize) -> Option<f64> {
        let c = self.ends.partition_point(|&end| end <= k);
        (c < self.chunks.len()).then(|| {
            let (bytes, first, _) = self.chunk(c);
            le_doubles(&bytes[(k - first) * 8..][..8])
                .next()
                .expect("one value")
        })
    }
}

/// The doubles little-endian `bytes` hold.
#[inline(always)]
fn le_doubles(bytes: &[u8]) -> impl ExactSizeIterator<Item = f64> + '_ {
    let value = |b: &[u8]| f64::from_le_bytes(b.try_into().expect("eight bytes"));
    bytes.chunks_exact(8).map(value)
}

/// Decoded data of one column for the selected groups of a stripe.
enum DecodedData {
    Longs(Vec<i64>),
    Bools(Vec<bool>),
    Doubles(Doubles),
    /// Every id is an entry of `dictionary`: checked when decoded.
    StringsDict {
        dictionary: Arc<Dictionary>,
        ids: Vec<u32>,
    },
    StringsDirect {
        data: Arc<Vec<u8>>,
        /// Value `k` is `data[bounds[k]..bounds[k + 1]]`: checked when
        /// decoded.
        bounds: Vec<u32>,
    },
    /// Every length is in `0..=MAX_ENTRIES`: checked when decoded.
    Lengths(Vec<i64>),
    /// Every tag names a variant: checked when decoded.
    Tags(Vec<u8>),
    /// Structural only (struct) or column not data-bearing.
    None,
}

/// The most entries one list or map may hold.
const MAX_ENTRIES: i64 = 1 << 24;

/// Presence bits of a column, and for each position the number of values
/// before it: where a row's value is, without walking the rows before it.
struct Present {
    bits: Vec<bool>,
    /// `rank[r]` = set bits among `bits[..r]`; one entry more than `bits`.
    rank: Vec<u32>,
}

impl Present {
    fn new(bits: Vec<bool>) -> Present {
        let mut rank = Vec::with_capacity(bits.len() + 1);
        let mut set = 0u32;
        rank.push(0);
        rank.extend(bits.iter().map(|&b| {
            set += b as u32;
            set
        }));
        Present { bits, rank }
    }

    /// Corrupted counts read as "present" past the end of the stream; the
    /// value accessors report the structural error.
    #[inline]
    fn bit(&self, r: usize) -> bool {
        self.bits.get(r).copied().unwrap_or(true)
    }

    #[inline]
    fn rank(&self, r: usize) -> usize {
        match self.rank.get(r) {
            Some(&before) => before as usize,
            None => self.rank[self.bits.len()] as usize + (r - self.bits.len()),
        }
    }
}

struct DecodedColumn {
    /// Presence bits (None = no nulls in the read span).
    present: Option<Present>,
    data: DecodedData,
}

impl DecodedColumn {
    /// Whether rows `first_row..first_row + n` can go into `out`: the lanes
    /// agree and every non-NULL row has a value behind it. This is where
    /// corrupt counts surface, before any row of the batch is handed out.
    fn check(&self, first_row: usize, n: usize, out: &ColumnVector) -> Result<()> {
        let available = match (&self.data, out) {
            (DecodedData::Longs(v), ColumnVector::Long(_)) => v.len(),
            (DecodedData::Bools(v), ColumnVector::Long(_)) => v.len(),
            (DecodedData::Doubles(d), ColumnVector::Double(_)) => d.len(),
            (DecodedData::StringsDict { ids, .. }, ColumnVector::Bytes(_)) => ids.len(),
            (DecodedData::StringsDirect { bounds, .. }, ColumnVector::Bytes(_)) => bounds.len() - 1,
            _ => {
                return Err(HiveError::Execution(
                    "column type is not vectorizable".into(),
                ))
            }
        };
        let end = first_row + n;
        let needed = self.present.as_ref().map_or(end, |p| p.rank(end));
        if needed > available {
            return Err(HiveError::Format(
                "value stream shorter than row count (corrupt counts)".into(),
            ));
        }
        Ok(())
    }

    /// Value `k` of this column, as `dt` says, and how many values of its
    /// child columns belong to it: a list or map comes back empty, a struct
    /// with no fields and a union with a NULL payload, for the row reader to
    /// fill. `None` when the column has no value `k` (corrupt counts).
    fn value(&self, k: usize, dt: &DataType) -> Option<(Value, usize)> {
        let string = |bytes: &[u8]| Value::String(String::from_utf8_lossy(bytes).into_owned());
        Some(match (&self.data, dt) {
            (DecodedData::Longs(v), DataType::Timestamp) => (Value::Timestamp(*v.get(k)?), 0),
            (DecodedData::Longs(v), _) => (Value::Int(*v.get(k)?), 0),
            (DecodedData::Bools(v), _) => (Value::Boolean(*v.get(k)?), 0),
            (DecodedData::Doubles(v), _) => (Value::Double(v.get(k)?), 0),
            (DecodedData::StringsDict { dictionary, ids }, _) => {
                (string(dictionary.entry(*ids.get(k)? as usize)), 0)
            }
            (DecodedData::StringsDirect { data, bounds }, _) => {
                let span = bounds.get(k..k + 2)?;
                (string(&data[span[0] as usize..span[1] as usize]), 0)
            }
            (DecodedData::Lengths(v), DataType::Map(..)) => {
                let n = *v.get(k)? as usize;
                (Value::Map(Vec::with_capacity(n)), n)
            }
            (DecodedData::Lengths(v), _) => {
                let n = *v.get(k)? as usize;
                (Value::Array(Vec::with_capacity(n)), n)
            }
            (DecodedData::Tags(v), _) => (Value::Union(*v.get(k)?, Box::new(Value::Null)), 1),
            (DecodedData::None, DataType::Struct(fields)) => (
                Value::Struct(Vec::with_capacity(fields.len())),
                fields.len(),
            ),
            (DecodedData::None, _) => return None,
        })
    }
}

/// The decoded columns of one cursor's rows. Immutable once loaded: the
/// reader's cursor and every batch with columns still deferred share it.
struct StripeData {
    /// By tree column; `None` where the projection needs nothing.
    cols: Vec<Option<DecodedColumn>>,
    /// The tree column behind each batch column (the projection, in order).
    batch_cols: Vec<usize>,
    /// The reader's count of values written into batches.
    materialized: Arc<AtomicU64>,
}

/// The rows of a batch one fill writes: `0..n`, or the `n` that `selected`
/// lists; the batch's row 0 is the stripe data's row `first_row`.
struct Wanted<'a> {
    present: Option<&'a Present>,
    first_row: usize,
    n: usize,
    selected: Option<&'a [usize]>,
}

impl Wanted<'_> {
    /// The one fill routine. Calls `put(i, k, len)` for runs that together
    /// cover the wanted rows: batch rows `i..i + len` take the column's
    /// values `k..k + len`, or row `i` is NULL (flagged here) when `k` is
    /// `None`. Without presence bits a batch, or the span of a selection
    /// that keeps a good part of it, is one run — a copy at memory speed,
    /// cheaper than picking values out one at a time even if most are never
    /// looked at — and a sparse selection is a run per row. With presence
    /// bits rows come one by one, each value found by its rank.
    #[inline(always)]
    fn gather(
        self,
        null: &mut [bool],
        no_nulls: &mut bool,
        mut put: impl FnMut(usize, Option<usize>, usize),
    ) -> usize {
        let first_row = self.first_row;
        *no_nulls = self.present.is_none();
        let span = self
            .selected
            .map_or(self.n, |s| s.last().map_or(0, |&last| last + 1));
        match (self.present, self.selected) {
            (None, Some(selected)) if selected.len() < span / DENSE => {
                selected
                    .iter()
                    .for_each(|&i| put(i, Some(first_row + i), 1));
                selected.len()
            }
            (None, _) => {
                put(0, Some(first_row), span);
                span
            }
            (Some(present), _) => {
                let mut row = |i: usize| {
                    let set = present.bit(first_row + i);
                    null[i] = !set;
                    put(i, set.then(|| present.rank(first_row + i)), 1);
                };
                match self.selected {
                    Some(selected) => selected.iter().for_each(|&i| row(i)),
                    None => (0..self.n).for_each(row),
                }
                self.selected.map_or(self.n, <[usize]>::len)
            }
        }
    }
}

/// A selection that keeps at least one row in `DENSE` of its span is filled
/// as the span. From a cold stripe buffer a run costs ~1 ns a value and a
/// single value 9–20 ns (600 k `lineitem` rows; above one row in eight every
/// cache line of a double column is fetched either way), so up to here the
/// run is never the dearer of the two.
const DENSE: usize = 4;

/// `dst = src`, without a call into `memcpy` for the single value a sparse
/// selection asks for at a time.
#[inline(always)]
fn copy_run<T>(dst: &mut [T], mut src: impl ExactSizeIterator<Item = T>) {
    match dst {
        [one] => *one = src.next().expect("as long as dst"),
        _ => dst.iter_mut().zip(src).for_each(|(d, s)| *d = s),
    }
}

impl ColumnSource for StripeData {
    fn fill(
        &self,
        first_row: usize,
        column: usize,
        n: usize,
        selected: Option<&[usize]>,
        out: &mut ColumnVector,
    ) {
        // `next_batch` checked column, lanes and counts for the whole batch.
        let dc = self.cols[self.batch_cols[column]].as_ref();
        let dc = dc.expect("a projected column is decoded");
        let wanted = Wanted {
            present: dc.present.as_ref(),
            first_row,
            n,
            selected,
        };
        let written = match (&dc.data, out) {
            (DecodedData::Longs(src), ColumnVector::Long(v)) => {
                let (vector, null, no_nulls) = primitive_parts(v);
                wanted.gather(null, no_nulls, |i, k, len| match k {
                    Some(k) => copy_run(&mut vector[i..i + len], src[k..k + len].iter().copied()),
                    None => vector[i] = 0,
                })
            }
            (DecodedData::Bools(src), ColumnVector::Long(v)) => {
                let (vector, null, no_nulls) = primitive_parts(v);
                wanted.gather(null, no_nulls, |i, k, len| match k {
                    Some(k) => {
                        let src = src[k..k + len].iter().map(|&b| b as i64);
                        copy_run(&mut vector[i..i + len], src)
                    }
                    None => vector[i] = 0,
                })
            }
            (DecodedData::Doubles(src), ColumnVector::Double(v)) => {
                let (vector, null, no_nulls) = primitive_parts(v);
                // Wanted rows ascend, so their values do: walk the chunks,
                // `bytes` holding values `first..end` of chunk `c - 1`.
                let (mut c, mut bytes, mut first, mut end) = (0, &[][..], 0, 0);
                wanted.gather(null, no_nulls, |mut i, k, len| {
                    let Some(mut k) = k else {
                        return vector[i] = 0.0;
                    };
                    let stop = k + len;
                    while k < stop {
                        while k >= end {
                            (bytes, first, end) = src.chunk(c);
                            c += 1;
                        }
                        let take = end.min(stop) - k;
                        let run = &bytes[(k - first) * 8..][..take * 8];
                        copy_run(&mut vector[i..i + take], le_doubles(run));
                        (i, k) = (i + take, k + take);
                    }
                })
            }
            (DecodedData::StringsDict { dictionary, ids }, ColumnVector::Bytes(v)) => {
                v.refer_to_dictionary(Arc::clone(dictionary));
                let (start, length, entry, null, no_nulls) = bytes_parts(v);
                wanted.gather(null, no_nulls, |i, k, len| match k {
                    Some(k) => {
                        let spans = ids[k..k + len].iter().map(|&e| dictionary.span(e as usize));
                        copy_run(&mut entry[i..i + len], ids[k..k + len].iter().copied());
                        let out = start[i..i + len].iter_mut().zip(&mut length[i..i + len]);
                        out.zip(spans).for_each(|((s, l), span)| (*s, *l) = span);
                    }
                    None => (start[i], length[i]) = (0, 0),
                })
            }
            (DecodedData::StringsDirect { data, bounds }, ColumnVector::Bytes(v)) => {
                v.refer_to(Arc::clone(data));
                let (start, length, _, null, no_nulls) = bytes_parts(v);
                wanted.gather(null, no_nulls, |i, k, len| match k {
                    Some(k) => {
                        let spans = bounds[k..k + len + 1]
                            .windows(2)
                            .map(|b| (b[0], b[1] - b[0]));
                        let out = start[i..i + len].iter_mut().zip(&mut length[i..i + len]);
                        out.zip(spans).for_each(|((s, l), span)| (*s, *l) = span);
                    }
                    None => (start[i], length[i]) = (0, 0),
                })
            }
            _ => unreachable!("next_batch checked the column's lane"),
        };
        // A statistic: publishes nothing.
        self.materialized
            .fetch_add(written as u64, Ordering::Relaxed);
    }
}

/// A primitive vector about to be filled, split into what `gather` flags
/// and what its `put` writes.
fn primitive_parts<T>(v: &mut PrimitiveColumnVector<T>) -> (&mut [T], &mut [bool], &mut bool) {
    v.is_repeating = false;
    (&mut v.vector, &mut v.null, &mut v.no_nulls)
}

/// A bytes vector about to be filled, split likewise: `start`, `length`,
/// `ids`, then the flags.
fn bytes_parts(
    v: &mut BytesColumnVector,
) -> (&mut [u32], &mut [u32], &mut [u32], &mut [bool], &mut bool) {
    v.is_repeating = false;
    let BytesColumnVector {
        start,
        length,
        ids,
        null,
        no_nulls,
        ..
    } = v;
    (start, length, ids, null, no_nulls)
}

struct StripeCursor {
    data: Arc<StripeData>,
    /// The row reader's place in each column: its rows read, the nested
    /// ones included.
    at: Vec<usize>,
    /// Top-level rows handed out.
    row: usize,
    rows_remaining: u64,
    /// Contiguous `(start ordinal, rows)` runs covering the cursor's rows
    /// in read order. Ordinals are absolute within the file and skip-aware:
    /// a cursor over index groups 0 and 2 of a stripe carries two runs with
    /// a gap where group 1's rows would be. Run lengths always sum to
    /// `rows_remaining`.
    segments: Vec<(u64, u64)>,
}

impl StripeCursor {
    /// The next value of tree column `col`: its presence bit, then its place
    /// among the column's values, then the value, then its children's.
    fn read_value(&mut self, tree: &ColumnTree, col: usize) -> Result<Value> {
        let dc = self.data.cols[col].as_ref();
        let dc = dc.expect("a projected column is decoded");
        let r = self.at[col];
        self.at[col] += 1;
        // Corrupt counts read as "present" past the end of the bits, and
        // find no value there.
        let k = match &dc.present {
            Some(present) if !present.bit(r) => return Ok(Value::Null),
            Some(present) => present.rank(r),
            None => r,
        };
        let node = tree.node(col);
        let (mut value, entries) = dc.value(k, &node.data_type).ok_or_else(|| {
            HiveError::Format(format!("column {col} has no value {k} (corrupt counts)"))
        })?;
        let mut child = |i: usize| self.read_value(tree, node.children[i]);
        match &mut value {
            Value::Array(items) => {
                for _ in 0..entries {
                    items.push(child(0)?);
                }
            }
            Value::Map(pairs) => {
                for _ in 0..entries {
                    pairs.push((child(0)?, child(1)?));
                }
            }
            Value::Struct(fields) => {
                for i in 0..entries {
                    fields.push(child(i)?);
                }
            }
            Value::Union(tag, payload) => **payload = child(*tag as usize)?,
            _ => {}
        }
        Ok(value)
    }

    /// Hand out the next `n` rows, writing the ordinal runs they cover to
    /// `runs`.
    fn take(&mut self, n: usize, runs: &mut Vec<(u64, u64)>) {
        self.row += n;
        self.rows_remaining -= n as u64;
        runs.clear();
        let mut left = n as u64;
        while left > 0 {
            let seg = &mut self.segments[0];
            let take = seg.1.min(left);
            runs.push((seg.0, take));
            seg.0 += take;
            seg.1 -= take;
            left -= take;
            if seg.1 == 0 {
                self.segments.remove(0);
            }
        }
    }
}

/// The ORC file reader.
pub struct OrcReader {
    reader: DfsReader,
    schema: Schema,
    tree: ColumnTree,
    /// Decoded file metadata — shared through the process-wide cache when
    /// `cache_metadata` is on, private to this reader otherwise.
    meta: Arc<crate::orc::cache::FileMeta>,
    projection: Vec<usize>,
    needed: Vec<bool>,
    opts: OrcReadOptions,
    stripe_idx: usize,
    current: Option<StripeCursor>,
    /// Cursors decoded ahead of `current`: group-level salvage under
    /// `skip_corrupt` splits one stripe into several per-group cursors.
    pending: std::collections::VecDeque<StripeCursor>,
    /// Absolute ordinal of the first row of the next stripe `ready` will
    /// consider. Every stripe advances it by its row count — read,
    /// split-foreign, pruned, or corrupt alike — which is what keeps
    /// reported ordinals aligned with the file's physical row order.
    next_stripe_ord: u64,
    /// Ordinal runs of the rows the last `next_batch` filled, or of the row
    /// the last `next_row` returned.
    batch_runs: Vec<(u64, u64)>,
    /// The batch columns `next_batch` fills itself when told to leave the
    /// others deferred; `None`: it fills them all.
    fill_first: Option<Vec<usize>>,
    /// Values written into batches so far — by `next_batch`, and through
    /// the stripe data by whoever materialized a deferred column.
    materialized: Arc<AtomicU64>,
    /// Skipping, salvage and metadata-cache counters; what `read_stats()`
    /// returns (with `values_materialized` filled in).
    pub counters: ReadStats,
}

impl OrcReader {
    /// Stripe layout metadata of the open file (section offsets and
    /// lengths) — lets chaos tests aim tampering at one section.
    pub fn stripe_infos(&self) -> &[StripeInfo] {
        &self.meta.footer.stripes
    }

    pub fn open(dfs: &Dfs, path: &str, opts: OrcReadOptions) -> Result<OrcReader> {
        let mut reader = dfs.open_variant(path, opts.variant, opts.node)?;
        // Decode postscript + file footer (one generous tail read). Runs at
        // most once per (file, generation) process-wide when the metadata
        // cache is on; always, privately, when it is off.
        let read_meta = |reader: &mut DfsReader| -> Result<crate::orc::cache::FileMeta> {
            let len = reader.len();
            let tail_guess = (len as usize).min(16 << 10);
            let tail = reader.read_at(len - tail_guess as u64, tail_guess)?;
            let (ps, ps_total) = decode_postscript(&tail)?;
            let footer_end = len - ps_total as u64;
            let footer_start = footer_end
                .checked_sub(ps.footer_len)
                .ok_or_else(|| HiveError::Format("footer length exceeds file".into()))?;
            let footer = if (ps.footer_len as usize + ps_total) <= tail.len() {
                let buf =
                    &tail[tail.len() - ps_total - ps.footer_len as usize..tail.len() - ps_total];
                decode_file_footer(buf)?
            } else {
                decode_file_footer(&reader.read_at(footer_start, ps.footer_len as usize)?)?
            };
            Ok(crate::orc::cache::FileMeta::new(ps, footer))
        };
        let (meta, meta_hit) = if opts.cache_metadata {
            crate::orc::cache::file_meta(dfs.instance_id(), path, reader.generation(), || {
                read_meta(&mut reader)
            })?
        } else {
            (Arc::new(read_meta(&mut reader)?), false)
        };
        let root = meta.footer.root_type()?;
        let DataType::Struct(fields) = root else {
            return Err(HiveError::Format("ORC root type must be a struct".into()));
        };
        let schema = Schema::new(
            fields
                .into_iter()
                .map(|(n, t)| hive_common::Field::new(n, t))
                .collect(),
        );
        let tree = schema.column_tree();
        let projection = opts
            .projection
            .clone()
            .unwrap_or_else(|| (0..schema.len()).collect());
        let mut needed = vec![false; tree.len()];
        for &p in &projection {
            if p >= schema.len() {
                return Err(HiveError::Format(format!(
                    "projected column {p} out of range"
                )));
            }
            for id in tree.subtree(tree.top_level(p)) {
                needed[id] = true;
            }
        }
        let mut counters = ReadStats {
            stripes_total: meta.footer.stripes.len() as u64,
            ..Default::default()
        };
        let footer_counts = (
            &mut counters.footer_cache_hits,
            &mut counters.footer_cache_misses,
        );
        count_lookup(opts.cache_metadata, meta_hit, footer_counts);
        Ok(OrcReader {
            reader,
            schema,
            tree,
            meta,
            projection,
            needed,
            opts,
            stripe_idx: 0,
            current: None,
            pending: std::collections::VecDeque::new(),
            next_stripe_ord: 0,
            batch_runs: Vec::new(),
            fill_first: None,
            materialized: Arc::new(AtomicU64::new(0)),
            counters,
        })
    }

    /// The table schema recovered from the file footer.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// File-level statistics for top-level column `i` — usable to answer
    /// simple aggregations (COUNT/MIN/MAX/SUM) without reading row data.
    pub fn file_stats(&self, i: usize) -> Option<&ColumnStatistics> {
        self.meta.footer.file_stats.get(self.tree.top_level(i))
    }

    pub fn num_rows(&self) -> u64 {
        self.meta.footer.nrows
    }

    /// Per stripe, in file order: where it starts, and top-level column
    /// `i`'s least and greatest values in it (`None` where the stripe
    /// statistics hold none).
    pub fn stripe_bounds(&self, i: usize) -> Vec<(u64, Option<Value>, Option<Value>)> {
        let col = self.tree.top_level(i);
        let footer = &self.meta.footer;
        let stats = |s: usize| footer.stripe_stats.get(s).and_then(|per| per.get(col));
        let bounds = |s: usize| {
            let st = stats(s);
            (
                st.and_then(|st| st.min_value()),
                st.and_then(|st| st.max_value()),
            )
        };
        let stripes = footer.stripes.iter().enumerate();
        stripes
            .map(|(s, si)| (si.offset, bounds(s).0, bounds(s).1))
            .collect()
    }

    /// Whether the file says top-level column `i`'s non-NULL values are
    /// non-decreasing (the footer's order flag).
    pub fn is_ordered(&self, i: usize) -> bool {
        i < self.schema.len() && self.meta.footer.is_ordered(self.tree.top_level(i))
    }

    /// Evaluate the sarg against a span's per-column stats.
    fn sarg_allows(&self, stats: &[ColumnStatistics]) -> bool {
        let Some(sarg) = &self.opts.sarg else {
            return true;
        };
        sarg.evaluate(|col| {
            if col < self.schema.len() {
                stats.get(self.tree.top_level(col))
            } else {
                None
            }
        }) != TruthValue::No
    }

    /// Make `current` a cursor with rows left, loading the next one (a whole
    /// stripe, or one salvaged group of one) when it has none; false at EOF.
    fn ready(&mut self) -> Result<bool> {
        loop {
            if self.current.as_ref().is_some_and(|c| c.rows_remaining > 0) {
                return Ok(true);
            }
            if let Some(cur) = self.pending.pop_front() {
                self.current = Some(cur);
                continue;
            }
            if self.stripe_idx >= self.meta.footer.stripes.len() {
                return Ok(false);
            }
            let si = self.meta.footer.stripes[self.stripe_idx].clone();
            let stripe_no = self.stripe_idx;
            self.stripe_idx += 1;
            // First-row ordinal of this stripe. Skipped stripes advance the
            // accumulator too: their rows still occupy ordinal space.
            let stripe_ord = self.next_stripe_ord;
            self.next_stripe_ord += si.nrows;

            // Split ownership: a stripe belongs to the split containing its
            // first byte.
            if let Some((start, end)) = self.opts.split {
                if si.offset < start || si.offset >= end {
                    continue;
                }
            }

            // Level 2: stripe statistics.
            if let Some(per_stripe) = self.meta.footer.stripe_stats.get(stripe_no) {
                if !self.sarg_allows(per_stripe) {
                    continue;
                }
            }
            self.counters.stripes_read += 1;

            match self.load_stripe(&si, stripe_ord) {
                Ok(()) => {}
                Err(e) if self.opts.skip_corrupt && e.is_data_corruption() => {
                    // The stripe's stream directory or index is itself
                    // unreadable: every row of the stripe is lost.
                    self.counters.rows_skipped += si.nrows;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Read one stripe's stream directory, select index groups, decode the
    /// needed columns, and queue the resulting cursor(s) onto `pending`.
    ///
    /// Under `skip_corrupt`, a decode failure over the full group selection
    /// triggers *group-level salvage*: each selected group is re-decoded on
    /// its own (every needed column together, so rows stay aligned across
    /// columns); groups that still fail are dropped and their rows counted
    /// as skipped, groups that decode cleanly become per-group cursors.
    ///
    /// `stripe_ord` is the absolute file ordinal of the stripe's first row;
    /// cursors carry per-group ordinal segments derived from it so delete
    /// masks stay aligned however many groups are skipped or salvaged.
    fn load_stripe(&mut self, si: &crate::orc::StripeInfo, stripe_ord: u64) -> Result<()> {
        // A stripe whose directory entry points past the end of the file is
        // structurally corrupt; catch it before issuing unsatisfiable reads.
        let stripe_end = si
            .offset
            .checked_add(si.index_len)
            .and_then(|x| x.checked_add(si.bloom_len))
            .and_then(|x| x.checked_add(si.data_len))
            .and_then(|x| x.checked_add(si.footer_len));
        if stripe_end.is_none_or(|end| end > self.reader.len()) {
            return Err(HiveError::Format(
                "stripe extends past end of file (corrupt footer)".into(),
            ));
        }
        // Stripe footer (stream directory) — decoded at most once per
        // stripe per generation when the metadata cache is shared; the
        // same single-flight map doubles as a per-reader memo otherwise.
        let meta = Arc::clone(&self.meta);
        let (sfooter, sf_hit) = meta.stripe_footers.get_or_fill(si.offset, || {
            let footer_buf = self.reader.read_at(
                si.offset + si.index_len + si.bloom_len + si.data_len,
                si.footer_len as usize,
            )?;
            decode_stripe_footer(&footer_buf)
        })?;
        self.count_index_lookup(sf_hit);
        let sfooter: &StripeFooter = &sfooter;

        // Level 3: index-group statistics (only if PPD is on).
        let ngroups = sfooter
            .columns
            .iter()
            .flat_map(|c| c.streams.iter())
            .map(|s| s.chunks.len())
            .filter(|&n| n > 0)
            .max()
            .unwrap_or(1);
        self.counters.groups_total += ngroups as u64;
        let selected: Vec<usize> =
            if self.opts.use_index && self.opts.sarg.is_some() && si.index_len > 0 {
                let (group_stats, ix_hit) = meta.indexes.get_or_fill(si.offset, || {
                    let index_buf = self.reader.read_at(si.offset, si.index_len as usize)?;
                    decode_index(&index_buf, self.tree.len())
                })?;
                self.count_index_lookup(ix_hit);
                (0..ngroups)
                    .filter(|&g| {
                        let per_group: Vec<ColumnStatistics> = group_stats
                            .iter()
                            .map(|col| {
                                col.get(g).cloned().unwrap_or(ColumnStatistics::Generic {
                                    count: 0,
                                    has_null: false,
                                })
                            })
                            .collect();
                        self.sarg_allows(&per_group)
                    })
                    .collect()
            } else {
                (0..ngroups).collect()
            };
        // Bloom filters answer equality probes the stats could not: consult
        // them only for groups that already survived the min/max filter, so
        // pruning is strictly monotone (the ordinal clock is untouched —
        // fewer selected groups just means more gap between segments).
        let selected = if self.opts.use_index && si.bloom_len > 0 {
            self.bloom_prune(si, selected)
        } else {
            selected
        };
        if selected.is_empty() {
            return Ok(());
        }
        self.counters.groups_read += selected.len() as u64;

        // Stream start offsets, cumulative over the stripe's data section.
        let data_base = si.offset + si.index_len + si.bloom_len;
        let mut stream_offsets: Vec<Vec<u64>> = Vec::with_capacity(sfooter.columns.len());
        {
            let mut cum = 0u64;
            for col in &sfooter.columns {
                let mut per = Vec::with_capacity(col.streams.len());
                for s in &col.streams {
                    per.push(data_base + cum);
                    cum = cum.checked_add(s.len).ok_or_else(|| {
                        HiveError::Format("stream lengths overflow (corrupt stripe footer)".into())
                    })?;
                }
                stream_offsets.push(per);
            }
            if cum > si.data_len {
                return Err(HiveError::Format(
                    "stream directory exceeds stripe data section (corrupt)".into(),
                ));
            }
        }

        match self.decode_cursor(si, stripe_ord, sfooter, &stream_offsets, &selected) {
            Ok(cursor) => {
                self.pending.push_back(cursor);
                Ok(())
            }
            Err(e) if self.opts.skip_corrupt && e.is_data_corruption() => {
                for &g in &selected {
                    match self.decode_cursor(si, stripe_ord, sfooter, &stream_offsets, &[g]) {
                        Ok(cursor) => self.pending.push_back(cursor),
                        Err(e) if e.is_data_corruption() => {
                            self.counters.rows_skipped += self.group_rows(si, g);
                        }
                        Err(e) => return Err(e),
                    }
                }
                Ok(())
            }
            Err(e) => Err(e),
        }
    }

    /// Count a stripe-footer or row-index lookup in the metadata cache.
    fn count_index_lookup(&mut self, hit: bool) {
        let counts = &mut self.counters;
        let counts = (&mut counts.index_cache_hits, &mut counts.index_cache_misses);
        count_lookup(self.opts.cache_metadata, hit, counts);
    }

    /// Top-level rows of index group `g` in stripe `si`.
    fn group_rows(&self, si: &crate::orc::StripeInfo, g: usize) -> u64 {
        let stride = self.meta.footer.row_index_stride.max(1);
        (si.nrows.saturating_sub(g as u64 * stride)).min(stride)
    }

    /// Drop stats-surviving groups whose bloom filters prove an equality
    /// or IN literal definitely absent. Any failure — unreadable section,
    /// CRC mismatch, torn framing — degrades to the stats-only selection
    /// and counts once in `bloom_corrupt`: a broken filter can cost a
    /// group read, never an answer.
    fn bloom_prune(&mut self, si: &crate::orc::StripeInfo, selected: Vec<usize>) -> Vec<usize> {
        use crate::orc::sarg::PredicateOp;
        let Some(sarg) = &self.opts.sarg else {
            return selected;
        };
        // One probe per equality-shaped leaf: the hashes any of which must
        // be present for a group to survive. Leaves with unhashable
        // literals contribute nothing (always "maybe").
        let probes: Vec<(usize, Vec<u64>)> = sarg
            .leaves
            .iter()
            .filter_map(|leaf| match leaf.op {
                PredicateOp::Equals => leaf
                    .literal
                    .as_ref()
                    .and_then(crate::orc::bloom::probe_hashes)
                    .map(|h| (leaf.column, h)),
                PredicateOp::In => {
                    let mut hashes = Vec::new();
                    for v in &leaf.literal_list {
                        hashes.extend(crate::orc::bloom::probe_hashes(v)?);
                    }
                    (!hashes.is_empty()).then_some((leaf.column, hashes))
                }
                _ => None,
            })
            .collect();
        if probes.is_empty() || selected.is_empty() {
            return selected;
        }
        let section = match self
            .reader
            .read_at(si.offset + si.index_len, si.bloom_len as usize)
        {
            Ok(bytes) => bytes,
            Err(_) => {
                self.counters.bloom_corrupt += 1;
                return selected;
            }
        };
        let cols = match crate::orc::bloom::decode_section(&section) {
            Ok(cols) => cols,
            Err(_) => {
                self.counters.bloom_corrupt += 1;
                return selected;
            }
        };
        let before = selected.len();
        let kept: Vec<usize> = selected
            .into_iter()
            .filter(|&g| {
                probes.iter().all(|(column, hashes)| {
                    match cols
                        .iter()
                        .find(|cb| cb.column == *column)
                        .and_then(|cb| cb.groups.get(g))
                    {
                        Some(f) => hashes.iter().any(|&h| f.might_contain_hash(h)),
                        // No filter for this column/group: maybe present.
                        None => true,
                    }
                })
            })
            .collect();
        self.counters.groups_bloom_pruned += (before - kept.len()) as u64;
        kept
    }

    /// Decode the needed columns for `selected` groups into one cursor.
    fn decode_cursor(
        &mut self,
        si: &crate::orc::StripeInfo,
        stripe_ord: u64,
        sfooter: &StripeFooter,
        stream_offsets: &[Vec<u64>],
        selected: &[usize],
    ) -> Result<StripeCursor> {
        let mut cols: Vec<Option<DecodedColumn>> = Vec::with_capacity(self.tree.len());
        for col_id in 0..self.tree.len() {
            if !self.needed[col_id] {
                cols.push(None);
                continue;
            }
            let dc = self.decode_column(col_id, sfooter, stream_offsets, selected)?;
            cols.push(Some(dc));
        }
        let rows_selected = selected.iter().map(|&g| self.group_rows(si, g)).sum();
        // Ordinal segments: group g starts `g * stride` rows into the
        // stripe; runs of adjacent selected groups coalesce.
        let stride = self.meta.footer.row_index_stride.max(1);
        let mut segments: Vec<(u64, u64)> = Vec::with_capacity(selected.len());
        for &g in selected {
            let start = stripe_ord + g as u64 * stride;
            let rows = self.group_rows(si, g);
            match segments.last_mut() {
                Some(last) if last.0 + last.1 == start => last.1 += rows,
                _ => segments.push((start, rows)),
            }
        }
        let top_level = self.projection.iter().map(|&p| self.tree.top_level(p));
        Ok(StripeCursor {
            data: Arc::new(StripeData {
                cols,
                batch_cols: top_level.collect(),
                materialized: Arc::clone(&self.materialized),
            }),
            at: vec![0; self.tree.len()],
            row: 0,
            rows_remaining: rows_selected,
            segments,
        })
    }

    /// Read + decode the streams of one column for the selected groups.
    fn decode_column(
        &mut self,
        col_id: usize,
        sfooter: &StripeFooter,
        stream_offsets: &[Vec<u64>],
        selected: &[usize],
    ) -> Result<DecodedColumn> {
        let cs = sfooter
            .columns
            .get(col_id)
            .ok_or_else(|| HiveError::Format(format!("stripe footer lacks column {col_id}")))?;
        let dt = &self.tree.node(col_id).data_type;
        let compression = self.meta.ps.compression;

        // The deframed chunks of one stream for the selected groups, each
        // with its value count; a stripe-global (dictionary) stream has one
        // chunk, read whatever is selected. Chunks tile a stream back to
        // back, so each run of adjacent groups is one read, as ORC's reader
        // merges adjacent disk ranges: all groups read the whole stream.
        let mut read_stream = |kind: StreamKind| -> Result<Option<Vec<(Window, u64)>>> {
            let Some(idx) = cs.streams.iter().position(|s| s.kind == kind) else {
                return Ok(None);
            };
            let info = &cs.streams[idx];
            let base = stream_offsets[col_id][idx];
            let global = matches!(
                kind,
                StreamKind::DictionaryData | StreamKind::DictionaryLength
            );
            let groups: &[usize] = if global { &[0] } else { selected };
            let chunk = |g: usize| {
                let missing = || HiveError::Format(format!("group {g} missing in stream"));
                info.chunks.get(g).ok_or_else(missing)
            };
            let mut out = Vec::with_capacity(groups.len());
            for run in groups.chunk_by(|&a, &b| b == a + 1) {
                let (first, last) = (chunk(run[0])?, chunk(run[run.len() - 1])?);
                let run_end = last.offset.saturating_add(last.len);
                if run_end < first.offset || run_end > info.len {
                    return Err(HiveError::Format(
                        "chunk range out of order or past the stream (corrupt)".into(),
                    ));
                }
                let run_len = (run_end - first.offset) as usize;
                let bytes = self.reader.read_at(base + first.offset, run_len)?;
                let bytes = bytes.into_shared();
                for &g in run {
                    let c = &info.chunks[g];
                    let rel = c.offset.wrapping_sub(first.offset) as usize;
                    let framed = rel..rel.saturating_add(c.len as usize);
                    out.push((Window::deframe(&bytes, framed, compression)?, c.values));
                }
            }
            Ok(Some(out))
        };

        let present = match read_stream(StreamKind::Present)? {
            Some(chunks) => Some(Present::new(decode_bits(&chunks)?)),
            None => None,
        };
        let data = match dt {
            DataType::Int | DataType::Timestamp => {
                DecodedData::Longs(decode_ints(read_stream(StreamKind::Data)?)?)
            }
            DataType::Boolean => {
                let chunks = read_stream(StreamKind::Data)?.unwrap_or_default();
                DecodedData::Bools(decode_bits(&chunks)?)
            }
            DataType::Double => {
                let mut vals = Doubles::default();
                for (mut raw, n) in read_stream(StreamKind::Data)?.unwrap_or_default() {
                    let bytes = (n as usize).checked_mul(8).filter(|&b| b <= raw.len());
                    let bytes =
                        bytes.ok_or_else(|| HiveError::Format("double stream truncated".into()))?;
                    raw.range.end = raw.range.start + bytes;
                    vals.ends.push(vals.len() + n as usize);
                    vals.chunks.push(raw);
                }
                DecodedData::Doubles(vals)
            }
            DataType::String => match &cs.encoding {
                Some(ColumnEncoding::Dictionary { size }) => {
                    // Stripe-global streams, one chunk each: the entries back
                    // to back, and their lengths.
                    let blob = read_stream(StreamKind::DictionaryData)?.and_then(|mut v| v.pop());
                    let (blob, within) = match blob {
                        Some((w, _)) => (w.buffer, w.range),
                        None => (Arc::new(Vec::new()), 0..0),
                    };
                    let mut lens = read_stream(StreamKind::DictionaryLength)?;
                    lens.iter_mut().flatten().for_each(|c| c.1 = *size);
                    let bounds = bounds_of(&decode_ints(lens)?, within)
                        .ok_or_else(|| HiveError::Format("dictionary truncated".into()))?;
                    let dictionary = Dictionary::new(blob, bounds)?;
                    let ids: Vec<u32> = decode_ints(read_stream(StreamKind::Data)?)?;
                    if ids.iter().any(|&id| id as usize >= dictionary.len()) {
                        return Err(HiveError::Format(
                            "dictionary id out of range (corrupt)".into(),
                        ));
                    }
                    DecodedData::StringsDict {
                        dictionary: Arc::new(dictionary),
                        ids,
                    }
                }
                _ => {
                    let mut data = Vec::new();
                    for (raw, _) in read_stream(StreamKind::Data)?.iter().flatten() {
                        data.extend_from_slice(raw);
                    }
                    let lens: Vec<i64> = decode_ints(read_stream(StreamKind::Length)?)?;
                    let bounds = bounds_of(&lens, 0..data.len())
                        .ok_or_else(|| HiveError::Format("string data truncated".into()))?;
                    DecodedData::StringsDirect {
                        data: Arc::new(data),
                        bounds,
                    }
                }
            },
            DataType::Array(_) | DataType::Map(_, _) => {
                let lens: Vec<i64> = decode_ints(read_stream(StreamKind::Length)?)?;
                // A corrupt length could be negative or absurdly large;
                // either would size a collection unboundedly.
                if let Some(n) = lens.iter().find(|n| !(0..=MAX_ENTRIES).contains(*n)) {
                    return Err(HiveError::Format(format!(
                        "implausible collection length {n} (corrupt stream)"
                    )));
                }
                DecodedData::Lengths(lens)
            }
            DataType::Union(variants) => {
                let mut vals = Vec::new();
                for (raw, n) in read_stream(StreamKind::Tags)?.iter().flatten() {
                    let mut d = byte_rle::ByteRleDecoder::new(raw);
                    for _ in 0..*n {
                        vals.push(d.next()?);
                    }
                }
                if vals.iter().any(|&tag| tag as usize >= variants.len()) {
                    return Err(HiveError::Format("union tag out of range (corrupt)".into()));
                }
                DecodedData::Tags(vals)
            }
            DataType::Struct(_) => DecodedData::None,
        };

        Ok(DecodedColumn { present, data })
    }

    /// Corrupt-data degradation for errors found mid-decode: drop the rest
    /// of the current cursor (row alignment across columns is gone once a
    /// value stream lies about its counts) and count its rows as skipped.
    /// Returns whether the error was absorbed.
    fn absorb_corruption(&mut self, e: &HiveError) -> bool {
        if !(self.opts.skip_corrupt && e.is_data_corruption()) {
            return false;
        }
        if let Some(cur) = self.current.take() {
            self.counters.rows_skipped += cur.rows_remaining;
        }
        true
    }
}

impl TableReader for OrcReader {
    fn next_row(&mut self) -> Result<Option<Row>> {
        while self.ready()? {
            let cur = self.current.as_mut().expect("a cursor with rows");
            let tree = &self.tree;
            let mut vals = Vec::with_capacity(self.projection.len());
            let read = self.projection.iter().try_for_each(|&p| {
                vals.push(cur.read_value(tree, tree.top_level(p))?);
                Ok(())
            });
            match read {
                Ok(()) => {
                    cur.take(1, &mut self.batch_runs);
                    return Ok(Some(Row::new(vals)));
                }
                Err(e) if self.absorb_corruption(&e) => {}
                Err(e) => return Err(e),
            }
        }
        Ok(None)
    }

    /// The native vectorized reader: fills column vectors directly from the
    /// decoded stripe buffers — only valid for primitive projected columns.
    /// After [`defer_all_but`](TableReader::defer_all_but) it fills the
    /// columns named there and hands the rest over deferred.
    fn next_batch(&mut self, batch: &mut VectorizedRowBatch) -> Result<bool> {
        batch.reset();
        while self.ready()? {
            let cur = self.current.as_mut().expect("a cursor with rows");
            let n = (cur.rows_remaining as usize).min(batch.max_size);
            let data = &cur.data;
            // Everything that can fail, for every column, before any is filled.
            let mut columns = data.batch_cols.iter().zip(&batch.columns);
            let checked = columns.try_for_each(|(&col_id, out)| match &data.cols[col_id] {
                Some(dc) => dc.check(cur.row, n, out),
                None => Err(HiveError::Format("column not decoded".into())),
            });
            if let Err(e) = checked {
                if self.absorb_corruption(&e) {
                    continue;
                }
                return Err(e);
            }
            let columns = 0..data.batch_cols.len();
            match &self.fill_first {
                None => columns.for_each(|c| data.fill(cur.row, c, n, None, &mut batch.columns[c])),
                Some(first) => {
                    for &c in first {
                        data.fill(cur.row, c, n, None, &mut batch.columns[c]);
                    }
                    let source = Arc::clone(data) as Arc<dyn ColumnSource>;
                    batch.defer(source, cur.row, columns.filter(|c| !first.contains(c)));
                }
            }
            cur.take(n, &mut self.batch_runs);
            batch.size = n;
            return Ok(n > 0);
        }
        Ok(false)
    }

    fn defer_all_but(&mut self, first: &[usize]) {
        let mut first: Vec<usize> = first.to_vec();
        first.retain(|&c| c < self.projection.len());
        first.sort_unstable();
        first.dedup();
        self.fill_first = Some(first);
    }

    fn last_row_ordinal(&self) -> Option<u64> {
        self.batch_runs.first().map(|&(ord, _)| ord)
    }

    fn batch_ordinal_runs(&self) -> Option<&[(u64, u64)]> {
        Some(&self.batch_runs)
    }

    fn read_stats(&self) -> ReadStats {
        ReadStats {
            values_materialized: self.materialized.load(Ordering::Relaxed),
            ..self.counters
        }
    }
}

/// Count a metadata-cache lookup in `(hits, misses)` when the cache is
/// shared; a reader's private memo counts nothing.
fn count_lookup(shared: bool, hit: bool, (hits, misses): (&mut u64, &mut u64)) {
    if shared {
        *if hit { hits } else { misses } += 1;
    }
}

/// The integers of a stream (none, if the stream is absent): each chunk
/// holds exactly as many as its count says.
fn decode_ints<T: int_rle::RleValue>(chunks: Option<Vec<(Window, u64)>>) -> Result<Vec<T>> {
    let mut vals = Vec::new();
    for (raw, n) in chunks.iter().flatten() {
        int_rle::IntRleDecoder::new(raw).decode_into(*n as usize, &mut vals)?;
    }
    Ok(vals)
}

/// The bits of a bit-field stream's chunks.
fn decode_bits(chunks: &[(Window, u64)]) -> Result<Vec<bool>> {
    let mut bits = Vec::new();
    for (raw, n) in chunks {
        bits.extend(bitfield::decode(raw, *n as usize)?);
    }
    Ok(bits)
}

/// Where values of lengths `lens`, laid back to back over `within` of a
/// buffer, begin and end — as offsets a bytes vector can hold. `None` when a
/// length is negative or the values do not fit (corrupt).
fn bounds_of(lens: &[i64], within: Range<usize>) -> Option<Vec<u32>> {
    let mut at = within.start;
    let mut bounds = Vec::with_capacity(lens.len() + 1);
    bounds.push(u32::try_from(at).ok()?);
    for &len in lens {
        at = at.checked_add(usize::try_from(len).ok()?)?;
        if at > within.end {
            return None;
        }
        bounds.push(u32::try_from(at).ok()?);
    }
    Some(bounds)
}

/// Decode the index section: per column, per group statistics.
fn decode_index(buf: &[u8], ncols: usize) -> Result<Vec<Vec<ColumnStatistics>>> {
    let mut pos = 0usize;
    let mut out = Vec::with_capacity(ncols);
    for _ in 0..ncols {
        // A group's statistics take at least three bytes.
        let ngroups = crate::orc::read_count(buf, &mut pos, 3)?;
        let mut per = Vec::with_capacity(ngroups);
        for _ in 0..ngroups {
            per.push(ColumnStatistics::decode(buf, &mut pos)?);
        }
        out.push(per);
    }
    Ok(out)
}
