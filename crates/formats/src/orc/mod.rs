//! ORC File (Optimized Record Columnar File) — paper Section 4.
//!
//! An ORC file is a sequence of stripes followed by a file footer and a
//! postscript (Figure 2). Each stripe holds:
//!
//! * **index data** — per-column statistics for every index group (default
//!   10,000 rows), the fine-grained level of the three-level statistics;
//! * **row data** — one or more streams per column in the decomposed column
//!   tree, each encoded with a stream-type-specific scheme and optionally
//!   compressed by a general-purpose codec in fixed-size units;
//! * **stripe footer** — stream directory and position pointers (byte
//!   ranges of every index group's chunk within every stream).
//!
//! The file footer records stripe locations (position pointers to stripe
//! starts), stripe-level statistics and file-level statistics; the
//! postscript records how to read the footer.

pub mod bloom;
pub mod cache;
pub mod memory;
pub mod reader;
pub mod replicated;
pub mod sarg;
pub mod stats;
pub mod writer;

pub use memory::MemoryManager;
pub use reader::OrcReader;
pub use replicated::ReplicatedOrcWriter;
pub use stats::ColumnStatistics;
pub use writer::{OrcWriter, OrcWriterOptions};

use hive_codec::block::Compression;
use hive_codec::varint;
use hive_common::{DataType, HiveError, Result};
use std::borrow::Cow;

/// Magic bytes at the very end of the postscript.
pub const MAGIC: &[u8; 4] = b"ORC1";

/// Default rows per index group (paper: 10,000).
pub const DEFAULT_ROW_INDEX_STRIDE: usize = 10_000;

/// Default compression unit (paper: 256 KB).
pub const DEFAULT_COMPRESS_UNIT: usize = 256 << 10;

/// Target false-positive probability of bloom filters; lower means bigger
/// filters and fewer wasted group reads.
pub const DEFAULT_BLOOM_FPP: f64 = 0.05;

/// The kinds of physical streams a column can own (paper Section 4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamKind {
    /// Bit field stream: 1 = value present, 0 = null. Omitted when the
    /// column has no nulls in the stripe.
    Present,
    /// The main data stream (integer stream, byte stream, or bit field
    /// stream depending on the column type).
    Data,
    /// Integer stream of lengths: string value lengths (direct encoding) or
    /// array/map sizes.
    Length,
    /// Byte stream holding concatenated dictionary entries (stripe-global).
    DictionaryData,
    /// Integer stream of dictionary entry lengths (stripe-global).
    DictionaryLength,
    /// Run-length byte stream of union tags.
    Tags,
}

impl StreamKind {
    fn to_u8(self) -> u8 {
        match self {
            StreamKind::Present => 0,
            StreamKind::Data => 1,
            StreamKind::Length => 2,
            StreamKind::DictionaryData => 3,
            StreamKind::DictionaryLength => 4,
            StreamKind::Tags => 5,
        }
    }

    fn from_u8(b: u8) -> Result<StreamKind> {
        Ok(match b {
            0 => StreamKind::Present,
            1 => StreamKind::Data,
            2 => StreamKind::Length,
            3 => StreamKind::DictionaryData,
            4 => StreamKind::DictionaryLength,
            5 => StreamKind::Tags,
            other => return Err(HiveError::Format(format!("bad stream kind {other}"))),
        })
    }
}

/// Byte range of one index group's chunk within a stream, plus how many
/// values it encodes — the position pointers of paper Section 4.2.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkInfo {
    /// Offset within the (compressed) stream.
    pub offset: u64,
    pub len: u64,
    /// Number of encoded values in this chunk.
    pub values: u64,
}

/// Directory entry for one stream of one column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamInfo {
    pub kind: StreamKind,
    /// Total stream length in the file (sum of chunk lens).
    pub len: u64,
    /// Per-index-group chunks; a single chunk for stripe-global streams
    /// (dictionaries).
    pub chunks: Vec<ChunkInfo>,
}

/// How a column's values are encoded in a stripe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ColumnEncoding {
    Direct,
    /// Dictionary encoding with the given entry count.
    Dictionary {
        size: u64,
    },
}

/// All streams of one column in a stripe.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ColumnStreams {
    pub encoding: Option<ColumnEncoding>,
    pub streams: Vec<StreamInfo>,
}

impl ColumnStreams {
    pub fn stream(&self, kind: StreamKind) -> Option<&StreamInfo> {
        self.streams.iter().find(|s| s.kind == kind)
    }
}

/// The stripe footer: stream directory + encodings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StripeFooter {
    pub nrows: u64,
    pub columns: Vec<ColumnStreams>,
}

/// Stripe location in the file footer (position pointers to stripes).
///
/// Stripe layout on disk: `[index][bloom][data][stripe footer]` — the
/// bloom-filter section (possibly empty) sits between the index and the
/// row data so the reader can consult both index levels with one
/// contiguous metadata read before touching any data stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StripeInfo {
    pub offset: u64,
    pub index_len: u64,
    /// Length of the per-column bloom-filter section (0 = none written).
    pub bloom_len: u64,
    pub data_len: u64,
    pub footer_len: u64,
    pub nrows: u64,
}

impl StripeInfo {
    pub fn total_len(&self) -> u64 {
        self.index_len + self.bloom_len + self.data_len + self.footer_len
    }
}

/// The file footer (paper Figure 2's "File Footer").
#[derive(Debug, Clone, PartialEq)]
pub struct FileFooter {
    pub nrows: u64,
    /// Root struct type of the table, spelled as a HiveQL type string.
    pub type_string: String,
    pub row_index_stride: u64,
    pub stripes: Vec<StripeInfo>,
    /// Stripe-level statistics: `stripe_stats[stripe][column]`.
    pub stripe_stats: Vec<Vec<stats::ColumnStatistics>>,
    /// File-level statistics per column of the column tree.
    pub file_stats: Vec<stats::ColumnStatistics>,
    /// Per column of the column tree, as `file_stats`: whether the writer
    /// saw the file's non-NULL values arrive non-decreasing under
    /// `hive_common::key`'s order. Empty when the footer carries no flags
    /// (an older file) or they fail to decode: the file is then unordered.
    pub ordered: Vec<bool>,
}

impl FileFooter {
    pub fn root_type(&self) -> Result<DataType> {
        DataType::parse(&self.type_string)
    }

    /// Whether the file says its column-tree column `col` is non-decreasing.
    pub fn is_ordered(&self, col: usize) -> bool {
        self.ordered.get(col).copied().unwrap_or(false)
    }
}

/// The postscript: how to read the rest (paper Figure 2's "Postscript").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PostScript {
    pub footer_len: u64,
    pub compression: Compression,
    pub compress_unit: u64,
}

// ---------------------------------------------------------------------------
// Metadata encoding
// ---------------------------------------------------------------------------

pub(crate) fn encode_stripe_footer(f: &StripeFooter, out: &mut Vec<u8>) {
    varint::write_unsigned(out, f.nrows);
    varint::write_unsigned(out, f.columns.len() as u64);
    for col in &f.columns {
        match &col.encoding {
            None => out.push(0),
            Some(ColumnEncoding::Direct) => out.push(1),
            Some(ColumnEncoding::Dictionary { size }) => {
                out.push(2);
                varint::write_unsigned(out, *size);
            }
        }
        varint::write_unsigned(out, col.streams.len() as u64);
        for s in &col.streams {
            out.push(s.kind.to_u8());
            varint::write_unsigned(out, s.len);
            varint::write_unsigned(out, s.chunks.len() as u64);
            for c in &s.chunks {
                varint::write_unsigned(out, c.offset);
                varint::write_unsigned(out, c.len);
                varint::write_unsigned(out, c.values);
            }
        }
    }
}

/// Decode a stripe footer (the stream directory) from its stored bytes.
pub fn decode_stripe_footer(buf: &[u8]) -> Result<StripeFooter> {
    let mut pos = 0usize;
    let nrows = varint::read_unsigned(buf, &mut pos)?;
    // Every column takes at least its encoding tag and stream count.
    let ncols = read_count(buf, &mut pos, 2)?;
    let mut columns = Vec::with_capacity(ncols);
    for _ in 0..ncols {
        let enc_tag = read_byte(buf, &mut pos)?;
        let encoding = match enc_tag {
            0 => None,
            1 => Some(ColumnEncoding::Direct),
            2 => Some(ColumnEncoding::Dictionary {
                size: varint::read_unsigned(buf, &mut pos)?,
            }),
            other => return Err(HiveError::Format(format!("bad encoding tag {other}"))),
        };
        let nstreams = read_count(buf, &mut pos, 3)?;
        let mut streams = Vec::with_capacity(nstreams);
        for _ in 0..nstreams {
            let kind = StreamKind::from_u8(read_byte(buf, &mut pos)?)?;
            let len = varint::read_unsigned(buf, &mut pos)?;
            let nchunks = read_count(buf, &mut pos, 3)?;
            let mut chunks = Vec::with_capacity(nchunks);
            for _ in 0..nchunks {
                chunks.push(ChunkInfo {
                    offset: varint::read_unsigned(buf, &mut pos)?,
                    len: varint::read_unsigned(buf, &mut pos)?,
                    values: varint::read_unsigned(buf, &mut pos)?,
                });
            }
            streams.push(StreamInfo { kind, len, chunks });
        }
        columns.push(ColumnStreams { encoding, streams });
    }
    Ok(StripeFooter { nrows, columns })
}

pub(crate) fn encode_file_footer(f: &FileFooter, out: &mut Vec<u8>) {
    varint::write_unsigned(out, f.nrows);
    varint::write_unsigned(out, f.type_string.len() as u64);
    out.extend_from_slice(f.type_string.as_bytes());
    varint::write_unsigned(out, f.row_index_stride);
    varint::write_unsigned(out, f.stripes.len() as u64);
    for s in &f.stripes {
        varint::write_unsigned(out, s.offset);
        varint::write_unsigned(out, s.index_len);
        varint::write_unsigned(out, s.bloom_len);
        varint::write_unsigned(out, s.data_len);
        varint::write_unsigned(out, s.footer_len);
        varint::write_unsigned(out, s.nrows);
    }
    varint::write_unsigned(out, f.stripe_stats.len() as u64);
    for per_stripe in &f.stripe_stats {
        varint::write_unsigned(out, per_stripe.len() as u64);
        for st in per_stripe {
            st.encode(out);
        }
    }
    varint::write_unsigned(out, f.file_stats.len() as u64);
    for st in &f.file_stats {
        st.encode(out);
    }
    // The order flags trail the statistics: a bit per column, packed eight
    // to a byte.
    varint::write_unsigned(out, f.ordered.len() as u64);
    for byte in f.ordered.chunks(8) {
        out.push(byte.iter().rev().fold(0u8, |b, &o| b << 1 | o as u8));
    }
}

pub(crate) fn decode_file_footer(buf: &[u8]) -> Result<FileFooter> {
    let mut pos = 0usize;
    let nrows = varint::read_unsigned(buf, &mut pos)?;
    let tlen = read_count(buf, &mut pos, 1)?;
    let type_string = String::from_utf8_lossy(&buf[pos..pos + tlen]).into_owned();
    pos += tlen;
    let row_index_stride = varint::read_unsigned(buf, &mut pos)?;
    // A stripe entry is six varints; statistics take at least three bytes.
    let nstripes = read_count(buf, &mut pos, 6)?;
    let mut stripes = Vec::with_capacity(nstripes);
    for _ in 0..nstripes {
        stripes.push(StripeInfo {
            offset: varint::read_unsigned(buf, &mut pos)?,
            index_len: varint::read_unsigned(buf, &mut pos)?,
            bloom_len: varint::read_unsigned(buf, &mut pos)?,
            data_len: varint::read_unsigned(buf, &mut pos)?,
            footer_len: varint::read_unsigned(buf, &mut pos)?,
            nrows: varint::read_unsigned(buf, &mut pos)?,
        });
    }
    let nss = read_count(buf, &mut pos, 1)?;
    let mut stripe_stats = Vec::with_capacity(nss);
    for _ in 0..nss {
        let ncols = read_count(buf, &mut pos, 3)?;
        let mut per = Vec::with_capacity(ncols);
        for _ in 0..ncols {
            per.push(stats::ColumnStatistics::decode(buf, &mut pos)?);
        }
        stripe_stats.push(per);
    }
    let nfs = read_count(buf, &mut pos, 3)?;
    let mut file_stats = Vec::with_capacity(nfs);
    for _ in 0..nfs {
        file_stats.push(stats::ColumnStatistics::decode(buf, &mut pos)?);
    }
    // Absent (a footer that ends at its statistics) or undecodable:
    // unordered.
    let ordered = decode_order_flags(buf, &mut pos).unwrap_or_default();
    Ok(FileFooter {
        nrows,
        type_string,
        row_index_stride,
        stripes,
        stripe_stats,
        file_stats,
        ordered,
    })
}

/// The footer's order flags, or `None` when they are absent, truncated, or
/// followed by bytes nothing wrote.
fn decode_order_flags(buf: &[u8], pos: &mut usize) -> Option<Vec<bool>> {
    if *pos == buf.len() {
        return None;
    }
    let n = varint::read_unsigned(buf, pos).ok()?;
    let bytes = buf.get(*pos..)?;
    if n > bytes.len() as u64 * 8 || bytes.len() as u64 != n.div_ceil(8) {
        return None;
    }
    let bit = |i: usize| bytes[i / 8] >> (i % 8) & 1 == 1;
    Some((0..n as usize).map(bit).collect())
}

/// Read a count of items each at least `min_item_bytes` long, refusing one
/// the bytes left after it could not hold: every buffer sized from a count
/// in the file is then bounded by the file's own length, so a flipped byte
/// is a `Format` error rather than an allocation the process cannot make.
pub(crate) fn read_count(buf: &[u8], pos: &mut usize, min_item_bytes: usize) -> Result<usize> {
    let n = varint::read_unsigned(buf, pos)?;
    let left = buf.len().saturating_sub(*pos) as u64;
    if n.saturating_mul(min_item_bytes.max(1) as u64) > left {
        return Err(HiveError::Format(format!(
            "ORC metadata count {n} exceeds the {left} bytes left"
        )));
    }
    Ok(n as usize)
}

pub(crate) fn encode_postscript(ps: &PostScript, out: &mut Vec<u8>) {
    let start = out.len();
    varint::write_unsigned(out, ps.footer_len);
    out.push(match ps.compression {
        Compression::None => 0,
        Compression::Snappy => 1,
        Compression::Zlib => 2,
    });
    varint::write_unsigned(out, ps.compress_unit);
    out.push(1); // version
    out.extend_from_slice(MAGIC);
    let ps_len = out.len() - start;
    debug_assert!(ps_len <= 255);
    out.push(ps_len as u8);
}

pub(crate) fn decode_postscript(file_tail: &[u8]) -> Result<(PostScript, usize)> {
    let n = file_tail.len();
    if n < 2 {
        return Err(HiveError::Format(
            "file too small for ORC postscript".into(),
        ));
    }
    let ps_len = file_tail[n - 1] as usize;
    if n < 1 + ps_len {
        return Err(HiveError::Format("postscript truncated".into()));
    }
    let ps = &file_tail[n - 1 - ps_len..n - 1];
    if ps.len() < 4 || &ps[ps.len() - 4..] != MAGIC {
        return Err(HiveError::Format("bad ORC magic".into()));
    }
    let mut pos = 0usize;
    let footer_len = varint::read_unsigned(ps, &mut pos)?;
    let compression = match read_byte(ps, &mut pos)? {
        0 => Compression::None,
        1 => Compression::Snappy,
        2 => Compression::Zlib,
        other => return Err(HiveError::Format(format!("bad compression tag {other}"))),
    };
    let compress_unit = varint::read_unsigned(ps, &mut pos)?;
    let _version = read_byte(ps, &mut pos)?;
    Ok((
        PostScript {
            footer_len,
            compression,
            compress_unit,
        },
        ps_len + 1,
    ))
}

fn read_byte(buf: &[u8], pos: &mut usize) -> Result<u8> {
    let b = *buf
        .get(*pos)
        .ok_or_else(|| HiveError::Format("ORC metadata truncated".into()))?;
    *pos += 1;
    Ok(b)
}

// ---------------------------------------------------------------------------
// Compression unit framing
// ---------------------------------------------------------------------------

/// Frame and (optionally) compress a chunk of raw stream bytes into
/// compression units of at most `unit` bytes each:
/// `[varint raw_len][varint body_len][flag][body]...`, flag 0 = stored.
pub(crate) fn frame_chunk(raw: &[u8], compression: Compression, unit: usize) -> Vec<u8> {
    let codec = compression.codec();
    let unit = unit.max(1024);
    let mut out = Vec::with_capacity(raw.len() / 2 + 16);
    let mut start = 0usize;
    loop {
        let end = (start + unit).min(raw.len());
        let piece = &raw[start..end];
        match &codec {
            Some(c) => {
                let comp = c.compress(piece);
                if comp.len() < piece.len() {
                    varint::write_unsigned(&mut out, piece.len() as u64);
                    varint::write_unsigned(&mut out, comp.len() as u64);
                    out.push(1);
                    out.extend_from_slice(&comp);
                } else {
                    // Incompressible unit: store raw, as ORC does.
                    varint::write_unsigned(&mut out, piece.len() as u64);
                    varint::write_unsigned(&mut out, piece.len() as u64);
                    out.push(0);
                    out.extend_from_slice(piece);
                }
            }
            None => {
                varint::write_unsigned(&mut out, piece.len() as u64);
                varint::write_unsigned(&mut out, piece.len() as u64);
                out.push(0);
                out.extend_from_slice(piece);
            }
        }
        start = end;
        if start >= raw.len() {
            break;
        }
    }
    out
}

/// Inverse of [`frame_chunk`]. A chunk stored as one uncompressed unit — every
/// chunk of an uncompressed file up to the unit size — comes back borrowed:
/// the unit's body, which is then the tail of `framed`.
pub(crate) fn deframe_chunk(framed: &[u8], compression: Compression) -> Result<Cow<'_, [u8]>> {
    let codec = compression.codec();
    let mut out = Vec::new();
    let mut pos = 0usize;
    while pos < framed.len() {
        let raw_len = varint::read_unsigned(framed, &mut pos)? as usize;
        let body_len = varint::read_unsigned(framed, &mut pos)? as usize;
        let flag = read_byte(framed, &mut pos)?;
        if body_len > framed.len() - pos {
            return Err(HiveError::Format("compression unit truncated".into()));
        }
        let body = &framed[pos..pos + body_len];
        pos += body_len;
        match flag {
            0 if out.is_empty() && pos == framed.len() => return Ok(Cow::Borrowed(body)),
            0 => out.extend_from_slice(body),
            1 => {
                let c = codec
                    .as_ref()
                    .ok_or_else(|| HiveError::Format("compressed unit but codec is none".into()))?;
                let raw = c.decompress(body)?;
                if raw.len() != raw_len {
                    return Err(HiveError::Format("compression unit length mismatch".into()));
                }
                if out.is_empty() && pos == framed.len() {
                    return Ok(Cow::Owned(raw));
                }
                out.extend_from_slice(&raw);
            }
            other => return Err(HiveError::Format(format!("bad unit flag {other}"))),
        }
    }
    Ok(Cow::Owned(out))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stripe_footer_round_trip() {
        let f = StripeFooter {
            nrows: 123,
            columns: vec![
                ColumnStreams {
                    encoding: None,
                    streams: vec![],
                },
                ColumnStreams {
                    encoding: Some(ColumnEncoding::Dictionary { size: 7 }),
                    streams: vec![StreamInfo {
                        kind: StreamKind::Data,
                        len: 100,
                        chunks: vec![
                            ChunkInfo {
                                offset: 0,
                                len: 60,
                                values: 50,
                            },
                            ChunkInfo {
                                offset: 60,
                                len: 40,
                                values: 30,
                            },
                        ],
                    }],
                },
            ],
        };
        let mut buf = Vec::new();
        encode_stripe_footer(&f, &mut buf);
        assert_eq!(decode_stripe_footer(&buf).unwrap(), f);
    }

    #[test]
    fn file_footer_round_trip() {
        let f = FileFooter {
            nrows: 42,
            type_string: "struct<a:bigint,b:string>".into(),
            row_index_stride: 10_000,
            stripes: vec![StripeInfo {
                offset: 0,
                index_len: 10,
                bloom_len: 6,
                data_len: 100,
                footer_len: 20,
                nrows: 42,
            }],
            stripe_stats: vec![vec![stats::ColumnStatistics::Generic {
                count: 42,
                has_null: false,
            }]],
            file_stats: vec![stats::ColumnStatistics::Int {
                count: 42,
                has_null: false,
                min: Some(0),
                max: Some(41),
                sum: Some(861),
            }],
            ordered: vec![false, true, false, false, true, true, false, false, true],
        };
        let mut buf = Vec::new();
        encode_file_footer(&f, &mut buf);
        assert_eq!(decode_file_footer(&buf).unwrap(), f);
        assert!(f.root_type().is_ok());

        // The flags (a count, then nine bits in two bytes) end the footer
        // right after the file statistics. A footer that ends before
        // them, or whose flags are torn, decodes as unordered.
        let flags_at = buf.len() - 3;
        assert_eq!(buf[flags_at], 9);
        let older = decode_file_footer(&buf[..flags_at]).unwrap();
        assert_eq!(older.file_stats, f.file_stats);
        assert_eq!(older.ordered, Vec::<bool>::new());
        let torn = decode_file_footer(&buf[..buf.len() - 1]).unwrap();
        assert!(!torn.is_ordered(1));
    }

    #[test]
    fn counts_beyond_the_bytes_left_are_errors() {
        let mut buf = Vec::new();
        varint::write_unsigned(&mut buf, 1 << 60);
        buf.extend_from_slice(&[0; 16]);
        let mut pos = 0;
        assert!(read_count(&buf, &mut pos, 1).is_err());
        let mut pos = 0;
        let mut small = Vec::new();
        varint::write_unsigned(&mut small, 4);
        small.extend_from_slice(&[0; 8]);
        assert_eq!(read_count(&small, &mut pos, 2).unwrap(), 4);
        let mut pos = 0;
        assert!(read_count(&small, &mut pos, 3).is_err());
    }

    #[test]
    fn postscript_round_trip() {
        let ps = PostScript {
            footer_len: 999,
            compression: Compression::Snappy,
            compress_unit: 256 << 10,
        };
        let mut buf = b"leading stripe bytes".to_vec();
        encode_postscript(&ps, &mut buf);
        let (back, tail_len) = decode_postscript(&buf).unwrap();
        assert_eq!(back, ps);
        assert!(tail_len < buf.len());
    }

    #[test]
    fn bad_magic_rejected() {
        let buf = b"not orc at all\x05".to_vec();
        assert!(decode_postscript(&buf).is_err());
    }

    #[test]
    fn frame_deframe_all_codecs() {
        let data: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
        for comp in [Compression::None, Compression::Snappy, Compression::Zlib] {
            let framed = frame_chunk(&data, comp, 16 << 10);
            assert_eq!(*deframe_chunk(&framed, comp).unwrap(), data[..], "{comp}");
        }
    }

    #[test]
    fn one_stored_unit_deframes_without_a_copy() {
        let data: Vec<u8> = (0..5000u32).map(|i| i as u8).collect();
        let framed = frame_chunk(&data, Compression::None, 16 << 10);
        let Cow::Borrowed(body) = deframe_chunk(&framed, Compression::None).unwrap() else {
            panic!("a single stored unit must come back borrowed");
        };
        assert_eq!(body, &framed[framed.len() - data.len()..]);
        assert_eq!(body, &data[..]);
        // Two units have to be stitched together.
        let framed = frame_chunk(&data, Compression::None, 4 << 10);
        let stitched = deframe_chunk(&framed, Compression::None).unwrap();
        assert!(matches!(stitched, Cow::Owned(_)));
        assert_eq!(*stitched, data[..]);
    }

    #[test]
    fn incompressible_units_stored_raw() {
        let mut x = 0x853c49e6748fea9bu64;
        let data: Vec<u8> = (0..10_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect();
        let framed = frame_chunk(&data, Compression::Snappy, 4 << 10);
        // Stored-raw framing must not blow up size by more than the headers.
        assert!(framed.len() < data.len() + 64);
        assert_eq!(
            *deframe_chunk(&framed, Compression::Snappy).unwrap(),
            data[..]
        );
    }

    #[test]
    fn hostile_length_header_is_an_error_not_an_abort() {
        // One compressed unit whose frame and codec header both claim 2^40
        // bytes: a codec error, not an allocation failure.
        let mut snappy = Vec::new();
        varint::write_unsigned(&mut snappy, 1 << 40);
        snappy.extend_from_slice(&[0, b'a']);
        let mut zlib = hive_codec::huffman::compress(b"a");
        zlib.truncate(256);
        varint::write_unsigned(&mut zlib, 1 << 40);
        zlib.push(0);
        for (comp, body) in [(Compression::Snappy, snappy), (Compression::Zlib, zlib)] {
            let mut framed = Vec::new();
            varint::write_unsigned(&mut framed, 1 << 40);
            varint::write_unsigned(&mut framed, body.len() as u64);
            framed.push(1);
            framed.extend_from_slice(&body);
            let err = deframe_chunk(&framed, comp).unwrap_err();
            assert!(matches!(err, HiveError::Codec(_)), "{comp}: {err}");
        }
    }
}
