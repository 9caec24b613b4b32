//! The LZ77 core shared by the Snappy-class and Deflate-class codecs.
//!
//! Format (mirrors Snappy's): a varint uncompressed length, then a tag
//! stream. Tag low 2 bits:
//!
//! * `00` — literal run. Upper 6 bits = length-1 when < 60; 60/61 mean the
//!   length-1 follows in 1/2 little-endian bytes.
//! * `01` — copy, length 4..=11 in bits 2..5, offset 1..=2047 from bits 5..8
//!   plus one byte.
//! * `10` — copy, length 1..=64 in upper 6 bits, 2-byte LE offset.
//!
//! The compressor is greedy with a 4-byte hash table, 64 KB window.

use crate::varint;
use hive_common::{HiveError, Result};

const HASH_BITS: u32 = 14;
const HASH_SIZE: usize = 1 << HASH_BITS;
const MAX_OFFSET: usize = 65535;
const MIN_MATCH: usize = 4;

#[inline]
fn hash4(data: &[u8], i: usize) -> usize {
    let v = u32::from_le_bytes([data[i], data[i + 1], data[i + 2], data[i + 3]]);
    (v.wrapping_mul(0x1e35a7bd) >> (32 - HASH_BITS)) as usize
}

fn emit_literals(out: &mut Vec<u8>, lits: &[u8]) {
    let mut start = 0;
    while start < lits.len() {
        let chunk = (lits.len() - start).min(65536);
        let n = chunk - 1;
        if n < 60 {
            out.push((n as u8) << 2);
        } else if n < 256 {
            out.push(60 << 2);
            out.push(n as u8);
        } else {
            out.push(61 << 2);
            out.push(n as u8);
            out.push((n >> 8) as u8);
        }
        out.extend_from_slice(&lits[start..start + chunk]);
        start += chunk;
    }
}

fn emit_copy(out: &mut Vec<u8>, offset: usize, mut len: usize) {
    debug_assert!((1..=MAX_OFFSET).contains(&offset));
    // Long matches are emitted as several copies of at most 64 bytes.
    while len > 0 {
        let chunk = len.min(64);
        // Tail shorter than 4 can't be a 01-tag; force 10-tag.
        if (4..=11).contains(&chunk) && offset < 2048 {
            out.push(0b01 | (((chunk - 4) as u8) << 2) | (((offset >> 8) as u8) << 5));
            out.push(offset as u8);
        } else {
            out.push(0b10 | (((chunk - 1) as u8) << 2));
            out.push(offset as u8);
            out.push((offset >> 8) as u8);
        }
        len -= chunk;
    }
}

/// Compress `data` into the tag stream format.
pub fn snappy_compress(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() / 2 + 16);
    varint::write_unsigned(&mut out, data.len() as u64);
    if data.is_empty() {
        return out;
    }
    let mut table = vec![usize::MAX; HASH_SIZE];
    let mut i = 0usize;
    let mut lit_start = 0usize;
    while i + MIN_MATCH <= data.len() {
        let h = hash4(data, i);
        let cand = table[h];
        table[h] = i;
        let ok = cand != usize::MAX
            && i - cand <= MAX_OFFSET
            && data[cand..cand + MIN_MATCH] == data[i..i + MIN_MATCH];
        if ok {
            // Extend the match as far as possible.
            let mut len = MIN_MATCH;
            let max = data.len() - i;
            while len < max && data[cand + len] == data[i + len] {
                len += 1;
            }
            emit_literals(&mut out, &data[lit_start..i]);
            emit_copy(&mut out, i - cand, len);
            // Re-seed the hash table sparsely inside the match (speed).
            let end = i + len;
            let mut j = i + 1;
            while j + MIN_MATCH <= data.len() && j < end {
                table[hash4(data, j)] = j;
                j += if len > 64 { 8 } else { 1 };
            }
            i = end;
            lit_start = i;
        } else {
            i += 1;
        }
    }
    emit_literals(&mut out, &data[lit_start..]);
    out
}

/// Bytes the decoder may write past a tag's output: a short literal or
/// copy moves a fixed 16 bytes and the next tag overwrites the excess.
const SLACK: usize = 16;

/// The most output one body byte can stand for: a 3-byte copy tag yields
/// 64 bytes, a literal byte one.
const MAX_EXPANSION: u64 = 22;

/// What a tag byte says, so the decoder reads it with one lookup instead of
/// a branch per tag kind: bits 0..8 the length (for a literal whose length
/// follows in trailing bytes, the `+ 1` added to them), bits 8..11 the high
/// offset bits of a `01` copy, bits 11..13 the count of trailing bytes
/// (0..=2). Zero marks a tag the format does not have: a literal of 62/63
/// and every `11` tag.
static TAGS: [u16; 256] = tag_table();

const fn tag_table() -> [u16; 256] {
    let mut t = [0u16; 256];
    let mut i = 0;
    while i < 256 {
        let tag = i as u16;
        let upper = tag >> 2;
        t[i] = match tag & 0b11 {
            0b00 if upper < 60 => upper + 1,
            0b00 if upper < 62 => 1 | ((upper - 59) << 11),
            0b01 => ((upper & 0x7) + 4) | ((tag >> 5) << 8) | (1 << 11),
            0b10 => (upper + 1) | (2 << 11),
            _ => 0,
        };
        i += 1;
    }
    t
}

/// Decompress a buffer produced by [`snappy_compress`].
///
/// The output is sized once from the header (which must be no larger than
/// the body can produce), every tag is checked against it before it
/// writes, and short literals and copies overcopy into [`SLACK`] bytes
/// that are truncated at the end.
pub fn snappy_decompress(buf: &[u8]) -> Result<Vec<u8>> {
    let mut pos = 0usize;
    let expect = varint::read_unsigned(buf, &mut pos)?;
    let body = (buf.len() - pos) as u64;
    let most = body.saturating_mul(MAX_EXPANSION);
    if expect > most {
        return Err(HiveError::Codec(format!(
            "header claims {expect} bytes, a {body}-byte body yields at most {most}"
        )));
    }
    let expect = expect as usize;
    let mut out = vec![0u8; expect + SLACK];
    let mut op = 0usize;
    while pos < buf.len() {
        let tag = buf[pos];
        let literal = tag & 0b11 == 0;
        let entry = TAGS[tag as usize] as usize;
        if entry == 0 {
            return Err(HiveError::Codec(
                if literal {
                    "bad literal tag"
                } else {
                    "unsupported copy tag 0b11"
                }
                .into(),
            ));
        }
        pos += 1;
        // The tag's 0..=2 trailing bytes, little-endian: read as a masked
        // word while 4 bytes remain, one by one near the end of the body.
        let extra = entry >> 11;
        let trailer = if buf.len() - pos >= 4 {
            let mut word = [0u8; 4];
            word.copy_from_slice(&buf[pos..pos + 4]);
            (u32::from_le_bytes(word) & [0, 0xff, 0xffff][extra]) as usize
        } else if let Some(bytes) = buf.get(pos..pos + extra) {
            bytes.iter().rev().fold(0, |w, &b| w << 8 | b as usize)
        } else {
            return Err(HiveError::Codec(
                if literal {
                    "literal length truncated"
                } else {
                    "copy tag truncated"
                }
                .into(),
            ));
        };
        pos += extra;
        if literal {
            let len = (entry & 0xff) + trailer;
            if len > expect - op {
                return Err(overrun(op, len, expect));
            }
            if len <= SLACK && buf.len() - pos >= SLACK {
                out[op..op + SLACK].copy_from_slice(&buf[pos..pos + SLACK]);
            } else {
                let run = buf
                    .get(pos..pos + len)
                    .ok_or_else(|| HiveError::Codec("literal run truncated".into()))?;
                out[op..op + len].copy_from_slice(run);
            }
            pos += len;
            op += len;
            continue;
        }
        let len = entry & 0xff;
        let offset = (entry & 0x700) + trailer;
        if offset == 0 || offset > op {
            return Err(HiveError::Codec(format!(
                "copy offset {offset} out of range (have {op} bytes)"
            )));
        }
        if len > expect - op {
            return Err(overrun(op, len, expect));
        }
        copy_back(&mut out, op, offset, len);
        op += len;
    }
    if op != expect {
        return Err(HiveError::Codec(format!(
            "decompressed {op} bytes, expected {expect}"
        )));
    }
    out.truncate(expect);
    Ok(out)
}

fn overrun(op: usize, len: usize, expect: usize) -> HiveError {
    HiveError::Codec(format!(
        "a {len}-byte tag at output byte {op} overruns the {expect} bytes expected"
    ))
}

/// Copy `len` bytes from `offset` back of `op` to `op`, with the
/// overlapping RLE-style copies LZ77 depends on. The caller has checked
/// `offset <= op` and `op + len <= out.len() - SLACK`.
fn copy_back(out: &mut [u8], op: usize, offset: usize, len: usize) {
    let src = op - offset;
    if offset < 8 {
        // Overlapping by less than a word: each byte may be one this very
        // copy wrote.
        for k in 0..len {
            out[op + k] = out[src + k];
        }
    } else if len <= SLACK {
        // Two words; with `offset >= 8` the second reads only bytes that
        // are final, the first word's included.
        let mut word = [0u8; 8];
        word.copy_from_slice(&out[src..src + 8]);
        out[op..op + 8].copy_from_slice(&word);
        word.copy_from_slice(&out[src + 8..src + 16]);
        out[op + 8..op + 16].copy_from_slice(&word);
    } else if offset >= len {
        out.copy_within(src..src + len, op);
    } else {
        // Overlapping by a word or more: a word at a time, the same way.
        let mut k = 0;
        while k < len {
            out.copy_within(src + k..src + k + 8, op + k);
            k += 8;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The decoder by its definition: one byte at a time into a growing
    /// vector, every check where the format needs it.
    fn reference_decompress(buf: &[u8]) -> Result<Vec<u8>> {
        let mut pos = 0usize;
        let expect = varint::read_unsigned(buf, &mut pos)? as usize;
        let mut out = Vec::new();
        while pos < buf.len() {
            let tag = buf[pos];
            pos += 1;
            let (len, offset) = match tag & 0b11 {
                0b00 => {
                    let mut n = (tag >> 2) as usize;
                    if n >= 60 {
                        if n > 61 {
                            return Err(HiveError::Codec("bad literal tag".into()));
                        }
                        let extra = n - 59;
                        let bytes = buf
                            .get(pos..pos + extra)
                            .ok_or_else(|| HiveError::Codec("literal length truncated".into()))?;
                        n = bytes
                            .iter()
                            .enumerate()
                            .fold(0, |n, (k, &b)| n | (b as usize) << (8 * k));
                        pos += extra;
                    }
                    let lit = buf
                        .get(pos..pos + n + 1)
                        .ok_or_else(|| HiveError::Codec("literal run truncated".into()))?;
                    out.extend_from_slice(lit);
                    pos += n + 1;
                    continue;
                }
                0b01 => {
                    let b = *buf
                        .get(pos)
                        .ok_or_else(|| HiveError::Codec("copy tag truncated".into()))?;
                    pos += 1;
                    (
                        ((tag >> 2) & 0x7) as usize + 4,
                        ((tag >> 5) as usize) << 8 | b as usize,
                    )
                }
                0b10 => {
                    let b = buf
                        .get(pos..pos + 2)
                        .ok_or_else(|| HiveError::Codec("copy tag truncated".into()))?;
                    pos += 2;
                    (
                        (tag >> 2) as usize + 1,
                        b[0] as usize | (b[1] as usize) << 8,
                    )
                }
                _ => return Err(HiveError::Codec("unsupported copy tag 0b11".into())),
            };
            if offset == 0 || offset > out.len() {
                return Err(HiveError::Codec("copy offset out of range".into()));
            }
            for _ in 0..len {
                out.push(out[out.len() - offset]);
            }
        }
        if out.len() != expect {
            return Err(HiveError::Codec("length mismatch".into()));
        }
        Ok(out)
    }

    fn xorshift_bytes(n: usize, mut x: u64) -> Vec<u8> {
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 24) as u8
            })
            .collect()
    }

    /// Compressible (a few words in varying order), random and RLE inputs.
    fn corpus() -> Vec<Vec<u8>> {
        let words: [&[u8]; 6] = [
            b"DELIVER IN PERSON",
            b"NONE",
            b"AIR",
            b"1996-03-13",
            b"N",
            b"O",
        ];
        let mut text = Vec::new();
        for (i, r) in xorshift_bytes(4000, 7).into_iter().enumerate() {
            text.extend_from_slice(words[r as usize % words.len()]);
            text.push(b'|');
            if i % 5 == 0 {
                text.extend_from_slice(&(i as u32).to_le_bytes());
            }
        }
        let mut rle = Vec::new();
        for (i, r) in xorshift_bytes(300, 11).into_iter().enumerate() {
            rle.extend(std::iter::repeat_n(i as u8, r as usize % 90 + 1));
        }
        vec![
            Vec::new(),
            vec![3],
            text,
            xorshift_bytes(70_000, 0x853c_49e6_748f_ea9b),
            rle,
            vec![0; 100_000],
        ]
    }

    /// A unit of hand-made tags: a `lit`-byte literal, then one copy.
    fn unit_with_copy(lit: usize, offset: usize, len: usize, two_byte: bool) -> Vec<u8> {
        let literal: Vec<u8> = (0..lit as u32).map(|i| (i * 7 + 3) as u8).collect();
        let mut buf = Vec::new();
        varint::write_unsigned(&mut buf, (lit + len) as u64);
        emit_literals(&mut buf, &literal);
        if two_byte || !(4..=11).contains(&len) || offset >= 2048 {
            buf.push(0b10 | (((len - 1) as u8) << 2));
            buf.push(offset as u8);
            buf.push((offset >> 8) as u8);
        } else {
            buf.push(0b01 | (((len - 4) as u8) << 2) | (((offset >> 8) as u8) << 5));
            buf.push(offset as u8);
        }
        buf
    }

    fn round_trip(data: &[u8]) {
        let c = snappy_compress(data);
        assert_eq!(snappy_decompress(&c).unwrap(), data);
    }

    #[test]
    fn basic_round_trips() {
        round_trip(b"");
        round_trip(b"a");
        round_trip(b"abcabcabcabcabcabcabc");
        round_trip(&b"x".repeat(100_000));
    }

    #[test]
    fn overlapping_copy_rle() {
        // offset 1, long length — the classic RLE-via-LZ case.
        let data = vec![9u8; 1000];
        let c = snappy_compress(&data);
        assert!(c.len() < 64);
        assert_eq!(snappy_decompress(&c).unwrap(), data);
    }

    #[test]
    fn long_literal_runs() {
        // > 60 and > 256 literal lengths exercise the extended tags.
        let mut x = 1u64;
        let data: Vec<u8> = (0..5000)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                (x >> 33) as u8
            })
            .collect();
        round_trip(&data);
    }

    #[test]
    fn matches_beyond_2048_use_two_byte_offsets() {
        let mut data = vec![0u8; 5000];
        for (i, b) in data.iter_mut().enumerate() {
            *b = (i % 251) as u8;
        }
        let mut doubled = data.clone();
        doubled.extend_from_slice(&data);
        round_trip(&doubled);
        let c = snappy_compress(&doubled);
        assert!(c.len() < doubled.len());
    }

    #[test]
    fn bad_offset_is_error() {
        let mut buf = Vec::new();
        varint::write_unsigned(&mut buf, 10);
        buf.push(0b10 | (9 << 2)); // copy len 10
        buf.push(5); // offset 5 but output is empty
        buf.push(0);
        assert!(snappy_decompress(&buf).is_err());
    }

    #[test]
    fn length_mismatch_is_error() {
        let mut buf = Vec::new();
        varint::write_unsigned(&mut buf, 100); // claims 100 bytes
        buf.push(0 << 2); // literal of 1 byte
        buf.push(b'z');
        assert!(snappy_decompress(&buf).is_err());
    }

    #[test]
    fn decoder_equals_the_bytewise_reference() {
        for data in corpus() {
            let c = snappy_compress(&data);
            assert_eq!(snappy_decompress(&c).unwrap(), data);
            assert_eq!(reference_decompress(&c).unwrap(), data);
        }
        // Offsets 1..=16 take every copy path; the longer ones copy without
        // overlap.
        for offset in (1..=16).chain([17, 40, 64, 100]) {
            for len in 1..=64 {
                for two_byte in [false, true] {
                    let unit = unit_with_copy(100, offset, len, two_byte);
                    let want = reference_decompress(&unit).unwrap();
                    assert_eq!(
                        snappy_decompress(&unit).unwrap(),
                        want,
                        "offset {offset} len {len}"
                    );
                }
            }
        }
    }

    #[test]
    fn every_single_byte_mutation_agrees_with_the_reference() {
        let mut data = Vec::new();
        for (i, r) in xorshift_bytes(120, 5).into_iter().enumerate() {
            data.extend_from_slice(if r % 3 == 0 { b"ABCD" } else { b"xy" });
            data.push((i % 7) as u8);
            if r % 4 == 0 {
                data.extend(std::iter::repeat_n(r, r as usize % 20));
            }
        }
        let unit = snappy_compress(&data);
        assert!(unit.len() < data.len());
        let mut mutated = unit.clone();
        for pos in 0..unit.len() {
            for v in 0..=255u8 {
                if v == unit[pos] {
                    continue;
                }
                mutated[pos] = v;
                let fast = std::panic::catch_unwind(|| snappy_decompress(&mutated))
                    .unwrap_or_else(|_| panic!("decoder panicked: byte {pos} = {v}"));
                match (fast, reference_decompress(&mutated)) {
                    (Ok(a), Ok(b)) => assert_eq!(a, b, "byte {pos} = {v}"),
                    (Err(_), Err(_)) => {}
                    (a, b) => panic!("byte {pos} = {v}: {:?} vs {:?}", a.is_ok(), b.is_ok()),
                }
            }
            mutated[pos] = unit[pos];
        }
    }

    #[test]
    fn overrun_is_caught_at_its_tag() {
        // Claims 21 bytes; a 20-byte literal then a 4-byte copy.
        let mut unit = unit_with_copy(20, 4, 4, false);
        unit[0] = 21;
        let err = snappy_decompress(&unit).unwrap_err().to_string();
        assert!(err.contains("overruns"), "{err}");
        // A literal past the end.
        let mut buf = Vec::new();
        varint::write_unsigned(&mut buf, 2);
        emit_literals(&mut buf, b"abc");
        let err = snappy_decompress(&buf).unwrap_err().to_string();
        assert!(err.contains("overruns"), "{err}");
    }

    #[test]
    fn hostile_length_header_is_an_error_not_an_abort() {
        // A 9-byte unit claiming 2^40 bytes: rejected before allocating.
        let mut buf = Vec::new();
        varint::write_unsigned(&mut buf, 1 << 40);
        emit_literals(&mut buf, b"ab");
        assert_eq!(buf.len(), 9);
        assert!(matches!(snappy_decompress(&buf), Err(HiveError::Codec(_))));
        // The bound is the body's: 22 x 3 bytes passes the header check
        // (and fails later as a length mismatch), 67 does not.
        let mut unit = Vec::new();
        varint::write_unsigned(&mut unit, 66);
        unit.extend_from_slice(&[0b10 | (63 << 2), 1, 0]);
        let err = snappy_decompress(&unit).unwrap_err().to_string();
        assert!(err.contains("copy offset"), "{err}");
        unit[0] = 67;
        let err = snappy_decompress(&unit).unwrap_err().to_string();
        assert!(err.contains("header claims"), "{err}");
        assert!(snappy_decompress(&[0xff; 11]).is_err());
    }
}
