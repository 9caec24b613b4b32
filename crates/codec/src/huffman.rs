//! Canonical order-0 Huffman coding over bytes, the entropy stage of the
//! Deflate-class block codec.

use hive_common::{HiveError, Result};

const NSYM: usize = 256;
const MAX_LEN: usize = 32;

/// Compute Huffman code lengths for the given symbol frequencies.
///
/// Classic two-queue construction over a heap; returns one length per
/// symbol (0 for unused symbols). With ≤256 KB inputs the maximum depth is
/// bounded well under [`MAX_LEN`].
fn code_lengths(freqs: &[u64; NSYM]) -> [u8; NSYM] {
    #[derive(Clone)]
    struct Node {
        // Leaf symbol or internal children indexes into `nodes`.
        kind: NodeKind,
    }
    #[derive(Clone)]
    enum NodeKind {
        Leaf(usize),
        Internal(usize, usize),
    }

    let mut lengths = [0u8; NSYM];
    let mut nodes: Vec<Node> = Vec::new();
    let mut heap: std::collections::BinaryHeap<std::cmp::Reverse<(u64, usize)>> =
        std::collections::BinaryHeap::new();
    for (sym, &f) in freqs.iter().enumerate() {
        if f > 0 {
            let idx = nodes.len();
            nodes.push(Node {
                kind: NodeKind::Leaf(sym),
            });
            heap.push(std::cmp::Reverse((f, idx)));
        }
    }
    match heap.len() {
        0 => return lengths,
        1 => {
            // A single distinct symbol still needs 1 bit.
            if let NodeKind::Leaf(sym) = nodes[0].kind {
                lengths[sym] = 1;
            }
            return lengths;
        }
        _ => {}
    }
    while heap.len() > 1 {
        let std::cmp::Reverse((w1, i1)) = heap.pop().unwrap();
        let std::cmp::Reverse((w2, i2)) = heap.pop().unwrap();
        let idx = nodes.len();
        nodes.push(Node {
            kind: NodeKind::Internal(i1, i2),
        });
        heap.push(std::cmp::Reverse((w1 + w2, idx)));
    }
    // Depth-first assign depths.
    let root = heap.pop().unwrap().0 .1;
    let mut stack = vec![(root, 0u8)];
    while let Some((idx, depth)) = stack.pop() {
        match nodes[idx].kind {
            NodeKind::Leaf(sym) => lengths[sym] = depth.max(1),
            NodeKind::Internal(a, b) => {
                stack.push((a, depth + 1));
                stack.push((b, depth + 1));
            }
        }
    }
    lengths
}

/// Assign canonical codes from lengths: shorter codes first, ties by symbol.
fn canonical_codes(lengths: &[u8; NSYM]) -> [u32; NSYM] {
    let mut codes = [0u32; NSYM];
    let mut count = [0u32; MAX_LEN + 1];
    for &l in lengths.iter() {
        count[l as usize] += 1;
    }
    count[0] = 0;
    let mut next = [0u32; MAX_LEN + 1];
    let mut code = 0u32;
    for len in 1..=MAX_LEN {
        code = (code + count[len - 1]) << 1;
        next[len] = code;
    }
    for sym in 0..NSYM {
        let l = lengths[sym] as usize;
        if l > 0 {
            codes[sym] = next[l];
            next[l] += 1;
        }
    }
    codes
}

/// MSB-first bit writer.
#[derive(Default)]
struct BitWriter {
    out: Vec<u8>,
    acc: u64,
    nbits: u32,
}

impl BitWriter {
    fn put(&mut self, code: u32, len: u32) {
        debug_assert!(len <= 32);
        self.acc = (self.acc << len) | code as u64;
        self.nbits += len;
        while self.nbits >= 8 {
            self.nbits -= 8;
            self.out.push((self.acc >> self.nbits) as u8);
        }
    }

    fn finish(mut self) -> Vec<u8> {
        if self.nbits > 0 {
            self.out.push((self.acc << (8 - self.nbits)) as u8);
        }
        self.out
    }
}

/// MSB-first bit reader.
struct BitReader<'a> {
    buf: &'a [u8],
    pos: usize,
    acc: u64,
    nbits: u32,
}

impl<'a> BitReader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        BitReader {
            buf,
            pos: 0,
            acc: 0,
            nbits: 0,
        }
    }

    fn next_bit(&mut self) -> Result<u32> {
        if self.nbits == 0 {
            let b = *self
                .buf
                .get(self.pos)
                .ok_or_else(|| HiveError::Codec("huffman bitstream truncated".into()))?;
            self.pos += 1;
            self.acc = b as u64;
            self.nbits = 8;
        }
        self.nbits -= 1;
        Ok(((self.acc >> self.nbits) & 1) as u32)
    }
}

/// Compress `data`: header = 256 code lengths (1 byte each) + varint count
/// + bitstream. Returns `None` if every byte has frequency 0 (empty input).
pub fn compress(data: &[u8]) -> Vec<u8> {
    let mut freqs = [0u64; NSYM];
    for &b in data {
        freqs[b as usize] += 1;
    }
    let lengths = code_lengths(&freqs);
    let codes = canonical_codes(&lengths);

    let mut out = Vec::with_capacity(NSYM + data.len() / 2 + 16);
    out.extend_from_slice(&lengths);
    crate::varint::write_unsigned(&mut out, data.len() as u64);
    let mut bw = BitWriter::default();
    for &b in data {
        bw.put(codes[b as usize], lengths[b as usize] as u32);
    }
    out.extend_from_slice(&bw.finish());
    out
}

/// Inverse of [`compress`].
pub fn decompress(buf: &[u8]) -> Result<Vec<u8>> {
    if buf.len() < NSYM {
        return Err(HiveError::Codec("huffman header truncated".into()));
    }
    let mut lengths = [0u8; NSYM];
    lengths.copy_from_slice(&buf[..NSYM]);
    for &l in lengths.iter() {
        if l as usize > MAX_LEN {
            return Err(HiveError::Codec(format!("huffman length {l} too large")));
        }
    }
    let mut pos = NSYM;
    let n = crate::varint::read_unsigned(buf, &mut pos)?;
    // Every code is at least one bit, so the bitstream bounds the count.
    let most = ((buf.len() - pos) as u64).saturating_mul(8);
    if n > most {
        return Err(HiveError::Codec(format!(
            "huffman header claims {n} symbols, the bitstream holds at most {most}"
        )));
    }
    let n = n as usize;

    // Canonical decode tables: first code and symbol offset per length.
    let mut count = [0u32; MAX_LEN + 1];
    for &l in lengths.iter() {
        count[l as usize] += 1;
    }
    count[0] = 0;
    let mut first = [0u32; MAX_LEN + 1];
    let mut offset = [0u32; MAX_LEN + 1];
    let mut code = 0u32;
    let mut total = 0u32;
    for len in 1..=MAX_LEN {
        code = (code + count[len - 1]) << 1;
        first[len] = code;
        offset[len] = total;
        total += count[len];
    }
    // Symbols sorted by (length, symbol) — canonical order.
    let mut symbols = Vec::with_capacity(total as usize);
    for len in 1..=MAX_LEN as u8 {
        for (sym, &l) in lengths.iter().enumerate() {
            if l == len {
                symbols.push(sym as u8);
            }
        }
    }
    if n > 0 && symbols.is_empty() {
        return Err(HiveError::Codec(
            "huffman table empty but data present".into(),
        ));
    }

    let mut br = BitReader::new(&buf[pos..]);
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let mut code = 0u32;
        let mut len = 0usize;
        loop {
            code = (code << 1) | br.next_bit()?;
            len += 1;
            if len > MAX_LEN {
                return Err(HiveError::Codec("huffman code too long".into()));
            }
            let idx = code.wrapping_sub(first[len]);
            if idx < count[len] {
                out.push(symbols[(offset[len] + idx) as usize]);
                break;
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_text() {
        let data = b"the quick brown fox jumps over the lazy dog; the dog sleeps".repeat(50);
        let c = compress(&data);
        assert_eq!(decompress(&c).unwrap(), data);
        // English-ish text should beat 8 bits/byte even with the 256-byte header.
        assert!(c.len() < data.len());
    }

    #[test]
    fn round_trip_empty_and_single_symbol() {
        assert_eq!(decompress(&compress(b"")).unwrap(), b"");
        let data = vec![7u8; 1000];
        let c = compress(&data);
        assert_eq!(decompress(&c).unwrap(), data);
        // 1 bit per byte + header.
        assert!(c.len() < 256 + 1000 / 8 + 16);
    }

    #[test]
    fn round_trip_uniform_random() {
        let mut x = 0x9e3779b97f4a7c15u64;
        let data: Vec<u8> = (0..10_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect();
        let c = compress(&data);
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn truncated_errors() {
        let c = compress(b"hello world hello world");
        assert!(decompress(&c[..NSYM - 1]).is_err());
        assert!(decompress(&c[..c.len() - 1]).is_err());
    }

    #[test]
    fn hostile_length_header_is_an_error_not_an_abort() {
        let mut buf = compress(b"abc");
        buf.truncate(NSYM);
        crate::varint::write_unsigned(&mut buf, 1 << 40);
        buf.push(0);
        assert!(matches!(decompress(&buf), Err(HiveError::Codec(_))));
        // Eight one-bit codes fit in one byte; a ninth does not.
        let mut one_bit = compress(&[5u8; 8]);
        assert_eq!(decompress(&one_bit).unwrap(), vec![5u8; 8]);
        one_bit[NSYM] = 9;
        let err = decompress(&one_bit).unwrap_err().to_string();
        assert!(err.contains("header claims"), "{err}");
    }
}
