//! The bit-field stream (paper Section 4.3, fourth primitive kind): a
//! sequence of booleans, one bit each, "backed by a run length byte stream".
//!
//! ORC uses these for null-presence (`PRESENT`) streams. Long all-set or
//! all-clear stretches — the common case for mostly-non-null columns —
//! collapse into byte runs underneath.

use crate::byte_rle::{ByteRleDecoder, ByteRleEncoder};
use hive_common::Result;

/// Encoder packing booleans MSB-first into a run-length byte stream.
#[derive(Debug, Default)]
pub struct BitFieldEncoder {
    byte_rle: ByteRleEncoder,
    current: u8,
    bits_used: u8,
    count: u64,
}

impl BitFieldEncoder {
    pub fn new() -> BitFieldEncoder {
        BitFieldEncoder::default()
    }

    pub fn write(&mut self, bit: bool) {
        self.current = (self.current << 1) | bit as u8;
        self.bits_used += 1;
        self.count += 1;
        if self.bits_used == 8 {
            self.byte_rle.write(self.current);
            self.current = 0;
            self.bits_used = 0;
        }
    }

    pub fn write_all(&mut self, bits: &[bool]) {
        for &b in bits {
            self.write(b);
        }
    }

    /// Number of bits written so far.
    pub fn len(&self) -> u64 {
        self.count
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Finish: pad the last byte with zero bits and return encoded bytes.
    pub fn finish(mut self) -> Vec<u8> {
        self.pad();
        self.byte_rle.finish()
    }

    /// Finish the stream, append its bytes to `out`, and start the next
    /// stream with this encoder's buffers.
    pub fn finish_into(&mut self, out: &mut Vec<u8>) {
        self.pad();
        self.byte_rle.finish_into(out);
        self.count = 0;
    }

    /// Write out the last, partly filled byte, padded with zero bits.
    fn pad(&mut self) {
        if self.bits_used > 0 {
            self.current <<= 8 - self.bits_used;
            self.byte_rle.write(self.current);
            self.current = 0;
            self.bits_used = 0;
        }
    }

    pub fn estimated_size(&self) -> usize {
        self.byte_rle.estimated_size() + 1
    }
}

/// One-shot encode.
pub fn encode(bits: &[bool]) -> Vec<u8> {
    let mut e = BitFieldEncoder::new();
    e.write_all(bits);
    e.finish()
}

/// Decoder over an encoded bit-field stream.
#[derive(Debug)]
pub struct BitFieldDecoder<'a> {
    byte_rle: ByteRleDecoder<'a>,
    current: u8,
    bits_left: u8,
}

impl<'a> BitFieldDecoder<'a> {
    pub fn new(buf: &'a [u8]) -> BitFieldDecoder<'a> {
        BitFieldDecoder {
            byte_rle: ByteRleDecoder::new(buf),
            current: 0,
            bits_left: 0,
        }
    }

    #[allow(clippy::should_implement_trait)] // fallible cursor, not an Iterator
    pub fn next(&mut self) -> Result<bool> {
        if self.bits_left == 0 {
            self.current = self.byte_rle.next()?;
            self.bits_left = 8;
        }
        self.bits_left -= 1;
        Ok((self.current >> self.bits_left) & 1 == 1)
    }

    /// Skip `n` bits.
    pub fn skip(&mut self, n: usize) -> Result<()> {
        let mut n = n as u64;
        // Consume bits in the current partial byte first.
        let avail = self.bits_left as u64;
        if n <= avail {
            self.bits_left -= n as u8;
            return Ok(());
        }
        n -= avail;
        self.bits_left = 0;
        let whole_bytes = (n / 8) as usize;
        self.byte_rle.skip(whole_bytes)?;
        let rem = (n % 8) as u8;
        if rem > 0 {
            self.current = self.byte_rle.next()?;
            self.bits_left = 8 - rem;
        }
        Ok(())
    }
}

/// One-shot decode of exactly `n` bits.
pub fn decode(buf: &[u8], n: usize) -> Result<Vec<bool>> {
    let mut d = BitFieldDecoder::new(buf);
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(d.next()?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(bits: &[bool]) {
        let enc = encode(bits);
        assert_eq!(decode(&enc, bits.len()).unwrap(), bits);
    }

    #[test]
    fn basic_patterns() {
        round_trip(&[]);
        round_trip(&[true]);
        round_trip(&[false]);
        round_trip(&[true, false, true, true, false, false, true, false, true]);
    }

    #[test]
    fn all_set_compresses_to_byte_runs() {
        let bits = vec![true; 100_000];
        let enc = encode(&bits);
        // 12500 bytes of 0xFF → a handful of byte-RLE runs.
        assert!(enc.len() < 250, "got {}", enc.len());
        round_trip(&bits);
    }

    #[test]
    fn non_multiple_of_eight_lengths() {
        for n in [1usize, 7, 8, 9, 15, 16, 17, 63, 65] {
            let bits: Vec<bool> = (0..n).map(|i| i % 3 == 0).collect();
            round_trip(&bits);
        }
    }

    #[test]
    fn skip_matches_sequential() {
        let bits: Vec<bool> = (0..10_000).map(|i| (i * 7) % 11 < 4).collect();
        let enc = encode(&bits);
        for skip_n in [0usize, 1, 8, 9, 4999, 9999] {
            let mut d = BitFieldDecoder::new(&enc);
            d.skip(skip_n).unwrap();
            assert_eq!(d.next().unwrap(), bits[skip_n], "skip {skip_n}");
        }
    }

    #[test]
    fn skip_within_partial_byte() {
        let bits = vec![
            true, false, true, false, true, false, true, false, true, true,
        ];
        let enc = encode(&bits);
        let mut d = BitFieldDecoder::new(&enc);
        d.next().unwrap(); // consume one bit
        d.skip(3).unwrap();
        assert_eq!(d.next().unwrap(), bits[4]);
    }
}
