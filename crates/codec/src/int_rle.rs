//! The integer stream (paper Section 4.3, third primitive kind).
//!
//! Integers are encoded with **run-length + delta encoding**, picking the
//! scheme per sub-sequence based on its pattern, like ORC's `RunLengthIntegerWriter`:
//!
//! * a **run**: control byte `0..=127` → `control + MIN_RUN` values starting
//!   at a zigzag-varint base with a fixed signed single-byte delta
//!   (covers constant sequences, delta = 0, and arithmetic sequences such as
//!   auto-increment keys);
//! * a **literal group**: control byte `-1..=-128` → `-control` zigzag
//!   varints follow.

use crate::varint;
use hive_common::{HiveError, Result};

const MIN_RUN: usize = 3;
const MAX_RUN: usize = 130;
const MAX_LITERAL: usize = 128;
const MIN_DELTA: i64 = -128;
const MAX_DELTA: i64 = 127;

/// Streaming encoder for integer streams.
#[derive(Debug, Default)]
pub struct IntRleEncoder {
    out: Vec<u8>,
    pending: Vec<i64>,
    /// Length of the trailing arithmetic run (constant delta) in `pending`.
    tail_run: usize,
    /// Delta of that trailing run, meaningful when `tail_run >= 2`.
    tail_delta: i64,
}

impl IntRleEncoder {
    pub fn new() -> IntRleEncoder {
        IntRleEncoder::default()
    }

    pub fn write(&mut self, v: i64) {
        let n = self.pending.len();
        if n == 0 {
            self.pending.push(v);
            self.tail_run = 1;
            return;
        }
        let last = self.pending[n - 1];
        let delta = v.wrapping_sub(last);
        let delta_ok = (MIN_DELTA..=MAX_DELTA).contains(&delta);
        if self.tail_run == 1 && delta_ok {
            self.tail_run = 2;
            self.tail_delta = delta;
        } else if self.tail_run >= 2 && delta_ok && delta == self.tail_delta {
            self.tail_run += 1;
        } else {
            if self.tail_run >= MIN_RUN {
                self.emit_run();
                self.pending.push(v);
                self.tail_run = 1;
                return;
            }
            // The old tail no longer extends; the new value may start a new
            // 2-run with the previous value.
            if delta_ok {
                self.tail_run = 2;
                self.tail_delta = delta;
            } else {
                self.tail_run = 1;
            }
        }
        self.pending.push(v);
        if self.tail_run == MAX_RUN {
            self.emit_run();
        } else if self.pending.len() - self.tail_run >= MAX_LITERAL {
            self.flush_literal_prefix();
        }
    }

    pub fn write_all(&mut self, vals: &[i64]) {
        for &v in vals {
            self.write(v);
        }
    }

    fn flush_literal_prefix(&mut self) {
        let lit_len = self.pending.len() - self.tail_run;
        if lit_len == 0 {
            return;
        }
        let tail = self.pending.split_off(lit_len);
        let lits = std::mem::replace(&mut self.pending, tail);
        self.emit_literals_of(&lits);
    }

    fn emit_run(&mut self) {
        self.flush_literal_prefix();
        let run_len = self.pending.len();
        debug_assert!((MIN_RUN..=MAX_RUN).contains(&run_len));
        self.out.push((run_len - MIN_RUN) as u8);
        self.out.push(self.tail_delta as i8 as u8);
        varint::write_signed(&mut self.out, self.pending[0]);
        self.pending.clear();
        self.tail_run = 0;
        self.tail_delta = 0;
    }

    fn emit_literals_of(&mut self, vals: &[i64]) {
        let mut start = 0;
        while start < vals.len() {
            let chunk = (vals.len() - start).min(MAX_LITERAL);
            self.out.push((-(chunk as i64)) as u8);
            for &v in &vals[start..start + chunk] {
                varint::write_signed(&mut self.out, v);
            }
            start += chunk;
        }
    }

    pub fn finish(mut self) -> Vec<u8> {
        if self.tail_run >= MIN_RUN {
            self.emit_run();
        } else if !self.pending.is_empty() {
            let vals = std::mem::take(&mut self.pending);
            self.emit_literals_of(&vals);
        }
        self.out
    }

    /// Rough encoded size so far (pending counted pessimistically).
    pub fn estimated_size(&self) -> usize {
        self.out.len() + self.pending.len() * 3 + 2
    }
}

/// One-shot encode.
pub fn encode(vals: &[i64]) -> Vec<u8> {
    let mut e = IntRleEncoder::new();
    e.write_all(vals);
    e.finish()
}

/// Decoder over an encoded integer stream.
#[derive(Debug)]
pub struct IntRleDecoder<'a> {
    buf: &'a [u8],
    pos: usize,
    run_remaining: usize,
    run_value: i64,
    run_delta: i64,
    literals_remaining: usize,
}

impl<'a> IntRleDecoder<'a> {
    pub fn new(buf: &'a [u8]) -> IntRleDecoder<'a> {
        IntRleDecoder {
            buf,
            pos: 0,
            run_remaining: 0,
            run_value: 0,
            run_delta: 0,
            literals_remaining: 0,
        }
    }

    pub fn has_next(&self) -> bool {
        self.run_remaining > 0 || self.literals_remaining > 0 || self.pos < self.buf.len()
    }

    /// Read the next group's control header: a run (base + delta) or a
    /// count of literals to follow.
    fn read_header(&mut self) -> Result<()> {
        let control = *self
            .buf
            .get(self.pos)
            .ok_or_else(|| HiveError::Codec("int-rle stream exhausted".into()))?;
        self.pos += 1;
        if control < 0x80 {
            self.run_remaining = control as usize + MIN_RUN;
            self.run_delta = control_delta(self.buf, &mut self.pos)?;
            self.run_value = varint::read_signed(self.buf, &mut self.pos)?;
        } else {
            self.literals_remaining = 256 - control as usize;
        }
        Ok(())
    }

    #[allow(clippy::should_implement_trait)] // fallible cursor, not an Iterator
    pub fn next(&mut self) -> Result<i64> {
        if self.run_remaining > 0 {
            let v = self.run_value;
            self.run_value = self.run_value.wrapping_add(self.run_delta);
            self.run_remaining -= 1;
            return Ok(v);
        }
        if self.literals_remaining > 0 {
            self.literals_remaining -= 1;
            return varint::read_signed(self.buf, &mut self.pos);
        }
        self.read_header()?;
        self.next()
    }

    /// Append the next `n` values to `out`, a group at a time: a run is an
    /// arithmetic fill, a group of literals is decoded into a block and
    /// appended whole. Fails exactly where `n` calls of [`next`](Self::next)
    /// would, with the same error, and `out` is then good for nothing. `n`
    /// may come from untrusted metadata: nothing is reserved ahead of the
    /// bytes that back it.
    pub fn decode_into<T: RleValue>(&mut self, n: usize, out: &mut Vec<T>) -> Result<()> {
        let mut left = n;
        while left > 0 {
            if self.run_remaining == 0 && self.literals_remaining == 0 {
                self.read_header()?;
            }
            if self.run_remaining > 0 {
                let take = self.run_remaining.min(left);
                let (base, delta) = (self.run_value, self.run_delta);
                let value = |k: i64| T::from_i64(base.wrapping_add(delta.wrapping_mul(k)));
                out.extend((0..take as i64).map(value));
                self.run_value = base.wrapping_add(delta.wrapping_mul(take as i64));
                self.run_remaining -= take;
                left -= take;
            } else {
                let take = self.literals_remaining.min(left);
                let mut block = [T::from_i64(0); MAX_LITERAL];
                let mut pos = self.pos;
                for slot in &mut block[..take] {
                    *slot = T::from_i64(varint::read_signed(self.buf, &mut pos)?);
                }
                self.pos = pos;
                out.extend_from_slice(&block[..take]);
                self.literals_remaining -= take;
                left -= take;
            }
        }
        Ok(())
    }

    /// Values left in the group being decoded, reading the next group's
    /// header when the last one is used up.
    fn group_len(&mut self) -> Result<usize> {
        if self.run_remaining == 0 && self.literals_remaining == 0 {
            self.read_header()?;
        }
        Ok(self.run_remaining + self.literals_remaining)
    }

    /// Skip `n` values (used by index-group seeks).
    pub fn skip(&mut self, mut n: usize) -> Result<()> {
        while n > 0 {
            if self.run_remaining > 0 {
                let take = self.run_remaining.min(n);
                self.run_value = self
                    .run_value
                    .wrapping_add(self.run_delta.wrapping_mul(take as i64));
                self.run_remaining -= take;
                n -= take;
            } else if self.literals_remaining > 0 {
                varint::read_signed(self.buf, &mut self.pos)?;
                self.literals_remaining -= 1;
                n -= 1;
            } else {
                self.next()?;
                n -= 1;
            }
        }
        Ok(())
    }
}

fn control_delta(buf: &[u8], pos: &mut usize) -> Result<i64> {
    let b = *buf
        .get(*pos)
        .ok_or_else(|| HiveError::Codec("int-rle run truncated".into()))?;
    *pos += 1;
    Ok(b as i8 as i64)
}

/// What [`IntRleDecoder::decode_into`] can decode into: the stream's `i64`,
/// or the `u32` a dictionary-id stream's values are used as.
pub trait RleValue: Copy {
    fn from_i64(v: i64) -> Self;
}

impl RleValue for i64 {
    #[inline(always)]
    fn from_i64(v: i64) -> i64 {
        v
    }
}

impl RleValue for u32 {
    #[inline(always)]
    fn from_i64(v: i64) -> u32 {
        v as u32
    }
}

/// One-shot decode.
pub fn decode(buf: &[u8]) -> Result<Vec<i64>> {
    let mut d = IntRleDecoder::new(buf);
    // Short runs and two-byte literals, the common shapes, are two bytes a
    // value or more: room for that many up front saves the regrowth, and is
    // bounded by the input whatever its counts claim.
    let mut out = Vec::with_capacity(buf.len() / 2);
    while d.has_next() {
        let n = d.group_len()?;
        d.decode_into(n, &mut out)?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(vals: &[i64]) {
        let enc = encode(vals);
        assert_eq!(decode(&enc).unwrap(), vals, "failed for {vals:?}");
    }

    #[test]
    fn empty_single_pair() {
        round_trip(&[]);
        round_trip(&[42]);
        round_trip(&[1, -1]);
    }

    #[test]
    fn constant_run_is_tiny() {
        let vals = vec![7i64; 10_000];
        let enc = encode(&vals);
        // 10000 / 130 runs, ~3 bytes each.
        assert!(enc.len() < 300, "got {} bytes", enc.len());
        round_trip(&vals);
    }

    #[test]
    fn increasing_sequence_is_delta_encoded() {
        let vals: Vec<i64> = (0..10_000).collect();
        let enc = encode(&vals);
        assert!(enc.len() < 500, "got {} bytes", enc.len());
        round_trip(&vals);
    }

    #[test]
    fn random_values_round_trip() {
        // Deterministic pseudo-random values (no Math.random analogue).
        let mut x = 0x243f6a8885a308d3u64;
        let vals: Vec<i64> = (0..5000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as i64
            })
            .collect();
        round_trip(&vals);
    }

    #[test]
    fn mixed_runs_and_noise() {
        let mut vals = Vec::new();
        vals.extend_from_slice(&[5, 100, -3]);
        vals.extend(std::iter::repeat_n(0i64, 500));
        vals.extend((0..50).map(|i| i * 3));
        vals.extend_from_slice(&[i64::MAX, i64::MIN, 0]);
        round_trip(&vals);
    }

    #[test]
    fn negative_delta_runs() {
        let vals: Vec<i64> = (0..1000).map(|i| 5000 - 5 * i).collect();
        let enc = encode(&vals);
        assert!(enc.len() < 100);
        round_trip(&vals);
    }

    #[test]
    fn skip_matches_sequential() {
        let mut vals = Vec::new();
        for i in 0..2000i64 {
            vals.push(if i % 5 == 0 { 17 } else { i * i % 997 });
        }
        let enc = encode(&vals);
        for skip_n in [0usize, 1, 7, 131, 1999] {
            let mut d = IntRleDecoder::new(&enc);
            d.skip(skip_n).unwrap();
            assert_eq!(d.next().unwrap(), vals[skip_n], "skip {skip_n}");
        }
    }

    #[test]
    fn extremes_round_trip() {
        round_trip(&[i64::MIN, i64::MAX, i64::MIN + 1, i64::MAX - 1, 0]);
    }
}
