//! The run-length byte stream (paper Section 4.3, second primitive kind).
//!
//! Encoding, following ORC's `RunLengthByteWriter`:
//! * a **run**: control byte `0..=127` meaning `control + MIN_RUN` copies of
//!   the next byte (runs of length 3..=130);
//! * a **literal group**: control byte `-1..=-128` (two's complement) meaning
//!   `-control` raw bytes follow (groups of 1..=128).

use hive_common::{HiveError, Result};

const MIN_RUN: usize = 3;
const MAX_RUN: usize = 130;
const MAX_LITERAL: usize = 128;

/// Streaming encoder for run-length byte streams.
#[derive(Debug, Default)]
pub struct ByteRleEncoder {
    out: Vec<u8>,
    /// Pending bytes not yet committed as a run or literal group.
    pending: Vec<u8>,
    /// Length of the trailing run of identical bytes within `pending`.
    tail_run: usize,
}

impl ByteRleEncoder {
    pub fn new() -> ByteRleEncoder {
        ByteRleEncoder::default()
    }

    pub fn write(&mut self, b: u8) {
        if let Some(&last) = self.pending.last() {
            if last == b {
                self.tail_run += 1;
            } else {
                // A long-enough tail run is emitted as a run; shorter ones
                // stay pending and will go out as literals.
                if self.tail_run >= MIN_RUN {
                    self.emit_run();
                }
                self.tail_run = 1;
            }
        } else {
            self.tail_run = 1;
        }
        self.pending.push(b);
        if self.tail_run == MAX_RUN {
            self.emit_run();
        } else if self.pending.len() - self.tail_run >= MAX_LITERAL {
            self.flush_split();
        }
    }

    pub fn write_all(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write(b);
        }
    }

    /// Emit the pending literal prefix (if any), keep the tail run pending.
    fn flush_split(&mut self) {
        let lit_len = self.pending.len() - self.tail_run;
        if lit_len > 0 {
            emit_literals(&mut self.out, &self.pending[..lit_len]);
            self.pending.drain(..lit_len);
        }
    }

    fn emit_run(&mut self) {
        // `pending` may hold literals before the run.
        self.flush_split();
        let run_len = self.pending.len();
        debug_assert!((MIN_RUN..=MAX_RUN).contains(&run_len));
        self.out.push((run_len - MIN_RUN) as u8);
        self.out.push(self.pending[0]);
        self.pending.clear();
        self.tail_run = 0;
    }

    /// Emit whatever is pending, leaving the encoder as new.
    fn flush(&mut self) {
        if self.tail_run >= MIN_RUN {
            self.emit_run();
        } else {
            emit_literals(&mut self.out, &self.pending);
            self.pending.clear();
            self.tail_run = 0;
        }
    }

    /// Finish the stream and return the encoded bytes.
    pub fn finish(mut self) -> Vec<u8> {
        self.flush();
        self.out
    }

    /// Finish the stream, append its bytes to `out`, and start the next
    /// stream with this encoder's buffers.
    pub fn finish_into(&mut self, out: &mut Vec<u8>) {
        self.flush();
        out.extend_from_slice(&self.out);
        self.out.clear();
    }

    /// Encoded size so far (pending bytes estimated pessimistically).
    pub fn estimated_size(&self) -> usize {
        self.out.len() + self.pending.len() + 2
    }
}

/// Literal groups of at most [`MAX_LITERAL`] bytes each.
fn emit_literals(out: &mut Vec<u8>, bytes: &[u8]) {
    for chunk in bytes.chunks(MAX_LITERAL) {
        out.push((-(chunk.len() as i64)) as u8);
        out.extend_from_slice(chunk);
    }
}

/// One-shot convenience encoder.
pub fn encode(bytes: &[u8]) -> Vec<u8> {
    let mut e = ByteRleEncoder::new();
    e.write_all(bytes);
    e.finish()
}

/// Decoder over an encoded run-length byte stream.
#[derive(Debug)]
pub struct ByteRleDecoder<'a> {
    buf: &'a [u8],
    pos: usize,
    /// Remaining copies of `run_byte` to emit.
    run_remaining: usize,
    run_byte: u8,
    /// Remaining raw bytes in the current literal group.
    literals_remaining: usize,
}

impl<'a> ByteRleDecoder<'a> {
    pub fn new(buf: &'a [u8]) -> ByteRleDecoder<'a> {
        ByteRleDecoder {
            buf,
            pos: 0,
            run_remaining: 0,
            run_byte: 0,
            literals_remaining: 0,
        }
    }

    /// Whether more bytes remain.
    pub fn has_next(&self) -> bool {
        self.run_remaining > 0 || self.literals_remaining > 0 || self.pos < self.buf.len()
    }

    #[allow(clippy::should_implement_trait)] // fallible cursor, not an Iterator
    pub fn next(&mut self) -> Result<u8> {
        if self.run_remaining > 0 {
            self.run_remaining -= 1;
            return Ok(self.run_byte);
        }
        if self.literals_remaining > 0 {
            let b = *self
                .buf
                .get(self.pos)
                .ok_or_else(|| HiveError::Codec("byte-rle literal truncated".into()))?;
            self.pos += 1;
            self.literals_remaining -= 1;
            return Ok(b);
        }
        let control = *self
            .buf
            .get(self.pos)
            .ok_or_else(|| HiveError::Codec("byte-rle stream exhausted".into()))?;
        self.pos += 1;
        if control < 0x80 {
            self.run_remaining = control as usize + MIN_RUN;
            self.run_byte = *self
                .buf
                .get(self.pos)
                .ok_or_else(|| HiveError::Codec("byte-rle run truncated".into()))?;
            self.pos += 1;
        } else {
            self.literals_remaining = (256 - control as usize) & 0xff;
        }
        self.next()
    }

    /// Skip `n` decoded bytes without materializing them (index seeks).
    pub fn skip(&mut self, mut n: usize) -> Result<()> {
        while n > 0 {
            if self.run_remaining > 0 {
                let take = self.run_remaining.min(n);
                self.run_remaining -= take;
                n -= take;
            } else if self.literals_remaining > 0 {
                let take = self.literals_remaining.min(n);
                if self.pos + take > self.buf.len() {
                    return Err(HiveError::Codec("byte-rle skip past end".into()));
                }
                self.pos += take;
                self.literals_remaining -= take;
                n -= take;
            } else {
                // Load the next group header via next(), putting one byte back.
                let b = self.next()?;
                let _ = b;
                n -= 1;
            }
        }
        Ok(())
    }
}

/// One-shot convenience decoder.
pub fn decode(buf: &[u8]) -> Result<Vec<u8>> {
    let mut d = ByteRleDecoder::new(buf);
    let mut out = Vec::new();
    while d.has_next() {
        out.push(d.next()?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(data: &[u8]) {
        let enc = encode(data);
        assert_eq!(decode(&enc).unwrap(), data, "failed for {data:?}");
    }

    #[test]
    fn empty_and_single() {
        round_trip(&[]);
        round_trip(&[42]);
    }

    #[test]
    fn pure_run_compresses_well() {
        let data = vec![9u8; 1000];
        let enc = encode(&data);
        assert!(enc.len() <= 2 * (1000 / 130 + 1));
        assert_eq!(decode(&enc).unwrap(), data);
    }

    #[test]
    fn pure_literals() {
        let data: Vec<u8> = (0..=255).collect();
        round_trip(&data);
    }

    #[test]
    fn mixed_runs_and_literals() {
        let mut data = Vec::new();
        data.extend_from_slice(&[1, 2, 3]);
        data.extend(std::iter::repeat_n(7u8, 50));
        data.extend_from_slice(&[4, 5]);
        data.extend(std::iter::repeat_n(0u8, 200));
        data.extend_from_slice(&[6]);
        round_trip(&data);
    }

    #[test]
    fn two_byte_runs_stay_literals() {
        // Runs below MIN_RUN must not be emitted as runs.
        round_trip(&[5, 5, 6, 6, 7, 7]);
    }

    #[test]
    fn skip_matches_sequential_decode() {
        let mut data = Vec::new();
        for i in 0..500u32 {
            data.push((i % 7) as u8);
            if i % 3 == 0 {
                data.extend(std::iter::repeat_n(9u8, 10));
            }
        }
        let enc = encode(&data);
        for skip_n in [0usize, 1, 10, 137, 499] {
            let mut d = ByteRleDecoder::new(&enc);
            d.skip(skip_n).unwrap();
            assert_eq!(d.next().unwrap(), data[skip_n], "skip {skip_n}");
        }
    }

    #[test]
    fn truncated_stream_errors() {
        let enc = encode(&[3u8; 100]);
        let cut = &enc[..enc.len() - 1];
        let mut d = ByteRleDecoder::new(cut);
        let mut result = Ok(0u8);
        for _ in 0..100 {
            if !d.has_next() {
                break;
            }
            result = d.next();
            if result.is_err() {
                break;
            }
        }
        // Either we ran out early (has_next false before 100) or errored.
        let decoded_fine = result.is_ok() && !d.has_next();
        assert!(!decoded_fine || decode(cut).unwrap().len() < 100);
    }
}
