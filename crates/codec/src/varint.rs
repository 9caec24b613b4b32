//! LEB128 varints and zigzag transforms, the base-128 integer
//! representation underlying the integer streams.

use hive_common::{HiveError, Result};

/// Append `v` as an unsigned LEB128 varint.
pub fn write_unsigned(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Append `v` as a zigzag-encoded signed varint.
pub fn write_signed(out: &mut Vec<u8>, v: i64) {
    write_unsigned(out, zigzag(v));
}

/// Map a signed integer to an unsigned one with small absolute values
/// staying small: 0→0, -1→1, 1→2, -2→3, ...
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Read an unsigned varint from `buf` starting at `*pos`, advancing it.
#[inline]
pub fn read_unsigned(buf: &[u8], pos: &mut usize) -> Result<u64> {
    // Ten bytes hold any u64: with that many left, one bounds check covers
    // the whole value. The byte-wise loop below reads the tail of a buffer
    // and reports the errors (the same value for the same bytes).
    if let Some(window) = buf.get(*pos..).and_then(|rest| rest.first_chunk::<10>()) {
        let mut result: u64 = 0;
        for (i, &byte) in window.iter().enumerate() {
            result |= ((byte & 0x7f) as u64) << (7 * i);
            if byte & 0x80 == 0 {
                *pos += i + 1;
                return Ok(result);
            }
        }
    }
    let mut result: u64 = 0;
    let mut shift = 0u32;
    loop {
        let byte = *buf
            .get(*pos)
            .ok_or_else(|| HiveError::Codec("varint truncated".into()))?;
        *pos += 1;
        if shift >= 64 {
            return Err(HiveError::Codec("varint overflows u64".into()));
        }
        result |= ((byte & 0x7f) as u64) << shift;
        if byte & 0x80 == 0 {
            return Ok(result);
        }
        shift += 7;
    }
}

/// Read a zigzag-encoded signed varint.
#[inline]
pub fn read_signed(buf: &[u8], pos: &mut usize) -> Result<i64> {
    Ok(unzigzag(read_unsigned(buf, pos)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unsigned_round_trip() {
        let cases = [0u64, 1, 127, 128, 300, 16383, 16384, u64::MAX];
        for &v in &cases {
            let mut buf = Vec::new();
            write_unsigned(&mut buf, v);
            let mut pos = 0;
            assert_eq!(read_unsigned(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn signed_round_trip() {
        let cases = [0i64, -1, 1, -64, 63, 64, -65, i64::MAX, i64::MIN];
        for &v in &cases {
            let mut buf = Vec::new();
            write_signed(&mut buf, v);
            let mut pos = 0;
            assert_eq!(read_signed(&buf, &mut pos).unwrap(), v);
        }
    }

    #[test]
    fn zigzag_keeps_small_magnitudes_small() {
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
        assert_eq!(zigzag(-2), 3);
        assert_eq!(unzigzag(zigzag(-123456789)), -123456789);
    }

    #[test]
    fn truncated_input_errors() {
        let buf = vec![0x80, 0x80];
        let mut pos = 0;
        assert!(read_unsigned(&buf, &mut pos).is_err());
    }

    #[test]
    fn overlong_input_errors() {
        let buf = vec![0x80; 11];
        let mut pos = 0;
        assert!(read_unsigned(&buf, &mut pos).is_err());
    }
}
