//! Keys in an order-preserving byte encoding (Hive's BinarySortable idea):
//! `memcmp` over two encoded keys answers what [`key::cmp`] answers over
//! the keys, and equal keys encode to equal bytes, so the shuffle sorts,
//! merges and cuts key groups on bytes alone.
//!
//! * every value starts with its [`key::rank`] plus one, so variants order
//!   as the key rule orders them (NULL first);
//! * INT and TIMESTAMP are big-endian with the sign bit flipped; a DOUBLE
//!   is its [`key::double_bits`] (one NaN, `-0.0` as `0.0`) with the sign
//!   bit flipped, or every bit when it was set, so NaN sorts after `+inf`;
//! * string bytes `0x00` and `0x01` are escaped to `0x01 0x01` and
//!   `0x01 0x02`, and [`END`] closes the string;
//! * a key, a list, a struct and a map are their values in order, closed
//!   by [`END`]: it sorts below every rank byte, so a prefix sorts before
//!   its extension. Every value is self-delimiting, so the encoding is
//!   prefix-free and whatever follows a key never takes part in its order.

use hive_common::{key, DataType, HiveError, Result, Value};
use hive_vector::row_convert::{cell, Cell};
use hive_vector::ColumnVector;

/// Closes a key, a string, a list, a struct and a map.
const END: u8 = 0;
/// Leads the two-byte form of string bytes `0x00` and `0x01`.
const ESCAPE: u8 = 1;
const SIGN: u64 = 1 << 63;
/// Nesting a decoder follows before it calls the bytes hostile.
const MAX_DEPTH: usize = 64;

/// Append `key`'s encoding to `out`.
pub fn encode_key(key: &[Value], out: &mut Vec<u8>) {
    key.iter().for_each(|v| encode_value(v, out));
    out.push(END);
}

fn encode_value(v: &Value, out: &mut Vec<u8>) {
    if let Some(c) = Cell::of(v) {
        return encode_cell(c, out);
    }
    out.push(key::rank(v) + 1);
    match v {
        Value::Array(items) | Value::Struct(items) => encode_key(items, out),
        Value::Map(entries) => {
            for (k, v) in entries {
                encode_value(k, out);
                encode_value(v, out);
            }
            out.push(END);
        }
        Value::Union(tag, v) => {
            out.push(*tag);
            encode_value(v, out);
        }
        _ => unreachable!("scalars are cells"),
    }
}

/// A scalar key value's encoding: its [`key::rank`] plus one, then its
/// payload.
#[inline]
fn encode_cell(c: Cell, out: &mut Vec<u8>) {
    let rank = match c {
        Cell::Null => 0,
        Cell::Boolean(_) => 1,
        Cell::Int(_) => 2,
        Cell::Double(_) => 3,
        Cell::Bytes(_) => 4,
        Cell::Timestamp(_) => 5,
    };
    out.push(rank + 1);
    match c {
        Cell::Null => {}
        Cell::Boolean(b) => out.push(b as u8),
        Cell::Int(x) | Cell::Timestamp(x) => {
            out.extend_from_slice(&(x as u64 ^ SIGN).to_be_bytes())
        }
        Cell::Double(x) => {
            let bits = key::double_bits(x);
            let ordered = if bits & SIGN == 0 { bits | SIGN } else { !bits };
            out.extend_from_slice(&ordered.to_be_bytes());
        }
        Cell::Bytes(b) => {
            for &b in Cell::text(b).as_bytes() {
                if b <= ESCAPE {
                    out.extend_from_slice(&[ESCAPE, b + 1]);
                } else {
                    out.push(b);
                }
            }
            out.push(END);
        }
    }
}

/// [`encode_key`] of row `i`'s cells of `columns` (batch column, logical
/// type): the bytes of the key the row engine would build from the same
/// cells, with no value built.
pub fn encode_key_cells(
    batch: &[ColumnVector],
    columns: &[(usize, DataType)],
    i: usize,
    out: &mut Vec<u8>,
) {
    for (c, dt) in columns {
        encode_cell(cell(&batch[*c], i, dt), out);
    }
    out.push(END);
}

/// [`key::hash`] of the same key, hence the reducer the row engine would
/// send it to.
pub fn hash_key_cells(batch: &[ColumnVector], columns: &[(usize, DataType)], i: usize) -> u64 {
    let mut h = key::KeyHasher::new();
    for (c, dt) in columns {
        match cell(&batch[*c], i, dt) {
            Cell::Null => h.null(),
            Cell::Boolean(b) => h.boolean(b),
            Cell::Int(x) | Cell::Timestamp(x) => h.int(x),
            Cell::Double(x) => h.double(x),
            Cell::Bytes(b) => h.string(&Cell::text(b)),
        }
    }
    h.finish()
}

/// Decode the key encoded at `*pos`, advancing past it. Malformed or
/// truncated bytes are a `SerDe` error; nothing is allocated beyond what
/// the bytes read so far hold.
pub fn decode_key(buf: &[u8], pos: &mut usize) -> Result<Vec<Value>> {
    decode_list(buf, pos, 0)
}

fn bad(what: &str) -> HiveError {
    HiveError::SerDe(format!("sortable key: {what}"))
}

fn byte(buf: &[u8], pos: &mut usize) -> Result<u8> {
    let b = *buf.get(*pos).ok_or_else(|| bad("truncated"))?;
    *pos += 1;
    Ok(b)
}

fn word(buf: &[u8], pos: &mut usize) -> Result<u64> {
    let bytes = buf
        .get(*pos..)
        .and_then(|rest| rest.first_chunk::<8>())
        .ok_or_else(|| bad("truncated"))?;
    *pos += 8;
    Ok(u64::from_be_bytes(*bytes))
}

/// [`decode_key`] into row `row` of `columns`, one column per key value,
/// building no value: a reducer's batch decoding. Returns how many columns
/// it wrote. A value its column's lane cannot hold (a complex value, or one
/// of another lane; an INT widens into a DOUBLE column) is a `SerDe` error.
pub fn decode_key_into(
    buf: &[u8],
    pos: &mut usize,
    columns: &mut [ColumnVector],
    row: usize,
) -> Result<usize> {
    for (k, column) in columns.iter_mut().enumerate() {
        let rank = match byte(buf, pos)? {
            END => return Ok(k),
            rank => rank - 1,
        };
        match (rank, column) {
            (0, column) => column.set_null(row),
            (1, ColumnVector::Long(v)) => {
                v.vector[row] = match byte(buf, pos)? {
                    b @ (0 | 1) => b as i64,
                    _ => return Err(bad("boolean byte")),
                }
            }
            (2 | 5, ColumnVector::Long(v)) => v.vector[row] = (word(buf, pos)? ^ SIGN) as i64,
            (2, ColumnVector::Double(v)) => v.vector[row] = (word(buf, pos)? ^ SIGN) as i64 as f64,
            (3, ColumnVector::Double(v)) => v.vector[row] = double_at(buf, pos)?,
            (4, ColumnVector::Bytes(v)) => {
                let start = v.data.len();
                string_into(buf, pos, &mut v.data)?;
                v.start[row] = start as u32;
                v.length[row] = (v.data.len() - start) as u32;
            }
            _ => return Err(bad("key value does not fit its column")),
        }
    }
    match byte(buf, pos)? {
        END => Ok(columns.len()),
        _ => Err(bad("more key values than columns")),
    }
}

fn double_at(buf: &[u8], pos: &mut usize) -> Result<f64> {
    let ordered = word(buf, pos)?;
    let bits = if ordered & SIGN != 0 {
        ordered ^ SIGN
    } else {
        !ordered
    };
    Ok(f64::from_bits(bits))
}

/// A string's bytes, unescaped, appended to `out`.
fn string_into(buf: &[u8], pos: &mut usize, out: &mut Vec<u8>) -> Result<()> {
    loop {
        match byte(buf, pos)? {
            END => return Ok(()),
            ESCAPE => match byte(buf, pos)? {
                b @ (1 | 2) => out.push(b - 1),
                _ => return Err(bad("string escape")),
            },
            b => out.push(b),
        }
    }
}

/// Values up to the closing [`END`].
fn decode_list(buf: &[u8], pos: &mut usize, depth: usize) -> Result<Vec<Value>> {
    let mut values = Vec::new();
    loop {
        match byte(buf, pos)? {
            END => return Ok(values),
            rank => values.push(decode_value(rank - 1, buf, pos, depth)?),
        }
    }
}

/// The value whose rank byte is at `*pos`.
fn value_at(buf: &[u8], pos: &mut usize, depth: usize) -> Result<Value> {
    match byte(buf, pos)? {
        END => Err(bad("missing value")),
        rank => decode_value(rank - 1, buf, pos, depth),
    }
}

/// The value of rank `rank` whose payload starts at `*pos`.
fn decode_value(rank: u8, buf: &[u8], pos: &mut usize, depth: usize) -> Result<Value> {
    if depth > MAX_DEPTH {
        return Err(bad("nested too deep"));
    }
    Ok(match rank {
        0 => Value::Null,
        1 => match byte(buf, pos)? {
            b @ (0 | 1) => Value::Boolean(b == 1),
            _ => return Err(bad("boolean byte")),
        },
        2 => Value::Int((word(buf, pos)? ^ SIGN) as i64),
        3 => Value::Double(double_at(buf, pos)?),
        4 => {
            let mut bytes = Vec::new();
            string_into(buf, pos, &mut bytes)?;
            Value::String(String::from_utf8(bytes).map_err(|_| bad("string is not UTF-8"))?)
        }
        5 => Value::Timestamp((word(buf, pos)? ^ SIGN) as i64),
        6 => Value::Array(decode_list(buf, pos, depth + 1)?),
        7 => {
            let mut entries = Vec::new();
            loop {
                match byte(buf, pos)? {
                    END => break Value::Map(entries),
                    rank => {
                        let k = decode_value(rank - 1, buf, pos, depth + 1)?;
                        entries.push((k, value_at(buf, pos, depth + 1)?));
                    }
                }
            }
        }
        8 => Value::Struct(decode_list(buf, pos, depth + 1)?),
        9 => {
            let tag = byte(buf, pos)?;
            Value::Union(tag, Box::new(value_at(buf, pos, depth + 1)?))
        }
        other => return Err(bad(&format!("rank byte {}", other + 1))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Ordering;

    fn enc(key: &[Value]) -> Vec<u8> {
        let mut out = Vec::new();
        encode_key(key, &mut out);
        out
    }

    #[test]
    fn bytes_order_as_the_key_rule_orders() {
        let s = |x: &str| Value::String(x.into());
        let keys = [
            vec![],
            vec![Value::Null],
            vec![Value::Int(i64::MIN)],
            vec![Value::Int(-1)],
            vec![Value::Int(0)],
            vec![Value::Int(0), Value::Null],
            vec![Value::Int(i64::MAX)],
            vec![Value::Double(f64::NEG_INFINITY)],
            vec![Value::Double(-0.0)],
            vec![Value::Double(f64::INFINITY)],
            vec![Value::Double(f64::NAN)],
            vec![s("")],
            vec![s("\0")],
            vec![s("\u{1}")],
            vec![s("a")],
            vec![s("a\0b")],
            vec![s("ab")],
            vec![s("\u{ff}")],
            vec![Value::Timestamp(0)],
            vec![Value::Array(vec![Value::Int(1)])],
            vec![Value::Array(vec![Value::Int(1), Value::Int(2)])],
            vec![Value::Map(vec![(s("k"), Value::Int(1))])],
            vec![Value::Struct(vec![Value::Boolean(true)])],
            vec![Value::Union(1, Box::new(Value::Null))],
        ];
        for a in &keys {
            for b in &keys {
                assert_eq!(enc(a).cmp(&enc(b)), key::cmp(a, b), "{a:?} vs {b:?}");
            }
            let mut pos = 0;
            let back = decode_key(&enc(a), &mut pos).unwrap();
            assert_eq!(key::cmp(&back, a), Ordering::Equal);
            assert_eq!(pos, enc(a).len());
        }
        assert_eq!(enc(&[Value::Double(-0.0)]), enc(&[Value::Double(0.0)]));
    }

    #[test]
    fn hostile_bytes_are_errors() {
        let deep = vec![7u8; 10_000]; // rank byte of an ARRAY, nested forever
        assert!(decode_key(&deep, &mut 0).is_err());
        for bytes in [
            &[5u8, 0x01, 0x07, 0][..],
            &[5, 0xff, 0xfe, 0],
            &[2, 9],
            &[3, 1],
            &[42],
        ] {
            assert!(decode_key(bytes, &mut 0).is_err(), "{bytes:?}");
        }
    }

    /// Column-wise decoding reads what `decode_key` reads, value for value
    /// (an INT widening into a DOUBLE column), and refuses a value its
    /// column cannot hold.
    #[test]
    fn keys_decode_into_columns_as_into_values() {
        use hive_common::DataType;
        use hive_vector::row_convert::get_value;
        use hive_vector::VectorizedRowBatch;
        let types = [
            DataType::Int,
            DataType::Double,
            DataType::String,
            DataType::Boolean,
        ];
        let s = |x: &str| Value::String(x.into());
        let keys = [
            vec![
                Value::Int(-7),
                Value::Double(f64::NAN),
                s("a\0\u{1}b"),
                Value::Boolean(true),
            ],
            vec![Value::Null, Value::Double(-0.0), s(""), Value::Null],
            vec![
                Value::Int(i64::MAX),
                Value::Int(3),
                Value::Null,
                Value::Boolean(false),
            ],
        ];
        let mut b = VectorizedRowBatch::new(&types, 4).unwrap();
        for (row, key) in keys.iter().enumerate() {
            assert_eq!(
                decode_key_into(&enc(key), &mut 0, &mut b.columns, row).unwrap(),
                4
            );
            let back: Vec<Value> = (0..4)
                .map(|c| get_value(&b.columns[c], row, &types[c]))
                .collect();
            let mut want = decode_key(&enc(key), &mut 0).unwrap();
            if let Value::Int(x) = want[1] {
                want[1] = Value::Double(x as f64);
            }
            assert_eq!(format!("{back:?}"), format!("{want:?}"));
        }
        // A string where a long lane is, and more values than columns.
        let bad = enc(&[s("x")]);
        assert!(decode_key_into(&bad, &mut 0, &mut b.columns[..1], 0).is_err());
        let long = enc(&[Value::Int(1), Value::Int(2)]);
        assert!(decode_key_into(&long, &mut 0, &mut b.columns[..1], 0).is_err());
        assert_eq!(
            decode_key_into(&long, &mut 0, &mut b.columns, 0).unwrap(),
            2
        );
    }
}
