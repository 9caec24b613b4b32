//! SerDes: row serialization for the data-type-agnostic formats.
//!
//! `TextSerDe` mirrors Hive's LazySimpleSerDe wire shape (field/collection/
//! map-key delimiters, `\N` for NULL). `BinarySerDe` is the length-prefixed
//! binary encoding used for SequenceFile values and RCFile column cells —
//! one value at a time, with no type-specific compression, which is exactly
//! the shortcoming ORC removes (paper Section 3, first shortcoming).

use hive_common::{DataType, HiveError, Result, Row, Schema, Value};
use hive_vector::row_convert::{cell, Cell};
use hive_vector::ColumnVector;

pub mod sortable;

/// Hive's default delimiters (ctrl-A / ctrl-B / ctrl-C).
pub const FIELD_DELIM: u8 = 0x01;
pub const COLLECTION_DELIM: u8 = 0x02;
pub const MAPKEY_DELIM: u8 = 0x03;
const NULL_TOKEN: &[u8] = b"\\N";

/// Text serialization of one row (no trailing newline).
pub fn text_serialize(row: &Row, out: &mut Vec<u8>) {
    for (i, v) in row.values().iter().enumerate() {
        if i > 0 {
            out.push(FIELD_DELIM);
        }
        text_value(v, out, 0);
    }
}

/// Text-serialize a single value (RCFile's ColumnarSerDe cell encoding).
pub fn text_serialize_value(v: &Value, out: &mut Vec<u8>) {
    text_value(v, out, 0);
}

/// Parse a single text-serialized cell back into a value of type `dt`.
pub fn text_deserialize_value(raw: &[u8], dt: &DataType) -> Result<Value> {
    parse_text_value(raw, dt, 0)
}

fn text_value(v: &Value, out: &mut Vec<u8>, depth: u8) {
    // Nested collections rotate through deeper delimiters like Hive does;
    // two levels are enough for the workloads here.
    let coll = COLLECTION_DELIM + depth * 2;
    let mk = MAPKEY_DELIM + depth * 2;
    match v {
        Value::Null => out.extend_from_slice(NULL_TOKEN),
        Value::Boolean(b) => out.extend_from_slice(if *b { b"true" } else { b"false" }),
        Value::Int(x) => out.extend_from_slice(x.to_string().as_bytes()),
        Value::Double(x) => out.extend_from_slice(format_double(*x).as_bytes()),
        Value::Timestamp(x) => out.extend_from_slice(x.to_string().as_bytes()),
        Value::String(s) => out.extend_from_slice(s.as_bytes()),
        Value::Array(items) => {
            for (i, it) in items.iter().enumerate() {
                if i > 0 {
                    out.push(coll);
                }
                text_value(it, out, depth + 1);
            }
        }
        Value::Map(entries) => {
            for (i, (k, val)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(coll);
                }
                text_value(k, out, depth + 1);
                out.push(mk);
                text_value(val, out, depth + 1);
            }
        }
        Value::Struct(fields) => {
            for (i, f) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(coll);
                }
                text_value(f, out, depth + 1);
            }
        }
        Value::Union(tag, val) => {
            out.extend_from_slice(tag.to_string().as_bytes());
            out.push(mk);
            text_value(val, out, depth + 1);
        }
    }
}

fn format_double(x: f64) -> String {
    if x.fract() == 0.0 && x.abs() < 1e15 {
        format!("{x:.1}")
    } else {
        format!("{x}")
    }
}

/// Deserialize one text line back into a row for `schema`.
pub fn text_deserialize(line: &[u8], schema: &Schema) -> Result<Row> {
    let fields: Vec<&[u8]> = split(line, FIELD_DELIM);
    let mut values = Vec::with_capacity(schema.len());
    for (i, f) in schema.fields().iter().enumerate() {
        let raw: &[u8] = fields.get(i).copied().unwrap_or(NULL_TOKEN);
        values.push(parse_text_value(raw, &f.data_type, 0)?);
    }
    Ok(Row::new(values))
}

fn split(data: &[u8], delim: u8) -> Vec<&[u8]> {
    if data.is_empty() {
        return vec![b""];
    }
    data.split(|b| *b == delim).collect()
}

fn parse_text_value(raw: &[u8], dt: &DataType, depth: u8) -> Result<Value> {
    if raw == NULL_TOKEN {
        return Ok(Value::Null);
    }
    let coll = COLLECTION_DELIM + depth * 2;
    let mk = MAPKEY_DELIM + depth * 2;
    let text = || String::from_utf8_lossy(raw).into_owned();
    match dt {
        DataType::Boolean => match raw {
            b"true" | b"TRUE" | b"1" => Ok(Value::Boolean(true)),
            b"false" | b"FALSE" | b"0" => Ok(Value::Boolean(false)),
            _ => Ok(Value::Null), // Hive yields NULL for malformed cells
        },
        DataType::Int => Ok(text().parse::<i64>().map(Value::Int).unwrap_or(Value::Null)),
        DataType::Double => Ok(text()
            .parse::<f64>()
            .map(Value::Double)
            .unwrap_or(Value::Null)),
        DataType::Timestamp => Ok(text()
            .parse::<i64>()
            .map(Value::Timestamp)
            .unwrap_or(Value::Null)),
        DataType::String => Ok(Value::String(text())),
        DataType::Array(elem) => {
            if raw.is_empty() {
                return Ok(Value::Array(Vec::new()));
            }
            split(raw, coll)
                .into_iter()
                .map(|part| parse_text_value(part, elem, depth + 1))
                .collect::<Result<Vec<_>>>()
                .map(Value::Array)
        }
        DataType::Map(k, v) => {
            if raw.is_empty() {
                return Ok(Value::Map(Vec::new()));
            }
            let mut entries = Vec::new();
            for part in split(raw, coll) {
                let kv: Vec<&[u8]> = split(part, mk);
                if kv.len() != 2 {
                    return Err(HiveError::SerDe(format!(
                        "malformed map entry `{}`",
                        String::from_utf8_lossy(part)
                    )));
                }
                entries.push((
                    parse_text_value(kv[0], k, depth + 1)?,
                    parse_text_value(kv[1], v, depth + 1)?,
                ));
            }
            Ok(Value::Map(entries))
        }
        DataType::Struct(fields) => {
            let parts = split(raw, coll);
            let mut vals = Vec::with_capacity(fields.len());
            for (i, (_, ft)) in fields.iter().enumerate() {
                let part: &[u8] = parts.get(i).copied().unwrap_or(NULL_TOKEN);
                vals.push(parse_text_value(part, ft, depth + 1)?);
            }
            Ok(Value::Struct(vals))
        }
        DataType::Union(alts) => {
            let kv: Vec<&[u8]> = split(raw, mk);
            if kv.len() != 2 {
                return Err(HiveError::SerDe("malformed union cell".into()));
            }
            let tag: u8 = String::from_utf8_lossy(kv[0])
                .parse()
                .map_err(|_| HiveError::SerDe("bad union tag".into()))?;
            let alt = alts
                .get(tag as usize)
                .ok_or_else(|| HiveError::SerDe(format!("union tag {tag} out of range")))?;
            Ok(Value::Union(
                tag,
                Box::new(parse_text_value(kv[1], alt, depth + 1)?),
            ))
        }
    }
}

// ---------------------------------------------------------------------------
// Binary SerDe
// ---------------------------------------------------------------------------

/// Binary-serialize one value (self-describing tag + payload).
pub fn binary_serialize_value(v: &Value, out: &mut Vec<u8>) {
    if let Some(c) = Cell::of(v) {
        return binary_serialize_cell(c, out);
    }
    match v {
        Value::Array(items) => {
            out.push(6);
            hive_codec::varint::write_unsigned(out, items.len() as u64);
            for it in items {
                binary_serialize_value(it, out);
            }
        }
        Value::Map(entries) => {
            out.push(7);
            hive_codec::varint::write_unsigned(out, entries.len() as u64);
            for (k, val) in entries {
                binary_serialize_value(k, out);
                binary_serialize_value(val, out);
            }
        }
        Value::Struct(fields) => {
            out.push(8);
            hive_codec::varint::write_unsigned(out, fields.len() as u64);
            for f in fields {
                binary_serialize_value(f, out);
            }
        }
        Value::Union(tag, val) => {
            out.push(9);
            out.push(*tag);
            binary_serialize_value(val, out);
        }
        _ => unreachable!("scalars are cells"),
    }
}

/// The binary encoding of a scalar: what [`binary_serialize_value`] writes
/// for the value the cell stands for.
#[inline]
pub fn binary_serialize_cell(c: Cell, out: &mut Vec<u8>) {
    match c {
        Cell::Null => out.push(0),
        Cell::Boolean(b) => out.extend_from_slice(&[1, b as u8]),
        Cell::Int(x) => {
            out.push(2);
            hive_codec::varint::write_signed(out, x);
        }
        Cell::Double(x) => {
            out.push(3);
            out.extend_from_slice(&x.to_le_bytes());
        }
        Cell::Bytes(b) => {
            let s = Cell::text(b);
            out.push(4);
            hive_codec::varint::write_unsigned(out, s.len() as u64);
            out.extend_from_slice(s.as_bytes());
        }
        Cell::Timestamp(x) => {
            out.push(5);
            hive_codec::varint::write_signed(out, x);
        }
    }
}

/// Binary-deserialize one value at `*pos`, advancing it. Malformed or
/// truncated bytes are a `SerDe` error, never a panic, and no collection is
/// sized beyond the bytes that remain.
pub fn binary_deserialize_value(buf: &[u8], pos: &mut usize) -> Result<Value> {
    value_at(buf, pos, 0)
}

/// Collections nested deeper than this are hostile bytes, not data.
const MAX_DEPTH: usize = 64;

/// An element count read at `*pos`, as much of it as the remaining bytes
/// could hold at one byte per element.
fn count_at(buf: &[u8], pos: &mut usize) -> Result<(usize, usize)> {
    let n = hive_codec::varint::read_unsigned(buf, pos)?;
    let n = usize::try_from(n).unwrap_or(usize::MAX);
    Ok((n, n.min(buf.len() - *pos)))
}

fn value_at(buf: &[u8], pos: &mut usize, depth: usize) -> Result<Value> {
    if depth > MAX_DEPTH {
        return Err(HiveError::SerDe("binary value nested too deep".into()));
    }
    let tag = *buf
        .get(*pos)
        .ok_or_else(|| HiveError::SerDe("binary value truncated".into()))?;
    *pos += 1;
    match tag {
        0 => Ok(Value::Null),
        1 => {
            let b = *buf
                .get(*pos)
                .ok_or_else(|| HiveError::SerDe("boolean truncated".into()))?;
            *pos += 1;
            Ok(Value::Boolean(b != 0))
        }
        2 => Ok(Value::Int(hive_codec::varint::read_signed(buf, pos)?)),
        3 => {
            let b = buf
                .get(*pos..)
                .and_then(|rest| rest.first_chunk::<8>())
                .ok_or_else(|| HiveError::SerDe("double truncated".into()))?;
            *pos += 8;
            Ok(Value::Double(f64::from_le_bytes(*b)))
        }
        4 => {
            let (n, _) = count_at(buf, pos)?;
            if n > buf.len() - *pos {
                return Err(HiveError::SerDe("string truncated".into()));
            }
            let s = String::from_utf8_lossy(&buf[*pos..*pos + n]).into_owned();
            *pos += n;
            Ok(Value::String(s))
        }
        5 => Ok(Value::Timestamp(hive_codec::varint::read_signed(buf, pos)?)),
        6 | 8 => {
            let (n, cap) = count_at(buf, pos)?;
            let mut items = Vec::with_capacity(cap);
            for _ in 0..n {
                items.push(value_at(buf, pos, depth + 1)?);
            }
            Ok(if tag == 6 {
                Value::Array(items)
            } else {
                Value::Struct(items)
            })
        }
        7 => {
            let (n, cap) = count_at(buf, pos)?;
            let mut entries = Vec::with_capacity(cap / 2);
            for _ in 0..n {
                let k = value_at(buf, pos, depth + 1)?;
                let v = value_at(buf, pos, depth + 1)?;
                entries.push((k, v));
            }
            Ok(Value::Map(entries))
        }
        9 => {
            let t = *buf
                .get(*pos)
                .ok_or_else(|| HiveError::SerDe("union truncated".into()))?;
            *pos += 1;
            Ok(Value::Union(t, Box::new(value_at(buf, pos, depth + 1)?)))
        }
        other => Err(HiveError::SerDe(format!(
            "unknown binary value tag {other}"
        ))),
    }
}

/// Binary-serialize a whole row.
pub fn binary_serialize_row(row: &Row, out: &mut Vec<u8>) {
    binary_serialize_values(row.values(), out);
}

/// [`binary_serialize_row`] for a row held as a bare value slice.
pub fn binary_serialize_values(values: &[Value], out: &mut Vec<u8>) {
    hive_codec::varint::write_unsigned(out, values.len() as u64);
    for v in values {
        binary_serialize_value(v, out);
    }
}

/// [`binary_serialize_values`] of row `i`'s cells of `columns` (batch column,
/// logical type): the same bytes as the row [`get_value`] would build, with
/// no value built. The lane twin of the row encoding, for a batch's rows on
/// their way to a shuffle run or a SequenceFile.
///
/// [`get_value`]: hive_vector::row_convert::get_value
pub fn binary_serialize_cells(
    batch: &[ColumnVector],
    columns: &[(usize, DataType)],
    i: usize,
    out: &mut Vec<u8>,
) {
    hive_codec::varint::write_unsigned(out, columns.len() as u64);
    for (c, dt) in columns {
        binary_serialize_cell(cell(&batch[*c], i, dt), out);
    }
}

/// Binary-deserialize a whole row.
pub fn binary_deserialize_row(buf: &[u8], pos: &mut usize) -> Result<Row> {
    let mut vals = Vec::new();
    binary_deserialize_values_into(buf, pos, &mut vals)?;
    Ok(Row::new(vals))
}

/// [`binary_deserialize_row`], appending the row's values to `out`.
pub fn binary_deserialize_values_into(
    buf: &[u8],
    pos: &mut usize,
    out: &mut Vec<Value>,
) -> Result<()> {
    let (n, cap) = count_at(buf, pos)?;
    out.reserve(cap);
    for _ in 0..n {
        out.push(value_at(buf, pos, 0)?);
    }
    Ok(())
}

/// [`binary_deserialize_values_into`] into row `row` of `columns`, one
/// column per value, building no value: a reducer's batch decoding. The row
/// must have as many values as there are columns, each of a lane its column
/// holds (an INT widens into a DOUBLE column), or it is a `SerDe` error.
pub fn binary_deserialize_into_columns(
    buf: &[u8],
    pos: &mut usize,
    columns: &mut [ColumnVector],
    row: usize,
) -> Result<()> {
    let bad = |what: &str| HiveError::SerDe(format!("binary row into columns: {what}"));
    if hive_codec::varint::read_unsigned(buf, pos)? != columns.len() as u64 {
        return Err(bad("width"));
    }
    for column in columns {
        let tag = *buf.get(*pos).ok_or_else(|| bad("truncated"))?;
        *pos += 1;
        match (tag, column) {
            (0, column) => column.set_null(row),
            (1, ColumnVector::Long(v)) => {
                v.vector[row] = (*buf.get(*pos).ok_or_else(|| bad("truncated"))? != 0) as i64;
                *pos += 1;
            }
            (2 | 5, ColumnVector::Long(v)) => {
                v.vector[row] = hive_codec::varint::read_signed(buf, pos)?
            }
            (2, ColumnVector::Double(v)) => {
                v.vector[row] = hive_codec::varint::read_signed(buf, pos)? as f64
            }
            (3, ColumnVector::Double(v)) => {
                let b = buf.get(*pos..).and_then(|rest| rest.first_chunk::<8>());
                v.vector[row] = f64::from_le_bytes(*b.ok_or_else(|| bad("truncated"))?);
                *pos += 8;
            }
            (4, ColumnVector::Bytes(v)) => {
                let (n, _) = count_at(buf, pos)?;
                let bytes = buf.get(*pos..).and_then(|rest| rest.get(..n));
                let bytes = bytes.ok_or_else(|| bad("truncated"))?;
                *pos += n;
                (v.start[row], v.length[row]) = (v.data.len() as u32, n as u32);
                v.data.extend_from_slice(bytes);
            }
            _ => return Err(bad("a value does not fit its column")),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_schema() -> Schema {
        Schema::parse(&[
            ("a", "bigint"),
            ("b", "string"),
            ("c", "double"),
            ("d", "array<int>"),
            ("e", "map<string,int>"),
            ("f", "struct<x:int,y:string>"),
            ("g", "boolean"),
        ])
        .unwrap()
    }

    fn sample_row() -> Row {
        Row::new(vec![
            Value::Int(-42),
            Value::String("hello world".into()),
            Value::Double(3.25),
            Value::Array(vec![Value::Int(1), Value::Int(2), Value::Int(3)]),
            Value::Map(vec![
                (Value::String("k1".into()), Value::Int(10)),
                (Value::String("k2".into()), Value::Int(20)),
            ]),
            Value::Struct(vec![Value::Int(7), Value::String("s".into())]),
            Value::Boolean(true),
        ])
    }

    #[test]
    fn text_round_trip() {
        let row = sample_row();
        let mut buf = Vec::new();
        text_serialize(&row, &mut buf);
        let back = text_deserialize(&buf, &sample_schema()).unwrap();
        assert_eq!(back, row);
    }

    #[test]
    fn text_nulls_round_trip() {
        let schema = Schema::parse(&[("a", "bigint"), ("b", "string")]).unwrap();
        let row = Row::new(vec![Value::Null, Value::Null]);
        let mut buf = Vec::new();
        text_serialize(&row, &mut buf);
        assert_eq!(buf, b"\\N\x01\\N");
        assert_eq!(text_deserialize(&buf, &schema).unwrap(), row);
    }

    #[test]
    fn text_malformed_numbers_become_null() {
        let schema = Schema::parse(&[("a", "bigint")]).unwrap();
        let back = text_deserialize(b"not-a-number", &schema).unwrap();
        assert_eq!(back[0], Value::Null);
    }

    #[test]
    fn binary_round_trip() {
        let row = sample_row();
        let mut buf = Vec::new();
        binary_serialize_row(&row, &mut buf);
        let mut pos = 0;
        let back = binary_deserialize_row(&buf, &mut pos).unwrap();
        assert_eq!(back, row);
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn binary_union_and_timestamp() {
        let row = Row::new(vec![
            Value::Union(1, Box::new(Value::String("u".into()))),
            Value::Timestamp(1_400_000_000_000_000),
        ]);
        let mut buf = Vec::new();
        binary_serialize_row(&row, &mut buf);
        let mut pos = 0;
        assert_eq!(binary_deserialize_row(&buf, &mut pos).unwrap(), row);
    }

    #[test]
    fn binary_truncation_errors() {
        let mut buf = Vec::new();
        binary_serialize_row(&sample_row(), &mut buf);
        let mut pos = 0;
        assert!(binary_deserialize_row(&buf[..buf.len() - 3], &mut pos).is_err());
    }

    #[test]
    fn text_empty_string_vs_empty_array() {
        let schema = Schema::parse(&[("s", "string"), ("a", "array<int>")]).unwrap();
        let row = Row::new(vec![Value::String(String::new()), Value::Array(vec![])]);
        let mut buf = Vec::new();
        text_serialize(&row, &mut buf);
        let back = text_deserialize(&buf, &schema).unwrap();
        assert_eq!(back, row);
    }

    /// Column-wise decoding reads what the row decoding reads, and refuses a
    /// row of another width or a value its column cannot hold.
    #[test]
    fn binary_rows_decode_into_columns_as_into_values() {
        use hive_vector::row_convert::get_value;
        use hive_vector::VectorizedRowBatch;
        let types = [
            DataType::Int,
            DataType::Double,
            DataType::String,
            DataType::Boolean,
            DataType::Timestamp,
        ];
        let rows = [
            vec![
                Value::Int(-3),
                Value::Double(f64::NAN),
                Value::String("h\u{e9}".into()),
                Value::Boolean(true),
                Value::Timestamp(-9),
            ],
            vec![
                Value::Null,
                Value::Double(-0.0),
                Value::String(String::new()),
                Value::Null,
                Value::Null,
            ],
        ];
        let mut b = VectorizedRowBatch::new(&types, 2).unwrap();
        for (row, values) in rows.iter().enumerate() {
            let mut buf = Vec::new();
            binary_serialize_values(values, &mut buf);
            binary_deserialize_into_columns(&buf, &mut 0, &mut b.columns, row).unwrap();
            let back: Vec<Value> = (0..5)
                .map(|c| get_value(&b.columns[c], row, &types[c]))
                .collect();
            assert_eq!(format!("{back:?}"), format!("{values:?}"));
            assert!(
                binary_deserialize_into_columns(&buf, &mut 0, &mut b.columns[..4], row).is_err()
            );
        }
        let mut buf = Vec::new();
        binary_serialize_values(&[Value::String("x".into())], &mut buf);
        assert!(binary_deserialize_into_columns(&buf, &mut 0, &mut b.columns[..1], 0).is_err());
        for cut in 0..buf.len() {
            assert!(
                binary_deserialize_into_columns(&buf[..cut], &mut 0, &mut b.columns[2..3], 0)
                    .is_err()
            );
        }
    }
}
