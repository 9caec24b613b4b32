//! Runtime values flowing through SerDes and row-mode operators.

use crate::key;
use crate::types::DataType;
use std::cmp::Ordering;
use std::fmt;

/// A single cell value.
///
/// `Value` is the row-mode currency: SerDes produce it, interpreted
/// expressions consume it. The vectorized engine avoids it entirely
/// (that is the point of Section 6 of the paper).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// SQL NULL.
    Null,
    Boolean(bool),
    Int(i64),
    Double(f64),
    String(String),
    /// Epoch microseconds.
    Timestamp(i64),
    Array(Vec<Value>),
    /// Insertion-ordered key/value pairs.
    Map(Vec<(Value, Value)>),
    Struct(Vec<Value>),
    /// Active alternative tag + payload.
    Union(u8, Box<Value>),
}

impl Value {
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// The data type this value inhabits, if unambiguous.
    /// `Null` and empty collections report `None`.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Boolean(_) => Some(DataType::Boolean),
            Value::Int(_) => Some(DataType::Int),
            Value::Double(_) => Some(DataType::Double),
            Value::String(_) => Some(DataType::String),
            Value::Timestamp(_) => Some(DataType::Timestamp),
            Value::Array(items) => items
                .iter()
                .find_map(|v| v.data_type())
                .map(|t| DataType::Array(Box::new(t))),
            Value::Map(entries) => {
                let k = entries.iter().find_map(|(k, _)| k.data_type())?;
                let v = entries.iter().find_map(|(_, v)| v.data_type())?;
                Some(DataType::Map(Box::new(k), Box::new(v)))
            }
            Value::Struct(_) | Value::Union(_, _) => None,
        }
    }

    /// Numeric view as i64 (booleans count as 0/1). `None` for non-numerics.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) | Value::Timestamp(v) => Some(*v),
            Value::Boolean(b) => Some(*b as i64),
            _ => None,
        }
    }

    /// Numeric view as f64, widening ints. `None` for non-numerics.
    pub fn as_double(&self) -> Option<f64> {
        match self {
            Value::Double(v) => Some(*v),
            Value::Int(v) | Value::Timestamp(v) => Some(*v as f64),
            Value::Boolean(b) => Some(*b as i64 as f64),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Boolean(b) => Some(*b),
            _ => None,
        }
    }

    /// [`key::compare`]: the one order of values. Kept for callers outside
    /// the engine.
    pub fn sql_cmp(&self, other: &Value) -> Ordering {
        key::compare(self, other)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Boolean(b) => write!(f, "{b}"),
            Value::Int(v) => write!(f, "{v}"),
            Value::Double(v) => {
                if v.fract() == 0.0 && v.abs() < 1e15 {
                    write!(f, "{v:.1}")
                } else {
                    write!(f, "{v}")
                }
            }
            Value::String(s) => write!(f, "{s}"),
            Value::Timestamp(v) => write!(f, "ts:{v}"),
            Value::Array(items) => {
                write!(f, "[")?;
                for (i, it) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{it}")?;
                }
                write!(f, "]")
            }
            Value::Map(entries) => {
                write!(f, "{{")?;
                for (i, (k, v)) in entries.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{k}:{v}")?;
                }
                write!(f, "}}")
            }
            Value::Struct(fields) => {
                write!(f, "(")?;
                for (i, v) in fields.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, ")")
            }
            Value::Union(tag, v) => write!(f, "<{tag}:{v}>"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_sorts_first() {
        let mut vals = [Value::Int(3), Value::Null, Value::Int(-1)];
        vals.sort_by(key::compare);
        assert_eq!(vals[0], Value::Null);
        assert_eq!(vals[1], Value::Int(-1));
    }

    #[test]
    fn cross_numeric_comparison_widens() {
        let cmp = key::compare;
        assert_eq!(cmp(&Value::Int(2), &Value::Double(2.5)), Ordering::Less);
        assert_eq!(cmp(&Value::Double(2.0), &Value::Int(2)), Ordering::Equal);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Double(4.0).to_string(), "4.0");
        assert_eq!(
            Value::Array(vec![Value::Int(1), Value::Int(2)]).to_string(),
            "[1,2]"
        );
        assert_eq!(
            Value::Map(vec![(Value::String("k".into()), Value::Int(9))]).to_string(),
            "{k:9}"
        );
    }
}
