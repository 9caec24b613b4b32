//! Column statistics — the "data statistics" sparse index of ORC (paper
//! Section 4.2): number of values, min, max, sum, and length, kept at three
//! levels (index group, stripe, file).

use hive_codec::varint;
use hive_common::key::{self, KeyOrd};
use hive_common::{DataType, HiveError, Result, Value};

/// Statistics for one column over some span (group, stripe or file).
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnStatistics {
    /// Structural columns (struct/array/map/union) track counts only.
    Generic { count: u64, has_null: bool },
    Int {
        count: u64,
        has_null: bool,
        min: Option<i64>,
        max: Option<i64>,
        sum: Option<i64>,
    },
    Double {
        count: u64,
        has_null: bool,
        min: Option<f64>,
        max: Option<f64>,
        sum: Option<f64>,
    },
    String {
        count: u64,
        has_null: bool,
        min: Option<Vec<u8>>,
        max: Option<Vec<u8>>,
        /// Total bytes across values ("the length" for text types).
        total_length: u64,
    },
    Boolean {
        count: u64,
        has_null: bool,
        true_count: u64,
    },
}

impl ColumnStatistics {
    pub fn count(&self) -> u64 {
        match self {
            ColumnStatistics::Generic { count, .. }
            | ColumnStatistics::Int { count, .. }
            | ColumnStatistics::Double { count, .. }
            | ColumnStatistics::String { count, .. }
            | ColumnStatistics::Boolean { count, .. } => *count,
        }
    }

    pub fn has_null(&self) -> bool {
        match self {
            ColumnStatistics::Generic { has_null, .. }
            | ColumnStatistics::Int { has_null, .. }
            | ColumnStatistics::Double { has_null, .. }
            | ColumnStatistics::String { has_null, .. }
            | ColumnStatistics::Boolean { has_null, .. } => *has_null,
        }
    }

    /// Min/max as SQL values for predicate evaluation and the "answer simple
    /// aggregation queries from file stats" use the paper mentions.
    pub fn min_value(&self) -> Option<Value> {
        match self {
            ColumnStatistics::Int { min, .. } => min.map(Value::Int),
            ColumnStatistics::Double { min, .. } => min.map(Value::Double),
            ColumnStatistics::String { min, .. } => min
                .as_ref()
                .map(|b| Value::String(String::from_utf8_lossy(b).into_owned())),
            ColumnStatistics::Boolean {
                count, true_count, ..
            } => Some(Value::Boolean(*count > 0 && *true_count == *count)),
            ColumnStatistics::Generic { .. } => None,
        }
    }

    pub fn max_value(&self) -> Option<Value> {
        match self {
            ColumnStatistics::Int { max, .. } => max.map(Value::Int),
            ColumnStatistics::Double { max, .. } => max.map(Value::Double),
            ColumnStatistics::String { max, .. } => max
                .as_ref()
                .map(|b| Value::String(String::from_utf8_lossy(b).into_owned())),
            ColumnStatistics::Boolean { true_count, .. } => Some(Value::Boolean(*true_count > 0)),
            ColumnStatistics::Generic { .. } => None,
        }
    }

    pub fn sum_value(&self) -> Option<Value> {
        match self {
            ColumnStatistics::Int { sum, .. } => sum.map(Value::Int),
            ColumnStatistics::Double { sum, .. } => sum.map(Value::Double),
            _ => None,
        }
    }

    /// Merge `other` into `self` (group → stripe → file rollup).
    pub fn merge(&mut self, other: &ColumnStatistics) -> Result<()> {
        use ColumnStatistics::*;
        match (self, other) {
            (
                Generic { count, has_null },
                Generic {
                    count: c2,
                    has_null: h2,
                },
            ) => {
                *count += c2;
                *has_null |= h2;
            }
            (
                Int {
                    count,
                    has_null,
                    min,
                    max,
                    sum,
                },
                Int {
                    count: c2,
                    has_null: h2,
                    min: m2,
                    max: x2,
                    sum: s2,
                },
            ) => {
                *count += c2;
                *has_null |= h2;
                *min = merge_opt(*min, *m2, key::least);
                *max = merge_opt(*max, *x2, key::greatest);
                *sum = match (*sum, *s2) {
                    (Some(a), Some(b)) => a.checked_add(b),
                    (a, None) => a,
                    (None, b) => b,
                };
            }
            (
                Double {
                    count,
                    has_null,
                    min,
                    max,
                    sum,
                },
                Double {
                    count: c2,
                    has_null: h2,
                    min: m2,
                    max: x2,
                    sum: s2,
                },
            ) => {
                *count += c2;
                *has_null |= h2;
                *min = merge_opt(*min, *m2, key::least);
                *max = merge_opt(*max, *x2, key::greatest);
                *sum = match (*sum, *s2) {
                    (Some(a), Some(b)) => Some(a + b),
                    (a, None) => a,
                    (None, b) => b,
                };
            }
            (
                String {
                    count,
                    has_null,
                    min,
                    max,
                    total_length,
                },
                String {
                    count: c2,
                    has_null: h2,
                    min: m2,
                    max: x2,
                    total_length: t2,
                },
            ) => {
                *count += c2;
                *has_null |= h2;
                if let Some(m2) = m2 {
                    if min.as_ref().is_none_or(|m| m2.key_lt(m)) {
                        *min = Some(m2.clone());
                    }
                }
                if let Some(x2) = x2 {
                    if max.as_ref().is_none_or(|x| x.key_lt(x2)) {
                        *max = Some(x2.clone());
                    }
                }
                *total_length += t2;
            }
            (
                Boolean {
                    count,
                    has_null,
                    true_count,
                },
                Boolean {
                    count: c2,
                    has_null: h2,
                    true_count: t2,
                },
            ) => {
                *count += c2;
                *has_null |= h2;
                *true_count += t2;
            }
            _ => {
                return Err(HiveError::Format(
                    "cannot merge statistics of different kinds".into(),
                ))
            }
        }
        Ok(())
    }

    // Binary encoding used in the index section / footer.
    pub fn encode(&self, out: &mut Vec<u8>) {
        match self {
            ColumnStatistics::Generic { count, has_null } => {
                out.push(0);
                varint::write_unsigned(out, *count);
                out.push(*has_null as u8);
            }
            ColumnStatistics::Int {
                count,
                has_null,
                min,
                max,
                sum,
            } => {
                out.push(1);
                varint::write_unsigned(out, *count);
                out.push(*has_null as u8);
                encode_opt_i64(out, *min);
                encode_opt_i64(out, *max);
                encode_opt_i64(out, *sum);
            }
            ColumnStatistics::Double {
                count,
                has_null,
                min,
                max,
                sum,
            } => {
                out.push(2);
                varint::write_unsigned(out, *count);
                out.push(*has_null as u8);
                encode_opt_f64(out, *min);
                encode_opt_f64(out, *max);
                encode_opt_f64(out, *sum);
            }
            ColumnStatistics::String {
                count,
                has_null,
                min,
                max,
                total_length,
            } => {
                out.push(3);
                varint::write_unsigned(out, *count);
                out.push(*has_null as u8);
                encode_opt_bytes(out, min.as_deref());
                encode_opt_bytes(out, max.as_deref());
                varint::write_unsigned(out, *total_length);
            }
            ColumnStatistics::Boolean {
                count,
                has_null,
                true_count,
            } => {
                out.push(4);
                varint::write_unsigned(out, *count);
                out.push(*has_null as u8);
                varint::write_unsigned(out, *true_count);
            }
        }
    }

    pub fn decode(buf: &[u8], pos: &mut usize) -> Result<ColumnStatistics> {
        let kind = *buf
            .get(*pos)
            .ok_or_else(|| HiveError::Format("statistics truncated".into()))?;
        *pos += 1;
        let count = varint::read_unsigned(buf, pos)?;
        let has_null = read_byte(buf, pos)? != 0;
        Ok(match kind {
            0 => ColumnStatistics::Generic { count, has_null },
            1 => ColumnStatistics::Int {
                count,
                has_null,
                min: decode_opt_i64(buf, pos)?,
                max: decode_opt_i64(buf, pos)?,
                sum: decode_opt_i64(buf, pos)?,
            },
            2 => ColumnStatistics::Double {
                count,
                has_null,
                min: decode_opt_f64(buf, pos)?,
                max: decode_opt_f64(buf, pos)?,
                sum: decode_opt_f64(buf, pos)?,
            },
            3 => ColumnStatistics::String {
                count,
                has_null,
                min: decode_opt_bytes(buf, pos)?,
                max: decode_opt_bytes(buf, pos)?,
                total_length: varint::read_unsigned(buf, pos)?,
            },
            4 => ColumnStatistics::Boolean {
                count,
                has_null,
                true_count: varint::read_unsigned(buf, pos)?,
            },
            other => {
                return Err(HiveError::Format(format!(
                    "unknown statistics kind {other}"
                )))
            }
        })
    }
}

/// Whether one column's non-NULL values arrive non-decreasing under
/// `hive_common::key`'s order: one comparison per value, and none once a
/// value has come out of order. What the writer records as the footer's
/// order flag ([`FileFooter::ordered`](crate::orc::FileFooter::ordered)).
#[derive(Debug, Clone, Default)]
pub struct OrderTracker {
    last: Option<Last>,
    broken: bool,
}

#[derive(Debug, Clone)]
enum Last {
    Long(i64),
    Double(f64),
    Bytes(Vec<u8>),
}

impl OrderTracker {
    /// Observe the next value of a column of type `dt`, as the writer
    /// stores it. A value of a type with no scalar order (a complex value)
    /// leaves the column unordered.
    pub fn observe(&mut self, dt: &DataType, v: &Value) {
        if self.broken || v.is_null() {
            return;
        }
        let in_order = match (dt, v, &mut self.last) {
            (DataType::Double, Value::Double(x), last) => step(
                last,
                *x,
                Last::Double,
                |l| matches!(l, Last::Double(p) if !x.key_lt(p)),
            ),
            (DataType::Double, Value::Int(x), last) => {
                let x = *x as f64;
                step(
                    last,
                    x,
                    Last::Double,
                    |l| matches!(l, Last::Double(p) if !x.key_lt(p)),
                )
            }
            (
                DataType::Int | DataType::Timestamp | DataType::Boolean,
                Value::Int(x) | Value::Timestamp(x),
                last,
            ) => step(
                last,
                *x,
                Last::Long,
                |l| matches!(l, Last::Long(p) if x >= p),
            ),
            (DataType::Int | DataType::Boolean, Value::Boolean(b), last) => {
                let x = *b as i64;
                step(
                    last,
                    x,
                    Last::Long,
                    |l| matches!(l, Last::Long(p) if x >= *p),
                )
            }
            (DataType::String, Value::String(s), Some(Last::Bytes(p))) => {
                let ok = p.as_slice() <= s.as_bytes();
                p.clear();
                p.extend_from_slice(s.as_bytes());
                ok
            }
            (DataType::String, Value::String(s), last @ None) => {
                *last = Some(Last::Bytes(s.as_bytes().to_vec()));
                true
            }
            _ => false,
        };
        self.broken = !in_order;
    }

    /// Whether every value observed so far came in order.
    pub fn ordered(&self) -> bool {
        !self.broken
    }
}

/// Keep `x` as the last value when it follows `last` in order (or is the
/// first); `false` when it comes before it.
fn step<T: Copy>(
    last: &mut Option<Last>,
    x: T,
    make: fn(T) -> Last,
    follows: impl Fn(&Last) -> bool,
) -> bool {
    if last.as_ref().is_some_and(|l| !follows(l)) {
        return false;
    }
    *last = Some(make(x));
    true
}

fn merge_opt<T: Copy>(a: Option<T>, b: Option<T>, f: impl Fn(T, T) -> T) -> Option<T> {
    match (a, b) {
        (Some(a), Some(b)) => Some(f(a, b)),
        (a, None) => a,
        (None, b) => b,
    }
}

fn read_byte(buf: &[u8], pos: &mut usize) -> Result<u8> {
    let b = *buf
        .get(*pos)
        .ok_or_else(|| HiveError::Format("statistics truncated".into()))?;
    *pos += 1;
    Ok(b)
}

fn encode_opt_i64(out: &mut Vec<u8>, v: Option<i64>) {
    match v {
        Some(x) => {
            out.push(1);
            varint::write_signed(out, x);
        }
        None => out.push(0),
    }
}

fn decode_opt_i64(buf: &[u8], pos: &mut usize) -> Result<Option<i64>> {
    if read_byte(buf, pos)? == 0 {
        Ok(None)
    } else {
        Ok(Some(varint::read_signed(buf, pos)?))
    }
}

fn encode_opt_f64(out: &mut Vec<u8>, v: Option<f64>) {
    match v {
        Some(x) => {
            out.push(1);
            out.extend_from_slice(&x.to_le_bytes());
        }
        None => out.push(0),
    }
}

fn decode_opt_f64(buf: &[u8], pos: &mut usize) -> Result<Option<f64>> {
    if read_byte(buf, pos)? == 0 {
        return Ok(None);
    }
    if *pos + 8 > buf.len() {
        return Err(HiveError::Format("f64 statistic truncated".into()));
    }
    let mut b = [0u8; 8];
    b.copy_from_slice(&buf[*pos..*pos + 8]);
    *pos += 8;
    Ok(Some(f64::from_le_bytes(b)))
}

fn encode_opt_bytes(out: &mut Vec<u8>, v: Option<&[u8]>) {
    match v {
        Some(x) => {
            out.push(1);
            varint::write_unsigned(out, x.len() as u64);
            out.extend_from_slice(x);
        }
        None => out.push(0),
    }
}

fn decode_opt_bytes(buf: &[u8], pos: &mut usize) -> Result<Option<Vec<u8>>> {
    if read_byte(buf, pos)? == 0 {
        return Ok(None);
    }
    let n = varint::read_unsigned(buf, pos)?;
    if n > buf.len().saturating_sub(*pos) as u64 {
        return Err(HiveError::Format("bytes statistic truncated".into()));
    }
    let n = n as usize;
    let v = buf[*pos..*pos + n].to_vec();
    *pos += n;
    Ok(Some(v))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(s: &ColumnStatistics) {
        let mut buf = Vec::new();
        s.encode(&mut buf);
        let mut pos = 0;
        assert_eq!(&ColumnStatistics::decode(&buf, &mut pos).unwrap(), s);
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn encode_decode_all_kinds() {
        round_trip(&ColumnStatistics::Generic {
            count: 10,
            has_null: true,
        });
        round_trip(&ColumnStatistics::Int {
            count: 5,
            has_null: false,
            min: Some(-3),
            max: Some(99),
            sum: Some(120),
        });
        round_trip(&ColumnStatistics::Double {
            count: 2,
            has_null: true,
            min: Some(-0.5),
            max: Some(1.5),
            sum: Some(1.0),
        });
        round_trip(&ColumnStatistics::String {
            count: 3,
            has_null: false,
            min: Some(b"aa".to_vec()),
            max: Some(b"zz".to_vec()),
            total_length: 17,
        });
        round_trip(&ColumnStatistics::Boolean {
            count: 8,
            has_null: false,
            true_count: 5,
        });
        round_trip(&ColumnStatistics::Int {
            count: 0,
            has_null: false,
            min: None,
            max: None,
            sum: None,
        });
    }

    #[test]
    fn merge_int_stats() {
        let mut a = ColumnStatistics::Int {
            count: 3,
            has_null: false,
            min: Some(1),
            max: Some(5),
            sum: Some(9),
        };
        let b = ColumnStatistics::Int {
            count: 2,
            has_null: true,
            min: Some(-2),
            max: Some(4),
            sum: Some(2),
        };
        a.merge(&b).unwrap();
        assert_eq!(
            a,
            ColumnStatistics::Int {
                count: 5,
                has_null: true,
                min: Some(-2),
                max: Some(5),
                sum: Some(11),
            }
        );
    }

    #[test]
    fn merge_string_stats() {
        let mut a = ColumnStatistics::String {
            count: 1,
            has_null: false,
            min: Some(b"m".to_vec()),
            max: Some(b"m".to_vec()),
            total_length: 1,
        };
        let b = ColumnStatistics::String {
            count: 1,
            has_null: false,
            min: Some(b"a".to_vec()),
            max: Some(b"z".to_vec()),
            total_length: 2,
        };
        a.merge(&b).unwrap();
        assert_eq!(a.min_value(), Some(Value::String("a".into())));
        assert_eq!(a.max_value(), Some(Value::String("z".into())));
    }

    #[test]
    fn merge_kind_mismatch_errors() {
        let mut a = ColumnStatistics::Generic {
            count: 1,
            has_null: false,
        };
        let b = ColumnStatistics::Boolean {
            count: 1,
            has_null: false,
            true_count: 1,
        };
        assert!(a.merge(&b).is_err());
    }

    #[test]
    fn order_tracker_follows_the_key_order() {
        let ints = |vals: &[Value]| {
            let mut t = OrderTracker::default();
            vals.iter().for_each(|v| t.observe(&DataType::Int, v));
            t.ordered()
        };
        assert!(ints(&[
            Value::Int(1),
            Value::Null,
            Value::Int(1),
            Value::Int(7)
        ]));
        assert!(!ints(&[Value::Int(2), Value::Int(1), Value::Int(3)]));
        let mut d = OrderTracker::default();
        for x in [-1.0, 0.0, f64::INFINITY, f64::NAN] {
            d.observe(&DataType::Double, &Value::Double(x));
        }
        assert!(d.ordered(), "NaN sorts after +inf");
        d.observe(&DataType::Double, &Value::Double(1.0));
        assert!(!d.ordered());
        let mut s = OrderTracker::default();
        for x in ["a", "ab", "ab", "b"] {
            s.observe(&DataType::String, &Value::String(x.into()));
        }
        assert!(s.ordered());
        s.observe(&DataType::String, &Value::String("aa".into()));
        assert!(!s.ordered());
    }

    #[test]
    fn sum_overflow_degrades_to_none() {
        let mut a = ColumnStatistics::Int {
            count: 1,
            has_null: false,
            min: Some(0),
            max: Some(0),
            sum: Some(i64::MAX),
        };
        let b = a.clone();
        a.merge(&b).unwrap();
        assert_eq!(a.sum_value(), None);
    }
}
