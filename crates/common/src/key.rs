//! The one order: when two keys are the same key, which comes first, and how
//! two values of a query compare.
//!
//! Everything that groups, joins, partitions or sorts by a key — the row
//! engine's hash tables, the shuffle's partitioner, sort and group cut, the
//! driver's `ORDER BY`, the sorted-replica writer, and (through
//! [`double_bits`]) the vector engine's `u64` key lanes — and everything that
//! compares two values — predicates, BETWEEN and IN, MIN/MAX, SARGs, ORC
//! statistics and blooms, and (through [`KeyOrd`]) the vector kernels — takes
//! its answer from here (DESIGN.md "Keys and values: one order"):
//!
//! * keys are **typed**: values of different variants are never equal and
//!   order by a fixed rank, NULL first;
//! * a double is its [`double_bits`]: every NaN is one value that sorts
//!   after `+inf`, and `-0.0` is `0.0`;
//! * two values of a query compare as keys do, except that an INT meets a
//!   DOUBLE as a DOUBLE ([`compare`]); the binder rejects every other mixed
//!   pair;
//! * [`cmp`] is a total order, [`Key`]'s `==` is `cmp == Equal`, and equal
//!   keys have equal [`hash`]es.

use crate::value::Value;
use std::cmp::Ordering;
use std::hash::{Hash, Hasher};

/// The bit pattern a double is identified by: `to_bits`, with every NaN
/// folded onto one pattern and `-0.0` onto `0.0`.
#[inline]
pub fn double_bits(x: f64) -> u64 {
    if x.is_nan() {
        f64::NAN.to_bits()
    } else if x == 0.0 {
        0
    } else {
        x.to_bits()
    }
}

/// `v` as the rule identifies it: a double loses its NaN payload and the
/// sign of its zero. Keys are made canonical where they are created, and so
/// are MIN/MAX results, so equal values print alike in every engine.
pub fn canonical(v: Value) -> Value {
    match v {
        Value::Double(x) => Value::Double(f64::from_bits(double_bits(x))),
        v => v,
    }
}

/// The order as the vector kernels apply it to one lane: `i64`, `f64` or a
/// byte string. Against a non-NaN double, `key_eq`, `key_lt` and `key_le`
/// answer as IEEE does, so a kernel tests `>` and `>=` as `!key_le` and
/// `!key_lt`: still one compare per value.
pub trait KeyOrd {
    fn key_eq(&self, other: &Self) -> bool;
    fn key_lt(&self, other: &Self) -> bool;
    fn key_le(&self, other: &Self) -> bool;
}

/// Integers and byte strings (lexicographic) in their natural order.
macro_rules! natural_order {
    ($($t:ty),+) => {$(
        impl KeyOrd for $t {
            #[inline(always)]
            fn key_eq(&self, other: &$t) -> bool { self == other }
            #[inline(always)]
            fn key_lt(&self, other: &$t) -> bool { self < other }
            #[inline(always)]
            fn key_le(&self, other: &$t) -> bool { self <= other }
        }
    )+};
}

natural_order!(i64, [u8]);

/// IEEE, with every NaN one value above `+inf` (`-0.0 == 0.0` already is).
impl KeyOrd for f64 {
    #[inline(always)]
    fn key_eq(&self, other: &f64) -> bool {
        self == other || (self.is_nan() && other.is_nan())
    }
    #[inline(always)]
    fn key_lt(&self, other: &f64) -> bool {
        self < other || (other.is_nan() && !self.is_nan())
    }
    #[inline(always)]
    fn key_le(&self, other: &f64) -> bool {
        self <= other || other.is_nan()
    }
}

/// The lesser of two lane values (MIN, statistics); `a` when they are equal.
#[inline(always)]
pub fn least<T: KeyOrd + Copy>(a: T, b: T) -> T {
    if b.key_lt(&a) {
        b
    } else {
        a
    }
}

/// The greater of two lane values (MAX, statistics); `a` when they are equal.
#[inline(always)]
pub fn greatest<T: KeyOrd + Copy>(a: T, b: T) -> T {
    if a.key_lt(&b) {
        b
    } else {
        a
    }
}

fn cmp_lane<T: KeyOrd + ?Sized>(a: &T, b: &T) -> Ordering {
    if a.key_lt(b) {
        Ordering::Less
    } else if b.key_lt(a) {
        Ordering::Greater
    } else {
        Ordering::Equal
    }
}

/// How two values of a query compare: as keys, except that an INT meets a
/// DOUBLE as a DOUBLE, one pair at a time. The binder (`semantic::lower`)
/// casts a STRING compared with a number to DOUBLE and rejects every other
/// mixed pair, so none reaches here. NULLs never reach a predicate either;
/// MIN/MAX and SARGs skip them.
pub fn compare(a: &Value, b: &Value) -> Ordering {
    match (a, b) {
        (Value::Int(a), Value::Double(b)) => cmp_lane(&(*a as f64), b),
        (Value::Double(a), Value::Int(b)) => cmp_lane(a, &(*b as f64)),
        _ => cmp_value(a, b),
    }
}

/// Variants in their key order; NULL sorts first.
pub fn rank(v: &Value) -> u8 {
    match v {
        Value::Null => 0,
        Value::Boolean(_) => 1,
        Value::Int(_) => 2,
        Value::Double(_) => 3,
        Value::String(_) => 4,
        Value::Timestamp(_) => 5,
        Value::Array(_) => 6,
        Value::Map(_) => 7,
        Value::Struct(_) => 8,
        Value::Union(..) => 9,
    }
}

/// The total order of single key values.
pub fn cmp_value(a: &Value, b: &Value) -> Ordering {
    use Value::*;
    match (a, b) {
        (Null, Null) => Ordering::Equal,
        (Boolean(a), Boolean(b)) => a.cmp(b),
        (Int(a), Int(b)) | (Timestamp(a), Timestamp(b)) => a.cmp(b),
        (Double(a), Double(b)) => cmp_lane(a, b),
        (String(a), String(b)) => a.cmp(b),
        (Array(a), Array(b)) | (Struct(a), Struct(b)) => cmp(a, b),
        (Map(a), Map(b)) => {
            let pair = |((ak, av), (bk, bv)): (&(Value, Value), &(Value, Value))| {
                cmp_value(ak, bk).then_with(|| cmp_value(av, bv))
            };
            let differing = a.iter().zip(b).map(pair).find(|c| c.is_ne());
            differing.unwrap_or(a.len().cmp(&b.len()))
        }
        (Union(at, a), Union(bt, b)) => at.cmp(bt).then_with(|| cmp_value(a, b)),
        _ => rank(a).cmp(&rank(b)),
    }
}

/// The total order of keys: column by column, a prefix before its extension.
pub fn cmp(a: &[Value], b: &[Value]) -> Ordering {
    let differing = a
        .iter()
        .zip(b)
        .map(|(x, y)| cmp_value(x, y))
        .find(|c| c.is_ne());
    differing.unwrap_or(a.len().cmp(&b.len()))
}

/// A hash that is stable across processes and runs (FNV-1a style mixing), so
/// the reducer a key lands on — and with it every simulated "distributed"
/// run — is reproducible. Keys equal under [`cmp`] hash alike.
pub fn hash(key: &[Value]) -> u64 {
    let mut h = KeyHasher::new();
    key.iter().for_each(|v| hash_value(v, &mut h));
    h.finish()
}

fn hash_value(v: &Value, h: &mut KeyHasher) {
    match v {
        Value::Null => h.null(),
        Value::Boolean(b) => h.boolean(*b),
        Value::Int(v) | Value::Timestamp(v) => h.int(*v),
        Value::Double(v) => h.double(*v),
        Value::String(s) => h.string(s),
        Value::Array(items) | Value::Struct(items) => items.iter().for_each(|it| hash_value(it, h)),
        Value::Map(entries) => entries.iter().for_each(|(k, v)| {
            hash_value(k, h);
            hash_value(v, h);
        }),
        Value::Union(tag, v) => {
            h.mix(*tag as u64);
            hash_value(v, h);
        }
    }
}

/// [`hash`] fed one scalar key value at a time: what a caller hashes a key
/// with when it holds the values in another form than `Value`s (the vector
/// engine's column lanes).
#[derive(Debug, Clone, Copy)]
pub struct KeyHasher(u64);

impl Default for KeyHasher {
    fn default() -> KeyHasher {
        KeyHasher::new()
    }
}

impl KeyHasher {
    pub fn new() -> KeyHasher {
        KeyHasher(0xcbf29ce484222325)
    }

    #[inline]
    fn mix(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(0x100000001b3);
    }

    #[inline]
    pub fn null(&mut self) {
        self.mix(0xdead)
    }

    #[inline]
    pub fn boolean(&mut self, b: bool) {
        self.mix(0x10 + b as u64)
    }

    /// An INT or a TIMESTAMP.
    #[inline]
    pub fn int(&mut self, v: i64) {
        self.mix(v as u64)
    }

    #[inline]
    pub fn double(&mut self, x: f64) {
        self.mix(double_bits(x))
    }

    #[inline]
    pub fn string(&mut self, s: &str) {
        s.bytes().for_each(|b| self.mix(b as u64));
        self.mix(0x517);
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// A key as hash tables and sorts hold it: `Eq`, `Ord` and `Hash` are
/// [`cmp`] and [`hash`].
#[derive(Debug, Clone, Default)]
pub struct Key(pub Vec<Value>);

impl PartialEq for Key {
    fn eq(&self, other: &Key) -> bool {
        cmp(&self.0, &other.0).is_eq()
    }
}

impl Eq for Key {}

impl Ord for Key {
    fn cmp(&self, other: &Key) -> Ordering {
        cmp(&self.0, &other.0)
    }
}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Key) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Hash for Key {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(hash(&self.0));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn nan_is_one_value_sorted_last_and_zeros_are_one() {
        let nan2 = f64::from_bits(f64::NAN.to_bits() | 1);
        let d = |x: f64| [Value::Double(x)];
        assert_eq!(cmp(&d(f64::NAN), &d(-nan2)), Ordering::Equal);
        assert_eq!(hash(&d(f64::NAN)), hash(&d(-nan2)));
        assert_eq!(cmp(&d(f64::INFINITY), &d(-f64::NAN)), Ordering::Less);
        assert_eq!(cmp(&d(-0.0), &d(0.0)), Ordering::Equal);
        assert_eq!(hash(&d(-0.0)), hash(&d(0.0)));
        assert_eq!(canonical(Value::Double(-0.0)).to_string(), "0.0");
        assert_eq!(cmp(&[Value::Null], &d(f64::NEG_INFINITY)), Ordering::Less);
    }

    #[test]
    fn values_compare_as_keys_and_int_meets_double_as_double() {
        let (i, d) = (Value::Int, Value::Double);
        assert_eq!(compare(&i(0), &d(-0.0)), Ordering::Equal);
        assert_eq!(compare(&d(f64::NAN), &i(i64::MAX)), Ordering::Greater);
        // One pair at a time: 2^53 + 1 meets a DOUBLE as 2^53.
        let big = 9_007_199_254_740_993;
        assert_eq!(compare(&i(big), &d(big as f64)), Ordering::Equal);
        assert_eq!(compare(&i(big), &i(big - 1)), Ordering::Greater);
        assert_eq!(least(f64::NAN, 1.0), 1.0);
        assert!(greatest(1.0, f64::NAN).is_nan());
    }

    #[test]
    fn keys_are_typed() {
        assert_ne!(Key(vec![Value::Int(1)]), Key(vec![Value::Double(1.0)]));
        assert_ne!(Key(vec![Value::Int(1)]), Key(vec![Value::Boolean(true)]));
        assert_ne!(Key(vec![Value::Int(1)]), Key(vec![Value::Timestamp(1)]));
    }

    #[test]
    fn key_comparison_orders_groups() {
        assert_eq!(
            cmp(
                &[Value::Int(1), Value::Int(2)],
                &[Value::Int(1), Value::Int(3)]
            ),
            Ordering::Less
        );
        assert_eq!(
            cmp(&[Value::Null], &[Value::Int(0)]),
            Ordering::Less,
            "nulls first"
        );
        assert_eq!(
            cmp(&[Value::Int(1)], &[Value::Int(1), Value::Null]),
            Ordering::Less,
            "a prefix before its extension"
        );
    }

    #[test]
    fn hash_is_deterministic_and_discriminating() {
        let s = |x: &str| [Value::String(x.into())];
        assert_eq!(hash(&s("hello")), hash(&s("hello")));
        assert_ne!(hash(&s("hello")), hash(&s("hellp")));
    }

    #[test]
    fn a_hash_map_finds_every_nan_under_one_key() {
        let mut m: HashMap<Key, u32> = HashMap::new();
        for x in [f64::NAN, -f64::NAN, 0.0, -0.0, 0.0] {
            *m.entry(Key(vec![Value::Double(x)])).or_default() += 1;
        }
        assert_eq!(m[&Key(vec![Value::Double(f64::NAN)])], 2);
        assert_eq!(m[&Key(vec![Value::Double(-0.0)])], 3);
    }
}
