//! Per-index-group bloom filters for ORC stripes.
//!
//! Min/max statistics prune range predicates well but are useless for
//! equality probes into unsorted columns: every group's `[min, max]`
//! straddles almost any literal. A bloom filter per `(column, index
//! group)` answers "is this exact value possibly present?" and lets the
//! reader drop groups that stats alone cannot ("From MapReduce to
//! Enterprise-grade Big Data Warehousing" pairs bloom filters with the
//! per-replica sort orders of HAIL for exactly this case).
//!
//! On disk the bloom section sits between a stripe's index data and its
//! row data (`StripeInfo::bloom_len`) and carries its *own* CRC32
//! trailer, separate from the DFS block checksums. A tampered or torn
//! section therefore fails verification even when the enclosing blocks
//! were republished with fresh CRCs; the reader degrades to stats-only
//! pruning — never a wrong answer, never a panic.

use hive_codec::varint;
use hive_common::{key, HiveError, Result, Value};
use hive_dfs::crc;

/// One bloom filter: a bit array probed with `k` double-hashed positions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BloomFilter {
    nbits: u64,
    k: u32,
    words: Vec<u64>,
}

impl BloomFilter {
    /// Size a filter for `expected` distinct values at false-positive
    /// probability `fpp` (standard `m = -n·ln p / (ln 2)²`,
    /// `k = (m/n)·ln 2` sizing, clamped to sane bounds).
    pub fn with_expected(expected: usize, fpp: f64) -> BloomFilter {
        let n = expected.max(1) as f64;
        let p = fpp.clamp(0.001, 0.5);
        let ln2 = std::f64::consts::LN_2;
        let m = (-n * p.ln() / (ln2 * ln2)).ceil().max(64.0);
        let nbits = (m as u64).next_multiple_of(64);
        let k = ((nbits as f64 / n) * ln2).round().clamp(1.0, 16.0) as u32;
        BloomFilter {
            nbits,
            k,
            words: vec![0u64; (nbits / 64) as usize],
        }
    }

    /// Insert a pre-hashed value (see [`hash_value`]).
    pub fn add_hash(&mut self, hash: u64) {
        let (h1, h2) = split_hash(hash);
        for i in 0..self.k {
            let bit = probe_bit(h1, h2, i, self.nbits);
            self.words[(bit / 64) as usize] |= 1u64 << (bit % 64);
        }
    }

    /// Membership probe: `false` means *definitely absent*.
    pub fn might_contain_hash(&self, hash: u64) -> bool {
        let (h1, h2) = split_hash(hash);
        (0..self.k).all(|i| {
            let bit = probe_bit(h1, h2, i, self.nbits);
            self.words[(bit / 64) as usize] & (1u64 << (bit % 64)) != 0
        })
    }

    fn encode(&self, out: &mut Vec<u8>) {
        varint::write_unsigned(out, self.nbits);
        varint::write_unsigned(out, self.k as u64);
        for w in &self.words {
            out.extend_from_slice(&w.to_le_bytes());
        }
    }

    fn decode(buf: &[u8], pos: &mut usize) -> Result<BloomFilter> {
        let nbits = varint::read_unsigned(buf, pos)?;
        let k = varint::read_unsigned(buf, pos)? as u32;
        if nbits == 0 || nbits % 64 != 0 || nbits > (1 << 30) || k == 0 || k > 64 {
            return Err(HiveError::Format(format!(
                "implausible bloom filter shape: nbits={nbits} k={k}"
            )));
        }
        let nwords = (nbits / 64) as usize;
        let mut words = Vec::with_capacity(nwords);
        for _ in 0..nwords {
            let end = *pos + 8;
            let bytes = buf
                .get(*pos..end)
                .ok_or_else(|| HiveError::Format("bloom filter truncated".into()))?;
            words.push(u64::from_le_bytes(bytes.try_into().unwrap()));
            *pos = end;
        }
        Ok(BloomFilter { nbits, k, words })
    }
}

/// Double hashing à la ORC: the 64-bit hash splits into two 32-bit
/// halves, probe `i` lands on `h1 + i·h2` (odd `h2` so probes cycle the
/// whole bit space).
fn split_hash(hash: u64) -> (u64, u64) {
    ((hash >> 32) as u32 as u64, (hash as u32 as u64) | 1)
}

fn probe_bit(h1: u64, h2: u64, i: u32, nbits: u64) -> u64 {
    h1.wrapping_add(h2.wrapping_mul(i as u64)) % nbits
}

/// FNV-1a over a byte image, finished with an avalanche mix so the two
/// 32-bit halves used by double hashing are independent.
pub fn hash_bytes(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    // splitmix64 finalizer
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58476d1ce4e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d049bb133111eb);
    h ^ (h >> 31)
}

pub fn hash_i64(v: i64) -> u64 {
    hash_bytes(&v.to_le_bytes())
}

/// A double hashes as the key rule identifies it (`key::double_bits`), so
/// writer and probe agree on values the rule calls equal: `-0.0` and `0.0`,
/// and every NaN.
pub fn hash_f64(v: f64) -> u64 {
    hash_bytes(&key::double_bits(v).to_le_bytes())
}

pub fn hash_str(s: &str) -> u64 {
    hash_bytes(s.as_bytes())
}

/// Hash a predicate literal the way the writer hashed column values of
/// that type. `None` = this type carries no bloom filter (the probe must
/// answer "maybe").
pub fn hash_value(v: &Value) -> Option<u64> {
    match v {
        Value::Int(i) | Value::Timestamp(i) => Some(hash_i64(*i)),
        Value::Double(d) => Some(hash_f64(*d)),
        Value::String(s) => Some(hash_str(s)),
        Value::Boolean(b) => Some(hash_i64(*b as i64)),
        _ => None,
    }
}

/// Every hash a literal could have been written under, covering the
/// writer's numeric coercions (an `Int` literal may probe a `Double`
/// column and vice versa — missing a coercion would prune a group that
/// holds the value). `None` = unhashable literal; the caller must keep
/// the group.
pub fn probe_hashes(v: &Value) -> Option<Vec<u64>> {
    match v {
        Value::Int(i) | Value::Timestamp(i) => Some(vec![hash_i64(*i), hash_f64(*i as f64)]),
        Value::Double(d) => {
            let mut hashes = vec![hash_f64(*d)];
            if d.fract() == 0.0 && *d >= i64::MIN as f64 && *d <= i64::MAX as f64 {
                hashes.push(hash_i64(*d as i64));
            }
            Some(hashes)
        }
        Value::String(s) => Some(vec![hash_str(s)]),
        Value::Boolean(b) => Some(vec![hash_i64(*b as i64)]),
        _ => None,
    }
}

/// All bloom filters of one column in one stripe: `groups[g]` covers the
/// rows of index group `g`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnBloom {
    /// Top-level column index in the table schema.
    pub column: usize,
    pub groups: Vec<BloomFilter>,
}

/// Serialize a stripe's bloom section: varint-framed filters followed by
/// a CRC32 trailer over everything before it.
pub fn encode_section(cols: &[ColumnBloom]) -> Vec<u8> {
    let mut out = Vec::new();
    varint::write_unsigned(&mut out, cols.len() as u64);
    for col in cols {
        varint::write_unsigned(&mut out, col.column as u64);
        varint::write_unsigned(&mut out, col.groups.len() as u64);
        for g in &col.groups {
            g.encode(&mut out);
        }
    }
    let crc = crc::crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Decode and CRC-verify a stripe's bloom section. Any mismatch or
/// malformed framing is an error — the caller treats it as "no bloom
/// filters for this stripe" and falls back to statistics.
pub fn decode_section(buf: &[u8]) -> Result<Vec<ColumnBloom>> {
    if buf.len() < 4 {
        return Err(HiveError::Corrupt("bloom section truncated".into()));
    }
    let (body, trailer) = buf.split_at(buf.len() - 4);
    let stated = u32::from_le_bytes(trailer.try_into().unwrap());
    let actual = crc::crc32(body);
    if stated != actual {
        return Err(HiveError::Corrupt(format!(
            "bloom section checksum mismatch (expected {stated:#010x}, got {actual:#010x})"
        )));
    }
    let mut pos = 0usize;
    let ncols = varint::read_unsigned(body, &mut pos)? as usize;
    if ncols > 10_000 {
        return Err(HiveError::Format(format!(
            "implausible bloom column count {ncols}"
        )));
    }
    let mut cols = Vec::with_capacity(ncols);
    for _ in 0..ncols {
        let column = varint::read_unsigned(body, &mut pos)? as usize;
        let ngroups = varint::read_unsigned(body, &mut pos)? as usize;
        if ngroups > 1_000_000 {
            return Err(HiveError::Format(format!(
                "implausible bloom group count {ngroups}"
            )));
        }
        let mut groups = Vec::with_capacity(ngroups);
        for _ in 0..ngroups {
            groups.push(BloomFilter::decode(body, &mut pos)?);
        }
        cols.push(ColumnBloom { column, groups });
    }
    if pos != body.len() {
        return Err(HiveError::Format("bloom section trailing bytes".into()));
    }
    Ok(cols)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_false_negatives() {
        let mut f = BloomFilter::with_expected(1000, 0.05);
        for i in 0..1000i64 {
            f.add_hash(hash_i64(i * 7));
        }
        for i in 0..1000i64 {
            assert!(f.might_contain_hash(hash_i64(i * 7)));
        }
    }

    #[test]
    fn fpp_roughly_holds() {
        let mut f = BloomFilter::with_expected(1000, 0.05);
        for i in 0..1000i64 {
            f.add_hash(hash_i64(i));
        }
        let fp = (1000..11_000i64)
            .filter(|&i| f.might_contain_hash(hash_i64(i)))
            .count();
        // 5% target with generous slack for hash variance.
        assert!(fp < 1500, "false positives: {fp}/10000");
    }

    #[test]
    fn section_round_trip() {
        let mut g0 = BloomFilter::with_expected(10, 0.05);
        g0.add_hash(hash_str("alice"));
        let mut g1 = BloomFilter::with_expected(10, 0.05);
        g1.add_hash(hash_f64(2.5));
        let cols = vec![
            ColumnBloom {
                column: 0,
                groups: vec![g0.clone(), g1],
            },
            ColumnBloom {
                column: 3,
                groups: vec![g0],
            },
        ];
        let bytes = encode_section(&cols);
        assert_eq!(decode_section(&bytes).unwrap(), cols);
    }

    #[test]
    fn tampered_section_rejected() {
        let mut g = BloomFilter::with_expected(10, 0.05);
        g.add_hash(hash_i64(42));
        let cols = vec![ColumnBloom {
            column: 1,
            groups: vec![g],
        }];
        let mut bytes = encode_section(&cols);
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        assert!(decode_section(&bytes).is_err());
        let clean = encode_section(&cols);
        assert!(decode_section(&clean[..clean.len() - 3]).is_err());
    }

    #[test]
    fn zero_normalization_and_bool_hashing() {
        assert_eq!(hash_f64(0.0), hash_f64(-0.0));
        assert_eq!(hash_value(&Value::Boolean(true)), Some(hash_i64(1)));
        assert_eq!(hash_value(&Value::Null), None);
        assert_eq!(hash_value(&Value::Timestamp(77)), Some(hash_i64(77)));
    }
}
