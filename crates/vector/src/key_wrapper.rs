//! The key wrapper of vectorized GROUP BY — stage 1 of keyed aggregation
//! (`aggregates.rs`, DESIGN.md §16), Hive's `VectorHashKeyWrapperBatch`: a
//! batch's key columns in, one dense group id per selected row out.
//!
//! Each key column becomes one fixed-width `u64` lane — the long value, the
//! `f64` bits (so `-0.0`, `0.0` and every NaN group by bits), or a bytes code
//! from the column's [`Interner`] — and NULL is a bit in a trailing mask
//! lane. The lane tuple is hashed in place and looked up in a [`HashIndex`],
//! which confirms a candidate against the stored tuple: a hash match alone
//! never identifies a group. A key is copied, once, only when it founds a
//! group; a batch of known groups allocates nothing.

use crate::batch::{ColumnVector, Lane, Rows, VectorizedRowBatch};
use crate::row_convert::{bytes_value, long_value};
use hive_common::{DataType, HiveError, Result, Value};

/// A cheap multiplicative hash over 64-bit words (the FxHash step). The
/// finishing fold-and-multiply makes every input bit reach the bits that
/// index a table: doubles differ in their high bits only, small ints in
/// their low ones.
#[inline]
fn hash_words(words: impl Iterator<Item = u64>) -> u32 {
    const K: u64 = 0x517c_c1b7_2722_0a95;
    let h = words.fold(0u64, |h, w| (h.rotate_left(5) ^ w).wrapping_mul(K));
    ((h ^ (h >> 32)).wrapping_mul(K) >> 32) as u32
}

/// Up to eight bytes as a little-endian word, zero-padded.
#[inline]
fn word(b: &[u8]) -> u64 {
    b.iter().rev().fold(0, |w, &x| w << 8 | x as u64)
}

/// Open-addressing index from a hash to a dense id (0, 1, 2, … in insertion
/// order). Keys live with the caller, once: a slot holds `(hash, id)` and
/// `eq(id)` confirms a candidate against the caller's stored key.
struct HashIndex {
    slots: Vec<(u32, u32)>,
    len: usize,
}

const EMPTY: u32 = u32::MAX;

impl HashIndex {
    fn new() -> HashIndex {
        HashIndex {
            slots: vec![(0, EMPTY); 64],
            len: 0,
        }
    }

    /// The id of the key with this `hash` that `eq` confirms — or the next
    /// dense id and `true`, upon which the caller appends the key to its
    /// store. Linear probing; the load factor stays at or below one half,
    /// and only an insertion ever allocates.
    #[inline]
    fn find_or_insert(&mut self, hash: u32, mut eq: impl FnMut(usize) -> bool) -> (usize, bool) {
        let mask = self.slots.len() - 1;
        let mut at = hash as usize & mask;
        loop {
            match self.slots[at] {
                (_, EMPTY) => break,
                (h, id) if h == hash && eq(id as usize) => return (id as usize, false),
                _ => at = (at + 1) & mask,
            }
        }
        self.slots[at] = (hash, self.len as u32);
        self.len += 1;
        if self.len * 2 > self.slots.len() {
            let mask = self.slots.len() * 2 - 1;
            let old = std::mem::replace(&mut self.slots, vec![(0, EMPTY); mask + 1]);
            for slot in old.into_iter().filter(|s| s.1 != EMPTY) {
                let mut at = slot.0 as usize & mask;
                while self.slots[at].1 != EMPTY {
                    at = (at + 1) & mask;
                }
                self.slots[at] = slot;
            }
        }
        (self.len - 1, true)
    }
}

/// One bytes key column's values as `u64` codes, equal bytes ⇔ equal code.
/// A value of up to seven bytes is its own code (the bytes little-endian,
/// the length in the top byte): q1's one-byte flags cost no lookup at all.
/// A longer one is interned — stored once in `arena`, found again through
/// `index` — and coded `LONG | id`.
struct Interner {
    arena: Vec<u8>,
    /// Value `id` is `arena[offsets[id]..offsets[id + 1]]`.
    offsets: Vec<usize>,
    index: HashIndex,
}

const LONG: u64 = 0xFF << 56;

impl Interner {
    fn new() -> Interner {
        Interner {
            arena: Vec::new(),
            offsets: vec![0],
            index: HashIndex::new(),
        }
    }

    #[inline]
    fn code(&mut self, b: &[u8]) -> u64 {
        if b.len() < 8 {
            return word(b) | (b.len() as u64) << 56;
        }
        let hash = hash_words(b.chunks(8).map(word).chain([b.len() as u64]));
        let (arena, offsets) = (&self.arena, &self.offsets);
        let eq = |id: usize| arena[offsets[id]..offsets[id + 1]] == *b;
        let (id, new) = self.index.find_or_insert(hash, eq);
        if new {
            self.arena.extend_from_slice(b);
            self.offsets.push(self.arena.len());
        }
        LONG | id as u64
    }

    fn value(&self, code: u64) -> Value {
        if code < LONG {
            return bytes_value(&code.to_le_bytes()[..(code >> 56) as usize]);
        }
        let id = (code ^ LONG) as usize;
        bytes_value(&self.arena[self.offsets[id]..self.offsets[id + 1]])
    }
}

/// Group keys resolved so far. Group `g`'s key is the `width`-lane tuple at
/// `store[g * width..]`: one lane per key column, then one NULL bit per
/// column in the trailing mask lanes (a NULL key's own lane is 0).
pub(crate) struct KeyWrapper {
    keys: Vec<(usize, DataType)>,
    width: usize,
    /// One per key column; only bytes columns use theirs.
    interners: Vec<Interner>,
    index: HashIndex,
    store: Vec<u64>,
    /// This batch's tuples, row-major, and the ids they resolved to: both
    /// reused from batch to batch.
    lanes: Vec<u64>,
    gids: Vec<u32>,
}

impl KeyWrapper {
    /// `keys`: batch column and logical type of each key, at least one.
    pub(crate) fn new(keys: Vec<(usize, DataType)>) -> KeyWrapper {
        KeyWrapper {
            width: keys.len() + keys.len().div_ceil(64),
            interners: keys.iter().map(|_| Interner::new()).collect(),
            keys,
            index: HashIndex::new(),
            store: Vec::new(),
            lanes: Vec::new(),
            gids: Vec::new(),
        }
    }

    pub(crate) fn num_groups(&self) -> usize {
        self.index.len
    }

    /// The group id of each selected row of `batch` (which has at least
    /// one), in selection order, and the number of groups so far; ids are
    /// dense and count up in first-seen order.
    pub(crate) fn resolve(&mut self, batch: &VectorizedRowBatch) -> Result<(&[u32], usize)> {
        let (w, nk) = (self.width, self.keys.len());
        let lanes = &mut self.lanes;
        // A key set that is all `is_repeating` is one tuple: one probe.
        let repeating = |(c, _): &(usize, DataType)| batch.columns[*c].is_repeating();
        let n = if self.keys.iter().all(repeating) {
            1
        } else {
            batch.size
        };
        lanes.clear();
        lanes.resize(n * w, 0);
        for (k, ((c, dt), interner)) in self.keys.iter().zip(&mut self.interners).enumerate() {
            let col = &batch.columns[*c];
            let rows = Rows {
                n,
                ..Rows::of(batch, col)
            };
            match (col, Lane::of(dt)) {
                (ColumnVector::Long(v), Some(Lane::Long)) => {
                    rows.each(|j, i| lanes[j * w + k] = v.vector[i] as u64)
                }
                (ColumnVector::Double(v), Some(Lane::Double)) => {
                    rows.each(|j, i| lanes[j * w + k] = v.vector[i].to_bits())
                }
                (ColumnVector::Bytes(v), Some(Lane::Bytes)) => {
                    rows.each(|j, i| lanes[j * w + k] = interner.code(v.value(i)))
                }
                _ => {
                    return Err(HiveError::Execution(format!(
                        "group key column {c} does not carry a {dt}"
                    )))
                }
            }
            if let Some(null) = rows.nulls {
                let (lane, bit) = (nk + k / 64, k % 64);
                let every_row = Rows {
                    nulls: None,
                    ..rows
                };
                every_row.each(|j, i| lanes[j * w + lane] |= (null[i] as u64) << bit);
            }
        }
        let (index, store) = (&mut self.index, &mut self.store);
        self.gids.clear();
        self.gids.extend(lanes.chunks_exact(w).map(|tuple| {
            let stored = |g: usize| store[g * w..][..w] == *tuple;
            let (g, new) = index.find_or_insert(hash_words(tuple.iter().copied()), stored);
            if new {
                store.extend_from_slice(tuple);
            }
            g as u32
        }));
        self.gids.resize(batch.size, self.gids[0]);
        Ok((&self.gids, self.index.len))
    }

    /// Group `g`'s key, as the values the row engine would shuffle.
    pub(crate) fn key_values(&self, g: usize) -> impl Iterator<Item = Value> + '_ {
        (0..self.keys.len()).map(move |k| self.key_value(g, k))
    }

    fn key_value(&self, g: usize, k: usize) -> Value {
        let tuple = &self.store[g * self.width..][..self.width];
        if tuple[self.keys.len() + k / 64] >> (k % 64) & 1 == 1 {
            return Value::Null;
        }
        let dt = &self.keys[k].1;
        match Lane::of(dt) {
            Some(Lane::Double) => Value::Double(f64::from_bits(tuple[k])),
            Some(Lane::Bytes) => self.interners[k].value(tuple[k]),
            _ => long_value(tuple[k] as i64, dt),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_sharing_a_hash_value_stay_separate() {
        // Inject the hash: every key lands on 7, so only the confirmation
        // against the stored key can tell them apart.
        let mut index = HashIndex::new();
        let mut store: Vec<u64> = Vec::new();
        let mut id_of = |key: u64| {
            let (id, new) = index.find_or_insert(7, |id| store[id] == key);
            if new {
                store.push(key);
            }
            id
        };
        let ids: Vec<usize> = [10, 20, 10, 30, 20, 10].map(&mut id_of).to_vec();
        assert_eq!(ids, [0, 1, 0, 2, 1, 0]);
        // ... also across growth, with everything in one probe chain.
        let more: Vec<usize> = (100..200).map(&mut id_of).collect();
        assert_eq!(more, (3..103).collect::<Vec<_>>());
        assert_eq!((100..200).map(&mut id_of).collect::<Vec<_>>(), more);
        assert_eq!(id_of(30), 2);
    }

    #[test]
    fn hash_spreads_keys_that_differ_in_high_or_low_bits_only() {
        // Small ints, their doubles (low 40+ bits all zero) and shifted ints
        // must each fill a 1024-slot table about as evenly as chance would.
        let sets: [Vec<u64>; 3] = [
            (0..512).collect(),
            (0..512).map(|x| (x as f64).to_bits()).collect(),
            (0..512).map(|x| x << 44).collect(),
        ];
        for keys in sets {
            let mut hit = [false; 1024];
            keys.iter()
                .for_each(|&k| hit[hash_words([k, 0].into_iter()) as usize % 1024] = true);
            let distinct = hit.iter().filter(|&&h| h).count();
            assert!(
                distinct > 350,
                "only {distinct} of 512 keys got their own slot"
            );
        }
    }

    #[test]
    fn interner_codes_are_equal_exactly_when_the_bytes_are() {
        let mut interner = Interner::new();
        let values: Vec<Vec<u8>> = [
            "",
            "a",
            "b",
            "ab",
            "ba",
            "a\0",
            "\0a",
            "\0",
            "\0\0",
            "1234567",
            "12345678",
            "12345679",
            "123456789",
            "interned-key-0",
            "interned-key-1",
        ]
        .iter()
        .map(|s| s.as_bytes().to_vec())
        .collect();
        let codes: Vec<u64> = values.iter().map(|v| interner.code(v)).collect();
        for (a, ca) in values.iter().zip(&codes) {
            for (b, cb) in values.iter().zip(&codes) {
                assert_eq!(a == b, ca == cb, "{a:?} vs {b:?}");
            }
            assert_eq!(interner.code(a), *ca, "codes are stable");
            assert_eq!(interner.value(*ca), bytes_value(a));
        }
        // Only the values of eight bytes and more were stored.
        assert_eq!(interner.index.len, 5);
    }
}
