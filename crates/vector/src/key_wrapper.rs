//! The key wrapper of the vector engine, Hive's `VectorHashKeyWrapperBatch`:
//! a batch's key columns in, one dense id per selected row out. Keyed
//! aggregation resolves its groups through it (`aggregates.rs`, DESIGN.md
//! §16) and the map join its build and probe keys (`mapjoin.rs`).
//!
//! This is the vector engine's representation of the key rule in
//! `hive_common::key` (DESIGN.md "Keys"): each key column becomes one
//! fixed-width `u64` lane — the long value, the double's `key::double_bits`
//! (one NaN; `-0.0` and `0.0` apart), or a bytes code from the column's
//! [`Interner`] — and NULL is a bit in a trailing mask lane. Lanes are typed
//! by the key's `DataType`, which both users fix per wrapper, so two tuples
//! are equal exactly when `key::cmp` calls their keys equal. The lane tuple
//! is hashed in place and looked up in a [`HashIndex`], which confirms a
//! candidate against the stored tuple: a hash match alone never identifies a
//! key. [`KeyWrapper::resolve`] copies a key, once, when it is first seen;
//! [`KeyWrapper::find`] only looks. A batch of known keys allocates nothing.

use crate::batch::{BytesColumnVector, ColumnVector, Dictionary, Lane, Rows, VectorizedRowBatch};
use hive_common::{key, DataType, HiveError, Result};

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

    /// Linear probing for the key with this `hash` that `eq` confirms: its
    /// id, or else the empty slot that ends its probe chain.
    #[inline]
    fn probe(
        &self,
        hash: u32,
        mut eq: impl FnMut(usize) -> bool,
    ) -> std::result::Result<usize, usize> {
        let mask = self.slots.len() - 1;
        let mut at = hash as usize & mask;
        loop {
            match self.slots[at] {
                (_, EMPTY) => return Err(at),
                (h, id) if h == hash && eq(id as usize) => return Ok(id as usize),
                _ => at = (at + 1) & mask,
            }
        }
    }

    /// The id of the key with this `hash` that `eq` confirms — or the next
    /// dense id and `true`, upon which the caller appends the key to its
    /// store. The load factor stays at or below one half, and only an
    /// insertion ever allocates.
    #[inline]
    fn find_or_insert(&mut self, hash: u32, eq: impl FnMut(usize) -> bool) -> (usize, bool) {
        let at = match self.probe(hash, eq) {
            Ok(id) => return (id, false),
            Err(at) => at,
        };
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
    /// `(dictionary id, code per entry)` for the dictionary the column's
    /// vectors last carried: an entry of eight bytes or more is hashed and
    /// looked up once per dictionary, not once per row. 0 (the code of the
    /// empty string, which is never long) marks an entry not coded yet.
    entry_codes: (Option<u64>, Vec<u64>),
}

const LONG: u64 = 0xFF << 56;
/// The code of a long value the interner does not hold: no stored key has it.
const ABSENT: u64 = u64::MAX;

impl Interner {
    fn new() -> Interner {
        Interner {
            arena: Vec::new(),
            offsets: vec![0],
            index: HashIndex::new(),
            entry_codes: (None, Vec::new()),
        }
    }

    /// The code of entry `e` of `dictionary`, as [`code`](Self::code) would
    /// answer for its bytes.
    #[inline]
    fn code_of_entry(&mut self, dictionary: &Dictionary, e: usize, intern: bool) -> u64 {
        let b = dictionary.entry(e);
        if b.len() < 8 {
            return self.code(b, intern);
        }
        if self.entry_codes.0 != Some(dictionary.id()) {
            self.entry_codes.0 = Some(dictionary.id());
            self.entry_codes.1.clear();
            self.entry_codes.1.resize(dictionary.len(), 0);
        }
        if self.entry_codes.1[e] == 0 {
            let code = self.code(b, intern);
            if code == ABSENT {
                // Not a fact about the entry: a later `resolve` may store it.
                return ABSENT;
            }
            self.entry_codes.1[e] = code;
        }
        self.entry_codes.1[e]
    }

    /// The code of `b`. A long value not seen before is interned when
    /// `intern` is set and is [`ABSENT`] otherwise.
    #[inline]
    fn code(&mut self, b: &[u8], intern: bool) -> u64 {
        if b.len() < 8 {
            return word(b) | (b.len() as u64) << 56;
        }
        let hash = hash_words(b.chunks(8).map(word).chain([b.len() as u64]));
        let (arena, offsets) = (&self.arena, &self.offsets);
        let eq = |id: usize| arena[offsets[id]..offsets[id + 1]] == *b;
        if !intern {
            let found = self.index.probe(hash, eq);
            return found.map_or(ABSENT, |id| LONG | id as u64);
        }
        let (id, new) = self.index.find_or_insert(hash, eq);
        if new {
            self.arena.extend_from_slice(b);
            self.offsets.push(self.arena.len());
        }
        LONG | id as u64
    }

    /// Row `row` of `v` set to the bytes `code` stands for.
    fn write(&self, code: u64, v: &mut BytesColumnVector, row: usize) {
        if code < LONG {
            return v.set(row, &code.to_le_bytes()[..(code >> 56) as usize]);
        }
        let id = (code ^ LONG) as usize;
        v.set(row, &self.arena[self.offsets[id]..self.offsets[id + 1]])
    }
}

/// The keys resolved so far. Key `g` is the `width`-lane tuple at
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

/// What [`KeyWrapper::find`] answers for a row whose key is not stored.
pub(crate) const MISS: u32 = u32::MAX;

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

    /// Batch column and logical type of each key.
    pub(crate) fn keys(&self) -> &[(usize, DataType)] {
        &self.keys
    }

    /// Read the keys from these batch columns from now on (a map join's
    /// build and probe batches place the same keys differently).
    pub(crate) fn rebind(&mut self, columns: impl IntoIterator<Item = usize>) {
        for ((c, _), column) in self.keys.iter_mut().zip(columns) {
            *c = column;
        }
    }

    /// Whether every key column of `batch` repeats: the batch holds one key.
    pub(crate) fn one_key(&self, batch: &VectorizedRowBatch) -> bool {
        let repeating = |(c, _): &(usize, DataType)| batch.columns[*c].is_repeating();
        self.keys.iter().all(repeating)
    }

    /// Write the key tuple of each selected row of `batch` into `lanes`
    /// (one tuple for a batch of [one key](Self::one_key)). Unseen long
    /// strings are interned only when `intern` is set.
    fn fill(&mut self, batch: &VectorizedRowBatch, intern: bool) -> Result<()> {
        let (w, nk) = (self.width, self.keys.len());
        let n = if self.one_key(batch) { 1 } else { batch.size };
        let lanes = &mut self.lanes;
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
                    rows.each(|j, i| lanes[j * w + k] = key::double_bits(v.vector[i]))
                }
                (ColumnVector::Bytes(v), Some(Lane::Bytes)) => match v.dictionary() {
                    Some((dictionary, ids)) => rows.each(|j, i| {
                        let e = ids[i] as usize;
                        lanes[j * w + k] = interner.code_of_entry(dictionary, e, intern)
                    }),
                    None => rows.each(|j, i| lanes[j * w + k] = interner.code(v.value(i), intern)),
                },
                _ => {
                    return Err(HiveError::Execution(format!(
                        "key column {c} does not carry a {dt}"
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
        Ok(())
    }

    /// The id of each selected row's key (`batch` has at least one row), in
    /// selection order, and the number of keys so far; ids are dense and
    /// count up in first-seen order.
    pub(crate) fn resolve(&mut self, batch: &VectorizedRowBatch) -> Result<(&[u32], usize)> {
        self.fill(batch, true)?;
        let (w, index, store) = (self.width, &mut self.index, &mut self.store);
        self.gids.clear();
        self.gids.extend(self.lanes.chunks_exact(w).map(|tuple| {
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

    /// The id of each selected row's key, in selection order, or [`MISS`]
    /// where the key was never resolved or has a NULL part (a join key with
    /// a NULL in it matches nothing). Looks only: no key and no string is
    /// stored.
    pub(crate) fn find(&mut self, batch: &VectorizedRowBatch) -> Result<&[u32]> {
        self.gids.clear();
        if batch.size == 0 {
            return Ok(&self.gids);
        }
        self.fill(batch, false)?;
        let (w, nk, index, store) = (self.width, self.keys.len(), &self.index, &self.store);
        self.gids.extend(self.lanes.chunks_exact(w).map(|tuple| {
            if tuple[nk..].iter().any(|&mask| mask != 0) {
                return MISS;
            }
            let stored = |g: usize| store[g * w..][..w] == *tuple;
            let found = index.probe(hash_words(tuple.iter().copied()), stored);
            found.map_or(MISS, |g| g as u32)
        }));
        self.gids.resize(batch.size, self.gids[0]);
        Ok(&self.gids)
    }

    /// Group `g`'s key into row `row` of `columns`, one per key column.
    pub(crate) fn write_key(&self, g: usize, columns: &mut [ColumnVector], row: usize) {
        let tuple = &self.store[g * self.width..][..self.width];
        for (k, column) in columns.iter_mut().enumerate().take(self.keys.len()) {
            if tuple[self.keys.len() + k / 64] >> (k % 64) & 1 == 1 {
                column.set_null(row);
                continue;
            }
            match column {
                ColumnVector::Long(v) => v.vector[row] = tuple[k] as i64,
                ColumnVector::Double(v) => v.vector[row] = f64::from_bits(tuple[k]),
                ColumnVector::Bytes(v) => self.interners[k].write(tuple[k], v, row),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hive_common::Value;

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

    /// `find` against the key rule itself: over every key lane (and all of
    /// them as one five-column key), a probe row's id is the first resolved
    /// row with a `key::cmp`-equal key, or MISS when there is none or the
    /// key has a NULL part — and looking stores nothing.
    #[test]
    fn find_agrees_with_the_key_rule_and_stores_nothing() {
        use crate::row_convert::rows_to_batch;
        use hive_common::Row;
        use DataType::*;
        let types = [Int, Boolean, Timestamp, Double, String];
        let nan2 = -f64::from_bits(f64::NAN.to_bits() | 1);
        let row = |k: i64, b: bool, ts: i64, d: f64, s: &str| {
            Row::new(vec![
                Value::Int(k),
                Value::Boolean(b),
                Value::Timestamp(ts),
                Value::Double(d),
                Value::String(s.into()),
            ])
        };
        let nulls = || Row::new(vec![Value::Null; 5]);
        let batch_of = |rows: &[Row]| {
            let mut b = VectorizedRowBatch::new(&types, rows.len()).unwrap();
            rows_to_batch(rows, &mut b).unwrap();
            b
        };
        let known = [
            row(1, true, 5, 1.5, "interned-key-0"),
            row(2, false, 6, f64::NAN, "ab"),
            nulls(), // a key `resolve` stores, and `find` still never matches
            row(0, false, 0, 0.0, ""),
        ];
        // (scenario, probe rows, every column `is_repeating`, selection)
        type Scenario = (&'static str, Vec<Row>, bool, Option<Vec<usize>>);
        let scenarios: [Scenario; 7] = [
            (
                "known",
                vec![known[1].clone(), known[0].clone(), known[3].clone()],
                false,
                None,
            ),
            (
                "NaN payloads and zeros",
                vec![row(2, false, 6, nan2, "ab"), row(0, false, 0, -0.0, "")],
                false,
                None,
            ),
            (
                "unknown short string",
                vec![row(7, true, 9, 2.5, "zz"), known[0].clone()],
                false,
                None,
            ),
            (
                "unknown long string",
                vec![row(1, true, 5, 1.5, "interned-key-9"), known[0].clone()],
                false,
                None,
            ),
            (
                "NULL part",
                vec![nulls(), known[0].clone(), nulls()],
                false,
                None,
            ),
            (
                "all is_repeating",
                vec![known[0].clone(), known[1].clone(), known[1].clone()],
                true,
                None,
            ),
            (
                "selected_in_use",
                vec![
                    known[0].clone(),
                    nulls(),
                    known[3].clone(),
                    known[1].clone(),
                ],
                false,
                Some(vec![3, 1, 2]),
            ),
        ];
        let mut key_sets: Vec<Vec<usize>> = (0..types.len()).map(|c| vec![c]).collect();
        key_sets.push((0..types.len()).collect());
        for columns in key_sets {
            let keys = columns.iter().map(|&c| (c, types[c].clone())).collect();
            let mut wrapper = KeyWrapper::new(keys);
            let key_of =
                |r: &Row| -> Vec<Value> { columns.iter().map(|&c| r[c].clone()).collect() };
            // The oracle's store: distinct keys in first-seen order.
            let mut stored: Vec<Vec<Value>> = Vec::new();
            for r in &known {
                if !stored.iter().any(|k| key::cmp(k, &key_of(r)).is_eq()) {
                    stored.push(key_of(r));
                }
            }
            wrapper.resolve(&batch_of(&known)).unwrap();
            assert_eq!(wrapper.num_groups(), stored.len(), "{columns:?}");
            let sizes = |w: &KeyWrapper| {
                let interned = |i: &Interner| (i.index.len, i.arena.len());
                (
                    w.num_groups(),
                    w.store.len(),
                    w.interners.iter().map(interned).collect::<Vec<_>>(),
                )
            };
            let before = sizes(&wrapper);
            for (what, rows, repeating, selection) in &scenarios {
                let mut b = batch_of(rows);
                let mut visited: Vec<usize> = (0..rows.len()).collect();
                if *repeating {
                    b.columns.iter_mut().for_each(|c| match c {
                        ColumnVector::Long(v) => v.is_repeating = true,
                        ColumnVector::Double(v) => v.is_repeating = true,
                        ColumnVector::Bytes(v) => v.is_repeating = true,
                    });
                    visited.iter_mut().for_each(|i| *i = 0);
                }
                if let Some(sel) = selection {
                    b.selected[..sel.len()].copy_from_slice(sel);
                    b.selected_in_use = true;
                    b.size = sel.len();
                    visited = sel.clone();
                }
                let expect: Vec<u32> = visited
                    .iter()
                    .map(|&i| {
                        let k = key_of(&rows[i]);
                        let found = stored.iter().position(|s| key::cmp(s, &k).is_eq());
                        let matchable = !k.iter().any(Value::is_null);
                        found.filter(|_| matchable).map_or(MISS, |g| g as u32)
                    })
                    .collect();
                assert_eq!(wrapper.find(&b).unwrap(), expect, "{what} over {columns:?}");
                assert_eq!(
                    sizes(&wrapper),
                    before,
                    "{what} over {columns:?} stored something"
                );
            }
            let empty = VectorizedRowBatch::new(&types, 4).unwrap();
            assert!(wrapper.find(&empty).unwrap().is_empty());
        }
    }

    #[test]
    fn dictionary_entries_code_like_their_bytes_and_long_ones_only_once() {
        use std::sync::Arc;
        let words: [&[u8]; 4] = [b"N", b"a-key-long-enough-0", b"", b"a-key-long-enough-1"];
        let dictionary = |order: [usize; 4]| {
            let mut bounds = vec![0u32];
            let mut blob = Vec::new();
            for w in order.map(|o| words[o]) {
                blob.extend_from_slice(w);
                bounds.push(blob.len() as u32);
            }
            Dictionary::new(Arc::new(blob), bounds).unwrap()
        };
        let (first, second) = (dictionary([0, 1, 2, 3]), dictionary([3, 2, 1, 0]));
        let mut interner = Interner::new();
        // Looking only: a long entry nobody stored is ABSENT, and stays
        // codable — the miss is not remembered as the entry's code.
        assert_eq!(interner.code_of_entry(&first, 1, false), ABSENT);
        for (d, order) in [
            (&first, [0, 1, 2, 3]),
            (&second, [3, 2, 1, 0]),
            (&first, [0, 1, 2, 3]),
        ] {
            for (e, o) in order.into_iter().enumerate() {
                let by_bytes = interner.code(words[o], true);
                assert_eq!(interner.code_of_entry(d, e, true), by_bytes);
                assert_eq!(interner.code_of_entry(d, e, false), by_bytes);
            }
        }
        assert_eq!(
            interner.index.len, 2,
            "two long values, whatever their entry ids"
        );
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
        let codes: Vec<u64> = values.iter().map(|v| interner.code(v, true)).collect();
        for (a, ca) in values.iter().zip(&codes) {
            for (b, cb) in values.iter().zip(&codes) {
                assert_eq!(a == b, ca == cb, "{a:?} vs {b:?}");
            }
            assert_eq!(interner.code(a, true), *ca, "codes are stable");
            assert_eq!(interner.code(a, false), *ca, "looking finds the same code");
            let mut back = BytesColumnVector::with_capacity(1);
            interner.write(*ca, &mut back, 0);
            assert_eq!(back.value(0), &a[..]);
        }
        // Only the values of eight bytes and more were stored.
        assert_eq!(interner.index.len, 5);
    }
}
