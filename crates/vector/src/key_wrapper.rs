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
//! [`KeyProbe::find`] only looks. A batch of known keys allocates nothing.
//!
//! What is stored and what is scratch are apart: a [`KeyTable`] (index,
//! tuples, interned strings) is immutable once resolved and can be shared,
//! and each of its users brings a [`KeyProbe`] (its key columns, the lanes
//! and ids of the batch at hand, its dictionary memos). A map join builds
//! one table per job and every task's operator probes it.

use crate::batch::{BytesColumnVector, ColumnVector, Dictionary, Lane, Rows, VectorizedRowBatch};
use hive_common::hash_index::{hash_words, word, HashIndex};
use hive_common::{key, DataType, HiveError, Result};

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
/// The code of a long value the interner does not hold: no stored key has it.
const ABSENT: u64 = u64::MAX;

/// The code of a value of up to seven bytes, which no interner stores.
#[inline]
fn short_code(b: &[u8]) -> Option<u64> {
    (b.len() < 8).then(|| word(b) | (b.len() as u64) << 56)
}

/// The hash a value of eight bytes or more is interned under.
#[inline]
fn long_hash(b: &[u8]) -> u32 {
    hash_words(b.chunks(8).map(word).chain([b.len() as u64]))
}

impl Interner {
    fn new() -> Interner {
        Interner {
            arena: Vec::new(),
            offsets: vec![0],
            index: HashIndex::new(),
        }
    }

    /// The code of `b`, interning a long value not seen before.
    #[inline]
    fn intern(&mut self, b: &[u8]) -> u64 {
        if let Some(code) = short_code(b) {
            return code;
        }
        let (arena, offsets) = (&self.arena, &self.offsets);
        let eq = |id: usize| arena[offsets[id]..offsets[id + 1]] == *b;
        let (id, new) = self.index.find_or_insert(long_hash(b), eq);
        if new {
            self.arena.extend_from_slice(b);
            self.offsets.push(self.arena.len());
        }
        LONG | id as u64
    }

    /// The code of `b`, or [`ABSENT`] for a long value never interned.
    #[inline]
    fn find(&self, b: &[u8]) -> u64 {
        if let Some(code) = short_code(b) {
            return code;
        }
        let eq = |id: usize| self.arena[self.offsets[id]..self.offsets[id + 1]] == *b;
        let found = self.index.probe(long_hash(b), eq);
        found.map_or(ABSENT, |id| LONG | id as u64)
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

/// One bytes key column's memo of the dictionary its vectors last carried:
/// the code of each entry, so an entry of eight bytes or more is hashed and
/// looked up once per dictionary, not once per row. 0 (the code of the empty
/// string, which is never long) marks an entry not coded yet.
#[derive(Default)]
struct EntryCodes {
    dictionary: Option<u64>,
    codes: Vec<u64>,
}

impl EntryCodes {
    /// The code of entry `e` of `dictionary`, as `code` answers for its
    /// bytes. An [`ABSENT`] answer is not remembered: it is not a fact about
    /// the entry, since a later `resolve` may store it.
    #[inline]
    fn code(&mut self, dictionary: &Dictionary, e: usize, code: impl FnOnce(&[u8]) -> u64) -> u64 {
        let b = dictionary.entry(e);
        if let Some(code) = short_code(b) {
            return code;
        }
        if self.dictionary != Some(dictionary.id()) {
            self.dictionary = Some(dictionary.id());
            self.codes.clear();
            self.codes.resize(dictionary.len(), 0);
        }
        if self.codes[e] == 0 {
            let code = code(b);
            if code == ABSENT {
                return ABSENT;
            }
            self.codes[e] = code;
        }
        self.codes[e]
    }
}

/// The keys resolved so far, typed by `types`: immutable once built, and
/// shared by everything that looks keys up in it (a map join's tasks probe
/// one). Key `g` is the `width`-lane tuple at `store[g * width..]`: one lane
/// per key column, then one NULL bit per column in the trailing mask lanes
/// (a NULL key's own lane is 0).
pub(crate) struct KeyTable {
    types: Vec<DataType>,
    width: usize,
    /// One per key column; only bytes columns use theirs.
    interners: Vec<Interner>,
    index: HashIndex,
    store: Vec<u64>,
}

/// What one user of a [`KeyTable`] needs to turn its batches into key
/// tuples: the batch column of each key, and scratch reused from batch to
/// batch — the tuples, the ids they found, and each bytes key's dictionary
/// memo.
pub(crate) struct KeyProbe {
    columns: Vec<usize>,
    lanes: Vec<u64>,
    gids: Vec<u32>,
    entry_codes: Vec<EntryCodes>,
}

/// A [`KeyTable`] with the [`KeyProbe`] that fills it: what keyed
/// aggregation groups by, and what builds a map join's key table.
pub(crate) struct KeyWrapper {
    table: KeyTable,
    probe: KeyProbe,
}

/// What [`KeyProbe::find`] answers for a row whose key is not stored.
pub(crate) const MISS: u32 = u32::MAX;

impl KeyTable {
    pub(crate) fn num_groups(&self) -> usize {
        self.index.len()
    }

    /// The logical type of each key.
    pub(crate) fn types(&self) -> &[DataType] {
        &self.types
    }

    /// Group `g`'s key into row `row` of `columns`, one per key column.
    pub(crate) fn write_key(&self, g: usize, columns: &mut [ColumnVector], row: usize) {
        let nk = self.types.len();
        let tuple = &self.store[g * self.width..][..self.width];
        for (k, column) in columns.iter_mut().enumerate().take(nk) {
            if tuple[nk + k / 64] >> (k % 64) & 1 == 1 {
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

impl KeyProbe {
    /// Keys read from these batch columns, one per key of the table probed.
    pub(crate) fn new(columns: Vec<usize>) -> KeyProbe {
        KeyProbe {
            entry_codes: columns.iter().map(|_| EntryCodes::default()).collect(),
            columns,
            lanes: Vec::new(),
            gids: Vec::new(),
        }
    }

    /// Whether every key column of `batch` repeats: the batch holds one key.
    pub(crate) fn one_key(&self, batch: &VectorizedRowBatch) -> bool {
        self.columns
            .iter()
            .all(|&c| batch.columns[c].is_repeating())
    }

    /// Write the `w`-lane key tuple of each selected row of `batch` into
    /// `lanes` (one tuple for a batch of [one key](Self::one_key)), a bytes
    /// value coded by `code(key column, bytes)`.
    fn fill(
        &mut self,
        (types, w): (&[DataType], usize),
        batch: &VectorizedRowBatch,
        mut code: impl FnMut(usize, &[u8]) -> u64,
    ) -> Result<()> {
        let nk = types.len();
        let n = if self.one_key(batch) { 1 } else { batch.size };
        let lanes = &mut self.lanes;
        lanes.clear();
        lanes.resize(n * w, 0);
        let columns = self.columns.iter().zip(types).zip(&mut self.entry_codes);
        for (k, ((&c, dt), memo)) in columns.enumerate() {
            let col = &batch.columns[c];
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
                        lanes[j * w + k] = memo.code(dictionary, e, |b| code(k, b))
                    }),
                    None => rows.each(|j, i| lanes[j * w + k] = code(k, v.value(i))),
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

    /// The id in `table` of each selected row's key, in selection order, or
    /// [`MISS`] where the key was never resolved or has a NULL part (a join
    /// key with a NULL in it matches nothing). Looks only: the table is
    /// never written.
    pub(crate) fn find(&mut self, table: &KeyTable, batch: &VectorizedRowBatch) -> Result<&[u32]> {
        self.gids.clear();
        if batch.size == 0 {
            return Ok(&self.gids);
        }
        let interners = &table.interners;
        self.fill((&table.types, table.width), batch, |k, b| {
            interners[k].find(b)
        })?;
        let (w, nk, index, store) = (table.width, table.types.len(), &table.index, &table.store);
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
}

impl KeyWrapper {
    /// `keys`: batch column and logical type of each key, at least one.
    pub(crate) fn new(keys: Vec<(usize, DataType)>) -> KeyWrapper {
        let (columns, types): (Vec<usize>, Vec<DataType>) = keys.into_iter().unzip();
        KeyWrapper {
            table: KeyTable {
                width: types.len() + types.len().div_ceil(64),
                interners: types.iter().map(|_| Interner::new()).collect(),
                types,
                index: HashIndex::new(),
                store: Vec::new(),
            },
            probe: KeyProbe::new(columns),
        }
    }

    /// The keys resolved so far.
    pub(crate) fn table(&self) -> &KeyTable {
        &self.table
    }

    /// The keys resolved so far, to look up from now on.
    pub(crate) fn into_table(self) -> KeyTable {
        self.table
    }

    /// The id of each selected row's key (`batch` has at least one row), in
    /// selection order, and the number of keys so far; ids are dense and
    /// count up in first-seen order.
    pub(crate) fn resolve(&mut self, batch: &VectorizedRowBatch) -> Result<(&[u32], usize)> {
        let KeyTable {
            types,
            width,
            interners,
            index,
            store,
        } = &mut self.table;
        let probe = &mut self.probe;
        let w = *width;
        probe.fill((types, w), batch, |k, b| interners[k].intern(b))?;
        probe.gids.clear();
        probe.gids.extend(probe.lanes.chunks_exact(w).map(|tuple| {
            let stored = |g: usize| store[g * w..][..w] == *tuple;
            let (g, new) = index.find_or_insert(hash_words(tuple.iter().copied()), stored);
            if new {
                store.extend_from_slice(tuple);
            }
            g as u32
        }));
        probe.gids.resize(batch.size, probe.gids[0]);
        Ok((&probe.gids, index.len()))
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
            let mut probe = KeyProbe::new(columns.clone());
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
            let table = wrapper.into_table();
            assert_eq!(table.num_groups(), stored.len(), "{columns:?}");
            let sizes = |t: &KeyTable| {
                let interned = |i: &Interner| (i.index.len(), i.arena.len());
                (
                    t.num_groups(),
                    t.store.len(),
                    t.interners.iter().map(interned).collect::<Vec<_>>(),
                )
            };
            let before = sizes(&table);
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
                assert_eq!(
                    probe.find(&table, &b).unwrap(),
                    expect,
                    "{what} over {columns:?}"
                );
                assert_eq!(
                    sizes(&table),
                    before,
                    "{what} over {columns:?} stored something"
                );
            }
            let empty = VectorizedRowBatch::new(&types, 4).unwrap();
            assert!(probe.find(&table, &empty).unwrap().is_empty());
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
        let (mut interning, mut looking) = (EntryCodes::default(), EntryCodes::default());
        // Looking only: a long entry nobody stored is ABSENT, and stays
        // codable — the miss is not remembered as the entry's code.
        assert_eq!(looking.code(&first, 1, |b| interner.find(b)), ABSENT);
        for (d, order) in [
            (&first, [0, 1, 2, 3]),
            (&second, [3, 2, 1, 0]),
            (&first, [0, 1, 2, 3]),
        ] {
            for (e, o) in order.into_iter().enumerate() {
                let by_bytes = interner.intern(words[o]);
                assert_eq!(interning.code(d, e, |b| interner.intern(b)), by_bytes);
                assert_eq!(looking.code(d, e, |b| interner.find(b)), by_bytes);
            }
        }
        assert_eq!(
            interner.index.len(),
            2,
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
        let codes: Vec<u64> = values.iter().map(|v| interner.intern(v)).collect();
        for (a, ca) in values.iter().zip(&codes) {
            for (b, cb) in values.iter().zip(&codes) {
                assert_eq!(a == b, ca == cb, "{a:?} vs {b:?}");
            }
            assert_eq!(interner.intern(a), *ca, "codes are stable");
            assert_eq!(interner.find(a), *ca, "looking finds the same code");
            let mut back = BytesColumnVector::with_capacity(1);
            interner.write(*ca, &mut back, 0);
            assert_eq!(back.value(0), &a[..]);
        }
        // Only the values of eight bytes and more were stored.
        assert_eq!(interner.index.len(), 5);
    }
}
