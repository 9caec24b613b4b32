//! Dictionary building for string columns (paper Section 4.3).
//!
//! The ORC writer collects string values, then checks whether
//! `distinct / total <= threshold` (default 0.8). If so, the column is
//! stored dictionary-encoded (byte stream of entries + entry lengths +
//! value indexes); otherwise it falls back to direct encoding (byte stream
//! of values + value lengths).
//!
//! Entries live back to back in one byte arena and are found through a
//! [`HashIndex`], so adding a value that is already in the dictionary
//! allocates nothing and copies nothing, and a new one is copied once, into
//! the arena. [`DictionaryBuilder::clear`] keeps every buffer's capacity for
//! the next stripe.

use hive_common::hash_index::{hash_words, word, HashIndex};
use std::hash::{BuildHasher, RandomState};

/// Accumulates values and decides between DICTIONARY and DIRECT encoding.
#[derive(Debug)]
pub struct DictionaryBuilder {
    /// The hash's first word, random per builder: values come from outside
    /// the program, and an unkeyed hash would let crafted values collide
    /// into one probe chain. Ids never depend on it.
    seed: u64,
    /// Entry bytes in id order, back to back.
    arena: Vec<u8>,
    /// Entry `id` is `arena[offsets[id]..offsets[id + 1]]`.
    offsets: Vec<usize>,
    index: HashIndex,
    /// Per-value dictionary ids, in row order.
    row_ids: Vec<u32>,
    /// Total bytes across all added values (for size estimates).
    total_value_bytes: usize,
}

impl Default for DictionaryBuilder {
    fn default() -> Self {
        DictionaryBuilder {
            seed: RandomState::new().hash_one(0u64),
            arena: Vec::new(),
            offsets: vec![0],
            index: HashIndex::new(),
            row_ids: Vec::new(),
            total_value_bytes: 0,
        }
    }
}

/// The hash `bytes` are indexed under: the seed, the length, then the bytes
/// as little-endian words.
#[inline]
fn hash(seed: u64, bytes: &[u8]) -> u32 {
    let chunks = bytes.chunks_exact(8);
    let tail = chunks.remainder();
    let tail = (!tail.is_empty()).then(|| word(tail));
    let words = chunks.map(|w| u64::from_le_bytes(w.try_into().expect("eight bytes")));
    let head = [seed, bytes.len() as u64];
    hash_words(head.into_iter().chain(words).chain(tail))
}

/// The encoding chosen once all values of a stripe are seen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StringEncoding {
    /// Store the dictionary once + integer ids per row.
    Dictionary,
    /// Store every value directly.
    Direct,
}

impl DictionaryBuilder {
    pub fn new() -> DictionaryBuilder {
        DictionaryBuilder::default()
    }

    /// Add one value in row order.
    pub fn add(&mut self, value: &[u8]) {
        self.total_value_bytes += value.len();
        let (arena, offsets) = (&self.arena, &self.offsets);
        let eq = |id: usize| arena[offsets[id]..offsets[id + 1]] == *value;
        let (id, new) = self.index.find_or_insert(hash(self.seed, value), eq);
        if new {
            self.arena.extend_from_slice(value);
            self.offsets.push(self.arena.len());
        }
        self.row_ids.push(id as u32);
    }

    pub fn num_values(&self) -> usize {
        self.row_ids.len()
    }

    pub fn num_distinct(&self) -> usize {
        self.index.len()
    }

    pub fn total_value_bytes(&self) -> usize {
        self.total_value_bytes
    }

    /// The distinct/total ratio the threshold check uses. 0 for no values.
    pub fn distinct_ratio(&self) -> f64 {
        if self.row_ids.is_empty() {
            0.0
        } else {
            self.num_distinct() as f64 / self.num_values() as f64
        }
    }

    /// Decide the encoding per the paper's rule: dictionary iff the
    /// distinct/total ratio is not greater than `threshold`.
    pub fn choose(&self, threshold: f64) -> StringEncoding {
        if self.distinct_ratio() <= threshold {
            StringEncoding::Dictionary
        } else {
            StringEncoding::Direct
        }
    }

    /// The bytes of entry `id`.
    #[inline]
    pub fn entry(&self, id: u32) -> &[u8] {
        let id = id as usize;
        &self.arena[self.offsets[id]..self.offsets[id + 1]]
    }

    /// Dictionary entries in id order.
    pub fn entries(&self) -> impl ExactSizeIterator<Item = &[u8]> {
        (0..self.num_distinct() as u32).map(|id| self.entry(id))
    }

    /// Every entry's bytes, back to back in id order.
    pub fn entry_bytes(&self) -> &[u8] {
        &self.arena
    }

    /// Per-row dictionary ids.
    pub fn row_ids(&self) -> &[u32] {
        &self.row_ids
    }

    /// Reset for the next stripe, keeping allocated capacity.
    pub fn clear(&mut self) {
        self.arena.clear();
        self.offsets.truncate(1);
        self.index.clear();
        self.row_ids.clear();
        self.total_value_bytes = 0;
    }

    /// Approximate memory footprint (writer memory-manager accounting).
    /// The figure decides where the writer ends a stripe, so it is the
    /// estimate of a dictionary that kept each entry twice (once as a hash
    /// key, once in id order) at 48 bytes of bookkeeping apiece, whatever
    /// the arena actually holds: a change here moves every stripe boundary.
    pub fn memory_size(&self) -> usize {
        self.total_value_bytes * 2 + self.row_ids.len() * 4 + self.num_distinct() * 48
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeated_values_share_ids() {
        let mut d = DictionaryBuilder::new();
        for v in ["ca", "ny", "ca", "tx", "ny", "ca"] {
            d.add(v.as_bytes());
        }
        assert_eq!(d.num_values(), 6);
        assert_eq!(d.num_distinct(), 3);
        assert_eq!(d.row_ids(), &[0, 1, 0, 2, 1, 0]);
        assert_eq!(d.entry(2), b"tx");
    }

    #[test]
    fn threshold_rule_matches_paper() {
        let mut low_card = DictionaryBuilder::new();
        for i in 0..100 {
            low_card.add(format!("v{}", i % 10).as_bytes());
        }
        assert_eq!(low_card.choose(0.8), StringEncoding::Dictionary);

        let mut high_card = DictionaryBuilder::new();
        for i in 0..100 {
            high_card.add(format!("unique-{i}").as_bytes());
        }
        // ratio = 1.0 > 0.8 → direct (the TPC-H comment-column case).
        assert_eq!(high_card.choose(0.8), StringEncoding::Direct);
    }

    #[test]
    fn boundary_ratio_is_inclusive() {
        // "not greater than the threshold" → exactly at threshold keeps
        // dictionary encoding.
        let mut d = DictionaryBuilder::new();
        for i in 0..10 {
            d.add(format!("x{}", i % 8).as_bytes());
        }
        assert_eq!(d.distinct_ratio(), 0.8);
        assert_eq!(d.choose(0.8), StringEncoding::Dictionary);
    }

    #[test]
    fn clear_resets_state() {
        let mut d = DictionaryBuilder::new();
        d.add(b"a");
        d.clear();
        assert_eq!(d.num_values(), 0);
        assert_eq!(d.num_distinct(), 0);
        assert_eq!(d.distinct_ratio(), 0.0);
    }

    /// The builder against a model — entries in first-seen order, looked up
    /// by a `HashMap` — over random values from pools small and large, with
    /// empty strings, shared prefixes and long values, across `clear()`.
    #[test]
    fn matches_a_model_across_clears() {
        use rand::{Rng, SeedableRng};
        use std::collections::HashMap;
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xD1C7);
        let mut d = DictionaryBuilder::new();
        for round in 0..12 {
            let mut entries: Vec<Vec<u8>> = Vec::new();
            let mut ids: HashMap<Vec<u8>, u32> = HashMap::new();
            let mut row_ids: Vec<u32> = Vec::new();
            let mut total = 0;
            let pool = [1, 3, 40, 2_000, 100_000][round % 5];
            for _ in 0..rng.gen_range(0..3_000) {
                let k: u64 = rng.gen_range(0..pool);
                let value = match k % 4 {
                    0 if k < 8 => Vec::new(),
                    1 => format!("shared-prefix-{k}").into_bytes(),
                    2 => vec![b'x'; (k % 70) as usize],
                    _ => k.to_le_bytes()[..(k % 9) as usize].to_vec(),
                };
                d.add(&value);
                total += value.len();
                let next = entries.len() as u32;
                let id = *ids.entry(value.clone()).or_insert_with(|| {
                    entries.push(value);
                    next
                });
                row_ids.push(id);

                assert_eq!(d.row_ids(), &row_ids[..]);
                assert_eq!(d.num_distinct(), entries.len());
                assert_eq!(d.entry(id), &entries[id as usize][..]);
                assert_eq!(
                    d.memory_size(),
                    total * 2 + row_ids.len() * 4 + entries.len() * 48
                );
                let ratio = entries.len() as f64 / row_ids.len() as f64;
                for threshold in [0.0, 0.5, 0.8, 1.0] {
                    let expected = if ratio <= threshold {
                        StringEncoding::Dictionary
                    } else {
                        StringEncoding::Direct
                    };
                    assert_eq!(d.choose(threshold), expected);
                }
            }
            assert!(d.entries().eq(entries.iter().map(|e| &e[..])));
            assert_eq!(d.entry_bytes(), &entries.concat()[..]);
            assert_eq!(d.total_value_bytes(), total);
            d.clear();
            assert_eq!(
                (d.num_values(), d.num_distinct(), d.memory_size()),
                (0, 0, 0)
            );
        }
    }
}
