//! An open-addressing index from a hash to a dense id, and the cheap hash
//! its users key it with. The vector engine's key wrapper resolves GROUP BY
//! and join keys through it, and the ORC writer's string dictionary its
//! entries: keys live with the caller, once, and the index holds only
//! `(hash, id)` slots.

/// A cheap multiplicative hash over 64-bit words (the FxHash step). The
/// finishing fold-and-multiply makes every input bit reach the bits that
/// index a table: doubles differ in their high bits only, small ints in
/// their low ones.
#[inline]
pub fn hash_words(words: impl Iterator<Item = u64>) -> u32 {
    const K: u64 = 0x517c_c1b7_2722_0a95;
    let h = words.fold(0u64, |h, w| (h.rotate_left(5) ^ w).wrapping_mul(K));
    ((h ^ (h >> 32)).wrapping_mul(K) >> 32) as u32
}

/// Up to eight bytes as a little-endian word, zero-padded.
#[inline]
pub fn word(b: &[u8]) -> u64 {
    b.iter().rev().fold(0, |w, &x| w << 8 | x as u64)
}

/// Open-addressing index from a hash to a dense id (0, 1, 2, … in insertion
/// order). Keys live with the caller, once: a slot holds `(hash, id)` and
/// `eq(id)` confirms a candidate against the caller's stored key.
#[derive(Debug)]
pub struct HashIndex {
    slots: Vec<(u32, u32)>,
    len: usize,
}

const EMPTY: u32 = u32::MAX;

impl Default for HashIndex {
    fn default() -> Self {
        HashIndex::new()
    }
}

impl HashIndex {
    pub fn new() -> HashIndex {
        HashIndex {
            slots: vec![(0, EMPTY); 64],
            len: 0,
        }
    }

    /// The number of ids handed out.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Forget every key, keeping the table's capacity.
    pub fn clear(&mut self) {
        self.slots.fill((0, EMPTY));
        self.len = 0;
    }

    /// Linear probing for the key with this `hash` that `eq` confirms: its
    /// id, or else the empty slot that ends its probe chain.
    #[inline]
    pub fn probe(
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
    pub fn find_or_insert(&mut self, hash: u32, eq: impl FnMut(usize) -> bool) -> (usize, bool) {
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
