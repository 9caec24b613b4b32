//! A sharded, LRU-evicting byte cache over DFS read ranges — the block
//! cache tier of the two-tier cache layer (LLAP-style data caching scaled
//! to the simulator).
//!
//! Entries are keyed by `(path, generation, offset, len)`. The generation
//! is bumped every time a path is published or tampered with, so a cached
//! range of an overwritten file is structurally unreachable: a stale read
//! is impossible, not merely unlikely. Invalidation drops the path's ready
//! entries eagerly and dooms its fills already in flight for an older
//! generation, which are dropped at completion instead of parking
//! unreachable bytes in an LRU slot.
//!
//! Fills are **single-flight**: when several readers miss on the same key
//! concurrently, exactly one performs the DFS read (and pays its byte and
//! fault accounting) while the rest wait on the shard's condvar and then
//! take the hit path. This keeps aggregate I/O counters byte-identical
//! across thread interleavings, which the metrics-determinism gates rely
//! on. The claimed slot is held by an RAII [`FillGuard`] that aborts the
//! fill on drop unless completed — a failed *or panicking* fill removes
//! the pending marker and wakes the waiters, so the cache is never
//! poisoned with a partial entry and waiters can never be stranded.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Number of independently locked shards.
const SHARDS: usize = 8;

/// Cache key: `(path, generation, offset, requested end)`.
type Key = (String, u64, u64, u64);

enum Slot {
    /// A fill is in flight on some thread; wait on the shard condvar.
    /// `doomed`: the path was invalidated above the fill's generation while
    /// it was in flight, so its bytes are dropped at completion.
    Pending { doomed: bool },
    /// Ready bytes plus the LRU stamp of the last touch.
    Ready(Arc<Vec<u8>>, u64),
}

#[derive(Default)]
struct Shard {
    map: HashMap<Key, Slot>,
    /// Resident bytes of Ready entries.
    bytes: u64,
}

struct ShardLock {
    inner: Mutex<Shard>,
    cv: Condvar,
}

/// Outcome of a cache lookup.
pub enum Lookup<'a> {
    /// Served from cache (a shared handle — no copy).
    Hit(Arc<Vec<u8>>),
    /// Caller must perform the read and then call [`FillGuard::complete`];
    /// dropping the guard (error or panic) aborts the fill and wakes
    /// waiters so one of them can retry.
    Fill(FillGuard<'a>),
    /// Cache disabled (or entry larger than a shard) — read uncached.
    Bypass,
}

/// RAII ownership of a claimed single-flight fill slot.
pub struct FillGuard<'a> {
    cache: &'a BlockCache,
    key: Key,
    done: bool,
}

impl FillGuard<'_> {
    /// Publish the bytes for the claimed slot. Returns the number of LRU
    /// evictions the insertion forced.
    pub fn complete(mut self, bytes: Arc<Vec<u8>>) -> u64 {
        self.done = true;
        self.cache.complete_fill(&self.key, bytes)
    }
}

impl Drop for FillGuard<'_> {
    /// Abort-on-drop: any exit from the fill path that did not publish —
    /// an error return or a panic mid-read — removes the pending marker
    /// and wakes waiters instead of stranding them on the condvar.
    fn drop(&mut self) {
        if !self.done {
            self.cache.abort_fill(&self.key);
        }
    }
}

/// The sharded LRU block cache. One instance per [`crate::Dfs`].
pub struct BlockCache {
    shards: Vec<ShardLock>,
    /// Total capacity in bytes; 0 disables the cache.
    capacity: AtomicU64,
    /// Monotonic LRU clock.
    clock: AtomicU64,
}

impl BlockCache {
    pub fn new() -> BlockCache {
        BlockCache {
            shards: (0..SHARDS)
                .map(|_| ShardLock {
                    inner: Mutex::new(Shard::default()),
                    cv: Condvar::new(),
                })
                .collect(),
            capacity: AtomicU64::new(0),
            clock: AtomicU64::new(0),
        }
    }

    pub fn capacity(&self) -> u64 {
        self.capacity.load(Ordering::Relaxed)
    }

    pub fn enabled(&self) -> bool {
        self.capacity() > 0
    }

    /// Set the total capacity; shrinking evicts down to the new bound and
    /// `0` clears the cache entirely. Returns entries evicted by the
    /// resize.
    pub fn set_capacity(&self, bytes: u64) -> u64 {
        let old = self.capacity.swap(bytes, Ordering::Relaxed);
        if bytes >= old {
            return 0;
        }
        let per_shard = bytes / SHARDS as u64;
        let mut evicted = 0;
        for shard in &self.shards {
            let mut s = shard.inner.lock().unwrap_or_else(|e| e.into_inner());
            evicted += evict_to(&mut s, per_shard);
        }
        evicted
    }

    fn shard_of(&self, key: &Key) -> &ShardLock {
        let mut h: u64 = 0xcbf29ce484222325;
        for b in key.0.as_bytes() {
            h ^= *b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        h ^= key.2.wrapping_mul(0x9e3779b97f4a7c15);
        // Fold and multiply, then index by the high half: the offset's
        // product has its low bits zero whenever the offset's are, so
        // without this an aligned sweep of one file fills one shard.
        h = (h ^ (h >> 32)).wrapping_mul(0x9e3779b97f4a7c15);
        &self.shards[((h >> 32) % SHARDS as u64) as usize]
    }

    /// Look up `key`; on miss, claim the fill slot (single-flight). Blocks
    /// while another thread's fill for the same key is in flight.
    pub fn lookup_or_begin_fill(&self, key: &Key) -> Lookup<'_> {
        if !self.enabled() {
            return Lookup::Bypass;
        }
        let shard = self.shard_of(key);
        let mut s = shard.inner.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            match s.map.get_mut(key) {
                Some(Slot::Ready(bytes, stamp)) => {
                    *stamp = self.clock.fetch_add(1, Ordering::Relaxed);
                    return Lookup::Hit(Arc::clone(bytes));
                }
                Some(Slot::Pending { .. }) => {
                    s = shard.cv.wait(s).unwrap_or_else(|e| e.into_inner());
                }
                None => {
                    s.map.insert(key.clone(), Slot::Pending { doomed: false });
                    return Lookup::Fill(FillGuard {
                        cache: self,
                        key: key.clone(),
                        done: false,
                    });
                }
            }
        }
    }

    /// Publish the bytes for a claimed fill slot. Returns the number of
    /// LRU evictions the insertion forced. A fill doomed by an invalidation
    /// while it was in flight is dropped, not inserted.
    fn complete_fill(&self, key: &Key, bytes: Arc<Vec<u8>>) -> u64 {
        let per_shard = self.capacity() / SHARDS as u64;
        let shard = self.shard_of(key);
        let mut s = shard.inner.lock().unwrap_or_else(|e| e.into_inner());
        let doomed = matches!(s.map.get(key), Some(Slot::Pending { doomed: true }));
        let len = bytes.len() as u64;
        if doomed || len > per_shard {
            // Stale generation, or too large to ever be resident: drop the
            // pending marker so the range stays uncached instead of
            // wasting capacity / thrashing the shard.
            if matches!(s.map.get(key), Some(Slot::Pending { .. })) {
                s.map.remove(key);
            }
            shard.cv.notify_all();
            return 0;
        }
        let evicted = evict_to(&mut s, per_shard.saturating_sub(len));
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed);
        s.bytes += len;
        s.map.insert(key.clone(), Slot::Ready(bytes, stamp));
        shard.cv.notify_all();
        evicted
    }

    /// Drop the pending marker after a failed fill, waking waiters so one
    /// of them can retry. The cache never holds a partial entry.
    fn abort_fill(&self, key: &Key) {
        let shard = self.shard_of(key);
        let mut s = shard.inner.lock().unwrap_or_else(|e| e.into_inner());
        if matches!(s.map.get(key), Some(Slot::Pending { .. })) {
            s.map.remove(key);
        }
        shard.cv.notify_all();
    }

    /// Invalidate `path`: drop its resident Ready entries eagerly to free
    /// their bytes, and doom its fills in flight for a generation below
    /// `floor`, which are then dropped at completion. The cache remembers
    /// nothing about the path afterwards: a fill that *begins* later on an
    /// old generation (a reader that opened the file before the change)
    /// would sit under a key no new reader asks for until the LRU aged it
    /// out, so the DFS reader completes a fill only while the namespace
    /// still holds its copy. It checks after claiming the slot, so an
    /// invalidation either dooms the slot or fails that check.
    pub fn invalidate_path(&self, path: &str, floor: u64) {
        for shard in &self.shards {
            let mut s = shard.inner.lock().unwrap_or_else(|e| e.into_inner());
            let mut freed = 0;
            s.map.retain(|k, slot| {
                if k.0 != path {
                    return true;
                }
                match slot {
                    Slot::Ready(bytes, _) => {
                        freed += bytes.len() as u64;
                        false
                    }
                    Slot::Pending { doomed } => {
                        *doomed |= k.1 < floor;
                        true
                    }
                }
            });
            s.bytes -= freed;
        }
    }

    /// Resident bytes across all shards.
    pub fn resident_bytes(&self) -> u64 {
        self.shards
            .iter()
            .map(|shard| shard.inner.lock().unwrap_or_else(|e| e.into_inner()).bytes)
            .sum()
    }
}

impl Default for BlockCache {
    fn default() -> Self {
        BlockCache::new()
    }
}

/// Evict least-recently-used Ready entries until the shard holds at most
/// `budget` bytes. Pending markers are never evicted.
fn evict_to(s: &mut Shard, budget: u64) -> u64 {
    let mut evicted = 0;
    while s.bytes > budget {
        let victim = s
            .map
            .iter()
            .filter_map(|(k, slot)| match slot {
                Slot::Ready(_, stamp) => Some((*stamp, k.clone())),
                Slot::Pending { .. } => None,
            })
            .min();
        let Some((_, key)) = victim else { break };
        if let Some(Slot::Ready(bytes, _)) = s.map.remove(&key) {
            s.bytes -= bytes.len() as u64;
            evicted += 1;
        }
    }
    evicted
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(path: &str, generation: u64, offset: u64, end: u64) -> Key {
        (path.to_string(), generation, offset, end)
    }

    fn begin_fill<'a>(c: &'a BlockCache, k: &Key) -> FillGuard<'a> {
        match c.lookup_or_begin_fill(k) {
            Lookup::Fill(g) => g,
            Lookup::Hit(_) => panic!("expected fill, got hit"),
            Lookup::Bypass => panic!("expected fill, got bypass"),
        }
    }

    #[test]
    fn aligned_offsets_of_one_file_spread_over_every_shard() {
        let c = BlockCache::new();
        let mut per_shard = [0usize; SHARDS];
        for i in 0..1024u64 {
            let k = key(
                "/warehouse/lineitem/part-00000",
                3,
                i * 4096,
                (i + 1) * 4096,
            );
            let shard = c.shard_of(&k) as *const ShardLock;
            let at = c.shards.iter().position(|s| std::ptr::eq(s, shard));
            per_shard[at.expect("shard_of answers one of the cache's shards")] += 1;
        }
        let mean = 1024 / SHARDS;
        assert!(
            per_shard.iter().all(|&n| n > 0 && n <= 2 * mean),
            "4 KiB-aligned sweep landed as {per_shard:?}"
        );
    }

    #[test]
    fn disabled_cache_bypasses() {
        let c = BlockCache::new();
        assert!(matches!(
            c.lookup_or_begin_fill(&key("/a", 0, 0, 10)),
            Lookup::Bypass
        ));
    }

    #[test]
    fn fill_then_hit() {
        let c = BlockCache::new();
        c.set_capacity(1 << 20);
        let k = key("/a", 1, 0, 10);
        begin_fill(&c, &k).complete(Arc::new(vec![7; 10]));
        match c.lookup_or_begin_fill(&k) {
            Lookup::Hit(b) => assert_eq!(*b, vec![7; 10]),
            _ => panic!("expected hit"),
        }
        assert_eq!(c.resident_bytes(), 10);
    }

    #[test]
    fn generation_change_misses() {
        let c = BlockCache::new();
        c.set_capacity(1 << 20);
        let k1 = key("/a", 1, 0, 10);
        begin_fill(&c, &k1).complete(Arc::new(vec![1; 10]));
        // Same path and range, next generation: structurally a miss. The
        // guard dropped without completing leaves no entry behind.
        let k2 = key("/a", 2, 0, 10);
        drop(begin_fill(&c, &k2));
        assert_eq!(c.resident_bytes(), 10);
    }

    #[test]
    fn dropped_guard_leaves_no_entry_and_unblocks_waiters() {
        let c = Arc::new(BlockCache::new());
        c.set_capacity(1 << 20);
        let k = key("/a", 1, 0, 10);
        let guard = begin_fill(&c, &k);
        let c2 = Arc::clone(&c);
        let k2 = k.clone();
        let waiter =
            std::thread::spawn(move || matches!(c2.lookup_or_begin_fill(&k2), Lookup::Fill(_)));
        std::thread::sleep(std::time::Duration::from_millis(20));
        drop(guard);
        // The waiter must come back as the next filler, not hang or hit.
        assert!(waiter.join().unwrap());
        assert_eq!(c.resident_bytes(), 0);
    }

    #[test]
    fn panicking_fill_aborts_instead_of_stranding_waiters() {
        let c = Arc::new(BlockCache::new());
        c.set_capacity(1 << 20);
        let k = key("/a", 1, 0, 10);
        let c2 = Arc::clone(&c);
        let k2 = k.clone();
        let filler = std::thread::spawn(move || {
            let _guard = begin_fill(&c2, &k2);
            panic!("decode blew up mid-fill");
        });
        assert!(filler.join().is_err());
        // The marker is gone: the next reader becomes the filler instead
        // of blocking forever on the shard condvar.
        assert!(matches!(c.lookup_or_begin_fill(&k), Lookup::Fill(_)));
    }

    #[test]
    fn single_flight_one_fill_many_hits() {
        let c = Arc::new(BlockCache::new());
        c.set_capacity(1 << 20);
        let fills = Arc::new(AtomicU64::new(0));
        let hits = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let (c, fills, hits) = (Arc::clone(&c), Arc::clone(&fills), Arc::clone(&hits));
            handles.push(std::thread::spawn(move || {
                let k = key("/shared", 3, 0, 100);
                match c.lookup_or_begin_fill(&k) {
                    Lookup::Fill(g) => {
                        fills.fetch_add(1, Ordering::Relaxed);
                        g.complete(Arc::new(vec![9; 100]));
                    }
                    Lookup::Hit(_) => {
                        hits.fetch_add(1, Ordering::Relaxed);
                    }
                    Lookup::Bypass => unreachable!(),
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(fills.load(Ordering::Relaxed), 1, "exactly one fill");
        assert_eq!(hits.load(Ordering::Relaxed), 7);
    }

    #[test]
    fn lru_evicts_oldest_within_capacity() {
        let c = BlockCache::new();
        // 80 bytes per shard; same path+offset hash to one shard.
        c.set_capacity(80 * SHARDS as u64);
        let mut evictions = 0;
        for i in 0..5u64 {
            let k = key("/lru", 1, 0, i + 1); // same shard (same path+offset)
            evictions += begin_fill(&c, &k).complete(Arc::new(vec![0; 30]));
        }
        // 5 × 30B into an 80B shard: at least three entries got evicted.
        assert!(evictions >= 3, "evictions={evictions}");
        assert!(c.resident_bytes() <= 80);
        // The most recent entry survived.
        assert!(matches!(
            c.lookup_or_begin_fill(&key("/lru", 1, 0, 5)),
            Lookup::Hit(_)
        ));
    }

    #[test]
    fn invalidate_path_and_shrink_to_zero() {
        let c = BlockCache::new();
        c.set_capacity(1 << 20);
        for (p, n) in [("/x", 10usize), ("/y", 20)] {
            let k = key(p, 1, 0, n as u64);
            begin_fill(&c, &k).complete(Arc::new(vec![1; n]));
        }
        c.invalidate_path("/x", 2);
        assert_eq!(c.resident_bytes(), 20);
        c.set_capacity(0);
        assert_eq!(c.resident_bytes(), 0);
        assert!(!c.enabled());
    }

    #[test]
    fn late_fill_for_invalidated_generation_is_dropped() {
        let c = BlockCache::new();
        c.set_capacity(1 << 20);
        let k = key("/race", 1, 0, 50);
        let guard = begin_fill(&c, &k);
        // The path is overwritten while the fill is in flight: the old
        // generation is now below the floor.
        c.invalidate_path("/race", 2);
        assert_eq!(guard.complete(Arc::new(vec![4; 50])), 0);
        // The stale payload was dropped, not parked in an LRU slot...
        assert_eq!(c.resident_bytes(), 0);
        // ...and the new generation caches normally.
        let k2 = key("/race", 2, 0, 50);
        begin_fill(&c, &k2).complete(Arc::new(vec![5; 50]));
        assert_eq!(c.resident_bytes(), 50);
        assert!(matches!(c.lookup_or_begin_fill(&k2), Lookup::Hit(_)));
    }
}
