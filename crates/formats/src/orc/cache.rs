//! Process-wide ORC metadata cache (the metadata tier of the two-tier
//! cache layer; LLAP-style).
//!
//! ORC deliberately concentrates its hot bytes — postscript, file footer,
//! stripe footers, and the row-index statistics — so repeated scans can
//! amortize metadata decode. This module caches the *decoded* forms behind
//! `Arc`s, keyed by `(dfs instance, path, file generation)`: the generation
//! is bumped by the DFS on every publish or tamper, so an overwritten file
//! can never serve stale metadata — the stale key is simply unreachable.
//!
//! All maps are **single-flight**: concurrent readers missing on the same
//! key block while exactly one performs the read + decode, then share the
//! result. The claimed pending marker is held by an RAII guard that
//! removes it on drop unless the fill published — a failed *or panicking*
//! fill wakes the waiters (the error goes to the filler; a waiter becomes
//! the next filler), so a fault-injected read can never leave a partial
//! entry behind or strand waiters on the condvar.

use crate::orc::stats::ColumnStatistics;
use crate::orc::{FileFooter, PostScript, StripeFooter};
use hive_common::Result;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Files the global cache keeps decoded metadata for (LRU beyond this).
const MAX_CACHED_FILES: usize = 256;

enum Slot<V> {
    Pending,
    Ready(Arc<V>),
}

/// A single-flight memo map: `get_or_fill` returns the cached value or
/// runs `fill` exactly once per key across threads.
pub struct SfMap<K, V> {
    inner: Mutex<HashMap<K, Slot<V>>>,
    cv: Condvar,
}

impl<K: Eq + Hash + Clone, V> Default for SfMap<K, V> {
    fn default() -> Self {
        SfMap {
            inner: Mutex::new(HashMap::new()),
            cv: Condvar::new(),
        }
    }
}

/// RAII ownership of a claimed [`SfMap`] pending marker: removes it and
/// wakes waiters on drop unless disarmed by a successful publish, so a
/// fill that errors *or panics* can never strand waiters.
struct PendingGuard<'a, K: Eq + Hash + Clone, V> {
    map: &'a SfMap<K, V>,
    key: K,
    armed: bool,
}

impl<K: Eq + Hash + Clone, V> Drop for PendingGuard<'_, K, V> {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        let mut m = self.map.inner.lock().unwrap_or_else(|e| e.into_inner());
        if matches!(m.get(&self.key), Some(Slot::Pending)) {
            m.remove(&self.key);
        }
        drop(m);
        self.map.cv.notify_all();
    }
}

impl<K: Eq + Hash + Clone, V> SfMap<K, V> {
    /// Look up `key`, filling it with `fill` on a miss. Returns the value
    /// and whether it was served from cache (`true` = hit). Blocks while
    /// another thread fills the same key; if that fill fails (or panics),
    /// a waiter becomes the next filler.
    pub fn get_or_fill(&self, key: K, fill: impl FnOnce() -> Result<V>) -> Result<(Arc<V>, bool)> {
        self.get_or_fill_hooked(key, fill, |_| {}, |_, _| {})
    }

    /// [`SfMap::get_or_fill`] with two hooks that run under the map lock:
    /// `on_hit` sees a cached value about to be served, `on_publish` sees
    /// the map right after a freshly filled value went in.
    fn get_or_fill_hooked(
        &self,
        key: K,
        fill: impl FnOnce() -> Result<V>,
        on_hit: impl FnOnce(&V),
        on_publish: impl FnOnce(&mut HashMap<K, Slot<V>>, &V),
    ) -> Result<(Arc<V>, bool)> {
        {
            let mut m = self.inner.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                match m.get(&key) {
                    Some(Slot::Ready(v)) => {
                        on_hit(v);
                        return Ok((Arc::clone(v), true));
                    }
                    Some(Slot::Pending) => {
                        m = self.cv.wait(m).unwrap_or_else(|e| e.into_inner());
                    }
                    None => {
                        m.insert(key.clone(), Slot::Pending);
                        break;
                    }
                }
            }
        }
        let mut guard = PendingGuard {
            map: self,
            key: key.clone(),
            armed: true,
        };
        let v = Arc::new(fill()?); // on error/panic the guard cleans up
        let mut m = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        // Publish only while our own claim marker is still in place; were
        // it gone, the value is returned uncached.
        if matches!(m.get(&key), Some(Slot::Pending)) {
            m.insert(key, Slot::Ready(Arc::clone(&v)));
            on_publish(&mut m, &v);
        }
        guard.armed = false;
        drop(m);
        self.cv.notify_all();
        Ok((v, false))
    }

    /// Number of Ready entries (test hook).
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .values()
            .filter(|s| matches!(s, Slot::Ready(_)))
            .count()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Decoded metadata of one ORC file (one generation of one path): the
/// eagerly decoded postscript + file footer, plus lazily filled per-stripe
/// footers and row-index statistics keyed by stripe offset.
pub struct FileMeta {
    pub ps: PostScript,
    pub footer: FileFooter,
    pub stripe_footers: SfMap<u64, StripeFooter>,
    pub indexes: SfMap<u64, Vec<Vec<ColumnStatistics>>>,
    /// LRU stamp, owned by the global file cache.
    stamp: AtomicU64,
}

impl FileMeta {
    pub fn new(ps: PostScript, footer: FileFooter) -> FileMeta {
        FileMeta {
            ps,
            footer,
            stripe_footers: SfMap::default(),
            indexes: SfMap::default(),
            stamp: AtomicU64::new(0),
        }
    }
}

type FileKey = (u64, String, u64); // (dfs instance, path, generation)

fn global() -> &'static SfMap<FileKey, FileMeta> {
    static CACHE: OnceLock<SfMap<FileKey, FileMeta>> = OnceLock::new();
    CACHE.get_or_init(SfMap::default)
}

/// Fetch (or build, single-flight) the decoded metadata for one generation
/// of one file. Returns the meta and whether it was a cache hit. Inserting
/// a new generation prunes older generations of the same path, and the
/// cache holds at most [`MAX_CACHED_FILES`] decoded files (LRU).
pub fn file_meta(
    dfs_id: u64,
    path: &str,
    generation: u64,
    open: impl FnOnce() -> Result<FileMeta>,
) -> Result<(Arc<FileMeta>, bool)> {
    static CLOCK: AtomicU64 = AtomicU64::new(0);
    let touch = |meta: &FileMeta| {
        meta.stamp
            .store(CLOCK.fetch_add(1, Ordering::Relaxed), Ordering::Relaxed)
    };
    global().get_or_fill_hooked(
        (dfs_id, path.to_string(), generation),
        open,
        touch,
        |m, meta| {
            touch(meta);
            // Older generations of this path are unreachable now; drop
            // their *Ready* entries only. A Pending marker of an older
            // generation belongs to a fill still in flight — removing it
            // would make its waiters (who wake to find no marker) redo the
            // decode.
            m.retain(|(d, p, g), slot| {
                !(*d == dfs_id && p == path && *g < generation && matches!(slot, Slot::Ready(_)))
            });
            while m.len() > MAX_CACHED_FILES {
                let victim = m
                    .iter()
                    .filter_map(|(k, s)| match s {
                        Slot::Ready(v) => Some((v.stamp.load(Ordering::Relaxed), k.clone())),
                        Slot::Pending => None,
                    })
                    .min();
                let Some((_, k)) = victim else { break };
                m.remove(&k);
            }
        },
    )
}

/// Ready file entries currently cached (test hook).
pub fn cached_files() -> usize {
    global().len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hive_codec::block::Compression;
    use hive_common::HiveError;

    fn meta() -> FileMeta {
        FileMeta::new(
            PostScript {
                footer_len: 0,
                compression: Compression::None,
                compress_unit: 0,
            },
            FileFooter {
                nrows: 0,
                type_string: "struct<a:bigint>".into(),
                row_index_stride: 10_000,
                stripes: Vec::new(),
                stripe_stats: Vec::new(),
                file_stats: Vec::new(),
                ordered: Vec::new(),
            },
        )
    }

    #[test]
    fn sfmap_fills_once_then_hits() {
        let m: SfMap<u64, String> = SfMap::default();
        let (v, hit) = m.get_or_fill(7, || Ok("x".to_string())).unwrap();
        assert_eq!((v.as_str(), hit), ("x", false));
        let (v, hit) = m.get_or_fill(7, || panic!("must not refill")).unwrap();
        assert_eq!((v.as_str(), hit), ("x", true));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn sfmap_failed_fill_is_retryable() {
        let m: SfMap<u64, String> = SfMap::default();
        let err = m
            .get_or_fill(1, || Err::<String, _>(HiveError::Transient("boom".into())))
            .unwrap_err();
        assert!(matches!(err, HiveError::Transient(_)));
        assert!(m.is_empty());
        let (_, hit) = m.get_or_fill(1, || Ok("ok".to_string())).unwrap();
        assert!(!hit);
    }

    #[test]
    fn sfmap_panicking_fill_unblocks_and_retries() {
        let m: Arc<SfMap<u64, String>> = Arc::new(SfMap::default());
        let m2 = Arc::clone(&m);
        let t = std::thread::spawn(move || {
            let _ = m2.get_or_fill(5, || -> Result<String> { panic!("decode panic") });
        });
        assert!(t.join().is_err());
        // The pending marker died with the panicking filler; the next
        // reader fills instead of blocking forever.
        let (v, hit) = m.get_or_fill(5, || Ok("ok".to_string())).unwrap();
        assert!(!hit);
        assert_eq!(v.as_str(), "ok");
    }

    #[test]
    fn in_flight_old_generation_fill_survives_new_generation_insert() {
        let id = u64::MAX - 4;
        let path = "/w/t/race";
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let (started_tx, started_rx) = std::sync::mpsc::channel::<()>();
        let fills = Arc::new(AtomicU64::new(0));
        let fills2 = Arc::clone(&fills);
        let filler = std::thread::spawn(move || {
            file_meta(id, path, 1, || {
                started_tx.send(()).unwrap();
                release_rx.recv().unwrap();
                fills2.fetch_add(1, Ordering::Relaxed);
                Ok(meta())
            })
            .unwrap()
        });
        started_rx.recv().unwrap();
        // While generation 1's fill is in flight, generation 2 lands and
        // prunes older entries — Ready ones only, never the live marker.
        let (_, hit) = file_meta(id, path, 2, || Ok(meta())).unwrap();
        assert!(!hit);
        // A waiter on generation 1 must share the in-flight fill rather
        // than finding its marker gone and redoing the decode.
        let waiter = std::thread::spawn(move || {
            file_meta(id, path, 1, || {
                panic!("waiter must not refill; the in-flight fill owns the marker")
            })
            .unwrap()
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        release_tx.send(()).unwrap();
        let (_, filler_hit) = filler.join().unwrap();
        assert!(!filler_hit);
        let (_, waiter_hit) = waiter.join().unwrap();
        assert!(waiter_hit);
        assert_eq!(fills.load(Ordering::Relaxed), 1, "exactly one decode");
        // Generation 1 stays cached for readers still holding its file
        // snapshot; generation 2 serves new opens.
        let m = global().inner.lock().unwrap();
        assert!(m.contains_key(&(id, path.to_string(), 1)));
        assert!(m.contains_key(&(id, path.to_string(), 2)));
    }

    #[test]
    fn file_meta_generation_replaces_older() {
        // A private dfs_id keeps this test independent of others sharing
        // the global cache.
        let id = u64::MAX - 3;
        let (_, hit) = file_meta(id, "/w/t/p", 1, || Ok(meta())).unwrap();
        assert!(!hit);
        let (_, hit) = file_meta(id, "/w/t/p", 1, || panic!("cached")).unwrap();
        assert!(hit);
        // New generation: a miss, and the old generation gets pruned.
        let (_, hit) = file_meta(id, "/w/t/p", 2, || Ok(meta())).unwrap();
        assert!(!hit);
        let m = global().inner.lock().unwrap();
        assert!(!m.contains_key(&(id, "/w/t/p".to_string(), 1)));
        assert!(m.contains_key(&(id, "/w/t/p".to_string(), 2)));
    }
}
