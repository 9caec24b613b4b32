//! Atomic I/O counters for the simulated filesystem.
//!
//! Figure 10(b) of the paper reports "amounts of data read from HDFS"; these
//! counters are where that number comes from in this reproduction.

use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Shared, thread-safe I/O counters.
///
/// Every `add_*` also tees into whatever [`IoScope`]s are entered on the
/// current thread, so a task can attribute exactly its own I/O without
/// racing on before/after snapshots of the global counters.
#[derive(Debug, Default)]
pub struct IoStats {
    bytes_local: AtomicU64,
    bytes_remote: AtomicU64,
    bytes_written: AtomicU64,
    read_ops: AtomicU64,
    seeks: AtomicU64,
    sim_penalty_us: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    cache_hit_bytes: AtomicU64,
    cache_evictions: AtomicU64,
    bytes_verified: AtomicU64,
}

thread_local! {
    /// Scopes entered on this thread, innermost last.
    static ACTIVE_SCOPES: RefCell<Vec<Arc<IoStats>>> = const { RefCell::new(Vec::new()) };
}

fn tee(f: impl Fn(&IoStats)) {
    ACTIVE_SCOPES.with(|scopes| {
        for scope in scopes.borrow().iter() {
            f(scope);
        }
    });
}

impl IoStats {
    fn record_bytes_local(&self, n: u64) {
        self.bytes_local.fetch_add(n, Ordering::Relaxed);
    }

    fn record_bytes_remote(&self, n: u64) {
        self.bytes_remote.fetch_add(n, Ordering::Relaxed);
    }

    fn record_bytes_written(&self, n: u64) {
        self.bytes_written.fetch_add(n, Ordering::Relaxed);
    }

    fn record_read_op(&self, seeks: u64) {
        self.read_ops.fetch_add(1, Ordering::Relaxed);
        self.seeks.fetch_add(seeks, Ordering::Relaxed);
    }

    fn record_sim_penalty_us(&self, n: u64) {
        self.sim_penalty_us.fetch_add(n, Ordering::Relaxed);
    }

    fn record_cache_hit(&self, bytes: u64) {
        self.cache_hits.fetch_add(1, Ordering::Relaxed);
        self.cache_hit_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    fn record_cache_miss(&self) {
        self.cache_misses.fetch_add(1, Ordering::Relaxed);
    }

    fn record_cache_evictions(&self, n: u64) {
        self.cache_evictions.fetch_add(n, Ordering::Relaxed);
    }

    fn record_bytes_verified(&self, n: u64) {
        self.bytes_verified.fetch_add(n, Ordering::Relaxed);
    }

    pub fn add_bytes_local(&self, n: u64) {
        self.record_bytes_local(n);
        tee(|s| s.record_bytes_local(n));
    }

    pub fn add_bytes_remote(&self, n: u64) {
        self.record_bytes_remote(n);
        tee(|s| s.record_bytes_remote(n));
    }

    pub fn add_bytes_written(&self, n: u64) {
        self.record_bytes_written(n);
        tee(|s| s.record_bytes_written(n));
    }

    /// One read op, carrying how many seeks it implied (0 if contiguous).
    pub fn add_read_op(&self, seeks: u64) {
        self.record_read_op(seeks);
        tee(|s| s.record_read_op(seeks));
    }

    /// Extra *simulated* latency (microseconds) injected by the fault plan
    /// for reads served by straggler nodes. Real wall-clock is unaffected;
    /// the cost model prices this into task durations.
    pub fn add_sim_penalty_us(&self, n: u64) {
        self.record_sim_penalty_us(n);
        tee(|s| s.record_sim_penalty_us(n));
    }

    /// One block-cache hit serving `bytes` without touching the wire.
    pub fn add_cache_hit(&self, bytes: u64) {
        self.record_cache_hit(bytes);
        tee(|s| s.record_cache_hit(bytes));
    }

    /// One block-cache miss (the read went to the DFS and filled a slot).
    pub fn add_cache_miss(&self) {
        self.record_cache_miss();
        tee(|s| s.record_cache_miss());
    }

    /// `n` entries evicted to make room for an insertion on this thread.
    pub fn add_cache_evictions(&self, n: u64) {
        self.record_cache_evictions(n);
        tee(|s| s.record_cache_evictions(n));
    }

    /// `n` stored bytes CRC-checked by one uncached read.
    pub fn add_bytes_verified(&self, n: u64) {
        self.record_bytes_verified(n);
        tee(|s| s.record_bytes_verified(n));
    }

    /// A consistent-enough point-in-time copy of all counters.
    pub fn snapshot(&self) -> IoSnapshot {
        IoSnapshot {
            bytes_local: self.bytes_local.load(Ordering::Relaxed),
            bytes_remote: self.bytes_remote.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            read_ops: self.read_ops.load(Ordering::Relaxed),
            seeks: self.seeks.load(Ordering::Relaxed),
            sim_penalty_us: self.sim_penalty_us.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            cache_hit_bytes: self.cache_hit_bytes.load(Ordering::Relaxed),
            cache_evictions: self.cache_evictions.load(Ordering::Relaxed),
            bytes_verified: self.bytes_verified.load(Ordering::Relaxed),
        }
    }

    /// Reset all counters to zero (between benchmark phases).
    pub fn reset(&self) {
        self.bytes_local.store(0, Ordering::Relaxed);
        self.bytes_remote.store(0, Ordering::Relaxed);
        self.bytes_written.store(0, Ordering::Relaxed);
        self.read_ops.store(0, Ordering::Relaxed);
        self.seeks.store(0, Ordering::Relaxed);
        self.sim_penalty_us.store(0, Ordering::Relaxed);
        self.cache_hits.store(0, Ordering::Relaxed);
        self.cache_misses.store(0, Ordering::Relaxed);
        self.cache_hit_bytes.store(0, Ordering::Relaxed);
        self.cache_evictions.store(0, Ordering::Relaxed);
        self.bytes_verified.store(0, Ordering::Relaxed);
    }
}

/// Plain-value snapshot of [`IoStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IoSnapshot {
    pub bytes_local: u64,
    pub bytes_remote: u64,
    pub bytes_written: u64,
    pub read_ops: u64,
    pub seeks: u64,
    /// Simulated straggler latency injected by the fault plan, in µs.
    pub sim_penalty_us: u64,
    /// Block-cache lookups served without a DFS read.
    pub cache_hits: u64,
    /// Block-cache lookups that went to the DFS and filled a slot.
    pub cache_misses: u64,
    /// Bytes served from the block cache (not counted in `bytes_read`).
    pub cache_hit_bytes: u64,
    /// Entries evicted by the sharded LRU to admit insertions.
    pub cache_evictions: u64,
    /// Stored bytes CRC-checked by uncached reads: each read's range
    /// rounded out to checksum chunks. Cache hits verify nothing.
    pub bytes_verified: u64,
}

impl IoSnapshot {
    /// Total bytes read, local + remote.
    pub fn bytes_read(&self) -> u64 {
        self.bytes_local + self.bytes_remote
    }

    /// Injected straggler latency in simulated seconds.
    pub fn sim_penalty_seconds(&self) -> f64 {
        self.sim_penalty_us as f64 / 1e6
    }

    /// Counter-wise difference `self - earlier` (saturating).
    pub fn since(&self, earlier: &IoSnapshot) -> IoSnapshot {
        IoSnapshot {
            bytes_local: self.bytes_local.saturating_sub(earlier.bytes_local),
            bytes_remote: self.bytes_remote.saturating_sub(earlier.bytes_remote),
            bytes_written: self.bytes_written.saturating_sub(earlier.bytes_written),
            read_ops: self.read_ops.saturating_sub(earlier.read_ops),
            seeks: self.seeks.saturating_sub(earlier.seeks),
            sim_penalty_us: self.sim_penalty_us.saturating_sub(earlier.sim_penalty_us),
            cache_hits: self.cache_hits.saturating_sub(earlier.cache_hits),
            cache_misses: self.cache_misses.saturating_sub(earlier.cache_misses),
            cache_hit_bytes: self.cache_hit_bytes.saturating_sub(earlier.cache_hit_bytes),
            cache_evictions: self.cache_evictions.saturating_sub(earlier.cache_evictions),
            bytes_verified: self.bytes_verified.saturating_sub(earlier.bytes_verified),
        }
    }

    /// Counter-wise sum (accumulating the I/O of failed task attempts).
    pub fn plus(&self, other: &IoSnapshot) -> IoSnapshot {
        IoSnapshot {
            bytes_local: self.bytes_local + other.bytes_local,
            bytes_remote: self.bytes_remote + other.bytes_remote,
            bytes_written: self.bytes_written + other.bytes_written,
            read_ops: self.read_ops + other.read_ops,
            seeks: self.seeks + other.seeks,
            sim_penalty_us: self.sim_penalty_us + other.sim_penalty_us,
            cache_hits: self.cache_hits + other.cache_hits,
            cache_misses: self.cache_misses + other.cache_misses,
            cache_hit_bytes: self.cache_hit_bytes + other.cache_hit_bytes,
            cache_evictions: self.cache_evictions + other.cache_evictions,
            bytes_verified: self.bytes_verified + other.bytes_verified,
        }
    }
}

/// Per-task I/O attribution: counters that accumulate only the I/O issued
/// while the scope is [entered](IoScope::enter) on a thread.
///
/// A worker running one map/reduce task enters its scope for the duration
/// of the task; every `IoStats::add_*` on that thread (the global DFS
/// counters included) then also lands in the scope. Unlike diffing global
/// snapshots, this stays exact when other tasks run concurrently.
#[derive(Debug, Default, Clone)]
pub struct IoScope {
    counters: Arc<IoStats>,
}

impl IoScope {
    pub fn new() -> IoScope {
        IoScope::default()
    }

    /// Start attributing this thread's I/O to the scope until the returned
    /// guard drops. Scopes nest: inner and outer both observe the I/O.
    pub fn enter(&self) -> IoScopeGuard {
        ACTIVE_SCOPES.with(|scopes| scopes.borrow_mut().push(Arc::clone(&self.counters)));
        IoScopeGuard {
            counters: Arc::clone(&self.counters),
            _not_send: PhantomData,
        }
    }

    /// Point-in-time copy of everything attributed so far.
    pub fn snapshot(&self) -> IoSnapshot {
        self.counters.snapshot()
    }
}

/// Ends the attribution started by [`IoScope::enter`] when dropped.
/// `!Send` by construction: the guard must drop on the thread that entered.
#[derive(Debug)]
pub struct IoScopeGuard {
    counters: Arc<IoStats>,
    _not_send: PhantomData<*const ()>,
}

impl Drop for IoScopeGuard {
    fn drop(&mut self) {
        ACTIVE_SCOPES.with(|scopes| {
            let popped = scopes.borrow_mut().pop();
            debug_assert!(
                popped.is_some_and(|p| Arc::ptr_eq(&p, &self.counters)),
                "IoScope guards must drop in LIFO order"
            );
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_and_since() {
        let s = IoStats::default();
        s.add_bytes_local(100);
        s.add_bytes_remote(50);
        let a = s.snapshot();
        s.add_bytes_local(10);
        s.add_read_op(1);
        let b = s.snapshot();
        let d = b.since(&a);
        assert_eq!(d.bytes_local, 10);
        assert_eq!(d.bytes_remote, 0);
        assert_eq!(d.read_ops, 1);
        assert_eq!(d.seeks, 1);
        assert_eq!(b.bytes_read(), 160);
    }

    #[test]
    fn reset_zeroes_everything() {
        let s = IoStats::default();
        s.add_bytes_written(5);
        s.add_read_op(0);
        s.reset();
        assert_eq!(s.snapshot(), IoSnapshot::default());
    }

    #[test]
    fn scope_sees_only_io_while_entered() {
        let global = IoStats::default();
        let scope = IoScope::new();
        global.add_bytes_local(100); // before enter: not attributed
        {
            let _g = scope.enter();
            global.add_bytes_local(7);
            global.add_bytes_remote(3);
            global.add_read_op(2);
        }
        global.add_bytes_written(50); // after exit: not attributed
        let snap = scope.snapshot();
        assert_eq!(snap.bytes_local, 7);
        assert_eq!(snap.bytes_remote, 3);
        assert_eq!(snap.read_ops, 1);
        assert_eq!(snap.seeks, 2);
        assert_eq!(snap.bytes_written, 0);
        // Global counters still hold everything.
        assert_eq!(global.snapshot().bytes_local, 107);
    }

    #[test]
    fn nested_scopes_both_observe() {
        let global = IoStats::default();
        let outer = IoScope::new();
        let inner = IoScope::new();
        let _og = outer.enter();
        global.add_bytes_local(10);
        {
            let _ig = inner.enter();
            global.add_bytes_local(5);
        }
        global.add_bytes_local(1);
        assert_eq!(outer.snapshot().bytes_local, 16);
        assert_eq!(inner.snapshot().bytes_local, 5);
    }

    #[test]
    fn concurrent_scopes_do_not_cross_attribute() {
        let global = Arc::new(IoStats::default());
        let mut handles = Vec::new();
        for i in 0..8u64 {
            let global = Arc::clone(&global);
            handles.push(std::thread::spawn(move || {
                let scope = IoScope::new();
                let _g = scope.enter();
                for _ in 0..1000 {
                    global.add_bytes_local(i + 1);
                }
                scope.snapshot().bytes_local
            }));
        }
        let per_thread: Vec<u64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for (i, total) in per_thread.iter().enumerate() {
            assert_eq!(*total, 1000 * (i as u64 + 1));
        }
        assert_eq!(
            global.snapshot().bytes_local,
            per_thread.iter().sum::<u64>()
        );
    }
}
