//! Atomic I/O counters for the simulated filesystem.
//!
//! Figure 10(b) of the paper reports "amounts of data read from HDFS"; these
//! counters are where that number comes from in this reproduction.

use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Declares the I/O counters once: the [`IoStats`] atomics, an `add_*`
/// entry point for each counter that moves alone, [`IoStats::snapshot`],
/// and [`IoSnapshot`] with its `since` and `plus`.
macro_rules! io_counters {
    ($( $(#[$doc:meta])* $field:ident $(=> $add:ident)? ),* $(,)?) => {
        /// Shared, thread-safe I/O counters.
        ///
        /// Every `add_*` also tees into whatever [`IoScope`]s are entered on
        /// the current thread, so a task can attribute exactly its own I/O
        /// without racing on before/after snapshots of the global counters.
        #[derive(Debug, Default)]
        pub struct IoStats {
            $( $field: AtomicU64, )*
        }

        /// Plain-value snapshot of [`IoStats`].
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
        pub struct IoSnapshot {
            $( $(#[$doc])* pub $field: u64, )*
        }

        impl IoStats {
            $($(
                #[doc = concat!("Add `n` to `", stringify!($field), "`.")]
                pub fn $add(&self, n: u64) {
                    self.tee(|s| {
                        s.$field.fetch_add(n, Ordering::Relaxed);
                    });
                }
            )?)*

            /// A consistent-enough point-in-time copy of all counters.
            pub fn snapshot(&self) -> IoSnapshot {
                IoSnapshot {
                    $( $field: self.$field.load(Ordering::Relaxed), )*
                }
            }
        }

        impl IoSnapshot {
            /// Counter-wise difference `self - earlier` (saturating).
            pub fn since(&self, earlier: &IoSnapshot) -> IoSnapshot {
                IoSnapshot {
                    $( $field: self.$field.saturating_sub(earlier.$field), )*
                }
            }

            /// Counter-wise sum (accumulating the I/O of failed task attempts).
            pub fn plus(&self, other: &IoSnapshot) -> IoSnapshot {
                IoSnapshot {
                    $( $field: self.$field + other.$field, )*
                }
            }
        }
    };
}

io_counters! {
    bytes_local => add_bytes_local,
    bytes_remote => add_bytes_remote,
    bytes_written => add_bytes_written,
    read_ops,
    seeks,
    /// Simulated straggler latency injected by the fault plan, in µs. Real
    /// wall-clock is unaffected; the cost model prices this into task
    /// durations.
    sim_penalty_us => add_sim_penalty_us,
    /// Block-cache lookups served without a DFS read.
    cache_hits,
    /// Block-cache lookups that went to the DFS and filled a slot.
    cache_misses => add_cache_misses,
    /// Bytes served from the block cache (not counted in `bytes_read`).
    cache_hit_bytes,
    /// Entries evicted by the sharded LRU to admit insertions.
    cache_evictions => add_cache_evictions,
    /// Stored bytes CRC-checked by uncached reads: each read's range
    /// rounded out to checksum chunks. Cache hits verify nothing.
    bytes_verified => add_bytes_verified,
}

thread_local! {
    /// Scopes entered on this thread, innermost last.
    static ACTIVE_SCOPES: RefCell<Vec<Arc<IoStats>>> = const { RefCell::new(Vec::new()) };
}

impl IoStats {
    /// Apply `f` to these counters and to every scope entered on this
    /// thread.
    fn tee(&self, f: impl Fn(&IoStats)) {
        f(self);
        ACTIVE_SCOPES.with(|scopes| {
            for scope in scopes.borrow().iter() {
                f(scope);
            }
        });
    }

    /// One read op, carrying how many seeks it implied (0 if contiguous).
    pub fn add_read_op(&self, seeks: u64) {
        self.tee(|s| {
            s.read_ops.fetch_add(1, Ordering::Relaxed);
            s.seeks.fetch_add(seeks, Ordering::Relaxed);
        });
    }

    /// One block-cache hit serving `bytes` without touching the wire.
    pub fn add_cache_hit(&self, bytes: u64) {
        self.tee(|s| {
            s.cache_hits.fetch_add(1, Ordering::Relaxed);
            s.cache_hit_bytes.fetch_add(bytes, Ordering::Relaxed);
        });
    }
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
