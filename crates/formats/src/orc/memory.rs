//! The ORC writer memory manager (paper Section 4.4).
//!
//! Each writer in a task registers its stripe size; when the total
//! registered size exceeds the task's memory threshold, every writer's
//! *actual* stripe size is scaled down by `threshold / total_registered`.
//! When writers close and the total drops back under the threshold, actual
//! sizes return to the originals. This bounds the memory footprint of tasks
//! with many concurrent writers (e.g. dynamic partitioning).

use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Shared memory manager for all ORC writers of one task.
#[derive(Clone)]
pub struct MemoryManager {
    shared: Arc<Shared>,
}

struct Shared {
    inner: Mutex<Inner>,
    /// [`MemoryManager::scale`] as `f64` bits, stored under the lock each
    /// time a writer registers or leaves. Writers consult it once per row,
    /// so reading it takes no lock.
    scale: AtomicU64,
}

struct Inner {
    threshold: u64,
    next_id: u64,
    registered: HashMap<u64, u64>,
    total_registered: u64,
}

/// A writer's registration handle; deregisters on drop.
pub struct Registration {
    manager: MemoryManager,
    id: u64,
    stripe_size: u64,
}

impl MemoryManager {
    /// `threshold` is the maximum total bytes writers may buffer — the
    /// paper's default is half the memory allocated to the task.
    pub fn new(threshold: u64) -> MemoryManager {
        MemoryManager {
            shared: Arc::new(Shared {
                inner: Mutex::new(Inner {
                    threshold: threshold.max(1),
                    next_id: 0,
                    registered: HashMap::new(),
                    total_registered: 0,
                }),
                scale: AtomicU64::new(1.0f64.to_bits()),
            }),
        }
    }

    /// From a task memory budget using the paper's default ratio (0.5).
    pub fn for_task_memory(task_memory: u64, pool_fraction: f64) -> MemoryManager {
        MemoryManager::new((task_memory as f64 * pool_fraction) as u64)
    }

    /// Register a new writer with its configured stripe size.
    pub fn register(&self, stripe_size: u64) -> Registration {
        let mut inner = self.shared.inner.lock();
        let id = inner.next_id;
        inner.next_id += 1;
        inner.registered.insert(id, stripe_size);
        inner.total_registered += stripe_size;
        self.publish_scale(&inner);
        Registration {
            manager: self.clone(),
            id,
            stripe_size,
        }
    }

    /// The current scale-down ratio (1.0 when under the threshold).
    pub fn scale(&self) -> f64 {
        f64::from_bits(self.shared.scale.load(Ordering::Relaxed))
    }

    /// Store the ratio `inner` implies; called with the lock held.
    fn publish_scale(&self, inner: &Inner) {
        let scale = if inner.total_registered <= inner.threshold {
            1.0
        } else {
            inner.threshold as f64 / inner.total_registered as f64
        };
        self.shared.scale.store(scale.to_bits(), Ordering::Relaxed);
    }

    pub fn total_registered(&self) -> u64 {
        self.shared.inner.lock().total_registered
    }

    fn deregister(&self, id: u64) {
        let mut inner = self.shared.inner.lock();
        if let Some(sz) = inner.registered.remove(&id) {
            inner.total_registered -= sz;
        }
        self.publish_scale(&inner);
    }
}

impl Registration {
    /// The stripe size this writer should actually use right now.
    pub fn effective_stripe_size(&self) -> u64 {
        ((self.stripe_size as f64) * self.manager.scale()).max(1.0) as u64
    }

    pub fn registered_stripe_size(&self) -> u64 {
        self.stripe_size
    }
}

impl Drop for Registration {
    fn drop(&mut self) {
        self.manager.deregister(self.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_writer_unscaled() {
        let mm = MemoryManager::new(1000);
        let r = mm.register(600);
        assert_eq!(r.effective_stripe_size(), 600);
    }

    #[test]
    fn writers_scale_down_over_threshold() {
        let mm = MemoryManager::new(1000);
        let r1 = mm.register(800);
        let r2 = mm.register(800);
        // total 1600 > 1000 → ratio 0.625 → each effective 500.
        assert_eq!(r1.effective_stripe_size(), 500);
        assert_eq!(r2.effective_stripe_size(), 500);
        assert_eq!(mm.total_registered(), 1600);
    }

    #[test]
    fn closing_a_writer_restores_sizes() {
        let mm = MemoryManager::new(1000);
        let r1 = mm.register(800);
        {
            let _r2 = mm.register(800);
            assert_eq!(r1.effective_stripe_size(), 500);
        }
        // r2 dropped → back under threshold → original size again.
        assert_eq!(r1.effective_stripe_size(), 800);
    }

    #[test]
    fn total_memory_is_bounded() {
        let mm = MemoryManager::new(10_000);
        let regs: Vec<_> = (0..50).map(|_| mm.register(4_000)).collect();
        let total_effective: u64 = regs.iter().map(|r| r.effective_stripe_size()).sum();
        assert!(
            total_effective <= 10_050,
            "effective total {total_effective} must stay near the threshold"
        );
    }

    #[test]
    fn paper_default_ratio() {
        let mm = MemoryManager::for_task_memory(1 << 30, 0.5);
        let r = mm.register(1 << 29); // exactly the pool
        assert_eq!(r.effective_stripe_size(), 1 << 29);
        let _r2 = mm.register(1 << 29); // now 2× pool → halve
        assert_eq!(r.effective_stripe_size(), 1 << 28);
    }
}
