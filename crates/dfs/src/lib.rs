//! An in-process simulator of a Hadoop-style distributed filesystem (HDFS).
//!
//! The paper's storage experiments measure *bytes read from HDFS*, seek
//! behaviour, and block locality. This crate provides a write-once,
//! block-structured namespace with:
//!
//! * configurable block size and replication,
//! * deterministic block→node placement,
//! * per-filesystem I/O accounting (local/remote bytes, read ops, seeks),
//! * the block-remaining query ORC's writer uses to pad stripes so each
//!   stripe lands in a single block (Section 4.1 of the paper).
//!
//! File contents are real bytes held in memory; only the "distribution" is
//! simulated. This module is the namespace; [`reader`] and [`writer`] hold
//! the read and publish paths.

pub mod cache;
pub mod crc;
pub mod fault;
pub mod reader;
pub mod stats;
pub mod writer;

pub use fault::{FaultOutcome, FaultPlan, RenameFaultOutcome, WriteFaultOutcome};
pub use reader::{DfsBuf, DfsReader};
pub use stats::{IoScope, IoScopeGuard, IoSnapshot, IoStats};
pub use writer::DfsWriter;

use hive_common::{HiveError, Result};
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::ops::Bound;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Process-wide counter handing out distinct [`Dfs::instance_id`]s, so
/// caches outside this crate (e.g. the ORC metadata cache) can key entries
/// by filesystem instance and never serve one simulator's bytes to another.
static NEXT_DFS_ID: AtomicU64 = AtomicU64::new(1);

/// Identifier of a simulated cluster node (0-based).
pub type NodeId = usize;

/// One block of a file: a byte range plus its replica locations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockInfo {
    /// Byte offset of the block within the file.
    pub offset: u64,
    /// Length in bytes (the last block may be short).
    pub len: u64,
    /// Nodes holding a replica.
    pub replicas: Vec<NodeId>,
}

/// One stored copy of a file. Immutable once published: a rename, a sorted
/// copy's adoption or a tamper makes a new entry that shares the old one's
/// bytes (only tampering copies them).
#[derive(Debug, Clone)]
struct FileEntry {
    data: Arc<Vec<u8>>,
    blocks: Vec<BlockInfo>,
    /// CRC32 of each [`BYTES_PER_CHECKSUM`] chunk of each block, block by
    /// block, computed when the file was published. Readers verify the
    /// chunks a read returns against these before serving data.
    chunk_crcs: Vec<u32>,
    /// Monotonic per-filesystem generation, bumped every time the copy is
    /// (re)published or tampered with. Cache keys include it, so entries
    /// for an overwritten file are structurally unreachable.
    generation: u64,
}

/// A path's copies. Copy 0 is the insertion-order base; copy `k` is the
/// sorted copy hosted on replica slot `k` (see [`Dfs::adopt_variant`]).
/// Each copy carries its own generation, so block- and metadata-cache keys
/// never collide across copies. Ordinary files have one copy.
type Copies = Vec<Arc<FileEntry>>;

/// Bytes covered by one stored checksum: HDFS's default
/// `dfs.bytes-per-checksum`. Chunks start at each block's offset, so a
/// block's last chunk may be short and any block size works.
pub const BYTES_PER_CHECKSUM: u64 = 512;

/// Cluster-level configuration of the simulated filesystem.
#[derive(Debug, Clone)]
pub struct DfsConfig {
    pub block_size: u64,
    pub replication: usize,
    pub nodes: usize,
}

impl Default for DfsConfig {
    fn default() -> Self {
        DfsConfig {
            block_size: 512 << 20,
            replication: 3,
            nodes: 10,
        }
    }
}

/// The simulated distributed filesystem. Cheap to clone (shared state).
///
/// A handle optionally carries a [statement scope](Dfs::for_statement):
/// a per-statement fault plan and cache-participation flag that ride on
/// the handle (and every clone made from it) instead of mutating shared
/// filesystem state. Concurrent statements against one filesystem can
/// therefore run under different `dfs.fault.*` / cache confs without
/// clobbering each other.
#[derive(Clone)]
pub struct Dfs {
    inner: Arc<DfsInner>,
    scope: Option<Arc<StatementScope>>,
}

/// Per-statement view riding on a [`Dfs`] handle: the statement's fault
/// plan (`None`: a healthy cluster) and whether its reads participate in
/// the shared block cache.
struct StatementScope {
    fault: Option<Arc<FaultPlan>>,
    cache_enabled: bool,
}

struct DfsInner {
    config: DfsConfig,
    files: RwLock<BTreeMap<String, Copies>>,
    stats: IoStats,
    /// Block-level byte cache (disabled until given a capacity).
    cache: cache::BlockCache,
    /// Source of per-file generations.
    next_gen: AtomicU64,
    /// Count of table-data mutations: publishes, deletes, and tampering of
    /// paths outside the `/tmp/` query-scratch namespace. Scratch writes
    /// (shuffle intermediates) do not move it, so it only advances when
    /// data a compiled plan could have read actually changed.
    data_gen: AtomicU64,
    /// Process-unique id of this filesystem instance.
    id: u64,
}

/// The copies of `path`: the one namespace lookup.
fn copies<'a>(files: &'a BTreeMap<String, Copies>, path: &str) -> Result<&'a Copies> {
    files
        .get(path)
        .ok_or_else(|| HiveError::Dfs(format!("no such file: {path}")))
}

/// A cache floor above every generation `copies` carry: it drops their
/// cached ranges and dooms fills still in flight for any of them.
fn floor_above(copies: &[Arc<FileEntry>]) -> u64 {
    copies.iter().map(|c| c.generation).max().unwrap_or(0) + 1
}

impl Dfs {
    pub fn new(config: DfsConfig) -> Dfs {
        Dfs {
            inner: Arc::new(DfsInner {
                config,
                files: RwLock::new(BTreeMap::new()),
                stats: IoStats::default(),
                cache: cache::BlockCache::new(),
                next_gen: AtomicU64::new(1),
                data_gen: AtomicU64::new(0),
                id: NEXT_DFS_ID.fetch_add(1, Ordering::Relaxed),
            }),
            scope: None,
        }
    }

    /// A statement-scoped view of this filesystem. `fault` is the
    /// statement's fault plan (`None` means this statement sees a healthy
    /// cluster), and
    /// `cache_enabled = false` routes every read through this handle (and
    /// its clones) down the uncached path, byte-identical to the pre-cache
    /// engine. The scope travels with `clone()`, so handing the view to an
    /// execution engine propagates it to every task reader.
    pub fn for_statement(&self, fault: Option<FaultPlan>, cache_enabled: bool) -> Dfs {
        Dfs {
            inner: Arc::clone(&self.inner),
            scope: Some(Arc::new(StatementScope {
                fault: fault.map(Arc::new),
                cache_enabled,
            })),
        }
    }

    /// A filesystem with paper-like defaults (512 MB blocks, 3 replicas,
    /// 10 datanodes).
    pub fn with_defaults() -> Dfs {
        Dfs::new(DfsConfig::default())
    }

    pub fn config(&self) -> &DfsConfig {
        &self.inner.config
    }

    /// The block size every file is stored in.
    fn block_size(&self) -> u64 {
        self.inner.config.block_size.max(1)
    }

    /// Shared I/O counters for the whole filesystem.
    pub fn stats(&self) -> &IoStats {
        &self.inner.stats
    }

    /// Process-unique id of this filesystem instance. External caches key
    /// by `(instance_id, path, generation)` so separate simulators can
    /// never cross-contaminate.
    pub fn instance_id(&self) -> u64 {
        self.inner.id
    }

    /// Resize the block cache. `0` disables it and drops every entry;
    /// shrinking evicts LRU entries down to the new bound. Evictions are
    /// charged to the filesystem's cache counters.
    pub fn set_cache_capacity(&self, bytes: u64) {
        let evicted = self.inner.cache.set_capacity(bytes);
        if evicted > 0 {
            self.inner.stats.add_cache_evictions(evicted);
        }
    }

    /// Current block-cache capacity in bytes (`0` = disabled).
    pub fn cache_capacity(&self) -> u64 {
        self.inner.cache.capacity()
    }

    /// Bytes currently resident in the block cache (test/inspection hook).
    pub fn cache_resident_bytes(&self) -> u64 {
        self.inner.cache.resident_bytes()
    }

    /// Current generation of `path`, if it exists. Bumped on every publish
    /// or tamper of the path.
    pub fn generation(&self, path: &str) -> Option<u64> {
        self.inner.files.read().get(path).map(|c| c[0].generation)
    }

    /// Filesystem-wide table-data watermark: bumped by every publish,
    /// delete, or tamper of a path outside the `/tmp/` query-scratch
    /// namespace. A cheap staleness fence — the server's plan cache keys
    /// entries on it, so a plan compiled before a data write is never
    /// reused after one, while scratch traffic (shuffle intermediates
    /// under `/tmp/query-*`) leaves cached plans reachable.
    pub fn generation_watermark(&self) -> u64 {
        self.inner.data_gen.load(Ordering::Relaxed)
    }

    fn bump_data_gen(&self, path: &str) {
        if !path.starts_with("/tmp/") {
            self.inner.data_gen.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// `path` changed: drop its cached ranges below `floor` and move the
    /// data watermark.
    fn invalidate(&self, path: &str, floor: u64) {
        self.inner.cache.invalidate_path(path, floor);
        self.bump_data_gen(path);
    }

    fn next_generation(&self) -> u64 {
        self.inner.next_gen.fetch_add(1, Ordering::Relaxed)
    }

    /// The fault plan of this handle's statement scope. An unscoped handle
    /// sees a healthy cluster.
    pub fn fault_plan(&self) -> Option<Arc<FaultPlan>> {
        self.scope.as_ref().and_then(|scope| scope.fault.clone())
    }

    /// Whether reads through this handle participate in the block cache.
    fn cache_enabled_here(&self) -> bool {
        self.scope.as_ref().is_none_or(|s| s.cache_enabled)
    }

    /// Copy `copy` of `path` (`0`: the base).
    fn entry(&self, path: &str, copy: usize) -> Result<Arc<FileEntry>> {
        let files = self.inner.files.read();
        let all = copies(&files, path)?;
        all.get(copy).cloned().ok_or_else(|| {
            HiveError::Dfs(format!(
                "no variant {copy} of {path} ({} available)",
                all.len()
            ))
        })
    }

    /// Whether `entry` is still one of `path`'s copies.
    fn holds(&self, path: &str, entry: &Arc<FileEntry>) -> bool {
        let files = self.inner.files.read();
        files
            .get(path)
            .is_some_and(|all| all.iter().any(|c| Arc::ptr_eq(c, entry)))
    }

    /// Adopt the file at `tmp_path` as sorted variant `slot` (1-based) of
    /// `dest`. Which column its rows are clustered on is the file's own
    /// business (an ORC footer says it); the DFS stores bytes. The bytes
    /// and their checksums move out of the namespace at `tmp_path` and
    /// become reachable only through `dest`'s copy `slot`; slots below it
    /// that hold no sorted copy yet alias the base. Each variant block is
    /// hosted on a single node — the `slot`-th replica of the base
    /// placement — so the copy models HAIL's "each replica holds a
    /// different sort order" at zero extra logical-storage cost.
    pub fn adopt_variant(&self, dest: &str, tmp_path: &str, slot: usize) -> Result<()> {
        if slot == 0 {
            return Err(HiveError::Dfs(
                "variant slot 0 is the base file; sorted variants start at 1".into(),
            ));
        }
        let mut files = self.inner.files.write();
        let staged = copies(&files, tmp_path)?;
        let (tmp_floor, staged) = (floor_above(staged), Arc::clone(&staged[0]));
        let mut dest_copies = copies(&files, dest)?.clone();
        // Same-path placement, reduced to the slot's replica: block i of
        // variant k sits on the node holding replica k of base block i.
        let blocks = self
            .placement(dest, staged.data.len() as u64)
            .into_iter()
            .map(|mut b| {
                b.replicas = vec![b.replicas[slot % b.replicas.len()]];
                b
            })
            .collect();
        let variant = FileEntry {
            blocks,
            generation: self.next_generation(),
            ..(*staged).clone()
        };
        // Unfilled intermediate slots alias the base: a reader landing
        // there sees insertion order, never an error.
        let base = Arc::clone(&dest_copies[0]);
        dest_copies.resize(dest_copies.len().max(slot + 1), base);
        dest_copies[slot] = Arc::new(variant);
        files.remove(tmp_path);
        files.insert(dest.to_string(), dest_copies);
        drop(files);
        self.inner.cache.invalidate_path(tmp_path, tmp_floor);
        self.bump_data_gen(dest);
        Ok(())
    }

    /// Block metadata of variant `v` of `path` (`0` = the base file).
    pub fn variant_blocks(&self, path: &str, variant: usize) -> Result<Vec<BlockInfo>> {
        Ok(self.entry(path, variant)?.blocks.clone())
    }

    /// The replica slots `k >= 1` of `path` that hold a sorted copy of
    /// their own, in slot order: empty for a file with one copy, and a slot
    /// that aliases the base is left out.
    pub fn sorted_copies(&self, path: &str) -> Vec<usize> {
        let files = self.inner.files.read();
        let Some(all) = files.get(path) else {
            return Vec::new();
        };
        (1..all.len())
            .filter(|&k| !Arc::ptr_eq(&all[k], &all[0]))
            .collect()
    }

    pub fn exists(&self, path: &str) -> bool {
        self.inner.files.read().contains_key(path)
    }

    pub fn len(&self, path: &str) -> Result<u64> {
        Ok(self.entry(path, 0)?.data.len() as u64)
    }

    /// Whether the namespace holds no files.
    pub fn is_empty(&self) -> bool {
        self.inner.files.read().is_empty()
    }

    /// Remove `path` and every copy of it.
    pub fn delete(&self, path: &str) -> bool {
        let Some(removed) = self.inner.files.write().remove(path) else {
            return false;
        };
        self.invalidate(path, floor_above(&removed));
        true
    }

    /// All paths with the given prefix, sorted (used to list a "directory").
    pub fn list(&self, prefix: &str) -> Vec<String> {
        let files = self.inner.files.read();
        under(&files, prefix).map(|(k, _)| k.clone()).collect()
    }

    /// Total bytes under a path prefix.
    pub fn size_of(&self, prefix: &str) -> u64 {
        let files = self.inner.files.read();
        under(&files, prefix)
            .map(|(_, c)| c[0].data.len() as u64)
            .sum()
    }

    /// Block metadata for a file (what the JobTracker asks the NameNode).
    pub fn blocks(&self, path: &str) -> Result<Vec<BlockInfo>> {
        self.variant_blocks(path, 0)
    }

    /// Nodes holding the block containing `offset` of `path`.
    pub fn locations(&self, path: &str, offset: u64) -> Result<Vec<NodeId>> {
        let entry = self.entry(path, 0)?;
        Ok(entry
            .blocks
            .get((offset / self.block_size()) as usize)
            .map(|b| b.replicas.clone())
            .unwrap_or_default())
    }

    /// Flip `mask` into the stored byte at `pos` of `path` *without*
    /// recomputing checksums — simulating at-rest corruption of a replica.
    /// Every later read returning a byte of that checksum chunk fails its
    /// CRC check. Sorted copies are left alone; a slot aliasing the base
    /// aliases the flipped base. Test/chaos hook.
    pub fn corrupt_stored(&self, path: &str, pos: u64, mask: u8) -> Result<()> {
        let mut files = self.inner.files.write();
        let mut tampered = copies(&files, path)?.clone();
        let base = &tampered[0];
        if pos >= base.data.len() as u64 {
            return Err(HiveError::Dfs(format!(
                "corrupt_stored at {pos} past end of {path} ({} bytes)",
                base.data.len()
            )));
        }
        let mut data = (*base.data).clone();
        data[pos as usize] ^= mask;
        let generation = self.next_generation();
        let flipped = Arc::new(FileEntry {
            data: Arc::new(data),
            generation,
            ..(**base).clone() // checksums stale on purpose
        });
        // Slots holding no sorted copy keep aliasing the base.
        let base = Arc::clone(base);
        for copy in tampered.iter_mut().filter(|c| Arc::ptr_eq(c, &base)) {
            *copy = Arc::clone(&flipped);
        }
        files.insert(path.to_string(), tampered);
        drop(files);
        self.invalidate(path, generation);
        Ok(())
    }

    /// Atomically move `from` to `to` (namenode metadata operation: readers
    /// see either the old namespace or the new one, never a partial copy).
    /// The destination gets a fresh generation and path-keyed block
    /// placement but keeps the stored bytes and checksums: placement moves
    /// replicas, never block boundaries, and a namenode operation never
    /// rehashes data (so an at-rest corruption stays detectable after the
    /// move). Sorted copies do not follow a rename: the delta/compaction
    /// paths that rename never write them. An existing file at `to` is
    /// replaced. Consults the handle's (statement-scoped) fault plan: a
    /// rename can fail without moving anything, or move the file and
    /// *then* report failure (lost ack) — callers with commit semantics
    /// must probe for the latter.
    pub fn rename(&self, from: &str, to: &str) -> Result<()> {
        let outcome = self
            .fault_plan()
            .map(|p| p.decide_rename(from))
            .unwrap_or(RenameFaultOutcome::Success);
        if outcome == RenameFaultOutcome::TransientError {
            return Err(HiveError::Transient(format!(
                "injected rename failure: {from} -> {to}"
            )));
        }
        let mut files = self.inner.files.write();
        let old = copies(&files, from)?;
        let from_floor = floor_above(old);
        let generation = self.next_generation();
        let moved = FileEntry {
            blocks: self.placement(to, old[0].data.len() as u64),
            generation,
            ..(*old[0]).clone()
        };
        files.remove(from);
        files.insert(to.to_string(), vec![Arc::new(moved)]);
        drop(files);
        self.invalidate(from, from_floor);
        self.invalidate(to, generation);
        if outcome == RenameFaultOutcome::AckLost {
            return Err(HiveError::Transient(format!(
                "injected rename ack loss: {from} -> {to} (the move happened)"
            )));
        }
        Ok(())
    }

    /// Deterministic replica placement: hash of (path, block index) picks
    /// the first replica, the rest go to consecutive nodes — stable across
    /// runs so experiments are reproducible.
    fn placement(&self, path: &str, len: u64) -> Vec<BlockInfo> {
        let nodes = self.inner.config.nodes.max(1);
        let repl = self.inner.config.replication.clamp(1, nodes);
        let block_size = self.block_size();
        let h = fault::fnv1a(path.as_bytes());
        let mut blocks = Vec::new();
        let mut offset = 0u64;
        let mut idx = 0u64;
        while offset < len || (len == 0 && idx == 0) {
            let blen = (len - offset).min(block_size);
            let first = ((h ^ idx.wrapping_mul(0x9e3779b97f4a7c15)) % nodes as u64) as usize;
            let replicas = (0..repl).map(|r| (first + r) % nodes).collect();
            blocks.push(BlockInfo {
                offset,
                len: blen,
                replicas,
            });
            offset += blen;
            idx += 1;
            if len == 0 {
                break;
            }
        }
        blocks
    }

    /// Publish `data` at `path` as a new file, replacing whatever was there.
    fn publish(&self, path: &str, data: Vec<u8>) {
        let block_size = self.block_size();
        let blocks = self.placement(path, data.len() as u64);
        let chunk_crcs = data
            .chunks(block_size as usize)
            .flat_map(|block| block.chunks(BYTES_PER_CHECKSUM as usize))
            .map(crc::crc32)
            .collect();
        self.inner.stats.add_bytes_written(data.len() as u64);
        let generation = self.next_generation();
        let entry = FileEntry {
            data: Arc::new(data),
            blocks,
            chunk_crcs,
            generation,
        };
        self.inner
            .files
            .write()
            .insert(path.to_string(), vec![Arc::new(entry)]);
        // Overwrite invalidation: generations already make the old entries
        // unreachable; dropping them eagerly frees their bytes, and the
        // floor at the new generation dooms fills still in flight for the
        // old one.
        self.invalidate(path, generation);
    }
}

/// The namespace entries whose path starts with `prefix`. Paths sharing a
/// prefix are contiguous in the ordered map, so this seeks to the first
/// and stops at the first that does not match: O(log n + matches), where
/// filtering every key is O(n) in a namespace that only grows.
fn under<'a>(
    files: &'a BTreeMap<String, Copies>,
    prefix: &'a str,
) -> impl Iterator<Item = (&'a String, &'a Copies)> {
    files
        .range::<str, _>((Bound::Included(prefix), Bound::Unbounded))
        .take_while(move |(k, _)| k.starts_with(prefix))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection;
    use proptest::prelude::*;

    fn small_fs() -> Dfs {
        Dfs::new(DfsConfig {
            block_size: 100,
            replication: 2,
            nodes: 4,
        })
    }

    #[test]
    fn data_watermark_ignores_query_scratch() {
        let fs = small_fs();
        let start = fs.generation_watermark();
        // Scratch traffic (shuffle intermediates) leaves the watermark alone.
        fs.create("/tmp/query-1/part-m-00000").try_close().unwrap();
        fs.delete("/tmp/query-1/part-m-00000");
        assert_eq!(fs.generation_watermark(), start);
        // Table publishes, tampering, and deletes each move it.
        let mut w = fs.create("/warehouse/t/part-0");
        w.write(b"rows");
        w.try_close().unwrap();
        assert_eq!(fs.generation_watermark(), start + 1);
        fs.corrupt_stored("/warehouse/t/part-0", 0, 0xff).unwrap();
        assert_eq!(fs.generation_watermark(), start + 2);
        fs.delete("/warehouse/t/part-0");
        assert_eq!(fs.generation_watermark(), start + 3);
    }

    #[test]
    fn write_then_read_round_trip() {
        let fs = small_fs();
        let mut w = fs.create("/t/a");
        w.write(b"hello ");
        w.write(b"world");
        assert_eq!(w.try_close().unwrap(), 11);
        let mut r = fs.open("/t/a", None).unwrap();
        assert_eq!(r.read_all().unwrap(), b"hello world");
        assert_eq!(fs.len("/t/a").unwrap(), 11);
    }

    #[test]
    fn blocks_split_at_block_size() {
        let fs = small_fs();
        let mut w = fs.create("/t/b");
        w.write(&vec![7u8; 250]);
        w.try_close().unwrap();
        let blocks = fs.blocks("/t/b").unwrap();
        assert_eq!(blocks.len(), 3);
        assert_eq!(blocks[0].len, 100);
        assert_eq!(blocks[2].len, 50);
        for b in &blocks {
            assert_eq!(b.replicas.len(), 2);
        }
    }

    #[test]
    fn placement_is_deterministic() {
        let fs1 = small_fs();
        let fs2 = small_fs();
        for fs in [&fs1, &fs2] {
            let mut w = fs.create("/same/path");
            w.write(&vec![1u8; 300]);
            w.try_close().unwrap();
        }
        assert_eq!(
            fs1.blocks("/same/path").unwrap(),
            fs2.blocks("/same/path").unwrap()
        );
    }

    #[test]
    fn locality_accounting_splits_local_and_remote() {
        let fs = small_fs();
        let mut w = fs.create("/t/c");
        w.write(&[1u8; 200]);
        w.try_close().unwrap();
        let replicas0 = fs.locations("/t/c", 0).unwrap();
        let local_node = replicas0[0];
        // Find a node NOT hosting block 0.
        let foreign = (0..4).find(|n| !replicas0.contains(n)).unwrap();

        let before = fs.stats().snapshot();
        let mut r = fs.open("/t/c", Some(local_node)).unwrap();
        r.read_at(0, 100).unwrap();
        let mid = fs.stats().snapshot();
        assert_eq!(mid.bytes_local - before.bytes_local, 100);

        let mut r2 = fs.open("/t/c", Some(foreign)).unwrap();
        r2.read_at(0, 100).unwrap();
        let after = fs.stats().snapshot();
        assert_eq!(after.bytes_remote - mid.bytes_remote, 100);
    }

    #[test]
    fn seeks_counted_only_on_discontiguous_reads() {
        let fs = small_fs();
        let mut w = fs.create("/t/d");
        w.write(&[1u8; 100]);
        w.try_close().unwrap();
        let before = fs.stats().snapshot();
        let mut r = fs.open("/t/d", None).unwrap();
        r.read_at(0, 10).unwrap(); // seek 1 (open)
        r.read_at(10, 10).unwrap(); // contiguous
        r.read_at(50, 10).unwrap(); // seek 2
        let after = fs.stats().snapshot();
        assert_eq!(after.seeks - before.seeks, 2);
        assert_eq!(after.read_ops - before.read_ops, 3);
    }

    #[test]
    fn block_remaining_supports_padding() {
        let fs = small_fs();
        let mut w = fs.create("/t/e");
        assert_eq!(w.block_remaining(), 100);
        w.write(&[0u8; 30]);
        assert_eq!(w.block_remaining(), 70);
        w.pad(70);
        assert_eq!(w.block_remaining(), 100);
        assert_eq!(w.position(), 100);
    }

    #[test]
    fn read_past_end_errors_short_read_truncates() {
        let fs = small_fs();
        let mut w = fs.create("/t/f");
        w.write(b"abc");
        w.try_close().unwrap();
        let mut r = fs.open("/t/f", None).unwrap();
        assert_eq!(r.read_at(1, 10).unwrap(), b"bc");
        assert!(r.read_at(4, 1).is_err());
    }

    #[test]
    fn flipped_stored_byte_yields_checksum_error_not_garbage() {
        let fs = small_fs();
        let mut w = fs.create("/t/crc");
        w.write(&vec![0x11u8; 250]); // 3 blocks of 100/100/50
        w.try_close().unwrap();
        fs.corrupt_stored("/t/crc", 120, 0x40).unwrap();

        // Reading the tampered block errors instead of returning bad bytes.
        let mut r = fs.open("/t/crc", None).unwrap();
        match r.read_at(100, 50) {
            Err(HiveError::Corrupt(msg)) => assert!(msg.contains("block 1")),
            other => panic!("expected checksum error, got {other:?}"),
        }
        // Untampered blocks still read fine through a fresh reader.
        let mut r2 = fs.open("/t/crc", None).unwrap();
        assert_eq!(r2.read_at(0, 100).unwrap(), vec![0x11u8; 100]);
        assert_eq!(r2.read_at(200, 50).unwrap(), vec![0x11u8; 50]);
    }

    #[test]
    fn reads_verify_only_the_chunks_they_return() {
        // 1300-byte blocks hold chunks of 512, 512 and 276 bytes.
        let fs = Dfs::new(DfsConfig {
            block_size: 1300,
            replication: 1,
            nodes: 2,
        });
        let data: Vec<u8> = (0..3000u32).map(|i| (i * 7) as u8).collect();
        let mut w = fs.create("/t/v");
        w.write(&data);
        w.try_close().unwrap();
        let mut r = fs.open("/t/v", None).unwrap();
        let mut verified = |offset: u64, len: usize| {
            let before = fs.stats().snapshot();
            let bytes = r.read_at(offset, len).unwrap();
            assert_eq!(bytes, &data[offset as usize..offset as usize + len]);
            fs.stats().snapshot().since(&before).bytes_verified
        };
        assert_eq!(verified(10, 10), 512, "inside one chunk");
        assert_eq!(verified(500, 30), 1024, "across a chunk boundary");
        assert_eq!(verified(1290, 20), 276 + 512, "across a block boundary");
        assert_eq!(
            verified(2500, 500),
            276 + 400,
            "to EOF in a short last block"
        );
        // No per-reader memo: the same range through the same reader is
        // verified again, and no more than it returns.
        assert_eq!(verified(10, 10), 512);
        assert_eq!(verified(20, 0), 0, "an empty read returns no chunk");

        // A cache hit verifies nothing: the fill was verified.
        fs.set_cache_capacity(1 << 20);
        let mut r = fs.open("/t/v", None).unwrap();
        r.read_at(0, 700).unwrap();
        let before = fs.stats().snapshot();
        fs.open("/t/v", None).unwrap().read_at(0, 700).unwrap();
        let hit = fs.stats().snapshot().since(&before);
        assert_eq!((hit.cache_hits, hit.bytes_verified), (1, 0));
    }

    #[test]
    fn rename_keeps_checksums_so_a_corrupt_chunk_stays_corrupt() {
        let fs = small_fs();
        let mut w = fs.create("/tmp/txn/delta.tmp");
        w.write(&[0x22u8; 250]);
        w.try_close().unwrap();
        fs.corrupt_stored("/tmp/txn/delta.tmp", 120, 0x40).unwrap();
        fs.rename("/tmp/txn/delta.tmp", "/warehouse/t/delta_1")
            .unwrap();
        let mut r = fs.open("/warehouse/t/delta_1", None).unwrap();
        match r.read_at(110, 20) {
            Err(HiveError::Corrupt(msg)) => assert!(msg.contains("block 1, chunk 0"), "{msg}"),
            other => panic!("rename laundered the corruption: {other:?}"),
        }
        assert_eq!(r.read_at(0, 100).unwrap(), vec![0x22u8; 100]);
    }

    // The chunk rule against its model: with one stored byte flipped, a read
    // fails exactly when the flipped byte's checksum chunk (512 bytes from
    // its block's offset, short at a block's end) overlaps the bytes it
    // returns; every other read returns the exact bytes. A fault-plan wire
    // flip is caught on the read it hits, and the retry reads clean.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn reads_fail_exactly_when_they_overlap_the_flipped_chunk(
            block_size in prop_oneof![Just(512u64), Just(1024u64), 1u64..2000],
            len in 1u64..6000,
            flip in any::<u64>(),
            reads in collection::vec((any::<u64>(), 0u64..3000), 1..16),
        ) {
            let fs = Dfs::new(DfsConfig { block_size, replication: 2, nodes: 4 });
            let data: Vec<u8> = (0..len).map(|i| (i.wrapping_mul(131) >> 3) as u8).collect();
            let mut w = fs.create("/p/f");
            w.write(&data);
            w.try_close().unwrap();
            let flip = flip % len;
            fs.corrupt_stored("/p/f", flip, 0x10).unwrap();
            let block_start = flip / block_size * block_size;
            let block_end = (block_start + block_size).min(len);
            let chunk_start = flip - (flip - block_start) % BYTES_PER_CHECKSUM;
            let chunk_end = (chunk_start + BYTES_PER_CHECKSUM).min(block_end);
            // Random reads, plus one on each side of the flipped block's
            // boundaries.
            let mut ranges: Vec<(u64, u64)> = reads.iter().map(|&(o, n)| (o % (len + 1), n)).collect();
            ranges.push((block_start.saturating_sub(1), 2));
            ranges.push((block_end.saturating_sub(1), 2));
            let mut r = fs.open("/p/f", None).unwrap();
            for (offset, n) in ranges {
                let end = (offset + n).min(len);
                let hits_chunk = offset < chunk_end && end > chunk_start;
                match r.read_at(offset, n as usize) {
                    Err(HiveError::Corrupt(msg)) => prop_assert!(
                        hits_chunk,
                        "[{offset}, {end}) misses chunk [{chunk_start}, {chunk_end}): {msg}"
                    ),
                    Ok(bytes) => {
                        prop_assert!(!hits_chunk, "[{offset}, {end}) returned the flipped chunk");
                        prop_assert_eq!(bytes, &data[offset as usize..end as usize]);
                    }
                    Err(e) => prop_assert!(false, "unexpected error {e:?}"),
                }
            }

            // A wire flip on a clean file: caught where it happens, clean on
            // the retry (the fault plan touches each location once).
            let mut conf = hive_common::HiveConf::new();
            conf.set("dfs.fault.corrupt.rate", "1.0");
            let faulty = fs.for_statement(FaultPlan::from_conf(&conf).unwrap(), false);
            let mut w = fs.create("/p/clean");
            w.write(&data);
            w.try_close().unwrap();
            let mut r = faulty.open("/p/clean", None).unwrap();
            let mut touched = std::collections::HashSet::new();
            for &(o, n) in &reads {
                let offset = o % len;
                if !touched.insert(offset) {
                    continue;
                }
                let end = (offset + n.max(1)).min(len);
                let first = r.read_at(offset, (end - offset) as usize);
                prop_assert!(
                    matches!(first, Err(HiveError::Corrupt(_))),
                    "wire flip in [{offset}, {end}) missed: {:?}",
                    first.map(|b| b.len())
                );
                let retry = r.read_at(offset, (end - offset) as usize).unwrap();
                prop_assert_eq!(retry, &data[offset as usize..end as usize]);
            }
        }
    }

    /// A statement-scoped view of `fs` under the fault plan `set` configures.
    fn faulted_fs(fs: &Dfs, set: &[(&str, &str)]) -> Dfs {
        let mut conf = hive_common::HiveConf::new();
        for (k, v) in set {
            conf.set(k, *v);
        }
        fs.for_statement(FaultPlan::from_conf(&conf).unwrap(), true)
    }

    #[test]
    fn injected_transient_error_then_clean_retry() {
        let fs = small_fs();
        let mut w = fs.create("/t/fault");
        w.write(&[9u8; 100]);
        w.try_close().unwrap();
        let faulty = faulted_fs(&fs, &[("dfs.fault.read.error.rate", "1.0")]);
        let mut r = faulty.open("/t/fault", None).unwrap();
        assert!(matches!(r.read_at(0, 100), Err(HiveError::Transient(_))));
        // First-touch model: the same location succeeds on retry, and the
        // bytes are pristine.
        assert_eq!(r.read_at(0, 100).unwrap(), vec![9u8; 100]);
    }

    #[test]
    fn injected_wire_corruption_is_caught_by_crc_then_retry_is_clean() {
        let fs = small_fs();
        let mut w = fs.create("/t/wire");
        w.write(&[0xabu8; 100]);
        w.try_close().unwrap();
        let faulty = faulted_fs(&fs, &[("dfs.fault.corrupt.rate", "1.0")]);
        let mut r = faulty.open("/t/wire", None).unwrap();
        assert!(matches!(r.read_at(0, 100), Err(HiveError::Corrupt(_))));
        assert_eq!(r.read_at(0, 100).unwrap(), vec![0xabu8; 100]);
    }

    #[test]
    fn slow_nodes_accrue_simulated_penalty() {
        let fs = small_fs();
        let mut w = fs.create("/t/slow");
        w.write(&[1u8; 100]);
        w.try_close().unwrap();
        let slow = fs.locations("/t/slow", 0).unwrap()[0];
        let faulty = faulted_fs(
            &fs,
            &[
                ("dfs.fault.slow.nodes", &slow.to_string()),
                ("dfs.fault.slow.ms.per.mb", "1000"),
            ],
        );
        let before = fs.stats().snapshot();
        let mut r = faulty.open("/t/slow", Some(slow)).unwrap();
        r.read_at(0, 100).unwrap();
        let with_penalty = fs.stats().snapshot().since(&before);
        assert!(with_penalty.sim_penalty_us > 0);

        // A healthy node pays nothing.
        let healthy = (0..4).find(|n| *n != slow).unwrap();
        let before = fs.stats().snapshot();
        let mut r2 = faulty.open("/t/slow", Some(healthy)).unwrap();
        r2.read_at(0, 100).unwrap();
        assert_eq!(fs.stats().snapshot().since(&before).sim_penalty_us, 0);
    }

    #[test]
    fn failing_node_errors_every_time_but_others_serve() {
        let fs = small_fs();
        let mut w = fs.create("/t/dead");
        w.write(&[5u8; 100]);
        w.try_close().unwrap();
        let faulty = faulted_fs(&fs, &[("dfs.fault.fail.nodes", "2")]);
        let mut dead = faulty.open("/t/dead", Some(2)).unwrap();
        for _ in 0..3 {
            assert!(matches!(dead.read_at(0, 100), Err(HiveError::Transient(_))));
        }
        let mut ok = faulty.open("/t/dead", Some(0)).unwrap();
        assert_eq!(ok.read_at(0, 100).unwrap(), vec![5u8; 100]);
    }

    #[test]
    fn cached_reads_skip_wire_accounting_and_survive_reader_turnover() {
        let fs = small_fs();
        fs.set_cache_capacity(1 << 20);
        let mut w = fs.create("/t/cache");
        w.write(&[0x5au8; 150]);
        w.try_close().unwrap();

        let before = fs.stats().snapshot();
        let mut r = fs.open("/t/cache", None).unwrap();
        assert_eq!(r.read_at(0, 150).unwrap(), vec![0x5au8; 150]);
        let cold = fs.stats().snapshot().since(&before);
        assert_eq!(cold.cache_misses, 1);
        assert_eq!(cold.cache_hits, 0);
        assert_eq!(cold.bytes_remote, 150);

        // A *different* reader hits the shared cache: no bytes, ops, or
        // seeks accounted, and the payload is identical.
        let mid = fs.stats().snapshot();
        let mut r2 = fs.open("/t/cache", None).unwrap();
        assert_eq!(r2.read_at(0, 150).unwrap(), vec![0x5au8; 150]);
        let warm = fs.stats().snapshot().since(&mid);
        assert_eq!(warm.cache_hits, 1);
        assert_eq!(warm.cache_hit_bytes, 150);
        assert_eq!(warm.bytes_remote + warm.bytes_local, 0);
        assert_eq!(warm.read_ops, 0);
        assert_eq!(warm.seeks, 0);
    }

    #[test]
    fn overwrite_never_serves_stale_cached_bytes() {
        let fs = small_fs();
        fs.set_cache_capacity(1 << 20);
        let mut w = fs.create("/t/gen");
        w.write(&[1u8; 80]);
        w.try_close().unwrap();
        let g1 = fs.generation("/t/gen").unwrap();
        let mut r = fs.open("/t/gen", None).unwrap();
        assert_eq!(r.read_at(0, 80).unwrap(), vec![1u8; 80]);

        let mut w = fs.create("/t/gen");
        w.write(&[2u8; 80]);
        w.try_close().unwrap();
        assert!(fs.generation("/t/gen").unwrap() > g1);
        // The overwrite freed the old entry's bytes eagerly.
        assert_eq!(fs.cache_resident_bytes(), 0);
        let mut r2 = fs.open("/t/gen", None).unwrap();
        assert_eq!(r2.read_at(0, 80).unwrap(), vec![2u8; 80]);
    }

    #[test]
    fn faulted_fill_does_not_poison_cache() {
        let fs = small_fs();
        fs.set_cache_capacity(1 << 20);
        let mut w = fs.create("/t/fpoison");
        w.write(&[7u8; 100]);
        w.try_close().unwrap();
        let faulty = faulted_fs(&fs, &[("dfs.fault.read.error.rate", "1.0")]);
        let mut r = faulty.open("/t/fpoison", None).unwrap();
        assert!(matches!(r.read_at(0, 100), Err(HiveError::Transient(_))));
        // Nothing cached from the failed attempt...
        assert_eq!(fs.cache_resident_bytes(), 0);
        // ...and the retry both succeeds and fills.
        assert_eq!(r.read_at(0, 100).unwrap(), vec![7u8; 100]);
        assert_eq!(fs.cache_resident_bytes(), 100);
        // Subsequent readers hit without consulting the fault plan at all.
        let mut r2 = faulty.open("/t/fpoison", None).unwrap();
        assert_eq!(r2.read_at(0, 100).unwrap(), vec![7u8; 100]);
    }

    #[test]
    fn zero_capacity_disables_and_clears() {
        let fs = small_fs();
        fs.set_cache_capacity(4096);
        let mut w = fs.create("/t/off");
        w.write(&[3u8; 64]);
        w.try_close().unwrap();
        fs.open("/t/off", None).unwrap().read_at(0, 64).unwrap();
        assert_eq!(fs.cache_resident_bytes(), 64);
        fs.set_cache_capacity(0);
        assert_eq!(fs.cache_resident_bytes(), 0);
        let before = fs.stats().snapshot();
        fs.open("/t/off", None).unwrap().read_at(0, 64).unwrap();
        let after = fs.stats().snapshot().since(&before);
        // Disabled cache: plain uncached read, no cache counters move.
        assert_eq!(after.cache_hits + after.cache_misses, 0);
        assert_eq!(after.bytes_remote, 64);
    }

    #[test]
    fn statement_scopes_isolate_fault_plans_and_cache_participation() {
        let fs = small_fs();
        fs.set_cache_capacity(1 << 20);
        let mut w = fs.create("/t/scope");
        w.write(&[8u8; 100]);
        w.try_close().unwrap();

        let mut conf = hive_common::HiveConf::new();
        conf.set("dfs.fault.read.error.rate", "1.0");
        let faulty = fs.for_statement(FaultPlan::from_conf(&conf).unwrap(), true);
        let clean = fs.for_statement(None, true);
        let bypass = fs.for_statement(None, false);

        // The faulty view errors; the clean view of the same filesystem
        // never sees its plan — scopes ride on handles, not shared state.
        assert!(matches!(
            faulty.open("/t/scope", None).unwrap().read_at(0, 100),
            Err(HiveError::Transient(_))
        ));
        let mut r = clean.open("/t/scope", None).unwrap();
        assert_eq!(r.read_at(0, 100).unwrap(), vec![8u8; 100]);

        // The bypass view reads uncached even though the shared cache is
        // warm: no cache counters move, bytes go over the wire.
        let before = fs.stats().snapshot();
        let mut r = bypass.open("/t/scope", None).unwrap();
        assert_eq!(r.read_at(0, 100).unwrap(), vec![8u8; 100]);
        let after = fs.stats().snapshot().since(&before);
        assert_eq!(after.cache_hits + after.cache_misses, 0);
        assert_eq!(after.bytes_remote, 100);

        // Only a scope carries a plan: the unscoped handle is healthy.
        assert!(fs.fault_plan().is_none());
        let mut r = fs.open("/t/scope", None).unwrap();
        assert!(r.read_at(0, 100).is_ok());
    }

    #[test]
    fn statement_scope_survives_clone() {
        let fs = small_fs();
        fs.set_cache_capacity(1 << 20);
        let mut w = fs.create("/t/scopeclone");
        w.write(&[4u8; 50]);
        w.try_close().unwrap();
        // Warm the cache through an unscoped handle.
        fs.open("/t/scopeclone", None)
            .unwrap()
            .read_at(0, 50)
            .unwrap();

        // A clone of a bypass view (as handed to engine tasks) stays out
        // of the cache too.
        let bypass = fs.for_statement(None, false).clone();
        let before = fs.stats().snapshot();
        bypass
            .open("/t/scopeclone", None)
            .unwrap()
            .read_at(0, 50)
            .unwrap();
        let after = fs.stats().snapshot().since(&before);
        assert_eq!(after.cache_hits + after.cache_misses, 0);
    }

    #[test]
    fn late_fill_after_overwrite_leaves_no_resident_bytes() {
        let fs = small_fs();
        fs.set_cache_capacity(1 << 20);
        let mut w = fs.create("/t/late");
        w.write(&[1u8; 60]);
        w.try_close().unwrap();
        // Open a reader against generation 1, then overwrite the path
        // before the reader's first (filling) read completes. The fill
        // lands after invalidation and must be dropped, not parked.
        let mut r = fs.open("/t/late", None).unwrap();
        let mut w = fs.create("/t/late");
        w.write(&[2u8; 60]);
        w.try_close().unwrap();
        assert_eq!(r.read_at(0, 60).unwrap(), vec![1u8; 60]);
        assert_eq!(fs.cache_resident_bytes(), 0);
        // The live generation still caches normally.
        let mut r2 = fs.open("/t/late", None).unwrap();
        assert_eq!(r2.read_at(0, 60).unwrap(), vec![2u8; 60]);
        assert_eq!(fs.cache_resident_bytes(), 60);
    }

    #[test]
    fn rename_moves_atomically_and_rekeys_generation() {
        let fs = small_fs();
        fs.set_cache_capacity(1 << 20);
        let mut w = fs.create("/tmp/txn/t/delta.tmp");
        w.write(&[6u8; 120]);
        w.try_close().unwrap();
        let data_gen_before = fs.generation_watermark();
        fs.rename("/tmp/txn/t/delta.tmp", "/warehouse/t/delta_1")
            .unwrap();
        assert!(!fs.exists("/tmp/txn/t/delta.tmp"));
        assert_eq!(fs.len("/warehouse/t/delta_1").unwrap(), 120);
        // Scratch source does not bump the data watermark; the warehouse
        // destination does (exactly once).
        assert_eq!(fs.generation_watermark(), data_gen_before + 1);
        // Blocks are re-placed for the destination path and still verify.
        let mut r = fs.open("/warehouse/t/delta_1", None).unwrap();
        assert_eq!(r.read_all().unwrap(), vec![6u8; 120]);
        assert!(fs.rename("/no/such", "/anywhere").is_err());
    }

    #[test]
    fn write_fault_fails_publish_then_retry_is_clean() {
        let fs = small_fs();
        let faulty = faulted_fs(&fs, &[("dfs.fault.write.error.rate", "1.0")]);
        let mut w = faulty.create("/t/wf");
        w.write(&[1u8; 40]);
        assert!(matches!(w.try_close(), Err(HiveError::Transient(_))));
        assert!(!fs.exists("/t/wf"), "failed publish must leave no file");
        // First-touch: re-driving the same path succeeds.
        let mut w = faulty.create("/t/wf");
        w.write(&[1u8; 40]);
        assert_eq!(w.try_close().unwrap(), 40);
    }

    #[test]
    fn torn_write_publishes_a_strict_prefix_and_errors() {
        let fs = small_fs();
        let faulty = faulted_fs(&fs, &[("dfs.fault.write.torn.rate", "1.0")]);
        let mut w = faulty.create("/t/torn");
        w.write(&[9u8; 80]);
        assert!(matches!(w.try_close(), Err(HiveError::Transient(_))));
        // The partial file is visible — that is the fault being modeled —
        // and holds strictly fewer bytes than were written.
        let len = fs.len("/t/torn").unwrap();
        assert!(len < 80, "torn write kept {len} of 80 bytes");
    }

    #[test]
    fn rename_ack_loss_moves_the_file_but_reports_failure() {
        let fs = small_fs();
        let mut w = fs.create("/t/src");
        w.write(&[2u8; 30]);
        w.try_close().unwrap();
        let faulty = faulted_fs(&fs, &[("dfs.fault.rename.ack.lost.rate", "1.0")]);
        assert!(matches!(
            faulty.rename("/t/src", "/t/dst"),
            Err(HiveError::Transient(_))
        ));
        // The move actually happened: duplicate-retry handling probes this.
        assert!(!fs.exists("/t/src"));
        assert_eq!(fs.len("/t/dst").unwrap(), 30);
    }

    #[test]
    fn statement_scopes_isolate_write_faults_between_writers() {
        let fs = small_fs();
        let mut conf = hive_common::HiveConf::new();
        conf.set("dfs.fault.write.error.rate", "1.0");
        let faulty = fs.for_statement(FaultPlan::from_conf(&conf).unwrap(), true);
        let clean = fs.for_statement(None, true);

        // Writers capture their statement's scope at create time, so two
        // concurrent writers with different `dfs.fault.*` confs stay
        // isolated: the faulty statement's publish dies, the clean one
        // lands untouched.
        let mut wf = faulty.create("/t/iso-faulty");
        wf.write(&[1u8; 10]);
        let mut wc = clean.create("/t/iso-clean");
        wc.write(&[2u8; 10]);
        assert!(matches!(wf.try_close(), Err(HiveError::Transient(_))));
        assert_eq!(wc.try_close().unwrap(), 10);
        assert!(!fs.exists("/t/iso-faulty"));
        assert!(fs.exists("/t/iso-clean"));

        // Rename is scoped the same way.
        let mut conf = hive_common::HiveConf::new();
        conf.set("dfs.fault.rename.error.rate", "1.0");
        let faulty = fs.for_statement(FaultPlan::from_conf(&conf).unwrap(), true);
        assert!(faulty.rename("/t/iso-clean", "/t/moved").is_err());
        assert!(fs.exists("/t/iso-clean"), "faulted rename moved nothing");
        clean.rename("/t/iso-clean", "/t/moved").unwrap();
        assert!(fs.exists("/t/moved"));
    }

    #[test]
    fn listing_seeks_to_the_prefix_and_matches_a_full_filter() {
        let fs = small_fs();
        for (i, p) in [
            "/a",
            "/w/t",
            "/w/t/_manifest_0000000001",
            "/w/t/_manifest_0000000002",
            "/w/t/delta_0000000001",
            "/w/t/part-00000",
            "/w/t0",
            "/w/t2/part-00000",
            "/w/t\u{ff}/x",
            "/w/u/part-00000",
        ]
        .iter()
        .enumerate()
        {
            let mut w = fs.create(p);
            w.write(&vec![0u8; i + 1]);
            w.try_close().unwrap();
        }
        let all = fs.list("");
        assert_eq!(all.len(), 10);
        for prefix in [
            "",
            "/",
            "/w/t",
            "/w/t/",
            "/w/t/_manifest_",
            "/w/t/_manifest_0000000002",
            "/w/t2/",
            "/w/t9",
            "/z",
        ] {
            let filtered: Vec<String> = all
                .iter()
                .filter(|k| k.starts_with(prefix))
                .cloned()
                .collect();
            assert_eq!(fs.list(prefix), filtered, "list({prefix:?})");
            let bytes: u64 = filtered.iter().map(|k| fs.len(k).unwrap()).sum();
            assert_eq!(fs.size_of(prefix), bytes, "size_of({prefix:?})");
        }
        assert_eq!(
            fs.list("/w/t/").len(),
            4,
            "siblings /w/t, /w/t0, /w/t2/ stay out"
        );
    }

    #[test]
    fn list_and_size_of_prefix() {
        let fs = small_fs();
        for (p, n) in [
            ("/w/t1/part-0", 10usize),
            ("/w/t1/part-1", 20),
            ("/w/t2/x", 5),
        ] {
            let mut w = fs.create(p);
            w.write(&vec![0u8; n]);
            w.try_close().unwrap();
        }
        assert_eq!(fs.list("/w/t1/").len(), 2);
        assert_eq!(fs.size_of("/w/t1/"), 30);
        assert!(fs.delete("/w/t2/x"));
        assert!(!fs.exists("/w/t2/x"));
    }

    #[test]
    fn sorted_variants_adopt_and_open() {
        let fs = small_fs();
        let mut w = fs.create("/w/t/part-0");
        w.write(&[7u8; 250]);
        w.try_close().unwrap();
        // Stage a differently-ordered copy and adopt it as variant 1.
        let mut w = fs.create("/tmp/v1");
        w.write(&[9u8; 250]);
        w.try_close().unwrap();
        fs.adopt_variant("/w/t/part-0", "/tmp/v1", 1).unwrap();
        // The staging path left the namespace; the base file is unchanged.
        assert!(!fs.exists("/tmp/v1"));
        let mut base = fs.open("/w/t/part-0", None).unwrap();
        assert_eq!(base.read_all().unwrap(), vec![7u8; 250]);

        // Reading variant 1 serves the adopted bytes, CRC-verified.
        let mut v1 = fs.open_variant("/w/t/part-0", 1, None).unwrap();
        assert_eq!(v1.read_all().unwrap(), vec![9u8; 250]);
        assert!(fs.open_variant("/w/t/part-0", 2, None).is_err());

        // Each variant block collapses to one replica: the slot's node of
        // the base placement.
        for (b, vb) in fs
            .variant_blocks("/w/t/part-0", 0)
            .unwrap()
            .iter()
            .zip(fs.variant_blocks("/w/t/part-0", 1).unwrap())
        {
            assert_eq!(vb.replicas.len(), 1);
            assert_eq!(vb.replicas[0], b.replicas[1 % b.replicas.len()]);
        }

        assert_eq!(fs.sorted_copies("/w/t/part-0"), vec![1]);

        // Out-of-order adoption grows placeholder slots aliasing the base.
        let mut w = fs.create("/tmp/v3");
        w.write(&[3u8; 50]);
        w.try_close().unwrap();
        fs.adopt_variant("/w/t/part-0", "/tmp/v3", 3).unwrap();
        let mut v2 = fs.open_variant("/w/t/part-0", 2, None).unwrap();
        assert_eq!(v2.read_all().unwrap(), vec![7u8; 250]);
        assert_eq!(fs.sorted_copies("/w/t/part-0"), vec![1, 3]);

        // Deleting the file takes every variant with it.
        assert!(fs.delete("/w/t/part-0"));
        assert!(fs.open_variant("/w/t/part-0", 1, None).is_err());
        assert!(fs.sorted_copies("/w/t/part-0").is_empty());
    }

    #[test]
    fn read_at_an_overflowing_length_is_a_short_read() {
        let fs = small_fs();
        let mut w = fs.create("/t/huge");
        w.write(b"hello world");
        w.try_close().unwrap();
        let mut r = fs.open("/t/huge", None).unwrap();
        assert_eq!(r.read_at(1, usize::MAX).unwrap(), b"ello world");
        assert_eq!(r.read_at(11, usize::MAX).unwrap(), b"");
        // The cached path clamps the same way.
        fs.set_cache_capacity(1 << 20);
        assert_eq!(r.read_at(1, usize::MAX).unwrap(), b"ello world");
    }

    #[test]
    fn renamed_and_adopted_copies_share_the_published_bytes() {
        let fs = small_fs();
        for (path, byte) in [("/tmp/t/base", 1u8), ("/tmp/t/sorted", 2)] {
            let mut w = fs.create(path);
            w.write(&[byte; 250]);
            w.try_close().unwrap();
        }
        let published = fs.entry("/tmp/t/base", 0).unwrap();
        fs.rename("/tmp/t/base", "/w/t/part-0").unwrap();
        let moved = fs.entry("/w/t/part-0", 0).unwrap();
        assert!(Arc::ptr_eq(&published.data, &moved.data));

        // The staged copy is tampered at rest before adoption: it moves
        // with the checksums it was published with, so the flip stays
        // detectable instead of being rehashed into the copy.
        fs.corrupt_stored("/tmp/t/sorted", 10, 0x40).unwrap();
        let staged = fs.entry("/tmp/t/sorted", 0).unwrap();
        fs.adopt_variant("/w/t/part-0", "/tmp/t/sorted", 2).unwrap();
        let adopted = fs.entry("/w/t/part-0", 2).unwrap();
        assert!(Arc::ptr_eq(&staged.data, &adopted.data));
        assert_eq!(staged.chunk_crcs, adopted.chunk_crcs);
        let mut r = fs.open_variant("/w/t/part-0", 2, None).unwrap();
        assert!(matches!(r.read_at(0, 20), Err(HiveError::Corrupt(_))));
        assert_eq!(r.read_at(100, 100).unwrap(), vec![2u8; 100]);

        // The unfilled slot below aliases the base entry itself.
        let alias = fs.entry("/w/t/part-0", 1).unwrap();
        assert!(Arc::ptr_eq(&alias, &moved));
    }

    #[test]
    fn adopting_into_a_missing_file_keeps_the_staged_file() {
        let fs = small_fs();
        let mut w = fs.create("/tmp/t/sorted");
        w.write(&[3u8; 40]);
        w.try_close().unwrap();
        assert!(fs.adopt_variant("/w/none", "/tmp/t/sorted", 1).is_err());
        assert_eq!(fs.len("/tmp/t/sorted").unwrap(), 40);
    }
}
