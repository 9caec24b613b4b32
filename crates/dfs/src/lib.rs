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
//! simulated.

pub mod cache;
pub mod crc;
pub mod fault;
pub mod stats;

pub use fault::{FaultOutcome, FaultPlan, RenameFaultOutcome, WriteFaultOutcome};
pub use stats::{IoScope, IoScopeGuard, IoSnapshot, IoStats};

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

#[derive(Debug)]
struct FileEntry {
    data: Vec<u8>,
    block_size: u64,
    blocks: Vec<BlockInfo>,
    /// CRC32 of each [`BYTES_PER_CHECKSUM`] chunk of each block, block by
    /// block, computed when the file was published. Readers verify the
    /// chunks a read returns against these before serving data.
    chunk_crcs: Vec<u32>,
    /// Monotonic per-filesystem generation, bumped every time the path is
    /// (re)published or tampered with. Cache keys include it, so entries
    /// for an overwritten file are structurally unreachable.
    generation: u64,
    /// Column this copy's rows are clustered on (HAIL-style per-replica
    /// sort orders); empty for insertion order.
    sort_column: String,
    /// Alternative sorted copies of this file, one per extra replica slot
    /// (variant `k` lives on replica slot `k`; the base entry is variant 0
    /// and always keeps insertion order). Each variant carries its own
    /// generation, so block- and metadata-cache keys never collide across
    /// copies. Empty for ordinary files.
    variants: Vec<Arc<FileEntry>>,
}

/// Bytes covered by one stored checksum: HDFS's default
/// `dfs.bytes-per-checksum`. Chunks start at each block's offset, so a
/// block's last chunk may be short and any block size works.
pub const BYTES_PER_CHECKSUM: u64 = 512;

/// CRC32 of every checksum chunk of `data` stored in `block_size`-byte
/// blocks, block by block.
fn chunk_crcs(data: &[u8], block_size: u64) -> Vec<u32> {
    data.chunks(block_size as usize)
        .flat_map(|block| block.chunks(BYTES_PER_CHECKSUM as usize))
        .map(crc::crc32)
        .collect()
}

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
    files: RwLock<BTreeMap<String, Arc<FileEntry>>>,
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
        self.inner.files.read().get(path).map(|f| f.generation)
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

    /// The fault plan of this handle's statement scope. An unscoped handle
    /// sees a healthy cluster.
    pub fn fault_plan(&self) -> Option<Arc<FaultPlan>> {
        self.scope.as_ref().and_then(|scope| scope.fault.clone())
    }

    /// Whether reads through this handle participate in the block cache.
    fn cache_enabled_here(&self) -> bool {
        self.scope.as_ref().is_none_or(|s| s.cache_enabled)
    }

    /// Create a file for writing. Overwrites any existing file at `path`
    /// (HDFS semantics would forbid this; tests rely on replacement).
    pub fn create(&self, path: &str) -> DfsWriter {
        self.create_with_block_size(path, self.inner.config.block_size)
    }

    /// Create a file with a non-default block size (Hive sets per-file block
    /// sizes for ORC when aligning stripes).
    pub fn create_with_block_size(&self, path: &str, block_size: u64) -> DfsWriter {
        DfsWriter {
            dfs: self.clone(),
            path: path.to_string(),
            block_size: block_size.max(1),
            data: Vec::new(),
            closed: false,
        }
    }

    /// Open a file for positional reads from the perspective of `reader_node`
    /// (locality accounting uses it). Pass `None` for a client outside the
    /// cluster (every read counts as remote).
    pub fn open(&self, path: &str, reader_node: Option<NodeId>) -> Result<DfsReader> {
        let entry = self
            .inner
            .files
            .read()
            .get(path)
            .cloned()
            .ok_or_else(|| HiveError::Dfs(format!("no such file: {path}")))?;
        Ok(DfsReader {
            dfs: self.clone(),
            path: path.to_string(),
            entry,
            reader_node,
            last_end: None,
        })
    }

    /// Open a specific sorted copy of `path` for reading. Variant `0` is
    /// the base file (identical to [`Dfs::open`]); variant `k > 0` is the
    /// copy adopted into replica slot `k` via [`Dfs::adopt_variant`].
    pub fn open_variant(
        &self,
        path: &str,
        variant: usize,
        reader_node: Option<NodeId>,
    ) -> Result<DfsReader> {
        if variant == 0 {
            return self.open(path, reader_node);
        }
        let base = self
            .inner
            .files
            .read()
            .get(path)
            .cloned()
            .ok_or_else(|| HiveError::Dfs(format!("no such file: {path}")))?;
        let entry = base.variants.get(variant - 1).cloned().ok_or_else(|| {
            HiveError::Dfs(format!(
                "no variant {variant} of {path} ({} available)",
                base.variants.len() + 1
            ))
        })?;
        Ok(DfsReader {
            dfs: self.clone(),
            path: path.to_string(),
            entry,
            reader_node,
            last_end: None,
        })
    }

    /// Adopt the file at `tmp_path` as sorted variant `slot` (1-based) of
    /// `dest`, recording the column its rows are clustered on. The bytes
    /// move out of the namespace at `tmp_path` and become reachable only
    /// through `dest`'s variant list. Each variant block is hosted on a
    /// single node — the `slot`-th replica of the base placement — so the
    /// copy models HAIL's "each replica holds a different sort order" at
    /// zero extra logical-storage cost.
    pub fn adopt_variant(
        &self,
        dest: &str,
        tmp_path: &str,
        slot: usize,
        sort_column: &str,
    ) -> Result<()> {
        if slot == 0 {
            return Err(HiveError::Dfs(
                "variant slot 0 is the base file; sorted variants start at 1".into(),
            ));
        }
        let mut files = self.inner.files.write();
        let tmp = files
            .remove(tmp_path)
            .ok_or_else(|| HiveError::Dfs(format!("no such file: {tmp_path}")))?;
        let base = files
            .get(dest)
            .cloned()
            .ok_or_else(|| HiveError::Dfs(format!("no such file: {dest}")))?;
        // Same-path placement, reduced to the slot's replica: block i of
        // variant k sits on the node holding replica k of base block i.
        let repl = self
            .inner
            .config
            .replication
            .clamp(1, self.inner.config.nodes.max(1));
        let blocks: Vec<BlockInfo> = placement(
            dest,
            tmp.data.len() as u64,
            tmp.block_size,
            &self.inner.config,
        )
        .into_iter()
        .map(|b| BlockInfo {
            offset: b.offset,
            len: b.len,
            replicas: vec![b.replicas[slot % repl.max(1)]],
        })
        .collect();
        let generation = self.inner.next_gen.fetch_add(1, Ordering::Relaxed);
        let variant = Arc::new(FileEntry {
            data: tmp.data.clone(),
            block_size: tmp.block_size,
            chunk_crcs: chunk_crcs(&tmp.data, tmp.block_size),
            blocks,
            generation,
            sort_column: sort_column.to_string(),
            variants: Vec::new(),
        });
        let mut variants = base.variants.clone();
        while variants.len() < slot {
            // Unfilled intermediate slots alias the base bytes: a reader
            // landing there sees insertion order, never an error.
            variants.push(Arc::new(FileEntry {
                data: base.data.clone(),
                block_size: base.block_size,
                blocks: base.blocks.clone(),
                chunk_crcs: base.chunk_crcs.clone(),
                generation: base.generation,
                sort_column: String::new(),
                variants: Vec::new(),
            }));
        }
        variants[slot - 1] = variant;
        let updated = Arc::new(FileEntry {
            data: base.data.clone(),
            block_size: base.block_size,
            blocks: base.blocks.clone(),
            chunk_crcs: base.chunk_crcs.clone(),
            generation: base.generation,
            sort_column: base.sort_column.clone(),
            variants,
        });
        files.insert(dest.to_string(), updated);
        drop(files);
        self.inner
            .cache
            .invalidate_path(tmp_path, tmp.generation + 1);
        self.bump_data_gen(dest);
        Ok(())
    }

    /// Sort columns of every copy of `path`, by variant index (entry 0 is
    /// the base file and is always empty = insertion order).
    pub fn variant_sort_columns(&self, path: &str) -> Result<Vec<String>> {
        let files = self.inner.files.read();
        let f = files
            .get(path)
            .ok_or_else(|| HiveError::Dfs(format!("no such file: {path}")))?;
        let mut cols = vec![f.sort_column.clone()];
        cols.extend(f.variants.iter().map(|v| v.sort_column.clone()));
        Ok(cols)
    }

    /// Block metadata of variant `v` of `path` (`0` = the base file).
    pub fn variant_blocks(&self, path: &str, variant: usize) -> Result<Vec<BlockInfo>> {
        let files = self.inner.files.read();
        let f = files
            .get(path)
            .ok_or_else(|| HiveError::Dfs(format!("no such file: {path}")))?;
        if variant == 0 {
            return Ok(f.blocks.clone());
        }
        f.variants
            .get(variant - 1)
            .map(|v| v.blocks.clone())
            .ok_or_else(|| HiveError::Dfs(format!("no variant {variant} of {path}")))
    }

    /// Replica selection (HAIL): given the columns a pushed-down predicate
    /// constrains, pick the copy of `path` whose clustered sort order
    /// serves it best. Returns `Some((variant, sort_column))` for the
    /// first sorted copy clustered on a predicate column; `None` means no
    /// copy helps and the caller should fall back to locality over the
    /// base replicas.
    pub fn select_variant(&self, path: &str, pred_cols: &[String]) -> Option<(usize, String)> {
        let files = self.inner.files.read();
        let f = files.get(path)?;
        for (i, v) in f.variants.iter().enumerate() {
            if !v.sort_column.is_empty() && pred_cols.iter().any(|c| *c == v.sort_column) {
                return Some((i + 1, v.sort_column.clone()));
            }
        }
        None
    }

    pub fn exists(&self, path: &str) -> bool {
        self.inner.files.read().contains_key(path)
    }

    pub fn len(&self, path: &str) -> Result<u64> {
        self.inner
            .files
            .read()
            .get(path)
            .map(|f| f.data.len() as u64)
            .ok_or_else(|| HiveError::Dfs(format!("no such file: {path}")))
    }

    /// Whether the namespace holds no files.
    pub fn is_empty(&self) -> bool {
        self.inner.files.read().is_empty()
    }

    pub fn delete(&self, path: &str) -> bool {
        let removed = self.inner.files.write().remove(path);
        if let Some(entry) = &removed {
            // Floor above the highest generation any copy carries: a fill
            // still in flight for the base *or a sorted variant* is
            // dropped at completion instead of being parked.
            let top = entry
                .variants
                .iter()
                .map(|v| v.generation)
                .fold(entry.generation, u64::max);
            self.inner.cache.invalidate_path(path, top + 1);
            self.bump_data_gen(path);
        }
        removed.is_some()
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
            .map(|(_, f)| f.data.len() as u64)
            .sum()
    }

    /// Block metadata for a file (what the JobTracker asks the NameNode).
    pub fn blocks(&self, path: &str) -> Result<Vec<BlockInfo>> {
        self.inner
            .files
            .read()
            .get(path)
            .map(|f| f.blocks.clone())
            .ok_or_else(|| HiveError::Dfs(format!("no such file: {path}")))
    }

    /// Nodes holding the block containing `offset` of `path`.
    pub fn locations(&self, path: &str, offset: u64) -> Result<Vec<NodeId>> {
        let files = self.inner.files.read();
        let f = files
            .get(path)
            .ok_or_else(|| HiveError::Dfs(format!("no such file: {path}")))?;
        Ok(block_for(f, offset)
            .map(|b| b.replicas.clone())
            .unwrap_or_default())
    }

    /// Flip `mask` into the stored byte at `pos` of `path` *without*
    /// recomputing checksums — simulating at-rest corruption of a replica.
    /// Every later read returning a byte of that checksum chunk fails its
    /// CRC check. Test/chaos hook.
    pub fn corrupt_stored(&self, path: &str, pos: u64, mask: u8) -> Result<()> {
        let mut files = self.inner.files.write();
        let entry = files
            .get(path)
            .ok_or_else(|| HiveError::Dfs(format!("no such file: {path}")))?;
        if pos >= entry.data.len() as u64 {
            return Err(HiveError::Dfs(format!(
                "corrupt_stored at {pos} past end of {path} ({} bytes)",
                entry.data.len()
            )));
        }
        let mut data = entry.data.clone();
        data[pos as usize] ^= mask;
        let generation = self.inner.next_gen.fetch_add(1, Ordering::Relaxed);
        let tampered = Arc::new(FileEntry {
            data,
            block_size: entry.block_size,
            blocks: entry.blocks.clone(),
            chunk_crcs: entry.chunk_crcs.clone(), // stale on purpose
            generation,
            sort_column: entry.sort_column.clone(),
            variants: entry.variants.clone(),
        });
        files.insert(path.to_string(), tampered);
        drop(files);
        self.inner.cache.invalidate_path(path, generation);
        self.bump_data_gen(path);
        Ok(())
    }

    /// Atomically move `from` to `to` (namenode metadata operation: readers
    /// see either the old namespace or the new one, never a partial copy).
    /// The destination gets a fresh generation and path-keyed block
    /// placement but keeps the stored checksums: placement moves replicas,
    /// never block boundaries, and a namenode operation never rehashes
    /// data (so an at-rest corruption stays detectable after the move). An
    /// existing file at `to` is replaced. Consults the
    /// handle's (statement-scoped) fault plan: a rename can fail without
    /// moving anything, or move the file and *then* report failure (lost
    /// ack) — callers with commit semantics must probe for the latter.
    pub fn rename(&self, from: &str, to: &str) -> Result<()> {
        let outcome = self
            .fault_plan()
            .map(|p| p.decide_rename(from))
            .unwrap_or(fault::RenameFaultOutcome::Success);
        if outcome == fault::RenameFaultOutcome::TransientError {
            return Err(HiveError::Transient(format!(
                "injected rename failure: {from} -> {to}"
            )));
        }
        let mut files = self.inner.files.write();
        let entry = files
            .remove(from)
            .ok_or_else(|| HiveError::Dfs(format!("no such file: {from}")))?;
        let generation = self.inner.next_gen.fetch_add(1, Ordering::Relaxed);
        let blocks = placement(
            to,
            entry.data.len() as u64,
            entry.block_size,
            &self.inner.config,
        );
        let moved = Arc::new(FileEntry {
            data: entry.data.clone(),
            block_size: entry.block_size,
            blocks,
            chunk_crcs: entry.chunk_crcs.clone(),
            generation,
            sort_column: entry.sort_column.clone(),
            // Sorted variants do not follow a rename: the delta/compaction
            // paths that rename never write them, and a fresh destination
            // generation keys the caches either way.
            variants: Vec::new(),
        });
        files.insert(to.to_string(), moved);
        drop(files);
        self.inner.cache.invalidate_path(from, entry.generation + 1);
        self.inner.cache.invalidate_path(to, generation);
        self.bump_data_gen(from);
        self.bump_data_gen(to);
        if outcome == fault::RenameFaultOutcome::AckLost {
            return Err(HiveError::Transient(format!(
                "injected rename ack loss: {from} -> {to} (the move happened)"
            )));
        }
        Ok(())
    }

    fn finish_file(&self, path: String, data: Vec<u8>, block_size: u64) {
        let blocks = placement(&path, data.len() as u64, block_size, &self.inner.config);
        let chunk_crcs = chunk_crcs(&data, block_size);
        self.inner.stats.add_bytes_written(data.len() as u64);
        let generation = self.inner.next_gen.fetch_add(1, Ordering::Relaxed);
        let blocks_entry = Arc::new(FileEntry {
            data,
            block_size,
            blocks,
            chunk_crcs,
            generation,
            sort_column: String::new(),
            variants: Vec::new(),
        });
        self.inner.files.write().insert(path.clone(), blocks_entry);
        // Overwrite invalidation: generations already make the old entries
        // unreachable; dropping them eagerly frees their bytes, and the
        // floor at the new generation dooms fills still in flight for the
        // old one.
        self.inner.cache.invalidate_path(&path, generation);
        self.bump_data_gen(&path);
    }
}

/// The namespace entries whose path starts with `prefix`. Paths sharing a
/// prefix are contiguous in the ordered map, so this seeks to the first
/// and stops at the first that does not match: O(log n + matches), where
/// filtering every key is O(n) in a namespace that only grows.
fn under<'a>(
    files: &'a BTreeMap<String, Arc<FileEntry>>,
    prefix: &'a str,
) -> impl Iterator<Item = (&'a String, &'a Arc<FileEntry>)> {
    files
        .range::<str, _>((Bound::Included(prefix), Bound::Unbounded))
        .take_while(move |(k, _)| k.starts_with(prefix))
}

fn block_for(f: &FileEntry, offset: u64) -> Option<&BlockInfo> {
    if f.block_size == 0 {
        return None;
    }
    let idx = (offset / f.block_size) as usize;
    f.blocks.get(idx)
}

/// Deterministic replica placement: hash of (path, block index) picks the
/// first replica, the rest go to consecutive nodes — stable across runs so
/// experiments are reproducible.
fn placement(path: &str, len: u64, block_size: u64, cfg: &DfsConfig) -> Vec<BlockInfo> {
    let nodes = cfg.nodes.max(1);
    let repl = cfg.replication.clamp(1, nodes);
    let mut h: u64 = 0xcbf29ce484222325;
    for b in path.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
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

/// Append-only writer. Bytes become visible (and placed) on [`close`].
///
/// [`close`]: DfsWriter::close
pub struct DfsWriter {
    dfs: Dfs,
    path: String,
    block_size: u64,
    data: Vec<u8>,
    closed: bool,
}

impl DfsWriter {
    pub fn write(&mut self, bytes: &[u8]) {
        debug_assert!(!self.closed, "write after close");
        self.data.extend_from_slice(bytes);
    }

    /// Current write position (file length so far).
    pub fn position(&self) -> u64 {
        self.data.len() as u64
    }

    /// Bytes left before the current block boundary. ORC's writer consults
    /// this to decide whether the next stripe would straddle a block and
    /// should be preceded by padding (Section 4.1).
    pub fn block_remaining(&self) -> u64 {
        let pos = self.data.len() as u64;
        let used = pos % self.block_size;
        if used == 0 {
            self.block_size
        } else {
            self.block_size - used
        }
    }

    pub fn block_size(&self) -> u64 {
        self.block_size
    }

    /// Write `n` zero bytes (stripe padding).
    pub fn pad(&mut self, n: u64) {
        self.data.extend(std::iter::repeat_n(0u8, n as usize));
    }

    /// Finish the file: compute block placement and publish it.
    ///
    /// Infallible convenience over [`DfsWriter::try_close`] for the many
    /// callers that never write under an injected fault plan; panics if a
    /// write fault fires. Fault-aware paths (the ACID commit protocol)
    /// must use `try_close`.
    pub fn close(self) -> u64 {
        let path = self.path.clone();
        self.try_close().unwrap_or_else(|e| {
            panic!("close({path}) hit an injected write fault ({e}); use try_close")
        })
    }

    /// Finish the file, consulting the handle's (statement-scoped) fault
    /// plan: the publish can fail cleanly (nothing lands) or land *torn* —
    /// a strict byte prefix becomes visible and the writer still gets an
    /// error, modeling a client death mid-write. Both surface as retryable
    /// [`HiveError::Transient`]; first-touch semantics make the retry of
    /// the same path clean.
    pub fn try_close(mut self) -> Result<u64> {
        self.closed = true;
        let len = self.data.len() as u64;
        let data = std::mem::take(&mut self.data);
        if let Some(plan) = self.dfs.fault_plan() {
            match plan.decide_write(&self.path, len) {
                WriteFaultOutcome::Success => {}
                WriteFaultOutcome::TransientError => {
                    return Err(HiveError::Transient(format!(
                        "injected write failure: {} ({len} bytes lost)",
                        self.path
                    )));
                }
                WriteFaultOutcome::Torn { keep } => {
                    let mut torn = data;
                    torn.truncate(keep as usize);
                    self.dfs
                        .clone()
                        .finish_file(self.path.clone(), torn, self.block_size);
                    return Err(HiveError::Transient(format!(
                        "injected torn write: {} kept {keep}/{len} bytes",
                        self.path
                    )));
                }
            }
        }
        self.dfs
            .clone()
            .finish_file(self.path.clone(), data, self.block_size);
        Ok(len)
    }
}

/// Bytes returned by [`DfsReader::read_at`]: either freshly read (owned)
/// or a zero-copy handle into the shared block cache. Derefs to `[u8]`,
/// so slicing/indexing and `&buf` as `&[u8]` work directly; call
/// [`DfsBuf::into_vec`] only when an owned `Vec<u8>` is genuinely needed.
#[derive(Clone)]
pub struct DfsBuf(BufRepr);

#[derive(Clone)]
enum BufRepr {
    Owned(Vec<u8>),
    Shared(Arc<Vec<u8>>),
}

impl DfsBuf {
    fn owned(bytes: Vec<u8>) -> DfsBuf {
        DfsBuf(BufRepr::Owned(bytes))
    }

    fn shared(bytes: Arc<Vec<u8>>) -> DfsBuf {
        DfsBuf(BufRepr::Shared(bytes))
    }

    /// The bytes behind a shared handle a decoder can keep windows into:
    /// the block cache's own allocation on a hit, this read's otherwise.
    /// Never copies.
    pub fn into_shared(self) -> Arc<Vec<u8>> {
        match self.0 {
            BufRepr::Owned(v) => Arc::new(v),
            BufRepr::Shared(a) => a,
        }
    }

    /// Extract an owned vector; copies only when the bytes are shared
    /// with the block cache.
    pub fn into_vec(self) -> Vec<u8> {
        match self.0 {
            BufRepr::Owned(v) => v,
            BufRepr::Shared(a) => Arc::try_unwrap(a).unwrap_or_else(|a| (*a).clone()),
        }
    }
}

impl std::ops::Deref for DfsBuf {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        match &self.0 {
            BufRepr::Owned(v) => v,
            BufRepr::Shared(a) => a,
        }
    }
}

impl AsRef<[u8]> for DfsBuf {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl std::fmt::Debug for DfsBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(&**self, f)
    }
}

impl<T: AsRef<[u8]> + ?Sized> PartialEq<T> for DfsBuf {
    fn eq(&self, other: &T) -> bool {
        **self == *other.as_ref()
    }
}

impl Eq for DfsBuf {}

/// Positional reader with locality and seek accounting, checksum
/// verification, and fault injection.
pub struct DfsReader {
    dfs: Dfs,
    path: String,
    entry: Arc<FileEntry>,
    reader_node: Option<NodeId>,
    /// End offset of the previous read; a gap means a disk seek.
    last_end: Option<u64>,
}

impl DfsReader {
    pub fn len(&self) -> u64 {
        self.entry.data.len() as u64
    }

    pub fn is_empty(&self) -> bool {
        self.entry.data.is_empty()
    }

    /// Generation of the file snapshot this reader holds.
    pub fn generation(&self) -> u64 {
        self.entry.generation
    }

    /// Read `len` bytes at `offset`. Short reads at EOF return fewer bytes.
    ///
    /// When the block cache is enabled (and the handle's statement scope
    /// participates in it), the exact range `(path, generation, offset,
    /// end)` is served from cache on a hit — no wire transfer, no fault
    /// injection, no re-verification (the bytes were CRC-checked when
    /// filled), and no copy: the returned [`DfsBuf`] shares the cached
    /// allocation. Misses claim a single-flight fill slot: exactly one
    /// reader performs the uncached read (and pays its accounting) per
    /// distinct range, concurrent readers of the same range block and then
    /// hit. A failed or panicking fill leaves no entry behind, so the
    /// cache can never hold partial data from a faulted read.
    pub fn read_at(&mut self, offset: u64, len: usize) -> Result<DfsBuf> {
        let total = self.entry.data.len() as u64;
        if offset > total {
            return Err(HiveError::Dfs(format!(
                "read at {offset} past end of file ({total} bytes)"
            )));
        }
        let end = (offset + len as u64).min(total);
        if end <= offset || !self.dfs.cache_enabled_here() {
            // Empty reads carry no payload worth caching; a scoped-out
            // statement takes the pre-cache path byte-for-byte.
            return self.read_at_uncached(offset, end).map(DfsBuf::owned);
        }
        let key = (self.path.clone(), self.entry.generation, offset, end);
        // Borrow the cache through a local handle so the fill guard's
        // lifetime does not pin `self` (the fill path reads through
        // `&mut self` while holding the guard).
        let dfs = self.dfs.clone();
        let result = match dfs.inner.cache.lookup_or_begin_fill(&key) {
            cache::Lookup::Hit(bytes) => {
                self.dfs.stats().add_cache_hit(bytes.len() as u64);
                // Keep seek bookkeeping consistent for later misses.
                self.last_end = Some(end);
                Ok(DfsBuf::shared(bytes))
            }
            cache::Lookup::Fill(guard) => {
                // On error the guard's drop aborts the fill and wakes
                // waiters; nothing partial is ever published.
                let data = Arc::new(self.read_at_uncached(offset, end)?);
                self.dfs.stats().add_cache_miss();
                let evicted = guard.complete(Arc::clone(&data));
                if evicted > 0 {
                    self.dfs.stats().add_cache_evictions(evicted);
                }
                Ok(DfsBuf::shared(data))
            }
            cache::Lookup::Bypass => self.read_at_uncached(offset, end).map(DfsBuf::owned),
        };
        result
    }

    /// The pre-cache read path: wire accounting, locality split, fault
    /// injection, and CRC verification. `end` is already clamped to EOF.
    fn read_at_uncached(&mut self, offset: u64, end: u64) -> Result<Vec<u8>> {
        let len = (end - offset) as usize;
        let slice = &self.entry.data[offset as usize..end as usize];

        // Seek accounting: any non-contiguous read is one seek. The first
        // read of a file is a seek too (open + position).
        let seeks = match self.last_end {
            Some(prev) if prev == offset => 0,
            _ => 1,
        };
        self.last_end = Some(end);

        // Locality: split the read across blocks, count each span local or
        // remote depending on whether the reader node hosts a replica.
        let stats = self.dfs.stats();
        stats.add_read_op(seeks);
        let mut cur = offset;
        while cur < end {
            let Some(block) = block_for(&self.entry, cur) else {
                break;
            };
            let span_end = (block.offset + block.len).min(end);
            let span = span_end - cur;
            let local = match self.reader_node {
                Some(node) => block.replicas.contains(&node),
                None => false,
            };
            if local {
                stats.add_bytes_local(span);
            } else {
                stats.add_bytes_remote(span);
            }
            cur = span_end;
            if span == 0 {
                break;
            }
        }

        let plan = self.dfs.fault_plan();
        let mut data = slice.to_vec();
        let mut wire_flip: Option<(u64, u8)> = None;
        if let Some(plan) = &plan {
            // Straggler latency is simulated time, priced by the cost
            // model; it never blocks the actual thread.
            if let Some(node) = self.reader_node {
                if plan.is_slow(node) && end > offset {
                    stats.add_sim_penalty_us(plan.slow_penalty_us(end - offset));
                }
            }
            match plan.decide_read(&self.path, self.reader_node, offset, (end - offset).max(1)) {
                FaultOutcome::Success => {}
                FaultOutcome::TransientError => {
                    return Err(HiveError::Transient(format!(
                        "injected read failure: {}@{offset}+{len}",
                        self.path
                    )));
                }
                FaultOutcome::CorruptByte { pos, mask } => {
                    if !data.is_empty() {
                        let i = (pos as usize).min(data.len() - 1);
                        data[i] ^= mask;
                        wire_flip = Some((offset + i as u64, mask));
                    }
                }
            }
        }
        self.verify_chunks(offset, end, wire_flip)?;
        Ok(data)
    }

    /// CRC-check every checksum chunk overlapping `[offset, end)` — the
    /// bytes the read returns, rounded out to chunk boundaries — and count
    /// those bytes as verified. A wire flip is checked in its chunk's
    /// flipped image, so the corruption is caught on this very read.
    /// Verification models the datanode checksumming its own disk — it
    /// performs no client I/O.
    fn verify_chunks(&self, offset: u64, end: u64, wire_flip: Option<(u64, u8)>) -> Result<()> {
        let entry = &self.entry;
        let (block_size, total) = (entry.block_size, entry.data.len() as u64);
        let per_block = block_size.div_ceil(BYTES_PER_CHECKSUM);
        let mut cur = offset;
        let mut verified = 0;
        let mut result = Ok(());
        while cur < end {
            let (block, within) = (cur / block_size, cur % block_size);
            let chunk = within / BYTES_PER_CHECKSUM;
            let start = cur - within % BYTES_PER_CHECKSUM;
            let stop = (start + BYTES_PER_CHECKSUM)
                .min((block + 1) * block_size)
                .min(total);
            let raw = &entry.data[start as usize..stop as usize];
            let crc = match wire_flip {
                Some((pos, mask)) if (start..stop).contains(&pos) => {
                    // The flipped image's CRC, in three pieces around the flip.
                    let i = (pos - start) as usize;
                    let mut c = crc::Crc32::new();
                    c.update(&raw[..i]);
                    c.update(&[raw[i] ^ mask]);
                    c.update(&raw[i + 1..]);
                    c.finish()
                }
                _ => crc::crc32(raw),
            };
            verified += stop - start;
            let expected = entry.chunk_crcs[(block * per_block + chunk) as usize];
            if crc != expected {
                result = Err(HiveError::Corrupt(format!(
                    "checksum mismatch in block {block}, chunk {chunk} of {} \
                     (expected {expected:#010x}, got {crc:#010x})",
                    self.path
                )));
                break;
            }
            cur = stop;
        }
        self.dfs.stats().add_bytes_verified(verified);
        result
    }

    /// Read the whole file into an owned vector (convenience for
    /// footers/tests).
    pub fn read_all(&mut self) -> Result<Vec<u8>> {
        let len = self.len() as usize;
        Ok(self.read_at(0, len)?.into_vec())
    }
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
        fs.create("/tmp/query-1/part-m-00000").close();
        fs.delete("/tmp/query-1/part-m-00000");
        assert_eq!(fs.generation_watermark(), start);
        // Table publishes, tampering, and deletes each move it.
        let mut w = fs.create("/warehouse/t/part-0");
        w.write(b"rows");
        w.close();
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
        assert_eq!(w.close(), 11);
        let mut r = fs.open("/t/a", None).unwrap();
        assert_eq!(r.read_all().unwrap(), b"hello world");
        assert_eq!(fs.len("/t/a").unwrap(), 11);
    }

    #[test]
    fn blocks_split_at_block_size() {
        let fs = small_fs();
        let mut w = fs.create("/t/b");
        w.write(&vec![7u8; 250]);
        w.close();
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
            w.close();
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
        w.close();
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
        w.close();
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
        w.close();
        let mut r = fs.open("/t/f", None).unwrap();
        assert_eq!(r.read_at(1, 10).unwrap(), b"bc");
        assert!(r.read_at(4, 1).is_err());
    }

    #[test]
    fn flipped_stored_byte_yields_checksum_error_not_garbage() {
        let fs = small_fs();
        let mut w = fs.create("/t/crc");
        w.write(&vec![0x11u8; 250]); // 3 blocks of 100/100/50
        w.close();
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
        w.close();
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
        w.close();
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
            w.close();
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
            w.close();
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
        w.close();
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
        w.close();
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
        w.close();
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
        w.close();
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
        w.close();

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
        w.close();
        let g1 = fs.generation("/t/gen").unwrap();
        let mut r = fs.open("/t/gen", None).unwrap();
        assert_eq!(r.read_at(0, 80).unwrap(), vec![1u8; 80]);

        let mut w = fs.create("/t/gen");
        w.write(&[2u8; 80]);
        w.close();
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
        w.close();
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
        w.close();
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
        w.close();

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
        w.close();
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
        w.close();
        // Open a reader against generation 1, then overwrite the path
        // before the reader's first (filling) read completes. The fill
        // lands after invalidation and must be dropped, not parked.
        let mut r = fs.open("/t/late", None).unwrap();
        let mut w = fs.create("/t/late");
        w.write(&[2u8; 60]);
        w.close();
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
        w.close();
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
        w.close();
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
            w.close();
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
            w.close();
        }
        assert_eq!(fs.list("/w/t1/").len(), 2);
        assert_eq!(fs.size_of("/w/t1/"), 30);
        assert!(fs.delete("/w/t2/x"));
        assert!(!fs.exists("/w/t2/x"));
    }

    #[test]
    fn sorted_variants_adopt_open_and_select() {
        let fs = small_fs();
        let mut w = fs.create("/w/t/part-0");
        w.write(&[7u8; 250]);
        w.close();
        // Stage a differently-ordered copy and adopt it as variant 1.
        let mut w = fs.create("/tmp/v1");
        w.write(&[9u8; 250]);
        w.close();
        fs.adopt_variant("/w/t/part-0", "/tmp/v1", 1, "k").unwrap();
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

        // Selection matches the predicate column against variant sort
        // orders; unknown columns fall back to the base replicas.
        assert_eq!(
            fs.variant_sort_columns("/w/t/part-0").unwrap(),
            vec![String::new(), "k".to_string()]
        );
        assert_eq!(
            fs.select_variant("/w/t/part-0", &["v".into(), "k".into()]),
            Some((1, "k".to_string()))
        );
        assert_eq!(fs.select_variant("/w/t/part-0", &["v".into()]), None);

        // Out-of-order adoption grows placeholder slots aliasing the base.
        let mut w = fs.create("/tmp/v3");
        w.write(&[3u8; 50]);
        w.close();
        fs.adopt_variant("/w/t/part-0", "/tmp/v3", 3, "s").unwrap();
        let mut v2 = fs.open_variant("/w/t/part-0", 2, None).unwrap();
        assert_eq!(v2.read_all().unwrap(), vec![7u8; 250]);
        assert_eq!(
            fs.select_variant("/w/t/part-0", &["s".into()]),
            Some((3, "s".to_string()))
        );

        // Deleting the file takes every variant with it.
        assert!(fs.delete("/w/t/part-0"));
        assert!(fs.open_variant("/w/t/part-0", 1, None).is_err());
    }
}
