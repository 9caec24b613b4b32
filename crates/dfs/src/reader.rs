//! The read path: [`DfsReader`]'s positional reads with locality and seek
//! accounting, fault injection, per-chunk checksum verification and the
//! shared block cache, and the [`DfsBuf`] they return.

use crate::{cache, crc, Dfs, FaultOutcome, FileEntry, NodeId, BYTES_PER_CHECKSUM};
use hive_common::{HiveError, Result};
use std::sync::Arc;

impl Dfs {
    /// Open a file for positional reads from the perspective of `reader_node`
    /// (locality accounting uses it). Pass `None` for a client outside the
    /// cluster (every read counts as remote).
    pub fn open(&self, path: &str, reader_node: Option<NodeId>) -> Result<DfsReader> {
        self.open_variant(path, 0, reader_node)
    }

    /// Open a specific copy of `path` for reading. Variant `0` is the base
    /// file (what [`Dfs::open`] reads); variant `k > 0` is the sorted copy
    /// adopted into replica slot `k` via [`Dfs::adopt_variant`].
    pub fn open_variant(
        &self,
        path: &str,
        variant: usize,
        reader_node: Option<NodeId>,
    ) -> Result<DfsReader> {
        Ok(DfsReader {
            dfs: self.clone(),
            path: path.to_string(),
            entry: self.entry(path, variant)?,
            reader_node,
            last_end: None,
        })
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
        let end = offset.saturating_add(len as u64).min(total);
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
                self.dfs.stats().add_cache_misses(1);
                // A copy overwritten, moved or deleted since this reader
                // opened it is read, not cached: no later reader asks for
                // its key, and the dropped guard frees the slot.
                if self.dfs.holds(&self.path, &self.entry) {
                    let evicted = guard.complete(Arc::clone(&data));
                    if evicted > 0 {
                        self.dfs.stats().add_cache_evictions(evicted);
                    }
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
        let block_size = self.dfs.block_size();
        let mut cur = offset;
        while cur < end {
            let Some(block) = self.entry.blocks.get((cur / block_size) as usize) else {
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
        let (block_size, total) = (self.dfs.block_size(), entry.data.len() as u64);
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
