//! File formats: TextFile, SequenceFile, RCFile and ORC (paper Section 4).
//!
//! The four formats trace Hive's storage evolution as the paper tells it:
//!
//! * **TextFile** / **SequenceFile** — the data-type-agnostic row formats
//!   Hive started with; every row is (de)serialized through a SerDe.
//! * **RCFile** — the first columnar format: 4 MB row groups, columns stored
//!   as opaque one-row-at-a-time serialized blobs, no indexes, complex types
//!   not decomposed.
//! * **ORC** — the paper's contribution: type-aware writer, 256 MB stripes,
//!   complex-type column decomposition, three-level statistics, position
//!   pointers, predicate pushdown, two-level compression, a writer memory
//!   manager, and a vectorized reader.

pub mod delta;
pub mod factory;
pub mod orc;
pub mod rcfile;
pub mod sequence;
pub mod serde;
pub mod text;

pub use delta::{AcidOverlay, DeleteSet, TableSnapshot};
pub use factory::{create_writer, open_reader, FormatKind, ReadOptions, WriteOptions};
pub use orc::sarg::{PredicateLeaf, PredicateOp, SearchArgument, TruthValue};

use hive_common::{Result, Row};
use hive_vector::VectorizedRowBatch;

/// A row-at-a-time writer for one file of a table.
pub trait TableWriter {
    fn write_row(&mut self, row: &Row) -> Result<()>;

    /// Finish the file; returns its final length in bytes.
    fn close(self: Box<Self>) -> Result<u64>;

    /// Current in-memory buffering estimate (ORC's memory manager input).
    fn memory_estimate(&self) -> usize {
        0
    }
}

/// Input-side read statistics a reader can report for observability:
/// how much of the file the format's indexes let it *not* read, and how
/// many rows corrupt-data salvage dropped. Formats without stripes or
/// indexes report zeros.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReadStats {
    /// Stripes in the file overlapping this reader's split.
    pub stripes_total: u64,
    /// Stripes actually read after stripe-level pruning.
    pub stripes_read: u64,
    /// Row index groups considered.
    pub groups_total: u64,
    /// Row index groups read after predicate-pushdown skipping.
    pub groups_read: u64,
    /// Rows dropped by corrupt-data degradation.
    pub rows_skipped: u64,
    /// Decoded file-footer metadata served from / filled into the
    /// process-wide ORC metadata cache. Zero when the cache is off.
    pub footer_cache_hits: u64,
    pub footer_cache_misses: u64,
    /// Decoded stripe-footer and row-index entries served from / filled
    /// into the metadata cache. Zero when the cache is off.
    pub index_cache_hits: u64,
    pub index_cache_misses: u64,
    /// Index groups pruned by bloom-filter probes after surviving min/max
    /// statistics (ORC only; zero without configured bloom columns).
    pub groups_bloom_pruned: u64,
    /// Bloom sections that failed CRC/decode and degraded to stats-only
    /// group selection.
    pub bloom_corrupt: u64,
    /// Values written into batch columns (ORC's native batch reader only):
    /// rows times columns when every column is filled for every row, less
    /// when columns are deferred and filled only for the rows a filter kept.
    /// Not rendered by EXPLAIN: tests read it to see the laziness as a
    /// count, not a time.
    pub values_materialized: u64,
}

/// A row-at-a-time reader over one file. Projection is applied by the
/// reader: returned rows contain exactly the projected columns, in
/// projection order.
pub trait TableReader {
    fn next_row(&mut self) -> Result<Option<Row>>;

    /// Fill a vectorized batch; returns false when input is exhausted and no
    /// rows were produced. The default adapter materializes rows (used by
    /// formats without a native vectorized reader — only ORC has one, per
    /// paper Section 6.5).
    fn next_batch(&mut self, batch: &mut VectorizedRowBatch) -> Result<bool> {
        batch.reset();
        let mut n = 0;
        while n < batch.max_size {
            match self.next_row()? {
                Some(row) => {
                    for (c, v) in row.values().iter().enumerate() {
                        hive_vector::row_convert::set_value(&mut batch.columns[c], n, v)?;
                    }
                    n += 1;
                }
                None => break,
            }
        }
        batch.size = n;
        Ok(n > 0)
    }

    /// Called once, before the first `next_batch`, by a caller whose batches
    /// go straight into a `VectorFilterOperator`: fill only the batch
    /// columns `first` (what the filter reads first) and leave the others
    /// *deferred* on the batch, for the filter to materialize for the rows
    /// it keeps (see `VectorizedRowBatch`). A reader may ignore this and fill
    /// everything, as all but ORC's do.
    fn defer_all_but(&mut self, _first: &[usize]) {}

    /// Physical file ordinal of the row most recently returned by
    /// `next_row` — *skip-aware*: stripes and index groups the reader
    /// skipped (splits, predicate pushdown, corrupt-data salvage) still
    /// advance the ordinal, so it always addresses the row's true position
    /// in the file. ACID delete keys are `(file, ordinal)`, so merge-on-read
    /// uses this to mask deleted rows even when data skipping is active.
    /// `None` means the format does not track ordinals; callers must fall
    /// back to sequential counting (correct only for whole-file scans).
    fn last_row_ordinal(&self) -> Option<u64> {
        None
    }

    /// Contiguous `(start ordinal, rows)` runs covering, in order, the
    /// physical rows filled by the most recent `next_batch` call. The run
    /// lengths sum to the batch's physical size. Same skip-awareness and
    /// `None` semantics as [`TableReader::last_row_ordinal`].
    fn batch_ordinal_runs(&self) -> Option<&[(u64, u64)]> {
        None
    }

    /// Read-side statistics (stripe/index-group pruning, salvage). Only
    /// ORC reports non-zero values; other formats use the default.
    fn read_stats(&self) -> ReadStats {
        ReadStats::default()
    }
}
