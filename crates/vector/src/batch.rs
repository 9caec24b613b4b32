//! Row batches and typed column vectors (paper Figures 6 and 7).

use hive_common::{DataType, HiveError, Result};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Default rows per batch; the paper: "By default, this number is set to
/// 1024, which was carefully chosen to minimize overhead and typically
/// allows one row batch to fit in the processor cache."
pub const DEFAULT_BATCH_SIZE: usize = 1024;

/// The three physical representations a column can take (paper Figure 7).
/// Every vectorizable [`DataType`] maps onto exactly one; this mapping is the
/// engine's only definition of "vectorizable type".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lane {
    /// `i64`: "all varieties of integers, boolean and timestamp data types".
    Long,
    Double,
    Bytes,
}

impl Lane {
    /// The lane carrying values of `dt`; `None` for complex types (the
    /// vectorization validator rejects plans touching them, as Hive's does).
    pub fn of(dt: &DataType) -> Option<Lane> {
        match dt {
            DataType::Int | DataType::Boolean | DataType::Timestamp => Some(Lane::Long),
            DataType::Double => Some(Lane::Double),
            DataType::String => Some(Lane::Bytes),
            _ => None,
        }
    }
}

/// A column of fixed-width values (`i64` or `f64`).
#[derive(Debug, Clone, PartialEq)]
pub struct PrimitiveColumnVector<T> {
    pub vector: Vec<T>,
    /// Per-row null flags; only meaningful when `no_nulls` is false.
    pub null: Vec<bool>,
    /// Set by the reader when the column is known null-free in this batch,
    /// letting expressions skip null checks in the inner loop.
    pub no_nulls: bool,
    /// All rows share `vector[0]` (and `null[0]`).
    pub is_repeating: bool,
}

/// A column of `i64` values. Represents "all varieties of integers, boolean
/// and timestamp data types" (paper Figure 7).
pub type LongColumnVector = PrimitiveColumnVector<i64>;

/// A column of `f64` values.
pub type DoubleColumnVector = PrimitiveColumnVector<f64>;

/// A string column's dictionary as a stripe stores it: the entries back to
/// back in one shared buffer. A bytes vector filled from one keeps it (and
/// each row's entry id) beside the values, so a kernel can decide an *entry*
/// once instead of a row every time; [`Dictionary::id`] is what such a memo
/// is keyed by.
#[derive(Debug, PartialEq)]
pub struct Dictionary {
    id: u64,
    blob: Arc<Vec<u8>>,
    /// Entry `e` is `blob[bounds[e]..bounds[e + 1]]`.
    bounds: Vec<u32>,
}

impl Dictionary {
    /// `bounds`: the entries' start offsets in `blob`, then the last one's
    /// end. Rejects bounds that do not ascend or that leave the blob, so
    /// [`entry`](Self::entry) never meets a range it cannot slice.
    pub fn new(blob: Arc<Vec<u8>>, bounds: Vec<u32>) -> Result<Dictionary> {
        let within = bounds.last().is_some_and(|&end| end as usize <= blob.len());
        if !within || !bounds.is_sorted() {
            return Err(HiveError::Format("dictionary truncated".into()));
        }
        // Never reused within the process, unlike the allocation's address:
        // a memo keyed by it cannot mistake the next stripe's dictionary for
        // this one. Publishes nothing, hence `Relaxed`.
        static NEXT_ID: AtomicU64 = AtomicU64::new(0);
        Ok(Dictionary {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            blob,
            bounds,
        })
    }

    pub fn id(&self) -> u64 {
        self.id
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.bounds.len() - 1
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    #[inline]
    pub fn entry(&self, e: usize) -> &[u8] {
        &self.blob[self.bounds[e] as usize..self.bounds[e + 1] as usize]
    }

    /// Entry `e` as the `(start, length)` a vector referring to this
    /// dictionary stores for it.
    #[inline]
    pub fn span(&self, e: usize) -> (u32, u32) {
        (self.bounds[e], self.bounds[e + 1] - self.bounds[e])
    }
}

/// A column of byte strings: per-row `(start, length)` into one buffer — no
/// per-row allocation in the hot path. The buffer is the vector's own arena
/// (`data`, what [`set`](Self::set) appends to: Hive's `setVal`) or, after
/// [`refer_to`](Self::refer_to), a buffer someone else owns and keeps
/// immutable (Hive's `setRef`): the ORC reader's stripe data, shared through
/// the `Arc`, never copied.
#[derive(Debug, Clone, PartialEq)]
pub struct BytesColumnVector {
    pub data: Vec<u8>,
    pub start: Vec<u32>,
    pub length: Vec<u32>,
    pub null: Vec<bool>,
    pub no_nulls: bool,
    pub is_repeating: bool,
    /// The buffer `start`/`length` address instead of `data`, when set.
    shared: Option<Arc<Vec<u8>>>,
    /// The dictionary the values came from, when they came from one.
    dictionary: Option<Arc<Dictionary>>,
    /// Row `i`'s entry in that dictionary (meaningless for a NULL row, and
    /// without a dictionary).
    pub ids: Vec<u32>,
}

impl<T: Copy + Default> PrimitiveColumnVector<T> {
    pub fn with_capacity(n: usize) -> Self {
        PrimitiveColumnVector {
            vector: vec![T::default(); n],
            null: vec![false; n],
            no_nulls: true,
            is_repeating: false,
        }
    }

    /// Value at logical row `i`, honouring `is_repeating`.
    #[inline]
    pub fn value(&self, i: usize) -> T {
        if self.is_repeating {
            self.vector[0]
        } else {
            self.vector[i]
        }
    }

    /// Null flag at logical row `i`, honouring flags.
    #[inline]
    pub fn is_null(&self, i: usize) -> bool {
        if self.no_nulls {
            false
        } else if self.is_repeating {
            self.null[0]
        } else {
            self.null[i]
        }
    }

    /// Reset flags for reuse by a reader filling the batch. Whoever writes a
    /// null flag also clears `no_nulls`, so a vector last used with
    /// `no_nulls` set has no flag to clear.
    pub fn reset(&mut self) {
        if !self.no_nulls {
            self.null.fill(false);
        }
        self.no_nulls = true;
        self.is_repeating = false;
    }

    /// Expand a repeating vector into explicit per-row values
    /// over the first `n` rows (needed before in-place mutation).
    pub fn flatten(&mut self, n: usize) {
        if self.is_repeating {
            let v = self.vector[0];
            let nl = self.null[0];
            if self.vector.len() < n {
                self.vector.resize(n, T::default());
            }
            if self.null.len() < n {
                self.null.resize(n, false);
            }
            self.vector[..n].iter_mut().for_each(|x| *x = v);
            self.null[..n].iter_mut().for_each(|x| *x = nl);
            self.is_repeating = false;
        }
    }
}

impl BytesColumnVector {
    pub fn with_capacity(n: usize) -> BytesColumnVector {
        BytesColumnVector {
            data: Vec::new(),
            start: vec![0; n],
            length: vec![0; n],
            null: vec![false; n],
            no_nulls: true,
            is_repeating: false,
            shared: None,
            dictionary: None,
            ids: vec![0; n],
        }
    }

    /// Bytes at logical row `i`, honouring `is_repeating`.
    #[inline]
    pub fn value(&self, i: usize) -> &[u8] {
        let idx = if self.is_repeating { 0 } else { i };
        let s = self.start[idx] as usize;
        let l = self.length[idx] as usize;
        let buffer = self.shared.as_ref().map_or(&self.data, |shared| &**shared);
        &buffer[s..s + l]
    }

    #[inline]
    pub fn is_null(&self, i: usize) -> bool {
        if self.no_nulls {
            false
        } else if self.is_repeating {
            self.null[0]
        } else {
            self.null[i]
        }
    }

    /// Append `bytes` to the vector's own arena as the value of row `i`.
    pub fn set(&mut self, i: usize, bytes: &[u8]) {
        debug_assert!(self.shared.is_none(), "this vector refers to a buffer");
        let s = self.data.len() as u32;
        self.data.extend_from_slice(bytes);
        self.start[i] = s;
        self.length[i] = bytes.len() as u32;
    }

    /// From now until `reset`, `start`/`length` are ranges of `buffer`.
    pub fn refer_to(&mut self, buffer: Arc<Vec<u8>>) {
        self.data.clear();
        self.shared = Some(buffer);
    }

    /// From now until `reset`, values are entries of `dictionary`: row `i`
    /// holds entry `ids[i]` and `start`/`length` its [`Dictionary::span`].
    pub fn refer_to_dictionary(&mut self, dictionary: Arc<Dictionary>) {
        self.refer_to(Arc::clone(&dictionary.blob));
        self.dictionary = Some(dictionary);
    }

    /// The dictionary the values are entries of, and each row's entry id.
    pub fn dictionary(&self) -> Option<(&Dictionary, &[u32])> {
        self.dictionary.as_deref().map(|d| (d, &self.ids[..]))
    }

    pub fn reset(&mut self) {
        self.data.clear();
        self.shared = None;
        self.dictionary = None;
        if !self.no_nulls {
            self.null.fill(false);
        }
        self.no_nulls = true;
        self.is_repeating = false;
    }
}

/// A typed column vector (paper Figure 7 models this with subclassing).
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnVector {
    Long(LongColumnVector),
    Double(DoubleColumnVector),
    Bytes(BytesColumnVector),
}

impl ColumnVector {
    /// Allocate a vector suited to `dt` with room for `n` rows.
    pub fn for_type(dt: &DataType, n: usize) -> Result<ColumnVector> {
        match Lane::of(dt) {
            Some(Lane::Long) => Ok(ColumnVector::Long(LongColumnVector::with_capacity(n))),
            Some(Lane::Double) => Ok(ColumnVector::Double(DoubleColumnVector::with_capacity(n))),
            Some(Lane::Bytes) => Ok(ColumnVector::Bytes(BytesColumnVector::with_capacity(n))),
            None => Err(HiveError::Execution(format!(
                "type {dt} is not vectorizable"
            ))),
        }
    }

    pub fn as_long(&self) -> Result<&LongColumnVector> {
        match self {
            ColumnVector::Long(v) => Ok(v),
            _ => Err(HiveError::Execution("expected long column vector".into())),
        }
    }

    pub fn as_long_mut(&mut self) -> Result<&mut LongColumnVector> {
        match self {
            ColumnVector::Long(v) => Ok(v),
            _ => Err(HiveError::Execution("expected long column vector".into())),
        }
    }

    pub fn as_double(&self) -> Result<&DoubleColumnVector> {
        match self {
            ColumnVector::Double(v) => Ok(v),
            _ => Err(HiveError::Execution("expected double column vector".into())),
        }
    }

    pub fn as_double_mut(&mut self) -> Result<&mut DoubleColumnVector> {
        match self {
            ColumnVector::Double(v) => Ok(v),
            _ => Err(HiveError::Execution("expected double column vector".into())),
        }
    }

    pub fn as_bytes(&self) -> Result<&BytesColumnVector> {
        match self {
            ColumnVector::Bytes(v) => Ok(v),
            _ => Err(HiveError::Execution("expected bytes column vector".into())),
        }
    }

    pub fn as_bytes_mut(&mut self) -> Result<&mut BytesColumnVector> {
        match self {
            ColumnVector::Bytes(v) => Ok(v),
            _ => Err(HiveError::Execution("expected bytes column vector".into())),
        }
    }

    pub fn is_null(&self, i: usize) -> bool {
        match self {
            ColumnVector::Long(v) => v.is_null(i),
            ColumnVector::Double(v) => v.is_null(i),
            ColumnVector::Bytes(v) => v.is_null(i),
        }
    }

    /// The per-row null flags, or `None` when the vector is known null-free
    /// (`no_nulls`) — the form a loop wants to hoist its null branch on.
    pub fn nulls(&self) -> Option<&[bool]> {
        let (no_nulls, null) = match self {
            ColumnVector::Long(v) => (v.no_nulls, &v.null),
            ColumnVector::Double(v) => (v.no_nulls, &v.null),
            ColumnVector::Bytes(v) => (v.no_nulls, &v.null),
        };
        (!no_nulls).then_some(null)
    }

    pub fn is_repeating(&self) -> bool {
        match self {
            ColumnVector::Long(v) => v.is_repeating,
            ColumnVector::Double(v) => v.is_repeating,
            ColumnVector::Bytes(v) => v.is_repeating,
        }
    }

    pub fn reset(&mut self) {
        match self {
            ColumnVector::Long(v) => v.reset(),
            ColumnVector::Double(v) => v.reset(),
            ColumnVector::Bytes(v) => v.reset(),
        }
    }

    /// Make row `i` NULL. A bytes row also gets an empty range, which any
    /// buffer holds, for kernels that read a NULL row's value and discard it.
    pub fn set_null(&mut self, i: usize) {
        let (null, no_nulls) = match self {
            ColumnVector::Long(v) => (&mut v.null, &mut v.no_nulls),
            ColumnVector::Double(v) => (&mut v.null, &mut v.no_nulls),
            ColumnVector::Bytes(v) => {
                (v.start[i], v.length[i]) = (0, 0);
                (&mut v.null, &mut v.no_nulls)
            }
        };
        null[i] = true;
        *no_nulls = false;
    }

    /// Write `src`'s row `i` (NULL included) as this vector's row `j`, which
    /// a reset left non-NULL. The two vectors share a lane.
    pub fn copy_cell(&mut self, j: usize, src: &ColumnVector, i: usize) -> Result<()> {
        if src.is_null(i) {
            self.set_null(j);
            return Ok(());
        }
        match (self, src) {
            (ColumnVector::Long(d), ColumnVector::Long(s)) => d.vector[j] = s.value(i),
            (ColumnVector::Double(d), ColumnVector::Double(s)) => d.vector[j] = s.value(i),
            (ColumnVector::Bytes(d), ColumnVector::Bytes(s)) => d.set(j, s.value(i)),
            _ => return Err(HiveError::Execution("copy between lanes".into())),
        }
        Ok(())
    }

    /// Row `j` takes row `i`'s value, both rows of this vector: a bytes
    /// value is shared, not copied.
    pub fn repeat_cell(&mut self, j: usize, i: usize) {
        let (null, no_nulls) = match self {
            ColumnVector::Long(v) => {
                v.vector[j] = v.vector[i];
                (&mut v.null, v.no_nulls)
            }
            ColumnVector::Double(v) => {
                v.vector[j] = v.vector[i];
                (&mut v.null, v.no_nulls)
            }
            ColumnVector::Bytes(v) => {
                (v.start[j], v.length[j]) = (v.start[i], v.length[i]);
                (&mut v.null, v.no_nulls)
            }
        };
        if !no_nulls {
            null[j] = null[i];
        }
    }
}

/// Where a batch's deferred columns are filled from: the reader's decoded
/// stripe, shared and immutable.
pub trait ColumnSource: Send + Sync {
    /// Write `column` of the batch whose row 0 is this source's row
    /// `first_row`: rows `0..n`, or only the `n` rows `selected` lists.
    /// Cannot fail — whatever could was checked before the batch was handed
    /// out.
    fn fill(
        &self,
        first_row: usize,
        column: usize,
        n: usize,
        selected: Option<&[usize]>,
        out: &mut ColumnVector,
    );
}

/// A batch's [`ColumnSource`] and the source row its row 0 is.
#[derive(Clone)]
struct Source(Arc<dyn ColumnSource>, usize);

impl std::fmt::Debug for Source {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Source(row {})", self.1)
    }
}

impl PartialEq for Source {
    fn eq(&self, other: &Source) -> bool {
        Arc::ptr_eq(&self.0, &other.0) && self.1 == other.1
    }
}

/// A batch of rows (paper Figure 6).
///
/// When `selected_in_use` is true, only the first `size` entries of
/// `selected` index valid rows; otherwise rows `0..size` are valid. Filter
/// expressions shrink the selection in place rather than copying data —
/// "the array selected[] ... is used to keep track of valid rows without a
/// branch instruction".
///
/// **Deferred columns.** A reader asked to (`TableReader::defer_all_but`)
/// fills only the columns a filter's first step reads and leaves the rest
/// *deferred*: their vectors hold nothing until [`materialize`]d, and then
/// only for the rows still selected. Invariant: a batch has deferred columns
/// only between such a reader and the end of its stage's root
/// `VectorFilterOperator`, which materializes what the predicate left for
/// the survivors. No other operator ever sees one.
///
/// [`materialize`]: VectorizedRowBatch::materialize
#[derive(Debug, Clone, PartialEq)]
pub struct VectorizedRowBatch {
    pub selected_in_use: bool,
    pub selected: Vec<usize>,
    /// Number of valid rows (or valid `selected` entries).
    pub size: usize,
    pub columns: Vec<ColumnVector>,
    /// Allocation size of the batch.
    pub max_size: usize,
    /// The group-ordinal lane of a reduce-side batch: physical row `i`
    /// belongs to its window's key group `ordinals[i]`. Indexed like the
    /// columns, so operators that only narrow `selected` or fill scratch
    /// columns carry it through untouched. Empty on the map side.
    pub ordinals: Vec<u32>,
    /// Columns not filled yet, and where from; `source` is set exactly
    /// while `deferred` is non-empty.
    deferred: Vec<usize>,
    source: Option<Source>,
}

impl VectorizedRowBatch {
    /// Allocate a batch for the given column types.
    pub fn new(types: &[DataType], max_size: usize) -> Result<VectorizedRowBatch> {
        let columns = types
            .iter()
            .map(|t| ColumnVector::for_type(t, max_size))
            .collect::<Result<Vec<_>>>()?;
        Ok(VectorizedRowBatch {
            selected_in_use: false,
            selected: (0..max_size).collect(),
            size: 0,
            columns,
            max_size,
            ordinals: Vec::new(),
            deferred: Vec::with_capacity(types.len()),
            source: None,
        })
    }

    /// [`new`](Self::new), with a group-ordinal lane.
    pub fn with_ordinals(types: &[DataType], max_size: usize) -> Result<VectorizedRowBatch> {
        let mut batch = VectorizedRowBatch::new(types, max_size)?;
        batch.ordinals = vec![0; max_size];
        Ok(batch)
    }

    /// Whether this batch is what [`new`](Self::new) makes for these
    /// arguments: it can then stand in for a new one, once reset.
    pub fn has_layout(&self, types: &[DataType], max_size: usize) -> bool {
        let lanes = self.columns.iter().map(|c| match c {
            ColumnVector::Long(_) => Lane::Long,
            ColumnVector::Double(_) => Lane::Double,
            ColumnVector::Bytes(_) => Lane::Bytes,
        });
        self.max_size == max_size && lanes.map(Some).eq(types.iter().map(Lane::of))
    }

    /// Leave `columns` unfilled: `source` writes them on demand, this
    /// batch's row 0 being its row `first_row`.
    pub fn defer(
        &mut self,
        source: Arc<dyn ColumnSource>,
        first_row: usize,
        columns: impl IntoIterator<Item = usize>,
    ) {
        self.deferred.clear();
        self.deferred.extend(columns);
        self.source = (!self.deferred.is_empty()).then_some(Source(source, first_row));
    }

    pub fn has_deferred(&self) -> bool {
        !self.deferred.is_empty()
    }

    /// Fill those of `columns` that are still deferred, for the rows now
    /// selected (for none, when none is).
    pub fn materialize(&mut self, columns: &[usize]) {
        for &column in columns {
            if let Some(at) = self.deferred.iter().position(|&d| d == column) {
                self.deferred.swap_remove(at);
                self.fill(column);
            }
        }
        if self.deferred.is_empty() {
            self.source = None;
        }
    }

    /// Fill every column still deferred, for the rows now selected.
    pub fn materialize_all(&mut self) {
        while let Some(column) = self.deferred.pop() {
            self.fill(column);
        }
        self.source = None;
    }

    fn fill(&mut self, column: usize) {
        let Some(Source(source, first_row)) = &self.source else {
            return;
        };
        if self.size > 0 {
            let selected = self.selected_in_use.then(|| &self.selected[..self.size]);
            let out = &mut self.columns[column];
            source.fill(*first_row, column, self.size, selected, out);
        }
    }

    /// Iterate the valid row indexes. (Hot paths hand-roll the two loops to
    /// stay branch-free; this is for cold paths and tests.)
    pub fn iter_selected(&self) -> impl Iterator<Item = usize> + '_ {
        let sel = self.selected_in_use;
        (0..self.size).map(move |j| if sel { self.selected[j] } else { j })
    }

    /// Drop the given *physical* row indexes (ascending, deduplicated) from
    /// the selection without touching column data — ACID delete masking at
    /// the `selected[]` level: masked rows stay in the buffers but are
    /// never visited by downstream operators.
    pub fn unselect_rows(&mut self, drop: &[usize]) {
        if drop.is_empty() {
            return;
        }
        let mut w = 0usize;
        if self.selected_in_use {
            for j in 0..self.size {
                let r = self.selected[j];
                if drop.binary_search(&r).is_err() {
                    self.selected[w] = r;
                    w += 1;
                }
            }
        } else {
            let mut di = 0usize;
            for r in 0..self.size {
                if di < drop.len() && drop[di] == r {
                    di += 1;
                    continue;
                }
                self.selected[w] = r;
                w += 1;
            }
            self.selected_in_use = true;
        }
        self.size = w;
    }

    /// Reset to an empty, unfiltered batch for refilling.
    pub fn reset(&mut self) {
        self.selected_in_use = false;
        self.size = 0;
        self.deferred.clear();
        self.source = None;
        for c in &mut self.columns {
            c.reset();
        }
    }

    /// Append `n` scratch columns of the given types (expression outputs).
    pub fn add_scratch(&mut self, dt: &DataType) -> Result<usize> {
        self.columns
            .push(ColumnVector::for_type(dt, self.max_size)?);
        Ok(self.columns.len() - 1)
    }
}

/// The rows one hoisted loop visits: the first `n` selected rows of a batch,
/// seen through one column's null flags and `is_repeating`.
#[derive(Clone, Copy)]
pub(crate) struct Rows<'a> {
    pub(crate) n: usize,
    pub(crate) selected: Option<&'a [usize]>,
    pub(crate) nulls: Option<&'a [bool]>,
    pub(crate) repeating: bool,
}

impl<'a> Rows<'a> {
    pub(crate) fn of(batch: &'a VectorizedRowBatch, col: &'a ColumnVector) -> Rows<'a> {
        Rows {
            n: batch.size,
            selected: batch.selected_in_use.then_some(&batch.selected),
            nulls: col.nulls(),
            repeating: col.is_repeating(),
        }
    }

    /// No selection, no NULLs, not repeating: the loop is `0..n`.
    pub(crate) fn dense(self) -> bool {
        self.selected.is_none() && self.nulls.is_none() && !self.repeating
    }

    /// Call `f(j, i)` for each visited row whose value is not NULL: `j` is
    /// its position in the selection, `i` its physical row (0 for a
    /// repeating vector). Every per-batch branch is hoisted out of the loop
    /// (paper Figure 8), so `f` is the whole loop body.
    #[inline(always)]
    pub(crate) fn each(self, mut f: impl FnMut(usize, usize)) {
        let n = self.n;
        match (self.selected, self.nulls) {
            (_, nulls) if self.repeating => {
                if !nulls.is_some_and(|null| null[0]) {
                    (0..n).for_each(|j| f(j, 0));
                }
            }
            (None, None) => (0..n).for_each(|i| f(i, i)),
            (None, Some(null)) => (0..n).filter(|&i| !null[i]).for_each(|i| f(i, i)),
            (Some(sel), None) => sel[..n].iter().enumerate().for_each(|(j, &i)| f(j, i)),
            (Some(sel), Some(null)) => {
                let valid = sel[..n].iter().enumerate().filter(|(_, &i)| !null[i]);
                valid.for_each(|(j, &i)| f(j, i));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_allocation_matches_types() {
        let b = VectorizedRowBatch::new(
            &[DataType::Int, DataType::Double, DataType::String],
            DEFAULT_BATCH_SIZE,
        )
        .unwrap();
        assert!(matches!(b.columns[0], ColumnVector::Long(_)));
        assert!(matches!(b.columns[1], ColumnVector::Double(_)));
        assert!(matches!(b.columns[2], ColumnVector::Bytes(_)));
        assert_eq!(b.max_size, 1024);
    }

    #[test]
    fn complex_types_are_rejected() {
        let arr = DataType::Array(Box::new(DataType::Int));
        assert!(ColumnVector::for_type(&arr, 8).is_err());
    }

    #[test]
    fn repeating_value_reads() {
        let mut v = LongColumnVector::with_capacity(4);
        v.vector[0] = 99;
        v.is_repeating = true;
        assert_eq!(v.value(3), 99);
        v.flatten(4);
        assert!(!v.is_repeating);
        assert_eq!(v.vector, vec![99, 99, 99, 99]);
    }

    #[test]
    fn bytes_arena_set_and_get() {
        let mut v = BytesColumnVector::with_capacity(3);
        v.set(0, b"alpha");
        v.set(1, b"");
        v.set(2, b"beta");
        assert_eq!(v.value(0), b"alpha");
        assert_eq!(v.value(1), b"");
        assert_eq!(v.value(2), b"beta");
    }

    #[test]
    fn bytes_by_reference_and_dictionary_entries() {
        let blob = Arc::new(b"__appleplum".to_vec());
        let dictionary = Arc::new(Dictionary::new(Arc::clone(&blob), vec![2, 7, 7, 11]).unwrap());
        assert_eq!(dictionary.len(), 3);
        assert_eq!(dictionary.entry(0), b"apple");
        assert_eq!(dictionary.entry(1), b"");
        assert_eq!(dictionary.span(2), (7, 4));
        let other = Dictionary::new(Arc::clone(&blob), vec![0, 2]).unwrap();
        assert_ne!(
            dictionary.id(),
            other.id(),
            "an id is never handed out twice"
        );
        for bad in [vec![], vec![3, 2], vec![0, 12]] {
            assert!(Dictionary::new(Arc::clone(&blob), bad).is_err());
        }

        let mut v = BytesColumnVector::with_capacity(3);
        v.set(0, b"owned");
        assert!(v.dictionary().is_none());
        v.reset();
        v.refer_to_dictionary(Arc::clone(&dictionary));
        for (i, e) in [2u32, 0, 1].into_iter().enumerate() {
            v.ids[i] = e;
            (v.start[i], v.length[i]) = dictionary.span(e as usize);
        }
        assert_eq!(
            [v.value(0), v.value(1), v.value(2)],
            [&b"plum"[..], b"apple", b""]
        );
        let (d, ids) = v.dictionary().unwrap();
        assert_eq!((d.id(), &ids[..3]), (dictionary.id(), &[2, 0, 1][..]));
        v.reset();
        assert!(v.dictionary().is_none(), "reset lets go of the buffer");
        v.refer_to(blob);
        (v.start[0], v.length[0]) = (0, 2);
        assert_eq!(v.value(0), b"__");
        v.reset();
        v.set(0, b"own again");
        assert_eq!(v.value(0), b"own again");
    }

    #[test]
    fn reset_clears_null_flags_only_when_some_were_set() {
        let mut v = LongColumnVector::with_capacity(4);
        (v.null[2], v.no_nulls) = (true, false);
        v.reset();
        assert_eq!((v.null[2], v.no_nulls), (false, true));
        let mut b = BytesColumnVector::with_capacity(4);
        (b.null[1], b.no_nulls, b.is_repeating) = (true, false, true);
        b.reset();
        assert_eq!(
            (b.null[1], b.no_nulls, b.is_repeating),
            (false, true, false)
        );
    }

    /// A source whose column `c` holds `100 * c + row`.
    struct Counting(std::sync::Mutex<Vec<(usize, usize)>>);

    impl ColumnSource for Counting {
        fn fill(
            &self,
            first_row: usize,
            column: usize,
            n: usize,
            selected: Option<&[usize]>,
            out: &mut ColumnVector,
        ) {
            self.0.lock().unwrap().push((column, n));
            let v = out.as_long_mut().unwrap();
            let rows: Vec<usize> = selected.map_or((0..n).collect(), <[usize]>::to_vec);
            assert_eq!(rows.len(), n);
            for i in rows {
                v.vector[i] = (100 * column + first_row + i) as i64;
            }
        }
    }

    #[test]
    fn deferred_columns_fill_once_for_the_rows_then_selected() {
        let source = Arc::new(Counting(Default::default()));
        let mut b = VectorizedRowBatch::new(&vec![DataType::Int; 4], 8).unwrap();
        b.size = 6;
        b.defer(Arc::clone(&source) as Arc<dyn ColumnSource>, 10, [1, 2, 3]);
        assert!(b.has_deferred());
        b.materialize(&[0, 2]);
        assert_eq!(
            *source.0.lock().unwrap(),
            [(2, 6)],
            "column 0 was never deferred"
        );
        assert_eq!(b.columns[2].as_long().unwrap().vector[5], 215);
        b.unselect_rows(&[0, 2, 4]);
        b.materialize(&[2, 1]);
        assert_eq!(
            source.0.lock().unwrap()[1..],
            [(1, 3)],
            "2 is not filled again"
        );
        let c1 = &b.columns[1].as_long().unwrap().vector;
        assert_eq!([c1[0], c1[1], c1[3], c1[5]], [0, 111, 113, 115]);
        assert!(b.has_deferred());
        b.materialize_all();
        assert!(!b.has_deferred());
        assert_eq!(source.0.lock().unwrap()[2..], [(3, 3)]);

        // No row left: nothing is filled, and nothing stays deferred.
        b.reset();
        b.size = 4;
        b.defer(Arc::clone(&source) as Arc<dyn ColumnSource>, 0, [0, 1]);
        b.unselect_rows(&[0, 1, 2, 3]);
        b.materialize(&[0]);
        b.materialize_all();
        assert!(!b.has_deferred());
        assert_eq!(source.0.lock().unwrap().len(), 3);
        // `reset` drops what a caller never asked for.
        b.defer(Arc::clone(&source) as Arc<dyn ColumnSource>, 0, [0]);
        b.reset();
        assert!(!b.has_deferred());
        assert_eq!(Arc::strong_count(&source), 1);
    }

    #[test]
    fn layout_check_is_by_lane_and_capacity() {
        let b = VectorizedRowBatch::new(&[DataType::Int, DataType::String], 8).unwrap();
        assert!(b.has_layout(&[DataType::Timestamp, DataType::String], 8));
        assert!(!b.has_layout(&[DataType::Int, DataType::String], 16));
        assert!(!b.has_layout(&[DataType::Int, DataType::Double], 8));
        assert!(!b.has_layout(&[DataType::Int], 8));
    }

    #[test]
    fn selected_iteration() {
        let mut b = VectorizedRowBatch::new(&[DataType::Int], 8).unwrap();
        b.size = 4;
        assert_eq!(b.iter_selected().collect::<Vec<_>>(), vec![0, 1, 2, 3]);
        b.selected_in_use = true;
        b.selected[0] = 1;
        b.selected[1] = 3;
        b.size = 2;
        assert_eq!(b.iter_selected().collect::<Vec<_>>(), vec![1, 3]);
    }

    #[test]
    fn unselect_rows_masks_at_the_selected_level() {
        let mut b = VectorizedRowBatch::new(&[DataType::Int], 8).unwrap();
        b.size = 6;
        b.unselect_rows(&[]);
        assert!(!b.selected_in_use, "empty mask is a no-op");
        b.unselect_rows(&[0, 3, 5]);
        assert!(b.selected_in_use);
        assert_eq!(b.iter_selected().collect::<Vec<_>>(), vec![1, 2, 4]);
        // A second mask composes with the existing selection.
        b.unselect_rows(&[2]);
        assert_eq!(b.iter_selected().collect::<Vec<_>>(), vec![1, 4]);
        // Masking everything empties the batch.
        b.unselect_rows(&[1, 4]);
        assert_eq!(b.size, 0);
    }

    #[test]
    fn rows_visit_selected_non_null_values() {
        let mut b = VectorizedRowBatch::new(&[DataType::Int], 8).unwrap();
        b.size = 5;
        let visit = |b: &VectorizedRowBatch| {
            let mut seen = Vec::new();
            Rows::of(b, &b.columns[0]).each(|j, i| seen.push((j, i)));
            seen
        };
        assert!(Rows::of(&b, &b.columns[0]).dense());
        assert_eq!(visit(&b), [(0, 0), (1, 1), (2, 2), (3, 3), (4, 4)]);
        {
            let c = b.columns[0].as_long_mut().unwrap();
            c.no_nulls = false;
            c.null[1] = true;
        }
        assert_eq!(visit(&b), [(0, 0), (2, 2), (3, 3), (4, 4)]);
        b.selected_in_use = true;
        b.selected[..3].copy_from_slice(&[1, 2, 4]);
        b.size = 3;
        assert_eq!(visit(&b), [(1, 2), (2, 4)], "j is the selection position");
        // Repeating: row 0 stands for every row, its null flag included.
        b.columns[0].as_long_mut().unwrap().is_repeating = true;
        assert_eq!(visit(&b), [(0, 0), (1, 0), (2, 0)]);
        b.columns[0].as_long_mut().unwrap().null[0] = true;
        assert_eq!(visit(&b), []);
    }

    #[test]
    fn null_flags_respect_no_nulls() {
        let mut v = DoubleColumnVector::with_capacity(2);
        v.null[1] = true;
        assert!(!v.is_null(1), "no_nulls short-circuits the null array");
        v.no_nulls = false;
        assert!(v.is_null(1));
    }
}
