//! Vectorized aggregation, the batch-native counterpart of Hive's
//! GroupByOperator for queries like TPC-H q1/q6 (paper Section 7.4). A
//! batch passes through three stages, and none of them allocates, hashes a
//! heap key or dispatches on a type per row (DESIGN.md §16):
//!
//! 1. **Resolve** (`key_wrapper.rs`, skipped without GROUP BY keys): the
//!    batch's key columns become `gids`, one dense group id per selected
//!    row.
//! 2. **Update** (`Acc`): state is struct-of-arrays per aggregate, grown
//!    once per batch. Each aggregate dispatches once per batch on its kind
//!    and input lane, then runs one loop `acc[gids[j]] op= v[sel[j]]` with
//!    the `selected_in_use` / `no_nulls` / `is_repeating` branches hoisted
//!    (`Rows::each`). A group's values are added in selected-row order,
//!    as the row engine adds them, so sums are bit-identical across modes.
//!    The loops are generic over `Groups`: without keys every row updates
//!    group 0 and the same code compiles to a straight reduction.
//! 3. **Finish**: one row per group in first-seen order — deterministic per
//!    task, and the reducer sorts by key — written straight into result
//!    batches, keys then aggregates. Whoever reads them types the cells
//!    (`row_convert::cell`), so a BOOLEAN or TIMESTAMP key or MIN/MAX
//!    shuffles exactly as the row engine's would.

use crate::batch::{ColumnVector, PrimitiveColumnVector, Rows, VectorizedRowBatch};
use crate::key_wrapper::KeyWrapper;
use crate::row_convert::Cell;
use hive_common::key::{self, greatest, least, KeyOrd};
use hive_common::{DataType, HiveError, Result};
use std::sync::Arc;

/// Which aggregate function to compute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggKind {
    CountStar,
    /// COUNT(col): non-null values.
    Count,
    /// COUNT's reduce-side merge: the sum of the partial counts, 0 over none.
    MergeCount,
    SumLong,
    SumDouble,
    MinLong,
    MaxLong,
    MinDouble,
    MaxDouble,
    MinBytes,
    MaxBytes,
}

/// One aggregate to compute: the function plus its input column and that
/// column's logical type (`None` only for COUNT(*)).
#[derive(Debug, Clone)]
pub struct AggSpec {
    pub kind: AggKind,
    pub input: Option<(usize, DataType)>,
}

/// Which group the `j`-th visited row updates. The update loops are generic
/// over this, so GROUP BY and global aggregation share one set of loops.
trait Groups: Copy {
    /// One group takes every row: dense sums may reduce the vector first.
    const GLOBAL: bool;
    fn at(self, j: usize) -> usize;
}

impl Groups for &[u32] {
    const GLOBAL: bool = false;
    #[inline(always)]
    fn at(self, j: usize) -> usize {
        self[j] as usize
    }
}

#[derive(Clone, Copy)]
struct Global;

impl Groups for Global {
    const GLOBAL: bool = true;
    #[inline(always)]
    fn at(self, _: usize) -> usize {
        0
    }
}

/// `acc[g] += v` over the non-NULL rows, in row order. The global dense case
/// keeps its straight reduction, folded onto the running sum so a DOUBLE
/// adds in the row engine's order.
#[inline(always)]
fn sum<T: Copy, G: Groups>(
    (acc, seen): (&mut [T], &mut [bool]),
    v: &PrimitiveColumnVector<T>,
    (rows, groups): (Rows, G),
    add: impl Fn(T, T) -> T,
) {
    if G::GLOBAL && rows.dense() {
        let total = v.vector[..rows.n].iter().fold(acc[0], |s, &x| add(s, x));
        (acc[0], seen[0]) = (total, true);
    } else {
        rows.each(|j, i| {
            let g = groups.at(j);
            (acc[g], seen[g]) = (add(acc[g], v.vector[i]), true);
        });
    }
}

/// `acc[g] = pick(acc[g], v)` (MIN / MAX) over the non-NULL rows.
#[inline(always)]
fn extreme<T: Copy, G: Groups>(
    (acc, seen): (&mut [T], &mut [bool]),
    v: &PrimitiveColumnVector<T>,
    (rows, groups): (Rows, G),
    pick: impl Fn(T, T) -> T,
) {
    rows.each(|j, i| {
        let (g, x) = (groups.at(j), v.vector[i]);
        (acc[g], seen[g]) = (if seen[g] { pick(acc[g], x) } else { x }, true);
    });
}

/// One aggregate's state for every group, struct-of-arrays: group `g` owns
/// index `g` of the arrays its kind uses, the others stay empty.
#[derive(Default)]
struct Acc {
    /// Counts, long sums, long extremes.
    longs: Vec<i64>,
    /// Double sums, double extremes.
    doubles: Vec<f64>,
    /// The group met a non-NULL input; SUM / MIN / MAX are NULL until then.
    seen: Vec<bool>,
    /// MIN / MAX over strings: the extreme so far, owned.
    bytes: Vec<Option<Vec<u8>>>,
}

impl Acc {
    fn grow(&mut self, kind: AggKind, groups: usize) {
        use AggKind::*;
        let (longs, doubles, bytes) = match kind {
            CountStar | Count | MergeCount | SumLong | MinLong | MaxLong => (groups, 0, 0),
            SumDouble | MinDouble | MaxDouble => (0, groups, 0),
            MinBytes | MaxBytes => (0, 0, groups),
        };
        self.longs.resize(longs, 0);
        self.doubles.resize(doubles, 0.0);
        self.bytes.resize(bytes, None);
        self.seen.resize(groups, false);
    }

    /// Fold one batch in: one dispatch on (kind, input lane), then one loop.
    fn update<G: Groups>(
        &mut self,
        spec: &AggSpec,
        batch: &VectorizedRowBatch,
        groups: G,
    ) -> Result<()> {
        use AggKind::*;
        let col = match (spec.kind, &spec.input) {
            (CountStar, _) => {
                (0..batch.size).for_each(|j| self.longs[groups.at(j)] += 1);
                return Ok(());
            }
            (_, Some((c, _))) => &batch.columns[*c],
            (_, None) => {
                return Err(HiveError::Execution(
                    "aggregate missing input column".into(),
                ))
            }
        };
        let rows = Rows::of(batch, col);
        let (on, longs, doubles) = ((rows, groups), &mut self.longs[..], &mut self.doubles[..]);
        match spec.kind {
            CountStar | Count => rows.each(|j, _| longs[groups.at(j)] += 1),
            MergeCount => {
                let v = col.as_long()?;
                rows.each(|j, i| longs[groups.at(j)] += v.vector[i]);
            }
            SumLong => sum(
                (longs, &mut self.seen),
                col.as_long()?,
                on,
                i64::wrapping_add,
            ),
            SumDouble => sum((doubles, &mut self.seen), col.as_double()?, on, |a, b| {
                a + b
            }),
            MinLong => extreme((longs, &mut self.seen), col.as_long()?, on, least),
            MaxLong => extreme((longs, &mut self.seen), col.as_long()?, on, greatest),
            MinDouble => extreme((doubles, &mut self.seen), col.as_double()?, on, least),
            MaxDouble => extreme((doubles, &mut self.seen), col.as_double()?, on, greatest),
            MinBytes | MaxBytes => {
                let v = col.as_bytes()?;
                let min = spec.kind == MinBytes;
                rows.each(|j, i| {
                    let (x, cur) = (v.value(i), &mut self.bytes[groups.at(j)]);
                    let better = |cur: &[u8]| if min { x.key_lt(cur) } else { cur.key_lt(x) };
                    if cur.as_deref().is_none_or(better) {
                        *cur = Some(x.to_vec());
                    }
                });
            }
        }
        Ok(())
    }

    /// Forget every group, keeping the arrays' room.
    fn clear(&mut self) {
        self.longs.clear();
        self.doubles.clear();
        self.seen.clear();
        self.bytes.clear();
    }

    /// Group `g`'s value, what the map side shuffles and what the merge
    /// answers, into row `row` of `col`: a SUM, MIN or MAX that met no value
    /// is NULL, a MIN / MAX over doubles canonical (`key::canonical`).
    fn write(&self, spec: &AggSpec, g: usize, col: &mut ColumnVector, row: usize) -> Result<()> {
        use AggKind::*;
        let seen = match spec.kind {
            CountStar | Count | MergeCount => true,
            MinBytes | MaxBytes => self.bytes[g].is_some(),
            _ => self.seen[g],
        };
        if !seen {
            col.set_null(row);
            return Ok(());
        }
        match (spec.kind, col) {
            (
                CountStar | Count | MergeCount | SumLong | MinLong | MaxLong,
                ColumnVector::Long(v),
            ) => v.vector[row] = self.longs[g],
            (SumDouble, ColumnVector::Double(v)) => v.vector[row] = self.doubles[g],
            (MinDouble | MaxDouble, ColumnVector::Double(v)) => {
                v.vector[row] = f64::from_bits(key::double_bits(self.doubles[g]))
            }
            (MinBytes | MaxBytes, ColumnVector::Bytes(v)) => {
                let bytes = self.bytes[g].as_deref().unwrap_or_default();
                v.set(row, Cell::text(bytes).as_bytes())
            }
            (kind, _) => {
                return Err(HiveError::Execution(format!(
                    "{kind:?} result does not fit its column"
                )))
            }
        }
        Ok(())
    }
}

/// The logical type an aggregate's result has.
fn result_type(spec: &AggSpec) -> DataType {
    use AggKind::*;
    match (spec.kind, &spec.input) {
        (MinLong | MaxLong, Some((_, dt))) => dt.clone(),
        (SumDouble | MinDouble | MaxDouble, _) => DataType::Double,
        (MinBytes | MaxBytes, _) => DataType::String,
        _ => DataType::Int,
    }
}

/// Hash aggregation over vectorized batches: [`process`](Self::process)
/// every batch, then [`finish`](Self::finish).
pub struct VectorHashAggregator {
    /// `None` for a global aggregate: one group, which always exists.
    keys: Option<KeyWrapper>,
    specs: Vec<AggSpec>,
    accs: Vec<Acc>,
}

impl VectorHashAggregator {
    /// `key_columns`: batch column and logical type of each GROUP BY key.
    pub fn new(key_columns: Vec<(usize, DataType)>, specs: Vec<AggSpec>) -> VectorHashAggregator {
        let mut accs: Vec<Acc> = specs.iter().map(|_| Acc::default()).collect();
        let keys = (!key_columns.is_empty()).then(|| KeyWrapper::new(key_columns));
        if keys.is_none() {
            for (spec, acc) in specs.iter().zip(&mut accs) {
                acc.grow(spec.kind, 1);
            }
        }
        VectorHashAggregator { keys, specs, accs }
    }

    /// Consume one batch.
    pub fn process(&mut self, batch: &VectorizedRowBatch) -> Result<()> {
        if batch.size == 0 {
            return Ok(());
        }
        let Some(keys) = &mut self.keys else {
            let mut global = self.specs.iter().zip(&mut self.accs);
            return global.try_for_each(|(spec, acc)| acc.update(spec, batch, Global));
        };
        let (gids, groups) = keys.resolve(batch)?;
        for (spec, acc) in self.specs.iter().zip(&mut self.accs) {
            acc.grow(spec.kind, groups);
            acc.update(spec, batch, gids)?;
        }
        Ok(())
    }

    /// The types of [`finish`](Self::finish)'s columns: the keys', then
    /// each aggregate's result's.
    pub fn output_types(&self) -> Vec<DataType> {
        let keys = self
            .keys
            .iter()
            .flat_map(|k| k.table().types().iter().cloned());
        keys.chain(self.specs.iter().map(result_type)).collect()
    }

    /// Finish: one row per group — keys, then aggregates — in first-seen
    /// order, as batches of up to `batch_size` rows of
    /// [`output_types`](Self::output_types).
    pub fn finish(self, batch_size: usize) -> Result<Vec<VectorizedRowBatch>> {
        let types = self.output_types();
        let groups = self.keys.as_ref().map_or(1, |k| k.table().num_groups());
        let nk = types.len() - self.specs.len();
        let mut out = Vec::with_capacity(groups.div_ceil(batch_size));
        for first in (0..groups).step_by(batch_size.max(1)) {
            let mut batch = VectorizedRowBatch::new(&types, batch_size)?;
            batch.size = batch_size.min(groups - first);
            for row in 0..batch.size {
                if let Some(keys) = &self.keys {
                    keys.table()
                        .write_key(first + row, &mut batch.columns[..nk], row);
                }
                let aggs = self.specs.iter().zip(&self.accs);
                for ((spec, acc), col) in aggs.zip(&mut batch.columns[nk..]) {
                    acc.write(spec, first + row, col, row)?;
                }
            }
            out.push(batch);
        }
        Ok(out)
    }
}

/// Reduce-side GROUP BY over a reducer's windows (DESIGN.md §16 "The
/// reduce side"). Rows arrive grouped, and each batch's ordinal lane names
/// a row's key group, so a group's id is a count of the groups seen before
/// it in the window: no hashing, no key wrapper. A group's key is copied
/// from its first row; its states are [`Acc`]'s, updated in row order.
/// [`finish`](Self::finish) hands the window's result back as one batch:
/// one row per group that met a row, in group order, keys then aggregates,
/// each row keeping its group's ordinal.
pub struct VectorStreamAggregator {
    /// Input column and logical type of each key.
    keys: Vec<(usize, DataType)>,
    specs: Vec<AggSpec>,
    accs: Vec<Acc>,
    /// The window's result: keys ++ aggregates ++ the scratch columns of
    /// whatever reads it. Made by the first window that has one.
    out: Arc<VectorizedRowBatch>,
    out_types: Vec<DataType>,
    batch_size: usize,
    /// Groups met this window; the ordinal of the last.
    groups: usize,
    last: Option<u32>,
    /// Per visited row of the batch at hand: its group.
    gids: Vec<u32>,
    /// A global aggregate that has answered nothing yet: like the row
    /// engine's, it answers one row even when no row reaches it.
    seeded: bool,
}

impl VectorStreamAggregator {
    pub fn new(
        keys: Vec<(usize, DataType)>,
        specs: Vec<AggSpec>,
        out_types: Vec<DataType>,
        batch_size: usize,
    ) -> Result<VectorStreamAggregator> {
        Ok(VectorStreamAggregator {
            seeded: keys.is_empty(),
            keys,
            accs: specs.iter().map(|_| Acc::default()).collect(),
            specs,
            out: Arc::new(VectorizedRowBatch::new(&[], 0)?),
            out_types,
            batch_size,
            groups: 0,
            last: None,
            gids: Vec::new(),
        })
    }

    /// Fold in one batch of the window.
    pub fn process(&mut self, batch: &VectorizedRowBatch) -> Result<()> {
        if batch.size == 0 {
            return Ok(());
        }
        if self.groups == 0 {
            self.open_window()?;
        }
        let out = Arc::get_mut(&mut self.out).expect("opened for this window");
        self.gids.clear();
        for i in batch.iter_selected() {
            let ordinal = batch.ordinals[i];
            if self.last != Some(ordinal) {
                if self.groups == out.max_size {
                    return Err(HiveError::Execution(
                        "a window holds more groups than a batch".into(),
                    ));
                }
                for (k, (c, _)) in self.keys.iter().enumerate() {
                    out.columns[k].copy_cell(self.groups, &batch.columns[*c], i)?;
                }
                out.ordinals[self.groups] = ordinal;
                (self.groups, self.last) = (self.groups + 1, Some(ordinal));
            }
            self.gids.push(self.groups as u32 - 1);
        }
        for (spec, acc) in self.specs.iter().zip(&mut self.accs) {
            acc.grow(spec.kind, self.groups);
            acc.update(spec, batch, &self.gids[..])?;
        }
        Ok(())
    }

    /// The result batch, writable and empty: the last window's, unless the
    /// operators it went to still hold it.
    fn open_window(&mut self) -> Result<()> {
        match Arc::get_mut(&mut self.out) {
            Some(out) if out.max_size == self.batch_size => out.reset(),
            _ => {
                let out = VectorizedRowBatch::with_ordinals(&self.out_types, self.batch_size)?;
                self.out = Arc::new(out);
            }
        }
        Ok(())
    }

    /// End of a window: its result, if it has one (a group met a row, or a
    /// global aggregate answers for the first time), and a fresh start.
    pub fn finish(&mut self) -> Result<Option<Arc<VectorizedRowBatch>>> {
        if self.groups == 0 {
            if !self.seeded {
                return Ok(None);
            }
            // The global aggregate over no row: COUNT 0, the rest NULL.
            self.open_window()?;
            Arc::get_mut(&mut self.out).expect("opened").ordinals[0] = 0;
            self.groups = 1;
        }
        let out = Arc::get_mut(&mut self.out).expect("opened for this window");
        let nk = self.keys.len();
        for (a, (spec, acc)) in self.specs.iter().zip(&mut self.accs).enumerate() {
            acc.grow(spec.kind, self.groups);
            for g in 0..self.groups {
                acc.write(spec, g, &mut out.columns[nk + a], g)?;
            }
            acc.clear();
        }
        out.size = self.groups;
        (self.groups, self.last, self.seeded) = (0, None, false);
        Ok(Some(Arc::clone(&self.out)))
    }

    /// End of input: the global aggregate's row if no window ever came.
    pub fn close(&mut self) -> Result<Option<Arc<VectorizedRowBatch>>> {
        match self.seeded {
            true => self.finish(),
            false => Ok(None),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::AggKind::*;
    use super::*;
    use crate::batch::ColumnVector;
    use crate::expressions::testutil::batch_with;
    use crate::row_convert::{batch_to_rows, get_value, rows_to_batch};
    use hive_common::{Row, Value};
    use std::cmp::Ordering;
    use std::collections::BTreeMap;

    /// The result batches as rows (batches of 4 rows: a finish of more
    /// groups than a batch holds splits them).
    fn finish_rows(agg: VectorHashAggregator) -> Vec<Row> {
        let columns: Vec<(usize, DataType)> = agg.output_types().into_iter().enumerate().collect();
        let batches = agg.finish(4).unwrap();
        batches
            .iter()
            .flat_map(|b| batch_to_rows(b, &columns))
            .collect()
    }

    fn spec(kind: AggKind, input: Option<(usize, DataType)>) -> AggSpec {
        AggSpec { kind, input }
    }

    fn long(c: usize) -> Option<(usize, DataType)> {
        Some((c, DataType::Int))
    }

    fn double(c: usize) -> Option<(usize, DataType)> {
        Some((c, DataType::Double))
    }

    #[test]
    fn global_sum_count() {
        let mut agg =
            VectorHashAggregator::new(vec![], vec![spec(SumLong, long(0)), spec(CountStar, None)]);
        let b = batch_with(&[1, 2, 3, 4], &[]);
        agg.process(&b).unwrap();
        agg.process(&b).unwrap();
        let rows = finish_rows(agg);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].values(), &[Value::Int(20), Value::Int(8)]);
    }

    #[test]
    fn global_sum_respects_selection() {
        let mut b = batch_with(&[10, 20, 30, 40], &[]);
        b.selected_in_use = true;
        b.selected[0] = 0;
        b.selected[1] = 3;
        b.size = 2;
        let mut agg = VectorHashAggregator::new(vec![], vec![spec(SumLong, long(0))]);
        agg.process(&b).unwrap();
        assert_eq!(finish_rows(agg)[0].values(), &[Value::Int(50)]);
    }

    #[test]
    fn keyed_grouping() {
        let b = batch_with(&[2, 1, 2, 1, 2], &[10.0, 20.0, 30.0, 40.0, 50.0]);
        let mut agg = VectorHashAggregator::new(
            vec![(0, DataType::Int)],
            vec![spec(SumDouble, double(1)), spec(CountStar, None)],
        );
        agg.process(&b).unwrap();
        let rows = finish_rows(agg);
        assert_eq!(rows.len(), 2);
        // First-seen order: key 2 founded its group before key 1.
        assert_eq!(
            rows[0].values(),
            &[Value::Int(2), Value::Double(90.0), Value::Int(3)]
        );
        assert_eq!(
            rows[1].values(),
            &[Value::Int(1), Value::Double(60.0), Value::Int(2)]
        );
    }

    #[test]
    fn nulls_skipped_by_aggregates_but_counted_by_count_star() {
        let mut b = batch_with(&[1, 2, 3], &[]);
        {
            let c = b.columns[0].as_long_mut().unwrap();
            c.no_nulls = false;
            c.null[1] = true;
        }
        let mut agg = VectorHashAggregator::new(
            vec![],
            vec![
                spec(SumLong, long(0)),
                spec(Count, long(0)),
                spec(CountStar, None),
            ],
        );
        agg.process(&b).unwrap();
        let r = finish_rows(agg);
        assert_eq!(
            r[0].values(),
            &[Value::Int(4), Value::Int(2), Value::Int(3)]
        );
    }

    #[test]
    fn min_max_all_types() {
        let mut b = batch_with(&[5, -2, 9], &[1.5, -0.5, 2.5]);
        b.size = 3;
        let sc = b.add_scratch(&DataType::String).unwrap();
        {
            let c = b.columns[sc].as_bytes_mut().unwrap();
            c.set(0, b"m");
            c.set(1, b"a");
            c.set(2, b"z");
        }
        let string = Some((sc, DataType::String));
        let mut agg = VectorHashAggregator::new(
            vec![],
            vec![
                spec(MinLong, long(0)),
                spec(MaxLong, long(0)),
                spec(MinDouble, double(1)),
                spec(MaxDouble, double(1)),
                spec(MinBytes, string.clone()),
                spec(MaxBytes, string),
            ],
        );
        agg.process(&b).unwrap();
        let r = finish_rows(agg);
        assert_eq!(
            r[0].values(),
            &[
                Value::Int(-2),
                Value::Int(9),
                Value::Double(-0.5),
                Value::Double(2.5),
                Value::String("a".into()),
                Value::String("z".into()),
            ]
        );
    }

    #[test]
    fn empty_input_sums_are_null() {
        let agg =
            VectorHashAggregator::new(vec![], vec![spec(SumLong, long(0)), spec(CountStar, None)]);
        let r = finish_rows(agg);
        assert_eq!(r[0].values(), &[Value::Null, Value::Int(0)]);
    }

    #[test]
    fn null_keys_form_their_own_group() {
        let mut b = batch_with(&[1, 1, 2], &[]);
        {
            let c = b.columns[0].as_long_mut().unwrap();
            c.no_nulls = false;
            c.null[2] = true;
        }
        let mut agg =
            VectorHashAggregator::new(vec![(0, DataType::Int)], vec![spec(CountStar, None)]);
        agg.process(&b).unwrap();
        let rows = finish_rows(agg);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1].values(), &[Value::Null, Value::Int(1)]);
    }

    // ---- the keyed path against a naive reference -------------------------

    /// Column layout of the table-driven tests: four key candidates (one per
    /// lane, plus strings long enough to be interned) and three inputs.
    const K_LONG: usize = 0;
    const K_DOUBLE: usize = 1;
    const K_SHORT: usize = 2;
    const K_INTERNED: usize = 3;
    const V: usize = 4;
    const D: usize = 5;
    const S: usize = 6;

    fn types() -> Vec<DataType> {
        use DataType::*;
        vec![Int, Double, String, String, Int, Double, String]
    }

    /// Every `AggKind`, over nullable inputs.
    fn all_specs() -> Vec<AggSpec> {
        let string = Some((S, DataType::String));
        vec![
            spec(CountStar, None),
            spec(Count, string.clone()),
            spec(SumLong, long(V)),
            spec(SumDouble, double(D)),
            spec(MinLong, long(V)),
            spec(MaxLong, long(V)),
            spec(MinDouble, double(D)),
            spec(MaxDouble, double(D)),
            spec(MinBytes, string.clone()),
            spec(MaxBytes, string),
        ]
    }

    /// Deterministic rows: keys from narrow domains so groups collide, every
    /// input NULL now and then. `salt` shifts the domains between batches.
    fn batch(n: usize, salt: usize) -> VectorizedRowBatch {
        let opt = |i: usize, v: Value| if i % 7 == 3 { Value::Null } else { v };
        let rows: Vec<Row> = (0..n)
            .map(|i| {
                let x = (i * 7 + salt * 3) % 5;
                Row::new(vec![
                    Value::Int(x as i64 - 2),
                    Value::Double(x as f64 / 2.0),
                    Value::String(format!("k{x}")),
                    Value::String(format!("interned-key-{x}")),
                    opt(i, Value::Int((i * 31 % 17) as i64 - 8)),
                    opt(i + 1, Value::Double((i * 13 % 11) as f64 / 4.0)),
                    opt(i + 2, Value::String(format!("s{}", i * 5 % 23))),
                ])
            })
            .collect();
        let mut b = VectorizedRowBatch::new(&types(), n).unwrap();
        rows_to_batch(&rows, &mut b).unwrap();
        b
    }

    fn set_nulls(col: &mut ColumnVector, pick: impl Fn(usize) -> bool) {
        let set = |null: &mut [bool], no_nulls: &mut bool| {
            *no_nulls = false;
            null.iter_mut().enumerate().for_each(|(i, n)| *n = pick(i));
        };
        match col {
            ColumnVector::Long(v) => set(&mut v.null, &mut v.no_nulls),
            ColumnVector::Double(v) => set(&mut v.null, &mut v.no_nulls),
            ColumnVector::Bytes(v) => set(&mut v.null, &mut v.no_nulls),
        }
    }

    fn set_repeating(col: &mut ColumnVector) {
        match col {
            ColumnVector::Long(v) => v.is_repeating = true,
            ColumnVector::Double(v) => v.is_repeating = true,
            ColumnVector::Bytes(v) => v.is_repeating = true,
        }
    }

    fn select_odd_rows(b: &mut VectorizedRowBatch) {
        let odd: Vec<usize> = (0..b.size).filter(|i| i % 2 == 1).collect();
        b.selected[..odd.len()].copy_from_slice(&odd);
        b.selected_in_use = true;
        b.size = odd.len();
    }

    /// One aggregate recomputed from its group's input values in row order.
    fn naive(kind: AggKind, inputs: &[Value]) -> Value {
        let vals: Vec<&Value> = inputs.iter().filter(|v| !v.is_null()).collect();
        let ints = || vals.iter().map(|v| v.as_int().unwrap());
        let doubles = || vals.iter().map(|v| v.as_double().unwrap());
        let pick = |want: Ordering| {
            let better = |a: &Value, b: &Value| key::compare(b, a) == want;
            let best = vals.iter().copied();
            best.reduce(|a, b| if better(a, b) { b } else { a })
                .cloned()
        };
        match kind {
            CountStar => Value::Int(inputs.len() as i64),
            Count => Value::Int(vals.len() as i64),
            MergeCount => Value::Int(ints().sum()),
            _ if vals.is_empty() => Value::Null,
            SumLong => Value::Int(ints().fold(0, i64::wrapping_add)),
            SumDouble => Value::Double(doubles().fold(0.0, |s, x| s + x)),
            MinLong | MinDouble | MinBytes => pick(Ordering::Less).unwrap(),
            MaxLong | MaxDouble | MaxBytes => pick(Ordering::Greater).unwrap(),
        }
    }

    /// The naive oracle: a `BTreeMap` entry per distinct key, as the row
    /// engine's values; rows come back sorted by the key's `Debug` string.
    fn reference(
        keys: &[(usize, DataType)],
        specs: &[AggSpec],
        batches: &[VectorizedRowBatch],
    ) -> Vec<Row> {
        let mut groups: BTreeMap<String, (Vec<Value>, Vec<Vec<Value>>)> = BTreeMap::new();
        for b in batches {
            for i in b.iter_selected() {
                let cell = |(c, dt): &(usize, DataType)| get_value(&b.columns[*c], i, dt);
                let key: Vec<Value> = keys.iter().map(cell).collect();
                let (_, inputs) = groups
                    .entry(format!("{key:?}"))
                    .or_insert_with(|| (key, vec![vec![]; specs.len()]));
                for (s, seen) in specs.iter().zip(inputs) {
                    seen.push(s.input.as_ref().map_or(Value::Int(1), cell));
                }
            }
        }
        let row = |(key, inputs): (Vec<Value>, Vec<Vec<Value>>)| {
            let aggs = specs.iter().zip(&inputs).map(|(s, i)| naive(s.kind, i));
            Row::new(key.into_iter().chain(aggs).collect())
        };
        groups.into_values().map(row).collect()
    }

    fn by_key(mut rows: Vec<Row>, keys: usize) -> Vec<Row> {
        rows.sort_by_key(|r| format!("{:?}", &r.values()[..keys]));
        rows
    }

    fn check(keys: &[(usize, DataType)], batches: &[VectorizedRowBatch], what: &str) {
        let specs = all_specs();
        let mut agg = VectorHashAggregator::new(keys.to_vec(), specs.clone());
        for b in batches {
            agg.process(b).unwrap();
        }
        let got = by_key(finish_rows(agg), keys.len());
        assert_eq!(got, reference(keys, &specs, batches), "{what}");
    }

    #[test]
    fn every_key_lane_null_mode_and_batch_shape_matches_the_reference() {
        let key_types = types();
        let mut checked = 0;
        for key in [K_LONG, K_DOUBLE, K_SHORT, K_INTERNED] {
            for nulls in ["none", "some", "all"] {
                for repeating in [false, true] {
                    for selected in [false, true] {
                        let batches: Vec<VectorizedRowBatch> = (0..3)
                            .map(|salt| {
                                let mut b = batch(64, salt);
                                match nulls {
                                    "some" => set_nulls(&mut b.columns[key], |i| i % 3 == salt),
                                    "all" => set_nulls(&mut b.columns[key], |_| true),
                                    _ => {}
                                }
                                if repeating {
                                    set_repeating(&mut b.columns[key]);
                                }
                                if selected {
                                    select_odd_rows(&mut b);
                                }
                                b
                            })
                            .collect();
                        let what = format!(
                            "key column {key}, nulls: {nulls}, repeating: {repeating}, \
                             selected_in_use: {selected}"
                        );
                        check(&[(key, key_types[key].clone())], &batches, &what);
                        checked += 1;
                    }
                }
            }
        }
        assert_eq!(checked, 48);
    }

    #[test]
    fn multi_key_tuples_with_nulls_in_any_position_match_the_reference() {
        let t = types();
        let keys: Vec<(usize, DataType)> = [K_SHORT, K_LONG, K_DOUBLE, K_INTERNED]
            .iter()
            .map(|&c| (c, t[c].clone()))
            .collect();
        let batches: Vec<VectorizedRowBatch> = (0..4)
            .map(|salt| {
                let mut b = batch(97, salt);
                // A NULL long key next to a real 0, a NULL string next to "".
                set_nulls(&mut b.columns[K_LONG], |i| i % 5 == 1);
                set_nulls(&mut b.columns[K_INTERNED], |i| i % 4 == salt);
                if salt == 2 {
                    set_repeating(&mut b.columns[K_DOUBLE]);
                    select_odd_rows(&mut b);
                }
                b
            })
            .collect();
        for n in 1..=keys.len() {
            check(&keys[..n], &batches, &format!("{n} keys"));
        }
    }

    #[test]
    fn input_columns_that_repeat_or_are_all_null_match_the_reference() {
        let keys = [(K_LONG, DataType::Int)];
        for selected in [false, true] {
            let mut b = batch(50, 1);
            set_repeating(&mut b.columns[V]);
            set_nulls(&mut b.columns[D], |_| true);
            set_repeating(&mut b.columns[S]);
            set_nulls(&mut b.columns[S], |_| true);
            if selected {
                select_odd_rows(&mut b);
            }
            check(&keys, &[b.clone()], "repeating / all-null inputs, keyed");
            check(&[], &[b], "repeating / all-null inputs, global");
        }
        let mut b = batch(50, 2);
        set_repeating(&mut b.columns[D]);
        set_nulls(&mut b.columns[V], |i| i % 2 == 0);
        check(&[], &[batch(50, 0), b], "global");
    }

    #[test]
    fn groups_founded_in_later_batches_grow_the_accumulators() {
        // Batch b brings keys b*10..b*10+20: half known, half new.
        let specs = vec![spec(CountStar, None), spec(SumLong, long(0))];
        let mut agg = VectorHashAggregator::new(vec![(0, DataType::Int)], specs);
        for b in 0..6i64 {
            let keys: Vec<i64> = (b * 10..b * 10 + 20).collect();
            agg.process(&batch_with(&keys, &[])).unwrap();
        }
        let rows = finish_rows(agg);
        assert_eq!(rows.len(), 70);
        for (k, r) in rows.iter().enumerate() {
            let times = if (10..60).contains(&k) { 2 } else { 1 };
            let k = k as i64;
            assert_eq!(
                r.values(),
                &[Value::Int(k), Value::Int(times), Value::Int(k * times)]
            );
        }
    }

    #[test]
    fn more_groups_than_sixteen_bits_of_ids() {
        let specs = vec![spec(CountStar, None), spec(MaxLong, long(0))];
        let mut agg = VectorHashAggregator::new(vec![(0, DataType::Int)], specs);
        let groups = 70_000i64;
        // Scattered keys, twice: the second pass must find every group again.
        for _pass in 0..2 {
            for start in (0..groups).step_by(1000) {
                let keys: Vec<i64> = (start..start + 1000).map(|k| k * 7919).collect();
                agg.process(&batch_with(&keys, &[])).unwrap();
            }
        }
        let rows = finish_rows(agg);
        assert_eq!(rows.len(), groups as usize);
        for (k, r) in rows.iter().enumerate() {
            let key = Value::Int(k as i64 * 7919);
            assert_eq!(r.values(), &[key.clone(), Value::Int(2), key]);
        }
    }

    #[test]
    fn double_keys_group_by_the_key_rule() {
        // One NaN whatever its payload; -0.0 is 0.0 (`key::double_bits`).
        let nan2 = f64::from_bits(f64::NAN.to_bits() | 1);
        let d = [0.0, -0.0, f64::NAN, nan2, 0.0, f64::NAN, -0.0, nan2, 1.5];
        let b = batch_with(&[], &d);
        let mut agg =
            VectorHashAggregator::new(vec![(1, DataType::Double)], vec![spec(CountStar, None)]);
        agg.process(&b).unwrap();
        let got: Vec<(u64, i64)> = finish_rows(agg)
            .iter()
            .map(|r| match r.values() {
                [Value::Double(k), Value::Int(n)] => (k.to_bits(), *n),
                other => panic!("unexpected row {other:?}"),
            })
            .collect();
        let bits = |x: f64| x.to_bits();
        assert_eq!(got, [(bits(0.0), 4), (bits(f64::NAN), 4), (bits(1.5), 1)]);
    }

    #[test]
    fn emission_is_first_seen_order_and_repeats_across_runs() {
        let t = types();
        let keys = vec![(K_INTERNED, t[K_INTERNED].clone()), (K_LONG, DataType::Int)];
        let run = || {
            let mut agg = VectorHashAggregator::new(keys.clone(), vec![spec(CountStar, None)]);
            for salt in 0..3 {
                agg.process(&batch(40, salt)).unwrap();
            }
            finish_rows(agg)
        };
        let first = run();
        // First-seen: the first row's key leads, whatever its sort position.
        let b = batch(40, 0);
        let lead: Vec<Value> = keys
            .iter()
            .map(|(c, dt)| get_value(&b.columns[*c], 0, dt))
            .collect();
        assert_eq!(&first[0].values()[..2], &lead[..]);
        assert!(first.len() > 1 && (0..5).all(|_| run() == first));
    }

    #[test]
    fn boolean_and_timestamp_keep_their_logical_type() {
        use DataType::{Boolean, Timestamp};
        let rows: Vec<Row> = [(true, 1000), (false, 2000), (true, 3000)]
            .iter()
            .map(|&(b, ts)| Row::new(vec![Value::Boolean(b), Value::Timestamp(ts)]))
            .collect();
        let mut b = VectorizedRowBatch::new(&[Boolean, Timestamp], 4).unwrap();
        rows_to_batch(&rows, &mut b).unwrap();
        // GROUP BY b with MIN/MAX(ts); then GROUP BY ts with MIN/MAX(b).
        let mut by_bool = VectorHashAggregator::new(
            vec![(0, Boolean)],
            vec![
                spec(MinLong, Some((1, Timestamp))),
                spec(MaxLong, Some((1, Timestamp))),
            ],
        );
        by_bool.process(&b).unwrap();
        assert_eq!(
            finish_rows(by_bool),
            vec![
                Row::new(vec![
                    Value::Boolean(true),
                    Value::Timestamp(1000),
                    Value::Timestamp(3000)
                ]),
                Row::new(vec![
                    Value::Boolean(false),
                    Value::Timestamp(2000),
                    Value::Timestamp(2000)
                ]),
            ]
        );
        let mut by_ts = VectorHashAggregator::new(
            vec![(1, Timestamp)],
            vec![spec(MinLong, Some((0, Boolean))), spec(CountStar, None)],
        );
        by_ts.process(&b).unwrap();
        assert_eq!(
            finish_rows(by_ts)[0].values(),
            &[Value::Timestamp(1000), Value::Boolean(true), Value::Int(1)]
        );
    }

    #[test]
    fn a_key_column_of_the_wrong_lane_is_an_error() {
        let b = batch_with(&[1, 2], &[1.0, 2.0]);
        let mut agg =
            VectorHashAggregator::new(vec![(1, DataType::Int)], vec![spec(CountStar, None)]);
        assert!(agg.process(&b).is_err());
        let mut agg = VectorHashAggregator::new(vec![], vec![spec(SumLong, double(1))]);
        assert!(agg.process(&b).is_err());
    }

    /// A window's batch: `batch_with`'s columns plus an ordinal lane.
    fn window_batch(vals: &[i64], dvals: &[f64], ordinals: &[u32]) -> VectorizedRowBatch {
        let mut b = batch_with(vals, dvals);
        b.ordinals = ordinals.to_vec();
        b
    }

    fn window_rows(out: &VectorizedRowBatch, types: &[DataType]) -> Vec<(u32, Vec<Value>)> {
        let row = |i: usize| {
            let values = types.iter().enumerate();
            let values = values.map(|(c, dt)| get_value(&out.columns[c], i, dt));
            (out.ordinals[i], values.collect())
        };
        out.iter_selected().map(row).collect()
    }

    #[test]
    fn stream_aggregator_groups_by_ordinal_across_batches_and_windows() {
        use DataType::*;
        let out_types = [Int, Int, Int, Double, Double];
        let specs = vec![
            spec(CountStar, None),
            spec(SumLong, long(0)),
            spec(MaxDouble, double(1)),
            spec(SumDouble, double(1)),
        ];
        let mut agg =
            VectorStreamAggregator::new(vec![(0, Int)], specs, out_types.to_vec(), 4).unwrap();
        // Window 1: groups 0 and 2 meet rows (group 1 was another tag's),
        // group 2 across two batches; a filtered-out row does not count.
        let mut first = window_batch(&[5, 5, 8, 8], &[1.0, -0.0, 3.0, 9.0], &[0, 0, 2, 2]);
        first.selected_in_use = true;
        first.selected[..3].copy_from_slice(&[0, 1, 2]);
        first.size = 3;
        agg.process(&first).unwrap();
        agg.process(&window_batch(&[8], &[4.0], &[2])).unwrap();
        let out = agg.finish().unwrap().unwrap();
        use Value::{Double as D, Int as I};
        assert_eq!(
            window_rows(&out, &out_types),
            [
                (0, vec![I(5), I(2), I(10), D(1.0), D(1.0)]),
                (2, vec![I(8), I(2), I(16), D(4.0), D(7.0)]),
            ]
        );
        // Window 2 starts afresh; a window without rows answers nothing.
        drop(out);
        assert!(agg.finish().unwrap().is_none());
        agg.process(&window_batch(&[3], &[-0.0], &[1])).unwrap();
        let out = agg.finish().unwrap().unwrap();
        assert_eq!(
            window_rows(&out, &out_types),
            [(1, vec![I(3), I(1), I(3), D(0.0), D(0.0)])],
            "MAX is canonical"
        );
        assert!(agg.close().unwrap().is_none());
    }

    #[test]
    fn stream_aggregator_merges_partial_counts_and_answers_a_global_row_once() {
        use DataType::*;
        let out_types = [Int, Int];
        let specs = vec![spec(MergeCount, long(0)), spec(SumLong, long(0))];
        let mut global = VectorStreamAggregator::new(vec![], specs, out_types.to_vec(), 4).unwrap();
        // No row at all: close answers COUNT 0, SUM NULL, once.
        let out = global.close().unwrap().unwrap();
        assert_eq!(
            window_rows(&out, &out_types),
            [(0, vec![Value::Int(0), Value::Null])]
        );
        assert!(global.close().unwrap().is_none());

        let specs = vec![spec(MergeCount, long(0)), spec(SumLong, long(0))];
        let mut global = VectorStreamAggregator::new(vec![], specs, out_types.to_vec(), 4).unwrap();
        global
            .process(&window_batch(&[3, 4], &[], &[0, 0]))
            .unwrap();
        let out = global.finish().unwrap().unwrap();
        assert_eq!(
            window_rows(&out, &out_types),
            [(0, vec![Value::Int(7), Value::Int(7)])]
        );
        assert!(
            global.close().unwrap().is_none(),
            "answered at its EndGroup"
        );
    }
}
