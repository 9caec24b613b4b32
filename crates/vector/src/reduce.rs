//! The reduce side's input as batches (DESIGN.md §16 "The reduce side").
//!
//! A reducer reads its merged runs as one stream of records in key order, a
//! key group being the records between two changes of key. [`ReduceWindow`]
//! collects them into one batch per shuffle tag, each row stamped with its
//! group's ordinal in the window, and cuts the stream into *windows* of
//! whole groups: a window closes at the first group boundary after any
//! tag's batch filled, or once it holds a batch's worth of groups. A group
//! larger than a batch spans several batches of its window. The driver
//! pushes a window's batches, then one group signal, so the reduce
//! operators see one signal per window instead of two per group.

use crate::batch::VectorizedRowBatch;
use hive_common::{DataType, Result};
use std::sync::Arc;

/// One tag's batches in a window.
struct TagBatches {
    types: Vec<DataType>,
    /// Batches in fill order; the first `used` belong to this window, the
    /// rest wait to be reused.
    batches: Vec<Arc<VectorizedRowBatch>>,
    used: usize,
}

/// The window being filled. Allocates nothing until a record arrives, and
/// reuses its batches from window to window once the operators that read
/// them let go.
pub struct ReduceWindow {
    tags: Vec<TagBatches>,
    batch_size: usize,
    /// Groups opened in this window; the last one is open.
    groups: usize,
    /// Some tag's batch filled: the window closes at the next group.
    full: bool,
}

impl ReduceWindow {
    /// `types`: per shuffle tag, the columns of its batches.
    pub fn new(types: Vec<Vec<DataType>>, batch_size: usize) -> ReduceWindow {
        let tag = |types| TagBatches {
            types,
            batches: Vec::new(),
            used: 0,
        };
        ReduceWindow {
            tags: types.into_iter().map(tag).collect(),
            batch_size,
            groups: 0,
            full: false,
        }
    }

    /// Whether a record that opens a new key group must wait for the next
    /// window: this one is pushed first.
    pub fn closes_before(&self, new_group: bool) -> bool {
        new_group && (self.full || self.groups == self.batch_size)
    }

    pub fn is_empty(&self) -> bool {
        self.groups == 0
    }

    /// The batch and row the next record of `tag` fills, opening a group
    /// first when `new_group`. The row is counted in the batch's `size` and
    /// stamped with its group's ordinal; its columns are the caller's to
    /// write.
    pub fn next_row(
        &mut self,
        tag: usize,
        new_group: bool,
    ) -> Result<(&mut VectorizedRowBatch, usize)> {
        if new_group || self.groups == 0 {
            self.groups += 1;
        }
        let ordinal = (self.groups - 1) as u32;
        let (size, t) = (self.batch_size, &mut self.tags[tag]);
        let open = t.used > 0 && t.batches[t.used - 1].size < size;
        if !open {
            if t.used == t.batches.len() {
                let fresh = VectorizedRowBatch::with_ordinals(&t.types, size)?;
                t.batches.push(Arc::new(fresh));
            }
            t.used += 1;
        }
        let batch = Arc::get_mut(&mut t.batches[t.used - 1])
            .expect("a window's batches are the driver's while it fills them");
        let row = batch.size;
        batch.size += 1;
        batch.ordinals[row] = ordinal;
        self.full |= batch.size == size;
        Ok((batch, row))
    }

    /// The window's batches in push order: tag by tag, in fill order.
    pub fn batches(&self) -> impl Iterator<Item = (usize, &Arc<VectorizedRowBatch>)> + '_ {
        let tags = self.tags.iter().enumerate();
        tags.flat_map(|(tag, t)| t.batches[..t.used].iter().map(move |b| (tag, b)))
    }

    /// Empty the window for the next one. A batch an operator still holds
    /// is left to it and replaced.
    pub fn clear(&mut self) -> Result<()> {
        for t in &mut self.tags {
            for b in &mut t.batches[..t.used] {
                match Arc::get_mut(b) {
                    Some(batch) => batch.reset(),
                    None => {
                        *b = Arc::new(VectorizedRowBatch::with_ordinals(
                            &t.types,
                            self.batch_size,
                        )?)
                    }
                }
            }
            t.used = 0;
        }
        (self.groups, self.full) = (0, false);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Feed `(tag, key)` records; returns each window as
    /// `(tag, ordinals of each batch)`.
    fn windows(records: &[(usize, u32)], tags: usize, size: usize) -> Vec<Vec<(usize, Vec<u32>)>> {
        let mut w = ReduceWindow::new(vec![vec![DataType::Int]; tags], size);
        let mut out = Vec::new();
        let mut flush = |w: &mut ReduceWindow| {
            let batches = w.batches().map(|(t, b)| (t, b.ordinals[..b.size].to_vec()));
            out.push(batches.collect());
            w.clear().unwrap();
        };
        let mut last = None;
        for &(tag, key) in records {
            let new_group = last != Some(key);
            if w.closes_before(new_group) {
                flush(&mut w);
            }
            let (batch, row) = w.next_row(tag, new_group).unwrap();
            batch.columns[0].as_long_mut().unwrap().vector[row] = key as i64;
            last = Some(key);
        }
        if !w.is_empty() {
            flush(&mut w);
        }
        out
    }

    #[test]
    fn windows_close_at_the_first_group_boundary_after_a_batch_fills() {
        // Batches of 3. Tag 0 fills with key 2's first row; the window
        // closes when key 3 starts, not inside key 2.
        let records = [(0, 1), (1, 1), (0, 2), (0, 2), (1, 2), (0, 3), (1, 4)];
        let got = windows(&records, 2, 3);
        assert_eq!(
            got,
            [
                vec![(0, vec![0, 1, 1]), (1, vec![0, 1])],
                vec![(0, vec![0]), (1, vec![1])],
            ]
        );
    }

    #[test]
    fn a_group_larger_than_a_batch_spans_batches_of_one_window() {
        let mut records: Vec<(usize, u32)> = (0..7).map(|_| (0, 5)).collect();
        records.push((1, 5));
        records.push((0, 6));
        let got = windows(&records, 2, 3);
        assert_eq!(
            got,
            [
                vec![
                    (0, vec![0, 0, 0]),
                    (0, vec![0, 0, 0]),
                    (0, vec![0]),
                    (1, vec![0])
                ],
                vec![(0, vec![0])],
            ]
        );
    }

    #[test]
    fn a_window_holds_at_most_a_batch_of_groups() {
        // One row per group, spread over three tags: no batch fills, the
        // group count closes the window.
        let records: Vec<(usize, u32)> = (0..8).map(|k| (k as usize % 3, k)).collect();
        let got = windows(&records, 3, 4);
        assert_eq!(got.len(), 2);
        assert_eq!(got[0], [(0, vec![0, 3]), (1, vec![1]), (2, vec![2])]);
        assert_eq!(got[1], [(0, vec![2]), (1, vec![0, 3]), (2, vec![1])]);
    }

    #[test]
    fn batches_are_reused_unless_an_operator_kept_one() {
        let mut w = ReduceWindow::new(vec![vec![DataType::Int]], 4);
        assert_eq!(w.batches().count(), 0, "nothing allocated before a record");
        w.next_row(0, true).unwrap();
        let first = Arc::clone(w.batches().next().unwrap().1);
        w.clear().unwrap();
        let (_, row) = w.next_row(0, true).unwrap();
        assert_eq!(row, 0, "a fresh batch: the kept one was replaced");
        let second = Arc::as_ptr(w.batches().next().unwrap().1);
        assert_ne!(Arc::as_ptr(&first), second);
        drop(first);
        w.clear().unwrap();
        w.next_row(0, true).unwrap();
        assert_eq!(Arc::as_ptr(w.batches().next().unwrap().1), second, "reused");
    }
}
