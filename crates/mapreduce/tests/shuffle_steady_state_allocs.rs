//! Pins the property the vector engine's shuffle speed rests on: once the
//! runs' buffers are sized, a vector sink's 1 024-row batch goes into the
//! runs — each selected row's partition hash, key, tag and value encoded
//! from its cells — without allocating: no key `Vec`, no `Row`, no
//! `String`. A counting global allocator observes it; this file is its own
//! test binary so no other test runs under that allocator.

use hive_common::{DataType, Row, Value};
use hive_exec::graph::ShuffleBatch;
use hive_mapreduce::engine::shuffle::ShuffleWriter;
use hive_vector::row_convert::rows_to_batch;
use hive_vector::{ColumnVector, VectorizedRowBatch, DEFAULT_BATCH_SIZE};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

thread_local! {
    /// Allocations made by this thread (tests run on threads of their own).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`; the only addition
// is a thread-local counter bump, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

const TYPES: [DataType; 6] = [
    DataType::Int,
    DataType::String,
    DataType::Double,
    DataType::Boolean,
    DataType::Timestamp,
    DataType::String,
];

/// A full batch over every scalar lane, NULL now and then, one column
/// repeating, and every third row unselected.
fn batch() -> VectorizedRowBatch {
    let nullable = |i: usize, every: usize, v: Value| {
        if i.is_multiple_of(every) {
            Value::Null
        } else {
            v
        }
    };
    let rows: Vec<Row> = (0..DEFAULT_BATCH_SIZE)
        .map(|i| {
            Row::new(vec![
                nullable(i, 11, Value::Int(i as i64 * 7919 - 4000)),
                Value::String(format!("customer#{:09}", i % 97)),
                nullable(i, 13, Value::Double(i as f64 / 8.0 - 3.0)),
                Value::Boolean(i % 2 == 0),
                Value::Timestamp(1_400_000_000_000 + i as i64),
                Value::String("N".into()),
            ])
        })
        .collect();
    let mut b = VectorizedRowBatch::new(&TYPES, DEFAULT_BATCH_SIZE).unwrap();
    rows_to_batch(&rows, &mut b).unwrap();
    if let ColumnVector::Bytes(v) = &mut b.columns[5] {
        v.is_repeating = true;
    }
    let keep: Vec<usize> = (0..DEFAULT_BATCH_SIZE).filter(|i| i % 3 != 2).collect();
    b.selected[..keep.len()].copy_from_slice(&keep);
    (b.selected_in_use, b.size) = (true, keep.len());
    b
}

#[test]
fn a_shuffled_batch_costs_no_allocation_once_the_runs_are_sized() {
    let typed = |c: usize| (c, TYPES[c].clone());
    let rows = ShuffleBatch {
        batch: Arc::new(batch()),
        keys: [typed(0), typed(1)].into(),
        values: (0..TYPES.len()).map(typed).collect(),
        tag: 1,
    };
    let mut runs = ShuffleWriter::new(4);
    let counted = allocations_during(|| drop(std::hint::black_box(vec![0u8; 64])));
    assert_eq!(counted, 1, "the counting allocator is the one in use");
    // Warm-up: the first batch sizes every run's buffers.
    runs.push_batch(&rows);
    for round in 0..20 {
        runs.clear();
        let allocations = allocations_during(|| runs.push_batch(&rows));
        assert_eq!(
            allocations, 0,
            "round {round}: pushing a batch must not allocate"
        );
    }
    let bytes: u64 = runs.finish().iter().map(|r| r.byte_len()).sum();
    assert!(bytes > 40 * rows.batch.size as u64, "{bytes} bytes");
}
