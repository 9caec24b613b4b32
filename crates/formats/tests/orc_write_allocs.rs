//! Pins what the ORC writer's speed rests on: buffering a value allocates
//! nothing of its own. A string the stripe's dictionary already holds is
//! neither copied nor boxed, and a stripe flush encodes into buffers kept
//! from the stripe before, so a file's allocations grow with its stripes
//! and index groups (directories, statistics) and with the log of its rows
//! (buffers doubling), not with its rows. A counting global allocator
//! observes it; this file is its own test binary so no other test runs
//! under that allocator.

use hive_codec::DictionaryBuilder;
use hive_common::{Row, Schema, Value};
use hive_dfs::{Dfs, DfsConfig};
use hive_formats::orc::writer::{OrcWriter, OrcWriterOptions};
use hive_formats::TableWriter;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

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

fn allocations_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

#[test]
fn a_repeated_dictionary_value_allocates_nothing() {
    let values: Vec<Vec<u8>> = (0..2_000)
        .map(|i| match i % 3 {
            0 => Vec::new(),
            1 => format!("short{}", i % 10).into_bytes(),
            _ => format!("a value longer than eight bytes, number {}", i % 10).into_bytes(),
        })
        .collect();
    let mut d = DictionaryBuilder::new();
    for v in &values {
        d.add(v);
    }
    let distinct = d.num_distinct();
    // The next stripe sees the same values: every buffer is already sized.
    d.clear();
    let ((), n) = allocations_during(|| {
        for v in &values {
            d.add(v);
        }
    });
    assert_eq!(
        n,
        0,
        "re-adding {} values allocated {n} times",
        values.len()
    );
    assert_eq!(d.num_distinct(), distinct);
}

#[test]
fn writing_rows_allocates_per_stripe_not_per_row() {
    const ROWS: i64 = 100_000;
    const STRIDE: usize = 10_000;
    let schema = Schema::parse(&[
        ("k", "bigint"),
        ("tag", "string"),
        ("note", "string"),
        ("x", "double"),
    ])
    .unwrap();
    let rows: Vec<Row> = (0..ROWS)
        .map(|i| {
            Row::new(vec![
                Value::Int(i * 7 % 1_000),
                Value::String(format!("t{}", i % 10)),
                Value::String(format!("a longer note, kind {}", i % 10)),
                if i % 13 == 0 {
                    Value::Null
                } else {
                    Value::Double(i as f64 / 4.0)
                },
            ])
        })
        .collect();
    let fs = Dfs::new(DfsConfig {
        block_size: 64 << 20,
        replication: 1,
        nodes: 1,
    });
    let options = OrcWriterOptions {
        stripe_size: 1 << 20,
        row_index_stride: STRIDE,
        ..Default::default()
    };
    let mut w = Box::new(OrcWriter::create(&fs, "/a/f", &schema, options, None));
    let (len, n) = allocations_during(|| {
        for r in &rows {
            w.write_row(r).unwrap();
        }
        w.close().unwrap()
    });
    let reader =
        hive_formats::orc::reader::OrcReader::open(&fs, "/a/f", Default::default()).unwrap();
    let stripes = reader.stripe_infos().len() as u64;
    let groups = ROWS as u64 / STRIDE as u64 + stripes;
    assert!(stripes >= 3, "{stripes} stripes: meant to be several");
    // Per stripe and per index group, a bounded number of directory and
    // statistics allocations for each of the five columns; per doubling
    // buffer, one reallocation for each of them.
    let log_rows = 64 - (ROWS as u64).leading_zeros() as u64;
    let bound = 5 * 8 * (stripes + groups) + 5 * 8 * log_rows;
    assert!(
        n <= bound,
        "{ROWS} rows in {stripes} stripes ({len} bytes) allocated {n} times, bound {bound}"
    );
}
