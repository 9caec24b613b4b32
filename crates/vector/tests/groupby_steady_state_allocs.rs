//! Pins the property the speed of vectorized GROUP BY depends on: once a
//! batch's groups exist, `process()` allocates nothing — no key is copied,
//! no state is boxed, every scratch buffer is reused — and the same for the
//! map join's probe, which resolves keys through the same wrapper, and for
//! the scan loop in front of them: the ORC reader's `next_batch` into the
//! stage's root filter, batch after batch of one stripe — and for the
//! reduce side's streaming GROUP BY, window after window once its result
//! batch exists. A counting global
//! allocator observes it; this file is its own test binary so no other test
//! runs under that allocator.

use hive_common::{DataType, Row, Value};
use hive_vector::aggregates::{AggKind, AggSpec, VectorHashAggregator, VectorStreamAggregator};
use hive_vector::mapjoin::{MapJoinBuilder, MapJoinKind, MapJoinTable, VectorMapJoinOperator};
use hive_vector::row_convert::rows_to_batch;
use hive_vector::{VectorOperator, VectorizedRowBatch};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashMap;
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

const ROWS: usize = 1000;
const TYPES: [DataType; 7] = [
    DataType::Int,
    DataType::Double,
    DataType::String,
    DataType::String,
    DataType::Int,
    DataType::Double,
    DataType::String,
];

/// Keys: a long, a double, a self-coding short string and an interned long
/// one, NULL now and then — every batch holds the same 7 x 5 x 3 x 4 key
/// combinations its rows can reach. Inputs (`v`, `d`, `s`) vary with `salt`.
fn batch(salt: usize) -> VectorizedRowBatch {
    let nullable = |i: usize, every: usize, v: Value| {
        if i.is_multiple_of(every) {
            Value::Null
        } else {
            v
        }
    };
    let rows: Vec<Row> = (0..ROWS)
        .map(|i| {
            Row::new(vec![
                nullable(i, 11, Value::Int((i % 7) as i64 - 3)),
                nullable(i, 13, Value::Double((i % 5) as f64 / 2.0)),
                Value::String(format!("f{}", i % 3)),
                nullable(i, 17, Value::String(format!("a-key-long-enough-{}", i % 4))),
                nullable(
                    i + salt,
                    5,
                    Value::Int((i * 31 + salt * 7) as i64 % 1000 - 500),
                ),
                nullable(
                    i + salt,
                    6,
                    Value::Double((i * 17 + salt) as f64 % 64.0 / 4.0),
                ),
                nullable(
                    i + salt,
                    7,
                    Value::String(format!("s{:03}", (i * 37 + salt * 11) % 500)),
                ),
            ])
        })
        .collect();
    let mut b = VectorizedRowBatch::new(&TYPES, ROWS).unwrap();
    rows_to_batch(&rows, &mut b).unwrap();
    if salt % 2 == 1 {
        // Odd batches arrive filtered: `selected_in_use` on.
        let kept: Vec<usize> = (0..ROWS).filter(|i| i % 9 != 4).collect();
        b.selected[..kept.len()].copy_from_slice(&kept);
        b.selected_in_use = true;
        b.size = kept.len();
    }
    b
}

fn keys() -> Vec<(usize, DataType)> {
    (0..4).map(|c| (c, TYPES[c].clone())).collect()
}

fn spec(kind: AggKind, column: usize) -> AggSpec {
    AggSpec {
        kind,
        input: Some((column, TYPES[column].clone())),
    }
}

#[test]
fn known_groups_cost_no_allocation() {
    use AggKind::*;
    let mut specs = vec![AggSpec {
        kind: CountStar,
        input: None,
    }];
    specs.extend([Count, SumLong, MinLong, MaxLong].map(|k| spec(k, 4)));
    specs.extend([Count, SumDouble, MinDouble, MaxDouble].map(|k| spec(k, 5)));
    specs.push(spec(Count, 6));
    let batches: Vec<VectorizedRowBatch> = (0..4).map(batch).collect();
    let mut agg = VectorHashAggregator::new(keys(), specs);
    let counted = allocations_during(|| drop(std::hint::black_box(vec![0u8; 64])));
    assert_eq!(counted, 1, "the counting allocator is the one in use");
    // Warm-up: the unfiltered batch 0 founds every group.
    agg.process(&batches[0]).unwrap();
    let allocations = allocations_during(|| {
        for round in 0..100 {
            agg.process(&batches[round % 4]).unwrap();
        }
    });
    assert_eq!(allocations, 0, "steady-state process() must not allocate");
    let groups = agg.finish(ROWS).unwrap();
    let counts = groups
        .iter()
        .flat_map(|b| &b.columns[4].as_long().unwrap().vector[..b.size]);
    assert!(
        counts.clone().count() > 300,
        "only {} groups",
        counts.count()
    );
    let rows: i64 = counts.sum();
    let replayed: usize = (0..100).map(|round| batches[round % 4].size).sum();
    let expected = batches[0].size + replayed;
    assert_eq!(rows as usize, expected, "COUNT(*) saw every selected row");
}

#[test]
fn reduce_group_by_windows_cost_no_allocation() {
    use AggKind::*;
    // Each batch is one window of groups of three rows (the filtered ones
    // lose a row here and there), keyed by a long and an interned string.
    let mut batches: Vec<VectorizedRowBatch> = (0..4).map(batch).collect();
    for b in &mut batches {
        b.ordinals = (0..ROWS as u32).map(|i| i / 3).collect();
    }
    let keys = vec![(0, DataType::Int), (3, DataType::String)];
    let mut specs = vec![AggSpec {
        kind: CountStar,
        input: None,
    }];
    specs.extend([Count, SumLong, MinLong, MaxLong, MergeCount].map(|k| spec(k, 4)));
    specs.extend([SumDouble, MinDouble, MaxDouble].map(|k| spec(k, 5)));
    // Keys, then each aggregate's output: the double ones are DOUBLE.
    let double = [8, 9, 10];
    let lane = |c| {
        if double.contains(&c) {
            DataType::Double
        } else {
            DataType::Int
        }
    };
    let mut out_types: Vec<DataType> = (0..2 + specs.len()).map(lane).collect();
    out_types[1] = DataType::String;
    let mut agg = VectorStreamAggregator::new(keys, specs, out_types, ROWS).unwrap();
    let mut groups = 0;
    let mut window = |agg: &mut VectorStreamAggregator, b: &VectorizedRowBatch| {
        agg.process(b).unwrap();
        // The window's result goes downstream and comes back done with.
        groups += agg.finish().unwrap().expect("a window with rows").size;
    };
    // Warm-up: every batch once sizes the states and the key arena.
    batches.iter().for_each(|b| window(&mut agg, b));
    let allocations = allocations_during(|| {
        for round in 0..100 {
            window(&mut agg, &batches[round % 4]);
        }
    });
    assert_eq!(allocations, 0, "a steady-state window must not allocate");
    assert!(groups > 100 * 300, "{groups} groups");
}

#[test]
fn string_extremes_allocate_only_when_adopted() {
    use AggKind::*;
    let batches: Vec<VectorizedRowBatch> = (0..4).map(batch).collect();
    let mut agg = VectorHashAggregator::new(keys(), vec![spec(MinBytes, 6), spec(MaxBytes, 6)]);
    agg.process(&batches[0]).unwrap();

    // Replay what MIN / MAX must adopt: per group, in row order.
    let mut extremes: HashMap<String, (Option<String>, Option<String>)> = HashMap::new();
    let mut adoptions = 0u64;
    let mut replay = |b: &VectorizedRowBatch, count: bool| {
        let cell = |c: usize, i: usize| {
            let col = &b.columns[c];
            hive_vector::row_convert::get_value(col, i, &TYPES[c])
        };
        for i in b.iter_selected() {
            let key = format!("{:?}", (0..4).map(|c| cell(c, i)).collect::<Vec<_>>());
            let Value::String(s) = cell(6, i) else {
                continue;
            };
            let (min, max) = extremes.entry(key).or_default();
            if min.as_ref().is_none_or(|m| s < *m) {
                *min = Some(s.clone());
                adoptions += count as u64;
            }
            if max.as_ref().is_none_or(|m| s > *m) {
                *max = Some(s);
                adoptions += count as u64;
            }
        }
    };
    replay(&batches[0], false);
    for round in 0..100 {
        replay(&batches[round % 4], true);
    }

    let allocations = allocations_during(|| {
        for round in 0..100 {
            agg.process(&batches[round % 4]).unwrap();
        }
    });
    assert!(adoptions > 0, "the batches must move some extremes");
    assert!(
        allocations <= adoptions,
        "{allocations} allocations for {adoptions} adopted extremes"
    );
}

#[test]
fn map_join_probes_that_miss_cost_no_allocation() {
    // Build keys the probe batches come close to but never hold: a known
    // long with an unknown double, known leading parts with an interned
    // string nobody stored, and so on. Looking must not intern the probe's
    // long strings either.
    let stored = |k: i64, d: f64, f: &str, a: &str| {
        let key = [
            Value::Int(k),
            Value::Double(d),
            Value::String(f.into()),
            Value::String(a.into()),
        ];
        Row::new(
            key.into_iter()
                .chain([Value::String("payload".into())])
                .collect(),
        )
    };
    let build = vec![
        stored(1, 9.5, "f1", "a-key-long-enough-1"),
        stored(1, 0.5, "f9", "a-key-long-enough-1"),
        stored(1, 0.5, "f1", "a-key-nobody-probes-for"),
        stored(99, 0.5, "f1", "a-key-long-enough-1"),
    ];
    let mut side_types = TYPES[..4].to_vec();
    side_types.push(DataType::String);
    let mut side = VectorizedRowBatch::new(&side_types, build.len()).unwrap();
    rows_to_batch(&build, &mut side).unwrap();
    let mut builder = MapJoinBuilder::new(vec![], keys(), vec![(4, DataType::String)]).unwrap();
    builder.add(side).unwrap();
    // One table, as a job's map tasks share it; each operator probes it
    // through scratch of its own.
    let table = Arc::new(builder.finish().unwrap());
    let mut out_types = vec![DataType::Int];
    out_types.extend_from_slice(&TYPES[..4]);
    out_types.push(DataType::String);
    let join = |table: &Arc<MapJoinTable>| {
        VectorMapJoinOperator::new(
            MapJoinKind::Inner,
            vec![],
            keys(),
            vec![(4, DataType::Int)],
            Arc::clone(table),
            &out_types,
            ROWS,
        )
        .unwrap()
    };
    let mut joins = [join(&table), join(&table)];
    let mut batches: Vec<VectorizedRowBatch> = (0..4).map(batch).collect();
    let mut emitted = 0usize;
    let mut count = |b: VectorizedRowBatch| emitted += b.size;
    // Warm-up: the first probe sizes each operator's two scratch buffers.
    for join in &mut joins {
        join.process(&mut batches[0], &mut count).unwrap();
    }
    let allocations = allocations_during(|| {
        for round in 0..100 {
            let join = &mut joins[round % 2];
            join.process(&mut batches[round % 4], &mut count).unwrap();
        }
    });
    assert_eq!(emitted, 0, "no probe key is a build key");
    assert_eq!(
        allocations, 0,
        "a probe batch that misses must not allocate"
    );
}

#[test]
fn scan_loop_over_one_stripe_costs_no_allocation() {
    use hive_common::Schema;
    use hive_dfs::{Dfs, DfsConfig};
    use hive_formats::orc::reader::{OrcReadOptions, OrcReader};
    use hive_formats::orc::writer::{OrcWriter, OrcWriterOptions};
    use hive_formats::{TableReader, TableWriter};
    use hive_vector::expressions::{filter_and, filter_between, filter_compare, CmpOp, Operand};
    use hive_vector::VectorFilterOperator;

    // One stripe of several index groups: a dictionary string the filter
    // reads first, two doubles it reads after, a nullable long and a direct
    // string it never reads.
    let schema = Schema::parse(&[
        ("day", "string"),
        ("discount", "double"),
        ("quantity", "double"),
        ("id", "bigint"),
        ("note", "string"),
    ])
    .unwrap();
    let dfs = Dfs::new(DfsConfig {
        block_size: 1 << 20,
        replication: 1,
        nodes: 1,
    });
    let opts = OrcWriterOptions {
        row_index_stride: 1500,
        ..Default::default()
    };
    let mut w: Box<dyn TableWriter> =
        Box::new(OrcWriter::create(&dfs, "/t/scan", &schema, opts, None));
    const N: usize = 9000;
    for i in 0..N {
        w.write_row(&Row::new(vec![
            Value::String(format!("1994-01-{:02}", 1 + (i * 7) % 28)),
            Value::Double((i % 11) as f64 / 100.0),
            Value::Double((i % 50) as f64),
            if i % 9 == 0 {
                Value::Null
            } else {
                Value::Int(i as i64)
            },
            Value::String(format!("note-{i}-{}", i * 31 % 977)),
        ]))
        .unwrap();
    }
    w.close().unwrap();

    let bytes = |s: &str| Operand::BytesScalar(s.as_bytes().to_vec());
    let mut filter = VectorFilterOperator::new(filter_and(vec![
        filter_compare(
            CmpOp::GreaterEqual,
            Operand::BytesCol(0),
            bytes("1994-01-05"),
        )
        .unwrap(),
        filter_compare(CmpOp::Less, Operand::BytesCol(0), bytes("1994-01-20")).unwrap(),
        filter_between(
            Operand::DoubleCol(1),
            Operand::DoubleScalar(0.03),
            Operand::DoubleScalar(0.07),
        )
        .unwrap(),
        filter_compare(
            CmpOp::Less,
            Operand::DoubleCol(2),
            Operand::DoubleScalar(24.0),
        )
        .unwrap(),
    ]));
    let types: Vec<DataType> = schema
        .fields()
        .iter()
        .map(|f| f.data_type.clone())
        .collect();
    let mut batch = VectorizedRowBatch::new(&types, 1024).unwrap();
    let mut reader = OrcReader::open(&dfs, "/t/scan", OrcReadOptions::default()).unwrap();
    reader.defer_all_but(filter.first_columns());
    let mut emitted = |_b: VectorizedRowBatch| {};
    // Warm-up: the first batch loads the stripe and sizes the filter's
    // per-dictionary memo.
    assert!(reader.next_batch(&mut batch).unwrap());
    filter.process(&mut batch, &mut emitted).unwrap();
    let (mut batches, mut kept, mut read) = (0, batch.size, 1024);
    let allocations = allocations_during(|| {
        while reader.next_batch(&mut batch).unwrap() {
            read += batch.size;
            filter.process(&mut batch, &mut emitted).unwrap();
            assert!(!batch.has_deferred());
            batches += 1;
            kept += batch.size;
        }
    });
    assert_eq!((read, batches), (N, 8), "one stripe, nine batches");
    assert!(kept > 200 && kept < N / 4, "{kept} rows kept");
    assert_eq!(
        allocations, 0,
        "steady-state next_batch + root filter must not allocate"
    );
}
