//! End-to-end ORC tests: round trips, decomposition, indexes, predicate
//! pushdown, compression, padding, the memory manager and the vectorized
//! reader — each mapped to a behaviour Section 4 / 6.5 of the paper claims.

use hive_codec::block::Compression;
use hive_common::{DataType, Row, Schema, Value};
use hive_dfs::{Dfs, DfsConfig};
use hive_formats::orc::reader::{OrcReadOptions, OrcReader};
use hive_formats::orc::writer::{OrcWriter, OrcWriterOptions};
use hive_formats::orc::MemoryManager;
use hive_formats::{PredicateLeaf, PredicateOp, SearchArgument, TableReader, TableWriter};
use hive_vector::VectorizedRowBatch;

fn dfs() -> Dfs {
    Dfs::new(DfsConfig {
        block_size: 1 << 20,
        replication: 2,
        nodes: 4,
    })
}

fn small_opts() -> OrcWriterOptions {
    OrcWriterOptions {
        stripe_size: 64 << 10,
        row_index_stride: 100,
        ..Default::default()
    }
}

fn write_orc(
    fs: &Dfs,
    path: &str,
    schema: &Schema,
    opts: OrcWriterOptions,
    rows: impl Iterator<Item = Row>,
) {
    let mut w: Box<dyn TableWriter> = Box::new(OrcWriter::create(fs, path, schema, opts, None));
    for r in rows {
        w.write_row(&r).unwrap();
    }
    w.close().unwrap();
}

fn read_all(fs: &Dfs, path: &str, opts: OrcReadOptions) -> (Vec<Row>, OrcReader) {
    let mut r = OrcReader::open(fs, path, opts).unwrap();
    let mut rows = Vec::new();
    while let Some(row) = r.next_row().unwrap() {
        rows.push(row);
    }
    (rows, r)
}

#[test]
fn primitive_round_trip_across_stripes_and_groups() {
    let fs = dfs();
    let schema = Schema::parse(&[
        ("i", "bigint"),
        ("d", "double"),
        ("s", "string"),
        ("b", "boolean"),
        ("t", "timestamp"),
    ])
    .unwrap();
    let make = |i: i64| {
        Row::new(vec![
            Value::Int(i * 3 - 500),
            Value::Double(i as f64 / 7.0),
            Value::String(format!("val-{}", i % 13)),
            Value::Boolean(i % 2 == 0),
            Value::Timestamp(1_400_000_000_000 + i),
        ])
    };
    write_orc(&fs, "/orc/prim", &schema, small_opts(), (0..5000).map(make));
    let (rows, r) = read_all(&fs, "/orc/prim", OrcReadOptions::default());
    assert_eq!(r.num_rows(), 5000);
    assert_eq!(rows.len(), 5000);
    for (i, row) in rows.iter().enumerate() {
        assert_eq!(*row, make(i as i64), "row {i}");
    }
}

#[test]
fn figure_3_complex_types_round_trip() {
    let fs = dfs();
    let schema = Schema::parse(&[
        ("col1", "int"),
        ("col2", "array<int>"),
        ("col4", "map<string,struct<col7:string,col8:int>>"),
        ("col9", "string"),
    ])
    .unwrap();
    let make = |i: i64| {
        Row::new(vec![
            Value::Int(i),
            Value::Array((0..(i % 4)).map(Value::Int).collect()),
            Value::Map(vec![(
                Value::String(format!("k{i}")),
                Value::Struct(vec![Value::String(format!("s{i}")), Value::Int(i * 2)]),
            )]),
            Value::String(format!("tail-{i}")),
        ])
    };
    write_orc(&fs, "/orc/cplx", &schema, small_opts(), (0..1000).map(make));
    let (rows, _) = read_all(&fs, "/orc/cplx", OrcReadOptions::default());
    assert_eq!(rows.len(), 1000);
    for (i, row) in rows.iter().enumerate() {
        assert_eq!(*row, make(i as i64), "row {i}");
    }
}

#[test]
fn nulls_round_trip_everywhere() {
    let fs = dfs();
    let schema = Schema::parse(&[("i", "bigint"), ("s", "string"), ("a", "array<int>")]).unwrap();
    let make = |i: i64| {
        Row::new(vec![
            if i % 3 == 0 {
                Value::Null
            } else {
                Value::Int(i)
            },
            if i % 5 == 0 {
                Value::Null
            } else {
                Value::String(format!("x{i}"))
            },
            if i % 7 == 0 {
                Value::Null
            } else {
                Value::Array(vec![if i % 2 == 0 {
                    Value::Null
                } else {
                    Value::Int(i)
                }])
            },
        ])
    };
    write_orc(
        &fs,
        "/orc/nulls",
        &schema,
        small_opts(),
        (0..2000).map(make),
    );
    let (rows, _) = read_all(&fs, "/orc/nulls", OrcReadOptions::default());
    assert_eq!(rows.len(), 2000);
    for (i, row) in rows.iter().enumerate() {
        assert_eq!(*row, make(i as i64), "row {i}");
    }
}

#[test]
fn union_type_round_trip() {
    let fs = dfs();
    let schema = Schema::parse(&[("u", "uniontype<bigint,string>")]).unwrap();
    let make = |i: i64| {
        Row::new(vec![if i % 2 == 0 {
            Value::Union(0, Box::new(Value::Int(i)))
        } else {
            Value::Union(1, Box::new(Value::String(format!("u{i}"))))
        }])
    };
    write_orc(&fs, "/orc/union", &schema, small_opts(), (0..500).map(make));
    let (rows, _) = read_all(&fs, "/orc/union", OrcReadOptions::default());
    for (i, row) in rows.iter().enumerate() {
        assert_eq!(*row, make(i as i64));
    }
}

#[test]
fn dictionary_and_direct_encodings_both_round_trip() {
    let fs = dfs();
    let schema = Schema::parse(&[("lo", "string"), ("hi", "string")]).unwrap();
    // `lo` has 10 distinct values (dictionary); `hi` is all-distinct (direct).
    let make = |i: i64| {
        Row::new(vec![
            Value::String(format!("cat-{}", i % 10)),
            Value::String(format!("unique-{i}-xyzzy")),
        ])
    };
    write_orc(&fs, "/orc/dict", &schema, small_opts(), (0..3000).map(make));
    let (rows, _) = read_all(&fs, "/orc/dict", OrcReadOptions::default());
    assert_eq!(rows.len(), 3000);
    for (i, row) in rows.iter().enumerate() {
        assert_eq!(*row, make(i as i64));
    }
}

#[test]
fn dictionary_encoding_shrinks_low_cardinality_columns() {
    let fs = dfs();
    let schema = Schema::parse(&[("s", "string")]).unwrap();
    let lowcard = |i: i64| Row::new(vec![Value::String(format!("state-{:02}", i % 50))]);
    let mut x = 88172645463325252u64;
    let mut highcard = |_: i64| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        Row::new(vec![Value::String(format!("{x:032x}{x:032x}"))])
    };
    write_orc(
        &fs,
        "/orc/low",
        &schema,
        small_opts(),
        (0..20000).map(lowcard),
    );
    write_orc(
        &fs,
        "/orc/high",
        &schema,
        small_opts(),
        (0..20000).map(&mut highcard),
    );
    let low = fs.len("/orc/low").unwrap();
    let high = fs.len("/orc/high").unwrap();
    // Dictionary: ~2 bytes/row of ids vs 64 bytes/row of direct data.
    assert!(low * 4 < high, "dictionary file {low} vs direct {high}");
}

#[test]
fn compression_variants_round_trip_and_shrink() {
    let fs = dfs();
    let schema = Schema::parse(&[("i", "bigint"), ("s", "string")]).unwrap();
    let make = |i: i64| {
        Row::new(vec![
            Value::Int(i % 100),
            Value::String(format!("the quick brown fox {i} jumps over the lazy dog")),
        ])
    };
    let mut sizes = Vec::new();
    for comp in [Compression::None, Compression::Snappy, Compression::Zlib] {
        let path = format!("/orc/comp-{comp}");
        let opts = OrcWriterOptions {
            compression: comp,
            compress_unit: 8 << 10,
            ..small_opts()
        };
        write_orc(&fs, &path, &schema, opts, (0..5000).map(make));
        let (rows, _) = read_all(&fs, &path, OrcReadOptions::default());
        assert_eq!(rows.len(), 5000, "codec {comp}");
        assert_eq!(rows[4321], make(4321));
        sizes.push(fs.len(&path).unwrap());
    }
    assert!(sizes[1] < sizes[0], "snappy should shrink: {sizes:?}");
    assert!(sizes[2] < sizes[0], "zlib should shrink: {sizes:?}");
}

#[test]
fn projection_reads_fewer_bytes_and_decomposed_children() {
    let fs = dfs();
    let schema = Schema::parse(&[
        ("a", "bigint"),
        ("blob", "string"),
        ("m", "map<string,int>"),
    ])
    .unwrap();
    let make = |i: i64| {
        Row::new(vec![
            Value::Int(i),
            Value::String(format!("{:0>200}", i)), // fat column
            Value::Map(vec![(Value::String(format!("k{i}")), Value::Int(i))]),
        ])
    };
    write_orc(&fs, "/orc/proj", &schema, small_opts(), (0..3000).map(make));

    let before = fs.stats().snapshot();
    let (rows, _) = read_all(&fs, "/orc/proj", OrcReadOptions::default());
    assert_eq!(rows.len(), 3000);
    let full = fs.stats().snapshot().since(&before).bytes_read();

    let before = fs.stats().snapshot();
    let (rows, _) = read_all(
        &fs,
        "/orc/proj",
        OrcReadOptions {
            projection: Some(vec![0]),
            ..Default::default()
        },
    );
    assert_eq!(rows[5].values(), &[Value::Int(5)]);
    let narrow = fs.stats().snapshot().since(&before).bytes_read();
    assert!(
        narrow * 5 < full,
        "projected read {narrow} should be far below full {full}"
    );
}

#[test]
fn predicate_pushdown_skips_stripes_and_groups() {
    let fs = dfs();
    let schema = Schema::parse(&[("x", "bigint"), ("v", "double")]).unwrap();
    // x is sorted, so stats ranges are tight per group/stripe.
    let make = |i: i64| Row::new(vec![Value::Int(i), Value::Double(i as f64)]);
    write_orc(&fs, "/orc/ppd", &schema, small_opts(), (0..20000).map(make));

    let sarg = SearchArgument::new(vec![PredicateLeaf::between(
        0,
        Value::Int(500),
        Value::Int(600),
    )]);

    // No PPD: everything read.
    let before = fs.stats().snapshot();
    let (rows_all, r_all) = read_all(&fs, "/orc/ppd", OrcReadOptions::default());
    let bytes_all = fs.stats().snapshot().since(&before).bytes_read();
    assert_eq!(rows_all.len(), 20000);
    assert_eq!(r_all.counters.groups_read, r_all.counters.groups_total);

    // PPD: only the overlapping groups read.
    let before = fs.stats().snapshot();
    let (rows_sel, r_sel) = read_all(
        &fs,
        "/orc/ppd",
        OrcReadOptions {
            sarg: Some(sarg),
            use_index: true,
            ..Default::default()
        },
    );
    let bytes_sel = fs.stats().snapshot().since(&before).bytes_read();
    // Selected rows form a superset of the exact range (whole groups).
    assert!(
        rows_sel.len() >= 101 && rows_sel.len() <= 400,
        "{}",
        rows_sel.len()
    );
    assert!(rows_sel.iter().any(|r| r[0] == Value::Int(550)));
    assert!(r_sel.counters.groups_read < r_all.counters.groups_total / 10);
    assert!(
        bytes_sel * 5 < bytes_all,
        "PPD bytes {bytes_sel} vs full {bytes_all}"
    );
}

#[test]
fn stripe_level_skipping_without_index_groups() {
    let fs = dfs();
    let schema = Schema::parse(&[("x", "bigint")]).unwrap();
    let make = |i: i64| Row::new(vec![Value::Int(i)]);
    write_orc(
        &fs,
        "/orc/stripe-skip",
        &schema,
        small_opts(),
        (0..50000).map(make),
    );
    let sarg = SearchArgument::new(vec![PredicateLeaf::new(
        0,
        PredicateOp::LessThan,
        Some(Value::Int(100)),
    )]);
    let (_, r) = read_all(
        &fs,
        "/orc/stripe-skip",
        OrcReadOptions {
            sarg: Some(sarg),
            use_index: false, // only stripe statistics
            ..Default::default()
        },
    );
    assert!(r.counters.stripes_total > 1);
    assert!(
        r.counters.stripes_read < r.counters.stripes_total,
        "{:?}",
        r.counters
    );
}

#[test]
fn block_padding_keeps_stripes_within_blocks() {
    let fs = Dfs::new(DfsConfig {
        block_size: 96 << 10, // deliberately small
        replication: 1,
        nodes: 2,
    });
    let schema = Schema::parse(&[("i", "bigint"), ("s", "string")]).unwrap();
    let make = |i: i64| {
        Row::new(vec![
            Value::Int(i),
            Value::String(format!("padding-test-row-{i:08}")),
        ])
    };
    let opts = OrcWriterOptions {
        stripe_size: 32 << 10,
        row_index_stride: 100,
        block_padding: true,
        ..Default::default()
    };
    let mut w = OrcWriter::create(&fs, "/orc/padded", &schema, opts, None);
    for i in 0..20000 {
        TableWriter::write_row(&mut w, &make(i)).unwrap();
    }
    let padding = w.padding_bytes;
    Box::new(w).close().unwrap();
    assert!(padding > 0, "expected some padding with tiny blocks");

    // Verify alignment by reading footer stripe infos via the reader.
    let r = OrcReader::open(&fs, "/orc/padded", OrcReadOptions::default()).unwrap();
    let _ = r;
    // And the data still round-trips.
    let (rows, _) = read_all(&fs, "/orc/padded", OrcReadOptions::default());
    assert_eq!(rows.len(), 20000);
    assert_eq!(rows[12345], make(12345));
}

#[test]
fn file_stats_answer_simple_aggregations() {
    let fs = dfs();
    let schema = Schema::parse(&[("x", "bigint")]).unwrap();
    write_orc(
        &fs,
        "/orc/stats",
        &schema,
        small_opts(),
        (0..1000).map(|i| Row::new(vec![Value::Int(i)])),
    );
    let r = OrcReader::open(&fs, "/orc/stats", OrcReadOptions::default()).unwrap();
    let stats = r.file_stats(0).unwrap();
    assert_eq!(stats.count(), 1000);
    assert_eq!(stats.min_value(), Some(Value::Int(0)));
    assert_eq!(stats.max_value(), Some(Value::Int(999)));
    assert_eq!(stats.sum_value(), Some(Value::Int(499_500)));
}

#[test]
fn memory_manager_shrinks_stripes_under_pressure() {
    let fs = dfs();
    let schema = Schema::parse(&[("i", "bigint"), ("s", "string")]).unwrap();
    let make = |i: i64| {
        Row::new(vec![
            Value::Int(i),
            Value::String(format!("row-{i}-{}", "y".repeat(64))),
        ])
    };
    // Tight memory: 10 concurrent writers with 64 KB stripes vs 128 KB pool.
    let mm = MemoryManager::new(128 << 10);
    let mut writers: Vec<OrcWriter> = (0..10)
        .map(|w| {
            OrcWriter::create(
                &fs,
                &format!("/orc/mm-{w}"),
                &schema,
                OrcWriterOptions {
                    stripe_size: 64 << 10,
                    row_index_stride: 100,
                    ..Default::default()
                },
                Some(&mm),
            )
        })
        .collect();
    for i in 0..2000 {
        for w in writers.iter_mut() {
            TableWriter::write_row(w, &make(i)).unwrap();
        }
        // The bound must hold at all times.
        let total: usize = writers.iter().map(|w| w.memory_estimate()).sum();
        assert!(
            total <= (160 << 10),
            "writers exceeded the bounded footprint: {total}"
        );
    }
    for w in writers {
        Box::new(w).close().unwrap();
    }
    // All files still readable.
    for wid in 0..10 {
        let (rows, _) = read_all(&fs, &format!("/orc/mm-{wid}"), OrcReadOptions::default());
        assert_eq!(rows.len(), 2000);
    }
}

#[test]
fn vectorized_reader_matches_row_reader() {
    let fs = dfs();
    let schema = Schema::parse(&[("i", "bigint"), ("d", "double"), ("s", "string")]).unwrap();
    let make = |i: i64| {
        Row::new(vec![
            if i % 11 == 0 {
                Value::Null
            } else {
                Value::Int(i)
            },
            Value::Double(i as f64 * 0.5),
            Value::String(format!("s{}", i % 3)),
        ])
    };
    write_orc(&fs, "/orc/vec", &schema, small_opts(), (0..3000).map(make));

    let (rows, _) = read_all(&fs, "/orc/vec", OrcReadOptions::default());

    let mut r = OrcReader::open(&fs, "/orc/vec", OrcReadOptions::default()).unwrap();
    let types: Vec<DataType> = schema
        .fields()
        .iter()
        .map(|f| f.data_type.clone())
        .collect();
    let mut batch = VectorizedRowBatch::new(&types, 256).unwrap();
    let mut got = Vec::new();
    while r.next_batch(&mut batch).unwrap() {
        let cols: Vec<(usize, DataType)> = types.iter().cloned().enumerate().collect();
        got.extend(hive_vector::row_convert::batch_to_rows(&batch, &cols));
    }
    assert_eq!(got.len(), rows.len());
    for (a, b) in got.iter().zip(rows.iter()) {
        assert_eq!(a, b);
    }
}

#[test]
fn vectorized_reader_sets_no_nulls_flag() {
    let fs = dfs();
    let schema = Schema::parse(&[("i", "bigint")]).unwrap();
    write_orc(
        &fs,
        "/orc/nonull",
        &schema,
        small_opts(),
        (0..500).map(|i| Row::new(vec![Value::Int(i)])),
    );
    let mut r = OrcReader::open(&fs, "/orc/nonull", OrcReadOptions::default()).unwrap();
    let mut batch = VectorizedRowBatch::new(&[DataType::Int], 128).unwrap();
    assert!(r.next_batch(&mut batch).unwrap());
    assert!(batch.columns[0].as_long().unwrap().no_nulls);
}

#[test]
fn empty_file_round_trips() {
    let fs = dfs();
    let schema = Schema::parse(&[("i", "bigint")]).unwrap();
    write_orc(&fs, "/orc/empty", &schema, small_opts(), std::iter::empty());
    let (rows, r) = read_all(&fs, "/orc/empty", OrcReadOptions::default());
    assert!(rows.is_empty());
    assert_eq!(r.num_rows(), 0);
}

#[test]
fn corrupt_magic_is_rejected() {
    let fs = dfs();
    let mut w = fs.create("/orc/bogus");
    w.write(b"this is not an orc file at all, sorry!");
    w.try_close().unwrap();
    assert!(OrcReader::open(&fs, "/orc/bogus", OrcReadOptions::default()).is_err());
}

#[test]
fn in_list_predicate_pushdown_skips() {
    let fs = dfs();
    let schema = Schema::parse(&[("state", "string"), ("v", "bigint")]).unwrap();
    // Sorted by state so stripe/group statistics have tight string ranges.
    let states = ["AL", "CA", "GA", "NY", "OH", "SD", "TN", "TX", "WA", "WY"];
    let mut rows = Vec::new();
    for s in states {
        for i in 0..2000i64 {
            rows.push(Row::new(vec![Value::String(s.to_string()), Value::Int(i)]));
        }
    }
    write_orc(&fs, "/orc/in", &schema, small_opts(), rows.into_iter());

    let sarg = SearchArgument::new(vec![hive_formats::PredicateLeaf::in_list(
        0,
        vec![Value::String("SD".into()), Value::String("TN".into())],
    )]);
    let (rows_sel, r) = read_all(
        &fs,
        "/orc/in",
        OrcReadOptions {
            sarg: Some(sarg),
            use_index: true,
            ..Default::default()
        },
    );
    // SD+TN is 20% of the rows; boundary groups straddle states, so allow
    // some slack while still requiring real skipping.
    assert!(
        r.counters.groups_read * 10 < r.counters.groups_total * 6,
        "{:?}",
        r.counters
    );
    assert!(
        r.counters.stripes_read < r.counters.stripes_total,
        "{:?}",
        r.counters
    );
    // Soundness: every SD/TN row is present.
    let hits = rows_sel
        .iter()
        .filter(|row| matches!(row[0].as_str(), Some("SD") | Some("TN")))
        .count();
    assert_eq!(hits, 4000);
}

#[test]
fn block_padding_reduces_remote_reads() {
    // Section 4.1's claim: without stripe/block alignment a stripe can span
    // two blocks (two machines), so a data-local map task must fetch part
    // of its stripe remotely; with padding every stripe is block-local.
    let fs = Dfs::new(DfsConfig {
        block_size: 64 << 10,
        replication: 1, // one replica → any cross-block span is remote
        nodes: 8,
    });
    let schema = Schema::parse(&[("i", "bigint"), ("s", "string")]).unwrap();
    let make = |i: i64| {
        Row::new(vec![
            Value::Int(i),
            Value::String(format!("padding-measure-{i:06}-{}", "z".repeat(24))),
        ])
    };
    let remote_bytes = |padding: bool| -> u64 {
        let path = format!("/orc/pad-{padding}");
        let opts = OrcWriterOptions {
            stripe_size: 24 << 10,
            row_index_stride: 200,
            block_padding: padding,
            ..Default::default()
        };
        write_orc(&fs, &path, &schema, opts, (0..20_000).map(make));
        // One "map task" per block, each reading its own stripes from the
        // block's replica node (data-local scheduling).
        let before = fs.stats().snapshot();
        let len = fs.len(&path).unwrap();
        let mut total_rows = 0;
        for block in fs.blocks(&path).unwrap() {
            let node = block.replicas[0];
            let mut r = OrcReader::open(
                &fs,
                &path,
                OrcReadOptions {
                    split: Some((block.offset, block.offset + block.len)),
                    node: Some(node),
                    ..Default::default()
                },
            )
            .unwrap();
            while r.next_row().unwrap().is_some() {
                total_rows += 1;
            }
        }
        assert_eq!(total_rows, 20_000, "splits must cover every row once");
        let _ = len;
        fs.stats().snapshot().since(&before).bytes_remote
    };
    let unpadded = remote_bytes(false);
    let padded = remote_bytes(true);
    assert!(
        padded < unpadded,
        "alignment must cut remote reads: padded {padded} vs unpadded {unpadded}"
    );
}

// ---------------------------------------------------------------------------
// Deferred columns against the row reader
// ---------------------------------------------------------------------------

/// What one run of [`deferred_read_against_rows`] came across.
#[derive(Default, Debug)]
struct Met {
    rows: usize,
    stripes: u64,
    /// Batches whose rows lie in two or more ordinal runs.
    straddling_batches: usize,
    /// Rows lost to `skip_corrupt` salvage.
    rows_skipped: u64,
    /// Batches a later step left without a row.
    emptied_batches: usize,
    dictionary_columns: usize,
    direct_columns: usize,
}

struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// A random file — nullable long / double / boolean / timestamp columns,
/// strings that come out dictionary-encoded, direct, or one then the other,
/// columns without a NULL and columns of nothing else, several stripes — read
/// the way a map task does: a reader that defers all but a filter's first
/// columns, a mask of pre-unselected rows (the ACID delete mask's shape),
/// then conjunct by conjunct `materialize` + a narrower selection, then
/// `materialize_all`. At every step every filled column must equal the row
/// reader's value (`next_row`: the oracle, which is never lazy) at every row
/// still selected, under the same projection, search argument and
/// `skip_corrupt` salvage, and the two must agree on which rows exist.
fn deferred_read_against_rows(seed: u64, nrows: usize, batch_size: usize) -> Met {
    let mut rng = SplitMix(seed);
    let mut met = Met::default();
    let fs = Dfs::new(DfsConfig {
        block_size: 2 << 10,
        replication: 1,
        nodes: 2,
    });

    // Column 0 is an ascending key for the search argument to cut on.
    let kinds: Vec<usize> = (0..2 + rng.below(5)).map(|_| rng.below(7)).collect();
    let null_modes: Vec<usize> = kinds.iter().map(|_| rng.below(4)).collect();
    let type_name = |kind: usize| match kind {
        0 => "bigint",
        1 => "double",
        2 => "boolean",
        3 => "timestamp",
        _ => "string",
    };
    let mut fields = vec![("k".to_string(), "bigint")];
    fields.extend(
        kinds
            .iter()
            .enumerate()
            .map(|(c, &k)| (format!("c{c}"), type_name(k))),
    );
    let fields: Vec<(&str, &str)> = fields.iter().map(|(n, t)| (n.as_str(), *t)).collect();
    let schema = Schema::parse(&fields).unwrap();
    let cell = |rng: &mut SplitMix, r: usize, kind: usize, nulls: usize| {
        // 0 and 1: no NULL; 2: a fifth; 3: nothing but.
        if nulls == 3 || (nulls == 2 && rng.below(5) == 0) {
            return Value::Null;
        }
        match kind {
            0 => Value::Int(rng.next() as i64 >> rng.below(60)),
            1 => Value::Double((rng.next() % 10_000) as f64 / 7.0 - 500.0),
            2 => Value::Boolean(rng.below(2) == 0),
            3 => Value::Timestamp(1_400_000_000_000 + (rng.next() % 1_000_000) as i64),
            4 => Value::String(format!("dict-{}", rng.below(7))),
            5 => Value::String(format!("direct-{r}-{}", rng.next() % 1000)),
            // Dictionary-encoded in the file's first stripes, direct after.
            _ if r < nrows / 2 => Value::String(format!("lo-{}", rng.below(4))),
            _ => Value::String(format!("hi-{r}-{}", rng.next())),
        }
    };
    let rows: Vec<Row> = (0..nrows)
        .map(|r| {
            let mut vals = vec![Value::Int(r as i64 * 3)];
            for (&kind, &nulls) in kinds.iter().zip(&null_modes) {
                vals.push(cell(&mut rng, r, kind, nulls));
            }
            Row::new(vals)
        })
        .collect();
    let opts = OrcWriterOptions {
        stripe_size: (4 + rng.below(12)) << 10,
        row_index_stride: 16 + rng.below(40),
        compression: [Compression::None, Compression::Snappy, Compression::Zlib][rng.below(3)],
        compress_unit: 1 << 10,
        ..Default::default()
    };
    write_orc(&fs, "/orc/deferred", &schema, opts, rows.into_iter());

    // A projection in any order, sometimes a search argument that leaves
    // gaps between the index groups read, sometimes a corrupt chunk.
    let mut projection: Vec<usize> = (0..schema.len()).filter(|_| rng.below(4) > 0).collect();
    if projection.is_empty() {
        projection.push(rng.below(schema.len()));
    }
    for i in (1..projection.len()).rev() {
        projection.swap(i, rng.below(i + 1));
    }
    let sarg = (rng.below(2) == 0).then(|| {
        let keys = (0..2 + rng.below(6)).map(|_| Value::Int(rng.below(nrows) as i64 * 3));
        SearchArgument::new(vec![PredicateLeaf::in_list(0, keys.collect())])
    });
    let corrupt = rng.below(3) == 0;
    if corrupt {
        let len = fs.len("/orc/deferred").unwrap();
        let at = rng.next() % (len * 4 / 5);
        fs.corrupt_stored("/orc/deferred", at, 0x5a).unwrap();
    }
    let read_opts = || OrcReadOptions {
        projection: Some(projection.clone()),
        sarg: sarg.clone(),
        use_index: true,
        skip_corrupt: corrupt,
        ..Default::default()
    };

    // The oracle: rows by physical ordinal.
    let Ok(mut by_row) = OrcReader::open(&fs, "/orc/deferred", read_opts()) else {
        return met; // the corrupt byte hit the file tail: nothing opens
    };
    let mut oracle: Vec<(u64, Row)> = Vec::new();
    while let Some(row) = by_row.next_row().unwrap() {
        oracle.push((by_row.last_row_ordinal().unwrap(), row));
    }

    let types: Vec<DataType> = projection
        .iter()
        .map(|&c| schema.field(c).data_type.clone())
        .collect();
    let ncols = types.len();
    // Which columns the reader fills, which each conjunct asks for; the rest
    // is left to `materialize_all`.
    let step_of: Vec<usize> = (0..ncols).map(|_| rng.below(5)).collect();
    let first: Vec<usize> = (0..ncols).filter(|&c| step_of[c] == 0).collect();
    let mut by_batch = OrcReader::open(&fs, "/orc/deferred", read_opts()).unwrap();
    by_batch.defer_all_but(&first);
    let mut batch = VectorizedRowBatch::new(&types, batch_size).unwrap();
    let mut next = 0usize; // oracle row the batch's row 0 is
    let mask = rng.below(2) == 0;
    while by_batch.next_batch(&mut batch).unwrap() {
        let runs = by_batch.batch_ordinal_runs().unwrap().to_vec();
        met.straddling_batches += (runs.len() > 1) as usize;
        let ordinals: Vec<u64> = runs.iter().flat_map(|&(s, n)| s..s + n).collect();
        assert_eq!(ordinals.len(), batch.size, "runs cover the batch");
        let expect = &oracle[next..next + batch.size];
        let same = ordinals.iter().eq(expect.iter().map(|(ord, _)| ord));
        assert!(same, "the two readers disagree on which rows exist");
        next += batch.size;
        let check = |batch: &VectorizedRowBatch, filled: &[usize], what: &str| {
            for i in batch.iter_selected() {
                for &c in filled {
                    let got = hive_vector::row_convert::get_value(&batch.columns[c], i, &types[c]);
                    let (ord, row) = &expect[i];
                    assert_eq!(
                        got, row[c],
                        "{what}: column {c} at ordinal {ord} (seed {seed})"
                    );
                }
            }
        };
        let narrow = |batch: &mut VectorizedRowBatch, rng: &mut SplitMix, keep_one_in: usize| {
            let all = keep_one_in == 0;
            let drop: Vec<usize> = batch
                .iter_selected()
                .filter(|_| all || rng.below(keep_one_in) > 0)
                .collect();
            batch.unselect_rows(&drop);
        };
        if mask {
            let drop: Vec<usize> = (0..batch.size).filter(|_| rng.below(5) == 0).collect();
            batch.unselect_rows(&drop);
        }
        let mut filled = first.clone();
        check(&batch, &filled, "first columns");
        for step in 1..4 {
            let asks: Vec<usize> = (0..ncols).filter(|&c| step_of[c] == step).collect();
            batch.materialize(&asks);
            filled.extend(asks);
            check(&batch, &filled, "after a conjunct's columns");
            // Keep about all, half, a tenth, or none.
            let keep_one_in = [50, 2, 10, 0][rng.below(4)];
            let before = batch.size;
            narrow(&mut batch, &mut rng, keep_one_in);
            met.emptied_batches += (before > 0 && batch.size == 0) as usize;
        }
        batch.materialize_all();
        assert!(!batch.has_deferred());
        check(
            &batch,
            &(0..ncols).collect::<Vec<_>>(),
            "after materialize_all",
        );
        for (c, col) in batch.columns.iter().enumerate() {
            let hive_vector::ColumnVector::Bytes(v) = col else {
                continue;
            };
            let filled_here = batch.size > 0 || first.contains(&c);
            match v.dictionary() {
                Some(_) => met.dictionary_columns += 1,
                None if filled_here => met.direct_columns += 1,
                None => {}
            }
        }
    }
    assert_eq!(next, oracle.len(), "the batch reader ended early");
    let (stats, row_stats) = (by_batch.read_stats(), by_row.read_stats());
    assert_eq!(stats.rows_skipped, row_stats.rows_skipped);
    assert!(stats.values_materialized <= (ncols * oracle.len()) as u64);
    assert_eq!(row_stats.values_materialized, 0, "rows are not batches");
    met.rows = oracle.len();
    met.stripes = stats.stripes_read;
    met.rows_skipped = stats.rows_skipped;
    met
}

mod deferred {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn deferred_read_equals_the_row_reader_at_every_surviving_row(
            seed in any::<u64>(),
            nrows in 150usize..1500,
            batch_size in 17usize..300,
        ) {
            deferred_read_against_rows(seed, nrows, batch_size);
        }
    }

    /// The property above is only worth its name if its cases reach the
    /// situations it is about.
    #[test]
    fn the_deferred_read_cases_cover_what_they_claim() {
        let mut total = Met::default();
        let mut multi_stripe = 0;
        for seed in 0..40u64 {
            let met =
                deferred_read_against_rows(seed, 400 + 20 * seed as usize, 64 + seed as usize);
            multi_stripe += (met.stripes >= 2) as usize;
            total.rows += met.rows;
            total.straddling_batches += met.straddling_batches;
            total.rows_skipped += met.rows_skipped;
            total.emptied_batches += met.emptied_batches;
            total.dictionary_columns += met.dictionary_columns;
            total.direct_columns += met.direct_columns;
        }
        assert!(
            multi_stripe >= 20,
            "{multi_stripe} of 40 files had two stripes: {total:?}"
        );
        assert!(total.straddling_batches > 0, "{total:?}");
        assert!(total.rows_skipped > 0, "{total:?}");
        assert!(total.emptied_batches > 0, "{total:?}");
        assert!(
            total.dictionary_columns > 0 && total.direct_columns > 0,
            "{total:?}"
        );
    }
}
