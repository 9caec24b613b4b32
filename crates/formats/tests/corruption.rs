//! Failure injection: flip/truncate bytes anywhere in ORC, RCFile and
//! SequenceFile files and require the readers to fail with errors — never
//! panic, never loop — or, when the corruption misses the bytes a read
//! touches, to succeed. (A storage layer that aborts the process on a bad
//! block would take the whole task down with it.)

use hive_codec::block::Compression;
use hive_common::{DataType, Row, Schema, Value};
use hive_dfs::{Dfs, DfsConfig};
use hive_formats::orc::reader::{OrcReadOptions, OrcReader};
use hive_formats::orc::writer::{OrcWriter, OrcWriterOptions};
use hive_formats::rcfile::{RcFileReader, RcFileWriter};
use hive_formats::sequence::{SequenceReader, SequenceWriter};
use hive_formats::{TableReader, TableWriter};
use hive_vector::VectorizedRowBatch;

fn dfs() -> Dfs {
    Dfs::new(DfsConfig {
        block_size: 1 << 20,
        replication: 1,
        nodes: 2,
    })
}

fn schema() -> Schema {
    Schema::parse(&[("a", "bigint"), ("b", "string"), ("c", "double")]).unwrap()
}

fn types() -> Vec<DataType> {
    schema()
        .fields()
        .iter()
        .map(|f| f.data_type.clone())
        .collect()
}

fn rows() -> Vec<Row> {
    (0..2000)
        .map(|i| {
            Row::new(vec![
                Value::Int(i),
                Value::String(format!("value-{}", i % 37)),
                Value::Double(i as f64 / 3.0),
            ])
        })
        .collect()
}

/// Copy `path` into `dst` with one byte XOR-flipped at `pos`.
fn flip_byte(fs: &Dfs, path: &str, dst: &str, pos: usize) {
    let mut r = fs.open(path, None).unwrap();
    let mut data = r.read_all().unwrap();
    let idx = pos % data.len();
    data[idx] ^= 0x5A;
    let mut w = fs.create(dst);
    w.write(&data);
    w.try_close().unwrap();
}

/// Copy `path` into `dst` truncated to `len` bytes.
fn truncate(fs: &Dfs, path: &str, dst: &str, len: usize) {
    let mut r = fs.open(path, None).unwrap();
    let data = r.read_all().unwrap();
    let mut w = fs.create(dst);
    w.write(&data[..len.min(data.len())]);
    w.try_close().unwrap();
}

/// Drain a reader batch by batch into batches of `types`; Ok(row count) or
/// the first error. Bounded like [`drain`].
fn drain_batches(
    mut reader: Box<dyn TableReader>,
    types: &[DataType],
) -> Result<usize, hive_common::HiveError> {
    let mut batch = VectorizedRowBatch::new(types, 256).unwrap();
    let mut n = 0usize;
    while reader.next_batch(&mut batch)? {
        n += batch.size;
        assert!(n <= 1_000_000, "batch reader loops under corruption");
    }
    Ok(n)
}

/// Drain a reader; Ok(row count) or the first error. Bounded iterations
/// guard against corruption-induced loops.
fn drain(mut reader: Box<dyn TableReader>) -> Result<usize, hive_common::HiveError> {
    let mut n = 0usize;
    loop {
        match reader.next_row() {
            Ok(Some(_)) => {
                n += 1;
                assert!(n <= 1_000_000, "reader loops under corruption");
            }
            Ok(None) => return Ok(n),
            Err(e) => return Err(e),
        }
    }
}

#[test]
fn orc_survives_bit_flips_everywhere() {
    let fs = dfs();
    let mut w: Box<dyn TableWriter> = Box::new(OrcWriter::create(
        &fs,
        "/c/orc",
        &schema(),
        OrcWriterOptions {
            stripe_size: 16 << 10,
            row_index_stride: 100,
            compression: Compression::Snappy,
            compress_unit: 4 << 10,
            ..Default::default()
        },
        None,
    ));
    for r in rows() {
        w.write_row(&r).unwrap();
    }
    w.close().unwrap();
    let len = fs.len("/c/orc").unwrap() as usize;

    // Flip a byte at 97 positions spread over the whole file.
    for k in 0..97 {
        let pos = k * len / 97;
        flip_byte(&fs, "/c/orc", "/c/orc-bad", pos);
        // Opening may fail cleanly; if it works, draining must not panic
        // (wrong data is acceptable — checksums are out of scope — crashing
        // is not).
        if let Ok(r) = OrcReader::open(&fs, "/c/orc-bad", OrcReadOptions::default()) {
            let _ = drain(Box::new(r));
        }
        // The vectorized path must be equally robust.
        if let Ok(r) = OrcReader::open(&fs, "/c/orc-bad", OrcReadOptions::default()) {
            let _ = drain_batches(Box::new(r), &types());
        }
    }
}

/// Every byte of a small file's footer and postscript, uncompressed and
/// Snappy, XORed with 0x01, 0x80 and 0xFF: opening and draining the file
/// gives rows or an error. A count decoded from a flipped byte never sizes
/// an allocation (one such asked for 24 PB and aborted the process, which
/// `catch_unwind` cannot contain).
#[test]
fn orc_footer_and_postscript_survive_every_flip() {
    let fs = dfs();
    for compression in [Compression::None, Compression::Snappy] {
        let mut w: Box<dyn TableWriter> = Box::new(OrcWriter::create(
            &fs,
            "/c/tail",
            &schema(),
            OrcWriterOptions {
                stripe_size: 4 << 10,
                row_index_stride: 50,
                compression,
                compress_unit: 4 << 10,
                ..Default::default()
            },
            None,
        ));
        for r in rows().into_iter().take(300) {
            w.write_row(&r).unwrap();
        }
        w.close().unwrap();
        let clean = OrcReader::open(&fs, "/c/tail", OrcReadOptions::default()).unwrap();
        assert!(
            clean.is_ordered(0) && !clean.is_ordered(1),
            "the footer carries order flags"
        );
        let data = fs
            .open("/c/tail", None)
            .unwrap()
            .read_all()
            .unwrap()
            .to_vec();
        let n = data.len();
        let ps_len = data[n - 1] as usize;
        let mut pos = n - 1 - ps_len;
        let footer_len = hive_codec::varint::read_unsigned(&data, &mut pos).unwrap() as usize;
        for at in n - 1 - ps_len - footer_len..n {
            for mask in [0x01u8, 0x80, 0xFF] {
                let mut bytes = data.clone();
                bytes[at] ^= mask;
                let mut w = fs.create("/c/tail-bad");
                w.write(&bytes);
                w.try_close().unwrap();
                let read = || {
                    let opts = OrcReadOptions::default();
                    if let Ok(r) = OrcReader::open(&fs, "/c/tail-bad", opts.clone()) {
                        let _ = drain(Box::new(r));
                    }
                    if let Ok(r) = OrcReader::open(&fs, "/c/tail-bad", opts) {
                        let _ = drain_batches(Box::new(r), &types());
                    }
                };
                let outcome = std::panic::catch_unwind(read);
                assert!(
                    outcome.is_ok(),
                    "{compression}: byte {at} ^ {mask:#04x} panicked"
                );
            }
        }
    }
}

/// The longest list or map the ORC reader hands out.
const MAX_ENTRIES: usize = 1 << 24;

/// Whether every list and map in `v`, at any depth, is within the cap.
fn within_cap(v: &Value) -> bool {
    match v {
        Value::Array(items) | Value::Struct(items) => {
            items.len() <= MAX_ENTRIES && items.iter().all(within_cap)
        }
        Value::Map(pairs) => {
            pairs.len() <= MAX_ENTRIES && pairs.iter().all(|(k, v)| within_cap(k) && within_cap(v))
        }
        Value::Union(_, payload) => within_cap(payload),
        _ => true,
    }
}

/// The row reader builds nested values from length, tag and PRESENT
/// streams a flipped byte can make lie: every read over a list, map,
/// struct and union file with NULLs at each level, flipped anywhere, uncompressed
/// (the decoders see the flip) and compressed, returns rows or a typed
/// error — no panic, no loop, no collection past the cap.
#[test]
fn orc_nested_types_survive_bit_flips_everywhere() {
    let fs = dfs();
    let schema = Schema::parse(&[
        ("l", "array<bigint>"),
        ("m", "map<string,double>"),
        ("s", "struct<x:bigint,y:string>"),
        ("u", "uniontype<bigint,string>"),
    ])
    .unwrap();
    let null_or = |i: i64, every: i64, v: Value| if i % every == 0 { Value::Null } else { v };
    let make = |i: i64| {
        let items = (0..i % 5).map(|j| null_or(j, 3, Value::Int(i * j)));
        let entries = (0..i % 3).map(|j| {
            let value = null_or(i + j, 4, Value::Double(j as f64 / 7.0));
            (Value::String(format!("k{j}")), value)
        });
        let fields = vec![
            null_or(i, 6, Value::Int(i)),
            Value::String(format!("y{}", i % 11)),
        ];
        let alternative = match i % 2 {
            0 => Value::Union(0, Box::new(Value::Int(i))),
            _ => Value::Union(1, Box::new(null_or(i, 9, Value::String(format!("u{i}"))))),
        };
        Row::new(vec![
            null_or(i, 7, Value::Array(items.collect())),
            null_or(i, 5, Value::Map(entries.collect())),
            null_or(i, 8, Value::Struct(fields)),
            null_or(i, 10, alternative),
        ])
    };
    for compression in [Compression::None, Compression::Snappy] {
        let opts = OrcWriterOptions {
            stripe_size: 16 << 10,
            row_index_stride: 100,
            compression,
            compress_unit: 4 << 10,
            ..Default::default()
        };
        let mut w: Box<dyn TableWriter> =
            Box::new(OrcWriter::create(&fs, "/c/nested", &schema, opts, None));
        for i in 0..1500 {
            w.write_row(&make(i)).unwrap();
        }
        w.close().unwrap();
        let len = fs.len("/c/nested").unwrap() as usize;
        for k in 0..211 {
            flip_byte(&fs, "/c/nested", "/c/nested-bad", k * len / 211);
            for skip_corrupt in [false, true] {
                let opts = OrcReadOptions {
                    skip_corrupt,
                    ..Default::default()
                };
                let Ok(mut r) = OrcReader::open(&fs, "/c/nested-bad", opts) else {
                    continue;
                };
                let mut n = 0;
                while let Ok(Some(row)) = r.next_row() {
                    assert!(row.values().iter().all(within_cap), "flip {k}: row {n}");
                    n += 1;
                    assert!(n <= 1500, "flip {k}: the reader made up rows");
                }
            }
        }
    }
}

#[test]
fn orc_survives_truncation_everywhere() {
    let fs = dfs();
    let mut w: Box<dyn TableWriter> = Box::new(OrcWriter::create(
        &fs,
        "/c/orc2",
        &schema(),
        OrcWriterOptions {
            stripe_size: 16 << 10,
            row_index_stride: 100,
            ..Default::default()
        },
        None,
    ));
    for r in rows() {
        w.write_row(&r).unwrap();
    }
    w.close().unwrap();
    let len = fs.len("/c/orc2").unwrap() as usize;
    for k in 1..40 {
        let cut = k * len / 40;
        truncate(&fs, "/c/orc2", "/c/orc2-cut", cut);
        if let Ok(r) = OrcReader::open(&fs, "/c/orc2-cut", OrcReadOptions::default()) {
            let _ = drain(Box::new(r));
        }
    }
}

#[test]
fn rcfile_survives_corruption() {
    let fs = dfs();
    let mut w: Box<dyn TableWriter> = Box::new(RcFileWriter::create(
        &fs,
        "/c/rc",
        &schema(),
        16 << 10,
        Compression::Snappy,
    ));
    for r in rows() {
        w.write_row(&r).unwrap();
    }
    w.close().unwrap();
    let len = fs.len("/c/rc").unwrap() as usize;
    for k in 0..60 {
        let pos = k * len / 60;
        flip_byte(&fs, "/c/rc", "/c/rc-bad", pos);
        if let Ok(r) = RcFileReader::open(&fs, "/c/rc-bad", &schema(), None, None) {
            let _ = drain(Box::new(r));
        }
        truncate(&fs, "/c/rc", "/c/rc-cut", pos.max(8));
        if let Ok(r) = RcFileReader::open(&fs, "/c/rc-cut", &schema(), None, None) {
            let _ = drain(Box::new(r));
        }
    }
}

/// Write an ORC file with small stripes/groups onto a small-block DFS so
/// one corrupt checksum chunk touches only part of the file.
fn write_orc(fs: &Dfs, path: &str, nrows: i64) {
    let mut w: Box<dyn TableWriter> = Box::new(OrcWriter::create(
        fs,
        path,
        &schema(),
        OrcWriterOptions {
            stripe_size: 16 << 10,
            row_index_stride: 100,
            compression: Compression::Snappy,
            compress_unit: 4 << 10,
            ..Default::default()
        },
        None,
    ));
    for i in 0..nrows {
        w.write_row(&Row::new(vec![
            Value::Int(i),
            Value::String(format!("value-{}", i % 37)),
            Value::Double(i as f64 / 3.0),
        ]))
        .unwrap();
    }
    w.close().unwrap();
}

/// Every surviving row must be internally consistent with how it was
/// written — degradation may *drop* rows, never alter them.
fn assert_row_intact(row: &Row) {
    let a = row[0].as_int().unwrap();
    assert_eq!(row[1], Value::String(format!("value-{}", a % 37)));
    assert_eq!(row[2], Value::Double(a as f64 / 3.0));
}

#[test]
fn skip_corrupt_data_degrades_instead_of_failing() {
    let fs = Dfs::new(DfsConfig {
        block_size: 8 << 10,
        replication: 1,
        nodes: 2,
    });
    let nrows = 4000i64;
    write_orc(&fs, "/c/skip", nrows);
    let len = fs.len("/c/skip").unwrap();
    // Tamper with one stored byte mid-file, keeping the stale chunk CRCs:
    // every read returning a byte of its 512-byte chunk now fails checksum
    // verification.
    // Stay clear of the footer tail the reader fetches at open time.
    let pos = len / 4;
    assert!(pos + (16 << 10) < len, "file too small for the test layout");
    fs.corrupt_stored("/c/skip", pos, 0x5a).unwrap();

    // Without degradation the checksum failure is fatal.
    let strict = OrcReader::open(&fs, "/c/skip", OrcReadOptions::default()).unwrap();
    let err = drain(Box::new(strict)).expect_err("stale checksum must fail a strict read");
    assert!(err.is_data_corruption(), "unexpected error kind: {err:?}");

    // With `hive.exec.orc.skip.corrupt.data` the read completes; the rows
    // of corrupt groups/stripes are skipped and everything else survives
    // intact, with exact accounting.
    let mut r = OrcReader::open(
        &fs,
        "/c/skip",
        OrcReadOptions {
            skip_corrupt: true,
            ..Default::default()
        },
    )
    .unwrap();
    let mut survived = 0u64;
    let mut last_a = -1i64;
    while let Some(row) = r.next_row().unwrap() {
        assert_row_intact(&row);
        let a = row[0].as_int().unwrap();
        assert!(a > last_a, "surviving rows out of order");
        last_a = a;
        survived += 1;
    }
    let skipped = r.read_stats().rows_skipped;
    assert!(skipped > 0, "the corrupt chunk must cost some rows");
    assert!(
        skipped < nrows as u64,
        "group-level salvage must save most of the file"
    );
    assert_eq!(
        survived + skipped,
        nrows as u64,
        "rows lost without account"
    );
    assert_eq!(r.counters.rows_skipped, skipped);
}

#[test]
fn skip_corrupt_data_vectorized_matches_row_reader() {
    let fs = Dfs::new(DfsConfig {
        block_size: 8 << 10,
        replication: 1,
        nodes: 2,
    });
    let nrows = 4000i64;
    write_orc(&fs, "/c/skipv", nrows);
    let len = fs.len("/c/skipv").unwrap();
    fs.corrupt_stored("/c/skipv", len / 4, 0x5a).unwrap();
    let opts = || OrcReadOptions {
        skip_corrupt: true,
        ..Default::default()
    };

    let mut row_reader = OrcReader::open(&fs, "/c/skipv", opts()).unwrap();
    let mut row_values: Vec<i64> = Vec::new();
    while let Some(row) = row_reader.next_row().unwrap() {
        row_values.push(row[0].as_int().unwrap());
    }

    let mut vec_reader = OrcReader::open(&fs, "/c/skipv", opts()).unwrap();
    let mut batch = hive_vector::VectorizedRowBatch::new(
        &[
            hive_common::DataType::Int,
            hive_common::DataType::String,
            hive_common::DataType::Double,
        ],
        256,
    )
    .unwrap();
    let mut vec_values: Vec<i64> = Vec::new();
    while vec_reader.next_batch(&mut batch).unwrap() {
        let hive_vector::ColumnVector::Long(col) = &batch.columns[0] else {
            panic!("expected long column");
        };
        vec_values.extend_from_slice(&col.vector[..batch.size]);
    }

    assert_eq!(vec_values, row_values, "vectorized salvage diverged");
    assert_eq!(
        vec_reader.read_stats().rows_skipped,
        row_reader.read_stats().rows_skipped
    );
    assert_eq!(
        vec_values.len() as u64 + vec_reader.read_stats().rows_skipped,
        nrows as u64
    );
}

/// With degradation on, arbitrary payload bit-flips (re-checksummed, so
/// the DFS CRC does not catch them) must never surface an error from
/// either read path: decode failures are absorbed as skipped rows.
#[test]
fn skip_corrupt_data_absorbs_bit_flips_everywhere() {
    let fs = dfs();
    write_orc(&fs, "/c/flips", 2000);
    let len = fs.len("/c/flips").unwrap() as usize;
    let opts = || OrcReadOptions {
        skip_corrupt: true,
        ..Default::default()
    };
    for k in 0..97 {
        let pos = k * len / 97;
        flip_byte(&fs, "/c/flips", "/c/flips-bad", pos);
        // Opening can still fail (file footer damage); reads must not.
        if let Ok(mut r) = OrcReader::open(&fs, "/c/flips-bad", opts()) {
            let mut n = 0u64;
            while let Some(row) = r.next_row().expect("skip_corrupt read errored") {
                drop(row);
                n += 1;
                assert!(n <= 2000, "reader produced extra rows");
            }
        }
        if let Ok(mut r) = OrcReader::open(&fs, "/c/flips-bad", opts()) {
            let mut batch = hive_vector::VectorizedRowBatch::new(
                &[
                    hive_common::DataType::Int,
                    hive_common::DataType::String,
                    hive_common::DataType::Double,
                ],
                256,
            )
            .unwrap();
            let mut batches = 0;
            while r
                .next_batch(&mut batch)
                .expect("vectorized skip_corrupt errored")
            {
                batches += 1;
                assert!(batches < 100_000, "vectorized reader loops");
            }
        }
    }
}

/// A tampered or torn bloom-filter section must degrade to "read the
/// group": same rows as a clean file, never a wrong answer, never a
/// panic, with the degradation counted for EXPLAIN ANALYZE's skip
/// accounting. The file is *republished* after tampering (fresh DFS block
/// CRCs), so only the bloom section's own CRC can catch it.
#[test]
fn tampered_bloom_section_degrades_to_stats_only() {
    use hive_formats::orc::sarg::{PredicateLeaf, PredicateOp, SearchArgument};

    let fs = dfs();
    let mut w: Box<dyn TableWriter> = Box::new(OrcWriter::create(
        &fs,
        "/c/bloom",
        &schema(),
        OrcWriterOptions {
            stripe_size: 16 << 10,
            row_index_stride: 100,
            bloom_columns: vec![1], // the string column `b`
            bloom_fpp: 0.02,
            ..Default::default()
        },
        None,
    ));
    // Scattered string values: every group's lexical min/max spans nearly
    // the whole domain (useless to stats), but each concrete value lives
    // in only a handful of groups (prunable by bloom).
    let scatter = |i: i64| format!("value-{}", (i * 7919) % 509);
    let check = |row: &Row| {
        let a = row[0].as_int().unwrap();
        assert_eq!(row[1], Value::String(scatter(a)));
        a
    };
    for i in 0..4000i64 {
        w.write_row(&Row::new(vec![
            Value::Int(i),
            Value::String(scatter(i)),
            Value::Double(i as f64 / 3.0),
        ]))
        .unwrap();
    }
    w.close().unwrap();

    // An equality predicate on `b` that stats can't prune but bloom can.
    let sarg = SearchArgument::new(vec![PredicateLeaf::new(
        1,
        PredicateOp::Equals,
        Some(Value::String("value-11".into())),
    )]);
    let opts = |sarg: &SearchArgument| OrcReadOptions {
        sarg: Some(sarg.clone()),
        use_index: true,
        ..Default::default()
    };

    // Clean baseline: bloom pruning fires and every matching row is
    // still returned (the reader skips groups; row-level filtering is the
    // query engine's job, so surviving groups return non-matching rows
    // too).
    let mut clean = OrcReader::open(&fs, "/c/bloom", opts(&sarg)).unwrap();
    let infos: Vec<_> = clean.stripe_infos().to_vec();
    assert!(infos.iter().all(|si| si.bloom_len > 0), "bloom emitted");
    let mut clean_total = 0usize;
    let mut clean_rows: Vec<i64> = Vec::new();
    while let Some(row) = clean.next_row().unwrap() {
        let a = check(&row);
        clean_total += 1;
        if scatter(a) == "value-11" {
            clean_rows.push(a);
        }
    }
    let expect: Vec<i64> = (0..4000).filter(|&i| scatter(i) == "value-11").collect();
    assert_eq!(clean_rows, expect, "bloom pruning lost matching rows");
    assert!(
        clean.counters.groups_bloom_pruned > 0,
        "bloom filters should prune groups stats cannot"
    );
    assert_eq!(clean.counters.bloom_corrupt, 0);

    let mut data = fs.open("/c/bloom", None).unwrap().read_all().unwrap();
    let si = &infos[0];
    let bloom_start = (si.offset + si.index_len) as usize;
    let bloom_end = bloom_start + si.bloom_len as usize;

    // Tamper variants inside the first stripe's bloom section: single-bit
    // flips spread across it, plus a torn (half-zeroed) section.
    let mut variants: Vec<Vec<u8>> = (0..8)
        .map(|k| {
            let mut v = data.clone();
            v[bloom_start + k * si.bloom_len as usize / 8] ^= 0x5A;
            v
        })
        .collect();
    let mid = (bloom_start + bloom_end) / 2;
    data[mid..bloom_end].fill(0);
    variants.push(data);

    for (i, v) in variants.into_iter().enumerate() {
        let mut w = fs.create("/c/bloom-bad");
        w.write(&v);
        w.try_close().unwrap();
        let mut r = OrcReader::open(&fs, "/c/bloom-bad", opts(&sarg)).unwrap();
        let mut got_total = 0usize;
        let mut got: Vec<i64> = Vec::new();
        while let Some(row) = r.next_row().unwrap() {
            let a = check(&row);
            got_total += 1;
            if scatter(a) == "value-11" {
                got.push(a);
            }
        }
        assert_eq!(got, expect, "variant {i}: degraded read lost rows");
        // Degradation means "read the group": never fewer rows than the
        // bloom-pruned clean read produced.
        assert!(
            got_total >= clean_total,
            "variant {i}: degraded read skipped groups it cannot vouch for"
        );
        assert!(
            r.counters.bloom_corrupt > 0,
            "variant {i}: degradation must be counted"
        );
    }
}

/// Bloom pruning must be exact for equality and IN predicates: never
/// drop a matching row, whatever the literal's type representation.
#[test]
fn bloom_pruning_never_loses_rows() {
    use hive_formats::orc::sarg::{PredicateLeaf, PredicateOp, SearchArgument};

    let fs = dfs();
    let mut w: Box<dyn TableWriter> = Box::new(OrcWriter::create(
        &fs,
        "/c/bloom2",
        &schema(),
        OrcWriterOptions {
            stripe_size: 16 << 10,
            row_index_stride: 100,
            bloom_columns: vec![0, 1, 2],
            ..Default::default()
        },
        None,
    ));
    for r in rows() {
        w.write_row(&r).unwrap();
    }
    w.close().unwrap();

    type RowPred = Box<dyn Fn(&Row) -> bool>;
    let cases: Vec<(PredicateLeaf, RowPred)> = vec![
        (
            PredicateLeaf::new(0, PredicateOp::Equals, Some(Value::Int(777))),
            Box::new(|r: &Row| r[0] == Value::Int(777)),
        ),
        (
            // Double literal against the bigint column: numeric coercion.
            PredicateLeaf::new(0, PredicateOp::Equals, Some(Value::Double(777.0))),
            Box::new(|r: &Row| r[0] == Value::Int(777)),
        ),
        (
            PredicateLeaf {
                column: 1,
                op: PredicateOp::In,
                literal: None,
                literal2: None,
                literal_list: vec![
                    Value::String("value-3".into()),
                    Value::String("value-19".into()),
                ],
            },
            Box::new(|r: &Row| {
                r[1] == Value::String("value-3".into()) || r[1] == Value::String("value-19".into())
            }),
        ),
        (
            PredicateLeaf::new(2, PredicateOp::Equals, Some(Value::Double(300.0))),
            Box::new(|r: &Row| r[2] == Value::Double(300.0)),
        ),
    ];
    for (leaf, want) in cases {
        let mut r = OrcReader::open(
            &fs,
            "/c/bloom2",
            OrcReadOptions {
                sarg: Some(SearchArgument::new(vec![leaf.clone()])),
                use_index: true,
                ..Default::default()
            },
        )
        .unwrap();
        let mut got = 0usize;
        while let Some(row) = r.next_row().unwrap() {
            if want(&row) {
                got += 1;
            }
        }
        let expect = rows().iter().filter(|r| want(r)).count();
        assert_eq!(got, expect, "bloom pruning lost rows for {leaf:?}");
    }
}

/// Every byte of a SequenceFile flipped, and the file cut at every byte: the
/// row reader and the batch reader (which decodes intermediates straight
/// into lanes) return rows or a typed error, never panic, never loop.
#[test]
fn sequencefile_survives_corruption() {
    let fs = dfs();
    let mut w: Box<dyn TableWriter> = Box::new(SequenceWriter::create(&fs, "/c/seq"));
    for r in rows().iter().take(300) {
        w.write_row(r).unwrap();
    }
    w.close().unwrap();
    let read_both = |path: &str| {
        let open = || SequenceReader::open(&fs, path, schema(), None, None);
        if let Ok(r) = open() {
            let _ = drain(Box::new(r));
        }
        if let Ok(r) = open() {
            let _ = drain_batches(Box::new(r), &types());
        }
    };
    for pos in 0..fs.len("/c/seq").unwrap() as usize {
        flip_byte(&fs, "/c/seq", "/c/seq-bad", pos);
        read_both("/c/seq-bad");
        truncate(&fs, "/c/seq", "/c/seq-cut", pos);
        read_both("/c/seq-cut");
    }
}

/// A SequenceFile record narrower than its table is a typed error on every
/// read path, projected or not: not an index panic in the projection, nor a
/// short row handed to the operators.
#[test]
fn sequencefile_record_narrower_than_its_schema_is_an_error() {
    let fs = dfs();
    let mut w: Box<dyn TableWriter> = Box::new(SequenceWriter::create(&fs, "/c/narrow"));
    for i in 0..10 {
        w.write_row(&Row::new(vec![Value::Int(i)])).unwrap();
    }
    w.close().unwrap();
    let all = types();
    for (projection, types) in [
        (None, all.clone()),
        (Some(vec![0, 2]), vec![all[0].clone(), all[2].clone()]),
    ] {
        let open = || SequenceReader::open(&fs, "/c/narrow", schema(), projection.clone(), None);
        let err = open().unwrap().next_row().unwrap_err();
        assert!(matches!(err, hive_common::HiveError::Format(_)), "{err}");
        let mut batch = VectorizedRowBatch::new(&types, 256).unwrap();
        assert!(open().unwrap().next_batch(&mut batch).is_err());
    }
}
