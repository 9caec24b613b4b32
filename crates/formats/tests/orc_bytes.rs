//! The ORC writer's output, pinned byte for byte: fixed, seeded inputs are
//! written and each file's length and 64-bit FNV-1a digest are compared
//! with the values the writer produced before its buffers were reworked.
//! Any change to an encoding, a stream's framing, a statistic, a bloom
//! filter, where a stripe ends or where padding goes moves a digest.

use hive_codec::block::Compression;
use hive_common::{Row, Schema, Value};
use hive_dfs::{Dfs, DfsConfig};
use hive_formats::orc::memory::MemoryManager;
use hive_formats::orc::writer::{OrcWriter, OrcWriterOptions};
use hive_formats::TableWriter;

/// FNV-1a, 64-bit.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Write `rows` to a fresh file and return `(length, digest, padding)`.
fn write(
    block_size: u64,
    schema: &Schema,
    options: OrcWriterOptions,
    memory: Option<&MemoryManager>,
    rows: impl Iterator<Item = Row>,
) -> (usize, u64, u64) {
    let fs = Dfs::new(DfsConfig {
        block_size,
        replication: 1,
        nodes: 1,
    });
    let mut w = Box::new(OrcWriter::create(&fs, "/t/f", schema, options, memory));
    for r in rows {
        w.write_row(&r).unwrap();
    }
    let padding = w.padding_bytes;
    let len = w.close().unwrap() as usize;
    let bytes = fs.open("/t/f", None).unwrap().read_all().unwrap().to_vec();
    assert_eq!(bytes.len(), len);
    (len, fnv1a(&bytes), padding)
}

fn lineitem(compression: Compression, bloom_columns: Vec<usize>) -> (usize, u64, u64) {
    let schema = hive_datagen::tpch::lineitem_schema();
    let options = OrcWriterOptions {
        stripe_size: 1 << 20,
        row_index_stride: 10_000,
        compression,
        bloom_columns,
        ..Default::default()
    };
    // The memory manager the loads run under, shared with nothing else.
    let memory = MemoryManager::for_task_memory(64 << 20, 0.5);
    let rows = hive_datagen::tpch::lineitem_rows(0.01, 42);
    write(4 << 20, &schema, options, Some(&memory), rows)
}

#[test]
fn lineitem_uncompressed_is_byte_identical() {
    assert_eq!(
        lineitem(Compression::None, Vec::new()),
        (5_677_214, 10_485_088_360_210_943_751, 170_213),
        "lineitem SF 0.01, uncompressed"
    );
}

#[test]
fn lineitem_snappy_with_blooms_is_byte_identical() {
    // Bloom filters on l_shipmode (a string) and l_orderkey (an int).
    assert_eq!(
        lineitem(Compression::Snappy, vec![14, 0]),
        (3_287_195, 10_011_271_839_267_229_970, 0),
        "lineitem SF 0.01, Snappy, blooms on l_shipmode and l_orderkey"
    );
}

#[test]
fn nested_rows_with_nulls_over_padded_stripes_are_byte_identical() {
    let schema = Schema::parse(&[
        ("l", "array<bigint>"),
        ("m", "map<string,double>"),
        ("s", "struct<x:bigint,y:string>"),
        ("u", "uniontype<bigint,string>"),
        ("b", "boolean"),
        ("t", "timestamp"),
        ("w", "string"),
    ])
    .unwrap();
    let null_or = |i: i64, every: i64, v: Value| if i % every == 0 { Value::Null } else { v };
    let rows = (0..3000i64).map(|i| {
        let items = (0..i % 5).map(|j| null_or(j, 3, Value::Int(i * j)));
        let entries = (0..i % 3).map(|j| {
            let value = null_or(i + j, 4, Value::Double(j as f64 / 7.0));
            (Value::String(format!("k{j}")), value)
        });
        let fields = vec![
            null_or(i, 6, Value::Int(i)),
            null_or(i, 13, Value::String(format!("y{}", i % 11))),
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
            null_or(i, 4, Value::Boolean(i % 3 == 0)),
            null_or(i, 12, Value::Timestamp(1_000_000 + i * 37)),
            // Empty strings, and a column that turns from dictionary to
            // direct as the rows go on.
            Value::String(match i % 4 {
                0 => String::new(),
                _ if i < 1500 => format!("w{}", i % 17),
                _ => format!("unique-{i}"),
            }),
        ])
    });
    let options = OrcWriterOptions {
        stripe_size: 8 << 10,
        row_index_stride: 100,
        ..Default::default()
    };
    let (len, digest, padding) = write(48 << 10, &schema, options, None, rows);
    assert!(padding > 0, "the stripes were meant to pad");
    assert_eq!(
        (len, digest, padding),
        (102_058, 10_154_348_592_454_113_995, 802),
        "nested rows with NULLs"
    );
}
