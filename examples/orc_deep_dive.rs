//! ORC deep dive: use the file-format layer directly — complex-type
//! decomposition, the three-level statistics, predicate pushdown and the
//! writer memory manager (paper Section 4), without going through SQL.
//!
//! ```sh
//! cargo run --release --example orc_deep_dive
//! ```

use hive::codec::block::Compression;
use hive::common::{Row, Schema, Value};
use hive::dfs::{Dfs, DfsConfig};
use hive::formats::orc::reader::{OrcReadOptions, OrcReader};
use hive::formats::orc::writer::{OrcWriter, OrcWriterOptions};
use hive::formats::orc::MemoryManager;
use hive::formats::{PredicateLeaf, SearchArgument, TableReader, TableWriter};

fn main() {
    let dfs = Dfs::new(DfsConfig {
        block_size: 4 << 20,
        replication: 3,
        nodes: 10,
    });

    // The paper's Figure 3 table: complex types decompose into a column
    // tree; only leaf columns carry data streams.
    let schema = Schema::parse(&[
        ("col1", "int"),
        ("col2", "array<int>"),
        ("col4", "map<string,struct<col7:string,col8:int>>"),
        ("col9", "string"),
    ])
    .expect("schema");
    let tree = schema.column_tree();
    println!("Figure 3 column tree ({} columns):", tree.len());
    for node in tree.nodes() {
        println!(
            "  column id {:>2}  type {:<12} {}",
            node.id,
            node.data_type.to_string(),
            if node.is_leaf() {
                "(leaf: has data streams)"
            } else {
                "(internal: metadata only)"
            }
        );
    }

    // Write a file with a scaled-down stripe and a shared memory manager.
    let memory = MemoryManager::for_task_memory(64 << 20, 0.5);
    let mut writer = OrcWriter::create(
        &dfs,
        "/warehouse/fig3/part-0",
        &schema,
        OrcWriterOptions {
            stripe_size: 1 << 20,
            row_index_stride: 1_000,
            compression: Compression::Snappy,
            ..Default::default()
        },
        Some(&memory),
    );
    for i in 0..50_000i64 {
        TableWriter::write_row(
            &mut writer,
            &Row::new(vec![
                Value::Int(i),
                Value::Array((0..(i % 3)).map(Value::Int).collect()),
                Value::Map(vec![(
                    Value::String(format!("k{}", i % 100)),
                    Value::Struct(vec![
                        Value::String(format!("s{}", i % 7)),
                        Value::Int(i * 2),
                    ]),
                )]),
                Value::String(format!("tag-{}", i % 50)),
            ]),
        )
        .expect("write");
    }
    let padding = writer.padding_bytes;
    let len = Box::new(writer).close().expect("close");
    println!("\nwrote {len} bytes ({padding} bytes of block-alignment padding)");

    // File-level statistics answer simple aggregations without reading rows.
    let reader =
        OrcReader::open(&dfs, "/warehouse/fig3/part-0", OrcReadOptions::default()).expect("open");
    let stats = reader.file_stats(0).expect("stats");
    println!(
        "col1 from file statistics alone: count={} min={:?} max={:?} sum={:?}",
        stats.count(),
        stats.min_value(),
        stats.max_value(),
        stats.sum_value()
    );

    // Predicate pushdown: `col1 BETWEEN 600 AND 700` needs almost nothing.
    let before = dfs.stats().snapshot();
    let sarg = SearchArgument::new(vec![PredicateLeaf::between(
        0,
        Value::Int(600),
        Value::Int(700),
    )]);
    let mut selective = OrcReader::open(
        &dfs,
        "/warehouse/fig3/part-0",
        OrcReadOptions {
            sarg: Some(sarg),
            use_index: true,
            projection: Some(vec![0, 3]),
            ..Default::default()
        },
    )
    .expect("open selective");
    let mut matched = 0;
    while let Some(row) = selective.next_row().expect("read") {
        if (600..=700).contains(&row[0].as_int().unwrap()) {
            matched += 1;
        }
    }
    println!(
        "\nselective read: {matched} matching rows; groups read {}/{}; stripes {}/{}; {} bytes from DFS",
        selective.counters.groups_read,
        selective.counters.groups_total,
        selective.counters.stripes_read,
        selective.counters.stripes_total,
        dfs.stats().snapshot().since(&before).bytes_read(),
    );
}
