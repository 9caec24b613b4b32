//! Standalone replays of the lower layers: each calls one layer's public
//! API directly, on a fixture of its own (a private cluster with a small
//! uncompressed `lineitem`), so the number does not depend on which
//! workload is running and a change shows in exactly one of them. Every
//! replay repeats and reports its median; every repetition is a span.

use crate::trace::Tracer;
use crate::workload::{cluster, Scale, SplitMix};
use hive_codec::block::{BlockCodec, DeflateLikeCodec, SnappyLikeCodec};
use hive_codec::int_rle;
use hive_common::{DataType, Row, Schema, Value};
use hive_core::HiveSession;
use hive_datagen::tpch;
use hive_dfs::Dfs;
use hive_exec::expr::{BinaryOp, ExprNode};
use hive_formats::orc::reader::{OrcReadOptions, OrcReader};
use hive_formats::{FormatKind, PredicateLeaf, PredicateOp, SearchArgument, TableReader};
use hive_mapreduce::MrEngine;
use hive_obs::MetricsRegistry;
use hive_planner::plan_query;
use hive_ql::Statement;
use hive_vector::expressions::{
    DoubleColMultiplyDoubleColumn, FilterDoubleColumnBetween, VectorExpression,
};
use hive_vector::{ColumnVector, VectorizedRowBatch};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Fixture `lineitem` scale factor: 120 k rows, a 12.8 MB ORC file.
const FIXTURE_SF: f64 = 0.02;
/// Codec corpus: the head of the fixture's ORC file, compressed in ORC's
/// 256 KiB units.
const CODEC_CORPUS_BYTES: usize = 8 << 20;
const CODEC_UNIT: usize = 256 << 10;
const DFS_FILE_BYTES: usize = 16 << 20;
/// A prime just under 64 KiB: like ORC stream offsets, and unlike a
/// power-of-two stride, the read offsets spread over the cache's shards.
const DFS_READ_BYTES: usize = 65_521;
const KERNEL_ROWS: usize = 1 << 16;

/// Median seconds of `reps` runs of `f`, each under a span called `name`.
fn timed(tracer: &mut Tracer, name: &'static str, reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            tracer.span(name, None, 0, &mut f);
            start.elapsed().as_secs_f64()
        })
        .collect();
    crate::stats::median(&samples)
}

fn mbps(bytes: usize, seconds: f64) -> f64 {
    bytes as f64 / 1e6 / seconds
}

/// Run every replay; returns metric name → value. `registry` is the
/// workload's own metrics registry, as full as its statements left it.
pub fn run(
    tracer: &mut Tracer,
    seed: u64,
    scale: Scale,
    registry: &MetricsRegistry,
) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    let mut session = cluster().build().expect("fixture session");
    let sf = scale.factor(FIXTURE_SF);

    // datagen, then the ORC writer on the rows it produced.
    let mut rows: Vec<Row> = Vec::new();
    let gen_s = timed(tracer, "datagen.lineitem_rows", 3, || {
        rows = tpch::lineitem_rows(sf, seed).collect();
    });
    out.insert("datagen.rows_per_s", rows.len() as f64 / gen_s);
    let mut copies: Vec<(String, Vec<Row>)> = (0..3)
        .map(|i| (format!("lineitem_w{i}"), rows.clone()))
        .collect();
    copies.push(("lineitem".to_string(), std::mem::take(&mut rows)));
    let n_rows = copies[0].1.len();
    let write_s = timed(tracer, "formats.orc_write", copies.len(), || {
        let (name, rows) = copies.pop().expect("one copy per repetition");
        session
            .create_table(&name, tpch::lineitem_schema(), FormatKind::Orc)
            .expect("create fixture table");
        session.load_rows(&name, rows).expect("load fixture table");
    });
    out.insert("formats.orc_write_rows_per_s", n_rows as f64 / write_s);

    let dfs = session.dfs().clone();
    let files = session.metastore().table_files("lineitem");
    orc_scans(tracer, &dfs, &files, &mut out);
    codecs(tracer, &dfs, &files[0], &mut out);
    dfs_io(tracer, &dfs, &mut out);
    kernels(tracer, &mut out);
    fixed_job(tracer, &mut session, &mut out);

    let snapshot_s = timed(tracer, "obs.snapshot", 21, || {
        black_box(registry.snapshot());
    });
    out.insert("obs.snapshot_us", snapshot_s * 1e6);
    out
}

/// Single-threaded `OrcReader` scans with q1's and q6's projection and
/// search argument: stream decode + index-group selection, nothing else
/// (the bytes come from the block cache after the first pass).
fn orc_scans(
    tracer: &mut Tracer,
    dfs: &Dfs,
    files: &[String],
    out: &mut BTreeMap<&'static str, f64>,
) {
    let schema = tpch::lineitem_schema();
    let col = |name: &str| schema.index_of(name).expect("lineitem column");
    let date = |s: &str| Some(Value::String(s.to_string()));
    let shipdate = col("l_shipdate");
    let q1 = (
        ["l_quantity", "l_extendedprice", "l_discount", "l_tax"]
            .iter()
            .chain(&["l_returnflag", "l_linestatus", "l_shipdate"])
            .map(|c| col(c))
            .collect::<Vec<_>>(),
        SearchArgument::new(vec![PredicateLeaf::new(
            shipdate,
            PredicateOp::LessThanEquals,
            date("1998-09-02"),
        )]),
    );
    let q6 = (
        ["l_quantity", "l_extendedprice", "l_discount", "l_shipdate"]
            .iter()
            .map(|c| col(c))
            .collect::<Vec<_>>(),
        SearchArgument::new(vec![
            PredicateLeaf::new(shipdate, PredicateOp::GreaterThanEquals, date("1994-01-01")),
            PredicateLeaf::new(shipdate, PredicateOp::LessThan, date("1995-01-01")),
            PredicateLeaf::between(col("l_discount"), Value::Double(0.05), Value::Double(0.07)),
            PredicateLeaf::new(
                col("l_quantity"),
                PredicateOp::LessThan,
                Some(Value::Double(24.0)),
            ),
        ]),
    );
    let mut scan = |name: &'static str, (projection, sarg): &(Vec<usize>, SearchArgument)| {
        let types: Vec<DataType> = projection
            .iter()
            .map(|&c| schema.field(c).data_type.clone())
            .collect();
        let mut rows = 0u64;
        let seconds = timed(tracer, name, 5, || {
            rows = 0;
            let mut batch = VectorizedRowBatch::new(&types, 1024).expect("batch");
            for path in files {
                let mut reader = OrcReader::open(
                    dfs,
                    path,
                    OrcReadOptions {
                        projection: Some(projection.clone()),
                        sarg: Some(sarg.clone()),
                        use_index: true,
                        cache_metadata: true,
                        ..Default::default()
                    },
                )
                .expect("open fixture file");
                while reader.next_batch(&mut batch).expect("decode fixture file") {
                    rows += batch.size as u64;
                }
            }
            black_box(rows);
        });
        (rows, seconds)
    };
    let (q1_rows, q1_s) = scan("formats.orc_scan_q1", &q1);
    let (_, q6_s) = scan("formats.orc_scan_q6", &q6);
    out.insert("formats.orc_scan_q1_ms", q1_s * 1e3);
    out.insert("formats.orc_scan_q6_ms", q6_s * 1e3);
    out.insert("formats.orc_decode_rows_per_s", q1_rows as f64 / q1_s);
}

fn codecs(tracer: &mut Tracer, dfs: &Dfs, file: &str, out: &mut BTreeMap<&'static str, f64>) {
    let corpus = dfs
        .open(file, None)
        .and_then(|mut r| r.read_at(0, CODEC_CORPUS_BYTES))
        .expect("read codec corpus")
        .into_vec();
    let mut codec = |codec: &dyn BlockCodec, names: [&'static str; 3], spans: [&'static str; 2]| {
        let mut packed: Vec<Vec<u8>> = Vec::new();
        let compress_s = timed(tracer, spans[0], 3, || {
            packed = corpus
                .chunks(CODEC_UNIT)
                .map(|u| codec.compress(u))
                .collect();
        });
        let decompress_s = timed(tracer, spans[1], 5, || {
            for unit in &packed {
                black_box(codec.decompress(unit).expect("round trip"));
            }
        });
        let packed_bytes: usize = packed.iter().map(Vec::len).sum();
        out.insert(names[0], mbps(corpus.len(), compress_s));
        out.insert(names[1], mbps(corpus.len(), decompress_s));
        out.insert(names[2], corpus.len() as f64 / packed_bytes as f64);
    };
    codec(
        &SnappyLikeCodec,
        [
            "codec.snappy_compress_mbps",
            "codec.snappy_decompress_mbps",
            "codec.snappy_ratio",
        ],
        ["codec.snappy_compress", "codec.snappy_decompress"],
    );
    codec(
        &DeflateLikeCodec,
        [
            "codec.zlib_compress_mbps",
            "codec.zlib_decompress_mbps",
            "codec.zlib_ratio",
        ],
        ["codec.zlib_compress", "codec.zlib_decompress"],
    );

    // Integer RLE over the two shapes lineitem keys come in: runs of four
    // equal order keys, and part keys with no pattern at all.
    let n = 1 << 20;
    let mut rng = SplitMix(1);
    let values: Vec<i64> = (0..n as i64)
        .map(|i| {
            if i < n as i64 / 2 {
                i / 4 + 1
            } else {
                rng.below(200_000) as i64
            }
        })
        .collect();
    let encoded = int_rle::encode(&values);
    let decode_s = timed(tracer, "codec.int_rle_decode", 5, || {
        black_box(int_rle::decode(&encoded).expect("round trip"));
    });
    out.insert(
        "codec.int_rle_decode_ns_per_value",
        decode_s * 1e9 / n as f64,
    );
}

/// DFS write, then a `read_at` sweep of the file with the block cache
/// bypassed (wire accounting + CRC per fresh reader) and a second sweep
/// with it filled.
fn dfs_io(tracer: &mut Tracer, dfs: &Dfs, out: &mut BTreeMap<&'static str, f64>) {
    let path = "/replay/dfs_io";
    let mut rng = SplitMix(2);
    let data: Vec<u8> = (0..DFS_FILE_BYTES).map(|_| rng.next() as u8).collect();
    let write_s = timed(tracer, "dfs.write", 5, || {
        let mut w = dfs.create(path);
        for chunk in data.chunks(DFS_READ_BYTES) {
            w.write(chunk);
        }
        w.try_close().expect("close replay file");
    });
    out.insert("dfs.write_mbps", mbps(DFS_FILE_BYTES, write_s));

    let sweep = |fs: &Dfs| {
        let mut reader = fs.open(path, Some(0)).expect("open replay file");
        let mut offset = 0;
        while offset < DFS_FILE_BYTES {
            let buf = reader
                .read_at(offset as u64, DFS_READ_BYTES)
                .expect("read replay file");
            offset += buf.len();
            black_box(&buf);
        }
    };
    let uncached = dfs.for_statement(None, false);
    let cold_s = timed(tracer, "dfs.read_cold", 5, || sweep(&uncached));
    sweep(dfs); // fill
    let warm_s = timed(tracer, "dfs.read_warm", 5, || sweep(dfs));
    out.insert("dfs.read_cold_mbps", mbps(DFS_FILE_BYTES, cold_s));
    out.insert("dfs.read_warm_mbps", mbps(DFS_FILE_BYTES, warm_s));
}

/// q6's inner loop — filter on discount, multiply, sum — through the row
/// engine's interpreted `ExprNode` and through the vectorized expressions.
fn kernels(tracer: &mut Tracer, out: &mut BTreeMap<&'static str, f64>) {
    let mut rng = SplitMix(3);
    let (prices, discounts): (Vec<f64>, Vec<f64>) = (0..KERNEL_ROWS)
        .map(|_| {
            let x = rng.next();
            ((x % 100_000) as f64 / 100.0, (x % 11) as f64 / 100.0)
        })
        .unzip();

    let rows: Vec<Row> = prices
        .iter()
        .zip(&discounts)
        .map(|(&p, &d)| Row::new(vec![Value::Double(p), Value::Double(d)]))
        .collect();
    let filter = ExprNode::Between {
        expr: Box::new(ExprNode::col(1)),
        lo: Box::new(ExprNode::lit(Value::Double(0.05))),
        hi: Box::new(ExprNode::lit(Value::Double(0.07))),
        negated: false,
    };
    let product = ExprNode::binary(BinaryOp::Multiply, ExprNode::col(0), ExprNode::col(1));
    let mut row_sum = 0.0;
    let row_s = timed(tracer, "exec.row_kernel", 9, || {
        row_sum = 0.0;
        for r in &rows {
            if filter.eval_predicate(r).expect("predicate") {
                if let Value::Double(v) = product.eval(r).expect("product") {
                    row_sum += v;
                }
            }
        }
        black_box(row_sum);
    });
    out.insert(
        "exec.row_kernel_ns_per_row",
        row_s * 1e9 / KERNEL_ROWS as f64,
    );

    let batch_size = 1024;
    let mut batch = VectorizedRowBatch::new(
        &[DataType::Double, DataType::Double, DataType::Double],
        batch_size,
    )
    .expect("batch");
    let filter = FilterDoubleColumnBetween {
        column: 1,
        lo: 0.05,
        hi: 0.07,
    };
    let multiply = DoubleColMultiplyDoubleColumn {
        left_column: 0,
        right_column: 1,
        output_column: 2,
    };
    let mut vector_sum = 0.0;
    let vector_s = timed(tracer, "vector.q6_kernel", 9, || {
        vector_sum = 0.0;
        for (p, d) in prices.chunks(batch_size).zip(discounts.chunks(batch_size)) {
            batch.reset();
            for (column, values) in [(0, p), (1, d)] {
                if let ColumnVector::Double(v) = &mut batch.columns[column] {
                    v.vector[..values.len()].copy_from_slice(values);
                }
            }
            batch.size = p.len();
            filter.evaluate(&mut batch).expect("filter");
            multiply.evaluate(&mut batch).expect("multiply");
            if let ColumnVector::Double(product) = &batch.columns[2] {
                vector_sum += batch
                    .iter_selected()
                    .map(|i| product.vector[i])
                    .sum::<f64>();
            }
        }
        black_box(vector_sum);
    });
    assert!(
        (row_sum - vector_sum).abs() <= 1e-9 * row_sum.abs(),
        "row and vector kernels disagree: {row_sum} vs {vector_sum}"
    );
    out.insert(
        "vector.q6_kernel_ns_per_row",
        vector_s * 1e9 / KERNEL_ROWS as f64,
    );
}

/// What one job costs when it has almost nothing to do: `run_dag` of a
/// group-by over a ten-row table (task set-up, scheduling, the shuffle's
/// fixed part, result collection).
fn fixed_job(
    tracer: &mut Tracer,
    session: &mut HiveSession,
    out: &mut BTreeMap<&'static str, f64>,
) {
    let schema = Schema::parse(&[("k", "bigint"), ("v", "bigint")]).expect("static schema");
    session
        .create_table("tiny", schema, FormatKind::Orc)
        .expect("create tiny");
    session
        .load_rows(
            "tiny",
            (0..10).map(|i| Row::new(vec![Value::Int(i % 3), Value::Int(i)])),
        )
        .expect("load tiny");
    let Ok(Statement::Select(select)) = hive_ql::parse("SELECT k, SUM(v) FROM tiny GROUP BY k")
    else {
        panic!("fixed-job statement is a SELECT");
    };
    let compiled =
        plan_query(&select, session.metastore(), session.conf()).expect("plan fixed job");
    let engine = MrEngine::new(
        session.dfs().for_statement(None, true),
        session.conf().clone(),
    );
    let seconds = timed(tracer, "mapreduce.fixed_job", 21, || {
        let (_, rows) = engine.run_dag(&compiled.jobs).expect("run fixed job");
        assert_eq!(rows.len(), 3);
    });
    out.insert("mapreduce.fixed_job_ms", seconds * 1e3);
}
