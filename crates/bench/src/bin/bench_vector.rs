//! Vectorized-execution benchmark (paper Section 6): a scan-heavy
//! filter + group-by aggregation over ORC, run batch-native (the scan
//! feeds `VectorizedRowBatch`es straight through VectorFilter and the
//! fused VectorGroupBySink) against the row-at-a-time operator pipeline
//! (`hive.vectorized.execution.enabled=false`) on identical data.
//!
//! Writes `results/BENCH_vector.json` (validated against
//! `results/bench_vector.schema.json`) and, with `--check`, exits
//! non-zero unless the batch-native pipeline's measured CPU beats row
//! mode by at least 1.3x (the paper reports well over 2x) — the ci.sh
//! regression gate.

use hive_bench::{bench_session_with_block, fmt_s, measure_runs, print_table, scale_factor};
use hive_common::config::keys;
use hive_common::{Row, Value};
use hive_core::HiveSession;
use hive_obs::json::{self, Json};

const QUERY: &str = "SELECT k, COUNT(*) AS n, SUM(v) AS sv, MIN(v) AS mn, \
     MAX(v) AS mx, AVG(d) AS ad FROM fact WHERE v > 100 GROUP BY k ORDER BY k";

/// Measurement runs per configuration; the best (minimum) CPU is reported
/// so scheduler noise cannot fail the gate.
const RUNS: usize = 3;

/// The gate: batch-native CPU must beat row mode by at least this factor.
const MIN_SPEEDUP: f64 = 1.3;

fn vector_session(vectorize: bool) -> HiveSession {
    let mut s = bench_session_with_block(1 << 20);
    s.set(keys::ORC_STRIPE_SIZE, format!("{}", 1 << 20));
    s.set(
        keys::VECTORIZED_ENABLED,
        if vectorize { "true" } else { "false" },
    );
    // One wide fact table; sf 1.0 → 3M rows, floored so tiny ci smoke
    // scales still push many full 1024-row batches per task.
    let sf = scale_factor();
    let rows = ((3_000_000.0 * sf) as i64).max(40_000);
    s.execute("CREATE TABLE fact (k BIGINT, v BIGINT, d DOUBLE) STORED AS orc")
        .expect("create fact");
    s.load_rows(
        "fact",
        (0..rows).map(|i| {
            Row::new(vec![
                Value::Int(i % 101),
                Value::Int(i * 7 % 1000),
                Value::Double((i % 997) as f64 / 8.0),
            ])
        }),
    )
    .expect("load fact");
    s
}

struct ConfigResult {
    name: &'static str,
    vectorized: bool,
    cpu_s: f64,
    sim_s: f64,
    rows: usize,
}

fn run_config(name: &'static str, vectorized: bool) -> ConfigResult {
    let mut s = vector_session(vectorized);
    let analyze = s
        .execute(&format!("EXPLAIN ANALYZE {QUERY}"))
        .expect("explain analyze")
        .explain
        .expect("explain text");
    assert_eq!(
        analyze.contains("VectorGroupBySink"),
        vectorized,
        "config `{name}` planned the wrong map pipeline:\n{analyze}"
    );
    let m = measure_runs(RUNS, || s.execute(QUERY).expect("aggregation query"));
    let rows = m.last.rows.len();
    assert!(rows > 0, "aggregation must produce output");
    ConfigResult {
        name,
        vectorized,
        cpu_s: m.best_cpu_s,
        sim_s: m.best_sim_s,
        rows,
    }
}

fn main() {
    let check = std::env::args().any(|a| a == "--check");
    let sf = scale_factor();
    println!("Vectorized execution benchmark — scale factor {sf}");

    let results = [run_config("row", false), run_config("vectorized", true)];

    print_table(
        "Scan-heavy aggregation: row vs batch-native (measured CPU, best of 3)",
        &["config", "cpu", "sim elapsed", "rows"],
        &results
            .iter()
            .map(|r| {
                (
                    r.name.to_string(),
                    vec![fmt_s(r.cpu_s), fmt_s(r.sim_s), r.rows.to_string()],
                )
            })
            .collect::<Vec<_>>(),
    );
    let speedup = results[0].cpu_s / results[1].cpu_s;
    println!("\nbatch-native CPU speedup: {speedup:.2}x (gate: >={MIN_SPEEDUP}x, target 2x)");

    let mut doc = Json::obj();
    doc.push("format_version", Json::U64(1));
    doc.push("benchmark", Json::Str("vector".into()));
    doc.push("scale_factor", Json::F64(sf));
    doc.push("query", Json::Str(QUERY.into()));
    let mut configs = Vec::new();
    for r in &results {
        let mut c = Json::obj();
        c.push("name", Json::Str(r.name.into()));
        c.push("vectorized", Json::Bool(r.vectorized));
        c.push("cpu_seconds", Json::F64(r.cpu_s));
        c.push("sim_elapsed_s", Json::F64(r.sim_s));
        c.push("result_rows", Json::U64(r.rows as u64));
        configs.push(c);
    }
    doc.push("configs", Json::Array(configs));
    doc.push("cpu_speedup", Json::F64(speedup));

    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let schema_src = std::fs::read_to_string(format!("{root}/results/bench_vector.schema.json"))
        .expect("read results/bench_vector.schema.json");
    let schema = json::parse(&schema_src).expect("parse schema");
    json::validate(&doc, &schema).expect("BENCH_vector.json matches its schema");

    let out = format!("{root}/results/BENCH_vector.json");
    std::fs::write(&out, doc.render_pretty()).expect("write BENCH_vector.json");
    println!("wrote results/BENCH_vector.json");

    if check && speedup < MIN_SPEEDUP {
        eprintln!(
            "FAIL: batch-native CPU ({}) is not {MIN_SPEEDUP}x below row mode ({}); \
             speedup {speedup:.2}x",
            fmt_s(results[1].cpu_s),
            fmt_s(results[0].cpu_s)
        );
        std::process::exit(1);
    }
}
