//! Map-join benchmark: the batch-native map-join pipeline (vectorized scan
//! probing a once-built hash table a batch at a time) against the row
//! engine (`hive.vectorized.execution.enabled=false`: row scan, per-row
//! formatted string keys) on the same ORC data.
//!
//! Writes `results/BENCH_joins.json` (validated against
//! `results/bench_joins.schema.json`) and, with `--check`, exits non-zero
//! unless the vectorized join's measured CPU beats row mode's — the ci.sh
//! regression gate.

use hive_bench::{bench_session_with_block, fmt_s, measure_runs, print_table, scale_factor};
use hive_common::config::keys;
use hive_common::{Row, Value};
use hive_core::HiveSession;
use hive_obs::json::{self, Json};

const QUERY: &str = "SELECT customer.name, COUNT(*) AS n, SUM(orders.total) AS revenue \
     FROM orders JOIN customer ON (orders.cust = customer.cust) \
     GROUP BY customer.name ORDER BY customer.name";

/// Measurement runs per configuration; the best (minimum) CPU is reported
/// so scheduler noise cannot fail the gate.
const RUNS: usize = 3;

fn join_session(vectorize: bool) -> HiveSession {
    let mut s = bench_session_with_block(1 << 20);
    s.set(keys::ORC_STRIPE_SIZE, format!("{}", 1 << 20));
    s.set(
        keys::VECTORIZED_ENABLED,
        if vectorize { "true" } else { "false" },
    );
    // Paper-shaped fact/dimension pair: sf 1.0 → 1.5M orders, 100k
    // customers (TPC-H-ish row counts), floored so tiny ci smoke scales
    // still probe several batches per task.
    let sf = scale_factor();
    let orders = ((1_500_000.0 * sf) as i64).max(20_000);
    let customers = ((100_000.0 * sf) as i64).clamp(100, orders);
    s.execute("CREATE TABLE orders (okey BIGINT, cust BIGINT, total DOUBLE) STORED AS orc")
        .expect("create orders");
    s.load_rows(
        "orders",
        (0..orders).map(move |i| {
            Row::new(vec![
                Value::Int(i),
                Value::Int(i % customers),
                Value::Double((i % 500) as f64 / 4.0),
            ])
        }),
    )
    .expect("load orders");
    s.execute("CREATE TABLE customer (cust BIGINT, name STRING) STORED AS orc")
        .expect("create customer");
    s.load_rows(
        "customer",
        (0..customers).map(|i| Row::new(vec![Value::Int(i), Value::String(format!("c{i:06}"))])),
    )
    .expect("load customer");
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
    let mut s = join_session(vectorized);
    let analyze = s
        .execute(&format!("EXPLAIN ANALYZE {QUERY}"))
        .expect("explain analyze")
        .explain
        .expect("explain text");
    assert_eq!(
        analyze.contains("VectorMapJoin"),
        vectorized,
        "config `{name}` planned the wrong join operator:\n{analyze}"
    );
    let m = measure_runs(RUNS, || s.execute(QUERY).expect("join query"));
    let rows = m.last.rows.len();
    assert!(rows > 0, "join must produce output");
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
    println!("Map-join benchmark — TPC-H-ish scale factor {sf}");

    let results = [run_config("row", false), run_config("vectorized", true)];

    print_table(
        "Map join: row vs vectorized (measured CPU, best of 3)",
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
    println!("\nvectorized map-join CPU speedup: {speedup:.2}x");

    let mut doc = Json::obj();
    doc.push("format_version", Json::U64(1));
    doc.push("benchmark", Json::Str("mapjoin".into()));
    doc.push("scale_factor", Json::F64(sf));
    doc.push("query", Json::Str(QUERY.into()));
    let mut configs = Vec::new();
    for r in &results {
        let mut c = Json::obj();
        c.push("name", Json::Str(r.name.into()));
        c.push("vectorized_mapjoin", Json::Bool(r.vectorized));
        c.push("cpu_seconds", Json::F64(r.cpu_s));
        c.push("sim_elapsed_s", Json::F64(r.sim_s));
        c.push("result_rows", Json::U64(r.rows as u64));
        configs.push(c);
    }
    doc.push("configs", Json::Array(configs));
    doc.push("cpu_speedup", Json::F64(speedup));

    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let schema_src = std::fs::read_to_string(format!("{root}/results/bench_joins.schema.json"))
        .expect("read results/bench_joins.schema.json");
    let schema = json::parse(&schema_src).expect("parse schema");
    json::validate(&doc, &schema).expect("BENCH_joins.json matches its schema");

    let out = format!("{root}/results/BENCH_joins.json");
    std::fs::write(&out, doc.render_pretty()).expect("write BENCH_joins.json");
    println!("wrote results/BENCH_joins.json");

    if check && results[1].cpu_s >= results[0].cpu_s {
        eprintln!(
            "FAIL: vectorized map-join CPU ({}) is not below row mode ({})",
            fmt_s(results[1].cpu_s),
            fmt_s(results[0].cpu_s)
        );
        std::process::exit(1);
    }
}
