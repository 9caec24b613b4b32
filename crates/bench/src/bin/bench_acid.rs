//! ACID benchmark: what does merge-on-read cost, does vectorizing it pay,
//! and does compaction earn the rest back?
//!
//! One ORC fact table, four phases of the same SARG-filtered aggregation
//! scan (the `okey` predicate prunes leading index groups, so pushdown is
//! measured through every phase — including under the ACID overlay):
//!
//! 1. `base` — the freshly loaded table, no manifest: the full vectorized
//!    + SARG scan path.
//! 2. `merge_on_read_row` — after a burst of transactional churn (INSERT
//!    deltas, an UPDATE, a DELETE), with `hive.vectorized.execution.
//!    enabled=false`: base + deltas walked row at a time, deletes masked
//!    per row — the row engine's merge path.
//! 3. `merge_on_read_vectorized` — the same churned snapshot, batch-native:
//!    deltas merged batch-wise, delete masks applied to the `selected[]`
//!    lane by skip-aware file ordinal.
//! 4. `post_compaction` — after `ALTER TABLE .. COMPACT 'major'` folds the
//!    chain into one base file: a base-only, delete-free snapshot drops
//!    the overlay entirely.
//!
//! Latency ratios (merge-on-read overhead, post-compaction recovery) are
//! deterministic simulated time (`hive.exec.sim.deterministic.cpu`), so
//! those gates measure the scan path, not host noise. The vectorized-merge
//! gate is different: the deterministic model charges a flat cost per
//! logical row, which is mode-independent by construction, so each phase
//! also takes best-of-runs *measured* CPU with the deterministic knob
//! overridden off — the same measurement `bench_vector` gates on.
//!
//! Writes `results/BENCH_acid.json` (validated against
//! `results/bench_acid.schema.json`) and, with `--check`, exits non-zero
//! unless the merge-on-read phases really exercised deltas and masks with
//! identical accounting, SARG index skipping stayed active under the
//! overlay, the vectorized merge beat the row-mode merge by ≥1.3x, every
//! merged answer equals the compacted answer, and post-compaction scan
//! time is back within 10% of the pre-churn baseline — the ci.sh gate.

use hive_bench::{fmt_s, measure_runs, print_table, scale_factor};
use hive_common::config::keys;
use hive_common::{Row, Value};
use hive_core::{HiveServer, HiveSession};
use hive_formats::delta::load_snapshot;
use hive_obs::json::{self, Json};

const QUERY: &str = "SELECT cust, COUNT(*) AS n, SUM(total) AS rev FROM orders \
     WHERE okey >= 15000 GROUP BY cust ORDER BY cust";

/// Scans measured per phase (deterministic sim time: repeats only guard
/// against accounting bugs, not noise).
const RUNS: usize = 3;
/// Committed INSERT transactions in the churn burst.
const DELTA_COMMITS: usize = 8;
/// Rows per INSERT transaction.
const INSERT_BATCH: usize = 50;

fn acid_server() -> (HiveServer, i64) {
    let server = HiveSession::builder()
        .set("hive.exec.sim.deterministic.cpu", "true")
        .expect("deterministic cpu knob")
        .build_server()
        .expect("bring up server");
    let mut s = server.new_session();
    let rows = ((1_500_000.0 * scale_factor()) as i64).max(20_000);
    s.execute("CREATE TABLE orders (okey BIGINT, cust BIGINT, total DOUBLE) STORED AS orc")
        .expect("create orders");
    s.load_rows(
        "orders",
        (0..rows).map(move |i| {
            Row::new(vec![
                Value::Int(i),
                Value::Int(i % 100),
                Value::Double((i % 500) as f64 / 2.0),
            ])
        }),
    )
    .expect("load orders");
    (server, rows)
}

struct Phase {
    name: &'static str,
    mean_sim_s: f64,
    /// Best-of-runs measured CPU (deterministic knob off for these runs) —
    /// the number the vectorization gate compares, since both simulated
    /// elapsed time and the deterministic per-row cost model are
    /// mode-independent by construction.
    best_cpu_s: f64,
    rows: Vec<Row>,
    delta_rows_read: u64,
    rows_masked: u64,
    /// Stripes plus index groups the SARG pruned (index-based skipping).
    index_skipped: u64,
}

fn run_phase(name: &'static str, server: &HiveServer, knobs: &[(&str, &str)]) -> Phase {
    let sim = measure_runs(RUNS, || {
        server.execute_with(QUERY, knobs).expect("phase query")
    });
    // Measured-CPU passes: the server's deterministic clock charges per
    // logical row, which cannot distinguish batch-native from row-at-a-time
    // merge — override it off and take the best of RUNS so scheduler noise
    // cannot fail the gate (the bench_vector convention).
    let mut measured_knobs = knobs.to_vec();
    measured_knobs.push((keys::EXEC_SIM_DETERMINISTIC_CPU, "false"));
    let best_cpu_s = measure_runs(RUNS, || {
        server
            .execute_with(QUERY, &measured_knobs)
            .expect("phase query (measured cpu)")
    })
    .best_cpu_s;
    let last = sim.last;
    let (delta_rows_read, rows_masked, index_skipped) = last
        .report
        .jobs
        .iter()
        .map(|j| {
            (
                j.scan.delta_rows_read,
                j.scan.rows_masked,
                (j.scan.stripes_total - j.scan.stripes_read)
                    + (j.scan.groups_total - j.scan.groups_read),
            )
        })
        .fold((0, 0, 0), |(a, b, c), (d, e, f)| (a + d, b + e, c + f));
    Phase {
        name,
        mean_sim_s: sim.mean_sim_s,
        best_cpu_s,
        rows: last.rows,
        delta_rows_read,
        rows_masked,
        index_skipped,
    }
}

fn main() {
    let check = std::env::args().any(|a| a == "--check");
    let sf = scale_factor();
    println!("ACID merge-on-read benchmark — scale factor {sf}");

    let (server, loaded) = acid_server();
    let base = run_phase("base", &server, &[]);

    // Transactional churn: DELTA_COMMITS insert transactions, one UPDATE,
    // one DELETE — each an independent commit on the manifest chain.
    for c in 0..DELTA_COMMITS {
        let values = (0..INSERT_BATCH)
            .map(|i| {
                let okey = loaded + (c * INSERT_BATCH + i) as i64;
                format!("({okey}, {}, {}.5)", okey % 100, okey % 500)
            })
            .collect::<Vec<_>>()
            .join(", ");
        server
            .execute(&format!("INSERT INTO orders VALUES {values}"))
            .expect("insert delta");
    }
    let updated = server
        .execute("UPDATE orders SET total = total + 1.0 WHERE cust = 7")
        .expect("update");
    let deleted = server
        .execute("DELETE FROM orders WHERE cust = 13")
        .expect("delete");
    let snap = load_snapshot(server.dfs(), "/warehouse/orders/")
        .expect("read manifest")
        .expect("churn left a manifest");
    let delta_files = snap.deltas.len() as u64;

    let merged_row = run_phase(
        "merge_on_read_row",
        &server,
        &[(keys::VECTORIZED_ENABLED, "false")],
    );
    let merged = run_phase("merge_on_read_vectorized", &server, &[]);
    assert_eq!(
        merged_row.rows, merged.rows,
        "row-mode and vectorized merge-on-read disagree"
    );

    let compacted_rows = server
        .execute("ALTER TABLE orders COMPACT 'major'")
        .expect("major compaction");
    let post = run_phase("post_compaction", &server, &[]);

    assert_eq!(
        merged.rows, post.rows,
        "compaction changed the query answer"
    );
    assert_ne!(base.rows, merged.rows, "churn must be visible to the scan");

    let merge_ratio = merged.mean_sim_s / base.mean_sim_s;
    let post_ratio = post.mean_sim_s / base.mean_sim_s;
    let vectorized_speedup = merged_row.best_cpu_s / merged.best_cpu_s;
    let phases = [&base, &merged_row, &merged, &post];
    print_table(
        "Scan latency (deterministic sim time)",
        &[
            "phase",
            "mean sim",
            "cpu (best)",
            "vs base",
            "delta rows",
            "masked",
            "idx skipped",
        ],
        &phases
            .iter()
            .map(|p| {
                (
                    p.name.to_string(),
                    vec![
                        fmt_s(p.mean_sim_s),
                        format!("{:.4} s", p.best_cpu_s),
                        format!("{:.3}x", p.mean_sim_s / base.mean_sim_s),
                        p.delta_rows_read.to_string(),
                        p.rows_masked.to_string(),
                        p.index_skipped.to_string(),
                    ],
                )
            })
            .collect::<Vec<_>>(),
    );
    println!(
        "\nmerge-on-read overhead = {merge_ratio:.3}x, vectorized merge speedup = \
         {vectorized_speedup:.3}x, post-compaction = {post_ratio:.3}x \
         (delta_files={delta_files} updated={} deleted={})",
        updated.rows[0][0], deleted.rows[0][0]
    );

    let mut doc = Json::obj();
    doc.push("format_version", Json::U64(1));
    doc.push("benchmark", Json::Str("acid".into()));
    doc.push("scale_factor", Json::F64(sf));
    doc.push("query", Json::Str(QUERY.into()));
    doc.push("rows_loaded", Json::U64(loaded as u64));
    doc.push("delta_commits", Json::U64(DELTA_COMMITS as u64));
    doc.push("delta_files", Json::U64(delta_files));
    let mut phase_docs = Vec::new();
    for p in phases {
        let mut d = Json::obj();
        d.push("name", Json::Str(p.name.into()));
        d.push("runs", Json::U64(RUNS as u64));
        d.push("mean_sim_s", Json::F64(p.mean_sim_s));
        d.push("best_cpu_s", Json::F64(p.best_cpu_s));
        d.push("delta_rows_read", Json::U64(p.delta_rows_read));
        d.push("rows_masked", Json::U64(p.rows_masked));
        d.push("index_skipped", Json::U64(p.index_skipped));
        phase_docs.push(d);
    }
    doc.push("phases", Json::Array(phase_docs));
    doc.push("merge_on_read_ratio", Json::F64(merge_ratio));
    doc.push("vectorized_merge_speedup", Json::F64(vectorized_speedup));
    doc.push("post_compaction_ratio", Json::F64(post_ratio));
    let Value::Int(compacted) = compacted_rows.rows[0][0] else {
        panic!("rows_compacted must be an integer");
    };
    doc.push("rows_compacted", Json::U64(compacted as u64));

    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let schema_src = std::fs::read_to_string(format!("{root}/results/bench_acid.schema.json"))
        .expect("read results/bench_acid.schema.json");
    let schema = json::parse(&schema_src).expect("parse schema");
    json::validate(&doc, &schema).expect("BENCH_acid.json matches its schema");

    let out = format!("{root}/results/BENCH_acid.json");
    std::fs::write(&out, doc.render_pretty()).expect("write BENCH_acid.json");
    println!("wrote results/BENCH_acid.json");

    if check {
        let mut failed = false;
        if merged.delta_rows_read == 0 || merged.rows_masked == 0 {
            eprintln!(
                "FAIL: merge-on-read phase read no deltas or masked no rows \
                 (delta_rows={} masked={})",
                merged.delta_rows_read, merged.rows_masked
            );
            failed = true;
        }
        if (merged.delta_rows_read, merged.rows_masked)
            != (merged_row.delta_rows_read, merged_row.rows_masked)
        {
            eprintln!(
                "FAIL: merge accounting differs across modes \
                 (vectorized delta/masked {}/{}, row-mode {}/{})",
                merged.delta_rows_read,
                merged.rows_masked,
                merged_row.delta_rows_read,
                merged_row.rows_masked
            );
            failed = true;
        }
        if merged.index_skipped == 0 {
            eprintln!("FAIL: SARG skipped nothing under the ACID overlay");
            failed = true;
        }
        if vectorized_speedup < 1.3 {
            eprintln!(
                "FAIL: vectorized merge-on-read CPU is only {vectorized_speedup:.3}x \
                 below row mode (gate: 1.3x)"
            );
            failed = true;
        }
        if post.delta_rows_read != 0 || post.rows_masked != 0 {
            eprintln!("FAIL: post-compaction scan still pays merge-on-read");
            failed = true;
        }
        if post_ratio > 1.10 {
            eprintln!("FAIL: post-compaction scan is {post_ratio:.3}x baseline (gate: 1.10x)");
            failed = true;
        }
        if failed {
            std::process::exit(1);
        }
    }
}
