//! Chaos suite: core queries under randomized fault plans.
//!
//! The contract under injected DFS faults is strict: a query either
//! succeeds with rows bit-identical to the fault-free run, or returns an
//! `Err` — it must never panic, abort, or silently return wrong rows.
//! The in-tree proptest shim seeds its generator from the test name, so
//! every run replays the same fault plans (failures reproduce exactly).

use hive_common::config::keys;
use hive_common::{Row, Value};
use hive_core::HiveSession;
use proptest::prelude::*;
use std::sync::OnceLock;

const QUERIES: [&str; 3] = [
    "SELECT k, v FROM t WHERE v < 120",
    "SELECT k, SUM(v) AS s, COUNT(*) AS n FROM t GROUP BY k",
    "SELECT t.k, d.name FROM t JOIN d ON (t.k = d.key) WHERE t.v < 200",
];

/// A fresh cluster with one fact table (many single-block ORC files on a
/// 4-node cluster) and one dimension table. Fault knobs are set only after
/// loading, so the data lands intact and faults hit the read path.
fn chaos_session() -> HiveSession {
    let mut hive = HiveSession::with_dfs_config(hive_dfs::DfsConfig {
        block_size: 64 << 10,
        replication: 2,
        nodes: 4,
    });
    hive.execute("CREATE TABLE t (k BIGINT, v BIGINT, s STRING) STORED AS orc")
        .unwrap();
    hive.execute("CREATE TABLE d (key BIGINT, name STRING) STORED AS orc")
        .unwrap();
    hive.load_rows(
        "t",
        (0..600).map(|i| {
            Row::new(vec![
                Value::Int(i % 17),
                Value::Int(i),
                Value::String(format!("row-{}", i % 41)),
            ])
        }),
    )
    .unwrap();
    hive.load_rows(
        "d",
        (0..9).map(|i| Row::new(vec![Value::Int(i), Value::String(format!("dim-{i}"))])),
    )
    .unwrap();
    hive
}

fn sorted(mut rows: Vec<Row>) -> Vec<Row> {
    rows.sort_by(|a, b| hive_common::key::cmp(a.values(), b.values()));
    rows
}

/// Fault-free reference rows for each chaos query, computed once.
fn reference_rows() -> &'static Vec<Vec<Row>> {
    static REFERENCE: OnceLock<Vec<Vec<Row>>> = OnceLock::new();
    REFERENCE.get_or_init(|| {
        let mut hive = chaos_session();
        QUERIES
            .iter()
            .map(|sql| sorted(hive.execute(sql).unwrap().rows))
            .collect()
    })
}

/// One randomized fault plan: seed, error/corruption rates, misbehaving
/// node sets, and a retry budget that may be too small on purpose.
#[derive(Debug, Clone)]
struct ChaosPlan {
    seed: u64,
    read_error_rate: f64,
    corrupt_rate: f64,
    fail_nodes: &'static str,
    slow_nodes: &'static str,
    max_attempts: &'static str,
    speculative: bool,
}

fn chaos_plan() -> impl Strategy<Value = ChaosPlan> {
    (
        (
            0u64..=1_000_000,
            (0u32..=30).prop_map(|x| x as f64 / 100.0),
            (0u32..=30).prop_map(|x| x as f64 / 100.0),
            prop_oneof![3 => Just(""), 1 => Just("1"), 1 => Just("3")],
        ),
        (
            prop_oneof![2 => Just(""), 1 => Just("0"), 1 => Just("2")],
            prop_oneof![1 => Just("1"), 2 => Just("4"), 1 => Just("8")],
            any::<bool>(),
        ),
    )
        .prop_map(
            |(
                (seed, read_error_rate, corrupt_rate, fail_nodes),
                (slow_nodes, max_attempts, speculative),
            )| ChaosPlan {
                seed,
                read_error_rate,
                corrupt_rate,
                fail_nodes,
                slow_nodes,
                max_attempts,
                speculative,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn random_fault_plans_never_corrupt_results_or_panic(plan in chaos_plan()) {
        let expected = reference_rows();
        let mut hive = chaos_session();
        hive.set(keys::DFS_FAULT_SEED, plan.seed.to_string())
            .set(keys::DFS_FAULT_READ_ERROR_RATE, plan.read_error_rate.to_string())
            .set(keys::DFS_FAULT_CORRUPT_RATE, plan.corrupt_rate.to_string())
            .set(keys::DFS_FAULT_FAIL_NODES, plan.fail_nodes)
            .set(keys::DFS_FAULT_SLOW_NODES, plan.slow_nodes)
            .set(keys::DFS_FAULT_SLOW_MS_PER_MB, "500")
            .set(keys::MAP_MAX_ATTEMPTS, plan.max_attempts)
            .set(keys::REDUCE_MAX_ATTEMPTS, plan.max_attempts)
            .set(keys::EXEC_SPECULATIVE, if plan.speculative { "true" } else { "false" })
            .set(keys::EXEC_SIM_DETERMINISTIC_CPU, "true");
        for (sql, want) in QUERIES.iter().zip(expected) {
            // Err is acceptable (the fault schedule may exhaust the retry
            // budget); wrong rows or a panic are not.
            if let Ok(r) = hive.execute(sql) {
                prop_assert_eq!(
                    &sorted(r.rows), want,
                    "faults changed results under {:?}\n{}", plan, sql
                );
            }
        }
    }
}

// With a generous retry budget and moderate transient-error rates, every
// query must actually succeed — degraded performance, identical answers.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn transient_faults_with_retries_always_recover(
        seed in 0u64..=1_000_000,
        rate in (1u32..=15).prop_map(|x| x as f64 / 100.0),
    ) {
        let expected = reference_rows();
        let mut hive = chaos_session();
        hive.set(keys::DFS_FAULT_SEED, seed.to_string())
            .set(keys::DFS_FAULT_READ_ERROR_RATE, rate.to_string())
            .set(keys::MAP_MAX_ATTEMPTS, "12")
            .set(keys::REDUCE_MAX_ATTEMPTS, "12")
            .set(keys::EXEC_SIM_DETERMINISTIC_CPU, "true");
        for (sql, want) in QUERIES.iter().zip(expected) {
            let r = match hive.execute(sql) {
                Ok(r) => r,
                Err(e) => return Err(TestCaseError(format!(
                    "seed={seed} rate={rate}: retries exhausted: {e}\n{sql}"
                ))),
            };
            prop_assert_eq!(&sorted(r.rows), want, "seed={} rate={}\n{}", seed, rate, sql);
        }
    }
}

// ---------------------------------------------------------------------------
// Cache chaos: the server caches must never serve stale data after a table
// is overwritten, and fault-injected read errors must never poison the
// caches with partial entries.
// ---------------------------------------------------------------------------

/// Overwriting a table between queries (drop + recreate + reload lands new
/// files at the SAME paths) must never serve stale footers or blocks: every
/// cache key includes the file generation, so a stale read is structurally
/// impossible, not just unlikely — checked here across repeated overwrites
/// with fully warmed caches.
#[test]
fn overwritten_table_is_never_served_stale() {
    let mut hive = HiveSession::builder()
        .knob(hive_common::config::knobs::EXEC_SIM_DETERMINISTIC_CPU, true)
        .build()
        .unwrap();
    for round in 0i64..5 {
        hive.execute("CREATE TABLE gen (k BIGINT, v BIGINT) STORED AS orc")
            .unwrap();
        hive.load_rows(
            "gen",
            (0..300).map(|i| Row::new(vec![Value::Int(round), Value::Int(i + 1000 * round)])),
        )
        .unwrap();
        // Warm every tier twice: footer/index via the scan, blocks via the
        // data reads, and the stats-answer footer path.
        for _ in 0..2 {
            let r = hive
                .execute("SELECT k, COUNT(*) AS n FROM gen GROUP BY k")
                .unwrap();
            assert_eq!(
                r.rows,
                vec![Row::new(vec![Value::Int(round), Value::Int(300)])]
            );
            let r = hive.execute("SELECT MIN(v), MAX(v) FROM gen").unwrap();
            assert_eq!(
                r.rows,
                vec![Row::new(vec![
                    Value::Int(1000 * round),
                    Value::Int(1000 * round + 299)
                ])]
            );
        }
        assert!(hive.metastore().drop_table("gen"), "round {round}");
    }
}

/// Tampering with stored bytes bumps the file generation and invalidates
/// both cache tiers: the next query must observe the damage (checksum
/// error) rather than answer from cached clean blocks.
#[test]
fn tampered_file_is_not_answered_from_cache() {
    let mut hive = chaos_session();
    let want = sorted(hive.execute(QUERIES[0]).unwrap().rows);
    // Warm re-run straight from the caches.
    assert_eq!(sorted(hive.execute(QUERIES[0]).unwrap().rows), want);
    for f in hive.metastore().table_files("t") {
        hive.dfs().corrupt_stored(&f, 40, 0xff).unwrap();
    }
    let res = hive.execute(QUERIES[0]);
    match res {
        Err(_) => {} // checksum failure surfaced — the damage was seen
        Ok(r) => panic!(
            "tampered table still answered ({} rows) — stale cache read",
            r.rows.len()
        ),
    }
}

// Fault-injected read errors abort in-flight cache fills instead of
// completing them: after a faulty-but-recovered run, a fault-free warm run
// must return identical rows (a poisoned partial entry would corrupt them)
// and every cached fill must have come from a successful read.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn read_error_faults_never_poison_the_caches(
        seed in 0u64..=1_000_000,
        rate in (5u32..=20).prop_map(|x| x as f64 / 100.0),
    ) {
        let expected = reference_rows();
        let mut hive = chaos_session();
        hive.set(keys::DFS_FAULT_SEED, seed.to_string())
            .set(keys::DFS_FAULT_READ_ERROR_RATE, rate.to_string())
            .set(keys::MAP_MAX_ATTEMPTS, "12")
            .set(keys::REDUCE_MAX_ATTEMPTS, "12")
            .set(keys::EXEC_SIM_DETERMINISTIC_CPU, "true");
        for (sql, want) in QUERIES.iter().zip(expected) {
            let r = hive.execute(sql).unwrap();
            prop_assert_eq!(&sorted(r.rows), want, "faulty run: seed={} {}", seed, sql);
        }
        // Disable injection; whatever the caches kept must be clean.
        hive.set(keys::DFS_FAULT_READ_ERROR_RATE, "0");
        for (sql, want) in QUERIES.iter().zip(expected) {
            let r = hive.execute(sql).unwrap();
            prop_assert_eq!(
                &sorted(r.rows), want,
                "warm run after faults diverged: seed={} {}", seed, sql
            );
        }
        // Misses are counted only on completed fills; a fill aborted by an
        // injected error leaves no entry behind, so hits can never exceed
        // what successful fills put in.
        let io = hive.io_snapshot();
        prop_assert!(io.cache_misses > 0, "expected some fills, got none");
    }
}

// Corrupt-data chaos for the vectorized map-join: with
// `hive.exec.orc.skip.corrupt.data` on, damaged stripes are skipped
// instead of failing the query; the vectorized and row-mode joins read
// the same salvaged rows (faults depend only on seed/path/offset) and
// must agree on the degraded answer, bit for bit.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn vectorized_mapjoin_matches_row_join_on_salvaged_data(
        seed in 0u64..=1_000_000,
        corrupt in (5u32..=30).prop_map(|x| x as f64 / 100.0),
    ) {
        let run = |vectorize: bool| {
            let mut hive = chaos_session();
            hive.set(keys::DFS_FAULT_SEED, seed.to_string())
                .set(keys::DFS_FAULT_CORRUPT_RATE, corrupt.to_string())
                .set(keys::ORC_SKIP_CORRUPT, "true")
                .set(keys::MAP_MAX_ATTEMPTS, "12")
                .set(keys::REDUCE_MAX_ATTEMPTS, "12")
                .set(
                    keys::VECTORIZED_ENABLED,
                    if vectorize { "true" } else { "false" },
                )
                .set(keys::EXEC_SIM_DETERMINISTIC_CPU, "true");
            hive.execute("SELECT t.k, d.name FROM t JOIN d ON (t.k = d.key) WHERE t.v < 200")
        };
        match (run(true), run(false)) {
            (Ok(v), Ok(r)) => {
                prop_assert_eq!(
                    v.report.rows_skipped, r.report.rows_skipped,
                    "engines salvaged different row counts: seed={} corrupt={}", seed, corrupt
                );
                prop_assert_eq!(
                    sorted(v.rows), sorted(r.rows),
                    "engines disagreed on salvaged rows: seed={} corrupt={}", seed, corrupt
                );
            }
            (v, r) => return Err(TestCaseError(format!(
                "seed={seed} corrupt={corrupt}: expected both engines to recover, got \
                 vec={:?} row={:?}",
                v.map(|x| x.rows.len()), r.map(|x| x.rows.len())
            ))),
        }
    }
}

// Same salvage contract for a whole vectorized map chain: a
// filter + expression + partial-aggregate pipeline over corrupt ORC files
// must skip the same rows and produce the same degraded answer whether it
// runs batch-native or in row mode (`hive.vectorized.execution.enabled`
// off). Reader-level salvage counts
// are compared too, so the EXPLAIN ANALYZE scan profile agrees between
// the modes as well.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn vectorized_full_query_matches_row_mode_on_salvaged_data(
        seed in 0u64..=1_000_000,
        corrupt in (5u32..=30).prop_map(|x| x as f64 / 100.0),
    ) {
        let sql = "SELECT k, COUNT(*) AS n, SUM(v) AS sv, MIN(v) AS mn, \
                   MAX(v) AS mx FROM t WHERE v + k < 500 GROUP BY k";
        let run = |vectorize: bool| {
            let mut hive = chaos_session();
            hive.set(keys::DFS_FAULT_SEED, seed.to_string())
                .set(keys::DFS_FAULT_CORRUPT_RATE, corrupt.to_string())
                .set(keys::ORC_SKIP_CORRUPT, "true")
                .set(keys::MAP_MAX_ATTEMPTS, "12")
                .set(keys::REDUCE_MAX_ATTEMPTS, "12")
                .set(
                    keys::VECTORIZED_ENABLED,
                    if vectorize { "true" } else { "false" },
                )
                .set(keys::EXEC_SIM_DETERMINISTIC_CPU, "true");
            hive.execute(sql)
        };
        match (run(true), run(false)) {
            (Ok(v), Ok(r)) => {
                prop_assert_eq!(
                    v.report.rows_skipped, r.report.rows_skipped,
                    "engines salvaged different row counts: seed={} corrupt={}", seed, corrupt
                );
                let scan_rows = |res: &hive_core::QueryResult| -> u64 {
                    res.report.jobs.iter().map(|j| j.scan.rows_read).sum()
                };
                prop_assert_eq!(
                    scan_rows(&v), scan_rows(&r),
                    "engines scanned different row counts: seed={} corrupt={}", seed, corrupt
                );
                prop_assert_eq!(
                    sorted(v.rows), sorted(r.rows),
                    "engines disagreed on salvaged aggregate: seed={} corrupt={}", seed, corrupt
                );
            }
            (v, r) => return Err(TestCaseError(format!(
                "seed={seed} corrupt={corrupt}: expected both engines to recover, got \
                 vec={:?} row={:?}",
                v.map(|x| x.rows.len()), r.map(|x| x.rows.len())
            ))),
        }
    }
}

/// Statement isolation under admission-control concurrency: the fault plan
/// and cache participation of one statement ride on its scoped DFS view,
/// never on shared server state. A thread hammering the server with
/// `dfs.fault.read.error.rate=1.0` must not make a concurrent clean
/// statement retry tasks, and a concurrent `hive.io.cache.bytes=0`
/// statement must stay fully uncached even while other statements keep the
/// shared cache hot.
#[test]
fn concurrent_statements_with_different_fault_and_cache_confs_stay_isolated() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let hive = chaos_session();
    let server = hive.server().clone();
    let reference = sorted(server.execute(QUERIES[1]).unwrap().rows);

    let stop = Arc::new(AtomicBool::new(false));
    let faulty = {
        let srv = server.clone();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            // Every first-touch read errors and there is no retry budget,
            // so these statements mostly fail — which is fine; the test is
            // that their plan never leaks into the other threads.
            let mut seed = 0u64;
            while !stop.load(Ordering::Relaxed) {
                seed += 1;
                let _ = srv.execute_with(
                    QUERIES[1],
                    &[
                        (keys::DFS_FAULT_READ_ERROR_RATE, "1.0"),
                        (keys::DFS_FAULT_SEED, &seed.to_string()),
                        (keys::MAP_MAX_ATTEMPTS, "1"),
                        (keys::REDUCE_MAX_ATTEMPTS, "1"),
                    ],
                );
            }
        })
    };
    let bypass = {
        let srv = server.clone();
        let reference = reference.clone();
        std::thread::spawn(move || {
            for _ in 0..15 {
                let r = srv
                    .execute_with(QUERIES[1], &[(keys::IO_CACHE_BYTES, "0")])
                    .unwrap();
                assert_eq!(sorted(r.rows), reference);
                assert_eq!(r.report.task_retries, 0, "leaked fault plan");
                let cache_touches: u64 = r
                    .report
                    .jobs
                    .iter()
                    .map(|j| {
                        j.scan.footer_cache_hits
                            + j.scan.footer_cache_misses
                            + j.scan.index_cache_hits
                            + j.scan.index_cache_misses
                            + j.scan.data_cache_hits
                            + j.scan.data_cache_misses
                    })
                    .sum();
                assert_eq!(cache_touches, 0, "cache-bypass statement used a cache");
            }
        })
    };
    let clean = {
        let srv = server.clone();
        let reference = reference.clone();
        std::thread::spawn(move || {
            for _ in 0..15 {
                let r = srv.execute(QUERIES[1]).unwrap();
                assert_eq!(sorted(r.rows), reference);
                assert_eq!(r.report.task_retries, 0, "leaked fault plan");
            }
        })
    };
    let bypass_result = bypass.join();
    let clean_result = clean.join();
    stop.store(true, Ordering::Relaxed);
    faulty.join().unwrap();
    bypass_result.unwrap();
    clean_result.unwrap();
}
