//! Query scratch lives only as long as its query: after any statement —
//! finished, failed, preempted, served from the plan cache, or a
//! compaction — no intermediate directory is left under `/tmp/query-*`.

use hive_common::config::keys;
use hive_common::{Row, Value};
use hive_core::{HiveServer, HiveSession};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// TPC-H q3's shape on three small tables: with every join on the reduce
/// side and no correlation merge, it runs as three jobs (two joins, then
/// the group-by), so two intermediate directories pass between them.
const Q3: &str = "\
SELECT l_orderkey, SUM(l_price) AS revenue, o_date \
FROM lineitem \
JOIN orders ON (l_orderkey = o_orderkey) \
JOIN customer ON (o_custkey = c_custkey) \
WHERE c_segment = 'BUILDING' AND l_price > 10 \
GROUP BY l_orderkey, o_date \
ORDER BY revenue DESC, l_orderkey \
LIMIT 10";

const THREE_JOBS: [(&str, &str); 2] = [
    (keys::AUTO_CONVERT_JOIN, "false"),
    (keys::OPT_CORRELATION, "false"),
];

fn load(session: &mut HiveSession) {
    for ddl in [
        "CREATE TABLE lineitem (l_orderkey BIGINT, l_price DOUBLE) STORED AS orc",
        "CREATE TABLE orders (o_orderkey BIGINT, o_custkey BIGINT, o_date STRING) STORED AS orc",
        "CREATE TABLE customer (c_custkey BIGINT, c_segment STRING) STORED AS orc",
    ] {
        session.execute(ddl).unwrap();
    }
    let (int, s) = (Value::Int, |x: String| Value::String(x));
    let lineitem = (0..3_000).map(|i| Row::new(vec![int(i % 600), Value::Double((i % 97) as f64)]));
    session.load_rows("lineitem", lineitem).unwrap();
    let orders =
        (0..600).map(|i| Row::new(vec![int(i), int(i % 40), s(format!("1995-{:02}", i % 12))]));
    session.load_rows("orders", orders).unwrap();
    let segment = |i| if i % 3 == 0 { "BUILDING" } else { "MACHINERY" };
    let customer = (0..40).map(|i| Row::new(vec![int(i), s(segment(i).into())]));
    session.load_rows("customer", customer).unwrap();
}

fn three_job_session() -> HiveSession {
    let mut hive = HiveSession::in_memory();
    load(&mut hive);
    for (k, v) in THREE_JOBS {
        hive.set(k, v);
    }
    hive
}

/// Every file left under the query scratch namespace.
fn scratch(dfs: &hive_dfs::Dfs) -> Vec<String> {
    dfs.list("/tmp/query-")
}

#[test]
fn a_three_job_statement_leaves_no_scratch() {
    let mut hive = three_job_session();
    let first = hive.execute(Q3).unwrap();
    assert_eq!(first.report.jobs.len(), 3, "{:?}", first.report.jobs);
    assert!(first.report.jobs[0].bytes_written > 0);
    assert_eq!(first.rows.len(), 10);
    assert_eq!(scratch(hive.dfs()), Vec::<String>::new());
    for _ in 0..4 {
        assert_eq!(hive.execute(Q3).unwrap().rows, first.rows);
        assert_eq!(scratch(hive.dfs()), Vec::<String>::new());
    }
}

#[test]
fn a_failing_statement_leaves_no_scratch() {
    let mut hive = three_job_session();
    hive.set(keys::MAP_MAX_ATTEMPTS, "1")
        .set(keys::REDUCE_MAX_ATTEMPTS, "1")
        .set(keys::DFS_FAULT_READ_ERROR_RATE, "0.05");
    let mut failed = 0;
    for seed in 0..12 {
        hive.set(keys::DFS_FAULT_SEED, seed.to_string());
        failed += hive.execute(Q3).is_err() as usize;
        assert_eq!(scratch(hive.dfs()), Vec::<String>::new(), "seed {seed}");
    }
    assert!(failed > 0, "no fault plan failed the statement");
}

#[test]
fn a_preempted_statement_leaves_no_scratch() {
    let mut builder = HiveSession::builder()
        .set(keys::SERVER_WM_PLAN, "hi:share=1,priority=10;lo:share=1")
        .unwrap()
        .set(keys::SERVER_WM_MAPPING, "ann=hi;*=lo")
        .unwrap();
    for (k, v) in THREE_JOBS {
        builder = builder.set(k, v).unwrap();
    }
    let server = builder.build_server().unwrap();
    load(&mut server.new_session());
    let wm = server.workload_manager();
    let expected = server.execute(Q3).unwrap().rows;

    // A lo flood holds both slots (its own and hi's, borrowed); hi arrivals
    // preempt the borrower, which unwinds and re-runs from scratch.
    let stop = Arc::new(AtomicBool::new(false));
    let flood: Vec<_> = (0..3)
        .map(|_| {
            let (srv, stop, want) = (server.clone(), Arc::clone(&stop), expected.clone());
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let r = srv.execute_with(Q3, &[("hive.session.user", "bob")]);
                    assert_eq!(r.unwrap().rows, want);
                }
            })
        })
        .collect();
    for _ in 0..200 {
        if wm.requeues() > 0 {
            break;
        }
        while wm.active_count(1) < wm.total_slots() {
            std::thread::sleep(Duration::from_millis(1));
        }
        let r = server.execute_with(Q3, &[("hive.session.user", "ann")]);
        assert_eq!(r.unwrap().rows, expected);
    }
    stop.store(true, Ordering::Relaxed);
    flood.into_iter().for_each(|h| h.join().unwrap());
    assert!(wm.requeues() >= 1, "no statement was preempted");
    assert_eq!(scratch(server.dfs()), Vec::<String>::new());
}

#[test]
fn concurrent_plan_cache_hits_leave_no_scratch() {
    let mut builder = HiveSession::builder()
        .set(keys::PLAN_CACHE_ENABLED, "true")
        .unwrap();
    for (k, v) in THREE_JOBS {
        builder = builder.set(k, v).unwrap();
    }
    let server: HiveServer = builder.build_server().unwrap();
    load(&mut server.new_session());
    let expected = server.execute(Q3).unwrap().rows;
    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| {
                for _ in 0..3 {
                    assert_eq!(server.execute(Q3).unwrap().rows, expected);
                }
            });
        }
    });
    assert_eq!(server.plan_cache().hits(), 6);
    assert_eq!(scratch(server.dfs()), Vec::<String>::new());
}

#[test]
fn a_compaction_leaves_no_scratch() {
    let mut hive = HiveSession::in_memory();
    hive.execute("CREATE TABLE acct (id BIGINT, bal BIGINT) STORED AS orc")
        .unwrap();
    hive.execute("INSERT INTO acct VALUES (1, 100), (2, 200), (3, 300)")
        .unwrap();
    hive.execute("UPDATE acct SET bal = bal + 50 WHERE id = 2")
        .unwrap();
    hive.execute("DELETE FROM acct WHERE id = 1").unwrap();
    hive.execute("ALTER TABLE acct COMPACT 'minor'").unwrap();
    assert_eq!(scratch(hive.dfs()), Vec::<String>::new());
    hive.execute("INSERT INTO acct VALUES (4, 400)").unwrap();
    hive.execute("ALTER TABLE acct COMPACT 'major'").unwrap();
    assert_eq!(scratch(hive.dfs()), Vec::<String>::new());
    let rows = hive
        .execute("SELECT id, bal FROM acct ORDER BY id")
        .unwrap()
        .rows;
    assert_eq!(rows.len(), 3);
}

/// A DELETE the workload manager preempts mid-scan commits nothing: it
/// re-runs from scratch and deletes exactly the model's rows, once.
#[test]
fn a_preempted_delete_commits_once_and_leaves_no_scratch() {
    let server = HiveSession::builder()
        .set(keys::SERVER_WM_PLAN, "hi:share=1,priority=10;lo:share=1")
        .unwrap()
        .set(keys::SERVER_WM_MAPPING, "ann=hi;*=lo")
        .unwrap()
        .build_server()
        .unwrap();
    let mut session = server.new_session();
    session
        .execute("CREATE TABLE t (k BIGINT, v BIGINT) STORED AS orc")
        .unwrap();
    // Several files, so the DELETE's scan passes several task checkpoints.
    for file in 0..6 {
        let rows = (0..2_000).map(|i| Row::new(vec![Value::Int(i % 50), Value::Int(file)]));
        session.load_rows("t", rows).unwrap();
    }
    let wm = server.workload_manager();
    let count =
        |srv: &HiveServer| srv.execute("SELECT COUNT(*) FROM t").unwrap().rows[0][0].clone();
    let before = count(&server);

    // A lo flood holds both slots, each statement inserting a fresh key's
    // two rows and deleting them; hi arrivals preempt the borrower.
    let stop = Arc::new(AtomicBool::new(false));
    let flood: Vec<_> = (0..3i64)
        .map(|t| {
            let (srv, stop) = (server.clone(), Arc::clone(&stop));
            std::thread::spawn(move || {
                let bob = [("hive.session.user", "bob")];
                let mut key = 1_000_000 * (t + 1);
                while !stop.load(Ordering::Relaxed) {
                    let insert = format!("INSERT INTO t VALUES ({key}, 0), ({key}, 1)");
                    srv.execute_with(&insert, &bob).unwrap();
                    let delete = format!("DELETE FROM t WHERE k = {key}");
                    let deleted = srv.execute_with(&delete, &bob).unwrap();
                    assert_eq!(deleted.rows[0][0], Value::Int(2), "{delete}");
                    key += 1;
                }
            })
        })
        .collect();
    for _ in 0..200 {
        if wm.requeues() > 0 {
            break;
        }
        while wm.active_count(1) < wm.total_slots() {
            std::thread::sleep(Duration::from_millis(1));
        }
        let ann = [("hive.session.user", "ann")];
        server.execute_with("SELECT COUNT(*) FROM t", &ann).unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    flood.into_iter().for_each(|h| h.join().unwrap());
    // Only a DELETE's scan polls the preemption token in this flood.
    assert!(wm.requeues() >= 1, "no DELETE was preempted");
    assert_eq!(count(&server), before);
    assert_eq!(scratch(server.dfs()), Vec::<String>::new());
}
