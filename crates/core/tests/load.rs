//! `HiveSession::load_rows` writes on a thread of its own and is still one
//! call: a load that fails publishes nothing and leaves the table loadable,
//! a panic in the input comes out of the call, and the writer thread is
//! gone when the call returns, whichever way it returns.
//!
//! One test, so that no other test's threads come and go while this one
//! counts the process's threads.

use hive_common::{HiveError, Row, Value};
use hive_core::HiveSession;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The process's threads, from the kernel's task list.
fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .map(|d| d.count())
        .unwrap_or(0)
}

fn row(i: i64) -> Row {
    Row::new(vec![
        Value::Int(i),
        Value::String(format!("s{}", i % 7)),
        Value::Double(i as f64 / 2.0),
    ])
}

#[test]
fn a_load_fails_whole_and_leaves_no_thread_behind() {
    let mut hive = HiveSession::in_memory();
    hive.execute("CREATE TABLE t (k BIGINT, s STRING, d DOUBLE) STORED AS orc")
        .unwrap();
    hive.load_rows("t", (0..100).map(row)).unwrap();
    let files = hive.metastore().table_files("t");
    let idle = threads();

    // The writer runs beside the caller while the input is pulled.
    let mut most = 0;
    let n = hive
        .load_rows(
            "t",
            (0..20_000).map(row).inspect(|_| most = most.max(threads())),
        )
        .unwrap();
    assert_eq!(n, 20_000);
    if idle > 0 {
        assert_eq!(most, idle + 1, "one writer thread while loading");
        assert_eq!(threads(), idle, "the writer thread outlived the load");
    }
    let files = {
        let now = hive.metastore().table_files("t");
        assert_eq!(now.len(), files.len() + 1);
        now
    };

    // A row of the wrong arity at row 5 000: a SerDe error, nothing published.
    let bad = (0..10_000).map(|i| match i {
        5_000 => Row::new(vec![Value::Int(i)]),
        _ => row(i),
    });
    let err = hive.load_rows("t", bad).unwrap_err();
    assert!(matches!(err, HiveError::SerDe(_)), "{err}");
    assert_eq!(hive.metastore().table_files("t"), files);
    if idle > 0 {
        assert_eq!(threads(), idle, "the writer thread outlived a failed load");
    }

    // A panic in the input unwinds out of the call; nothing is published.
    let panicked = catch_unwind(AssertUnwindSafe(|| {
        let input = (0..10_000).map(|i| {
            assert!(i != 7_777, "the input gave out");
            row(i)
        });
        hive.load_rows("t", input)
    }));
    let payload = panicked.expect_err("the input's panic reaches the caller");
    let message = payload.downcast_ref::<&str>().copied();
    assert_eq!(message, Some("the input gave out"));
    assert_eq!(hive.metastore().table_files("t"), files);
    if idle > 0 {
        assert_eq!(threads(), idle, "the writer thread outlived a panic");
    }

    // The table still loads, and holds exactly the loads that succeeded.
    hive.load_rows("t", (0..10).map(row)).unwrap();
    assert_eq!(hive.metastore().table_files("t").len(), files.len() + 1);
    let r = hive.execute("SELECT COUNT(*) FROM t").unwrap();
    assert_eq!(r.rows[0][0], Value::Int(100 + 20_000 + 10));
}
