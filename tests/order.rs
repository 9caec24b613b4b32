//! Plans from the order the data has (DESIGN.md §21), checked end to end.
//!
//! TPC-H `lineitem` and `orders` are generated in order-key order. Loaded
//! that way, q18c, q12j, q3j and a GROUP BY on the order key plan order-aware
//! (map-final GROUP BY, range map join); loaded any way that breaks the
//! order — shuffled, with an out-of-order file appended, under an ACID
//! delta — they plan as if no order existed. Either way every statement
//! gives the rows the shuffled load gives, across vectorization ×
//! correlation × map-join conversion, including keys that straddle every
//! stripe boundary and stripes that hold a single key.

use hive::common::config::keys;
use hive::common::{key, Row, Value};
use hive::datagen::tpch;
use hive::dfs::DfsConfig;
use hive::formats::FormatKind;
use hive::HiveSession;

const Q18C: &str = "\
SELECT o_orderkey, o_totalprice, t.q FROM orders \
JOIN (SELECT l_orderkey, SUM(l_quantity) AS q FROM lineitem GROUP BY l_orderkey) t \
  ON (o_orderkey = t.l_orderkey) \
WHERE t.q > 150 ORDER BY o_orderkey LIMIT 100";

const Q12J: &str = "\
SELECT l_shipmode, COUNT(*) AS n, SUM(o_totalprice) AS tp FROM orders \
JOIN lineitem ON (o_orderkey = l_orderkey) \
WHERE l_shipdate >= '1994-01-01' AND l_shipdate < '1995-01-01' \
GROUP BY l_shipmode ORDER BY l_shipmode";

const Q3J: &str = "\
SELECT l_orderkey, SUM(l_extendedprice * (1 - l_discount)) AS revenue, o_orderdate \
FROM lineitem JOIN orders ON (l_orderkey = o_orderkey) \
JOIN customer ON (o_custkey = c_custkey) \
WHERE c_mktsegment = 'BUILDING' AND o_orderdate < '1995-03-15' \
  AND l_shipdate > '1995-03-15' \
GROUP BY l_orderkey, o_orderdate ORDER BY revenue DESC, l_orderkey LIMIT 10";

const GROUP_BY_KEY: &str = "\
SELECT l_orderkey, COUNT(*) AS n, SUM(l_quantity) AS q, MAX(l_shipmode) AS m, \
       COUNT(ROW__ID) AS ids \
FROM lineitem GROUP BY l_orderkey ORDER BY l_orderkey";

/// (name, statement, jobs when planned order-aware).
const STATEMENTS: [(&str, &str, usize); 4] = [
    ("q18c", Q18C, 1),
    ("q12j", Q12J, 1),
    ("q3j", Q3J, 1),
    ("group by l_orderkey", GROUP_BY_KEY, 1),
];

const SF: f64 = 0.002;

/// How a case's `lineitem` rows are made and stored.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Case {
    /// As generated: in order-key order.
    Ordered,
    /// The same rows, shuffled: no order to find.
    Shuffled,
    /// In order, then one row with the least key as a second file.
    OutOfOrderFile,
    /// One key over the middle 80 % of the rows: it straddles every stripe
    /// boundary there.
    HotKey,
    /// Forty lines per order: with small stripes, a stripe holds one key.
    SingleKeyStripes,
    /// In order, then an ACID delta inserted.
    AcidDelta,
}

fn lineitem(case: Case) -> Vec<Row> {
    let mut rows: Vec<Row> = tpch::lineitem_rows(SF, 7).collect();
    let n = rows.len();
    let set_key = |row: &mut Row, k: i64| row.values_mut()[0] = Value::Int(k);
    match case {
        Case::HotKey => {
            for row in &mut rows[n / 10..n * 9 / 10] {
                set_key(row, (n / 10 / 4 + 1) as i64);
            }
        }
        Case::SingleKeyStripes => {
            for (i, row) in rows.iter_mut().enumerate() {
                set_key(row, (i / 40 + 1) as i64);
            }
        }
        _ => {}
    }
    rows
}

/// `rows` in a fixed pseudo-random order.
fn shuffled(mut rows: Vec<Row>) -> Vec<Row> {
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for i in (1..rows.len()).rev() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        rows.swap(i, (x % (i as u64 + 1)) as usize);
    }
    rows
}

/// A session over small blocks and stripes (several map tasks, each
/// owning a key range), holding `case`'s tables — stored in order, or
/// shuffled when `scramble`.
fn session(case: Case, scramble: bool) -> HiveSession {
    let mut hive = HiveSession::with_dfs_config(DfsConfig {
        block_size: 64 << 10,
        replication: 2,
        nodes: 4,
    });
    hive.set(keys::ORC_STRIPE_SIZE, (32u64 << 10).to_string());
    let scramble = scramble || case == Case::Shuffled;
    let arrange = |rows: Vec<Row>| if scramble { shuffled(rows) } else { rows };
    let tables = [
        ("lineitem", tpch::lineitem_schema(), lineitem(case)),
        (
            "orders",
            tpch::orders_schema(),
            tpch::orders_rows(SF, 7).collect(),
        ),
        (
            "customer",
            tpch::customer_schema(),
            tpch::customer_rows(SF, 7).collect(),
        ),
    ];
    for (name, schema, rows) in tables {
        hive.create_table(name, schema, FormatKind::Orc).unwrap();
        hive.load_rows(name, arrange(rows)).unwrap();
    }
    match case {
        Case::OutOfOrderFile => {
            let mut late = lineitem(case).swap_remove(0);
            late.values_mut()[0] = Value::Int(1);
            hive.load_rows("lineitem", [late]).unwrap();
        }
        Case::AcidDelta => {
            let insert = "INSERT INTO lineitem VALUES (1, 1, 1, 9, 60.0, 100.0, 0.0, 0.0, \
                          'N', 'O', '1996-01-01', '1996-01-02', '1996-01-03', 'NONE', 'AIR', 'x')";
            hive.execute(insert).unwrap();
        }
        _ => {}
    }
    // `customer` joins map-side and `orders` does not, as in the benchmark.
    let (customer, orders) = (
        hive.metastore().table_size("customer"),
        hive.metastore().table_size("orders"),
    );
    hive.set(
        keys::MAPJOIN_SMALLTABLE_SIZE,
        ((customer + orders) / 2).to_string(),
    );
    hive
}

/// Equal row multisets, doubles within a relative 1e-9 (partial sums are
/// merged in task order).
fn assert_same_rows(what: &str, mut got: Vec<Row>, mut want: Vec<Row>) {
    let by_key = |a: &Row, b: &Row| key::cmp(a.values(), b.values());
    got.sort_by(by_key);
    want.sort_by(by_key);
    let close = |a: &Value, b: &Value| match (a, b) {
        (Value::Double(x), Value::Double(y)) => (x - y).abs() <= 1e-9 * x.abs().max(y.abs()),
        _ => a == b,
    };
    let same = got.len() == want.len()
        && got
            .iter()
            .zip(&want)
            .all(|(g, w)| g.values().iter().zip(w.values()).all(|(a, b)| close(a, b)));
    assert!(same, "{what}\n got: {got:?}\nwant: {want:?}");
}

const KNOBS: [&str; 3] = [
    keys::VECTORIZED_ENABLED,
    keys::OPT_CORRELATION,
    keys::AUTO_CONVERT_JOIN,
];

/// Run every statement of `case` under every knob setting against the
/// shuffled load's default plan; returns, per statement and setting, the
/// EXPLAIN text and the job count.
fn check(case: Case) -> Vec<(String, usize)> {
    let mut reference = session(case, true);
    let mut hive = session(case, false);
    let mut plans = Vec::new();
    for (name, sql, _) in STATEMENTS {
        let want = reference.execute(sql).unwrap().rows;
        assert!(!want.is_empty(), "{case:?} {name}: no rows at this scale");
        for bits in 0..1 << KNOBS.len() {
            for (i, knob) in KNOBS.iter().enumerate() {
                let on = (bits >> i & 1 == 1).to_string();
                hive.set(knob, on.clone());
                reference.set(knob, on);
            }
            let what = format!("{case:?} {name} knobs {bits:03b}");
            let got = hive.execute(sql).unwrap();
            assert_same_rows(&what, got.rows, reference.execute(sql).unwrap().rows);
            let explain = hive.execute(&format!("EXPLAIN {sql}")).unwrap();
            let expected_jobs = reference.execute(sql).unwrap().report.jobs.len();
            if !matches!(case, Case::Ordered | Case::HotKey | Case::SingleKeyStripes) {
                assert_eq!(
                    got.report.jobs.len(),
                    expected_jobs,
                    "{what}: plans as today"
                );
            }
            plans.push((explain.explain.unwrap(), got.report.jobs.len()));
        }
    }
    plans
}

#[test]
fn ordered_tables_plan_order_aware_and_answer_alike() {
    let plans = check(Case::Ordered);
    // All knobs on (the last setting of each statement's eight): one job
    // each, and EXPLAIN names the evidence.
    for (i, (name, _, jobs)) in STATEMENTS.iter().enumerate() {
        let (explain, got) = &plans[i * 8 + 7];
        assert_eq!(got, jobs, "{name}\n{explain}");
        assert!(
            explain.contains("order: lineitem.l_orderkey"),
            "{name}\n{explain}"
        );
    }
    let (q18c, _) = &plans[7];
    assert!(q18c.contains("orders.o_orderkey (1 file)"), "{q18c}");
    assert!(q18c.contains("map-only"), "{q18c}");
}

#[test]
fn tables_out_of_order_plan_as_before() {
    for case in [Case::Shuffled, Case::OutOfOrderFile, Case::AcidDelta] {
        for (explain, _) in check(case) {
            assert!(!explain.contains("order:"), "{case:?}\n{explain}");
        }
    }
}

#[test]
fn keys_across_stripe_boundaries_stay_in_one_task() {
    for case in [Case::HotKey, Case::SingleKeyStripes] {
        let plans = check(case);
        let (explain, jobs) = &plans[3 * 8 + 7];
        assert_eq!(*jobs, 1, "{case:?}\n{explain}");
        assert!(
            explain.contains("order: lineitem.l_orderkey"),
            "{case:?}\n{explain}"
        );
    }
}

/// `hive.io.cache.bytes=0` switches the ORC metadata cache off for the
/// planner's footer reads as for the scan's: a GROUP BY planned from the
/// table's order leaves no footer in the cache for a later reader to hit.
#[test]
fn the_cache_knob_at_zero_keeps_planning_out_of_the_metadata_cache() {
    use hive::formats::orc::reader::{OrcReadOptions, OrcReader};
    let mut hive = HiveSession::with_dfs_config(DfsConfig {
        block_size: 64 << 10,
        replication: 2,
        nodes: 4,
    });
    hive.set(keys::IO_CACHE_BYTES, "0");
    hive.execute("CREATE TABLE kv (k BIGINT, v BIGINT) STORED AS orc")
        .unwrap();
    let rows = (0..400).map(|i| Row::new(vec![Value::Int(i / 4), Value::Int(i)]));
    hive.load_rows("kv", rows).unwrap();
    let sql = "SELECT k, COUNT(*) FROM kv GROUP BY k";
    let explain = hive.execute(&format!("EXPLAIN {sql}")).unwrap();
    let explain = explain.explain.unwrap();
    assert!(explain.contains("order: kv.k (1 file)"), "{explain}");
    assert_eq!(hive.execute(sql).unwrap().rows.len(), 100);
    let files = hive.dfs().list("/warehouse/kv/");
    assert_eq!(files.len(), 1);
    let opts = OrcReadOptions {
        cache_metadata: true,
        ..Default::default()
    };
    let file = OrcReader::open(hive.dfs(), &files[0], opts).unwrap();
    assert_eq!(
        (
            file.counters.footer_cache_hits,
            file.counters.footer_cache_misses
        ),
        (0, 1)
    );
}
