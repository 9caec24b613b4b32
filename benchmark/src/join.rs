//! `join_shuffle`: five join statements whose cost is decided by the
//! planner (how many jobs) and paid in the shuffle and the reduce-side row
//! operators — the control for scan changes and the target for planner,
//! runtime-filter and spill changes.

use crate::workload::{cluster, load_table, rows_match, Bench, Expect, Scale, Script, Stmt};
use hive_common::Row;
use hive_core::HiveSession;
use hive_datagen::{tpcds, tpch};
use std::sync::Arc;

/// TPC-DS q27 in the paper's shape: a four-way star map-join, one job.
pub const TPCDS_Q27: &str = "\
SELECT i_item_id, s_state, \
       AVG(ss_quantity) AS agg1, AVG(ss_list_price) AS agg2, \
       AVG(ss_coupon_amt) AS agg3, AVG(ss_sales_price) AS agg4 \
FROM store_sales \
JOIN customer_demographics ON (ss_cdemo_sk = cd_demo_sk) \
JOIN date_dim ON (ss_sold_date_sk = d_date_sk) \
JOIN store ON (ss_store_sk = s_store_sk) \
JOIN item ON (ss_item_sk = i_item_sk) \
WHERE cd_gender = 'M' AND cd_marital_status = 'S' \
  AND cd_education_status = 'College' \
  AND d_year = 1998 AND s_state IN ('TN', 'SD', 'AL') \
GROUP BY i_item_id, s_state \
ORDER BY i_item_id, s_state \
LIMIT 100";

/// TPC-DS q95, flattened as in the paper: the self-join, the returns join
/// and the aggregation share the order number, so the Correlation
/// Optimizer merges them.
pub const TPCDS_Q95: &str = "\
SELECT ws1.ws_order_number, \
       COUNT(*) AS line_pairs, \
       SUM(ws1.ws_ext_ship_cost) AS total_ship_cost, \
       SUM(ws1.ws_net_profit) AS total_net_profit \
FROM web_sales ws1 \
JOIN date_dim ON (ws1.ws_ship_date_sk = d_date_sk) \
JOIN customer_address ON (ws1.ws_ship_addr_sk = ca_address_sk) \
JOIN web_site ON (ws1.ws_web_site_sk = web_site_sk) \
JOIN web_sales ws2 ON (ws1.ws_order_number = ws2.ws_order_number) \
JOIN web_returns ON (ws1.ws_order_number = wr_order_number) \
WHERE d_date BETWEEN '1995-02-01' AND '1995-04-02' \
  AND ca_state = 'IL' AND web_company_name = 'pri' \
  AND ws1.ws_warehouse_sk <> ws2.ws_warehouse_sk \
GROUP BY ws1.ws_order_number \
ORDER BY ws1.ws_order_number \
LIMIT 100";

/// Large orders (TPC-H q18's core): the join and the sub-query's group-by
/// share `l_orderkey`, so the Correlation Optimizer runs them in one job.
pub const TPCH_Q18C: &str = "\
SELECT o_orderkey, o_totalprice, t.q \
FROM orders \
JOIN (SELECT l_orderkey, SUM(l_quantity) AS q FROM lineitem GROUP BY l_orderkey) t \
  ON (o_orderkey = t.l_orderkey) \
WHERE t.q > 150 \
ORDER BY o_orderkey \
LIMIT 100";

/// Shipping modes (TPC-H q12's core): a reduce-side join of the two large
/// tables, then a group-by on another key — two shuffle jobs.
pub const TPCH_Q12J: &str = "\
SELECT l_shipmode, COUNT(*) AS n, SUM(o_totalprice) AS tp \
FROM orders \
JOIN lineitem ON (o_orderkey = l_orderkey) \
WHERE l_shipdate >= '1994-01-01' AND l_shipdate < '1995-01-01' \
GROUP BY l_shipmode \
ORDER BY l_shipmode";

/// Shipping priority (TPC-H q3's core): `customer` joins map-side,
/// `orders` reduce-side, the group-by shuffles again — three jobs.
pub const TPCH_Q3J: &str = "\
SELECT l_orderkey, SUM(l_extendedprice * (1 - l_discount)) AS revenue, o_orderdate \
FROM lineitem \
JOIN orders ON (l_orderkey = o_orderkey) \
JOIN customer ON (o_custkey = c_custkey) \
WHERE c_mktsegment = 'BUILDING' AND o_orderdate < '1995-03-15' \
  AND l_shipdate > '1995-03-15' \
GROUP BY l_orderkey, o_orderdate \
ORDER BY revenue DESC, l_orderkey \
LIMIT 10";

const TPCH_SF: f64 = 0.03;
const TPCDS_SF: f64 = 0.06;

/// `hive.mapjoin.smalltable.filesize` for the TPC-H statements, per unit
/// of TPC-H scale factor: between `customer` (15 MB/SF) and `orders`
/// (111 MB/SF), so the first joins map-side and the second reduce-side at
/// any scale. At the default 25 MB every table here would be "small" and
/// no statement would shuffle a join.
const SMALL_TABLE_BYTES_PER_SF: f64 = 40e6;

/// The planner variants every join answer is checked against at set-up.
const DIFFERENTIAL_KNOBS: [&str; 2] = [
    "hive.vectorized.execution.enabled",
    "hive.optimize.correlation",
];

pub fn setup(seed: u64, scale: Scale) -> Bench {
    let server = cluster().build_server().expect("server configuration");
    let mut session = server.new_session();
    let tpch_sf = scale.factor(TPCH_SF);
    let mut rows_loaded = 0;
    let mut loaded_text_bytes = 0;
    let tables = tpch::all_tables(tpch_sf, seed)
        .into_iter()
        .chain(tpcds::all_tables(scale.factor(TPCDS_SF), seed));
    for (name, schema, rows) in tables {
        let (n, bytes) = load_table(&mut session, name, schema, rows, |_| {});
        rows_loaded += n;
        loaded_text_bytes += bytes;
    }
    let mut tpch_session = server.new_session();
    tpch_session
        .try_set(
            "hive.mapjoin.smalltable.filesize",
            ((SMALL_TABLE_BYTES_PER_SF * tpch_sf) as u64).to_string(),
        )
        .expect("registered knob");
    let mut sessions = vec![session, tpch_session];

    let stmts = [
        ("tpcds_q27", TPCDS_Q27, 0),
        ("tpcds_q95", TPCDS_Q95, 0),
        ("tpch_q18c", TPCH_Q18C, 1),
        ("tpch_q12j", TPCH_Q12J, 1),
        ("tpch_q3j", TPCH_Q3J, 1),
    ]
    .into_iter()
    .map(|(kind, sql, session)| Stmt {
        kind,
        sql: sql.to_string(),
        session,
        expect: Expect::Rows(Arc::new(reference_rows(&mut sessions[session], kind, sql))),
    })
    .collect();
    Bench {
        server,
        sessions,
        script: Script::Fixed(stmts),
        loaded_text_bytes,
        rows_loaded,
        expect_wire_reads: None,
    }
}

/// The rows every later execution of `sql` must return: the default
/// plan's answer, accepted only if the row engine and the uncorrelated
/// plan — different operators, different job DAGs — give the same rows.
fn reference_rows(session: &mut HiveSession, kind: &str, sql: &str) -> Vec<Row> {
    let run = |session: &mut HiveSession| {
        session
            .execute(sql)
            .unwrap_or_else(|e| panic!("{kind}: {e}"))
            .rows
    };
    let reference = run(session);
    assert!(
        !reference.is_empty(),
        "{kind} returns no rows at this scale"
    );
    for knob in DIFFERENTIAL_KNOBS {
        session.try_set(knob, "false").expect("registered knob");
        let variant = run(session);
        session.try_set(knob, "true").expect("registered knob");
        assert!(
            rows_match(&reference, &variant),
            "{kind}: {knob}=false changes the answer\n default: {reference:?}\n variant: {variant:?}"
        );
    }
    reference
}
