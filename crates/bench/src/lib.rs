//! Shared support for the benchmark harnesses that regenerate the paper's
//! tables and figures (one binary per exhibit; see DESIGN.md §4):
//!
//! | exhibit  | binary   | paper claim reproduced                           |
//! |----------|----------|--------------------------------------------------|
//! | Table 2  | `table2` | dataset sizes: ORC < RCFile, ± Snappy            |
//! | Fig. 9   | `fig9`   | load times; TPC-H ORC ≈ 2× RCFile                |
//! | Fig. 10  | `fig10`  | SS-DB q1: stripes + PPD cut time and bytes       |
//! | Fig. 11  | `fig11`  | q27/q95: Map-merge and Correlation Optimizer     |
//! | Fig. 12  | `fig12`  | q1/q6: vectorized ≫ row engine (CPU and elapsed) |
//!
//! Scale is controlled by `HIVE_BENCH_SF` (TPC scale factor fraction,
//! default 0.01) and `HIVE_BENCH_SSDB_STEP` (SS-DB grid step, default 100).
//!
//! These binaries and the Criterion benches under `benches/` reproduce the
//! paper's exhibits on the simulated cluster clock; nothing here gates CI.
//! How fast the engine is on this host is the business of the wall-clock
//! benchmark in `/benchmark` (see its README), and the invariants of the
//! later subsystems are tests (DESIGN.md §19).

use hive_core::HiveSession;
use hive_dfs::DfsConfig;

/// TPC scale factor for harness runs (paper: 300; default here: 0.01).
pub fn scale_factor() -> f64 {
    std::env::var("HIVE_BENCH_SF")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.01)
}

/// SS-DB grid step (smaller = more pixels; default 100 → 22.5k px/image).
pub fn ssdb_step() -> i64 {
    std::env::var("HIVE_BENCH_SSDB_STEP")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(100)
}

/// SS-DB images per cycle (paper: 20).
pub fn ssdb_images() -> i64 {
    std::env::var("HIVE_BENCH_SSDB_IMAGES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(20)
}

/// A fresh session sized for laptop-scale data: small DFS blocks so files
/// still split into several map tasks.
pub fn bench_session() -> HiveSession {
    bench_session_with_block(8 << 20)
}

/// A session with an explicit DFS block size. The paper's 512 MB blocks
/// put hundreds of map tasks on every format; scaled-down runs need small
/// blocks to stay in that many-splits regime (otherwise the smaller ORC
/// files get *less* parallelism and the comparison inverts).
pub fn bench_session_with_block(block_size: u64) -> HiveSession {
    let mut s = HiveSession::with_dfs_config(DfsConfig {
        block_size,
        replication: 3,
        nodes: 10,
    });
    // Scale ORC's stripe to the data (256 MB stripes would put the whole
    // dataset in one stripe and hide all intra-file effects).
    s.set(
        hive_common::config::keys::ORC_STRIPE_SIZE,
        format!("{}", 4 << 20),
    );
    s.set(hive_common::config::keys::ORC_ROW_INDEX_STRIDE, "10000");
    s
}

/// Render a results table: header + rows of (label, values).
pub fn print_table(title: &str, header: &[&str], rows: &[(String, Vec<String>)]) {
    println!("\n=== {title} ===");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for (label, vals) in rows {
        widths[0] = widths[0].max(label.len());
        for (i, v) in vals.iter().enumerate() {
            widths[i + 1] = widths[i + 1].max(v.len());
        }
    }
    let fmt_row = |cells: Vec<String>| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:<w$}", c, w = widths[i] + 2))
            .collect::<String>()
    };
    println!(
        "{}",
        fmt_row(header.iter().map(|s| s.to_string()).collect())
    );
    for (label, vals) in rows {
        let mut cells = vec![label.clone()];
        cells.extend(vals.clone());
        println!("{}", fmt_row(cells));
    }
}

/// Human-readable byte count.
pub fn fmt_bytes(b: u64) -> String {
    if b >= 1 << 30 {
        format!("{:.2} GB", b as f64 / (1u64 << 30) as f64)
    } else if b >= 1 << 20 {
        format!("{:.2} MB", b as f64 / (1u64 << 20) as f64)
    } else if b >= 1 << 10 {
        format!("{:.2} KB", b as f64 / (1u64 << 10) as f64)
    } else {
        format!("{b} B")
    }
}

/// Seconds with 2 decimals.
pub fn fmt_s(s: f64) -> String {
    format!("{s:.2} s")
}

/// The TPC-H queries of Fig. 12.
pub mod queries {
    /// TPC-H q1: one predicate, eight aggregations (paper Section 7.4).
    pub const TPCH_Q1: &str = "\
SELECT l_returnflag, l_linestatus, \
       SUM(l_quantity) AS sum_qty, \
       SUM(l_extendedprice) AS sum_base_price, \
       SUM(l_extendedprice * (1 - l_discount)) AS sum_disc_price, \
       SUM(l_extendedprice * (1 - l_discount) * (1 + l_tax)) AS sum_charge, \
       AVG(l_quantity) AS avg_qty, \
       AVG(l_extendedprice) AS avg_price, \
       AVG(l_discount) AS avg_disc, \
       COUNT(*) AS count_order \
FROM lineitem \
WHERE l_shipdate <= '1998-09-02' \
GROUP BY l_returnflag, l_linestatus \
ORDER BY l_returnflag, l_linestatus";

    /// TPC-H q6: four predicates, one aggregation.
    pub const TPCH_Q6: &str = "\
SELECT SUM(l_extendedprice * l_discount) AS revenue \
FROM lineitem \
WHERE l_shipdate >= '1994-01-01' AND l_shipdate < '1995-01-01' \
  AND l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24";

    /// TPC-DS q27 (the paper's shape: a five-table star join over
    /// store_sales, then aggregation and sorting).
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

    /// TPC-DS q95, flattened (the paper flattened its WHERE-clause
    /// subqueries too): dimension joins on web_sales, a self-join on the
    /// order number (different warehouses), the returns join, and an
    /// aggregation grouped by the same order number — the correlated
    /// pattern the Correlation Optimizer collapses.
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
}

#[cfg(test)]
mod tests {
    #[test]
    fn bench_queries_parse() {
        for q in [
            super::queries::TPCH_Q1,
            super::queries::TPCH_Q6,
            super::queries::TPCDS_Q27,
            super::queries::TPCDS_Q95,
        ] {
            hive_ql::parse(q).unwrap_or_else(|e| panic!("{e}\n{q}"));
        }
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(super::fmt_bytes(512), "512 B");
        assert_eq!(super::fmt_bytes(2 << 20), "2.00 MB");
        assert_eq!(super::fmt_s(1.234), "1.23 s");
    }
}
