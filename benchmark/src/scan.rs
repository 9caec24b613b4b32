//! `scan_warm` and `scan_cold`: TPC-H q1 and q6 (the paper's Fig. 12 pair)
//! over `lineitem`, once with the table's bytes resident in the DFS block
//! cache and once with a working set the cache can never hold.

use crate::workload::{cluster, load_table, Bench, Expect, Scale, Script, Stmt};
use hive_common::{Row, Value};
use hive_datagen::tpch;
use std::collections::BTreeMap;
use std::sync::Arc;

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

pub const TPCH_Q6: &str = "\
SELECT SUM(l_extendedprice * l_discount) AS revenue \
FROM lineitem \
WHERE l_shipdate >= '1994-01-01' AND l_shipdate < '1995-01-01' \
  AND l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24";

/// `lineitem` scale factor of both scan workloads (600 k rows).
const LINEITEM_SF: f64 = 0.1;

/// Block-cache bytes of `scan_cold`. q1 reads 8.8 MB of Snappy-compressed
/// streams and q6 7.0 MB, so with 4 MiB the LRU has always evicted a range
/// before the next pass asks for it again — the regime of a table larger
/// than memory, at a size this host can load in seconds. (`scan_warm`
/// keeps the 32 MiB default, which holds q1's whole 22.6 MB.)
const COLD_CACHE_BYTES: u64 = 4 << 20;

/// Pure-Rust answers to q1 and q6, folded over the generated rows.
#[derive(Default)]
pub struct ScanOracle {
    /// (returnflag, linestatus) → qty, price, disc_price, charge, disc, n.
    q1: BTreeMap<(String, String), [f64; 6]>,
    q6_revenue: f64,
    q6_matches: u64,
}

impl ScanOracle {
    pub fn observe(&mut self, row: &Row) {
        let f = |i: usize| row[i].as_double().expect("numeric lineitem column");
        let (qty, price, disc, tax) = (f(4), f(5), f(6), f(7));
        let shipdate = row[10].as_str().expect("l_shipdate is a string");
        if shipdate <= "1998-09-02" {
            let key = (
                row[8].as_str().expect("l_returnflag").to_string(),
                row[9].as_str().expect("l_linestatus").to_string(),
            );
            let acc = self.q1.entry(key).or_default();
            acc[0] += qty;
            acc[1] += price;
            acc[2] += price * (1.0 - disc);
            acc[3] += price * (1.0 - disc) * (1.0 + tax);
            acc[4] += disc;
            acc[5] += 1.0;
        }
        if ("1994-01-01".."1995-01-01").contains(&shipdate)
            && (0.05..=0.07).contains(&disc)
            && qty < 24.0
        {
            self.q6_revenue += price * disc;
            self.q6_matches += 1;
        }
    }

    pub fn q1_rows(&self) -> Vec<Row> {
        self.q1
            .iter()
            .map(|((flag, status), a)| {
                let n = a[5];
                Row::new(vec![
                    Value::String(flag.clone()),
                    Value::String(status.clone()),
                    Value::Double(a[0]),
                    Value::Double(a[1]),
                    Value::Double(a[2]),
                    Value::Double(a[3]),
                    Value::Double(a[0] / n),
                    Value::Double(a[1] / n),
                    Value::Double(a[4] / n),
                    Value::Int(n as i64),
                ])
            })
            .collect()
    }

    pub fn q6_rows(&self) -> Vec<Row> {
        assert!(self.q6_matches > 0, "q6 selects no row at this scale");
        vec![Row::new(vec![Value::Double(self.q6_revenue)])]
    }
}

pub fn setup(seed: u64, scale: Scale, cold: bool) -> Bench {
    let mut builder = cluster();
    if cold {
        builder = builder
            .set("hive.exec.orc.default.compress", "snappy")
            .and_then(|b| {
                let cache = scale.rows(COLD_CACHE_BYTES);
                b.set("hive.io.cache.bytes", cache.to_string())
            })
            .expect("registered knobs");
    }
    let server = builder.build_server().expect("server configuration");
    let mut session = server.new_session();
    let mut oracle = ScanOracle::default();
    let (rows_loaded, loaded_text_bytes) = load_table(
        &mut session,
        "lineitem",
        tpch::lineitem_schema(),
        tpch::lineitem_rows(scale.factor(LINEITEM_SF), seed),
        |r| oracle.observe(r),
    );
    let stmt = |kind, sql: &str, rows| Stmt {
        kind,
        sql: sql.to_string(),
        session: 0,
        expect: Expect::Rows(Arc::new(rows)),
    };
    Bench {
        server,
        sessions: vec![session],
        script: Script::Fixed(vec![
            stmt("tpch_q1", TPCH_Q1, oracle.q1_rows()),
            stmt("tpch_q6", TPCH_Q6, oracle.q6_rows()),
        ]),
        loaded_text_bytes,
        rows_loaded,
        expect_wire_reads: Some(cold),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_matches_hand_computation() {
        let mut o = ScanOracle::default();
        let line = |qty: f64, price: f64, disc: f64, tax: f64, date: &str| {
            let mut v = vec![Value::Int(0); 16];
            v[4] = Value::Double(qty);
            v[5] = Value::Double(price);
            v[6] = Value::Double(disc);
            v[7] = Value::Double(tax);
            v[8] = Value::String("N".into());
            v[9] = Value::String("O".into());
            v[10] = Value::String(date.into());
            Row::new(v)
        };
        o.observe(&line(10.0, 100.0, 0.06, 0.5, "1994-06-01")); // q1 + q6
        o.observe(&line(30.0, 200.0, 0.06, 0.0, "1994-06-01")); // q1 only (qty)
        o.observe(&line(1.0, 50.0, 0.06, 0.0, "1998-12-01")); // neither
        let q1 = o.q1_rows();
        assert_eq!(q1.len(), 1);
        assert_eq!(q1[0][2], Value::Double(40.0));
        assert_eq!(q1[0][4], Value::Double(94.0 + 188.0));
        assert_eq!(q1[0][5], Value::Double(94.0 * 1.5 + 188.0));
        assert_eq!(q1[0][6], Value::Double(20.0));
        assert_eq!(q1[0][9], Value::Int(2));
        assert_eq!(o.q6_rows()[0][0], Value::Double(6.0));
    }
}
