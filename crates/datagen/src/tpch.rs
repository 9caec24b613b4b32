//! TPC-H generator (the tables the paper's experiments touch, with
//! dbgen-faithful column distributions at fractional scale).
//!
//! At SF 1, `lineitem` has ~6M rows; here `rows = (6_000_000 × sf)` etc.
//! Every table carries its `comment` column of random text — the detail
//! responsible for the paper's TPC-H observations in Table 2 and Fig. 9.

use crate::{random_date, random_text};
use hive_common::{Result, Row, Schema, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Row counts per scale factor 1.0.
const LINEITEM_PER_SF: f64 = 6_000_000.0;
const ORDERS_PER_SF: f64 = 1_500_000.0;
const CUSTOMER_PER_SF: f64 = 150_000.0;
const PART_PER_SF: f64 = 200_000.0;
const SUPPLIER_PER_SF: f64 = 10_000.0;

pub fn lineitem_schema() -> Schema {
    Schema::parse(&[
        ("l_orderkey", "bigint"),
        ("l_partkey", "bigint"),
        ("l_suppkey", "bigint"),
        ("l_linenumber", "bigint"),
        ("l_quantity", "double"),
        ("l_extendedprice", "double"),
        ("l_discount", "double"),
        ("l_tax", "double"),
        ("l_returnflag", "string"),
        ("l_linestatus", "string"),
        ("l_shipdate", "string"),
        ("l_commitdate", "string"),
        ("l_receiptdate", "string"),
        ("l_shipinstruct", "string"),
        ("l_shipmode", "string"),
        ("l_comment", "string"),
    ])
    .expect("static schema")
}

/// Generate `lineitem` rows at scale factor `sf`.
pub fn lineitem_rows(sf: f64, seed: u64) -> impl Iterator<Item = Row> {
    let n = (LINEITEM_PER_SF * sf).round() as i64;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x11);
    const INSTRUCT: &[&str] = &[
        "DELIVER IN PERSON",
        "COLLECT COD",
        "NONE",
        "TAKE BACK RETURN",
    ];
    const MODES: &[&str] = &["REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"];
    (0..n).map(move |i| {
        let orderkey = i / 4 + 1;
        let quantity = rng.gen_range(1..=50) as f64;
        let price = quantity * rng.gen_range(900.0..=10_000.0_f64).round() / 100.0;
        let ship_idx = rng.gen_range(0..2400i64);
        // returnflag correlates with date, like dbgen: old rows returned.
        let returnflag = if ship_idx < 1200 {
            if rng.gen_bool(0.5) {
                "A"
            } else {
                "R"
            }
        } else {
            "N"
        };
        let linestatus = if ship_idx < 1300 { "F" } else { "O" };
        Row::new(vec![
            Value::Int(orderkey),
            Value::Int(rng.gen_range(1..=(PART_PER_SF * sf.max(0.01)) as i64 + 1)),
            Value::Int(rng.gen_range(1..=(SUPPLIER_PER_SF * sf.max(0.01)) as i64 + 1)),
            Value::Int(i % 4 + 1),
            Value::Double(quantity),
            Value::Double(price),
            Value::Double((rng.gen_range(0..=10) as f64) / 100.0),
            Value::Double((rng.gen_range(0..=8) as f64) / 100.0),
            Value::String(returnflag.into()),
            Value::String(linestatus.into()),
            Value::String(crate::date_from_index(ship_idx)),
            Value::String(crate::date_from_index(ship_idx + rng.gen_range(0..30))),
            Value::String(crate::date_from_index(ship_idx + rng.gen_range(1..30))),
            Value::String(INSTRUCT[rng.gen_range(0..INSTRUCT.len())].into()),
            Value::String(MODES[rng.gen_range(0..MODES.len())].into()),
            Value::String(random_text(&mut rng, 10, 43)),
        ])
    })
}

pub fn orders_schema() -> Schema {
    Schema::parse(&[
        ("o_orderkey", "bigint"),
        ("o_custkey", "bigint"),
        ("o_orderstatus", "string"),
        ("o_totalprice", "double"),
        ("o_orderdate", "string"),
        ("o_orderpriority", "string"),
        ("o_comment", "string"),
    ])
    .expect("static schema")
}

pub fn orders_rows(sf: f64, seed: u64) -> impl Iterator<Item = Row> {
    let n = (ORDERS_PER_SF * sf).round() as i64;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x22);
    const PRIO: &[&str] = &["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"];
    (0..n).map(move |i| {
        Row::new(vec![
            Value::Int(i + 1),
            Value::Int(rng.gen_range(1..=(CUSTOMER_PER_SF * sf.max(0.01)) as i64 + 1)),
            Value::String(["O", "F", "P"][rng.gen_range(0..3)].into()),
            Value::Double(rng.gen_range(850.0..=500_000.0_f64).round() / 100.0 * 100.0),
            Value::String(random_date(&mut rng)),
            Value::String(PRIO[rng.gen_range(0..PRIO.len())].into()),
            Value::String(random_text(&mut rng, 19, 78)),
        ])
    })
}

pub fn customer_schema() -> Schema {
    Schema::parse(&[
        ("c_custkey", "bigint"),
        ("c_name", "string"),
        ("c_nationkey", "bigint"),
        ("c_acctbal", "double"),
        ("c_mktsegment", "string"),
        ("c_comment", "string"),
    ])
    .expect("static schema")
}

pub fn customer_rows(sf: f64, seed: u64) -> impl Iterator<Item = Row> {
    let n = (CUSTOMER_PER_SF * sf).round() as i64;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x33);
    const SEG: &[&str] = &[
        "AUTOMOBILE",
        "BUILDING",
        "FURNITURE",
        "MACHINERY",
        "HOUSEHOLD",
    ];
    (0..n).map(move |i| {
        Row::new(vec![
            Value::Int(i + 1),
            Value::String(format!("Customer#{:09}", i + 1)),
            Value::Int(rng.gen_range(0..25)),
            Value::Double(rng.gen_range(-999.99..=9999.99_f64)),
            Value::String(SEG[rng.gen_range(0..SEG.len())].into()),
            Value::String(random_text(&mut rng, 29, 116)),
        ])
    })
}

pub fn part_schema() -> Schema {
    Schema::parse(&[
        ("p_partkey", "bigint"),
        ("p_name", "string"),
        ("p_brand", "string"),
        ("p_type", "string"),
        ("p_size", "bigint"),
        ("p_retailprice", "double"),
        ("p_comment", "string"),
    ])
    .expect("static schema")
}

pub fn part_rows(sf: f64, seed: u64) -> impl Iterator<Item = Row> {
    let n = (PART_PER_SF * sf).round() as i64;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x44);
    const TYPES1: &[&str] = &["STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"];
    const TYPES2: &[&str] = &["ANODIZED", "BURNISHED", "PLATED", "POLISHED", "BRUSHED"];
    const TYPES3: &[&str] = &["TIN", "NICKEL", "BRASS", "STEEL", "COPPER"];
    (0..n).map(move |i| {
        Row::new(vec![
            Value::Int(i + 1),
            Value::String(random_text(&mut rng, 15, 35)),
            Value::String(format!(
                "Brand#{}{}",
                rng.gen_range(1..6),
                rng.gen_range(1..6)
            )),
            Value::String(format!(
                "{} {} {}",
                TYPES1[rng.gen_range(0..TYPES1.len())],
                TYPES2[rng.gen_range(0..TYPES2.len())],
                TYPES3[rng.gen_range(0..TYPES3.len())]
            )),
            Value::Int(rng.gen_range(1..=50)),
            Value::Double(900.0 + (i % 1000) as f64),
            Value::String(random_text(&mut rng, 5, 22)),
        ])
    })
}

pub fn supplier_schema() -> Schema {
    Schema::parse(&[
        ("s_suppkey", "bigint"),
        ("s_name", "string"),
        ("s_nationkey", "bigint"),
        ("s_acctbal", "double"),
        ("s_comment", "string"),
    ])
    .expect("static schema")
}

pub fn supplier_rows(sf: f64, seed: u64) -> impl Iterator<Item = Row> {
    let n = (SUPPLIER_PER_SF * sf).round() as i64;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x55);
    (0..n).map(move |i| {
        Row::new(vec![
            Value::Int(i + 1),
            Value::String(format!("Supplier#{:09}", i + 1)),
            Value::Int(rng.gen_range(0..25)),
            Value::Double(rng.gen_range(-999.99..=9999.99_f64)),
            Value::String(random_text(&mut rng, 25, 100)),
        ])
    })
}

/// All TPC-H tables as `(name, schema, row generator)`.
#[allow(clippy::type_complexity)]
pub fn all_tables(
    sf: f64,
    seed: u64,
) -> Vec<(&'static str, Schema, Box<dyn Iterator<Item = Row>>)> {
    vec![
        (
            "lineitem",
            lineitem_schema(),
            Box::new(lineitem_rows(sf, seed)),
        ),
        ("orders", orders_schema(), Box::new(orders_rows(sf, seed))),
        (
            "customer",
            customer_schema(),
            Box::new(customer_rows(sf, seed)),
        ),
        ("part", part_schema(), Box::new(part_rows(sf, seed))),
        (
            "supplier",
            supplier_schema(),
            Box::new(supplier_rows(sf, seed)),
        ),
    ]
}

/// Create + load every TPC-H table into a session.
pub fn load(session: &mut hive_core::HiveSession, sf: f64, seed: u64) -> Result<()> {
    for (name, schema, rows) in all_tables(sf, seed) {
        session.create_table(name, schema, hive_formats::FormatKind::Orc)?;
        session.load_rows(name, rows)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lineitem_row_shape_and_determinism() {
        let rows: Vec<Row> = lineitem_rows(0.0005, 42).collect();
        assert_eq!(rows.len(), 3000);
        let again: Vec<Row> = lineitem_rows(0.0005, 42).collect();
        assert_eq!(rows, again, "same seed, same data");
        let schema = lineitem_schema();
        assert_eq!(rows[0].len(), schema.len());
        // Distribution sanity: discounts 0..0.1, flags in domain.
        for r in &rows {
            let d = r[6].as_double().unwrap();
            assert!((0.0..=0.10).contains(&d));
            assert!(matches!(r[8].as_str().unwrap(), "A" | "N" | "R"));
            assert!(matches!(r[9].as_str().unwrap(), "O" | "F"));
        }
    }

    #[test]
    fn comment_column_defeats_dictionaries() {
        let rows: Vec<Row> = lineitem_rows(0.0005, 1).collect();
        let distinct: std::collections::HashSet<&str> =
            rows.iter().map(|r| r[15].as_str().unwrap()).collect();
        assert!(
            distinct.len() as f64 / rows.len() as f64 > 0.8,
            "comment cardinality must exceed the ORC dictionary threshold"
        );
        // Whereas flags are tiny-cardinality.
        let flags: std::collections::HashSet<&str> =
            rows.iter().map(|r| r[8].as_str().unwrap()).collect();
        assert!(flags.len() <= 3);
    }

    #[test]
    fn all_tables_generate() {
        for (name, schema, rows) in all_tables(0.0002, 9) {
            let v: Vec<Row> = rows.collect();
            assert!(!v.is_empty(), "{name}");
            assert!(v.iter().all(|r| r.len() == schema.len()), "{name}");
        }
    }
}
