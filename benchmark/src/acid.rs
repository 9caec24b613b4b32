//! `acid_mixed`: writes beside reads on one ACID table, one compaction
//! cycle per round. The harness keeps its own model of the table and
//! replays every write into it, so each read — and the final table state —
//! has an exact expected answer.

use crate::workload::{cluster, load_table, tsv_len, Bench, Expect, Scale, Script, SplitMix, Stmt};
use hive_common::{Row, Schema, Value};
use hive_dfs::Dfs;
use hive_formats::delta::load_snapshot;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Rows loaded at set-up. A `DELETE ... WHERE cust = c` then removes
/// about as many rows (1 %) as the eight inserts before it add, so the
/// table's size — and with it the round time — stays level over a run.
const BASE_ROWS: u64 = 80_000;
const CUSTOMERS: i64 = 100;
/// Write/read groups per compaction cycle: 40 commits deepen the delta
/// chain before `COMPACT 'major'` folds it.
const GROUPS_PER_CYCLE: usize = 4;
const INSERTS_PER_GROUP: usize = 8;
const ROWS_PER_INSERT: u64 = 100;
const AGG_READS_PER_GROUP: usize = 4;
const LOOKUPS_PER_GROUP: usize = 8;

/// The table as it must be after every statement planned so far.
pub struct AcidScript {
    rows: BTreeMap<i64, (i64, f64)>,
    /// `agg_read`'s answer, kept incrementally: per customer, count and
    /// sum of `total` over rows with `okey >= agg_floor`. Totals are
    /// multiples of 0.5 far below 2^52, so these sums are exact in any
    /// order and compare equal to the engine's.
    agg: Vec<(i64, f64)>,
    agg_floor: i64,
    next_key: i64,
    rows_per_insert: u64,
    /// Customers are deleted in ascending and updated in descending order
    /// from a seeded start, so for a hundred writes each one meets a
    /// customer no earlier write emptied: every cycle of every seed does
    /// the same amount of work, and round times compare across seeds.
    next_delete: i64,
    next_update: i64,
    rng: SplitMix,
    /// Text bytes handed to the last planned cycle's inserts and updates.
    pub user_bytes_last_cycle: u64,
}

fn orders_row(okey: i64, cust: i64, total: f64) -> Row {
    Row::new(vec![
        Value::Int(okey),
        Value::Int(cust),
        Value::Double(total),
    ])
}

impl AcidScript {
    fn put(&mut self, okey: i64, cust: i64, total: f64) {
        self.rows.insert(okey, (cust, total));
        if okey >= self.agg_floor {
            let a = &mut self.agg[cust as usize];
            a.0 += 1;
            a.1 += total;
        }
    }

    pub fn live_text_bytes(&self) -> u64 {
        let mut scratch = String::new();
        self.rows
            .iter()
            .map(|(&k, &(c, t))| tsv_len(&orders_row(k, c, t), &mut scratch))
            .sum()
    }

    /// The table in `okey` order — what a full scan must return.
    pub fn table_rows(&self) -> Vec<Row> {
        self.rows
            .iter()
            .map(|(&k, &(c, t))| orders_row(k, c, t))
            .collect()
    }

    fn stmt(kind: &'static str, sql: String, expect: Expect) -> Stmt {
        Stmt {
            kind,
            sql,
            session: 0,
            expect,
        }
    }

    fn plan_insert(&mut self, user_bytes: &mut u64) -> Stmt {
        let mut scratch = String::new();
        let mut tuples = Vec::with_capacity(self.rows_per_insert as usize);
        for _ in 0..self.rows_per_insert {
            let okey = self.next_key;
            self.next_key += 1;
            let cust = self.rng.below(CUSTOMERS as u64) as i64;
            let total = self.rng.below(1000) as f64 / 2.0;
            tuples.push(format!("({okey}, {cust}, {total:?})"));
            *user_bytes += tsv_len(&orders_row(okey, cust, total), &mut scratch);
            self.put(okey, cust, total);
        }
        Self::stmt(
            "insert",
            format!("INSERT INTO orders VALUES {}", tuples.join(", ")),
            Expect::Count(self.rows_per_insert),
        )
    }

    fn plan_update(&mut self, user_bytes: &mut u64) -> Stmt {
        let cust = self.next_update.rem_euclid(CUSTOMERS);
        self.next_update -= 1;
        let mut scratch = String::new();
        let mut n = 0;
        for (&k, (c, t)) in self.rows.iter_mut().filter(|(_, (c, _))| *c == cust) {
            *t += 1.0;
            n += 1;
            *user_bytes += tsv_len(&orders_row(k, *c, *t), &mut scratch);
        }
        let a = &mut self.agg[cust as usize];
        a.1 += a.0 as f64;
        Self::stmt(
            "update",
            format!("UPDATE orders SET total = total + 1.0 WHERE cust = {cust}"),
            Expect::Count(n),
        )
    }

    fn plan_delete(&mut self) -> Stmt {
        let cust = self.next_delete.rem_euclid(CUSTOMERS);
        self.next_delete += 1;
        let before = self.rows.len();
        self.rows.retain(|_, (c, _)| *c != cust);
        self.agg[cust as usize] = (0, 0.0);
        Self::stmt(
            "delete",
            format!("DELETE FROM orders WHERE cust = {cust}"),
            Expect::Count((before - self.rows.len()) as u64),
        )
    }

    fn plan_agg_read(&self) -> Stmt {
        let rows = self
            .agg
            .iter()
            .enumerate()
            .filter(|(_, (n, _))| *n > 0)
            .map(|(cust, &(n, sum))| {
                Row::new(vec![
                    Value::Int(cust as i64),
                    Value::Int(n),
                    Value::Double(sum),
                ])
            })
            .collect();
        Self::stmt(
            "agg_read",
            format!(
                "SELECT cust, COUNT(*) AS n, SUM(total) AS rev FROM orders \
                 WHERE okey >= {} GROUP BY cust ORDER BY cust",
                self.agg_floor
            ),
            Expect::Rows(Arc::new(rows)),
        )
    }

    /// A point lookup of a key that was handed out at some time; the ones
    /// deleted since must return no row.
    fn plan_lookup(&mut self) -> Stmt {
        let okey = self.rng.below(self.next_key as u64) as i64;
        let rows = self
            .rows
            .get(&okey)
            .map(|&(c, t)| orders_row(okey, c, t))
            .into_iter()
            .collect();
        Self::stmt(
            "lookup",
            format!("SELECT okey, cust, total FROM orders WHERE okey = {okey}"),
            Expect::Rows(Arc::new(rows)),
        )
    }

    /// One compaction cycle, applied to the model as it is planned.
    pub fn plan_cycle(&mut self) -> Vec<Stmt> {
        let mut stmts = Vec::new();
        let mut user_bytes = 0;
        for _ in 0..GROUPS_PER_CYCLE {
            for _ in 0..INSERTS_PER_GROUP {
                stmts.push(self.plan_insert(&mut user_bytes));
            }
            stmts.push(self.plan_update(&mut user_bytes));
            stmts.push(self.plan_delete());
            for _ in 0..AGG_READS_PER_GROUP {
                stmts.push(self.plan_agg_read());
            }
            for _ in 0..LOOKUPS_PER_GROUP {
                stmts.push(self.plan_lookup());
            }
        }
        stmts.push(Self::stmt(
            "compact",
            "ALTER TABLE orders COMPACT 'major'".to_string(),
            Expect::Count(self.rows.len() as u64),
        ));
        self.user_bytes_last_cycle = user_bytes;
        stmts
    }
}

pub fn setup(seed: u64, scale: Scale) -> Bench {
    let server = cluster()
        .set("hive.orc.bloom.filter.columns", "okey")
        .expect("registered knob")
        .build_server()
        .expect("server configuration");
    let mut session = server.new_session();
    let n = scale.rows(BASE_ROWS) as i64;
    let mut rng = SplitMix(seed);
    let first_customer = rng.below(CUSTOMERS as u64) as i64;
    let mut script = AcidScript {
        rows: BTreeMap::new(),
        agg: vec![(0, 0.0); CUSTOMERS as usize],
        agg_floor: n / 20,
        next_key: n,
        rows_per_insert: scale.rows(ROWS_PER_INSERT),
        next_delete: first_customer,
        next_update: first_customer - 1,
        rng,
        user_bytes_last_cycle: 0,
    };
    // Keys arrive scattered (7919 is coprime to both row counts), so every
    // index group spans the whole key range: min/max statistics cannot
    // prune a point lookup and the bloom filter has to.
    let offset = script.rng.below(n as u64) as i64;
    let phase = script.rng.below(1000) as i64;
    let initial: Vec<Row> = (0..n)
        .map(|i| {
            orders_row(
                (i * 7919 + offset) % n,
                i % CUSTOMERS,
                ((i + phase) % 1000) as f64 / 2.0,
            )
        })
        .collect();
    let schema = Schema::parse(&[("okey", "bigint"), ("cust", "bigint"), ("total", "double")])
        .expect("static schema");
    let (rows_loaded, loaded_text_bytes) =
        load_table(&mut session, "orders", schema, initial.into_iter(), |r| {
            let v = r.values();
            script.put(
                v[0].as_int().expect("okey"),
                v[1].as_int().expect("cust"),
                v[2].as_double().expect("total"),
            );
        });
    assert_eq!(script.rows.len() as u64, rows_loaded, "okeys are distinct");
    Bench {
        server,
        sessions: vec![session],
        script: Script::Acid(Box::new(script)),
        loaded_text_bytes,
        rows_loaded,
        expect_wire_reads: None,
    }
}

/// Delta and delete files on the table's manifest chain: what the next
/// read has to merge, and what `compact` is about to fold.
pub fn delta_chain_len(dfs: &Dfs) -> Option<usize> {
    let snapshot = load_snapshot(dfs, "/warehouse/orders/").ok().flatten()?;
    Some(snapshot.deltas.len() + snapshot.deletes.len())
}

/// The statement whose answer is the whole table, for the end-of-run
/// comparison of engine state against the model.
pub fn full_scan(script: &AcidScript) -> Stmt {
    AcidScript::stmt(
        "full_scan",
        "SELECT okey, cust, total FROM orders ORDER BY okey".to_string(),
        Expect::Rows(Arc::new(script.table_rows())),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn script() -> AcidScript {
        let mut s = AcidScript {
            rows: BTreeMap::new(),
            agg: vec![(0, 0.0); CUSTOMERS as usize],
            agg_floor: 2,
            next_key: 4,
            rows_per_insert: 2,
            next_delete: 5,
            next_update: 4,
            rng: SplitMix(1),
            user_bytes_last_cycle: 0,
        };
        for (k, c, t) in [(0, 5, 1.0), (1, 5, 2.0), (2, 5, 3.0), (3, 6, 4.0)] {
            s.put(k, c, t);
        }
        s
    }

    #[test]
    fn incremental_aggregate_tracks_the_model() {
        let mut s = script();
        // Only okey >= 2 counts.
        assert_eq!(s.agg[5], (1, 3.0));
        assert_eq!(s.agg[6], (1, 4.0));
        let mut bytes = 0;
        for _ in 0..3 {
            s.plan_insert(&mut bytes);
            s.plan_update(&mut bytes);
            s.plan_delete();
        }
        assert!(bytes > 0);
        let mut recomputed = vec![(0i64, 0.0f64); CUSTOMERS as usize];
        for (&k, &(c, t)) in &s.rows {
            if k >= s.agg_floor {
                recomputed[c as usize].0 += 1;
                recomputed[c as usize].1 += t;
            }
        }
        assert_eq!(s.agg, recomputed);
        assert_eq!(s.next_key, 4 + 6);
    }

    #[test]
    fn a_cycle_ends_in_compaction_and_counts_live_rows() {
        let mut s = script();
        let stmts = s.plan_cycle();
        let per_group = INSERTS_PER_GROUP + 2 + AGG_READS_PER_GROUP + LOOKUPS_PER_GROUP;
        assert_eq!(stmts.len(), GROUPS_PER_CYCLE * per_group + 1);
        let last = stmts.last().unwrap();
        assert_eq!(last.kind, "compact");
        assert!(matches!(last.expect, Expect::Count(n) if n == s.rows.len() as u64));
        assert_eq!(s.table_rows().len(), s.rows.len());
    }
}
