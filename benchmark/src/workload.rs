//! What every workload shares: the statement type, the closed-loop round
//! runner, answer checking, and table loading with user-byte accounting.

use crate::acid::AcidScript;
use hive_common::{Result, Row, Schema, Value};
use hive_core::{HiveServer, HiveSession, QueryResult, SessionBuilder};
use hive_dfs::{DfsConfig, IoSnapshot};
use hive_formats::FormatKind;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// Sizing of one run. `--quick` divides the data by ten: a smoke test of
/// the harness, never a source of reported numbers.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub quick: bool,
}

impl Scale {
    pub fn rows(&self, full: u64) -> u64 {
        if self.quick {
            full / 10
        } else {
            full
        }
    }

    pub fn factor(&self, full: f64) -> f64 {
        if self.quick {
            full / 10.0
        } else {
            full
        }
    }
}

/// The answer a statement must return.
#[derive(Debug, Clone)]
pub enum Expect {
    /// These rows, in this order (floats within [`FLOAT_TOLERANCE`]).
    Rows(Arc<Vec<Row>>),
    /// The one-row `rows_inserted`/`rows_updated`/... count of a write.
    Count(u64),
}

/// One statement of a round.
#[derive(Debug, Clone)]
pub struct Stmt {
    /// Statement class; names the `core.stmt.<kind>.p50_ms` metric.
    pub kind: &'static str,
    pub sql: String,
    /// Index of the session (a knob set) that issues it.
    pub session: usize,
    pub expect: Expect,
}

/// Where a workload's rounds come from.
pub enum Script {
    /// The same statements every round (read-only workloads).
    Fixed(Vec<Stmt>),
    /// Statements that depend on the table state the previous ones left.
    Acid(Box<AcidScript>),
}

/// A set-up workload: a server with loaded tables, the sessions that issue
/// statements against it, and the script of rounds.
pub struct Bench {
    pub server: HiveServer,
    pub sessions: Vec<HiveSession>,
    pub script: Script,
    /// Tab-separated text size of the rows loaded at set-up.
    pub loaded_text_bytes: u64,
    pub rows_loaded: u64,
    /// Whether the measured rounds must (`true`) or must not (`false`)
    /// read bytes from the DFS wire — what makes a scan "cold" or "warm".
    /// `None`: the workload does not depend on it.
    pub expect_wire_reads: Option<bool>,
}

impl Bench {
    /// Plan the next round: its statements and the answers they must give.
    pub fn next_round(&mut self) -> Vec<Stmt> {
        match &mut self.script {
            Script::Fixed(stmts) => stmts.clone(),
            Script::Acid(script) => script.plan_cycle(),
        }
    }

    /// Text size of the rows a full scan would return now.
    pub fn live_text_bytes(&self) -> u64 {
        match &self.script {
            Script::Fixed(_) => self.loaded_text_bytes,
            Script::Acid(script) => script.live_text_bytes(),
        }
    }

    pub fn warehouse_bytes(&self) -> u64 {
        self.server.dfs().size_of("/warehouse/")
    }

    pub fn io(&self) -> IoSnapshot {
        self.server.dfs().stats().snapshot()
    }
}

/// The cluster shape every workload runs on: 10 nodes, replication 3,
/// 4 MiB DFS blocks and ORC stripes (so laptop-scale tables still split
/// into several map tasks), row-index stride at its 10 000 default.
pub fn cluster() -> SessionBuilder {
    HiveSession::builder()
        .dfs_config(DfsConfig {
            block_size: 4 << 20,
            replication: 3,
            nodes: 10,
        })
        .set(
            "hive.exec.orc.default.stripe.size",
            (4u64 << 20).to_string(),
        )
        .expect("stripe size is a registered knob")
}

/// Relative tolerance when comparing floating-point answers: partial sums
/// are merged in task order, which differs between engines and oracles.
pub const FLOAT_TOLERANCE: f64 = 1e-9;

pub fn values_match(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Double(x), Value::Double(y)) => {
            x == y || (x - y).abs() <= FLOAT_TOLERANCE * x.abs().max(y.abs())
        }
        _ => a == b,
    }
}

pub fn rows_match(a: &[Row], b: &[Row]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.len() == y.len()
                && x.values()
                    .iter()
                    .zip(y.values())
                    .all(|(v, w)| values_match(v, w))
        })
}

/// Does a statement's result meet its expectation?
pub fn answer_ok(expect: &Expect, result: &Result<QueryResult>) -> bool {
    match (expect, result) {
        (Expect::Rows(want), Ok(got)) => rows_match(want, &got.rows),
        (Expect::Count(n), Ok(got)) => {
            got.rows.len() == 1 && got.rows[0].values() == [Value::Int(*n as i64)]
        }
        (_, Err(_)) => false,
    }
}

/// One executed statement of a round.
pub struct Executed {
    pub stmt: Stmt,
    pub latency_ms: f64,
    pub result: Result<QueryResult>,
}

/// One executed round. Its wall time is the sum of statement latencies
/// (session entry → last row), so planning the round, keeping its results
/// and checking them are all outside it.
pub struct RoundRun {
    pub executed: Vec<Executed>,
    /// Process CPU consumed between the first statement's entry and the
    /// last one's return.
    pub cpu_ms: f64,
    pub rss_after_mib: f64,
}

impl RoundRun {
    pub fn wall_ms(&self) -> f64 {
        self.executed.iter().map(|e| e.latency_ms).sum()
    }

    /// Statements that errored or answered wrongly.
    pub fn failures(&self) -> Vec<String> {
        self.executed
            .iter()
            .filter(|e| !answer_ok(&e.stmt.expect, &e.result))
            .map(|e| match &e.result {
                Err(err) => format!("{}: {err}", e.stmt.kind),
                Ok(r) => format!(
                    "{}: wrong answer ({} rows, first {:?}; expected {:?})",
                    e.stmt.kind,
                    r.rows.len(),
                    r.rows.first(),
                    e.stmt.expect
                ),
            })
            .collect()
    }
}

/// How a round's statements reach the engine: plain `execute` for measured
/// rounds, the decomposed pipeline for traced ones.
pub type Executor<'a> = dyn FnMut(&Stmt, &mut HiveSession) -> Result<QueryResult> + 'a;

/// Run one round, closed loop: one client issuing the next statement when
/// the previous one has returned.
pub fn run_round(bench: &mut Bench, exec: &mut Executor<'_>) -> RoundRun {
    let stmts = bench.next_round();
    let mut executed = Vec::with_capacity(stmts.len());
    let cpu_before = crate::procfs::process_cpu_ms();
    for stmt in stmts {
        let session = &mut bench.sessions[stmt.session];
        let start = Instant::now();
        let result = exec(&stmt, session);
        let latency_ms = start.elapsed().as_secs_f64() * 1e3;
        executed.push(Executed {
            stmt,
            latency_ms,
            result,
        });
    }
    RoundRun {
        executed,
        cpu_ms: crate::procfs::process_cpu_ms() - cpu_before,
        rss_after_mib: crate::procfs::rss_mib(),
    }
}

/// The untraced executor: the session's public entry point, nothing else.
pub fn plain_execute(stmt: &Stmt, session: &mut HiveSession) -> Result<QueryResult> {
    session.execute(&stmt.sql)
}

/// Size of `row` as one line of tab-separated text — the "user bytes"
/// every space and write amplification figure is relative to.
pub fn tsv_len(row: &Row, scratch: &mut String) -> u64 {
    scratch.clear();
    for v in row.values() {
        write!(scratch, "{v}").expect("writing to a String cannot fail");
    }
    // One separator after every value: tabs between, newline at the end.
    (scratch.len() + row.len()) as u64
}

/// Create an ORC table and stream `rows` into it, letting `observe` see
/// each row on the way (oracles fold over the very rows that were loaded).
/// Returns `(rows, text bytes)`.
pub fn load_table(
    session: &mut HiveSession,
    name: &str,
    schema: Schema,
    rows: impl Iterator<Item = Row>,
    mut observe: impl FnMut(&Row),
) -> (u64, u64) {
    session
        .create_table(name, schema, FormatKind::Orc)
        .unwrap_or_else(|e| panic!("create {name}: {e}"));
    let mut text_bytes = 0;
    let mut scratch = String::new();
    let n = session
        .load_rows(
            name,
            rows.inspect(|r| {
                text_bytes += tsv_len(r, &mut scratch);
                observe(r);
            }),
        )
        .unwrap_or_else(|e| panic!("load {name}: {e}"));
    (n, text_bytes)
}

/// splitmix64: the harness's own deterministic stream for statement
/// parameters (keys to look up, customers to update), seeded from `--seed`.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (modulo bias is irrelevant at these ranges).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(vals: Vec<Value>) -> Row {
        Row::new(vals)
    }

    #[test]
    fn float_answers_compare_with_relative_tolerance() {
        let a = [row(vec![Value::Int(1), Value::Double(1e12)])];
        let close = [row(vec![Value::Int(1), Value::Double(1e12 + 1e-2)])];
        let far = [row(vec![Value::Int(1), Value::Double(1e12 + 1e4)])];
        assert!(rows_match(&a, &close));
        assert!(!rows_match(&a, &far));
        assert!(!rows_match(&a, &[]));
        // Integers and strings are exact.
        assert!(!values_match(&Value::Int(1), &Value::Int(2)));
        assert!(!values_match(&Value::Int(1), &Value::Double(1.0)));
        assert!(values_match(&Value::Double(0.0), &Value::Double(0.0)));
    }

    #[test]
    fn tsv_length_counts_separators() {
        let mut scratch = String::new();
        let r = row(vec![
            Value::Int(12),
            Value::Double(2.0),
            Value::String("ab".into()),
        ]);
        assert_eq!(tsv_len(&r, &mut scratch), "12\t2.0\tab\n".len() as u64);
    }

    #[test]
    fn splitmix_is_deterministic_and_bounded() {
        let mut a = SplitMix(42);
        let mut b = SplitMix(42);
        let xs: Vec<u64> = (0..50).map(|_| a.below(100)).collect();
        let ys: Vec<u64> = (0..50).map(|_| b.below(100)).collect();
        assert_eq!(xs, ys);
        assert!(xs.iter().all(|&x| x < 100));
        assert!(xs.iter().any(|&x| x != xs[0]));
    }
}
