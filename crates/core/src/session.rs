//! The public API: a session over a [`HiveServer`] — a private
//! configuration overlay (mirroring `SET key=value`) on the server's shared
//! cluster, metastore, caches and metrics registry. `HiveSession::builder()`
//! still brings up a dedicated single-session server for the common
//! one-client case; `HiveServer::new_session` attaches more sessions to the
//! same process.

use crate::driver::QueryResult;
use crate::metastore::{Metastore, TableInfo};
use crate::server::HiveServer;
use hive_common::config::{keys, Knob, KnobValue};
use hive_common::{HiveConf, HiveError, Result, Row, Schema};
use hive_dfs::{Dfs, DfsConfig, IoSnapshot};
use hive_formats::orc::MemoryManager;
use hive_formats::{create_writer, FormatKind, WriteOptions};
use hive_obs::{MetricsRegistry, MetricsSnapshot};

/// Memory available to one task in bytes (m1.xlarge-ish scaled down).
const TASK_MEMORY: u64 = 1 << 30;
/// Fraction of task memory available to concurrent ORC writers (paper
/// Section 4.4: half the task memory).
const ORC_MEMORY_POOL: f64 = 0.5;

/// A Hive session over a simulated cluster.
///
/// ```
/// use hive_core::HiveSession;
/// use hive_common::{Row, Value};
///
/// let mut hive = HiveSession::in_memory();
/// hive.execute("CREATE TABLE t (k BIGINT, v STRING) STORED AS orc").unwrap();
/// hive.load_rows("t", (0..100).map(|i| {
///     Row::new(vec![Value::Int(i % 10), Value::String(format!("v{i}"))])
/// })).unwrap();
/// let r = hive
///     .execute("SELECT k, COUNT(*) AS n FROM t GROUP BY k ORDER BY k")
///     .unwrap();
/// assert_eq!(r.rows.len(), 10);
/// assert_eq!(r.rows[0][1], Value::Int(10));
/// ```
pub struct HiveSession {
    server: HiveServer,
    conf: HiveConf,
}

/// Fluent construction of a [`HiveSession`]: cluster shape, validated
/// configuration overrides, fault plan, and a shared metrics sink.
///
/// ```
/// use hive_core::HiveSession;
/// use hive_common::config::knobs;
/// use hive_obs::MetricsRegistry;
///
/// let sink = MetricsRegistry::new();
/// let hive = HiveSession::builder()
///     .nodes(4)
///     .knob(knobs::EXEC_PARALLEL, true)
///     .set("hive.vectorized.execution.enabled", "true")
///     .unwrap()
///     .metrics_sink(sink.clone())
///     .build()
///     .unwrap();
/// assert!(hive.metrics().same_sink(&sink));
/// ```
pub struct SessionBuilder {
    dfs: DfsConfig,
    conf: HiveConf,
    metrics: MetricsRegistry,
}

impl SessionBuilder {
    fn new() -> SessionBuilder {
        SessionBuilder {
            // Scaled-down block size so laptop-scale tables still split.
            dfs: DfsConfig {
                block_size: 32 << 20,
                replication: 3,
                nodes: 10,
            },
            conf: HiveConf::new(),
            metrics: MetricsRegistry::new(),
        }
    }

    /// Replace the whole simulated-cluster configuration.
    pub fn dfs_config(mut self, cfg: DfsConfig) -> SessionBuilder {
        self.dfs = cfg;
        self
    }

    /// Number of simulated cluster nodes.
    pub fn nodes(mut self, nodes: usize) -> SessionBuilder {
        self.dfs.nodes = nodes;
        self
    }

    /// Validated string override: the key must name a registered knob and
    /// the value must satisfy its constraints. Fails eagerly, at the call,
    /// with [`HiveError::UnknownKnob`] suggestions for typos.
    pub fn set(mut self, key: &str, value: impl Into<String>) -> Result<SessionBuilder> {
        self.conf.try_set(key, value)?;
        Ok(self)
    }

    /// Typed override — infallible by construction.
    pub fn knob<T: KnobValue>(mut self, knob: Knob<T>, value: T) -> SessionBuilder {
        self.conf.set_knob(knob, value);
        self
    }

    /// Configure the deterministic DFS fault plan in one call (seed plus
    /// read-error and corrupt-record rates; see the `dfs.fault.*` knobs for
    /// slow/fail node lists).
    pub fn fault_plan(
        mut self,
        seed: u64,
        read_error_rate: f64,
        corrupt_rate: f64,
    ) -> SessionBuilder {
        use hive_common::config::knobs;
        self.conf.set_knob(knobs::DFS_FAULT_SEED, seed);
        self.conf
            .set_knob(knobs::DFS_FAULT_READ_ERROR_RATE, read_error_rate);
        self.conf
            .set_knob(knobs::DFS_FAULT_CORRUPT_RATE, corrupt_rate);
        self
    }

    /// Record metrics into an existing registry (shared with other
    /// sessions or an external sink) instead of a fresh one.
    pub fn metrics_sink(mut self, registry: MetricsRegistry) -> SessionBuilder {
        self.metrics = registry;
        self
    }

    /// The tenant identity (`hive.session.user`) the workload manager's
    /// mapping rules match sessions onto pools by.
    pub fn user(mut self, name: &str) -> SessionBuilder {
        self.conf.set(keys::SESSION_USER, name);
        self
    }

    /// Validate the assembled configuration and bring up a long-lived,
    /// shareable [`HiveServer`]; the overrides become its defaults.
    pub fn build_server(self) -> Result<HiveServer> {
        // Typed knob() writes can still be out of range; re-check the whole
        // override map so a bad server never comes up half-configured.
        self.conf.validate()?;
        let dfs = Dfs::new(self.dfs);
        HiveServer::from_parts(dfs, self.conf, self.metrics)
    }

    /// Validate the assembled configuration and bring up a session (over a
    /// dedicated single-session server).
    pub fn build(self) -> Result<HiveSession> {
        Ok(self.build_server()?.new_session())
    }
}

impl HiveSession {
    /// Start building a session: `HiveSession::builder().….build()`.
    pub fn builder() -> SessionBuilder {
        SessionBuilder::new()
    }

    /// A session overlaying `conf` on an existing server
    /// (used by [`HiveServer::new_session`]).
    pub(crate) fn over(server: HiveServer, conf: HiveConf) -> HiveSession {
        HiveSession { server, conf }
    }

    /// The server this session runs against.
    pub fn server(&self) -> &HiveServer {
        &self.server
    }

    /// A session over a fresh simulated cluster with paper-like defaults.
    pub fn in_memory() -> HiveSession {
        Self::builder()
            .build()
            .expect("default session configuration is valid")
    }

    pub fn with_dfs_config(cfg: DfsConfig) -> HiveSession {
        Self::builder()
            .dfs_config(cfg)
            .build()
            .expect("default session configuration is valid")
    }

    /// The session configuration (mirrors `SET key=value`).
    pub fn conf(&self) -> &HiveConf {
        &self.conf
    }

    pub fn conf_mut(&mut self) -> &mut HiveConf {
        &mut self.conf
    }

    /// `SET key=value` without validation (compatibility shim; bad keys
    /// surface from the next statement). Prefer [`HiveSession::try_set`].
    pub fn set(&mut self, key: &str, value: impl Into<String>) -> &mut Self {
        self.conf.set(key, value);
        self
    }

    /// Validated `SET key=value`: unknown knobs fail with near-miss
    /// suggestions, ill-typed values fail with the constraint violated.
    pub fn try_set(&mut self, key: &str, value: impl Into<String>) -> Result<&mut Self> {
        self.conf.try_set(key, value)?;
        Ok(self)
    }

    /// Become `name` for workload-management pool mapping
    /// (`SET hive.session.user=<name>`).
    pub fn set_user(&mut self, name: &str) -> &mut Self {
        self.conf.set(keys::SESSION_USER, name);
        self
    }

    /// The resource pool this session's statements currently land in.
    pub fn pool_name(&self) -> String {
        let wm = self.server.workload_manager();
        wm.pool_name(wm.resolve_pool(&self.conf)).to_string()
    }

    pub fn dfs(&self) -> &Dfs {
        self.server.dfs()
    }

    pub fn metastore(&self) -> &Metastore {
        self.server.metastore()
    }

    /// The server's metrics registry (shared handle; clone to sink).
    pub fn metrics(&self) -> &MetricsRegistry {
        self.server.metrics()
    }

    /// A sorted point-in-time copy of every metric recorded so far.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.server.metrics().snapshot()
    }

    /// Execute one HiveQL statement under this session's configuration
    /// (goes through the server's admission control).
    pub fn execute(&mut self, sql: &str) -> Result<QueryResult> {
        self.server.execute_conf(sql, &self.conf)
    }

    /// Bulk-load rows into a table (one new file per call), applying the
    /// session's format options; the writer honours the ORC memory manager.
    pub fn load_rows(&mut self, table: &str, rows: impl IntoIterator<Item = Row>) -> Result<u64> {
        let info: TableInfo = self
            .metastore()
            .get(table)
            .ok_or_else(|| HiveError::Metastore(format!("unknown table `{table}`")))?;
        let part = self.metastore().table_files(table).len();
        let path = format!("{}part-{part:05}", info.location);
        let memory = MemoryManager::for_task_memory(TASK_MEMORY, ORC_MEMORY_POOL);
        let mut w = create_writer(
            self.dfs(),
            &path,
            &info.schema,
            &self.conf,
            &WriteOptions {
                format: info.format,
                compression: None,
                memory: Some(memory),
            },
        )?;
        let mut n = 0u64;
        for r in rows {
            w.write_row(&r)?;
            n += 1;
        }
        w.close()?;
        Ok(n)
    }

    /// Create a table directly from Rust (no SQL round trip).
    pub fn create_table(&mut self, name: &str, schema: Schema, format: FormatKind) -> Result<()> {
        self.metastore().create_table(name, schema, format)?;
        Ok(())
    }

    /// Snapshot of cluster I/O counters (for experiments).
    pub fn io_snapshot(&self) -> IoSnapshot {
        self.dfs().stats().snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hive_common::config::knobs;
    use hive_common::Value;

    fn loaded_session() -> HiveSession {
        let mut hive = HiveSession::in_memory();
        hive.execute("CREATE TABLE t (k BIGINT, v BIGINT, s STRING) STORED AS orc")
            .unwrap();
        hive.load_rows(
            "t",
            (0..1000).map(|i| {
                Row::new(vec![
                    Value::Int(i % 10),
                    Value::Int(i),
                    Value::String(format!("s{}", i % 3)),
                ])
            }),
        )
        .unwrap();
        hive
    }

    #[test]
    fn select_star_with_filter() {
        let mut hive = loaded_session();
        let r = hive
            .execute("SELECT v FROM t WHERE v < 5 ORDER BY v")
            .unwrap();
        assert_eq!(r.rows.len(), 5);
        assert_eq!(r.rows[4][0], Value::Int(4));
    }

    #[test]
    fn group_by_with_aggregates() {
        let mut hive = loaded_session();
        let r = hive
            .execute(
                "SELECT k, COUNT(*) AS n, SUM(v) AS sv, AVG(v) AS av, MIN(v), MAX(v) \
                 FROM t GROUP BY k ORDER BY k",
            )
            .unwrap();
        assert_eq!(r.rows.len(), 10);
        // k = 0: v ∈ {0, 10, ..., 990}: count 100, sum 49500, avg 495.
        assert_eq!(
            r.rows[0].values()[..4],
            [
                Value::Int(0),
                Value::Int(100),
                Value::Int(49_500),
                Value::Double(495.0)
            ]
        );
        assert_eq!(r.rows[0][4], Value::Int(0));
        assert_eq!(r.rows[0][5], Value::Int(990));
    }

    #[test]
    fn global_aggregate() {
        let mut hive = loaded_session();
        let r = hive
            .execute("SELECT SUM(v), COUNT(*) FROM t WHERE k = 3")
            .unwrap();
        assert_eq!(r.rows.len(), 1);
        let expect: i64 = (0..1000).filter(|i| i % 10 == 3).sum();
        assert_eq!(r.rows[0][0], Value::Int(expect));
        assert_eq!(r.rows[0][1], Value::Int(100));
    }

    #[test]
    fn doc_example_runs() {
        let mut hive = HiveSession::in_memory();
        hive.execute("CREATE TABLE t (k BIGINT, v STRING) STORED AS orc")
            .unwrap();
        hive.load_rows(
            "t",
            (0..100).map(|i| Row::new(vec![Value::Int(i % 10), Value::String(format!("v{i}"))])),
        )
        .unwrap();
        let r = hive
            .execute("SELECT k, COUNT(*) AS n FROM t GROUP BY k ORDER BY k")
            .unwrap();
        assert_eq!(r.rows.len(), 10);
    }

    #[test]
    fn explain_produces_plan_text() {
        let mut hive = loaded_session();
        let r = hive
            .execute("EXPLAIN SELECT k FROM t WHERE v > 10")
            .unwrap();
        let plan = r.explain.unwrap();
        assert!(plan.contains("TableScan"), "{plan}");
        assert!(plan.contains("Filter"), "{plan}");
    }

    #[test]
    fn explain_analyze_reports_runtime_profile() {
        let mut hive = loaded_session();
        let r = hive
            .execute("EXPLAIN ANALYZE SELECT k, COUNT(*) FROM t WHERE v >= 0 GROUP BY k")
            .unwrap();
        let text = r.explain.unwrap();
        assert!(text.contains("== Runtime Profile =="), "{text}");
        assert!(text.contains("map operators:"), "{text}");
        assert!(text.contains("rows_in="), "{text}");
        assert!(!r.report.jobs.is_empty(), "analyze actually executed");
        // Rows are discarded: the report text is the output.
        assert!(r.rows.is_empty());
    }

    #[test]
    fn describe_lists_columns_and_types() {
        let mut hive = loaded_session();
        let r = hive.execute("DESCRIBE t").unwrap();
        assert_eq!(r.columns, vec!["col_name", "data_type"]);
        assert_eq!(r.rows.len(), 3);
        assert_eq!(r.rows[0][0], Value::String("k".into()));
        assert_eq!(r.rows[0][1], Value::String("bigint".into()));
        assert!(hive.execute("DESCRIBE nope").is_err());
    }

    #[test]
    fn errors_are_reported() {
        let mut hive = loaded_session();
        assert!(hive.execute("SELECT nope FROM t").is_err());
        assert!(hive.execute("SELECT k FROM missing").is_err());
        assert!(hive.execute("CREATE TABLE t (a BIGINT)").is_err());
    }

    #[test]
    fn builder_validates_overrides_eagerly() {
        let err = HiveSession::builder()
            .set("hive.exec.paralel", "true")
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(err, HiveError::UnknownKnob { .. }), "{err}");
        assert!(err.to_string().contains("hive.exec.parallel"), "{err}");
        // Range violations caught at build even for typed writes.
        let err = HiveSession::builder()
            .knob(knobs::DFS_FAULT_READ_ERROR_RATE, 2.0)
            .build()
            .map(|_| ())
            .unwrap_err();
        assert!(
            err.to_string().contains("dfs.fault.read.error.rate"),
            "{err}"
        );
    }

    #[test]
    fn try_set_rejects_bad_values_but_set_defers() {
        let mut hive = HiveSession::in_memory();
        assert!(hive.try_set("hive.exec.parallel", "maybe").is_err());
        // The unvalidated shim stores anything; the next statement fails.
        hive.set("hive.exec.parallel", "maybe");
        assert!(hive.execute("DESCRIBE t").is_err());
    }

    #[test]
    fn session_metrics_accumulate_across_statements() {
        let mut hive = loaded_session();
        hive.execute("SELECT k, COUNT(*) FROM t GROUP BY k")
            .unwrap();
        hive.execute("SELECT k, COUNT(*) FROM t GROUP BY k")
            .unwrap();
        let snap = hive.metrics_snapshot();
        assert!(snap.counter("query.count", &[]).unwrap() >= 2);
        assert!(snap.counter("exec.rows_out", &[]).unwrap() > 0);
        assert!(snap.counter("dfs.bytes_read", &[]).unwrap() > 0);
    }

    #[test]
    fn query_result_carries_trace() {
        let mut hive = loaded_session();
        let r = hive
            .execute("SELECT k, COUNT(*) FROM t GROUP BY k ORDER BY k")
            .unwrap();
        // The report is the statement's record: the job that ran, its
        // operator profiles on both sides of the shuffle, and its tasks.
        let job = r.report.jobs.first().expect("a job ran");
        assert!(!job.map_operators.is_empty(), "{job:?}");
        assert!(!job.reduce_operators.is_empty(), "{job:?}");
        assert!(job.counters.task_attempts >= 1, "{job:?}");
    }
}
