//! The Driver: parse → plan → execute → fetch (paper Section 2), now also
//! the place where execution reports become observability artifacts:
//! registry metrics and `EXPLAIN ANALYZE` renderings.

use crate::acid::TxnManager;
use crate::metastore::Metastore;
use crate::plan_cache::{PlanCache, PlanCacheKey};
use hive_common::config::keys;
use hive_common::{key, CancelToken, HiveConf, HiveError, Result, Row};
use hive_dfs::{Dfs, FaultPlan, IoScope};
use hive_mapreduce::{DagReport, MrEngine};
use hive_obs::{MetricKey, MetricValue, MetricsRegistry};
use hive_planner::fingerprint::{knob_fingerprint, normalize_sql};
use hive_planner::{plan_query, CompiledQuery};
use hive_ql::{parse, SelectStmt, Statement};
use std::sync::Arc;

/// Per-statement context the server's admission layer hands the driver:
/// the preemption token execution must poll, where the statement landed
/// (pool, queue wait) for observability, and the plan cache when this
/// statement opted in. `Default` is a standalone, non-preemptible,
/// uncached statement — exactly the pre-workload-management behavior.
#[derive(Default, Clone, Copy)]
pub struct StatementCtx<'a> {
    /// Preemption handle; `None` means not preemptible.
    pub cancel: Option<&'a Arc<CancelToken>>,
    /// Pool name, only when a resource plan is configured.
    pub pool: Option<&'a str>,
    /// Whether admission made this statement wait for a slot.
    pub queued: bool,
    /// Wall-clock seconds spent queued (0.0 unless `queued`).
    pub queue_wait_s: f64,
    /// The server's plan cache, when `hive.query.plan.cache.enabled`.
    pub plan_cache: Option<&'a PlanCache>,
    /// The server's transaction manager (per-table write locks). DML and
    /// compaction refuse to run without one — a standalone driver cannot
    /// serialize writers against anybody.
    pub txn: Option<&'a crate::acid::TxnManager>,
}

/// The result of one statement.
#[derive(Debug, Default)]
pub struct QueryResult {
    pub columns: Vec<String>,
    pub rows: Vec<Row>,
    /// Per-job and total execution report (simulated time, measured CPU).
    pub report: DagReport,
    /// Set for EXPLAIN statements.
    pub explain: Option<String>,
}

impl QueryResult {
    /// Render rows as tab-separated lines (CLI-style output).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.columns.join("\t"));
        out.push('\n');
        for r in &self.rows {
            let cells: Vec<String> = r.values().iter().map(|v| v.to_string()).collect();
            out.push_str(&cells.join("\t"));
            out.push('\n');
        }
        out
    }
}

/// Compile and run one statement, recording into `registry`. `ctx` is the
/// admission context the server established for this statement
/// ([`StatementCtx::default`] for a standalone run).
pub fn run_statement(
    sql: &str,
    dfs: &Dfs,
    conf: &HiveConf,
    metastore: &Metastore,
    registry: &MetricsRegistry,
    ctx: &StatementCtx<'_>,
) -> Result<QueryResult> {
    // Reject ill-typed or out-of-range overrides before doing any work, so
    // a bad `SET` surfaces on the next statement rather than deep inside a
    // task.
    conf.validate()?;
    // Build a statement-scoped DFS view: the statement's fault plan (fresh
    // per statement, so the first-touch ledger resets and each query sees
    // its own deterministic fault schedule) and its cache participation
    // ride on this handle and its clones instead of mutating shared
    // filesystem state. Concurrent statements admitted against the same
    // server therefore cannot clobber each other's `dfs.fault.*` or
    // `hive.io.cache.bytes` settings mid-query. The block cache's byte
    // capacity is process state, sized once at server startup;
    // `hive.io.cache.bytes=0` here bypasses both cache tiers for exactly
    // this statement, keeping its read path byte-for-byte the pre-cache
    // one.
    let scoped = dfs.for_statement(
        FaultPlan::from_conf(conf)?,
        conf.get_i64(keys::IO_CACHE_BYTES)? > 0,
    );
    let dfs = &scoped;
    registry.counter("query.count").inc();
    let stmt = parse(sql)?;
    // A read pins a snapshot when it plans and scans that snapshot's files
    // afterwards; its lease keeps a compaction's clean off them meanwhile.
    // Writers read under the table lock and need none.
    let _lease = match &stmt {
        Statement::Select(_) | Statement::Explain { .. } => ctx.txn.map(TxnManager::read_lease),
        _ => None,
    };
    match stmt {
        Statement::Select(stmt) => execute_select(sql, &stmt, dfs, conf, metastore, registry, ctx),
        Statement::CreateTable(ct) => {
            let schema = hive_common::Schema::new(
                ct.columns
                    .iter()
                    .map(|(n, t)| hive_common::Field::new(n.clone(), t.clone()))
                    .collect(),
            );
            let format = match &ct.stored_as {
                Some(f) => hive_formats::FormatKind::parse(f)?,
                None => hive_formats::FormatKind::Text,
            };
            metastore.create_table(&ct.name, schema, format)?;
            Ok(QueryResult::default())
        }
        Statement::Describe(name) => {
            let info = metastore
                .get(&name)
                .ok_or_else(|| HiveError::Metastore(format!("unknown table `{name}`")))?;
            let rows = info
                .schema
                .fields()
                .iter()
                .map(|f| {
                    Row::new(vec![
                        hive_common::Value::String(f.name.clone()),
                        hive_common::Value::String(f.data_type.to_string()),
                    ])
                })
                .collect();
            Ok(QueryResult {
                columns: vec!["col_name".into(), "data_type".into()],
                rows,
                ..Default::default()
            })
        }
        Statement::Explain { analyze, stmt } => {
            let Statement::Select(stmt) = *stmt else {
                return Err(HiveError::Plan("EXPLAIN supports SELECT only".into()));
            };
            let compiled = plan_with_cache(sql, &stmt, dfs, conf, metastore, registry, ctx)?;
            let plan = scrub_query_paths(&compiled.explain);
            // Which snapshot the plan pinned, when any scanned table is
            // ACID. `None` for plain tables keeps the output byte-identical
            // to the pre-ACID rendering.
            let acid = compiled
                .jobs
                .iter()
                .flat_map(|j| j.inputs.iter())
                .find_map(|i| {
                    i.overlay
                        .as_ref()
                        .map(|o| (o.snapshot_gen, o.delta_paths.len()))
                });
            if !analyze {
                return Ok(QueryResult {
                    explain: Some(plan),
                    ..Default::default()
                });
            }
            // ANALYZE: run the query for real, then annotate the plan with
            // the observed runtime profile. Result rows are discarded — the
            // statement's output is the report, like EXPLAIN ANALYZE in
            // PostgreSQL.
            let res = execute_select(sql, &stmt, dfs, conf, metastore, registry, ctx)?;
            // A stats-answered query ran no job (every compiled plan has
            // one): reporting the (vectorized) plan's operator profile would
            // attribute work that did not happen. Say where the answer came
            // from instead.
            let text = if res.report.jobs.is_empty() {
                format!(
                    "{}\n\n== Runtime Profile ==\nanswered from table statistics \
                     (no jobs run, no operator profile)\nresult_rows={}\n",
                    plan.trim_end(),
                    res.rows.len()
                )
            } else {
                render_analyze(&plan, res.rows.len(), &res.report, ctx, acid)
            };
            Ok(QueryResult {
                report: res.report,
                explain: Some(text),
                ..Default::default()
            })
        }
        Statement::Insert(ins) => {
            let txn = require_txn(ctx)?;
            let n = crate::acid::execute_insert(&ins, dfs, conf, metastore, registry, txn)?;
            Ok(dml_result("rows_inserted", n, DagReport::default()))
        }
        Statement::Update(upd) => {
            let txn = require_txn(ctx)?;
            let (n, report) =
                crate::acid::execute_update(&upd, dfs, conf, metastore, registry, txn, ctx.cancel)?;
            Ok(dml_result("rows_updated", n, report))
        }
        Statement::Delete(del) => {
            let txn = require_txn(ctx)?;
            let (n, report) =
                crate::acid::execute_delete(&del, dfs, conf, metastore, registry, txn, ctx.cancel)?;
            Ok(dml_result("rows_deleted", n, report))
        }
        Statement::Compact { table, mode } => {
            let txn = require_txn(ctx)?;
            let n = crate::acid::execute_compact(
                &table, mode, dfs, conf, metastore, registry, txn, ctx.cancel,
            )?;
            Ok(dml_result("rows_compacted", n, DagReport::default()))
        }
    }
}

fn require_txn<'a>(ctx: &StatementCtx<'a>) -> Result<&'a crate::acid::TxnManager> {
    ctx.txn.ok_or_else(|| {
        HiveError::Execution(
            "ACID statements need the server's transaction manager; run them through a HiveServer"
                .into(),
        )
    })
}

/// The one-row `rows_affected`-style result every write statement returns,
/// with the report of the query that found an UPDATE's or DELETE's rows.
fn dml_result(column: &str, n: u64, report: DagReport) -> QueryResult {
    QueryResult {
        columns: vec![column.to_string()],
        rows: vec![Row::new(vec![hive_common::Value::Int(n as i64)])],
        report,
        ..Default::default()
    }
}

/// Plan a SELECT through the statement's plan cache when it opted in
/// (`hive.query.plan.cache.enabled`), else straight through the planner.
/// The cache key pins normalized SQL, the planning-knob fingerprint, and
/// both generation counters, so a hit is exactly the plan compilation
/// would produce; it is rebased onto a fresh scratch prefix so concurrent
/// reuses never share intermediate paths.
fn plan_with_cache(
    sql: &str,
    stmt: &SelectStmt,
    dfs: &Dfs,
    conf: &HiveConf,
    metastore: &Metastore,
    registry: &MetricsRegistry,
    ctx: &StatementCtx<'_>,
) -> Result<CompiledQuery> {
    let Some(cache) = ctx.plan_cache else {
        return plan_query(stmt, metastore, conf);
    };
    let key = PlanCacheKey {
        sql: normalize_sql(sql),
        knobs: knob_fingerprint(conf),
        catalog_gen: metastore.catalog_generation(),
        dfs_gen: dfs.generation_watermark(),
    };
    if let Some(hit) = cache.get(&key) {
        registry.counter("plan_cache.hit").inc();
        return Ok(hit.rebase());
    }
    let compiled = plan_query(stmt, metastore, conf)?;
    registry.counter("plan_cache.miss").inc();
    cache.insert(key, Arc::new(compiled.clone()));
    Ok(compiled)
}

/// Plan and execute one SELECT and fold its report into the registry.
fn execute_select(
    sql: &str,
    stmt: &SelectStmt,
    dfs: &Dfs,
    conf: &HiveConf,
    metastore: &Metastore,
    registry: &MetricsRegistry,
    ctx: &StatementCtx<'_>,
) -> Result<QueryResult> {
    // Simple aggregations can come straight from ORC footers (paper §4.2),
    // skipping the whole engine. Footer reads happen on this thread, so an
    // [`IoScope`] attributes exactly this statement's DFS bytes.
    let stats_scope = IoScope::new();
    let stats_hit = {
        let _g = stats_scope.enter();
        crate::stats_answer::try_answer(stmt, dfs, conf, metastore)?
    };
    if let Some((columns, row)) = stats_hit {
        let io = stats_scope.snapshot();
        registry.counter("query.stats_answered").inc();
        registry.counter("dfs.bytes_read").add(io.bytes_read());
        return Ok(QueryResult {
            columns,
            rows: vec![row],
            ..Default::default()
        });
    }
    let compiled = plan_with_cache(sql, stmt, dfs, conf, metastore, registry, ctx)?;
    let mut engine = MrEngine::new(dfs.clone(), conf.clone());
    if let Some(cancel) = ctx.cancel {
        engine = engine.with_cancel(Arc::clone(cancel));
    }
    let (report, mut rows) = engine.run_dag(&compiled.jobs)?;
    // Driver-side final ordering and limit (see DESIGN.md).
    if !compiled.order_by.is_empty() {
        rows.sort_by(|a, b| {
            for &(idx, asc) in &compiled.order_by {
                let c = key::cmp_value(&a[idx], &b[idx]);
                let c = if asc { c } else { c.reverse() };
                if c != std::cmp::Ordering::Equal {
                    return c;
                }
            }
            std::cmp::Ordering::Equal
        });
        if let Some(n) = compiled.limit {
            rows.truncate(n as usize);
        }
    }
    record_report(registry, &report);
    Ok(QueryResult {
        columns: compiled.output_names,
        rows,
        report,
        explain: None,
    })
}

/// Fold one DAG report into the registry: statement-level counters under
/// `exec.*`/`dfs.*`, per-job labeled counters, scan profiles, simulated-time
/// histograms, and per-operator row/CPU counters. Every value is derived
/// from the report (merged single-threaded from task results), so the
/// registry contents do not depend on worker-thread count.
fn record_report(registry: &MetricsRegistry, report: &DagReport) {
    for (name, v) in report.counters.entries() {
        registry.record(MetricKey::new(&format!("exec.{name}")), v);
    }
    // DFS traffic as seen by the per-task IoScopes the engine enters.
    registry
        .counter("dfs.bytes_read")
        .add(report.counters.bytes_read);
    registry
        .counter("dfs.bytes_written")
        .add(report.counters.bytes_written);
    registry.gauge("exec.sim_total_s").add(report.sim_total_s);
    for jr in &report.jobs {
        let job = registry.scope(&[("job", &jr.name)]);
        for (name, v) in jr.counters.entries() {
            job.record(&format!("job.{name}"), v);
        }
        for (name, v) in jr.scan.entries() {
            job.record(&format!("scan.{name}"), v);
        }
        registry
            .histogram("job.sim_total_s")
            .observe(jr.sim_total_s);
        let task_hist = registry.histogram_with("task.sim_s", &[("job", &jr.name)]);
        for &sim_s in &jr.task_sim_s {
            task_hist.observe(sim_s);
        }
        for (phase, ops) in [("map", &jr.map_operators), ("reduce", &jr.reduce_operators)] {
            for p in ops {
                let scope = job.scope(&[("phase", phase), ("op", &p.name)]);
                scope.record("operator.rows_in", MetricValue::U64(p.rows_in));
                scope.record("operator.rows_out", MetricValue::U64(p.rows_out));
                scope.record("operator.cpu_ns", MetricValue::U64(p.cpu_ns));
            }
        }
    }
}

/// Total cache touches (both tiers) a job's scans observed. Zero whenever
/// the caches are disabled, which keeps pre-cache `EXPLAIN ANALYZE` output
/// byte-identical under `hive.io.cache.bytes=0`.
fn cache_activity(scan: &hive_obs::ScanProfile) -> u64 {
    scan.footer_cache_hits
        + scan.footer_cache_misses
        + scan.index_cache_hits
        + scan.index_cache_misses
        + scan.data_cache_hits
        + scan.data_cache_misses
        + scan.data_cache_evictions
}

/// Replace the per-process query counter in intermediate paths
/// (`/tmp/query-17/...`) with a stable placeholder so plan text is
/// byte-identical across runs.
fn scrub_query_paths(plan: &str) -> String {
    const MARKER: &str = "/tmp/query-";
    let mut out = String::with_capacity(plan.len());
    let mut rest = plan;
    while let Some(at) = rest.find(MARKER) {
        let digits_from = at + MARKER.len();
        out.push_str(&rest[..digits_from]);
        let tail = &rest[digits_from..];
        let end = tail
            .find(|c: char| !c.is_ascii_digit())
            .unwrap_or(tail.len());
        out.push('N');
        rest = &tail[end..];
    }
    out.push_str(rest);
    out
}

/// Render the `EXPLAIN ANALYZE` report: the static plan followed by the
/// observed per-job runtime profile (tasks, bytes, scan pruning, and
/// per-operator rows/CPU). Statements that waited in an admission queue
/// get one extra `admission:` line; ones granted immediately render
/// byte-identically to the pre-workload-management output.
fn render_analyze(
    plan: &str,
    result_rows: usize,
    report: &DagReport,
    ctx: &StatementCtx<'_>,
    acid: Option<(u64, usize)>,
) -> String {
    let mut out = String::new();
    out.push_str(plan.trim_end());
    out.push_str("\n\n== Runtime Profile ==\n");
    if ctx.queued {
        out.push_str(&format!(
            "admission: pool={} queue_wait={:.1}ms\n",
            ctx.pool.unwrap_or("default"),
            ctx.queue_wait_s * 1e3,
        ));
    }
    out.push_str(&format!(
        "sim_total={:.6}s jobs={} result_rows={}\n",
        report.sim_total_s,
        report.jobs.len(),
        result_rows
    ));
    if let Some((gen, delta_files)) = acid {
        out.push_str(&format!(
            "acid: snapshot_gen={gen} delta_files={delta_files}\n"
        ));
    }
    for jr in &report.jobs {
        out.push_str(&format!(
            "{}: sim={:.6}s map_tasks={} reduce_tasks={} attempts={} retries={} speculative={}\n",
            jr.name,
            jr.sim_total_s,
            jr.map_tasks,
            jr.reduce_tasks,
            jr.counters.task_attempts,
            jr.counters.task_retries,
            jr.counters.speculative_tasks,
        ));
        out.push_str(&format!(
            "  io: read={}B shuffled={}B written={}B cpu={:.6}s\n",
            jr.counters.bytes_read,
            jr.counters.bytes_shuffled,
            jr.counters.bytes_written,
            jr.counters.cpu_seconds,
        ));
        if jr.scan.rows_read > 0 || jr.scan.stripes_total > 0 {
            out.push_str(&format!(
                "  scan: rows={} batches={} stripes={}/{} groups={}/{} salvaged={} selected_density={:.3}\n",
                jr.scan.rows_read,
                jr.scan.batches,
                jr.scan.stripes_read,
                jr.scan.stripes_total,
                jr.scan.groups_read,
                jr.scan.groups_total,
                jr.scan.rows_salvaged,
                jr.scan.selected_density(),
            ));
        }
        if jr.scan.groups_bloom_pruned > 0 || jr.scan.bloom_corrupt > 0 {
            out.push_str(&format!(
                "  skip: groups_stats_pruned={} groups_bloom_pruned={} bloom_corrupt={} read={}B\n",
                jr.scan
                    .groups_total
                    .saturating_sub(jr.scan.groups_read + jr.scan.groups_bloom_pruned),
                jr.scan.groups_bloom_pruned,
                jr.scan.bloom_corrupt,
                jr.counters.bytes_read,
            ));
        }
        for (path, variant, column) in &jr.replica_choices {
            out.push_str(&format!(
                "  replica: path={path} variant={variant} sorted_by={column}\n"
            ));
        }
        if jr.scan.delta_rows_read > 0 || jr.scan.rows_masked > 0 {
            out.push_str(&format!(
                "  acid: delta_rows={} rows_masked={}\n",
                jr.scan.delta_rows_read, jr.scan.rows_masked,
            ));
        }
        if cache_activity(&jr.scan) > 0 {
            out.push_str(&format!(
                "  cache: footer={}/{} index={}/{} data={}/{} hit_bytes={}B evictions={}\n",
                jr.scan.footer_cache_hits,
                jr.scan.footer_cache_misses,
                jr.scan.index_cache_hits,
                jr.scan.index_cache_misses,
                jr.scan.data_cache_hits,
                jr.scan.data_cache_misses,
                jr.scan.data_cache_hit_bytes,
                jr.scan.data_cache_evictions,
            ));
        }
        for (phase, ops) in [("map", &jr.map_operators), ("reduce", &jr.reduce_operators)] {
            if ops.is_empty() {
                continue;
            }
            out.push_str(&format!("  {phase} operators:\n"));
            for p in ops {
                out.push_str(&format!(
                    "    {:<24} rows_in={:<10} rows_out={:<10} cpu={:.3}ms",
                    p.name,
                    p.rows_in,
                    p.rows_out,
                    p.cpu_ns as f64 / 1e6,
                ));
                for (key, value) in &p.detail {
                    out.push_str(&format!(" {key}={value}"));
                }
                out.push('\n');
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_paths_are_scrubbed() {
        let s = "Sink(/tmp/query-42/stage-0) then /tmp/query-7/x";
        assert_eq!(
            scrub_query_paths(s),
            "Sink(/tmp/query-N/stage-0) then /tmp/query-N/x"
        );
        assert_eq!(scrub_query_paths("no paths here"), "no paths here");
    }
}
