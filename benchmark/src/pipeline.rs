//! The traced executor: a SELECT run as the decomposed pipeline the driver
//! runs inside `execute` (`core/src/driver.rs::execute_select`), with a
//! harness span around each public call — parse, the four planner passes,
//! `run_dag`, the driver-side sort. What `execute` does beyond these calls
//! (admission, the post-hoc trace, the registry snapshot) is not reachable
//! from outside and is reported as the difference, `core.overhead_us`.

use crate::trace::{SpanId, Tracer};
use crate::workload::Stmt;
use hive_common::config::keys;
use hive_common::{HiveError, Result};
use hive_core::{HiveSession, QueryResult};
use hive_dfs::FaultPlan;
use hive_mapreduce::MrEngine;
use hive_planner::{compile, correlation, mapjoin, translate};
use hive_ql::Statement;

/// Run `stmt` under spans. SELECTs go through the decomposed pipeline;
/// writes have no public decomposition, so they are one `core.execute`
/// span beside a `ql.parse` span that parses the text a second time (the
/// only way to see what the 100-tuple `VALUES` lists cost the parser).
pub fn traced_execute(
    tracer: &mut Tracer,
    stmt_id: u64,
    stmt: &Stmt,
    session: &mut HiveSession,
) -> Result<QueryResult> {
    let root = tracer.begin("core.statement", None, stmt_id);
    let ast = tracer.span("ql.parse", Some(root), stmt_id, || {
        hive_ql::parse(&stmt.sql)
    });
    let result = match ast? {
        Statement::Select(select) => traced_select(tracer, root, stmt_id, &select, session),
        _ => tracer.span("core.execute", Some(root), stmt_id, || {
            session.execute(&stmt.sql)
        }),
    };
    tracer.end(root);
    result
}

fn traced_select(
    tracer: &mut Tracer,
    root: SpanId,
    id: u64,
    select: &hive_ql::SelectStmt,
    session: &HiveSession,
) -> Result<QueryResult> {
    let conf = session.conf();
    if conf.get_bool(keys::CBO_ENABLE)? || conf.get_bool(keys::COMPUTE_USING_STATS)? {
        // Both are off by default and no workload turns them on; with
        // either on, `execute` runs passes this mirror does not.
        return Err(HiveError::Plan(
            "the traced pipeline does not mirror hive.cbo.enable / \
             hive.compute.query.using.stats"
                .into(),
        ));
    }
    let plan = tracer.begin("planner.plan", Some(root), id);
    let mut t = tracer.span("planner.translate", Some(plan), id, || {
        translate(select, session.metastore(), conf)
    })?;
    if conf.get_bool(keys::AUTO_CONVERT_JOIN)? {
        tracer.span("planner.mapjoin", Some(plan), id, || {
            mapjoin::convert_map_joins(&mut t.graph, conf)
        })?;
    }
    if conf.get_bool(keys::OPT_CORRELATION)? {
        tracer.span("planner.correlation", Some(plan), id, || {
            correlation::optimize(&mut t.graph)
        })?;
    }
    let compiled = tracer.span("planner.compile", Some(plan), id, || compile(&t, conf))?;
    tracer.end(plan);

    let (report, mut rows) = tracer.span("mapreduce.run_dag", Some(root), id, || {
        let scoped = session.dfs().for_statement(
            FaultPlan::from_conf(conf)?,
            conf.get_i64(keys::IO_CACHE_BYTES)? > 0,
        );
        MrEngine::new(scoped, conf.clone()).run_dag(&compiled.jobs)
    })?;

    tracer.span("core.sort_limit", Some(root), id, || {
        if !compiled.order_by.is_empty() {
            rows.sort_by(|a, b| {
                compiled
                    .order_by
                    .iter()
                    .map(|&(idx, asc)| {
                        let c = a[idx].sql_cmp(&b[idx]);
                        if asc {
                            c
                        } else {
                            c.reverse()
                        }
                    })
                    .find(|c| c.is_ne())
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            if let Some(n) = compiled.limit {
                rows.truncate(n as usize);
            }
        }
    });
    Ok(QueryResult {
        columns: compiled.output_names,
        rows,
        report,
        ..Default::default()
    })
}
