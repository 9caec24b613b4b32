//! Answering simple aggregation queries from ORC file statistics alone —
//! paper Section 4.2 on file-level statistics: "These statistics are used
//! in query optimizations, and they are also used to answer simple
//! aggregation queries." (Hive's `hive.compute.query.using.stats`.)
//!
//! Applies to `SELECT <aggs> FROM <orc table>` with no WHERE / GROUP BY /
//! HAVING / joins, where every projection is `COUNT(*)`, `COUNT(col)`,
//! `MIN(col)`, `MAX(col)` or `SUM(col)` over a bare column: the answer is
//! assembled from each file's footer, reading no row data at all.

use crate::metastore::Metastore;
use hive_common::{HiveConf, Result, Row, Value};
use hive_dfs::Dfs;
use hive_formats::delta::Fallback;
use hive_formats::orc::reader::{OrcReadOptions, OrcReader};
use hive_formats::FormatKind;
use hive_planner::scope::Scope;
use hive_ql::{Expr, SelectStmt, TableRef};

/// One recognizable aggregate over a top-level column.
enum StatAgg {
    CountStar,
    Count(usize),
    Min(usize),
    Max(usize),
    Sum(usize),
}

/// Try to answer `stmt` from statistics; `None` when it does not qualify.
pub fn try_answer(
    stmt: &SelectStmt,
    dfs: &Dfs,
    conf: &HiveConf,
    metastore: &Metastore,
) -> Result<Option<(Vec<String>, Row)>> {
    if !conf.get_bool(hive_common::config::keys::COMPUTE_USING_STATS)? {
        return Ok(None);
    }
    if !stmt.joins.is_empty()
        || stmt.where_clause.is_some()
        || !stmt.group_by.is_empty()
        || stmt.having.is_some()
    {
        return Ok(None);
    }
    let TableRef::Table { name, .. } = &stmt.from else {
        return Ok(None);
    };
    let Some(info) = metastore.get(name) else {
        return Ok(None);
    };
    if info.format != FormatKind::Orc {
        return Ok(None);
    }
    // ACID tables must answer through merge-on-read: footer statistics are
    // per-file, blind to delete masks, and the raw listing they would be
    // merged over is not the manifest's view of the table.
    if metastore
        .pin_snapshot(dfs, &info, Fallback::Older)?
        .is_some()
    {
        return Ok(None);
    }

    // Recognize the projections; columns resolve as the planner would
    // resolve them, against the FROM item under its binding.
    let scope = Scope::of_table(stmt.from.binding(), &info.schema);
    let mut aggs = Vec::with_capacity(stmt.projections.len());
    let mut names = Vec::with_capacity(stmt.projections.len());
    for (i, p) in stmt.projections.iter().enumerate() {
        let Expr::Function {
            name: fname,
            args,
            distinct: false,
        } = &p.expr
        else {
            return Ok(None);
        };
        let agg = match (fname.as_str(), args.as_slice()) {
            ("count", [Expr::Star]) => StatAgg::CountStar,
            (f, [Expr::Column { table, name }]) => {
                let over: fn(usize) -> StatAgg = match f {
                    "count" => StatAgg::Count,
                    "min" => StatAgg::Min,
                    "max" => StatAgg::Max,
                    "sum" => StatAgg::Sum,
                    _ => return Ok(None),
                };
                over(scope.bind(table.as_deref(), name)?.1)
            }
            _ => return Ok(None),
        };
        names.push(p.alias.clone().unwrap_or_else(|| format!("_c{i}")));
        aggs.push(agg);
    }

    // Merge footer statistics across the table's files.
    let files = metastore.table_files(name);
    let mut total_rows: i64 = 0;
    let mut per_col: Vec<Option<hive_formats::orc::ColumnStatistics>> =
        vec![None; info.schema.len()];
    let opts = OrcReadOptions {
        // Footer reads share the metadata cache with scans (both tiers key
        // off `hive.io.cache.bytes` as the master switch).
        cache_metadata: conf.get_i64(hive_common::config::keys::IO_CACHE_BYTES)? > 0,
        ..Default::default()
    };
    for path in &files {
        let reader = OrcReader::open(dfs, path, opts.clone())?;
        total_rows += reader.num_rows() as i64;
        for (c, acc) in per_col.iter_mut().enumerate() {
            let Some(s) = reader.file_stats(c) else {
                continue;
            };
            match acc {
                None => *acc = Some(s.clone()),
                Some(a) => a.merge(s)?,
            }
        }
    }

    let mut out = Vec::with_capacity(aggs.len());
    for agg in &aggs {
        let v = match agg {
            StatAgg::CountStar => Value::Int(total_rows),
            StatAgg::Count(c) => match &per_col[*c] {
                Some(s) => Value::Int(s.count() as i64),
                None => Value::Int(0),
            },
            StatAgg::Min(c) => per_col[*c]
                .as_ref()
                .and_then(|s| s.min_value())
                .unwrap_or(Value::Null),
            StatAgg::Max(c) => per_col[*c]
                .as_ref()
                .and_then(|s| s.max_value())
                .unwrap_or(Value::Null),
            StatAgg::Sum(c) => match per_col[*c].as_ref().and_then(|s| s.sum_value()) {
                Some(v) => v,
                // Sum unavailable (overflowed or non-numeric): bail out and
                // let the engine compute it.
                None => return Ok(None),
            },
        };
        out.push(v);
    }
    Ok(Some((names, Row::new(out))))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HiveSession;
    use hive_common::config::keys;

    fn session() -> HiveSession {
        let mut hive = HiveSession::in_memory();
        hive.execute("CREATE TABLE t (k BIGINT, v DOUBLE, s STRING) STORED AS orc")
            .unwrap();
        for _ in 0..2 {
            // two part files → footer merging is exercised
            hive.load_rows(
                "t",
                (0..500).map(|i| {
                    Row::new(vec![
                        Value::Int(i),
                        Value::Double(i as f64 / 2.0),
                        Value::String(format!("s{i}")),
                    ])
                }),
            )
            .unwrap();
        }
        hive
    }

    #[test]
    fn stats_only_answers_match_the_engine() {
        let sql = "SELECT COUNT(*) AS n, MIN(k), MAX(k), SUM(k), COUNT(v) FROM t";
        let mut engine = session();
        let slow = engine.execute(sql).unwrap();

        let mut fast = session();
        fast.set(keys::COMPUTE_USING_STATS, "true");
        let before = fast.io_snapshot();
        let quick = fast.execute(sql).unwrap();
        let read = fast.io_snapshot().since(&before).bytes_read();

        assert_eq!(quick.rows, slow.rows);
        assert_eq!(quick.rows[0][0], Value::Int(1000));
        assert!(quick.report.jobs.is_empty(), "no job may run");
        // Footers only: a few KB, not the table.
        assert!(read < 40_000, "read {read} bytes — should be footers only");
    }

    #[test]
    fn disqualifying_shapes_fall_through_to_the_engine() {
        let mut hive = session();
        hive.set(keys::COMPUTE_USING_STATS, "true");
        for sql in [
            "SELECT COUNT(*) FROM t WHERE k > 10",  // filter
            "SELECT k, COUNT(*) FROM t GROUP BY k", // grouping
            "SELECT AVG(k) FROM t",                 // avg not derivable
            "SELECT SUM(k + 1) FROM t",             // expression arg
        ] {
            let r = hive.execute(sql).unwrap();
            assert!(!r.report.jobs.is_empty(), "{sql} must run a job");
        }
    }
}
