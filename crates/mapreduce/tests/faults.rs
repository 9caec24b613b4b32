//! Fault-tolerance tests for the task runtime: injected DFS faults,
//! task attempts/retries, node blacklisting, speculative execution, and
//! graceful failure (errors, never panics/aborts) when retries are off.

use hive_common::config::keys;
use hive_common::{DataType, HiveConf, HiveError, Row, Schema, Value};
use hive_dfs::{Dfs, DfsConfig, FaultPlan};
use hive_exec::agg::AggFunction;
use hive_exec::expr::ExprNode;
use hive_exec::graph::OperatorGraph;
use hive_exec::operators::{
    AggSpec, FileSinkOperator, GroupByMode, GroupByOperator, ReduceSinkOperator,
};
use hive_formats::{create_writer, FormatKind, WriteOptions};
use hive_mapreduce::engine::{JobReport, MrEngine};
use hive_mapreduce::job::{JobInput, JobOutput, JobSpec, MapPipeline, ReducePipeline};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

const NUM_FILES: usize = 16;
const ROWS_PER_FILE: i64 = 400;
const NUM_REDUCERS: usize = 2;

fn schema() -> Schema {
    Schema::parse(&[("k", "bigint"), ("v", "bigint")]).unwrap()
}

fn small_cluster() -> Dfs {
    Dfs::new(DfsConfig {
        block_size: 64 << 10,
        replication: 2,
        nodes: 4,
    })
}

/// 16 single-block ORC part files → 16 map tasks with varied replicas.
fn write_tables(dfs: &Dfs, conf: &HiveConf, dir: &str) -> Schema {
    let schema = schema();
    for f in 0..NUM_FILES as i64 {
        let path = format!("{dir}part-{f:05}");
        let mut w = create_writer(
            dfs,
            &path,
            &schema,
            conf,
            &WriteOptions {
                format: FormatKind::Orc,
                ..Default::default()
            },
        )
        .unwrap();
        for i in 0..ROWS_PER_FILE {
            w.write_row(&Row::new(vec![
                Value::Int((f * ROWS_PER_FILE + i) % 23),
                Value::Int(i),
            ]))
            .unwrap();
        }
        w.close().unwrap();
    }
    schema
}

/// Group by k, sum v. `poison_first_reduce_calls` > 0 makes the reduce
/// pipeline factory panic that many times before behaving (exercising the
/// reduce attempt loop and partition preservation across retries).
fn group_sum_job(schema: Schema, dir: &str, poison_first_reduce_calls: usize) -> JobSpec {
    let map_factory: hive_mapreduce::job::MapPipelineFactory = Arc::new(move |_side| {
        let mut graph = OperatorGraph::new();
        let rs = graph.add(Box::new(ReduceSinkOperator {
            key_exprs: vec![ExprNode::col(0)],
            value_exprs: vec![ExprNode::col(1)],
            tag: 0,
        }));
        let mut roots = HashMap::new();
        roots.insert("t".to_string(), rs);
        Ok(MapPipeline {
            graph,
            roots,
            vector: HashMap::new(),
        })
    });
    let poison = Arc::new(AtomicUsize::new(poison_first_reduce_calls));
    let reduce_factory: hive_mapreduce::job::ReducePipelineFactory = Arc::new(move || {
        if poison
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
            .is_ok()
        {
            panic!("injected reduce-side panic");
        }
        let mut graph = OperatorGraph::new();
        let gb = graph.add(Box::new(GroupByOperator::new(
            vec![ExprNode::col(0)],
            vec![AggSpec {
                function: AggFunction::Sum,
                arg: Some(ExprNode::col(1)),
                output_type: DataType::Int,
            }],
            GroupByMode::Streaming,
        )));
        let fs = graph.add(Box::new(FileSinkOperator));
        graph.connect(gb, fs, None);
        Ok(ReducePipeline::rows(graph, gb))
    });
    JobSpec {
        name: "faulty-group-sum".into(),
        inputs: vec![JobInput {
            alias: "t".into(),
            paths: vec![dir.to_string()],
            format: FormatKind::Orc,
            schema,
            projection: None,
            sarg: None,
            overlay: None,
            key_order: None,
        }],
        side_inputs: vec![],
        map_factory,
        reduce_factory: Some(reduce_factory),
        num_reducers: NUM_REDUCERS,
        output: JobOutput::Collect,
    }
}

/// Run the group-sum job on a fresh cluster under `conf` (fault knobs
/// included), through a statement-scoped view carrying the same conf's
/// fault plan.
fn run_group_sum(conf: HiveConf) -> hive_common::Result<(JobReport, Vec<Row>, MrEngine)> {
    let dfs = small_cluster();
    let schema = write_tables(&dfs, &conf, "/warehouse/faulty/");
    let dfs = dfs.for_statement(FaultPlan::from_conf(&conf)?, true);
    let engine = MrEngine::new(dfs, conf);
    let (report, rows) = engine.run_job(&group_sum_job(schema, "/warehouse/faulty/", 0))?;
    Ok((report, rows, engine))
}

fn base_conf() -> HiveConf {
    HiveConf::new()
        .with(keys::EXEC_WORKER_THREADS, "4")
        .with(keys::EXEC_SIM_DETERMINISTIC_CPU, "true")
}

#[test]
fn transient_faults_with_retries_are_invisible_in_results() {
    let (clean_report, clean_rows, _) = run_group_sum(base_conf()).unwrap();
    assert_eq!(clean_report.task_retries, 0);
    assert_eq!(
        clean_report.task_attempts,
        (clean_report.map_tasks + clean_report.reduce_tasks) as u64
    );

    let faulty = base_conf()
        .with(keys::DFS_FAULT_READ_ERROR_RATE, "0.4")
        .with(keys::DFS_FAULT_SEED, "11");
    let (report, rows, _) = run_group_sum(faulty).unwrap();
    assert_eq!(rows, clean_rows, "faulted run changed query results");
    assert!(
        report.task_retries > 0,
        "a 40% first-touch error rate must force at least one retry"
    );
    assert_eq!(
        report.task_attempts,
        (report.map_tasks + report.reduce_tasks) as u64 + report.task_retries
    );
    // Failed attempts burned real (simulated) time: the faulted run cannot
    // be faster than the clean one.
    assert!(report.sim_total_s > clean_report.sim_total_s);
}

#[test]
fn corruption_faults_are_caught_by_checksums_and_retried() {
    let (_, clean_rows, _) = run_group_sum(base_conf()).unwrap();
    // Each retry clears exactly one faulty location (first-touch model),
    // so the attempt budget must exceed the faulty locations per task.
    let faulty = base_conf()
        .with(keys::DFS_FAULT_CORRUPT_RATE, "0.25")
        .with(keys::DFS_FAULT_SEED, "3")
        .with(keys::MAP_MAX_ATTEMPTS, "8")
        .with(keys::REDUCE_MAX_ATTEMPTS, "8");
    let (report, rows, _) = run_group_sum(faulty).unwrap();
    // Every wire flip must have been caught by CRC32 (never silently
    // aggregated into wrong sums) and healed by a retry.
    assert_eq!(rows, clean_rows, "corrupted bytes leaked into results");
    assert!(report.task_retries > 0);
}

#[test]
fn faults_without_retries_surface_as_errors_not_panics() {
    let conf = base_conf()
        .with(keys::DFS_FAULT_READ_ERROR_RATE, "1.0")
        .with(keys::MAP_MAX_ATTEMPTS, "1");
    let err = match run_group_sum(conf) {
        Err(e) => e,
        Ok(_) => panic!("every read fails and retries are off; the job must error"),
    };
    assert!(
        matches!(err, HiveError::Transient(_)),
        "expected the injected transient error, got {err:?}"
    );
}

#[test]
fn panicking_map_task_returns_task_failed_error() {
    let dfs = small_cluster();
    let conf = base_conf();
    let schema = write_tables(&dfs, &conf, "/warehouse/panicky/");
    let map_factory: hive_mapreduce::job::MapPipelineFactory =
        Arc::new(move |_side| panic!("injected map-side panic"));
    let spec = JobSpec {
        name: "panicky".into(),
        inputs: vec![JobInput {
            alias: "t".into(),
            paths: vec!["/warehouse/panicky/".into()],
            format: FormatKind::Orc,
            schema,
            projection: None,
            sarg: None,
            overlay: None,
            key_order: None,
        }],
        side_inputs: vec![],
        map_factory,
        reduce_factory: None,
        num_reducers: 0,
        output: JobOutput::Collect,
    };
    let engine = MrEngine::new(dfs, conf);
    // The panic repeats on every attempt; the budget runs out and the
    // engine reports an error — the process must not abort.
    let err = engine
        .run_job(&spec)
        .expect_err("map factory always panics");
    match &err {
        HiveError::TaskFailed(msg) => assert!(
            msg.contains("injected map-side panic"),
            "panic payload lost: {msg}"
        ),
        other => panic!("expected TaskFailed, got {other:?}"),
    }
}

#[test]
fn reduce_retry_preserves_partitions_and_results() {
    let dfs = small_cluster();
    let conf = base_conf();
    let schema = write_tables(&dfs, &conf, "/warehouse/redo/");
    let engine = MrEngine::new(dfs, conf);
    // Poison the first reduce-pipeline construction: one reduce attempt
    // panics, its retry must still see the full partition (clone-before-
    // consume) and produce correct sums.
    let (report, mut rows) = engine
        .run_job(&group_sum_job(schema, "/warehouse/redo/", 1))
        .unwrap();
    assert!(report.task_retries >= 1);
    rows.sort_by(|a, b| hive_common::key::cmp(a.values(), b.values()));
    assert_eq!(rows.len(), 23);
    let total: i64 = rows.iter().map(|r| r[1].as_int().unwrap()).sum();
    assert_eq!(
        total,
        NUM_FILES as i64 * (0..ROWS_PER_FILE).sum::<i64>(),
        "retried reducer lost or duplicated shuffle records"
    );
}

#[test]
fn failing_node_is_blacklisted_and_replicas_serve() {
    let conf = base_conf()
        .with(keys::DFS_FAULT_FAIL_NODES, "1")
        .with(keys::MAX_TRACKER_FAILURES, "1");
    let (clean_report, clean_rows, _) = run_group_sum(base_conf()).unwrap();
    let (report, rows, engine) = run_group_sum(conf).unwrap();
    assert_eq!(rows, clean_rows, "failover changed query results");
    assert!(
        report.task_retries > 0,
        "some task's first replica must have been the dead node"
    );
    assert_eq!(engine.blacklisted_nodes(), vec![1]);
    assert_eq!(clean_report.task_retries, 0);
}

#[test]
fn speculative_execution_rescues_stragglers() {
    let slow_conf = |speculative: &str| {
        base_conf()
            // Each task reads only a few hundred bytes of these tiny ORC
            // files, so the per-MB penalty must be enormous for the
            // straggler to dwarf both task startup and the duplicate's
            // launch delay (threshold x median).
            .with(keys::DFS_FAULT_SLOW_NODES, "0")
            .with(keys::DFS_FAULT_SLOW_MS_PER_MB, "40000000")
            .with(keys::EXEC_SPECULATIVE, speculative)
            .with(keys::EXEC_SPECULATIVE_THRESHOLD, "1.2")
    };
    let (plain_report, plain_rows, _) = run_group_sum(slow_conf("false")).unwrap();
    assert_eq!(plain_report.speculative_tasks, 0);

    let (spec_report, spec_rows, _) = run_group_sum(slow_conf("true")).unwrap();
    assert_eq!(spec_rows, plain_rows, "speculation changed query results");
    assert!(
        spec_report.speculative_tasks > 0,
        "straggler tasks past threshold x median must spawn duplicates"
    );
    assert!(
        spec_report.sim_map_s < plain_report.sim_map_s,
        "winning duplicates must shorten the simulated map phase \
         (speculative {} s vs plain {} s)",
        spec_report.sim_map_s,
        plain_report.sim_map_s
    );
}
