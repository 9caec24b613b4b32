//! Stress tests for the parallel task runtime: many concurrent map tasks
//! over ORC, concurrent reducers, concurrent ORC writers sharing a
//! MemoryManager, and concurrent readers of one file.

use hive_common::config::keys;
use hive_common::{DataType, HiveConf, Result, Row, Schema, Value};
use hive_dfs::{Dfs, DfsConfig};
use hive_exec::agg::AggFunction;
use hive_exec::expr::ExprNode;
use hive_exec::graph::OperatorGraph;
use hive_exec::operators::{
    AggSpec, FileSinkOperator, GroupByMode, GroupByOperator, ReduceSinkOperator,
};
use hive_formats::orc::memory::MemoryManager;
use hive_formats::{create_writer, open_reader, FormatKind, ReadOptions, WriteOptions};
use hive_mapreduce::engine::{JobReport, MrEngine};
use hive_mapreduce::job::{JobInput, JobOutput, JobSpec, MapPipeline, ReducePipeline};
use std::collections::HashMap;
use std::sync::{Arc, Barrier};

const NUM_FILES: usize = 64;
const ROWS_PER_FILE: i64 = 1500;
const NUM_REDUCERS: usize = 8;

fn stress_schema() -> Schema {
    Schema::parse(&[("k", "bigint"), ("v", "bigint")]).unwrap()
}

/// 64 single-block ORC part files under one directory → ≥64 map tasks.
fn write_stress_tables(dfs: &Dfs, conf: &HiveConf, dir: &str, rows_per_file: i64) -> Schema {
    let schema = stress_schema();
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
        for i in 0..rows_per_file {
            let g = (f * rows_per_file + i) % 97;
            w.write_row(&Row::new(vec![Value::Int(g), Value::Int(i)]))
                .unwrap();
        }
        w.close().unwrap();
    }
    schema
}

/// Group by k, sum v, over every file under `dir`, with 8 reducers.
fn group_sum_job(schema: Schema, dir: &str) -> JobSpec {
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
    let reduce_factory: hive_mapreduce::job::ReducePipelineFactory = Arc::new(|| {
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
        name: "stress-group-sum".into(),
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

fn run_with_threads(threads: usize, rows_per_file: i64) -> (JobReport, Vec<Row>) {
    let dfs = Dfs::new(DfsConfig {
        block_size: 256 << 10,
        replication: 2,
        nodes: 4,
    });
    let conf = HiveConf::new()
        .with(keys::EXEC_WORKER_THREADS, threads.to_string())
        .with(keys::EXEC_SIM_DETERMINISTIC_CPU, "true");
    let schema = write_stress_tables(&dfs, &conf, "/warehouse/stress/", rows_per_file);
    let engine = MrEngine::new(dfs, conf);
    engine
        .run_job(&group_sum_job(schema, "/warehouse/stress/"))
        .unwrap()
}

fn assert_reports_identical(a: &JobReport, b: &JobReport) {
    assert_eq!(a.map_tasks, b.map_tasks);
    assert_eq!(a.reduce_tasks, b.reduce_tasks);
    assert_eq!(a.bytes_read, b.bytes_read);
    assert_eq!(a.bytes_shuffled, b.bytes_shuffled);
    assert_eq!(a.bytes_written, b.bytes_written);
    assert_eq!(a.shuffle_records, b.shuffle_records);
    assert_eq!(a.rows_out, b.rows_out);
    // With hive.exec.sim.deterministic.cpu these are bit-identical.
    assert_eq!(a.cpu_seconds.to_bits(), b.cpu_seconds.to_bits());
    assert_eq!(a.sim_map_s.to_bits(), b.sim_map_s.to_bits());
    assert_eq!(a.sim_reduce_s.to_bits(), b.sim_reduce_s.to_bits());
    assert_eq!(a.sim_total_s.to_bits(), b.sim_total_s.to_bits());
}

#[test]
fn stress_64_maps_8_reducers_parallel_matches_sequential() {
    let (seq_report, seq_rows) = run_with_threads(1, ROWS_PER_FILE);
    assert!(
        seq_report.map_tasks >= 64,
        "want ≥64 map tasks, got {}",
        seq_report.map_tasks
    );
    assert_eq!(seq_report.reduce_tasks, NUM_REDUCERS);
    assert_eq!(seq_rows.len(), 97);
    // Each file writes v = 0..ROWS_PER_FILE, so the grand total is fixed.
    let expected_total = NUM_FILES as i64 * (0..ROWS_PER_FILE).sum::<i64>();
    let got_total: i64 = seq_rows.iter().map(|r| r[1].as_int().unwrap()).sum();
    assert_eq!(got_total, expected_total);

    for threads in [2, 8] {
        let (par_report, par_rows) = run_with_threads(threads, ROWS_PER_FILE);
        // Exact row order too, not just content: the merge is by task index.
        assert_eq!(par_rows, seq_rows, "{threads} workers diverged");
        assert_reports_identical(&par_report, &seq_report);
    }
}

#[test]
fn map_only_collect_has_no_shuffle_state() {
    let dfs = Dfs::new(DfsConfig {
        block_size: 256 << 10,
        replication: 2,
        nodes: 4,
    });
    let conf = HiveConf::new().with(keys::EXEC_WORKER_THREADS, "4");
    let schema = write_stress_tables(&dfs, &conf, "/warehouse/maponly/", 100);
    let map_factory: hive_mapreduce::job::MapPipelineFactory = Arc::new(move |_side| {
        let mut graph = OperatorGraph::new();
        let fs = graph.add(Box::new(FileSinkOperator));
        let mut roots = HashMap::new();
        roots.insert("t".to_string(), fs);
        Ok(MapPipeline {
            graph,
            roots,
            vector: HashMap::new(),
        })
    });
    let spec = JobSpec {
        name: "map-only".into(),
        inputs: vec![JobInput {
            alias: "t".into(),
            paths: vec!["/warehouse/maponly/".into()],
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
    let (report, rows) = engine.run_job(&spec).unwrap();
    assert_eq!(report.reduce_tasks, 0);
    assert_eq!(report.shuffle_records, 0);
    assert_eq!(report.bytes_shuffled, 0);
    assert_eq!(rows.len(), NUM_FILES * 100);
}

/// ≥2× wall-clock speedup from the worker pool — only meaningful on hosts
/// with enough cores, so single/dual-core machines check nothing here.
#[test]
fn worker_pool_speeds_up_wall_clock_on_multicore() {
    let cores = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    if cores < 4 {
        eprintln!("skipping speedup assertion: only {cores} core(s)");
        return;
    }
    // Warm-up run so file-system and allocator effects don't skew run 1.
    let _ = run_with_threads(1, 2000);
    let t0 = std::time::Instant::now();
    let (_, rows_seq) = run_with_threads(1, 2000);
    let sequential = t0.elapsed();
    let t1 = std::time::Instant::now();
    let (_, rows_par) = run_with_threads(cores.min(8), 2000);
    let parallel = t1.elapsed();
    assert_eq!(rows_seq, rows_par);
    let speedup = sequential.as_secs_f64() / parallel.as_secs_f64().max(1e-9);
    assert!(
        speedup >= 2.0,
        "expected ≥2x speedup on {cores} cores, got {speedup:.2}x \
         (sequential {sequential:?}, parallel {parallel:?})"
    );
}

/// Genuinely concurrent ORC writers racing on one MemoryManager: stripe
/// scaling must stay consistent and every file must round-trip.
#[test]
fn concurrent_orc_writers_share_memory_manager() {
    let dfs = Dfs::new(DfsConfig {
        block_size: 1 << 20,
        replication: 1,
        nodes: 2,
    });
    let conf = HiveConf::new();
    let schema = stress_schema();
    let mm = MemoryManager::new(64 << 10);
    let writers = 8;
    let barrier = Arc::new(Barrier::new(writers));

    std::thread::scope(|s| {
        let handles: Vec<_> = (0..writers)
            .map(|w| {
                let (dfs, conf, schema, mm, barrier) =
                    (&dfs, &conf, &schema, mm.clone(), Arc::clone(&barrier));
                s.spawn(move || -> Result<()> {
                    barrier.wait(); // release all writers at the same instant
                    let path = format!("/orc/mm-{w}");
                    let mut writer = create_writer(
                        dfs,
                        &path,
                        schema,
                        conf,
                        &WriteOptions {
                            format: FormatKind::Orc,
                            memory: Some(mm),
                            ..Default::default()
                        },
                    )?;
                    for i in 0..5000i64 {
                        writer.write_row(&Row::new(vec![
                            Value::Int(i % 13),
                            Value::Int(w as i64 * 100_000 + i),
                        ]))?;
                    }
                    writer.close()?;
                    Ok(())
                })
            })
            .collect();
        for h in handles {
            h.join().expect("writer thread panicked").unwrap();
        }
    });

    // All registrations dropped with their writers.
    assert_eq!(mm.total_registered(), 0);
    assert_eq!(mm.scale(), 1.0);
    // Every file must be complete and readable despite stripe rescaling.
    for w in 0..writers {
        let mut r = open_reader(
            &dfs,
            &format!("/orc/mm-{w}"),
            &schema,
            &conf,
            &ReadOptions {
                format: FormatKind::Orc,
                ..Default::default()
            },
        )
        .unwrap();
        let mut n = 0i64;
        let mut sum = 0i64;
        while let Some(row) = r.next_row().unwrap() {
            n += 1;
            sum += row[1].as_int().unwrap();
        }
        assert_eq!(n, 5000, "writer {w} lost rows");
        assert_eq!(
            sum,
            (0..5000i64).map(|i| w as i64 * 100_000 + i).sum::<i64>()
        );
    }
}

/// Many tasks opening readers on the same ORC file at once (the map phase
/// does exactly this for multi-block files) must all see identical data.
#[test]
fn concurrent_readers_on_one_file() {
    let dfs = Dfs::new(DfsConfig {
        block_size: 1 << 20,
        replication: 2,
        nodes: 4,
    });
    let conf = HiveConf::new();
    let schema = stress_schema();
    let mut w = create_writer(
        &dfs,
        "/orc/shared",
        &schema,
        &conf,
        &WriteOptions {
            format: FormatKind::Orc,
            ..Default::default()
        },
    )
    .unwrap();
    for i in 0..10_000i64 {
        w.write_row(&Row::new(vec![Value::Int(i), Value::Int(i * 3)]))
            .unwrap();
    }
    w.close().unwrap();

    let barrier = Arc::new(Barrier::new(8));
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let (dfs, conf, schema, barrier) = (&dfs, &conf, &schema, Arc::clone(&barrier));
                s.spawn(move || {
                    barrier.wait();
                    let mut r = open_reader(
                        dfs,
                        "/orc/shared",
                        schema,
                        conf,
                        &ReadOptions {
                            format: FormatKind::Orc,
                            ..Default::default()
                        },
                    )
                    .unwrap();
                    let mut n = 0i64;
                    while let Some(row) = r.next_row().unwrap() {
                        assert_eq!(row[1], Value::Int(n * 3));
                        n += 1;
                    }
                    n
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().expect("reader thread panicked"), 10_000);
        }
    });
}
