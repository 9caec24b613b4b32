//! The traced run (`--trace 1`): per-layer metrics from three sources —
//! harness spans around the engine's public calls, the counters the engine
//! returns with every result, and standalone replays — and the trace file.

use crate::metrics::STATEMENT_KINDS;
use crate::pipeline::traced_execute;
use crate::run::{
    check_invariants, results_dir, run_rounds, setup_pass, Budget, Outcome, Phase, RunArgs, Tally,
};
use crate::stats::{median, percentile, ratio};
use crate::trace::{layer_self_times_ns, self_times_ns, Span, Tracer};
use crate::workload::{plain_execute, run_round, Bench, RoundRun, Script};
use crate::{acid, replay};
use hive_dfs::IoSnapshot;
use hive_obs::json::Json;
use std::collections::BTreeMap;

/// Traced rounds at least, whatever `--seconds` says.
const MIN_TRACED_ROUNDS: usize = 5;

type Metrics = BTreeMap<String, f64>;

fn put(m: &mut Metrics, name: &str, value: f64) {
    m.insert(name.to_string(), value);
}

/// The median, or 0 for what the workload never does (a statement class
/// it never issues, a compaction it never runs).
fn median_or_zero(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        median(samples)
    }
}

/// Sums of the counters the engine returns with each result.
#[derive(Default)]
pub struct Counters {
    jobs: f64,
    task_wall_s: f64,
    tasks: f64,
    shuffle_bytes: f64,
    shuffle_records: f64,
    task_retries: f64,
    sim_total_s: f64,
    map_row_op_ns: f64,
    reduce_row_op_ns: f64,
    vector_op_ns: f64,
    /// Rows into and out of `VectorFilter` operators. (`ScanProfile`'s own
    /// `vector_rows_out` counts what leaves the whole pipeline, group-by
    /// included, so it cannot tell how selective the filter was.)
    filter_rows_in: f64,
    filter_rows_out: f64,
    scan: hive_obs::ScanProfile,
}

impl Counters {
    pub fn add(&mut self, round: &RoundRun) {
        for result in round.executed.iter().filter_map(|e| e.result.as_ref().ok()) {
            let report = &result.report;
            self.jobs += report.jobs.len() as f64;
            self.task_wall_s += report.counters.cpu_seconds;
            self.tasks += report.counters.task_attempts as f64;
            self.shuffle_bytes += report.counters.bytes_shuffled as f64;
            self.shuffle_records += report.counters.shuffle_records as f64;
            self.task_retries += report.counters.task_retries as f64;
            self.sim_total_s += report.sim_total_s;
            for job in &report.jobs {
                self.scan.merge(&job.scan);
                let sides = [
                    (&job.map_operators, &mut self.map_row_op_ns),
                    (&job.reduce_operators, &mut self.reduce_row_op_ns),
                ];
                for (ops, row_ns) in sides {
                    for op in ops {
                        if op.name.starts_with("VectorFilter") {
                            self.filter_rows_in += op.rows_in as f64;
                            self.filter_rows_out += op.rows_out as f64;
                        }
                        if op.name.starts_with("Vector") {
                            self.vector_op_ns += op.cpu_ns as f64;
                        } else {
                            *row_ns += op.cpu_ns as f64;
                        }
                    }
                }
            }
        }
    }
}

/// ACID write-path figures of one cycle, taken around its statements.
#[derive(Default)]
struct AcidProbe {
    write_amp: Vec<f64>,
    delta_files: Vec<f64>,
}

/// An untraced round with the per-layer probes a measured round must not
/// carry: delta-chain length just before compaction, bytes written per
/// user byte over the cycle.
fn probed_round(bench: &mut Bench, probe: &mut AcidProbe) -> RoundRun {
    let dfs = bench.server.dfs().clone();
    let written_before = bench.io().bytes_written;
    let mut delta_files = None;
    let round = run_round(bench, &mut |stmt, session| {
        if stmt.kind == "compact" {
            delta_files = acid::delta_chain_len(&dfs).map(|n| n as f64);
        }
        plain_execute(stmt, session)
    });
    if let Script::Acid(script) = &bench.script {
        let written = bench.io().bytes_written - written_before;
        probe
            .write_amp
            .push(ratio(written as f64, script.user_bytes_last_cycle as f64));
        probe.delta_files.extend(delta_files);
    }
    round
}

/// The traced run: per-layer metrics, and the trace file.
pub fn traced(args: &RunArgs) -> Outcome {
    let mut tally = Tally::default();
    let (mut bench, _) = setup_pass(args, &mut tally);
    tally.add(&run_round(&mut bench, &mut plain_execute)); // warm-up
    let share = args.seconds / 3.0;

    // Untraced rounds: statement latencies and the engine's own counters.
    let io_before = bench.io();
    let mut probe = AcidProbe::default();
    let budget = Budget::new(args, share, 3);
    let untraced = run_rounds(&mut bench, budget, &mut tally, |bench| {
        probed_round(bench, &mut probe)
    });
    let io = bench.io().since(&io_before);

    // Traced rounds: the same statements through the decomposed pipeline.
    let mut tracer = Tracer::new();
    let mut stmt_kinds: Vec<&'static str> = vec![""]; // statement ids start at 1
    let traced = run_rounds(
        &mut bench,
        Budget::new(args, share, MIN_TRACED_ROUNDS),
        &mut tally,
        |bench| {
            run_round(bench, &mut |stmt, session| {
                stmt_kinds.push(stmt.kind);
                traced_execute(&mut tracer, stmt_kinds.len() as u64 - 1, stmt, session)
            })
        },
    );
    let statement_spans = tracer.spans().len();
    let mut violations = check_invariants(args, &mut bench, &io, &mut tally);
    // The mirror must plan what `execute` plans, not merely answer alike.
    let jobs_plain = untraced.counters.jobs / untraced.rounds();
    let jobs_traced = traced.counters.jobs / traced.rounds();
    if jobs_plain != jobs_traced {
        violations.push(format!(
            "the traced pipeline ran {jobs_traced} jobs a round, `execute` {jobs_plain}"
        ));
    }

    let mut m = Metrics::new();
    let spans = &tracer.spans()[..statement_spans];
    span_metrics(&mut m, spans, traced.rounds(), &mut violations);
    latency_metrics(&mut m, &untraced, spans, &stmt_kinds);
    counter_metrics(&mut m, &untraced.counters, &io, untraced.rounds());
    put(
        &mut m,
        "core.acid.write_amp",
        median_or_zero(&probe.write_amp),
    );
    put(
        &mut m,
        "core.acid.delta_files_at_compact",
        median_or_zero(&probe.delta_files),
    );
    put(
        &mut m,
        "bench.trace_overhead_ratio",
        median(&traced.walls_ms) / median(&untraced.walls_ms),
    );
    let replays = replay::run(&mut tracer, args.seed, args.scale, bench.server.metrics());
    for (name, value) in replays {
        put(&mut m, name, value);
    }

    write_trace_file(
        args,
        &tracer,
        statement_spans,
        traced.rounds(),
        &stmt_kinds,
        &m,
    );
    eprintln!(
        "{}: {} untraced and {} traced rounds, {} spans",
        args.workload,
        untraced.rounds(),
        traced.rounds(),
        tracer.spans().len()
    );
    tally.into_outcome(&args.workload, violations, m)
}

/// Time inside each harness span, per traced round.
fn span_metrics(m: &mut Metrics, spans: &[Span], rounds: f64, violations: &mut Vec<String>) {
    let total_us = |name: &str| {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e3)
            .sum::<f64>()
    };
    put(m, "ql.parse_us", total_us("ql.parse") / rounds);
    for pass in ["translate", "mapjoin", "correlation", "compile", "plan"] {
        let us = total_us(&format!("planner.{pass}")) / rounds;
        put(m, &format!("planner.{pass}_us"), us);
    }
    put(
        m,
        "mapreduce.run_dag_ms",
        total_us("mapreduce.run_dag") / 1e3 / rounds,
    );
    // The statement span's own time is the harness's glue between calls;
    // if it is not small the decomposition does not add up.
    let (glue, whole) = spans
        .iter()
        .zip(self_times_ns(spans))
        .filter(|(s, _)| s.parent.is_none())
        .fold((0, 0), |(g, w), (s, own)| (g + own, w + s.duration_ns()));
    let glue_share = ratio(glue as f64, whole as f64);
    if glue_share > 0.05 {
        violations.push(format!(
            "child spans cover only {:.1} % of the traced statements",
            100.0 - 100.0 * glue_share
        ));
    }
}

/// Statement latencies of the untraced rounds, and what `execute` costs
/// beyond the calls the traced pipeline makes in its place.
fn latency_metrics(m: &mut Metrics, untraced: &Phase, spans: &[Span], stmt_kinds: &[&str]) {
    let by_kind = &untraced.latencies;
    let mut tail = Vec::new();
    for kind in STATEMENT_KINDS {
        let latencies = by_kind.get(kind).map_or(&[][..], Vec::as_slice);
        let p50 = median_or_zero(latencies);
        put(m, &format!("core.stmt.{kind}.p50_ms"), p50);
        tail.extend(latencies.iter().map(|l| l / p50));
    }
    put(m, "core.stmt_tail_p95_ratio", percentile(&tail, 95.0));

    // Per traced SELECT (the statements with a `run_dag` child): the time
    // inside the statement span's direct children.
    let mut children_ms = vec![0.0; spans.len()];
    let mut is_select = vec![false; spans.len()];
    for s in spans {
        if let Some(p) = s.parent.filter(|&p| spans[p].parent.is_none()) {
            children_ms[p] += s.duration_ns() as f64 / 1e6;
            is_select[p] |= s.name == "mapreduce.run_dag";
        }
    }
    let mut decomposed: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for (id, s) in spans.iter().enumerate().filter(|&(id, _)| is_select[id]) {
        decomposed
            .entry(stmt_kinds[s.stmt as usize])
            .or_default()
            .push(children_ms[id]);
    }
    // Compared class by class at the median, summed over a round.
    let overhead_ms: f64 = decomposed
        .iter()
        .map(|(kind, parts)| {
            let per_round = by_kind[kind].len() as f64 / untraced.rounds();
            per_round * (median(&by_kind[kind]) - median(parts))
        })
        .sum();
    put(m, "core.overhead_us", overhead_ms * 1e3);
}

/// The engine's own counters, per untraced round.
fn counter_metrics(m: &mut Metrics, c: &Counters, io: &IoSnapshot, rounds: f64) {
    let scan = &c.scan;
    // Rows the readers decoded per row that survived the scan's filter
    // (unfiltered scans keep every row): the decode a lazier reader saves.
    let decoded = scan.rows_read as f64;
    let selected = decoded - c.filter_rows_in + c.filter_rows_out;
    let meta_hits = (scan.footer_cache_hits + scan.index_cache_hits) as f64;
    let meta_misses = (scan.footer_cache_misses + scan.index_cache_misses) as f64;
    let per_round = [
        ("planner.jobs", c.jobs),
        ("mapreduce.task_wall_ms", c.task_wall_s * 1e3),
        ("mapreduce.tasks", c.tasks),
        ("mapreduce.shuffle_bytes", c.shuffle_bytes),
        ("mapreduce.shuffle_records", c.shuffle_records),
        ("mapreduce.task_retries", c.task_retries),
        ("mapreduce.sim_total_s", c.sim_total_s),
        ("exec.map_op_ms", c.map_row_op_ns / 1e6),
        ("exec.reduce_op_ms", c.reduce_row_op_ns / 1e6),
        ("vector.op_ms", c.vector_op_ns / 1e6),
        ("vector.batches", scan.batches as f64),
        (
            "formats.groups_bloom_pruned",
            scan.groups_bloom_pruned as f64,
        ),
        ("formats.delta_rows_read", scan.delta_rows_read as f64),
        ("formats.rows_masked", scan.rows_masked as f64),
        ("dfs.bytes_read", io.bytes_read() as f64),
        ("dfs.bytes_written", io.bytes_written as f64),
        ("dfs.read_ops", io.read_ops as f64),
        ("dfs.seeks", io.seeks as f64),
        ("dfs.cache_evictions", io.cache_evictions as f64),
    ];
    for (name, total) in per_round {
        put(m, name, total / rounds);
    }
    let ratios = [
        (
            "vector.selected_density",
            c.filter_rows_out,
            c.filter_rows_in,
        ),
        ("formats.rows_decoded_per_selected", decoded, selected),
        (
            "formats.groups_read_ratio",
            scan.groups_read as f64,
            scan.groups_total as f64,
        ),
        (
            "formats.meta_cache_hit_ratio",
            meta_hits,
            meta_hits + meta_misses,
        ),
        (
            "dfs.local_read_ratio",
            io.bytes_local as f64,
            io.bytes_read() as f64,
        ),
        (
            "dfs.cache_hit_ratio",
            io.cache_hits as f64,
            (io.cache_hits + io.cache_misses) as f64,
        ),
    ];
    for (name, part, whole) in ratios {
        put(m, name, ratio(part, whole));
    }
}

/// `results/trace-<workload>.json`: the spans in Chrome trace-event form
/// plus what the harness derived from them.
fn write_trace_file(
    args: &RunArgs,
    tracer: &Tracer,
    statement_spans: usize,
    traced_rounds: f64,
    stmt_kinds: &[&str],
    metrics: &Metrics,
) {
    let layers = layer_self_times_ns(&tracer.spans()[..statement_spans]);
    let mut self_time = Json::obj();
    for (layer, ns) in layers {
        self_time.push(layer, Json::F64(ns as f64 / 1e3 / traced_rounds));
    }
    let mut all = Json::obj();
    for (name, value) in metrics {
        all.push(name, Json::F64(*value));
    }
    let kinds = stmt_kinds
        .iter()
        .map(|k| Json::Str(k.to_string()))
        .collect();
    let mut root = Json::obj();
    root.push("workload", Json::Str(args.workload.clone()))
        .push("seed", Json::U64(args.seed))
        .push("traced_rounds", Json::F64(traced_rounds))
        .push("layer_self_time_us_per_round", self_time)
        .push("statement_kinds", Json::Array(kinds))
        .push("metrics", all)
        .push("displayTimeUnit", Json::Str("ms".to_string()))
        .push("traceEvents", tracer.to_chrome_json());
    let dir = results_dir();
    let path = dir.join(format!("trace-{}.json", args.workload));
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, root.render()))
    {
        eprintln!("cannot write {}: {e}", path.display());
    }
}
