//! The MapReduce engine: real execution + simulated cluster timing.
//!
//! This module is the scheduler: the DAG and job runners and the task
//! attempt loop. The tasks themselves live beside it: [`splits`] plans the
//! map side's input, [`map_task`] and [`reduce_task`] run one task each,
//! [`output`] takes what leaves their operator graphs, and [`shuffle`] is
//! what passes between them.

mod map_task;
mod output;
mod reduce_task;
pub mod shuffle;
mod splits;

use crate::cost::{CostModel, TaskWork};
use crate::job::{JobOutput, JobSpec};
use hive_common::{config::keys, CancelToken, HiveConf, HiveError, Result, Row};
use hive_dfs::{Dfs, IoScope, IoSnapshot};
use hive_obs::profile::merge_profiles;
use hive_obs::{ExecCounters, OpProfile, ScanProfile};
use map_task::MapTaskResult;
pub use map_task::SideReader;
use shuffle::Run;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::ops::{Deref, DerefMut};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering as AtomicOrdering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Per-row CPU charge substituted for measured wall-clock CPU when
/// `hive.exec.sim.deterministic.cpu` is on, making simulated times
/// bit-identical across runs regardless of host load or worker count.
const DETERMINISTIC_CPU_S_PER_ROW: f64 = 2.0e-6;

/// Execution summary of one job.
///
/// All additive counters live in one [`ExecCounters`] block (reachable
/// through `Deref`, so `report.cpu_seconds` still reads naturally);
/// [`DagReport::accumulate_job`] is a derived field-wise merge instead of
/// a hand-maintained per-field sum. The report also carries the job's
/// observability payload: merged per-operator profiles, the input-side
/// scan profile, and each task's simulated duration.
#[derive(Debug, Clone, Default)]
pub struct JobReport {
    pub name: String,
    pub map_tasks: usize,
    pub reduce_tasks: usize,
    /// Simulated elapsed seconds of the Map phase (incl. startup waves).
    pub sim_map_s: f64,
    /// Simulated elapsed seconds of shuffle + Reduce.
    pub sim_reduce_s: f64,
    pub sim_total_s: f64,
    /// Additive execution counters (CPU, bytes, attempts, ...).
    pub counters: ExecCounters,
    /// Input-side scan profile: reader rows/batches, vectorized
    /// selected-lane flow, ORC stripe/index-group pruning.
    pub scan: ScanProfile,
    /// Map-side operator profiles, merged across tasks by operator index.
    pub map_operators: Vec<OpProfile>,
    /// Reduce-side operator profiles, merged across tasks.
    pub reduce_operators: Vec<OpProfile>,
    /// Simulated duration of each task's winning attempt (map then
    /// reduce, by index).
    pub task_sim_s: Vec<f64>,
    /// Replica-aware split planning decisions: one `(path, variant,
    /// column)` per input file the planner steered to a sorted copy instead
    /// of the base replica, `column` the predicate column the copy's footer
    /// says it is ordered on.
    pub replica_choices: Vec<(String, usize, String)>,
}

impl Deref for JobReport {
    type Target = ExecCounters;
    fn deref(&self) -> &ExecCounters {
        &self.counters
    }
}

impl DerefMut for JobReport {
    fn deref_mut(&mut self) -> &mut ExecCounters {
        &mut self.counters
    }
}

/// One finished job: its report and collected output rows.
type JobRun = (JobReport, Vec<Row>);

/// Execution summary of a job DAG (one query). Counters are the
/// field-wise sum of every job's [`ExecCounters`] (so `rows_out` counts
/// every job's output rows, including intermediate ones).
#[derive(Debug, Clone, Default)]
pub struct DagReport {
    pub jobs: Vec<JobReport>,
    pub sim_total_s: f64,
    /// Additive counters summed over all jobs.
    pub counters: ExecCounters,
    /// Nodes blacklisted from replica selection during this DAG (sorted).
    pub blacklisted_nodes: Vec<usize>,
}

impl Deref for DagReport {
    type Target = ExecCounters;
    fn deref(&self) -> &ExecCounters {
        &self.counters
    }
}

impl DerefMut for DagReport {
    fn deref_mut(&mut self) -> &mut ExecCounters {
        &mut self.counters
    }
}

/// The engine. Jobs execute for real; elapsed time is simulated.
pub struct MrEngine {
    pub dfs: Dfs,
    pub conf: HiveConf,
    pub cost: CostModel,
    /// Retryable failures attributed to each node; nodes past
    /// `mapred.max.tracker.failures` are excluded from replica selection,
    /// like Hadoop's tracker blacklist.
    node_failures: Mutex<HashMap<usize, u32>>,
    /// Cooperative preemption handle installed by the workload manager.
    /// Polled between jobs, between task claims, and at the top of every
    /// attempt; `None` (the default) means the statement is not
    /// preemptible and execution is exactly as before.
    cancel: Option<Arc<CancelToken>>,
}

// `run_dag` shares `&MrEngine` across job-runner threads.
const _: () = {
    const fn assert_sync<T: Sync>() {}
    assert_sync::<MrEngine>();
};

/// Base of the exponential sim-time backoff between task attempts, in
/// simulated seconds (attempt k waits `base * 2^k`).
const TASK_RETRY_BACKOFF_S: f64 = 1.0;

/// What came out of running one task through the attempt loop: the final
/// result plus everything the failed attempts cost.
struct TaskOutcome<T> {
    result: Result<T>,
    attempts: u32,
    /// I/O burned by failed attempts (the winner's I/O is in `result`).
    failed_io: IoSnapshot,
    /// Wall-clock burned by failed attempts.
    failed_wall_s: f64,
    /// Accumulated exponential backoff, in simulated seconds.
    backoff_s: f64,
}

impl<T> TaskOutcome<T> {
    fn worker_died() -> TaskOutcome<T> {
        TaskOutcome {
            result: Err(HiveError::TaskFailed("task worker thread died".into())),
            attempts: 1,
            failed_io: IoSnapshot::default(),
            failed_wall_s: 0.0,
            backoff_s: 0.0,
        }
    }
}

/// A job's intermediate output directory, without a trailing `/`.
fn intermediate_dir(job: &JobSpec) -> Option<&str> {
    match &job.output {
        JobOutput::Intermediate { path_prefix } => Some(path_prefix.trim_end_matches('/')),
        JobOutput::Collect => None,
    }
}

/// Whether `job` reads directory `dir`, as input or side input.
fn reads(job: &JobSpec, dir: &str) -> bool {
    let under = format!("{dir}/");
    job.inputs
        .iter()
        .flat_map(|inp| &inp.paths)
        .chain(job.side_inputs.iter().flat_map(|s| &s.paths))
        .any(|p| p.starts_with(&under) || p.trim_end_matches('/') == dir)
}

/// A DAG's intermediate directories, each with the jobs that still need
/// it: the jobs that read it, or the one that writes it when none does. A
/// directory is deleted as soon as the last of them is done; whatever is
/// left when the DAG ends — finished, failed, preempted or panicked — is
/// deleted on drop.
struct Scratch<'a> {
    dfs: &'a Dfs,
    dirs: Vec<(&'a str, Vec<usize>)>,
}

impl<'a> Scratch<'a> {
    fn new(dfs: &'a Dfs, jobs: &'a [JobSpec]) -> Scratch<'a> {
        let dirs = jobs
            .iter()
            .enumerate()
            .filter_map(|(i, job)| {
                let dir = intermediate_dir(job)?;
                let readers: Vec<usize> = (i + 1..jobs.len())
                    .filter(|&j| reads(&jobs[j], dir))
                    .collect();
                Some((dir, if readers.is_empty() { vec![i] } else { readers }))
            })
            .collect();
        Scratch { dfs, dirs }
    }

    /// Job `j` finished: delete every directory no other job still needs.
    fn done(&mut self, j: usize) {
        let dfs = self.dfs;
        self.dirs.retain_mut(|(dir, waiting)| {
            waiting.retain(|&w| w != j);
            if waiting.is_empty() {
                delete_dir(dfs, dir);
            }
            !waiting.is_empty()
        });
    }
}

impl Drop for Scratch<'_> {
    fn drop(&mut self) {
        for (dir, _) in &self.dirs {
            delete_dir(self.dfs, dir);
        }
    }
}

fn delete_dir(dfs: &Dfs, dir: &str) {
    for path in dfs.list(&format!("{dir}/")) {
        dfs.delete(&path);
    }
}

/// Best-effort text of a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("task panicked: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("task panicked: {s}")
    } else {
        "task panicked".into()
    }
}

impl MrEngine {
    pub fn new(dfs: Dfs, conf: HiveConf) -> MrEngine {
        MrEngine {
            dfs,
            conf,
            cost: CostModel::default(),
            node_failures: Mutex::new(HashMap::new()),
            cancel: None,
        }
    }

    /// Make this engine preemptible: execution polls `cancel` at its
    /// checkpoints and unwinds with [`HiveError::Preempted`] once the
    /// workload manager fires it.
    pub fn with_cancel(mut self, cancel: Arc<CancelToken>) -> MrEngine {
        self.cancel = Some(cancel);
        self
    }

    /// Cooperative cancellation checkpoint (no-op without a token).
    fn checkpoint(&self) -> Result<()> {
        match &self.cancel {
            Some(c) => c.check(),
            None => Ok(()),
        }
    }

    /// Worker threads used to run one job's tasks. `hive.exec.worker.threads`
    /// of `0` means one per core the host exposes.
    pub fn worker_threads(&self) -> usize {
        match self.conf.get_usize(keys::EXEC_WORKER_THREADS) {
            Ok(n) if n > 0 => n,
            _ => std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1),
        }
    }

    fn deterministic_cpu(&self) -> bool {
        self.conf
            .get_bool(keys::EXEC_SIM_DETERMINISTIC_CPU)
            .unwrap_or(false)
    }

    /// CPU seconds charged to the cost model for one task.
    fn task_cpu(&self, measured_s: f64, rows_processed: u64) -> f64 {
        if self.deterministic_cpu() {
            rows_processed as f64 * DETERMINISTIC_CPU_S_PER_ROW
        } else {
            measured_s
        }
    }

    /// Operator profiles with measured CPU replaced by the deterministic
    /// per-row constant when `hive.exec.sim.deterministic.cpu` is on, so
    /// `EXPLAIN ANALYZE` output is bit-identical across runs and
    /// worker-thread counts.
    fn finalize_profiles(&self, mut profiles: Vec<OpProfile>) -> Vec<OpProfile> {
        if self.deterministic_cpu() {
            for p in &mut profiles {
                p.cpu_ns = (p.rows_in as f64 * DETERMINISTIC_CPU_S_PER_ROW * 1e9) as u64;
            }
        }
        profiles
    }

    /// Per-phase retry budget from `mapred.{map,reduce}.max.attempts`.
    fn max_attempts(&self, attempts_key: &str) -> Result<u32> {
        Ok(self.conf.get_usize(attempts_key)?.max(1) as u32)
    }

    /// Nodes a task may cause to fail before they stop being scheduled.
    fn tracker_failure_limit(&self) -> u32 {
        self.conf
            .get_usize(keys::MAX_TRACKER_FAILURES)
            .unwrap_or(3)
            .max(1) as u32
    }

    fn record_node_failure(&self, node: usize) {
        let mut failures = self.node_failures.lock().unwrap_or_else(|e| e.into_inner());
        *failures.entry(node).or_insert(0) += 1;
    }

    fn node_blacklisted(&self, node: usize) -> bool {
        let limit = self.tracker_failure_limit();
        self.node_failures
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(&node)
            .is_some_and(|&c| c >= limit)
    }

    /// Nodes currently excluded from replica selection, sorted.
    pub fn blacklisted_nodes(&self) -> Vec<usize> {
        let limit = self.tracker_failure_limit();
        let failures = self.node_failures.lock().unwrap_or_else(|e| e.into_inner());
        let mut out: Vec<usize> = failures
            .iter()
            .filter(|(_, &c)| c >= limit)
            .map(|(&n, _)| n)
            .collect();
        out.sort_unstable();
        out
    }

    /// The task-attempt loop: run one task under `catch_unwind`, retrying
    /// retryable failures (including panics, which Hadoop retries like any
    /// crashed task JVM) with exponential simulated backoff, up to the
    /// `max_attempts` budget. Never panics; never aborts the process.
    fn run_attempts<T, F>(&self, i: usize, max_attempts: u32, run: &F) -> TaskOutcome<T>
    where
        F: Fn(usize, u32) -> Result<T> + Sync,
    {
        let mut failed_io = IoSnapshot::default();
        let mut failed_wall_s = 0.0;
        let mut backoff_s = 0.0;
        let mut attempt = 0u32;
        loop {
            // Preemption checkpoint: abandoning work between attempts (and
            // before the first — workers reach here on every task claim) is
            // always safe. `Preempted` is not retryable, so it falls through
            // the match below and unwinds the whole statement.
            if let Err(e) = self.checkpoint() {
                return TaskOutcome {
                    result: Err(e),
                    attempts: attempt.max(1),
                    failed_io,
                    failed_wall_s,
                    backoff_s,
                };
            }
            // A scope of our own so a *failed* attempt's I/O is still
            // attributed and priced (the bytes went over the wire before
            // the attempt died). The guard lives inside the closure so an
            // unwinding attempt drops it in LIFO order.
            let scope = IoScope::new();
            let t0 = Instant::now();
            let result = catch_unwind(AssertUnwindSafe(|| {
                let _g = scope.enter();
                run(i, attempt)
            }))
            .unwrap_or_else(|payload| Err(HiveError::TaskFailed(panic_message(payload.as_ref()))));
            match result {
                Err(e) if e.is_retryable() && attempt + 1 < max_attempts => {
                    failed_io = failed_io.plus(&scope.snapshot());
                    failed_wall_s += t0.elapsed().as_secs_f64();
                    backoff_s += TASK_RETRY_BACKOFF_S * (1u64 << attempt.min(16)) as f64;
                    attempt += 1;
                }
                result => {
                    return TaskOutcome {
                        result,
                        attempts: attempt + 1,
                        failed_io,
                        failed_wall_s,
                        backoff_s,
                    }
                }
            }
        }
    }

    /// Run `n` independent tasks on a bounded worker pool, each through the
    /// attempt loop, and return their outcomes in task-index order. Workers
    /// claim indices from a shared atomic counter; because results are
    /// re-assembled by index (and callers fail on the first failing index),
    /// the outcome is identical to running the tasks sequentially. A worker
    /// thread dying (impossible short of `abort`, since attempts are caught)
    /// surfaces as `TaskFailed` outcomes, never a process abort.
    fn run_tasks<T, F>(&self, n: usize, max_attempts: u32, run: F) -> Vec<TaskOutcome<T>>
    where
        T: Send,
        F: Fn(usize, u32) -> Result<T> + Sync,
    {
        let threads = self.worker_threads().min(n).max(1);
        if threads == 1 {
            return (0..n)
                .map(|i| self.run_attempts(i, max_attempts, &run))
                .collect();
        }
        let next = AtomicUsize::new(0);
        let mut slots: Vec<Option<TaskOutcome<T>>> = (0..n).map(|_| None).collect();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    s.spawn(|| {
                        let mut out = Vec::new();
                        loop {
                            let i = next.fetch_add(1, AtomicOrdering::Relaxed);
                            if i >= n {
                                break;
                            }
                            out.push((i, self.run_attempts(i, max_attempts, &run)));
                        }
                        out
                    })
                })
                .collect();
            for h in handles {
                if let Ok(list) = h.join() {
                    for (i, r) in list {
                        slots[i] = Some(r);
                    }
                }
            }
        });
        slots
            .into_iter()
            .map(|slot| slot.unwrap_or_else(TaskOutcome::worker_died))
            .collect()
    }

    /// Run a query's jobs in dependency order; returns the final job's
    /// collected rows. Jobs run in groups, one group after another, and a
    /// group's simulated time is the max over its jobs. With
    /// `hive.exec.parallel` off (Hive's default) each job is a group of its
    /// own, so simulated times add up. With it on, jobs are topologically
    /// staged by their intermediate input/output paths and each stage is a
    /// group whose jobs run concurrently.
    ///
    /// Intermediate outputs live only as long as the DAG needs them: each
    /// directory is deleted once the last job reading it is done, and none
    /// outlives the call, whatever way it ends ([`Scratch`]).
    pub fn run_dag(&self, jobs: &[JobSpec]) -> Result<(DagReport, Vec<Row>)> {
        let mut scratch = Scratch::new(&self.dfs, jobs);
        let groups: Vec<Vec<usize>> = if self.conf.get_bool(keys::EXEC_PARALLEL).unwrap_or(false) {
            let stage_of = Self::stage_jobs(jobs);
            let stages = stage_of.iter().max().map_or(0, |&last| last + 1);
            let stage = |s| (0..jobs.len()).filter(|&j| stage_of[j] == s).collect();
            (0..stages).map(stage).collect()
        } else {
            (0..jobs.len()).map(|j| vec![j]).collect()
        };
        let mut report = DagReport::default();
        let mut runs: Vec<Option<JobRun>> = (0..jobs.len()).map(|_| None).collect();
        for group in groups {
            self.checkpoint()?; // between-groups preemption checkpoint
            let ran: Vec<(usize, Result<JobRun>)> = match group[..] {
                [j] => vec![(j, self.run_job_caught(&jobs[j]))],
                _ => std::thread::scope(|s| {
                    let handles: Vec<_> = group
                        .iter()
                        .map(|&j| (j, s.spawn(move || self.run_job_caught(&jobs[j]))))
                        .collect();
                    // `run_job_caught` converts panics, so a join error
                    // means the runner thread itself died — report it as a
                    // failed job instead of aborting the process.
                    let died = || Err(HiveError::TaskFailed("job runner thread died".into()));
                    let joined = handles.into_iter().map(|(j, h)| (j, h.join()));
                    joined
                        .map(|(j, r)| (j, r.unwrap_or_else(|_| died())))
                        .collect()
                }),
            };
            // In job order: the first failing job wins, independent of
            // thread timing.
            let mut group_s = 0.0f64;
            for (j, run) in ran {
                let run = run?;
                scratch.done(j);
                group_s = group_s.max(run.0.sim_total_s);
                runs[j] = Some(run);
            }
            report.sim_total_s += group_s;
        }
        let mut last_rows = Vec::new();
        for (jr, rows) in runs
            .into_iter()
            .map(|run| run.expect("every job ran in its group"))
        {
            Self::accumulate_job(&mut report, &jr);
            report.jobs.push(jr);
            last_rows = rows;
        }
        report.blacklisted_nodes = self.blacklisted_nodes();
        Ok((report, last_rows))
    }

    /// Derived, not hand-maintained: every field of [`ExecCounters`] is
    /// summed by the macro-generated merge, so a counter added to the
    /// block aggregates here automatically.
    fn accumulate_job(report: &mut DagReport, jr: &JobReport) {
        report.counters.merge(&jr.counters);
    }

    /// [`run_job`](Self::run_job) with engine-level panics (outside the
    /// per-task `catch_unwind`) converted to `TaskFailed` errors.
    fn run_job_caught(&self, spec: &JobSpec) -> Result<JobRun> {
        catch_unwind(AssertUnwindSafe(|| self.run_job(spec)))
            .unwrap_or_else(|payload| Err(HiveError::TaskFailed(panic_message(payload.as_ref()))))
    }

    /// Topological stage of each job: a job reading another's intermediate
    /// output directory (as input or side input) lands in a later stage.
    fn stage_jobs(jobs: &[JobSpec]) -> Vec<usize> {
        let mut stage_of = vec![0usize; jobs.len()];
        for j in 0..jobs.len() {
            for i in 0..j {
                if intermediate_dir(&jobs[i]).is_some_and(|dir| reads(&jobs[j], dir)) {
                    stage_of[j] = stage_of[j].max(stage_of[i] + 1);
                }
            }
        }
        stage_of
    }

    /// Simulated duration of a winning map attempt.
    fn map_attempt_seconds(&self, res: &MapTaskResult, side_load_s: f64) -> f64 {
        let work = TaskWork {
            bytes_local: res.io.bytes_local,
            bytes_remote: res.io.bytes_remote,
            seeks: res.io.seeks,
            bytes_written: res.written,
            cpu_seconds: res.cpu_seconds,
            shuffle_records: res.shuffle_records,
            sim_penalty_s: res.io.sim_penalty_seconds(),
        };
        self.cost.task_seconds(&work) + side_load_s
    }

    /// Extra simulated time a task's failed attempts cost: each failed
    /// attempt pays startup + the I/O it burned before dying, then the
    /// exponential backoff before the next launch. CPU goes through
    /// [`task_cpu`](Self::task_cpu), so deterministic-CPU mode charges a
    /// failed attempt zero CPU (it processed no complete rows) and stays
    /// bit-reproducible.
    fn retry_overhead_seconds<T>(&self, outcome: &TaskOutcome<T>) -> f64 {
        let retries = outcome.attempts.saturating_sub(1) as f64;
        if retries == 0.0 {
            return 0.0;
        }
        let failed_work = TaskWork {
            bytes_local: outcome.failed_io.bytes_local,
            bytes_remote: outcome.failed_io.bytes_remote,
            seeks: outcome.failed_io.seeks,
            bytes_written: outcome.failed_io.bytes_written,
            cpu_seconds: self.task_cpu(outcome.failed_wall_s, 0),
            shuffle_records: 0,
            sim_penalty_s: outcome.failed_io.sim_penalty_seconds(),
        };
        self.cost.task_seconds(&failed_work)
            + (retries - 1.0) * self.cost.task_startup_s
            + outcome.backoff_s
    }

    /// Execute one job; returns its report and (for `Collect` jobs) rows.
    pub fn run_job(&self, spec: &JobSpec) -> Result<(JobReport, Vec<Row>)> {
        let mut report = JobReport {
            name: spec.name.clone(),
            ..Default::default()
        };
        let map_attempts = self.max_attempts(keys::MAP_MAX_ATTEMPTS)?;

        // --- Side inputs (distributed cache), retried like a task ------
        // (a transient DFS fault while building the cache must not kill
        // the query). Each side's table is built here, once, and every map
        // task below probes it. Scoped attribution instead of global
        // snapshot deltas: another job may be running concurrently on this
        // DFS (`hive.exec.parallel`).
        let side_outcome = self.run_attempts(0, map_attempts, &|_i, _attempt| {
            let scope = IoScope::new();
            let loaded = {
                let _g = scope.enter();
                // A range map join's sides are built by each map task.
                let broadcast = spec.side_inputs.iter().filter(|s| s.ranged.is_none());
                self.load_side_inputs(broadcast)?
            };
            Ok((loaded, scope.snapshot()))
        });
        report.task_retries += side_outcome.attempts.saturating_sub(1) as u64;
        let side_delay_s = self.retry_overhead_seconds(&side_outcome);
        let ((side, side_rows_skipped), side_io) = side_outcome.result?;
        report.rows_skipped += side_rows_skipped;
        // The simulated clock charges every map task a local read of the
        // cached side files, as Hadoop's tasks each load the cache.
        let side_load_s = side_io.bytes_read() as f64 / self.cost.local_read_bw;
        report.bytes_read += side_io.bytes_read();

        // --- Plan splits. ----------------------------------------------
        // The footers planning reads (sorted copies, key-range bounds) are
        // the job's reads too.
        let plan_scope = IoScope::new();
        let (splits, replica_choices) = {
            let _g = plan_scope.enter();
            self.compute_splits(&spec.inputs)?
        };
        report.bytes_read += plan_scope.snapshot().bytes_read();
        report.replica_choices = replica_choices;
        report.map_tasks = splits.len();
        let num_reducers = if spec.reduce_factory.is_some() {
            spec.num_reducers.max(1)
        } else {
            0
        };

        // --- Map phase: all tasks on the worker pool. ------------------
        // Each task builds its own pipeline and writes into task-local
        // partition buffers; the merge below is ordered by task index, so
        // results are identical whatever the worker interleaving was.
        let outcomes = self.run_tasks(splits.len(), map_attempts, |task_idx, attempt| {
            let node = self.pick_map_node(&splits[task_idx], attempt);
            let result =
                self.run_map_task(spec, &splits[task_idx], task_idx, node, &side, num_reducers);
            if let Err(e) = &result {
                // Environmental failures count against the node; panics
                // and deterministic errors are the task's own fault.
                if matches!(e, HiveError::Transient(_) | HiveError::Corrupt(_)) {
                    self.record_node_failure(node);
                }
            }
            result
        });

        // First failing task index wins, independent of worker timing.
        let mut winners: Vec<(MapTaskResult, TaskOutcome<()>)> = Vec::with_capacity(outcomes.len());
        for outcome in outcomes {
            let TaskOutcome {
                result,
                attempts,
                failed_io,
                failed_wall_s,
                backoff_s,
            } = outcome;
            let meta = TaskOutcome {
                result: Ok(()),
                attempts,
                failed_io,
                failed_wall_s,
                backoff_s,
            };
            winners.push((result?, meta));
        }
        let mut map_durations: Vec<f64> = winners
            .iter()
            .map(|(res, meta)| {
                self.map_attempt_seconds(res, side_load_s) + self.retry_overhead_seconds(meta)
            })
            .collect();

        // --- Speculative execution (map phase only). -------------------
        // Tasks past `threshold × median` duration get one duplicate
        // attempt on another node, launched (in simulated time) when the
        // straggle is detected; whichever attempt finishes first in
        // simulated time wins. Both attempts process the same split with
        // the same deterministic pipeline, so the winning result is
        // byte-identical either way and the index-ordered merge below is
        // unaffected — speculation can only change *timing*, never output.
        let speculate = self.conf.get_bool(keys::EXEC_SPECULATIVE)? && winners.len() >= 2;
        let mut speculative_launched = 0u64;
        let mut speculative_cpu_s = 0.0;
        let mut speculative_bytes = 0u64;
        if speculate {
            let threshold = self
                .conf
                .get_f64(keys::EXEC_SPECULATIVE_THRESHOLD)?
                .max(1.0);
            let mut sorted = map_durations.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(Ordering::Equal));
            let median = sorted[sorted.len() / 2];
            for i in 0..winners.len() {
                // Preemption checkpoint: don't launch new speculative
                // duplicates for a statement that is being cancelled.
                self.checkpoint()?;
                if median <= 0.0 || map_durations[i] <= threshold * median {
                    continue;
                }
                let avoid = winners[i].0.node;
                let Some(alt) = self.pick_speculative_node(&splits[i], avoid) else {
                    continue;
                };
                speculative_launched += 1;
                let duplicate = catch_unwind(AssertUnwindSafe(|| {
                    self.run_map_task(spec, &splits[i], i, alt, &side, num_reducers)
                }))
                .unwrap_or_else(|payload| {
                    Err(HiveError::TaskFailed(panic_message(payload.as_ref())))
                });
                if let Ok(dup) = duplicate {
                    // The duplicate launches once the straggle is evident.
                    let launch_at = threshold * median;
                    let dup_done = launch_at + self.map_attempt_seconds(&dup, side_load_s);
                    speculative_cpu_s += dup.cpu_seconds;
                    speculative_bytes += dup.io.bytes_read();
                    if dup_done < map_durations[i] {
                        map_durations[i] = dup_done;
                        winners[i].0 = dup;
                    }
                }
            }
        }

        // --- Deterministic merge by task index. ------------------------
        // Each reducer gets its runs in task order: the merge breaks ties
        // by run index. Map-only jobs have no runs at all.
        let mut partitions: Vec<Vec<Run>> = (0..num_reducers).map(|_| Vec::new()).collect();
        let mut collected: Vec<Row> = Vec::new();
        for (res, meta) in winners {
            for (p, run) in res.partitions.into_iter().enumerate() {
                partitions[p].push(run);
            }
            collected.extend(res.task_out);
            report.cpu_seconds += res.cpu_seconds + self.task_cpu(meta.failed_wall_s, 0);
            report.bytes_read += res.io.bytes_read() + meta.failed_io.bytes_read();
            report.bytes_written += res.written;
            report.shuffle_records += res.shuffle_records;
            report.rows_skipped += res.rows_skipped;
            report.task_attempts += meta.attempts as u64;
            report.task_retries += meta.attempts.saturating_sub(1) as u64;
            merge_profiles(&mut report.map_operators, &res.op_profiles);
            report.scan.merge(&res.scan);
        }
        report.task_attempts += speculative_launched;
        report.speculative_tasks += speculative_launched;
        report.cpu_seconds += speculative_cpu_s;
        report.bytes_read += speculative_bytes;
        report.sim_map_s = self.cost.schedule(&map_durations) + side_delay_s;
        report.task_sim_s = map_durations;

        // --- Reduce phase: partitions fan out to the pool the same way. -
        let reduce_attempts = self.max_attempts(keys::REDUCE_MAX_ATTEMPTS)?;
        let mut reduce_durations = Vec::new();
        if let Some(reduce_factory) = &spec.reduce_factory {
            report.reduce_tasks = num_reducers;
            let reduce_outcomes = self.run_tasks(num_reducers, reduce_attempts, |r, _attempt| {
                self.run_reduce_task(spec, reduce_factory, r, &partitions[r])
            });
            for outcome in reduce_outcomes {
                let overhead_s = self.retry_overhead_seconds(&outcome);
                report.task_attempts += outcome.attempts as u64;
                report.task_retries += outcome.attempts.saturating_sub(1) as u64;
                report.cpu_seconds += self.task_cpu(outcome.failed_wall_s, 0);
                report.bytes_read += outcome.failed_io.bytes_read();
                let res = outcome.result?;
                report.bytes_shuffled += res.shuffle_bytes;
                collected.extend(res.task_out);
                let work = TaskWork {
                    bytes_local: res.io.bytes_local,
                    bytes_remote: res.io.bytes_remote,
                    seeks: res.io.seeks,
                    bytes_written: res.written,
                    cpu_seconds: res.cpu_seconds,
                    shuffle_records: 0,
                    sim_penalty_s: res.io.sim_penalty_seconds(),
                };
                report.cpu_seconds += res.cpu_seconds;
                report.bytes_read += res.io.bytes_read();
                report.bytes_written += res.written;
                merge_profiles(&mut report.reduce_operators, &res.op_profiles);
                let sim_s = self.cost.task_seconds(&work)
                    + self.cost.shuffle_seconds(res.shuffle_bytes)
                    + overhead_s;
                reduce_durations.push(sim_s);
            }
        }
        report.sim_reduce_s = self.cost.schedule(&reduce_durations);
        report.task_sim_s.extend(reduce_durations);
        report.sim_total_s = report.sim_map_s + report.sim_reduce_s;
        report.rows_out = collected.len() as u64;
        Ok((report, collected))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{JobInput, MapPipeline};
    use hive_common::{key, Schema, Value};
    use hive_exec::expr::ExprNode;
    use hive_exec::graph::OperatorGraph;
    use hive_exec::operators::*;
    use hive_formats::{
        create_writer, FormatKind, PredicateLeaf, PredicateOp, SearchArgument, WriteOptions,
    };
    use std::sync::Arc;

    fn setup() -> (Dfs, HiveConf) {
        let dfs = Dfs::new(hive_dfs::DfsConfig {
            block_size: 64 << 10,
            replication: 2,
            nodes: 4,
        });
        (dfs, HiveConf::new())
    }

    fn write_table(dfs: &Dfs, conf: &HiveConf, path: &str, n: i64) -> Schema {
        let schema = Schema::parse(&[("k", "bigint"), ("v", "bigint")]).unwrap();
        let mut w = create_writer(
            dfs,
            path,
            &schema,
            conf,
            &WriteOptions {
                format: FormatKind::Text,
                ..Default::default()
            },
        )
        .unwrap();
        for i in 0..n {
            w.write_row(&Row::new(vec![Value::Int(i % 10), Value::Int(i)]))
                .unwrap();
        }
        w.close().unwrap();
        schema
    }

    /// A word-count-style job: group by k, sum v.
    fn group_sum_job(schema: Schema, path: &str) -> JobSpec {
        let map_factory: crate::job::MapPipelineFactory = Arc::new(move |_side| {
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
        let reduce_factory: crate::job::ReducePipelineFactory = Arc::new(|| {
            let mut graph = OperatorGraph::new();
            let gb = graph.add(Box::new(GroupByOperator::new(
                vec![ExprNode::col(0)],
                vec![AggSpec {
                    function: hive_exec::agg::AggFunction::Sum,
                    arg: Some(ExprNode::col(1)),
                    output_type: hive_common::DataType::Int,
                }],
                GroupByMode::Streaming,
            )));
            let fs = graph.add(Box::new(FileSinkOperator));
            graph.connect(gb, fs, None);
            Ok(crate::job::ReducePipeline::rows(graph, gb))
        });
        JobSpec {
            name: "group-sum".into(),
            inputs: vec![JobInput {
                alias: "t".into(),
                paths: vec![path.to_string()],
                format: FormatKind::Text,
                schema,
                projection: None,
                sarg: None,
                overlay: None,
                key_order: None,
            }],
            side_inputs: vec![],
            map_factory,
            reduce_factory: Some(reduce_factory),
            num_reducers: 2,
            output: JobOutput::Collect,
        }
    }

    #[test]
    fn map_reduce_group_sum() {
        let (dfs, conf) = setup();
        let schema = write_table(&dfs, &conf, "/t/mr1", 1000);
        let engine = MrEngine::new(dfs, conf);
        let (report, mut rows) = engine.run_job(&group_sum_job(schema, "/t/mr1")).unwrap();
        rows.sort_by(|a, b| key::cmp_value(&a[0], &b[0]));
        assert_eq!(rows.len(), 10);
        // Group k: sum of {k, k+10, ..., k+990} = 100*k + 10*4950.
        for k in 0..10i64 {
            assert_eq!(
                rows[k as usize],
                Row::new(vec![Value::Int(k), Value::Int(100 * k + 49_500)])
            );
        }
        assert!(report.map_tasks >= 1);
        assert_eq!(report.reduce_tasks, 2);
        assert!(report.sim_total_s > 0.0);
        assert!(report.bytes_shuffled > 0);
    }

    #[test]
    fn splits_cover_multi_block_files() {
        let (dfs, conf) = setup();
        // 64 KB blocks and ~13 KB per 1000 rows → bump rows for >1 block.
        let schema = write_table(&dfs, &conf, "/t/mr2", 20_000);
        assert!(dfs.blocks("/t/mr2").unwrap().len() > 1);
        let engine = MrEngine::new(dfs, conf);
        let (report, rows) = engine.run_job(&group_sum_job(schema, "/t/mr2")).unwrap();
        assert!(report.map_tasks > 1, "expected multiple map tasks");
        let total: i64 = rows.iter().map(|r| r[1].as_int().unwrap()).sum();
        assert_eq!(total, (0..20_000i64).sum::<i64>());
    }

    /// A map-only job keeping the rows of `input` with `v < 100`, written
    /// under `output`.
    fn filter_job(schema: Schema, input: &str, format: FormatKind, output: &str) -> JobSpec {
        let map_factory: crate::job::MapPipelineFactory = Arc::new(move |_| {
            let mut graph = OperatorGraph::new();
            let f = graph.add(Box::new(FilterOperator {
                predicate: ExprNode::binary(
                    hive_exec::expr::BinaryOp::Lt,
                    ExprNode::col(1),
                    ExprNode::lit(Value::Int(100)),
                ),
            }));
            let fs = graph.add(Box::new(FileSinkOperator));
            graph.connect(f, fs, None);
            let mut roots = HashMap::new();
            roots.insert("t".to_string(), f);
            Ok(MapPipeline {
                graph,
                roots,
                vector: HashMap::new(),
            })
        });
        JobSpec {
            name: "filter".into(),
            inputs: vec![JobInput {
                alias: "t".into(),
                paths: vec![input.into()],
                format,
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
            output: JobOutput::Intermediate {
                path_prefix: output.into(),
            },
        }
    }

    /// [`group_sum_job`] over the intermediate directory `dir`.
    fn group_sum_of(schema: Schema, dir: &str) -> JobSpec {
        let job = group_sum_job(schema, dir);
        JobSpec {
            inputs: vec![JobInput {
                format: FormatKind::Sequence,
                ..job.inputs[0].clone()
            }],
            ..job
        }
    }

    #[test]
    fn map_only_job_writes_intermediate_and_chains() {
        let (dfs, conf) = setup();
        let schema = write_table(&dfs, &conf, "/t/mr3", 500);
        let job1 = filter_job(schema.clone(), "/t/mr3", FormatKind::Text, "/tmp/q/j1");
        let job2 = group_sum_of(schema, "/tmp/q/j1/");

        let engine = MrEngine::new(dfs.clone(), conf);
        let (dag, rows) = engine.run_dag(&[job1, job2]).unwrap();
        assert_eq!(dag.jobs.len(), 2);
        assert!(dag.jobs[0].bytes_written > 0, "intermediate was written");
        assert!(
            dfs.list("/tmp/q/").is_empty(),
            "and deleted after its reader"
        );
        let total: i64 = rows.iter().map(|r| r[1].as_int().unwrap()).sum();
        assert_eq!(total, (0..100i64).sum::<i64>());
        assert!(dag.sim_total_s > dag.jobs[1].sim_total_s);
    }

    /// An ORC file of `(k, v)` rows at `path`, written under `conf`.
    fn write_orc(dfs: &Dfs, conf: &HiveConf, path: &str, rows: &[(i64, i64)]) -> Schema {
        let schema = Schema::parse(&[("k", "bigint"), ("v", "bigint")]).unwrap();
        let opts = WriteOptions {
            format: FormatKind::Orc,
            ..Default::default()
        };
        let mut w = create_writer(dfs, path, &schema, conf, &opts).unwrap();
        for &(k, v) in rows {
            w.write_row(&Row::new(vec![Value::Int(k), Value::Int(v)]))
                .unwrap();
        }
        w.close().unwrap();
        schema
    }

    /// Split planning reads a sorted copy only when the copy's own footer
    /// says it is ordered on a predicate column: `/w/sorted`'s copy 1 is
    /// sorted on `v` and read for a predicate on `v` but not on `k`;
    /// `/w/adopted`'s copy 1 is a file in insertion order and is never
    /// read. The answers are the same whichever copy is read, and the
    /// footers planning reads are in the job's `bytes_read`.
    #[test]
    fn replica_choice_follows_the_footer() {
        let (dfs, mut conf) = setup();
        let rows: Vec<(i64, i64)> = (0..500).map(|i| ((i * 7) % 13, (i * 37) % 101)).collect();
        conf.set(keys::ORC_REPLICA_SORT_COLUMNS, "v");
        let schema = write_orc(&dfs, &conf, "/w/sorted", &rows);
        conf.set(keys::ORC_REPLICA_SORT_COLUMNS, "");
        write_orc(&dfs, &conf, "/w/adopted", &rows);
        write_orc(&dfs, &conf, "/tmp/stage", &rows);
        dfs.adopt_variant("/w/adopted", "/tmp/stage", 1).unwrap();
        let engine = MrEngine::new(dfs.clone(), conf);
        let cases = [
            ("/w/sorted", 1, Some("v")),
            ("/w/sorted", 0, None),
            ("/w/adopted", 1, None),
        ];
        for (path, column, chosen) in cases {
            let leaf = PredicateLeaf::new(column, PredicateOp::LessThan, Some(Value::Int(100)));
            let job = filter_job(schema.clone(), path, FormatKind::Orc, "/tmp/unused");
            let job = JobSpec {
                inputs: vec![JobInput {
                    sarg: Some(SearchArgument::new(vec![leaf])),
                    ..job.inputs[0].clone()
                }],
                output: JobOutput::Collect,
                ..job
            };
            let before = dfs.stats().snapshot();
            let (report, got) = engine.run_job(&job).unwrap();
            let read = dfs.stats().snapshot().since(&before).bytes_read();
            let want: Vec<(String, usize, String)> = chosen
                .map(|c| (path.to_string(), 1, c.to_string()))
                .into_iter()
                .collect();
            assert_eq!(report.replica_choices, want, "{path}, column {column}");
            assert_eq!(got.len(), rows.iter().filter(|r| r.1 < 100).count());
            assert_eq!(report.bytes_read, read, "{path}, column {column}");
        }
    }

    /// Job 0's output is gone by the time job 2 runs (job 1, its only
    /// reader, is done), job 1's is still there; after the DAG nothing is,
    /// also when job 2 fails.
    #[test]
    fn intermediates_die_after_their_last_reader() {
        let (dfs, conf) = setup();
        let schema = write_table(&dfs, &conf, "/t/mr4", 500);
        let job0 = filter_job(schema.clone(), "/t/mr4", FormatKind::Text, "/tmp/q4/j0");
        let job1 = filter_job(
            schema.clone(),
            "/tmp/q4/j0/",
            FormatKind::Sequence,
            "/tmp/q4/j1",
        );
        let seen = Arc::new(Mutex::new(Vec::new()));
        let job2 = |fail: bool| {
            let job = group_sum_of(schema.clone(), "/tmp/q4/j1/");
            let (inner, dfs, seen) = (job.map_factory.clone(), dfs.clone(), seen.clone());
            JobSpec {
                map_factory: Arc::new(move |side| {
                    let live = |dir: &str| dfs.list(dir).len();
                    seen.lock()
                        .unwrap()
                        .push((live("/tmp/q4/j0/"), live("/tmp/q4/j1/")));
                    if fail {
                        return Err(HiveError::Execution("job 2 fails".into()));
                    }
                    inner(side)
                }),
                ..job
            }
        };
        let engine = MrEngine::new(dfs.clone(), conf);
        for fail in [false, true] {
            let jobs = [job0.clone(), job1.clone(), job2(fail)];
            assert_eq!(engine.run_dag(&jobs).is_err(), fail);
            let seen = std::mem::take(&mut *seen.lock().unwrap());
            assert!(!seen.is_empty() && seen.iter().all(|&(j0, j1)| j0 == 0 && j1 > 0));
            assert!(dfs.list("/tmp/q4/").is_empty());
        }
    }
}
