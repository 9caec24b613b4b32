//! The reduce task: merge a partition's runs and drive the reduce pipeline,
//! with rows and one group signal per key group, or with batches and one
//! group signal per window of whole groups.

use super::output::TaskWriter;
use super::shuffle::{self, Run};
use super::MrEngine;
use crate::job::{JobOutput, JobSpec, ReducePipeline, ReducePipelineFactory};
use hive_common::{DataType, HiveError, Result, Row, Value};
use hive_dfs::{IoScope, IoSnapshot};
use hive_exec::graph::{Message, OperatorGraph};
use hive_obs::OpProfile;
use hive_vector::reduce::ReduceWindow;
use hive_vector::DEFAULT_BATCH_SIZE;
use std::sync::Arc;
use std::time::Instant;

/// What one reduce task hands back to the engine.
pub(super) struct ReduceTaskResult {
    pub(super) task_out: Vec<Row>,
    pub(super) written: u64,
    pub(super) io: IoSnapshot,
    pub(super) cpu_seconds: f64,
    pub(super) shuffle_bytes: u64,
    /// Per-operator profiles of this task's operator graph.
    pub(super) op_profiles: Vec<OpProfile>,
}

/// Where the pushed messages lead: the graph, its root, and what leaves it.
struct Sink<'a, 'o> {
    graph: &'a mut OperatorGraph,
    root: usize,
    out: &'a mut TaskWriter<'o>,
}

impl Sink<'_, '_> {
    fn push(&mut self, msg: Message) -> Result<()> {
        self.graph.push(self.root, msg, self.out)
    }
}

impl MrEngine {
    /// One reduce task: merge its partition's runs, drive the reduce
    /// pipeline, and write/collect the output. Runs on a pool worker; the
    /// runs are shared with every other attempt, so a failed attempt leaves
    /// them for its retry.
    pub(super) fn run_reduce_task(
        &self,
        spec: &JobSpec,
        reduce_factory: &ReducePipelineFactory,
        r: usize,
        runs: &[Run],
    ) -> Result<ReduceTaskResult> {
        let scope = IoScope::new();
        let io_guard = scope.enter();
        let t0 = Instant::now();
        let shuffle_bytes = runs.iter().map(Run::byte_len).sum();
        let ReducePipeline {
            mut graph,
            root,
            shuffled,
            batches,
        } = reduce_factory()?;
        let part = match &spec.output {
            JobOutput::Intermediate { path_prefix } => {
                Some((&self.dfs, format!("{path_prefix}/part-r-{r:05}")))
            }
            JobOutput::Collect => None,
        };
        // Nested shuffles cannot happen in a single job: no runs.
        let mut out = TaskWriter::new(0, part);
        let rows_processed = {
            let mut sink = Sink {
                graph: &mut graph,
                root,
                out: &mut out,
            };
            let records = match batches {
                Some(tags) => push_windows(&mut sink, runs, &shuffled, tags)?,
                None => push_groups(&mut sink, runs)?,
            };
            graph.finish(&mut out)?;
            records
        };
        let (_, task_out, written) = out.finish()?;

        let op_profiles = self.finalize_profiles(graph.profiles());
        let cpu_seconds = self.task_cpu(t0.elapsed().as_secs_f64(), rows_processed);
        drop(io_guard);
        Ok(ReduceTaskResult {
            task_out,
            written,
            io: scope.snapshot(),
            cpu_seconds,
            shuffle_bytes,
            op_profiles,
        })
    }
}

/// The row-mode reducer driver (paper Section 5.2.2): rows, each group
/// ended by a signal. A group starts where the key bytes change; its key is
/// decoded once. Returns the records pushed.
fn push_groups(sink: &mut Sink, runs: &[Run]) -> Result<u64> {
    let (mut group, mut key, mut records) = (None, Vec::new(), 0);
    for rec in shuffle::merge(runs) {
        records += 1;
        if group != Some(rec.key) {
            if group.is_some() {
                sink.push(Message::EndGroup)?;
            }
            group = Some(rec.key);
            key = rec.decode_key()?;
        }
        // Reduce-side rows are key columns ++ value columns.
        let mut vals: Vec<Value> = key.clone();
        rec.decode_value_into(&mut vals)?;
        let (row, tag) = (Row::new(vals), rec.tag);
        sink.push(Message::Row { row, tag })?;
    }
    if group.is_some() {
        sink.push(Message::EndGroup)?;
    }
    Ok(records)
}

/// The batch-mode reducer driver: records decode column-wise into one batch
/// per tag, a window of whole groups at a time ([`ReduceWindow`]), and each
/// window is pushed as its batches, then one signal. `tags`: per tag, its
/// key width and batch column types. Returns the records pushed.
fn push_windows(
    sink: &mut Sink,
    runs: &[Run],
    shuffled: &[Vec<DataType>],
    tags: Vec<(usize, Vec<DataType>)>,
) -> Result<u64> {
    let widths: Vec<(usize, usize)> = tags
        .iter()
        .zip(shuffled)
        .map(|((nk, _), s)| (*nk, s.len()))
        .collect();
    let mut window = ReduceWindow::new(
        tags.into_iter().map(|(_, t)| t).collect(),
        DEFAULT_BATCH_SIZE,
    );
    let (mut group, mut records) = (None, 0);
    for rec in shuffle::merge(runs) {
        records += 1;
        let &(nk, width) = widths
            .get(rec.tag)
            .ok_or_else(|| HiveError::Execution(format!("no reduce input for tag {}", rec.tag)))?;
        let new_group = group != Some(rec.key);
        if window.closes_before(new_group) {
            push_window(sink, &mut window)?;
        }
        group = Some(rec.key);
        let (batch, row) = window.next_row(rec.tag, new_group)?;
        let (keys, values) = batch.columns[..width].split_at_mut(nk);
        // A key is decoded once per group and batch; the group's next rows
        // there share it.
        if row > 0 && batch.ordinals[row - 1] == batch.ordinals[row] {
            keys.iter_mut().for_each(|c| c.repeat_cell(row, row - 1));
        } else {
            rec.decode_key_into(keys, row)?;
        }
        rec.decode_value_into_columns(values, row)?;
    }
    if !window.is_empty() {
        push_window(sink, &mut window)?;
    }
    Ok(records)
}

fn push_window(sink: &mut Sink, window: &mut ReduceWindow) -> Result<()> {
    for (tag, batch) in window.batches() {
        let batch = Arc::clone(batch);
        sink.push(Message::Batch { batch, tag })?;
    }
    sink.push(Message::EndGroup)?;
    window.clear()
}
