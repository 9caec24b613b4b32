//! The reduce task: merge a partition's runs and drive the reduce pipeline
//! with key-group signals.

use super::shuffle::{self, Run};
use super::MrEngine;
use crate::job::{JobOutput, JobSpec, ReducePipelineFactory};
use hive_common::{Result, Row, Value};
use hive_dfs::{IoScope, IoSnapshot};
use hive_exec::graph::{Message, ShuffleRecord};
use hive_obs::OpProfile;
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

impl MrEngine {
    /// One reduce task: merge its partition's runs, drive the reduce
    /// pipeline with group signals, and write/collect the output. Runs on a
    /// pool worker; the runs are shared with every other attempt, so a
    /// failed attempt leaves them for its retry.
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
        let (mut graph, root) = reduce_factory()?;
        let mut task_out: Vec<Row> = Vec::new();
        let mut rows_processed = 0u64;
        {
            let mut on_shuffle = |_rec: ShuffleRecord| {
                // Nested shuffles cannot happen in a single job.
            };
            let mut on_output = |row: Row| task_out.push(row);
            // The reducer driver: detect key-group changes, send
            // signals, forward rows (paper Section 5.2.2). A group starts
            // where the key bytes change; its key is decoded once.
            let mut group: Option<&[u8]> = None;
            let mut key: Vec<Value> = Vec::new();
            for rec in shuffle::merge(runs) {
                rows_processed += 1;
                if group != Some(rec.key) {
                    if group.is_some() {
                        graph.push(root, Message::EndGroup, &mut on_shuffle, &mut on_output)?;
                    }
                    graph.push(root, Message::StartGroup, &mut on_shuffle, &mut on_output)?;
                    group = Some(rec.key);
                    key = rec.decode_key()?;
                }
                // Reduce-side rows are key columns ++ value columns.
                let mut vals = key.clone();
                rec.decode_value_into(&mut vals)?;
                graph.push(
                    root,
                    Message::Row {
                        row: Row::new(vals),
                        tag: rec.tag,
                    },
                    &mut on_shuffle,
                    &mut on_output,
                )?;
            }
            if group.is_some() {
                graph.push(root, Message::EndGroup, &mut on_shuffle, &mut on_output)?;
            }
            graph.finish(&mut on_shuffle, &mut on_output)?;
        }

        let mut written = 0u64;
        if !task_out.is_empty() {
            if let JobOutput::Intermediate { path_prefix } = &spec.output {
                written = self.write_part(&format!("{path_prefix}/part-r-{r:05}"), &task_out)?;
                task_out.clear();
            }
        }

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
