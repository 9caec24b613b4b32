//! The map task: scan one split through a fresh pipeline into one sorted
//! shuffle run per reducer; and the distributed-cache load that builds the
//! side tables every map task shares.

use super::output::TaskWriter;
use super::shuffle::Run;
use super::splits::Split;
use super::MrEngine;
use crate::job::{JobOutput, JobSpec, SideInput, SideTable, SideTables};
use hive_common::{HiveError, Result, Row};
use hive_dfs::{IoScope, IoSnapshot};
use hive_exec::graph::Message;
use hive_formats::delta::{split_projection, KeyRange, LiveReader};
use hive_formats::{open_reader, PredicateLeaf, PredicateOp, ReadOptions, SearchArgument};
use hive_obs::{OpProfile, ScanProfile};
use hive_vector::{VectorizedRowBatch, DEFAULT_BATCH_SIZE};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// What one map task hands back to the engine. Everything a task produces
/// or measures is task-local; the engine merges results deterministically
/// by task index after the map barrier, so the outcome is independent of
/// worker interleaving.
pub(super) struct MapTaskResult {
    /// One sorted run per reducer (none for map-only jobs).
    pub(super) partitions: Vec<Run>,
    /// Rows bound for the client (map-only `Collect` jobs).
    pub(super) task_out: Vec<Row>,
    pub(super) written: u64,
    /// I/O attributed to this task via its [`IoScope`].
    pub(super) io: IoSnapshot,
    pub(super) cpu_seconds: f64,
    pub(super) shuffle_records: u64,
    /// Node the winning attempt ran on.
    pub(super) node: usize,
    /// Rows the reader dropped under corrupt-data degradation.
    pub(super) rows_skipped: u64,
    /// Per-operator profiles of this task's operator graph.
    pub(super) op_profiles: Vec<OpProfile>,
    /// Input-side scan profile (reader + vectorized pipeline).
    pub(super) scan: ScanProfile,
}

impl MrEngine {
    /// One map task: scan a split through a fresh pipeline into one sorted
    /// run per reducer. Runs on a pool worker; everything it touches is
    /// task-local except the DFS (thread-safe) and the shared side tables
    /// (read-only).
    pub(super) fn run_map_task(
        &self,
        spec: &JobSpec,
        split: &Split<'_>,
        task_idx: usize,
        node: usize,
        side: &SideTables,
        num_reducers: usize,
    ) -> Result<MapTaskResult> {
        let scope = IoScope::new();
        let io_guard = scope.enter();
        let t0 = Instant::now();

        // A range map join's side is built here, from the side's rows in
        // the keys this task owns; the job's broadcast sides are shared.
        let mut side_rows_skipped = 0;
        let task_sides = match spec.side_inputs.iter().any(|s| s.ranged.is_some()) {
            true => {
                let mut tables = side.clone();
                for s in spec.side_inputs.iter().filter(|s| s.ranged.is_some()) {
                    let sarg = range_sarg(s, split.range.as_ref());
                    let (table, skipped) = self.load_side(s, sarg)?;
                    tables.insert(s.alias.clone(), table);
                    side_rows_skipped += skipped;
                }
                Some(tables)
            }
            false => None,
        };
        let side = task_sides.as_ref().unwrap_or(side);
        let mut pipeline = (spec.map_factory)(side)?;
        let width = split.input.schema.len();
        let (projection, virtuals) = split_projection(split.input.projection.as_deref(), width);
        let read_width = projection.as_ref().map_or(width, Vec::len);
        let reader_opts = ReadOptions {
            format: split.input.format,
            projection,
            sarg: split.input.sarg.clone(),
            node: Some(node),
            split: Some((split.start, split.end)),
            variant: split.variant,
        };
        // Every scan reads through the merge-on-read cursor; without an
        // overlay it masks nothing.
        let overlay = split.input.overlay.as_ref();
        let mut reader = LiveReader::new(
            open_reader(
                &self.dfs,
                &split.path,
                &split.input.schema,
                &self.conf,
                &reader_opts,
            )?,
            overlay.map(|o| (&*o.deletes, split.path.as_str())),
        )
        .with_virtual(&split.path, read_width, virtuals)
        .with_key_range(split.range.clone());

        // A map-only job writes its intermediate's part as its graph's rows
        // leave it; the part name is keyed by task index, so concurrent
        // tasks never collide.
        let part = match &spec.output {
            JobOutput::Intermediate { path_prefix } if num_reducers == 0 => {
                Some((&self.dfs, format!("{path_prefix}/part-m-{task_idx:05}")))
            }
            _ => None,
        };
        let mut out = TaskWriter::new(num_reducers, part);
        let mut rows_processed = 0u64;
        let mut batches_read = 0u64;
        let mut delta_rows_read = 0u64;
        {
            let graph = &mut pipeline.graph;
            let in_delta = overlay.is_some_and(|o| o.is_delta(&split.path));
            match pipeline.vector.get(&split.input.alias) {
                Some(stage) => {
                    // Batch-native scan path (paper Section 6.5): reader
                    // batches go straight into the operator graph as shared
                    // `Batch` messages — no row materialization. The batch
                    // goes in as the only reference to it, so the first
                    // operator's copy-on-write is a no-op, and comes back
                    // spent to be refilled: a new one is allocated only when
                    // an operator kept a reference.
                    //
                    // Deleted ordinals are already unselected when the
                    // batch arrives, so all counters see logical
                    // (post-mask) rows — identical to row mode. A batch
                    // counts as read even when the mask emptied it.
                    if let Some(first) = &stage.first_columns {
                        reader.defer_all_but(first);
                    }
                    let (types, size) = (&stage.batch_types, DEFAULT_BATCH_SIZE);
                    let fresh = || VectorizedRowBatch::new(types, size);
                    let mut batch = fresh()?;
                    loop {
                        let masked_before = reader.rows_masked();
                        let more = reader.next_batch(&mut batch)?;
                        if batch.size > 0 || reader.rows_masked() > masked_before {
                            batches_read += 1;
                        }
                        if batch.size > 0 {
                            rows_processed += batch.size as u64;
                            if in_delta {
                                delta_rows_read += batch.size as u64;
                            }
                            let batch_msg = Message::Batch {
                                batch: Arc::new(batch),
                                tag: 0,
                            };
                            graph.push(stage.root, batch_msg, &mut out)?;
                            let spent = graph.take_spent();
                            batch = match spent.filter(|b| b.has_layout(types, size)) {
                                Some(spent) => spent,
                                None => fresh()?,
                            };
                        }
                        if !more {
                            break;
                        }
                    }
                }
                None => {
                    let root = *pipeline.roots.get(&split.input.alias).ok_or_else(|| {
                        HiveError::Execution(format!(
                            "map pipeline lacks a root for alias `{}`",
                            split.input.alias
                        ))
                    })?;
                    while let Some((_, row)) = reader.next_row()? {
                        rows_processed += 1;
                        if in_delta {
                            delta_rows_read += 1;
                        }
                        graph.push(root, Message::Row { row, tag: 0 }, &mut out)?;
                    }
                }
            }
            graph.finish(&mut out)?;
        }
        let shuffle_records = out.shuffle_records;
        let (partitions, mut task_out, written) = out.finish()?;
        // A shuffle job's map side hands the client nothing.
        if num_reducers > 0 {
            task_out.clear();
        }

        let read_stats = reader.inner().read_stats();
        let rows_skipped = read_stats.rows_skipped + side_rows_skipped;
        // Selected-lane flow through this alias's vectorized chain: logical
        // rows into its first node vs. out of its last vectorized node.
        let (vector_rows_in, vector_rows_out) = pipeline
            .vector
            .get(&split.input.alias)
            .map(|stage| {
                (
                    pipeline.graph.rows_in_of(stage.root),
                    pipeline.graph.rows_out_of(stage.terminal),
                )
            })
            .unwrap_or((0, 0));
        let mut scan = ScanProfile {
            rows_read: rows_processed,
            batches: batches_read,
            vector_rows_in,
            vector_rows_out,
            stripes_total: read_stats.stripes_total,
            stripes_read: read_stats.stripes_read,
            groups_total: read_stats.groups_total,
            groups_read: read_stats.groups_read,
            rows_salvaged: read_stats.rows_skipped,
            footer_cache_hits: read_stats.footer_cache_hits,
            footer_cache_misses: read_stats.footer_cache_misses,
            index_cache_hits: read_stats.index_cache_hits,
            index_cache_misses: read_stats.index_cache_misses,
            groups_bloom_pruned: read_stats.groups_bloom_pruned,
            bloom_corrupt: read_stats.bloom_corrupt,
            delta_rows_read,
            rows_masked: reader.rows_masked(),
            ..Default::default()
        };
        // Vectorized operators are ordinary graph nodes now, so one profile
        // pass covers the whole task (indexes align across tasks because
        // every task builds the same graph from the same factory).
        let op_profiles = self.finalize_profiles(pipeline.graph.profiles());
        let cpu_seconds = self.task_cpu(t0.elapsed().as_secs_f64(), rows_processed);
        drop(io_guard);
        let io = scope.snapshot();
        // Block-cache activity attributed to this task's reads.
        scan.data_cache_hits = io.cache_hits;
        scan.data_cache_misses = io.cache_misses;
        scan.data_cache_hit_bytes = io.cache_hit_bytes;
        scan.data_cache_evictions = io.cache_evictions;
        Ok(MapTaskResult {
            partitions,
            task_out,
            written,
            io,
            cpu_seconds,
            shuffle_records,
            node,
            rows_skipped,
            op_profiles,
            scan,
        })
    }

    /// Build side tables, each once, from its files (a ranged side's whole,
    /// as a task owning every key would); also returns rows skipped by
    /// corrupt-data degradation (`hive.exec.orc.skip.corrupt.data`).
    pub fn load_side_inputs<'s>(
        &self,
        sides: impl IntoIterator<Item = &'s SideInput>,
    ) -> Result<(SideTables, u64)> {
        let mut tables = HashMap::new();
        let mut rows_skipped = 0u64;
        for s in sides {
            let (table, skipped) = self.load_side(s, range_sarg(s, None))?;
            tables.insert(s.alias.clone(), table);
            rows_skipped += skipped;
        }
        Ok((tables, rows_skipped))
    }

    /// Build one side's table from its files, read through `sarg`.
    fn load_side(&self, s: &SideInput, sarg: Option<SearchArgument>) -> Result<(SideTable, u64)> {
        let mut reader = SideReader {
            engine: self,
            side: s,
            sarg,
            paths: self.expand_paths(&s.paths).into_iter(),
            current: None,
            rows_skipped: 0,
        };
        let table = (s.build)(&mut reader)?;
        reader.close();
        Ok((table, reader.rows_skipped))
    }
}

/// What a ranged side reads for a task owning `range`: the side scan's own
/// predicates, and its key column within the range. Rows the SARG lets
/// through outside the range (whole row groups are read) only enlarge the
/// table: no row of the task carries their keys.
fn range_sarg(side: &SideInput, range: Option<&KeyRange>) -> Option<SearchArgument> {
    let ranged = side.ranged.as_ref()?;
    let mut leaves = ranged
        .sarg
        .as_ref()
        .map_or(Vec::new(), |s| s.leaves.clone());
    if let Some(range) = range {
        let leaf = |op, bound: &Option<_>| {
            let bound = bound.clone()?;
            Some(PredicateLeaf::new(ranged.column, op, Some(bound)))
        };
        leaves.extend(leaf(PredicateOp::GreaterThan, &range.lo));
        leaves.extend(leaf(PredicateOp::LessThanEquals, &range.hi));
    }
    (!leaves.is_empty()).then(|| SearchArgument::new(leaves))
}

/// A side input's files, one after the other, each read whole from its base
/// copy through the merge-on-read cursor: deleted rows of an ACID table
/// never enter the hash table, and ordinals (for virtual columns) are
/// physical ones. What a [`SideBuild`](crate::job::SideBuild) reads.
pub struct SideReader<'a> {
    engine: &'a MrEngine,
    side: &'a SideInput,
    /// Predicates pushed to each file's reader (a ranged side's).
    sarg: Option<SearchArgument>,
    paths: std::vec::IntoIter<String>,
    current: Option<LiveReader<'a>>,
    rows_skipped: u64,
}

impl<'a> SideReader<'a> {
    /// The open file's cursor, opening the next file when there is none;
    /// `None` once every file is read.
    fn current(&mut self) -> Result<Option<&mut LiveReader<'a>>> {
        if self.current.is_none() {
            let Some(path) = self.paths.next() else {
                return Ok(None);
            };
            let s = self.side;
            let width = s.schema.len();
            let (projection, virtuals) = split_projection(s.projection.as_deref(), width);
            let read_width = projection.as_ref().map_or(width, Vec::len);
            let opts = ReadOptions {
                format: s.format,
                projection,
                sarg: self.sarg.clone(),
                ..Default::default()
            };
            let engine = self.engine;
            let reader = open_reader(&engine.dfs, &path, &s.schema, &engine.conf, &opts)?;
            let mask = s.overlay.as_ref().map(|o| (&*o.deletes, path.as_str()));
            let live = LiveReader::new(reader, mask).with_virtual(&path, read_width, virtuals);
            self.current = Some(live);
        }
        Ok(self.current.as_mut())
    }

    /// Done with the open file: count what its reader skipped.
    fn close(&mut self) {
        if let Some(reader) = self.current.take() {
            self.rows_skipped += reader.inner().read_stats().rows_skipped;
        }
    }

    /// Fill `batch` with the side's next rows, deleted ones unselected;
    /// `false` once every file is read, the batch then empty. The batch's
    /// leading columns are the side's projected columns.
    pub fn next_batch(&mut self, batch: &mut VectorizedRowBatch) -> Result<bool> {
        while let Some(reader) = self.current()? {
            let more = reader.next_batch(batch)?;
            if !more {
                self.close();
            }
            if batch.size > 0 {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// The side's next live row: the form the row engine's table is built
    /// from.
    pub fn next_row(&mut self) -> Result<Option<Row>> {
        while let Some(reader) = self.current()? {
            if let Some((_, row)) = reader.next_row()? {
                return Ok(Some(row));
            }
            self.close();
        }
        Ok(None)
    }
}
