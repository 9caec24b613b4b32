//! Split planning and task placement: which byte ranges the map tasks read
//! and which node each attempt runs on.

use super::MrEngine;
use crate::job::JobInput;
use hive_common::{config::keys, key, HiveError, Result};
use hive_dfs::BlockInfo;
use hive_formats::delta::{split_projection, KeyRange};
use hive_formats::orc::reader::{OrcReadOptions, OrcReader};

/// One input split: a byte range of one file, with its replica nodes.
/// Attempt 0 runs data-local on the first replica; retries rotate through
/// the remaining (non-blacklisted) replicas.
pub(super) struct Split<'a> {
    pub(super) input: &'a JobInput,
    pub(super) path: String,
    pub(super) start: u64,
    pub(super) end: u64,
    replicas: Vec<usize>,
    /// Which stored copy of the file to read (`0` = base; higher values
    /// name per-replica sorted copies picked by replica-aware planning).
    pub(super) variant: usize,
    /// The keys the task owns, for an input stored in key order
    /// ([`JobInput::key_order`]); `None`: it owns its byte range.
    pub(super) range: Option<KeyRange>,
}

impl MrEngine {
    /// Node for a map attempt: replicas not currently blacklisted, rotated
    /// by attempt number (attempt 0 = the data-local first replica, exactly
    /// the pre-fault-tolerance behaviour).
    pub(super) fn pick_map_node(&self, split: &Split<'_>, attempt: u32) -> usize {
        let eligible: Vec<usize> = split
            .replicas
            .iter()
            .copied()
            .filter(|&n| !self.node_blacklisted(n))
            .collect();
        let pool: &[usize] = if eligible.is_empty() {
            &split.replicas
        } else {
            &eligible
        };
        if pool.is_empty() {
            return 0;
        }
        pool[attempt as usize % pool.len()]
    }

    /// Node for a speculative duplicate: prefer another replica that is not
    /// blacklisted and not a known straggler/dead node (the JobTracker
    /// knows its slow trackers), else any healthy node in the cluster.
    pub(super) fn pick_speculative_node(&self, split: &Split<'_>, avoid: usize) -> Option<usize> {
        let plan = self.dfs.fault_plan();
        let bad = |n: usize| {
            n == avoid
                || self.node_blacklisted(n)
                || plan
                    .as_ref()
                    .is_some_and(|p| p.is_slow(n) || p.is_failing(n))
        };
        split
            .replicas
            .iter()
            .copied()
            .find(|&n| !bad(n))
            .or_else(|| (0..self.dfs.config().nodes).find(|&n| !bad(n)))
    }

    /// Expand directory-style entries (trailing `/`) into their part files.
    pub(super) fn expand_paths(&self, paths: &[String]) -> Vec<String> {
        let mut out = Vec::new();
        for p in paths {
            if p.ends_with('/') {
                out.extend(self.dfs.list(p));
            } else {
                out.push(p.clone());
            }
        }
        out
    }

    /// Plan input splits. Returns the splits plus one record per file the
    /// planner steered to a per-replica sorted copy (HAIL-style
    /// replica-aware planning): among a file's sorted copies, the first
    /// whose own footer says it is ordered on a pushed-down predicate
    /// column wins, so min/max + bloom pruning see clustered data. An
    /// input addressed by ordinal ([`JobInput::by_ordinal`]) reads the base
    /// copy — delete keys and `ROW__ID` number the physical rows of variant
    /// 0 — and non-ORC formats have no variants.
    #[allow(clippy::type_complexity)]
    pub(super) fn compute_splits<'a>(
        &self,
        inputs: &'a [JobInput],
    ) -> Result<(Vec<Split<'a>>, Vec<(String, usize, String)>)> {
        let replica_selection = self.conf.get_bool(keys::ORC_REPLICA_SELECTION)?;
        let mut splits = Vec::new();
        let mut choices = Vec::new();
        for input in inputs {
            let by_ordinal = input.by_ordinal();
            // Predicate columns; a copy ordered on one of them clusters the
            // matching rows together.
            let pred_cols: Vec<usize> = input
                .sarg
                .iter()
                .flat_map(|s| &s.leaves)
                .map(|l| l.column)
                .filter(|&c| c < input.schema.len())
                .collect();
            let orc = input.format == hive_formats::FormatKind::Orc;
            let choose = replica_selection && orc && !by_ordinal && !pred_cols.is_empty();
            for path in self.expand_paths(&input.paths) {
                if !self.dfs.exists(&path) {
                    continue;
                }
                let blocks = self.dfs.blocks(&path)?;
                if blocks.is_empty() || self.dfs.len(&path)? == 0 {
                    continue;
                }
                if let Some(column) = input.key_order {
                    splits.extend(self.ranged_splits(input, &path, column, &blocks)?);
                    continue;
                }
                if input.format == hive_formats::FormatKind::Sequence || (by_ordinal && !orc) {
                    // One task scans the file start to end: a SequenceFile
                    // has no sync markers, and rows addressed by ordinal
                    // within the whole file, over a format whose reader
                    // cannot report one, cannot be carved into block-range
                    // splits. ORC files split (and prune) like any other
                    // input: their reader tracks skip-aware ordinals.
                    splits.push(Split {
                        input,
                        path: path.clone(),
                        start: 0,
                        end: self.dfs.len(&path)?,
                        replicas: blocks[0].replicas.clone(),
                        variant: 0,
                        range: None,
                    });
                    continue;
                }
                let chosen = if choose {
                    self.sorted_copy(&path, &pred_cols)?
                } else {
                    None
                };
                let (variant, blocks) = match chosen {
                    Some((variant, column)) => {
                        let name = input.schema.fields()[column].name.clone();
                        choices.push((path.clone(), variant, name));
                        (variant, self.dfs.variant_blocks(&path, variant)?)
                    }
                    None => (0, blocks),
                };
                // Data-local scheduling: attempt 0 runs on the first
                // replica, as Hadoop usually manages to; retries rotate
                // through the rest.
                for b in blocks.into_iter().filter(|b| b.len > 0) {
                    splits.push(Split {
                        input,
                        path: path.clone(),
                        start: b.offset,
                        end: b.offset + b.len,
                        replicas: b.replicas,
                        variant,
                        range: None,
                    });
                }
            }
        }
        Ok((splits, choices))
    }

    /// The first sorted copy of `path` whose footer says it is ordered on
    /// one of the table columns `columns`, with that column. A file with
    /// one copy opens no footer, and a copy whose footer cannot be read is
    /// passed over: the scan then reads the base copy.
    fn sorted_copy(&self, path: &str, columns: &[usize]) -> Result<Option<(usize, usize)>> {
        let cache_metadata = self.cache_metadata()?;
        Ok(self
            .dfs
            .sorted_copies(path)
            .into_iter()
            .find_map(|variant| {
                let opts = OrcReadOptions {
                    cache_metadata,
                    variant,
                    ..Default::default()
                };
                let file = OrcReader::open(&self.dfs, path, opts).ok()?;
                let column = columns.iter().copied().find(|&c| file.is_ordered(c))?;
                Some((variant, column))
            }))
    }

    /// Whether planning's footer reads go through the process-wide ORC
    /// metadata cache: `hive.io.cache.bytes=0` switches both cache tiers
    /// off, as it does for the scan.
    fn cache_metadata(&self) -> Result<bool> {
        Ok(self.conf.get_i64(keys::IO_CACHE_BYTES)? > 0)
    }

    /// The splits of one file of an input stored in key order on table
    /// column `column`: a task per block in which stripes start, owning the
    /// keys in (max of the stripe before its first, max of its last]. Its
    /// byte range reaches on over the next stripes that start with its top
    /// key, whose leading rows it reads; the next task skips them. The file
    /// is read from its base copy, whose stripes the statistics describe.
    fn ranged_splits<'a>(
        &self,
        input: &'a JobInput,
        path: &str,
        column: usize,
        blocks: &[BlockInfo],
    ) -> Result<Vec<Split<'a>>> {
        let width = input.schema.len();
        let (read, _) = split_projection(input.projection.as_deref(), width);
        let key_column = match read {
            Some(read) => read.iter().position(|&c| c == column),
            None => (column < width).then_some(column),
        };
        let key_column = key_column.ok_or_else(|| {
            HiveError::Plan(format!(
                "the scan of `{path}` does not read its order column"
            ))
        })?;
        let opts = OrcReadOptions {
            cache_metadata: self.cache_metadata()?,
            ..Default::default()
        };
        let bounds = OrcReader::open(&self.dfs, path, opts)?.stripe_bounds(column);
        let len = self.dfs.len(path)?;
        let split = |start, end, replicas: &[usize], lo, hi| Split {
            input,
            path: path.to_string(),
            start,
            end,
            replicas: replicas.to_vec(),
            variant: 0,
            range: Some(KeyRange {
                column: key_column,
                lo,
                hi,
            }),
        };
        // Without bounds for every stripe no boundary can be placed: one
        // task owns the whole file.
        if bounds
            .iter()
            .any(|(_, min, max)| min.is_none() || max.is_none())
        {
            return Ok(vec![split(0, len, &blocks[0].replicas, None, None)]);
        }
        let max = |s: usize| bounds[s].2.clone();
        let mut splits = Vec::new();
        for b in blocks {
            let block = b.offset..b.offset + b.len;
            let starts_here = |&s: &usize| block.contains(&bounds[s].0);
            let owned: Vec<usize> = (0..bounds.len()).filter(starts_here).collect();
            let (Some(&first), Some(&last)) = (owned.first(), owned.last()) else {
                continue;
            };
            let lo = first.checked_sub(1).and_then(max);
            let hi = (last + 1 < bounds.len()).then(|| max(last)).flatten();
            let mut next = last + 1;
            while let (Some(hi), Some((_, Some(min), _))) = (&hi, bounds.get(next)) {
                if key::cmp_value(min, hi).is_ne() {
                    break;
                }
                next += 1;
            }
            let end = bounds.get(next).map_or(len, |&(offset, ..)| offset);
            splits.push(split(bounds[first].0, end, &b.replicas, lo, hi));
        }
        Ok(splits)
    }
}
