//! The row-mode operators (paper Sections 2 and 5.2.2).
//!
//! Standard operators — TableScan is implicit (the task driver pushes rows
//! in), Filter, Select, GroupBy, ReduceSink, Join, MapJoin, Limit,
//! FileSink — plus the two operators the Correlation Optimizer adds to make
//! merged plans executable under the push model: **DemuxOperator** (retag
//! and dispatch rows to the right major operator at the start of the Reduce
//! phase) and **MuxOperator** (coordinate group signals arriving from
//! several parents before waking its child).

use crate::agg::{AggFunction, AggMode, RowAggState};
use crate::expr::ExprNode;
use crate::graph::{Emit, Message, Operator, ShuffleRecord};
use hive_common::{HiveError, Result, Row, Value};
use std::collections::HashMap;

/// Broadcasts everything to all children — the fan-out point used when a
/// merged table scan feeds several chains (input correlation).
pub struct PassThroughOperator;

impl Operator for PassThroughOperator {
    fn name(&self) -> String {
        "PassThroughOperator".into()
    }

    fn receive(&mut self, msg: Message) -> Result<Vec<Emit>> {
        Ok(vec![Emit::Broadcast(msg)])
    }
}

/// Evaluates a predicate; non-matching rows are dropped.
pub struct FilterOperator {
    pub predicate: ExprNode,
}

impl Operator for FilterOperator {
    fn name(&self) -> String {
        "FilterOperator".into()
    }

    fn receive(&mut self, msg: Message) -> Result<Vec<Emit>> {
        match msg {
            Message::Row { row, tag } => {
                if self.predicate.eval_predicate(&row)? {
                    Ok(vec![Emit::Forward {
                        child_slot: 0,
                        msg: Message::Row { row, tag },
                    }])
                } else {
                    Ok(vec![])
                }
            }
            signal => Ok(vec![Emit::Broadcast(signal)]),
        }
    }
}

/// Projects expressions over each row.
pub struct SelectOperator {
    pub exprs: Vec<ExprNode>,
}

impl Operator for SelectOperator {
    fn name(&self) -> String {
        "SelectOperator".into()
    }

    fn receive(&mut self, msg: Message) -> Result<Vec<Emit>> {
        match msg {
            Message::Row { row, tag } => {
                let mut vals = Vec::with_capacity(self.exprs.len());
                for e in &self.exprs {
                    vals.push(e.eval(&row)?);
                }
                Ok(vec![Emit::Forward {
                    child_slot: 0,
                    msg: Message::Row {
                        row: Row::new(vals),
                        tag,
                    },
                }])
            }
            signal => Ok(vec![Emit::Broadcast(signal)]),
        }
    }
}

/// Stops forwarding after `limit` rows.
pub struct LimitOperator {
    pub limit: u64,
    seen: u64,
}

impl LimitOperator {
    pub fn new(limit: u64) -> LimitOperator {
        LimitOperator { limit, seen: 0 }
    }
}

impl Operator for LimitOperator {
    fn name(&self) -> String {
        format!("LimitOperator({})", self.limit)
    }

    fn receive(&mut self, msg: Message) -> Result<Vec<Emit>> {
        match msg {
            Message::Row { row, tag } => {
                if self.seen < self.limit {
                    self.seen += 1;
                    Ok(vec![Emit::Forward {
                        child_slot: 0,
                        msg: Message::Row { row, tag },
                    }])
                } else {
                    Ok(vec![])
                }
            }
            signal => Ok(vec![Emit::Broadcast(signal)]),
        }
    }
}

/// Emits rows to the shuffle with a key and a tag — "the boundary between a
/// Map phase and a Reduce phase" (paper Section 2).
pub struct ReduceSinkOperator {
    pub key_exprs: Vec<ExprNode>,
    pub value_exprs: Vec<ExprNode>,
    pub tag: usize,
    pub num_reducers: usize,
}

impl Operator for ReduceSinkOperator {
    fn name(&self) -> String {
        format!("ReduceSinkOperator(tag {})", self.tag)
    }

    fn receive(&mut self, msg: Message) -> Result<Vec<Emit>> {
        match msg {
            Message::Row { row, .. } => {
                let mut key = Vec::with_capacity(self.key_exprs.len());
                for e in &self.key_exprs {
                    key.push(e.eval(&row)?);
                }
                let mut value = Vec::with_capacity(self.value_exprs.len());
                for e in &self.value_exprs {
                    value.push(e.eval(&row)?);
                }
                Ok(vec![Emit::Shuffle(ShuffleRecord {
                    key,
                    value: Row::new(value),
                    tag: self.tag,
                    num_reducers: self.num_reducers,
                })])
            }
            // Group signals never cross the shuffle boundary.
            _ => Ok(vec![]),
        }
    }
}

/// Terminal operator: emits rows as task output.
pub struct FileSinkOperator;

impl Operator for FileSinkOperator {
    fn name(&self) -> String {
        "FileSinkOperator".into()
    }

    fn receive(&mut self, msg: Message) -> Result<Vec<Emit>> {
        match msg {
            Message::Row { row, .. } => Ok(vec![Emit::Output(row)]),
            _ => Ok(vec![]),
        }
    }
}

/// One aggregate of a GroupByOperator: function, mode, input expression
/// (None for COUNT(*)).
#[derive(Clone)]
pub struct AggSpec {
    pub function: AggFunction,
    pub mode: AggMode,
    pub arg: Option<ExprNode>,
}

/// How the GroupByOperator collects groups.
pub enum GroupByMode {
    /// Hash aggregation (map side): buffers all groups, flushes on close.
    Hash,
    /// Streaming (reduce side): input arrives grouped; group signals from
    /// the reducer driver delimit groups.
    Streaming,
}

/// Group-by with partial/final aggregate modes.
pub struct GroupByOperator {
    pub key_exprs: Vec<ExprNode>,
    pub aggs: Vec<AggSpec>,
    mode: GroupByMode,
    hash: HashMap<Vec<String>, (Vec<Value>, Vec<RowAggState>)>,
    current: Option<(Vec<Value>, Vec<RowAggState>)>,
}

impl GroupByOperator {
    pub fn new(key_exprs: Vec<ExprNode>, aggs: Vec<AggSpec>, mode: GroupByMode) -> GroupByOperator {
        GroupByOperator {
            key_exprs,
            aggs,
            mode,
            hash: HashMap::new(),
            current: None,
        }
    }

    fn fresh_states(aggs: &[AggSpec]) -> Vec<RowAggState> {
        aggs.iter()
            .map(|a| RowAggState::new(a.function, a.mode))
            .collect()
    }

    fn update_states(aggs: &[AggSpec], states: &mut [RowAggState], row: &Row) -> Result<()> {
        for (spec, state) in aggs.iter().zip(states.iter_mut()) {
            let v = match &spec.arg {
                Some(e) => e.eval(row)?,
                None => Value::Null, // COUNT(*) ignores it
            };
            state.update(&v)?;
        }
        Ok(())
    }

    fn result_row(key: &[Value], states: &[RowAggState]) -> Row {
        let mut vals: Vec<Value> = key.to_vec();
        vals.extend(states.iter().map(RowAggState::output));
        Row::new(vals)
    }

    /// Approximate hash-table footprint.
    pub fn memory_size(&self) -> usize {
        self.hash.len() * (64 + self.aggs.len() * 96)
    }
}

impl Operator for GroupByOperator {
    fn name(&self) -> String {
        match self.mode {
            GroupByMode::Hash => "GroupByOperator(hash)".into(),
            GroupByMode::Streaming => "GroupByOperator(streaming)".into(),
        }
    }

    fn receive(&mut self, msg: Message) -> Result<Vec<Emit>> {
        match msg {
            Message::Row { row, .. } => {
                let mut key = Vec::with_capacity(self.key_exprs.len());
                for e in &self.key_exprs {
                    key.push(e.eval(&row)?);
                }
                let aggs = &self.aggs;
                let (_, states) = match self.mode {
                    // One table lookup per row; the states update in place.
                    GroupByMode::Hash => {
                        let hkey: Vec<String> = key.iter().map(|v| format!("{v:?}")).collect();
                        let fresh = || (key, Self::fresh_states(aggs));
                        self.hash.entry(hkey).or_insert_with(fresh)
                    }
                    // Rows of one key group arrive between Start/End
                    // signals, so the first row's key names the group.
                    GroupByMode::Streaming => self
                        .current
                        .get_or_insert_with(|| (key, Self::fresh_states(aggs))),
                };
                Self::update_states(aggs, states, &row)?;
                Ok(vec![])
            }
            Message::Batch { .. } => Err(HiveError::Execution(
                "GroupByOperator is row-mode; a batch reaching it is a planner wiring bug".into(),
            )),
            Message::StartGroup => {
                if matches!(self.mode, GroupByMode::Streaming) {
                    self.current = None;
                }
                Ok(vec![Emit::Broadcast(Message::StartGroup)])
            }
            Message::EndGroup => {
                let mut emits = Vec::new();
                if matches!(self.mode, GroupByMode::Streaming) {
                    if let Some((key, states)) = self.current.take() {
                        emits.push(Emit::Forward {
                            child_slot: 0,
                            msg: Message::Row {
                                row: Self::result_row(&key, &states),
                                tag: 0,
                            },
                        });
                    }
                }
                emits.push(Emit::Broadcast(Message::EndGroup));
                Ok(emits)
            }
        }
    }

    fn close(&mut self) -> Result<Vec<Emit>> {
        let mut emits = Vec::new();
        match self.mode {
            GroupByMode::Hash => {
                let mut entries: Vec<_> = self.hash.drain().collect();
                entries.sort_by(|a, b| a.0.cmp(&b.0));
                for (_, (key, states)) in entries {
                    emits.push(Emit::Forward {
                        child_slot: 0,
                        msg: Message::Row {
                            row: Self::result_row(&key, &states),
                            tag: 0,
                        },
                    });
                }
            }
            GroupByMode::Streaming => {
                if let Some((key, states)) = self.current.take() {
                    emits.push(Emit::Forward {
                        child_slot: 0,
                        msg: Message::Row {
                            row: Self::result_row(&key, &states),
                            tag: 0,
                        },
                    });
                }
            }
        }
        Ok(emits)
    }
}

/// Join flavour for one side pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinType {
    Inner,
    LeftOuter,
    RightOuter,
    FullOuter,
}

/// Reduce-side join ("Reduce Join" / common join). Buffers the rows of
/// each tag within a key group; on EndGroup emits the joined rows.
///
/// N-way inner joins are supported; outer joins for the binary case (which
/// is what the planner generates — multiway joins are chains).
pub struct CommonJoinOperator {
    pub n_inputs: usize,
    pub join_type: JoinType,
    /// Row width per input (to build null sides for outer joins).
    pub widths: Vec<usize>,
    buffers: Vec<Vec<Row>>,
}

impl CommonJoinOperator {
    pub fn new(n_inputs: usize, join_type: JoinType, widths: Vec<usize>) -> CommonJoinOperator {
        assert_eq!(widths.len(), n_inputs);
        CommonJoinOperator {
            n_inputs,
            join_type,
            widths,
            buffers: vec![Vec::new(); n_inputs],
        }
    }

    fn emit_group(&mut self) -> Result<Vec<Emit>> {
        let mut out = Vec::new();
        let buffers = &self.buffers;
        let any_empty = buffers.iter().any(Vec::is_empty);
        match self.join_type {
            JoinType::Inner => {
                if !any_empty {
                    // Cross product across all inputs.
                    let mut acc: Vec<Row> = vec![Row::default()];
                    for buf in buffers {
                        let mut next = Vec::with_capacity(acc.len() * buf.len());
                        for a in &acc {
                            for b in buf {
                                next.push(a.concat(b));
                            }
                        }
                        acc = next;
                    }
                    for row in acc {
                        out.push(Emit::Forward {
                            child_slot: 0,
                            msg: Message::Row { row, tag: 0 },
                        });
                    }
                }
            }
            JoinType::LeftOuter | JoinType::RightOuter | JoinType::FullOuter => {
                if self.n_inputs != 2 {
                    return Err(HiveError::Execution(
                        "outer joins must be binary in this engine".into(),
                    ));
                }
                let (l, r) = (&buffers[0], &buffers[1]);
                let null_l = Row::new(vec![Value::Null; self.widths[0]]);
                let null_r = Row::new(vec![Value::Null; self.widths[1]]);
                if !l.is_empty() && !r.is_empty() {
                    for a in l {
                        for b in r {
                            out.push(Emit::Forward {
                                child_slot: 0,
                                msg: Message::Row {
                                    row: a.concat(b),
                                    tag: 0,
                                },
                            });
                        }
                    }
                } else if !l.is_empty()
                    && matches!(self.join_type, JoinType::LeftOuter | JoinType::FullOuter)
                {
                    for a in l {
                        out.push(Emit::Forward {
                            child_slot: 0,
                            msg: Message::Row {
                                row: a.concat(&null_r),
                                tag: 0,
                            },
                        });
                    }
                } else if !r.is_empty()
                    && matches!(self.join_type, JoinType::RightOuter | JoinType::FullOuter)
                {
                    for b in r {
                        out.push(Emit::Forward {
                            child_slot: 0,
                            msg: Message::Row {
                                row: null_l.concat(b),
                                tag: 0,
                            },
                        });
                    }
                }
            }
        }
        for buf in &mut self.buffers {
            buf.clear();
        }
        Ok(out)
    }
}

impl Operator for CommonJoinOperator {
    fn name(&self) -> String {
        format!("JoinOperator({:?}, {} way)", self.join_type, self.n_inputs)
    }

    fn receive(&mut self, msg: Message) -> Result<Vec<Emit>> {
        match msg {
            Message::Row { row, tag } => {
                if tag >= self.n_inputs {
                    return Err(HiveError::Execution(format!(
                        "join received tag {tag}, expected < {}",
                        self.n_inputs
                    )));
                }
                self.buffers[tag].push(row);
                Ok(vec![])
            }
            Message::Batch { .. } => Err(HiveError::Execution(
                "JoinOperator is row-mode; a batch reaching it is a planner wiring bug".into(),
            )),
            Message::StartGroup => Ok(vec![Emit::Broadcast(Message::StartGroup)]),
            Message::EndGroup => {
                let mut emits = self.emit_group()?;
                emits.push(Emit::Broadcast(Message::EndGroup));
                Ok(emits)
            }
        }
    }

    fn close(&mut self) -> Result<Vec<Emit>> {
        // A trailing group with no EndGroup (defensive; drivers send it).
        self.emit_group()
    }
}

/// One small table of a Map Join: rows grouped by their join key.
pub struct MapJoinTable {
    pub rows_by_key: HashMap<Vec<String>, Vec<Row>>,
    pub width: usize,
    pub join_type: JoinType,
    /// Key expressions over the *stream* (big side) row as it looks when it
    /// reaches this table (already extended by earlier tables).
    pub key_exprs: Vec<ExprNode>,
}

impl MapJoinTable {
    /// Build the hash table from the small side's rows.
    pub fn build(
        rows: &[Row],
        key_exprs: &[ExprNode],
        stream_keys: Vec<ExprNode>,
        join_type: JoinType,
        width: usize,
    ) -> Result<MapJoinTable> {
        let mut rows_by_key: HashMap<Vec<String>, Vec<Row>> = HashMap::new();
        for row in rows {
            let mut key = Vec::with_capacity(key_exprs.len());
            let mut has_null = false;
            for e in key_exprs {
                let v = e.eval(row)?;
                has_null |= v.is_null();
                key.push(format!("{v:?}"));
            }
            if has_null {
                continue; // NULL keys never match
            }
            rows_by_key.entry(key).or_default().push(row.clone());
        }
        Ok(MapJoinTable {
            rows_by_key,
            width,
            join_type,
            key_exprs: stream_keys,
        })
    }

    /// Approximate footprint, for the small-table threshold checks.
    pub fn memory_size(&self) -> usize {
        self.rows_by_key
            .values()
            .flat_map(|rows| rows.iter().map(Row::heap_size))
            .sum::<usize>()
            + self.rows_by_key.len() * 48
    }
}

/// Map Join: the big table streams through; each small table was built
/// into a hash table at task setup. Several Map Joins merged into one Map
/// phase (paper Section 5.1) are just several tables here, probed "in a
/// pipelined fashion".
pub struct MapJoinOperator {
    pub tables: Vec<MapJoinTable>,
}

impl Operator for MapJoinOperator {
    fn name(&self) -> String {
        format!("MapJoinOperator({} tables)", self.tables.len())
    }

    fn receive(&mut self, msg: Message) -> Result<Vec<Emit>> {
        match msg {
            Message::Row { row, tag } => {
                // Probe tables in order, expanding matches as we go.
                let mut acc = vec![row];
                for t in &self.tables {
                    let mut next = Vec::with_capacity(acc.len());
                    for big in acc {
                        let mut key = Vec::with_capacity(t.key_exprs.len());
                        let mut has_null = false;
                        for e in &t.key_exprs {
                            let v = e.eval(&big)?;
                            has_null |= v.is_null();
                            key.push(format!("{v:?}"));
                        }
                        let matches = if has_null {
                            None
                        } else {
                            t.rows_by_key.get(&key)
                        };
                        match matches {
                            Some(small_rows) => {
                                for s in small_rows {
                                    next.push(big.concat(s));
                                }
                            }
                            None => {
                                if matches!(t.join_type, JoinType::LeftOuter | JoinType::FullOuter)
                                {
                                    next.push(big.concat(&Row::new(vec![Value::Null; t.width])));
                                }
                            }
                        }
                    }
                    acc = next;
                }
                Ok(acc
                    .into_iter()
                    .map(|row| Emit::Forward {
                        child_slot: 0,
                        msg: Message::Row { row, tag },
                    })
                    .collect())
            }
            signal => Ok(vec![Emit::Broadcast(signal)]),
        }
    }
}

/// DemuxOperator (paper Figure 5): sits right after the Reducer Driver in a
/// correlation-optimized plan, reassigning new tags back to the original
/// ("old") tags and dispatching rows to the right major operator.
pub struct DemuxOperator {
    /// Indexed by incoming (new) tag: `(child_slot, old_tag)`.
    pub routes: Vec<(usize, usize)>,
}

impl Operator for DemuxOperator {
    fn name(&self) -> String {
        "DemuxOperator".into()
    }

    fn receive(&mut self, msg: Message) -> Result<Vec<Emit>> {
        match msg {
            Message::Row { row, tag } => {
                let &(child_slot, old_tag) = self.routes.get(tag).ok_or_else(|| {
                    HiveError::Execution(format!("demux has no route for tag {tag}"))
                })?;
                Ok(vec![Emit::Forward {
                    child_slot,
                    msg: Message::Row { row, tag: old_tag },
                }])
            }
            // Signals are propagated to the whole tree (paper: "the DemuxOp
            // will propagate this signal to the operator tree").
            signal => Ok(vec![Emit::Broadcast(signal)]),
        }
    }
}

/// MuxOperator (paper Figure 5): the single parent of each GroupBy/Join in
/// an optimized plan. It forwards rows (optionally assigning a tag for its
/// join child) and coordinates group signals: the child sees EndGroup only
/// when *all* of the Mux's parents have ended the group.
pub struct MuxOperator {
    pub num_parents: usize,
    /// Tag to assign to forwarded rows (None = preserve; used when the
    /// child is a Join and this Mux funnels one of its inputs).
    pub assign_tag: Option<usize>,
    starts_seen: usize,
    ends_seen: usize,
}

impl MuxOperator {
    pub fn new(num_parents: usize, assign_tag: Option<usize>) -> MuxOperator {
        MuxOperator {
            num_parents: num_parents.max(1),
            assign_tag,
            starts_seen: 0,
            ends_seen: 0,
        }
    }
}

impl Operator for MuxOperator {
    fn name(&self) -> String {
        format!(
            "MuxOperator({} parents, tag {:?})",
            self.num_parents, self.assign_tag
        )
    }

    fn receive(&mut self, msg: Message) -> Result<Vec<Emit>> {
        match msg {
            Message::Row { row, tag } => Ok(vec![Emit::Forward {
                child_slot: 0,
                msg: Message::Row {
                    row,
                    tag: self.assign_tag.unwrap_or(tag),
                },
            }]),
            Message::Batch { .. } => Err(HiveError::Execution(
                "MuxOperator is row-mode; a batch reaching it is a planner wiring bug".into(),
            )),
            Message::StartGroup => {
                self.starts_seen += 1;
                if self.starts_seen == self.num_parents {
                    self.starts_seen = 0;
                    Ok(vec![Emit::Broadcast(Message::StartGroup)])
                } else {
                    Ok(vec![])
                }
            }
            Message::EndGroup => {
                self.ends_seen += 1;
                // "When a MuxOp gets this ending group signal, it will check
                // if all of its parent operators have sent this signal to
                // it. If so, it will ask its child to generate results."
                if self.ends_seen == self.num_parents {
                    self.ends_seen = 0;
                    Ok(vec![Emit::Broadcast(Message::EndGroup)])
                } else {
                    Ok(vec![])
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::OperatorGraph;

    fn row(vals: &[i64]) -> Row {
        Row::new(vals.iter().map(|&v| Value::Int(v)).collect())
    }

    fn run_rows(
        g: &mut OperatorGraph,
        root: usize,
        rows: Vec<Row>,
    ) -> (Vec<Row>, Vec<ShuffleRecord>) {
        let mut out = Vec::new();
        let mut shuffled = Vec::new();
        for r in rows {
            g.push(
                root,
                Message::Row { row: r, tag: 0 },
                &mut |s| shuffled.push(s),
                &mut |r| out.push(r),
            )
            .unwrap();
        }
        g.finish(&mut |s| shuffled.push(s), &mut |r| out.push(r))
            .unwrap();
        (out, shuffled)
    }

    #[test]
    fn filter_select_sink_pipeline() {
        let mut g = OperatorGraph::new();
        let f = g.add(Box::new(FilterOperator {
            predicate: ExprNode::binary(
                crate::expr::BinaryOp::Gt,
                ExprNode::col(0),
                ExprNode::lit(Value::Int(1)),
            ),
        }));
        let s = g.add(Box::new(SelectOperator {
            exprs: vec![ExprNode::binary(
                crate::expr::BinaryOp::Multiply,
                ExprNode::col(0),
                ExprNode::lit(Value::Int(10)),
            )],
        }));
        let fs = g.add(Box::new(FileSinkOperator));
        g.connect(f, s, None);
        g.connect(s, fs, None);
        let (out, _) = run_rows(&mut g, f, vec![row(&[1]), row(&[2]), row(&[3])]);
        assert_eq!(out, vec![row(&[20]), row(&[30])]);
    }

    #[test]
    fn hash_group_by_partial() {
        let mut g = OperatorGraph::new();
        let gb = g.add(Box::new(GroupByOperator::new(
            vec![ExprNode::col(0)],
            vec![
                AggSpec {
                    function: AggFunction::Sum,
                    mode: AggMode::Partial,
                    arg: Some(ExprNode::col(1)),
                },
                AggSpec {
                    function: AggFunction::CountStar,
                    mode: AggMode::Partial,
                    arg: None,
                },
            ],
            GroupByMode::Hash,
        )));
        let fs = g.add(Box::new(FileSinkOperator));
        g.connect(gb, fs, None);
        let (out, _) = run_rows(
            &mut g,
            gb,
            vec![row(&[1, 10]), row(&[2, 20]), row(&[1, 30])],
        );
        assert_eq!(out.len(), 2);
        assert!(out.contains(&row(&[1, 40, 2])));
        assert!(out.contains(&row(&[2, 20, 1])));
    }

    #[test]
    fn streaming_group_by_uses_group_signals() {
        let mut g = OperatorGraph::new();
        let gb = g.add(Box::new(GroupByOperator::new(
            vec![ExprNode::col(0)],
            vec![AggSpec {
                function: AggFunction::Sum,
                mode: AggMode::Final,
                arg: Some(ExprNode::col(1)),
            }],
            GroupByMode::Streaming,
        )));
        let fs = g.add(Box::new(FileSinkOperator));
        g.connect(gb, fs, None);
        let mut out = Vec::new();
        let push = |g: &mut OperatorGraph, m: Message, out: &mut Vec<Row>| {
            g.push(gb, m, &mut |_| {}, &mut |r| out.push(r)).unwrap();
        };
        push(&mut g, Message::StartGroup, &mut out);
        push(
            &mut g,
            Message::Row {
                row: row(&[1, 5]),
                tag: 0,
            },
            &mut out,
        );
        push(
            &mut g,
            Message::Row {
                row: row(&[1, 6]),
                tag: 0,
            },
            &mut out,
        );
        push(&mut g, Message::EndGroup, &mut out);
        push(&mut g, Message::StartGroup, &mut out);
        push(
            &mut g,
            Message::Row {
                row: row(&[2, 7]),
                tag: 0,
            },
            &mut out,
        );
        push(&mut g, Message::EndGroup, &mut out);
        g.finish(&mut |_| {}, &mut |r| out.push(r)).unwrap();
        assert_eq!(out, vec![row(&[1, 11]), row(&[2, 7])]);
    }

    #[test]
    fn reduce_sink_emits_shuffle_records() {
        let mut g = OperatorGraph::new();
        let rs = g.add(Box::new(ReduceSinkOperator {
            key_exprs: vec![ExprNode::col(0)],
            value_exprs: vec![ExprNode::col(1)],
            tag: 3,
            num_reducers: 4,
        }));
        let (_, shuffled) = run_rows(&mut g, rs, vec![row(&[7, 70])]);
        assert_eq!(shuffled.len(), 1);
        assert_eq!(shuffled[0].key, vec![Value::Int(7)]);
        assert_eq!(shuffled[0].value, row(&[70]));
        assert_eq!(shuffled[0].tag, 3);
    }

    #[test]
    fn common_join_inner_and_outer() {
        // Inner join of one group with 2 left rows and 2 right rows → 4.
        let mut g = OperatorGraph::new();
        let j = g.add(Box::new(CommonJoinOperator::new(
            2,
            JoinType::Inner,
            vec![2, 1],
        )));
        let fs = g.add(Box::new(FileSinkOperator));
        g.connect(j, fs, None);
        let mut out = Vec::new();
        let send = |g: &mut OperatorGraph, m: Message, out: &mut Vec<Row>| {
            g.push(j, m, &mut |_| {}, &mut |r| out.push(r)).unwrap();
        };
        send(&mut g, Message::StartGroup, &mut out);
        send(
            &mut g,
            Message::Row {
                row: row(&[1, 10]),
                tag: 0,
            },
            &mut out,
        );
        send(
            &mut g,
            Message::Row {
                row: row(&[1, 11]),
                tag: 0,
            },
            &mut out,
        );
        send(
            &mut g,
            Message::Row {
                row: row(&[100]),
                tag: 1,
            },
            &mut out,
        );
        send(
            &mut g,
            Message::Row {
                row: row(&[101]),
                tag: 1,
            },
            &mut out,
        );
        send(&mut g, Message::EndGroup, &mut out);
        assert_eq!(out.len(), 4);
        assert!(out.contains(&row(&[1, 10, 100])));
        assert!(out.contains(&row(&[1, 11, 101])));

        // Left outer with empty right side.
        let mut g2 = OperatorGraph::new();
        let j2 = g2.add(Box::new(CommonJoinOperator::new(
            2,
            JoinType::LeftOuter,
            vec![2, 1],
        )));
        let fs2 = g2.add(Box::new(FileSinkOperator));
        g2.connect(j2, fs2, None);
        let mut out2 = Vec::new();
        g2.push(
            j2,
            Message::Row {
                row: row(&[5, 50]),
                tag: 0,
            },
            &mut |_| {},
            &mut |r| out2.push(r),
        )
        .unwrap();
        g2.push(j2, Message::EndGroup, &mut |_| {}, &mut |r| out2.push(r))
            .unwrap();
        assert_eq!(
            out2,
            vec![Row::new(vec![Value::Int(5), Value::Int(50), Value::Null])]
        );
    }

    #[test]
    fn map_join_probes_pipelined_tables() {
        // Two small tables, like M-JoinOp-1 / M-JoinOp-2 in Figure 4(b).
        let small1 = vec![row(&[1, 100]), row(&[2, 200])];
        let small2 = vec![row(&[7, 700])];
        let t1 = MapJoinTable::build(
            &small1,
            &[ExprNode::col(0)],
            vec![ExprNode::col(0)], // big1.skey1 is col 0
            JoinType::Inner,
            2,
        )
        .unwrap();
        let t2 = MapJoinTable::build(
            &small2,
            &[ExprNode::col(0)],
            vec![ExprNode::col(1)], // big1.skey2 is col 1
            JoinType::Inner,
            2,
        )
        .unwrap();
        let mut g = OperatorGraph::new();
        let mj = g.add(Box::new(MapJoinOperator {
            tables: vec![t1, t2],
        }));
        let fs = g.add(Box::new(FileSinkOperator));
        g.connect(mj, fs, None);
        let (out, _) = run_rows(
            &mut g,
            mj,
            vec![row(&[1, 7, 42]), row(&[9, 7, 43]), row(&[2, 8, 44])],
        );
        // Row 1 matches both; row 2 misses small1; row 3 misses small2.
        assert_eq!(out, vec![row(&[1, 7, 42, 1, 100, 7, 700])]);
    }

    #[test]
    fn demux_routes_and_retags() {
        struct Capture(Vec<(Row, usize)>);
        impl Operator for Capture {
            fn name(&self) -> String {
                "Capture".into()
            }
            fn receive(&mut self, msg: Message) -> Result<Vec<Emit>> {
                if let Message::Row { row, tag } = msg {
                    self.0.push((row.clone(), tag));
                    return Ok(vec![Emit::Output(row)]);
                }
                Ok(vec![])
            }
        }
        let mut g = OperatorGraph::new();
        let d = g.add(Box::new(DemuxOperator {
            // new tag 0 → child 0 old tag 0; new tag 1 → child 1 old tag 0;
            // new tag 2 → child 1 old tag 1 (Figure 5's mapping shape).
            routes: vec![(0, 0), (1, 0), (1, 1)],
        }));
        let c0 = g.add(Box::new(Capture(Vec::new())));
        let c1 = g.add(Box::new(Capture(Vec::new())));
        g.connect(d, c0, None);
        g.connect(d, c1, None);
        let mut out = Vec::new();
        for (vals, tag) in [(vec![1], 0), (vec![2], 1), (vec![3], 2)] {
            g.push(
                d,
                Message::Row {
                    row: Row::new(vals.into_iter().map(Value::Int).collect()),
                    tag,
                },
                &mut |_| {},
                &mut |r| out.push(r),
            )
            .unwrap();
        }
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn mux_waits_for_all_parents() {
        let mut mux = MuxOperator::new(2, None);
        // First EndGroup: swallowed.
        assert!(mux.receive(Message::EndGroup).unwrap().is_empty());
        // Second: forwarded.
        let emits = mux.receive(Message::EndGroup).unwrap();
        assert_eq!(emits.len(), 1);
        // Counter reset: next pair behaves the same.
        assert!(mux.receive(Message::EndGroup).unwrap().is_empty());
        assert_eq!(mux.receive(Message::EndGroup).unwrap().len(), 1);
    }

    #[test]
    fn mux_assigns_tags() {
        let mut mux = MuxOperator::new(1, Some(5));
        let emits = mux
            .receive(Message::Row {
                row: row(&[1]),
                tag: 0,
            })
            .unwrap();
        let Emit::Forward {
            msg: Message::Row { tag, .. },
            ..
        } = &emits[0]
        else {
            panic!()
        };
        assert_eq!(*tag, 5);
    }

    #[test]
    fn pass_through_broadcasts_to_all_children() {
        let mut g = OperatorGraph::new();
        let tee = g.add(Box::new(PassThroughOperator));
        let a = g.add(Box::new(FileSinkOperator));
        let b = g.add(Box::new(FileSinkOperator));
        g.connect(tee, a, None);
        g.connect(tee, b, None);
        let mut out = Vec::new();
        g.push(
            tee,
            Message::Row {
                row: row(&[9]),
                tag: 0,
            },
            &mut |_| {},
            &mut |r| out.push(r),
        )
        .unwrap();
        assert_eq!(out.len(), 2, "one copy per child (shared-scan fan-out)");
    }

    #[test]
    fn mux_start_signals_also_coordinate() {
        let mut mux = MuxOperator::new(3, None);
        assert!(mux.receive(Message::StartGroup).unwrap().is_empty());
        assert!(mux.receive(Message::StartGroup).unwrap().is_empty());
        assert_eq!(mux.receive(Message::StartGroup).unwrap().len(), 1);
        // And the counter resets for the next group.
        assert!(mux.receive(Message::StartGroup).unwrap().is_empty());
    }

    #[test]
    fn join_clears_buffers_between_groups() {
        let mut j = CommonJoinOperator::new(2, JoinType::Inner, vec![1, 1]);
        j.receive(Message::Row {
            row: row(&[1]),
            tag: 0,
        })
        .unwrap();
        j.receive(Message::Row {
            row: row(&[2]),
            tag: 1,
        })
        .unwrap();
        let first = j.receive(Message::EndGroup).unwrap();
        assert_eq!(first.len(), 2, "1 joined row + EndGroup broadcast");
        // Next group must not see the previous group's rows.
        j.receive(Message::Row {
            row: row(&[3]),
            tag: 0,
        })
        .unwrap();
        let second = j.receive(Message::EndGroup).unwrap();
        assert_eq!(second.len(), 1, "no match → only the EndGroup broadcast");
    }

    #[test]
    fn limit_cuts_off() {
        let mut g = OperatorGraph::new();
        let l = g.add(Box::new(LimitOperator::new(2)));
        let fs = g.add(Box::new(FileSinkOperator));
        g.connect(l, fs, None);
        let (out, _) = run_rows(&mut g, l, (0..10).map(|i| row(&[i])).collect());
        assert_eq!(out.len(), 2);
    }
}
