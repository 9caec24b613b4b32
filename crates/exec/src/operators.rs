//! The row-mode operators (paper Sections 2 and 5.2.2).
//!
//! Standard operators — TableScan is implicit (the task driver pushes rows
//! in), Filter, Select, GroupBy, ReduceSink, Join, MapJoin, Limit,
//! FileSink — plus the two operators the Correlation Optimizer adds to make
//! merged plans executable under the push model: **DemuxOperator** (retag
//! and dispatch rows to the right major operator at the start of the Reduce
//! phase) and **MuxOperator** (coordinate group signals arriving from
//! several parents before waking its child).

use crate::agg::{AggFunction, RowAggState};
use crate::expr::ExprNode;
use crate::graph::{Emit, Message, Operator, ShuffleRecord};
use hive_common::{key, DataType, HiveError, Key, Result, Row, Value};
use std::collections::HashMap;
use std::sync::Arc;

/// A row sent to the operator's only child.
fn forward(row: Row) -> Emit {
    Emit::Forward {
        child_slot: 0,
        msg: Message::Row { row, tag: 0 },
    }
}

/// Evaluate key expressions over `row` into `out`, reusing its allocation.
/// Keys are canonical from here on (`key::canonical`).
fn eval_key(exprs: &[ExprNode], row: &Row, out: &mut Vec<Value>) -> Result<()> {
    out.clear();
    for e in exprs {
        out.push(key::canonical(e.eval(row)?));
    }
    Ok(())
}

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
}

impl Operator for ReduceSinkOperator {
    fn name(&self) -> String {
        format!("ReduceSinkOperator(tag {})", self.tag)
    }

    fn receive(&mut self, msg: Message) -> Result<Vec<Emit>> {
        match msg {
            Message::Row { row, .. } => {
                let mut key = Vec::with_capacity(self.key_exprs.len());
                eval_key(&self.key_exprs, &row, &mut key)?;
                let mut value = Vec::with_capacity(self.value_exprs.len());
                for e in &self.value_exprs {
                    value.push(e.eval(&row)?);
                }
                Ok(vec![Emit::Shuffle(ShuffleRecord {
                    key,
                    value: Row::new(value),
                    tag: self.tag,
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

/// One aggregate of a GroupByOperator: function, input expression (None
/// for COUNT(*)) and the planned result type.
#[derive(Clone)]
pub struct AggSpec {
    pub function: AggFunction,
    pub arg: Option<ExprNode>,
    pub output_type: DataType,
}

/// How the GroupByOperator collects groups.
pub enum GroupByMode {
    /// Hash aggregation (map side): buffers all groups, flushes on close.
    Hash,
    /// Streaming (reduce side): input arrives grouped; group signals from
    /// the reducer driver delimit groups.
    Streaming,
}

/// Group-by: a map-side hash aggregation, a reduce-side merge of its
/// partials, or a single-stage aggregation of raw rows — the plan's
/// functions tell them apart.
pub struct GroupByOperator {
    pub key_exprs: Vec<ExprNode>,
    pub aggs: Vec<AggSpec>,
    mode: GroupByMode,
    hash: HashMap<Key, Vec<RowAggState>>,
    /// The probe key of the hash table, reused from row to row.
    scratch: Key,
    current: Option<(Vec<Value>, Vec<RowAggState>)>,
}

impl GroupByOperator {
    /// A global aggregate's reducer starts with its one group open, so one
    /// that meets no row still answers SQL's `COUNT(*) = 0, SUM = NULL`.
    pub fn new(key_exprs: Vec<ExprNode>, aggs: Vec<AggSpec>, mode: GroupByMode) -> GroupByOperator {
        let global = key_exprs.is_empty() && matches!(mode, GroupByMode::Streaming);
        GroupByOperator {
            current: global.then(|| (Vec::new(), Self::fresh_states(&aggs))),
            key_exprs,
            aggs,
            mode,
            hash: HashMap::new(),
            scratch: Key::default(),
        }
    }

    fn fresh_states(aggs: &[AggSpec]) -> Vec<RowAggState> {
        aggs.iter()
            .map(|a| RowAggState::new(a.function, &a.output_type))
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

    /// A finished group as the row sent downstream: key ++ aggregates.
    fn result((mut key, states): (Vec<Value>, Vec<RowAggState>)) -> Emit {
        key.extend(states.iter().map(RowAggState::value));
        forward(Row::new(key))
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
                let aggs = &self.aggs;
                match self.mode {
                    // One table lookup per row of a known group; the states
                    // update in place. A key is cloned when it founds one.
                    GroupByMode::Hash => {
                        eval_key(&self.key_exprs, &row, &mut self.scratch.0)?;
                        if let Some(states) = self.hash.get_mut(&self.scratch) {
                            Self::update_states(aggs, states, &row)?;
                        } else {
                            let mut states = Self::fresh_states(aggs);
                            Self::update_states(aggs, &mut states, &row)?;
                            self.hash.insert(self.scratch.clone(), states);
                        }
                    }
                    // Rows of one key group arrive before its EndGroup,
                    // so the first row's key names the group.
                    GroupByMode::Streaming => {
                        if self.current.is_none() {
                            let mut key = Vec::with_capacity(self.key_exprs.len());
                            eval_key(&self.key_exprs, &row, &mut key)?;
                            self.current = Some((key, Self::fresh_states(aggs)));
                        }
                        let (_, states) = self.current.as_mut().expect("set just above");
                        Self::update_states(aggs, states, &row)?;
                    }
                }
                Ok(vec![])
            }
            Message::Batch { .. } => Err(HiveError::Execution(
                "GroupByOperator is row-mode; a batch reaching it is a planner wiring bug".into(),
            )),
            // Only a streaming group-by has a current group to finish.
            Message::EndGroup => {
                let mut emits: Vec<Emit> =
                    self.current.take().map(Self::result).into_iter().collect();
                emits.push(Emit::Broadcast(Message::EndGroup));
                Ok(emits)
            }
        }
    }

    /// The hash table leaves in key order; a streaming group-by has at most
    /// a trailing group left (a global aggregate's that met no row, or
    /// defensively: drivers end every group).
    fn close(&mut self) -> Result<Vec<Emit>> {
        let mut groups: Vec<_> = self.hash.drain().collect();
        groups.sort_by(|a, b| a.0.cmp(&b.0));
        let groups = groups.into_iter().map(|(key, states)| (key.0, states));
        Ok(groups
            .chain(self.current.take())
            .map(Self::result)
            .collect())
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

/// Reduce-side binary join ("Reduce Join" / common join). Buffers each
/// input's rows within a key group; on EndGroup emits the joined rows. A
/// join of more tables is a left-deep chain of these.
pub struct CommonJoinOperator {
    pub join_type: JoinType,
    /// The left and right row widths (to pad the side an outer join
    /// null-supplies).
    widths: [usize; 2],
    /// Every input row starts with this many join-key columns.
    nk: usize,
    /// An outer join's ON conjuncts beyond the keys, over the joined row.
    residual: Option<ExprNode>,
    buffers: [Vec<Row>; 2],
}

impl CommonJoinOperator {
    pub fn new(
        join_type: JoinType,
        widths: [usize; 2],
        nk: usize,
        residual: Option<ExprNode>,
    ) -> CommonJoinOperator {
        CommonJoinOperator {
            join_type,
            widths,
            nk,
            residual,
            buffers: [Vec::new(), Vec::new()],
        }
    }

    /// The group's pairs that pass the residual, input 0 outermost, each
    /// left row followed by its padded copy if no pair of it passed (LEFT,
    /// FULL), then the right rows no pair passed, padded (RIGHT, FULL).
    fn emit_group(&mut self) -> Result<Vec<Emit>> {
        use JoinType::*;
        // The shuffle groups NULL keys like any other key, but a join key
        // with a NULL in it matches nothing (the map joins neither store
        // nor find one): such a row joins as if the other input were empty.
        let nk = self.nk;
        let matchable = |r: &Row| !r.values()[..nk].iter().any(Value::is_null);
        let [left, right] = &self.buffers;
        let right_can: Vec<bool> = right.iter().map(matchable).collect();
        let mut right_hit = vec![false; right.len()];
        let mut joined: Vec<Row> = Vec::new();
        let null_r = Row::new(vec![Value::Null; self.widths[1]]);
        for a in left {
            let (mut hit, can) = (false, matchable(a));
            for (j, b) in right.iter().enumerate().filter(|p| can && right_can[p.0]) {
                let pair = a.concat(b);
                if let Some(residual) = &self.residual {
                    if !residual.eval_predicate(&pair)? {
                        continue;
                    }
                }
                (hit, right_hit[j]) = (true, true);
                joined.push(pair);
            }
            if !hit && matches!(self.join_type, LeftOuter | FullOuter) {
                joined.push(a.concat(&null_r));
            }
        }
        if matches!(self.join_type, RightOuter | FullOuter) {
            let null_l = Row::new(vec![Value::Null; self.widths[0]]);
            let missed = right.iter().zip(right_hit).filter(|(_, hit)| !hit);
            joined.extend(missed.map(|(b, _)| null_l.concat(b)));
        }
        self.buffers.iter_mut().for_each(Vec::clear);
        Ok(joined.into_iter().map(forward).collect())
    }
}

impl Operator for CommonJoinOperator {
    fn name(&self) -> String {
        format!("JoinOperator({:?}, 2 way)", self.join_type)
    }

    fn receive(&mut self, msg: Message) -> Result<Vec<Emit>> {
        match msg {
            Message::Row { row, tag } => {
                let buffer = self.buffers.get_mut(tag).ok_or_else(|| {
                    HiveError::Execution(format!("join received tag {tag}, expected < 2"))
                })?;
                buffer.push(row);
                Ok(vec![])
            }
            Message::Batch { .. } => Err(HiveError::Execution(
                "JoinOperator is row-mode; a batch reaching it is a planner wiring bug".into(),
            )),
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

/// One small table of a Map Join: the stored rows grouped by their join
/// key. Built once per job, then probed by every map task's operator.
pub struct MapJoinTable {
    rows_by_key: HashMap<Key, Vec<Row>>,
    pub width: usize,
    pub join_type: JoinType,
    /// Key expressions over the *stream* (big side) row as it looks when it
    /// reaches this table (already extended by earlier tables).
    pub key_exprs: Vec<ExprNode>,
}

impl MapJoinTable {
    /// An empty table of stored rows `width` wide, probed by `stream_keys`.
    pub fn new(stream_keys: Vec<ExprNode>, join_type: JoinType, width: usize) -> MapJoinTable {
        MapJoinTable {
            rows_by_key: HashMap::new(),
            width,
            join_type,
            key_exprs: stream_keys,
        }
    }

    /// Store a small-side row under its join key `key`: the stored row is
    /// the key's values, then the row's. A key with a NULL part is not
    /// stored — it never matches.
    pub fn insert(&mut self, key: Vec<Value>, row: &Row) {
        if key.iter().any(Value::is_null) {
            return;
        }
        let stored = Row::new(key.iter().chain(row.values()).cloned().collect());
        self.rows_by_key.entry(Key(key)).or_default().push(stored);
    }
}

/// Map Join: the big table streams through; the small table was built into
/// a hash table before the map tasks started. Several Map Joins merged into
/// one Map phase (paper Section 5.1) are a chain of these, probed "in a
/// pipelined fashion".
pub struct MapJoinOperator {
    pub table: Arc<MapJoinTable>,
    /// The probe key, reused from row to row.
    scratch: Key,
}

impl MapJoinOperator {
    pub fn new(table: Arc<MapJoinTable>) -> MapJoinOperator {
        MapJoinOperator {
            table,
            scratch: Key::default(),
        }
    }
}

impl Operator for MapJoinOperator {
    fn name(&self) -> String {
        "MapJoinOperator(1 tables)".into()
    }

    fn receive(&mut self, msg: Message) -> Result<Vec<Emit>> {
        match msg {
            Message::Row { row, tag } => {
                let t = &self.table;
                eval_key(&t.key_exprs, &row, &mut self.scratch.0)?;
                // A NULL key never matches.
                let matches = if self.scratch.0.iter().any(Value::is_null) {
                    None
                } else {
                    t.rows_by_key.get(&self.scratch)
                };
                let joined = match matches {
                    Some(small_rows) => small_rows.iter().map(|s| row.concat(s)).collect(),
                    None if matches!(t.join_type, JoinType::LeftOuter | JoinType::FullOuter) => {
                        vec![row.concat(&Row::new(vec![Value::Null; t.width]))]
                    }
                    None => Vec::new(),
                };
                Ok(joined
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

/// A row or batch message with its tag replaced.
fn retag(msg: Message, tag: usize) -> Message {
    match msg {
        Message::Row { row, .. } => Message::Row { row, tag },
        Message::Batch { batch, .. } => Message::Batch { batch, tag },
        signal => signal,
    }
}

/// DemuxOperator (paper Figure 5): sits right after the Reducer Driver in a
/// correlation-optimized plan, reassigning new tags back to the original
/// ("old") tags and dispatching rows to the right major operator. Rows and
/// batches alike: one pair of Demux/Mux serves both engines.
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
            Message::Row { tag, .. } | Message::Batch { tag, .. } => {
                let &(child_slot, old_tag) = self.routes.get(tag).ok_or_else(|| {
                    HiveError::Execution(format!("demux has no route for tag {tag}"))
                })?;
                let msg = retag(msg, old_tag);
                Ok(vec![Emit::Forward { child_slot, msg }])
            }
            // Signals are propagated to the whole tree (paper: "the DemuxOp
            // will propagate this signal to the operator tree").
            signal => Ok(vec![Emit::Broadcast(signal)]),
        }
    }
}

/// MuxOperator (paper Figure 5): the single parent of each GroupBy/Join in
/// an optimized plan. It forwards rows and batches (optionally assigning a
/// tag for its join child) and coordinates group signals: the child sees
/// EndGroup only when *all* of the Mux's parents have ended the group.
pub struct MuxOperator {
    pub num_parents: usize,
    /// Tag to assign to forwarded rows (None = preserve; used when the
    /// child is a Join and this Mux funnels one of its inputs).
    pub assign_tag: Option<usize>,
    ends_seen: usize,
}

impl MuxOperator {
    pub fn new(num_parents: usize, assign_tag: Option<usize>) -> MuxOperator {
        MuxOperator {
            num_parents: num_parents.max(1),
            assign_tag,
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
            Message::Row { tag, .. } | Message::Batch { tag, .. } => {
                let msg = retag(msg, self.assign_tag.unwrap_or(tag));
                Ok(vec![Emit::Forward { child_slot: 0, msg }])
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
    use crate::graph::{Collected, OperatorGraph};

    fn row(vals: &[i64]) -> Row {
        Row::new(vals.iter().map(|&v| Value::Int(v)).collect())
    }

    fn run_rows(
        g: &mut OperatorGraph,
        root: usize,
        rows: Vec<Row>,
    ) -> (Vec<Row>, Vec<ShuffleRecord>) {
        let mut out = Collected::default();
        for r in rows {
            g.push(root, Message::Row { row: r, tag: 0 }, &mut out)
                .unwrap();
        }
        g.finish(&mut out).unwrap();
        (out.rows, out.shuffled)
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
                    arg: Some(ExprNode::col(1)),
                    output_type: DataType::Int,
                },
                AggSpec {
                    function: AggFunction::CountStar,
                    arg: None,
                    output_type: DataType::Int,
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
    fn hash_keys_follow_the_key_rule() {
        // GROUP BY: one NaN whatever its payload, -0.0 is 0.0 (and prints
        // so), and groups leave in key order (NaN last).
        let nan2 = -f64::from_bits(f64::NAN.to_bits() | 1);
        let mut g = OperatorGraph::new();
        let gb = g.add(Box::new(GroupByOperator::new(
            vec![ExprNode::col(0)],
            vec![AggSpec {
                function: AggFunction::CountStar,
                arg: None,
                output_type: DataType::Int,
            }],
            GroupByMode::Hash,
        )));
        let fs = g.add(Box::new(FileSinkOperator));
        g.connect(gb, fs, None);
        let d = |x: f64| Row::new(vec![Value::Double(x)]);
        let keys = [f64::NAN, 0.0, nan2, -0.0, 1.5, f64::NAN];
        let (out, _) = run_rows(&mut g, gb, keys.map(d).to_vec());
        let got: Vec<(u64, i64)> = out
            .iter()
            .map(|r| (r[0].as_double().unwrap().to_bits(), r[1].as_int().unwrap()))
            .collect();
        let bits = f64::to_bits;
        assert_eq!(got, [(bits(0.0), 2), (bits(1.5), 1), (bits(f64::NAN), 3)]);

        // Map join: NaN finds NaN; an INT key never finds a DOUBLE key.
        let stored = vec![d(f64::NAN).concat(&row(&[7])), d(1.0).concat(&row(&[8]))];
        let t = keyed_table(stored, ExprNode::col(0));
        let mut g = OperatorGraph::new();
        let mj = g.add(Box::new(MapJoinOperator::new(t)));
        let fs = g.add(Box::new(FileSinkOperator));
        g.connect(mj, fs, None);
        let (out, _) = run_rows(&mut g, mj, vec![d(nan2), row(&[1]), d(1.0)]);
        let payloads: Vec<i64> = out.iter().map(|r| r[2].as_int().unwrap()).collect();
        assert_eq!(payloads, [7, 8]);
    }

    #[test]
    fn reduce_join_never_matches_a_null_key() {
        // One key column leads every row; the shuffle hands the NULL keys of
        // both inputs over as one group.
        let keyed = |k: Value, v: i64| Row::new(vec![k, Value::Int(v)]);
        let joined = |join_type: JoinType, key: Value| -> Vec<Row> {
            let mut j = CommonJoinOperator::new(join_type, [2, 2], 1, None);
            for (tag, v) in [(0, 10), (1, 20)] {
                let row = keyed(key.clone(), v);
                j.receive(Message::Row { row, tag }).unwrap();
            }
            let emits = j.receive(Message::EndGroup).unwrap();
            let rows = emits.into_iter().filter_map(|e| match e {
                Emit::Forward {
                    msg: Message::Row { row, .. },
                    ..
                } => Some(row),
                _ => None,
            });
            rows.collect()
        };
        let null = Value::Null;
        let pad = Row::new(vec![Value::Null; 2]);
        let (l, r) = (keyed(null.clone(), 10), keyed(null.clone(), 20));
        assert_eq!(joined(JoinType::Inner, Value::Int(1)).len(), 1);
        assert_eq!(joined(JoinType::Inner, null.clone()), []);
        assert_eq!(joined(JoinType::LeftOuter, null.clone()), [l.concat(&pad)]);
        assert_eq!(joined(JoinType::RightOuter, null.clone()), [pad.concat(&r)]);
        assert_eq!(
            joined(JoinType::FullOuter, null),
            [l.concat(&pad), pad.concat(&r)]
        );
    }

    #[test]
    fn streaming_group_by_uses_group_signals() {
        let mut g = OperatorGraph::new();
        let gb = g.add(Box::new(GroupByOperator::new(
            vec![ExprNode::col(0)],
            vec![AggSpec {
                function: AggFunction::Sum,
                arg: Some(ExprNode::col(1)),
                output_type: DataType::Int,
            }],
            GroupByMode::Streaming,
        )));
        let fs = g.add(Box::new(FileSinkOperator));
        g.connect(gb, fs, None);
        let mut out = Collected::default();
        let push = |g: &mut OperatorGraph, m: Message, out: &mut Collected| {
            g.push(gb, m, out).unwrap();
        };
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
        push(
            &mut g,
            Message::Row {
                row: row(&[2, 7]),
                tag: 0,
            },
            &mut out,
        );
        push(&mut g, Message::EndGroup, &mut out);
        g.finish(&mut out).unwrap();
        assert_eq!(out.rows, vec![row(&[1, 11]), row(&[2, 7])]);
    }

    #[test]
    fn reduce_sink_emits_shuffle_records() {
        let mut g = OperatorGraph::new();
        let rs = g.add(Box::new(ReduceSinkOperator {
            key_exprs: vec![ExprNode::col(0)],
            value_exprs: vec![ExprNode::col(1)],
            tag: 3,
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
            JoinType::Inner,
            [2, 1],
            0,
            None,
        )));
        let fs = g.add(Box::new(FileSinkOperator));
        g.connect(j, fs, None);
        let mut out = Collected::default();
        let send = |g: &mut OperatorGraph, m: Message, out: &mut Collected| {
            g.push(j, m, out).unwrap();
        };
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
        let out = out.rows;
        assert_eq!(out.len(), 4);
        assert!(out.contains(&row(&[1, 10, 100])));
        assert!(out.contains(&row(&[1, 11, 101])));

        // Left outer with empty right side.
        let mut g2 = OperatorGraph::new();
        let j2 = g2.add(Box::new(CommonJoinOperator::new(
            JoinType::LeftOuter,
            [2, 1],
            0,
            None,
        )));
        let fs2 = g2.add(Box::new(FileSinkOperator));
        g2.connect(j2, fs2, None);
        let mut out2 = Collected::default();
        g2.push(
            j2,
            Message::Row {
                row: row(&[5, 50]),
                tag: 0,
            },
            &mut out2,
        )
        .unwrap();
        g2.push(j2, Message::EndGroup, &mut out2).unwrap();
        assert_eq!(
            out2.rows,
            vec![Row::new(vec![Value::Int(5), Value::Int(50), Value::Null])]
        );
    }

    /// An inner-join table of two-column stored rows, each keyed by its
    /// first column, probed by `stream_key`.
    fn keyed_table(stored: Vec<Row>, stream_key: ExprNode) -> Arc<MapJoinTable> {
        let mut t = MapJoinTable::new(vec![stream_key], JoinType::Inner, 2);
        for r in stored {
            t.insert(vec![r[0].clone()], &Row::new(r.values()[1..].to_vec()));
        }
        Arc::new(t)
    }

    #[test]
    fn map_join_probes_pipelined_tables() {
        // Two small tables, like M-JoinOp-1 / M-JoinOp-2 in Figure 4(b).
        let small1 = vec![row(&[1, 100]), row(&[2, 200])];
        let small2 = vec![row(&[7, 700])];
        // Each stored row's first column is its key.
        let t1 = keyed_table(small1, ExprNode::col(0)); // big1.skey1 is col 0
        let t2 = keyed_table(small2, ExprNode::col(1)); // big1.skey2 is col 1
        let mut g = OperatorGraph::new();
        let mj1 = g.add(Box::new(MapJoinOperator::new(t1)));
        let mj2 = g.add(Box::new(MapJoinOperator::new(t2)));
        let fs = g.add(Box::new(FileSinkOperator));
        g.connect(mj1, mj2, None);
        g.connect(mj2, fs, None);
        let (out, _) = run_rows(
            &mut g,
            mj1,
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
        let mut out = Collected::default();
        for (vals, tag) in [(vec![1], 0), (vec![2], 1), (vec![3], 2)] {
            g.push(
                d,
                Message::Row {
                    row: Row::new(vals.into_iter().map(Value::Int).collect()),
                    tag,
                },
                &mut out,
            )
            .unwrap();
        }
        assert_eq!(out.rows.len(), 3);
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
    fn demux_and_mux_route_batches_as_rows() {
        use hive_vector::VectorizedRowBatch;
        use std::sync::Arc;
        let batch = Arc::new(VectorizedRowBatch::new(&[], 1).unwrap());
        let mut demux = DemuxOperator {
            routes: vec![(0, 0), (1, 1)],
        };
        let emits = demux
            .receive(Message::Batch {
                batch: Arc::clone(&batch),
                tag: 1,
            })
            .unwrap();
        let [Emit::Forward {
            child_slot: 1,
            msg: Message::Batch { tag: 1, .. },
        }] = &emits[..]
        else {
            panic!("{emits:?}")
        };
        let mut mux = MuxOperator::new(1, Some(4));
        let emits = mux.receive(Message::Batch { batch, tag: 1 }).unwrap();
        assert!(matches!(
            &emits[..],
            [Emit::Forward {
                msg: Message::Batch { tag: 4, .. },
                ..
            }]
        ));
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
        let mut out = Collected::default();
        g.push(
            tee,
            Message::Row {
                row: row(&[9]),
                tag: 0,
            },
            &mut out,
        )
        .unwrap();
        assert_eq!(
            out.rows.len(),
            2,
            "one copy per child (shared-scan fan-out)"
        );
    }

    #[test]
    fn join_clears_buffers_between_groups() {
        let mut j = CommonJoinOperator::new(JoinType::Inner, [1, 1], 0, None);
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
