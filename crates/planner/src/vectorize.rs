//! The vectorization optimizer (paper Section 6.4): "the planner first
//! generates a non-vectorized plan and then vectorization optimization is
//! invoked if configured. The vectorization optimization first validates
//! the plan to ensure vectorization is applicable to the operators and
//! expressions used in the plan. If validation succeeds, the optimizer ...
//! replaces each expression tree with corresponding vectorized
//! expressions."
//!
//! Here the pass decides once per stage, at compile time. A map stage is
//! decided by [`vectorizes`], since its map-join tables are built for the
//! engine it runs on before any of its tasks starts: one that reads a table
//! or an intermediate through one linear chain of operators over scalar
//! columns (its input and map-join build sides alike) is vectorized whole,
//! from the batch the format's reader fills to its sink: the batch shuffle
//! sink (`VectorReduceSink`, or the fused `VectorGroupBySink`) or, for a
//! map-only stage, the output sink (`VectorFileSink`). Any other stage — a
//! complex column, a shared scan feeding several sinks — runs in row mode
//! from end to end. A reduce stage is batch-native from the merged runs to
//! its sink when every shuffled column is scalar (`all_scalar`), row mode
//! otherwise. Map and reduce stages compile through one segment compiler,
//! `vectorize_stage`. Within a vectorized stage every operator and
//! expression has a kernel; one that has none is a plan error, not a
//! row-mode tail.

use crate::compile::Phase;
use crate::plan::{expr_type, ColumnInfo, GroupByPhase, PlanNode, PlanOp};
use hive_common::{DataType, HiveError, Result, Value};
use hive_exec::agg::AggFunction;
use hive_exec::expr::{cast_value, BinaryOp, ExprNode, UnaryOp};
use hive_exec::graph::Operator;
use hive_exec::operators::JoinType;
use hive_exec::vector_ops::{
    VectorFileSinkOperator, VectorGroupByOperator, VectorGroupBySinkOperator, VectorJoinOperator,
    VectorOpAdapter, VectorReduceSinkOperator,
};
use hive_mapreduce::job::{SideReader, SideTable};
use hive_vector::aggregates::{AggKind, AggSpec, VectorHashAggregator, VectorStreamAggregator};
use hive_vector::expressions as vx;
use hive_vector::expressions::{Lane, Operand, VectorExpression};
use hive_vector::mapjoin::{MapJoinBuilder, MapJoinKind, MapJoinTable, VectorMapJoinOperator};
use hive_vector::operators::{VectorFilterOperator, VectorLimitOperator, VectorSelectOperator};
use hive_vector::{VectorOperator, VectorizedRowBatch, DEFAULT_BATCH_SIZE};
use std::collections::HashMap;
use std::sync::Arc;

fn adapter(op: impl VectorOperator + 'static) -> Box<dyn Operator> {
    Box::new(VectorOpAdapter::new(Box::new(op)))
}

/// Whether every column is scalar: what a batch can hold.
pub(crate) fn all_scalar(columns: &[ColumnInfo]) -> bool {
    columns.iter().all(|c| Lane::of(&c.data_type).is_some())
}

/// The columns a map join appends to the stream: its build keys, then its
/// side's projected columns.
fn build_side(nodes: &[PlanNode], n: usize) -> &[ColumnInfo] {
    &nodes[n].schema[nodes[nodes[n].parents[0]].schema.len()..]
}

/// The projected columns of map join `n`'s side, as its reader fills them.
pub fn side_columns(nodes: &[PlanNode], n: usize) -> Result<&[ColumnInfo]> {
    match &nodes[n].op {
        PlanOp::MapJoin(s) => Ok(&build_side(nodes, n)[s.build_keys.len()..]),
        op => Err(HiveError::Plan(format!("{} has no side", op.kind_name()))),
    }
}

/// Whether the map stage `stage`, whose batches would hold the rows of plan
/// node `input`, vectorizes: it does unless it touches a non-scalar column
/// (on its input or a map-join's build side) or is not one linear chain (a
/// shared scan feeding several sinks). The side tables of its map joins are
/// built for the engine this answer names.
pub fn vectorizes(nodes: &[PlanNode], input: usize, stage: &[usize]) -> bool {
    let in_stage = |n: &usize| stage.contains(n);
    let forks = |&n: &usize| nodes[n].children.iter().filter(|c| in_stage(c)).count() > 1;
    let is_join = |n: &&usize| matches!(nodes[**n].op, PlanOp::MapJoin(_));
    let mut build_sides = stage.iter().filter(is_join).map(|&n| build_side(nodes, n));
    !stage.iter().any(forks) && all_scalar(&nodes[input].schema) && build_sides.all(all_scalar)
}

/// A stage compiled batch-native (DESIGN.md §16 "Chain compilation").
pub(crate) struct VectorizedStage {
    /// The operator of each plan node of the stage. A map stage's scan has
    /// none (it is the task's reader), nor has the ReduceSink a map-side
    /// GroupBy is fused with.
    pub operators: HashMap<usize, Box<dyn Operator>>,
    /// Per entry: the column types of the batches that enter there, its
    /// columns and then the scratch columns the stage's expressions fill.
    pub batch_types: Vec<Vec<DataType>>,
    /// When a map stage's first operator is a filter: the batch columns its
    /// predicate reads first. The reader fills those and defers the rest to
    /// the filter (`VectorFilterOperator`), which fills them for the rows it
    /// keeps. `None`: the reader fills every column.
    pub first_columns: Option<Vec<usize>>,
}

/// Vectorize the plan nodes `stage`, running in `phase`, whole: from the
/// batches that enter at `entries` to the stage's sinks. A map stage has one
/// entry, the plan node whose rows its batches hold (the scan, or the node an
/// intermediate was written from); a reduce stage's are its feeding
/// ReduceSinks in shuffle-tag order. An operator or expression without a
/// kernel is a plan error.
///
/// The stage is compiled in segments, each from where batches are made to
/// where they end: from each entry, and from each map join, reduce join or
/// streaming group-by (they make new batches), through filters, projections
/// and limits, to the next one's input or a sink. A segment's scratch columns
/// extend the batch its start makes, so each of those operators is built once
/// the segment after it is compiled.
pub(crate) fn vectorize_stage(
    nodes: &[PlanNode],
    stage: &[usize],
    entries: &[usize],
    phase: &Phase,
) -> Result<VectorizedStage> {
    let mut s = StageCompiler {
        nodes,
        stage,
        entries,
        phase,
        operators: HashMap::new(),
        joins: HashMap::new(),
        first_columns: None,
    };
    let batch_types = entries.iter().map(|&e| s.batches_of(e));
    let batch_types = batch_types.collect::<Result<_>>()?;
    Ok(VectorizedStage {
        operators: s.operators,
        batch_types,
        first_columns: s.first_columns,
    })
}

/// The state of [`vectorize_stage`].
struct StageCompiler<'a> {
    nodes: &'a [PlanNode],
    stage: &'a [usize],
    entries: &'a [usize],
    phase: &'a Phase<'a>,
    operators: HashMap<usize, Box<dyn Operator>>,
    /// Per join: the batch columns of each input's row, once compiled.
    joins: HashMap<usize, [Option<Vec<usize>>; 2]>,
    first_columns: Option<Vec<usize>>,
}

impl<'a> StageCompiler<'a> {
    /// Compile the stage below `from`, whose batches hold its output
    /// columns; returns their types, scratch columns included.
    fn batches_of(&mut self, from: usize) -> Result<Vec<DataType>> {
        let schema = &self.nodes[from].schema;
        let types = schema.iter().map(|c| c.data_type.clone()).collect();
        let mut c = VecCompiler::over(types, schema);
        self.segment(from, &mut c)?;
        Ok(c.types)
    }

    /// Compile the stage below `from`, whose batches `c` describes. Branches
    /// share the batch, each with scratch columns of its own.
    fn segment(&mut self, from: usize, c: &mut VecCompiler<'a>) -> Result<()> {
        let children = self.nodes[from].children.iter().copied();
        let children: Vec<usize> = children.filter(|n| self.stage.contains(n)).collect();
        let (layout, schema) = (c.layout.clone(), c.schema);
        for n in children {
            (c.layout, c.schema) = (layout.clone(), schema);
            self.node(from, n, c)?;
        }
        Ok(())
    }

    fn node(&mut self, parent: usize, n: usize, c: &mut VecCompiler<'a>) -> Result<()> {
        let node = &self.nodes[n];
        let op = match (&node.op, self.phase) {
            (PlanOp::Filter { predicate }, _) => {
                let f = c.compile_filter(predicate)?;
                let mut children = c.drain_pending();
                children.push(f);
                let filter = VectorFilterOperator::new(vx::filter_and(children));
                // The entry is a map stage's scan: the reader fills what the
                // filter reads first (the scan node is in the stage, so the
                // test is on the entries).
                if matches!(self.phase, Phase::Map { .. }) && self.entries.contains(&parent) {
                    self.first_columns = Some(filter.first_columns().to_vec());
                }
                adapter(filter)
            }
            (PlanOp::Select { exprs }, _) => c.project(exprs, &node.schema)?,
            // A degenerate sink is a plain projection (keys ++ values).
            (
                PlanOp::ReduceSink {
                    keys,
                    values,
                    degenerate: true,
                    ..
                },
                _,
            ) => {
                let exprs: Vec<ExprNode> = keys.iter().chain(values).cloned().collect();
                c.project(&exprs, &node.schema)?
            }
            (PlanOp::Limit(k), _) => adapter(VectorLimitOperator::new(*k)),
            // Sinks. A reduce stage's output leaves as rows: collected, or
            // written as the intermediate a later job reads.
            (PlanOp::FileSink | PlanOp::IntermediateCut, _)
            | (PlanOp::ReduceSink { .. }, Phase::Reduce) => {
                let sink = VectorFileSinkOperator::new(c.layout_columns());
                self.operators.insert(n, Box::new(sink));
                return Ok(());
            }
            (PlanOp::ReduceSink { keys, values, .. }, Phase::Map { rs_tags, .. }) => {
                let key_columns = c.typed_values(keys)?;
                let value_columns = c.typed_values(values)?;
                let tag = rs_tags.get(&n).copied().unwrap_or(0);
                let sink = VectorReduceSinkOperator::new(
                    c.drain_pending(),
                    key_columns,
                    value_columns,
                    tag,
                );
                self.operators.insert(n, Box::new(sink));
                return Ok(());
            }
            (
                PlanOp::GroupBy {
                    phase: GroupByPhase::MapHash,
                    keys,
                    aggs,
                },
                Phase::Map { rs_tags, .. },
            ) => {
                // Fused partial-aggregate + reduce-sink: the planner's
                // shape for map-side hash aggregation, unless the groups
                // are final in the map task (`order.rs`).
                let rs = node
                    .children
                    .iter()
                    .copied()
                    .find(|c| self.stage.contains(c));
                let key_cols = c.typed_values(keys)?;
                let specs = aggs.iter().map(|a| c.compile_agg(a));
                let specs = specs.collect::<Result<Vec<_>>>()?;
                let expressions = c.drain_pending();
                let Some((
                    rs,
                    PlanOp::ReduceSink {
                        keys: rs_keys,
                        values: rs_values,
                        ..
                    },
                )) = rs.map(|rs| (rs, &self.nodes[rs].op))
                else {
                    let mut out_types = self.batches_of(n)?;
                    let scratch = out_types.split_off(node.schema.len());
                    let aggregator = VectorHashAggregator::new(key_cols, specs);
                    let group_by =
                        VectorGroupBySinkOperator::forwarding(expressions, aggregator, scratch);
                    self.operators.insert(n, Box::new(group_by));
                    return Ok(());
                };
                // The shuffle's keys and values over the aggregator's result
                // batches, which hold the GroupBy's output columns.
                let schema = &node.schema;
                let mut r =
                    VecCompiler::over(schema.iter().map(|c| c.data_type.clone()).collect(), schema);
                let (key_columns, value_columns) =
                    (r.typed_values(rs_keys)?, r.typed_values(rs_values)?);
                let sink = VectorGroupBySinkOperator::new(
                    expressions,
                    VectorHashAggregator::new(key_cols, specs),
                    r.drain_pending(),
                    r.types.split_off(schema.len()),
                    key_columns,
                    value_columns,
                    rs_tags.get(&rs).copied().unwrap_or(0),
                );
                self.operators.insert(n, Box::new(sink));
                return Ok(());
            }
            (PlanOp::MapJoin(s), Phase::Map { side, .. }) => {
                let Some(SideTable::Batches(table)) = side.get(&s.alias) else {
                    return Err(HiveError::Execution(format!(
                        "no batch table for side input `{}`",
                        s.alias
                    )));
                };
                // Map-join conversion (`mapjoin.rs`) streams only these two kinds.
                let kind = match s.join_type {
                    JoinType::Inner => MapJoinKind::Inner,
                    JoinType::LeftOuter => MapJoinKind::LeftOuter,
                    other => {
                        return Err(HiveError::Plan(format!(
                            "a {other:?} join cannot be a map join"
                        )))
                    }
                };
                // Probe keys over the current layout. Key lanes are typed, so
                // each must have its build key's type; the binder unifies the
                // two sides' key types (INT meets DOUBLE as DOUBLE), so
                // BOOLEAN never meets INT through a shared long lane.
                let key_columns = c.typed_values(&s.stream_keys)?;
                let key_types = key_columns.iter().map(|(_, dt)| dt);
                let build_key_types = build_side(self.nodes, n).iter().map(|ci| &ci.data_type);
                if !key_types.eq(build_key_types.take(key_columns.len())) {
                    return Err(HiveError::Plan(
                        "map-join probe and build keys differ in type".into(),
                    ));
                }
                let (key_expressions, stream_columns) = (c.drain_pending(), c.layout_columns());
                // The join's output batch: the streamed layout followed by the
                // stored build row (keys ++ projected columns).
                let out_types = self.batches_of(n)?;
                let join = VectorMapJoinOperator::new(
                    kind,
                    key_expressions,
                    key_columns,
                    stream_columns,
                    Arc::clone(table),
                    &out_types,
                    DEFAULT_BATCH_SIZE,
                )?;
                self.operators.insert(n, adapter(join));
                return Ok(());
            }
            (
                PlanOp::Join {
                    kind, nk, residual, ..
                },
                Phase::Reduce,
            ) => {
                let slot = node.parents.iter().position(|&p| p == parent).unwrap_or(0);
                let inputs = self.joins.entry(n).or_default();
                inputs[slot] = Some(c.layout.clone());
                let [Some(left), Some(right)] = inputs.clone() else {
                    return Ok(());
                };
                self.joins.remove(&n);
                let out_types = self.batches_of(n)?;
                let join =
                    VectorJoinOperator::new(*kind, *nk, [left, right], residual.clone(), out_types);
                self.operators.insert(n, Box::new(join));
                return Ok(());
            }
            (
                PlanOp::GroupBy {
                    phase: GroupByPhase::ReduceMerge | GroupByPhase::ReduceComplete,
                    keys,
                    aggs,
                },
                Phase::Reduce,
            ) => {
                let keys = c.typed_values(keys)?;
                let specs = aggs.iter().map(|a| c.compile_agg(a));
                let specs = specs.collect::<Result<Vec<_>>>()?;
                let expressions = c.drain_pending();
                let out_types = self.batches_of(n)?;
                let aggregator =
                    VectorStreamAggregator::new(keys, specs, out_types, DEFAULT_BATCH_SIZE)?;
                let group_by = VectorGroupByOperator::new(expressions, aggregator);
                self.operators.insert(n, Box::new(group_by));
                return Ok(());
            }
            (op, phase) => {
                return Err(HiveError::Plan(format!(
                    "{} cannot run in a vectorized {} stage",
                    op.kind_name(),
                    phase.name()
                )))
            }
        };
        self.operators.insert(n, op);
        self.segment(n, c)
    }
}

/// Build map join `n`'s table from its side's batches, once per job: the
/// build filter and keys run as vector expressions over the side's columns,
/// and the table stores keys ++ columns, the layout the join appends.
pub fn build_mapjoin_table(
    nodes: &[PlanNode],
    n: usize,
    reader: &mut SideReader<'_>,
) -> Result<MapJoinTable> {
    let PlanOp::MapJoin(s) = &nodes[n].op else {
        return Err(HiveError::Plan(
            "a side table is built for a MapJoin".into(),
        ));
    };
    let columns = side_columns(nodes, n)?;
    let mut c = VecCompiler::over(
        columns.iter().map(|c| c.data_type.clone()).collect(),
        columns,
    );
    let mut expressions = Vec::new();
    if let Some(predicate) = &s.build_filter {
        let f = c.compile_filter(predicate)?;
        let mut children = c.drain_pending();
        children.push(f);
        expressions.push(vx::filter_and(children));
    }
    let key_columns = c.typed_values(&s.build_keys)?;
    expressions.extend(c.drain_pending());
    let mut builder = MapJoinBuilder::new(expressions, key_columns, c.layout_columns())?;
    loop {
        let mut batch = VectorizedRowBatch::new(&c.types, DEFAULT_BATCH_SIZE)?;
        if !reader.next_batch(&mut batch)? {
            return builder.finish();
        }
        builder.add(batch)?;
    }
}

/// A catalogue answer, or the plan error for a shape it has no kernel for.
fn kernel(e: Option<Box<dyn VectorExpression>>) -> Result<Box<dyn VectorExpression>> {
    e.ok_or_else(|| HiveError::Plan("no vector kernel for an expression's operand shape".into()))
}

fn is_null_literal(e: &ExprNode) -> bool {
    matches!(e, ExprNode::Literal(Value::Null))
}

/// Compiles row-mode expression trees into vectorized expression chains.
///
/// The compiler decides what is the planner's business — which operand is a
/// scalar, when a long operand must be widened to double, which scratch
/// column holds a result, how IN / BETWEEN decompose — and asks
/// `hive_vector::expressions` for every kernel. Mid-expression it tracks
/// lanes only (the physical column's); every `DataType` comes from
/// [`expr_type`] over the input plan node's schema.
struct VecCompiler<'a> {
    /// Logical column → physical batch column.
    layout: Vec<usize>,
    /// Schema of the plan node whose output the expressions read.
    schema: &'a [ColumnInfo],
    /// Physical batch column types (scan + scratch).
    types: Vec<DataType>,
    /// Accumulated expressions awaiting attachment to an operator.
    pending: Vec<Box<dyn VectorExpression>>,
}

impl<'a> VecCompiler<'a> {
    /// A compiler over a fresh batch whose columns are `schema`'s, in order.
    fn over(types: Vec<DataType>, schema: &'a [ColumnInfo]) -> VecCompiler<'a> {
        VecCompiler {
            layout: (0..types.len()).collect(),
            schema,
            types,
            pending: Vec::new(),
        }
    }

    fn scratch(&mut self, t: DataType) -> usize {
        self.types.push(t);
        self.types.len() - 1
    }

    fn drain_pending(&mut self) -> Vec<Box<dyn VectorExpression>> {
        std::mem::take(&mut self.pending)
    }

    /// Push a catalogue answer writing scratch column `out`.
    fn emit(&mut self, e: Option<Box<dyn VectorExpression>>, out: usize) -> Result<usize> {
        self.pending.push(kernel(e)?);
        Ok(out)
    }

    /// The current logical row: physical column + logical type per column.
    fn layout_columns(&self) -> Vec<(usize, DataType)> {
        debug_assert_eq!(self.layout.len(), self.schema.len());
        let typed = self.layout.iter().zip(self.schema);
        typed
            .map(|(&col, ci)| (col, ci.data_type.clone()))
            .collect()
    }

    /// Compile value expressions to physical column + logical type (shuffle
    /// keys and values, join keys, projections).
    fn typed_values(&mut self, exprs: &[ExprNode]) -> Result<Vec<(usize, DataType)>> {
        let typed = exprs
            .iter()
            .map(|e| Ok((self.value(e)?, expr_type(e, self.schema)?)));
        typed.collect()
    }

    /// Compile a projection into a `VectorSelect` and move the compiler onto
    /// its output (`schema`: the projecting plan node's).
    fn project(
        &mut self,
        exprs: &[ExprNode],
        schema: &'a [ColumnInfo],
    ) -> Result<Box<dyn Operator>> {
        self.layout = exprs.iter().map(|e| self.value(e)).collect::<Result<_>>()?;
        self.schema = schema;
        let expressions = self.drain_pending();
        Ok(adapter(VectorSelectOperator { expressions }))
    }

    /// A physical column as a kernel operand of the column's lane.
    fn col(&self, col: usize) -> Operand {
        let lane = Lane::of(&self.types[col]).expect("batch columns are vectorizable");
        Operand::col(lane, col)
    }

    /// A NULL of type `t` in a fresh scratch column.
    fn null(&mut self, t: DataType) -> usize {
        let out = self.scratch(t);
        self.pending.push(vx::null(out));
        out
    }

    /// [`value`](Self::value), with a NULL literal taking type `t` (it has
    /// none of its own): boolean operands, CASE values.
    fn value_as(&mut self, e: &ExprNode, t: &DataType) -> Result<usize> {
        match e {
            ExprNode::Literal(Value::Null) => Ok(self.null(t.clone())),
            e => self.value(e),
        }
    }

    /// Compile a value expression; returns the physical column holding it.
    fn value(&mut self, e: &ExprNode) -> Result<usize> {
        use BinaryOp::*;
        if let ExprNode::Column(i) = e {
            let col = self.layout.get(*i).copied();
            return col.ok_or_else(|| HiveError::Plan(format!("column {i} out of layout")));
        }
        // The one type rule: the result's type, hence its scratch column.
        let out_type = expr_type(e, self.schema)?;
        match e {
            ExprNode::Literal(Value::Null) => Ok(self.null(out_type)),
            ExprNode::Literal(v) => {
                let out = self.scratch(out_type);
                self.emit(scalar(v).and_then(|s| vx::constant(s, out)), out)
            }
            ExprNode::Cast { expr, target } => {
                let (col, from) = (self.value(expr)?, expr_type(expr, self.schema)?);
                if from == *target {
                    return Ok(col);
                }
                let out = self.scratch(out_type.clone());
                match (from, target) {
                    (DataType::Int | DataType::Boolean, DataType::Double)
                    | (DataType::Double, DataType::Int) => {
                        let to = Lane::of(target).expect("a number");
                        self.emit(vx::cast(self.col(col), to, out), out)
                    }
                    (from, _) => {
                        let target = target.clone();
                        let convert = move |v: &Value| cast_value(v, &target);
                        let cast = vx::cast_cells(col, from, &out_type, convert, out);
                        self.emit(Some(cast), out)
                    }
                }
            }
            ExprNode::Unary { op, expr } => {
                let col = self.value_as(expr, &out_type)?;
                let out = self.scratch(out_type);
                let kernel = match op {
                    UnaryOp::Neg => vx::negate(self.col(col), out),
                    UnaryOp::Not => vx::not(self.col(col), out),
                };
                self.emit(kernel, out)
            }
            ExprNode::Binary {
                op: op @ (And | Or),
                left,
                right,
            } => {
                let l = self.value_as(left, &DataType::Boolean)?;
                let r = self.value_as(right, &DataType::Boolean)?;
                let out = self.scratch(out_type);
                self.emit(vx::logical(*op == Or, self.col(l), self.col(r), out), out)
            }
            // NULL meets an arithmetic or comparison operator as NULL.
            ExprNode::Binary { left, right, .. }
                if is_null_literal(left) || is_null_literal(right) =>
            {
                Ok(self.null(out_type))
            }
            ExprNode::Binary { op, left, right } => {
                let (l, r) = self.operands(left, right, Lane::of(&out_type))?;
                let out = self.scratch(out_type);
                let kernel = match binary_op(*op) {
                    Binary::Arith(op) => vx::arith(op, l, r, out),
                    Binary::Cmp(op) => vx::compare(op, l, r, out),
                };
                self.emit(kernel, out)
            }
            ExprNode::IsNull { expr, negated } => {
                let col = self.value(expr)?;
                let out = self.scratch(out_type);
                self.emit(Some(vx::is_null(col, *negated, out)), out)
            }
            ExprNode::Between { .. } | ExprNode::InList { .. } => self.value(&decompose(e)),
            ExprNode::Case {
                branches,
                else_value,
            } => {
                let mut pairs = Vec::with_capacity(branches.len());
                for (cond, v) in branches {
                    let cond = self.value_as(cond, &DataType::Boolean)?;
                    pairs.push((cond, self.value_as(v, &out_type)?));
                }
                let otherwise = else_value.as_deref().map(|e| self.value_as(e, &out_type));
                let otherwise = otherwise.transpose()?;
                let out = self.scratch(out_type.clone());
                self.emit(Some(vx::case(pairs, otherwise, out_type, out)), out)
            }
            ExprNode::Column(_) => unreachable!("handled above"),
        }
    }

    /// Classify a binary operator's operands: the right side may be a scalar
    /// (the paper's col-scalar templates), the left is always a column.
    fn operands(
        &mut self,
        left: &ExprNode,
        right: &ExprNode,
        result: Option<Lane>,
    ) -> Result<(Operand, Operand)> {
        let (l, r) = (self.value(left)?, self.operand(right)?);
        let [l, r] = self.same_lane([self.col(l), r], result);
        Ok((l, r))
    }

    /// Kernels are same-lane: when any operand (or the operator's `result`)
    /// is double, the long operands are widened to meet it.
    fn same_lane<const N: usize>(
        &mut self,
        operands: [Operand; N],
        result: Option<Lane>,
    ) -> [Operand; N] {
        let double = |lane| lane == Lane::Double;
        if result.is_some_and(double) || operands.iter().any(|o| double(o.lane())) {
            operands.map(|o| self.widen(o))
        } else {
            operands
        }
    }

    /// A literal as a scalar operand, anything else as its column.
    fn operand(&mut self, e: &ExprNode) -> Result<Operand> {
        if let Some(s) = match e {
            ExprNode::Literal(v) => scalar(v),
            _ => None,
        } {
            return Ok(s);
        }
        let col = self.value(e)?;
        Ok(self.col(col))
    }

    /// Long → double: a scalar converts in place, a column through a cast
    /// into a scratch column. Other operands pass through.
    fn widen(&mut self, o: Operand) -> Operand {
        match o {
            Operand::LongScalar(x) => Operand::DoubleScalar(x as f64),
            Operand::LongCol(_) => {
                let out = self.scratch(DataType::Double);
                self.pending.extend(vx::cast(o, Lane::Double, out));
                Operand::DoubleCol(out)
            }
            other => other,
        }
    }

    /// `l ⋈ r` in filter position: in place where the catalogue has a
    /// template, else through a scratch boolean.
    fn filter_compare(
        &mut self,
        op: vx::CmpOp,
        l: Operand,
        r: Operand,
    ) -> Result<Box<dyn VectorExpression>> {
        let [l, r] = self.same_lane([l, r], None);
        if let Some(f) = vx::filter_compare(op, l.clone(), r.clone()) {
            return Ok(f);
        }
        let out = self.scratch(DataType::Boolean);
        self.emit(vx::compare(op, l, r, out), out)?;
        kernel(vx::filter_bool(Operand::LongCol(out)))
    }

    /// Compile a predicate into a filter expression. Conjunctions,
    /// disjunctions, comparisons, BETWEEN, IN and IS NULL have in-place
    /// templates; any other predicate (NOT, NOT BETWEEN, NOT IN, CASE, a
    /// NULL operand, a boolean column) is compiled as a value and filtered
    /// on: the one generic rule.
    fn compile_filter(&mut self, e: &ExprNode) -> Result<Box<dyn VectorExpression>> {
        let null = |operands: &[&ExprNode]| operands.iter().any(|o| is_null_literal(o));
        Ok(match e {
            ExprNode::Binary {
                op: op @ (BinaryOp::And | BinaryOp::Or),
                left,
                right,
            } => {
                let (l, r) = (self.compile_filter(left)?, self.compile_filter(right)?);
                match op {
                    BinaryOp::And => vx::filter_and(vec![l, r]),
                    _ => vx::filter_or(vec![l, r]),
                }
            }
            ExprNode::Binary { op, left, right } if !null(&[left, right]) => {
                let Binary::Cmp(op) = binary_op(*op) else {
                    return self.filter_on_value(e);
                };
                let (l, r) = self.operands(left, right, None)?;
                self.filter_compare(op, l, r)?
            }
            ExprNode::Between {
                expr,
                lo,
                hi,
                negated: false,
            } if !null(&[expr, lo, hi]) => {
                let col = self.value(expr)?;
                let (col, lo, hi) = (self.col(col), self.operand(lo)?, self.operand(hi)?);
                if let Some(f) = vx::filter_between(col.clone(), lo.clone(), hi.clone()) {
                    return Ok(f);
                }
                // Mixed lanes: two comparisons, each widening only its own
                // pair, as the row engine compares them.
                let above = self.filter_compare(vx::CmpOp::GreaterEqual, col.clone(), lo)?;
                let below = self.filter_compare(vx::CmpOp::LessEqual, col, hi)?;
                vx::filter_and(vec![above, below])
            }
            ExprNode::IsNull { expr, negated } => {
                let col = self.value(expr)?;
                vx::filter_is_null(col, *negated)
            }
            ExprNode::InList { negated: false, .. } => self.compile_filter(&decompose(e))?,
            _ => return self.filter_on_value(e),
        })
    }

    /// The generic rule: compile the predicate as a value and keep the rows
    /// where it is TRUE. The binder typed it BOOLEAN (or the NULL literal).
    fn filter_on_value(&mut self, e: &ExprNode) -> Result<Box<dyn VectorExpression>> {
        let col = self.value_as(e, &DataType::Boolean)?;
        kernel(vx::filter_bool(self.col(col)))
    }

    /// Map a plan aggregate onto a vectorized AggSpec: one kind per
    /// function and input lane.
    fn compile_agg(&mut self, a: &crate::plan::AggCall) -> Result<AggSpec> {
        let input = match &a.arg {
            None => None,
            Some(arg) => Some((self.value(arg)?, expr_type(arg, self.schema)?)),
        };
        let kind = match (a.function, input.as_ref().map(|(c, _)| self.col(*c).lane())) {
            (AggFunction::CountStar, _) => AggKind::CountStar,
            (AggFunction::Count, _) => AggKind::Count,
            (AggFunction::MergeCount, Some(Lane::Long)) => AggKind::MergeCount,
            (AggFunction::Sum, Some(Lane::Long)) => AggKind::SumLong,
            (AggFunction::Sum, Some(Lane::Double)) => AggKind::SumDouble,
            (AggFunction::Min, Some(Lane::Long)) => AggKind::MinLong,
            (AggFunction::Min, Some(Lane::Double)) => AggKind::MinDouble,
            (AggFunction::Min, Some(Lane::Bytes)) => AggKind::MinBytes,
            (AggFunction::Max, Some(Lane::Long)) => AggKind::MaxLong,
            (AggFunction::Max, Some(Lane::Double)) => AggKind::MaxDouble,
            (AggFunction::Max, Some(Lane::Bytes)) => AggKind::MaxBytes,
            (f, lane) => return Err(HiveError::Plan(format!("no {f:?} kernel over {lane:?}"))),
        };
        Ok(AggSpec { kind, input })
    }
}

/// BETWEEN and IN as the comparisons they stand for: `lo <= e AND e <= hi`
/// and `e = a OR e = b …`, negated by NOT. A BETWEEN bound that may be NULL
/// makes the whole test NULL, as in the row engine, which the conjunction
/// alone would answer FALSE when the other bound fails.
fn decompose(e: &ExprNode) -> ExprNode {
    let cmp = |op, l: &ExprNode, r: &ExprNode| ExprNode::binary(op, l.clone(), r.clone());
    let (test, negated) = match e {
        ExprNode::Between {
            expr,
            lo,
            hi,
            negated,
        } => {
            let (above, below) = (cmp(BinaryOp::GtEq, expr, lo), cmp(BinaryOp::LtEq, expr, hi));
            let inside = ExprNode::binary(BinaryOp::And, above, below);
            let literal = |b: &ExprNode| matches!(b, ExprNode::Literal(v) if !v.is_null());
            if literal(lo) && literal(hi) {
                (inside, negated)
            } else {
                let is_null = |b: &ExprNode| ExprNode::IsNull {
                    expr: Box::new(b.clone()),
                    negated: false,
                };
                let unknown = ExprNode::binary(BinaryOp::Or, is_null(lo), is_null(hi));
                let branches = vec![(unknown, ExprNode::Literal(Value::Null))];
                let else_value = Some(Box::new(inside));
                (
                    ExprNode::Case {
                        branches,
                        else_value,
                    },
                    negated,
                )
            }
        }
        ExprNode::InList {
            expr,
            list,
            negated,
        } => {
            let tests = list.iter().map(|item| cmp(BinaryOp::Eq, expr, item));
            let any = tests.reduce(|a, b| ExprNode::binary(BinaryOp::Or, a, b));
            (any.expect("IN lists are not empty"), negated)
        }
        _ => unreachable!("only BETWEEN and IN decompose"),
    };
    match negated {
        true => ExprNode::Unary {
            op: UnaryOp::Not,
            expr: Box::new(test),
        },
        false => test,
    }
}

/// A literal the kernels take as a scalar operand, at full width.
fn scalar(v: &Value) -> Option<Operand> {
    match v {
        Value::Int(x) | Value::Timestamp(x) => Some(Operand::LongScalar(*x)),
        Value::Boolean(b) => Some(Operand::LongScalar(*b as i64)),
        Value::Double(x) => Some(Operand::DoubleScalar(*x)),
        Value::String(s) => Some(Operand::BytesScalar(s.as_bytes().to_vec())),
        _ => None,
    }
}

/// The row engine's arithmetic or comparison operator as the kernel
/// catalogue names it (AND / OR are compiled before this is asked).
enum Binary {
    Arith(vx::ArithOp),
    Cmp(vx::CmpOp),
}

fn binary_op(op: BinaryOp) -> Binary {
    use Binary::*;
    match op {
        BinaryOp::Add => Arith(vx::ArithOp::Add),
        BinaryOp::Subtract => Arith(vx::ArithOp::Subtract),
        BinaryOp::Multiply => Arith(vx::ArithOp::Multiply),
        BinaryOp::Divide => Arith(vx::ArithOp::Divide),
        BinaryOp::Modulo => Arith(vx::ArithOp::Modulo),
        BinaryOp::Eq => Cmp(vx::CmpOp::Equal),
        BinaryOp::NotEq => Cmp(vx::CmpOp::NotEqual),
        BinaryOp::Lt => Cmp(vx::CmpOp::Less),
        BinaryOp::LtEq => Cmp(vx::CmpOp::LessEqual),
        BinaryOp::Gt => Cmp(vx::CmpOp::Greater),
        BinaryOp::GtEq => Cmp(vx::CmpOp::GreaterEqual),
        // Three-valued logic is `vx::logical`'s, never a lane operator.
        BinaryOp::And | BinaryOp::Or => unreachable!("AND / OR are compiled as logic"),
    }
}
