//! The vectorization optimizer (paper Section 6.4): "the planner first
//! generates a non-vectorized plan and then vectorization optimization is
//! invoked if configured. The vectorization optimization first validates
//! the plan to ensure vectorization is applicable to the operators and
//! expressions used in the plan. If validation succeeds, the optimizer ...
//! replaces each expression tree with corresponding vectorized
//! expressions."
//!
//! Here the pass runs per map-side scan chain: a prefix of
//! Filter / Select / MapJoin / GroupBy(MapHash) / ReduceSink operators over
//! primitive columns is replaced by batch-native exec-graph nodes fed by the
//! format's vectorized reader. A fully vectorized chain ends in a batch
//! shuffle sink (`VectorReduceSink`, or the fused `VectorGroupBySink`); a
//! partially vectorized chain ends in exactly one `RowBridge`, where rows
//! re-enter the row-mode graph at the first non-vectorizable operator.

use crate::plan::{expr_type, ColumnInfo, GroupByPhase, PlanNode, PlanOp};
use hive_common::{DataType, HiveError, Result, Row, Value};
use hive_exec::agg::AggFunction;
use hive_exec::expr::{BinaryOp, ExprNode, UnaryOp};
use hive_exec::graph::Operator;
use hive_exec::operators::JoinType;
use hive_exec::vector_ops::{
    RowBridgeOperator, VectorGroupBySinkOperator, VectorOpAdapter, VectorReduceSinkOperator,
};
use hive_vector::aggregates::{AggKind, AggSpec, VectorHashAggregator};
use hive_vector::expressions as vx;
use hive_vector::expressions::{Lane, Operand, VectorExpression};
use hive_vector::mapjoin::{MapJoinKind, MapJoinTable, VectorMapJoinOperator};
use hive_vector::operators::{VectorFilterOperator, VectorSelectOperator};
use hive_vector::DEFAULT_BATCH_SIZE;
use std::collections::{BTreeMap, HashMap, HashSet};

/// The compiler's view of one map input handed to the vectorizer.
pub struct MapInputView<'a> {
    /// The TableScan plan node, when this input reads a base table.
    pub scan: Option<usize>,
    /// Plan node ids belonging to this input's chain.
    pub nodes: &'a [usize],
    /// ReduceSink plan node → shuffle tag.
    pub rs_tags: &'a BTreeMap<usize, usize>,
}

/// A compiled batch-native chain: exec-graph operators to run in order,
/// starting from the scan batch.
pub struct VectorizedChain {
    /// Graph nodes in chain order (adapters, sinks, possibly a bridge).
    pub operators: Vec<Box<dyn Operator>>,
    /// Plan nodes the chain replaces.
    pub consumed: HashSet<usize>,
    /// Column types of the scan batch the engine allocates.
    pub batch_types: Vec<DataType>,
    /// When true the chain's last operator is the `RowBridge`, whose rows
    /// must be routed into the row-mode graph at the fallback entry.
    pub bridged: bool,
    /// When the chain's first operator is a filter: the scan-batch columns
    /// its predicate reads first. The reader fills those and defers the rest
    /// to the filter (`VectorFilterOperator`), which fills them for the rows
    /// it keeps. `None`: the reader fills every column.
    pub first_columns: Option<Vec<usize>>,
}

/// A map-join whose output batch types aren't final yet: downstream
/// operators may still allocate scratch columns in the join's output
/// segment, so the operator is constructed only when the segment ends
/// (at the next join, or at the end of the chain).
struct PendingJoin {
    /// Position reserved in the operator list.
    slot: usize,
    kind: MapJoinKind,
    key_expressions: Vec<Box<dyn VectorExpression>>,
    key_columns: Vec<(usize, DataType)>,
    stream_columns: Vec<(usize, DataType)>,
    table: MapJoinTable,
    build_width: usize,
}

fn seal_pending_join(
    pending: &mut Option<PendingJoin>,
    operators: &mut [Option<Box<dyn Operator>>],
    out_types: &[DataType],
) -> Result<()> {
    if let Some(pj) = pending.take() {
        let op = VectorMapJoinOperator::new(
            pj.kind,
            pj.key_expressions,
            pj.key_columns,
            pj.stream_columns,
            pj.table,
            pj.build_width,
            out_types,
            DEFAULT_BATCH_SIZE,
        )?;
        operators[pj.slot] = Some(Box::new(VectorOpAdapter::new(Box::new(op))));
    }
    Ok(())
}

/// Attempt to vectorize the prefix of a map chain. Returns the compiled
/// chain, or `None` when validation fails and the whole input stays
/// row-mode.
pub fn try_vectorize(
    nodes: &[PlanNode],
    input: &MapInputView<'_>,
    side: &HashMap<String, Vec<Row>>,
    num_reducers: usize,
) -> Result<Option<VectorizedChain>> {
    let Some(scan_id) = input.scan else {
        return Ok(None);
    };
    if !matches!(nodes[scan_id].op, PlanOp::TableScan { .. }) {
        return Ok(None);
    }
    // Validation 1: primitive scan columns only (virtual columns included).
    let scan = nodes[scan_id].schema.iter();
    let scan_types: Vec<DataType> = scan.map(|c| c.data_type.clone()).collect();
    if !scan_types.iter().all(|t| Lane::of(t).is_some()) {
        return Ok(None);
    }

    let c = VecCompiler::over(scan_types, &nodes[scan_id].schema);
    let out = compile_chain(nodes, input, side, num_reducers, c, scan_id)?;
    if out.consumed.is_empty() {
        return Ok(None);
    }
    Ok(Some(out))
}

/// Compile the linear operator chain starting below `start` into
/// batch-native graph operators. The chain ends either in a shuffle sink
/// (fully vectorized map task) or in a single `RowBridge` where row mode
/// takes over.
fn compile_chain<'a>(
    nodes: &'a [PlanNode],
    input: &MapInputView<'_>,
    side: &HashMap<String, Vec<Row>>,
    num_reducers: usize,
    mut c: VecCompiler<'a>,
    start: usize,
) -> Result<VectorizedChain> {
    let input_nodes = input.nodes;
    let mut operators: Vec<Option<Box<dyn Operator>>> = Vec::new();
    let mut consumed: HashSet<usize> = HashSet::new();
    let mut cur = start;
    let mut ended_in_sink = false;
    // Types of the scan batch: frozen at the first re-batching operator
    // (map join); until then scratch columns keep extending it.
    let mut scan_types: Option<Vec<DataType>> = None;
    let mut pending_join: Option<PendingJoin> = None;
    let mut first_columns: Option<Vec<usize>> = None;

    loop {
        // The chain must be linear within this input.
        let next: Vec<usize> = nodes[cur]
            .children
            .iter()
            .copied()
            .filter(|n| input_nodes.contains(n))
            .collect();
        if next.len() != 1 {
            break;
        }
        let n = next[0];
        match &nodes[n].op {
            PlanOp::Filter { predicate } => {
                let Some(f) = c.compile_filter(predicate)? else {
                    break;
                };
                let mut children: Vec<Box<dyn VectorExpression>> = c.drain_pending();
                children.push(f);
                let filter = VectorFilterOperator::new(vx::filter_and(children));
                if operators.is_empty() {
                    first_columns = Some(filter.first_columns().to_vec());
                }
                operators.push(Some(Box::new(VectorOpAdapter::new(Box::new(filter)))));
                consumed.insert(n);
                cur = n;
            }
            PlanOp::Select { exprs } => {
                let Some(select) = c.project(exprs, &nodes[n].schema)? else {
                    break;
                };
                operators.push(Some(select));
                consumed.insert(n);
                cur = n;
            }
            PlanOp::GroupBy {
                phase: GroupByPhase::MapHash,
                keys,
                aggs,
            } => {
                // Fused partial-aggregate + reduce-sink: requires the
                // in-chain child to be a plain (non-degenerate) ReduceSink,
                // which is the planner's invariant shape for map-side
                // hash aggregation.
                let rs: Vec<usize> = nodes[n]
                    .children
                    .iter()
                    .copied()
                    .filter(|x| input_nodes.contains(x))
                    .collect();
                if rs.len() != 1 {
                    break;
                }
                let rs_n = rs[0];
                let PlanOp::ReduceSink {
                    keys: rs_keys,
                    values: rs_values,
                    degenerate: false,
                    ..
                } = &nodes[rs_n].op
                else {
                    break;
                };
                let Some(key_cols) = c.typed_values(keys)? else {
                    break;
                };
                let Some(specs) = all(aggs.iter().map(|a| c.compile_agg(a)))? else {
                    break;
                };
                let expressions = c.drain_pending();
                let tag = input.rs_tags.get(&rs_n).copied().unwrap_or(0);
                operators.push(Some(Box::new(VectorGroupBySinkOperator::new(
                    expressions,
                    VectorHashAggregator::new(key_cols, specs),
                    rs_keys.clone(),
                    rs_values.clone(),
                    tag,
                    num_reducers,
                ))));
                consumed.insert(n);
                consumed.insert(rs_n);
                ended_in_sink = true;
                break;
            }
            PlanOp::ReduceSink {
                keys,
                values,
                degenerate: true,
                ..
            } => {
                // A degenerate sink is a plain projection (keys ++ values);
                // the chain continues through it in batch mode.
                let mut exprs: Vec<ExprNode> = keys.clone();
                exprs.extend(values.iter().cloned());
                let Some(select) = c.project(&exprs, &nodes[n].schema)? else {
                    break;
                };
                operators.push(Some(select));
                consumed.insert(n);
                cur = n;
            }
            PlanOp::ReduceSink {
                keys,
                values,
                degenerate: false,
                ..
            } => {
                let Some(key_columns) = c.typed_values(keys)? else {
                    break;
                };
                let Some(value_columns) = c.typed_values(values)? else {
                    break;
                };
                let expressions = c.drain_pending();
                let tag = input.rs_tags.get(&n).copied().unwrap_or(0);
                operators.push(Some(Box::new(VectorReduceSinkOperator::new(
                    expressions,
                    key_columns,
                    value_columns,
                    tag,
                    num_reducers,
                ))));
                consumed.insert(n);
                ended_in_sink = true;
                break;
            }
            PlanOp::MapJoin(s) => {
                let Some(pj) = prepare_mapjoin(nodes, side, &mut c, n, s)? else {
                    break; // row-mode fallback for the join and everything after
                };
                // This segment's types are final now (the new join's key
                // scratch included): seal the previous join, freeze the
                // scan batch types, and reseed the compiler against the
                // join's output batch.
                seal_pending_join(&mut pending_join, &mut operators, &c.types)?;
                if scan_types.is_none() {
                    scan_types = Some(c.types.clone());
                }
                let out_types: Vec<DataType> = nodes[n]
                    .schema
                    .iter()
                    .map(|ci| ci.data_type.clone())
                    .collect();
                let slot = operators.len();
                operators.push(None);
                pending_join = Some(PendingJoin { slot, ..pj });
                c = VecCompiler::over(out_types, &nodes[n].schema);
                consumed.insert(n);
                cur = n;
            }
            _ => break,
        }
    }

    if !ended_in_sink && !consumed.is_empty() {
        // The single batch→row crossing: bridge the current layout into
        // the row-mode graph.
        let output_columns = c.layout_columns();
        operators.push(Some(Box::new(RowBridgeOperator::new(output_columns))));
    }
    // The last segment's types are final: seal the trailing join (if any).
    seal_pending_join(&mut pending_join, &mut operators, &c.types)?;
    let batch_types = scan_types.unwrap_or(c.types);
    let operators: Vec<Box<dyn Operator>> = operators
        .into_iter()
        .map(|o| o.ok_or_else(|| HiveError::Plan("unsealed vectorized join".into())))
        .collect::<Result<_>>()?;
    Ok(VectorizedChain {
        operators,
        consumed,
        batch_types,
        bridged: !ended_in_sink,
        first_columns,
    })
}

/// Try to vectorize one MapJoin plan node. `Ok(None)` means the shape is
/// not eligible and the chain should fall back to row mode at this point.
/// On success the compiler's scratch state includes the probe-key columns;
/// the operator itself is constructed later (see [`PendingJoin`]).
fn prepare_mapjoin(
    nodes: &[PlanNode],
    side: &HashMap<String, Vec<Row>>,
    c: &mut VecCompiler<'_>,
    n: usize,
    s: &crate::plan::MapJoinSide,
) -> Result<Option<PendingJoin>> {
    let kind = match s.join_type {
        JoinType::Inner => MapJoinKind::Inner,
        JoinType::LeftOuter => MapJoinKind::LeftOuter,
        _ => return Ok(None),
    };
    // The join's output: the streamed layout followed by the stored build
    // row (keys ++ projected columns). All must be primitive.
    let stream_width = c.layout.len();
    let build = &nodes[n].schema[stream_width..];
    if build.len() != s.width || !build.iter().all(|ci| Lane::of(&ci.data_type).is_some()) {
        return Ok(None);
    }
    // Probe keys over the current layout. Key lanes are typed, so each must
    // have its build key's type: BOOLEAN never meets INT through a shared
    // long lane.
    let Some(key_columns) = c.typed_values(&s.stream_keys)? else {
        return Ok(None);
    };
    let key_types: Vec<DataType> = key_columns.iter().map(|(_, dt)| dt.clone()).collect();
    let build_key_types = build[..key_types.len()].iter().map(|ci| &ci.data_type);
    if !key_types.iter().eq(build_key_types) {
        return Ok(None);
    }
    let key_expressions = c.drain_pending();
    let table = MapJoinTable::build(&key_types, s.build_rows(side)?)?;

    let stream_columns = c.layout_columns();
    Ok(Some(PendingJoin {
        slot: 0, // assigned by the caller
        kind,
        key_expressions,
        key_columns,
        stream_columns,
        table,
        build_width: s.width,
    }))
}

/// Collect `Ok(Some(_))` items; the first `None` (not vectorizable) or
/// error ends the walk.
fn all<T>(items: impl Iterator<Item = Result<Option<T>>>) -> Result<Option<Vec<T>>> {
    items.collect::<Result<Option<Vec<T>>>>()
}

/// Compiles row-mode expression trees into vectorized expression chains.
///
/// The compiler decides what is the planner's business — which operand is a
/// scalar, when a long operand must be widened to double, which scratch
/// column holds a result, how AND / OR / IN / BETWEEN decompose — and asks
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

    /// Push a catalogue answer; `None` (no kernel) passes through.
    fn emit(&mut self, e: Option<Box<dyn VectorExpression>>, out: usize) -> Option<usize> {
        self.pending.push(e?);
        Some(out)
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
    /// keys and values, join keys, projections); `None` when any fails.
    fn typed_values(&mut self, exprs: &[ExprNode]) -> Result<Option<Vec<(usize, DataType)>>> {
        all(exprs.iter().map(|e| {
            let Some(col) = self.value(e)? else {
                return Ok(None);
            };
            Ok(Some((col, expr_type(e, self.schema)?)))
        }))
    }

    /// Compile a projection into a `VectorSelect` and move the compiler onto
    /// its output (`schema`: the projecting plan node's).
    fn project(
        &mut self,
        exprs: &[ExprNode],
        schema: &'a [ColumnInfo],
    ) -> Result<Option<Box<dyn Operator>>> {
        let Some(output_columns) = self.typed_values(exprs)? else {
            return Ok(None);
        };
        self.layout = output_columns.iter().map(|(col, _)| *col).collect();
        self.schema = schema;
        Ok(Some(Box::new(VectorOpAdapter::new(Box::new(
            VectorSelectOperator {
                expressions: self.drain_pending(),
                output_columns,
            },
        )))))
    }

    /// A physical column as a kernel operand of the column's lane.
    fn col(&self, col: usize) -> Operand {
        let lane = Lane::of(&self.types[col]).expect("batch columns are vectorizable");
        Operand::col(lane, col)
    }

    /// Compile a value expression; returns the physical column holding it.
    fn value(&mut self, e: &ExprNode) -> Result<Option<usize>> {
        if let ExprNode::Column(i) = e {
            let col = self.layout.get(*i).copied();
            return col
                .map(Some)
                .ok_or_else(|| HiveError::Plan(format!("column {i} out of layout")));
        }
        // The one type rule: the result's type, hence its scratch column.
        let out_type = expr_type(e, self.schema)?;
        Ok(match e {
            ExprNode::Literal(v) => {
                let Some(scalar) = scalar(v) else {
                    return Ok(None);
                };
                let out = self.scratch(out_type);
                self.emit(vx::constant(scalar, out), out)
            }
            ExprNode::Cast { expr, .. } => {
                let (Some(col), Some(to)) = (self.value(expr)?, Lane::of(&out_type)) else {
                    return Ok(None);
                };
                let from = self.col(col);
                if from.lane() == to {
                    return Ok(Some(col));
                }
                let out = self.scratch(out_type);
                self.emit(vx::cast(from, to, out), out)
            }
            ExprNode::Unary {
                op: UnaryOp::Neg,
                expr,
            } => {
                let Some(col) = self.value(expr)? else {
                    return Ok(None);
                };
                let out = self.scratch(out_type);
                self.emit(vx::negate(self.col(col), out), out)
            }
            ExprNode::Binary { op, left, right } => {
                let Some(op) = binary_op(*op) else {
                    return Ok(None);
                };
                let Some((l, r)) = self.operands(left, right, Lane::of(&out_type))? else {
                    return Ok(None);
                };
                let out = self.scratch(out_type);
                let kernel = match op {
                    Binary::Arith(op) => vx::arith(op, l, r, out),
                    Binary::Cmp(op) => vx::compare(op, l, r, out),
                };
                self.emit(kernel, out)
            }
            _ => None,
        })
    }

    /// Classify a binary operator's operands: the right side may be a scalar
    /// (the paper's col-scalar templates), the left is always a column.
    fn operands(
        &mut self,
        left: &ExprNode,
        right: &ExprNode,
        result: Option<Lane>,
    ) -> Result<Option<(Operand, Operand)>> {
        let (Some(l), Some(r)) = (self.value(left)?, self.operand(right)?) else {
            return Ok(None);
        };
        let [l, r] = self.same_lane([self.col(l), r], result);
        Ok(Some((l, r)))
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
    fn operand(&mut self, e: &ExprNode) -> Result<Option<Operand>> {
        if let ExprNode::Literal(v) = e {
            return Ok(scalar(v));
        }
        Ok(self.value(e)?.map(|col| self.col(col)))
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

    /// Compile a predicate into an in-place filter expression.
    fn compile_filter(&mut self, e: &ExprNode) -> Result<Option<Box<dyn VectorExpression>>> {
        Ok(match e {
            ExprNode::Binary {
                op: op @ (BinaryOp::And | BinaryOp::Or),
                left,
                right,
            } => {
                let (Some(l), Some(r)) = (self.compile_filter(left)?, self.compile_filter(right)?)
                else {
                    return Ok(None);
                };
                Some(match op {
                    BinaryOp::And => vx::filter_and(vec![l, r]),
                    _ => vx::filter_or(vec![l, r]),
                })
            }
            ExprNode::Binary { op, left, right } => {
                let Some(Binary::Cmp(op)) = binary_op(*op) else {
                    return Ok(None);
                };
                let Some((l, r)) = self.operands(left, right, None)? else {
                    return Ok(None);
                };
                vx::filter_compare(op, l, r)
            }
            ExprNode::Between {
                expr,
                lo,
                hi,
                negated: false,
            } => {
                let (Some(col), Some(lo), Some(hi)) =
                    (self.value(expr)?, self.operand(lo)?, self.operand(hi)?)
                else {
                    return Ok(None);
                };
                let col = self.col(col);
                if col.lane() == lo.lane() && col.lane() == hi.lane() {
                    return Ok(vx::filter_between(col, lo, hi));
                }
                // Mixed lanes: two comparisons, each widening only its own
                // pair, as the row engine compares them.
                let [c, lo] = self.same_lane([col.clone(), lo], None);
                let above = vx::filter_compare(vx::CmpOp::GreaterEqual, c, lo);
                let [c, hi] = self.same_lane([col, hi], None);
                let below = vx::filter_compare(vx::CmpOp::LessEqual, c, hi);
                above.zip(below).map(|(a, b)| vx::filter_and(vec![a, b]))
            }
            ExprNode::IsNull { expr, negated } => self
                .value(expr)?
                .map(|col| vx::filter_is_null(col, *negated)),
            ExprNode::InList {
                expr,
                list,
                negated: false,
            } => {
                // col IN (a, b, ...) → OR of equality filters.
                let equalities = list.iter().map(|item| {
                    let eq = ExprNode::binary(BinaryOp::Eq, (**expr).clone(), item.clone());
                    self.compile_filter(&eq)
                });
                all(equalities)?.map(vx::filter_or)
            }
            ExprNode::Column(_) => match self.value(e)? {
                Some(col) => vx::filter_bool(self.col(col)),
                None => None,
            },
            _ => None,
        })
    }

    /// Map a row-mode aggregate onto a vectorized AggSpec.
    fn compile_agg(&mut self, a: &crate::plan::AggCall) -> Result<Option<AggSpec>> {
        let input = match &a.arg {
            None => None,
            Some(arg) => match self.value(arg)? {
                Some(c) => Some((c, expr_type(arg, self.schema)?)),
                None => return Ok(None),
            },
        };
        let kind = match (a.function, input.as_ref().map(|(c, _)| self.col(*c).lane())) {
            (AggFunction::CountStar, _) => AggKind::CountStar,
            (AggFunction::Count, _) => AggKind::Count,
            (AggFunction::Sum, Some(Lane::Long)) => AggKind::SumLong,
            (AggFunction::Sum, Some(Lane::Double)) => AggKind::SumDouble,
            (AggFunction::Avg, Some(Lane::Long | Lane::Double)) => AggKind::Avg,
            (AggFunction::Min, Some(Lane::Long)) => AggKind::MinLong,
            (AggFunction::Min, Some(Lane::Double)) => AggKind::MinDouble,
            (AggFunction::Min, Some(Lane::Bytes)) => AggKind::MinBytes,
            (AggFunction::Max, Some(Lane::Long)) => AggKind::MaxLong,
            (AggFunction::Max, Some(Lane::Double)) => AggKind::MaxDouble,
            (AggFunction::Max, Some(Lane::Bytes)) => AggKind::MaxBytes,
            _ => return Ok(None),
        };
        Ok(Some(AggSpec { kind, input }))
    }
}

/// A literal the kernels take as a scalar operand, at full width.
fn scalar(v: &Value) -> Option<Operand> {
    match v {
        Value::Int(x) => Some(Operand::LongScalar(*x)),
        Value::Boolean(b) => Some(Operand::LongScalar(*b as i64)),
        Value::Double(x) => Some(Operand::DoubleScalar(*x)),
        Value::String(s) => Some(Operand::BytesScalar(s.as_bytes().to_vec())),
        _ => None,
    }
}

/// The row engine's operator as the kernel catalogue names it; `None` for
/// the operators that never vectorize in value or comparison position.
enum Binary {
    Arith(vx::ArithOp),
    Cmp(vx::CmpOp),
}

fn binary_op(op: BinaryOp) -> Option<Binary> {
    use Binary::*;
    Some(match op {
        BinaryOp::Add => Arith(vx::ArithOp::Add),
        BinaryOp::Subtract => Arith(vx::ArithOp::Subtract),
        BinaryOp::Multiply => Arith(vx::ArithOp::Multiply),
        BinaryOp::Divide => Arith(vx::ArithOp::Divide),
        BinaryOp::Eq => Cmp(vx::CmpOp::Equal),
        BinaryOp::NotEq => Cmp(vx::CmpOp::NotEqual),
        BinaryOp::Lt => Cmp(vx::CmpOp::Less),
        BinaryOp::LtEq => Cmp(vx::CmpOp::LessEqual),
        BinaryOp::Gt => Cmp(vx::CmpOp::Greater),
        BinaryOp::GtEq => Cmp(vx::CmpOp::GreaterEqual),
        BinaryOp::Modulo | BinaryOp::And | BinaryOp::Or => return None,
    })
}
