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

use crate::plan::{GroupByPhase, PlanNode, PlanOp};
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
use hive_vector::expressions::VectorExpression;
use hive_vector::mapjoin::{KeyPart, MapJoinHashTable, MapJoinKind, VectorMapJoinOperator};
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
    table: MapJoinHashTable,
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
    let PlanOp::TableScan {
        table, projection, ..
    } = &nodes[scan_id].op
    else {
        return Ok(None);
    };
    // Validation 1: primitive scan columns only.
    let scan_types: Vec<DataType> = projection
        .iter()
        .map(|&i| table.schema.field(i).data_type.clone())
        .collect();
    if !scan_types.iter().all(is_vector_type) {
        return Ok(None);
    }

    let c = VecCompiler {
        layout: (0..scan_types.len()).collect(),
        layout_types: scan_types.clone(),
        types: scan_types,
        pending: Vec::new(),
    };
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
fn compile_chain(
    nodes: &[PlanNode],
    input: &MapInputView<'_>,
    side: &HashMap<String, Vec<Row>>,
    num_reducers: usize,
    mut c: VecCompiler,
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
                operators.push(Some(Box::new(VectorOpAdapter::new(Box::new(
                    VectorFilterOperator {
                        predicate: Box::new(vx::FilterAnd { children }),
                    },
                )))));
                consumed.insert(n);
                cur = n;
            }
            PlanOp::Select { exprs } => {
                let Some(outputs) = c.compile_values(exprs)? else {
                    break;
                };
                let expressions = c.drain_pending();
                operators.push(Some(Box::new(VectorOpAdapter::new(Box::new(
                    VectorSelectOperator {
                        expressions,
                        output_columns: outputs.clone(),
                    },
                )))));
                c.set_layout(outputs);
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
                let mut key_cols = Vec::with_capacity(keys.len());
                let mut ok = true;
                for k in keys {
                    match c.compile_value(k)? {
                        Some((col, _)) => key_cols.push(col),
                        None => {
                            ok = false;
                            break;
                        }
                    }
                }
                let mut specs = Vec::with_capacity(aggs.len());
                if ok {
                    for a in aggs {
                        match c.compile_agg(a)? {
                            Some(s) => specs.push(s),
                            None => {
                                ok = false;
                                break;
                            }
                        }
                    }
                }
                if !ok {
                    break;
                }
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
                let Some(outputs) = c.compile_values(&exprs)? else {
                    break;
                };
                let expressions = c.drain_pending();
                operators.push(Some(Box::new(VectorOpAdapter::new(Box::new(
                    VectorSelectOperator {
                        expressions,
                        output_columns: outputs.clone(),
                    },
                )))));
                c.set_layout(outputs);
                consumed.insert(n);
                cur = n;
            }
            PlanOp::ReduceSink {
                keys,
                values,
                degenerate: false,
                ..
            } => {
                let Some(key_columns) = c.compile_values(keys)? else {
                    break;
                };
                let Some(value_columns) = c.compile_values(values)? else {
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
            PlanOp::MapJoin { sides } => {
                let Some(pj) = prepare_mapjoin(nodes, side, &mut c, n, sides)? else {
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
                let mut out_types: Vec<DataType> =
                    pj.stream_columns.iter().map(|(_, t)| t.clone()).collect();
                out_types.extend(
                    nodes[n].schema[pj.stream_columns.len()..]
                        .iter()
                        .map(|ci| ci.data_type.clone()),
                );
                let slot = operators.len();
                operators.push(None);
                pending_join = Some(PendingJoin { slot, ..pj });
                c = VecCompiler {
                    layout: (0..out_types.len()).collect(),
                    layout_types: out_types.clone(),
                    types: out_types,
                    pending: Vec::new(),
                };
                consumed.insert(n);
                cur = n;
            }
            _ => break,
        }
    }

    if !ended_in_sink && !consumed.is_empty() {
        // The single batch→row crossing: bridge the current layout into
        // the row-mode graph.
        let output_columns: Vec<(usize, DataType)> = c
            .layout
            .iter()
            .copied()
            .zip(c.layout_types.iter().cloned())
            .collect();
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
    })
}

/// Try to vectorize one MapJoin plan node. `Ok(None)` means the shape is
/// not eligible and the chain should fall back to row mode at this point.
/// On success the compiler's scratch state includes the probe-key columns;
/// the operator itself is constructed later (see [`PendingJoin`]).
fn prepare_mapjoin(
    nodes: &[PlanNode],
    side: &HashMap<String, Vec<Row>>,
    c: &mut VecCompiler,
    n: usize,
    sides: &[crate::plan::MapJoinSide],
) -> Result<Option<PendingJoin>> {
    if sides.len() != 1 {
        return Ok(None);
    }
    let s = &sides[0];
    let kind = match s.join_type {
        JoinType::Inner => MapJoinKind::Inner,
        JoinType::LeftOuter => MapJoinKind::LeftOuter,
        _ => return Ok(None),
    };
    // The join's output: the streamed layout followed by the stored build
    // row (keys ++ projected columns). All must be primitive.
    let stream_width = c.layout.len();
    let build_types: Vec<DataType> = nodes[n].schema[stream_width..]
        .iter()
        .map(|ci| ci.data_type.clone())
        .collect();
    if build_types.len() != s.width || !build_types.iter().all(is_vector_type) {
        return Ok(None);
    }
    // Probe keys over the current layout.
    let mut key_columns = Vec::with_capacity(s.stream_keys.len());
    for k in &s.stream_keys {
        match c.compile_value(k)? {
            Some(out) => key_columns.push(out),
            None => return Ok(None),
        }
    }
    let key_expressions = c.drain_pending();

    // Build the hash table from the broadcast side, mirroring the row
    // engine: filter, evaluate build keys, skip NULL keys, store the row as
    // keys ++ columns. A key value the typed-key space cannot represent
    // falls back to row mode.
    let Some(rows) = side.get(&s.alias) else {
        return Ok(None);
    };
    let mut table = MapJoinHashTable::new();
    for r in rows {
        if let Some(f) = &s.build_filter {
            if !f.eval_predicate(r)? {
                continue;
            }
        }
        let mut key = Vec::with_capacity(s.build_keys.len());
        let mut vals: Vec<Value> = Vec::with_capacity(s.width);
        let mut null_key = false;
        for k in &s.build_keys {
            let v = k.eval(r)?;
            match KeyPart::from_value(&v) {
                Ok(Some(part)) => key.push(part),
                Ok(None) => null_key = true,
                Err(_) => return Ok(None),
            }
            vals.push(v);
        }
        if null_key {
            continue;
        }
        vals.extend(r.values().iter().cloned());
        table.entry(key).or_default().push(Row::new(vals));
    }

    let stream_columns: Vec<(usize, DataType)> = c
        .layout
        .iter()
        .copied()
        .zip(c.layout_types.iter().cloned())
        .collect();
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

fn is_vector_type(t: &DataType) -> bool {
    matches!(
        t,
        DataType::Int
            | DataType::Boolean
            | DataType::Timestamp
            | DataType::Double
            | DataType::String
    )
}

/// Compiles row-mode expression trees into vectorized expression chains.
struct VecCompiler {
    /// Logical column → physical batch column.
    layout: Vec<usize>,
    layout_types: Vec<DataType>,
    /// Physical batch column types (scan + scratch).
    types: Vec<DataType>,
    /// Accumulated expressions awaiting attachment to an operator.
    pending: Vec<Box<dyn VectorExpression>>,
}

/// Vector-level type of a physical column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum VType {
    Long,
    Double,
    Bytes,
}

fn vtype(t: &DataType) -> VType {
    match t {
        DataType::Double => VType::Double,
        DataType::String => VType::Bytes,
        _ => VType::Long,
    }
}

impl VecCompiler {
    fn scratch(&mut self, t: DataType) -> usize {
        self.types.push(t);
        self.types.len() - 1
    }

    fn drain_pending(&mut self) -> Vec<Box<dyn VectorExpression>> {
        std::mem::take(&mut self.pending)
    }

    /// Compile a list of value expressions; `None` when any fails.
    fn compile_values(&mut self, exprs: &[ExprNode]) -> Result<Option<Vec<(usize, DataType)>>> {
        let mut outputs = Vec::with_capacity(exprs.len());
        for e in exprs {
            match self.compile_value(e)? {
                Some(out) => outputs.push(out),
                None => return Ok(None),
            }
        }
        Ok(Some(outputs))
    }

    /// Reset the logical layout to the given physical columns (after a
    /// projection changed the row shape).
    fn set_layout(&mut self, outputs: Vec<(usize, DataType)>) {
        self.layout = outputs.iter().map(|(i, _)| *i).collect();
        self.layout_types = outputs.into_iter().map(|(_, t)| t).collect();
    }

    /// Compile a value expression; returns its physical column + type.
    fn compile_value(&mut self, e: &ExprNode) -> Result<Option<(usize, DataType)>> {
        Ok(match e {
            ExprNode::Column(i) => {
                let Some(&col) = self.layout.get(*i) else {
                    return Err(HiveError::Plan(format!("column {i} out of layout")));
                };
                Some((col, self.layout_types[*i].clone()))
            }
            ExprNode::Literal(v) => match v {
                Value::Int(x) => {
                    let out = self.scratch(DataType::Int);
                    self.pending.push(Box::new(vx::ConstantExpression::Long {
                        output: out,
                        value: *x,
                    }));
                    Some((out, DataType::Int))
                }
                Value::Double(x) => {
                    let out = self.scratch(DataType::Double);
                    self.pending.push(Box::new(vx::ConstantExpression::Double {
                        output: out,
                        value: *x,
                    }));
                    Some((out, DataType::Double))
                }
                Value::String(s) => {
                    let out = self.scratch(DataType::String);
                    self.pending.push(Box::new(vx::ConstantExpression::Bytes {
                        output: out,
                        value: s.as_bytes().to_vec(),
                    }));
                    Some((out, DataType::String))
                }
                Value::Boolean(b) => {
                    let out = self.scratch(DataType::Boolean);
                    self.pending.push(Box::new(vx::ConstantExpression::Long {
                        output: out,
                        value: *b as i64,
                    }));
                    Some((out, DataType::Boolean))
                }
                _ => None,
            },
            ExprNode::Cast { expr, target } => {
                let Some((col, t)) = self.compile_value(expr)? else {
                    return Ok(None);
                };
                match (vtype(&t), vtype(target)) {
                    (a, b) if a == b => Some((col, target.clone())),
                    (VType::Long, VType::Double) => Some((self.widen(col), DataType::Double)),
                    (VType::Double, VType::Long) => {
                        let out = self.scratch(DataType::Int);
                        self.pending.push(Box::new(vx::CastDoubleToLong {
                            input_column: col,
                            output_column: out,
                        }));
                        Some((out, target.clone()))
                    }
                    _ => None,
                }
            }
            ExprNode::Unary {
                op: UnaryOp::Neg,
                expr,
            } => {
                let Some((col, t)) = self.compile_value(expr)? else {
                    return Ok(None);
                };
                match vtype(&t) {
                    VType::Long => {
                        let out = self.scratch(t.clone());
                        self.pending.push(Box::new(vx::LongColMultiplyLongScalar {
                            input_column: col,
                            output_column: out,
                            scalar: -1,
                        }));
                        Some((out, t))
                    }
                    VType::Double => {
                        let out = self.scratch(DataType::Double);
                        self.pending
                            .push(Box::new(vx::DoubleColMultiplyDoubleScalar {
                                input_column: col,
                                output_column: out,
                                scalar: -1.0,
                            }));
                        Some((out, DataType::Double))
                    }
                    VType::Bytes => None,
                }
            }
            ExprNode::Binary { op, left, right } => self.compile_binary(*op, left, right)?,
            _ => None,
        })
    }

    fn widen(&mut self, col: usize) -> usize {
        let out = self.scratch(DataType::Double);
        self.pending.push(Box::new(vx::CastLongToDouble {
            input_column: col,
            output_column: out,
        }));
        out
    }

    #[allow(clippy::type_complexity)]
    fn compile_binary(
        &mut self,
        op: BinaryOp,
        left: &ExprNode,
        right: &ExprNode,
    ) -> Result<Option<(usize, DataType)>> {
        use BinaryOp::*;
        if matches!(op, And | Or | Modulo) {
            return Ok(None);
        }
        // Scalar fast paths (the paper's col-scalar templates).
        let scalar = match right {
            ExprNode::Literal(Value::Int(x)) => Some((*x as f64, true)),
            ExprNode::Literal(Value::Double(x)) => Some((*x, false)),
            _ => None,
        };
        let Some((lcol, lt)) = self.compile_value(left)? else {
            return Ok(None);
        };

        if matches!(op, Add | Subtract | Multiply | Divide) {
            if let Some((sval, s_is_int)) = scalar {
                // Column ⊕ scalar.
                let want_double = op == Divide || vtype(&lt) == VType::Double || !s_is_int;
                if vtype(&lt) == VType::Bytes {
                    return Ok(None);
                }
                return Ok(Some(if want_double {
                    let col = if vtype(&lt) == VType::Long {
                        self.widen(lcol)
                    } else {
                        lcol
                    };
                    let out = self.scratch(DataType::Double);
                    let e: Box<dyn VectorExpression> = match op {
                        Add => Box::new(vx::DoubleColAddDoubleScalar {
                            input_column: col,
                            output_column: out,
                            scalar: sval,
                        }),
                        Subtract => Box::new(vx::DoubleColSubtractDoubleScalar {
                            input_column: col,
                            output_column: out,
                            scalar: sval,
                        }),
                        Multiply => Box::new(vx::DoubleColMultiplyDoubleScalar {
                            input_column: col,
                            output_column: out,
                            scalar: sval,
                        }),
                        Divide => Box::new(vx::DoubleColDivideDoubleScalar {
                            input_column: col,
                            output_column: out,
                            scalar: sval,
                        }),
                        _ => unreachable!(),
                    };
                    self.pending.push(e);
                    (out, DataType::Double)
                } else {
                    let out = self.scratch(DataType::Int);
                    let s = sval as i64;
                    let e: Box<dyn VectorExpression> = match op {
                        Add => Box::new(vx::LongColAddLongScalar {
                            input_column: lcol,
                            output_column: out,
                            scalar: s,
                        }),
                        Subtract => Box::new(vx::LongColSubtractLongScalar {
                            input_column: lcol,
                            output_column: out,
                            scalar: s,
                        }),
                        Multiply => Box::new(vx::LongColMultiplyLongScalar {
                            input_column: lcol,
                            output_column: out,
                            scalar: s,
                        }),
                        _ => unreachable!(),
                    };
                    self.pending.push(e);
                    (out, DataType::Int)
                }));
            }
            // Column ⊕ column.
            let Some((rcol, rt)) = self.compile_value(right)? else {
                return Ok(None);
            };
            if vtype(&lt) == VType::Bytes || vtype(&rt) == VType::Bytes {
                return Ok(None);
            }
            let want_double =
                op == Divide || vtype(&lt) == VType::Double || vtype(&rt) == VType::Double;
            return Ok(Some(if want_double {
                let l = if vtype(&lt) == VType::Long {
                    self.widen(lcol)
                } else {
                    lcol
                };
                let r = if vtype(&rt) == VType::Long {
                    self.widen(rcol)
                } else {
                    rcol
                };
                let out = self.scratch(DataType::Double);
                let e: Box<dyn VectorExpression> = match op {
                    Add => Box::new(vx::DoubleColAddDoubleColumn {
                        left_column: l,
                        right_column: r,
                        output_column: out,
                    }),
                    Subtract => Box::new(vx::DoubleColSubtractDoubleColumn {
                        left_column: l,
                        right_column: r,
                        output_column: out,
                    }),
                    Multiply => Box::new(vx::DoubleColMultiplyDoubleColumn {
                        left_column: l,
                        right_column: r,
                        output_column: out,
                    }),
                    Divide => Box::new(vx::DoubleColDivideDoubleColumn {
                        left_column: l,
                        right_column: r,
                        output_column: out,
                    }),
                    _ => unreachable!(),
                };
                self.pending.push(e);
                (out, DataType::Double)
            } else {
                let out = self.scratch(DataType::Int);
                let e: Box<dyn VectorExpression> = match op {
                    Add => Box::new(vx::LongColAddLongColumn {
                        left_column: lcol,
                        right_column: rcol,
                        output_column: out,
                    }),
                    Subtract => Box::new(vx::LongColSubtractLongColumn {
                        left_column: lcol,
                        right_column: rcol,
                        output_column: out,
                    }),
                    Multiply => Box::new(vx::LongColMultiplyLongColumn {
                        left_column: lcol,
                        right_column: rcol,
                        output_column: out,
                    }),
                    _ => unreachable!(),
                };
                self.pending.push(e);
                (out, DataType::Int)
            }));
        }

        // Comparisons producing boolean columns.
        if matches!(op, Eq | NotEq | Lt | LtEq | Gt | GtEq) {
            if let Some((sval, s_is_int)) = scalar {
                let out = self.scratch(DataType::Boolean);
                let e: Option<Box<dyn VectorExpression>> = match vtype(&lt) {
                    VType::Long if s_is_int => {
                        let s = sval as i64;
                        Some(match op {
                            Eq => Box::new(vx::LongColEqualLongScalar {
                                input_column: lcol,
                                output_column: out,
                                scalar: s,
                            }),
                            NotEq => Box::new(vx::LongColNotEqualLongScalar {
                                input_column: lcol,
                                output_column: out,
                                scalar: s,
                            }),
                            Lt => Box::new(vx::LongColLessLongScalar {
                                input_column: lcol,
                                output_column: out,
                                scalar: s,
                            }),
                            LtEq => Box::new(vx::LongColLessEqualLongScalar {
                                input_column: lcol,
                                output_column: out,
                                scalar: s,
                            }),
                            Gt => Box::new(vx::LongColGreaterLongScalar {
                                input_column: lcol,
                                output_column: out,
                                scalar: s,
                            }),
                            GtEq => Box::new(vx::LongColGreaterEqualLongScalar {
                                input_column: lcol,
                                output_column: out,
                                scalar: s,
                            }),
                            _ => unreachable!(),
                        })
                    }
                    VType::Double | VType::Long => {
                        let col = if vtype(&lt) == VType::Long {
                            self.widen(lcol)
                        } else {
                            lcol
                        };
                        Some(match op {
                            Eq => Box::new(vx::DoubleColEqualDoubleScalar {
                                input_column: col,
                                output_column: out,
                                scalar: sval,
                            }),
                            NotEq => Box::new(vx::DoubleColNotEqualDoubleScalar {
                                input_column: col,
                                output_column: out,
                                scalar: sval,
                            }),
                            Lt => Box::new(vx::DoubleColLessDoubleScalar {
                                input_column: col,
                                output_column: out,
                                scalar: sval,
                            }),
                            LtEq => Box::new(vx::DoubleColLessEqualDoubleScalar {
                                input_column: col,
                                output_column: out,
                                scalar: sval,
                            }),
                            Gt => Box::new(vx::DoubleColGreaterDoubleScalar {
                                input_column: col,
                                output_column: out,
                                scalar: sval,
                            }),
                            GtEq => Box::new(vx::DoubleColGreaterEqualDoubleScalar {
                                input_column: col,
                                output_column: out,
                                scalar: sval,
                            }),
                            _ => unreachable!(),
                        })
                    }
                    VType::Bytes => None,
                };
                if let Some(e) = e {
                    self.pending.push(e);
                    return Ok(Some((out, DataType::Boolean)));
                }
                return Ok(None);
            }
            let Some((rcol, rt)) = self.compile_value(right)? else {
                return Ok(None);
            };
            if vtype(&lt) == VType::Long && vtype(&rt) == VType::Long {
                let out = self.scratch(DataType::Boolean);
                let e: Option<Box<dyn VectorExpression>> = match op {
                    Eq => Some(Box::new(vx::LongColEqualLongColumn {
                        left_column: lcol,
                        right_column: rcol,
                        output_column: out,
                    })),
                    Lt => Some(Box::new(vx::LongColLessLongColumn {
                        left_column: lcol,
                        right_column: rcol,
                        output_column: out,
                    })),
                    Gt => Some(Box::new(vx::LongColGreaterLongColumn {
                        left_column: lcol,
                        right_column: rcol,
                        output_column: out,
                    })),
                    _ => None,
                };
                if let Some(e) = e {
                    self.pending.push(e);
                    return Ok(Some((out, DataType::Boolean)));
                }
            }
            return Ok(None);
        }
        Ok(None)
    }

    /// Compile a predicate into an in-place filter expression.
    fn compile_filter(&mut self, e: &ExprNode) -> Result<Option<Box<dyn VectorExpression>>> {
        use BinaryOp::*;
        Ok(match e {
            ExprNode::Binary {
                op: And,
                left,
                right,
            } => {
                let (Some(l), Some(r)) = (self.compile_filter(left)?, self.compile_filter(right)?)
                else {
                    return Ok(None);
                };
                Some(Box::new(vx::FilterAnd {
                    children: vec![l, r],
                }))
            }
            ExprNode::Binary {
                op: Or,
                left,
                right,
            } => {
                let (Some(l), Some(r)) = (self.compile_filter(left)?, self.compile_filter(right)?)
                else {
                    return Ok(None);
                };
                Some(Box::new(vx::FilterOr {
                    children: vec![l, r],
                }))
            }
            ExprNode::Binary { op, left, right }
                if matches!(op, Eq | NotEq | Lt | LtEq | Gt | GtEq) =>
            {
                self.compile_cmp_filter(*op, left, right)?
            }
            ExprNode::Between {
                expr,
                lo,
                hi,
                negated: false,
            } => {
                let Some((col, t)) = self.compile_value(expr)? else {
                    return Ok(None);
                };
                match (vtype(&t), &**lo, &**hi) {
                    (
                        VType::Long,
                        ExprNode::Literal(Value::Int(a)),
                        ExprNode::Literal(Value::Int(b)),
                    ) => Some(Box::new(vx::FilterLongColumnBetween {
                        column: col,
                        lo: *a,
                        hi: *b,
                    })),
                    (VType::Double, ExprNode::Literal(la), ExprNode::Literal(lb)) => {
                        let (Some(a), Some(b)) = (la.as_double(), lb.as_double()) else {
                            return Ok(None);
                        };
                        Some(Box::new(vx::FilterDoubleColumnBetween {
                            column: col,
                            lo: a,
                            hi: b,
                        }))
                    }
                    (VType::Long, ExprNode::Literal(la), ExprNode::Literal(lb)) => {
                        let (Some(a), Some(b)) = (la.as_double(), lb.as_double()) else {
                            return Ok(None);
                        };
                        let wide = self.widen(col);
                        Some(Box::new(vx::FilterDoubleColumnBetween {
                            column: wide,
                            lo: a,
                            hi: b,
                        }))
                    }
                    (
                        VType::Bytes,
                        ExprNode::Literal(Value::String(a)),
                        ExprNode::Literal(Value::String(b)),
                    ) => Some(Box::new(vx::FilterAnd {
                        children: vec![
                            Box::new(vx::FilterBytesColGreaterEqualBytesScalar {
                                column: col,
                                scalar: a.as_bytes().to_vec(),
                            }),
                            Box::new(vx::FilterBytesColLessEqualBytesScalar {
                                column: col,
                                scalar: b.as_bytes().to_vec(),
                            }),
                        ],
                    })),
                    _ => None,
                }
            }
            ExprNode::IsNull { expr, negated } => {
                let Some((col, _)) = self.compile_value(expr)? else {
                    return Ok(None);
                };
                Some(Box::new(vx::FilterIsNull {
                    column: col,
                    negated: *negated,
                }))
            }
            ExprNode::InList {
                expr,
                list,
                negated: false,
            } => {
                // col IN (a, b, ...) → OR of equality filters.
                let mut children: Vec<Box<dyn VectorExpression>> = Vec::with_capacity(list.len());
                for item in list {
                    let eq = ExprNode::Binary {
                        op: Eq,
                        left: Box::new((**expr).clone()),
                        right: Box::new(item.clone()),
                    };
                    let Some(f) = self.compile_filter(&eq)? else {
                        return Ok(None);
                    };
                    children.push(f);
                }
                Some(Box::new(vx::FilterOr { children }))
            }
            ExprNode::Column(_) => {
                let Some((col, t)) = self.compile_value(e)? else {
                    return Ok(None);
                };
                if vtype(&t) != VType::Long {
                    return Ok(None);
                }
                Some(Box::new(vx::FilterBoolColumn { column: col }))
            }
            _ => None,
        })
    }

    fn compile_cmp_filter(
        &mut self,
        op: BinaryOp,
        left: &ExprNode,
        right: &ExprNode,
    ) -> Result<Option<Box<dyn VectorExpression>>> {
        use BinaryOp::*;
        let Some((lcol, lt)) = self.compile_value(left)? else {
            return Ok(None);
        };
        match right {
            ExprNode::Literal(Value::String(s)) if vtype(&lt) == VType::Bytes => {
                let scalar = s.as_bytes().to_vec();
                Ok(Some(match op {
                    Eq => Box::new(vx::FilterBytesColEqualBytesScalar {
                        column: lcol,
                        scalar,
                    }),
                    NotEq => Box::new(vx::FilterBytesColNotEqualBytesScalar {
                        column: lcol,
                        scalar,
                    }),
                    Lt => Box::new(vx::FilterBytesColLessBytesScalar {
                        column: lcol,
                        scalar,
                    }),
                    LtEq => Box::new(vx::FilterBytesColLessEqualBytesScalar {
                        column: lcol,
                        scalar,
                    }),
                    Gt => Box::new(vx::FilterBytesColGreaterBytesScalar {
                        column: lcol,
                        scalar,
                    }),
                    GtEq => Box::new(vx::FilterBytesColGreaterEqualBytesScalar {
                        column: lcol,
                        scalar,
                    }),
                    _ => return Ok(None),
                }))
            }
            ExprNode::Literal(Value::Int(x)) if vtype(&lt) == VType::Long => {
                let scalar = *x;
                Ok(Some(match op {
                    Eq => Box::new(vx::FilterLongColEqualLongScalar {
                        column: lcol,
                        scalar,
                    }),
                    NotEq => Box::new(vx::FilterLongColNotEqualLongScalar {
                        column: lcol,
                        scalar,
                    }),
                    Lt => Box::new(vx::FilterLongColLessLongScalar {
                        column: lcol,
                        scalar,
                    }),
                    LtEq => Box::new(vx::FilterLongColLessEqualLongScalar {
                        column: lcol,
                        scalar,
                    }),
                    Gt => Box::new(vx::FilterLongColGreaterLongScalar {
                        column: lcol,
                        scalar,
                    }),
                    GtEq => Box::new(vx::FilterLongColGreaterEqualLongScalar {
                        column: lcol,
                        scalar,
                    }),
                    _ => return Ok(None),
                }))
            }
            ExprNode::Literal(v) if v.as_double().is_some() && vtype(&lt) != VType::Bytes => {
                let scalar = v.as_double().unwrap();
                let col = if vtype(&lt) == VType::Long {
                    self.widen(lcol)
                } else {
                    lcol
                };
                Ok(Some(match op {
                    Eq => Box::new(vx::FilterDoubleColEqualDoubleScalar {
                        column: col,
                        scalar,
                    }),
                    NotEq => Box::new(vx::FilterDoubleColNotEqualDoubleScalar {
                        column: col,
                        scalar,
                    }),
                    Lt => Box::new(vx::FilterDoubleColLessDoubleScalar {
                        column: col,
                        scalar,
                    }),
                    LtEq => Box::new(vx::FilterDoubleColLessEqualDoubleScalar {
                        column: col,
                        scalar,
                    }),
                    Gt => Box::new(vx::FilterDoubleColGreaterDoubleScalar {
                        column: col,
                        scalar,
                    }),
                    GtEq => Box::new(vx::FilterDoubleColGreaterEqualDoubleScalar {
                        column: col,
                        scalar,
                    }),
                    _ => return Ok(None),
                }))
            }
            _ => {
                // Column-column filters (long/double subset).
                let Some((rcol, rt)) = self.compile_value(right)? else {
                    return Ok(None);
                };
                match (vtype(&lt), vtype(&rt), op) {
                    (VType::Long, VType::Long, Eq) => {
                        Ok(Some(Box::new(vx::FilterLongColEqualLongColumn {
                            left_column: lcol,
                            right_column: rcol,
                        })))
                    }
                    (VType::Long, VType::Long, Lt) => {
                        Ok(Some(Box::new(vx::FilterLongColLessLongColumn {
                            left_column: lcol,
                            right_column: rcol,
                        })))
                    }
                    (VType::Long, VType::Long, Gt) => {
                        Ok(Some(Box::new(vx::FilterLongColGreaterLongColumn {
                            left_column: lcol,
                            right_column: rcol,
                        })))
                    }
                    (VType::Double, VType::Double, Lt) => {
                        Ok(Some(Box::new(vx::FilterDoubleColLessDoubleColumn {
                            left_column: lcol,
                            right_column: rcol,
                        })))
                    }
                    (VType::Double, VType::Double, Gt) => {
                        Ok(Some(Box::new(vx::FilterDoubleColGreaterDoubleColumn {
                            left_column: lcol,
                            right_column: rcol,
                        })))
                    }
                    _ => Ok(None),
                }
            }
        }
    }

    /// Map a row-mode aggregate onto a vectorized AggSpec.
    fn compile_agg(&mut self, a: &crate::plan::AggCall) -> Result<Option<AggSpec>> {
        let (col, t) = match &a.arg {
            None => (None, None),
            Some(arg) => match self.compile_value(arg)? {
                Some((c, t)) => (Some(c), Some(t)),
                None => return Ok(None),
            },
        };
        let kind = match (a.function, t.as_ref().map(vtype)) {
            (AggFunction::CountStar, _) => AggKind::CountStar,
            (AggFunction::Count, _) => AggKind::Count,
            (AggFunction::Sum, Some(VType::Long)) => AggKind::SumLong,
            (AggFunction::Sum, Some(VType::Double)) => AggKind::SumDouble,
            (AggFunction::Avg, Some(VType::Long | VType::Double)) => AggKind::Avg,
            (AggFunction::Min, Some(VType::Long)) => AggKind::MinLong,
            (AggFunction::Min, Some(VType::Double)) => AggKind::MinDouble,
            (AggFunction::Min, Some(VType::Bytes)) => AggKind::MinBytes,
            (AggFunction::Max, Some(VType::Long)) => AggKind::MaxLong,
            (AggFunction::Max, Some(VType::Double)) => AggKind::MaxDouble,
            (AggFunction::Max, Some(VType::Bytes)) => AggKind::MaxBytes,
            _ => return Ok(None),
        };
        Ok(Some(AggSpec {
            kind,
            input_column: col,
        }))
    }
}
