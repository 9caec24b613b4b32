//! The operator DAG the planner builds and optimizes — the "operator tree"
//! of paper Section 2, with ReduceSinkOperators marking every Map/Reduce
//! boundary.

use crate::catalog::TableMeta;
use hive_common::{DataType, HiveError, Result, Value};
use hive_exec::agg::AggFunction;
use hive_exec::expr::{BinaryOp, ExprNode};
use hive_exec::operators::JoinType;
use hive_formats::SearchArgument;
use std::collections::BTreeMap;

/// A named, typed output column of a plan operator.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnInfo {
    pub name: String,
    pub data_type: DataType,
}

impl ColumnInfo {
    pub fn new(name: impl Into<String>, data_type: DataType) -> ColumnInfo {
        ColumnInfo {
            name: name.into(),
            data_type,
        }
    }
}

/// Which phase a GroupBy runs in (Hive's map-side aggregation split).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GroupByPhase {
    /// Map-side hash aggregation producing partial states.
    MapHash,
    /// Reduce-side streaming merge of partials into final values.
    ReduceMerge,
    /// Reduce-side streaming aggregation of *raw* inputs — produced by the
    /// Correlation Optimizer when it removes the map-side partial GroupBy
    /// together with its ReduceSink.
    ReduceComplete,
}

/// One aggregate call.
#[derive(Debug, Clone, PartialEq)]
pub struct AggCall {
    pub function: AggFunction,
    /// Input expression over the operator's input row (None for COUNT(*)).
    pub arg: Option<ExprNode>,
    pub output_name: String,
    /// Final output type.
    pub output_type: DataType,
}

/// A small side of a Map Join (the built hash table).
#[derive(Debug, Clone)]
pub struct MapJoinSide {
    pub alias: String,
    pub table: TableMeta,
    /// Columns of the small table that are loaded.
    pub projection: Vec<usize>,
    /// Filter applied while building the hash table (over projected row).
    pub build_filter: Option<ExprNode>,
    /// Key expressions over the projected small row.
    pub build_keys: Vec<ExprNode>,
    /// Key expressions over the big-side stream row at probe time.
    pub stream_keys: Vec<ExprNode>,
    pub join_type: JoinType,
    /// Projected small-row width (appended to the stream on match).
    pub width: usize,
    /// Set for a range map join: the side's table is stored in the order
    /// of this build-key column, and each map task of the stream builds
    /// its table from the side's rows in the keys the task owns.
    pub range: Option<OrderedColumn>,
    /// The predicates the side's scan pushed down: a ranged side's task
    /// reads through them beside its key range.
    pub build_sarg: Option<SearchArgument>,
}

/// Evidence that a table's rows are stored in the order of one of its
/// columns: every file's footer says the column is non-decreasing, no file
/// holds a NULL in it, and the files' value ranges follow one another
/// without overlap, in listing order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OrderedColumn {
    /// The table column.
    pub column: usize,
    /// How many files the evidence rests on.
    pub files: usize,
}

/// A plan operator.
#[derive(Debug, Clone)]
pub enum PlanOp {
    TableScan {
        alias: String,
        table: TableMeta,
        /// Pruned top-level columns, in scan output order.
        projection: Vec<usize>,
        /// Predicates pushed to the storage reader.
        sarg: Option<SearchArgument>,
    },
    Filter {
        predicate: ExprNode,
    },
    Select {
        exprs: Vec<ExprNode>,
    },
    ReduceSink {
        keys: Vec<ExprNode>,
        values: Vec<ExprNode>,
        num_reducers: usize,
        /// Set by the Correlation Optimizer: this sink's repartitioning is
        /// redundant, so it executes as a plain projection (keys ++ values)
        /// and is no longer a job boundary.
        degenerate: bool,
    },
    GroupBy {
        phase: GroupByPhase,
        /// Key expressions over the input row.
        keys: Vec<ExprNode>,
        aggs: Vec<AggCall>,
    },
    /// Reduce-side binary join; parents are its two ReduceSinks in tag
    /// order.
    Join {
        kind: JoinType,
        /// The left and right input rows' widths (key + value).
        input_widths: [usize; 2],
        /// Join-key columns leading every input row.
        nk: usize,
        /// An outer join's ON conjuncts beyond the keys, over the joined
        /// row: a pair joins only if it passes.
        residual: Option<ExprNode>,
    },
    /// Map-side join; the single parent is the big-table stream.
    MapJoin(MapJoinSide),
    Limit(u64),
    /// A forced job boundary: the producing job writes an intermediate
    /// file here and the consumer re-reads it. Inserted after MapJoins when
    /// Map-only-job merging (Section 5.1) is disabled.
    IntermediateCut,
    FileSink,
}

impl PlanOp {
    pub fn kind_name(&self) -> &'static str {
        match self {
            PlanOp::TableScan { .. } => "TableScan",
            PlanOp::Filter { .. } => "Filter",
            PlanOp::Select { .. } => "Select",
            PlanOp::ReduceSink { .. } => "ReduceSink",
            PlanOp::GroupBy { .. } => "GroupBy",
            PlanOp::Join { .. } => "Join",
            PlanOp::MapJoin(_) => "MapJoin",
            PlanOp::Limit(_) => "Limit",
            PlanOp::IntermediateCut => "IntermediateCut",
            PlanOp::FileSink => "FileSink",
        }
    }

    /// Is this a *major* operator — one that requires its input partitioned
    /// a certain way (paper Section 3's terminology)?
    pub fn is_major(&self) -> bool {
        matches!(
            self,
            PlanOp::Join { .. }
                | PlanOp::GroupBy {
                    phase: GroupByPhase::ReduceMerge | GroupByPhase::ReduceComplete,
                    ..
                }
        )
    }
}

/// A node in the plan DAG. Following the paper's orientation, `children`
/// point *downstream* (toward the FileSink) and `parents` upstream.
#[derive(Debug, Clone)]
pub struct PlanNode {
    pub id: usize,
    pub op: PlanOp,
    /// Output schema of this operator.
    pub schema: Vec<ColumnInfo>,
    pub children: Vec<usize>,
    /// Ordered: a Join's parents are its ReduceSinks in tag order.
    pub parents: Vec<usize>,
    pub alive: bool,
}

/// The operator DAG.
#[derive(Debug, Clone, Default)]
pub struct PlanGraph {
    pub nodes: Vec<PlanNode>,
    /// Per TableScan: the columns its table is stored in the order of,
    /// among those the statement groups or joins on (recorded by
    /// `semantic::translate`; empty when no table is).
    pub order: BTreeMap<usize, Vec<OrderedColumn>>,
    /// Per TableScan whose map tasks own key ranges rather than byte
    /// ranges: the order column the plan above it relies on (`order.rs`).
    pub ranged: BTreeMap<usize, OrderedColumn>,
}

impl PlanGraph {
    pub fn add(&mut self, op: PlanOp, schema: Vec<ColumnInfo>, parents: Vec<usize>) -> usize {
        let id = self.nodes.len();
        for &p in &parents {
            self.nodes[p].children.push(id);
        }
        self.nodes.push(PlanNode {
            id,
            op,
            schema,
            children: Vec::new(),
            parents,
            alive: true,
        });
        id
    }

    pub fn node(&self, id: usize) -> &PlanNode {
        &self.nodes[id]
    }

    pub fn node_mut(&mut self, id: usize) -> &mut PlanNode {
        &mut self.nodes[id]
    }

    /// Remove `id`, splicing each parent directly to each child (keeping
    /// the child's parent-slot position, so join tags are preserved).
    pub fn splice_out(&mut self, id: usize) -> Result<()> {
        let parents = self.nodes[id].parents.clone();
        let children = self.nodes[id].children.clone();
        if parents.len() > 1 && children.len() > 1 {
            return Err(HiveError::Plan(
                "cannot splice out a node with multiple parents and children".into(),
            ));
        }
        for &p in &parents {
            self.nodes[p].children.retain(|&c| c != id);
            self.nodes[p].children.extend(children.iter().copied());
        }
        for &c in &children {
            for slot in self.nodes[c].parents.iter_mut() {
                if *slot == id {
                    *slot = parents[0];
                }
            }
        }
        self.nodes[id].alive = false;
        self.nodes[id].parents.clear();
        self.nodes[id].children.clear();
        Ok(())
    }

    /// All live node ids whose op is a FileSink.
    pub fn file_sinks(&self) -> Vec<usize> {
        self.nodes
            .iter()
            .filter(|n| n.alive && matches!(n.op, PlanOp::FileSink))
            .map(|n| n.id)
            .collect()
    }

    /// All live TableScan ids.
    pub fn scans(&self) -> Vec<usize> {
        self.nodes
            .iter()
            .filter(|n| n.alive && matches!(n.op, PlanOp::TableScan { .. }))
            .map(|n| n.id)
            .collect()
    }

    /// Live nodes matching a predicate.
    pub fn find(&self, pred: impl Fn(&PlanNode) -> bool) -> Vec<usize> {
        self.nodes
            .iter()
            .filter(|n| n.alive && pred(n))
            .map(|n| n.id)
            .collect()
    }

    /// Indented EXPLAIN-style rendering, one tree per FileSink.
    pub fn explain(&self) -> String {
        let mut out = String::new();
        for fs in self.file_sinks() {
            self.explain_node(fs, 0, &mut out);
        }
        out
    }

    fn explain_node(&self, id: usize, depth: usize, out: &mut String) {
        let n = &self.nodes[id];
        out.push_str(&"  ".repeat(depth));
        out.push_str(&format!("#{} {}", id, n.op.kind_name()));
        match &n.op {
            PlanOp::TableScan {
                alias,
                table,
                projection,
                sarg,
            } => {
                out.push_str(&format!(
                    " {}[{}] cols {:?}{}",
                    alias,
                    table.name,
                    projection,
                    if sarg.is_some() { " +sarg" } else { "" }
                ));
            }
            PlanOp::ReduceSink {
                keys,
                num_reducers,
                degenerate,
                ..
            } => {
                out.push_str(&format!(
                    " {} key(s), {num_reducers} reducer(s){}",
                    keys.len(),
                    if *degenerate { " [degenerate]" } else { "" }
                ));
            }
            PlanOp::GroupBy { phase, keys, aggs } => {
                out.push_str(&format!(
                    " {:?} {} key(s) {} agg(s)",
                    phase,
                    keys.len(),
                    aggs.len()
                ));
            }
            PlanOp::Join {
                kind,
                input_widths,
                residual,
                ..
            } => {
                out.push_str(&format!(
                    " {:?} {} inputs{}",
                    kind,
                    input_widths.len(),
                    if residual.is_some() { " +residual" } else { "" }
                ));
            }
            PlanOp::MapJoin(small) => {
                out.push_str(&format!(" small: [{:?}]", small.alias));
            }
            _ => {}
        }
        out.push('\n');
        for &p in &n.parents {
            self.explain_node(p, depth + 1, out);
        }
    }
}

/// Infer the output type of an expression over an input schema.
pub fn expr_type(e: &ExprNode, input: &[ColumnInfo]) -> Result<DataType> {
    Ok(match e {
        ExprNode::Column(i) => input
            .get(*i)
            .ok_or_else(|| HiveError::Plan(format!("column {i} out of plan schema range")))?
            .data_type
            .clone(),
        ExprNode::Literal(v) => v.data_type().unwrap_or(DataType::String),
        ExprNode::Binary { op, left, right } => {
            use BinaryOp::*;
            match op {
                And | Or | Eq | NotEq | Lt | LtEq | Gt | GtEq => DataType::Boolean,
                Divide => DataType::Double,
                _ => {
                    let lt = expr_type(left, input)?;
                    let rt = expr_type(right, input)?;
                    if lt == DataType::Double || rt == DataType::Double {
                        DataType::Double
                    } else {
                        DataType::Int
                    }
                }
            }
        }
        ExprNode::Unary { op, expr } => match op {
            hive_exec::expr::UnaryOp::Not => DataType::Boolean,
            hive_exec::expr::UnaryOp::Neg => expr_type(expr, input)?,
        },
        ExprNode::Between { .. } | ExprNode::IsNull { .. } | ExprNode::InList { .. } => {
            DataType::Boolean
        }
        ExprNode::Cast { target, .. } => target.clone(),
        // `semantic::lower` gave every branch and ELSE value one type; a
        // NULL literal among them has none.
        ExprNode::Case {
            branches,
            else_value,
        } => {
            let mut values = branches.iter().map(|(_, v)| v).chain(else_value.as_deref());
            match values.find(|v| !matches!(v, ExprNode::Literal(Value::Null))) {
                Some(v) => expr_type(v, input)?,
                None => DataType::String,
            }
        }
    })
}

/// The result type of an aggregate over an argument type.
pub fn agg_output_type(f: AggFunction, arg: Option<&DataType>) -> DataType {
    match f {
        AggFunction::CountStar | AggFunction::Count | AggFunction::MergeCount => DataType::Int,
        AggFunction::Sum => match arg {
            Some(DataType::Double) => DataType::Double,
            _ => DataType::Int,
        },
        AggFunction::Min | AggFunction::Max => arg.cloned().unwrap_or(DataType::String),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hive_common::Value;

    fn scan_meta() -> TableMeta {
        TableMeta {
            name: "t".into(),
            schema: hive_common::Schema::parse(&[("a", "bigint")]).unwrap(),
            format: hive_formats::FormatKind::Orc,
            paths: vec!["/w/t".into()],
            size_bytes: 10,
            acid: None,
        }
    }

    #[test]
    fn add_and_splice() {
        let mut g = PlanGraph::default();
        let ts = g.add(
            PlanOp::TableScan {
                alias: "t".into(),
                table: scan_meta(),
                projection: vec![0],
                sarg: None,
            },
            vec![ColumnInfo::new("a", DataType::Int)],
            vec![],
        );
        let f = g.add(
            PlanOp::Filter {
                predicate: ExprNode::lit(Value::Boolean(true)),
            },
            vec![ColumnInfo::new("a", DataType::Int)],
            vec![ts],
        );
        let fs = g.add(PlanOp::FileSink, vec![], vec![f]);
        assert_eq!(g.node(fs).parents, vec![f]);
        g.splice_out(f).unwrap();
        assert_eq!(g.node(fs).parents, vec![ts]);
        assert_eq!(g.node(ts).children, vec![fs]);
        assert!(!g.node(f).alive);
    }

    #[test]
    fn expr_types() {
        let input = vec![
            ColumnInfo::new("a", DataType::Int),
            ColumnInfo::new("b", DataType::Double),
        ];
        let add = ExprNode::binary(BinaryOp::Add, ExprNode::col(0), ExprNode::col(1));
        assert_eq!(expr_type(&add, &input).unwrap(), DataType::Double);
        let ii = ExprNode::binary(BinaryOp::Multiply, ExprNode::col(0), ExprNode::col(0));
        assert_eq!(expr_type(&ii, &input).unwrap(), DataType::Int);
        let div = ExprNode::binary(BinaryOp::Divide, ExprNode::col(0), ExprNode::col(0));
        assert_eq!(expr_type(&div, &input).unwrap(), DataType::Double);
        let cmp = ExprNode::binary(BinaryOp::Lt, ExprNode::col(0), ExprNode::col(1));
        assert_eq!(expr_type(&cmp, &input).unwrap(), DataType::Boolean);
    }

    #[test]
    fn agg_types() {
        assert_eq!(agg_output_type(AggFunction::Count, None), DataType::Int);
        assert_eq!(
            agg_output_type(AggFunction::Sum, Some(&DataType::Double)),
            DataType::Double
        );
        assert_eq!(
            agg_output_type(AggFunction::MergeCount, Some(&DataType::Int)),
            DataType::Int
        );
        assert_eq!(
            agg_output_type(AggFunction::Max, Some(&DataType::String)),
            DataType::String
        );
    }
}
