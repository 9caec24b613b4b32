//! The row-mode (one-row-at-a-time) query execution engine.
//!
//! Hive "inherited this working model [from MapReduce] and it processes
//! rows with a one-row-at-a-time way" (paper Section 3, fourth
//! shortcoming). This crate reproduces that engine faithfully — interpreted
//! expressions with per-row dynamic dispatch, push-based operators driven
//! by group signals — because it is both the baseline the vectorized engine
//! (hive-vector) is measured against (Fig. 12) and the machinery the
//! Correlation Optimizer must keep working (Section 5.2.2's operator
//! coordination via Demux/Mux).

pub mod agg;
pub mod expr;
pub mod graph;
pub mod operators;
pub mod vector_ops;

pub use agg::{AggFunction, RowAggState};
pub use expr::ExprNode;
pub use graph::{Emit, Message, OperatorGraph, ShuffleRecord};
pub use operators::*;
pub use vector_ops::{
    VectorFileSinkOperator, VectorGroupByOperator, VectorGroupBySinkOperator, VectorJoinOperator,
    VectorOpAdapter, VectorReduceSinkOperator,
};
