//! The vectorized query execution model (paper Section 6).
//!
//! Datasets are processed as [`VectorizedRowBatch`]es — by default 1024 rows,
//! chosen so a batch fits in the processor cache. Each column of a batch is a
//! typed [`ColumnVector`]; expressions are implemented per type combination
//! ("templates", here kernels generic over a lane and a zero-sized operator,
//! built through the catalogue in [`expressions`]) as tight loops over the
//! vectors with:
//!
//! * a `selected[]` array tracking surviving rows without branches,
//! * a `no_nulls` flag that lets expressions skip null checks entirely,
//! * an `is_repeating` flag that collapses work to constant time when a
//!   column holds one value (extending run-length encoding's benefit to
//!   execution, as the paper notes).

pub mod aggregates;
pub mod batch;
pub mod expressions;
mod key_wrapper;
pub mod mapjoin;
pub mod operators;
pub mod reduce;
pub mod row_convert;

pub use batch::{
    BytesColumnVector, ColumnSource, ColumnVector, Dictionary, DoubleColumnVector, Lane,
    LongColumnVector, PrimitiveColumnVector, VectorizedRowBatch, DEFAULT_BATCH_SIZE,
};
pub use expressions::VectorExpression;
pub use mapjoin::{MapJoinBuilder, MapJoinKind, MapJoinTable, VectorMapJoinOperator};
pub use operators::{
    VectorFilterOperator, VectorLimitOperator, VectorOperator, VectorSelectOperator,
};
