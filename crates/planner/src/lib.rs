//! The query planner (paper Sections 2, 5 and 6.4).
//!
//! The planner walks the AST, assembles an operator tree with
//! ReduceSinkOperators at every repartitioning boundary, applies the
//! optimizations the paper describes —
//!
//! * predicate pushdown and column pruning into the scans,
//! * Reduce Join → Map Join conversion,
//! * **elimination of unnecessary Map phases** by merging Map-only jobs
//!   into their child job (Section 5.1),
//! * the **Correlation Optimizer** removing unnecessary shuffles and scans
//!   (Section 5.2), rewiring the Reduce side with Demux/Mux operators,
//! * the rule-based **vectorization pass** replacing eligible map-side
//!   chains with vectorized pipelines (Section 6.4),
//!
//! — and finally compiles the tree into a DAG of MapReduce jobs.

pub mod catalog;
pub mod compile;
pub mod correlation;
pub mod fingerprint;
pub mod mapjoin;
pub mod order;
pub mod plan;
pub mod scope;
pub mod semantic;
pub mod vectorize;

pub use catalog::{Catalog, PinnedCatalog, TableMeta};
pub use compile::{compile, CompiledQuery};
pub use plan::{AggCall, PlanGraph, PlanNode, PlanOp};
pub use semantic::{translate, Translation};

use hive_common::{HiveConf, Result};
use hive_ql::SelectStmt;

/// Full planning: AST → optimized operator DAG → MapReduce job DAG.
pub fn plan_query(
    stmt: &SelectStmt,
    catalog: &dyn Catalog,
    conf: &HiveConf,
) -> Result<CompiledQuery> {
    let mut t = semantic::translate(stmt, catalog, conf)?;
    if conf.get_bool(hive_common::config::keys::AUTO_CONVERT_JOIN)? {
        mapjoin::convert_map_joins(&mut t.graph, conf)?;
    }
    if conf.get_bool(hive_common::config::keys::OPT_CORRELATION)? {
        correlation::optimize(&mut t.graph)?;
    }
    compile::compile(&t, conf)
}
