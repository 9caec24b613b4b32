//! The top of the stack: Metastore, Driver and the public
//! [`HiveSession`] API — the analogue of Hive's CLI/HiveServer2 → Driver →
//! Planner → execution flow from the paper's Figure 1.

pub mod acid;
pub mod driver;
pub mod metastore;
pub mod plan_cache;
pub mod server;
pub mod session;
pub mod stats_answer;
pub mod wm;

pub use acid::{crash_point, ReadLease, TxnManager, COMPACTOR_CRASH_POINTS, WRITER_CRASH_POINTS};
pub use driver::{QueryResult, StatementCtx};
pub use metastore::{Metastore, TableInfo};
pub use plan_cache::{PlanCache, PlanCacheKey};
pub use server::HiveServer;
pub use session::{HiveSession, SessionBuilder};
pub use wm::{PoolSpec, ResourcePlan, WorkloadManager};
