//! # hive — a Rust reproduction of *Major Technical Advancements in
//! # Apache Hive* (SIGMOD 2014)
//!
//! This facade crate re-exports the whole stack. The three advancements the
//! paper contributes, and where they live here:
//!
//! 1. **ORC File** (paper §4) — [`formats::orc`]: type-aware columnar
//!    writer with stripes, complex-type decomposition, three-level
//!    statistics, position pointers, predicate pushdown, two-level
//!    compression, block-alignment padding and a writer memory manager.
//! 2. **Query-planning advancements** (paper §5) — [`planner`]: Map Join
//!    conversion, elimination of unnecessary Map phases by merging Map-only
//!    jobs, and the YSmart-based Correlation Optimizer with its Demux/Mux
//!    Reduce-side coordination (in [`exec`]).
//! 3. **Vectorized query execution** (paper §6) — [`vector`]: 1024-row
//!    batches, typed column vectors with `selected[]` / `noNulls` /
//!    `isRepeating`, macro-generated per-type expressions, and the
//!    rule-based vectorization pass in the planner.
//!
//! Everything underneath — the DFS simulator, the MapReduce engine with its
//! calibrated cluster cost model, the HiveQL parser, the row-mode engine,
//! the compression codecs and the workload generators — is built in this
//! workspace from scratch; see DESIGN.md for the substitution table.
//!
//! ## Quickstart
//!
//! ```
//! use hive::HiveSession;
//! use hive::common::{Row, Value};
//!
//! let mut hive = HiveSession::in_memory();
//! hive.execute("CREATE TABLE logs (level STRING, ms BIGINT) STORED AS orc").unwrap();
//! hive.load_rows("logs", (0..1000).map(|i| Row::new(vec![
//!     Value::String(if i % 10 == 0 { "ERROR" } else { "INFO" }.to_string()),
//!     Value::Int(i % 97),
//! ]))).unwrap();
//! let r = hive.execute(
//!     "SELECT level, COUNT(*) AS n, AVG(ms) AS avg_ms \
//!      FROM logs GROUP BY level ORDER BY level").unwrap();
//! assert_eq!(r.rows.len(), 2);
//! assert_eq!(r.rows[0][1], Value::Int(100)); // ERROR count
//! ```

pub use hive_common as common;
pub use hive_core::{HiveServer, HiveSession, Metastore, QueryResult, SessionBuilder, TableInfo};
pub use hive_datagen as datagen;
pub use hive_dfs as dfs;
pub use hive_exec as exec;
pub use hive_formats as formats;
pub use hive_mapreduce as mapreduce;
pub use hive_obs as obs;
pub use hive_planner as planner;
pub use hive_ql as ql;
pub use hive_vector as vector;

pub use hive_codec as codec;
