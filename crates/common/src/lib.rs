//! Shared foundation types for the Hive reproduction: data types, values,
//! schemas, rows, errors, and the session configuration registry.
//!
//! Every other crate in the workspace builds on these definitions, mirroring
//! how Hive's `serde2` type system underpins its storage and execution layers.

pub mod cancel;
pub mod config;
pub mod error;
pub mod key;
pub mod row;
pub mod schema;
pub mod types;
pub mod value;

pub use cancel::CancelToken;
pub use config::HiveConf;
pub use error::{HiveError, Result};
pub use key::Key;
pub use row::Row;
pub use schema::{ColumnNode, ColumnTree, Field, Schema};
pub use types::DataType;
pub use value::Value;
