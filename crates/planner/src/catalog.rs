//! The planner's view of the metastore.

use hive_common::{Result, Schema};
use hive_formats::{AcidOverlay, FormatKind};
use std::cell::RefCell;
use std::collections::BTreeMap;

/// Everything the planner needs to know about a table.
#[derive(Debug, Clone)]
pub struct TableMeta {
    pub name: String,
    pub schema: Schema,
    pub format: FormatKind,
    /// Files of the table in the DFS. For ACID tables these are the
    /// snapshot's base + delta files, in manifest order.
    pub paths: Vec<String>,
    /// Total on-disk bytes — drives the Map Join small-table decision.
    pub size_bytes: u64,
    /// ACID merge-on-read state: present when the table has a manifest.
    /// Scans of such tables overlay delete masks onto `paths`.
    pub acid: Option<AcidOverlay>,
}

/// Resolution of table names, implemented by the metastore. `Ok(None)`:
/// no such table; `Err`: the table exists but its metadata cannot be read
/// (a corrupt manifest chain, a read fault).
pub trait Catalog {
    fn table(&self, name: &str) -> Result<Option<TableMeta>>;

    /// How many files say `table`'s rows are stored in the order of its
    /// column `column` (see [`OrderedColumn`](crate::plan::OrderedColumn)),
    /// or `None` when the table is not, or nothing says so. The files are
    /// the ones `table` pinned, never a declaration. `cache_metadata`: the
    /// statement lets footers go through the process-wide metadata cache
    /// (`hive.io.cache.bytes` is not 0).
    fn order(&self, _table: &TableMeta, _column: usize, _cache_metadata: bool) -> Option<usize> {
        None
    }
}

/// One statement's view of a catalog: each table name is resolved against
/// the wrapped catalog at most once and every later lookup — by any
/// planner pass, for any alias — gets that same answer. A catalog whose
/// tables move between calls (the metastore pins whatever ACID snapshot is
/// newest) therefore cannot hand one statement two snapshots of a table.
pub struct PinnedCatalog<'a> {
    inner: &'a dyn Catalog,
    pinned: RefCell<BTreeMap<String, Option<TableMeta>>>,
}

impl<'a> PinnedCatalog<'a> {
    pub fn new(inner: &'a dyn Catalog) -> PinnedCatalog<'a> {
        PinnedCatalog {
            inner,
            pinned: RefCell::default(),
        }
    }
}

impl Catalog for PinnedCatalog<'_> {
    fn table(&self, name: &str) -> Result<Option<TableMeta>> {
        let key = name.to_ascii_lowercase();
        if let Some(meta) = self.pinned.borrow().get(&key) {
            return Ok(meta.clone());
        }
        let meta = self.inner.table(name)?;
        self.pinned.borrow_mut().insert(key, meta.clone());
        Ok(meta)
    }

    fn order(&self, table: &TableMeta, column: usize, cache_metadata: bool) -> Option<usize> {
        self.inner.order(table, column, cache_metadata)
    }
}

/// A fixed list of tables: test catalogs, and an ACID statement's view of
/// the one snapshot it pinned under its table lock.
#[derive(Debug, Default)]
pub struct StaticCatalog {
    pub tables: Vec<TableMeta>,
}

impl Catalog for StaticCatalog {
    fn table(&self, name: &str) -> Result<Option<TableMeta>> {
        let lower = name.to_ascii_lowercase();
        Ok(self
            .tables
            .iter()
            .find(|t| t.name.to_ascii_lowercase() == lower)
            .cloned())
    }
}
