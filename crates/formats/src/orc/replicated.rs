//! Per-replica sort orders (HAIL — "Only Aggressive Elephants are Fast
//! Elephants").
//!
//! HDFS already stores every block three times; HAIL's observation is
//! that those copies need not be byte-identical. This writer publishes
//! the base file in insertion order (variant 0 — byte-identical to a
//! plain [`OrcWriter`], so every knob-off path is unchanged), then one
//! extra copy per configured sort column, each clustered on that column
//! and adopted into a DFS replica slot. Each copy's footer says which
//! columns it is ordered on, and a selective query later reads the copy
//! whose footer says it is ordered on a predicate column; min/max pruning
//! does the rest — an index per replica at zero extra logical-storage
//! cost.

use crate::orc::memory::MemoryManager;
use crate::orc::writer::{OrcWriter, OrcWriterOptions};
use crate::TableWriter;
use hive_common::{key, Result, Row, Schema};
use hive_dfs::Dfs;

/// ORC writer that additionally publishes one sorted copy of the file
/// per configured sort column, capped at the cluster's spare replica
/// slots (`replication - 1`).
pub struct ReplicatedOrcWriter {
    dfs: Dfs,
    path: String,
    schema: Schema,
    options: OrcWriterOptions,
    memory: Option<MemoryManager>,
    /// Top-level column index per extra copy, in slot order.
    sort_columns: Vec<usize>,
    rows: Vec<Row>,
}

impl ReplicatedOrcWriter {
    pub fn create(
        dfs: &Dfs,
        path: &str,
        schema: &Schema,
        options: OrcWriterOptions,
        sort_columns: Vec<usize>,
        memory: Option<&MemoryManager>,
    ) -> ReplicatedOrcWriter {
        let slots = dfs.config().replication.saturating_sub(1);
        let mut sort_columns = sort_columns;
        sort_columns.truncate(slots);
        ReplicatedOrcWriter {
            dfs: dfs.clone(),
            path: path.to_string(),
            schema: schema.clone(),
            options,
            memory: memory.cloned(),
            sort_columns,
            rows: Vec::new(),
        }
    }
}

impl TableWriter for ReplicatedOrcWriter {
    fn write_row(&mut self, row: &Row) -> Result<()> {
        self.rows.push(row.clone());
        Ok(())
    }

    fn close(self: Box<Self>) -> Result<u64> {
        // Variant 0: insertion order, at the real path. Byte-identical to
        // what a plain OrcWriter would have produced.
        let mut base = Box::new(OrcWriter::create(
            &self.dfs,
            &self.path,
            &self.schema,
            self.options.clone(),
            self.memory.as_ref(),
        ));
        for row in &self.rows {
            base.write_row(row)?;
        }
        let len = base.close()?;

        // One sorted copy per configured column, staged under scratch and
        // adopted into its replica slot.
        for (slot0, &col) in self.sort_columns.iter().enumerate() {
            let slot = slot0 + 1;
            let mut sorted: Vec<&Row> = self.rows.iter().collect();
            sorted.sort_by(|a, b| key::cmp_value(&a[col], &b[col]));
            let tmp = format!("/tmp/orc-variant{}.v{slot}", self.path);
            let mut w = Box::new(OrcWriter::create(
                &self.dfs,
                &tmp,
                &self.schema,
                self.options.clone(),
                self.memory.as_ref(),
            ));
            for row in &sorted {
                w.write_row(row)?;
            }
            w.close()?;
            self.dfs.adopt_variant(&self.path, &tmp, slot)?;
        }
        Ok(len)
    }

    fn memory_estimate(&self) -> usize {
        // Buffered rows dominate; a coarse per-value estimate keeps the
        // memory manager honest without walking nested values.
        self.rows.len() * self.schema.len() * 24
    }
}
