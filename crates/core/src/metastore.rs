//! The Metastore: table metadata (paper Figure 1 — "the Driver needs to
//! contact the Metastore to retrieve needed metadata"). Backed by an
//! in-memory map rather than an RDBMS; the planner-facing view is the
//! [`Catalog`] trait.

use hive_common::{key, HiveError, Result, Schema};
use hive_dfs::Dfs;
use hive_formats::delta::{
    is_acid_path, list_manifests, load_delete_files, load_snapshot_stamped, Fallback, FileStamp,
};
use hive_formats::orc::reader::{OrcReadOptions, OrcReader};
use hive_formats::{AcidOverlay, DeleteSet, FormatKind, TableSnapshot};
use hive_obs::MetricsRegistry;
use hive_planner::{Catalog, TableMeta};
use parking_lot::{Mutex, RwLock};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Metadata of one table.
#[derive(Debug, Clone)]
pub struct TableInfo {
    pub name: String,
    pub schema: Schema,
    pub format: FormatKind,
    /// Directory prefix holding the table's files.
    pub location: String,
}

/// The committed state of an ACID table as one statement sees it: the
/// governing manifest and the union of its delete files.
#[derive(Debug, Clone)]
pub struct PinnedSnapshot {
    pub snapshot: Arc<TableSnapshot>,
    pub deletes: Arc<DeleteSet>,
}

/// The last pin of one table location, with the stamp of every file it
/// was decoded from. Each half is reusable exactly while its stamps still
/// match the filesystem, so no entry ever needs invalidating: a commit
/// lists a newer manifest, a tamper or overwrite bumps a generation, and
/// either way the stale half stops matching.
struct CachedPin {
    /// The newest listed manifest, which decoded to `snapshot`.
    manifest: FileStamp,
    snapshot: Arc<TableSnapshot>,
    /// The files `deletes` is the union of: `snapshot.deletes`, stamped.
    delete_files: Vec<FileStamp>,
    deletes: Arc<DeleteSet>,
}

/// The metastore. Cheap to clone (shared state).
#[derive(Clone)]
pub struct Metastore {
    dfs: Dfs,
    tables: Arc<RwLock<BTreeMap<String, TableInfo>>>,
    /// Catalog generation: bumped by every successful DDL. The plan cache
    /// keys entries on it, so plans compiled against an older catalog
    /// become unreachable the moment a table appears or disappears.
    generation: Arc<AtomicU64>,
    /// Snapshot pins by table location (see [`CachedPin`]).
    pins: Arc<Mutex<HashMap<String, Arc<CachedPin>>>>,
    /// Where `acid.snapshot.*` is recorded.
    metrics: MetricsRegistry,
}

impl Metastore {
    /// A metastore over `dfs`, recording `acid.snapshot.*` into `metrics`
    /// (the server's registry).
    pub fn new(dfs: Dfs, metrics: MetricsRegistry) -> Metastore {
        Metastore {
            dfs,
            tables: Arc::new(RwLock::new(BTreeMap::new())),
            generation: Arc::new(AtomicU64::new(0)),
            pins: Arc::new(Mutex::new(HashMap::new())),
            metrics,
        }
    }

    /// Current catalog generation (see the field docs).
    pub fn catalog_generation(&self) -> u64 {
        self.generation.load(Ordering::Relaxed)
    }

    /// Register a table. Its location is `/warehouse/<name>/`.
    pub fn create_table(
        &self,
        name: &str,
        schema: Schema,
        format: FormatKind,
    ) -> Result<TableInfo> {
        let key = name.to_ascii_lowercase();
        let mut tables = self.tables.write();
        if tables.contains_key(&key) {
            return Err(HiveError::Metastore(format!(
                "table `{name}` already exists"
            )));
        }
        let info = TableInfo {
            name: key.clone(),
            schema,
            format,
            location: format!("/warehouse/{key}/"),
        };
        tables.insert(key, info.clone());
        self.generation.fetch_add(1, Ordering::Relaxed);
        Ok(info)
    }

    pub fn drop_table(&self, name: &str) -> bool {
        let key = name.to_ascii_lowercase();
        if let Some(info) = self.tables.write().remove(&key) {
            self.pins.lock().remove(&info.location);
            for f in self.dfs.list(&info.location) {
                self.dfs.delete(&f);
            }
            self.generation.fetch_add(1, Ordering::Relaxed);
            true
        } else {
            false
        }
    }

    pub fn get(&self, name: &str) -> Option<TableInfo> {
        self.tables.read().get(&name.to_ascii_lowercase()).cloned()
    }

    pub fn list_tables(&self) -> Vec<String> {
        self.tables.read().keys().cloned().collect()
    }

    /// Current on-disk size of a table.
    pub fn table_size(&self, name: &str) -> u64 {
        self.get(name)
            .map(|t| self.dfs.size_of(&t.location))
            .unwrap_or(0)
    }

    /// Files of a table.
    pub fn table_files(&self, name: &str) -> Vec<String> {
        self.get(name)
            .map(|t| self.dfs.list(&t.location))
            .unwrap_or_default()
    }

    /// Pin the committed state of the ACID table `info`: the newest valid
    /// manifest and the union of its delete files, or `None` for a table
    /// that has never committed a transaction. Files are read through
    /// `dfs` (the caller's statement scope), and only those whose stamp
    /// moved since the last pin: a statement that follows no commit reads
    /// nothing, one that follows an INSERT reads one manifest, one that
    /// follows a DELETE reads one manifest and one delete file.
    ///
    /// Nothing is stored from a load that failed, nor from one that had
    /// to skip a manifest it could not verify: the manifest it skipped is
    /// still the newest listed, so its stamp would vouch for the wrong
    /// snapshot. Readers pass [`Fallback::Older`], a transaction under its
    /// table lock [`Fallback::Refuse`].
    pub fn pin_snapshot(
        &self,
        dfs: &Dfs,
        info: &TableInfo,
        fallback: Fallback,
    ) -> Result<Option<PinnedSnapshot>> {
        let Some(newest) = list_manifests(dfs, &info.location).into_iter().next() else {
            return Ok(None);
        };
        let holds = |(path, generation): &FileStamp| dfs.generation(path) == Some(*generation);
        let cached = self.pins.lock().get(&info.location).cloned();

        let fresh = cached
            .as_ref()
            .filter(|c| c.manifest.0 == newest && holds(&c.manifest));
        let (manifest, snapshot) = match fresh {
            Some(c) => (Some(c.manifest.clone()), Arc::clone(&c.snapshot)),
            None => match load_snapshot_stamped(dfs, &info.location, fallback)? {
                Some((snap, stamp)) => (stamp, Arc::new(snap)),
                None => return Ok(None),
            },
        };

        // How much of the cached delete set this snapshot can keep: all of
        // it when the stamped files are a prefix of the snapshot's delete
        // list (equal after an INSERT, one short after a DELETE), none
        // otherwise (compaction rewrote the list).
        let reusable = cached.as_ref().filter(|c| {
            c.delete_files.len() <= snapshot.deletes.len()
                && c.delete_files
                    .iter()
                    .zip(&snapshot.deletes)
                    .all(|(stamp, (_, path))| stamp.0 == *path && holds(stamp))
        });
        let (mut delete_files, mut deletes) = match reusable {
            Some(c) => (c.delete_files.clone(), Arc::clone(&c.deletes)),
            None => (Vec::new(), Arc::new(DeleteSet::default())),
        };
        let missing = &snapshot.deletes[delete_files.len()..];
        if !missing.is_empty() {
            delete_files.extend(load_delete_files(
                dfs,
                missing,
                Arc::make_mut(&mut deletes),
            )?);
        }

        let outcome = if fresh.is_some() && missing.is_empty() {
            "acid.snapshot.cache_hits"
        } else {
            if let Some(manifest) = manifest {
                self.pins.lock().insert(
                    info.location.clone(),
                    Arc::new(CachedPin {
                        manifest,
                        snapshot: Arc::clone(&snapshot),
                        delete_files,
                        deletes: Arc::clone(&deletes),
                    }),
                );
            }
            "acid.snapshot.loads"
        };
        self.metrics
            .counter_with(outcome, &[("table", &info.name)])
            .inc();
        Ok(Some(PinnedSnapshot { snapshot, deletes }))
    }

    /// The planner's view of the ACID table `info` at `pinned`: the
    /// manifest, not the directory listing, decides which files a reader
    /// sees, and every job a plan produces scans exactly these files with
    /// exactly this delete mask, whatever commits land meanwhile.
    pub fn table_meta(&self, info: &TableInfo, pinned: &PinnedSnapshot) -> TableMeta {
        let PinnedSnapshot { snapshot, deletes } = pinned;
        let paths = snapshot.scan_paths();
        let size_bytes = paths.iter().map(|p| self.dfs.len(p).unwrap_or(0)).sum();
        // A base-only, delete-free snapshot (fresh after a major
        // compaction) needs no merge-on-read: scans of it get the full
        // vectorized + SARG path back, same as a plain table.
        let acid = (!snapshot.deltas.is_empty() || !deletes.is_empty()).then(|| AcidOverlay {
            snapshot_gen: snapshot.version,
            delta_paths: snapshot.deltas.iter().map(|(_, p)| p.clone()).collect(),
            deletes: Arc::clone(deletes),
        });
        TableMeta {
            name: info.name.clone(),
            schema: info.schema.clone(),
            format: info.format,
            paths,
            size_bytes,
            acid,
        }
    }
}

impl Catalog for Metastore {
    /// Read from the files' footers, through the process-wide metadata
    /// cache (which a scan of the table fills, DESIGN.md §21) when the
    /// statement's `cache_metadata` allows it. An ACID
    /// overlay, a file without the flag or with a NULL in the column, and
    /// files whose value ranges overlap or come out of order all say no;
    /// so does a footer that cannot be read.
    fn order(&self, table: &TableMeta, column: usize, cache_metadata: bool) -> Option<usize> {
        if table.format != FormatKind::Orc || table.acid.is_some() || table.paths.is_empty() {
            return None;
        }
        let mut last_max: Option<hive_common::Value> = None;
        for path in &table.paths {
            let opts = OrcReadOptions {
                cache_metadata,
                ..Default::default()
            };
            let file = OrcReader::open(&self.dfs, path, opts).ok()?;
            let stats = file.file_stats(column)?;
            if !file.is_ordered(column) || stats.has_null() {
                return None;
            }
            if stats.count() == 0 {
                continue;
            }
            let (min, max) = (stats.min_value()?, stats.max_value()?);
            if last_max.is_some_and(|last| key::cmp_value(&last, &min).is_ge()) {
                return None;
            }
            last_max = Some(max);
        }
        Some(table.paths.len())
    }

    fn table(&self, name: &str) -> Result<Option<TableMeta>> {
        let Some(info) = self.get(name) else {
            return Ok(None);
        };
        // The second pin attempt rides out a first-touch injected read
        // fault, same as a task retry would.
        let pin = || self.pin_snapshot(&self.dfs, &info, Fallback::Older);
        if let Some(pinned) = pin().or_else(|_| pin())? {
            return Ok(Some(self.table_meta(&info, &pinned)));
        }
        Ok(Some(TableMeta {
            name: info.name.clone(),
            schema: info.schema.clone(),
            format: info.format,
            // No manifest yet: plain table. ACID-prefixed names (orphans
            // of a crashed first transaction) stay invisible regardless.
            paths: self
                .dfs
                .list(&info.location)
                .into_iter()
                .filter(|p| !is_acid_path(p))
                .collect(),
            size_bytes: self.dfs.size_of(&info.location),
            acid: None,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_get_drop() {
        let dfs = Dfs::with_defaults();
        let ms = Metastore::new(dfs.clone(), MetricsRegistry::new());
        let schema = Schema::parse(&[("a", "bigint")]).unwrap();
        ms.create_table("T1", schema.clone(), FormatKind::Orc)
            .unwrap();
        assert!(ms.create_table("t1", schema, FormatKind::Orc).is_err());
        assert!(ms.get("T1").is_some());
        assert_eq!(ms.list_tables(), vec!["t1"]);

        let mut w = dfs.create("/warehouse/t1/part-0");
        w.write(&[0u8; 100]);
        w.try_close().unwrap();
        assert_eq!(ms.table_size("t1"), 100);
        assert_eq!(ms.table_files("t1").len(), 1);

        assert!(ms.drop_table("t1"));
        assert!(ms.get("t1").is_none());
        assert!(!dfs.exists("/warehouse/t1/part-0"));
    }

    #[test]
    fn catalog_view() {
        let dfs = Dfs::with_defaults();
        let ms = Metastore::new(dfs, MetricsRegistry::new());
        ms.create_table(
            "x",
            Schema::parse(&[("a", "bigint")]).unwrap(),
            FormatKind::Text,
        )
        .unwrap();
        let meta = Catalog::table(&ms, "X").unwrap().unwrap();
        assert_eq!(meta.name, "x");
        assert_eq!(meta.format, FormatKind::Text);
    }
}
