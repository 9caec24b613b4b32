//! ACID delta-store support: snapshot manifests, delete files, and the
//! merge-on-read overlay (paper Section 7 outlook; modern Hive ACID).
//!
//! An ACID table directory holds immutable **base** files, **delta** files
//! (inserted rows, written in the table's own format so the scan layer
//! reads them like any other input), **delete** files (keys of rows masked
//! out, `(file path, row ordinal)`), and a chain of `_manifest_<N>` files.
//! The manifest is the *only* source of truth: a file not listed by the
//! current manifest does not exist as far as readers are concerned, which
//! is what makes crash recovery trivial — orphans from a died writer are
//! invisible garbage, never partial state.
//!
//! Every manifest carries its own CRC32 trailer. A reader skips one that
//! fails it, so the newest *valid* manifest defines the snapshot it sees;
//! a writer refuses to build on anything but the newest listed one
//! ([`Fallback`]). Publishing a manifest via atomic rename is therefore
//! the commit point of every transaction.

use crate::TableReader;
use hive_common::key;
use hive_common::{DataType, HiveError, Result, Row, Value};
use hive_dfs::{crc, Dfs};
use hive_vector::{ColumnVector, VectorizedRowBatch};
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Basename prefix of snapshot manifests: `_manifest_<version>`.
pub const MANIFEST_PREFIX: &str = "_manifest_";
/// Basename prefix of insert-delta files: `delta_<txn>`.
pub const DELTA_PREFIX: &str = "delta_";
/// Basename prefix of delete files: `delete_<txn>`.
pub const DELETE_PREFIX: &str = "delete_";
/// Basename prefix of compaction-written base files: `base_<txn>`. Original
/// (pre-ACID) base files keep whatever name they were loaded under.
pub const BASE_PREFIX: &str = "base_";

/// Whether a path's basename is ACID bookkeeping (manifest, delta, or
/// delete file) rather than plain base data. Raw directory listings must
/// exclude these: their visibility is decided by the manifest alone.
pub fn is_acid_path(path: &str) -> bool {
    let base = path.rsplit('/').next().unwrap_or(path);
    base.starts_with(MANIFEST_PREFIX)
        || base.starts_with(DELTA_PREFIX)
        || base.starts_with(DELETE_PREFIX)
        || base.starts_with(BASE_PREFIX)
}

/// One committed snapshot of an ACID table — the decoded `_manifest_<N>`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableSnapshot {
    /// Manifest version `N`; doubles as the table's snapshot generation.
    pub version: u64,
    /// Highest transaction id any listed file belongs to. Recovery deletes
    /// orphan delta/delete files with a txn beyond this.
    pub last_txn: u64,
    /// Base files, in scan order.
    pub base: Vec<String>,
    /// Insert deltas as `(txn, path)`, in commit order.
    pub deltas: Vec<(u64, String)>,
    /// Delete files as `(txn, path)`, in commit order.
    pub deletes: Vec<(u64, String)>,
}

impl TableSnapshot {
    /// An empty (pre-ACID) snapshot over existing base files.
    pub fn initial(base: Vec<String>) -> TableSnapshot {
        TableSnapshot {
            version: 0,
            last_txn: 0,
            base,
            deltas: Vec::new(),
            deletes: Vec::new(),
        }
    }

    /// Every file a reader of this snapshot scans: base files then deltas,
    /// in commit order (insert deltas append after base rows).
    pub fn scan_paths(&self) -> Vec<String> {
        let mut out = self.base.clone();
        out.extend(self.deltas.iter().map(|(_, p)| p.clone()));
        out
    }

    /// Serialize with a CRC32 trailer so torn manifests are detectable.
    pub fn encode(&self) -> Vec<u8> {
        let mut body = String::new();
        body.push_str("hivemanifest v1\n");
        body.push_str(&format!("version {}\n", self.version));
        body.push_str(&format!("txn {}\n", self.last_txn));
        for p in &self.base {
            body.push_str(&format!("base {p}\n"));
        }
        for (txn, p) in &self.deltas {
            body.push_str(&format!("delta {txn} {p}\n"));
        }
        for (txn, p) in &self.deletes {
            body.push_str(&format!("delete {txn} {p}\n"));
        }
        let crc = crc::crc32(body.as_bytes());
        body.push_str(&format!("crc {crc:08x}\n"));
        body.into_bytes()
    }

    /// Parse and CRC-verify a manifest image. Any mismatch — truncated
    /// file, missing trailer, flipped byte — is a `Format` error; callers
    /// treat such a manifest as never committed.
    pub fn decode(bytes: &[u8]) -> Result<TableSnapshot> {
        let text = std::str::from_utf8(bytes)
            .map_err(|_| HiveError::Format("manifest is not utf-8".into()))?;
        if !text.ends_with('\n') {
            return Err(HiveError::Format("manifest truncated".into()));
        }
        let Some(crc_line_start) = text.trim_end_matches('\n').rfind('\n') else {
            return Err(HiveError::Format("manifest truncated".into()));
        };
        let (body, trailer) = text.split_at(crc_line_start + 1);
        let trailer = trailer.trim_end();
        let Some(stated) = trailer.strip_prefix("crc ") else {
            return Err(HiveError::Format("manifest missing crc trailer".into()));
        };
        let stated = u32::from_str_radix(stated, 16)
            .map_err(|_| HiveError::Format("manifest crc trailer malformed".into()))?;
        let actual = crc::crc32(body.as_bytes());
        if stated != actual {
            return Err(HiveError::Format(format!(
                "manifest crc mismatch (stated {stated:08x}, actual {actual:08x})"
            )));
        }
        let mut lines = body.lines();
        if lines.next() != Some("hivemanifest v1") {
            return Err(HiveError::Format("manifest bad magic".into()));
        }
        let mut snap = TableSnapshot::initial(Vec::new());
        for line in lines {
            let mut parts = line.splitn(2, ' ');
            let (kw, rest) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
            match kw {
                "version" => {
                    snap.version = rest
                        .parse()
                        .map_err(|_| HiveError::Format("manifest bad version".into()))?;
                }
                "txn" => {
                    snap.last_txn = rest
                        .parse()
                        .map_err(|_| HiveError::Format("manifest bad txn".into()))?;
                }
                "base" => snap.base.push(rest.to_string()),
                "delta" | "delete" => {
                    let mut halves = rest.splitn(2, ' ');
                    let txn: u64 = halves
                        .next()
                        .unwrap_or("")
                        .parse()
                        .map_err(|_| HiveError::Format(format!("manifest bad {kw} line")))?;
                    let path = halves
                        .next()
                        .ok_or_else(|| HiveError::Format(format!("manifest bad {kw} line")))?;
                    if kw == "delta" {
                        snap.deltas.push((txn, path.to_string()));
                    } else {
                        snap.deletes.push((txn, path.to_string()));
                    }
                }
                other => {
                    return Err(HiveError::Format(format!(
                        "manifest unknown keyword `{other}`"
                    )));
                }
            }
        }
        Ok(snap)
    }
}

/// The manifest path for version `version` of the table at `location`
/// (trailing `/` included).
pub fn manifest_path(location: &str, version: u64) -> String {
    format!("{location}{MANIFEST_PREFIX}{version:010}")
}

/// Load the snapshot a reader sees under `location` ([`Fallback::Older`]),
/// or `None` when the table has never committed a transaction (non-ACID
/// so far).
pub fn load_snapshot(dfs: &Dfs, location: &str) -> Result<Option<TableSnapshot>> {
    Ok(load_snapshot_stamped(dfs, location, Fallback::Older)?.map(|(snap, _)| snap))
}

/// What a load does with a manifest that still does not verify when read
/// a second time (a checksum failure, or an image that does not decode).
/// The re-read clears a first-touch wire flip; at-rest corruption stays.
/// Only bad *data* counts: any other read failure (a transient fault, say)
/// propagates either way. A table whose listed manifests all fail is
/// `Corrupt` either way, never a manifest-less pre-ACID table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fallback {
    /// Readers: skip it, the next older manifest that verifies governs.
    Older,
    /// Writers: fail `Corrupt`. A writer builds only on the newest listed
    /// manifest — building on an older one would hand recovery a licence
    /// to delete the newest commit's files as orphans.
    Refuse,
}

/// A file as one load saw it: its path and the DFS generation of the bytes
/// that were read. The DFS bumps a path's generation on every publish,
/// rename-over, or tamper, so an unchanged stamp means unchanged bytes.
pub type FileStamp = (String, u64);

/// Manifest paths under `location`, newest version first.
pub fn list_manifests(dfs: &Dfs, location: &str) -> Vec<String> {
    let prefix = format!("{location}{MANIFEST_PREFIX}");
    let mut versions: Vec<(u64, String)> = dfs
        .list(&prefix)
        .into_iter()
        .filter_map(|p| {
            p.strip_prefix(&prefix)
                .and_then(|s| s.parse::<u64>().ok())
                .map(|v| (v, p))
        })
        .collect();
    versions.sort_unstable_by_key(|v| std::cmp::Reverse(v.0));
    versions.into_iter().map(|(_, p)| p).collect()
}

/// The snapshot of the newest manifest that verifies, within what
/// `fallback` allows, plus the governing manifest's stamp when that
/// manifest is the newest one listed. Only then is the snapshot a function
/// of that one file, reusable for as long as the head of
/// [`list_manifests`] carries the same stamp; after a skip the stamp is
/// `None`, because the skipped manifest may read fine next time.
pub fn load_snapshot_stamped(
    dfs: &Dfs,
    location: &str,
    fallback: Fallback,
) -> Result<Option<(TableSnapshot, Option<FileStamp>)>> {
    let manifests = list_manifests(dfs, location);
    for (skipped, path) in manifests.iter().enumerate() {
        match read_manifest(dfs, path) {
            Ok((snap, generation)) => {
                return Ok(Some((
                    snap,
                    (skipped == 0).then(|| (path.clone(), generation)),
                )))
            }
            Err(e) if e.is_data_corruption() && fallback == Fallback::Older => continue,
            Err(e) => return Err(e),
        }
    }
    if manifests.is_empty() {
        return Ok(None);
    }
    Err(HiveError::Corrupt(format!(
        "no manifest under `{location}` verifies"
    )))
}

/// Read and decode one manifest, reading it once more if the first image
/// does not verify. A failure to verify twice is `Corrupt`.
fn read_manifest(dfs: &Dfs, path: &str) -> Result<(TableSnapshot, u64)> {
    let attempt = || -> Result<(TableSnapshot, u64)> {
        let mut reader = dfs.open(path, None)?;
        let generation = reader.generation();
        Ok((TableSnapshot::decode(&reader.read_all()?)?, generation))
    };
    match attempt() {
        Err(e) if e.is_data_corruption() => attempt().map_err(|e| {
            if e.is_data_corruption() {
                HiveError::Corrupt(format!("manifest `{path}` does not verify: {e}"))
            } else {
                e
            }
        }),
        loaded => loaded,
    }
}

/// The key of one masked-out row: the file that holds it and the row's
/// ordinal within that file (0-based, in the file's physical row order —
/// stable because base and delta files are immutable).
pub type DeleteKey = (String, u64);

/// The columns every table scan offers beyond its table's own, hidden from
/// `*`: the file a row was read from and the row's physical ordinal in it —
/// together, the row's [`DeleteKey`]. A scan projection names
/// `VIRTUAL_COLUMNS[k]` as column `schema.len() + k`.
pub const VIRTUAL_COLUMNS: [(&str, DataType); 2] = [
    ("INPUT__FILE__NAME", DataType::String),
    ("ROW__ID", DataType::Int),
];

/// Split a scan projection over a table `width` columns wide into the
/// columns its reader decodes and the virtual columns (indexes into
/// [`VIRTUAL_COLUMNS`]) the scan appends to each row after them. Planned
/// projections are ascending, so the virtual columns trail them.
pub fn split_projection(
    projection: Option<&[usize]>,
    width: usize,
) -> (Option<Vec<usize>>, Vec<usize>) {
    let Some(projection) = projection else {
        return (None, Vec::new());
    };
    let (read, virtuals): (Vec<usize>, Vec<usize>) = projection.iter().partition(|&&c| c < width);
    (Some(read), virtuals.iter().map(|c| c - width).collect())
}

/// Serialize one delete file's keys with a CRC trailer.
pub fn encode_delete_file(keys: &[DeleteKey]) -> Vec<u8> {
    let mut body = String::from("hivedelete v1\n");
    for (path, ordinal) in keys {
        body.push_str(&format!("{ordinal}\t{path}\n"));
    }
    let crc = crc::crc32(body.as_bytes());
    body.push_str(&format!("crc {crc:08x}\n"));
    body.into_bytes()
}

/// Parse and CRC-verify one delete file.
pub fn decode_delete_file(bytes: &[u8]) -> Result<Vec<DeleteKey>> {
    let text = std::str::from_utf8(bytes)
        .map_err(|_| HiveError::Format("delete file is not utf-8".into()))?;
    if !text.ends_with('\n') {
        return Err(HiveError::Format("delete file truncated".into()));
    }
    let Some(crc_line_start) = text.trim_end_matches('\n').rfind('\n') else {
        return Err(HiveError::Format("delete file truncated".into()));
    };
    let (body, trailer) = text.split_at(crc_line_start + 1);
    let stated = trailer
        .trim_end()
        .strip_prefix("crc ")
        .and_then(|s| u32::from_str_radix(s, 16).ok())
        .ok_or_else(|| HiveError::Format("delete file missing crc trailer".into()))?;
    if stated != crc::crc32(body.as_bytes()) {
        return Err(HiveError::Format("delete file crc mismatch".into()));
    }
    let mut lines = body.lines();
    if lines.next() != Some("hivedelete v1") {
        return Err(HiveError::Format("delete file bad magic".into()));
    }
    lines
        .map(|line| {
            let mut halves = line.splitn(2, '\t');
            let ordinal: u64 = halves
                .next()
                .unwrap_or("")
                .parse()
                .map_err(|_| HiveError::Format("delete file bad ordinal".into()))?;
            let path = halves
                .next()
                .ok_or_else(|| HiveError::Format("delete file bad line".into()))?;
            Ok((path.to_string(), ordinal))
        })
        .collect()
}

/// The union of a snapshot's delete files: which `(path, ordinal)` rows
/// the merge-on-read scan must mask. Indexed by path — one sorted,
/// deduplicated ordinal list per data file — so a scan resolves its file's
/// slice once (when its [`LiveReader`] opens) and every probe after that is
/// a binary search over plain `u64`s.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct DeleteSet {
    /// No entry is empty: a path appears once it has a masked row.
    by_path: BTreeMap<String, Vec<u64>>,
}

impl DeleteSet {
    /// Masked ordinals of `path`, ascending; empty for an unmasked file.
    pub(crate) fn for_path(&self, path: &str) -> &[u64] {
        self.by_path.get(path).map_or(&[], Vec::as_slice)
    }

    pub fn contains(&self, path: &str, ordinal: u64) -> bool {
        self.for_path(path).binary_search(&ordinal).is_ok()
    }

    pub fn len(&self) -> usize {
        self.by_path.values().map(Vec::len).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.by_path.is_empty()
    }

    /// Every key, ordered by path then ordinal.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.by_path
            .iter()
            .flat_map(|(path, ords)| ords.iter().map(move |&o| (path.as_str(), o)))
    }
}

impl Extend<DeleteKey> for DeleteSet {
    /// Union `keys` in. Only the ordinal lists of the paths `keys` names
    /// are re-sorted, so folding one more delete file into a copy of the
    /// set costs that file's keys, not the whole set's.
    fn extend<I: IntoIterator<Item = DeleteKey>>(&mut self, keys: I) {
        let mut added: BTreeMap<String, Vec<u64>> = BTreeMap::new();
        for (path, ordinal) in keys {
            added.entry(path).or_default().push(ordinal);
        }
        for (path, mut ords) in added {
            let list = self.by_path.entry(path).or_default();
            list.append(&mut ords);
            list.sort_unstable();
            list.dedup();
        }
    }
}

impl FromIterator<DeleteKey> for DeleteSet {
    fn from_iter<I: IntoIterator<Item = DeleteKey>>(keys: I) -> DeleteSet {
        let mut set = DeleteSet::default();
        set.extend(keys);
        set
    }
}

/// The part of an ascending ordinal list inside `[start, start + len)`:
/// one ranged probe per batch run keeps selected[]-level masking
/// O(log n + hits) instead of O(batch size) point lookups.
pub(crate) fn ordinals_in(ordinals: &[u64], start: u64, len: u64) -> &[u64] {
    let end = start.saturating_add(len);
    let lo = ordinals.partition_point(|&o| o < start);
    let hi = lo + ordinals[lo..].partition_point(|&o| o < end);
    &ordinals[lo..hi]
}

/// The merge-on-read cursor: one file's reader with that file's delete
/// mask applied, so a deleted row never escapes it. Queries (batch and row
/// mode, DML's and compactions' included) and map-join side loads all read
/// through this type and nothing else consults a [`DeleteSet`].
///
/// **Ordinal contract.** A delete key addresses a row by its *physical*
/// position in its file, masked rows included. Readers that skip data
/// (ORC: splits, predicate pushdown, corrupt-data salvage) report true
/// ordinals via [`TableReader::last_row_ordinal`] /
/// [`TableReader::batch_ordinal_runs`]; for readers that track none, this
/// cursor counts rows sequentially — correct only for a whole-file scan,
/// which is why such formats are never split under an overlay, nor when a
/// scan reads the ordinal as `ROW__ID` ([`VIRTUAL_COLUMNS`]).
pub struct LiveReader<'a> {
    reader: Box<dyn TableReader + 'a>,
    /// Masked ordinals of the file, ascending. Empty: a pass-through.
    masked: &'a [u64],
    /// The sequential fallback clock: physical rows returned so far.
    seq_ord: u64,
    rows_masked: u64,
    /// Per-batch scratch: physical batch indexes to unselect.
    drop: Vec<usize>,
    /// The virtual columns produced after the reader's, if any.
    virtuals: Option<Virtuals>,
    /// The keys this cursor's task owns, in a file stored in key order.
    range: Option<KeyRange>,
    /// Set once a key past the range's top was read: every later row is
    /// past it too.
    past_range: bool,
}

/// The keys a map task owns in a file stored in key order: those in
/// `(lo, hi]`, an absent bound being open. A task reads whole stripes and
/// skips their leading rows equal to `lo`, which the task before it owns,
/// and reads on into the next stripes while the key equals `hi` — the
/// Hadoop line reader's rule for a line across a split boundary, applied to
/// keys. A NULL key sorts first, so only the file's first task owns one.
#[derive(Debug, Clone, PartialEq)]
pub struct KeyRange {
    /// The reader's output column holding the key.
    pub column: usize,
    pub lo: Option<Value>,
    pub hi: Option<Value>,
}

impl KeyRange {
    /// Where a key stands to the range: `Less` below or at `lo`, `Equal`
    /// inside, `Greater` above `hi`.
    fn place(&self, mut cmp: impl FnMut(&Value) -> Ordering) -> Ordering {
        if self.lo.as_ref().is_some_and(|lo| cmp(lo).is_le()) {
            Ordering::Less
        } else if self.hi.as_ref().is_some_and(|hi| cmp(hi).is_gt()) {
            Ordering::Greater
        } else {
            Ordering::Equal
        }
    }

    fn place_value(&self, v: &Value) -> Ordering {
        self.place(|bound| key::cmp_value(v, bound))
    }

    /// Row `i` of `column` against `bound`, by its lane.
    fn place_cell(&self, column: &ColumnVector, i: usize) -> Result<Ordering> {
        if column.is_null(i) {
            return Ok(self.place_value(&Value::Null));
        }
        let mut mismatch = false;
        let place = self.place(|bound| match (column, bound) {
            (ColumnVector::Long(v), Value::Int(b) | Value::Timestamp(b)) => v.value(i).cmp(b),
            (ColumnVector::Long(v), Value::Boolean(b)) => v.value(i).cmp(&(*b as i64)),
            (ColumnVector::Double(v), Value::Double(_)) => {
                key::cmp_value(&Value::Double(v.value(i)), bound)
            }
            (ColumnVector::Bytes(v), Value::String(b)) => v.value(i).cmp(b.as_bytes()),
            _ => {
                mismatch = true;
                Ordering::Equal
            }
        });
        if mismatch {
            return Err(HiveError::Execution(
                "a key range's bound and its column differ in type".into(),
            ));
        }
        Ok(place)
    }
}

/// Which [`VIRTUAL_COLUMNS`] a [`LiveReader`] produces, and for which file.
struct Virtuals {
    path: String,
    /// Batch column of the first one: the reader's own fill those before.
    first: usize,
    columns: Vec<usize>,
}

impl Virtuals {
    fn value(&self, k: usize, ordinal: u64) -> Value {
        match k {
            0 => Value::String(self.path.clone()),
            _ => Value::Int(ordinal as i64),
        }
    }

    /// Fill the virtual columns of a batch's physical rows, which `runs`
    /// number.
    fn fill(&self, batch: &mut VectorizedRowBatch, runs: &[(u64, u64)]) -> Result<()> {
        for (j, &k) in self.columns.iter().enumerate() {
            let column = &mut batch.columns[self.first + j];
            if k == 0 {
                let names = column.as_bytes_mut()?;
                names.set(0, self.path.as_bytes());
                names.is_repeating = true;
                continue;
            }
            let ids = &mut column.as_long_mut()?.vector;
            let ordinals = runs.iter().flat_map(|&(start, len)| start..start + len);
            for (id, ordinal) in ids.iter_mut().zip(ordinals) {
                *id = ordinal as i64;
            }
        }
        Ok(())
    }
}

impl<'a> LiveReader<'a> {
    /// Wrap `reader`, masking the rows `mask`'s set records for its path;
    /// `None` (a plain table, or an overlay-free snapshot) masks nothing.
    pub fn new(
        reader: Box<dyn TableReader + 'a>,
        mask: Option<(&'a DeleteSet, &str)>,
    ) -> LiveReader<'a> {
        LiveReader {
            reader,
            masked: mask.map_or(&[], |(set, path)| set.for_path(path)),
            seq_ord: 0,
            rows_masked: 0,
            drop: Vec::new(),
            virtuals: None,
            range: None,
            past_range: false,
        }
    }

    /// Return only the rows whose key `range` owns, and stop at the first
    /// key past it.
    pub fn with_key_range(mut self, range: Option<KeyRange>) -> Self {
        self.range = range;
        self
    }

    /// Also produce the virtual `columns` (indexes into
    /// [`VIRTUAL_COLUMNS`]) of `path`'s rows after the reader's `width`
    /// columns: appended to every row, filled into the batch columns that
    /// follow the reader's.
    pub fn with_virtual(mut self, path: &str, width: usize, columns: Vec<usize>) -> Self {
        self.virtuals = (!columns.is_empty()).then(|| Virtuals {
            path: path.to_string(),
            first: width,
            columns,
        });
        self
    }

    /// The next live row and its physical ordinal in the file.
    pub fn next_row(&mut self) -> Result<Option<(u64, Row)>> {
        if self.past_range {
            return Ok(None);
        }
        while let Some(mut row) = self.reader.next_row()? {
            let ord = self.reader.last_row_ordinal().unwrap_or(self.seq_ord);
            self.seq_ord += 1;
            if let Some(range) = &self.range {
                match range.place_value(row.get(range.column)) {
                    Ordering::Less => continue,
                    Ordering::Greater => {
                        self.past_range = true;
                        return Ok(None);
                    }
                    Ordering::Equal => {}
                }
            }
            if self.masked.binary_search(&ord).is_ok() {
                self.rows_masked += 1;
                continue;
            }
            if let Some(v) = &self.virtuals {
                let values = v.columns.iter().map(|&k| v.value(k, ord));
                row.values_mut().extend(values);
            }
            return Ok(Some((ord, row)));
        }
        Ok(None)
    }

    /// Fill `batch` from the reader and unselect its masked rows and those
    /// outside the key range, which stay in the column buffers but are
    /// never visited downstream. Returns the reader's answer, so a batch
    /// whose every row was masked comes back empty with `true` (`false`
    /// once the range is passed).
    pub fn next_batch(&mut self, batch: &mut VectorizedRowBatch) -> Result<bool> {
        if self.past_range {
            batch.reset();
            return Ok(false);
        }
        let more = self.next_masked_batch(batch)?;
        Ok(more && !self.apply_range(batch)?)
    }

    /// [`next_batch`](Self::next_batch) before the key range: the
    /// reader's batch, its virtual columns filled and its masked rows
    /// unselected.
    fn next_masked_batch(&mut self, batch: &mut VectorizedRowBatch) -> Result<bool> {
        let more = self.reader.next_batch(batch)?;
        let sequential = [(self.seq_ord, batch.size as u64)];
        self.seq_ord += batch.size as u64;
        if batch.size == 0 || (self.masked.is_empty() && self.virtuals.is_none()) {
            return Ok(more);
        }
        let runs = self.reader.batch_ordinal_runs().unwrap_or(&sequential);
        debug_assert_eq!(
            runs.iter().map(|r| r.1).sum::<u64>(),
            batch.size as u64,
            "ordinal runs must cover the whole batch"
        );
        if let Some(v) = &self.virtuals {
            v.fill(batch, runs)?;
        }
        self.drop.clear();
        let mut base = 0usize;
        for &(start, len) in runs {
            self.drop.extend(
                ordinals_in(self.masked, start, len)
                    .iter()
                    .map(|ord| base + (ord - start) as usize),
            );
            base += len as usize;
        }
        self.rows_masked += self.drop.len() as u64;
        batch.unselect_rows(&self.drop);
        Ok(more)
    }

    /// Unselect the batch's rows outside the key range; `true` once a key
    /// past its top was read.
    fn apply_range(&mut self, batch: &mut VectorizedRowBatch) -> Result<bool> {
        let Some(range) = &self.range else {
            return Ok(false);
        };
        if batch.size == 0 {
            return Ok(false);
        }
        batch.materialize(&[range.column]);
        let column = &batch.columns[range.column];
        self.drop.clear();
        for i in batch.iter_selected() {
            match range.place_cell(column, i)? {
                Ordering::Equal => {}
                Ordering::Greater => {
                    self.past_range = true;
                    self.drop.push(i);
                }
                Ordering::Less => self.drop.push(i),
            }
        }
        self.drop.sort_unstable();
        batch.unselect_rows(&self.drop);
        Ok(self.past_range)
    }

    /// See [`TableReader::defer_all_but`]. Unselecting masked rows touches no
    /// column, so a deferred batch passes through this cursor unchanged.
    pub fn defer_all_but(&mut self, first: &[usize]) {
        self.reader.defer_all_but(first);
    }

    /// Rows the mask has dropped so far.
    pub fn rows_masked(&self) -> u64 {
        self.rows_masked
    }

    /// The wrapped reader, for its read-side statistics.
    pub fn inner(&self) -> &dyn TableReader {
        self.reader.as_ref()
    }
}

/// Read and CRC-verify the delete files `files` names, folding their keys
/// into `set`. Returns each file's stamp, in order.
pub fn load_delete_files(
    dfs: &Dfs,
    files: &[(u64, String)],
    set: &mut DeleteSet,
) -> Result<Vec<FileStamp>> {
    let mut stamps = Vec::with_capacity(files.len());
    for (_, path) in files {
        let mut reader = dfs.open(path, None)?;
        let generation = reader.generation();
        set.extend(decode_delete_file(&reader.read_all()?)?);
        stamps.push((path.clone(), generation));
    }
    Ok(stamps)
}

/// The merge-on-read overlay a planner attaches to an ACID table's scan:
/// which snapshot the statement pinned, which of its paths are deltas, and
/// which rows are masked out. Delete keys address rows by skip-aware file
/// ordinal, which readers that support data skipping (ORC) report per row
/// or per batch run — so predicate pushdown and block-range splits stay
/// enabled under an overlay. Formats without ordinal tracking are scanned
/// whole-file so sequential counting still lines up.
#[derive(Debug, Clone)]
pub struct AcidOverlay {
    /// Manifest version pinned at plan time.
    pub snapshot_gen: u64,
    /// Paths (among the input's paths) that are insert deltas.
    pub delta_paths: Vec<String>,
    /// Rows masked out of base and delta files.
    pub deletes: Arc<DeleteSet>,
}

impl AcidOverlay {
    pub fn is_delta(&self, path: &str) -> bool {
        self.delta_paths.iter().any(|p| p == path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hive_dfs::DfsConfig;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    fn fs() -> Dfs {
        Dfs::new(DfsConfig {
            block_size: 1 << 20,
            replication: 1,
            nodes: 2,
        })
    }

    fn snap() -> TableSnapshot {
        TableSnapshot {
            version: 3,
            last_txn: 7,
            base: vec!["/w/t/part-00000".into()],
            deltas: vec![(5, "/w/t/delta_5".into()), (7, "/w/t/delta_7".into())],
            deletes: vec![(6, "/w/t/delete_6".into())],
        }
    }

    #[test]
    fn manifest_round_trips() {
        let s = snap();
        assert_eq!(TableSnapshot::decode(&s.encode()).unwrap(), s);
        assert_eq!(
            s.scan_paths(),
            vec!["/w/t/part-00000", "/w/t/delta_5", "/w/t/delta_7"]
        );
    }

    #[test]
    fn torn_manifest_fails_its_crc() {
        let bytes = snap().encode();
        // Any strict prefix (a torn write) must fail to decode.
        for cut in [0, 1, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                TableSnapshot::decode(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
        // A flipped byte fails too.
        let mut flipped = bytes.clone();
        flipped[20] ^= 0x40;
        assert!(TableSnapshot::decode(&flipped).is_err());
    }

    #[test]
    fn newest_valid_manifest_wins_torn_ones_are_skipped() {
        let dfs = fs();
        let mut old = snap();
        old.version = 1;
        let mut w = dfs.create(&manifest_path("/w/t/", 1));
        w.write(&old.encode());
        w.try_close().unwrap();
        // Manifest 2 committed fully.
        let mut cur = snap();
        cur.version = 2;
        let mut w = dfs.create(&manifest_path("/w/t/", 2));
        w.write(&cur.encode());
        w.try_close().unwrap();
        // Manifest 3 is torn: a prefix of its bytes.
        let mut newer = snap();
        newer.version = 3;
        let bytes = newer.encode();
        let mut w = dfs.create(&manifest_path("/w/t/", 3));
        w.write(&bytes[..bytes.len() / 2]);
        w.try_close().unwrap();

        let loaded = load_snapshot(&dfs, "/w/t/").unwrap().unwrap();
        assert_eq!(loaded.version, 2, "torn manifest 3 must be invisible");
        assert!(load_snapshot(&dfs, "/w/empty/").unwrap().is_none());

        // A walk that skipped a manifest vouches for nothing; one whose
        // newest listed manifest governs is stamped with that file.
        let (_, stamp) = load_snapshot_stamped(&dfs, "/w/t/", Fallback::Older)
            .unwrap()
            .unwrap();
        assert_eq!(stamp, None);
        // A writer never builds on anything but the newest listed manifest.
        let err = load_snapshot_stamped(&dfs, "/w/t/", Fallback::Refuse).unwrap_err();
        assert!(matches!(err, HiveError::Corrupt(_)), "{err}");
        dfs.delete(&manifest_path("/w/t/", 3));
        for fallback in [Fallback::Older, Fallback::Refuse] {
            let (snap2, stamp) = load_snapshot_stamped(&dfs, "/w/t/", fallback)
                .unwrap()
                .unwrap();
            let newest = manifest_path("/w/t/", 2);
            assert_eq!(snap2.version, 2);
            assert_eq!(list_manifests(&dfs, "/w/t/")[0], newest);
            let generation = dfs.generation(&newest).unwrap();
            assert_eq!(stamp, Some((newest, generation)));
        }

        // Manifests listed but none verifies: corrupt, not a plain table.
        dfs.corrupt_stored(&manifest_path("/w/t/", 2), 20, 0x40)
            .unwrap();
        dfs.corrupt_stored(&manifest_path("/w/t/", 1), 20, 0x40)
            .unwrap();
        let err = load_snapshot(&dfs, "/w/t/").unwrap_err();
        assert!(matches!(err, HiveError::Corrupt(_)), "{err}");
    }

    #[test]
    fn delete_file_round_trips_and_unions() {
        let keys = vec![
            ("/w/t/part-00000".to_string(), 4u64),
            ("/w/t/delta_5".to_string(), 0u64),
        ];
        let decoded = decode_delete_file(&encode_delete_file(&keys)).unwrap();
        assert_eq!(decoded, keys);
        assert!(decode_delete_file(b"hivedelete v1\n").is_err());

        let dfs = fs();
        let mut w = dfs.create("/w/t/delete_6");
        w.write(&encode_delete_file(&keys));
        w.try_close().unwrap();
        let mut set = DeleteSet::default();
        let stamps = load_delete_files(&dfs, &snap().deletes, &mut set).unwrap();
        assert_eq!(
            stamps,
            vec![(
                "/w/t/delete_6".to_string(),
                dfs.generation("/w/t/delete_6").unwrap()
            )]
        );
        assert_eq!(set.len(), 2);
        assert!(set.contains("/w/t/part-00000", 4));
        assert!(!set.contains("/w/t/part-00000", 5));
    }

    #[test]
    fn acid_paths_are_recognized() {
        assert!(is_acid_path("/w/t/_manifest_0000000001"));
        assert!(is_acid_path("/w/t/delta_00005"));
        assert!(is_acid_path("/w/t/delete_00006"));
        assert!(is_acid_path("/w/t/base_0000000003"));
        assert!(!is_acid_path("/w/t/part-00000"));
    }

    // The path-indexed set against the representation it replaced (a
    // `BTreeSet<(String, u64)>`), and the delete-file image pinned byte for
    // byte. These cases probe the crate-private slice API (`for_path`,
    // `ordinals_in`) that only `LiveReader` may use, so they live here.

    const PATHS: [&str; 4] = [
        "/w/t/part-00000",
        "/w/t/part-00001",
        "/w/t/delta_0000000005",
        "/w/t2/part-00000",
    ];

    /// Ordinals clustered low (so ranges straddle hits and duplicates
    /// occur) with the extremes mixed in.
    fn ordinal() -> BoxedStrategy<u64> {
        prop_oneof![
            6 => 0u64..200,
            1 => Just(u64::MAX),
            1 => Just(u64::MAX - 1),
            1 => any::<u64>(),
        ]
        .boxed()
    }

    fn keys() -> impl Strategy<Value = Vec<DeleteKey>> {
        proptest::collection::vec((0usize..3, ordinal()), 0..300).prop_map(|ks| {
            ks.into_iter()
                .map(|(p, o)| (PATHS[p].to_string(), o))
                .collect()
        })
    }

    /// What `BTreeSet<(String, u64)>::range` answered for one ranged probe.
    fn naive_masked_in(naive: &BTreeSet<DeleteKey>, path: &str, start: u64, len: u64) -> Vec<u64> {
        let lo = (path.to_string(), start);
        let hi = (path.to_string(), start.saturating_add(len));
        naive.range(lo..hi).map(|(_, o)| *o).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn path_indexed_set_agrees_with_a_naive_btreeset(
            first in keys(),
            second in keys(),
            probes in proptest::collection::vec((0usize..4, ordinal(), ordinal()), 1..40),
        ) {
            // Built in two steps, the way the metastore extends a cached set
            // with one more delete file.
            let mut set: DeleteSet = first.iter().cloned().collect();
            set.extend(second.iter().cloned());
            let naive: BTreeSet<DeleteKey> = first.iter().chain(&second).cloned().collect();

            prop_assert_eq!(set.len(), naive.len());
            prop_assert_eq!(set.is_empty(), naive.is_empty());
            let listed: Vec<DeleteKey> = set.iter().map(|(p, o)| (p.to_string(), o)).collect();
            let expected: Vec<DeleteKey> = naive.iter().cloned().collect();
            prop_assert_eq!(listed, expected, "iter order");
            let one_shot: DeleteSet = first.iter().chain(&second).cloned().collect();
            prop_assert_eq!(&one_shot, &set, "extension equals a single build");

            for (p, a, b) in probes {
                // PATHS[3] is never a key: the unmasked-file case.
                let path = PATHS[p];
                prop_assert_eq!(set.contains(path, a), naive.contains(&(path.to_string(), a)));
                // Empty, straddling and saturating ranges.
                for (start, len) in [(a, 0), (a, b), (a.min(b), a.max(b) - a.min(b)), (a, u64::MAX), (0, a)] {
                    prop_assert_eq!(
                        ordinals_in(set.for_path(path), start, len),
                        &naive_masked_in(&naive, path, start, len)[..],
                        "ordinals_in({}, {}, {})", path, start, len);
                }
            }
        }
    }

    proptest! {
        #[test]
        fn delete_files_round_trip(ks in keys()) {
            prop_assert_eq!(decode_delete_file(&encode_delete_file(&ks)).unwrap(), ks);
        }
    }

    /// `body` under a freshly computed CRC trailer, as a writer of hostile
    /// bytes would seal it.
    fn trailered(body: &[u8]) -> Vec<u8> {
        let mut out = body.to_vec();
        out.extend(format!("crc {:08x}\n", crc::crc32(body)).into_bytes());
        out
    }

    /// Every truncation of `image`'s body and three flips of each of its
    /// bytes, each re-sealed with a valid CRC so the parser behind the
    /// checksum sees them: `decode` answers a value or a typed error, never
    /// a panic.
    fn survives_hostile_bodies<T>(image: &[u8], decode: impl Fn(&[u8]) -> Result<T>) {
        let body_len = image[..image.len() - 1]
            .iter()
            .rposition(|&b| b == b'\n')
            .map_or(0, |i| i + 1);
        let body = &image[..body_len];
        assert!(
            decode(&trailered(body)).is_ok(),
            "re-sealing changed the image"
        );
        for cut in 0..body.len() {
            let _ = decode(&trailered(&body[..cut]));
            let _ = decode(&image[..cut]);
        }
        for i in 0..body.len() {
            for flip in [0x01, 0x80, 0xff] {
                let mut bad = body.to_vec();
                bad[i] ^= flip;
                let _ = decode(&trailered(&bad));
            }
        }
    }

    #[test]
    fn hostile_acid_metadata_is_an_error_not_a_panic() {
        let mut big = snap();
        big.version = u64::MAX;
        big.last_txn = u64::MAX - 1;
        for s in [snap(), big, TableSnapshot::initial(Vec::new())] {
            survives_hostile_bodies(&s.encode(), TableSnapshot::decode);
        }
        let keys = vec![
            ("/w/t/part-00000".to_string(), 4u64),
            ("/w/t/delta_0000000005".to_string(), u64::MAX),
        ];
        survives_hostile_bodies(&encode_delete_file(&keys), decode_delete_file);
        survives_hostile_bodies(&encode_delete_file(&[]), decode_delete_file);
    }

    /// The on-disk image of a delete file, as PR 12's parent wrote it:
    /// insertion order kept, duplicates kept, `<ordinal>\t<path>` lines,
    /// CRC32 trailer over everything before it.
    #[test]
    fn delete_file_image_is_pinned() {
        let keys: Vec<DeleteKey> = vec![
            ("/w/t/part-00000".into(), 4),
            ("/w/t/delta_0000000005".into(), 0),
            ("/w/t/part-00000".into(), u64::MAX),
            ("/w/t/part-00000".into(), 4),
        ];
        let golden: &[u8] = b"hivedelete v1\n\
            4\t/w/t/part-00000\n\
            0\t/w/t/delta_0000000005\n\
            18446744073709551615\t/w/t/part-00000\n\
            4\t/w/t/part-00000\n\
            crc f9d28882\n";
        assert_eq!(encode_delete_file(&keys), golden);
        assert_eq!(decode_delete_file(golden).unwrap(), keys);

        let set: DeleteSet = keys.into_iter().collect();
        assert_eq!(set.len(), 3, "the duplicate key collapses");
        assert_eq!(set.for_path("/w/t/part-00000"), &[4, u64::MAX]);
        assert_eq!(set.for_path("/w/t/absent"), &[] as &[u64]);
    }
}
