//! The namespace against a model: random sequences of publishes, renames
//! (some under a lost-ack fault plan), deletes, at-rest flips and sorted-copy
//! adoptions, each followed by a check of every path's `exists`, `len`,
//! listing, `size_of`, generation, bytes (every copy) and sorted slots
//! against a `BTreeMap` of what each path should hold.
//!
//! The model keeps, per copy, the bytes stored and the bytes its checksums
//! were computed over; a read fails with `Corrupt` exactly when a returned
//! byte's 512-byte checksum chunk differs between the two.

use hive_common::{HiveConf, HiveError};
use hive_dfs::{Dfs, DfsConfig, FaultPlan, BYTES_PER_CHECKSUM};
use proptest::collection;
use proptest::prelude::*;
use std::collections::BTreeMap;

const BLOCK: u64 = 700;
const PATHS: [&str; 6] = [
    "/w/t/a",
    "/w/t/b",
    "/w/u/c",
    "/tmp/s/d",
    "/tmp/s/e",
    "/tmp/s/e2",
];

#[derive(Clone, Debug)]
struct ModelCopy {
    stored: Vec<u8>,
    /// What the copy's checksums cover.
    published: Vec<u8>,
    /// Adopted into its slot; `false` for the base and the slots that
    /// alias it.
    sorted: bool,
}

#[derive(Clone, Debug)]
struct File {
    /// Copy 0 is the base; copy `k` is sorted copy `k`.
    copies: Vec<ModelCopy>,
    generation: u64,
}

/// Whether a read of `[offset, end)` of `copy` returns a byte of a checksum
/// chunk whose stored bytes no longer match its checksum.
fn corrupt_in(copy: &ModelCopy, offset: u64, end: u64) -> bool {
    (0..copy.stored.len() as u64)
        .filter(|&p| copy.stored[p as usize] != copy.published[p as usize])
        .any(|p| {
            let block = p / BLOCK * BLOCK;
            let start = p - (p - block) % BYTES_PER_CHECKSUM;
            let stop = (start + BYTES_PER_CHECKSUM)
                .min(block + BLOCK)
                .min(copy.stored.len() as u64);
            offset < stop && end > start
        })
}

fn bumps(path: &str) -> u64 {
    u64::from(!path.starts_with("/tmp/"))
}

/// Read `[offset, offset + len)` of copy `variant` through `fs` and check it
/// against the model copy.
fn check_read(
    fs: &Dfs,
    path: &str,
    variant: usize,
    copy: &ModelCopy,
    offset: u64,
    len: usize,
) -> Result<(), TestCaseError> {
    let mut r = fs.open_variant(path, variant, None).unwrap();
    let total = copy.stored.len() as u64;
    let end = offset.saturating_add(len as u64).min(total);
    match r.read_at(offset, len) {
        Ok(bytes) => {
            prop_assert!(
                !corrupt_in(copy, offset, end),
                "{path}#{variant} [{offset}, {end}) returned a flipped chunk"
            );
            prop_assert_eq!(bytes, &copy.stored[offset as usize..end as usize]);
        }
        Err(HiveError::Corrupt(msg)) => prop_assert!(
            corrupt_in(copy, offset, end),
            "{path}#{variant} [{offset}, {end}) failed on a clean range: {msg}"
        ),
        Err(e) => prop_assert!(false, "{path}#{variant}: unexpected {e:?}"),
    }
    Ok(())
}

/// Every observable fact about the namespace against the model.
fn check_all(fs: &Dfs, model: &BTreeMap<String, File>) -> Result<(), TestCaseError> {
    for path in PATHS {
        let Some(file) = model.get(path) else {
            prop_assert!(!fs.exists(path), "{path} should be gone");
            prop_assert!(fs.len(path).is_err());
            prop_assert!(fs.generation(path).is_none());
            prop_assert!(fs.open(path, None).is_err());
            continue;
        };
        prop_assert!(fs.exists(path), "{path} should exist");
        prop_assert_eq!(fs.len(path).unwrap(), file.copies[0].stored.len() as u64);
        prop_assert_eq!(fs.generation(path), Some(file.generation), "{path}");
        for (k, copy) in file.copies.iter().enumerate() {
            check_read(fs, path, k, copy, 0, copy.stored.len())?;
            if k == 0 {
                let mut r = fs.open(path, None).unwrap();
                match (r.read_all(), corrupt_in(copy, 0, copy.stored.len() as u64)) {
                    (Ok(bytes), false) => prop_assert_eq!(&bytes, &copy.stored),
                    (Err(HiveError::Corrupt(_)), true) => {}
                    (other, corrupt) => {
                        prop_assert!(false, "{path}: read_all {other:?}, corrupt {corrupt}")
                    }
                }
            }
        }
        prop_assert!(fs.open_variant(path, file.copies.len(), None).is_err());
        let sorted: Vec<usize> = (1..file.copies.len())
            .filter(|&k| file.copies[k].sorted)
            .collect();
        prop_assert_eq!(fs.sorted_copies(path), sorted, "{path}");
    }
    for prefix in ["", "/", "/w/", "/w/t/", "/w/t/a", "/tmp/s/e", "/tmp/", "/x"] {
        let under: Vec<(&String, &File)> = model
            .iter()
            .filter(|(p, _)| p.starts_with(prefix))
            .collect();
        let names: Vec<String> = under.iter().map(|(p, _)| (*p).clone()).collect();
        prop_assert_eq!(fs.list(prefix), names, "list({prefix:?})");
        let bytes: u64 = under
            .iter()
            .map(|(_, f)| f.copies[0].stored.len() as u64)
            .sum();
        prop_assert_eq!(fs.size_of(prefix), bytes, "size_of({prefix:?})");
    }
    prop_assert_eq!(fs.is_empty(), model.is_empty());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn namespace_matches_its_model(
        cache in prop_oneof![Just(0u64), Just(1u64 << 20)],
        seed in 0u64..1000,
        ops in collection::vec(
            ((0u8..8, 0usize..PATHS.len()), 0usize..PATHS.len(), 0usize..1600, any::<u64>()),
            1..48,
        ),
    ) {
        let fs = Dfs::new(DfsConfig { block_size: BLOCK, replication: 2, nodes: 4 });
        fs.set_cache_capacity(cache);
        let mut conf = HiveConf::new();
        conf.set("dfs.fault.rename.ack.lost.rate", "0.5");
        conf.set("dfs.fault.seed", seed.to_string());
        let lossy = fs.for_statement(FaultPlan::from_conf(&conf).unwrap(), true);
        let mut model: BTreeMap<String, File> = BTreeMap::new();
        let mut top_gen = 0u64;

        for ((kind, a), b, n, x) in ops {
            let (pa, pb) = (PATHS[a], PATHS[b]);
            // Readers opened before the step keep reading their snapshot
            // through overwrite, rename, delete, tamper and adoption.
            let before: Vec<_> = [pa, pb]
                .iter()
                .filter_map(|p| Some((fs.open(p, None).ok()?, model.get(*p)?.copies[0].clone())))
                .collect();
            let watermark = fs.generation_watermark();
            let mut want_watermark = watermark;
            // Paths whose base copy this step republishes.
            let mut fresh: Vec<&str> = Vec::new();
            match kind {
                0 | 1 => {
                    let data: Vec<u8> = (0..n as u64)
                        .map(|i| (x.wrapping_add(i.wrapping_mul(131)) >> 3) as u8)
                        .collect();
                    let mut w = fs.create(pa);
                    w.write(&data);
                    prop_assert_eq!(w.try_close().unwrap(), n as u64);
                    let copy = ModelCopy { stored: data.clone(), published: data, sorted: false };
                    model.insert(pa.to_string(), File { copies: vec![copy], generation: 0 });
                    want_watermark += bumps(pa);
                    fresh.push(pa);
                }
                2 | 3 => {
                    let via = if kind == 2 { &fs } else { &lossy };
                    let result = via.rename(pa, pb);
                    match model.remove(pa) {
                        Some(mut file) => {
                            // A lost ack still moved the file.
                            match &result {
                                Ok(()) => {}
                                Err(HiveError::Transient(msg)) => {
                                    prop_assert!(kind == 3, "clean rename failed: {msg}");
                                    prop_assert!(msg.contains("ack loss"), "{msg}");
                                }
                                Err(e) => prop_assert!(false, "rename {pa} -> {pb}: {e:?}"),
                            }
                            // Sorted copies do not follow a rename.
                            file.copies.truncate(1);
                            model.insert(pb.to_string(), file);
                            want_watermark += bumps(pa) + bumps(pb);
                            fresh.push(pb);
                        }
                        None => prop_assert!(
                            matches!(result, Err(HiveError::Dfs(_))),
                            "rename of a missing {pa}: {result:?}"
                        ),
                    }
                }
                4 => {
                    let existed = model.remove(pa).is_some();
                    prop_assert_eq!(fs.delete(pa), existed, "delete {pa}");
                    want_watermark += bumps(pa) * u64::from(existed);
                }
                5 => {
                    let pos = x % (n as u64 + 1);
                    let mask = (x >> 8) as u8 | 1;
                    let result = fs.corrupt_stored(pa, pos, mask);
                    match model.get_mut(pa) {
                        Some(file) if pos < file.copies[0].stored.len() as u64 => {
                            prop_assert!(result.is_ok(), "corrupt_stored {pa}@{pos}: {result:?}");
                            // The base, and every slot aliasing it.
                            for copy in file.copies.iter_mut().filter(|c| !c.sorted) {
                                copy.stored[pos as usize] ^= mask;
                            }
                            want_watermark += bumps(pa);
                            fresh.push(pa);
                        }
                        _ => prop_assert!(
                            matches!(result, Err(HiveError::Dfs(_))),
                            "corrupt_stored {pa}@{pos}: {result:?}"
                        ),
                    }
                }
                _ => {
                    // Adopt `pa` as sorted copy `slot` of `pb`. A tampered
                    // staging file is left to the crate's own tests, and so
                    // is a missing destination.
                    let slot = 1 + (x % 3) as usize;
                    let staged = model.get(pa).map(|f| f.copies[0].clone());
                    if a == b || !model.contains_key(pb) {
                        if staged.is_none() {
                            prop_assert!(fs.adopt_variant(pb, pa, slot).is_err());
                        }
                        continue;
                    }
                    let Some(staged) = staged else {
                        prop_assert!(fs.adopt_variant(pb, pa, slot).is_err());
                        continue;
                    };
                    if staged.stored != staged.published {
                        continue;
                    }
                    fs.adopt_variant(pb, pa, slot).unwrap();
                    model.remove(pa);
                    let dest = model.get_mut(pb).unwrap();
                    let alias = dest.copies[0].clone();
                    while dest.copies.len() <= slot {
                        dest.copies.push(alias.clone());
                    }
                    dest.copies[slot] = ModelCopy { sorted: true, ..staged };
                    want_watermark += bumps(pb);
                }
            }
            prop_assert_eq!(
                fs.generation_watermark(),
                want_watermark,
                "watermark after op {kind} on {pa}, {pb}"
            );
            // Generations only increase: a republished path carries one
            // above every generation seen so far.
            for p in fresh {
                let generation = fs.generation(p).unwrap();
                prop_assert!(generation > top_gen, "{p}: generation {generation} <= {top_gen}");
                top_gen = generation;
                model.get_mut(p).unwrap().generation = generation;
            }
            for (mut r, snapshot) in before {
                let total = snapshot.stored.len() as u64;
                match (r.read_all(), corrupt_in(&snapshot, 0, total)) {
                    (Ok(bytes), false) => prop_assert_eq!(&bytes, &snapshot.stored),
                    (Err(HiveError::Corrupt(_)), true) => {}
                    (other, corrupt) => {
                        prop_assert!(false, "stale reader: {other:?}, corrupt {corrupt}")
                    }
                }
            }
            if let Some(file) = model.get(pa) {
                let copy = &file.copies[0];
                let offset = (x >> 16) % (copy.stored.len() as u64 + 1);
                check_read(&fs, pa, 0, copy, offset, n)?;
            }
            check_all(&fs, &model)?;
        }
    }
}
