//! Deterministic fault injection for the simulated DFS.
//!
//! A [`FaultPlan`] decides — purely from `(seed, path, offset)` — whether a
//! read fails with a retryable [`HiveError::Transient`], silently flips a
//! byte on the wire (which the per-chunk CRC32 check then surfaces as
//! [`HiveError::Corrupt`]), or pays extra simulated latency because the
//! serving node is a designated straggler.
//!
//! ## First-touch fault model
//!
//! A given `(path, offset)` location can misbehave only on the *first* read
//! that touches it; every later read of the same location succeeds. This
//! models HDFS failover: after a datanode serves a bad replica, the client
//! pipelines to a healthy one and subsequent reads are clean. It also makes
//! recovery analyzable: the *set* of injected faults depends only on which
//! locations a query reads (deterministic for a given plan + data), never
//! on thread interleaving — whichever attempt reads a location first absorbs
//! its one fault, and retries always see clean bytes. Hence, with retries
//! enabled, a faulted run must produce bit-identical results to a fault-free
//! run whenever it succeeds.
//!
//! Node-targeted faults are the exception: reads from a node listed in
//! `dfs.fault.fail.nodes` *always* fail, so recovery must come from replica
//! rotation and blacklisting rather than simple retry.
//!
//! Write-path faults follow the same first-touch discipline keyed by path:
//! a publish can fail outright or land *torn* (a strict byte prefix), and a
//! rename can fail without moving anything or move the file and lose the
//! ack — the two halves of the classic "did my commit land?" ambiguity that
//! the ACID commit protocol has to resolve.

use crate::NodeId;
use hive_common::{config::keys, HiveConf, HiveError, Result};
use parking_lot::Mutex;
use std::collections::HashSet;

/// What the plan decided for one read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOutcome {
    /// Serve the bytes untouched.
    Success,
    /// Fail the read with a retryable transient error.
    TransientError,
    /// Flip `mask` into the byte at `pos` (relative to the read) on the
    /// wire. Checksum verification turns this into a `Corrupt` error.
    CorruptByte { pos: u64, mask: u8 },
}

/// What the plan decided for one file publish.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteFaultOutcome {
    /// Publish every byte.
    Success,
    /// Publish nothing; the writer gets a retryable transient error.
    TransientError,
    /// Publish only the first `keep` bytes (a strict prefix) and report a
    /// transient error — the client died mid-write and the partial file is
    /// what the cluster keeps. Commit barriers must catch this.
    Torn { keep: u64 },
}

/// What the plan decided for one rename.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RenameFaultOutcome {
    /// Move the file.
    Success,
    /// Move nothing; the caller gets a retryable transient error.
    TransientError,
    /// Move the file but report a transient error anyway (the namenode
    /// committed, the ack was lost). A retry of the "failed" rename finds
    /// the source gone and the destination present — duplicate-retry
    /// handling must treat that as already committed.
    AckLost,
}

/// A seeded, deterministic schedule of read faults. Carried only by a
/// statement-scoped [`Dfs`] view ([`Dfs::for_statement`]) — one plan per
/// statement, so the first-touch ledger resets between statements and
/// concurrent statements never see each other's plans. An unscoped handle
/// is healthy.
///
/// [`Dfs`]: crate::Dfs
/// [`Dfs::for_statement`]: crate::Dfs::for_statement
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    read_error_rate: f64,
    corrupt_rate: f64,
    write_error_rate: f64,
    write_torn_rate: f64,
    rename_error_rate: f64,
    rename_ack_lost_rate: f64,
    slow_nodes: Vec<NodeId>,
    fail_nodes: Vec<NodeId>,
    /// Extra simulated seconds per byte read from a slow node.
    slow_s_per_byte: f64,
    /// Locations (path-hash, offset) that have already been read once.
    touched: Mutex<HashSet<(u64, u64)>>,
    /// `(tag, path-hash)` pairs already drawn for: each path's first
    /// publish ([`WRITE_TAG`]) and first rename ([`RENAME_TAG`]).
    touched_paths: Mutex<HashSet<(u64, u64)>>,
}

/// Domain-separation tags so a path's write, rename, and read decisions
/// draw independent uniforms from the same seed.
const WRITE_TAG: u64 = 0x7772_6974_655f_7461; // "write_ta"
const RENAME_TAG: u64 = 0x7265_6e61_6d65_5f74; // "rename_t"

impl FaultPlan {
    /// Build a plan from session configuration. Returns `Ok(None)` when
    /// every knob is at its inert default — the common, fault-free case.
    pub fn from_conf(conf: &HiveConf) -> Result<Option<FaultPlan>> {
        let read_error_rate = unit_rate(conf, keys::DFS_FAULT_READ_ERROR_RATE)?;
        let corrupt_rate = unit_rate(conf, keys::DFS_FAULT_CORRUPT_RATE)?;
        let write_error_rate = unit_rate(conf, keys::DFS_FAULT_WRITE_ERROR_RATE)?;
        let write_torn_rate = unit_rate(conf, keys::DFS_FAULT_WRITE_TORN_RATE)?;
        let rename_error_rate = unit_rate(conf, keys::DFS_FAULT_RENAME_ERROR_RATE)?;
        let rename_ack_lost_rate = unit_rate(conf, keys::DFS_FAULT_RENAME_ACK_LOST_RATE)?;
        let slow_nodes = node_list(conf, keys::DFS_FAULT_SLOW_NODES)?;
        let fail_nodes = node_list(conf, keys::DFS_FAULT_FAIL_NODES)?;
        if read_error_rate == 0.0
            && corrupt_rate == 0.0
            && write_error_rate == 0.0
            && write_torn_rate == 0.0
            && rename_error_rate == 0.0
            && rename_ack_lost_rate == 0.0
            && slow_nodes.is_empty()
            && fail_nodes.is_empty()
        {
            return Ok(None);
        }
        if read_error_rate + corrupt_rate > 1.0 {
            return Err(HiveError::Config(format!(
                "dfs.fault rates sum to {} > 1",
                read_error_rate + corrupt_rate
            )));
        }
        if write_error_rate + write_torn_rate > 1.0 {
            return Err(HiveError::Config(format!(
                "dfs.fault.write rates sum to {} > 1",
                write_error_rate + write_torn_rate
            )));
        }
        if rename_error_rate + rename_ack_lost_rate > 1.0 {
            return Err(HiveError::Config(format!(
                "dfs.fault.rename rates sum to {} > 1",
                rename_error_rate + rename_ack_lost_rate
            )));
        }
        let slow_ms_per_mb = conf.get_f64(keys::DFS_FAULT_SLOW_MS_PER_MB)?.max(0.0);
        Ok(Some(FaultPlan {
            seed: conf.get_i64(keys::DFS_FAULT_SEED)? as u64,
            read_error_rate,
            corrupt_rate,
            write_error_rate,
            write_torn_rate,
            rename_error_rate,
            rename_ack_lost_rate,
            slow_nodes,
            fail_nodes,
            slow_s_per_byte: slow_ms_per_mb / 1e3 / (1u64 << 20) as f64,
            touched: Mutex::new(HashSet::new()),
            touched_paths: Mutex::new(HashSet::new()),
        }))
    }

    /// Whether `node` is a designated straggler.
    pub fn is_slow(&self, node: NodeId) -> bool {
        self.slow_nodes.contains(&node)
    }

    /// Whether every read served from `node` fails.
    pub fn is_failing(&self, node: NodeId) -> bool {
        self.fail_nodes.contains(&node)
    }

    /// Extra simulated latency (microseconds) for reading `bytes` from a
    /// slow node.
    pub fn slow_penalty_us(&self, bytes: u64) -> u64 {
        (bytes as f64 * self.slow_s_per_byte * 1e6).round() as u64
    }

    /// Decide the fate of a read of `len` bytes at `(path, offset)` served
    /// to `node`. Thread-safe; the first-touch ledger is updated here.
    pub fn decide_read(
        &self,
        path: &str,
        node: Option<NodeId>,
        offset: u64,
        len: u64,
    ) -> FaultOutcome {
        // Dead datanodes fail unconditionally — not first-touch-gated,
        // because the node itself (not the data) is the problem.
        if let Some(n) = node {
            if self.fail_nodes.contains(&n) {
                return FaultOutcome::TransientError;
            }
        }
        if (self.read_error_rate == 0.0 && self.corrupt_rate == 0.0) || len == 0 {
            return FaultOutcome::Success;
        }
        let ph = fnv1a(path.as_bytes());
        if !self.touched.lock().insert((ph, offset)) {
            return FaultOutcome::Success; // location already served once
        }
        let h = mix(self.seed ^ ph, offset);
        let u = unit(h);
        if u < self.read_error_rate {
            FaultOutcome::TransientError
        } else if u < self.read_error_rate + self.corrupt_rate {
            let h2 = mix(h, 0x5bd1e995);
            FaultOutcome::CorruptByte {
                pos: h2 % len,
                // Low byte of the hash, forced nonzero so the flip is real.
                mask: ((h2 >> 32) as u8) | 1,
            }
        } else {
            FaultOutcome::Success
        }
    }

    /// Decide the fate of publishing `len` bytes at `path`. First-touch per
    /// path: one publish of a given path can misbehave, its retry is clean
    /// (the client re-drives the pipeline). Thread-safe.
    pub fn decide_write(&self, path: &str, len: u64) -> WriteFaultOutcome {
        match self.draw(path, WRITE_TAG, self.write_error_rate, self.write_torn_rate) {
            None => WriteFaultOutcome::Success,
            Some((true, _)) => WriteFaultOutcome::TransientError,
            // Keep a strict prefix: at most len-1 bytes (none of an empty file).
            Some((false, h)) => WriteFaultOutcome::Torn {
                keep: mix(h, 0x9e3779b9) % len.max(1),
            },
        }
    }

    /// Decide the fate of renaming `from`. First-touch per source path.
    pub fn decide_rename(&self, from: &str) -> RenameFaultOutcome {
        match self.draw(
            from,
            RENAME_TAG,
            self.rename_error_rate,
            self.rename_ack_lost_rate,
        ) {
            None => RenameFaultOutcome::Success,
            Some((true, _)) => RenameFaultOutcome::TransientError,
            Some((false, _)) => RenameFaultOutcome::AckLost,
        }
    }

    /// The seeded first-touch draw behind write and rename faults. `None`
    /// when neither rate can fire, `(tag, path)` was drawn for before, or
    /// the draw falls past both thresholds; otherwise whether it fell under
    /// `first` (`true`) or the `second` rate stacked above it (`false`),
    /// with the draw's hash.
    fn draw(&self, path: &str, tag: u64, first: f64, second: f64) -> Option<(bool, u64)> {
        if first == 0.0 && second == 0.0 {
            return None;
        }
        let ph = fnv1a(path.as_bytes());
        if !self.touched_paths.lock().insert((tag, ph)) {
            return None;
        }
        let h = mix(self.seed ^ ph, tag);
        let u = unit(h);
        (u < first + second).then_some((u < first, h))
    }
}

fn unit_rate(conf: &HiveConf, key: &str) -> Result<f64> {
    let v = conf.get_f64(key)?;
    if !(0.0..=1.0).contains(&v) {
        return Err(HiveError::Config(format!(
            "property `{key}`={v} must be in [0, 1]"
        )));
    }
    Ok(v)
}

fn node_list(conf: &HiveConf, key: &str) -> Result<Vec<NodeId>> {
    let raw = conf
        .get_raw(key)
        .ok_or_else(|| HiveError::Config(format!("unknown property `{key}`")))?;
    raw.split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|s| {
            s.parse::<NodeId>()
                .map_err(|_| HiveError::Config(format!("property `{key}`: `{s}` is not a node id")))
        })
        .collect()
}

/// FNV-1a over `bytes`: the path hash behind fault draws and block
/// placement.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// The top 53 bits of `h` as a uniform draw in `[0, 1)`.
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// SplitMix64 finalizer over two words — the same avalanche the in-tree
/// `rand` shim seeds with, good enough to make rate thresholds uniform.
fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.wrapping_mul(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(set: &[(&str, &str)]) -> FaultPlan {
        let mut conf = HiveConf::new();
        for (k, v) in set {
            conf.set(k, *v);
        }
        FaultPlan::from_conf(&conf)
            .unwrap()
            .expect("plan not inert")
    }

    #[test]
    fn inert_conf_yields_no_plan() {
        assert!(FaultPlan::from_conf(&HiveConf::new()).unwrap().is_none());
    }

    #[test]
    fn rates_out_of_range_error() {
        let conf = HiveConf::new().with(keys::DFS_FAULT_READ_ERROR_RATE, "1.5");
        assert!(FaultPlan::from_conf(&conf).is_err());
        let conf = HiveConf::new()
            .with(keys::DFS_FAULT_READ_ERROR_RATE, "0.7")
            .with(keys::DFS_FAULT_CORRUPT_RATE, "0.7");
        assert!(FaultPlan::from_conf(&conf).is_err());
    }

    #[test]
    fn first_touch_fails_retry_succeeds() {
        let p = plan(&[(keys::DFS_FAULT_READ_ERROR_RATE, "1.0")]);
        assert_eq!(
            p.decide_read("/t/a", None, 0, 64),
            FaultOutcome::TransientError
        );
        // Same location again: clean (failover to a healthy replica).
        assert_eq!(p.decide_read("/t/a", None, 0, 64), FaultOutcome::Success);
        // A different location gets its own first-touch fault.
        assert_eq!(
            p.decide_read("/t/a", None, 64, 64),
            FaultOutcome::TransientError
        );
    }

    #[test]
    fn decisions_depend_only_on_seed_path_offset() {
        let mk = || {
            plan(&[
                (keys::DFS_FAULT_READ_ERROR_RATE, "0.3"),
                (keys::DFS_FAULT_CORRUPT_RATE, "0.3"),
                (keys::DFS_FAULT_SEED, "42"),
            ])
        };
        let (a, b) = (mk(), mk());
        for off in (0..4096u64).step_by(128) {
            assert_eq!(
                a.decide_read("/t/x", Some(1), off, 128),
                b.decide_read("/t/x", Some(1), off, 128)
            );
        }
    }

    #[test]
    fn rates_roughly_respected() {
        let p = plan(&[
            (keys::DFS_FAULT_READ_ERROR_RATE, "0.25"),
            (keys::DFS_FAULT_SEED, "7"),
        ]);
        let fails = (0..2000u64)
            .filter(|&i| p.decide_read("/t/r", None, i * 10, 10) == FaultOutcome::TransientError)
            .count();
        assert!((350..650).contains(&fails), "~25% expected, got {fails}");
    }

    #[test]
    fn fail_nodes_always_fail_other_nodes_clean() {
        let p = plan(&[(keys::DFS_FAULT_FAIL_NODES, "2, 3")]);
        for _ in 0..3 {
            assert_eq!(
                p.decide_read("/t/a", Some(2), 0, 10),
                FaultOutcome::TransientError
            );
        }
        assert!(p.is_failing(3));
        assert_eq!(p.decide_read("/t/a", Some(0), 0, 10), FaultOutcome::Success);
    }

    #[test]
    fn slow_nodes_price_latency_by_bytes() {
        let p = plan(&[
            (keys::DFS_FAULT_SLOW_NODES, "1"),
            (keys::DFS_FAULT_SLOW_MS_PER_MB, "200"),
        ]);
        assert!(p.is_slow(1));
        assert!(!p.is_slow(0));
        assert_eq!(p.slow_penalty_us(1 << 20), 200_000);
        assert_eq!(p.slow_penalty_us(0), 0);
    }

    #[test]
    fn write_faults_are_first_touch_per_path() {
        let p = plan(&[(keys::DFS_FAULT_WRITE_ERROR_RATE, "1.0")]);
        assert_eq!(
            p.decide_write("/t/w", 100),
            WriteFaultOutcome::TransientError
        );
        // Retrying the same path succeeds; a fresh path faults anew.
        assert_eq!(p.decide_write("/t/w", 100), WriteFaultOutcome::Success);
        assert_eq!(
            p.decide_write("/t/w2", 100),
            WriteFaultOutcome::TransientError
        );
    }

    #[test]
    fn torn_write_keeps_a_strict_prefix() {
        let p = plan(&[(keys::DFS_FAULT_WRITE_TORN_RATE, "1.0")]);
        match p.decide_write("/t/torn", 100) {
            WriteFaultOutcome::Torn { keep } => assert!(keep < 100),
            other => panic!("expected torn write, got {other:?}"),
        }
        match p.decide_write("/t/empty", 0) {
            WriteFaultOutcome::Torn { keep } => assert_eq!(keep, 0),
            other => panic!("expected torn write, got {other:?}"),
        }
    }

    #[test]
    fn rename_faults_split_error_from_ack_loss() {
        let p = plan(&[(keys::DFS_FAULT_RENAME_ERROR_RATE, "1.0")]);
        assert_eq!(
            p.decide_rename("/t/src"),
            RenameFaultOutcome::TransientError
        );
        assert_eq!(p.decide_rename("/t/src"), RenameFaultOutcome::Success);

        let p = plan(&[(keys::DFS_FAULT_RENAME_ACK_LOST_RATE, "1.0")]);
        assert_eq!(p.decide_rename("/t/src"), RenameFaultOutcome::AckLost);
        assert_eq!(p.decide_rename("/t/src"), RenameFaultOutcome::Success);
    }

    #[test]
    fn write_rate_sums_validate() {
        let conf = HiveConf::new()
            .with(keys::DFS_FAULT_WRITE_ERROR_RATE, "0.7")
            .with(keys::DFS_FAULT_WRITE_TORN_RATE, "0.7");
        assert!(FaultPlan::from_conf(&conf).is_err());
        let conf = HiveConf::new()
            .with(keys::DFS_FAULT_RENAME_ERROR_RATE, "0.6")
            .with(keys::DFS_FAULT_RENAME_ACK_LOST_RATE, "0.6");
        assert!(FaultPlan::from_conf(&conf).is_err());
    }

    #[test]
    fn corrupt_outcome_targets_a_byte_within_the_read() {
        let p = plan(&[(keys::DFS_FAULT_CORRUPT_RATE, "1.0")]);
        match p.decide_read("/t/c", None, 0, 128) {
            FaultOutcome::CorruptByte { pos, mask } => {
                assert!(pos < 128);
                assert_ne!(mask, 0);
            }
            other => panic!("expected corruption, got {other:?}"),
        }
    }
}
