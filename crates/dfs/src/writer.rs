//! The write path: [`DfsWriter`] buffers a file's bytes and publishes them
//! on [`DfsWriter::try_close`], under the handle's write-fault plan.

use crate::{Dfs, WriteFaultOutcome};
use hive_common::{HiveError, Result};

impl Dfs {
    /// Create a file for writing. Overwrites any existing file at `path`
    /// (HDFS semantics would forbid this; tests rely on replacement).
    pub fn create(&self, path: &str) -> DfsWriter {
        DfsWriter {
            dfs: self.clone(),
            path: path.to_string(),
            data: Vec::new(),
        }
    }
}

/// Append-only writer. Bytes become visible (and placed) on
/// [`try_close`](DfsWriter::try_close).
pub struct DfsWriter {
    dfs: Dfs,
    path: String,
    data: Vec<u8>,
}

impl DfsWriter {
    pub fn write(&mut self, bytes: &[u8]) {
        self.data.extend_from_slice(bytes);
    }

    /// Current write position (file length so far).
    pub fn position(&self) -> u64 {
        self.data.len() as u64
    }

    /// Bytes left before the current block boundary. ORC's writer consults
    /// this to decide whether the next stripe would straddle a block and
    /// should be preceded by padding (Section 4.1).
    pub fn block_remaining(&self) -> u64 {
        let block_size = self.block_size();
        block_size - self.position() % block_size
    }

    pub fn block_size(&self) -> u64 {
        self.dfs.block_size()
    }

    /// Write `n` zero bytes (stripe padding).
    pub fn pad(&mut self, n: u64) {
        self.data.extend(std::iter::repeat_n(0u8, n as usize));
    }

    /// Finish the file: compute block placement and publish it, consulting
    /// the handle's (statement-scoped) fault plan: the publish can fail
    /// cleanly (nothing lands) or land *torn* — a strict byte prefix
    /// becomes visible and the writer still gets an error, modeling a
    /// client death mid-write. Both surface as retryable
    /// [`HiveError::Transient`]; first-touch semantics make the retry of
    /// the same path clean.
    pub fn try_close(self) -> Result<u64> {
        let DfsWriter {
            dfs,
            path,
            mut data,
        } = self;
        let len = data.len() as u64;
        let outcome = dfs.fault_plan().map(|plan| plan.decide_write(&path, len));
        match outcome.unwrap_or(WriteFaultOutcome::Success) {
            WriteFaultOutcome::Success => {
                dfs.publish(&path, data);
                Ok(len)
            }
            WriteFaultOutcome::TransientError => Err(HiveError::Transient(format!(
                "injected write failure: {path} ({len} bytes lost)"
            ))),
            WriteFaultOutcome::Torn { keep } => {
                data.truncate(keep as usize);
                dfs.publish(&path, data);
                Err(HiveError::Transient(format!(
                    "injected torn write: {path} kept {keep}/{len} bytes"
                )))
            }
        }
    }
}
