//! The write path: [`DfsWriter`] buffers a file's bytes and publishes them
//! on [`DfsWriter::try_close`], under the handle's write-fault plan.

use crate::{Dfs, WriteFaultOutcome};
use hive_common::{HiveError, Result};

/// The first allocation of a file's byte buffer, made when the file is
/// created.
const FIRST_BUFFER_BYTES: usize = 4096;

impl Dfs {
    /// Create a file for writing. Overwrites any existing file at `path`
    /// (HDFS semantics would forbid this; tests rely on replacement).
    ///
    /// The byte buffer is allocated here, by the thread that creates the
    /// file, and not at the first write. The allocator grows a buffer in the
    /// arena it was born in, so a file that a helper thread writes (a load's
    /// writer thread) still keeps its bytes in the creator's arena. Bytes
    /// that outlive their writer thread would otherwise sit in that thread's
    /// arena. Once freed, they would stay resident until some later thread
    /// happened to pick the same arena, which made the process's resident
    /// size vary from run to run.
    pub fn create(&self, path: &str) -> DfsWriter {
        DfsWriter {
            dfs: self.clone(),
            path: path.to_string(),
            data: Vec::with_capacity(FIRST_BUFFER_BYTES),
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

#[cfg(test)]
mod tests {
    use super::*;

    /// The buffer exists before the first write, so whichever thread writes
    /// the file, it grows in the arena of the thread that created it.
    #[test]
    fn a_file_buffer_is_allocated_when_the_file_is_created() {
        let dfs = Dfs::with_defaults();
        let w = dfs.create("/t/part-00000");
        assert!(w.data.capacity() >= FIRST_BUFFER_BYTES);
        assert_eq!(w.position(), 0);
        let grown = std::thread::scope(|s| {
            s.spawn(move || {
                let mut w = w;
                w.write(&[7; 3 * FIRST_BUFFER_BYTES]);
                w.try_close()
            })
            .join()
            .expect("writer thread")
        });
        assert_eq!(grown.expect("published"), 3 * FIRST_BUFFER_BYTES as u64);
    }
}
