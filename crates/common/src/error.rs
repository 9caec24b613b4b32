//! Unified error type shared across all Hive subsystems.

use std::fmt;

/// Convenience alias used throughout the workspace.
pub type Result<T> = std::result::Result<T, HiveError>;

/// Errors raised anywhere in the Hive reproduction.
///
/// Variants correspond to the layer that produced the error so callers can
/// report failures with the same granularity Hive's exception hierarchy does
/// (`SerDeException`, `SemanticException`, `HiveException`, ...).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HiveError {
    /// Filesystem-level failure (missing path, short read, bad offset).
    Dfs(String),
    /// Serialization / deserialization failure in a SerDe or file format.
    SerDe(String),
    /// Corrupt or malformed file-format metadata (bad footer, magic, ...).
    Format(String),
    /// Compression or decompression failure.
    Codec(String),
    /// Lexer/parser failure with the offending position.
    Parse(String),
    /// Semantic analysis failure (unknown table, ambiguous column, ...).
    Semantic(String),
    /// Query-planning failure.
    Plan(String),
    /// Runtime execution failure inside an operator or task.
    Execution(String),
    /// A configuration property was set to an invalid value.
    Config(String),
    /// A set referenced a key no knob in the typed registry declares.
    /// Carries near-miss suggestions from the registry.
    UnknownKnob {
        key: String,
        suggestions: Vec<String>,
    },
    /// Type mismatch between an expression and its operands.
    Type(String),
    /// The metastore does not know the referenced object.
    Metastore(String),
    /// Memory budget exhausted (ORC writer memory manager, hash joins).
    Memory(String),
    /// Transient I/O failure (a datanode timed out, a connection dropped).
    /// Retrying the same read — possibly against another replica — is
    /// expected to succeed; the task-attempt framework retries these.
    Transient(String),
    /// Detected data corruption: a checksum chunk failed its CRC32 check, or a
    /// decoded stream contradicted its own metadata. Retryable at the DFS
    /// layer (another replica may be clean) and skippable by the ORC
    /// reader's `hive.exec.orc.skip.corrupt.data` degradation mode.
    Corrupt(String),
    /// A task attempt died (worker panic, or retries exhausted). The
    /// MapReduce engine raises this instead of aborting the process.
    TaskFailed(String),
    /// The workload manager preempted this statement at a cooperative
    /// cancellation checkpoint to give its slot to a higher-priority pool.
    /// Not retryable at the task level: it must unwind the whole statement
    /// so the server can re-queue and re-run it from scratch (a preempted
    /// statement never returns partial results).
    Preempted(String),
    /// A deterministic crash point fired: chaos tests arm one named point
    /// (`hive.txn.crash.point`) and the writer/compactor dies there, *before*
    /// any cleanup runs — exactly like `kill -9`. Never retryable: the whole
    /// point is to leave the process-visible state as the crash left it so
    /// recovery (not retry) is what gets exercised.
    Crashed(String),
    /// Anything that does not fit the categories above.
    Internal(String),
}

impl HiveError {
    /// The layer label used in rendered messages.
    fn layer(&self) -> &'static str {
        match self {
            HiveError::Dfs(_) => "dfs",
            HiveError::SerDe(_) => "serde",
            HiveError::Format(_) => "format",
            HiveError::Codec(_) => "codec",
            HiveError::Parse(_) => "parse",
            HiveError::Semantic(_) => "semantic",
            HiveError::Plan(_) => "plan",
            HiveError::Execution(_) => "execution",
            HiveError::Config(_) => "config",
            HiveError::UnknownKnob { .. } => "config",
            HiveError::Type(_) => "type",
            HiveError::Metastore(_) => "metastore",
            HiveError::Memory(_) => "memory",
            HiveError::Transient(_) => "transient",
            HiveError::Corrupt(_) => "corrupt",
            HiveError::TaskFailed(_) => "task",
            HiveError::Preempted(_) => "preempted",
            HiveError::Crashed(_) => "crash",
            HiveError::Internal(_) => "internal",
        }
    }

    /// The human-readable message carried by the variant.
    pub fn message(&self) -> &str {
        match self {
            HiveError::Dfs(m)
            | HiveError::SerDe(m)
            | HiveError::Format(m)
            | HiveError::Codec(m)
            | HiveError::Parse(m)
            | HiveError::Semantic(m)
            | HiveError::Plan(m)
            | HiveError::Execution(m)
            | HiveError::Config(m)
            | HiveError::Type(m)
            | HiveError::Metastore(m)
            | HiveError::Memory(m)
            | HiveError::Transient(m)
            | HiveError::Corrupt(m)
            | HiveError::TaskFailed(m)
            | HiveError::Preempted(m)
            | HiveError::Crashed(m)
            | HiveError::Internal(m) => m,
            HiveError::UnknownKnob { key, .. } => key,
        }
    }

    /// Whether a fresh attempt could plausibly succeed — the retryable vs.
    /// fatal split Hadoop's task tracker makes. Transient I/O errors and
    /// checksum failures are environmental (a retry may hit a healthy
    /// replica); a panicked attempt is retried like Hadoop retries a
    /// crashed task JVM. Deterministic failures (parse, plan, type, ...)
    /// would fail identically on every attempt and are fatal.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            HiveError::Transient(_) | HiveError::Corrupt(_) | HiveError::TaskFailed(_)
        )
    }

    /// Whether the error means the *data* is bad (as opposed to the path to
    /// it): checksum mismatches, undecodable streams, malformed metadata.
    /// These are the errors `hive.exec.orc.skip.corrupt.data` may degrade
    /// over instead of failing the query.
    pub fn is_data_corruption(&self) -> bool {
        matches!(
            self,
            HiveError::Corrupt(_)
                | HiveError::Format(_)
                | HiveError::Codec(_)
                | HiveError::SerDe(_)
        )
    }
}

impl fmt::Display for HiveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let HiveError::UnknownKnob { key, suggestions } = self {
            write!(f, "[config] unknown knob `{key}`")?;
            if !suggestions.is_empty() {
                let quoted: Vec<String> = suggestions.iter().map(|s| format!("`{s}`")).collect();
                write!(f, " (did you mean {}?)", quoted.join(", "))?;
            }
            return Ok(());
        }
        write!(f, "[{}] {}", self.layer(), self.message())
    }
}

impl std::error::Error for HiveError {}

impl From<std::io::Error> for HiveError {
    fn from(e: std::io::Error) -> Self {
        HiveError::Dfs(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_layer_and_message() {
        let e = HiveError::Parse("unexpected token `)` at 1:17".into());
        assert_eq!(e.to_string(), "[parse] unexpected token `)` at 1:17");
    }

    #[test]
    fn message_accessor_returns_inner_text() {
        let e = HiveError::Memory("stripe budget exceeded".into());
        assert_eq!(e.message(), "stripe budget exceeded");
    }

    #[test]
    fn unknown_knob_display_lists_suggestions() {
        let e = HiveError::UnknownKnob {
            key: "hive.exec.paralel".into(),
            suggestions: vec!["hive.exec.parallel".into()],
        };
        assert_eq!(
            e.to_string(),
            "[config] unknown knob `hive.exec.paralel` (did you mean `hive.exec.parallel`?)"
        );
        let bare = HiveError::UnknownKnob {
            key: "zz".into(),
            suggestions: vec![],
        };
        assert_eq!(bare.to_string(), "[config] unknown knob `zz`");
    }

    #[test]
    fn io_error_converts_to_dfs() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        let e: HiveError = io.into();
        assert!(matches!(e, HiveError::Dfs(_)));
    }
}
