//! Error type for the hybrid JCF-FMCAD framework.

use std::error::Error;
use std::fmt;

use cad_tools::ToolError;
use cad_vfs::VfsError;
use fmcad::FmcadError;
use jcf::JcfError;

/// Error returned by hybrid framework operations.
///
/// The enum is `#[non_exhaustive]`: downstream matches must carry a
/// wildcard arm so future coupling failures can be added without a
/// breaking release. Use [`HybridError::kind`] for stable programmatic
/// dispatch — the kind strings are frozen.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum HybridError {
    /// The master framework (JCF) rejected the operation.
    Jcf(JcfError),
    /// The slave framework (FMCAD) rejected the operation.
    Fmcad(FmcadError),
    /// A staging transfer through the file system failed.
    Vfs(VfsError),
    /// An encapsulated tool failed.
    Tool(ToolError),
    /// A mapped counterpart is missing (coupling tables corrupt).
    MappingMissing(String),
    /// Design data references a child cell that was not declared via
    /// the JCF desktop beforehand (§3.3).
    UndeclaredChild {
        /// The referencing cell version (by FMCAD cell name).
        parent: String,
        /// The undeclared child cell.
        child: String,
    },
    /// The schematic and layout hierarchies differ; JCF 3.0 does not
    /// support non-isomorphic hierarchies, so the hybrid framework must
    /// reject the design (§3.3).
    NonIsomorphicHierarchy {
        /// Human-readable differences between the two hierarchies.
        differences: Vec<String>,
    },
    /// The activity produced a viewtype it did not declare as created.
    UndeclaredOutput {
        /// The activity name.
        activity: String,
        /// The undeclared viewtype.
        viewtype: String,
    },
    /// The ops journal is corrupt, or a replayed operation reproduced
    /// a recorded failure whose original error type was not preserved.
    Journal(String),
    /// The persisted ops journal ends in a line truncated mid-entry —
    /// a write was torn before its trailing newline was flushed.
    /// [`Engine::recover_from`](crate::Engine::recover_from) restarts
    /// from such a journal by dropping only the torn suffix.
    TornJournal {
        /// Complete entries preceding the torn tail.
        complete: usize,
        /// The unterminated trailing bytes.
        fragment: String,
    },
    /// The shard router could not place the op on a single partition
    /// engine: an id did not resolve, referenced entities live on
    /// different partitions where one is required, or a cross-shard
    /// commit failed validation.
    ShardRouting(String),
    /// The checkpoint chain (base image + delta checkpoints + journal
    /// segments described by `ck.manifest`) is broken: a listed file is
    /// missing, a fingerprint does not match, or a delta does not
    /// extend the state it claims to. Strict restores report this;
    /// lenient recovery falls back to the last boundary the intact
    /// prefix of the chain can reach.
    DeltaChain(String),
    /// Point-in-time recovery was asked for a sequence number the
    /// persisted chain cannot reach exactly (before the base
    /// checkpoint, or past the last persisted entry).
    SeqUnreachable {
        /// The sequence number that was requested.
        requested: u64,
        /// The closest boundary the chain could have restored instead.
        reachable: u64,
    },
    /// A branch workspace merge was rejected before any mutation: a
    /// staged write targets a design object outside the merged cell
    /// version, or the workspace is otherwise inconsistent with the
    /// head it is merging into. (Concurrent-edit conflicts are *not*
    /// errors — they come back as a
    /// [`MergeConflict`](crate::Event::MergeConflict) event.)
    Merge(String),
    /// A queued write never learned its outcome: the group-commit
    /// leader carrying it panicked. Ops the leader applied before the
    /// panic stay applied; the write may or may not have committed.
    WriteAborted(String),
}

impl fmt::Display for HybridError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HybridError::Jcf(e) => write!(f, "jcf: {e}"),
            HybridError::Fmcad(e) => write!(f, "fmcad: {e}"),
            HybridError::Vfs(e) => write!(f, "staging: {e}"),
            HybridError::Tool(e) => write!(f, "tool: {e}"),
            HybridError::MappingMissing(what) => write!(f, "mapping missing for {what}"),
            HybridError::UndeclaredChild { parent, child } => write!(
                f,
                "cell {parent:?} uses child {child:?} that was not declared via the JCF desktop"
            ),
            HybridError::NonIsomorphicHierarchy { differences } => write!(
                f,
                "non-isomorphic hierarchies are not supported by JCF 3.0 ({} difference(s))",
                differences.len()
            ),
            HybridError::UndeclaredOutput { activity, viewtype } => write!(
                f,
                "activity {activity:?} produced undeclared viewtype {viewtype:?}"
            ),
            HybridError::Journal(what) => write!(f, "journal: {what}"),
            HybridError::TornJournal { complete, fragment } => write!(
                f,
                "journal tail truncated mid-entry after {complete} complete entrie(s) \
                 ({} torn byte(s))",
                fragment.len()
            ),
            HybridError::ShardRouting(what) => write!(f, "shard routing: {what}"),
            HybridError::DeltaChain(what) => write!(f, "checkpoint chain: {what}"),
            HybridError::SeqUnreachable {
                requested,
                reachable,
            } => write!(
                f,
                "sequence {requested} is not reachable from the persisted chain \
                 (closest boundary: {reachable})"
            ),
            HybridError::Merge(what) => write!(f, "merge: {what}"),
            HybridError::WriteAborted(what) => write!(f, "write aborted: {what}"),
        }
    }
}

impl HybridError {
    /// The stable kind string of this error — the key under which
    /// [`CounterSink`](crate::CounterSink) counts failures, and the
    /// value persisted in checkpoint metadata. These strings never
    /// change for an existing variant.
    pub fn kind(&self) -> &'static str {
        match self {
            HybridError::Jcf(_) => "jcf",
            HybridError::Fmcad(_) => "fmcad",
            HybridError::Vfs(_) => "vfs",
            HybridError::Tool(_) => "tool",
            HybridError::MappingMissing(_) => "mapping-missing",
            HybridError::UndeclaredChild { .. } => "undeclared-child",
            HybridError::NonIsomorphicHierarchy { .. } => "non-isomorphic-hierarchy",
            HybridError::UndeclaredOutput { .. } => "undeclared-output",
            HybridError::Journal(_) => "journal",
            HybridError::TornJournal { .. } => "torn-journal",
            HybridError::ShardRouting(_) => "shard-routing",
            HybridError::DeltaChain(_) => "delta-chain",
            HybridError::SeqUnreachable { .. } => "seq-unreachable",
            HybridError::Merge(_) => "merge",
            HybridError::WriteAborted(_) => "write-aborted",
        }
    }
}

impl Error for HybridError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            HybridError::Jcf(e) => Some(e),
            HybridError::Fmcad(e) => Some(e),
            HybridError::Vfs(e) => Some(e),
            HybridError::Tool(e) => Some(e),
            _ => None,
        }
    }
}

#[doc(hidden)]
impl From<JcfError> for HybridError {
    fn from(e: JcfError) -> Self {
        HybridError::Jcf(e)
    }
}

#[doc(hidden)]
impl From<FmcadError> for HybridError {
    fn from(e: FmcadError) -> Self {
        HybridError::Fmcad(e)
    }
}

#[doc(hidden)]
impl From<VfsError> for HybridError {
    fn from(e: VfsError) -> Self {
        HybridError::Vfs(e)
    }
}

#[doc(hidden)]
impl From<ToolError> for HybridError {
    fn from(e: ToolError) -> Self {
        HybridError::Tool(e)
    }
}

#[doc(hidden)]
impl From<design_data::DesignDataError> for HybridError {
    fn from(e: design_data::DesignDataError) -> Self {
        HybridError::Tool(ToolError::DesignData(e))
    }
}

/// Convenience alias for hybrid results.
pub type HybridResult<T> = Result<T, HybridError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<HybridError>();
    }

    #[test]
    fn sources_chain_through_both_frameworks() {
        let e: HybridError = JcfError::NotFound("x".into()).into();
        assert!(Error::source(&e).is_some());
        let e: HybridError = FmcadError::NotCheckedOut.into();
        assert!(Error::source(&e).is_some());
    }
}
