//! Error types for the message-passing runtime.

use crate::Rank;

/// Errors surfaced by runtime operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MpiError {
    /// A destination or source rank was outside `0..size`.
    InvalidRank {
        /// The offending rank.
        rank: Rank,
        /// The world size it exceeded.
        size: usize,
    },
    /// An application used a tag in the reserved collective namespace.
    ReservedTag(u32),
    /// A blocking operation exceeded the world's configured timeout.
    ///
    /// The runtime uses a timeout instead of hanging forever so that a peer
    /// that panicked (and will never send) turns into a diagnosable error.
    Timeout {
        /// The rank that stalled.
        rank: Rank,
        /// A description of the operation it was waiting on.
        waiting_for: String,
    },
    /// The channel to a peer was disconnected (its thread exited early).
    Disconnected {
        /// The rank observing the disconnect.
        rank: Rank,
        /// The peer whose channel closed.
        peer: Rank,
    },
    /// A request handle was used after it already completed.
    StaleRequest,
    /// A collective was invoked with inconsistent arguments across ranks
    /// (detectable cases only, e.g. mismatched reduce payload lengths).
    CollectiveMismatch(String),
    /// The world failed to launch or a rank thread panicked.
    RankPanic {
        /// The lowest-numbered rank that panicked.
        rank: Rank,
        /// What it panicked with.
        message: String,
    },
    /// A group operation referenced a rank that is not a member.
    NotInGroup {
        /// The rank that is not a member.
        rank: Rank,
    },
    /// Empty or otherwise invalid group description.
    InvalidGroup(String),
}

impl std::fmt::Display for MpiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MpiError::InvalidRank { rank, size } => {
                write!(f, "rank {rank} out of range for world of size {size}")
            }
            MpiError::ReservedTag(t) => {
                write!(f, "tag {t:#x} lies in the reserved collective namespace")
            }
            MpiError::Timeout { rank, waiting_for } => {
                write!(f, "rank {rank} timed out waiting for {waiting_for}")
            }
            MpiError::Disconnected { rank, peer } => {
                write!(f, "rank {rank}: channel to peer {peer} disconnected")
            }
            MpiError::StaleRequest => write!(f, "request already completed"),
            MpiError::CollectiveMismatch(msg) => write!(f, "collective mismatch: {msg}"),
            MpiError::RankPanic { rank, message } => write!(f, "rank {rank} panicked: {message}"),
            MpiError::NotInGroup { rank } => write!(f, "rank {rank} is not a group member"),
            MpiError::InvalidGroup(msg) => write!(f, "invalid group: {msg}"),
        }
    }
}

impl std::error::Error for MpiError {}

/// Convenience alias used across the runtime.
pub type Result<T> = std::result::Result<T, MpiError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = MpiError::InvalidRank { rank: 9, size: 4 };
        assert!(e.to_string().contains("rank 9"));
        assert!(e.to_string().contains("size 4"));
        let e = MpiError::Timeout {
            rank: 1,
            waiting_for: "recv(src=0, tag=5)".into(),
        };
        assert!(e.to_string().contains("timed out"));
    }
}
