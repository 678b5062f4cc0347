//! Error types for the message-passing runtime.

use crate::{Rank, Tag};

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
    /// [`World::replay`](crate::World::replay) ran a rank twice and its
    /// sends differed: they depend on received bytes, on timing or on an
    /// `ANY_SOURCE` outcome, which a replay cannot reproduce.
    Diverged {
        /// The rank whose sends differed.
        rank: Rank,
        /// Index of the first differing send in the rank's send order.
        send: usize,
        /// That send in the first pass.
        pass_one: String,
        /// That send in the second pass.
        pass_two: String,
    },
    /// [`World::replay`](crate::World::replay) found no send in the world
    /// for a receive, where a threaded world would wait out its timeout.
    Unmatched {
        /// The receiving rank.
        rank: Rank,
        /// The source it names (`None` for `ANY_SOURCE`).
        src: Option<Rank>,
        /// The tag it names (`None` for `ANY_TAG`).
        tag: Option<Tag>,
    },
    /// [`World::replay`](crate::World::replay) found ranks that wait on
    /// one another in a cycle, where a threaded world would wait out its
    /// timeout: the send a receive needs comes only after the receive.
    Deadlock {
        /// The lowest rank left waiting.
        rank: Rank,
        /// The rank whose send it waits for.
        src: Rank,
    },
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
            MpiError::Diverged {
                rank,
                send,
                pass_one,
                pass_two,
            } => write!(
                f,
                "rank {rank}'s send {send} differs between the replay's passes: \
                 {pass_one}, then {pass_two}"
            ),
            MpiError::Deadlock { rank, src } => write!(
                f,
                "rank {rank} deadlocks: the send it waits for from rank {src} \
                 comes only after its own wait"
            ),
            MpiError::Unmatched { rank, src, tag } => {
                let any = |v: Option<String>| v.unwrap_or_else(|| "any".to_string());
                write!(
                    f,
                    "rank {rank}: no send in the world matches recv(src={}, tag={})",
                    any(src.map(|r| r.to_string())),
                    any(tag.map(|t| t.to_string()))
                )
            }
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
