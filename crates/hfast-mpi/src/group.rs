//! Process groups for sub-communicator collectives.
//!
//! GTC in the paper performs gathers *within toroidal planes*, i.e. over a
//! subset of ranks. Rather than a full communicator-split machinery, the
//! collectives here accept a [`Group`]: an ordered list of world ranks. All
//! members must call the collective with an identical group for it to
//! complete.

use crate::error::{MpiError, Result};
use crate::Rank;

/// An ordered set of world ranks participating in a collective.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Group {
    members: Vec<Rank>,
}

impl Group {
    /// The group of all ranks `0..size`.
    pub(crate) fn world(size: usize) -> Self {
        Group {
            members: (0..size).collect(),
        }
    }

    /// A group from an explicit member list.
    ///
    /// Members must be distinct; they are kept in the given order (the order
    /// defines group-local indices, like MPI group ranks).
    pub fn new(members: Vec<Rank>) -> Result<Self> {
        if members.is_empty() {
            return Err(MpiError::InvalidGroup("empty group".into()));
        }
        let mut seen = vec![];
        for &m in &members {
            if seen.contains(&m) {
                return Err(MpiError::InvalidGroup(format!("duplicate member {m}")));
            }
            seen.push(m);
        }
        Ok(Group { members })
    }

    /// Number of members.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.members.len()
    }

    /// Group-local index of a world rank.
    pub(crate) fn index_of(&self, rank: Rank) -> Result<usize> {
        self.members
            .iter()
            .position(|&m| m == rank)
            .ok_or(MpiError::NotInGroup { rank })
    }

    /// World rank at a group-local index.
    pub(crate) fn rank_at(&self, index: usize) -> Result<Rank> {
        self.members
            .get(index)
            .copied()
            .ok_or_else(|| MpiError::InvalidGroup(format!("index {index} out of bounds")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn world_group_is_dense() {
        let g = Group::world(4);
        assert_eq!(g.members, [0, 1, 2, 3]);
        assert_eq!(g.len(), 4);
        assert_eq!(g.index_of(2).unwrap(), 2);
    }

    #[test]
    fn custom_group_preserves_order() {
        let g = Group::new(vec![7, 3, 11]).unwrap();
        assert_eq!(g.index_of(3).unwrap(), 1);
        assert_eq!(g.rank_at(2).unwrap(), 11);
    }

    #[test]
    fn rejects_duplicates_and_empty() {
        assert!(Group::new(vec![]).is_err());
        assert!(Group::new(vec![1, 2, 1]).is_err());
    }

    #[test]
    fn non_member_lookup_errors() {
        let g = Group::new(vec![0, 2]).unwrap();
        assert!(matches!(
            g.index_of(1),
            Err(MpiError::NotInGroup { rank: 1 })
        ));
        assert!(g.rank_at(5).is_err());
    }
}
