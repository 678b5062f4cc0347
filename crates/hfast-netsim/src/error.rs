//! The crate-wide error type.

use crate::fabric::LinkId;

/// Everything a `hfast-netsim` constructor or plan builder can reject.
///
/// One enum for the whole crate: fabric constructors
/// ([`FatTreeFabric::new`](crate::FatTreeFabric::new),
/// [`TorusFabric::new`](crate::TorusFabric::new)) return it for invalid
/// shapes, and [`FaultPlanBuilder::build`](crate::FaultPlanBuilder::build)
/// returns it for failure specifications that do not fit the target
/// fabric — the roles the old `DegradedError` used to cover.
/// [`FabricSpec::build`](crate::FabricSpec::build) adds
/// [`NetsimError::TorusTooSmall`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetsimError {
    /// Fat-tree switches need at least 4 ports (2 down, 2 up).
    FatTreeArity {
        /// The offending port count.
        n_ports: usize,
    },
    /// A fabric needs at least one attached node.
    EmptyFabric {
        /// Which fabric family rejected the shape.
        fabric: &'static str,
    },
    /// A torus with fewer nodes than the graph it is built for has tasks.
    TorusTooSmall {
        /// The torus dimensions.
        dims: (usize, usize, usize),
        /// Nodes the torus holds.
        nodes: usize,
        /// Tasks the graph has.
        needs: usize,
    },
    /// A node id at or beyond the fabric's node count.
    NodeOutOfRange {
        /// The offending node id.
        node: usize,
        /// The fabric's node count.
        nodes: usize,
    },
    /// A link id at or beyond the fabric's link count.
    LinkOutOfRange {
        /// The offending link id.
        link: LinkId,
        /// The fabric's link count.
        links: usize,
    },
}

impl std::fmt::Display for NetsimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            NetsimError::FatTreeArity { n_ports } => {
                write!(f, "fat-tree switches need at least 4 ports, got {n_ports}")
            }
            NetsimError::EmptyFabric { fabric } => {
                write!(f, "a {fabric} fabric needs at least one node")
            }
            NetsimError::TorusTooSmall { dims, nodes, needs } => {
                write!(f, "torus {dims:?} holds {nodes} nodes, app needs {needs}")
            }
            NetsimError::NodeOutOfRange { node, nodes } => {
                write!(f, "node {node} out of range (fabric has {nodes} nodes)")
            }
            NetsimError::LinkOutOfRange { link, links } => {
                write!(f, "link {link} out of range (fabric has {links} links)")
            }
        }
    }
}

impl std::error::Error for NetsimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_name_the_problem() {
        assert_eq!(
            NetsimError::FatTreeArity { n_ports: 2 }.to_string(),
            "fat-tree switches need at least 4 ports, got 2"
        );
        assert_eq!(
            NetsimError::EmptyFabric { fabric: "torus" }.to_string(),
            "a torus fabric needs at least one node"
        );
        assert!(NetsimError::NodeOutOfRange { node: 9, nodes: 4 }
            .to_string()
            .contains("node 9 out of range"));
        assert!(NetsimError::LinkOutOfRange { link: 7, links: 6 }
            .to_string()
            .contains("link 7 out of range"));
    }
}
