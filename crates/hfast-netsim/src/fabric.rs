//! The fabric abstraction: links and paths, and [`FabricSpec`], the one
//! place a fabric family is turned into a fabric for an app's graph.

use hfast_core::{ProvisionConfig, Strategy};
use hfast_topology::CommGraph;

use crate::error::NetsimError;
use crate::fattree::FatTreeFabric;
use crate::hfast::HfastFabric;
use crate::torus::TorusFabric;

/// Index of a link within a fabric.
pub type LinkId = usize;

/// Physical characteristics of one link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkSpec {
    /// Fixed traversal latency in nanoseconds (propagation plus the
    /// processing of the switch the link feeds into).
    pub latency_ns: u64,
    /// Bandwidth in bytes per nanosecond (1.0 = 1 GB/s).
    pub bandwidth: f64,
}

impl LinkSpec {
    /// A healthy default cluster link: 1 GB/s, 50 ns switch processing.
    pub(crate) const DEFAULT: LinkSpec = LinkSpec {
        latency_ns: 50,
        bandwidth: 1.0,
    };

    /// Serialization time for a message of `bytes` on this link.
    #[inline]
    pub fn serialize_ns(&self, bytes: u64) -> u64 {
        (bytes as f64 / self.bandwidth).ceil() as u64
    }
}

/// A network fabric: a set of links and a deterministic routing function.
///
/// `Sync` is a supertrait so concurrent runs (experiment grids, a serving
/// daemon's connections) can share one fabric; fabrics are immutable
/// descriptions, so every implementation is trivially `Sync`.
pub trait Fabric: Sync {
    /// Human-readable fabric name.
    fn name(&self) -> &str;

    /// Number of attached compute nodes.
    fn nodes(&self) -> usize;

    /// Total links.
    fn link_count(&self) -> usize;

    /// Characteristics of a link.
    fn link(&self, id: LinkId) -> LinkSpec;

    /// The ordered link sequence a message from `src` to `dst` traverses,
    /// or `None` if the pair is unreachable. `src == dst` yields an empty
    /// path.
    fn path(&self, src: usize, dst: usize) -> Option<Vec<LinkId>>;

    /// Number of *switch* hops on the path (for latency accounting
    /// comparisons against the paper's layer-count arguments).
    fn switch_hops(&self, src: usize, dst: usize) -> Option<usize> {
        // Each link past the first injection link enters a switch or NIC;
        // fabrics override this with exact counts where it differs.
        self.path(src, dst).map(|p| p.len().saturating_sub(1))
    }

    /// A route from `src` to `dst` that avoids everything `state` marks
    /// down, or `None` if no such route exists right now.
    ///
    /// The default covers single-path fabrics: the primary [`path`] is
    /// returned when it is fully up, otherwise the pair is unreachable.
    /// Fabrics with path diversity (torus detours, HFAST tree fallback)
    /// override this with a real search.
    ///
    /// Contract: the result is `Some` whenever both endpoints are up and
    /// some route this method or [`path`] has returned for the pair is
    /// fully up in `state`. The engine's circuit-coverage snapshot relies
    /// on it: it counts a pair whose current route is up as covered
    /// without searching.
    ///
    /// [`path`]: Fabric::path
    fn path_avoiding(
        &self,
        src: usize,
        dst: usize,
        state: &crate::faultplan::FaultState,
    ) -> Option<Vec<LinkId>> {
        if !state.node_up(src) || !state.node_up(dst) {
            return None;
        }
        self.path(src, dst).filter(|p| !state.blocks(p))
    }

    /// Every link that dies with `node`: its injection/ejection links plus
    /// any fabric link terminating at its NIC. Used to translate a node
    /// fault into link outages.
    ///
    /// The default (no links) is only correct for fabrics without attached
    /// nodes; every real fabric overrides it.
    fn incident_links(&self, node: usize) -> Vec<LinkId> {
        let _ = node;
        Vec::new()
    }

    /// True if a failure of `link` can be repaired mid-run by repatching a
    /// circuit through spare switch ports (HFAST's MEMS circuits). Fixed
    /// copper and node fibers cannot.
    fn reprovisionable(&self, link: LinkId) -> bool {
        let _ = link;
        false
    }

    /// True if the fabric has any reprovisionable links at all, so the
    /// engine knows whether scheduling sync-point repatches is worthwhile.
    fn supports_reprovision(&self) -> bool {
        false
    }
}

/// A fabric family, sized or provisioned for one app's graph by
/// [`FabricSpec::build`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FabricSpec {
    /// A fat tree of `ports`-port switches sized to the app.
    FatTree {
        /// Switch port count.
        ports: usize,
    },
    /// A 3D torus of the given dimensions.
    Torus {
        /// Dimensions (product must cover the app's task count).
        dims: (usize, usize, usize),
    },
    /// An HFAST fabric provisioned from the app's thresholded graph.
    Hfast,
}

impl FabricSpec {
    /// The fabric for `graph`: a fat tree with one node per task, the
    /// torus as given (refused when it holds fewer nodes than the graph
    /// has tasks), or HFAST provisioned from `graph` by `strategy` under
    /// `config`. `config` and `strategy` matter only to HFAST.
    ///
    /// # Errors
    /// The fat tree's and torus's shape errors, and
    /// [`NetsimError::TorusTooSmall`].
    pub fn build(
        self,
        graph: &CommGraph,
        config: ProvisionConfig,
        strategy: Strategy,
    ) -> Result<Box<dyn Fabric + Send>, NetsimError> {
        Ok(match self {
            FabricSpec::FatTree { ports } => Box::new(FatTreeFabric::new(graph.n(), ports)?),
            FabricSpec::Torus { dims } => {
                let nodes = dims.0 * dims.1 * dims.2;
                if nodes < graph.n() {
                    return Err(NetsimError::TorusTooSmall {
                        dims,
                        nodes,
                        needs: graph.n(),
                    });
                }
                Box::new(TorusFabric::new(dims)?)
            }
            FabricSpec::Hfast => Box::new(HfastFabric::provisioned(graph, config, strategy)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hfast_topology::generators::ring_graph;

    fn build(spec: FabricSpec, graph: &CommGraph) -> Result<Box<dyn Fabric + Send>, NetsimError> {
        spec.build(graph, ProvisionConfig::default(), Strategy::PaperLinear)
    }

    #[test]
    fn fat_tree_spec_is_sized_to_the_graph() {
        let ring = ring_graph(12, 1 << 20);
        let ft = build(FabricSpec::FatTree { ports: 8 }, &ring).unwrap();
        assert_eq!((ft.name(), ft.nodes()), ("fat-tree", 12));
        assert_eq!(
            build(FabricSpec::FatTree { ports: 3 }, &ring).err(),
            Some(NetsimError::FatTreeArity { n_ports: 3 })
        );
    }

    #[test]
    fn torus_spec_is_built_as_given_and_refused_when_too_small() {
        let ring = ring_graph(9, 1 << 20);
        let torus = build(FabricSpec::Torus { dims: (3, 2, 2) }, &ring).unwrap();
        assert_eq!((torus.name(), torus.nodes()), ("torus", 12));
        let exact = build(FabricSpec::Torus { dims: (3, 3, 1) }, &ring).unwrap();
        assert_eq!(exact.nodes(), 9, "a torus that fits exactly builds");
        let small = build(FabricSpec::Torus { dims: (2, 2, 2) }, &ring).err();
        assert_eq!(
            small.map(|e| e.to_string()).as_deref(),
            Some("torus (2, 2, 2) holds 8 nodes, app needs 9")
        );
    }

    #[test]
    fn hfast_spec_is_provisioned_from_the_graph() {
        let ring = ring_graph(16, 1 << 20);
        let config = ProvisionConfig::default();
        let built = build(FabricSpec::Hfast, &ring).unwrap();
        let direct = HfastFabric::provisioned(&ring, config, Strategy::PaperLinear);
        assert_eq!(built.name(), direct.name());
        assert_eq!(built.link_count(), direct.link_count());
        for dst in 1..16 {
            assert_eq!(built.path(0, dst), direct.path(0, dst), "0 -> {dst}");
        }
    }

    #[test]
    fn serialization_time() {
        let l = LinkSpec::DEFAULT;
        assert_eq!(l.serialize_ns(0), 0);
        assert_eq!(l.serialize_ns(1024), 1024);
        let slow = LinkSpec {
            latency_ns: 10,
            bandwidth: 0.1,
        };
        assert_eq!(slow.serialize_ns(1000), 10_000);
    }
}
