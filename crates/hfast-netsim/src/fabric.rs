//! The fabric abstraction: links and paths.

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
    pub const DEFAULT: LinkSpec = LinkSpec {
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

#[cfg(test)]
mod tests {
    use super::*;

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
