//! ICN — the Interconnection Cached Network (Gupta & Schenfeld), the
//! bounded-degree alternative the paper contrasts HFAST against (§2.2).
//!
//! An ICN organizes processing elements into blocks of size *k* joined by
//! small crossbars, with the k-blocks linked through a circuit switch — the
//! *inverse* of HFAST ("the processors are connected to the packet switch
//! via the circuit switch, whereas the ICN uses processors that are
//! connected to the circuit switch via an intervening packet switch").
//! An ICN can embed a communication graph only if the *bounded contraction*
//! of the topology — the degree of every node group — stays below *k*;
//! finding such an embedding is NP-complete for general graphs when k > 2.
//!
//! This module implements a polynomial-time embedding heuristic plus the
//! checks that make the paper's case analysis concrete: case-ii codes
//! (bounded uniform degree) embed; case-iii codes (divergent max TDC)
//! overflow the fixed per-PE crossbar and fail.

use hfast_topology::CommGraph;

use crate::clique;
use crate::provision::ProvisionConfig;

/// ICN configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IcnConfig {
    /// Processing elements per block (the crossbar size *k*).
    pub block_size: usize,
    /// Message-size cutoff for the embedded topology.
    pub cutoff: u64,
}

impl Default for IcnConfig {
    fn default() -> Self {
        IcnConfig {
            block_size: 16,
            cutoff: hfast_topology::BDP_CUTOFF,
        }
    }
}

/// Why an embedding attempt failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IcnError {
    /// A node's thresholded degree exceeds what one PE's crossbar share can
    /// carry without multi-path sharing (the paper: "if the communication
    /// topology has nodes with degree greater than k, some of the messages
    /// will need to take more than one path … bandwidth is reduced").
    DegreeOverflow {
        /// The offending node.
        node: usize,
        /// Its thresholded degree.
        degree: usize,
        /// The block size it must fit under.
        k: usize,
    },
}

impl std::fmt::Display for IcnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IcnError::DegreeOverflow { node, degree, k } => write!(
                f,
                "node {node} has degree {degree} ≥ block size {k}: messages must share paths"
            ),
        }
    }
}

/// A successful ICN embedding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IcnEmbedding {
    /// Block index per node.
    pub node_block: Vec<usize>,
    /// Number of k-blocks used.
    pub blocks: usize,
    /// Inter-block circuit connections required (unique block pairs with
    /// at least one edge between them).
    pub circuit_links: usize,
    /// Edges served inside one block's crossbar.
    pub intra_edges: usize,
}

/// Attempts to embed `graph` into an ICN of `config.block_size`-PE blocks.
///
/// Heuristic (polynomial): nodes are clustered into blocks with the same
/// greedy neighbourhood packing used for HFAST clique mapping; the
/// embedding is accepted iff every node's thresholded degree is below the
/// block size — the necessary condition the paper states, and the one that
/// separates case ii from case iii. (The full bounded-contraction test is
/// NP-complete; this heuristic can reject embeddable graphs but never
/// accepts an overflowing one.)
pub fn embed(graph: &CommGraph, config: &IcnConfig) -> Result<IcnEmbedding, IcnError> {
    let k = config.block_size;
    for node in 0..graph.n() {
        let degree = graph.degree_thresholded(node, config.cutoff);
        if degree >= k {
            return Err(IcnError::DegreeOverflow { node, degree, k });
        }
    }
    // Reuse the clique clustering: ICN blocks are fixed-size PE groups, so
    // cap clusters at k members (port feasibility in the HFAST heuristic
    // already bounds them more tightly; split any oversize remainder).
    let prov_config = ProvisionConfig {
        block_ports: k,
        cutoff: config.cutoff,
    };
    let mut clusters = clique::cluster_nodes(graph, &prov_config);
    let mut fixed = Vec::new();
    for c in clusters.drain(..) {
        if c.len() <= k {
            fixed.push(c);
        } else {
            for chunk in c.chunks(k) {
                fixed.push(chunk.to_vec());
            }
        }
    }
    let mut node_block = vec![usize::MAX; graph.n()];
    for (b, members) in fixed.iter().enumerate() {
        for &v in members {
            node_block[v] = b;
        }
    }
    let mut intra = 0usize;
    let mut links = std::collections::BTreeSet::new();
    for (a, b, _) in graph.edges().filter(|(_, _, e)| e.max_msg >= config.cutoff) {
        if node_block[a] == node_block[b] {
            intra += 1;
        } else {
            let (lo, hi) = (
                node_block[a].min(node_block[b]),
                node_block[a].max(node_block[b]),
            );
            links.insert((lo, hi));
        }
    }
    Ok(IcnEmbedding {
        blocks: fixed.len(),
        node_block,
        circuit_links: links.len(),
        intra_edges: intra,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hfast_topology::generators::{mesh3d_graph, ring_graph};
    use hfast_topology::CommGraph;

    #[test]
    fn bounded_degree_pattern_embeds() {
        // LBMHD-class (case ii): uniform degree 12 < k = 16.
        let mut g = CommGraph::new(64);
        for v in 0..64usize {
            for j in [5usize, 11, 17, 23, 29, 35] {
                g.add_message(v, (v + j) % 64, 800 << 10);
            }
        }
        let emb = embed(&g, &IcnConfig::default()).expect("case-ii embeds");
        assert!(emb.blocks >= 4);
        assert!(emb.node_block.iter().all(|&b| b < emb.blocks));
    }

    #[test]
    fn divergent_degree_overflows() {
        // GTC/PMEMD-class (case iii): one node with degree ≥ k.
        let mut g = ring_graph(64, 128 << 10);
        for u in 1..30usize {
            g.add_message(0, u, 4096);
        }
        let err = embed(&g, &IcnConfig::default()).unwrap_err();
        match err {
            IcnError::DegreeOverflow {
                node: 0,
                degree,
                k: 16,
            } => {
                assert!(degree >= 16);
            }
            other => panic!("unexpected: {other:?}"),
        }
        assert!(err.to_string().contains("share paths"));
    }

    #[test]
    fn mesh_embeds_with_intra_block_savings() {
        let g = mesh3d_graph((4, 4, 4), 300 << 10);
        let emb = embed(&g, &IcnConfig::default()).expect("mesh embeds");
        assert!(
            emb.intra_edges > 0,
            "neighbourhood packing keeps some edges inside blocks"
        );
        assert!(emb.blocks <= 64);
    }

    #[test]
    fn cutoff_determines_embeddability() {
        // Full tiny-message connectivity + a big ring: overflowing uncut,
        // embeddable at the BDP cutoff.
        let mut g = ring_graph(32, 1 << 20);
        for a in 0..32usize {
            for b in (a + 1)..32 {
                g.add_message(a, b, 64);
            }
        }
        assert!(embed(
            &g,
            &IcnConfig {
                block_size: 16,
                cutoff: 0
            }
        )
        .is_err());
        assert!(embed(&g, &IcnConfig::default()).is_ok());
    }

    #[test]
    fn empty_graph_embeds_trivially() {
        let g = CommGraph::new(8);
        let emb = embed(&g, &IcnConfig::default()).unwrap();
        assert_eq!(emb.intra_edges, 0);
        assert_eq!(emb.circuit_links, 0);
    }
}
