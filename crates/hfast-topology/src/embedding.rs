//! Regular-topology detection.
//!
//! Paper §2.5 classifies applications by whether their communication pattern
//! is *isotropic* (topologically regular) and whether it embeds in a fixed
//! low-degree network. This module provides:
//!
//! * [`detect_structure`] — tests a communication graph against canonical
//!   regular topologies (ring, 2D/3D mesh and torus, hypercube, fully
//!   connected) under the natural row-major rank labeling. Applications
//!   decompose their domains row-major over ranks, so this captures "the
//!   communication pattern maps isomorphically onto a mesh" for real codes
//!   without solving general graph isomorphism (which is not known to be
//!   polynomial). A negative result therefore means "does not embed with the
//!   natural labeling", a deliberately conservative answer.

use crate::generators::{mesh3d_neighbors, torus3d_neighbors};
use crate::graph::CommGraph;

/// Detected regular structure of a communication graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StructureClass {
    /// Degenerate: no communication edges at all.
    Empty,
    /// 1D ring (each task talks to exactly its two cyclic neighbours).
    Ring,
    /// Non-periodic mesh with the given dimensions (1-long dims dropped).
    Mesh3D(usize, usize, usize),
    /// Periodic torus with the given dimensions.
    Torus3D(usize, usize, usize),
    /// Hypercube of the given dimensionality.
    Hypercube(u32),
    /// Every pair of tasks communicates.
    FullyConnected,
    /// None of the canonical structures matched.
    Irregular,
}

impl std::fmt::Display for StructureClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StructureClass::Empty => write!(f, "empty"),
            StructureClass::Ring => write!(f, "ring"),
            StructureClass::Mesh3D(x, y, z) => write!(f, "{x}x{y}x{z} mesh"),
            StructureClass::Torus3D(x, y, z) => write!(f, "{x}x{y}x{z} torus"),
            StructureClass::Hypercube(d) => write!(f, "{d}-cube"),
            StructureClass::FullyConnected => write!(f, "fully connected"),
            StructureClass::Irregular => write!(f, "irregular"),
        }
    }
}

/// Thresholded adjacency set of `v`, sorted.
fn adjacency(graph: &CommGraph, v: usize, cutoff: u64) -> Vec<usize> {
    let mut adj: Vec<usize> = graph
        .neighbors_thresholded(v, cutoff)
        .map(|(u, _)| u)
        .collect();
    adj.sort_unstable();
    adj
}

/// True if the graph's thresholded adjacency equals `expected` for every
/// vertex.
fn matches(graph: &CommGraph, cutoff: u64, expected: impl Fn(usize) -> Vec<usize>) -> bool {
    (0..graph.n()).all(|v| adjacency(graph, v, cutoff) == expected(v))
}

/// All factorizations of `n` into `(x, y, z)` with `x ≤ y ≤ z`.
fn factorizations3(n: usize) -> Vec<(usize, usize, usize)> {
    let mut out = vec![];
    let mut x = 1;
    while x * x * x <= n {
        if n.is_multiple_of(x) {
            let rest = n / x;
            let mut y = x;
            while y * y <= rest {
                if rest.is_multiple_of(y) {
                    out.push((x, y, rest / y));
                }
                y += 1;
            }
        }
        x += 1;
    }
    out
}

/// Tests a communication graph against the canonical regular topologies at a
/// message-size cutoff. See the module docs for the labeling caveat.
pub fn detect_structure(graph: &CommGraph, cutoff: u64) -> StructureClass {
    let n = graph.n();
    if n == 0 || (0..n).all(|v| graph.degree_thresholded(v, cutoff) == 0) {
        return StructureClass::Empty;
    }

    // Fully connected first: it subsumes every other pattern.
    if matches(graph, cutoff, |v| {
        (0..n).filter(|&u| u != v).collect::<Vec<_>>()
    }) {
        return StructureClass::FullyConnected;
    }

    // Ring (check before torus: a ring is a 1D torus).
    if n > 2
        && matches(graph, cutoff, |v| {
            let mut a = vec![(v + 1) % n, (v + n - 1) % n];
            a.sort_unstable();
            a.dedup();
            a
        })
    {
        return StructureClass::Ring;
    }

    // Hypercube.
    if n.is_power_of_two() && n >= 4 {
        let d = n.trailing_zeros();
        if matches(graph, cutoff, |v| {
            let mut a: Vec<usize> = (0..d).map(|b| v ^ (1 << b)).collect();
            a.sort_unstable();
            a
        }) {
            return StructureClass::Hypercube(d);
        }
    }

    // Meshes and torii over every factorization. A path reports as a
    // 1x1xN mesh; the 1x1xN torus never fires because the ring case above
    // already claimed it.
    for dims in factorizations3(n) {
        if matches(graph, cutoff, |v| mesh3d_neighbors(dims, v)) {
            return StructureClass::Mesh3D(dims.0, dims.1, dims.2);
        }
        if matches(graph, cutoff, |v| torus3d_neighbors(dims, v)) {
            return StructureClass::Torus3D(dims.0, dims.1, dims.2);
        }
    }

    StructureClass::Irregular
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::*;

    #[test]
    fn detects_ring() {
        let g = ring_graph(8, 1000);
        assert_eq!(detect_structure(&g, 0), StructureClass::Ring);
    }

    #[test]
    fn detects_mesh3d() {
        let g = mesh3d_graph((4, 4, 4), 1000);
        assert_eq!(detect_structure(&g, 0), StructureClass::Mesh3D(4, 4, 4));
    }

    #[test]
    fn detects_2d_mesh_as_flat_3d() {
        let g = mesh3d_graph((1, 4, 4), 1000);
        assert_eq!(detect_structure(&g, 0), StructureClass::Mesh3D(1, 4, 4));
    }

    #[test]
    fn detects_torus() {
        let g = torus3d_graph((4, 4, 4), 1000);
        assert_eq!(detect_structure(&g, 0), StructureClass::Torus3D(4, 4, 4));
    }

    #[test]
    fn detects_hypercube() {
        let g = hypercube_graph(16, 1000);
        assert_eq!(detect_structure(&g, 0), StructureClass::Hypercube(4));
    }

    #[test]
    fn detects_fully_connected() {
        let g = complete_graph(6, 1000);
        assert_eq!(detect_structure(&g, 0), StructureClass::FullyConnected);
    }

    #[test]
    fn irregular_pattern_detected() {
        let mut g = ring_graph(8, 1000);
        g.add_message(0, 4, 1000); // chord breaks the ring
        assert_eq!(detect_structure(&g, 0), StructureClass::Irregular);
    }

    #[test]
    fn empty_graph() {
        let g = CommGraph::new(4);
        assert_eq!(detect_structure(&g, 0), StructureClass::Empty);
    }

    #[test]
    fn cutoff_reveals_structure() {
        // A mesh of big messages polluted with tiny all-pairs control
        // traffic is fully connected unthresholded but a mesh at the BDP
        // cutoff. (2x2x3 rather than 2x2x2, which is a 3-cube.)
        let mut g = mesh3d_graph((2, 2, 3), 100_000);
        for a in 0..12 {
            for b in (a + 1)..12 {
                g.add_message(a, b, 16);
            }
        }
        assert_eq!(detect_structure(&g, 0), StructureClass::FullyConnected);
        assert_eq!(detect_structure(&g, 2048), StructureClass::Mesh3D(2, 2, 3));
    }

    #[test]
    fn factorizations_complete() {
        let f = factorizations3(12);
        assert!(f.contains(&(1, 3, 4)));
        assert!(f.contains(&(2, 2, 3)));
        assert!(f.contains(&(1, 1, 12)));
        for (x, y, z) in f {
            assert_eq!(x * y * z, 12);
            assert!(x <= y && y <= z);
        }
    }
}
