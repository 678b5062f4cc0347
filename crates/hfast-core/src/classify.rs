//! The paper's §2.5 application taxonomy: cases i-iv.
//!
//! * **Case i** — isotropic, low bounded TDC: maps onto a fixed mesh/torus.
//! * **Case ii** — anisotropic (irregular) but low bounded TDC: needs an
//!   adaptive interconnect; a bounded-degree approach (ICN) suffices.
//! * **Case iii** — low *average* TDC but arbitrarily large maximum: needs
//!   HFAST's flexibly assignable switch pool.
//! * **Case iv** — TDC ≈ P: only a fully connected network serves it.

use hfast_topology::{detect_structure, tdc, CommGraph, StructureClass};

/// The four interconnect-requirement classes of paper §2.5.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CaseClass {
    /// Isotropic, bounded low TDC → fixed mesh/torus suffices.
    CaseI,
    /// Anisotropic, bounded low TDC → bounded-degree adaptive (ICN).
    CaseII,
    /// Low average TDC, unbounded max TDC → HFAST.
    CaseIII,
    /// TDC ≈ P → fully connected network required.
    CaseIV,
}

impl CaseClass {
    /// The interconnect family the paper prescribes for this class.
    pub fn prescription(self) -> &'static str {
        match self {
            CaseClass::CaseI => "fixed mesh/torus (or any adaptive network)",
            CaseClass::CaseII => "bounded-degree adaptive network (ICN or HFAST)",
            CaseClass::CaseIII => "HFAST (flexibly assignable switch blocks)",
            CaseClass::CaseIV => "fully connected network (fat tree/crossbar)",
        }
    }
}

impl std::fmt::Display for CaseClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CaseClass::CaseI => write!(f, "case i"),
            CaseClass::CaseII => write!(f, "case ii"),
            CaseClass::CaseIII => write!(f, "case iii"),
            CaseClass::CaseIV => write!(f, "case iv"),
        }
    }
}

/// Classification thresholds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassifyConfig {
    /// Message-size cutoff applied before classification (the 2 KB BDP).
    pub cutoff: u64,
    /// "Low bounded TDC" bound — the switch-block partner capacity is the
    /// natural choice (15 for 16-port blocks).
    pub low_tdc: usize,
    /// Fraction of `P − 1` above which the average TDC is "full": case iv.
    pub full_fraction: f64,
    /// Max-over-average TDC ratio beyond which the pattern counts as
    /// non-uniform (case iii): "the average TDC is bounded by a small
    /// number, while the maximum TDC is arbitrarily large".
    pub divergence: f64,
}

impl Default for ClassifyConfig {
    fn default() -> Self {
        ClassifyConfig {
            cutoff: hfast_topology::BDP_CUTOFF,
            low_tdc: 15,
            full_fraction: 0.5,
            divergence: 2.0,
        }
    }
}

/// Detailed classification result.
#[derive(Debug, Clone, PartialEq)]
pub struct Classification {
    /// The assigned class.
    pub case: CaseClass,
    /// Thresholded max TDC.
    pub max_tdc: usize,
    /// Thresholded average TDC.
    pub avg_tdc: f64,
    /// Detected regular structure, if any.
    pub structure: StructureClass,
    /// Human-readable reasoning.
    pub rationale: String,
}

/// Classifies a communication graph into the paper's case i-iv taxonomy.
pub fn classify(graph: &CommGraph, config: &ClassifyConfig) -> Classification {
    let n = graph.n();
    let summary = tdc(graph, config.cutoff);
    let structure = detect_structure(graph, config.cutoff);
    let full = (n.saturating_sub(1)) as f64 * config.full_fraction;

    let (case, rationale) = if n > 1 && summary.avg >= full {
        (
            CaseClass::CaseIV,
            format!(
                "average TDC {:.1} ≈ P−1 = {}: full bisection required",
                summary.avg,
                n - 1
            ),
        )
    } else if matches!(
        structure,
        StructureClass::Ring
            | StructureClass::Mesh3D(..)
            | StructureClass::Torus3D(..)
            | StructureClass::Hypercube(..)
    ) {
        (
            CaseClass::CaseI,
            format!("isotropic {structure} pattern with max TDC {}", summary.max),
        )
    } else if summary.max <= config.low_tdc
        && (summary.max as f64) <= config.divergence * summary.avg.max(1.0)
    {
        (
            CaseClass::CaseII,
            format!(
                "irregular but uniformly bounded: max TDC {} ≤ {} and within {}x of avg {:.1}",
                summary.max, config.low_tdc, config.divergence, summary.avg
            ),
        )
    } else {
        (
            CaseClass::CaseIII,
            format!(
                "average TDC {:.1} low but max TDC {} diverges (block degree {}, {}x bound)",
                summary.avg, summary.max, config.low_tdc, config.divergence
            ),
        )
    };

    Classification {
        case,
        max_tdc: summary.max,
        avg_tdc: summary.avg,
        structure,
        rationale,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hfast_topology::generators::*;

    fn classify_default(g: &CommGraph) -> Classification {
        classify(g, &ClassifyConfig::default())
    }

    #[test]
    fn mesh_is_case_i() {
        // Cactus-like regular stencil.
        let g = mesh3d_graph((4, 4, 4), 300 << 10);
        let c = classify_default(&g);
        assert_eq!(c.case, CaseClass::CaseI);
        assert_eq!(c.structure, StructureClass::Mesh3D(4, 4, 4));
    }

    #[test]
    fn irregular_bounded_is_case_ii() {
        // LBMHD-like: 12 scattered partners each, not a mesh.
        let n = 64;
        let mut g = CommGraph::new(n);
        for v in 0..n {
            for j in 1..=6usize {
                let u = (v + j * 7 + 3) % n; // scattered but regular-degree
                if u != v {
                    g.add_message(v, u, 800 << 10);
                }
            }
        }
        let c = classify_default(&g);
        assert_eq!(c.structure, StructureClass::Irregular);
        assert!(c.max_tdc <= 15, "bounded: {}", c.max_tdc);
        assert_eq!(c.case, CaseClass::CaseII);
    }

    #[test]
    fn divergent_max_is_case_iii() {
        // GTC/PMEMD-like: ring plus a few very-high-degree nodes.
        let n = 64;
        let mut g = ring_graph(n, 128 << 10);
        for u in 1..40 {
            g.add_message(0, u, 4096);
        }
        let c = classify_default(&g);
        assert_eq!(c.case, CaseClass::CaseIII);
        assert!(c.max_tdc > 15);
        assert!(c.avg_tdc < 8.0);
    }

    #[test]
    fn full_connectivity_is_case_iv() {
        let g = complete_graph(32, 32 << 10);
        let c = classify_default(&g);
        assert_eq!(c.case, CaseClass::CaseIV);
    }

    #[test]
    fn cutoff_can_change_the_class() {
        // Fully connected by tiny messages + a big-message ring: case iv
        // without thresholding (cutoff 0), case i at the BDP cutoff.
        let n = 16;
        let mut g = ring_graph(n, 1 << 20);
        for a in 0..n {
            for b in (a + 1)..n {
                g.add_message(a, b, 64);
            }
        }
        let uncut = classify(
            &g,
            &ClassifyConfig {
                cutoff: 0,
                ..Default::default()
            },
        );
        assert_eq!(uncut.case, CaseClass::CaseIV);
        let cut = classify_default(&g);
        assert_eq!(cut.case, CaseClass::CaseI);
        assert_eq!(cut.structure, StructureClass::Ring);
    }

    #[test]
    fn prescriptions_are_distinct() {
        let all = [
            CaseClass::CaseI,
            CaseClass::CaseII,
            CaseClass::CaseIII,
            CaseClass::CaseIV,
        ];
        for (i, a) in all.iter().enumerate() {
            for b in &all[i + 1..] {
                assert_ne!(a.prescription(), b.prescription());
            }
        }
        assert_eq!(CaseClass::CaseIII.to_string(), "case iii");
    }
}
