//! Application metadata — paper Table 2.

/// One row of the paper's Table 2: the studied application's provenance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppMeta {
    /// Application name.
    pub name: &'static str,
    /// Approximate lines of code of the original application.
    pub lines: u32,
    /// Scientific discipline.
    pub discipline: &'static str,
    /// Problem and numerical method.
    pub problem: &'static str,
    /// Data-structure characterization.
    pub structure: &'static str,
}

/// The Table 2 rows, in paper order.
pub const TABLE2: [AppMeta; 6] = [
    AppMeta {
        name: "Cactus",
        lines: 84_000,
        discipline: "Astrophysics",
        problem: "Einstein's Theory of GR via Finite Differencing",
        structure: "Grid",
    },
    AppMeta {
        name: "LBMHD",
        lines: 1_500,
        discipline: "Plasma Physics",
        problem: "Magneto-Hydrodynamics via Lattice Boltzmann",
        structure: "Lattice/Grid",
    },
    AppMeta {
        name: "GTC",
        lines: 5_000,
        discipline: "Magnetic Fusion",
        problem: "Vlasov-Poisson Equation via Particle in Cell",
        structure: "Particle/Grid",
    },
    AppMeta {
        name: "SuperLU",
        lines: 42_000,
        discipline: "Linear Algebra",
        problem: "Sparse Solve via LU Decomposition",
        structure: "Sparse Matrix",
    },
    AppMeta {
        name: "PMEMD",
        lines: 37_000,
        discipline: "Life Sciences",
        problem: "Molecular Dynamics via Particle Mesh Ewald",
        structure: "Particle",
    },
    AppMeta {
        name: "PARATEC",
        lines: 50_000,
        discipline: "Material Science",
        problem: "Density Functional Theory via FFT",
        structure: "Fourier/Grid",
    },
];

/// Looks up a Table 2 row by application name.
pub(crate) fn lookup(name: &str) -> Option<AppMeta> {
    TABLE2.iter().copied().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_matches_paper() {
        assert_eq!(TABLE2.len(), 6);
        assert_eq!(lookup("Cactus").unwrap().lines, 84_000);
        assert_eq!(lookup("PARATEC").unwrap().discipline, "Material Science");
        assert_eq!(lookup("GTC").unwrap().structure, "Particle/Grid");
        assert!(lookup("Chombo").is_none());
    }
}
