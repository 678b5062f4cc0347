//! The paper's peta-scale argument, projected: sweep machine sizes from
//! today's clusters to 10⁶ processors and compare fat-tree versus HFAST
//! component demand for each application class.
//!
//! ```text
//! cargo run --release --example peta_scale_projection
//! ```

use hfast::core::AnalyticHfast;
use hfast::core::{CostModel, FatTree, ProvisionConfig};

fn main() {
    let model = CostModel::default();
    let config = ProvisionConfig {
        block_ports: 8, // commodity component size, as in the paper's example
        cutoff: 2048,
    };

    println!("packet-switch ports per processor (8-port components):\n");
    println!(
        "{:>10} {:>10} {:>14} {:>14} {:>14}",
        "P", "fat-tree", "HFAST TDC=6", "HFAST TDC=12", "HFAST TDC=30"
    );
    for exp in [6u32, 8, 10, 12, 14, 16, 18, 20] {
        let p = 1usize << exp;
        let ft = FatTree::for_processors(p, config.block_ports);
        let per_node =
            |tdc: usize| AnalyticHfast { p, tdc, config }.packet_ports() as f64 / p as f64;
        println!(
            "{:>10} {:>10} {:>14.0} {:>14.0} {:>14.0}",
            p,
            ft.ports_per_processor(),
            per_node(6),
            per_node(12),
            per_node(30)
        );
    }

    println!("\ntotal interconnect cost ratio (HFAST / fat-tree):\n");
    println!(
        "{:>10} {:>12} {:>12} {:>12}",
        "P", "TDC=6", "TDC=12", "TDC=30"
    );
    for exp in [6u32, 10, 14, 18, 20] {
        let p = 1usize << exp;
        let ft = FatTree::for_processors(p, config.block_ports).cost(&model);
        let ratio = |tdc: usize| AnalyticHfast { p, tdc, config }.cost(&model) / ft;
        println!(
            "{:>10} {:>12.2} {:>12.2} {:>12.2}",
            p,
            ratio(6),
            ratio(12),
            ratio(30)
        );
    }

    for tdc in [6usize, 12, 30] {
        match AnalyticHfast::crossover_p(tdc, config, &model) {
            Some(p) => println!("\nTDC {tdc}: HFAST becomes cheaper at P = {p}"),
            None => println!("\nTDC {tdc}: the fat tree stays cheaper at every scale"),
        }
    }
    println!(
        "\nshape (paper §5.3): the fat tree's per-processor port count grows \
         with log P while HFAST's stays constant; for low-TDC scientific \
         codes the lines cross within ultra-scale machine sizes, and never \
         cross for case-iv (full-bisection) codes."
    );
}
