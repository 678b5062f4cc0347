//! `hfast-analyze` — capture and analyze communication traces.
//!
//! The offline workflow the paper used (profile on the production machine,
//! analyze later), as a CLI:
//!
//! ```text
//! hfast-analyze capture <app> <procs> <trace-file>   # run a kernel, save trace
//! hfast-analyze report <trace-file>                  # analyze a saved trace
//! hfast-analyze apps                                 # list available kernels
//! ```

use std::process::ExitCode;

use hfast::apps::{all_apps, profile_app};
use hfast::core::{
    classify, ClassifyConfig, CostComparison, CostModel, PaperLinear, ProvisionConfig, Provisioner,
};
use hfast::ipm::MAX_PROFILE_SIZE;
use hfast::ipm::{from_text, render, to_text};
use hfast::topology::render_ascii;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  hfast-analyze capture <app> <procs> <trace-file>\n  \
         hfast-analyze report <trace-file>\n  hfast-analyze apps"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("apps") => {
            for app in all_apps() {
                let m = app.meta();
                println!("{:<9} {} ({})", m.name, m.problem, m.discipline);
            }
            ExitCode::SUCCESS
        }
        Some("capture") => {
            let [_, name, procs, path] = args.as_slice() else {
                return usage();
            };
            let Ok(procs) = procs.parse::<usize>() else {
                eprintln!("invalid processor count {procs:?}");
                return ExitCode::from(2);
            };
            if procs == 0 || procs > MAX_PROFILE_SIZE {
                eprintln!("processor count must be between 1 and {MAX_PROFILE_SIZE}, got {procs}");
                return ExitCode::from(2);
            }
            let Some(app) = all_apps()
                .into_iter()
                .find(|a| a.name().eq_ignore_ascii_case(name))
            else {
                eprintln!("unknown app {name:?}; try `hfast-analyze apps`");
                return ExitCode::from(2);
            };
            let outcome = match profile_app(app.as_ref(), procs) {
                Ok(o) => o,
                Err(e) => {
                    eprintln!("profiled run failed: {e}");
                    return ExitCode::FAILURE;
                }
            };
            if let Err(e) = std::fs::write(path, to_text(&outcome.steady)) {
                eprintln!("cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            println!(
                "captured {} at P={procs}: {} calls → {path}",
                outcome.name,
                outcome.steady.total_calls()
            );
            ExitCode::SUCCESS
        }
        Some("report") => {
            let [_, path] = args.as_slice() else {
                return usage();
            };
            let text = match std::fs::read_to_string(path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("cannot read {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let profile = match from_text(&text) {
                Ok(p) => p,
                Err(e) => {
                    eprintln!("cannot parse {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            print!("{}", render(path, &profile));
            let graph = profile.comm_graph();
            println!("\nvolume matrix:");
            print!("{}", render_ascii(&graph, graph.n().div_ceil(48).max(1)));
            let verdict = classify(&graph, &ClassifyConfig::default());
            println!("\nclassification: {} — {}", verdict.case, verdict.rationale);
            println!("prescription:   {}", verdict.case.prescription());
            let prov = PaperLinear.provision(&graph, ProvisionConfig::default());
            let cmp = CostComparison::of(&prov, &CostModel::default());
            println!(
                "\nHFAST provisioning: {} blocks, {:.0} packet ports/node, \
                 cost ratio vs fat tree {:.2}",
                prov.total_blocks(),
                prov.block_ports_per_node(),
                cmp.ratio()
            );
            ExitCode::SUCCESS
        }
        _ => usage(),
    }
}
