//! The one experiment CLI: `ptolemy-bench [all | list | <experiment-id>…]`.
//!
//! Runs the selected experiments of [`experiments::all`] in paper order (all
//! of them with no argument or `all`), printing each one's paper artifact,
//! measured tables and shape checks and writing its `BENCH_<id>.json` perf
//! report; `list` prints the experiment ids.  Exits 1 if an experiment
//! failed, 2 on an unknown id.
//!
//! Run with `cargo run --release -p ptolemy-bench -- fig10_accuracy`; set
//! `PTOLEMY_BENCH_SCALE=full` for the larger configuration and
//! `PTOLEMY_BENCH_OUT` to redirect the perf reports (default `target/bench/`).

use ptolemy_bench::{experiments, BenchScale};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let all = experiments::all();
    let ids: Vec<&str> = all.iter().map(|e| e.id).collect();
    if args == ["list"] {
        println!("{}", ids.join("\n"));
        return;
    }
    let everything = args.is_empty() || args == ["all"];
    let selected = |id: &str| everything || args.iter().any(|arg| arg == id);
    if let Some(unknown) = args
        .iter()
        .find(|arg| !everything && !ids.contains(&arg.as_str()))
    {
        eprintln!("unknown experiment: {unknown}");
        eprintln!("experiments:\n  {}", ids.join("\n  "));
        std::process::exit(2);
    }

    let scale = BenchScale::from_env();
    let mut failures = 0usize;
    for experiment in all.iter().filter(|e| selected(e.id)) {
        println!("################################################################");
        println!("# {} — {}", experiment.id, experiment.paper_artifact);
        println!("################################################################");
        match experiments::run_and_emit(experiment, scale) {
            Ok((tables, report)) => {
                for table in tables {
                    println!("{table}");
                }
                println!("perf report: {}", report.display());
            }
            Err(error) => {
                failures += 1;
                eprintln!("experiment {} failed: {error}", experiment.id);
            }
        }
    }
    if failures > 0 {
        eprintln!("{failures} experiment(s) failed");
        std::process::exit(1);
    }
}
