//! One module per paper artifact: each exposes `run(scale) -> BenchResult<Table>`
//! (some return several tables) printing the same rows/series as the corresponding
//! figure or table in the paper's evaluation (Sec. VII).
//!
//! | Module | Paper artifact |
//! |---|---|
//! | [`fig05_path_similarity`] | Fig. 5a/5b — inter-class path similarity |
//! | [`tab02_theta_sensitivity`] | Table II — θ sensitivity of BwCu |
//! | [`fig10_accuracy`] | Fig. 10a/10b — accuracy vs EP and CDRP |
//! | [`fig11_latency_energy`] | Fig. 11a/11b — latency/energy vs EP |
//! | [`fig12_deepfense`] | Fig. 12a/12b — DeepFense comparison |
//! | [`fig13_adaptive`] | Fig. 13 — adaptive attacks |
//! | [`fig14_distortion`] | Fig. 14 — accuracy vs adaptive distortion |
//! | [`fig15_similarity_attack`] | Fig. 15 — accuracy vs source/target path similarity |
//! | [`fig16_early_termination`] | Fig. 16a/16b — BwCu early termination |
//! | [`fig17_late_start`] | Fig. 17a/17b — FwAb late start |
//! | [`fig18_hw_sensitivity`] | Fig. 18a/18b — path-constructor provisioning |
//! | [`sec7a_overhead`] | Sec. VII-A — area and DRAM-space overhead |
//! | [`sec7g_scaling`] | Sec. VII-G — 8-bit and 32×32 array variants |
//! | [`sec7h_large_models`] | Sec. VII-H — VGG/Inception/DenseNet results |
//! | [`sec3b_cost_analysis`] | Sec. III-B — software cost analysis |
//! | [`quantized_detect`] | beyond the paper — int8 vs f32 detection agreement and AUC |
//! | [`quantized_serve`] | beyond the paper — f32 screen vs int8 screen in the two-tier server |
//! | [`overload_survival`] | beyond the paper — goodput under overload with deadlines, admission and degradation |

pub mod fig05_path_similarity;
pub mod fig10_accuracy;
pub mod fig11_latency_energy;
pub mod fig12_deepfense;
pub mod fig13_adaptive;
pub mod fig14_distortion;
pub mod fig15_similarity_attack;
pub mod fig16_early_termination;
pub mod fig17_late_start;
pub mod fig18_hw_sensitivity;
pub mod overload_survival;
pub mod quantized_detect;
pub mod quantized_serve;
pub mod sec3b_cost_analysis;
pub mod sec7a_overhead;
pub mod sec7g_scaling;
pub mod sec7h_large_models;
pub mod tab02_theta_sensitivity;

use crate::{BenchResult, BenchScale, Table};

/// Identifier + runner for one experiment, used by the `ptolemy-bench` binary.
pub struct Experiment {
    /// Short identifier: the `ptolemy-bench` argument that runs just this one,
    /// and the `<id>` of its `BENCH_<id>.json` report.
    pub id: &'static str,
    /// The paper artifact this experiment regenerates.
    pub paper_artifact: &'static str,
    /// Runs the experiment and returns its printable tables.
    pub run: fn(BenchScale) -> BenchResult<Vec<Table>>,
}

/// Runs one experiment end to end: times it on the observability clock,
/// writes its `BENCH_<id>.json` perf report (see [`crate::emit`]) and returns
/// the printable tables plus the report path.
///
/// # Errors
///
/// Propagates the experiment's own error, or the report write failure.
pub fn run_and_emit(
    experiment: &Experiment,
    scale: BenchScale,
) -> BenchResult<(Vec<Table>, std::path::PathBuf)> {
    let clock = ptolemy_obs::Clock::monotonic();
    let start_ns = clock.now_ns();
    let tables = (experiment.run)(scale)?;
    let wall_us = clock.now_ns().saturating_sub(start_ns) / 1_000;
    let report = crate::emit::write(experiment.id, scale, wall_us, &tables)?;
    Ok((tables, report))
}

/// Every experiment in the harness, in paper order.
pub fn all() -> Vec<Experiment> {
    vec![
        Experiment {
            id: "sec3b_cost_analysis",
            paper_artifact: "Sec. III-B cost analysis",
            run: sec3b_cost_analysis::run,
        },
        Experiment {
            id: "fig05_path_similarity",
            paper_artifact: "Fig. 5a/5b",
            run: fig05_path_similarity::run,
        },
        Experiment {
            id: "tab02_theta_sensitivity",
            paper_artifact: "Table II",
            run: tab02_theta_sensitivity::run,
        },
        Experiment {
            id: "fig10_accuracy",
            paper_artifact: "Fig. 10a/10b",
            run: fig10_accuracy::run,
        },
        Experiment {
            id: "fig11_latency_energy",
            paper_artifact: "Fig. 11a/11b",
            run: fig11_latency_energy::run,
        },
        Experiment {
            id: "fig12_deepfense",
            paper_artifact: "Fig. 12a/12b",
            run: fig12_deepfense::run,
        },
        Experiment {
            id: "fig13_adaptive",
            paper_artifact: "Fig. 13",
            run: fig13_adaptive::run,
        },
        Experiment {
            id: "fig14_distortion",
            paper_artifact: "Fig. 14",
            run: fig14_distortion::run,
        },
        Experiment {
            id: "fig15_similarity_attack",
            paper_artifact: "Fig. 15",
            run: fig15_similarity_attack::run,
        },
        Experiment {
            id: "fig16_early_termination",
            paper_artifact: "Fig. 16a/16b",
            run: fig16_early_termination::run,
        },
        Experiment {
            id: "fig17_late_start",
            paper_artifact: "Fig. 17a/17b",
            run: fig17_late_start::run,
        },
        Experiment {
            id: "fig18_hw_sensitivity",
            paper_artifact: "Fig. 18a/18b",
            run: fig18_hw_sensitivity::run,
        },
        Experiment {
            id: "sec7a_overhead",
            paper_artifact: "Sec. VII-A",
            run: sec7a_overhead::run,
        },
        Experiment {
            id: "sec7g_scaling",
            paper_artifact: "Sec. VII-G",
            run: sec7g_scaling::run,
        },
        Experiment {
            id: "sec7h_large_models",
            paper_artifact: "Sec. VII-H",
            run: sec7h_large_models::run,
        },
        Experiment {
            id: "quantized_detect",
            paper_artifact: "beyond paper: int8 quantized detection path",
            run: quantized_detect::run,
        },
        Experiment {
            id: "quantized_serve",
            paper_artifact: "beyond paper: int8 quantized serving tier",
            run: quantized_serve::run,
        },
        Experiment {
            id: "overload_survival",
            paper_artifact: "beyond paper: overload survival under realistic traffic",
            run: overload_survival::run,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_every_paper_artifact_once() {
        let experiments = all();
        assert_eq!(experiments.len(), 18);
        let mut ids: Vec<&str> = experiments.iter().map(|e| e.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 18, "duplicate experiment ids");
        assert!(experiments.iter().all(|e| !e.paper_artifact.is_empty()));
    }
}
