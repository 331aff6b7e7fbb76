//! Table II — sensitivity of BwCu accuracy, latency and energy to θ.
//!
//! The paper sweeps the cumulative threshold θ over {0.1, 0.5, 0.9} and reports
//! that accuracy peaks at θ = 0.5 (0.94) while latency and energy grow almost
//! proportionally with θ (4.7×/2.9× → 12.3×/7.7× → 25.7×/15.6×), because a larger
//! θ selects more important neurons and therefore sorts and accumulates more
//! partial sums.  θ = 0.5 is the operating point used for the rest of the paper.
//!
//! Shape to check: accuracy is highest at the middle θ (or at least not improved by
//! θ = 0.9), and latency/energy increase monotonically with θ.

use ptolemy_accel::HardwareConfig;
use ptolemy_core::variants;

use crate::{auc_summary, fmt3, fmt_factor, BenchResult, BenchScale, Table, Workbench};

/// The θ values of Table II.
pub const THETAS: [f32; 3] = [0.1, 0.5, 0.9];
/// Paper accuracy at each θ.
pub const PAPER_ACCURACY: [f32; 3] = [0.86, 0.94, 0.91];
/// Paper latency factor at each θ.
pub const PAPER_LATENCY: [f64; 3] = [4.7, 12.3, 25.7];
/// Paper energy factor at each θ.
pub const PAPER_ENERGY: [f64; 3] = [2.9, 7.7, 15.6];

/// Runs the experiment.
///
/// # Errors
///
/// Propagates workbench, attack, compiler and hardware-model errors.
pub fn run(scale: BenchScale) -> BenchResult<Vec<Table>> {
    let wb = Workbench::alexnet_imagenet(scale)?;
    let attack_sets = wb.attack_sets()?;
    let benign = wb.benign_inputs(scale.attack_samples());
    let config = HardwareConfig::default();

    let mut table = Table::new("Table II — BwCu sensitivity to theta (AlexNet-class)").header([
        "theta",
        "accuracy (AUC)",
        "latency",
        "energy",
        "paper acc/lat/energy",
    ]);

    let mut measured = Vec::new();
    for (i, &theta) in THETAS.iter().enumerate() {
        let program = variants::bw_cu(&wb.network, theta)?;
        let class_paths = wb.profile(&program)?;
        let per_attack: Vec<(String, f32)> = attack_sets
            .iter()
            .map(|(name, adversarial)| {
                wb.detection_auc(&program, &class_paths, &benign, adversarial)
                    .map(|auc| (name.clone(), auc))
            })
            .collect::<BenchResult<_>>()?;
        let (mean, _, _) = auc_summary(&per_attack);
        let density = wb.measured_density(&program)?;
        let report = wb.variant_cost(&program, &config, density)?;
        measured.push((theta, mean, report.latency_factor(), report.energy_factor()));
        table.row([
            format!("{theta:.1}"),
            fmt3(mean),
            fmt_factor(report.latency_factor()),
            fmt_factor(report.energy_factor()),
            format!(
                "{:.2} / {:.1}x / {:.1}x",
                PAPER_ACCURACY[i], PAPER_LATENCY[i], PAPER_ENERGY[i]
            ),
        ]);
    }

    let latency_monotone = measured.windows(2).all(|w| w[1].2 >= w[0].2);
    let energy_monotone = measured.windows(2).all(|w| w[1].3 >= w[0].3);
    table.check("latency grows with theta", latency_monotone);
    table.check("energy grows with theta", energy_monotone);
    table.check(
        "theta = 0.9 does not beat theta = 0.5 in accuracy",
        measured[2].1 <= measured[1].1 + 0.02,
    );

    Ok(vec![table])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[allow(
        clippy::assertions_on_constants,
        reason = "pins the relations between the paper's published constants"
    )]
    fn paper_rows_are_internally_consistent() {
        assert!(PAPER_ACCURACY[1] >= PAPER_ACCURACY[0]);
        assert!(PAPER_ACCURACY[1] >= PAPER_ACCURACY[2]);
        assert!(PAPER_LATENCY.windows(2).all(|w| w[1] > w[0]));
        assert!(PAPER_ENERGY.windows(2).all(|w| w[1] > w[0]));
    }
}
