//! Software-side cost accounting for a detection program (paper Sec. III-B).
//!
//! This module quantifies what a *pure software* implementation of path extraction
//! would have to do — how many partial sums must be materialised, how many
//! sort/compare/accumulate operations run, how much extra memory traffic that
//! implies — relative to the inference itself.  It reproduces the observations the
//! paper uses to motivate the hardware: cumulative thresholds force every partial
//! sum to memory (9–420× memory overhead at full scale) while absolute thresholds
//! only store single-bit masks, and sorting dominates the compute overhead.
//!
//! The cycle-accurate hardware costs live in `ptolemy-accel`; this report is the
//! algorithm-level counterpart used by the Sec. III-B cost-analysis experiment.

use ptolemy_nn::{LayerKind, Network};

use crate::extraction::path_layout;
use crate::{DetectionProgram, Direction, Result};

/// Operation and memory counts of a software implementation of one detection pass.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SoftwareCostReport {
    /// Multiply-accumulate operations of the inference itself.
    pub inference_macs: u64,
    /// Partial sums that must be written to memory (cumulative-threshold layers).
    pub partial_sums_stored: u64,
    /// Single-bit masks that must be written to memory (absolute-threshold layers).
    pub mask_bits_stored: u64,
    /// Elements passed through sorting networks during extraction.
    pub sort_elements: u64,
    /// Comparison operations (absolute thresholding and sorting comparisons).
    pub compare_ops: u64,
    /// Accumulation operations (cumulative thresholding).
    pub accumulate_ops: u64,
    /// Bytes of extra memory traffic introduced by detection.
    pub extra_memory_bytes: u64,
    /// Bytes of activation traffic the inference itself produces (for comparison).
    pub inference_activation_bytes: u64,
}

impl SoftwareCostReport {
    /// Ratio of extra detection memory traffic to inference activation traffic.
    pub fn memory_overhead_ratio(&self) -> f64 {
        if self.inference_activation_bytes == 0 {
            0.0
        } else {
            self.extra_memory_bytes as f64 / self.inference_activation_bytes as f64
        }
    }

    /// Ratio of extraction compute (sorts, compares, accumulates) to inference MACs.
    pub fn compute_overhead_ratio(&self) -> f64 {
        if self.inference_macs == 0 {
            0.0
        } else {
            (self.sort_elements + self.compare_ops + self.accumulate_ops) as f64
                / self.inference_macs as f64
        }
    }
}

/// Estimates the software cost of running `program` on `network`, assuming a
/// fraction `important_density` of each feature map is important (the paper reports
/// this stays below ~5%; pass a measured [`crate::ActivationPath::density`] for an
/// input-specific estimate).
///
/// # Errors
///
/// Returns [`crate::CoreError::InvalidProgram`] if the program does not match the
/// network.
pub fn software_cost(
    network: &Network,
    program: &DetectionProgram,
    important_density: f32,
) -> Result<SoftwareCostReport> {
    let density = important_density.clamp(0.0, 1.0) as f64;
    // Validate compatibility up front.
    let _ = path_layout(network, program)?;
    let weight_layers = network.weight_layer_indices();

    let mut report = SoftwareCostReport {
        inference_macs: network.total_macs(),
        ..SoftwareCostReport::default()
    };
    for layer in network.layers() {
        report.inference_activation_bytes += 4 * layer.output_len() as u64;
    }

    for (ordinal, &layer_idx) in weight_layers.iter().enumerate() {
        let spec = program.specs()[ordinal];
        if !spec.enabled {
            continue;
        }
        let layer = network.layer(layer_idx)?;
        let kind = layer.kind();
        let layer_macs = kind.macs();
        let out_len = layer.output_len() as u64;
        // Average receptive-field size = partial sums per output neuron.
        let rf = layer_macs.checked_div(out_len).unwrap_or(0);
        // How many output neurons drive extraction at this layer.
        let important_outputs = match program.direction() {
            Direction::Backward => ((out_len as f64) * density).ceil() as u64,
            Direction::Forward => out_len,
        }
        .max(1);

        if spec.threshold.is_cumulative() {
            // Every partial sum produced during inference must be stored, then the
            // receptive fields of important neurons are sorted and accumulated.
            report.partial_sums_stored += layer_macs;
            let sorted = important_outputs * rf;
            report.sort_elements += sorted;
            // A sorting network performs ~n log2 n comparisons.
            let log = (rf.max(2) as f64).log2().ceil() as u64;
            report.compare_ops += sorted * log;
            report.accumulate_ops += sorted;
            report.extra_memory_bytes += 4 * layer_macs + 4 * sorted;
        } else {
            // Absolute thresholds: one compare per partial sum, one mask bit stored.
            report.mask_bits_stored += layer_macs;
            report.compare_ops += layer_macs;
            report.extra_memory_bytes += layer_macs.div_ceil(8);
            match kind {
                LayerKind::Dense { .. } | LayerKind::Conv2d { .. } | LayerKind::Residual { .. } => {
                }
                _ => {}
            }
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::variants;
    use ptolemy_nn::zoo;
    use ptolemy_tensor::Rng64;

    #[test]
    fn cumulative_costs_dominate_absolute_costs() {
        let net = zoo::conv_net(10, &mut Rng64::new(0)).unwrap();
        let bwcu = software_cost(&net, &variants::bw_cu(&net, 0.5).unwrap(), 0.05).unwrap();
        let bwab = software_cost(&net, &variants::bw_ab(&net, 0.3).unwrap(), 0.05).unwrap();
        let fwab = software_cost(&net, &variants::fw_ab(&net, 0.3).unwrap(), 0.05).unwrap();

        // BwCu stores every partial sum; BwAb/FwAb store only mask bits.
        assert!(bwcu.partial_sums_stored > 0);
        assert_eq!(bwab.partial_sums_stored, 0);
        assert!(bwab.mask_bits_stored > 0);
        assert!(bwcu.extra_memory_bytes > bwab.extra_memory_bytes);
        assert!(bwcu.memory_overhead_ratio() > bwab.memory_overhead_ratio());
        // The paper's observation: storing partial sums is a multiple of the
        // activation traffic itself.
        assert!(bwcu.memory_overhead_ratio() > 1.0);
        // Absolute-threshold masks are a tiny fraction of it.
        assert!(fwab.memory_overhead_ratio() < 1.0);
        // Sorting work exists only for cumulative thresholds.
        assert!(bwcu.sort_elements > 0);
        assert_eq!(bwab.sort_elements, 0);
        assert!(bwcu.compute_overhead_ratio() > 0.0);
    }

    #[test]
    fn early_termination_reduces_cost() {
        let net = zoo::conv_net(10, &mut Rng64::new(1)).unwrap();
        let full = software_cost(&net, &variants::bw_cu(&net, 0.5).unwrap(), 0.05).unwrap();
        let partial = software_cost(
            &net,
            &variants::bw_cu_early_termination(&net, 0.5, 2).unwrap(),
            0.05,
        )
        .unwrap();
        assert!(partial.partial_sums_stored < full.partial_sums_stored);
        assert!(partial.extra_memory_bytes < full.extra_memory_bytes);
        assert_eq!(partial.inference_macs, full.inference_macs);
    }

    #[test]
    fn density_scales_backward_sorting_work() {
        let net = zoo::conv_net(10, &mut Rng64::new(2)).unwrap();
        let sparse = software_cost(&net, &variants::bw_cu(&net, 0.5).unwrap(), 0.01).unwrap();
        let dense = software_cost(&net, &variants::bw_cu(&net, 0.5).unwrap(), 0.5).unwrap();
        assert!(dense.sort_elements > sparse.sort_elements);
        assert_eq!(dense.partial_sums_stored, sparse.partial_sums_stored);
    }

    #[test]
    fn mismatched_program_is_rejected() {
        let net = zoo::conv_net(10, &mut Rng64::new(3)).unwrap();
        let other = zoo::lenet(3, 10, &mut Rng64::new(3)).unwrap();
        let program = variants::bw_cu(&other, 0.5).unwrap();
        assert!(software_cost(&net, &program, 0.05).is_err());
    }
}
