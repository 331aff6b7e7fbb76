//! The task-level simulator: executes a compiled detection program on the hardware
//! model, honouring unit occupancy and the compiler's dependence edges.

use std::collections::HashMap;

use ptolemy_compiler::{CompiledProgram, HwTask, HwUnit};
use ptolemy_nn::{LayerKind, Network};

use crate::{AccelError, ExecutionReport, HardwareConfig, Result, TaskTiming};

/// Per-layer quantities the cost model needs.
#[derive(Debug, Clone, Copy)]
struct LayerStats {
    macs: u64,
    in_len: u64,
    out_len: u64,
    weights: u64,
    /// Average receptive-field size (partial sums per output neuron).
    rf: u64,
}

fn weight_count(kind: &LayerKind) -> u64 {
    match kind {
        LayerKind::Dense { inputs, outputs } => (*inputs as u64) * (*outputs as u64),
        LayerKind::Conv2d {
            geometry,
            out_channels,
        } => (geometry.patch_len() * out_channels) as u64,
        LayerKind::Residual { inner } => inner.iter().map(weight_count).sum(),
        _ => 0,
    }
}

fn layer_stats(network: &Network, layer: usize) -> Result<LayerStats> {
    let l = network
        .layer(layer)
        .map_err(|e| AccelError::InvalidProgram(e.to_string()))?;
    let kind = l.kind();
    let macs = kind.macs();
    let out_len = l.output_len() as u64;
    Ok(LayerStats {
        macs,
        in_len: l.input_len() as u64,
        out_len,
        weights: weight_count(&kind),
        rf: macs.checked_div(out_len).map_or(0, |rf| rf.max(1)),
    })
}

/// Extra DRAM space detection requires (paper Sec. VII-A "DRAM Space").
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DramSpaceReport {
    /// Bytes of partial sums that must be resident (zero when every cumulative layer
    /// uses the recompute optimisation).
    pub partial_sum_bytes: u64,
    /// Bytes of recomputed partial sums (bounded by the important receptive fields).
    pub recomputed_partial_sum_bytes: u64,
    /// Bytes of single-bit masks for absolute-threshold layers.
    pub mask_bytes: u64,
    /// Bytes holding the activation path and the canary class path being compared.
    pub path_bytes: u64,
}

impl DramSpaceReport {
    /// Total extra DRAM space in bytes.
    pub fn total_bytes(&self) -> u64 {
        self.partial_sum_bytes
            + self.recomputed_partial_sum_bytes
            + self.mask_bytes
            + self.path_bytes
    }

    /// Total extra DRAM space in megabytes.
    pub fn total_mb(&self) -> f64 {
        self.total_bytes() as f64 / (1024.0 * 1024.0)
    }
}

/// Computes the extra DRAM footprint of a compiled program.
///
/// `density` is the measured fraction of important neurons (bounds the recomputed
/// partial-sum storage).
///
/// # Errors
///
/// Returns [`AccelError::InvalidProgram`] if the program references unknown layers.
pub fn dram_space_report(
    network: &Network,
    compiled: &CompiledProgram,
    config: &HardwareConfig,
    density: f32,
) -> Result<DramSpaceReport> {
    let density = f64::from(density.clamp(0.0, 1.0));
    let mut report = DramSpaceReport::default();
    for st in &compiled.tasks {
        match st.task {
            HwTask::Inference {
                layer,
                store_partial_sums,
            } => {
                let s = layer_stats(network, layer)?;
                if store_partial_sums {
                    report.partial_sum_bytes += s.macs * config.value_bytes();
                }
            }
            HwTask::RecomputePartialSums { layer } => {
                let s = layer_stats(network, layer)?;
                let important = ((s.out_len as f64 * density).ceil() as u64).max(1);
                report.recomputed_partial_sum_bytes += important * s.rf * config.value_bytes();
            }
            HwTask::Extract {
                layer, cumulative, ..
            } => {
                let s = layer_stats(network, layer)?;
                if !cumulative {
                    // One mask bit per partial sum (stored by the augmented MACs).
                    report.mask_bytes += s.macs.div_ceil(8);
                }
                // The per-layer path segment (one bit per feature-map element).
                report.path_bytes += s.in_len.max(s.out_len).div_ceil(8) * 2;
            }
            HwTask::Classify => {}
        }
    }
    Ok(report)
}

/// The Ptolemy hardware simulator.
#[derive(Debug, Clone)]
pub struct Simulator {
    config: HardwareConfig,
}

impl Simulator {
    /// Creates a simulator for a validated hardware configuration.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::InvalidConfig`] for invalid configurations.
    pub fn new(config: HardwareConfig) -> Result<Self> {
        config.validate()?;
        Ok(Simulator { config })
    }

    /// The hardware configuration.
    pub fn config(&self) -> &HardwareConfig {
        &self.config
    }

    /// Simulates one detection-augmented inference.
    ///
    /// `density` is the fraction of feature-map elements marked important for this
    /// workload (measured by profiling; the paper observes values below ~5 % at
    /// full scale, our scaled-down models sit higher).
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::InvalidProgram`] if the compiled program references
    /// layers the network does not have.
    pub fn simulate(
        &self,
        network: &Network,
        compiled: &CompiledProgram,
        density: f32,
    ) -> Result<ExecutionReport> {
        let density = f64::from(density.clamp(0.0, 1.0));
        let cfg = &self.config;

        // Baseline: plain inference of every weight layer, no detection.
        let mut inference_cycles = 0u64;
        let mut inference_energy = 0.0f64;
        let mut inference_dram = 0u64;
        for &layer in &network.weight_layer_indices() {
            let s = layer_stats(network, layer)?;
            let (cycles, energy, dram) = self.inference_cost(&s, false);
            inference_cycles += cycles;
            inference_energy += energy;
            inference_dram += dram;
        }

        // Execute the schedule.
        let mut unit_free: HashMap<HwUnit, u64> = HashMap::new();
        let mut finish: Vec<u64> = Vec::with_capacity(compiled.tasks.len());
        let mut timings = Vec::with_capacity(compiled.tasks.len());
        let mut total_energy = 0.0f64;
        let mut extra_dram = 0u64;

        for (idx, st) in compiled.tasks.iter().enumerate() {
            let (cycles, energy, dram, is_detection) = match st.task {
                HwTask::Inference {
                    layer,
                    store_partial_sums,
                } => {
                    let s = layer_stats(network, layer)?;
                    let (c, e, d) = self.inference_cost(&s, store_partial_sums);
                    let (_, base_e, base_d) = self.inference_cost(&s, false);
                    extra_dram += d - base_d;
                    total_energy += e;
                    // Only the detection-induced part counts as overhead energy, but
                    // the full energy is already accumulated; nothing more to do.
                    let _ = base_e;
                    (c, e, d, false)
                }
                HwTask::RecomputePartialSums { layer } => {
                    let s = layer_stats(network, layer)?;
                    let important = ((s.out_len as f64 * density).ceil() as u64).max(1);
                    let work = important * s.rf;
                    // Only the first PE row is active during csps re-computation.
                    let cycles = work.div_ceil(cfg.array_cols as u64);
                    let energy = work as f64 * cfg.mac_energy_pj()
                        + (work * cfg.value_bytes()) as f64 * cfg.energy.sram_byte_pj;
                    total_energy += energy;
                    (cycles, energy, 0, true)
                }
                HwTask::Extract {
                    layer,
                    cumulative,
                    forward,
                } => {
                    let s = layer_stats(network, layer)?;
                    let (c, e, d) =
                        self.extraction_cost(&s, cumulative, forward, density, compiled);
                    extra_dram += d;
                    total_energy += e;
                    (c, e, d, true)
                }
                HwTask::Classify => {
                    // The random forest runs on the MCU in microseconds — five orders
                    // of magnitude below a full-scale inference (Sec. V-D) — so its
                    // latency is modelled as a small constant to avoid distorting the
                    // scaled-down networks; its energy is charged in full.
                    let cycles = 8;
                    let energy = 2_000.0 * cfg.energy.mcu_op_pj;
                    total_energy += energy;
                    (cycles, energy, 0, true)
                }
            };
            let _ = (energy, dram, is_detection);

            let unit = st.task.unit();
            let dep_ready = st
                .depends_on
                .iter()
                .map(|&d| finish.get(d).copied().unwrap_or(0))
                .max()
                .unwrap_or(0);
            let unit_ready = unit_free.get(&unit).copied().unwrap_or(0);
            let start = dep_ready.max(unit_ready);
            let end = start + cycles;
            unit_free.insert(unit, end);
            finish.push(end);
            timings.push(TaskTiming {
                task_index: idx,
                unit,
                start_cycle: start,
                finish_cycle: end,
            });
        }

        let total_cycles = finish.iter().copied().max().unwrap_or(0);
        Ok(ExecutionReport {
            inference_cycles,
            total_cycles,
            inference_energy_pj: inference_energy,
            total_energy_pj: total_energy,
            extra_dram_traffic_bytes: extra_dram,
            inference_dram_traffic_bytes: inference_dram,
            extra_dram_space_bytes: dram_space_report(network, compiled, cfg, density as f32)?
                .total_bytes(),
            task_timings: timings,
        })
    }

    /// Simulates a plain inference of `network` with no detection attached.
    ///
    /// Baseline cost models use this to price extra networks that run on the same
    /// accelerator (e.g. DeepFense's redundant latent defender models): the returned
    /// report has identical inference and total figures and an empty task timeline.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::InvalidProgram`] if a layer's statistics cannot be
    /// derived (never happens for networks built by `ptolemy-nn`).
    pub fn inference_report(&self, network: &Network) -> Result<ExecutionReport> {
        let mut cycles = 0u64;
        let mut energy = 0.0f64;
        let mut dram = 0u64;
        for &layer in &network.weight_layer_indices() {
            let s = layer_stats(network, layer)?;
            let (c, e, d) = self.inference_cost(&s, false);
            cycles += c;
            energy += e;
            dram += d;
        }
        Ok(ExecutionReport {
            inference_cycles: cycles,
            total_cycles: cycles,
            inference_energy_pj: energy,
            total_energy_pj: energy,
            extra_dram_traffic_bytes: 0,
            inference_dram_traffic_bytes: dram,
            extra_dram_space_bytes: 0,
            task_timings: Vec::new(),
        })
    }

    /// Cycles, energy and DRAM traffic of one layer's inference.
    fn inference_cost(&self, s: &LayerStats, store_partial_sums: bool) -> (u64, f64, u64) {
        let cfg = &self.config;
        let fill_drain = (cfg.array_rows + cfg.array_cols) as u64;
        let mut cycles = s.macs.div_ceil(cfg.macs_per_cycle()) + fill_drain;
        let act_bytes = (s.in_len + s.out_len) * cfg.value_bytes();
        let weight_bytes = s.weights * cfg.value_bytes();
        let mut dram = act_bytes + weight_bytes;
        let mut energy = s.macs as f64 * cfg.mac_energy_pj()
            + (act_bytes + weight_bytes) as f64
                * (cfg.energy.sram_byte_pj + cfg.energy.dram_byte_pj);
        if store_partial_sums {
            let psum_bytes = s.macs * cfg.value_bytes();
            // Partial-sum writes are double-buffered to DRAM; the PE array stalls
            // when the write bandwidth cannot keep up.
            let write_cycles = (psum_bytes as f64 / cfg.dram_bytes_per_cycle).ceil() as u64;
            cycles = cycles.max(write_cycles) + write_cycles / 4;
            dram += psum_bytes;
            energy += psum_bytes as f64 * (cfg.energy.sram_byte_pj + cfg.energy.dram_byte_pj);
        }
        (cycles, energy, dram)
    }

    /// Cycles, energy and extra DRAM traffic of one layer's extraction block.
    fn extraction_cost(
        &self,
        s: &LayerStats,
        cumulative: bool,
        forward: bool,
        density: f64,
        compiled: &CompiledProgram,
    ) -> (u64, f64, u64) {
        let cfg = &self.config;
        let important = ((s.out_len as f64 * density).ceil() as u64).max(1);
        if cumulative {
            // Sort + merge + accumulate the partial sums of every important
            // receptive field.
            let work = important * s.rf;
            let log_rf = (s.rf.max(2) as f64).log2().ceil() as u64;
            let sort_throughput = (cfg.sort_units * cfg.sort_unit_width) as u64;
            let sort_cycles = (work * log_rf).div_ceil(sort_throughput);
            let merge_cycles = work.div_ceil(cfg.merge_tree_length as u64);
            let acum_cycles = work.div_ceil(4);
            let compute_cycles = if compiled.optimizations.neuron_pipelining {
                (sort_cycles + merge_cycles).max(acum_cycles)
            } else {
                sort_cycles + merge_cycles + acum_cycles
            };
            // Partial sums are streamed from the banked psum SRAM (or DRAM when they
            // were stored by `infsp`); sorting is memory-bound once enough sort
            // units are provisioned (Sec. VII-G).
            let psum_bytes = work * cfg.value_bytes();
            let stored = !compiled.optimizations.recompute_partial_sums;
            let read_bandwidth = if stored {
                cfg.dram_bytes_per_cycle
            } else {
                (cfg.psum_sram_kb / 2).max(16) as f64
            };
            let read_cycles = (psum_bytes as f64 / read_bandwidth).ceil() as u64;
            let cycles = compute_cycles.max(read_cycles);

            // The sorting network performs ~n·log²n/2 compare-exchanges per receptive
            // field and each merge level re-reads the partial sums from the path
            // constructor's SRAM, so the energy scales with the number of passes —
            // this is what makes cumulative thresholds so much more expensive than
            // absolute ones (paper Fig. 11, Sec. III-C).
            let sort_passes = log_rf.max(1);
            let compare_exchanges = work * log_rf * log_rf / 2;
            let mut energy = compare_exchanges as f64 * cfg.energy.compare_pj
                + (psum_bytes * sort_passes) as f64 * cfg.energy.sram_byte_pj
                + work as f64 * cfg.energy.compare_pj
                // Path-constructor activity (sort-unit switching) grows with the
                // provisioned units, which is what makes over-provisioning sort
                // units a power problem (Fig. 18b).
                + cycles as f64 * cfg.sort_units as f64 * 2.0;
            let mut dram = 0;
            if stored {
                energy += psum_bytes as f64 * cfg.energy.dram_byte_pj;
                dram += psum_bytes;
            }
            // Mask generation for the selected neurons.
            let mask_bytes = s.in_len.div_ceil(8);
            energy += mask_bytes as f64 * cfg.energy.sram_byte_pj;
            (cycles, energy, dram)
        } else {
            // Absolute thresholds: the compare happened inside the augmented MACs
            // during inference; extraction reads the single-bit masks and aggregates
            // them into the path (bit-parallel).  At this model's scale the mask
            // arrays fit in the 32 KB psum/mask SRAM, so they are written and read
            // on-chip and never round-trip through DRAM (the paper's own DRAM-traffic
            // overhead for masks is below 0.1 %).
            let mask_bits = if forward { s.out_len } else { important * s.rf };
            let cycles = mask_bits.div_ceil(128).max(1);
            let stored_mask_bytes = s.macs.div_ceil(8);
            let energy = s.macs as f64 * cfg.energy.compare_pj
                + stored_mask_bytes as f64 * cfg.energy.sram_byte_pj * 2.0
                + mask_bits.div_ceil(8) as f64 * cfg.energy.sram_byte_pj;
            (cycles, energy, 0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptolemy_compiler::{Compiler, OptimizationFlags};
    use ptolemy_core::variants;
    use ptolemy_nn::zoo;
    use ptolemy_tensor::Rng64;

    fn setup() -> (Network, Simulator) {
        let net = zoo::conv_net(10, &mut Rng64::new(0)).unwrap();
        (net, Simulator::new(HardwareConfig::default()).unwrap())
    }

    fn run(
        net: &Network,
        sim: &Simulator,
        program: &ptolemy_core::DetectionProgram,
    ) -> ExecutionReport {
        let compiled = Compiler::default().compile(net, program).unwrap();
        sim.simulate(net, &compiled, 0.08).unwrap()
    }

    #[test]
    fn variant_latency_ordering_matches_the_paper() {
        let (net, sim) = setup();
        let bwcu = run(&net, &sim, &variants::bw_cu(&net, 0.5).unwrap());
        let bwab = run(&net, &sim, &variants::bw_ab(&net, 0.3).unwrap());
        let fwab = run(&net, &sim, &variants::fw_ab(&net, 0.3).unwrap());
        let hybrid = run(&net, &sim, &variants::hybrid(&net, 0.3, 0.5).unwrap());

        // Paper Fig. 11: BwCu ≫ Hybrid > BwAb > FwAb ≈ 1.
        assert!(bwcu.latency_factor() > hybrid.latency_factor());
        assert!(hybrid.latency_factor() > fwab.latency_factor());
        assert!(bwab.latency_factor() >= fwab.latency_factor());
        assert!(
            bwcu.latency_factor() > 2.0,
            "BwCu {:.2}",
            bwcu.latency_factor()
        );
        assert!(
            fwab.latency_overhead() < 0.25,
            "FwAb overhead {:.3}",
            fwab.latency_overhead()
        );
        // Energy ordering: BwCu is the most expensive, FwAb/BwAb the cheapest.
        assert!(bwcu.energy_factor() > bwab.energy_factor());
        assert!(bwcu.energy_factor() > 1.2);
        assert!(fwab.energy_factor() < bwcu.energy_factor());
        // All reports carry a task timeline.
        assert!(!bwcu.task_timings.is_empty());
    }

    #[test]
    fn forward_pipelining_hides_extraction_latency() {
        let (net, sim) = setup();
        let program = variants::fw_ab(&net, 0.3).unwrap();
        let pipelined = Compiler::default().compile(&net, &program).unwrap();
        let serial = Compiler::new(OptimizationFlags {
            layer_pipelining: false,
            ..OptimizationFlags::default()
        })
        .compile(&net, &program)
        .unwrap();
        let fast = sim.simulate(&net, &pipelined, 0.08).unwrap();
        let slow = sim.simulate(&net, &serial, 0.08).unwrap();
        assert!(
            fast.total_cycles <= slow.total_cycles,
            "pipelining must never slow execution down"
        );
    }

    #[test]
    fn recompute_trades_dram_space_for_compute() {
        let (net, sim) = setup();
        let program = variants::bw_cu(&net, 0.5).unwrap();
        let recompute = Compiler::default().compile(&net, &program).unwrap();
        let store = Compiler::new(OptimizationFlags {
            recompute_partial_sums: false,
            ..OptimizationFlags::default()
        })
        .compile(&net, &program)
        .unwrap();
        let space_recompute = dram_space_report(&net, &recompute, sim.config(), 0.08).unwrap();
        let space_store = dram_space_report(&net, &store, sim.config(), 0.08).unwrap();
        assert!(space_recompute.total_bytes() < space_store.total_bytes());
        assert!(space_store.partial_sum_bytes > 0);
        assert_eq!(space_recompute.partial_sum_bytes, 0);
        assert!(space_recompute.total_mb() >= 0.0);
        // Storing partial sums also adds DRAM traffic.
        let traffic_store = sim.simulate(&net, &store, 0.08).unwrap();
        let traffic_recompute = sim.simulate(&net, &recompute, 0.08).unwrap();
        assert!(
            traffic_store.extra_dram_traffic_bytes > traffic_recompute.extra_dram_traffic_bytes
        );
    }

    #[test]
    fn deeper_networks_have_higher_extraction_overhead() {
        let sim = Simulator::new(HardwareConfig::default()).unwrap();
        let conv = zoo::conv_net(10, &mut Rng64::new(1)).unwrap();
        let resnet = zoo::resnet_mini(10, &mut Rng64::new(1)).unwrap();
        let conv_report = {
            let p = variants::bw_cu(&conv, 0.5).unwrap();
            let c = Compiler::default().compile(&conv, &p).unwrap();
            sim.simulate(&conv, &c, 0.08).unwrap()
        };
        let resnet_report = {
            let p = variants::bw_cu(&resnet, 0.5).unwrap();
            let c = Compiler::default().compile(&resnet, &p).unwrap();
            sim.simulate(&resnet, &c, 0.08).unwrap()
        };
        // Paper Sec. VII-C: the overhead grows with depth (ResNet18 ≫ AlexNet).
        assert!(resnet_report.latency_factor() > conv_report.latency_factor());
    }

    #[test]
    fn bigger_merge_trees_and_sort_units_reduce_latency() {
        let net = zoo::conv_net(10, &mut Rng64::new(2)).unwrap();
        let program = variants::bw_cu(&net, 0.5).unwrap();
        let compiled = Compiler::default().compile(&net, &program).unwrap();
        let mut latencies = Vec::new();
        let mut powers = Vec::new();
        for sort_units in [2usize, 4, 8, 16] {
            let cfg = HardwareConfig::default().with_path_constructor(sort_units, 16);
            let report = Simulator::new(cfg)
                .unwrap()
                .simulate(&net, &compiled, 0.08)
                .unwrap();
            latencies.push(report.total_cycles);
            powers.push(report.power_factor());
        }
        // Latency is non-increasing in the number of sort units (and eventually
        // memory-bound), while power keeps growing — Fig. 18b.
        assert!(latencies.windows(2).all(|w| w[1] <= w[0]));
        assert!(powers.last().unwrap() >= powers.first().unwrap());

        let mut merge_latencies = Vec::new();
        for merge in [4usize, 8, 16, 32] {
            let cfg = HardwareConfig::default().with_path_constructor(2, merge);
            let report = Simulator::new(cfg)
                .unwrap()
                .simulate(&net, &compiled, 0.08)
                .unwrap();
            merge_latencies.push(report.total_cycles);
        }
        assert!(merge_latencies.windows(2).all(|w| w[1] <= w[0]));
    }

    #[test]
    fn int8_operands_price_below_16_bit_on_the_same_schedule() {
        let (net, wide) = setup();
        let narrow = Simulator::new(HardwareConfig::default().with_precision(8)).unwrap();
        let compiled = Compiler::default()
            .compile(&net, &variants::fw_ab(&net, 0.3).unwrap())
            .unwrap();
        let wide = wide.simulate(&net, &compiled, 0.08).unwrap();
        let narrow = narrow.simulate(&net, &compiled, 0.08).unwrap();
        // Bit-serial streaming: half the beats per MAC, half the bytes per
        // value, a third of the MAC energy — strictly cheaper on both axes.
        assert!(narrow.total_cycles < wide.total_cycles);
        assert!(narrow.total_energy_pj < wide.total_energy_pj);
    }

    #[test]
    fn invalid_configurations_and_programs_are_rejected() {
        assert!(Simulator::new(HardwareConfig {
            array_rows: 0,
            ..HardwareConfig::default()
        })
        .is_err());
        // A program compiled for a different network fails cleanly when the layer
        // indices do not exist in the target network.
        let big = zoo::conv_net(10, &mut Rng64::new(3)).unwrap();
        let small = zoo::mlp_net(&[4], 2, &mut Rng64::new(3)).unwrap();
        let program = variants::bw_cu(&big, 0.5).unwrap();
        let compiled = Compiler::default().compile(&big, &program).unwrap();
        let sim = Simulator::new(HardwareConfig::default()).unwrap();
        assert!(sim.simulate(&small, &compiled, 0.1).is_err());
    }
}
