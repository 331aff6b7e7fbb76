//! The accelerator serving backend: plugs the hardware model into
//! [`ptolemy_core::DetectionEngine`].
//!
//! Where [`ptolemy_core::SoftwareBackend`] prices batches with algorithm-level
//! operation counts, [`AccelBackend`] routes the engine's
//! [`ptolemy_core::DetectionProgram`] through the Ptolemy compiler once at bind
//! time (binary ISA + static task schedule) and then prices every served batch
//! on the cycle/energy model — so latency-hiding effects such as forward
//! extraction's layer-level pipelining show up in serving estimates exactly as
//! they do in the paper's figures.

use ptolemy_compiler::{CompiledProgram, Compiler, OptimizationFlags};
use ptolemy_core::engine::{BackendEstimate, DetectionBackend};
use ptolemy_core::{CoreError, DetectionProgram};
use ptolemy_nn::Network;

use crate::{ExecutionReport, HardwareConfig, Simulator};

/// Serving backend backed by the Ptolemy hardware model.
///
/// Construct it, hand it to [`ptolemy_core::DetectionEngineBuilder::backend`],
/// and every [`ptolemy_core::DetectionEngine::detect_batch_with_estimate`] call
/// reports modelled latency/energy for the batch alongside the verdicts.
#[derive(Debug, Clone)]
pub struct AccelBackend {
    config: HardwareConfig,
    flags: OptimizationFlags,
    compiled: Option<CompiledProgram>,
}

impl AccelBackend {
    /// Creates a backend for a hardware configuration with all compiler
    /// optimisations enabled.
    pub fn new(config: HardwareConfig) -> Self {
        Self::with_flags(config, OptimizationFlags::default())
    }

    /// Creates a backend with explicit compiler optimisation flags (used by the
    /// ablation harnesses).
    pub fn with_flags(config: HardwareConfig, flags: OptimizationFlags) -> Self {
        AccelBackend {
            config,
            flags,
            compiled: None,
        }
    }

    /// The same backend re-priced for 8-bit operands (the bit-serial PE
    /// array streams half the beats per MAC, so both the cycle and energy
    /// models shrink; see [`HardwareConfig::macs_per_cycle`]).
    ///
    /// Hand this to the *screening* engine of a
    /// `ptolemy-serve` quantized-screen deployment so
    /// [`ptolemy_core::DetectionEngine::detect_batch_with_estimate`] prices
    /// the int8 pass instead of the f32 one.
    /// The compiled schedule is unchanged — quantization alters operand
    /// width, not the task graph.
    pub fn with_int8_operands(mut self) -> Self {
        self.config = self.config.with_precision(8);
        self
    }

    /// The hardware configuration this backend prices batches on.
    pub fn config(&self) -> &HardwareConfig {
        &self.config
    }

    /// The compiled program, once the backend has been bound to an engine.
    pub fn compiled(&self) -> Option<&CompiledProgram> {
        self.compiled.as_ref()
    }

    /// Simulates one detection-augmented inference at the given path density
    /// (the raw [`ExecutionReport`] behind the per-batch estimates).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Backend`] if the backend was never bound or the
    /// hardware model rejects the program.
    pub fn execution_report(
        &self,
        network: &Network,
        density: f32,
    ) -> Result<ExecutionReport, CoreError> {
        let compiled = self
            .compiled
            .as_ref()
            .ok_or_else(|| CoreError::Backend("accel backend was not bound to an engine".into()))?;
        let simulator =
            Simulator::new(self.config).map_err(|e| CoreError::Backend(e.to_string()))?;
        simulator
            .simulate(network, compiled, density)
            .map_err(|e| CoreError::Backend(e.to_string()))
    }
}

impl DetectionBackend for AccelBackend {
    fn name(&self) -> &'static str {
        "accel"
    }

    fn bind(&mut self, network: &Network, program: &DetectionProgram) -> Result<(), CoreError> {
        // Validate the configuration eagerly so a bad array size fails at
        // engine build, not on the first served batch.
        Simulator::new(self.config).map_err(|e| CoreError::Backend(e.to_string()))?;
        let compiled = Compiler::new(self.flags)
            .compile(network, program)
            .map_err(|e| CoreError::Backend(e.to_string()))?;
        self.compiled = Some(compiled);
        Ok(())
    }

    fn estimate_batch(
        &self,
        network: &Network,
        _program: &DetectionProgram,
        batch_size: usize,
        mean_density: f32,
    ) -> Result<BackendEstimate, CoreError> {
        let report = self.execution_report(network, mean_density)?;
        // The accelerator serves one input at a time (per-sample systolic
        // execution), so batch latency/energy scale linearly with batch size;
        // the relative factors are per-input properties of the schedule.
        let batch = batch_size as f64;
        Ok(BackendEstimate {
            backend: self.name(),
            batch_size,
            software: None,
            latency_ms: Some(self.config.cycles_to_ms(report.total_cycles) * batch),
            energy_pj: Some(report.total_energy_pj * batch),
            latency_factor: Some(report.latency_factor()),
            energy_factor: Some(report.energy_factor()),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptolemy_core::variants;
    use ptolemy_nn::zoo;
    use ptolemy_tensor::Rng64;

    #[test]
    fn bind_then_estimate_yields_nonzero_latency_and_energy() {
        let network = zoo::lenet(3, 4, &mut Rng64::new(7)).unwrap();
        let program = variants::fw_ab(&network, 0.1).unwrap();
        let mut backend = AccelBackend::new(HardwareConfig::default());
        assert!(backend.compiled().is_none());
        backend.bind(&network, &program).unwrap();
        assert!(backend.compiled().is_some());

        let estimate = backend
            .estimate_batch(&network, &program, 16, 0.05)
            .unwrap();
        assert_eq!(estimate.backend, "accel");
        assert_eq!(estimate.batch_size, 16);
        assert!(estimate.latency_ms.unwrap() > 0.0);
        assert!(estimate.energy_pj.unwrap() > 0.0);
        assert!(estimate.latency_factor.unwrap() >= 1.0);
        assert!(estimate.software.is_none());

        // Batch cost scales linearly with batch size.
        let double = backend
            .estimate_batch(&network, &program, 32, 0.05)
            .unwrap();
        let ratio = double.latency_ms.unwrap() / estimate.latency_ms.unwrap();
        assert!((ratio - 2.0).abs() < 1e-9);
    }

    #[test]
    fn int8_operands_price_below_16_bit_on_the_same_schedule() {
        let network = zoo::lenet(3, 4, &mut Rng64::new(7)).unwrap();
        let program = variants::fw_ab(&network, 0.1).unwrap();
        let mut wide = AccelBackend::new(HardwareConfig::default());
        wide.bind(&network, &program).unwrap();
        let mut narrow = AccelBackend::new(HardwareConfig::default()).with_int8_operands();
        narrow.bind(&network, &program).unwrap();
        assert_eq!(narrow.config().precision_bits, 8);

        let wide_est = wide.estimate_batch(&network, &program, 8, 0.05).unwrap();
        let narrow_est = narrow.estimate_batch(&network, &program, 8, 0.05).unwrap();
        // Bit-serial streaming: half the beats per MAC, half the bytes per
        // value, a third of the MAC energy — the int8 screen must come out
        // strictly cheaper on both axes.
        assert!(narrow_est.latency_ms.unwrap() < wide_est.latency_ms.unwrap());
        assert!(narrow_est.energy_pj.unwrap() < wide_est.energy_pj.unwrap());

        // Re-pricing after bind keeps the compiled schedule (quantization
        // changes operand width, not the task graph).
        let repriced = wide.clone().with_int8_operands();
        assert!(repriced.compiled().is_some());
        let repriced_est = repriced
            .estimate_batch(&network, &program, 8, 0.05)
            .unwrap();
        assert_eq!(
            repriced_est.latency_ms.unwrap().to_bits(),
            narrow_est.latency_ms.unwrap().to_bits()
        );
    }

    #[test]
    fn unbound_backend_reports_an_error() {
        let network = zoo::lenet(3, 4, &mut Rng64::new(7)).unwrap();
        let program = variants::fw_ab(&network, 0.1).unwrap();
        let backend = AccelBackend::new(HardwareConfig::default());
        assert!(matches!(
            backend.estimate_batch(&network, &program, 1, 0.05),
            Err(CoreError::Backend(_))
        ));
    }
}
