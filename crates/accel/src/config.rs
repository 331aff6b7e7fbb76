//! Hardware configuration and the per-operation energy table.

use crate::{AccelError, Result};

/// Per-operation energy constants in picojoules.
///
/// The values are representative published numbers for a ~16 nm-class process
/// (e.g. Horowitz, ISSCC'14 keynote scaling) rather than the paper's 15 nm synthesis
/// results; only the ratios matter for the relative overheads every figure reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    /// Energy of one 16-bit MAC.
    pub mac_16b_pj: f64,
    /// Energy of one 8-bit MAC.
    pub mac_8b_pj: f64,
    /// Energy per byte of on-chip SRAM access.
    pub sram_byte_pj: f64,
    /// Energy per byte of off-chip DRAM access.
    pub dram_byte_pj: f64,
    /// Energy of one comparison (threshold compare or sort compare-exchange).
    pub compare_pj: f64,
    /// Energy of one MCU operation (dispatch or random-forest node visit).
    pub mcu_op_pj: f64,
}

impl Default for EnergyModel {
    fn default() -> Self {
        EnergyModel {
            mac_16b_pj: 0.3,
            mac_8b_pj: 0.1,
            sram_byte_pj: 1.2,
            dram_byte_pj: 20.0,
            compare_pj: 0.05,
            mcu_op_pj: 4.0,
        }
    }
}

/// Configuration of the Ptolemy-augmented accelerator.
///
/// The default matches the paper's evaluation platform: a 20×20 MAC array at
/// 250 MHz with 1.5 MB of accelerator SRAM, a 32 KB partial-sum/mask SRAM, a 64 KB
/// path-constructor SRAM, two 16-element sort units and a 16-way merge tree, backed
/// by LPDDR3-class DRAM bandwidth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HardwareConfig {
    /// Systolic array rows.
    pub array_rows: usize,
    /// Systolic array columns.
    pub array_cols: usize,
    /// Clock frequency in MHz.
    pub clock_mhz: f64,
    /// MAC precision in bits (16 or 8).
    pub precision_bits: u32,
    /// Accelerator SRAM capacity in KB.
    pub accel_sram_kb: usize,
    /// Partial-sum / mask SRAM capacity in KB (the Ptolemy augmentation).
    pub psum_sram_kb: usize,
    /// Path-constructor SRAM capacity in KB.
    pub path_sram_kb: usize,
    /// Number of parallel sort units in the path constructor.
    pub sort_units: usize,
    /// Elements each sorting network handles per pass.
    pub sort_unit_width: usize,
    /// Number of partially-sorted sequences the merge tree combines at once.
    pub merge_tree_length: usize,
    /// Sustained DRAM bandwidth in bytes per cycle (four LPDDR3-1600 channels at
    /// 250 MHz ≈ 51 B/cycle).
    pub dram_bytes_per_cycle: f64,
    /// Per-operation energy constants.
    pub energy: EnergyModel,
}

impl Default for HardwareConfig {
    fn default() -> Self {
        HardwareConfig {
            array_rows: 20,
            array_cols: 20,
            clock_mhz: 250.0,
            precision_bits: 16,
            accel_sram_kb: 1536,
            psum_sram_kb: 32,
            path_sram_kb: 64,
            sort_units: 2,
            sort_unit_width: 16,
            merge_tree_length: 16,
            dram_bytes_per_cycle: 51.2,
            energy: EnergyModel::default(),
        }
    }
}

impl HardwareConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::InvalidConfig`] for zero-sized structures or
    /// unsupported precisions.
    pub fn validate(&self) -> Result<()> {
        if self.array_rows == 0 || self.array_cols == 0 {
            return Err(AccelError::InvalidConfig(
                "MAC array must be non-empty".into(),
            ));
        }
        if self.clock_mhz <= 0.0 || self.dram_bytes_per_cycle <= 0.0 {
            return Err(AccelError::InvalidConfig(
                "clock and DRAM bandwidth must be positive".into(),
            ));
        }
        if self.sort_units == 0 || self.sort_unit_width < 2 || self.merge_tree_length < 2 {
            return Err(AccelError::InvalidConfig(
                "path constructor needs at least one sort unit, width ≥ 2 and merge length ≥ 2"
                    .into(),
            ));
        }
        if self.precision_bits != 16 && self.precision_bits != 8 {
            return Err(AccelError::InvalidConfig(format!(
                "unsupported precision {} (16 or 8 bits)",
                self.precision_bits
            )));
        }
        Ok(())
    }

    /// MACs the array completes per cycle at the configured precision.
    ///
    /// The PE array streams operand bits serially, so throughput scales
    /// inversely with operand width: at the baseline 16-bit precision each PE
    /// finishes one MAC per cycle, while 8-bit operands take half the beats
    /// and double the array's effective MAC rate.  This is what lets
    /// `with_precision(8)` price an int8 quantized screening pass — the same
    /// schedule, re-costed for the narrow operands.
    pub fn macs_per_cycle(&self) -> u64 {
        (self.array_rows * self.array_cols) as u64 * (16 / self.precision_bits.max(1)) as u64
    }

    /// Energy of one MAC at the configured precision.
    pub fn mac_energy_pj(&self) -> f64 {
        if self.precision_bits == 8 {
            self.energy.mac_8b_pj
        } else {
            self.energy.mac_16b_pj
        }
    }

    /// Bytes per activation / partial sum at the configured precision.
    pub fn value_bytes(&self) -> u64 {
        (self.precision_bits / 8) as u64
    }

    /// Converts a cycle count to milliseconds at the configured clock.
    pub fn cycles_to_ms(&self, cycles: u64) -> f64 {
        cycles as f64 / (self.clock_mhz * 1e3)
    }

    /// The 8-bit variant of this configuration (Sec. VII-G precision study).
    pub fn with_precision(mut self, bits: u32) -> Self {
        self.precision_bits = bits;
        self
    }

    /// Variant with a different MAC array size (Sec. VII-G scaling study).
    pub fn with_array(mut self, rows: usize, cols: usize) -> Self {
        self.array_rows = rows;
        self.array_cols = cols;
        self
    }

    /// Variant with different path-constructor provisioning (Fig. 18 sweeps).
    pub fn with_path_constructor(mut self, sort_units: usize, merge_tree_length: usize) -> Self {
        self.sort_units = sort_units;
        self.merge_tree_length = merge_tree_length;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_platform() {
        let cfg = HardwareConfig::default();
        cfg.validate().unwrap();
        assert_eq!(cfg.array_rows, 20);
        assert_eq!(cfg.array_cols, 20);
        assert_eq!(cfg.clock_mhz, 250.0);
        assert_eq!(cfg.macs_per_cycle(), 400);
        assert_eq!(cfg.value_bytes(), 2);
        // Bit-serial operand streaming: 8-bit operands take half the beats,
        // so the same array sustains twice the MAC rate (and 1-byte values).
        assert_eq!(cfg.with_precision(8).macs_per_cycle(), 800);
        assert_eq!(cfg.with_precision(8).value_bytes(), 1);
        assert!(cfg.mac_energy_pj() > cfg.with_precision(8).mac_energy_pj());
        assert!((cfg.cycles_to_ms(250_000) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn invalid_configurations_are_rejected() {
        assert!(HardwareConfig {
            array_rows: 0,
            ..HardwareConfig::default()
        }
        .validate()
        .is_err());
        assert!(HardwareConfig {
            clock_mhz: 0.0,
            ..HardwareConfig::default()
        }
        .validate()
        .is_err());
        assert!(HardwareConfig {
            sort_units: 0,
            ..HardwareConfig::default()
        }
        .validate()
        .is_err());
        assert!(HardwareConfig {
            precision_bits: 32,
            ..HardwareConfig::default()
        }
        .validate()
        .is_err());
        assert!(HardwareConfig {
            merge_tree_length: 1,
            ..HardwareConfig::default()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn builder_style_variants() {
        let cfg = HardwareConfig::default()
            .with_array(32, 32)
            .with_precision(8)
            .with_path_constructor(8, 32);
        cfg.validate().unwrap();
        assert_eq!(cfg.macs_per_cycle(), 2048); // 32×32 PEs × 2 (8-bit operands)
        assert_eq!(cfg.precision_bits, 8);
        assert_eq!(cfg.sort_units, 8);
        assert_eq!(cfg.merge_tree_length, 32);
    }
}
