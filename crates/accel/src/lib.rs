//! # ptolemy-accel
//!
//! A cycle- and energy-accounted model of the Ptolemy hardware (paper Sec. V):
//!
//! * a TPU-like systolic MAC array (default 20×20 at 250 MHz, 16-bit fixed point)
//!   with the Ptolemy MAC augmentation (threshold compare + mask write, partial-sum
//!   store path);
//! * the **path constructor** — parallel sorting networks feeding a merge tree, an
//!   accumulator, the mask generator and the bit-parallel similarity unit;
//! * double-buffered SRAMs and an off-chip DRAM channel model;
//! * the MCU controller that dispatches instructions and runs the random forest.
//!
//! The simulator executes the task schedule produced by `ptolemy-compiler`,
//! assigning each task to its hardware unit and honouring the dependence edges, so
//! the latency-hiding effect of forward extraction (layer-level pipelining) falls
//! out of the schedule rather than being assumed.  Energy is accumulated per
//! operation from a published-constant energy table.  Absolute numbers are therefore
//! representative rather than sign-off quality; every figure harness reports
//! *relative* latency/energy against plain inference, exactly like the paper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod area;
mod config;
mod report;
mod sim;

pub use area::{area_report, AreaReport};
pub use config::{EnergyModel, HardwareConfig};
pub use report::{ExecutionReport, TaskTiming};
pub use sim::{dram_space_report, DramSpaceReport, Simulator};

use std::fmt;

/// Error type for the hardware model.
#[derive(Debug, Clone, PartialEq)]
pub enum AccelError {
    /// The hardware configuration is invalid (zero-sized array, zero clock, …).
    InvalidConfig(String),
    /// The compiled program references a layer the network does not have.
    InvalidProgram(String),
    /// The DNN substrate reported an error.
    Nn(ptolemy_nn::NnError),
}

impl fmt::Display for AccelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccelError::InvalidConfig(msg) => write!(f, "invalid hardware configuration: {msg}"),
            AccelError::InvalidProgram(msg) => write!(f, "invalid compiled program: {msg}"),
            AccelError::Nn(e) => write!(f, "dnn substrate error: {e}"),
        }
    }
}

impl std::error::Error for AccelError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AccelError::Nn(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ptolemy_nn::NnError> for AccelError {
    fn from(e: ptolemy_nn::NnError) -> Self {
        AccelError::Nn(e)
    }
}

/// Result alias used across the crate.
pub type Result<T> = std::result::Result<T, AccelError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        assert!(!AccelError::InvalidConfig("x".into()).to_string().is_empty());
        assert!(!AccelError::InvalidProgram("y".into())
            .to_string()
            .is_empty());
        let e: AccelError = ptolemy_nn::NnError::EmptyDataset.into();
        assert!(std::error::Error::source(&e).is_some());
    }
}
