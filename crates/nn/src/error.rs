use std::fmt;

use ptolemy_tensor::TensorError;

/// Error type for the DNN substrate.
#[derive(Debug, Clone, PartialEq)]
pub enum NnError {
    /// An underlying tensor operation failed (shape mismatch, bad index, …).
    Tensor(TensorError),
    /// The network or a layer was configured inconsistently.
    InvalidConfig(String),
    /// A layer index was out of range for the network.
    LayerOutOfRange {
        /// Requested layer index.
        index: usize,
        /// Number of layers in the network.
        num_layers: usize,
    },
    /// A label was outside the valid class range.
    InvalidLabel {
        /// Offending label.
        label: usize,
        /// Number of classes.
        num_classes: usize,
    },
    /// Training was requested with an empty sample set.
    EmptyDataset,
    /// The network produced logits no class can be predicted from (empty
    /// tensor, or no finite value to take an argmax over).
    InvalidLogits(String),
    /// The activation entering an int8 layer holds a NaN.  Quantization would
    /// round it to 0 and launder a poisoned input into an ordinary verdict, so
    /// the quantized pass refuses it instead.
    NanActivation {
        /// The quantized layer about to consume the NaN.
        layer: usize,
    },
}

impl fmt::Display for NnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NnError::Tensor(e) => write!(f, "tensor error: {e}"),
            NnError::InvalidConfig(msg) => write!(f, "invalid network configuration: {msg}"),
            NnError::LayerOutOfRange { index, num_layers } => {
                write!(
                    f,
                    "layer index {index} out of range (network has {num_layers} layers)"
                )
            }
            NnError::InvalidLabel { label, num_classes } => {
                write!(f, "label {label} out of range for {num_classes} classes")
            }
            NnError::EmptyDataset => write!(f, "training requires a non-empty sample set"),
            NnError::InvalidLogits(msg) => {
                write!(f, "no class can be predicted from the logits: {msg}")
            }
            NnError::NanActivation { layer } => {
                write!(f, "an activation entering quantized layer {layer} is NaN")
            }
        }
    }
}

impl std::error::Error for NnError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NnError::Tensor(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TensorError> for NnError {
    fn from(e: TensorError) -> Self {
        NnError::Tensor(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = NnError::from(TensorError::Empty("argmax"));
        assert!(e.to_string().contains("tensor error"));
        assert!(std::error::Error::source(&e).is_some());
        assert!(NnError::EmptyDataset.to_string().contains("non-empty"));
        assert!(NnError::LayerOutOfRange {
            index: 3,
            num_layers: 2
        }
        .to_string()
        .contains("out of range"));
        assert!(NnError::InvalidLogits("all NaN".into())
            .to_string()
            .contains("logits"));
    }
}
