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
    /// Logits no class can be predicted from: an empty slice, or one holding
    /// a NaN or an infinity ([`crate::predicted_class`]).
    InvalidLogits(String),
    /// An activation boundary — or the gradient of one — holds a NaN or an
    /// infinity, which has no rank among partial sums and so may never become
    /// a path, a verdict, a gradient or a trained parameter.  Boundary `0` is
    /// the input and boundary `i + 1` is layer `i`'s output (the
    /// [`crate::ForwardTrace`] numbering); a non-finite value inside a
    /// composite layer (a residual body, before its ReLU could zero it) is
    /// reported at that layer's output.
    NonFinite {
        /// The boundary holding the non-finite value.
        boundary: usize,
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
            NnError::NonFinite { boundary } => {
                write!(
                    f,
                    "activation boundary {boundary} holds a NaN or an infinity"
                )
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
        assert!(NnError::InvalidLogits("logit 0 is NaN".into())
            .to_string()
            .contains("logits"));
        assert!(NnError::NonFinite { boundary: 3 }
            .to_string()
            .contains("boundary 3"));
    }
}
