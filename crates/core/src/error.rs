use std::fmt;

use ptolemy_forest::ForestError;
use ptolemy_nn::NnError;
use ptolemy_tensor::TensorError;

/// Error type of the Ptolemy detection framework.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// The detection program is invalid (mixed directions, bad thresholds, …).
    InvalidProgram(String),
    /// A path operation was attempted on structurally incompatible paths.
    IncompatiblePaths(String),
    /// Profiling or detection was attempted with inconsistent inputs.
    InvalidInput(String),
    /// The underlying DNN substrate reported an error.
    Nn(NnError),
    /// The random-forest classifier reported an error.
    Forest(ForestError),
    /// A tensor operation failed.
    Tensor(TensorError),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::InvalidProgram(msg) => write!(f, "invalid detection program: {msg}"),
            CoreError::IncompatiblePaths(msg) => write!(f, "incompatible paths: {msg}"),
            CoreError::InvalidInput(msg) => write!(f, "invalid input: {msg}"),
            CoreError::Nn(e) => write!(f, "dnn substrate error: {e}"),
            CoreError::Forest(e) => write!(f, "classifier error: {e}"),
            CoreError::Tensor(e) => write!(f, "tensor error: {e}"),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Nn(e) => Some(e),
            CoreError::Forest(e) => Some(e),
            CoreError::Tensor(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NnError> for CoreError {
    fn from(e: NnError) -> Self {
        CoreError::Nn(e)
    }
}

impl From<ForestError> for CoreError {
    fn from(e: ForestError) -> Self {
        CoreError::Forest(e)
    }
}

impl From<TensorError> for CoreError {
    fn from(e: TensorError) -> Self {
        CoreError::Tensor(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_conversions() {
        let e: CoreError = NnError::EmptyDataset.into();
        assert!(e.to_string().contains("dnn substrate"));
        assert!(std::error::Error::source(&e).is_some());
        let e: CoreError = NnError::NonFinite { boundary: 3 }.into();
        assert_eq!(e, CoreError::Nn(NnError::NonFinite { boundary: 3 }));
        assert!(e.to_string().contains("boundary 3"));
        let e: CoreError = ForestError::InvalidMetricInput("x".into()).into();
        assert!(e.to_string().contains("classifier"));
        let e: CoreError = TensorError::Empty("max").into();
        assert!(e.to_string().contains("tensor"));
        assert!(!CoreError::InvalidProgram("p".into()).to_string().is_empty());
        assert!(std::error::Error::source(&CoreError::InvalidInput("i".into())).is_none());
    }
}
