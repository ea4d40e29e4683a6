//! Typed errors for CPGAN configuration, model construction and
//! generation.
//!
//! Every fallible constructor in this crate has a `try_*` entry point
//! returning [`ModelError`], and so does generation
//! (`CpGan::try_generate`); the panicking versions are thin wrappers.
//! Configuration problems surface as [`ConfigError`] with the
//! offending field named, so callers driving the model from deserialized
//! configs (CLI flags, JSON sweeps) can report them without a panic.

use cpgan_graph::NodeId;
use cpgan_nn::NnError;
use std::fmt;

/// A rejected configuration value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// The `CpGanConfig` field that failed validation.
    pub field: &'static str,
    /// Why it was rejected.
    pub reason: String,
}

impl ConfigError {
    /// Builds a validation error for `field`.
    pub fn new(field: &'static str, reason: impl Into<String>) -> Self {
        ConfigError {
            field,
            reason: reason.into(),
        }
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid config field `{}`: {}", self.field, self.reason)
    }
}

impl std::error::Error for ConfigError {}

/// Errors raised while building or running a CPGAN model.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelError {
    /// The configuration failed validation.
    Config(ConfigError),
    /// A tensor operation rejected its operands.
    Nn(NnError),
    /// A generation asked for more nodes than a [`NodeId`] can number.
    TooManyNodes {
        /// The requested node count.
        requested: usize,
    },
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::Config(e) => e.fmt(f),
            ModelError::Nn(e) => e.fmt(f),
            ModelError::TooManyNodes { requested } => write!(
                f,
                "cannot generate {requested} nodes: node ids are {}-bit, so at most {} nodes",
                NodeId::BITS,
                NodeId::MAX
            ),
        }
    }
}

impl std::error::Error for ModelError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ModelError::Config(e) => Some(e),
            ModelError::Nn(e) => Some(e),
            ModelError::TooManyNodes { .. } => None,
        }
    }
}

impl From<ConfigError> for ModelError {
    fn from(e: ConfigError) -> Self {
        ModelError::Config(e)
    }
}

impl From<NnError> for ModelError {
    fn from(e: NnError) -> Self {
        ModelError::Nn(e)
    }
}

/// The one sanctioned panic site for the panicking constructor wrappers.
#[cold]
#[inline(never)]
#[allow(clippy::panic)]
pub(crate) fn model_panic(err: ModelError) -> ! {
    panic!("{err}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_error_names_field() {
        let e = ConfigError::new("hidden_dim", "must be at least 1");
        let msg = e.to_string();
        assert!(msg.contains("hidden_dim"), "{msg}");
        assert!(msg.contains("at least 1"), "{msg}");
    }

    #[test]
    fn model_error_wraps_sources() {
        use std::error::Error as _;
        let e: ModelError = ConfigError::new("levels", "zero").into();
        assert!(e.source().is_some());
        let e: ModelError = NnError::TapeMismatch { op: "add" }.into();
        assert!(e.to_string().contains("different tapes"));
    }
}
