//! Typed errors for tensor and autodiff operations.
//!
//! Every shape-checked operation in this crate has a fallible `try_*` entry
//! point returning [`NnError`]; the original panicking methods are thin
//! wrappers over them. Callers that can recover (model construction,
//! deserialized inputs) use the `try_*` forms; hot inner loops keep the
//! panicking forms, whose failure is always a programming error.

use std::fmt;

/// A shape mismatch between tensor operands.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShapeError {
    /// Operation that rejected the operands (e.g. `"matmul"`).
    pub op: &'static str,
    /// What the operation required, in human-readable form.
    pub expected: String,
    /// What it was given.
    pub got: String,
}

impl ShapeError {
    /// Builds a shape error for `op`.
    pub fn new(op: &'static str, expected: impl Into<String>, got: impl Into<String>) -> Self {
        ShapeError {
            op,
            expected: expected.into(),
            got: got.into(),
        }
    }
}

impl fmt::Display for ShapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} shape mismatch: expected {}, got {}",
            self.op, self.expected, self.got
        )
    }
}

impl std::error::Error for ShapeError {}

/// Errors produced by `cpgan-nn` operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NnError {
    /// Operand shapes are incompatible.
    Shape(ShapeError),
    /// Two [`crate::Var`]s from different tapes were combined.
    TapeMismatch {
        /// Operation that was attempted across tapes.
        op: &'static str,
    },
    /// Backward was asked of a [`crate::Tape::inference`] tape, which
    /// records no ops and releases values as their handles drop.
    InferenceTape,
}

impl fmt::Display for NnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NnError::Shape(e) => e.fmt(f),
            NnError::TapeMismatch { op } => {
                write!(f, "{op}: variables belong to different tapes")
            }
            NnError::InferenceTape => {
                write!(f, "backward: an inference tape records no gradients")
            }
        }
    }
}

impl std::error::Error for NnError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NnError::Shape(e) => Some(e),
            NnError::TapeMismatch { .. } | NnError::InferenceTape => None,
        }
    }
}

impl From<ShapeError> for NnError {
    fn from(e: ShapeError) -> Self {
        NnError::Shape(e)
    }
}

/// The one sanctioned panic site for the panicking wrapper APIs: keeps the
/// cold path out of inlined op bodies and concentrates the lint exemption.
#[cold]
#[inline(never)]
#[allow(clippy::panic)]
pub(crate) fn nn_panic(err: NnError) -> ! {
    panic!("{err}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_error_message_names_op_and_shapes() {
        let e = ShapeError::new("matmul", "lhs.cols == rhs.rows", "(2, 3) x (4, 5)");
        let msg = e.to_string();
        assert!(msg.contains("matmul shape mismatch"), "{msg}");
        assert!(msg.contains("(2, 3) x (4, 5)"), "{msg}");
    }

    #[test]
    fn tape_mismatch_message() {
        let e = NnError::TapeMismatch { op: "add" };
        assert!(e.to_string().contains("different tapes"));
    }

    #[test]
    fn error_source_chain() {
        use std::error::Error as _;
        let e: NnError = ShapeError::new("zip", "equal shapes", "(1, 1) vs (2, 2)").into();
        assert!(e.source().is_some());
        assert!(NnError::TapeMismatch { op: "mul" }.source().is_none());
    }
}
