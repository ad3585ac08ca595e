//! Error type shared across the workspace.

use std::fmt;

/// Errors produced when constructing relations, weights, or indexes.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// A tuple's arity did not match the relation's dimensionality.
    DimensionMismatch {
        /// The relation's dimensionality.
        expected: usize,
        /// The arity actually supplied.
        got: usize,
    },
    /// Dimensionality outside the supported range (the paper evaluates
    /// d in 2..=5; we support any d >= 1 but some structures need d >= 2).
    InvalidDimension(usize),
    /// A weight vector was rejected (non-positive entry, bad length,
    /// non-finite value, or zero sum).
    InvalidWeights(String),
    /// An attribute value was outside `[0,1]` or non-finite.
    InvalidValue {
        /// Index of the offending tuple.
        tuple: usize,
        /// Attribute position of the offending value.
        dim: usize,
        /// The rejected value.
        value: f64,
    },
    /// An underlying I/O operation failed (message carries the OS error).
    Io(String),
    /// Persisted bytes failed integrity checks: bad magic, truncation, or
    /// a checksum mismatch. The data cannot be trusted.
    Corrupt(String),
    /// Structurally or semantically invalid input: a snapshot that decodes
    /// but violates index invariants, or one built with options
    /// incompatible with the ones requested at load time.
    Invalid(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::DimensionMismatch { expected, got } => {
                write!(f, "dimension mismatch: expected {expected}, got {got}")
            }
            Error::InvalidDimension(d) => write!(f, "invalid dimensionality: {d}"),
            Error::InvalidWeights(msg) => write!(f, "invalid weight vector: {msg}"),
            Error::InvalidValue { tuple, dim, value } => {
                write!(f, "invalid value {value} at tuple {tuple}, dim {dim}")
            }
            Error::Io(msg) => write!(f, "io error: {msg}"),
            Error::Corrupt(msg) => write!(f, "corrupt data: {msg}"),
            Error::Invalid(msg) => write!(f, "invalid content: {msg}"),
        }
    }
}

impl std::error::Error for Error {}
