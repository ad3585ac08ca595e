//! Shared foundations for the `drtopk` workspace.
//!
//! This crate holds everything the index structures and baselines have in
//! common: the flat [`Relation`] storage, linear [`Weights`] scoring,
//! [`dominance`] predicates, the synthetic workload generators from
//! Börzsönyi et al. (ICDE 2001) used in the paper's evaluation, the
//! brute-force top-k [`oracle`], and the [`cost::Cost`] counter that
//! implements the paper's evaluation metric (Definition 9: the number of
//! tuples accessed *and* scored during query processing).
#![warn(missing_docs)]

pub mod columns;
pub mod cost;
pub mod dominance;
pub mod error;
pub mod generator;
pub mod ingest;
pub mod oracle;
pub mod par;
pub mod relation;
pub mod weights;

pub use columns::Columns;
pub use cost::Cost;
pub use dominance::{dominates, dominates_eq};
pub use error::Error;
pub use generator::{Distribution, WorkloadSpec, ZipfWeightWorkload};
pub use ingest::{relation_from_csv, ColumnSpec, Direction, Normalizer};
pub use oracle::topk_bruteforce;
pub use relation::{Relation, TupleId};
pub use weights::Weights;

/// Tolerance used for floating-point comparisons on normalized data in
/// `[0,1]^d`. Strict predicates (dominance, score ordering) use exact
/// comparison; this constant is for validation of user inputs (weight sums).
pub const VALIDATION_EPS: f64 = 1e-9;
