//! The dual-resolution layer index (DL / DL+) — the paper's contribution.
//!
//! A [`DualLayerIndex`] pre-materializes a relation into *coarse* layers
//! (iterated skylines) each split into *fine* sublayers (iterated convex
//! skylines), and connects tuples with two kinds of edges:
//!
//! * **∀-dominance** (classic dominance) between adjacent coarse layers —
//!   a tuple is ∀-free once *every* dominator from the previous coarse
//!   layer has been reported (Definition 7);
//! * **∃-dominance** between adjacent fine sublayers, derived from the
//!   facets of each sublayer's convex skyline — a tuple is ∃-free once
//!   *any* member of one of its ∃-dominance sets has been reported
//!   (Definition 8).
//!
//! Top-k queries (Algorithm 2) pop tuples from a score-ordered queue and
//! only ever score tuples that are both ∀-free and ∃-free (Theorem 3),
//! which provably costs no more than the Dominant Graph's coarse-only
//! filtering (Theorem 5).
//!
//! The *zero layer* (Section V) additionally makes access to the very
//! first sublayer selective: exact weight-range partitioning in 2-d,
//! clustered pseudo-tuples with their own fine sublayers in higher
//! dimensions.
//!
//! The same engine expresses the Dominant Graph baselines: DG is a
//! dual-resolution index without fine splitting ([`DlOptions::dg`]), DG+
//! adds a flat zero layer — which is exactly how the paper describes them.
#![warn(missing_docs)]

pub mod analytics;
mod assemble;
pub mod batch;
pub mod build;
pub mod build_reference;
pub mod cache;
pub mod dynamic;
pub mod explain;
pub mod index;
pub mod monotone;
pub mod options;
pub mod profile;
pub mod query;
pub mod shard;
pub mod snapshot;
pub mod verify;
pub mod zero;

pub use batch::{BatchExecutor, RequestError};
pub use cache::{CacheOutcome, CacheStats, CachedTopk, ResultCache};
pub use dynamic::{DynamicIndex, DynamicState, Handle};
pub use explain::QueryExplain;
pub use index::{DualLayerIndex, IndexStats, NodeId};
pub use monotone::{LogSum, MonotoneScore, WeightedChebyshev, WeightedPower};
pub use options::{DlOptions, EdsPolicy, ZeroMode};
pub use profile::{BuildProfile, PhaseProfile};
pub use query::{
    QueryBudget, QueryScratch, QueryTrace, TopkCursor, TopkResult, TraceStep, TruncateReason,
};
pub use shard::{
    partition_relation, shard_of, ReplicaConfig, ReplicaSet, RetryPolicy, RouterConfig,
    ShardCoverage, ShardError, ShardHealth, ShardProbe, ShardRouter, ShardedTopk, MAX_SHARDS,
};
pub use snapshot::IndexSnapshot;
