//! Persistence and I/O-cost modeling for dual-resolution indexes.
//!
//! * [`mod@format`] — a versioned, checksummed binary file format for
//!   relations and built indexes ([`drtopk_core::IndexSnapshot`]), so the
//!   expensive construction (the paper's Table IV) runs once;
//! * [`blocks`] — the paper's disk-based note made concrete: "tuples in
//!   the same layer are stored in the same disk block to reduce I/O cost"
//!   (Section VI-A). A [`blocks::BlockLayout`] maps tuples to fixed-size
//!   blocks either layer-clustered or in insertion order, and counts the
//!   distinct blocks a query's access set touches;
//! * [`wal`] — a checksummed write-ahead log for dynamic-index mutations,
//!   whose reader recovers the longest valid prefix of a torn file;
//! * [`durable`] — [`durable::DurableDynamicIndex`], a crash-safe
//!   [`drtopk_core::DynamicIndex`]: append-before-apply WAL discipline,
//!   generation-numbered atomic snapshots, and recovery that replays the
//!   log over the newest loadable snapshot;
//! * [`shards`] — the on-disk layout of a sharded deployment: one
//!   independent durable store per shard directory, so failure and
//!   recovery quarantine to a single shard.
//!
//! Fault injection: with the `failpoints` feature on, every I/O boundary
//! in this crate visits a named failpoint (see
//! [`durable::failpoint_sites`]) so chaos tests can deterministically
//! tear writes, flip bits, and fail syscalls. With the feature off (the
//! default) the sites compile to no-ops.

pub mod blocks;
pub mod durable;
pub mod format;
pub mod shards;
pub mod wal;

pub use blocks::{BlockLayout, Placement};
pub use durable::{wal_files, DurableDynamicIndex, DurableOptions, RecoveryReport};
pub use format::{
    load_dynamic_state, load_index, load_relation, save_dynamic_state, save_index, save_relation,
    FormatError,
};
pub use shards::{create_sharded, list_shard_dirs, shard_dir};
pub use wal::{read_wal, WalRecord, WalReplay, WalWriter, MAX_WAL_RECORD};
