//! Query-path observability for the `drtopk` workspace.
//!
//! The paper's evaluation metric is a *cost*: Definition 9 counts the
//! tuples evaluated by the scoring function `F` during query processing.
//! This crate makes that cost — and the traversal work behind it —
//! observable on a serving path, continuously and cheaply:
//!
//! * a process-wide [`MetricsRegistry`] of **sharded atomic counters**
//!   (tuples evaluated, ∀/∃ relaxations, heap pushes, zero-layer probes,
//!   batch queue depth, dynamic-index maintenance) — concurrent writers
//!   land on distinct cache-line-padded shards, so recording never
//!   serializes query threads;
//! * **log-bucketed histograms** of per-query latency and paper cost with
//!   p50/p95/p99 readout;
//! * a per-query span ([`QuerySpan`]) plus a scratch-resident local
//!   counter block ([`QueryCounters`]): the hot path increments plain
//!   integers and flushes them to the registry *once per query*, so the
//!   per-tuple overhead is a non-atomic add;
//! * a plain-data [`MetricsSnapshot`] with hand-rolled JSON and
//!   Prometheus text-format renderers (`drtopk stats --format json|prom`).
//!
//! Every number exported here maps to a paper quantity; the table lives
//! in `DESIGN.md` § Observability.
//!
//! # One table
//!
//! Every registry metric is one row of the table in `src/table.rs`: its
//! field name and HELP text, plus, for a histogram, the exported family
//! name and unit scale. A macro turns the rows into the registry's
//! fields, the snapshot's fields, `snapshot()`, `reset()` and the row
//! lists both renderers loop over. Adding a metric is one row plus its
//! recording call, e.g. `metrics().cache_hits.add(1)`.
//!
//! # Feature gating
//!
//! Each metric field ([`Counter`], [`Gauge`], [`Histogram`]) carries the
//! gate itself. With the `enabled` feature (default) off, they are built
//! on a zero-sized cell that reads zero, so the registry, [`QueryCounters`]
//! and [`QuerySpan`] are zero-sized, every recording call folds away, and
//! snapshots report zeros. Disable it through the consumer crates, e.g.
//! `cargo build -p drtopk-bench --no-default-features`.
//!
//! # Runtime gating
//!
//! Even when compiled in, recording can be switched off per process with
//! [`MetricsRegistry::set_recording`]: spans skip the clock read and
//! recording calls skip the atomic traffic. The residual cost is the
//! plain-integer increments, which the throughput bench measures at well
//! under the 2 % budget (see `BENCH_throughput.json`).
//!
//! ```
//! use drtopk_obs::metrics;
//!
//! let m = metrics();
//! m.zero_probes.add(1); // e.g. one 2-d zero-layer binary search
//! let snap = m.snapshot();
//! // Recorded when compiled in; silently dropped in a no-op build.
//! assert_eq!(snap.zero_probes, u64::from(drtopk_obs::COMPILED));
//! assert!(snap.to_prometheus().contains("drtopk_zero_probes_total"));
//! ```
#![warn(missing_docs)]

mod registry;
pub mod snapshot;
mod table;

pub use registry::{metrics, Counter, Gauge, Histogram, QueryCounters, QuerySpan};
pub use snapshot::{HistogramSnapshot, MetricsSnapshot};
pub use table::MetricsRegistry;

/// Whether recording support was compiled in (the `enabled` feature).
/// Benchmarks embed this so disabled-build numbers are never mistaken for
/// instrumented ones.
pub const COMPILED: bool = cfg!(feature = "enabled");
