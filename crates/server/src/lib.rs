//! Network index service for the dual-resolution layer index.
//!
//! Everything the workspace built in-process — the O(touched) query hot
//! path, guarded budgets, the batch executor, the weight-space result
//! cache — becomes reachable over TCP here. The design splits three
//! ways:
//!
//! * [`protocol`] — the hand-rolled wire format. **`PROTOCOL.md` is the
//!   contract**: length-prefixed CRC-checked frames in the style of the
//!   write-ahead log, a budget header per query, explicit error codes.
//!   It declares the top-k vocabulary once: one [`Message::Query`], one
//!   [`TopkReply`], core's `TruncateReason` and `ShardCoverage`.
//! * [`server`] — the service: each connection's reader thread answers
//!   its own queries, one at a time, under one admission gate that
//!   bounds how many are answered at once and how many wait for a turn.
//!   Each query runs under its own deadline, through the same query
//!   bodies as the in-process API (for a cached index,
//!   [`ResultCache::answer`](drtopk_core::ResultCache::answer)).
//!   Overload sheds fast (`Overloaded` replies) instead of queueing
//!   without bound; shutdown drains gracefully; `/metrics` answers both
//!   a protocol frame and plain HTTP.
//! * [`client`] — a blocking client with pipelining support, used by the
//!   CLI (`drtopk query --connect`), the tests, and the serving load
//!   generator.
//! * [`shard`] — the served form of one shard for
//!   [`Server::start_sharded`]: a durable per-shard store probed through
//!   the core [`ShardRouter`](drtopk_core::ShardRouter), with failpoint
//!   injection on every probe so chaos tests can prove single-shard
//!   failures degrade coverage instead of availability.
//!
//! ```no_run
//! use drtopk_common::{Distribution, WorkloadSpec};
//! use drtopk_core::{DlOptions, DualLayerIndex};
//! use drtopk_server::{Client, Server, ServerConfig};
//! use std::sync::Arc;
//!
//! let rel = WorkloadSpec::new(Distribution::Independent, 2, 500, 7).generate();
//! let idx = Arc::new(DualLayerIndex::build(&rel, DlOptions::dl_plus()));
//! let handle = Server::start(idx, ServerConfig::new().addr("127.0.0.1:0")).unwrap();
//! let mut client = Client::connect(handle.addr()).unwrap();
//! let reply = client.query(&[0.5, 0.5], 10, 0, 0).unwrap();
//! assert_eq!(reply.ids.len(), 10);
//! handle.shutdown();
//! ```
#![warn(missing_docs)]

pub mod client;
pub mod pinger;
pub mod protocol;
pub mod remote;
pub mod server;
pub mod shard;
pub mod topology;

pub use client::{Client, ClientError};
pub use pinger::{HealthPinger, PingerConfig};
pub use protocol::{ErrorCode, Message, TopkReply, WireError, HELLO, MAX_PAYLOAD};
pub use remote::{RemoteRouter, RemoteShardProbe};
pub use server::{Server, ServerConfig, ServerHandle, ACCEPT_FAILPOINT};
pub use shard::ServedShard;
pub use topology::Topology;
