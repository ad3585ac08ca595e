//! The multi-node topology file: which shard lives where.
//!
//! A deliberately hand-rolled line format (OPERATIONS.md §10) — one
//! directive per line, `#` comments, order-free:
//!
//! ```text
//! # two logical shards, shard 0 replicated
//! dims 3
//! shard 0 127.0.0.1:7001 127.0.0.1:7101
//! shard 1 127.0.0.1:7002
//! probe-timeout-ms 50      # per-probe budget carve (0 = none)
//! down-after 3             # consecutive probe failures -> shard Down
//! ping-interval-ms 200     # health pinger sweep interval
//! ping-timeout-ms 100      # PING read timeout per endpoint
//! hedge-ms 0               # hedged second probe threshold (0 = off)
//! ```
//!
//! `dims` and a contiguous set of `shard` lines are required; every
//! tunable has the default shown by [`Topology::parse`]'s docs, and any
//! other directive is refused with its line number. A probe dials each
//! endpoint once per attempt: a refused connect fails over to the next
//! endpoint, and with none left the router retries the shard. The
//! router node loads this file (`drtopk serve --topology FILE`), builds
//! a [`RemoteRouter`] with one [`ReplicaSet`] per `shard` line
//! (endpoint order = preference order: first endpoint is the primary),
//! and `drtopk topology check FILE` validates without serving.

use crate::pinger::PingerConfig;
use crate::remote::{RemoteRouter, RemoteShardProbe};
use drtopk_common::Error;
use drtopk_core::shard::MAX_SHARDS;
use drtopk_core::{ReplicaConfig, ReplicaSet, RetryPolicy, RouterConfig};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

/// A parsed, validated topology.
#[derive(Debug, Clone, PartialEq)]
pub struct Topology {
    /// Attribute dimensionality every node must agree on.
    pub dims: usize,
    /// Endpoint addresses per logical shard, preference order (index 0
    /// is the primary).
    pub shards: Vec<Vec<String>>,
    /// Per-probe timeout carved from the request budget; `None` = no
    /// carve (probes bounded only by the request deadline).
    pub probe_timeout: Option<Duration>,
    /// Consecutive probe failures after which a shard goes Down.
    pub down_after: u32,
    /// Health pinger sweep interval.
    pub ping_interval: Duration,
    /// PING read timeout per endpoint.
    pub ping_timeout: Duration,
    /// Hedged second probe threshold; `None` = hedging off.
    pub hedge_after: Option<Duration>,
}

impl Topology {
    /// Parses the line format. Defaults when a directive is absent:
    /// `probe-timeout-ms 50`, `down-after 3`, `ping-interval-ms 200`,
    /// `ping-timeout-ms 100`, `hedge-ms 0` (off).
    pub fn parse(text: &str) -> Result<Self, Error> {
        let invalid = |m: String| Error::Invalid(m);
        let mut dims: Option<usize> = None;
        let mut shards: BTreeMap<usize, Vec<String>> = BTreeMap::new();
        let mut probe_timeout_ms = 50u64;
        let mut down_after = 3u32;
        let mut ping_interval_ms = 200u64;
        let mut ping_timeout_ms = 100u64;
        let mut hedge_ms = 0u64;
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let mut words = line.split_whitespace();
            let key = words.next().expect("non-empty line has a word");
            let n = lineno + 1;
            let mut one_u64 = |what: &str| -> Result<u64, Error> {
                let v = words
                    .next()
                    .ok_or_else(|| invalid(format!("line {n}: {what} needs a value")))?;
                v.parse::<u64>()
                    .map_err(|_| invalid(format!("line {n}: bad {what} value {v:?}")))
            };
            match key {
                "dims" => {
                    let d = one_u64("dims")? as usize;
                    if d == 0 {
                        return Err(invalid(format!("line {n}: dims must be positive")));
                    }
                    if dims.replace(d).is_some() {
                        return Err(invalid(format!("line {n}: dims declared twice")));
                    }
                }
                "shard" => {
                    let s = one_u64("shard id")? as usize;
                    let endpoints: Vec<String> = words.map(str::to_string).collect();
                    if endpoints.is_empty() {
                        return Err(invalid(format!(
                            "line {n}: shard {s} needs at least one endpoint"
                        )));
                    }
                    for ep in &endpoints {
                        let port_ok = ep.rsplit_once(':').is_some_and(|(host, port)| {
                            !host.is_empty() && port.parse::<u16>().is_ok()
                        });
                        if !port_ok {
                            return Err(invalid(format!(
                                "line {n}: endpoint {ep:?} is not host:port"
                            )));
                        }
                    }
                    if shards.insert(s, endpoints).is_some() {
                        return Err(invalid(format!("line {n}: shard {s} declared twice")));
                    }
                }
                "probe-timeout-ms" => probe_timeout_ms = one_u64("probe-timeout-ms")?,
                "down-after" => {
                    // Past u32::MAX is refused, never wrapped.
                    let v = one_u64("down-after")?;
                    down_after = u32::try_from(v).map_err(|_| {
                        invalid(format!("line {n}: down-after {v} exceeds {}", u32::MAX))
                    })?;
                    if down_after == 0 {
                        return Err(invalid(format!("line {n}: down-after must be positive")));
                    }
                }
                "ping-interval-ms" => ping_interval_ms = one_u64("ping-interval-ms")?.max(1),
                "ping-timeout-ms" => ping_timeout_ms = one_u64("ping-timeout-ms")?.max(1),
                "hedge-ms" => hedge_ms = one_u64("hedge-ms")?,
                other => {
                    return Err(invalid(format!("line {n}: unknown directive {other:?}")));
                }
            }
        }
        let dims = dims.ok_or_else(|| invalid("topology declares no dims".to_string()))?;
        if shards.is_empty() {
            return Err(invalid("topology declares no shards".to_string()));
        }
        let p = shards.len();
        if p > MAX_SHARDS {
            return Err(invalid(format!("{p} shards exceeds the cap {MAX_SHARDS}")));
        }
        // Shard ids must be exactly 0..P: the id is the partition index
        // (`h % P`), so a gap would silently drop a partition.
        if let Some((&id, _)) = shards.iter().find(|&(&id, _)| id >= p) {
            return Err(invalid(format!(
                "shard ids must cover 0..{p} contiguously (found {id})"
            )));
        }
        Ok(Topology {
            dims,
            shards: shards.into_values().collect(),
            probe_timeout: (probe_timeout_ms > 0).then(|| Duration::from_millis(probe_timeout_ms)),
            down_after,
            ping_interval: Duration::from_millis(ping_interval_ms),
            ping_timeout: Duration::from_millis(ping_timeout_ms),
            hedge_after: (hedge_ms > 0).then(|| Duration::from_millis(hedge_ms)),
        })
    }

    /// Reads and parses a topology file.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, Error> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path)
            .map_err(|e| Error::Invalid(format!("cannot read topology {}: {e}", path.display())))?;
        Self::parse(&text)
    }

    /// Logical shard count.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// A human-readable summary for `drtopk topology check`.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "topology: {} shard(s), {} dims\n",
            self.shards.len(),
            self.dims
        ));
        for (s, endpoints) in self.shards.iter().enumerate() {
            out.push_str(&format!(
                "  shard {s}: {} replica(s): {}\n",
                endpoints.len(),
                endpoints.join(" ")
            ));
        }
        out.push_str(&format!(
            "  probe-timeout {:?}, down-after {}, hedge {:?}\n",
            self.probe_timeout, self.down_after, self.hedge_after
        ));
        out.push_str(&format!(
            "  ping every {:?} (timeout {:?})\n",
            self.ping_interval, self.ping_timeout
        ));
        out
    }

    /// The health pinger configuration this topology prescribes.
    pub fn pinger_config(&self) -> PingerConfig {
        PingerConfig {
            interval: self.ping_interval,
            timeout: self.ping_timeout,
        }
    }

    /// Builds the remote router: one [`ReplicaSet`] of
    /// [`RemoteShardProbe`]s per shard line. Purely local — no
    /// connections are opened until the first probe.
    pub fn build_router(&self) -> Result<Arc<RemoteRouter>, Error> {
        let replica_cfg = ReplicaConfig {
            hedge_after: self.hedge_after,
        };
        let sets = self
            .shards
            .iter()
            .map(|endpoints| {
                let replicas = endpoints
                    .iter()
                    .map(|addr| Arc::new(RemoteShardProbe::new(addr, self.dims)))
                    .collect();
                ReplicaSet::new(replicas, replica_cfg.clone())
            })
            .collect::<Result<Vec<_>, _>>()?;
        let cfg = RouterConfig {
            retry: RetryPolicy::default(),
            probe_timeout: self.probe_timeout,
            down_after: self.down_after,
        };
        Ok(Arc::new(RemoteRouter::new(sets, cfg)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = "\
        # router topology\n\
        dims 3\n\
        shard 1 127.0.0.1:7002\n\
        shard 0 127.0.0.1:7001 127.0.0.1:7101  # replicated primary\n\
        probe-timeout-ms 40\n\
        hedge-ms 25\n";

    #[test]
    fn parses_directives_and_orders_shards() {
        let t = Topology::parse(GOOD).unwrap();
        assert_eq!(t.dims, 3);
        assert_eq!(t.shard_count(), 2);
        assert_eq!(t.shards[0], vec!["127.0.0.1:7001", "127.0.0.1:7101"]);
        assert_eq!(t.shards[1], vec!["127.0.0.1:7002"]);
        assert_eq!(t.probe_timeout, Some(Duration::from_millis(40)));
        assert_eq!(t.hedge_after, Some(Duration::from_millis(25)));
        assert_eq!(t.down_after, 3, "default survives");
        let router = t.build_router().unwrap();
        assert_eq!(router.shards(), 2);
        assert_eq!(router.dims(), 3);
        assert!(t.summary().contains("shard 0: 2 replica(s)"));
    }

    #[test]
    fn rejects_malformed_topologies() {
        for (text, why) in [
            ("shard 0 a:1\n", "no dims"),
            ("dims 2\n", "no shards"),
            ("dims 0\nshard 0 a:1\n", "zero dims"),
            ("dims 2\nshard 0 a:1\nshard 2 a:2\n", "gap in shard ids"),
            ("dims 2\nshard 0 a:1\nshard 0 a:2\n", "duplicate shard"),
            ("dims 2\nshard 0\n", "no endpoints"),
            ("dims 2\nshard 0 nocolon\n", "bad endpoint"),
            ("dims 2\nshard 0 host:99999\n", "bad port"),
            ("dims 2\nshard 0 a:1\ndown-after 0\n", "zero down-after"),
            ("dims 2\nshard 0 a:1\nwat 3\n", "unknown directive"),
            ("dims 2\ndims 3\nshard 0 a:1\n", "dims twice"),
            (
                "dims 2\nshard 0 a:1\ndown-after 4294967297\n",
                "down-after past u32",
            ),
            (
                "dims 2\nshard 0 a:1\ndown-after 4294967296\n",
                "down-after one past u32",
            ),
        ] {
            assert!(Topology::parse(text).is_err(), "{why}");
        }
        let err = Topology::parse("dims 2\nshard 0 a:1\ndown-after 4294967297\n").unwrap_err();
        assert!(err.to_string().contains("line 3"), "{err}");
        let max = Topology::parse("dims 2\nshard 0 a:1\ndown-after 4294967295\n").unwrap();
        assert_eq!(max.down_after, u32::MAX);
        // The connect retry directives are gone: a file that still names
        // one is refused as unknown, at its line.
        for directive in ["connect-retries 2", "connect-backoff-ms 5"] {
            let text = format!("dims 2\nshard 0 a:1\n{directive}\n");
            let err = Topology::parse(&text).unwrap_err().to_string();
            assert!(err.contains("line 3: unknown directive"), "{err}");
        }
    }

    #[test]
    fn hedge_and_probe_timeout_can_be_disabled() {
        let t = Topology::parse("dims 2\nshard 0 a:1\nprobe-timeout-ms 0\nhedge-ms 0\n").unwrap();
        assert_eq!(t.probe_timeout, None);
        assert_eq!(t.hedge_after, None);
    }
}
