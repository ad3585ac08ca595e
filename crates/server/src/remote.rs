//! Remote shard probes: [`ShardProbe`] over the v1 wire protocol.
//!
//! One [`RemoteShardProbe`] is one shard-node endpoint. Its
//! [`ShardProbe::start`] checks out a pooled connection and sends the
//! SHARD_QUERY; the wait on the returned [`InFlight`] reads the reply
//! through the connection's frame accumulator, so a bounded wait that
//! runs out leaves the framing intact and can be resumed. The router
//! sends every shard's request before it waits for any, so one thread
//! overlaps them all.
//!
//! The router's carved per-shard [`QueryBudget`] travels on the wire as
//! the SHARD_QUERY budget header (`PROTOCOL.md` §3.5), and the reply is
//! due within that remaining budget plus a 20 ms slack — so a stalled
//! node surfaces as [`ShardError::Timeout`] inside the carved window
//! instead of eating the whole request deadline. Wire failures
//! map onto the same [`ShardError`] fault classes the in-process router
//! already distinguishes, which is what lets the existing
//! retry/backoff/health machinery drive remote nodes unchanged.
//!
//! A probe dials at most once per attempt. A refused or reset connect is
//! an `Io` fault like any other: the [`ReplicaSet`] fails over to the
//! next endpoint at once, and with no replica left the router's
//! [`RetryPolicy`](drtopk_core::RetryPolicy) retries the shard on its
//! jittered backoff.
//!
//! | wire outcome                        | fault class                   |
//! |-------------------------------------|-------------------------------|
//! | connect or hello failure            | `Io` (fail over, then retry)  |
//! | connect or hello timed out          | `Timeout`                     |
//! | read timed out                      | `Timeout` (shard stalled)     |
//! | TOPK with truncation flag           | `Truncated` (router classifies: carved → `Timeout`, request → stop) |
//! | ERROR `ShuttingDown` (draining)     | `Unavailable` (try a replica) |
//! | ERROR `Overloaded`                  | `Unavailable` (try a replica) |
//! | ERROR `Internal` / `BadRequest`     | `Io`                          |
//! | protocol violation / bad frame      | `Io` (connection dropped)     |
//! | reply carrying another request id   | `Io` (connection dropped)     |
//! | rows non-finite, unordered, or > k  | `Io` (connection dropped)     |
//!
//! A connection goes back to the pool only after a clean reply to its
//! own request. A probe abandoned in flight (a hedge won the race)
//! closes its connection instead.

use crate::client::{Client, ClientError};
use crate::protocol::{ErrorCode, Message, TopkReply};
use drtopk_common::{Cost, Weights};
use drtopk_core::shard::{
    AwaitProbe, InFlight, ReplicaSet, ScoredHit, ShardAnswer, ShardError, ShardProbe, ShardRouter,
};
use drtopk_core::{QueryBudget, TruncateReason};
use std::io;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The router type a multi-node deployment serves through: every logical
/// shard is a replica set of remote endpoints.
pub type RemoteRouter = ShardRouter<ReplicaSet<RemoteShardProbe>>;

/// Slack added to the carved budget's remaining time when pinning the
/// socket read timeout, covering the reply's own wire time.
const READ_SLACK: Duration = Duration::from_millis(20);

/// One shard-node endpoint, probed over TCP with a small connection
/// pool (checked-out per probe, checked back in after clean replies, so
/// concurrent probes of the same endpoint each get their own stream).
pub struct RemoteShardProbe {
    addr: String,
    dims: usize,
    pool: Mutex<Vec<Client>>,
}

impl std::fmt::Debug for RemoteShardProbe {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RemoteShardProbe")
            .field("addr", &self.addr)
            .field("dims", &self.dims)
            .finish()
    }
}

impl RemoteShardProbe {
    /// A probe for the shard node at `addr` serving `dims`-dimensional
    /// tuples (declared by the topology file — dimensionality must be
    /// known without a network round trip because [`ShardProbe::dims`]
    /// is synchronous and infallible).
    pub fn new(addr: impl Into<String>, dims: usize) -> Self {
        RemoteShardProbe {
            addr: addr.into(),
            dims,
            pool: Mutex::new(Vec::new()),
        }
    }

    /// The endpoint address (metrics labels, pinger targets).
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Pops a pooled connection or dials a fresh one, once. `read_timeout`
    /// is applied *before* the hello exchange on fresh dials — a node that
    /// accepts TCP but never answers (SIGSTOP'd, wedged) must cost this
    /// probe its carved window, not hang its thread forever.
    fn checkout(&self, read_timeout: Option<Duration>) -> Result<Client, ShardError> {
        if let Some(c) = self.pool.lock().unwrap_or_else(|e| e.into_inner()).pop() {
            return Ok(c);
        }
        let res = match read_timeout {
            Some(t) => Client::connect_timeout(self.addr.as_str(), t),
            None => Client::connect(self.addr.as_str()),
        };
        match res {
            Ok(c) => Ok(c),
            Err(ClientError::Io(e)) if is_timeout(&e) => Err(ShardError::Timeout),
            Err(other) => Err(ShardError::Io(format!("connect {}: {other}", self.addr))),
        }
    }

    fn checkin(&self, client: Client) {
        // Clear any probe-scoped read timeout before pooling the stream.
        if client.set_read_timeout(None).is_ok() {
            self.pool
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(client);
        }
    }
}

fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock
    )
}

/// Smallest socket read timeout a bounded wait sets: a zero timeout
/// means "block forever" to the socket layer.
const MIN_READ_TIMEOUT: Duration = Duration::from_micros(100);

impl RemoteShardProbe {
    /// Checks out a connection and sends one SHARD_QUERY under the carved
    /// `budget`, without waiting for the reply.
    fn send(&self, w: &Weights, k: usize, budget: &QueryBudget) -> Result<Reply<'_>, ShardError> {
        // Pre-flight the carved budget: an already-spent deadline or a
        // tripped cancel flag needs no network round trip to report.
        if let Some(f) = budget.cancel_flag() {
            if f.load(std::sync::atomic::Ordering::Relaxed) {
                return Err(ShardError::Truncated(TruncateReason::Cancelled));
            }
        }
        let now = Instant::now();
        let remaining = match budget.deadline() {
            Some(d) if now >= d => return Err(ShardError::Truncated(TruncateReason::Deadline)),
            Some(d) => Some(d - now),
            None => None,
        };

        // Budget propagation (PROTOCOL.md §3.5): the wire deadline is the
        // *remaining* carved per-shard time, floored at 1 ms because 0
        // means unbounded on the wire. The reply must land within it plus
        // slack: a node that stalls past its carved window is a Timeout
        // fault here, not a whole-request stall.
        let deadline_ms =
            remaining.map_or(0, |r| r.as_millis().clamp(1, u128::from(u32::MAX)) as u32);
        let read_timeout = remaining.map(|r| r + READ_SLACK);
        let mut client = self.checkout(read_timeout)?;
        let max_cost = budget.max_cost().unwrap_or(0);
        let id = client
            .send_topk_request(w.as_slice(), k as u32, deadline_ms, max_cost, true)
            .map_err(|e| match e {
                ClientError::Io(e) if is_timeout(&e) => ShardError::Timeout,
                other => ShardError::Io(format!("{}: {other}", self.addr)),
            })?;
        Ok(Reply {
            probe: self,
            client: Some(client),
            id,
            k,
            deadline: read_timeout.map(|t| now + t),
        })
    }

    /// Interprets the frame that answered request `want` for the top-`k`
    /// on `client`, pooling the connection again when the stream is left
    /// sound.
    fn settle(
        &self,
        client: Client,
        want: u64,
        k: usize,
        frame: Result<(u64, Message), ClientError>,
    ) -> Result<ShardAnswer, ShardError> {
        let (id, msg) = match frame {
            Ok(frame) => frame,
            Err(ClientError::Io(e)) => return Err(ShardError::Io(format!("{}: {e}", self.addr))),
            Err(other) => return Err(ShardError::Io(format!("{}: {other}", self.addr))),
        };
        if id != want {
            // Not this probe's reply: the stream cannot be trusted to pair
            // replies with requests any more, so it is dropped unpooled.
            return Err(ShardError::Io(format!(
                "{}: reply to request {id}, expected {want}",
                self.addr
            )));
        }
        match msg {
            Message::Topk(TopkReply {
                truncated: Some(reason),
                ..
            }) => {
                // The shard node's answer was cut by the budget we sent.
                // The connection is healthy; the router classifies the
                // trip (carved → Timeout fault, request-scoped → stop the
                // request).
                self.checkin(client);
                Err(ShardError::Truncated(reason))
            }
            Message::Topk(TopkReply {
                ids,
                evaluated,
                pseudo_evaluated,
                scores: Some(scores),
                ..
            }) => {
                // The decoder read ids and scores under one shared count,
                // so they pair one-to-one.
                let hits: Vec<ScoredHit> = scores.into_iter().zip(ids).collect();
                // The router's merge orders on (score, id): a reply it
                // cannot order, or one longer than asked, is a faulty
                // node, and its connection is not pooled.
                if hits.len() > k {
                    return Err(ShardError::Io(format!(
                        "{}: {} rows for a top-{k}",
                        self.addr,
                        hits.len()
                    )));
                }
                if hits.iter().any(|(score, _)| !score.is_finite()) {
                    return Err(ShardError::Io(format!("{}: non-finite score", self.addr)));
                }
                if hits.windows(2).any(|p| p[0] >= p[1]) {
                    return Err(ShardError::Io(format!(
                        "{}: rows not strictly ascending by (score, id)",
                        self.addr
                    )));
                }
                self.checkin(client);
                let cost = Cost {
                    evaluated,
                    pseudo_evaluated,
                };
                Ok((hits, cost))
            }
            // A complete SHARD_QUERY reply must carry scores: the merge
            // orders on (score, handle).
            Message::Topk(_) => Err(ShardError::Io(format!(
                "{}: complete shard reply missing scores",
                self.addr
            ))),
            Message::Error { code, message } => match code {
                // A draining or overloaded node is a reason to try a
                // replica, not to distrust the data.
                ErrorCode::ShuttingDown => {
                    Err(ShardError::Unavailable(format!("{}: draining", self.addr)))
                }
                ErrorCode::Overloaded => Err(ShardError::Unavailable(format!(
                    "{}: overloaded",
                    self.addr
                ))),
                _ => {
                    // The ERROR frame leaves the stream in a sound
                    // state; pool it for the next probe.
                    self.checkin(client);
                    Err(ShardError::Io(format!("{}: {code}: {message}", self.addr)))
                }
            },
            other => Err(ShardError::Io(format!(
                "{}: unexpected reply: {other:?}",
                self.addr
            ))),
        }
    }
}

/// A SHARD_QUERY on the wire, awaiting its reply. Dropped before the
/// reply arrived, it closes its connection: a late reply must never
/// reach a later probe through the pool.
struct Reply<'a> {
    probe: &'a RemoteShardProbe,
    /// `None` once the reply was read.
    client: Option<Client>,
    /// The request id the reply must carry.
    id: u64,
    /// The `k` the request asked for.
    k: usize,
    /// When the reply is overdue: the carved budget plus read slack.
    deadline: Option<Instant>,
}

impl AwaitProbe for Reply<'_> {
    fn wait(&mut self, limit: Option<Duration>) -> Option<Result<ShardAnswer, ShardError>> {
        let client = self
            .client
            .as_mut()
            .expect("reply waited on after it answered");
        let now = Instant::now();
        let until = match (self.deadline, limit) {
            (Some(d), Some(l)) => Some(d.min(now + l)),
            (d, l) => d.or(l.map(|l| now + l)),
        };
        let timeout = until.map(|u| u.saturating_duration_since(now).max(MIN_READ_TIMEOUT));
        if client.set_read_timeout(timeout).is_err() {
            self.client = None;
            return Some(Err(ShardError::Io(format!(
                "{}: socket configuration",
                self.probe.addr
            ))));
        }
        let frame = match client.recv() {
            Err(ClientError::Io(e)) if is_timeout(&e) => {
                if self.deadline.is_some_and(|d| Instant::now() >= d) {
                    self.client = None;
                    return Some(Err(ShardError::Timeout));
                }
                return None;
            }
            frame => frame,
        };
        let client = self.client.take().expect("checked above");
        Some(self.probe.settle(client, self.id, self.k, frame))
    }
}

impl ShardProbe for RemoteShardProbe {
    fn probe(
        &self,
        w: &Weights,
        k: usize,
        budget: &QueryBudget,
    ) -> Result<ShardAnswer, ShardError> {
        self.start(w, k, budget).finish()
    }

    /// Sends the SHARD_QUERY and returns; the reply is read by the wait.
    fn start(&self, w: &Weights, k: usize, budget: &QueryBudget) -> InFlight<'_> {
        match self.send(w, k, budget) {
            Ok(reply) => InFlight::waiting(reply),
            Err(e) => InFlight::ready(Err(e)),
        }
    }

    fn dims(&self) -> usize {
        self.dims
    }
}
