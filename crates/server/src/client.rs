//! Blocking client for the drtopk index service.
//!
//! Speaks `PROTOCOL.md` verbatim: hello exchange (§1.1), then frames
//! (§2). The synchronous [`Client::query`] sends one QUERY and waits for
//! the reply to that request, skipping replies to requests it abandoned
//! earlier; [`Client::ping`], [`Client::metrics_text`] and
//! [`Client::drain`] wait the same way. The split [`Client::send_query`]
//! / [`Client::recv`] pair supports pipelining — many requests in flight
//! on one connection, replies paired back up by `request_id` (§2.3),
//! which the open-loop load generator uses. Replies are the protocol's
//! own types: a top-k answer is a [`TopkReply`].

use crate::protocol::{
    write_frame, ErrorCode, FrameBuf, Message, PollEvent, TopkReply, WireError, HELLO,
};
use drtopk_core::RetryPolicy;
use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// The connection failed or died.
    Io(io::Error),
    /// The server sent bytes that violate the spec.
    Wire(WireError),
    /// The server answered with an ERROR frame (`PROTOCOL.md` §5).
    Server {
        /// The server's error code.
        code: ErrorCode,
        /// The server's human-readable detail.
        message: String,
    },
    /// The reply was a sound frame of an unexpected type.
    Unexpected(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "connection error: {e}"),
            ClientError::Wire(e) => write!(f, "protocol error: {e}"),
            ClientError::Server { code, message } => {
                write!(f, "server error ({code}): {message}")
            }
            ClientError::Unexpected(what) => write!(f, "unexpected reply: {what}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        match e {
            WireError::Io(e) => ClientError::Io(e),
            other => ClientError::Wire(other),
        }
    }
}

/// Whether a connect-time failure is worth retrying: the kinds a server
/// restart or a not-yet-listening socket produce, not spec violations.
fn is_transient(e: &ClientError) -> bool {
    match e {
        ClientError::Io(e) => matches!(
            e.kind(),
            io::ErrorKind::ConnectionRefused
                | io::ErrorKind::ConnectionReset
                | io::ErrorKind::ConnectionAborted
                | io::ErrorKind::TimedOut
                | io::ErrorKind::UnexpectedEof
                | io::ErrorKind::BrokenPipe
        ),
        _ => false,
    }
}

/// A blocking connection to a `drtopk serve` process.
///
/// One `Client` is one TCP connection; it is not `Sync` — use one per
/// thread (the server answers each connection's requests one at a time,
/// so parallelism comes from connections).
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    /// Reply bytes read but not yet a whole frame: a read that times out
    /// mid-frame leaves them here for the next one.
    frames: FrameBuf,
    next_id: u64,
}

impl Client {
    /// Connects and performs the hello exchange (`PROTOCOL.md` §1.1).
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, ClientError> {
        Self::connect_inner(addr, None)
    }

    /// [`connect`](Self::connect) with a read timeout applied *before*
    /// the hello exchange — a stalled listener (one that accepts the TCP
    /// connection but never answers, e.g. a SIGSTOP'd process) then
    /// surfaces as a timed-out hello instead of hanging the caller. The
    /// timeout stays on the socket for subsequent reads.
    pub fn connect_timeout(
        addr: impl ToSocketAddrs,
        timeout: Duration,
    ) -> Result<Self, ClientError> {
        Self::connect_inner(addr, Some(timeout))
    }

    fn connect_inner(
        addr: impl ToSocketAddrs,
        timeout: Option<Duration>,
    ) -> Result<Self, ClientError> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        if let Some(t) = timeout {
            stream.set_read_timeout(Some(t))?;
        }
        stream.write_all(&HELLO)?;
        stream.flush()?;
        let mut echo = [0u8; 8];
        stream.read_exact(&mut echo)?;
        if echo != HELLO {
            return Err(ClientError::Unexpected(format!(
                "bad hello echo: {echo:02x?}"
            )));
        }
        Ok(Client {
            stream,
            frames: FrameBuf::default(),
            next_id: 1,
        })
    }

    /// [`connect`](Self::connect) with bounded retry: up to `retries`
    /// re-attempts after *transient* failures (refused/reset/timed-out
    /// connections, or an interrupted hello), sleeping the router's
    /// jittered exponential backoff ([`RetryPolicy::backoff`]) between
    /// attempts (base `backoff`, doubling, capped at 32× base).
    /// Non-transient failures — a listener that answers with a bad hello,
    /// an unresolvable address — surface immediately: retrying cannot fix
    /// those.
    pub fn connect_with_retry(
        addr: impl ToSocketAddrs + Clone,
        retries: u32,
        backoff: Duration,
    ) -> Result<Self, ClientError> {
        let policy = RetryPolicy {
            max_retries: retries,
            base_backoff: backoff,
            max_backoff: backoff.saturating_mul(32),
        };
        let mut attempt = 0u32;
        loop {
            match Self::connect(addr.clone()) {
                Ok(c) => return Ok(c),
                Err(e) if attempt < policy.max_retries && is_transient(&e) => {
                    // Salted by process so concurrent reconnectors don't
                    // stampede in lockstep.
                    std::thread::sleep(policy.backoff(attempt, u64::from(std::process::id())));
                    attempt += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Sets (or clears) the read timeout on the underlying socket. The
    /// remote shard probe bounds each reply read by the carved per-shard
    /// budget plus slack, so a stalled node surfaces as
    /// `io::ErrorKind::TimedOut`/`WouldBlock` instead of eating the whole
    /// request deadline.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> Result<(), ClientError> {
        Ok(self.stream.set_read_timeout(timeout)?)
    }

    /// Sends `msg` under a fresh request id without waiting, returning
    /// the id.
    fn send(&mut self, msg: &Message) -> Result<u64, ClientError> {
        let id = self.next_id;
        self.next_id += 1;
        write_frame(&mut self.stream, id, msg)?;
        Ok(id)
    }

    /// Sends one QUERY frame (§3.1), or with `scores` a SHARD_QUERY
    /// (§3.5), without waiting, returning its request id. A SHARD_QUERY's
    /// `deadline_ms` is the *carved per-shard* budget, and its reply
    /// carries scores (§4.1 bit 3).
    pub(crate) fn send_topk_request(
        &mut self,
        weights: &[f64],
        k: u32,
        deadline_ms: u32,
        max_cost: u64,
        scores: bool,
    ) -> Result<u64, ClientError> {
        self.send(&Message::Query {
            deadline_ms,
            max_cost,
            k,
            weights: weights.to_vec(),
            scores,
        })
    }

    /// Sends one QUERY frame (§3.1) without waiting, returning its
    /// request id for pairing with a later [`recv`](Self::recv).
    pub fn send_query(
        &mut self,
        weights: &[f64],
        k: u32,
        deadline_ms: u32,
        max_cost: u64,
    ) -> Result<u64, ClientError> {
        self.send_topk_request(weights, k, deadline_ms, max_cost, false)
    }

    /// Reads the next reply frame, whatever request it answers. A read
    /// that times out (see [`set_read_timeout`](Self::set_read_timeout))
    /// keeps what it read of a frame, so a later `recv` resumes it.
    pub fn recv(&mut self) -> Result<(u64, Message), ClientError> {
        match self.frames.poll(&mut self.stream, None) {
            PollEvent::Frame(id, msg) => Ok((id, msg)),
            PollEvent::Unknown(request_id, type_byte) => {
                Err(ClientError::Wire(WireError::UnknownType {
                    request_id,
                    type_byte,
                }))
            }
            PollEvent::Timeout => Err(ClientError::Io(io::ErrorKind::TimedOut.into())),
            PollEvent::Eof => Err(ClientError::Io(io::ErrorKind::UnexpectedEof.into())),
            PollEvent::Corrupt(msg) => Err(ClientError::Wire(WireError::Corrupt(msg))),
            PollEvent::Io(e) => Err(ClientError::Io(e)),
        }
    }

    /// Reads replies until the one to request `want`, skipping replies to
    /// requests abandoned earlier on this connection. An ERROR for `want`,
    /// or a connection-scoped one (request id 0, §5.2), ends the wait as
    /// [`ClientError::Server`].
    fn wait_for(&mut self, want: u64) -> Result<Message, ClientError> {
        loop {
            match self.recv()? {
                (id, Message::Error { code, message }) if id == want || id == 0 => {
                    return Err(ClientError::Server { code, message })
                }
                (id, msg) if id == want => return Ok(msg),
                _ => {}
            }
        }
    }

    /// One synchronous top-k query: send, then wait for that request's
    /// reply. `deadline_ms`/`max_cost` of `0` mean unbounded (§3.1).
    pub fn query(
        &mut self,
        weights: &[f64],
        k: u32,
        deadline_ms: u32,
        max_cost: u64,
    ) -> Result<TopkReply, ClientError> {
        let id = self.send_query(weights, k, deadline_ms, max_cost)?;
        match self.wait_for(id)? {
            Message::Topk(reply) => Ok(reply),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Liveness probe (§3.3).
    pub fn ping(&mut self) -> Result<(), ClientError> {
        let id = self.send(&Message::Ping)?;
        match self.wait_for(id)? {
            Message::Pong => Ok(()),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Fetches the Prometheus text exposition over the protocol (§3.2).
    pub fn metrics_text(&mut self) -> Result<String, ClientError> {
        let id = self.send(&Message::MetricsRequest)?;
        match self.wait_for(id)? {
            Message::MetricsReply(text) => Ok(text),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Asks the server to drain gracefully (§3.4), waiting for the
    /// DRAINING acknowledgement.
    pub fn drain(&mut self) -> Result<(), ClientError> {
        let id = self.send(&Message::Drain)?;
        match self.wait_for(id)? {
            Message::Draining => Ok(()),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }
}
