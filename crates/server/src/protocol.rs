//! Wire-format encoder/decoder for the drtopk network protocol.
//!
//! **`PROTOCOL.md` is the contract**; this module is its implementation.
//! Every message and field below names the spec section it encodes, and
//! `tests/protocol.rs` pins the spec's worked hex examples (§7) against
//! this encoder byte-for-byte.
//!
//! This is the one place the top-k wire vocabulary lives, one Rust type
//! per wire concept: [`Message::Query`] is both QUERY and SHARD_QUERY
//! (its `scores` flag picks the type byte), [`TopkReply`] is the TOPK
//! body every producer builds and every consumer reads, the truncation
//! bits decode to core's [`TruncateReason`] and the coverage extension
//! to core's [`ShardCoverage`]. [`encode_frame`] and [`decode_payload`]
//! hold the only mapping between those types and their bytes.
//!
//! Framing (§2) follows the write-ahead log: `len u32 LE | crc32 u32 LE |
//! payload`, CRC-32 IEEE over the payload (the same
//! [`drtopk_storage::format::crc32`] the WAL uses), payloads capped at
//! 1 MiB. A frame that fails any check is a [`WireError::Corrupt`]: the
//! stream is unreadable past it, exactly like a torn WAL tail.

use drtopk_common::Cost;
use drtopk_core::{ShardCoverage, TruncateReason};
use drtopk_storage::format::crc32;
use std::io::{self, Read, Write};
use std::time::{Duration, Instant};

/// Connection hello (§1.1): 7 magic bytes + the protocol version.
pub const HELLO: [u8; 8] = *b"DRTOPKN\x01";

/// Largest permitted frame payload (§2.1): 1 MiB, matching
/// [`drtopk_storage::MAX_WAL_RECORD`].
pub const MAX_PAYLOAD: usize = 1 << 20;

/// Fixed payload-header length (§2.3): type byte + request id.
const HEADER: usize = 1 + 8;

/// Message type bytes (§3, §4, §5).
mod ty {
    pub const QUERY: u8 = 0x01;
    pub const METRICS_REQ: u8 = 0x02;
    pub const PING: u8 = 0x03;
    pub const DRAIN: u8 = 0x04;
    pub const SHARD_QUERY: u8 = 0x05;
    pub const TOPK: u8 = 0x81;
    pub const METRICS_REP: u8 = 0x82;
    pub const PONG: u8 = 0x83;
    pub const DRAINING: u8 = 0x84;
    pub const ERROR: u8 = 0x7F;
}

/// Error codes carried by an ERROR frame (§5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// Malformed body, wrong dimensionality, invalid weights (§5 code 1).
    BadRequest = 1,
    /// Too many queries waiting for a turn; the request was shed (§5
    /// code 2).
    Overloaded = 2,
    /// Server is draining; the request was not admitted (§5 code 3).
    ShuttingDown = 3,
    /// The request failed inside the server (§5 code 4).
    Internal = 4,
    /// Unknown message type (§5 code 5, forward-compat rule §1.3).
    Unsupported = 5,
}

impl ErrorCode {
    fn from_u8(b: u8) -> Option<Self> {
        Some(match b {
            1 => ErrorCode::BadRequest,
            2 => ErrorCode::Overloaded,
            3 => ErrorCode::ShuttingDown,
            4 => ErrorCode::Internal,
            5 => ErrorCode::Unsupported,
            _ => return None,
        })
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            ErrorCode::BadRequest => "bad request",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::ShuttingDown => "shutting down",
            ErrorCode::Internal => "internal error",
            ErrorCode::Unsupported => "unsupported message",
        };
        f.write_str(name)
    }
}

/// TOPK flag bits 0–1 (§4.1): the truncation reason encoded as `n` is
/// `TRUNCATE_REASONS[n - 1]`; `0` means complete.
const TRUNCATE_REASONS: [TruncateReason; 3] = [
    TruncateReason::Deadline,
    TruncateReason::CostExceeded,
    TruncateReason::Cancelled,
];

/// A TOPK reply (§4.1): the paper's answer, ids in score order plus
/// their Definition 9 cost, with the budget and coverage it was
/// answered under.
#[derive(Debug, Clone, PartialEq)]
pub struct TopkReply {
    /// Answer ids, ascending `(score, id)`; a true prefix of the exact
    /// answer when `truncated` is `Some`.
    pub ids: Vec<u64>,
    /// Real tuples scored (Definition 9, real part).
    pub evaluated: u64,
    /// Zero-layer pseudo-tuples scored (Definition 9, pseudo part).
    pub pseudo_evaluated: u64,
    /// The budget limit that stopped the answer early (§4.1 flags bits
    /// 0–1); `None` when it ran to completion.
    pub truncated: Option<TruncateReason>,
    /// Degraded shard coverage (§4.1 flags bit 2): `Some` exactly when
    /// one or more shards were skipped, in which case `ids` is the exact
    /// top-k over the answering shards' partitions. Full coverage is
    /// never sent as an extension.
    pub coverage: Option<ShardCoverage>,
    /// Per-id scores (§4.1 flags bit 3): `Some` only in replies to
    /// SHARD_QUERY, one `f64` per id in the same order, so a remote
    /// router can merge on `(score, id)` exactly like the in-process
    /// merge.
    pub scores: Option<Vec<f64>>,
}

impl TopkReply {
    /// A complete, fully covered reply without scores: `ids` at `cost`.
    /// Every other reply is this one with fields overridden.
    pub fn new(ids: Vec<u64>, cost: Cost) -> Self {
        TopkReply {
            ids,
            evaluated: cost.evaluated,
            pseudo_evaluated: cost.pseudo_evaluated,
            truncated: None,
            coverage: None,
            scores: None,
        }
    }

    /// Whether the answer ran to completion (no budget tripped).
    pub fn is_complete(&self) -> bool {
        self.truncated.is_none()
    }

    /// Whether the answer covers every shard of the deployment.
    pub fn is_full_coverage(&self) -> bool {
        self.coverage.is_none()
    }
}

/// One decoded protocol message (the payload past the request id, §2.3).
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// QUERY (§3.1), or SHARD_QUERY (§3.5) when `scores` is set: one
    /// top-k request with its budget header.
    Query {
        /// Budget deadline in milliseconds from admission; `0` = none.
        /// In a SHARD_QUERY it is the *carved per-shard* budget, not the
        /// client's request deadline.
        deadline_ms: u32,
        /// Budget cap on Definition-9 cost; `0` = none.
        max_cost: u64,
        /// Number of results requested.
        k: u32,
        /// Query weight vector (`dims` is implied by the length).
        weights: Vec<f64>,
        /// SHARD_QUERY, type `0x05`: a router-to-shard-node request whose
        /// reply carries the scores extension (§4.1 flags bit 3) so the
        /// router can k-way merge per-shard answers bit-identically.
        scores: bool,
    },
    /// METRICS request (§3.2): empty body.
    MetricsRequest,
    /// PING (§3.3): empty body.
    Ping,
    /// DRAIN (§3.4): begin a graceful drain.
    Drain,
    /// TOPK response (§4.1): answer ids plus the paper cost split.
    Topk(TopkReply),
    /// METRICS response (§4.2): Prometheus text exposition.
    MetricsReply(
        /// The exposition body, UTF-8.
        String,
    ),
    /// PONG (§4.3): empty body.
    Pong,
    /// DRAINING (§4.4): drain acknowledged.
    Draining,
    /// ERROR (§5): a coded failure scoped to `request_id`.
    Error {
        /// What went wrong (§5 table).
        code: ErrorCode,
        /// Human-readable detail; not part of the contract.
        message: String,
    },
}

/// Decode-side failure.
#[derive(Debug)]
pub enum WireError {
    /// The underlying stream failed (includes EOF mid-frame, §2.2).
    Io(io::Error),
    /// The frame violated the spec: bad length, CRC mismatch, truncated
    /// or over-long body (§2.1–§2.2). The stream is unreadable past it.
    Corrupt(String),
    /// Sound frame, unknown type byte (§5.3): the connection survives;
    /// a server answers `ERR_UNSUPPORTED` for this `request_id`.
    UnknownType {
        /// Request id parsed from the sound payload header.
        request_id: u64,
        /// The unrecognized type byte.
        type_byte: u8,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "io error: {e}"),
            WireError::Corrupt(msg) => write!(f, "corrupt frame: {msg}"),
            WireError::UnknownType { type_byte, .. } => {
                write!(f, "unknown message type 0x{type_byte:02x}")
            }
        }
    }
}

impl std::error::Error for WireError {}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        WireError::Io(e)
    }
}

fn corrupt(msg: impl Into<String>) -> WireError {
    WireError::Corrupt(msg.into())
}

/// Encodes `msg` for `request_id` as one complete frame (§2): length
/// prefix, payload CRC, payload.
pub fn encode_frame(request_id: u64, msg: &Message) -> Vec<u8> {
    let mut payload = Vec::with_capacity(HEADER + 16);
    payload.push(type_byte(msg));
    payload.extend_from_slice(&request_id.to_le_bytes());
    encode_body(msg, &mut payload);
    debug_assert!(payload.len() <= MAX_PAYLOAD, "oversized frame");
    let mut frame = Vec::with_capacity(8 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&crc32(&payload).to_le_bytes());
    frame.extend_from_slice(&payload);
    frame
}

fn type_byte(msg: &Message) -> u8 {
    match msg {
        Message::Query { scores: false, .. } => ty::QUERY,
        Message::Query { scores: true, .. } => ty::SHARD_QUERY,
        Message::MetricsRequest => ty::METRICS_REQ,
        Message::Ping => ty::PING,
        Message::Drain => ty::DRAIN,
        Message::Topk(_) => ty::TOPK,
        Message::MetricsReply(_) => ty::METRICS_REP,
        Message::Pong => ty::PONG,
        Message::Draining => ty::DRAINING,
        Message::Error { .. } => ty::ERROR,
    }
}

fn encode_body(msg: &Message, out: &mut Vec<u8>) {
    match msg {
        Message::Query {
            deadline_ms,
            max_cost,
            k,
            weights,
            scores: _,
        } => {
            out.extend_from_slice(&deadline_ms.to_le_bytes());
            out.extend_from_slice(&max_cost.to_le_bytes());
            out.extend_from_slice(&k.to_le_bytes());
            out.extend_from_slice(&(weights.len() as u16).to_le_bytes());
            for w in weights {
                out.extend_from_slice(&w.to_le_bytes());
            }
        }
        Message::Topk(r) => {
            debug_assert!(
                r.scores.as_ref().is_none_or(|s| s.len() == r.ids.len()),
                "scores must pair with ids one-to-one"
            );
            let reason = r.truncated.map_or(0, |t| {
                let at = TRUNCATE_REASONS.iter().position(|&x| x == t);
                1 + at.expect("every reason has flag bits") as u8
            });
            let flags = reason
                | if r.coverage.is_some() { 0x04 } else { 0 }
                | if r.scores.is_some() { 0x08 } else { 0 };
            out.push(flags);
            out.extend_from_slice(&r.evaluated.to_le_bytes());
            out.extend_from_slice(&r.pseudo_evaluated.to_le_bytes());
            out.extend_from_slice(&(r.ids.len() as u32).to_le_bytes());
            for id in &r.ids {
                out.extend_from_slice(&id.to_le_bytes());
            }
            for s in r.scores.iter().flatten() {
                out.extend_from_slice(&s.to_le_bytes());
            }
            if let Some(cov) = r.coverage {
                out.extend_from_slice(&(cov.total() as u16).to_le_bytes());
                out.extend_from_slice(&cov.mask().to_le_bytes());
            }
        }
        Message::MetricsReply(text) => out.extend_from_slice(text.as_bytes()),
        Message::Error { code, message } => {
            out.push(*code as u8);
            out.extend_from_slice(message.as_bytes());
        }
        Message::MetricsRequest
        | Message::Ping
        | Message::Drain
        | Message::Pong
        | Message::Draining => {}
    }
}

/// A little-endian cursor over a decoded payload body.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.pos + n > self.buf.len() {
            return Err(corrupt(format!(
                "body truncated: wanted {n} bytes at offset {}, have {}",
                self.pos,
                self.buf.len() - self.pos
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn finish(&self) -> Result<(), WireError> {
        if self.pos != self.buf.len() {
            return Err(corrupt(format!(
                "{} trailing bytes past the message body",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }
}

/// Decodes one payload (everything past the 8-byte frame header) into
/// `(request_id, message)`. The CRC must already have been verified.
pub fn decode_payload(payload: &[u8]) -> Result<(u64, Message), WireError> {
    if payload.len() < HEADER {
        return Err(corrupt(format!(
            "payload shorter than the {HEADER}-byte header: {} bytes",
            payload.len()
        )));
    }
    let mut c = Cursor {
        buf: payload,
        pos: 0,
    };
    let type_byte = c.u8()?;
    let request_id = c.u64()?;
    let msg = match type_byte {
        ty::QUERY | ty::SHARD_QUERY => {
            let deadline_ms = c.u32()?;
            let max_cost = c.u64()?;
            let k = c.u32()?;
            let dims = c.u16()? as usize;
            let mut weights = Vec::with_capacity(dims);
            for _ in 0..dims {
                weights.push(c.f64()?);
            }
            Message::Query {
                deadline_ms,
                max_cost,
                k,
                weights,
                scores: type_byte == ty::SHARD_QUERY,
            }
        }
        ty::METRICS_REQ => Message::MetricsRequest,
        ty::PING => Message::Ping,
        ty::DRAIN => Message::Drain,
        ty::TOPK => {
            let flags = c.u8()?;
            if flags & !0x0F != 0 {
                return Err(corrupt(format!(
                    "reserved TOPK flag bits set: {flags:#04x}"
                )));
            }
            let truncated = (flags & 0x03)
                .checked_sub(1)
                .map(|n| TRUNCATE_REASONS[n as usize]);
            let evaluated = c.u64()?;
            let pseudo_evaluated = c.u64()?;
            let count = c.u32()? as usize;
            // One shared count sizes the ids and, when flag bit 3 is set,
            // as many scores (§4.1): an honest count can't outrun the
            // payload that carries them.
            let width = if flags & 0x08 != 0 { 16 } else { 8 };
            if count > (payload.len() - c.pos) / width {
                return Err(corrupt(format!("id count {count} exceeds the body")));
            }
            let mut ids = Vec::with_capacity(count);
            for _ in 0..count {
                ids.push(c.u64()?);
            }
            let scores = if flags & 0x08 != 0 {
                let mut scores = Vec::with_capacity(count);
                for _ in 0..count {
                    scores.push(c.f64()?);
                }
                Some(scores)
            } else {
                None
            };
            let coverage = if flags & 0x04 != 0 {
                let (shards, answered) = (c.u16()?, c.u64()?);
                let cov = ShardCoverage::from_mask(shards, answered)
                    .map_err(|e| corrupt(e.to_string()))?;
                if cov.is_full() {
                    return Err(corrupt(
                        "full coverage must be encoded without the coverage extension",
                    ));
                }
                Some(cov)
            } else {
                None
            };
            Message::Topk(TopkReply {
                ids,
                evaluated,
                pseudo_evaluated,
                truncated,
                coverage,
                scores,
            })
        }
        ty::METRICS_REP => {
            let rest = c.take(payload.len() - c.pos)?;
            let text = String::from_utf8(rest.to_vec())
                .map_err(|_| corrupt("metrics body is not UTF-8"))?;
            Message::MetricsReply(text)
        }
        ty::PONG => Message::Pong,
        ty::DRAINING => Message::Draining,
        ty::ERROR => {
            let code_byte = c.u8()?;
            let code = ErrorCode::from_u8(code_byte)
                .ok_or_else(|| corrupt(format!("unknown error code {code_byte}")))?;
            let rest = c.take(payload.len() - c.pos)?;
            let message = String::from_utf8(rest.to_vec())
                .map_err(|_| corrupt("error message is not UTF-8"))?;
            Message::Error { code, message }
        }
        other => {
            return Err(WireError::UnknownType {
                request_id,
                type_byte: other,
            })
        }
    };
    c.finish()?;
    Ok((request_id, msg))
}

/// Reads one frame from `r` (§2): validates the length bound and the
/// payload CRC, then decodes. An EOF *before the first header byte*
/// surfaces as `Io(UnexpectedEof)` — callers treat it as a clean
/// disconnect; EOF anywhere later is the torn-tail case.
pub fn read_frame<R: Read>(r: &mut R) -> Result<(u64, Message), WireError> {
    let mut header = [0u8; 8];
    r.read_exact(&mut header)?;
    let len = u32::from_le_bytes(header[0..4].try_into().unwrap()) as usize;
    let want_crc = u32::from_le_bytes(header[4..8].try_into().unwrap());
    if len == 0 || len > MAX_PAYLOAD {
        return Err(corrupt(format!(
            "frame length {len} outside 1..={MAX_PAYLOAD}"
        )));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    let got_crc = crc32(&payload);
    if got_crc != want_crc {
        return Err(corrupt(format!(
            "payload crc mismatch: stored {want_crc:#010x}, computed {got_crc:#010x}"
        )));
    }
    decode_payload(&payload)
}

/// Writes one encoded frame to `w` and flushes it.
pub fn write_frame<W: Write>(w: &mut W, request_id: u64, msg: &Message) -> io::Result<()> {
    w.write_all(&encode_frame(request_id, msg))?;
    w.flush()
}

/// Accumulates stream bytes and carves complete frames out of the front,
/// so a read that times out can never desynchronize framing mid-frame
/// (the partial bytes stay buffered for the next poll). The server's
/// connection readers and the client both read frames through one.
#[derive(Debug, Default)]
pub(crate) struct FrameBuf {
    /// Bytes read but not yet carved into a frame.
    pub(crate) acc: Vec<u8>,
    /// When the first buffered byte of the incomplete frame arrived.
    began: Option<Instant>,
}

/// What one [`FrameBuf::poll`] produced.
#[derive(Debug)]
pub(crate) enum PollEvent {
    /// A sound frame.
    Frame(u64, Message),
    /// A sound frame of an unknown type (§5.3).
    Unknown(u64, u8),
    /// The read timed out; buffered bytes are kept.
    Timeout,
    /// The peer closed the stream between frames.
    Eof,
    /// Untrustworthy framing, the peer closed mid-frame, or a frame
    /// outlasted its poll's limit.
    Corrupt(String),
    /// The read failed.
    Io(io::Error),
}

impl FrameBuf {
    /// Returns the next buffered frame, reading from `stream` (under its
    /// read timeout) until one is complete. With a `limit`, a frame still
    /// incomplete that long after its first byte arrived is `Corrupt`,
    /// however steadily its bytes trickle in.
    pub(crate) fn poll<R: Read>(&mut self, stream: &mut R, limit: Option<Duration>) -> PollEvent {
        loop {
            if let Some(ev) = self.try_decode() {
                return ev;
            }
            if self.acc.is_empty() {
                self.began = None;
            } else if let Some(limit) = limit {
                let began = *self.began.get_or_insert_with(Instant::now);
                if began.elapsed() >= limit {
                    return PollEvent::Corrupt(format!("frame incomplete after {limit:?}"));
                }
            }
            let mut tmp = [0u8; 4096];
            match stream.read(&mut tmp) {
                Ok(0) => {
                    return if self.acc.is_empty() {
                        PollEvent::Eof
                    } else {
                        PollEvent::Corrupt("eof mid-frame".to_string())
                    }
                }
                Ok(n) => self.acc.extend_from_slice(&tmp[..n]),
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    return PollEvent::Timeout
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return PollEvent::Io(e),
            }
        }
    }

    fn try_decode(&mut self) -> Option<PollEvent> {
        if self.acc.len() < 8 {
            return None;
        }
        let len = u32::from_le_bytes(self.acc[0..4].try_into().expect("4-byte slice")) as usize;
        if len == 0 || len > MAX_PAYLOAD {
            return Some(PollEvent::Corrupt(format!(
                "frame length {len} outside 1..={MAX_PAYLOAD}"
            )));
        }
        if self.acc.len() < 8 + len {
            return None;
        }
        let frame: Vec<u8> = self.acc.drain(..8 + len).collect();
        self.began = None;
        match read_frame(&mut &frame[..]) {
            Ok((id, msg)) => Some(PollEvent::Frame(id, msg)),
            Err(WireError::UnknownType {
                request_id,
                type_byte,
            }) => Some(PollEvent::Unknown(request_id, type_byte)),
            Err(WireError::Corrupt(msg)) => Some(PollEvent::Corrupt(msg)),
            Err(WireError::Io(e)) => Some(PollEvent::Io(e)), // unreachable: full frame buffered
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cost(evaluated: u64, pseudo_evaluated: u64) -> Cost {
        Cost {
            evaluated,
            pseudo_evaluated,
        }
    }

    fn coverage(shards: u16, answered: u64) -> Option<ShardCoverage> {
        Some(ShardCoverage::from_mask(shards, answered).unwrap())
    }

    fn roundtrip(id: u64, msg: Message) {
        let frame = encode_frame(id, &msg);
        let (got_id, got) = read_frame(&mut &frame[..]).expect("roundtrip");
        assert_eq!(got_id, id);
        assert_eq!(got, msg);
    }

    #[test]
    fn every_message_roundtrips() {
        roundtrip(
            7,
            Message::Query {
                deadline_ms: 250,
                max_cost: 0,
                k: 3,
                weights: vec![0.25, 0.75],
                scores: false,
            },
        );
        roundtrip(
            17,
            Message::Query {
                deadline_ms: 40,
                max_cost: 900,
                k: 5,
                weights: vec![1.0, 0.0, 0.5],
                scores: true,
            },
        );
        roundtrip(1, Message::MetricsRequest);
        roundtrip(2, Message::Ping);
        roundtrip(3, Message::Drain);
        roundtrip(7, Message::Topk(TopkReply::new(vec![12, 4, 9], cost(5, 1))));
        roundtrip(
            8,
            Message::Topk(TopkReply {
                truncated: Some(TruncateReason::Deadline),
                coverage: coverage(4, 0b1011),
                ..TopkReply::new(vec![3], cost(5, 0))
            }),
        );
        roundtrip(
            10,
            Message::Topk(TopkReply {
                scores: Some(vec![3.5, -0.25]),
                ..TopkReply::new(vec![12, 4], cost(9, 2))
            }),
        );
        roundtrip(
            11,
            Message::Topk(TopkReply {
                truncated: Some(TruncateReason::CostExceeded),
                coverage: coverage(2, 0b01),
                scores: Some(vec![3.5]),
                ..TopkReply::new(vec![12], cost(9, 2))
            }),
        );
        roundtrip(
            12,
            Message::Topk(TopkReply {
                truncated: Some(TruncateReason::Cancelled),
                ..TopkReply::new(Vec::new(), Cost::default())
            }),
        );
        roundtrip(4, Message::MetricsReply("# HELP x\nx 1\n".into()));
        roundtrip(5, Message::Pong);
        roundtrip(6, Message::Draining);
        roundtrip(
            9,
            Message::Error {
                code: ErrorCode::Overloaded,
                message: "queue full".into(),
            },
        );
    }

    #[test]
    fn zero_and_oversized_lengths_are_rejected() {
        let mut bad = encode_frame(1, &Message::Ping);
        bad[0..4].copy_from_slice(&0u32.to_le_bytes());
        assert!(matches!(
            read_frame(&mut &bad[..]),
            Err(WireError::Corrupt(_))
        ));
        let mut huge = encode_frame(1, &Message::Ping);
        huge[0..4].copy_from_slice(&((MAX_PAYLOAD as u32) + 1).to_le_bytes());
        assert!(matches!(
            read_frame(&mut &huge[..]),
            Err(WireError::Corrupt(_))
        ));
    }

    #[test]
    fn unknown_type_reports_the_request_id() {
        let mut frame = encode_frame(42, &Message::Ping);
        frame[8] = 0x55; // unknown type byte
        let payload = frame[8..].to_vec();
        frame[4..8].copy_from_slice(&crc32(&payload).to_le_bytes());
        match read_frame(&mut &frame[..]) {
            Err(WireError::UnknownType {
                request_id,
                type_byte,
            }) => {
                assert_eq!(request_id, 42);
                assert_eq!(type_byte, 0x55);
            }
            other => panic!("want UnknownType, got {other:?}"),
        }
    }

    #[test]
    fn trailing_garbage_is_corrupt() {
        let mut frame = encode_frame(1, &Message::Ping);
        // Append one byte inside the declared payload and re-checksum.
        frame.push(0xAB);
        let len = (frame.len() - 8) as u32;
        frame[0..4].copy_from_slice(&len.to_le_bytes());
        let payload = frame[8..].to_vec();
        frame[4..8].copy_from_slice(&crc32(&payload).to_le_bytes());
        assert!(matches!(
            read_frame(&mut &frame[..]),
            Err(WireError::Corrupt(_))
        ));
    }

    #[test]
    fn coverage_flags_and_mask_are_validated() {
        let base = Message::Topk(TopkReply {
            coverage: coverage(3, 0b101),
            ..TopkReply::new(vec![7], cost(1, 0))
        });
        // Mutating the flags byte (payload offset 9 → frame offset 17)
        // or the coverage tail must be caught by the decoder.
        let recrc = |frame: &mut Vec<u8>| {
            let payload = frame[8..].to_vec();
            frame[4..8].copy_from_slice(&crc32(&payload).to_le_bytes());
        };

        // Reserved flag bits 4-7 are rejected.
        let mut frame = encode_frame(1, &base);
        frame[17] |= 0x10;
        recrc(&mut frame);
        assert!(matches!(
            read_frame(&mut &frame[..]),
            Err(WireError::Corrupt(_))
        ));

        // A mask with bits past the shard count is rejected. The
        // answered mask is the last 8 bytes of the frame.
        let mut frame = encode_frame(1, &base);
        let n = frame.len();
        frame[n - 8..].copy_from_slice(&0b1101u64.to_le_bytes());
        recrc(&mut frame);
        assert!(matches!(
            read_frame(&mut &frame[..]),
            Err(WireError::Corrupt(_))
        ));

        // Full coverage spelled through the extension is rejected: the
        // canonical encoding of a full answer is flag bit 2 clear.
        let mut frame = encode_frame(1, &base);
        let n = frame.len();
        frame[n - 8..].copy_from_slice(&0b111u64.to_le_bytes());
        recrc(&mut frame);
        assert!(matches!(
            read_frame(&mut &frame[..]),
            Err(WireError::Corrupt(_))
        ));

        // And the happy path still decodes with skipped() naming shard 1.
        let frame = encode_frame(1, &base);
        let (_, msg) = read_frame(&mut &frame[..]).unwrap();
        match msg {
            Message::Topk(reply) => {
                assert_eq!(reply.coverage.unwrap().skipped(), vec![1]);
            }
            other => panic!("want Topk, got {other:?}"),
        }
    }

    #[test]
    fn topk_count_cannot_outrun_the_body() {
        let msg = Message::Topk(TopkReply::new(vec![1, 2], cost(1, 0)));
        let mut frame = encode_frame(1, &msg);
        // count lives at payload offset 26 → frame offset 34.
        frame[34..38].copy_from_slice(&u32::MAX.to_le_bytes());
        let payload = frame[8..].to_vec();
        frame[4..8].copy_from_slice(&crc32(&payload).to_le_bytes());
        assert!(matches!(
            read_frame(&mut &frame[..]),
            Err(WireError::Corrupt(_))
        ));
    }

    #[test]
    fn score_extension_cannot_outrun_the_body() {
        // A frame whose scores flag is set but whose body holds ids only:
        // the shared count then exceeds what remains for scores.
        let msg = Message::Topk(TopkReply::new(vec![1, 2], cost(1, 0)));
        let mut frame = encode_frame(1, &msg);
        frame[17] |= 0x08;
        let payload = frame[8..].to_vec();
        frame[4..8].copy_from_slice(&crc32(&payload).to_le_bytes());
        assert!(matches!(
            read_frame(&mut &frame[..]),
            Err(WireError::Corrupt(_))
        ));
    }
}
