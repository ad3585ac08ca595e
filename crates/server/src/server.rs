//! The index service: accept loop, admission control, adaptive
//! micro-batching, graceful drain.
//!
//! Architecture (DESIGN.md §8): one reader thread per connection parses
//! frames (`PROTOCOL.md` §2) and *admits* queries into a single bounded
//! queue; a fixed pool of worker threads pulls micro-batches out of that
//! queue and answers them through [`BatchExecutor::run_guarded_each`],
//! each request under its own [`QueryBudget`] built from the frame's
//! budget header (§3.1) at admission time — so time spent queued counts
//! against the client's deadline. When the queue is full, admission sheds
//! the request with a fast `Overloaded` reply (§5.1) instead of letting
//! latency collapse; when a batch fills to `batch_max` or ages past
//! `batch_window` — whichever comes first — it flushes.

use crate::pinger::{HealthPinger, PingerConfig};
use crate::protocol::{
    read_frame, write_frame, Coverage, ErrorCode, Message, WireError, HELLO, MAX_PAYLOAD,
};
use crate::remote::RemoteRouter;
use crate::shard::ServedShard;
use drtopk_common::Weights;
use drtopk_core::{
    BatchExecutor, DualLayerIndex, QueryBudget, ResultCache, ShardHealth, ShardProbe, ShardRouter,
    TruncateReason,
};
use drtopk_obs::metrics;
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::SeqCst};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Failpoint visited once per accepted connection, right after the hello
/// exchange. The chaos suite arms it to prove a poisoned accept path
/// degrades to a graceful connection-scoped ERROR frame (`PROTOCOL.md`
/// §5.2: `request_id = 0`), never a hang or a silent drop.
pub const ACCEPT_FAILPOINT: &str = "server::accept";

/// How often blocked connection readers wake to poll the shutdown flag.
const READ_POLL: Duration = Duration::from_millis(25);

/// Configuration for [`Server::start`], built fluently.
///
/// ```
/// use drtopk_server::ServerConfig;
/// use std::time::Duration;
///
/// let cfg = ServerConfig::new()
///     .addr("127.0.0.1:0") // port 0: pick an ephemeral port
///     .workers(2)
///     .batch_max(64)
///     .batch_window(Duration::from_micros(200))
///     .queue_depth(512)
///     .cache(true);
/// assert_eq!(cfg.get_workers(), 2);
/// assert_eq!(cfg.get_queue_depth(), 512);
/// ```
///
/// Defaults favor a small host: 2 workers, batches of up to 32 requests
/// flushed after at most 200 µs, a queue of 1024, no cache.
///
/// ```
/// let cfg = drtopk_server::ServerConfig::new();
/// assert_eq!(cfg.get_batch_max(), 32);
/// assert!(!cfg.get_cache());
/// ```
#[derive(Debug, Clone)]
pub struct ServerConfig {
    addr: String,
    workers: usize,
    batch_max: usize,
    batch_window: Duration,
    queue_depth: usize,
    cache: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            batch_max: 32,
            batch_window: Duration::from_micros(200),
            queue_depth: 1024,
            cache: false,
        }
    }
}

impl ServerConfig {
    /// The default configuration (see the type-level docs).
    pub fn new() -> Self {
        Self::default()
    }

    /// Listen address, e.g. `"127.0.0.1:7070"`; port `0` binds an
    /// ephemeral port (read it back from [`ServerHandle::addr`]).
    pub fn addr(mut self, addr: impl Into<String>) -> Self {
        self.addr = addr.into();
        self
    }

    /// Number of batch worker threads (minimum 1).
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Flush a micro-batch once it holds this many requests (minimum 1).
    pub fn batch_max(mut self, batch_max: usize) -> Self {
        self.batch_max = batch_max.max(1);
        self
    }

    /// Flush a micro-batch once its oldest request has waited this long,
    /// even if it is below [`batch_max`](Self::batch_max). Zero disables
    /// batching-by-age (every flush is size-1 unless requests are already
    /// queued).
    pub fn batch_window(mut self, window: Duration) -> Self {
        self.batch_window = window;
        self
    }

    /// Admission bound: a query arriving while this many are already
    /// queued is shed with a fast `Overloaded` reply (`PROTOCOL.md`
    /// §5.1). `0` admits nothing — every query sheds (useful in tests).
    pub fn queue_depth(mut self, depth: usize) -> Self {
        self.queue_depth = depth;
        self
    }

    /// Serve repeated weight vectors from a shared [`ResultCache`]: hits
    /// are answered at admission time without ever touching the queue.
    pub fn cache(mut self, on: bool) -> Self {
        self.cache = on;
        self
    }

    /// Configured listen address.
    pub fn get_addr(&self) -> &str {
        &self.addr
    }

    /// Configured worker count.
    pub fn get_workers(&self) -> usize {
        self.workers
    }

    /// Configured batch-size flush bound.
    pub fn get_batch_max(&self) -> usize {
        self.batch_max
    }

    /// Configured batch-age flush bound.
    pub fn get_batch_window(&self) -> Duration {
        self.batch_window
    }

    /// Configured admission bound.
    pub fn get_queue_depth(&self) -> usize {
        self.queue_depth
    }

    /// Whether the result cache is enabled.
    pub fn get_cache(&self) -> bool {
        self.cache
    }
}

/// One admitted query waiting in the shared queue.
struct Pending {
    request_id: u64,
    weights: Weights,
    k: usize,
    budget: QueryBudget,
    admitted: Instant,
    writer: Arc<ConnWriter>,
    /// The request was a SHARD_QUERY (`PROTOCOL.md` §3.5): the reply
    /// must carry per-id scores for the router's k-way merge.
    want_scores: bool,
}

/// The reply side of one connection: workers answering a micro-batch
/// write frames under the stream lock (replies may interleave across
/// requests of different batches; `request_id` pairs them back up,
/// `PROTOCOL.md` §2.3).
struct ConnWriter {
    stream: Mutex<TcpStream>,
    /// Admitted-but-unanswered queries on this connection; the reader
    /// thread lingers on shutdown until this drains to zero so every
    /// admitted query gets its reply before the socket closes.
    outstanding: AtomicUsize,
}

impl ConnWriter {
    fn send(&self, request_id: u64, msg: &Message) {
        let mut stream = self.stream.lock().unwrap();
        // A vanished client is its own problem; the server presses on.
        let _ = write_frame(&mut *stream, request_id, msg);
    }
}

/// What answers the queries: one monolithic index, or a fault-tolerant
/// router over per-shard indexes (DESIGN.md §9).
enum Backend {
    /// A single static [`DualLayerIndex`], optionally cache-fronted.
    Single {
        index: Arc<DualLayerIndex>,
        cache: Option<ResultCache>,
    },
    /// A [`ShardRouter`] over served shards; degraded coverage travels
    /// to clients via the TOPK coverage extension (`PROTOCOL.md` §4.1).
    Sharded {
        router: Arc<ShardRouter<ServedShard>>,
    },
    /// One shard of a multi-node deployment, answering SHARD_QUERY
    /// frames (scores attached) from a remote router node.
    ShardNode { shard: Arc<ServedShard> },
    /// The router node of a multi-node deployment: fan-out over replica
    /// sets of remote shard endpoints, health driven by probe outcomes
    /// and the background pinger.
    Remote { router: Arc<RemoteRouter> },
}

impl Backend {
    fn dims(&self) -> usize {
        match self {
            Backend::Single { index, .. } => index.dims(),
            Backend::Sharded { router } => router.dims(),
            Backend::ShardNode { shard } => shard.dims(),
            Backend::Remote { router } => router.dims(),
        }
    }
}

/// State shared by the accept loop, connection readers, and workers.
struct Shared {
    backend: Backend,
    cfg: ServerConfig,
    queue: Mutex<VecDeque<Pending>>,
    work_ready: Condvar,
    shutdown: AtomicBool,
    local_addr: SocketAddr,
}

impl Shared {
    fn shutting_down(&self) -> bool {
        self.shutdown.load(SeqCst)
    }

    /// Flips the shutdown flag and wakes everyone who might be blocked on
    /// it: workers (condvar) and the accept loop (a self-connection).
    fn begin_drain(&self) {
        if self.shutdown.swap(true, SeqCst) {
            return; // already draining
        }
        self.work_ready.notify_all();
        let _ = TcpStream::connect(self.local_addr);
    }

    fn prometheus_text(&self) -> String {
        let mut out = String::new();
        match &self.backend {
            Backend::Single { index, .. } => {
                for (name, help, value) in index.stats().gauge_rows() {
                    drtopk_obs::snapshot::prom_gauge(
                        &mut out,
                        &format!("drtopk_index_{name}"),
                        help,
                        value as f64,
                    );
                }
            }
            Backend::Sharded { router } => {
                let tuples: usize = (0..router.shards())
                    .filter_map(|s| router.shard(s).with_store(|st| st.len()))
                    .sum();
                drtopk_obs::snapshot::prom_gauge(
                    &mut out,
                    "drtopk_index_tuples",
                    "Live tuples across all shards",
                    tuples as f64,
                );
                drtopk_obs::snapshot::prom_gauge(
                    &mut out,
                    "drtopk_index_dims",
                    "Attribute dimensionality",
                    router.dims() as f64,
                );
                drtopk_obs::snapshot::prom_gauge(
                    &mut out,
                    "drtopk_shards",
                    "Shard count of the deployment",
                    router.shards() as f64,
                );
                shard_health_series(&mut out, &router.health());
            }
            Backend::ShardNode { shard } => {
                let tuples = shard.with_store(|st| st.len()).unwrap_or(0);
                drtopk_obs::snapshot::prom_gauge(
                    &mut out,
                    "drtopk_index_tuples",
                    "Live tuples on this shard node",
                    tuples as f64,
                );
                drtopk_obs::snapshot::prom_gauge(
                    &mut out,
                    "drtopk_index_dims",
                    "Attribute dimensionality",
                    shard.dims() as f64,
                );
                drtopk_obs::snapshot::prom_gauge(
                    &mut out,
                    "drtopk_shard_id",
                    "Logical shard this node serves",
                    shard.id() as f64,
                );
            }
            Backend::Remote { router } => {
                drtopk_obs::snapshot::prom_gauge(
                    &mut out,
                    "drtopk_index_dims",
                    "Attribute dimensionality",
                    router.dims() as f64,
                );
                drtopk_obs::snapshot::prom_gauge(
                    &mut out,
                    "drtopk_shards",
                    "Shard count of the deployment",
                    router.shards() as f64,
                );
                shard_health_series(&mut out, &router.health());
                // Per-endpoint liveness as the pinger/prober believes it.
                // The health CLI and the runbook's endpoint table key off
                // this series (OPERATIONS.md §10).
                out.push_str("# HELP drtopk_endpoint_up Endpoint believed up (1) or down (0)\n");
                out.push_str("# TYPE drtopk_endpoint_up gauge\n");
                for s in 0..router.shards() {
                    let set = router.shard(s);
                    for i in 0..set.len() {
                        out.push_str(&format!(
                            "drtopk_endpoint_up{{shard=\"{s}\",replica=\"{i}\",addr=\"{}\"}} {}\n",
                            set.replica(i).addr(),
                            u8::from(set.is_up(i)),
                        ));
                    }
                }
            }
        }
        out.push_str(&metrics().snapshot().to_prometheus());
        out
    }
}

/// Per-shard health as labeled gauges: 0 = up, 1 = degraded, 2 = down.
/// The runbook's alerting keys off this series (OPERATIONS.md).
fn shard_health_series(out: &mut String, health: &[ShardHealth]) {
    out.push_str("# HELP drtopk_shard_health Shard health (0 up, 1 degraded, 2 down)\n");
    out.push_str("# TYPE drtopk_shard_health gauge\n");
    for (s, h) in health.iter().enumerate() {
        let v = match h {
            ShardHealth::Up => 0,
            ShardHealth::Degraded => 1,
            ShardHealth::Down => 2,
        };
        out.push_str(&format!("drtopk_shard_health{{shard=\"{s}\"}} {v}\n"));
    }
}

/// A running index service. Dropping the handle does **not** stop the
/// server; call [`shutdown`](Self::shutdown) (or send a DRAIN frame,
/// `PROTOCOL.md` §3.4) for a graceful drain, or [`wait`](Self::wait) to
/// block until one happens.
pub struct ServerHandle {
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    /// Background health pinger of a router node (stopped on shutdown).
    pinger: Option<HealthPinger>,
}

impl std::fmt::Debug for ServerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerHandle")
            .field("addr", &self.shared.local_addr)
            .field("draining", &self.shared.shutting_down())
            .finish()
    }
}

impl ServerHandle {
    /// The bound listen address (the actual port when the config asked
    /// for port `0`).
    pub fn addr(&self) -> SocketAddr {
        self.shared.local_addr
    }

    /// The shard router behind this server, when it was started with
    /// [`Server::start_sharded`] — the hook for admin paths (cordon,
    /// rejoin after recovery) and for tests to reach shard state.
    pub fn router(&self) -> Option<&Arc<ShardRouter<ServedShard>>> {
        match &self.shared.backend {
            Backend::Sharded { router } => Some(router),
            _ => None,
        }
    }

    /// The remote router behind this server, when it was started with
    /// [`Server::start_router`] — the hook for admin paths and for tests
    /// to reach endpoint beliefs and shard health.
    pub fn remote_router(&self) -> Option<&Arc<RemoteRouter>> {
        match &self.shared.backend {
            Backend::Remote { router } => Some(router),
            _ => None,
        }
    }

    /// Graceful drain: stop accepting, answer everything already
    /// admitted, reply `ShuttingDown` to queries that arrive after the
    /// flag flips, then join every thread. Idempotent.
    pub fn shutdown(mut self) {
        self.shared.begin_drain();
        self.join();
    }

    /// Blocks until the server drains (via [`shutdown`](Self::shutdown)
    /// from another thread, or a client's DRAIN frame) and every thread
    /// has exited.
    pub fn wait(mut self) {
        self.join();
    }

    fn join(&mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        // Workers drain the queue before exiting; joining them guarantees
        // every admitted query has been answered. Connection reader
        // threads then observe `outstanding == 0` and exit on their next
        // poll tick; they hold only an `Arc<Shared>` and their sockets,
        // so letting the OS reap them after the listener is gone is safe.
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        // The pinger outlives the serving threads: `wait()` routes
        // through here while the server is still live, and stopping the
        // pinger before the accept loop exits would silently disable
        // health tracking for the whole run.
        if let Some(p) = self.pinger.take() {
            p.stop();
        }
    }
}

/// The index service entry point.
///
/// [`Server::start`] binds, spawns the accept loop and worker pool, and
/// returns immediately with a [`ServerHandle`].
#[derive(Debug)]
pub struct Server;

impl Server {
    /// Starts serving `index` per `cfg`. Fails only if the listen socket
    /// cannot be bound.
    pub fn start(index: Arc<DualLayerIndex>, cfg: ServerConfig) -> io::Result<ServerHandle> {
        let backend = Backend::Single {
            cache: cfg.cache.then(ResultCache::default),
            index,
        };
        Self::start_backend(backend, cfg)
    }

    /// Starts serving a sharded deployment: queries fan out through the
    /// router, shard failures degrade coverage instead of failing the
    /// request, and replies carry the coverage extension (`PROTOCOL.md`
    /// §4.1 flags bit 2) whenever a shard was skipped.
    pub fn start_sharded(
        router: Arc<ShardRouter<ServedShard>>,
        cfg: ServerConfig,
    ) -> io::Result<ServerHandle> {
        Self::start_backend(Backend::Sharded { router }, cfg)
    }

    /// Starts one shard node of a multi-node deployment: this process
    /// serves exactly one shard's partition and answers SHARD_QUERY
    /// frames (`PROTOCOL.md` §3.5) with scores attached, for a router
    /// node to merge.
    pub fn start_shard_node(
        shard: Arc<ServedShard>,
        cfg: ServerConfig,
    ) -> io::Result<ServerHandle> {
        Self::start_backend(Backend::ShardNode { shard }, cfg)
    }

    /// Starts the router node of a multi-node deployment: client QUERY
    /// frames fan out over the wire to the topology's shard endpoints,
    /// with replica failover and (when `pinger` is set) background
    /// health pings feeding the router's Up/Degraded/Down slots.
    pub fn start_router(
        router: Arc<RemoteRouter>,
        pinger: Option<PingerConfig>,
        cfg: ServerConfig,
    ) -> io::Result<ServerHandle> {
        let pinger = pinger.map(|p| HealthPinger::start(Arc::clone(&router), p));
        let mut handle = Self::start_backend(Backend::Remote { router }, cfg)?;
        handle.pinger = pinger;
        Ok(handle)
    }

    fn start_backend(backend: Backend, cfg: ServerConfig) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(cfg.get_addr())?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            backend,
            cfg,
            queue: Mutex::new(VecDeque::new()),
            work_ready: Condvar::new(),
            shutdown: AtomicBool::new(false),
            local_addr,
        });

        let workers = (0..shared.cfg.workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("drtopk-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker")
            })
            .collect();

        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("drtopk-accept".to_string())
                .spawn(move || accept_loop(&listener, &shared))
                .expect("spawn accept loop")
        };

        Ok(ServerHandle {
            shared,
            accept: Some(accept),
            workers,
            pinger: None,
        })
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    for stream in listener.incoming() {
        if shared.shutting_down() {
            break; // woken by begin_drain's self-connection
        }
        let Ok(stream) = stream else { continue };
        let shared = Arc::clone(shared);
        let _ = std::thread::Builder::new()
            .name("drtopk-conn".to_string())
            .spawn(move || handle_connection(stream, &shared));
    }
}

/// Accumulates stream bytes and carves complete frames out of the front,
/// so a poll-timeout can never desynchronize framing mid-header (the
/// partial bytes stay buffered for the next poll).
struct FrameBuf {
    acc: Vec<u8>,
}

enum PollEvent {
    Frame(u64, Message),
    Unknown(u64, u8),
    Timeout,
    Eof,
    Corrupt(String),
    Io,
}

impl FrameBuf {
    fn new() -> Self {
        FrameBuf { acc: Vec::new() }
    }

    fn poll(&mut self, stream: &mut TcpStream) -> PollEvent {
        loop {
            if let Some(ev) = self.try_decode() {
                return ev;
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
                Err(_) => return PollEvent::Io,
            }
        }
    }

    fn try_decode(&mut self) -> Option<PollEvent> {
        if self.acc.len() < 8 {
            return None;
        }
        let len = u32::from_le_bytes(self.acc[0..4].try_into().unwrap()) as usize;
        if len == 0 || len > MAX_PAYLOAD {
            return Some(PollEvent::Corrupt(format!(
                "frame length {len} outside 1..={MAX_PAYLOAD}"
            )));
        }
        if self.acc.len() < 8 + len {
            return None;
        }
        let frame: Vec<u8> = self.acc.drain(..8 + len).collect();
        match read_frame(&mut &frame[..]) {
            Ok((id, msg)) => Some(PollEvent::Frame(id, msg)),
            Err(WireError::UnknownType {
                request_id,
                type_byte,
            }) => Some(PollEvent::Unknown(request_id, type_byte)),
            Err(WireError::Corrupt(msg)) => Some(PollEvent::Corrupt(msg)),
            Err(WireError::Io(_)) => Some(PollEvent::Io), // unreachable: full frame buffered
        }
    }
}

fn handle_connection(mut stream: TcpStream, shared: &Arc<Shared>) {
    metrics().server_connections.add(1);
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(READ_POLL));

    // Sniff the first 8 bytes: a protocol hello (PROTOCOL.md §1.1) or an
    // HTTP GET for /metrics (§6) — "GET " can never begin a valid hello.
    let mut sniff = FrameBuf::new();
    loop {
        if sniff.acc.len() >= 4 && &sniff.acc[0..4] == b"GET " {
            serve_http(&mut stream, &mut sniff.acc, shared);
            return;
        }
        if sniff.acc.len() >= 8 {
            break;
        }
        let mut tmp = [0u8; 256];
        match stream.read(&mut tmp) {
            Ok(0) => return,
            Ok(n) => sniff.acc.extend_from_slice(&tmp[..n]),
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if shared.shutting_down() {
                    return;
                }
            }
            Err(_) => return,
        }
    }
    if sniff.acc[0..8] != HELLO {
        metrics().server_protocol_errors.add(1);
        return; // §1.2: bad magic/version gets no reply
    }
    sniff.acc.drain(..8);
    if stream
        .write_all(&HELLO)
        .and_then(|()| stream.flush())
        .is_err()
    {
        return;
    }

    // The accept-path failpoint: degrade to a connection-scoped ERROR
    // (§5.2, request_id 0) instead of a hang or a silent close.
    if let Err(e) = drtopk_failpoints::hit(ACCEPT_FAILPOINT) {
        let msg = Message::Error {
            code: ErrorCode::Internal,
            message: e.to_string(),
        };
        let _ = write_frame(&mut stream, 0, &msg);
        return;
    }

    let writer = Arc::new(ConnWriter {
        stream: match stream.try_clone() {
            Ok(s) => Mutex::new(s),
            Err(_) => return,
        },
        outstanding: AtomicUsize::new(0),
    });

    let mut frames = sniff; // any bytes read past the hello stay buffered
    loop {
        match frames.poll(&mut stream) {
            PollEvent::Frame(id, msg) => dispatch(id, msg, &writer, shared),
            PollEvent::Unknown(id, type_byte) => {
                // §5.3: sound framing, unknown type — the connection lives.
                writer.send(
                    id,
                    &Message::Error {
                        code: ErrorCode::Unsupported,
                        message: format!("unknown message type 0x{type_byte:02x}"),
                    },
                );
            }
            PollEvent::Timeout => {
                if shared.shutting_down() && writer.outstanding.load(SeqCst) == 0 {
                    return;
                }
            }
            PollEvent::Eof => {
                // Clean disconnect; workers still answering this
                // connection's admitted queries hold their own Arc and
                // will fail the writes harmlessly.
                return;
            }
            PollEvent::Corrupt(detail) => {
                // §2.2: framing is untrustworthy past a corrupt frame.
                metrics().server_protocol_errors.add(1);
                writer.send(
                    0,
                    &Message::Error {
                        code: ErrorCode::BadRequest,
                        message: detail,
                    },
                );
                return;
            }
            PollEvent::Io => return,
        }
    }
}

/// Routes one sound frame (PROTOCOL.md §3).
fn dispatch(request_id: u64, msg: Message, writer: &Arc<ConnWriter>, shared: &Arc<Shared>) {
    match msg {
        Message::Query {
            deadline_ms,
            max_cost,
            k,
            weights,
        } => admit_query(
            request_id,
            deadline_ms,
            max_cost,
            k,
            weights,
            false,
            writer,
            shared,
        ),
        Message::ShardQuery {
            deadline_ms,
            max_cost,
            k,
            weights,
        } => admit_query(
            request_id,
            deadline_ms,
            max_cost,
            k,
            weights,
            true,
            writer,
            shared,
        ),
        Message::MetricsRequest => {
            writer.send(request_id, &Message::MetricsReply(shared.prometheus_text()));
        }
        Message::Ping => writer.send(request_id, &Message::Pong),
        Message::Drain => {
            writer.send(request_id, &Message::Draining);
            shared.begin_drain();
        }
        // A client sending response-typed messages is confused (§3).
        Message::Topk { .. }
        | Message::MetricsReply(_)
        | Message::Pong
        | Message::Draining
        | Message::Error { .. } => {
            writer.send(
                request_id,
                &Message::Error {
                    code: ErrorCode::BadRequest,
                    message: "response-typed message sent to the server".to_string(),
                },
            );
        }
    }
}

/// Admission control (PROTOCOL.md §3.1, §5.1): validate, try the cache,
/// then either enqueue under the depth bound or shed with `Overloaded`.
#[allow(clippy::too_many_arguments)]
fn admit_query(
    request_id: u64,
    deadline_ms: u32,
    max_cost: u64,
    k: u32,
    weights: Vec<f64>,
    want_scores: bool,
    writer: &Arc<ConnWriter>,
    shared: &Arc<Shared>,
) {
    metrics().server_requests.add(1);
    let reject = |code: ErrorCode, message: String| {
        writer.send(request_id, &Message::Error { code, message });
    };
    if shared.shutting_down() {
        return reject(ErrorCode::ShuttingDown, "server is draining".to_string());
    }
    if want_scores && !matches!(shared.backend, Backend::ShardNode { .. }) {
        // SHARD_QUERY is node-to-node traffic (§3.5); only a shard node
        // answers it.
        return reject(
            ErrorCode::Unsupported,
            "SHARD_QUERY requires a shard node".to_string(),
        );
    }
    let dims = shared.backend.dims();
    if weights.len() != dims {
        return reject(
            ErrorCode::BadRequest,
            format!("index has {dims} dims, query has {}", weights.len()),
        );
    }
    let w = match Weights::new(weights) {
        Ok(w) => w,
        Err(e) => return reject(ErrorCode::BadRequest, e.to_string()),
    };
    let k = k as usize;

    // Hot weight cells never touch the queue: a cache hit is a complete
    // answer served on the reader thread.
    if let Backend::Single {
        index,
        cache: Some(cache),
    } = &shared.backend
    {
        if let Some(hit) = cache.probe(index, &w, k) {
            writer.send(
                request_id,
                &Message::Topk {
                    truncated: 0,
                    evaluated: hit.cost.evaluated,
                    pseudo_evaluated: hit.cost.pseudo_evaluated,
                    ids: hit.ids.iter().map(|&id| u64::from(id)).collect(),
                    coverage: None,
                    scores: None,
                },
            );
            return;
        }
    }

    // The budget clock starts here, at admission (§3.1): queue wait
    // counts against the client's deadline.
    let mut budget = QueryBudget::unlimited();
    if deadline_ms > 0 {
        budget = budget.with_timeout(Duration::from_millis(u64::from(deadline_ms)));
    }
    if max_cost > 0 {
        budget = budget.with_max_cost(max_cost);
    }

    let mut queue = shared.queue.lock().unwrap();
    if queue.len() >= shared.cfg.queue_depth {
        drop(queue);
        metrics().server_sheds.add(1);
        return reject(ErrorCode::Overloaded, "queue full".to_string());
    }
    writer.outstanding.fetch_add(1, SeqCst);
    queue.push_back(Pending {
        request_id,
        weights: w,
        k,
        budget,
        admitted: Instant::now(),
        writer: Arc::clone(writer),
        want_scores,
    });
    metrics().server_enqueued.add(1);
    drop(queue);
    shared.work_ready.notify_one();
}

/// One worker: assemble a micro-batch (flush on size or age, whichever
/// first), run it, write the replies.
fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let batch = match next_batch(shared) {
            Some(b) => b,
            None => return, // drained and shut down
        };
        run_batch(batch, shared);
    }
}

/// Blocks for work, then gathers up to `batch_max` requests, waiting at
/// most `batch_window` past the first one. Returns `None` when the
/// server is shutting down and the queue is empty.
fn next_batch(shared: &Arc<Shared>) -> Option<Vec<Pending>> {
    let mut queue = shared.queue.lock().unwrap();
    loop {
        if !queue.is_empty() {
            break;
        }
        if shared.shutting_down() {
            return None;
        }
        queue = shared.work_ready.wait(queue).unwrap();
    }
    let mut batch = Vec::with_capacity(shared.cfg.batch_max.min(queue.len()));
    batch.push(queue.pop_front().unwrap());
    let opened = Instant::now();
    while batch.len() < shared.cfg.batch_max {
        if let Some(p) = queue.pop_front() {
            batch.push(p);
            continue;
        }
        if shared.shutting_down() {
            break; // flush immediately: nothing more is coming
        }
        let age = opened.elapsed();
        if age >= shared.cfg.batch_window {
            break;
        }
        let (q, timeout) = shared
            .work_ready
            .wait_timeout(queue, shared.cfg.batch_window - age)
            .unwrap();
        queue = q;
        if timeout.timed_out() && queue.is_empty() {
            break;
        }
    }
    drop(queue);
    Some(batch)
}

fn run_batch(batch: Vec<Pending>, shared: &Arc<Shared>) {
    let m = metrics();
    m.server_batch(batch.len() as u64);
    for p in &batch {
        m.server_queue_wait_ns
            .record(p.admitted.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64);
    }
    match &shared.backend {
        Backend::Single { index, cache } => run_batch_single(batch, index, cache.as_ref()),
        Backend::Sharded { router } => run_batch_sharded(batch, router),
        Backend::ShardNode { shard } => run_batch_shard_node(batch, shard),
        Backend::Remote { router } => run_batch_sharded(batch, router),
    }
}

fn run_batch_single(batch: Vec<Pending>, index: &Arc<DualLayerIndex>, cache: Option<&ResultCache>) {
    let requests: Vec<(Weights, usize, QueryBudget)> = batch
        .iter()
        .map(|p| (p.weights.clone(), p.k, p.budget.clone()))
        .collect();
    // Parallelism comes from the worker pool; each micro-batch runs on
    // its worker's thread so concurrent batches never oversubscribe.
    let mut exec = BatchExecutor::with_threads(index, 1);
    if let Some(cache) = cache {
        exec = exec.with_cache(cache);
    }
    let results = exec.run_guarded_each(&requests);
    for (p, r) in batch.into_iter().zip(results) {
        let msg = match r {
            Ok(g) => Message::Topk {
                truncated: truncate_flag(g.truncated),
                evaluated: g.cost.evaluated,
                pseudo_evaluated: g.cost.pseudo_evaluated,
                ids: g.ids.iter().map(|&id| u64::from(id)).collect(),
                coverage: None,
                scores: None,
            },
            Err(e) => Message::Error {
                code: ErrorCode::Internal,
                message: e.message,
            },
        };
        p.writer.send(p.request_id, &msg);
        p.writer.outstanding.fetch_sub(1, SeqCst);
    }
}

fn run_batch_sharded<S: ShardProbe>(batch: Vec<Pending>, router: &Arc<ShardRouter<S>>) {
    // The router fans each request across all shards itself, so requests
    // run one at a time on this worker — cross-request parallelism still
    // comes from the worker pool. Generic over the probe: the same code
    // serves in-process shards and remote replica sets.
    for p in batch {
        let r = router.topk(&p.weights, p.k, &p.budget);
        let msg = Message::Topk {
            truncated: truncate_flag(r.truncated),
            evaluated: r.cost.evaluated,
            pseudo_evaluated: r.cost.pseudo_evaluated,
            ids: r.ids,
            coverage: r.coverage.degraded().then(|| Coverage {
                shards: r.coverage.total() as u16,
                answered: r.coverage.mask(),
            }),
            scores: None,
        };
        p.writer.send(p.request_id, &msg);
        p.writer.outstanding.fetch_sub(1, SeqCst);
    }
}

/// Answers a batch on a shard node: every request probes this node's one
/// shard directly. A SHARD_QUERY reply attaches scores (the router's
/// merge orders on `(score, handle)`); a truncated probe reports the
/// truncation flag with an empty id list — the router never merges a
/// partial shard answer, so shipping the prefix would only waste wire.
fn run_batch_shard_node(batch: Vec<Pending>, shard: &Arc<ServedShard>) {
    use drtopk_core::shard::ShardError;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    for p in batch {
        // The same per-request panic isolation the batch executor gives
        // the single backend: a poisoned probe answers Internal, the
        // worker (and the node) live on.
        let outcome = catch_unwind(AssertUnwindSafe(|| shard.probe(&p.weights, p.k, &p.budget)))
            .unwrap_or_else(|_| Err(ShardError::Panic("shard probe panicked".to_string())));
        let msg = match outcome {
            Ok((hits, cost)) => {
                let (scores, ids): (Vec<f64>, Vec<u64>) = hits.into_iter().unzip();
                Message::Topk {
                    truncated: 0,
                    evaluated: cost.evaluated,
                    pseudo_evaluated: cost.pseudo_evaluated,
                    ids,
                    coverage: None,
                    scores: p.want_scores.then_some(scores),
                }
            }
            Err(ShardError::Truncated(r)) => Message::Topk {
                truncated: truncate_flag(Some(r)),
                evaluated: 0,
                pseudo_evaluated: 0,
                ids: Vec::new(),
                coverage: None,
                scores: None,
            },
            Err(e) => Message::Error {
                code: ErrorCode::Internal,
                message: e.to_string(),
            },
        };
        p.writer.send(p.request_id, &msg);
        p.writer.outstanding.fetch_sub(1, SeqCst);
    }
}

fn truncate_flag(reason: Option<TruncateReason>) -> u8 {
    match reason {
        None => 0,
        Some(TruncateReason::Deadline) => 1,
        Some(TruncateReason::CostExceeded) => 2,
        Some(TruncateReason::Cancelled) => 3,
    }
}

/// Minimal HTTP answer for Prometheus scrapers (`PROTOCOL.md` §6): only
/// the request line matters, only `/metrics` exists.
fn serve_http(stream: &mut TcpStream, acc: &mut Vec<u8>, shared: &Arc<Shared>) {
    let deadline = Instant::now() + Duration::from_secs(2);
    while !acc.windows(2).any(|w| w == b"\r\n") {
        if Instant::now() >= deadline {
            return;
        }
        let mut tmp = [0u8; 512];
        match stream.read(&mut tmp) {
            Ok(0) => return,
            Ok(n) => acc.extend_from_slice(&tmp[..n]),
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut => {
            }
            Err(_) => return,
        }
    }
    let line_end = acc.windows(2).position(|w| w == b"\r\n").unwrap();
    let line = String::from_utf8_lossy(&acc[..line_end]);
    let path = line.split_whitespace().nth(1).unwrap_or("");
    let (status, body) = if path.starts_with("/metrics") {
        ("200 OK", shared.prometheus_text())
    } else {
        ("404 Not Found", "not found\n".to_string())
    };
    let response = format!(
        "HTTP/1.0 {status}\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = stream.write_all(response.as_bytes());
    let _ = stream.flush();
}
