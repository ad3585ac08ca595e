//! The index service: accept loop, admission gate, graceful drain.
//!
//! Architecture (DESIGN.md §8): one reader thread per connection parses
//! frames (`PROTOCOL.md` §2) and answers each query itself, one at a
//! time and in arrival order. Before it answers, a query passes one
//! admission gate: at most `workers` queries are answered at once, at
//! most `queue_depth` wait for a turn, and a query past both is shed with
//! a fast `Overloaded` reply (§5.1) instead of letting latency collapse.
//! Each query runs under its own [`QueryBudget`], built from the frame's
//! budget header (§3.1) at admission — so the wait for a turn counts
//! against the client's deadline. A query whose answer panics is
//! answered `Internal`; its reader lives on.

use crate::pinger::{HealthPinger, PingerConfig};
use crate::protocol::{write_frame, ErrorCode, FrameBuf, Message, PollEvent, TopkReply, HELLO};
use crate::remote::RemoteRouter;
use crate::shard::ServedShard;
use drtopk_common::{Cost, Weights};
use drtopk_core::batch::{panic_message, WORKER_FAILPOINT};
use drtopk_core::{
    DualLayerIndex, QueryBudget, ResultCache, ShardError, ShardHealth, ShardProbe, ShardRouter,
    ShardedTopk,
};
use drtopk_obs::metrics;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Failpoint visited once per accepted connection, right after the hello
/// exchange. The chaos suite arms it to prove a poisoned accept path
/// degrades to a graceful connection-scoped ERROR frame (`PROTOCOL.md`
/// §5.2: `request_id = 0`), never a hang or a silent drop.
pub const ACCEPT_FAILPOINT: &str = "server::accept";

/// How often blocked connection readers wake to check the drain flag and
/// the hello's [`PARTIAL_DEADLINE`].
const READ_POLL: Duration = Duration::from_millis(25);

/// How long one write to a connection may block on a client that does
/// not read its replies. A reply write that fails closes the connection,
/// so a client that stops reading loses only its own connection; it
/// holds no turn while the write waits.
const WRITE_DEADLINE: Duration = Duration::from_millis(500);

/// How long a peer may take to finish what it began sending: the 8-byte
/// hello (from accept), a frame (from when its first byte arrived) and an
/// HTTP request line (`PROTOCOL.md` §1.1, §2.2, §6). A connection idle
/// between frames has no deadline.
const PARTIAL_DEADLINE: Duration = Duration::from_secs(2);

/// Why the gate lock cannot be poisoned: no holder panics while it holds
/// it (only counts and the flag change under it).
const GATE_LOCK: &str = "gate lock poisoned, but no holder panics";

/// Configuration for [`Server::start`], built fluently.
///
/// ```
/// use drtopk_server::ServerConfig;
///
/// let cfg = ServerConfig::new()
///     .addr("127.0.0.1:0") // port 0: pick an ephemeral port
///     .workers(4)
///     .queue_depth(512)
///     .cache(true);
/// assert_eq!(cfg.get_workers(), 4);
/// assert_eq!(cfg.get_queue_depth(), 512);
/// ```
///
/// Defaults favor a small host: 2 queries answered at once, up to 1024
/// waiting for a turn, no cache.
///
/// ```
/// let cfg = drtopk_server::ServerConfig::new();
/// assert_eq!(cfg.get_workers(), 2);
/// assert_eq!(cfg.get_queue_depth(), 1024);
/// assert!(!cfg.get_cache());
/// ```
#[derive(Debug, Clone)]
pub struct ServerConfig {
    addr: String,
    workers: usize,
    queue_depth: usize,
    cache: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
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

    /// How many queries are answered at once (minimum 1). Each is
    /// answered on the reader thread of the connection that sent it; the
    /// server spawns no worker threads.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Admission bound: how many admitted queries may wait for a turn. A
    /// query arriving while this many wait is shed with a fast
    /// `Overloaded` reply (`PROTOCOL.md` §5.1). `0` admits nothing —
    /// every query sheds (useful in tests).
    pub fn queue_depth(mut self, depth: usize) -> Self {
        self.queue_depth = depth;
        self
    }

    /// Serve repeated weight vectors from a shared [`ResultCache`]: hits
    /// are answered at admission and take no turn.
    /// The cache serves single-index deployments ([`Server::start`])
    /// only; the sharded, shard-node and router servers ignore it.
    pub fn cache(mut self, on: bool) -> Self {
        self.cache = on;
        self
    }

    /// Configured listen address.
    pub fn get_addr(&self) -> &str {
        &self.addr
    }

    /// Configured number of queries answered at once.
    pub fn get_workers(&self) -> usize {
        self.workers
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

/// The admission gate (DESIGN.md §8): at most `workers` queries are
/// answered at once, at most `queue_depth` wait for a turn, and the rest
/// are shed. A turn is never idle while a reader waits: a finished
/// answer hands its turn to a waiting reader before it frees it.
struct Gate {
    state: Mutex<GateState>,
    /// Wakes a waiting reader that was handed a turn.
    turn: Condvar,
    /// Wakes [`Gate::wait_idle`] once the last admitted query finishes.
    idle: Condvar,
    queue_depth: usize,
}

#[derive(Default)]
struct GateState {
    /// Turns nobody holds; non-zero only while every waiting reader has
    /// been handed a turn.
    free: usize,
    /// Admitted queries waiting for a turn.
    waiting: usize,
    /// Turns handed to waiting readers and not yet taken.
    handed: usize,
    /// Admitted queries whose reply is not yet written.
    admitted: usize,
    /// Once set, nothing more is admitted.
    draining: bool,
}

impl Gate {
    fn new(workers: usize, queue_depth: usize) -> Self {
        Gate {
            state: Mutex::new(GateState {
                free: workers,
                ..GateState::default()
            }),
            turn: Condvar::new(),
            idle: Condvar::new(),
            queue_depth,
        }
    }

    /// Admits a query and blocks until it holds a turn; or refuses it,
    /// draining or shed.
    fn enter(&self) -> Result<(), (ErrorCode, &'static str)> {
        let m = metrics();
        let admitted = Instant::now();
        let mut s = self.state.lock().expect(GATE_LOCK);
        if s.draining {
            return Err((ErrorCode::ShuttingDown, "server is draining"));
        }
        if s.waiting - s.handed >= self.queue_depth {
            m.server_sheds.add(1);
            return Err((ErrorCode::Overloaded, "queue full"));
        }
        s.admitted += 1;
        m.server_enqueued.add(1);
        if s.free > 0 {
            s.free -= 1;
        } else {
            s.waiting += 1;
            s = self.turn.wait_while(s, |s| s.handed == 0).expect(GATE_LOCK);
            s.handed -= 1;
            s.waiting -= 1;
        }
        drop(s);
        m.server_batch(1);
        m.server_queue_wait_ns
            .record(admitted.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64);
        Ok(())
    }

    /// Gives up a turn: to one waiting reader that has none, else to the
    /// free count.
    fn leave(&self) {
        let mut s = self.state.lock().expect(GATE_LOCK);
        if s.waiting > s.handed {
            s.handed += 1;
            drop(s);
            self.turn.notify_one();
        } else {
            s.free += 1;
        }
    }

    /// Marks an admitted query finished: its reply is written, or failed.
    fn finish(&self) {
        let mut s = self.state.lock().expect(GATE_LOCK);
        s.admitted -= 1;
        if s.draining && s.admitted == 0 {
            self.idle.notify_all();
        }
    }

    /// Sets the drain flag; returns whether it was already set.
    fn drain(&self) -> bool {
        std::mem::replace(&mut self.state.lock().expect(GATE_LOCK).draining, true)
    }

    /// After [`drain`](Self::drain): blocks until every admitted query
    /// has finished.
    fn wait_idle(&self) {
        let s = self.state.lock().expect(GATE_LOCK);
        drop(
            self.idle
                .wait_while(s, |s| s.admitted > 0)
                .expect(GATE_LOCK),
        );
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

/// State shared by the accept loop and the connection readers.
struct Shared {
    backend: Backend,
    gate: Gate,
    local_addr: SocketAddr,
}

impl Shared {
    fn shutting_down(&self) -> bool {
        self.gate.state.lock().expect(GATE_LOCK).draining
    }

    /// Sets the gate's drain flag and wakes the accept loop with a
    /// self-connection.
    fn begin_drain(&self) {
        if !self.gate.drain() {
            let _ = TcpStream::connect(self.local_addr);
        }
    }

    fn prometheus_text(&self) -> String {
        let mut out = String::new();
        match &self.backend {
            Backend::Single { index, .. } => index.stats().prom_gauges(&mut out),
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
                router_gauges(&mut out, router);
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
                router_gauges(&mut out, router);
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

/// A router's gauges: dimensionality, shard count and per-shard health as
/// labeled gauges (0 = up, 1 = degraded, 2 = down). The runbook's
/// alerting keys off the health series (OPERATIONS.md).
fn router_gauges<P: ShardProbe>(out: &mut String, router: &ShardRouter<P>) {
    drtopk_obs::snapshot::prom_gauge(
        out,
        "drtopk_index_dims",
        "Attribute dimensionality",
        router.dims() as f64,
    );
    drtopk_obs::snapshot::prom_gauge(
        out,
        "drtopk_shards",
        "Shard count of the deployment",
        router.shards() as f64,
    );
    out.push_str("# HELP drtopk_shard_health Shard health (0 up, 1 degraded, 2 down)\n");
    out.push_str("# TYPE drtopk_shard_health gauge\n");
    for (s, h) in router.health().iter().enumerate() {
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
    accept: JoinHandle<()>,
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
    /// flag flips, then wait until every admitted query has its reply.
    pub fn shutdown(self) {
        self.shared.begin_drain();
        self.join();
    }

    /// Blocks until the server drains (via [`shutdown`](Self::shutdown)
    /// from another thread, or a client's DRAIN frame) and every admitted
    /// query has its reply.
    pub fn wait(self) {
        self.join();
    }

    fn join(self) {
        let _ = self.accept.join();
        // The accept loop exits only once the gate admits nothing more;
        // once it is idle every admitted query has its reply. Readers exit
        // on their next poll tick, holding only an `Arc<Shared>` and their
        // sockets, so letting the OS reap them is safe.
        self.shared.gate.wait_idle();
        // The pinger outlives the serving threads: `wait()` routes
        // through here while the server is still live, and stopping the
        // pinger before the accept loop exits would silently disable
        // health tracking for the whole run.
        if let Some(p) = self.pinger {
            p.stop();
        }
    }
}

/// The index service entry point.
///
/// [`Server::start`] binds, spawns the accept loop, and returns
/// immediately with a [`ServerHandle`].
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
            gate: Gate::new(cfg.workers, cfg.queue_depth),
            local_addr,
        });

        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("drtopk-accept".to_string())
                .spawn(move || accept_loop(&listener, &shared))
                .expect("spawn accept loop")
        };

        Ok(ServerHandle {
            shared,
            accept,
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

fn handle_connection(mut stream: TcpStream, shared: &Arc<Shared>) {
    metrics().server_connections.add(1);
    let accepted = Instant::now();
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(READ_POLL));
    let _ = stream.set_write_timeout(Some(WRITE_DEADLINE));

    // Sniff the first 8 bytes: a protocol hello (PROTOCOL.md §1.1) or an
    // HTTP GET for /metrics (§6) — "GET " can never begin a valid hello.
    let mut sniff = FrameBuf::default();
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
                // §1.1: a hello not complete in time is closed unanswered.
                if shared.shutting_down() || accepted.elapsed() >= PARTIAL_DEADLINE {
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

    // A reply write that fails ends the loop, and dropping the stream
    // closes the connection: a client that vanished, or stopped reading
    // past the write deadline, loses only its own connection.
    let mut frames = sniff; // any bytes read past the hello stay buffered
    let detail = loop {
        // §2.2: idle between frames is fine; a stalled frame is not.
        let sent = match frames.poll(&mut stream, Some(PARTIAL_DEADLINE)) {
            PollEvent::Frame(id, msg) => dispatch(id, msg, &mut stream, shared),
            PollEvent::Unknown(id, type_byte) => {
                // §5.3: sound framing, unknown type — the connection lives.
                let message = format!("unknown message type 0x{type_byte:02x}");
                let code = ErrorCode::Unsupported;
                write_frame(&mut stream, id, &Message::Error { code, message })
            }
            PollEvent::Timeout if shared.shutting_down() => return,
            PollEvent::Timeout => continue,
            PollEvent::Eof | PollEvent::Io(_) => return,
            // §2.2: framing is untrustworthy past a corrupt or stalled
            // frame.
            PollEvent::Corrupt(detail) => break detail,
        };
        if sent.is_err() {
            return;
        }
    };
    metrics().server_protocol_errors.add(1);
    let msg = Message::Error {
        code: ErrorCode::BadRequest,
        message: detail,
    };
    let _ = write_frame(&mut stream, 0, &msg);
    // The end of stream follows the error even when unread bytes turn
    // the close into a reset.
    let _ = stream.shutdown(Shutdown::Write);
}

/// Answers one sound frame (PROTOCOL.md §3) on the connection that sent
/// it. An error means the reply could not be written.
fn dispatch(
    request_id: u64,
    msg: Message,
    stream: &mut TcpStream,
    shared: &Shared,
) -> io::Result<()> {
    let reply = match msg {
        query @ Message::Query { .. } => return serve_query(request_id, query, stream, shared),
        Message::MetricsRequest => Message::MetricsReply(shared.prometheus_text()),
        Message::Ping => Message::Pong,
        Message::Drain => {
            // Acknowledge first: the drain may end the process.
            let sent = write_frame(stream, request_id, &Message::Draining);
            shared.begin_drain();
            return sent;
        }
        // A client sending response-typed messages is confused (§3).
        Message::Topk(_)
        | Message::MetricsReply(_)
        | Message::Pong
        | Message::Draining
        | Message::Error { .. } => Message::Error {
            code: ErrorCode::BadRequest,
            message: "response-typed message sent to the server".to_string(),
        },
    };
    write_frame(stream, request_id, &reply)
}

/// One query, start to reply (PROTOCOL.md §3.1, §5.1): validate, try the
/// cache, enter the gate (or be refused), answer, leave the gate, write
/// the reply.
fn serve_query(
    request_id: u64,
    query: Message,
    stream: &mut TcpStream,
    shared: &Shared,
) -> io::Result<()> {
    let Message::Query {
        deadline_ms,
        max_cost,
        k,
        weights,
        scores: want_scores,
    } = query
    else {
        unreachable!("dispatch passes only QUERY frames");
    };
    metrics().server_requests.add(1);
    let mut reject = |code: ErrorCode, message: String| {
        write_frame(stream, request_id, &Message::Error { code, message })
    };
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

    // A cache hit is a complete answer, served without a turn.
    if let Backend::Single {
        index,
        cache: Some(cache),
    } = &shared.backend
    {
        if let Some(hit) = cache.probe(index, &w, k) {
            let reply = TopkReply::new(hit.ids.iter().map(|&id| u64::from(id)).collect(), hit.cost);
            return write_frame(stream, request_id, &Message::Topk(reply));
        }
    }

    // The budget clock starts here, at admission (§3.1): the wait for a
    // turn counts against the client's deadline.
    let mut budget = QueryBudget::unlimited();
    if deadline_ms > 0 {
        budget = budget.with_timeout(Duration::from_millis(u64::from(deadline_ms)));
    }
    if max_cost > 0 {
        budget = budget.with_max_cost(max_cost);
    }

    if let Err((code, message)) = shared.gate.enter() {
        return reject(code, message.to_string());
    }
    // A panicking answer replies Internal; the reader lives on.
    let reply = catch_unwind(AssertUnwindSafe(|| {
        answer(&shared.backend, &w, k, &budget, want_scores)
    }))
    .unwrap_or_else(|payload| Message::Error {
        code: ErrorCode::Internal,
        message: panic_message(payload.as_ref()),
    });
    // The turn goes before the write, so a client that stops reading
    // holds none.
    shared.gate.leave();
    let sent = write_frame(stream, request_id, &reply);
    shared.gate.finish();
    sent
}

/// Answers one request on `backend`: the one query path of every served
/// request.
fn answer(
    backend: &Backend,
    w: &Weights,
    k: usize,
    budget: &QueryBudget,
    want_scores: bool,
) -> Message {
    if let Err(e) = drtopk_failpoints::hit(WORKER_FAILPOINT) {
        return Message::Error {
            code: ErrorCode::Internal,
            message: e.to_string(),
        };
    }
    match backend {
        Backend::Single { index, cache } => {
            let g = match cache {
                Some(cache) => cache.answer(index, w, k, budget).0,
                None => index.topk_guarded(w, k, budget),
            };
            Message::Topk(TopkReply {
                truncated: g.truncated,
                ..TopkReply::new(g.ids.iter().map(|&id| u64::from(id)).collect(), g.cost)
            })
        }
        Backend::Sharded { router } => routed_reply(router.topk(w, k, budget)),
        Backend::Remote { router } => routed_reply(router.topk(w, k, budget)),
        // A SHARD_QUERY reply attaches scores (the router's merge orders
        // on `(score, handle)`); a truncated probe reports the truncation
        // flag with an empty id list — the router never merges a partial
        // shard answer, so shipping the prefix would only waste wire.
        Backend::ShardNode { shard } => match shard.probe(w, k, budget) {
            Ok((hits, cost)) => {
                let (scores, ids): (Vec<f64>, Vec<u64>) = hits.into_iter().unzip();
                Message::Topk(TopkReply {
                    scores: want_scores.then_some(scores),
                    ..TopkReply::new(ids, cost)
                })
            }
            Err(ShardError::Truncated(r)) => Message::Topk(TopkReply {
                truncated: Some(r),
                ..TopkReply::new(Vec::new(), Cost::default())
            }),
            Err(e) => Message::Error {
                code: ErrorCode::Internal,
                message: e.to_string(),
            },
        },
    }
}

/// A routed answer as a TOPK reply: degraded coverage travels in the
/// coverage extension (`PROTOCOL.md` §4.1).
fn routed_reply(r: ShardedTopk) -> Message {
    Message::Topk(TopkReply {
        truncated: r.truncated,
        coverage: r.coverage.degraded().then_some(r.coverage),
        ..TopkReply::new(r.ids, r.cost)
    })
}

/// Longest HTTP request line [`serve_http`] buffers (`PROTOCOL.md` §6):
/// a client that sends more without a CRLF is disconnected.
const MAX_REQUEST_LINE: usize = 8 * 1024;

/// Minimal HTTP answer for Prometheus scrapers (`PROTOCOL.md` §6): only
/// the request line matters, only `/metrics` exists.
fn serve_http(stream: &mut TcpStream, acc: &mut Vec<u8>, shared: &Arc<Shared>) {
    let deadline = Instant::now() + PARTIAL_DEADLINE;
    // Bytes of `acc` already scanned; the last one is scanned again, in
    // case a CRLF straddles two reads.
    let mut scanned = 0usize;
    let line_end = loop {
        let from = scanned.saturating_sub(1);
        if let Some(i) = acc[from..].windows(2).position(|w| w == b"\r\n") {
            break from + i;
        }
        scanned = acc.len();
        if scanned > MAX_REQUEST_LINE || Instant::now() >= deadline {
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
    };
    if line_end > MAX_REQUEST_LINE {
        return;
    }
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
    use std::thread;

    /// Waits until the gate's counts satisfy `ready`, as other threads
    /// reach their `wait`.
    fn settle(gate: &Gate, ready: impl Fn(&GateState) -> bool) {
        let give_up = Instant::now() + Duration::from_secs(10);
        while !ready(&gate.state.lock().unwrap()) {
            assert!(Instant::now() < give_up, "the gate never settled");
            thread::sleep(Duration::from_millis(1));
        }
    }

    fn refusal(r: Result<(), (ErrorCode, &'static str)>) -> ErrorCode {
        match r {
            Err((code, _)) => code,
            Ok(_) => panic!("admitted, want a refusal"),
        }
    }

    fn done(gate: &Gate) {
        gate.leave();
        gate.finish();
    }

    #[test]
    fn workers_run_queue_depth_wait_and_the_next_is_shed() {
        let gate = Gate::new(2, 3);
        for _ in 0..2 {
            assert!(gate.enter().is_ok(), "a free turn is taken at once");
        }
        thread::scope(|s| {
            let waiters: Vec<_> = (0..3)
                .map(|_| s.spawn(|| gate.enter().map(|_| done(&gate)).is_ok()))
                .collect();
            settle(&gate, |st| st.waiting == 3);
            assert_eq!(refusal(gate.enter()), ErrorCode::Overloaded);
            done(&gate);
            done(&gate);
            for w in waiters {
                assert!(w.join().unwrap(), "every waiter gets a turn");
            }
        });
        let st = gate.state.lock().unwrap();
        assert_eq!((st.free, st.waiting, st.handed, st.admitted), (2, 0, 0, 0));
    }

    #[test]
    fn queue_depth_zero_sheds_every_query() {
        let gate = Gate::new(2, 0);
        for _ in 0..5 {
            assert_eq!(refusal(gate.enter()), ErrorCode::Overloaded);
        }
        assert_eq!(gate.state.lock().unwrap().free, 2);
    }

    #[test]
    fn a_finished_turn_goes_to_a_waiter_not_the_free_count() {
        let gate = Gate::new(1, 4);
        assert!(gate.enter().is_ok());
        thread::scope(|s| {
            let waiter = s.spawn(|| gate.enter().is_ok());
            settle(&gate, |st| st.waiting == 1);
            gate.leave();
            assert_eq!(gate.state.lock().unwrap().free, 0, "the turn was freed");
            assert!(waiter.join().unwrap());
            let st = gate.state.lock().unwrap();
            assert_eq!((st.free, st.waiting, st.handed), (0, 0, 0));
        });
        gate.finish();
        done(&gate);
        assert_eq!(gate.state.lock().unwrap().free, 1);
    }

    #[test]
    fn a_draining_gate_admits_nothing_and_goes_idle_after_the_last_finish() {
        let gate = Gate::new(2, 2);
        assert!(gate.enter().is_ok());
        assert!(!gate.drain(), "first drain");
        assert!(gate.drain(), "drain is idempotent");
        assert_eq!(refusal(gate.enter()), ErrorCode::ShuttingDown);
        let idle = AtomicBool::new(false);
        thread::scope(|s| {
            s.spawn(|| {
                gate.wait_idle();
                idle.store(true, SeqCst);
            });
            thread::sleep(Duration::from_millis(30));
            gate.leave();
            thread::sleep(Duration::from_millis(30));
            assert!(!idle.load(SeqCst), "idle before the reply was written");
            gate.finish();
        });
        assert!(idle.load(SeqCst));
    }
}
