//! The three served workloads. Each drives a deployment started in this
//! process through a closed loop over loopback TCP: two connections, one
//! request in flight on each, the next request sent when its reply lands.

use crate::hist::Timeline;
use crate::report::Report;
use crate::sys::{self, HostClock, SliceClock, SliceUsage, ThreadSampler, Usage};
use crate::trace::{self, Recorder, Requests, Span};
use crate::{err, hist_mean, median, Args, DATA_SEED};
use drtopk_common::{Distribution, Relation, TupleId, Weights, WorkloadSpec, ZipfWeightWorkload};
use drtopk_core::{
    partition_relation, BatchExecutor, DlOptions, DualLayerIndex, QueryBudget, QueryScratch,
    ResultCache, RouterConfig, ShardProbe, ShardRouter,
};
use drtopk_obs::{metrics, MetricsSnapshot};
use drtopk_server::{
    Client, ClientError, RemoteRouter, ServedShard, Server, ServerConfig, ServerHandle, Topology,
};
use drtopk_storage::{create_sharded, DurableOptions};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicU8, Ordering::SeqCst};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    CachedZipf,
    ShardedUniform,
    MultinodeUniform,
}

/// Relation size, dimensionality and answer size of every served workload.
const N: usize = 100_000;
const D: usize = 3;
const K: usize = 10;
/// Load connections, each a closed loop with one request in flight.
const CONNECTIONS: usize = 2;
/// The Zipf weight pool of `cached-zipf`.
const POOL: usize = 64;
const SKEW: f64 = 1.0;
/// Deployments built per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Draws in the seeded stream; a request's id indexes it modulo its
/// length. The uniform stream repeats no weight vector within a window
/// while the load stays below about `STREAM_LEN / 11` requests a second.
const STREAM_LEN: usize = 1 << 17;
/// Load before the measured window: connections open, the cache fills.
const WARMUP: Duration = Duration::from_secs(1);
/// A traced window replays every this-many-th request of a connection.
const TRACE_EVERY: u64 = 4;

const WARM: u8 = 0;
const MEASURE: u8 = 1;
const STOP: u8 = 2;

impl Kind {
    pub fn parse(workload: &str) -> Option<Kind> {
        match workload {
            "cached-zipf" => Some(Kind::CachedZipf),
            "sharded-uniform" => Some(Kind::ShardedUniform),
            "multinode-uniform" => Some(Kind::MultinodeUniform),
            _ => None,
        }
    }

    fn shards(self) -> usize {
        match self {
            Kind::CachedZipf => 1,
            Kind::ShardedUniform => 4,
            Kind::MultinodeUniform => 2,
        }
    }
}

/// The seeded request stream, and the oracle's answer to each of its
/// distinct weight vectors. The answers are loaded before any deployment
/// starts, so each reply is checked as it lands and the check keeps
/// nothing per request.
struct Stream {
    /// The distinct weight vectors: the Zipf pool, or the whole uniform
    /// stream.
    weights: Vec<Weights>,
    /// For the Zipf stream, the pool entry each draw repeats.
    draws: Vec<u32>,
    /// Unsharded `DualLayerIndex::topk` ids, `K` per entry of `weights`.
    expected: Vec<TupleId>,
}

impl Stream {
    fn new(kind: Kind, seed: u64) -> Stream {
        let (weights, draws) = if kind == Kind::CachedZipf {
            let spec = ZipfWeightWorkload::new(D, POOL, STREAM_LEN, SKEW, seed);
            let pool = spec.pool_weights();
            let draws = spec
                .generate()
                .iter()
                .map(|w| pool.iter().position(|p| p == w).expect("draws come from the pool") as u32)
                .collect();
            (pool, draws)
        } else {
            let mut rng = StdRng::seed_from_u64(seed ^ 0x0057_EA11);
            let weights = (0..STREAM_LEN).map(|_| Weights::random(D, &mut rng)).collect();
            (weights, Vec::new())
        };
        Stream {
            weights,
            draws,
            expected: Vec::new(),
        }
    }

    /// The oracle's answers, computed by a child run of this binary (see
    /// [`write_oracle`]) and read back from `file`.
    fn load_expected(&mut self, args: &Args, file: &Path) -> Result<(), String> {
        let exe = std::env::current_exe().map_err(err)?;
        let status = Command::new(exe)
            .args(["--workload", &args.workload, "--seed", &args.seed.to_string()])
            .arg("--oracle-out")
            .arg(file)
            .stdout(Stdio::null())
            .status()
            .map_err(err)?;
        if !status.success() {
            return Err(format!("the oracle run failed: {status}"));
        }
        let bytes = std::fs::read(file).map_err(err)?;
        self.expected = bytes
            .chunks_exact(4)
            .map(|b| TupleId::from_le_bytes(b.try_into().expect("four bytes")))
            .collect();
        if self.expected.len() != self.weights.len() * K {
            return Err(format!("the oracle wrote {} ids", self.expected.len()));
        }
        Ok(())
    }

    fn slot(&self, id: u64) -> usize {
        if self.draws.is_empty() {
            id as usize % self.weights.len()
        } else {
            self.draws[id as usize % self.draws.len()] as usize
        }
    }

    fn get(&self, id: u64) -> &Weights {
        &self.weights[self.slot(id)]
    }

    /// Whether `ids` is the oracle's answer to request `id`.
    fn is_expected(&self, id: u64, ids: &[u64]) -> bool {
        let at = self.slot(id) * K;
        let want = self.expected[at..at + K].iter().map(|&t| u64::from(t));
        ids.iter().copied().eq(want)
    }
}

fn relation() -> Relation {
    WorkloadSpec::new(Distribution::Independent, D, N, DATA_SEED).generate()
}

/// Writes to `out` the ids unsharded `DualLayerIndex::topk` answers for
/// each distinct weight vector of the workload's stream, `K` little-endian
/// `u32`s per vector, in stream order.
pub fn write_oracle(kind: Kind, seed: u64, out: &Path) -> Result<(), String> {
    let stream = Stream::new(kind, seed);
    let oracle = DualLayerIndex::build(&relation(), DlOptions::dl_plus());
    let mut scratch = QueryScratch::for_index(&oracle);
    let mut bytes = Vec::with_capacity(stream.weights.len() * K * 4);
    for w in &stream.weights {
        let r = oracle.topk_with_scratch(w, K, &mut scratch);
        if r.ids.len() != K {
            return Err(format!("the oracle answered {} ids, not {K}", r.ids.len()));
        }
        bytes.extend(r.ids.iter().flat_map(|t| t.to_le_bytes()));
    }
    std::fs::write(out, bytes).map_err(err)
}

fn server_config() -> ServerConfig {
    ServerConfig::new().addr("127.0.0.1:0")
}

/// One running deployment.
struct Deployment {
    /// Servers in shutdown order: the one clients talk to comes first.
    servers: Vec<ServerHandle>,
    rel: Relation,
    /// The static index `cached-zipf` serves.
    index: Option<Arc<DualLayerIndex>>,
    /// The shards the `multinode-uniform` shard nodes serve.
    nodes: Vec<Arc<ServedShard>>,
    build_s: f64,
}

impl Deployment {
    /// Generates the relation, builds, starts serving and waits for the
    /// first answer; returns the deployment and the seconds all that took,
    /// less the time stolen from the benchmark's CPU.
    fn start(kind: Kind, dir: &Path) -> Result<(Deployment, f64), String> {
        let t0 = HostClock::start();
        let rel = relation();
        let tb = HostClock::start();
        let mut dep = Deployment {
            servers: Vec::new(),
            rel,
            index: None,
            nodes: Vec::new(),
            build_s: 0.0,
        };
        match kind {
            Kind::CachedZipf => {
                let idx = Arc::new(DualLayerIndex::build(&dep.rel, DlOptions::dl_plus()));
                dep.build_s = tb.secs();
                let cfg = server_config().cache(true);
                dep.servers.push(Server::start(Arc::clone(&idx), cfg).map_err(err)?);
                dep.index = Some(idx);
            }
            Kind::ShardedUniform => {
                let opts = DurableOptions::default();
                let stores = create_sharded(dir, &dep.rel, kind.shards(), &opts).map_err(err)?;
                dep.build_s = tb.secs();
                let shards: Vec<ServedShard> = stores
                    .into_iter()
                    .enumerate()
                    .map(|(s, st)| ServedShard::new(s, st))
                    .collect();
                let router = ShardRouter::new(shards, RouterConfig::default()).map_err(err)?;
                let server = Server::start_sharded(Arc::new(router), server_config());
                dep.servers.push(server.map_err(err)?);
            }
            Kind::MultinodeUniform => {
                let opts = DurableOptions::default();
                let stores = create_sharded(dir, &dep.rel, kind.shards(), &opts).map_err(err)?;
                dep.build_s = tb.secs();
                dep.nodes = stores
                    .into_iter()
                    .enumerate()
                    .map(|(s, st)| Arc::new(ServedShard::new(s, st)))
                    .collect();
                // A probe timeout far above any healthy probe: a busy
                // two-core host must not turn slow probes into failures.
                let mut topology = format!("dims {D}\nprobe-timeout-ms 1000\n");
                let mut nodes = Vec::new();
                for (s, shard) in dep.nodes.iter().enumerate() {
                    let node = Server::start_shard_node(Arc::clone(shard), server_config());
                    let node = node.map_err(err)?;
                    topology.push_str(&format!("shard {s} {}\n", node.addr()));
                    nodes.push(node);
                }
                let topology = Topology::parse(&topology).map_err(err)?;
                let router = topology.build_router().map_err(err)?;
                let server =
                    Server::start_router(router, Some(topology.pinger_config()), server_config());
                dep.servers.push(server.map_err(err)?);
                dep.servers.extend(nodes);
            }
        }
        let mut client = Client::connect(dep.addr()).map_err(err)?;
        let first = client.query(Weights::uniform(D).as_slice(), K as u32, 0, 0);
        first.map_err(err)?;
        Ok((dep, t0.secs()))
    }

    fn addr(&self) -> SocketAddr {
        self.servers[0].addr()
    }

    fn shutdown(self) {
        for s in self.servers {
            s.shutdown();
        }
    }
}

/// The replay of one traced request down the stack, below the server.
trait Replay: Sync {
    /// Per-connection traversal scratch, one per index the replay queries.
    fn scratch(&self) -> Vec<QueryScratch>;
    fn replay(&self, req: u64, w: &Weights, scratch: &mut [QueryScratch], rec: &mut Recorder);
}

/// What one measured window of the closed loop saw.
struct Window {
    /// Latency in µs of each request by completion time; a failed request
    /// reads +∞.
    lat: Timeline,
    /// What the host gave each slice of `lat`.
    host: SliceUsage,
    answered: u64,
    failed: u64,
    evaluated: u64,
    /// Replies, in the warm-up too, that differ from the oracle.
    mismatches: u64,
    spans: Vec<Span>,
    usage: Usage,
    registry: Option<(MetricsSnapshot, MetricsSnapshot)>,
    threads_peak: usize,
}

impl Window {
    fn new(seconds: f64) -> Window {
        Window {
            lat: Timeline::new(seconds),
            host: SliceUsage::default(),
            answered: 0,
            failed: 0,
            evaluated: 0,
            mismatches: 0,
            spans: Vec::new(),
            usage: Usage::default(),
            registry: None,
            threads_peak: 0,
        }
    }

    fn absorb(&mut self, o: Window) {
        self.lat.merge(&o.lat);
        self.answered += o.answered;
        self.failed += o.failed;
        self.evaluated += o.evaluated;
        self.mismatches += o.mismatches;
        self.spans.extend(o.spans);
    }
}

/// What the load connections of one closed loop share.
struct Load<'a> {
    addr: SocketAddr,
    stream: &'a Stream,
    seconds: f64,
    replay: Option<&'a dyn Replay>,
    /// The zero of every span's start time.
    epoch: Instant,
    phase: AtomicU8,
    /// When the measured window began; set before `phase` turns `MEASURE`.
    t0: OnceLock<Instant>,
}

/// Runs the closed loop: `WARMUP` unmeasured, then `seconds` measured.
/// With `replay`, every `TRACE_EVERY`-th request of a connection is also
/// replayed down the stack once its reply is in.
fn closed_loop(
    addr: SocketAddr,
    stream: &Stream,
    seconds: f64,
    replay: Option<&dyn Replay>,
    sample_threads: bool,
    epoch: Instant,
) -> Result<Window, String> {
    let load = Load {
        addr,
        stream,
        seconds,
        replay,
        epoch,
        phase: AtomicU8::new(WARM),
        t0: OnceLock::new(),
    };
    std::thread::scope(|scope| -> Result<Window, String> {
        let loads: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                let load = &load;
                scope.spawn(move || connection(c, load))
            })
            .collect();
        std::thread::sleep(WARMUP);
        let before = metrics().snapshot();
        let u0 = Usage::now();
        let sampler = sample_threads.then(ThreadSampler::start);
        let mut total = Window::new(seconds);
        let mut clock = SliceClock::start(&total.lat);
        let t0 = Instant::now();
        load.t0.set(t0).expect("the window starts once");
        load.phase.store(MEASURE, SeqCst);
        for i in 1..=total.lat.slices() {
            let end = t0 + Duration::from_secs_f64(total.lat.width() * i as f64);
            std::thread::sleep(end.saturating_duration_since(Instant::now()));
            clock.tick(t0.elapsed().as_secs_f64());
        }
        load.phase.store(STOP, SeqCst);
        total.host = clock.finish();
        (total.usage, total.threads_peak) = Usage::window(u0, sampler);
        total.registry = Some((before, metrics().snapshot()));
        for load in loads {
            total.absorb(load.join().expect("load thread panicked")?);
        }
        Ok(total)
    })
}

/// One load connection. Request ids interleave across connections, so
/// connection `c` sends ids `c`, `c + CONNECTIONS`, ...
fn connection(c: usize, load: &Load) -> Result<Window, String> {
    let mut out = Window::new(load.seconds);
    let mut rec = Recorder::new(load.epoch);
    let mut scratch = load.replay.map_or_else(Vec::new, |r| r.scratch());
    let mut client = Client::connect(load.addr).map_err(err)?;
    for j in 0u64.. {
        let ph = load.phase.load(SeqCst);
        if ph == STOP {
            break;
        }
        let id = c as u64 + CONNECTIONS as u64 * j;
        let w = load.stream.get(id);
        let start = Instant::now();
        let reply = client.query(w.as_slice(), K as u32, 0, 0);
        let lat = start.elapsed();
        let reply = match reply {
            Ok(r) => Some(r),
            // An explicit refusal (shed, draining): the request failed,
            // the connection lives on.
            Err(ClientError::Server { .. }) => None,
            Err(e) => return Err(format!("connection {c}: {e}")),
        };
        let reply = reply.filter(|r| r.is_complete() && r.is_full_coverage());
        if reply.as_ref().is_some_and(|r| !load.stream.is_expected(id, &r.ids)) {
            out.mismatches += 1;
        }
        if ph != MEASURE {
            continue;
        }
        let t0 = *load.t0.get().expect("a measured window has a start");
        let t = (start + lat).saturating_duration_since(t0).as_secs_f64();
        match reply {
            Some(r) => {
                out.answered += 1;
                out.evaluated += r.evaluated + r.pseudo_evaluated;
                out.lat.record(t, lat.as_secs_f64() * 1e6);
            }
            None => {
                out.failed += 1;
                out.lat.record(t, f64::INFINITY);
            }
        }
        if let Some(r) = load.replay.filter(|_| j % TRACE_EVERY == 0) {
            rec.push(id, "client", "", None, start, lat);
            r.replay(id, w, &mut scratch, &mut rec);
        }
    }
    out.spans = rec.spans;
    Ok(out)
}

/// `cached-zipf`: the single backend's batch entry, its cache and the
/// traversal, each on bench-owned instances over the served index.
struct CachedReplay {
    index: Arc<DualLayerIndex>,
    batch_cache: ResultCache,
    cache: ResultCache,
}

impl Replay for CachedReplay {
    fn scratch(&self) -> Vec<QueryScratch> {
        vec![QueryScratch::for_index(&self.index)]
    }

    fn replay(&self, req: u64, w: &Weights, scratch: &mut [QueryScratch], rec: &mut Recorder) {
        let idx = &*self.index;
        let batch = [(w.clone(), K, QueryBudget::unlimited())];
        rec.time(req, "batch", "client", None, || {
            BatchExecutor::with_threads(idx, 1)
                .with_cache(&self.batch_cache)
                .run_guarded_each(&batch)
        });
        let cached = rec.time(req, "cache", "client", None, || {
            self.cache.topk_with_scratch(idx, w, K, &mut scratch[0])
        });
        rec.last().tag = if cached.is_hit() { "hit" } else { "miss" };
        let r = rec.time(req, "query", "cache", None, || {
            idx.topk_with_scratch(w, K, &mut scratch[0])
        });
        rec.last().cost = r.cost.total();
    }
}

/// `sharded-uniform`: the server's own router, each served shard's probe,
/// and what lies under the probe.
struct ShardedReplay {
    router: Arc<ShardRouter<ServedShard>>,
    parts: Vec<DualLayerIndex>,
}

impl Replay for ShardedReplay {
    fn scratch(&self) -> Vec<QueryScratch> {
        self.parts.iter().map(QueryScratch::for_index).collect()
    }

    fn replay(&self, req: u64, w: &Weights, scratch: &mut [QueryScratch], rec: &mut Recorder) {
        let budget = QueryBudget::unlimited();
        let r = rec.time(req, "router", "client", None, || {
            self.router.topk(w, K, &budget)
        });
        rec.last().cost = r.cost.total();
        for (s, part) in self.parts.iter().enumerate() {
            let shard = self.router.shard(s);
            let _ = rec.time(req, "probe", "router", Some(s), || shard.probe(w, K, &budget));
            under_probe(req, s, shard, part, w, &mut scratch[s], rec);
        }
    }
}

/// `multinode-uniform`: the router node's remote router, each shard's
/// remote probe, the same shard probed in process, and what lies under it.
struct MultinodeReplay {
    router: Arc<RemoteRouter>,
    nodes: Vec<Arc<ServedShard>>,
    parts: Vec<DualLayerIndex>,
}

impl Replay for MultinodeReplay {
    fn scratch(&self) -> Vec<QueryScratch> {
        self.parts.iter().map(QueryScratch::for_index).collect()
    }

    fn replay(&self, req: u64, w: &Weights, scratch: &mut [QueryScratch], rec: &mut Recorder) {
        let budget = QueryBudget::unlimited();
        let r = rec.time(req, "router", "client", None, || {
            self.router.topk(w, K, &budget)
        });
        rec.last().cost = r.cost.total();
        for (s, part) in self.parts.iter().enumerate() {
            let remote = self.router.shard(s).replica(0);
            let _ = rec.time(req, "remote", "router", Some(s), || remote.probe(w, K, &budget));
            let node = &*self.nodes[s];
            let _ = rec.time(req, "probe", "remote", Some(s), || node.probe(w, K, &budget));
            under_probe(req, s, node, part, w, &mut scratch[s], rec);
        }
    }
}

/// The dynamic read path of one served shard, then the traversal on the
/// bench's own index over the same partition, with reused scratch.
fn under_probe(
    req: u64,
    s: usize,
    shard: &ServedShard,
    part: &DualLayerIndex,
    w: &Weights,
    scratch: &mut QueryScratch,
    rec: &mut Recorder,
) {
    let budget = QueryBudget::unlimited();
    shard.with_store(|st| {
        rec.time(req, "dynamic", "probe", Some(s), || {
            st.index().topk_guarded(w, K, &budget)
        })
    });
    let r = rec.time(req, "query", "dynamic", Some(s), || {
        part.topk_with_scratch(w, K, scratch)
    });
    rec.last().cost = r.cost.total();
}

fn partition_indexes(rel: &Relation, shards: usize) -> Result<Vec<DualLayerIndex>, String> {
    let parts = partition_relation(rel, shards).map_err(err)?;
    Ok(parts
        .iter()
        .map(|(r, _)| DualLayerIndex::build(r, DlOptions::default()))
        .collect())
}

pub fn run(kind: Kind, args: &Args, dir: &Path) -> Result<Report, String> {
    std::fs::create_dir_all(dir).map_err(err)?;
    let mut stream = Stream::new(kind, args.seed);
    stream.load_expected(args, &dir.join("oracle.bin"))?;
    let (mut setup_s, mut build_s) = (Vec::new(), Vec::new());
    let mut dep: Option<Deployment> = None;
    for rep in 0..SETUP_REPS {
        if let Some(old) = dep.take() {
            old.shutdown();
        }
        let (d, secs) = Deployment::start(kind, &dir.join(format!("deploy-{rep}")))?;
        setup_s.push(secs);
        build_s.push(d.build_s);
        dep = Some(d);
    }
    let dep = dep.expect("at least one set-up");
    let epoch = Instant::now();

    // A traced run splits its time between an untraced and a traced window.
    let seconds = if args.trace { args.seconds / 2.0 } else { args.seconds };
    let base = closed_loop(dep.addr(), &stream, seconds, None, args.trace, epoch)?;
    let mut report = Report::new();
    let answered = base.answered.max(1) as f64;
    report.set("setup_s", median(&setup_s));
    report.set("throughput_ops", base.lat.rate(&base.host));
    report.set("read_p50_us", base.lat.quantile(0.50, &base.host));
    report.set("read_p99_us", base.lat.quantile(0.99, &base.host));
    report.set("evaluated_per_read", base.evaluated as f64 / answered);
    report.set("cpu_us_per_op", base.lat.cpu_us_per_sample(&base.host));
    report.set("peak_rss_mb", sys::peak_rss_mb());
    report.attempted = base.answered + base.failed;
    report.failed = base.failed;
    let mut mismatches = base.mismatches;

    if args.trace {
        let replay: Box<dyn Replay> = match kind {
            Kind::CachedZipf => Box::new(CachedReplay {
                index: Arc::clone(dep.index.as_ref().expect("static index")),
                batch_cache: ResultCache::default(),
                cache: ResultCache::default(),
            }),
            Kind::ShardedUniform => Box::new(ShardedReplay {
                router: Arc::clone(dep.servers[0].router().expect("sharded server")),
                parts: partition_indexes(&dep.rel, kind.shards())?,
            }),
            Kind::MultinodeUniform => Box::new(MultinodeReplay {
                router: Arc::clone(dep.servers[0].remote_router().expect("router node")),
                nodes: dep.nodes.clone(),
                parts: partition_indexes(&dep.rel, kind.shards())?,
            }),
        };
        let traced = closed_loop(
            dep.addr(),
            &stream,
            seconds,
            Some(&*replay),
            false,
            epoch,
        )?;
        per_layer(kind, &base, &traced, &build_s, &mut report);
        report.attempted += traced.answered + traced.failed;
        report.failed += traced.failed;
        mismatches += traced.mismatches;
        report.spans = traced.spans;
    }

    if mismatches > 0 {
        eprintln!("{mismatches} replies differ from the oracle");
        report.correct = false;
    }
    dep.shutdown();
    Ok(report)
}

/// Per-layer metrics: timings from the traced window's spans, counts from
/// the registry and the process over the untraced window.
fn per_layer(kind: Kind, base: &Window, traced: &Window, build_s: &[f64], report: &mut Report) {
    let (before, after) = base.registry.as_ref().expect("every window snapshots the registry");
    let reads = base.answered.max(1) as f64;
    let spans = &traced.spans;
    let reqs = Requests::new(spans);
    // The server answers a cache hit at admission, before any batch.
    let entry = if kind == Kind::CachedZipf { "cache" } else { "router" };
    let count = |b: u64, a: u64| (a - b) as f64;

    report.set("fail_ratio", base.failed as f64 / (base.answered + base.failed).max(1) as f64);
    report.set(
        "server.self_us",
        reqs.mean(|r| trace::diff(trace::dur(r, "client", None), trace::dur(r, entry, None))),
    );
    report.set(
        "server.queue_wait_us",
        hist_mean(&before.server_queue_wait_ns, &after.server_queue_wait_ns) / 1e3,
    );
    report.set(
        "server.batch_size",
        hist_mean(&before.server_batch_size, &after.server_batch_size),
    );
    report.set("server.sheds", count(before.server_sheds, after.server_sheds));
    report.set(
        "server.protocol_errors",
        count(before.server_protocol_errors, after.server_protocol_errors),
    );
    report.set("cache.hit_ratio", count(before.cache_hits, after.cache_hits) / reads);
    report.set(
        "cache.cert_rejects",
        count(before.cache_cert_rejects, after.cache_cert_rejects),
    );
    report.set("query.us", trace::mean_us(spans, "query", ""));
    report.set("query.evaluated", trace::mean_cost(spans, "query"));
    report.set(
        "query.scratch_touched",
        hist_mean(&before.scratch_touched, &after.scratch_touched),
    );
    report.set(
        "dynamic.buffer_scanned_per_read",
        count(before.dynamic_buffer_scanned, after.dynamic_buffer_scanned) / reads,
    );
    report.set("build.s", median(build_s));
    report.set(
        "process.ctx_switches_per_op",
        base.usage.ctx_switches as f64 / reads,
    );
    report.set("process.threads_peak", base.threads_peak as f64);
    report.set(
        "trace.overhead_pct",
        (base.lat.rate(&base.host) / traced.lat.rate(&traced.host) - 1.0) * 100.0,
    );

    if kind == Kind::CachedZipf {
        report.set(
            "batch.us",
            reqs.mean(|r| trace::diff(trace::dur(r, "batch", None), trace::dur(r, "cache", None))),
        );
        report.set("cache.hit_us", trace::mean_us(spans, "cache", "hit"));
        report.set("cache.miss_us", trace::mean_us(spans, "cache", "miss"));
        return;
    }
    let child = if kind == Kind::MultinodeUniform { "remote" } else { "probe" };
    report.set(
        "shard.router_us",
        reqs.mean(|r| trace::diff(trace::dur(r, "router", None), trace::slowest(r, child))),
    );
    report.set(
        "shard.fanout_us",
        reqs.mean(|r| trace::slowest(r, child).into_iter().collect()),
    );
    report.set("shard.probe_us", trace::mean_us(spans, "probe", ""));
    report.set(
        "shard.probes_per_read",
        count(before.shard_probes, after.shard_probes) / reads,
    );
    report.set("shard.retries", count(before.shard_retries, after.shard_retries));
    report.set(
        "shard.probe_failures",
        count(before.shard_probe_failures, after.shard_probe_failures),
    );
    report.set("dynamic.read_us", trace::mean_us(spans, "dynamic", ""));
    if kind == Kind::MultinodeUniform {
        report.set("remote.probe_us", trace::mean_us(spans, "remote", ""));
        report.set(
            "remote.hop_us",
            reqs.mean(|r| {
                (0..kind.shards())
                    .flat_map(|s| {
                        trace::diff(trace::dur(r, "remote", Some(s)), trace::dur(r, "probe", Some(s)))
                    })
                    .collect()
            }),
        );
        report.set("remote.failovers", count(before.shard_failovers, after.shard_failovers));
        report.set("remote.hedges", count(before.shard_hedges, after.shard_hedges));
    }
}
