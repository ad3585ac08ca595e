//! Serving load generator: drives a `drtopk_server::Server` over real
//! TCP loopback connections and reports what the paper's cost model
//! cannot — end-to-end latency under concurrency, admission control, and
//! overload.
//!
//! Three phases against one in-process index:
//!
//! * **closed loop** — `--clients` connections each issue the next query
//!   the moment the previous answer lands, for `--seconds`. Reports the
//!   achieved QPS and the latency distribution; `--min-qps` turns this
//!   into the CI serving-smoke regression gate.
//! * **open loop** — each offered rate in `--rates` is paced on a fixed
//!   schedule and latency is measured from the *scheduled* send time, so
//!   queue delay from a saturated server is charged to the server, not
//!   silently absorbed by the generator (no coordinated omission).
//! * **overload** — the same workload against a deliberately starved
//!   server (`--overload-queue` admission slots, one worker). Sheds must
//!   be explicit `Overloaded` replies, the shed rate is reported, and the
//!   p99 of the queries that *were* admitted stays bounded because the
//!   queue they waited in is short.
//!
//! Queries are Zipf-distributed over a `--pool`-sized weight pool
//! (`--skew`), the same repetition model as the throughput harness's
//! cache pass, so `--cache` exercises the server's result-cache fast
//! path. Results land in `BENCH_serving.json`.
//!
//! With `--shards P` a fourth phase serves the same relation through a
//! P-way sharded deployment: a healthy closed loop first, then
//! `--degrade-shard S` is cordoned mid-run and the loop repeats against
//! the degraded router. Every reply in the degraded pass must carry the
//! coverage extension, and the client-side degraded count is
//! cross-checked against the server's
//! `drtopk_shard_degraded_answers_total` counter — a mismatch is a
//! protocol bug and fails the run.
//!
//! With `--topology P` a fifth phase measures the *multi-node* stack
//! (OPERATIONS.md §10): the same relation served first by an in-process
//! sharded router, then by a router node fanning out over TCP to P real
//! shard-node servers — the QPS/p99 delta between the two rows is the
//! price of the network hop. `--topology FILE` instead points the router
//! at an externally managed cluster (no in-process comparison row).
//! Adding `--kill-replica` replicates shard 0 and drains its primary
//! mid-run: the run fails unless the drain cost zero errors and zero
//! degraded answers, and the router's `drtopk_shard_failovers_total`
//! counter confirms at least one failover actually happened — silence on
//! both sides would mean the phase never exercised the failover path.
//!
//! ```text
//! serving [--n 50000] [--d 3] [--k 10] [--clients 4] [--seconds 2.0]
//!         [--rates 2000,8000] [--pool 64] [--skew 1.0] [--workers 2]
//!         [--queue-depth 1024] [--overload-clients 8] [--overload-queue 1]
//!         [--cache] [--shards P] [--degrade-shard S]
//!         [--topology P|FILE] [--kill-replica]
//!         [--out BENCH_serving.json] [--min-qps F]
//! ```

use drtopk_bench::json::Value;
use drtopk_bench::{dataset, percentile};
use drtopk_common::{Distribution, ZipfWeightWorkload};
use drtopk_core::{DlOptions, DualLayerIndex};
use drtopk_server::{
    Client, ClientError, ErrorCode, ServedShard, Server, ServerConfig, ServerHandle, Topology,
};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Config {
    n: usize,
    d: usize,
    k: u32,
    clients: usize,
    seconds: f64,
    rates: Vec<f64>,
    pool: usize,
    skew: f64,
    workers: usize,
    queue_depth: usize,
    overload_clients: usize,
    overload_queue: usize,
    cache: bool,
    shards: usize,
    degrade_shard: usize,
    /// Multi-node phase: a shard count (self-hosted loopback cluster) or
    /// a topology file path (externally managed cluster).
    topology: Option<String>,
    kill_replica: bool,
    out: String,
    min_qps: Option<f64>,
}

impl Config {
    fn parse(args: &[String]) -> Result<Config, String> {
        let mut cfg = Config {
            n: 50_000,
            d: 3,
            k: 10,
            clients: 4,
            seconds: 2.0,
            rates: vec![2_000.0, 8_000.0],
            pool: 64,
            skew: 1.0,
            workers: 2,
            queue_depth: 1024,
            overload_clients: 8,
            overload_queue: 1,
            cache: false,
            shards: 0,
            degrade_shard: 0,
            topology: None,
            kill_replica: false,
            out: "BENCH_serving.json".to_string(),
            min_qps: None,
        };
        let mut i = 0;
        while i < args.len() {
            let flag = args[i].as_str();
            if flag == "--cache" {
                cfg.cache = true;
                i += 1;
                continue;
            }
            if flag == "--kill-replica" {
                cfg.kill_replica = true;
                i += 1;
                continue;
            }
            let val = args
                .get(i + 1)
                .ok_or_else(|| format!("{flag} requires a value"))?;
            let num = || val.parse::<usize>().map_err(|_| format!("{flag}: {val:?}"));
            let fnum = || val.parse::<f64>().map_err(|_| format!("{flag}: {val:?}"));
            match flag {
                "--n" => cfg.n = num()?,
                "--d" => cfg.d = num()?,
                "--k" => cfg.k = num()? as u32,
                "--clients" => cfg.clients = num()?,
                "--seconds" => cfg.seconds = fnum()?,
                "--rates" => {
                    cfg.rates = val
                        .split(',')
                        .map(|p| p.trim().parse::<f64>())
                        .collect::<Result<_, _>>()
                        .map_err(|_| format!("--rates: {val:?}"))?
                }
                "--pool" => cfg.pool = num()?,
                "--skew" => cfg.skew = fnum()?,
                "--workers" => cfg.workers = num()?,
                "--queue-depth" => cfg.queue_depth = num()?,
                "--overload-clients" => cfg.overload_clients = num()?,
                "--overload-queue" => cfg.overload_queue = num()?,
                "--shards" => cfg.shards = num()?,
                "--degrade-shard" => cfg.degrade_shard = num()?,
                "--topology" => cfg.topology = Some(val.clone()),
                "--out" => cfg.out = val.clone(),
                "--min-qps" => cfg.min_qps = Some(fnum()?),
                other => return Err(format!("unknown flag {other}")),
            }
            i += 2;
        }
        if cfg.clients == 0 || cfg.seconds <= 0.0 || cfg.pool == 0 {
            return Err("--clients, --seconds, and --pool must be positive".to_string());
        }
        if cfg.shards > 0 && cfg.degrade_shard >= cfg.shards {
            return Err(format!(
                "--degrade-shard {} is out of range for --shards {}",
                cfg.degrade_shard, cfg.shards
            ));
        }
        if matches!(cfg.topology.as_deref(), Some("0")) {
            return Err("--topology needs at least one shard".to_string());
        }
        if cfg.kill_replica {
            match &cfg.topology {
                Some(t) if t.parse::<usize>().is_ok() => {}
                Some(_) => {
                    return Err(
                        "--kill-replica drains a node this process owns; it needs a \
                         self-hosted cluster (--topology P), not a topology file"
                            .to_string(),
                    )
                }
                None => return Err("--kill-replica requires --topology P".to_string()),
            }
        }
        Ok(cfg)
    }
}

/// What one generator thread observed.
#[derive(Default)]
struct WorkerStats {
    latencies_us: Vec<f64>,
    ok: u64,
    sheds: u64,
    errors: u64,
    /// Answers that arrived with the degraded-coverage extension set
    /// (sharded phase only; always 0 against an unsharded server).
    degraded: u64,
}

impl WorkerStats {
    fn absorb(&mut self, other: WorkerStats) {
        self.latencies_us.extend(other.latencies_us);
        self.ok += other.ok;
        self.sheds += other.sheds;
        self.errors += other.errors;
        self.degraded += other.degraded;
    }
}

/// Classifies one reply into the stats; returns `false` when the
/// connection is unusable and the worker should stop.
fn record(
    stats: &mut WorkerStats,
    result: Result<drtopk_server::TopkReply, ClientError>,
    latency_us: f64,
) -> bool {
    match result {
        Ok(reply) => {
            stats.ok += 1;
            if reply.coverage.is_some() {
                stats.degraded += 1;
            }
            stats.latencies_us.push(latency_us);
            true
        }
        Err(ClientError::Server { code, .. }) => {
            // An explicit reply: the request was *answered*, with a
            // refusal. Overloaded is the admission controller shedding;
            // anything else is unexpected under this workload.
            if code == ErrorCode::Overloaded {
                stats.sheds += 1;
            } else {
                stats.errors += 1;
            }
            true
        }
        Err(_) => {
            stats.errors += 1;
            false
        }
    }
}

/// Zipf-ordered raw weight vectors for one generator thread. Each thread
/// gets its own draw order (seeded by its id) over the shared pool.
fn zipf_sequence(cfg: &Config, thread: usize) -> Vec<Vec<f64>> {
    ZipfWeightWorkload::new(cfg.d, cfg.pool, 4096, cfg.skew, 0x5E41 + thread as u64)
        .generate()
        .into_iter()
        .map(|w| w.as_slice().to_vec())
        .collect()
}

/// Closed loop: issue the next query as soon as the previous reply
/// arrives, across `clients` connections, for `seconds`.
fn closed_loop(addr: SocketAddr, cfg: &Config, clients: usize, k: u32) -> (WorkerStats, f64) {
    let stop = AtomicBool::new(false);
    let t0 = Instant::now();
    let mut total = WorkerStats::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let stop = &stop;
                let seq = zipf_sequence(cfg, c);
                scope.spawn(move || {
                    let mut stats = WorkerStats::default();
                    let Ok(mut client) = Client::connect(addr) else {
                        stats.errors += 1;
                        return stats;
                    };
                    let mut i = 0usize;
                    while !stop.load(Ordering::Relaxed) {
                        let w = &seq[i % seq.len()];
                        i += 1;
                        let q0 = Instant::now();
                        let r = client.query(w, k, 0, 0);
                        let us = q0.elapsed().as_secs_f64() * 1e6;
                        if !record(&mut stats, r, us) {
                            break;
                        }
                    }
                    stats
                })
            })
            .collect();
        std::thread::sleep(Duration::from_secs_f64(cfg.seconds));
        stop.store(true, Ordering::Relaxed);
        for h in handles {
            total.absorb(h.join().expect("generator thread"));
        }
    });
    let secs = t0.elapsed().as_secs_f64();
    (total, secs)
}

/// Open loop: each client paces `rate / clients` sends on a fixed
/// schedule; latency runs from the *scheduled* send time, so a server
/// that falls behind is charged its queue delay.
fn open_loop(addr: SocketAddr, cfg: &Config, rate: f64) -> (WorkerStats, f64) {
    let per_client = rate / cfg.clients as f64;
    let interval = Duration::from_secs_f64(1.0 / per_client);
    let duration = Duration::from_secs_f64(cfg.seconds);
    let t0 = Instant::now();
    let mut total = WorkerStats::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..cfg.clients)
            .map(|c| {
                let seq = zipf_sequence(cfg, 100 + c);
                scope.spawn(move || {
                    let mut stats = WorkerStats::default();
                    let Ok(mut client) = Client::connect(addr) else {
                        stats.errors += 1;
                        return stats;
                    };
                    let start = Instant::now();
                    let mut scheduled = start;
                    let mut i = 0usize;
                    while start.elapsed() < duration {
                        let now = Instant::now();
                        if now < scheduled {
                            std::thread::sleep(scheduled - now);
                        }
                        let w = &seq[i % seq.len()];
                        i += 1;
                        let r = client.query(w, cfg.k, 0, 0);
                        let us = scheduled.elapsed().as_secs_f64() * 1e6;
                        scheduled += interval;
                        if !record(&mut stats, r, us) {
                            break;
                        }
                    }
                    stats
                })
            })
            .collect();
        for h in handles {
            total.absorb(h.join().expect("generator thread"));
        }
    });
    (total, t0.elapsed().as_secs_f64())
}

/// Pulls one counter's value out of the Prometheus exposition.
fn scrape(prom: &str, name: &str) -> Option<f64> {
    prom.lines()
        .find(|l| l.starts_with(name) && l.as_bytes().get(name.len()) == Some(&b' '))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
}

/// Phase report: aggregate stats → JSON object (+ a console line).
fn phase_json(label: &str, stats: &WorkerStats, secs: f64) -> Value {
    let mut sorted = stats.latencies_us.clone();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let (p50, p99) = (percentile(&sorted, 0.50), percentile(&sorted, 0.99));
    let attempts = stats.ok + stats.sheds + stats.errors;
    let qps = stats.ok as f64 / secs;
    let shed_rate = if attempts > 0 {
        stats.sheds as f64 / attempts as f64
    } else {
        0.0
    };
    eprintln!(
        "  {label}: {qps:.0} answered q/s, p50 {p50:.0}µs p99 {p99:.0}µs, \
         {} ok / {} shed ({:.1}%) / {} errors",
        stats.ok,
        stats.sheds,
        shed_rate * 100.0,
        stats.errors
    );
    Value::object([
        ("seconds", Value::float(secs)),
        ("answered_qps", Value::float(qps)),
        ("p50_us", Value::float(p50)),
        ("p99_us", Value::float(p99)),
        ("ok", Value::uint(stats.ok as usize)),
        ("sheds", Value::uint(stats.sheds as usize)),
        ("errors", Value::uint(stats.errors as usize)),
        ("shed_rate", Value::float(shed_rate)),
    ])
}

/// Server-side counters for a finished phase, scraped over the wire so
/// the report shows what an operator's dashboard would.
fn server_counters(addr: SocketAddr) -> Value {
    let Ok(mut client) = Client::connect(addr) else {
        return Value::Null;
    };
    let Ok(prom) = client.metrics_text() else {
        return Value::Null;
    };
    Value::object([
        (
            "requests_total",
            Value::float(scrape(&prom, "drtopk_server_requests_total").unwrap_or(0.0)),
        ),
        (
            "sheds_total",
            Value::float(scrape(&prom, "drtopk_server_sheds_total").unwrap_or(0.0)),
        ),
        (
            "protocol_errors_total",
            Value::float(scrape(&prom, "drtopk_server_protocol_errors_total").unwrap_or(0.0)),
        ),
    ])
}

fn start_server(idx: &Arc<DualLayerIndex>, cfg: &ServerConfig) -> (ServerHandle, SocketAddr) {
    let handle = Server::start(Arc::clone(idx), cfg.clone()).expect("start server");
    let addr = handle.addr();
    (handle, addr)
}

/// One counter scraped over the wire, defaulting to 0 when the family is
/// absent (e.g. a build without `obs`).
fn scrape_counter(addr: SocketAddr, name: &str) -> f64 {
    Client::connect(addr)
        .ok()
        .and_then(|mut c| c.metrics_text().ok())
        .and_then(|prom| scrape(&prom, name))
        .unwrap_or(0.0)
}

/// Phase 4 (`--shards P`): the same relation through a P-way sharded
/// deployment — a healthy closed loop, then `--degrade-shard S` cordoned
/// and the loop repeated. Returns the JSON section and whether the
/// degraded-coverage cross-check failed.
fn sharded_phase(
    rel: &drtopk_common::Relation,
    cfg: &Config,
    base: &ServerConfig,
) -> (Value, bool) {
    let dir = std::env::temp_dir().join(format!("drtopk_bench_sharded_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let stores = drtopk_storage::create_sharded(
        &dir,
        rel,
        cfg.shards,
        &drtopk_storage::DurableOptions::default(),
    )
    .expect("create sharded deployment");
    let shards: Vec<drtopk_server::ServedShard> = stores
        .into_iter()
        .enumerate()
        .map(|(s, st)| drtopk_server::ServedShard::new(s, st))
        .collect();
    let router = Arc::new(
        drtopk_core::ShardRouter::new(shards, drtopk_core::RouterConfig::default())
            .expect("shard router"),
    );
    let handle =
        Server::start_sharded(Arc::clone(&router), base.clone()).expect("start sharded server");
    let addr = handle.addr();

    eprintln!(
        "sharded: {} shards, {} clients healthy for {} s",
        cfg.shards, cfg.clients, cfg.seconds
    );
    let (healthy, healthy_secs) = closed_loop(addr, cfg, cfg.clients, cfg.k);
    let healthy_json = phase_json("sharded/healthy", &healthy, healthy_secs);

    // Cordon one shard mid-deployment and rerun: every answer must now
    // carry the coverage extension, and the server's degraded-answer
    // counter must advance exactly once per such answer.
    let before = scrape_counter(addr, "drtopk_shard_degraded_answers_total");
    router.cordon(cfg.degrade_shard);
    eprintln!(
        "sharded: shard {} cordoned, rerunning closed loop",
        cfg.degrade_shard
    );
    let (degraded, degraded_secs) = closed_loop(addr, cfg, cfg.clients, cfg.k);
    let degraded_json = phase_json("sharded/degraded", &degraded, degraded_secs);
    let server_degraded = scrape_counter(addr, "drtopk_shard_degraded_answers_total") - before;
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);

    let mut failed = false;
    if healthy.degraded != 0 {
        eprintln!(
            "SHARDED ERROR: {} answers from the healthy deployment claimed degraded coverage",
            healthy.degraded
        );
        failed = true;
    }
    if degraded.ok == 0 || degraded.degraded != degraded.ok {
        eprintln!(
            "SHARDED ERROR: {} of {} answers from the degraded deployment carried the \
             coverage extension (expected all)",
            degraded.degraded, degraded.ok
        );
        failed = true;
    }
    if server_degraded as u64 != degraded.degraded {
        eprintln!(
            "SHARDED ERROR: client saw {} degraded answers but the server counted {}",
            degraded.degraded, server_degraded
        );
        failed = true;
    }
    if healthy.errors > 0 || degraded.errors > 0 {
        eprintln!(
            "SHARDED ERRORS: {} healthy / {} degraded protocol or transport errors",
            healthy.errors, degraded.errors
        );
        failed = true;
    }
    let json = Value::object([
        ("shards", Value::uint(cfg.shards)),
        ("degrade_shard", Value::uint(cfg.degrade_shard)),
        ("healthy", healthy_json),
        ("degraded", degraded_json),
        (
            "client_degraded_answers",
            Value::uint(degraded.degraded as usize),
        ),
        (
            "server_degraded_answers",
            Value::uint(server_degraded as usize),
        ),
    ]);
    (json, failed)
}

/// The answered-QPS a phase achieved (what the ratio rows divide).
fn qps(stats: &WorkerStats, secs: f64) -> f64 {
    stats.ok as f64 / secs
}

/// Phase 5 (`--topology`): the multi-node serving stack. A shard count
/// self-hosts a loopback cluster (shard-node servers + a router node)
/// and reports the in-process vs remote QPS/p99 comparison; a file path
/// benches a router over an externally managed cluster.
fn multinode_phase(
    rel: &drtopk_common::Relation,
    cfg: &Config,
    base: &ServerConfig,
) -> (Value, bool) {
    let arg = cfg.topology.as_deref().expect("phase gated on --topology");
    match arg.parse::<usize>() {
        Ok(p) => selfhost_multinode(rel, cfg, base, p),
        Err(_) => external_multinode(arg, cfg, base),
    }
}

/// Router node over a cluster someone else runs: measure, don't manage.
/// Degraded answers are reported but tolerated — the external cluster
/// may legitimately be running with a shard down.
fn external_multinode(file: &str, cfg: &Config, base: &ServerConfig) -> (Value, bool) {
    let topo = Topology::load(file).expect("load topology file");
    eprintln!(
        "multinode: router over {file} ({} shard(s)), {} clients for {} s",
        topo.shard_count(),
        cfg.clients,
        cfg.seconds
    );
    let router = Server::start_router(
        topo.build_router().expect("build remote router"),
        Some(topo.pinger_config()),
        base.clone(),
    )
    .expect("start router node");
    let (stats, secs) = closed_loop(router.addr(), cfg, cfg.clients, cfg.k);
    let remote_json = phase_json("multinode/remote", &stats, secs);
    router.shutdown();

    let failed = stats.errors > 0;
    if failed {
        eprintln!(
            "MULTINODE ERRORS: {} protocol or transport errors against {file}",
            stats.errors
        );
    }
    let json = Value::object([
        ("mode", Value::str("file")),
        ("topology", Value::str(file)),
        ("shards", Value::uint(topo.shard_count())),
        ("remote", remote_json),
        ("degraded_answers", Value::uint(stats.degraded as usize)),
    ]);
    (json, failed)
}

/// Self-hosted loopback cluster: the same stores measured twice — once
/// behind one in-process sharded server, once as real shard-node
/// processes' worth of servers behind a router node — so the two rows
/// isolate the cost of the wire hop. With `--kill-replica`, shard 0 is
/// replicated and its primary drained mid-run; the phase fails unless
/// the drain cost zero errors and zero degraded answers *and* the
/// router's failover counter moved.
fn selfhost_multinode(
    rel: &drtopk_common::Relation,
    cfg: &Config,
    base: &ServerConfig,
    p: usize,
) -> (Value, bool) {
    use drtopk_storage::{shards::shard_dir, DurableDynamicIndex, DurableOptions};
    let dir = std::env::temp_dir().join(format!("drtopk_bench_multinode_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut failed = false;

    // Row 1: in-process sharded baseline over the freshly created stores.
    let stores = drtopk_storage::create_sharded(&dir, rel, p, &DurableOptions::default())
        .expect("create sharded deployment");
    let shards: Vec<ServedShard> = stores
        .into_iter()
        .enumerate()
        .map(|(s, st)| ServedShard::new(s, st))
        .collect();
    let router = Arc::new(
        drtopk_core::ShardRouter::new(shards, drtopk_core::RouterConfig::default())
            .expect("shard router"),
    );
    let handle = Server::start_sharded(router, base.clone()).expect("start sharded server");
    eprintln!(
        "multinode: in-process {p}-shard baseline, {} clients for {} s",
        cfg.clients, cfg.seconds
    );
    let (inproc, inproc_secs) = closed_loop(handle.addr(), cfg, cfg.clients, cfg.k);
    let inproc_json = phase_json("multinode/in-process", &inproc, inproc_secs);
    handle.shutdown();

    // Row 2: the same directories reopened by real shard-node servers,
    // fronted by a router node. With --kill-replica, shard 0's directory
    // is copied byte-for-byte — exactly how an operator seeds a replica
    // (OPERATIONS.md §10) — and both endpoints go into the topology.
    let open_node = |node_dir: &std::path::Path, s: usize| -> ServerHandle {
        let (store, _) =
            DurableDynamicIndex::open(node_dir, DurableOptions::default()).expect("open shard dir");
        Server::start_shard_node(Arc::new(ServedShard::new(s, store)), base.clone())
            .expect("start shard node")
    };
    let mut nodes: Vec<ServerHandle> = (0..p).map(|s| open_node(&shard_dir(&dir, s), s)).collect();
    let replica = cfg.kill_replica.then(|| {
        let src = shard_dir(&dir, 0);
        let dst = dir.join("replica.0000");
        std::fs::create_dir_all(&dst).expect("create replica dir");
        for e in std::fs::read_dir(&src).expect("read shard dir") {
            let e = e.expect("read shard dir entry");
            std::fs::copy(e.path(), dst.join(e.file_name())).expect("seed replica");
        }
        open_node(&dst, 0)
    });
    let mut topo_text = format!("dims {}\n", cfg.d);
    for (s, node) in nodes.iter().enumerate() {
        topo_text.push_str(&format!("shard {s} {}", node.addr()));
        if s == 0 {
            if let Some(r) = &replica {
                topo_text.push_str(&format!(" {}", r.addr()));
            }
        }
        topo_text.push('\n');
    }
    topo_text.push_str("probe-timeout-ms 1000\nping-interval-ms 100\nping-timeout-ms 100\n");
    let topo = Topology::parse(&topo_text).expect("self-hosted topology");
    let router = Server::start_router(
        topo.build_router().expect("build remote router"),
        Some(topo.pinger_config()),
        base.clone(),
    )
    .expect("start router node");
    let raddr = router.addr();
    eprintln!("multinode: remote {p}-shard cluster behind a router node");
    let (remote, remote_secs) = closed_loop(raddr, cfg, cfg.clients, cfg.k);
    let remote_json = phase_json("multinode/remote", &remote, remote_secs);
    if remote.errors > 0 || remote.degraded > 0 {
        eprintln!(
            "MULTINODE ERRORS: healthy remote cluster produced {} errors / {} degraded answers",
            remote.errors, remote.degraded
        );
        failed = true;
    }

    // Kill-one-replica: drain shard 0's primary mid-loop. Clients must
    // observe nothing (zero errors, zero degraded, answers keep coming)
    // while the router's failover counter proves the path actually ran.
    let kill_json = if let Some(replica) = replica {
        let before = scrape_counter(raddr, "drtopk_shard_failovers_total");
        let primary = nodes.remove(0);
        let drain_after = Duration::from_secs_f64(cfg.seconds * 0.4);
        eprintln!(
            "multinode: draining shard 0's primary {:.1} s into the loop",
            drain_after.as_secs_f64()
        );
        let (killed, killed_secs) = std::thread::scope(|scope| {
            scope.spawn(move || {
                std::thread::sleep(drain_after);
                primary.shutdown();
            });
            closed_loop(raddr, cfg, cfg.clients, cfg.k)
        });
        let failovers = scrape_counter(raddr, "drtopk_shard_failovers_total") - before;
        let mut row = phase_json("multinode/kill-replica", &killed, killed_secs);
        if let Value::Object(fields) = &mut row {
            fields.push((
                "degraded_answers".to_string(),
                Value::uint(killed.degraded as usize),
            ));
            fields.push((
                "server_failovers".to_string(),
                Value::uint(failovers as usize),
            ));
        }
        if killed.errors > 0 || killed.degraded > 0 || killed.ok == 0 {
            eprintln!(
                "MULTINODE ERRORS: draining a replicated primary cost {} errors / {} degraded \
                 answers ({} ok)",
                killed.errors, killed.degraded, killed.ok
            );
            failed = true;
        }
        if failovers < 1.0 {
            eprintln!(
                "MULTINODE ERROR: the failover counter never moved — the drain was not \
                 client-observed and the phase proved nothing"
            );
            failed = true;
        }
        replica.shutdown();
        row
    } else {
        Value::Null
    };

    router.shutdown();
    for n in nodes {
        n.shutdown();
    }
    let _ = std::fs::remove_dir_all(&dir);

    let ratio = qps(&remote, remote_secs) / qps(&inproc, inproc_secs).max(f64::EPSILON);
    eprintln!(
        "multinode: remote serves at {:.0}% of in-process QPS",
        ratio * 100.0
    );
    let json = Value::object([
        ("mode", Value::str("self-host")),
        ("shards", Value::uint(p)),
        ("in_process", inproc_json),
        ("remote", remote_json),
        ("remote_over_in_process_qps", Value::float(ratio)),
        ("kill_replica", kill_json),
    ]);
    (json, failed)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match Config::parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("serving: {e}");
            eprintln!(
                "usage: serving [--n N] [--d D] [--k K] [--clients C] [--seconds S] \
                 [--rates R[,..]] [--pool P] [--skew Z] [--workers W] [--queue-depth Q] \
                 [--overload-clients C] [--overload-queue Q] [--cache] [--shards P] \
                 [--degrade-shard S] [--topology P|FILE] [--kill-replica] [--out FILE] \
                 [--min-qps F]"
            );
            std::process::exit(2);
        }
    };

    eprintln!("serving: building DL+ index (n={}, d={})...", cfg.n, cfg.d);
    let rel = dataset(Distribution::Independent, cfg.d, cfg.n);
    let idx = Arc::new(DualLayerIndex::build(&rel, DlOptions::dl_plus()));

    let base = ServerConfig::new()
        .addr("127.0.0.1:0")
        .workers(cfg.workers)
        .queue_depth(cfg.queue_depth)
        .cache(cfg.cache);

    // Phase 1+2: a healthy server — closed loop, then each offered rate.
    let (handle, addr) = start_server(&idx, &base);
    eprintln!("closed loop: {} clients for {} s", cfg.clients, cfg.seconds);
    let (closed, closed_secs) = closed_loop(addr, &cfg, cfg.clients, cfg.k);
    let closed_json = phase_json("closed", &closed, closed_secs);
    let mut open_rows = Vec::new();
    for &rate in &cfg.rates {
        eprintln!("open loop: offering {rate:.0} q/s");
        let (stats, secs) = open_loop(addr, &cfg, rate);
        let mut row = phase_json(&format!("open@{rate:.0}"), &stats, secs);
        if let Value::Object(fields) = &mut row {
            fields.insert(0, ("offered_qps".to_string(), Value::float(rate)));
        }
        open_rows.push(row);
    }
    let healthy_counters = server_counters(addr);
    handle.shutdown();

    // Phase 3: overload — one worker, a starved admission queue, and more
    // closed-loop clients than the queue can hold. The point of the
    // numbers: sheds are explicit (clients got an Overloaded reply, not a
    // hang), and the p99 of admitted queries stays bounded because the
    // queue they sat in is at most `overload_queue` deep.
    let starved = base
        .clone()
        .workers(1)
        .queue_depth(cfg.overload_queue)
        .cache(false);
    let (handle, addr) = start_server(&idx, &starved);
    eprintln!(
        "overload: {} clients against a queue of {}",
        cfg.overload_clients, cfg.overload_queue
    );
    let (over, over_secs) = closed_loop(addr, &cfg, cfg.overload_clients, cfg.k);
    let mut overload_json = phase_json("overload", &over, over_secs);
    if let Value::Object(fields) = &mut overload_json {
        fields.insert(
            0,
            ("queue_depth".to_string(), Value::uint(cfg.overload_queue)),
        );
        fields.insert(
            0,
            ("clients".to_string(), Value::uint(cfg.overload_clients)),
        );
    }
    let overload_counters = server_counters(addr);
    handle.shutdown();

    if over.sheds == 0 {
        eprintln!("serving: WARNING overload phase produced no sheds — not actually overloaded");
    }

    // Phase 4 (opt-in): sharded serving with a mid-run shard failure.
    let (sharded_json, sharded_failed) = if cfg.shards > 0 {
        sharded_phase(&rel, &cfg, &base)
    } else {
        (Value::Null, false)
    };

    // Phase 5 (opt-in): the multi-node stack — in-process vs remote rows,
    // plus the kill-one-replica failover cross-check.
    let (multinode_json, multinode_failed) = if cfg.topology.is_some() {
        multinode_phase(&rel, &cfg, &base)
    } else {
        (Value::Null, false)
    };

    let host_threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let doc = Value::object([
        (
            "host",
            Value::object([("available_parallelism", Value::uint(host_threads))]),
        ),
        (
            "config",
            Value::object([
                ("n", Value::uint(cfg.n)),
                ("d", Value::uint(cfg.d)),
                ("k", Value::uint(cfg.k as usize)),
                ("clients", Value::uint(cfg.clients)),
                ("pool", Value::uint(cfg.pool)),
                ("skew", Value::float(cfg.skew)),
                ("workers", Value::uint(cfg.workers)),
                ("queue_depth", Value::uint(cfg.queue_depth)),
                ("cache", Value::Bool(cfg.cache)),
            ]),
        ),
        ("closed_loop", closed_json),
        ("open_loop", Value::Array(open_rows)),
        ("overload", overload_json),
        ("sharded", sharded_json),
        ("multinode", multinode_json),
        (
            "server_counters",
            Value::object([
                ("healthy", healthy_counters),
                ("overload", overload_counters),
            ]),
        ),
        (
            "note",
            Value::str(
                "open-loop latency is measured from the scheduled send time \
                 (coordinated-omission safe); overload sheds are explicit \
                 Overloaded replies per PROTOCOL.md §5.1, never silent drops",
            ),
        ),
    ]);
    std::fs::write(&cfg.out, doc.pretty()).expect("write results file");
    eprintln!("wrote {}", cfg.out);

    if let Some(floor) = cfg.min_qps {
        let qps = closed.ok as f64 / closed_secs;
        if qps < floor {
            eprintln!("SERVING REGRESSION: closed-loop {qps:.0} q/s below the floor {floor:.0}");
            std::process::exit(1);
        }
    }
    if closed.errors > 0 || over.errors > 0 {
        eprintln!(
            "SERVING ERRORS: {} closed-loop / {} overload protocol or transport errors",
            closed.errors, over.errors
        );
        std::process::exit(1);
    }
    if sharded_failed || multinode_failed {
        std::process::exit(1);
    }
}
