//! Cross-process multi-node chaos: real `drtopk` processes — shard
//! nodes, a router node — killed, stalled, and corrupted mid-traffic.
//!
//! The contract under test (OPERATIONS.md §10):
//! * killing a replicated shard's primary (`kill -9`) costs failovers,
//!   never answers: every reply stays bit-identical to the unsharded
//!   oracle with full coverage — zero degraded replies;
//! * killing an unreplicated shard degrades *coverage*, not
//!   availability: replies carry the exact survivor-partition top-k and
//!   a mask naming the dead shard, `drtopk health` exits non-zero, and
//!   a node started on a listed standby endpoint rejoins without a
//!   router restart;
//! * a stalled node (SIGSTOP: accepts TCP, answers nothing) is a
//!   timeout, not a hang — hedged probes and the pinger route around it
//!   and back after SIGCONT;
//! * a rotted snapshot is repaired by `drtopk recover` from the shard's
//!   own directory; one trashed beyond recovery refuses to serve with
//!   exit 3 instead of serving wrong answers.
//!
//! Every child is guarded: dropped guards SIGCONT + SIGKILL their
//! process, so a failing assertion cannot leak orphans.

use drtopk_common::{Distribution, Relation, Weights, WorkloadSpec};
use drtopk_core::shard::shard_of;
use drtopk_core::{DlOptions, DynamicIndex, Handle};
use drtopk_server::Client;
use drtopk_storage::{create_sharded, shards::shard_dir, DurableOptions};
use std::fs;
use std::io::{BufRead, BufReader};
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_drtopk")
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("drtopk_mnchaos_{name}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// One guarded child process. Dropping it SIGCONTs (in case the test
/// stopped it) then SIGKILLs and reaps — a panicking test leaves no
/// orphan serving a port.
struct Node {
    name: String,
    child: Child,
    addr: String,
}

impl Node {
    fn signal(&self, sig: &str) {
        let st = Command::new("kill")
            .arg(sig)
            .arg(self.child.id().to_string())
            .status()
            .unwrap();
        assert!(st.success(), "kill {sig} {}", self.name);
    }

    fn kill9(mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Node {
    fn drop(&mut self) {
        let _ = Command::new("kill")
            .arg("-CONT")
            .arg(self.child.id().to_string())
            .status();
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Spawns `drtopk serve` and waits for its "serving on ADDR" stderr
/// announcement, so port 0 auto-assignment works across processes.
fn spawn_serving(name: &str, args: &[&str]) -> Node {
    let mut child = Command::new(bin())
        .args(args)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let mut reader = BufReader::new(child.stderr.take().unwrap());
    let addr = loop {
        let mut line = String::new();
        if reader.read_line(&mut line).unwrap() == 0 {
            let status = child.wait().unwrap();
            panic!("{name} exited before announcing an address ({status})");
        }
        if let Some(rest) = line.split("drtopk serving on ").nth(1) {
            break rest.split_whitespace().next().unwrap().to_string();
        }
    };
    // Keep draining stderr so the child never blocks on a full pipe.
    std::thread::spawn(move || {
        let mut sink = String::new();
        while matches!(reader.read_line(&mut sink), Ok(n) if n > 0) {
            sink.clear();
        }
    });
    Node {
        name: name.to_string(),
        child,
        addr,
    }
}

fn spawn_shard_node(root: &Path, s: usize, addr: &str) -> Node {
    spawn_serving(
        &format!("shard{s}@{addr}"),
        &[
            "serve",
            "--shard-dir",
            root.to_str().unwrap(),
            "--shard-id",
            &s.to_string(),
            "--addr",
            addr,
        ],
    )
}

fn spawn_router(topology: &Path) -> Node {
    spawn_serving(
        "router",
        &[
            "serve",
            "--topology",
            topology.to_str().unwrap(),
            "--addr",
            "127.0.0.1:0",
        ],
    )
}

/// An address that is free right now — for standby endpoints a test
/// binds later.
fn free_addr() -> String {
    TcpListener::bind("127.0.0.1:0")
        .unwrap()
        .local_addr()
        .unwrap()
        .to_string()
}

fn connect(addr: &str) -> Client {
    Client::connect_with_retry(addr, 40, Duration::from_millis(25)).unwrap()
}

/// Runs the CLI to completion; returns (exit code, stdout).
fn run_cli(args: &[&str]) -> (i32, String) {
    let out = Command::new(bin()).args(args).output().unwrap();
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

/// The exact top-k oracle over the partitions not in `dead`, keeping
/// global handles (same construction as the in-process chaos suite).
fn survivor_oracle(rel: &Relation, shards: usize, dead: &[usize]) -> DynamicIndex {
    let dims = rel.dims();
    let mut flat = Vec::new();
    let mut handles = Vec::new();
    for (t, row) in rel.iter() {
        if !dead.contains(&shard_of(t as Handle, shards)) {
            flat.extend_from_slice(row);
            handles.push(t as Handle);
        }
    }
    DynamicIndex::with_handles(
        &Relation::from_flat_unchecked(dims, flat),
        handles,
        DlOptions::default(),
        0.5,
    )
    .unwrap()
}

/// Creates a sharded durable deployment under `root`; returns the data.
fn make_deployment(root: &Path, p: usize, n: usize, seed: u64) -> Relation {
    let rel = WorkloadSpec::new(Distribution::Independent, 2, n, seed).generate();
    drop(create_sharded(root, &rel, p, &DurableOptions::default()).unwrap());
    rel
}

/// Byte-for-byte copy of one shard directory into another deployment
/// root — how a replica is seeded.
fn seed_replica(src_root: &Path, dst_root: &Path, s: usize) {
    let src = shard_dir(src_root, s);
    let dst = shard_dir(dst_root, s);
    fs::create_dir_all(&dst).unwrap();
    for e in fs::read_dir(&src).unwrap() {
        let e = e.unwrap();
        fs::copy(e.path(), dst.join(e.file_name())).unwrap();
    }
}

fn write_topology(path: &Path, shards: &[Vec<String>], extra: &str) {
    let mut text = String::from("dims 2\n");
    for (s, eps) in shards.iter().enumerate() {
        text.push_str(&format!("shard {s} {}\n", eps.join(" ")));
    }
    text.push_str(extra);
    fs::write(path, text).unwrap();
}

/// Polls the router until `pred` holds on its metrics text.
fn await_metrics(client: &mut Client, what: &str, pred: impl Fn(&str) -> bool) {
    let deadline = Instant::now() + Duration::from_secs(15);
    loop {
        let text = client.metrics_text().unwrap();
        if pred(&text) {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "timed out awaiting {what}:\n{text}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// kill -9 on a replicated shard's primary mid-traffic: zero degraded
/// answers, every reply bit-identical to the unsharded oracle, the
/// pinger marks the dead endpoint down while the shard stays Up, and
/// `drtopk health` agrees.
#[test]
fn kill9_with_replica_loses_no_answers() {
    let p = 2;
    let root = tmpdir("kill9_replica");
    let replica_root = root.join("replicas");
    let rel = make_deployment(&root, p, 300, 7);

    let mut nodes = Vec::new();
    let mut endpoints: Vec<Vec<String>> = Vec::new();
    for s in 0..p {
        seed_replica(&root, &replica_root, s);
        let primary = spawn_shard_node(&root, s, "127.0.0.1:0");
        let replica = spawn_shard_node(&replica_root, s, "127.0.0.1:0");
        endpoints.push(vec![primary.addr.clone(), replica.addr.clone()]);
        nodes.push(primary);
        nodes.push(replica);
    }
    let topo = root.join("cluster.topo");
    write_topology(
        &topo,
        &endpoints,
        "probe-timeout-ms 500\nping-interval-ms 100\nping-timeout-ms 100\n",
    );
    let router = spawn_router(&topo);
    let mut client = connect(&router.addr);

    let w = vec![0.3, 0.7];
    let k = 10;
    let weights = Weights::new(w.clone()).unwrap();
    let oracle_ids = survivor_oracle(&rel, p, &[]).topk(&weights, k).0;

    let reply = client.query(&w, k as u32, 0, 0).unwrap();
    assert_eq!(
        reply.ids, oracle_ids,
        "healthy baseline == unsharded oracle"
    );
    assert!(reply.is_full_coverage());

    // SIGKILL shard 1's primary; every answer must keep coming, full
    // coverage, bit-identical — the replica absorbs the loss.
    let dead_addr = endpoints[1][0].clone();
    nodes.remove(2).kill9();
    for round in 0..5 {
        let reply = client.query(&w, k as u32, 0, 0).unwrap();
        assert_eq!(reply.ids, oracle_ids, "round {round}: bit-identity");
        assert!(
            reply.is_full_coverage(),
            "round {round}: a replicated shard must never degrade coverage"
        );
        assert_eq!(reply.truncated, None, "round {round}");
    }

    // The pinger notices the corpse without taking the shard down.
    await_metrics(&mut client, "dead endpoint marked down", |text| {
        text.lines().any(|l| {
            l.starts_with("drtopk_endpoint_up{shard=\"1\"")
                && l.contains(&format!("addr=\"{dead_addr}\""))
                && l.ends_with(" 0")
        }) && text.contains("drtopk_shard_health{shard=\"1\"} 0")
    });
    let (code, out) = run_cli(&["health", "--connect", &router.addr]);
    assert_eq!(
        code, 0,
        "health exits 0 while every shard is served:\n{out}"
    );
    assert!(out.contains("2 of 2 shard(s) up"), "{out}");

    let _ = fs::remove_dir_all(&root);
}

/// kill -9 on an *unreplicated* shard: availability survives but
/// coverage degrades — replies carry the exact survivor top-k and a
/// mask naming the shard, plain `query --connect` refuses the degraded
/// answer with exit 4 unless `--partial`, `health` exits 1 — and a node
/// started on the listed standby endpoint rejoins with no router
/// restart.
#[test]
fn kill9_without_replica_degrades_then_rejoins() {
    let p = 2;
    let root = tmpdir("kill9_solo");
    let rel = make_deployment(&root, p, 300, 13);

    let node0 = spawn_shard_node(&root, 0, "127.0.0.1:0");
    let node1 = spawn_shard_node(&root, 1, "127.0.0.1:0");
    let standby = free_addr();
    let topo = root.join("cluster.topo");
    write_topology(
        &topo,
        &[
            vec![node0.addr.clone()],
            vec![node1.addr.clone(), standby.clone()],
        ],
        "probe-timeout-ms 500\nping-interval-ms 100\nping-timeout-ms 100\ndown-after 1\n",
    );
    let router = spawn_router(&topo);
    let mut client = connect(&router.addr);

    let w = vec![0.5, 0.5];
    let k = 10;
    let weights = Weights::new(w.clone()).unwrap();
    let full_ids = survivor_oracle(&rel, p, &[]).topk(&weights, k).0;
    let survivor_ids = survivor_oracle(&rel, p, &[1]).topk(&weights, k).0;

    let reply = client.query(&w, k as u32, 0, 0).unwrap();
    assert_eq!(reply.ids, full_ids, "healthy baseline");

    node1.kill9();
    let reply = client.query(&w, k as u32, 0, 0).unwrap();
    assert_eq!(
        reply.ids, survivor_ids,
        "degraded ids are the exact survivor-partition top-k"
    );
    assert_eq!(reply.truncated, None, "degraded is not truncated");
    let cov = reply.coverage.expect("reply names the dead shard");
    assert_eq!(cov.skipped(), vec![1]);

    // The CLI honors the partial-answer contract across the wire.
    let (code, _) = run_cli(&[
        "query",
        "--connect",
        &router.addr,
        "--weights",
        "0.5,0.5",
        "--k",
        "10",
    ]);
    assert_eq!(code, 4, "degraded coverage without --partial exits 4");
    let (code, out) = run_cli(&[
        "query",
        "--connect",
        &router.addr,
        "--weights",
        "0.5,0.5",
        "--k",
        "10",
        "--partial",
    ]);
    assert_eq!(code, 0, "--partial accepts degraded coverage");
    assert!(out.contains("DEGRADED coverage"), "{out}");

    // Once the pinger cordons the shard, health says so and exits 1.
    await_metrics(&mut client, "shard 1 cordoned", |text| {
        text.contains("drtopk_shard_health{shard=\"1\"} 2")
    });
    let (code, _) = run_cli(&["health", "--connect", &router.addr]);
    assert_eq!(code, 1, "health exits non-zero while a shard is Down");

    // Rejoin: bring a node up on the standby endpoint the topology
    // already lists. The pinger re-admits the shard; answers return to
    // the full oracle without touching the router.
    let _standby_node = spawn_shard_node(&root, 1, &standby);
    await_metrics(&mut client, "shard 1 rejoined", |text| {
        text.contains("drtopk_shard_health{shard=\"1\"} 0")
    });
    let reply = client.query(&w, k as u32, 0, 0).unwrap();
    assert_eq!(reply.ids, full_ids, "post-rejoin bit-identity");
    assert!(reply.is_full_coverage(), "post-rejoin coverage");
    let (code, out) = run_cli(&["health", "--connect", &router.addr]);
    assert_eq!(code, 0, "health exits 0 after rejoin:\n{out}");

    let _ = fs::remove_dir_all(&root);
}

/// SIGSTOP mid-traffic: the stalled primary accepts TCP but answers
/// nothing — probes must time out inside their carved window and hedge
/// or fail over to the replica, bit-identically; after SIGCONT the
/// pinger restores the endpoint.
#[test]
fn sigstop_stall_fails_over_and_recovers() {
    let root = tmpdir("sigstop");
    let replica_root = root.join("replicas");
    let rel = make_deployment(&root, 1, 250, 19);
    seed_replica(&root, &replica_root, 0);

    let primary = spawn_shard_node(&root, 0, "127.0.0.1:0");
    let replica = spawn_shard_node(&replica_root, 0, "127.0.0.1:0");
    let topo = root.join("cluster.topo");
    write_topology(
        &topo,
        &[vec![primary.addr.clone(), replica.addr.clone()]],
        "probe-timeout-ms 200\nhedge-ms 100\nping-interval-ms 100\nping-timeout-ms 100\n",
    );
    let router = spawn_router(&topo);
    let mut client = connect(&router.addr);

    let w = vec![0.6, 0.4];
    let k = 10;
    let weights = Weights::new(w.clone()).unwrap();
    let oracle_ids = survivor_oracle(&rel, 1, &[]).topk(&weights, k).0;

    let reply = client.query(&w, k as u32, 0, 0).unwrap();
    assert_eq!(reply.ids, oracle_ids, "healthy baseline");

    primary.signal("-STOP");
    for round in 0..4 {
        let reply = client.query(&w, k as u32, 0, 0).unwrap();
        assert_eq!(
            reply.ids, oracle_ids,
            "round {round}: stall costs a failover, not an answer"
        );
        assert!(reply.is_full_coverage(), "round {round}");
    }
    let primary_addr = primary.addr.clone();
    await_metrics(&mut client, "stalled endpoint marked down", |text| {
        text.lines()
            .any(|l| l.contains(&format!("addr=\"{primary_addr}\"")) && l.ends_with(" 0"))
    });

    primary.signal("-CONT");
    await_metrics(&mut client, "woken endpoint restored", |text| {
        text.lines()
            .any(|l| l.contains(&format!("addr=\"{primary_addr}\"")) && l.ends_with(" 1"))
    });
    let reply = client.query(&w, k as u32, 0, 0).unwrap();
    assert_eq!(reply.ids, oracle_ids, "post-wake bit-identity");

    let _ = fs::remove_dir_all(&root);
}

/// Rots one byte in the middle of `path`. Additive, not an XOR flip:
/// corrupting an already-corrupted file must not restore it.
fn corrupt(path: &Path) {
    let mut bytes = fs::read(path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] = bytes[mid].wrapping_add(1);
    fs::write(path, bytes).unwrap();
}

fn snapshots(dir: &Path) -> Vec<PathBuf> {
    let mut snaps: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|f| {
            f.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("snapshot."))
        })
        .collect();
    snaps.sort();
    snaps
}

/// A rotted newest snapshot is repaired offline by `drtopk recover`
/// (falling back to the previous generation + WAL, rewriting a clean
/// checkpoint), after which the shard node serves bit-identical
/// answers; a directory with *every* snapshot trashed refuses to serve
/// with exit 3 — never wrong answers.
#[test]
fn corrupt_snapshot_recovers_or_refuses() {
    let root = tmpdir("corrupt");
    let rel = WorkloadSpec::new(Distribution::Independent, 2, 250, 31).generate();
    {
        // Give shard 0 history: generation 0 plus a checkpoint.
        let mut stores = create_sharded(&root, &rel, 1, &DurableOptions::default()).unwrap();
        stores[0].checkpoint().unwrap();
    }
    let dir = shard_dir(&root, 0);
    let snaps = snapshots(&dir);
    assert!(
        snaps.len() >= 2,
        "need a fallback generation, got {snaps:?}"
    );
    corrupt(snaps.last().unwrap());

    // Offline repair from the shard's own directory.
    let (code, _) = run_cli(&["recover", "--dir", root.to_str().unwrap(), "--shard", "0"]);
    assert_eq!(code, 0, "recover repairs a rotted newest snapshot");

    let node = spawn_shard_node(&root, 0, "127.0.0.1:0");
    let topo = root.join("cluster.topo");
    write_topology(&topo, &[vec![node.addr.clone()]], "");
    let router = spawn_router(&topo);
    let mut client = connect(&router.addr);
    let w = vec![0.5, 0.5];
    let weights = Weights::new(w.clone()).unwrap();
    let oracle_ids = survivor_oracle(&rel, 1, &[]).topk(&weights, 10).0;
    let reply = client.query(&w, 10, 0, 0).unwrap();
    assert_eq!(reply.ids, oracle_ids, "post-recover bit-identity");
    node.kill9();

    // Beyond recovery: every snapshot rotted. The node must refuse to
    // start (exit 3, the corrupt-data code) instead of serving garbage.
    for snap in snapshots(&dir) {
        corrupt(&snap);
    }
    let out = Command::new(bin())
        .args([
            "serve",
            "--shard-dir",
            root.to_str().unwrap(),
            "--shard-id",
            "0",
            "--addr",
            "127.0.0.1:0",
        ])
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(3),
        "unrecoverable shard dir must exit 3: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let _ = fs::remove_dir_all(&root);
}

/// `drtopk topology check` validates without serving: OK on a sound
/// file, usage-class rejection on a broken one.
#[test]
fn topology_check_validates_files() {
    let dir = tmpdir("topocheck");
    fs::create_dir_all(&dir).unwrap();
    let good = dir.join("good.topo");
    fs::write(
        &good,
        "dims 2\nshard 0 127.0.0.1:7001 127.0.0.1:7101\nshard 1 127.0.0.1:7002\n",
    )
    .unwrap();
    let (code, out) = run_cli(&["topology", "check", good.to_str().unwrap()]);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("OK") && out.contains("2 shard(s)"), "{out}");

    let bad = dir.join("bad.topo");
    fs::write(
        &bad,
        "dims 2\nshard 0 127.0.0.1:7001\nshard 2 127.0.0.1:7002\n",
    )
    .unwrap();
    let (code, _) = run_cli(&["topology", "check", bad.to_str().unwrap()]);
    assert_ne!(code, 0, "a shard-id gap must be rejected");

    let (code, _) = run_cli(&["topology", "check"]);
    assert_eq!(code, 2, "missing file is a usage error");

    let _ = fs::remove_dir_all(&dir);
}
