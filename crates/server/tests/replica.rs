//! Multi-node serving over real sockets, in-process: shard-node servers
//! probed through [`RemoteShardProbe`] / [`ReplicaSet`] by a router
//! node, checked for bit-identity against the unsharded oracle.
//!
//! The contract under test (DESIGN.md, OPERATIONS.md §10):
//! * a remote deployment answers bit-identically to `query --index` on
//!   the same data — sharding and replication never change an answer;
//! * killing a replicated shard's primary mid-traffic costs a failover,
//!   not an answer: full coverage, zero degraded replies;
//! * a DRAINING endpoint is a *transient* fault — the probe maps it to
//!   [`ShardError::Unavailable`] and the replica set walks on to the
//!   next endpoint instead of failing the request;
//! * a listener that violates the hello exchange is *not* transient —
//!   `connect_with_retry` surfaces it immediately, no backoff burned;
//! * a probe dials an endpoint once per attempt: an endpoint that drops
//!   the connection costs one connect and a failover, never a private
//!   retry loop inside the probe.

use drtopk_common::{Cost, Distribution, Relation, Weights, WorkloadSpec};
use drtopk_core::shard::ShardError;
use drtopk_core::{
    DlOptions, DynamicIndex, Handle, QueryBudget, ReplicaConfig, ReplicaSet, RouterConfig,
    ShardProbe, ShardRouter,
};
use drtopk_server::protocol::{read_frame, write_frame};
use drtopk_server::{
    Client, ErrorCode, Message, RemoteRouter, RemoteShardProbe, ServedShard, Server, ServerConfig,
    ServerHandle, TopkReply, Topology, HELLO,
};
use drtopk_storage::{create_sharded, shards::shard_dir, DurableDynamicIndex, DurableOptions};
use std::fs;
use std::io::{Read, Write};
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("drtopk_replica_{name}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Byte-for-byte copy of one shard directory: how an operator seeds a
/// replica (OPERATIONS.md §10 — copy while the writer is checkpointed).
fn copy_dir(src: &Path, dst: &Path) {
    fs::create_dir_all(dst).unwrap();
    for e in fs::read_dir(src).unwrap() {
        let e = e.unwrap();
        fs::copy(e.path(), dst.join(e.file_name())).unwrap();
    }
}

/// Starts one shard-node server over the store at `dir`.
fn start_shard_node(s: usize, dir: &Path) -> ServerHandle {
    let (store, _) = DurableDynamicIndex::open(dir, DurableOptions::default()).unwrap();
    Server::start_shard_node(
        Arc::new(ServedShard::new(s, store)),
        ServerConfig::new().addr("127.0.0.1:0").workers(2),
    )
    .unwrap()
}

/// The exact unsharded oracle: one dynamic index over every tuple,
/// keeping global handles.
fn full_oracle(rel: &Relation) -> DynamicIndex {
    let handles: Vec<Handle> = (0..rel.len() as Handle).collect();
    DynamicIndex::with_handles(rel, handles, DlOptions::default(), 0.5).unwrap()
}

/// Remote deployment, replicated shard, primary killed mid-traffic:
/// answers stay bit-identical to the unsharded oracle with full
/// coverage throughout, and the health pinger marks the dead endpoint
/// down without taking the shard down.
#[test]
fn remote_router_survives_primary_kill_bit_identically() {
    let p = 2;
    let rel = WorkloadSpec::new(Distribution::Independent, 2, 200, 11).generate();
    let root = tmpdir("kill");
    drop(create_sharded(&root, &rel, p, &DurableOptions::default()).unwrap());

    // Both shards replicated: primary serves the original directory,
    // the replica serves a byte-identical copy.
    let mut nodes: Vec<ServerHandle> = Vec::new();
    let mut lines = String::from("dims 2\n");
    for s in 0..p {
        let dir = shard_dir(&root, s);
        let copy = root.join(format!("replica.{s:04}"));
        copy_dir(&dir, &copy);
        let primary = start_shard_node(s, &dir);
        let replica = start_shard_node(s, &copy);
        lines.push_str(&format!(
            "shard {s} {} {}\n",
            primary.addr(),
            replica.addr()
        ));
        nodes.push(primary);
        nodes.push(replica);
    }
    lines.push_str("probe-timeout-ms 500\nping-interval-ms 50\nping-timeout-ms 50\n");
    let topo = Topology::parse(&lines).unwrap();
    let router = Server::start_router(
        topo.build_router().unwrap(),
        Some(topo.pinger_config()),
        ServerConfig::new().addr("127.0.0.1:0").workers(2),
    )
    .unwrap();
    let mut client = Client::connect(router.addr()).unwrap();

    let w = vec![0.3, 0.7];
    let k = 10;
    let weights = Weights::new(w.clone()).unwrap();
    let oracle_ids = full_oracle(&rel).topk(&weights, k).0;

    // Healthy baseline: the remote answer IS the unsharded answer.
    let reply = client.query(&w, k as u32, 0, 0).unwrap();
    assert_eq!(reply.ids, oracle_ids, "remote == unsharded oracle");
    assert!(reply.is_full_coverage(), "healthy baseline coverage");
    assert_eq!(reply.truncated, None);

    // Kill shard 1's primary. Every subsequent answer must come from the
    // replica: bit-identical, full coverage, zero degraded replies.
    let dead_addr = nodes[2].addr().to_string();
    nodes.remove(2).shutdown();
    for _ in 0..5 {
        let reply = client.query(&w, k as u32, 0, 0).unwrap();
        assert_eq!(reply.ids, oracle_ids, "failover preserves bit-identity");
        assert!(
            reply.is_full_coverage(),
            "a replicated shard must not degrade coverage"
        );
    }

    // The pinger notices: the dead endpoint's gauge drops to 0 while the
    // shard itself stays served (its replica answers PING).
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let text = client.metrics_text().unwrap();
        let dead_down = text.lines().any(|l| {
            l.starts_with("drtopk_endpoint_up{shard=\"1\"")
                && l.contains(&format!("addr=\"{dead_addr}\""))
                && l.ends_with(" 0")
        });
        if dead_down {
            assert!(
                text.contains("drtopk_shard_health{shard=\"1\"} 0"),
                "shard 1 must stay Up on its replica:\n{text}"
            );
            break;
        }
        assert!(
            Instant::now() < deadline,
            "pinger never marked the dead endpoint down:\n{text}"
        );
        std::thread::sleep(Duration::from_millis(25));
    }

    router.shutdown();
    for n in nodes {
        n.shutdown();
    }
    let _ = fs::remove_dir_all(&root);
}

/// A protocol-correct stub endpoint that answers every request with
/// ERROR `ShuttingDown` — a node mid-drain. Returns its address.
fn draining_stub() -> String {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { return };
            std::thread::spawn(move || {
                let mut hello = [0u8; 8];
                if stream.read_exact(&mut hello).is_err() || stream.write_all(&HELLO).is_err() {
                    return;
                }
                while let Ok((id, _)) = read_frame(&mut stream) {
                    let msg = Message::Error {
                        code: ErrorCode::ShuttingDown,
                        message: "draining".to_string(),
                    };
                    if write_frame(&mut stream, id, &msg).is_err() {
                        return;
                    }
                }
            });
        }
    });
    addr
}

/// DRAINING during failover is transient: the probe classifies it as
/// [`ShardError::Unavailable`] (try a replica, keep trusting the data),
/// and a replica set whose primary drains walks on to the replica and
/// answers bit-identically — repeatedly, since the endpoint may come
/// back.
#[test]
fn draining_primary_fails_over_as_transient() {
    let rel = WorkloadSpec::new(Distribution::Independent, 2, 150, 29).generate();
    let root = tmpdir("drain");
    drop(create_sharded(&root, &rel, 1, &DurableOptions::default()).unwrap());
    let node = start_shard_node(0, &shard_dir(&root, 0));
    let stub = draining_stub();

    // Alone, the draining endpoint is Unavailable — a failover-class
    // fault, not a request abort and not distrust of the data.
    let probe = RemoteShardProbe::new(&stub, 2);
    let w = Weights::new(vec![0.5, 0.5]).unwrap();
    match probe.probe(&w, 5, &QueryBudget::unlimited()) {
        Err(ShardError::Unavailable(msg)) => assert!(msg.contains("draining"), "{msg}"),
        other => panic!("draining endpoint must map to Unavailable, got {other:?}"),
    }

    // Fronted by a replica set with a healthy replica, the drain costs a
    // failover, never an answer.
    let set = ReplicaSet::new(
        vec![
            Arc::new(RemoteShardProbe::new(&stub, 2)),
            Arc::new(RemoteShardProbe::new(node.addr().to_string(), 2)),
        ],
        ReplicaConfig::default(),
    )
    .unwrap();
    let oracle_ids = full_oracle(&rel).topk(&w, 5).0;
    for _ in 0..3 {
        let (hits, _) = set.probe(&w, 5, &QueryBudget::unlimited()).unwrap();
        let ids: Vec<Handle> = hits.iter().map(|&(_, h)| h).collect();
        assert_eq!(ids, oracle_ids, "failover answer is bit-identical");
    }
    assert!(!set.is_up(0), "the draining primary is believed down");
    assert!(set.is_up(1), "the replica is believed up");

    node.shutdown();
    let _ = fs::remove_dir_all(&root);
}

/// A listener that accepts and then violates the hello exchange is a
/// *non-transient* failure: `connect_with_retry` must surface it on the
/// first attempt — retrying cannot fix a spec violation, and burning
/// backoff on one would stall every failover that walks past it.
#[test]
fn connect_with_retry_fails_fast_on_bad_hello() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { return };
            let mut hello = [0u8; 8];
            let _ = stream.read_exact(&mut hello);
            let _ = stream.write_all(b"NOTDRTOP");
        }
    });

    let backoff = Duration::from_millis(300);
    let t0 = Instant::now();
    let err = Client::connect_with_retry(addr.as_str(), 5, backoff).unwrap_err();
    let elapsed = t0.elapsed();
    assert!(
        matches!(err, drtopk_server::ClientError::Unexpected(_)),
        "bad hello is a protocol violation, got {err:?}"
    );
    // With 5 retries the first backoff alone would sleep >= 150 ms
    // (jitter floor 0.5 x 300 ms); failing fast means none were taken.
    assert!(
        elapsed < Duration::from_millis(150),
        "bad hello must not burn retry backoff (took {elapsed:?})"
    );
}

/// A protocol-correct stub shard node: after the hello it answers every
/// request with `answer` under the request's id plus `id_offset`, each
/// `delay` after the request arrived. Returns its address and the count
/// of connections it accepted.
fn stub_node(delay: Duration, id_offset: u64, answer: Message) -> (String, Arc<AtomicUsize>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let accepted = Arc::new(AtomicUsize::new(0));
    let count = Arc::clone(&accepted);
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { return };
            count.fetch_add(1, SeqCst);
            let answer = answer.clone();
            std::thread::spawn(move || {
                let mut hello = [0u8; 8];
                if stream.read_exact(&mut hello).is_err() || stream.write_all(&HELLO).is_err() {
                    return;
                }
                while let Ok((id, _)) = read_frame(&mut stream) {
                    std::thread::sleep(delay);
                    if write_frame(&mut stream, id + id_offset, &answer).is_err() {
                        return;
                    }
                }
            });
        }
    });
    (addr, accepted)
}

/// A complete SHARD_QUERY reply: `hits` as `(score, id)`, ascending.
fn shard_reply(hits: &[(f64, u64)]) -> Message {
    let cost = Cost {
        evaluated: hits.len() as u64,
        pseudo_evaluated: 0,
    };
    Message::Topk(TopkReply {
        scores: Some(hits.iter().map(|&(s, _)| s).collect()),
        ..TopkReply::new(hits.iter().map(|&(_, id)| id).collect(), cost)
    })
}

/// A reply carrying another request's id is not this probe's answer: it
/// is an I/O fault, and the connection is closed rather than pooled, so
/// the next probe dials afresh.
#[test]
fn reply_to_another_request_id_is_an_io_fault() {
    let (addr, accepted) = stub_node(Duration::ZERO, 1000, shard_reply(&[(0.1, 4)]));
    let probe = RemoteShardProbe::new(&addr, 2);
    let w = Weights::new(vec![0.5, 0.5]).unwrap();
    for round in 1..=2 {
        match probe.probe(&w, 1, &QueryBudget::unlimited()) {
            Err(ShardError::Io(msg)) => assert!(msg.contains("expected"), "{msg}"),
            other => panic!("a mismatched reply id must be an Io fault, got {other:?}"),
        }
        assert_eq!(
            accepted.load(SeqCst),
            round,
            "the mismatched connection must be closed, not pooled"
        );
    }
}

/// The router sends every shard's request before it waits for any: two
/// shard nodes that each take 300 ms answer one routed query in well
/// under the 600 ms that probing them one after another would take.
#[test]
fn remote_router_overlaps_slow_shards() {
    let stall = Duration::from_millis(300);
    let (a, _) = stub_node(stall, 0, shard_reply(&[(0.1, 0), (0.3, 2)]));
    let (b, _) = stub_node(stall, 0, shard_reply(&[(0.2, 1), (0.4, 3)]));
    let sets: Vec<ReplicaSet<RemoteShardProbe>> = [a, b]
        .into_iter()
        .map(|addr| {
            let probe = RemoteShardProbe::new(addr, 2);
            ReplicaSet::new(vec![Arc::new(probe)], ReplicaConfig::default()).unwrap()
        })
        .collect();
    let router: RemoteRouter = ShardRouter::new(sets, RouterConfig::default()).unwrap();
    let w = Weights::new(vec![0.5, 0.5]).unwrap();
    let t0 = Instant::now();
    let routed = router.topk(&w, 3, &QueryBudget::unlimited());
    let elapsed = t0.elapsed();
    assert!(routed.coverage.is_full(), "{:?}", routed.failures);
    assert_eq!(routed.ids, vec![0, 1, 2]);
    assert_eq!(routed.cost.evaluated, 4);
    assert!(
        elapsed < Duration::from_millis(500),
        "remote probes must overlap (took {elapsed:?})"
    );
}

/// A complete shard reply the router's merge cannot order — a NaN score,
/// rows out of (score, id) order, or more rows than asked for — is an Io
/// fault, not an answer: the replica set fails over past the node that
/// sent it, and a router over [bad, good] replicas answers bit-identically
/// with full coverage.
#[test]
fn unordered_or_oversized_replies_are_io_faults_that_fail_over() {
    let rel = WorkloadSpec::new(Distribution::Independent, 2, 150, 37).generate();
    let root = tmpdir("bad_reply");
    drop(create_sharded(&root, &rel, 1, &DurableOptions::default()).unwrap());
    let node = start_shard_node(0, &shard_dir(&root, 0));
    let w = Weights::new(vec![0.5, 0.5]).unwrap();
    let k = 3;
    let oracle_ids = full_oracle(&rel).topk(&w, k).0;
    let bad_replies = [
        ("nan", shard_reply(&[(0.1, 0), (f64::NAN, 1)])),
        ("descending", shard_reply(&[(0.3, 0), (0.1, 1)])),
        (
            "oversized",
            shard_reply(&[(0.1, 0), (0.2, 1), (0.3, 2), (0.4, 3)]),
        ),
    ];
    for (name, reply) in bad_replies {
        let (stub, _) = stub_node(Duration::ZERO, 0, reply);
        let bad = RemoteShardProbe::new(&stub, 2);
        match bad.probe(&w, k, &QueryBudget::unlimited()) {
            Err(ShardError::Io(_)) => {}
            other => panic!("{name}: an unorderable reply must be an Io fault, got {other:?}"),
        }
        let good = RemoteShardProbe::new(node.addr().to_string(), 2);
        let set = ReplicaSet::new(
            vec![Arc::new(bad), Arc::new(good)],
            ReplicaConfig::default(),
        )
        .unwrap();
        let router: RemoteRouter = ShardRouter::new(vec![set], RouterConfig::default()).unwrap();
        let routed = router.topk(&w, k, &QueryBudget::unlimited());
        assert_eq!(routed.ids, oracle_ids, "{name}: failover answer is exact");
        assert!(routed.coverage.is_full(), "{name}: {:?}", routed.failures);
        assert!(routed.truncated.is_none(), "{name}");
        assert!(!router.shard(0).is_up(0), "{name}: the bad node is down");
        assert!(router.shard(0).is_up(1), "{name}: the good node is up");
    }
    node.shutdown();
    let _ = fs::remove_dir_all(&root);
}

/// A stub endpoint that accepts TCP and closes each connection at once,
/// before the hello: a node mid-restart. Returns its address and the
/// count of connections it accepted.
fn dropping_stub() -> (String, Arc<AtomicUsize>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let accepted = Arc::new(AtomicUsize::new(0));
    let count = Arc::clone(&accepted);
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(stream) = stream else { return };
            count.fetch_add(1, SeqCst);
            drop(stream);
        }
    });
    (addr, accepted)
}

/// A primary that drops every connection costs one connect, not a retry
/// loop: the probe dials it once, the failed hello is an Io fault, and
/// the replica set fails over to the real node, whose answer comes back
/// bit-identically. (Retrying a refused or reset connect is the router's
/// job, under its `RetryPolicy`, once no replica is left.)
#[test]
fn a_primary_that_drops_connections_costs_one_connect() {
    let rel = WorkloadSpec::new(Distribution::Independent, 2, 150, 41).generate();
    let root = tmpdir("dropping");
    drop(create_sharded(&root, &rel, 1, &DurableOptions::default()).unwrap());
    let node = start_shard_node(0, &shard_dir(&root, 0));
    let (stub, accepted) = dropping_stub();
    let set = ReplicaSet::new(
        vec![
            Arc::new(RemoteShardProbe::new(&stub, 2)),
            Arc::new(RemoteShardProbe::new(node.addr().to_string(), 2)),
        ],
        ReplicaConfig::default(),
    )
    .unwrap();
    let w = Weights::new(vec![0.4, 0.6]).unwrap();
    let k = 5;
    let budget = QueryBudget::unlimited();
    let want = RemoteShardProbe::new(node.addr().to_string(), 2)
        .probe(&w, k, &budget)
        .unwrap();
    let (hits, cost) = set.probe(&w, k, &budget).unwrap();
    let bits = |hits: &[(f64, Handle)]| -> Vec<(u64, Handle)> {
        hits.iter().map(|&(s, h)| (s.to_bits(), h)).collect()
    };
    assert_eq!(
        bits(&hits),
        bits(&want.0),
        "the replica's answer, bit for bit"
    );
    assert_eq!(cost, want.1, "the replica's cost");
    let ids: Vec<Handle> = hits.iter().map(|&(_, h)| h).collect();
    assert_eq!(ids, full_oracle(&rel).topk(&w, k).0, "the unsharded answer");
    assert_eq!(
        accepted.load(SeqCst),
        1,
        "one connect to the dropping primary"
    );
    assert!(!set.is_up(0), "the dropping primary is believed down");
    node.shutdown();
    let _ = fs::remove_dir_all(&root);
}
