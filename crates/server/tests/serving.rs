//! End-to-end loopback tests: a real server on an ephemeral port,
//! concurrent clients, and the differential contract — every network
//! answer bit-identical (ids + costs) to an in-process `topk` call,
//! including budget-truncated partials. Plus the overload contract
//! (sheds are *reported*, never dropped), graceful drain, the HTTP
//! metrics escape hatch, and forward-compat error replies.

use drtopk_common::{Distribution, Weights, WorkloadSpec};
use drtopk_core::{DlOptions, DualLayerIndex, QueryBudget, TruncateReason};
use drtopk_server::protocol::{encode_frame, read_frame, write_frame, Message};
use drtopk_server::{Client, ClientError, ErrorCode, Server, ServerConfig, HELLO};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::SeqCst};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

fn build_index(d: usize, n: usize, seed: u64) -> Arc<DualLayerIndex> {
    let rel = WorkloadSpec::new(Distribution::AntiCorrelated, d, n, seed).generate();
    Arc::new(DualLayerIndex::build(&rel, DlOptions::dl_plus()))
}

/// Raw weight vectors (pre-normalization): the server and the local
/// reference both construct `Weights::new` from the same f64s, so the
/// comparison is bit-exact by construction.
fn raw_weights(d: usize, count: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| (0..d).map(|_| rng.gen_range(0.05..1.0)).collect())
        .collect()
}

/// The acceptance-criteria differential: a seeded matrix of d/k/budget
/// options, N concurrent clients, every reply bit-identical (ids and
/// both cost components) to the in-process guarded traversal — complete
/// answers and cost-capped partials alike.
#[test]
fn loopback_matrix_is_bit_identical_to_in_process_topk() {
    for d in [2usize, 3] {
        let idx = build_index(d, 400, 13 + d as u64);
        let handle =
            Server::start(Arc::clone(&idx), ServerConfig::new().workers(2)).expect("start server");
        let addr = handle.addr();

        std::thread::scope(|s| {
            for client_id in 0..4u64 {
                let idx = Arc::clone(&idx);
                s.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    let pool = raw_weights(d, 12, 0xC11E47 + client_id);
                    for (i, raw) in pool.iter().enumerate() {
                        let k = [1usize, 5, 25][i % 3];
                        // Every 3rd query carries a cost cap tight enough
                        // to truncate most traversals.
                        let max_cost = if i % 3 == 2 { 4 } else { 0 };
                        let reply = client.query(raw, k as u32, 0, max_cost).expect("query");
                        let w = Weights::new(raw.clone()).unwrap();
                        let mut budget = QueryBudget::unlimited();
                        if max_cost > 0 {
                            budget = budget.with_max_cost(max_cost);
                        }
                        let want = idx.topk_guarded(&w, k, &budget);
                        let want_ids: Vec<u64> = want.ids.iter().map(|&id| u64::from(id)).collect();
                        assert_eq!(reply.ids, want_ids, "client {client_id} query {i}");
                        assert_eq!(
                            reply.evaluated, want.cost.evaluated,
                            "client {client_id} query {i}"
                        );
                        assert_eq!(
                            reply.pseudo_evaluated, want.cost.pseudo_evaluated,
                            "client {client_id} query {i}"
                        );
                        assert_eq!(
                            reply.is_complete(),
                            want.truncated.is_none(),
                            "client {client_id} query {i}"
                        );
                        if max_cost > 0 && want.truncated.is_some() {
                            assert_eq!(
                                reply.truncated,
                                Some(TruncateReason::CostExceeded),
                                "cost-cap truncation flag"
                            );
                        }
                    }
                });
            }
        });
        handle.shutdown();
    }
}

/// `--cache` wiring: repeated weight vectors are served from the result
/// cache with ids still bit-identical to the traversal.
#[test]
fn cached_server_serves_repeats_bit_identically() {
    let d = 2;
    let idx = build_index(d, 300, 99);
    let handle = Server::start(Arc::clone(&idx), ServerConfig::new().cache(true).workers(1))
        .expect("start server");
    let mut client = Client::connect(handle.addr()).expect("connect");
    let raw: Vec<f64> = vec![0.3, 0.7];
    let want: Vec<u64> = idx
        .topk(&Weights::new(raw.clone()).unwrap(), 10)
        .ids
        .iter()
        .map(|&id| u64::from(id))
        .collect();
    for round in 0..10 {
        let reply = client.query(&raw, 10, 0, 0).expect("query");
        assert_eq!(reply.ids, want, "round {round}");
        assert!(reply.is_complete());
    }
    // After the first round the weight cell is hot; later rounds must be
    // cache hits (cost 0 on the 2-d cell path, ≤ k rescores certified).
    let last = client.query(&raw, 10, 0, 0).expect("query");
    assert!(
        last.evaluated <= 10,
        "hot cell must not re-run the traversal: evaluated {}",
        last.evaluated
    );
    handle.shutdown();
}

/// §5.1: a full queue sheds with an explicit `Overloaded` reply — every
/// request is answered, nothing is silently dropped. `queue_depth(0)`
/// makes the overload deterministic.
#[test]
fn overload_sheds_are_reported_not_dropped() {
    let idx = build_index(2, 200, 7);
    let handle =
        Server::start(Arc::clone(&idx), ServerConfig::new().queue_depth(0)).expect("start server");
    let mut client = Client::connect(handle.addr()).expect("connect");
    for i in 0..20 {
        match client.query(&[0.5, 0.5], 5, 0, 0) {
            Err(ClientError::Server { code, message }) => {
                assert_eq!(code, ErrorCode::Overloaded, "request {i}");
                assert!(!message.is_empty());
            }
            other => panic!("request {i}: want Overloaded, got {other:?}"),
        }
    }
    // The sheds are visible in the serving metrics.
    let text = client.metrics_text().expect("metrics");
    let sheds: u64 = text
        .lines()
        .find(|l| l.starts_with("drtopk_server_sheds_total"))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
        .expect("sheds counter present");
    assert!(sheds >= 20, "20 sheds must be counted, saw {sheds}");
    handle.shutdown();
}

/// Bad requests (wrong dims, non-finite weights) get coded replies and
/// the connection survives them.
#[test]
fn bad_requests_are_rejected_and_the_connection_survives() {
    let idx = build_index(2, 150, 21);
    let handle = Server::start(Arc::clone(&idx), ServerConfig::new()).expect("start");
    let mut client = Client::connect(handle.addr()).expect("connect");
    for bad in [vec![0.5, 0.3, 0.2], vec![f64::NAN, 1.0], vec![-1.0, 2.0]] {
        match client.query(&bad, 5, 0, 0) {
            Err(ClientError::Server { code, .. }) => {
                assert_eq!(code, ErrorCode::BadRequest, "weights {bad:?}")
            }
            other => panic!("weights {bad:?}: want BadRequest, got {other:?}"),
        }
    }
    // Still alive and correct afterwards.
    let reply = client.query(&[0.5, 0.5], 3, 0, 0).expect("healthy query");
    assert_eq!(reply.ids.len(), 3);
    handle.shutdown();
}

/// A synchronous call waits for the reply to its own request id: the
/// ERROR answering a pipelined request the caller abandoned is skipped,
/// not returned as the later call's answer.
#[test]
fn a_call_skips_the_error_of_an_abandoned_request() {
    let idx = build_index(2, 150, 23);
    let handle = Server::start(Arc::clone(&idx), ServerConfig::new()).expect("start");
    let mut client = Client::connect(handle.addr()).expect("connect");
    let want: Vec<u64> = idx
        .topk(&Weights::new(vec![0.5, 0.5]).unwrap(), 3)
        .ids
        .iter()
        .map(|&id| u64::from(id))
        .collect();
    // Three weights for a 2-d index: answered BadRequest, never read.
    client.send_query(&[0.5, 0.3, 0.2], 3, 0, 0).expect("send");
    let reply = client.query(&[0.5, 0.5], 3, 0, 0).expect("own answer");
    assert_eq!(reply.ids, want);
    client.send_query(&[0.5, 0.3, 0.2], 3, 0, 0).expect("send");
    client.ping().expect("ping skips the stale error");
    handle.shutdown();
}

/// §5.3: an unknown request type draws `ERR_UNSUPPORTED` for that id and
/// the connection keeps working — the forward-compat rule.
#[test]
fn unknown_message_type_gets_unsupported_not_a_hangup() {
    let idx = build_index(2, 100, 3);
    let handle = Server::start(Arc::clone(&idx), ServerConfig::new()).expect("start");
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream.write_all(&HELLO).expect("hello");
    let mut echo = [0u8; 8];
    stream.read_exact(&mut echo).expect("echo");
    assert_eq!(echo, HELLO);
    // Hand-build a sound frame with unknown type 0x42: splice the type
    // byte into a PING frame and re-checksum.
    let mut frame = drtopk_server::protocol::encode_frame(77, &Message::Ping);
    frame[8] = 0x42;
    let crc = drtopk_storage::format::crc32(&frame[8..]);
    frame[4..8].copy_from_slice(&crc.to_le_bytes());
    stream.write_all(&frame).expect("send unknown");
    match read_frame(&mut stream).expect("reply") {
        (77, Message::Error { code, .. }) => assert_eq!(code, ErrorCode::Unsupported),
        other => panic!("want Unsupported for id 77, got {other:?}"),
    }
    // The connection survives: a PING still answers.
    write_frame(&mut stream, 78, &Message::Ping).expect("ping");
    match read_frame(&mut stream).expect("pong") {
        (78, Message::Pong) => {}
        other => panic!("want Pong, got {other:?}"),
    }
    handle.shutdown();
}

/// §3.4 + §4.4: a client-initiated DRAIN is acknowledged, the server
/// drains, and the listener goes away.
#[test]
fn drain_frame_shuts_the_server_down_gracefully() {
    let idx = build_index(2, 100, 5);
    let handle = Server::start(Arc::clone(&idx), ServerConfig::new()).expect("start");
    let addr = handle.addr();
    let mut client = Client::connect(addr).expect("connect");
    // Work first, then drain: the admitted query must be answered.
    let reply = client.query(&[0.4, 0.6], 5, 0, 0).expect("query");
    assert_eq!(reply.ids.len(), 5);
    client.drain().expect("drain acknowledged");
    // wait() returns because the DRAIN joined every thread.
    handle.wait();
    // The listener is gone: new connections are refused (or reset).
    assert!(
        TcpStream::connect(addr).is_err() || Client::connect(addr).is_err(),
        "post-drain connections must fail"
    );
}

/// §6: the same port answers plain HTTP for Prometheus scrapers, with
/// the serving metrics present, and 404s everything but /metrics.
#[test]
fn http_metrics_escape_hatch() {
    let idx = build_index(2, 100, 11);
    let handle = Server::start(Arc::clone(&idx), ServerConfig::new()).expect("start");
    let addr = handle.addr();

    let mut ok = TcpStream::connect(addr).expect("connect");
    ok.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").expect("get");
    let mut body = String::new();
    ok.read_to_string(&mut body).expect("read");
    assert!(body.starts_with("HTTP/1.0 200 OK"), "{body}");
    assert!(body.contains("drtopk_server_connections_total"), "{body}");
    assert!(body.contains("drtopk_index_tuples"), "{body}");

    let mut missing = TcpStream::connect(addr).expect("connect");
    missing
        .write_all(b"GET /nope HTTP/1.0\r\n\r\n")
        .expect("get");
    let mut reply = String::new();
    missing.read_to_string(&mut reply).expect("read");
    assert!(reply.starts_with("HTTP/1.0 404"), "{reply}");

    // A request line whose CRLF straddles two reads still answers: the
    // scan of new bytes starts one byte back.
    let mut split = TcpStream::connect(addr).expect("connect");
    split.write_all(b"GET /metrics HTTP/1.0\r").expect("get");
    std::thread::sleep(Duration::from_millis(60));
    split.write_all(b"\n").expect("get");
    let mut body = String::new();
    split.read_to_string(&mut body).expect("read");
    assert!(body.starts_with("HTTP/1.0 200 OK"), "{body}");

    // An endless request line is cut off at the 8 KiB cap, not buffered
    // until the 2 s deadline.
    let mut endless = TcpStream::connect(addr).expect("connect");
    endless.write_all(b"GET /").expect("get");
    let t0 = Instant::now();
    while endless.write_all(&[b'a'; 1024]).is_ok() {
        assert!(t0.elapsed() < Duration::from_secs(3), "never disconnected");
    }
    let cut = t0.elapsed();
    assert!(
        cut < Duration::from_millis(500),
        "disconnected after {cut:?}"
    );

    // The protocol-level METRICS frame returns the same exposition shape.
    let mut client = Client::connect(addr).expect("connect");
    let text = client.metrics_text().expect("metrics frame");
    assert!(text.contains("drtopk_server_requests_total"));
    handle.shutdown();
}

/// A drain under load answers every query it admitted: four clients loop
/// queries while `shutdown()` runs, and each query gets its true answer,
/// `ShuttingDown`, or a closed connection — never a read timeout — and
/// `shutdown()` returns. The races it guards are narrow, hence 20 rounds.
#[test]
fn drain_under_load_answers_every_admitted_query() {
    let d = 3;
    let idx = build_index(d, 1_000, 37);
    let pool = raw_weights(d, 16, 0xD7A1);
    let wants: Vec<Vec<u64>> = pool
        .iter()
        .map(|raw| {
            let w = Weights::new(raw.clone()).unwrap();
            let got = idx.topk_guarded(&w, 10, &QueryBudget::unlimited());
            got.ids.iter().map(|&id| u64::from(id)).collect()
        })
        .collect();
    for round in 0..20 {
        let handle =
            Server::start(Arc::clone(&idx), ServerConfig::new().workers(2)).expect("start");
        let clients: Vec<Client> = (0..4)
            .map(|_| {
                let client = Client::connect(handle.addr()).expect("connect");
                client
                    .set_read_timeout(Some(Duration::from_secs(5)))
                    .unwrap();
                client
            })
            .collect();
        std::thread::scope(|s| {
            for (c, mut client) in clients.into_iter().enumerate() {
                let (pool, wants) = (&pool, &wants);
                s.spawn(move || {
                    for i in c.. {
                        let q = i % pool.len();
                        match client.query(&pool[q], 10, 0, 0) {
                            Ok(reply) => assert_eq!(reply.ids, wants[q], "round {round}"),
                            Err(ClientError::Server {
                                code: ErrorCode::ShuttingDown,
                                ..
                            }) => return,
                            Err(ClientError::Io(e))
                                if e.kind() != std::io::ErrorKind::TimedOut
                                    && e.kind() != std::io::ErrorKind::WouldBlock =>
                            {
                                return; // the connection closed
                            }
                            Err(e) => panic!("round {round} client {c}: {e}"),
                        }
                    }
                });
            }
            std::thread::sleep(Duration::from_millis(50));
            let (done, finished) = mpsc::channel();
            let drain = std::thread::spawn(move || {
                handle.shutdown();
                let _ = done.send(());
            });
            finished
                .recv_timeout(Duration::from_secs(5))
                .unwrap_or_else(|_| panic!("round {round}: shutdown() hung"));
            drain.join().expect("shutdown thread");
        });
    }
}

/// A peer that stops halfway through its hello or a frame loses its
/// connection 2 s later (PROTOCOL.md §1.1, §2.2); one idle between
/// frames keeps it.
#[test]
fn half_sent_requests_are_cut_off_and_idle_connections_live() {
    let idx = build_index(2, 100, 41);
    let handle = Server::start(Arc::clone(&idx), ServerConfig::new()).expect("start");
    let addr = handle.addr();
    let start = Instant::now();

    let mut half_frame = TcpStream::connect(addr).expect("connect");
    half_frame.write_all(&HELLO).expect("hello");
    let mut echo = [0u8; 8];
    half_frame.read_exact(&mut echo).expect("echo");
    let query = Message::Query {
        deadline_ms: 0,
        max_cost: 0,
        k: 5,
        weights: vec![0.5, 0.5],
        scores: false,
    };
    half_frame
        .write_all(&encode_frame(9, &query)[..5])
        .expect("half a frame");

    let mut half_hello = TcpStream::connect(addr).expect("connect");
    half_hello.write_all(&HELLO[..4]).expect("half a hello");

    let mut idle = Client::connect(addr).expect("connect");

    half_frame
        .set_read_timeout(Some(Duration::from_secs(3)))
        .unwrap();
    match read_frame(&mut half_frame).expect("a connection-scoped error, not a timeout") {
        (0, Message::Error { code, .. }) => assert_eq!(code, ErrorCode::BadRequest),
        other => panic!("want BadRequest for id 0, got {other:?}"),
    }
    let mut rest = Vec::new();
    let n = half_frame
        .read_to_end(&mut rest)
        .expect("EOF, not a timeout");
    assert_eq!(n, 0, "nothing follows the error");

    half_hello
        .set_read_timeout(Some(Duration::from_secs(3)))
        .unwrap();
    let n = half_hello.read(&mut echo).expect("EOF, not a timeout");
    assert_eq!(n, 0, "a half hello is closed without a reply");
    assert!(
        start.elapsed() < Duration::from_secs(3),
        "cut off after {:?}",
        start.elapsed()
    );

    std::thread::sleep(Duration::from_millis(2_500).saturating_sub(start.elapsed()));
    idle.ping().expect("an idle connection lives on");
    handle.shutdown();
}

/// A peer that trickles a frame a byte at a time, so that no read ever
/// times out, is cut off 2 s after the frame's first byte like one that
/// stalls (PROTOCOL.md §2.2).
#[test]
fn a_trickled_frame_is_cut_off() {
    let idx = build_index(2, 100, 43);
    let handle = Server::start(Arc::clone(&idx), ServerConfig::new()).expect("start");
    let mut peer = TcpStream::connect(handle.addr()).expect("connect");
    peer.write_all(&HELLO).expect("hello");
    let mut echo = [0u8; 8];
    peer.read_exact(&mut echo).expect("echo");

    // A frame header declaring a 1 MiB payload, then one payload byte
    // every 5 ms until the server hangs up.
    let start = Instant::now();
    let mut header = [0u8; 8];
    header[..4].copy_from_slice(&(1u32 << 20).to_le_bytes());
    peer.write_all(&header).expect("frame header");
    let mut trickle = peer.try_clone().expect("clone");
    let writer = std::thread::spawn(move || {
        while start.elapsed() < Duration::from_secs(5) && trickle.write_all(&[0]).is_ok() {
            std::thread::sleep(Duration::from_millis(5));
        }
    });

    peer.set_read_timeout(Some(Duration::from_secs(3))).unwrap();
    match read_frame(&mut peer).expect("a connection-scoped error, not a timeout") {
        (0, Message::Error { code, .. }) => assert_eq!(code, ErrorCode::BadRequest),
        other => panic!("want BadRequest for id 0, got {other:?}"),
    }
    let mut rest = Vec::new();
    let n = peer.read_to_end(&mut rest).expect("EOF, not a timeout");
    assert_eq!(n, 0, "nothing follows the error");
    assert!(
        start.elapsed() < Duration::from_secs(3),
        "cut off after {:?}",
        start.elapsed()
    );
    writer.join().expect("trickle writer");
    handle.shutdown();
}

/// Pipelining: many queries in flight on one connection, replies paired
/// by request id regardless of arrival order.
#[test]
fn pipelined_queries_pair_up_by_request_id() {
    let d = 3;
    let idx = build_index(d, 300, 17);
    let handle = Server::start(Arc::clone(&idx), ServerConfig::new().workers(2)).expect("start");
    let mut client = Client::connect(handle.addr()).expect("connect");
    let pool = raw_weights(d, 24, 0xF00D);
    let mut expected = std::collections::HashMap::new();
    for raw in &pool {
        let id = client.send_query(raw, 7, 0, 0).expect("send");
        let w = Weights::new(raw.clone()).unwrap();
        let want: Vec<u64> = idx.topk(&w, 7).ids.iter().map(|&x| u64::from(x)).collect();
        expected.insert(id, want);
    }
    for _ in 0..pool.len() {
        let (id, Message::Topk(reply)) = client.recv().expect("recv") else {
            panic!("not a TOPK reply");
        };
        let want = expected.remove(&id).expect("unknown or duplicate id");
        assert_eq!(reply.ids, want, "request {id}");
    }
    assert!(expected.is_empty());
    handle.shutdown();
}

/// A client that stops reading its replies loses only its own
/// connection: a reply write to it fails at the write deadline and
/// closes that socket, and it never held a turn while the write waited,
/// so other clients are answered.
#[test]
fn a_client_that_stops_reading_does_not_wedge_the_workers() {
    let (d, n) = (3, 2_000);
    let idx = build_index(d, n, 29);
    let handle = Server::start(Arc::clone(&idx), ServerConfig::new().workers(2)).expect("start");
    let mut stalled = TcpStream::connect(handle.addr()).expect("connect");
    stalled.write_all(&HELLO).expect("hello");
    let mut echo = [0u8; 8];
    stalled.read_exact(&mut echo).expect("echo");
    // Whole-relation answers fill the socket buffers fast; not one reply
    // is read.
    stalled
        .set_write_timeout(Some(Duration::from_millis(50)))
        .unwrap();
    let query = Message::Query {
        deadline_ms: 0,
        max_cost: 0,
        k: n as u32,
        weights: vec![0.2, 0.3, 0.5],
        scores: false,
    };
    let until = Instant::now() + Duration::from_millis(1_500);
    let mut id = 0;
    while Instant::now() < until {
        id += 1;
        if write_frame(&mut stalled, id, &query).is_err() {
            std::thread::sleep(Duration::from_millis(10));
        }
    }
    // The stalled connection's queued queries may still be draining:
    // a shed is retried, but a wedged server never answers.
    let mut client = Client::connect(handle.addr()).expect("connect");
    client
        .set_read_timeout(Some(Duration::from_secs(3)))
        .unwrap();
    let give_up = Instant::now() + Duration::from_secs(5);
    let reply = loop {
        match client.query(&[0.5, 0.3, 0.2], 5, 0, 0) {
            Err(ClientError::Server {
                code: ErrorCode::Overloaded,
                ..
            }) if Instant::now() < give_up => std::thread::sleep(Duration::from_millis(20)),
            other => break other.expect("another client is answered"),
        }
    };
    let w = Weights::new(vec![0.5, 0.3, 0.2]).unwrap();
    let want: Vec<u64> = idx.topk(&w, 5).ids.iter().map(|&x| u64::from(x)).collect();
    assert_eq!(reply.ids, want);
    drop(stalled);
    handle.shutdown();
}

/// §5.1: a client that pipelines slow queries and never reads its
/// replies cannot get every other client shed: its connection has at
/// most one query admitted.
#[test]
fn a_pipelining_connection_cannot_take_every_queue_slot() {
    let (d, n) = (2, 20_000);
    let idx = build_index(d, n, 31);
    let handle = Server::start(
        Arc::clone(&idx),
        ServerConfig::new().workers(1).queue_depth(8),
    )
    .expect("start");
    let addr = handle.addr();
    let stop = Arc::new(AtomicBool::new(false));
    let sent = Arc::new(AtomicUsize::new(0));
    let flood = {
        let (stop, sent) = (Arc::clone(&stop), Arc::clone(&sent));
        std::thread::spawn(move || {
            let mut stalled = TcpStream::connect(addr).expect("connect");
            stalled.write_all(&HELLO).expect("hello");
            let mut echo = [0u8; 8];
            stalled.read_exact(&mut echo).expect("echo");
            stalled
                .set_write_timeout(Some(Duration::from_millis(50)))
                .unwrap();
            // Whole-relation queries: one worker answers each slowly.
            let query = Message::Query {
                deadline_ms: 0,
                max_cost: 0,
                k: n as u32,
                weights: vec![0.4, 0.6],
                scores: false,
            };
            let mut id = 0;
            while !stop.load(SeqCst) {
                id += 1;
                if write_frame(&mut stalled, id, &query).is_ok() {
                    sent.fetch_add(1, SeqCst);
                } else {
                    std::thread::sleep(Duration::from_millis(5));
                }
            }
            stalled
        })
    };
    // Far more frames than the queue holds, and time to read them: the
    // flood now holds every slot it is allowed.
    let give_up = Instant::now() + Duration::from_secs(10);
    while sent.load(SeqCst) < 200 {
        assert!(Instant::now() < give_up, "the flood stalled");
        std::thread::sleep(Duration::from_millis(1));
    }
    std::thread::sleep(Duration::from_millis(50));
    // Three queries pipelined at once fit beside the flood's one
    // admitted query; a queue the flood held whole would shed them.
    let mut client = Client::connect(addr).expect("connect");
    client
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    for _ in 0..3 {
        client.send_query(&[0.5, 0.5], 5, 0, 0).expect("send");
    }
    let w = Weights::new(vec![0.5, 0.5]).unwrap();
    let want: Vec<u64> = idx.topk(&w, 5).ids.iter().map(|&x| u64::from(x)).collect();
    for _ in 0..3 {
        let reply = client.recv().expect("recv");
        let (_, Message::Topk(reply)) = reply else {
            panic!("another client is answered, not shed: {reply:?}");
        };
        assert_eq!(reply.ids, want);
    }
    stop.store(true, SeqCst);
    drop(flood.join().expect("flood thread"));
    handle.shutdown();
}
