//! Served panic isolation: a request whose answer panics is answered
//! with an `Internal` ERROR frame, and the connection, the reader that
//! answered it and every later answer are unaffected. Run with
//! `--features failpoints`.
//!
//! The failpoint registry is process-global, so this check has a test
//! binary of its own (the accept-path chaos test resets the registry).
#![cfg(feature = "failpoints")]

use drtopk_common::{Distribution, Weights, WorkloadSpec};
use drtopk_core::batch::WORKER_FAILPOINT;
use drtopk_core::{DlOptions, DualLayerIndex, QueryBudget};
use drtopk_failpoints::FailAction;
use drtopk_server::{Client, ClientError, ErrorCode, Server, ServerConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Duration;

/// Serves a one-worker single-index server, panics the answer to the
/// second request, then checks the next 20 answers against the
/// in-process guarded traversal. Without a cache the whole answer (ids
/// and both cost components) must match; with one, only the ids, since
/// a cached answer reports the cache's costs.
fn panic_then_serve(idx: &Arc<DualLayerIndex>, cache: bool) {
    let handle =
        Server::start(Arc::clone(idx), ServerConfig::new().workers(1).cache(cache)).expect("start");
    let mut client = Client::connect(handle.addr()).expect("connect");
    // A dead reader would leave the next reply unanswered forever.
    client
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");

    drtopk_failpoints::arm(WORKER_FAILPOINT, 1, FailAction::Panic);

    // Far apart in weight space, so with a cache the second request
    // misses and is answered under a turn too.
    let first = client.query(&[0.2, 0.3, 0.5], 5, 0, 0).expect("request 1");
    assert_eq!(first.ids.len(), 5);
    match client.query(&[0.6, 0.2, 0.2], 5, 0, 0) {
        Err(ClientError::Server { code, message }) => {
            assert_eq!(code, ErrorCode::Internal, "cache {cache}");
            assert!(message.contains(WORKER_FAILPOINT), "{message}");
        }
        other => panic!("want an Internal error reply, got {other:?}"),
    }

    let mut rng = StdRng::seed_from_u64(0x9A41C);
    for i in 0..20 {
        let raw: Vec<f64> = (0..idx.dims()).map(|_| rng.gen_range(0.05..1.0)).collect();
        let k = [1usize, 5, 25][i % 3];
        // Every third request carries a cost cap tight enough to
        // truncate most traversals.
        let max_cost = if i % 3 == 2 { 4 } else { 0 };
        let reply = client
            .query(&raw, k as u32, 0, max_cost)
            .unwrap_or_else(|e| panic!("cache {cache} request {i}: {e}"));
        let w = Weights::new(raw).unwrap();
        let mut budget = QueryBudget::unlimited();
        if max_cost > 0 {
            budget = budget.with_max_cost(max_cost);
        }
        let mut want = idx.topk_guarded(&w, k, &budget);
        if cache && reply.is_complete() {
            // The cache rule: a hit is a complete answer under any budget.
            want = idx.topk_guarded(&w, k, &QueryBudget::unlimited());
        }
        let want_ids: Vec<u64> = want.ids.iter().map(|&id| u64::from(id)).collect();
        assert_eq!(reply.ids, want_ids, "cache {cache} request {i}");
        if !cache {
            assert_eq!(reply.evaluated, want.cost.evaluated, "request {i}");
            assert_eq!(
                reply.pseudo_evaluated, want.cost.pseudo_evaluated,
                "request {i}"
            );
        }
    }
    if !cache {
        // The failpoint is visited exactly once per answered request.
        assert_eq!(drtopk_failpoints::visits(WORKER_FAILPOINT), 22);
    }
    drtopk_failpoints::reset();
    handle.shutdown();
}

#[test]
fn a_panicking_request_answers_internal_and_the_worker_lives_on() {
    let rel = WorkloadSpec::new(Distribution::AntiCorrelated, 3, 300, 29).generate();
    let idx = Arc::new(DualLayerIndex::build(&rel, DlOptions::dl_plus()));
    // One test body, run twice in sequence: the registry is shared.
    panic_then_serve(&idx, false);
    panic_then_serve(&idx, true);
}
