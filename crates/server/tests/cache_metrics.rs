//! A cached single-index server counts one cache lookup per served
//! request: the admission-time probe's miss is not a second miss next to
//! the answer's own lookup. The metrics registry is process-wide, so this
//! check has a test binary of its own.

use drtopk_common::{Distribution, WorkloadSpec};
use drtopk_core::{DlOptions, DualLayerIndex};
use drtopk_server::{Client, Server, ServerConfig};
use std::sync::Arc;

#[test]
fn each_served_request_is_one_hit_or_one_miss() {
    let rel = WorkloadSpec::new(Distribution::AntiCorrelated, 3, 400, 17).generate();
    let idx = Arc::new(DualLayerIndex::build(&rel, DlOptions::dl_plus()));
    let handle = Server::start(idx, ServerConfig::new().cache(true).workers(1)).expect("start");
    let mut client = Client::connect(handle.addr()).expect("connect");
    // Far apart in weight space: no query can hit another's entry.
    let queries = [
        [0.2, 0.3, 0.5],
        [0.6, 0.2, 0.2],
        [0.1, 0.8, 0.1],
        [0.34, 0.33, 0.33],
        [0.05, 0.15, 0.8],
    ];
    let counts = || {
        let s = drtopk_obs::metrics().snapshot();
        (s.cache_hits, s.cache_misses)
    };
    let (hits0, misses0) = counts();
    for q in &queries {
        assert!(client.query(q, 10, 0, 0).expect("query").is_complete());
    }
    assert_eq!(
        counts(),
        (hits0, misses0 + 5),
        "one miss per distinct query"
    );
    for q in &queries {
        assert!(client.query(q, 10, 0, 0).expect("query").is_complete());
    }
    assert_eq!(counts(), (hits0 + 5, misses0 + 5), "one hit per repeat");
    handle.shutdown();
}
