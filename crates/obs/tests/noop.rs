//! The uninstrumented build (`--no-default-features`): the recording
//! types are zero-sized, every recording call is inert, and a snapshot
//! still renders every exported family, with zeros.
#![cfg(not(feature = "enabled"))]

use drtopk_obs::{metrics, MetricsRegistry, MetricsSnapshot, QueryCounters, QuerySpan};
use std::mem::size_of;

#[test]
fn recording_types_are_zero_sized() {
    assert_eq!(size_of::<MetricsRegistry>(), 0);
    assert_eq!(size_of::<QueryCounters>(), 0);
    assert_eq!(size_of::<QuerySpan>(), 0);
}

#[test]
fn recording_is_inert_and_every_family_renders_zero() {
    let m = metrics();
    m.set_recording(true);
    assert!(!m.recording(), "nothing can record in this build");
    m.queries.add(3);
    m.shards_up.set(2);
    m.query_cost.record(40);
    m.server_batch(5);
    m.set_shard_health(1, 2, 3);
    let mut c = QueryCounters::new();
    c.forall_relaxed(7);
    c.kernel_block(16);
    c.scratch_touched(9);
    c.flush();
    QuerySpan::start().finish(11, 1);

    let snap = m.snapshot();
    assert_eq!(snap, MetricsSnapshot::default());
    // The expected text is the golden test's: every family, all zeros.
    assert_eq!(snap.to_prometheus(), include_str!("golden/default.prom"));
    assert_eq!(snap.to_json(), include_str!("golden/default.json"));
}
