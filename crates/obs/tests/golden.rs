//! Golden export test: pins the exported metric schema byte for byte.
//!
//! A snapshot with a distinct non-zero value in every field, and the
//! all-zero default snapshot, are rendered as Prometheus text, top-level
//! JSON and embedded JSON (indent 1), and compared against the expected
//! text checked in under `tests/golden/`. Any change to a metric name,
//! TYPE/HELP line, JSON key, bucket bound or number format fails here.
//!
//! To change the schema on purpose, render the new output (for example
//! with `print!("{}", full().to_prometheus())`) and replace the file.

use drtopk_obs::{HistogramSnapshot, MetricsSnapshot};

/// A histogram with the given `(bucket, count)` pairs and sum.
fn hist(buckets: &[(usize, u64)], sum: u64) -> HistogramSnapshot {
    let mut h = HistogramSnapshot::default();
    for &(b, c) in buckets {
        h.counts[b] = c;
    }
    h.sum = sum;
    h
}

/// Every field distinct and non-zero, so a field rendered under the wrong
/// name or in the wrong place shows up as a diff.
fn full() -> MetricsSnapshot {
    MetricsSnapshot {
        queries: 1_001,
        tuples_evaluated: 987_654_321_012,
        pseudo_evaluated: 1_003,
        forall_relaxations: 1_004,
        exists_relaxations: 1_005,
        heap_pushes: 1_006,
        zero_probes: 1_007,
        batch_enqueued: 2_008,
        batch_drained: 1_009,
        dynamic_inserts: 1_010,
        dynamic_deletes: 1_011,
        dynamic_rebuilds: 1_012,
        dynamic_buffer_scanned: 1_013,
        cache_hits: 1_014,
        cache_misses: 1_015,
        cache_cert_rejects: 1_016,
        cache_invalidations: 1_017,
        server_connections: 1_018,
        server_requests: 1_019,
        server_sheds: 1_020,
        server_protocol_errors: 1_021,
        server_enqueued: 3_022,
        server_dequeued: 1_023,
        shard_probes: 1_024,
        shard_probe_failures: 1_025,
        shard_retries: 1_026,
        shard_degraded_answers: 1_027,
        shard_failovers: 1_028,
        shard_hedges: 1_029,
        endpoint_pings: 1_030,
        endpoint_ping_failures: 1_031,
        shards_up: 32,
        shards_degraded: 33,
        shards_down: 34,
        query_latency_ns: hist(&[(10, 5), (15, 3), (21, 1)], 1_734_211),
        query_cost: hist(&[(0, 2), (6, 7), (64, 1)], u64::MAX / 2),
        scratch_touched: hist(&[(1, 4), (9, 6)], 3_001),
        kernel_block_tuples: hist(&[(2, 11), (3, 13), (4, 17)], 401),
        server_batch_size: hist(&[(1, 19), (5, 23)], 731),
        server_queue_wait_ns: hist(&[(12, 29), (30, 31)], 9_876_543_210),
    }
}

/// Compares line by line so a failure names the first differing line
/// instead of printing two multi-kilobyte strings.
fn check(what: &str, actual: &str, expected: &str) {
    for (i, (a, e)) in actual.lines().zip(expected.lines()).enumerate() {
        assert_eq!(a, e, "{what}: line {} differs", i + 1);
    }
    assert_eq!(
        actual.lines().count(),
        expected.lines().count(),
        "{what}: line count differs"
    );
    assert_eq!(actual, expected, "{what}: whitespace differs");
}

#[test]
fn full_snapshot_exports_match_golden() {
    let s = full();
    check(
        "full.prom",
        &s.to_prometheus(),
        include_str!("golden/full.prom"),
    );
    check("full.json", &s.to_json(), include_str!("golden/full.json"));
    check(
        "full_indented.json",
        &s.to_json_indented(1),
        include_str!("golden/full_indented.json"),
    );
}

#[test]
fn default_snapshot_exports_match_golden() {
    let s = MetricsSnapshot::default();
    check(
        "default.prom",
        &s.to_prometheus(),
        include_str!("golden/default.prom"),
    );
    check(
        "default.json",
        &s.to_json(),
        include_str!("golden/default.json"),
    );
    check(
        "default_indented.json",
        &s.to_json_indented(1),
        include_str!("golden/default_indented.json"),
    );
}
