//! The metric catalogue (names and units, as in `BENCHMARK.json`) and the
//! result object printed as the last line of standard output.

use crate::trace::Span;
use std::collections::BTreeMap;

/// End-to-end metrics: every untraced run prints all of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_ops", "1/s"),
    ("read_p50_us", "us"),
    ("evaluated_per_read", "count/read"),
    ("cpu_us_per_op", "us/op"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: every traced run prints all of them, and a layer the
/// workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("read_p99_us", "us"),
    ("write_p50_us", "us"),
    ("write_p99_us", "us"),
    ("fail_ratio", "ratio"),
    ("server.self_us", "us"),
    ("server.queue_wait_us", "us"),
    ("server.batch_size", "count"),
    ("server.sheds", "count"),
    ("server.protocol_errors", "count"),
    ("batch.us", "us"),
    ("cache.hit_ratio", "ratio"),
    ("cache.hit_us", "us"),
    ("cache.miss_us", "us"),
    ("cache.cert_rejects", "count"),
    ("cache.invalidations_per_write", "count/write"),
    ("query.us", "us"),
    ("query.evaluated", "count"),
    ("query.scratch_touched", "count"),
    ("shard.router_us", "us"),
    ("shard.fanout_us", "us"),
    ("shard.probe_us", "us"),
    ("shard.probes_per_read", "count/read"),
    ("shard.retries", "count"),
    ("shard.probe_failures", "count"),
    ("remote.probe_us", "us"),
    ("remote.hop_us", "us"),
    ("remote.failovers", "count"),
    ("remote.hedges", "count"),
    ("dynamic.read_us", "us"),
    ("dynamic.pending_mean", "count"),
    ("dynamic.buffer_scanned_per_read", "count/read"),
    ("dynamic.rebuilds", "count"),
    ("dynamic.rebuild_ms", "ms"),
    ("storage.append_us", "us"),
    ("storage.checkpoints", "count"),
    ("storage.checkpoint_ms", "ms"),
    ("storage.write_amp", "ratio"),
    ("storage.space_amp", "ratio"),
    ("storage.recover_s", "s"),
    ("build.s", "s"),
    ("process.ctx_switches_per_op", "count/op"),
    ("process.threads_peak", "count"),
    ("trace.overhead_pct", "%"),
];

pub struct Report {
    /// No answer differed from its oracle and the durability check held.
    pub correct: bool,
    pub attempted: u64,
    /// Errors, sheds, degraded-coverage and truncated answers.
    pub failed: u64,
    pub spans: Vec<Span>,
    values: BTreeMap<&'static str, f64>,
}

impl Report {
    pub fn new() -> Report {
        Report {
            correct: true,
            attempted: 0,
            failed: 0,
            spans: Vec::new(),
            values: BTreeMap::new(),
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "metric {name} is not in the catalogue"
        );
        self.values.insert(name, value);
    }

    /// Every measured metric on standard error, for a human reader.
    pub fn log(&self) {
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            if let Some(v) = self.values.get(name) {
                eprintln!("  {name:<34} {v:>16.3} {unit}");
            }
        }
    }

    /// The result line: the end-to-end metrics, or with `trace` the
    /// per-layer ones.
    pub fn to_json(&self, trace: bool) -> String {
        let catalogue = if trace { PER_LAYER } else { END_TO_END };
        let metrics: Vec<String> = catalogue
            .iter()
            .map(|(name, unit)| {
                let v = match self.values.get(name) {
                    Some(v) => *v,
                    None if trace => 0.0,
                    None => panic!("end-to-end metric {name} was not measured"),
                };
                let v = if v.is_finite() { v } else { f64::MAX };
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}
