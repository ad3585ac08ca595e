//! Plain-data snapshots of the registry, with JSON and Prometheus
//! text-format renderers. This module compiles (and renders zeros) even
//! when the `enabled` feature is off, so exporters never need feature
//! gates of their own.

pub use crate::table::{HistogramRow, MetricsSnapshot};
use std::fmt::Write as _;

/// Number of log₂ buckets a histogram carries: bucket 0 holds the value
/// `0`, bucket `b ≥ 1` holds values in `[2^(b-1), 2^b)`.
pub const HIST_BUCKETS: usize = 65;

/// The bucket holding `v`.
#[inline]
pub(crate) fn bucket_of(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

/// A point-in-time copy of one log-bucketed histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts (see [`HIST_BUCKETS`]).
    pub counts: Vec<u64>,
    /// Exact sum of all recorded values.
    pub sum: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            counts: vec![0; HIST_BUCKETS],
            sum: 0,
        }
    }
}

/// Inclusive upper bound of bucket `b` (`2^b − 1`, saturating).
fn bucket_upper(b: usize) -> u64 {
    if b >= 64 {
        u64::MAX
    } else {
        (1u64 << b) - 1
    }
}

/// Representative value of bucket `b`: the geometric midpoint of its
/// range, which bounds the quantile estimate's relative error by √2.
fn bucket_mid(b: usize) -> f64 {
    if b == 0 {
        0.0
    } else {
        (2f64).powi(b as i32) / std::f64::consts::SQRT_2
    }
}

impl HistogramSnapshot {
    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Nearest-rank quantile estimate (`q` in `0..=1`), returned as the
    /// geometric midpoint of the bucket holding that rank. `NaN` when the
    /// histogram is empty.
    pub fn quantile(&self, q: f64) -> f64 {
        let total = self.count();
        if total == 0 {
            return f64::NAN;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_mid(b);
            }
        }
        bucket_mid(HIST_BUCKETS - 1)
    }

    /// Median estimate.
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// 95th-percentile estimate.
    pub fn p95(&self) -> f64 {
        self.quantile(0.95)
    }

    /// 99th-percentile estimate.
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    /// Mean of the recorded values (exact — the sum is exact).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            f64::NAN
        } else {
            self.sum as f64 / n as f64
        }
    }

    fn to_json(&self, out: &mut String, pad: &str) {
        let _ = write!(
            out,
            "{{\n{pad}  \"count\": {},\n{pad}  \"sum\": {},\n{pad}  \"p50\": {},\n{pad}  \"p95\": {},\n{pad}  \"p99\": {},\n{pad}  \"buckets\": [",
            self.count(),
            self.sum,
            json_f64(self.p50()),
            json_f64(self.p95()),
            json_f64(self.p99()),
        );
        let mut first = true;
        for (b, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(out, "\n{pad}    [{}, {}]", bucket_upper(b), c);
        }
        if !first {
            let _ = write!(out, "\n{pad}  ");
        }
        let _ = write!(out, "]\n{pad}}}");
    }

    /// Appends this histogram in Prometheus text format. `scale`
    /// multiplies bucket bounds and the sum (e.g. `1e-9` to export
    /// nanosecond recordings in seconds).
    fn to_prometheus(&self, out: &mut String, name: &str, help: &str, scale: f64) {
        let _ = writeln!(out, "# HELP {name} {help}");
        let _ = writeln!(out, "# TYPE {name} histogram");
        let mut cumulative = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            cumulative += c;
            let le = (bucket_upper(b) as f64) * scale;
            let _ = writeln!(out, "{name}_bucket{{le=\"{le}\"}} {cumulative}");
        }
        let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {cumulative}");
        let _ = writeln!(out, "{name}_sum {}", self.sum as f64 * scale);
        let _ = writeln!(out, "{name}_count {cumulative}");
    }
}

/// Floats in JSON: `NaN`/infinities have no literal, so they render null.
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

impl MetricsSnapshot {
    /// Batch requests currently in flight (enqueued but not yet drained).
    pub fn batch_queue_depth(&self) -> u64 {
        self.batch_enqueued.saturating_sub(self.batch_drained)
    }

    /// Queries currently waiting at the server's admission gate
    /// (admitted but not yet holding a turn).
    pub fn server_queue_depth(&self) -> u64 {
        self.server_enqueued.saturating_sub(self.server_dequeued)
    }

    /// Renders the snapshot as a pretty-printed JSON object. `indent` is
    /// the nesting level of the object itself (0 = top level), letting
    /// callers embed the output inside a larger document.
    pub fn to_json_indented(&self, indent: usize) -> String {
        let pad = "  ".repeat(indent);
        let mut out = String::from("{\n");
        for (name, _help, value) in self.counter_rows().into_iter().chain(self.gauge_rows()) {
            let _ = writeln!(out, "{pad}  \"{name}\": {value},");
        }
        let inner = format!("{pad}  ");
        for (i, (field, _name, _help, _scale, h)) in self.histogram_rows().into_iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let _ = write!(out, "{inner}\"{field}\": ");
            h.to_json(&mut out, &inner);
        }
        let _ = write!(out, "\n{pad}}}");
        out
    }

    /// Renders the snapshot as a top-level JSON document.
    pub fn to_json(&self) -> String {
        let mut s = self.to_json_indented(0);
        s.push('\n');
        s
    }

    /// Renders the snapshot in the Prometheus text exposition format.
    /// Counters are `drtopk_*_total`; the in-flight batch depth is a
    /// gauge; latency (converted to seconds) and cost are histograms.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, help, value) in self.counter_rows() {
            prom_counter(&mut out, &format!("drtopk_{name}_total"), help, value);
        }
        for (name, help, value) in self.gauge_rows() {
            prom_gauge(&mut out, &format!("drtopk_{name}"), help, value as f64);
        }
        for (_field, name, help, scale, h) in self.histogram_rows() {
            h.to_prometheus(&mut out, name, help, scale);
        }
        out
    }
}

/// Appends one Prometheus counter (HELP + TYPE + sample).
pub fn prom_counter(out: &mut String, name: &str, help: &str, value: u64) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} counter");
    let _ = writeln!(out, "{name} {value}");
}

/// Appends one Prometheus gauge (HELP + TYPE + sample).
pub fn prom_gauge(out: &mut String, name: &str, help: &str, value: f64) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} gauge");
    let _ = writeln!(out, "{name} {value}");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hist_with(values: &[u64]) -> HistogramSnapshot {
        let mut h = HistogramSnapshot::default();
        for &v in values {
            h.counts[bucket_of(v)] += 1;
            h.sum += v;
        }
        h
    }

    #[test]
    fn quantiles_land_in_the_right_bucket() {
        let h = hist_with(&[1, 1, 1, 1, 1, 1, 1, 1, 1, 1000]);
        assert_eq!(h.count(), 10);
        // p50 sits in bucket 1 ([1,2)); p99 in the bucket holding 1000.
        assert!(h.p50() >= 1.0 && h.p50() < 2.0, "p50 = {}", h.p50());
        assert!(h.p99() >= 512.0 && h.p99() < 1024.0, "p99 = {}", h.p99());
        assert_eq!(h.sum, 1009);
        assert!((h.mean() - 100.9).abs() < 1e-9);
    }

    #[test]
    fn empty_histogram_is_nan_not_panic() {
        let h = HistogramSnapshot::default();
        assert!(h.p50().is_nan());
        assert!(h.mean().is_nan());
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn json_is_well_formed_and_null_safe() {
        let mut s = MetricsSnapshot {
            queries: 3,
            tuples_evaluated: 42,
            ..MetricsSnapshot::default()
        };
        s.query_cost = hist_with(&[10, 20, 30]);
        let j = s.to_json();
        assert!(j.contains("\"tuples_evaluated\": 42"));
        // The latency histogram is empty: its quantiles must render null.
        assert!(j.contains("\"p50\": null"));
        // Crude balance check on the hand-rolled writer.
        assert_eq!(
            j.matches('{').count(),
            j.matches('}').count(),
            "unbalanced JSON: {j}"
        );
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }

    #[test]
    fn prometheus_format_has_cumulative_buckets() {
        let s = MetricsSnapshot {
            query_cost: hist_with(&[1, 3, 3, 100]),
            ..Default::default()
        };
        let p = s.to_prometheus();
        assert!(p.contains("# TYPE drtopk_query_cost_tuples histogram"));
        assert!(p.contains("drtopk_query_cost_tuples_bucket{le=\"+Inf\"} 4"));
        assert!(p.contains("drtopk_query_cost_tuples_sum 107"));
        assert!(p.contains("# TYPE drtopk_queries_total counter"));
        assert!(p.contains("# TYPE drtopk_batch_queue_depth gauge"));
        // Cumulative counts must be non-decreasing in bound order.
        let mut last = 0u64;
        for line in p
            .lines()
            .filter(|l| l.starts_with("drtopk_query_cost_tuples_bucket") && !l.contains("+Inf"))
        {
            let c: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(c >= last, "buckets not cumulative: {p}");
            last = c;
        }
    }

    #[test]
    fn server_queue_depth_is_enqueued_minus_dequeued() {
        let s = MetricsSnapshot {
            server_enqueued: 9,
            server_dequeued: 4,
            ..MetricsSnapshot::default()
        };
        assert_eq!(s.server_queue_depth(), 5);
        let p = s.to_prometheus();
        assert!(p.contains("drtopk_server_queue_depth 5"));
        assert!(p.contains("# TYPE drtopk_server_sheds_total counter"));
        assert!(p.contains("# TYPE drtopk_server_batch_size histogram"));
        let j = s.to_json();
        assert!(j.contains("\"server_queue_depth\": 5"));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }

    #[test]
    fn queue_depth_is_enqueued_minus_drained() {
        let s = MetricsSnapshot {
            batch_enqueued: 10,
            batch_drained: 7,
            ..MetricsSnapshot::default()
        };
        assert_eq!(s.batch_queue_depth(), 3);
    }
}
