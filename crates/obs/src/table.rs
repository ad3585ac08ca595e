//! The metric table: every registry metric is one row below. The
//! `metric_table!` macro turns the rows into the registry's fields,
//! [`MetricsSnapshot`]'s fields, `snapshot()`, `reset()` and the row
//! lists the JSON and Prometheus renderers loop over.

use crate::registry::{Counter, Gauge, Histogram, Slot};
use crate::snapshot::HistogramSnapshot;

/// A histogram's export row: JSON key (the field name), Prometheus
/// family name, HELP text, unit scale, and the histogram itself.
pub type HistogramRow<'a> = (
    &'static str,
    &'static str,
    &'static str,
    f64,
    &'a HistogramSnapshot,
);

macro_rules! metric_table {
    (
        counters { $($c:ident: $c_help:literal,)* }
        derived_gauges { $($d:ident: $d_help:literal,)* }
        gauges { $($g:ident: $g_help:literal,)* }
        histograms { $($h:ident: $h_name:literal, $h_scale:literal, $h_help:literal;)* }
    ) => {
        /// The process-wide metrics registry. One static instance exists
        /// per process (see [`metrics`](crate::metrics)); the query path
        /// feeds it through [`QueryCounters`](crate::QueryCounters) and
        /// [`QuerySpan`](crate::QuerySpan), subsystems record through its
        /// fields.
        ///
        /// ```
        /// use drtopk_obs::metrics;
        ///
        /// let m = metrics();
        /// let before = m.snapshot().dynamic_inserts;
        /// m.dynamic_inserts.add(1);
        /// let snap = m.snapshot();
        /// // Recorded when compiled in; dropped in a no-op build.
        /// assert_eq!(snap.dynamic_inserts, before + u64::from(drtopk_obs::COMPILED));
        /// // Snapshots render themselves for exporters:
        /// assert!(snap.to_prometheus().contains("drtopk_dynamic_inserts_total"));
        /// assert!(snap.to_json().contains("\"dynamic_inserts\""));
        /// ```
        #[derive(Debug)]
        pub struct MetricsRegistry {
            pub(crate) recording: Slot,
            $(#[doc = $c_help] pub $c: Counter,)*
            $(#[doc = $g_help] pub $g: Gauge,)*
            $(#[doc = $h_help] pub $h: Histogram,)*
        }

        impl MetricsRegistry {
            pub(crate) const fn new() -> Self {
                MetricsRegistry {
                    recording: Slot::new(1),
                    $($c: Counter::new(),)*
                    $($g: Gauge::new(),)*
                    $($h: Histogram::new(),)*
                }
            }

            /// Copies every metric out. Each value is read with a relaxed
            /// load, so a snapshot taken while queries run is a coherent
            /// *approximation*: fine for monitoring, exact once writers
            /// quiesce.
            pub fn snapshot(&self) -> MetricsSnapshot {
                MetricsSnapshot {
                    $($c: self.$c.get(),)*
                    $($g: self.$g.get(),)*
                    $($h: self.$h.snapshot(),)*
                }
            }

            /// Zeroes every metric. Benchmarks use this between cells;
            /// racing writers may leak a few increments into the next
            /// window, which is acceptable for a monitoring registry.
            pub fn reset(&self) {
                $(self.$c.reset();)*
                $(self.$g.reset();)*
                $(self.$h.reset();)*
            }
        }

        /// A point-in-time copy of every registry metric. Field for field,
        /// this is the export schema; the mapping to paper quantities is
        /// documented in `DESIGN.md` § Observability.
        #[derive(Debug, Clone, Default, PartialEq)]
        pub struct MetricsSnapshot {
            $(#[doc = concat!($c_help, " (`drtopk_", stringify!($c), "_total`).")] pub $c: u64,)*
            $(#[doc = concat!($g_help, " (`drtopk_", stringify!($g), "`).")] pub $g: u64,)*
            $(#[doc = concat!($h_help, " (`", $h_name, "`).")] pub $h: HistogramSnapshot,)*
        }

        impl MetricsSnapshot {
            /// The counters as `(name, help, value)` rows, exported as
            /// `drtopk_<name>_total`.
            pub fn counter_rows(&self) -> Vec<(&'static str, &'static str, u64)> {
                vec![$((stringify!($c), $c_help, self.$c),)*]
            }

            /// The gauges as `(name, help, value)` rows, exported as
            /// `drtopk_<name>`: the queue depths derived from counter
            /// pairs, then the registry's own gauges.
            pub fn gauge_rows(&self) -> Vec<(&'static str, &'static str, u64)> {
                vec![$((stringify!($d), $d_help, self.$d()),)* $((stringify!($g), $g_help, self.$g),)*]
            }

            /// The histograms as [`HistogramRow`]s.
            pub fn histogram_rows(&self) -> Vec<HistogramRow<'_>> {
                vec![$((stringify!($h), $h_name, $h_help, $h_scale, &self.$h),)*]
            }
        }
    };
}

// Counters and gauges: `field: "HELP text",`. Histograms:
// `field: "exported family", unit scale, "HELP text";` where the scale
// converts recorded units to exported ones (nanoseconds to seconds).
metric_table! {
    counters {
        queries: "Completed top-k / threshold queries",
        tuples_evaluated: "Real tuples scored by F (Definition 9 cost)",
        pseudo_evaluated: "Zero-layer pseudo-tuples scored by F",
        forall_relaxations: "Forall-dominance edges relaxed (forall-freeness checks)",
        exists_relaxations: "Exists-dominance edges relaxed (exists-freeness checks)",
        heap_pushes: "Entries pushed onto the query priority queue",
        zero_probes: "Zero-layer weight-range probes (Section V-A)",
        batch_enqueued: "Requests handed to the batch executor",
        batch_drained: "Batch requests fully answered",
        dynamic_inserts: "Tuples inserted into dynamic indexes",
        dynamic_deletes: "Live tuples tombstoned in dynamic indexes",
        dynamic_rebuilds: "Dynamic-index compactions (full rebuilds)",
        // Counts the buffered rows a read scores: the buffer forest's
        // roots, and the children of each buffered row it merges.
        dynamic_buffer_scanned: "Buffered tuples scanned by dynamic-index queries",
        cache_hits: "Result-cache lookups served from the cache",
        cache_misses: "Result-cache lookups answered by the traversal",
        cache_cert_rejects: "Cached entries whose hit certificate failed validation",
        cache_invalidations: "Result-cache generation bumps (full invalidations)",
        server_connections: "Client connections accepted by the network server",
        server_requests: "Well-formed request frames received by the network server",
        server_sheds: "Requests shed by admission control (answered Overloaded)",
        server_protocol_errors: "Protocol violations on server connections",
        server_enqueued: "Queries admitted by the server's admission gate",
        server_dequeued: "Turns taken by admitted queries",
        shard_probes: "Shard probes attempted by the shard router",
        shard_probe_failures: "Shard probes that failed (error, panic, or timeout)",
        shard_retries: "Shard probes retried after a transient failure",
        shard_degraded_answers: "Routed answers returned with degraded shard coverage",
        shard_failovers: "Probes failed over from one replica-set endpoint to the next",
        shard_hedges: "Hedged second probes launched after the latency threshold",
        endpoint_pings: "Health-pinger PINGs issued to remote endpoints",
        endpoint_ping_failures: "Health-pinger PINGs that failed",
    }
    derived_gauges {
        batch_queue_depth: "Batch requests currently in flight",
        server_queue_depth: "Admitted queries waiting for a turn",
    }
    gauges {
        shards_up: "Shards currently healthy",
        shards_degraded: "Shards failing but below the Down threshold",
        shards_down: "Shards currently down (skipped by the router)",
    }
    histograms {
        query_latency_ns: "drtopk_query_latency_seconds", 1e-9,
            "Per-query wall-clock latency";
        query_cost: "drtopk_query_cost_tuples", 1.0,
            "Per-query tuples evaluated by F (Definition 9)";
        scratch_touched: "drtopk_scratch_touched_nodes", 1.0,
            "Per-query scratch nodes lazily initialized";
        kernel_block_tuples: "drtopk_kernel_block_tuples", 1.0,
            "Tuples per scoring-kernel block";
        server_batch_size: "drtopk_server_batch_size", 1.0,
            "Queries answered per turn (always one)";
        server_queue_wait_ns: "drtopk_server_queue_wait_seconds", 1e-9,
            "Per-query wait from admission to turn";
    }
}
