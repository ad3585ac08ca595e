//! The recording side: metric fields that carry the `enabled` gate
//! themselves, the process-wide registry, and the hot-path per-query
//! counter block and span.

use crate::snapshot::{bucket_of, HistogramSnapshot, HIST_BUCKETS};
use crate::MetricsRegistry;
use std::cell::Cell;
#[cfg(not(feature = "enabled"))]
use std::sync::atomic::Ordering;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
#[cfg(feature = "enabled")]
use std::time::Instant;

/// One relaxed atomic word, the cell every metric is made of.
#[cfg(feature = "enabled")]
pub(crate) use std::sync::atomic::AtomicU64 as Slot;

/// Without `enabled`, a zero-sized word that reads zero and drops writes:
/// every metric type, and so the registry, is zero-sized and inert, and
/// each recording call folds away behind a constant-false gate.
#[cfg(not(feature = "enabled"))]
#[derive(Debug)]
pub(crate) struct Slot;

#[cfg(not(feature = "enabled"))]
impl Slot {
    pub(crate) const fn new(_: u64) -> Self {
        Slot
    }

    #[inline]
    pub(crate) fn load(&self, _: Ordering) -> u64 {
        0
    }

    #[inline]
    pub(crate) fn store(&self, _: u64, _: Ordering) {}

    #[inline]
    pub(crate) fn fetch_add(&self, _: u64, _: Ordering) -> u64 {
        0
    }
}

/// Shard count for [`Counter`]. Threads are striped round-robin, so up to
/// this many concurrent writers proceed without sharing a cache line;
/// reads sum all shards.
const SHARDS: usize = 16;

/// One cache-line-padded cell, so neighboring shards never falsely share
/// a line.
#[repr(align(64))]
#[derive(Debug)]
struct Shard(Slot);

static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's home shard, assigned round-robin on first use.
    static MY_SHARD: Cell<usize> = Cell::new(NEXT_SHARD.fetch_add(1, Relaxed) % SHARDS);
}

/// A monotone counter striped across cache-line-padded shards: `add` is
/// one relaxed `fetch_add` on the calling thread's home shard, `get` sums
/// every shard. Writers on different threads never contend on a line.
#[derive(Debug)]
pub struct Counter([Shard; SHARDS]);

impl Counter {
    pub(crate) const fn new() -> Self {
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: Shard = Shard(Slot::new(0));
        Counter([ZERO; SHARDS])
    }

    /// Adds `v` on this thread's shard while recording is on (relaxed;
    /// never blocks).
    #[inline]
    pub fn add(&self, v: u64) {
        if metrics().recording() {
            self.0[MY_SHARD.with(Cell::get)].0.fetch_add(v, Relaxed);
        }
    }

    /// Current total across all shards.
    pub(crate) fn get(&self) -> u64 {
        self.0.iter().map(|s| s.0.load(Relaxed)).sum()
    }

    pub(crate) fn reset(&self) {
        for s in &self.0 {
            s.0.store(0, Relaxed);
        }
    }
}

/// An instantaneous value, not monotone: each `set` overwrites.
#[derive(Debug)]
pub struct Gauge(Slot);

impl Gauge {
    pub(crate) const fn new() -> Self {
        Gauge(Slot::new(0))
    }

    /// Overwrites the value while recording is on.
    #[inline]
    pub fn set(&self, v: u64) {
        if metrics().recording() {
            self.0.store(v, Relaxed);
        }
    }

    /// Current value.
    pub(crate) fn get(&self) -> u64 {
        self.0.load(Relaxed)
    }

    pub(crate) fn reset(&self) {
        self.0.store(0, Relaxed);
    }
}

/// A lock-free histogram over power-of-two buckets (see [`HIST_BUCKETS`]).
/// Recording is one relaxed `fetch_add` per observation plus an exact
/// running sum; quantile readout happens on [`HistogramSnapshot`].
#[derive(Debug)]
pub struct Histogram {
    buckets: [Slot; HIST_BUCKETS],
    sum: Slot,
}

impl Histogram {
    pub(crate) const fn new() -> Self {
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: Slot = Slot::new(0);
        Histogram {
            buckets: [ZERO; HIST_BUCKETS],
            sum: Slot::new(0),
        }
    }

    /// Records one observation while recording is on.
    #[inline]
    pub fn record(&self, v: u64) {
        if metrics().recording() {
            self.buckets[bucket_of(v)].fetch_add(1, Relaxed);
            self.sum.fetch_add(v, Relaxed);
        }
    }

    /// Merges a locally bucketed batch of observations in one pass (used
    /// by [`QueryCounters::flush`] so the hot path never touches atomics).
    #[cfg(feature = "enabled")]
    fn merge(&self, counts: &[u64; HIST_BUCKETS], sum: u64) {
        for (b, &c) in counts.iter().enumerate() {
            if c > 0 {
                self.buckets[b].fetch_add(c, Relaxed);
            }
        }
        self.sum.fetch_add(sum, Relaxed);
    }

    /// Copies the current state out.
    pub(crate) fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            counts: self.buckets.iter().map(|b| b.load(Relaxed)).collect(),
            sum: self.sum.load(Relaxed),
        }
    }

    pub(crate) fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Relaxed);
        }
        self.sum.store(0, Relaxed);
    }
}

static REGISTRY: MetricsRegistry = MetricsRegistry::new();

/// The process-wide registry.
#[inline]
pub fn metrics() -> &'static MetricsRegistry {
    &REGISTRY
}

impl MetricsRegistry {
    /// Whether recording is on (the default; always `false` without
    /// `enabled`). Off, every recording call and flush is skipped; only
    /// the hot path's local plain-integer increments remain.
    #[inline]
    pub fn recording(&self) -> bool {
        self.recording.load(Relaxed) != 0
    }

    /// Turns recording on or off at runtime (process-wide).
    pub fn set_recording(&self, on: bool) {
        self.recording.store(u64::from(on), Relaxed);
    }

    /// `n` requests pulled from the server queue into one micro-batch:
    /// counts them as dequeued and records one batch-size observation.
    #[inline]
    pub fn server_batch(&self, n: u64) {
        self.server_dequeued.add(n);
        self.server_batch_size.record(n);
    }

    /// Publishes the router's current shard-health tally (counts of shards
    /// Up / Degraded / Down). Gauges, not counters: each call overwrites.
    #[inline]
    pub fn set_shard_health(&self, up: u64, degraded: u64, down: u64) {
        self.shards_up.set(up);
        self.shards_degraded.set(degraded);
        self.shards_down.set(down);
    }
}

/// Per-query counter block living inside the traversal's scratch memory.
/// The hot path bumps plain integers (no atomics); [`QueryCounters::flush`]
/// moves the totals into the registry in one burst, at most once per
/// query, so per-tuple recording costs a non-atomic add. Kernel block
/// sizes are bucketed locally for the same reason and merged into the
/// registry histogram at flush time. Zero-sized without `enabled`.
#[derive(Debug, Clone, Default)]
pub struct QueryCounters {
    #[cfg(feature = "enabled")]
    t: Tally,
}

#[cfg(feature = "enabled")]
#[derive(Debug, Clone)]
struct Tally {
    forall: u64,
    exists: u64,
    pushes: u64,
    touched: u64,
    kernel_buckets: [u64; HIST_BUCKETS],
    kernel_sum: u64,
}

#[cfg(feature = "enabled")]
impl Default for Tally {
    fn default() -> Self {
        Tally {
            forall: 0,
            exists: 0,
            pushes: 0,
            touched: 0,
            kernel_buckets: [0; HIST_BUCKETS],
            kernel_sum: 0,
        }
    }
}

#[cfg_attr(not(feature = "enabled"), allow(unused_variables))]
impl QueryCounters {
    /// A zeroed block.
    pub fn new() -> Self {
        Self::default()
    }

    /// `n` ∀-dominance edges relaxed.
    #[inline]
    pub fn forall_relaxed(&mut self, n: u64) {
        #[cfg(feature = "enabled")]
        {
            self.t.forall += n;
        }
    }

    /// `n` ∃-dominance edges relaxed.
    #[inline]
    pub fn exists_relaxed(&mut self, n: u64) {
        #[cfg(feature = "enabled")]
        {
            self.t.exists += n;
        }
    }

    /// `n` entries pushed onto the queue.
    #[inline]
    pub fn heap_pushed(&mut self, n: u64) {
        #[cfg(feature = "enabled")]
        {
            self.t.pushes += n;
        }
    }

    /// One scoring-kernel invocation over a block of `n` tuples.
    #[inline]
    pub fn kernel_block(&mut self, n: u64) {
        #[cfg(feature = "enabled")]
        {
            self.t.kernel_buckets[bucket_of(n)] += 1;
            self.t.kernel_sum += n;
        }
    }

    /// Final count of scratch nodes lazily initialized by this query
    /// (recorded as one histogram observation at flush).
    #[inline]
    pub fn scratch_touched(&mut self, n: u64) {
        #[cfg(feature = "enabled")]
        {
            self.t.touched = n;
        }
    }

    /// Zeroes the block without flushing (query start / scratch reset).
    #[inline]
    pub fn clear(&mut self) {
        *self = QueryCounters::default();
    }

    /// Moves the accumulated totals into the registry and zeroes the
    /// block. Skips the atomic traffic entirely when recording is off or
    /// nothing was counted.
    pub fn flush(&mut self) {
        #[cfg(feature = "enabled")]
        if metrics().recording() {
            let (m, t) = (metrics(), &self.t);
            if t.forall > 0 {
                m.forall_relaxations.add(t.forall);
            }
            if t.exists > 0 {
                m.exists_relaxations.add(t.exists);
            }
            if t.pushes > 0 {
                m.heap_pushes.add(t.pushes);
            }
            if t.kernel_sum > 0 {
                m.kernel_block_tuples.merge(&t.kernel_buckets, t.kernel_sum);
            }
            if t.touched > 0 {
                m.scratch_touched.record(t.touched);
            }
        }
        self.clear();
    }
}

/// A per-query span: started before the traversal, finished with the
/// query's final cost. Records one latency and one cost observation and
/// bumps the query counter. Inert when recording is off (no clock read);
/// zero-sized without `enabled`.
#[derive(Debug)]
#[must_use = "a span only records when finished"]
pub struct QuerySpan {
    #[cfg(feature = "enabled")]
    started: Option<Instant>,
}

#[cfg_attr(not(feature = "enabled"), allow(unused_variables))]
impl QuerySpan {
    /// Starts timing (reads the clock only if recording is on).
    #[inline]
    pub fn start() -> Self {
        QuerySpan {
            #[cfg(feature = "enabled")]
            started: metrics().recording().then(Instant::now),
        }
    }

    /// Ends the span: records latency, the query's Definition 9 cost
    /// (split into real and pseudo tuple evaluations), and one completed
    /// query.
    #[inline]
    pub fn finish(self, evaluated: u64, pseudo_evaluated: u64) {
        #[cfg(feature = "enabled")]
        if let Some(t0) = self.started {
            let m = metrics();
            m.queries.add(1);
            m.tuples_evaluated.add(evaluated);
            if pseudo_evaluated > 0 {
                m.pseudo_evaluated.add(pseudo_evaluated);
            }
            m.query_latency_ns
                .record(t0.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64);
            m.query_cost.record(evaluated + pseudo_evaluated);
        }
    }
}

#[cfg(test)]
#[cfg(feature = "enabled")]
mod tests {
    use super::*;

    #[test]
    fn sharded_counter_sums_across_threads() {
        let c = Counter::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        c.add(1);
                    }
                });
            }
        });
        assert_eq!(c.get(), 8000);
    }

    #[test]
    fn histogram_buckets_values_by_log2() {
        let h = Histogram::new();
        h.record(0);
        h.record(1);
        h.record(2);
        h.record(3);
        h.record(1024);
        let s = h.snapshot();
        assert_eq!(s.counts[0], 1, "0 lands in bucket 0");
        assert_eq!(s.counts[1], 1, "1 lands in [1,2)");
        assert_eq!(s.counts[2], 2, "2 and 3 land in [2,4)");
        assert_eq!(s.counts[11], 1, "1024 lands in [1024,2048)");
        assert_eq!(s.sum, 1030);
        h.record(u64::MAX);
        assert_eq!(h.snapshot().counts[64], 1, "max value fits the top bucket");
    }

    #[test]
    fn counters_flush_once_and_clear() {
        let m = metrics();
        let before = m.snapshot();
        let mut c = QueryCounters::new();
        c.forall_relaxed(5);
        c.exists_relaxed(2);
        c.heap_pushed(3);
        c.flush();
        c.flush(); // second flush is a no-op: the block cleared
        let after = m.snapshot();
        assert_eq!(after.forall_relaxations - before.forall_relaxations, 5);
        assert_eq!(after.exists_relaxations - before.exists_relaxations, 2);
        assert_eq!(after.heap_pushes - before.heap_pushes, 3);
    }

    #[test]
    fn span_records_latency_and_cost() {
        let m = metrics();
        let before = m.snapshot();
        let span = QuerySpan::start();
        span.finish(120, 3);
        let after = m.snapshot();
        assert_eq!(after.queries - before.queries, 1);
        assert_eq!(after.tuples_evaluated - before.tuples_evaluated, 120);
        assert_eq!(after.pseudo_evaluated - before.pseudo_evaluated, 3);
        assert_eq!(
            after.query_cost.count() - before.query_cost.count(),
            1,
            "one cost observation"
        );
        assert_eq!(after.query_cost.sum - before.query_cost.sum, 123);
        assert_eq!(
            after.query_latency_ns.count() - before.query_latency_ns.count(),
            1
        );
    }

    #[test]
    fn compound_recorders_write_their_rows() {
        let m = metrics();
        let before = m.snapshot();
        m.server_batch(4);
        m.set_shard_health(3, 1, 2);
        let after = m.snapshot();
        assert_eq!(after.server_dequeued - before.server_dequeued, 4);
        assert_eq!(
            after.server_batch_size.count() - before.server_batch_size.count(),
            1
        );
        assert_eq!(
            (after.shards_up, after.shards_degraded, after.shards_down),
            (3, 1, 2)
        );
    }
}
