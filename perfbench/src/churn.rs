//! `churn-durable`: writes beside reads on one in-process durable store.
//! No server: a single thread drives a `DurableDynamicIndex` with a
//! result cache attached. The WAL flush policy is the default: fsync
//! after every append.

use crate::hist::{Hist, Timeline};
use crate::report::Report;
use crate::sys::{self, HostClock, SliceClock, SliceUsage, ThreadSampler, Usage};
use crate::trace::{self, Recorder, Span};
use crate::{err, hist_mean, mean, median, Args, DATA_SEED};
use drtopk_common::{
    topk_bruteforce, Distribution, Relation, Weights, WorkloadSpec, ZipfWeightWorkload,
};
use drtopk_core::{CacheStats, Handle, QueryBudget, ResultCache};
use drtopk_obs::{metrics, MetricsSnapshot};
use drtopk_storage::{DurableDynamicIndex, DurableOptions};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

const N: usize = 20_000;
const D: usize = 3;
const K: usize = 10;
/// Reads draw Zipf weights from the same pool shape as `cached-zipf`.
const POOL: usize = 64;
const SKEW: f64 = 1.0;
/// Operation mix: the rest after reads and inserts are deletes.
const READ_SHARE: f64 = 0.8;
const INSERT_SHARE: f64 = 0.1;
/// Pending updates, as a share of the indexed tuples, that trigger a
/// rebuild, and WAL appends between checkpoints.
const REBUILD_FRACTION: f64 = 0.02;
const CHECKPOINT_EVERY: u64 = 256;
/// Every this-many-th read is checked against the brute-force oracle.
const CHECK_EVERY: u64 = 64;
const SETUP_REPS: usize = 3;
const STREAM_LEN: usize = 1 << 16;
const WARMUP: Duration = Duration::from_millis(500);
/// A traced window replays every this-many-th read.
const TRACE_EVERY: u64 = 4;
/// Logical bytes of an acknowledged write: a handle, and for an insert
/// its row.
const DELETE_BYTES: u64 = 8;
const INSERT_BYTES: u64 = 8 + 8 * D as u64;

fn options() -> DurableOptions {
    DurableOptions {
        rebuild_fraction: REBUILD_FRACTION,
        checkpoint_every: CHECKPOINT_EVERY,
        ..DurableOptions::default()
    }
}

enum Mutation {
    Insert(Vec<f64>),
    Delete(Handle),
}

/// What one window saw.
struct Window {
    start: Instant,
    /// Latency in µs of each read and each write, by completion time.
    reads: Timeline,
    writes: Timeline,
    /// What the host gave each slice of `reads` and `writes`.
    host: SliceUsage,
    /// Latency in µs of writes that neither rebuilt nor checkpointed.
    append_us: Hist,
    rebuild_ms: Vec<f64>,
    checkpoint_ms: Vec<f64>,
    evaluated: u64,
    pending_sum: u64,
    logical_bytes: u64,
    spans: Vec<Span>,
    usage: Usage,
    written: u64,
    cache: (CacheStats, CacheStats),
    registry: Option<(MetricsSnapshot, MetricsSnapshot)>,
    threads_peak: usize,
}

impl Window {
    fn open(seconds: f64) -> Window {
        Window {
            start: Instant::now(),
            reads: Timeline::new(seconds),
            writes: Timeline::new(seconds),
            host: SliceUsage::default(),
            append_us: Hist::default(),
            rebuild_ms: Vec::new(),
            checkpoint_ms: Vec::new(),
            evaluated: 0,
            pending_sum: 0,
            logical_bytes: 0,
            spans: Vec::new(),
            usage: Usage::default(),
            written: 0,
            cache: Default::default(),
            registry: None,
            threads_peak: 0,
        }
    }

    fn now(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    fn ops(&self) -> f64 {
        (self.reads.count() + self.writes.count()) as f64
    }

    fn throughput(&self) -> f64 {
        let mut ops = self.reads.clone();
        ops.merge(&self.writes);
        ops.rate(&self.host)
    }
}

/// The store under test, plus the bench's mirror of its live set.
struct Churn {
    dir: PathBuf,
    store: DurableDynamicIndex,
    cache: Arc<ResultCache>,
    mirror: BTreeMap<Handle, Vec<f64>>,
    /// The mirror's handles, for picking a random one to delete.
    live: Vec<Handle>,
    rng: StdRng,
    reads: Vec<Weights>,
    next_op: u64,
    reads_done: u64,
    mismatches: u64,
}

impl Churn {
    /// Generates the relation, creates the store, attaches the cache and
    /// waits for the first answer. Returns the seconds all that took and
    /// the seconds store creation (the build) took, each less the time
    /// stolen from the benchmark's CPU.
    fn start(seed: u64, dir: PathBuf) -> Result<(Churn, f64, f64), String> {
        let t0 = HostClock::start();
        let rel = WorkloadSpec::new(Distribution::Independent, D, N, DATA_SEED).generate();
        let tb = HostClock::start();
        let mut store = DurableDynamicIndex::create(&dir, &rel, options()).map_err(err)?;
        let build_s = tb.secs();
        let cache = Arc::new(ResultCache::default());
        store.attach_cache(Arc::clone(&cache));
        store.topk(&Weights::uniform(D), K);
        let setup_s = t0.secs();
        let churn = Churn {
            dir,
            store,
            cache,
            mirror: rel.iter().map(|(t, row)| (Handle::from(t), row.to_vec())).collect(),
            live: (0..N as Handle).collect(),
            rng: StdRng::seed_from_u64(seed ^ 0xC4_0212),
            reads: ZipfWeightWorkload::new(D, POOL, STREAM_LEN, SKEW, seed).generate(),
            next_op: 0,
            reads_done: 0,
            mismatches: 0,
        };
        Ok((churn, setup_s, build_s))
    }

    /// One seeded operation; its id is its index in the operation stream.
    fn step(&mut self, win: &mut Window, rec: Option<&mut Recorder>) -> Result<(), String> {
        let id = self.next_op;
        self.next_op += 1;
        let u: f64 = self.rng.gen();
        if u < READ_SHARE {
            self.read(id, win, rec);
            return Ok(());
        }
        let op = if u < READ_SHARE + INSERT_SHARE {
            Mutation::Insert((0..D).map(|_| self.rng.gen()).collect())
        } else {
            let i = self.rng.gen_range(0..self.live.len());
            Mutation::Delete(self.live.swap_remove(i))
        };
        self.write(win, op)
    }

    fn read(&mut self, id: u64, win: &mut Window, rec: Option<&mut Recorder>) {
        let w = self.reads[self.reads_done as usize % self.reads.len()].clone();
        self.reads_done += 1;
        let mut rec = rec.filter(|_| self.reads_done % TRACE_EVERY == 0);
        if let Some(rec) = rec.as_mut() {
            // The dynamic path, replayed before the real read: a budgeted
            // read probes the cache but never fills it, so the real read
            // below still meets the cache as the untraced run would.
            let budget = QueryBudget::unlimited().with_max_cost(u64::MAX);
            let store = &self.store;
            rec.time(id, "dynamic", "read", None, || {
                store.index().topk_guarded(&w, K, &budget)
            });
        }
        let hits = self.cache.stats().hits;
        win.pending_sum += self.store.index().pending() as u64;
        let start = Instant::now();
        let (ids, cost) = self.store.topk(&w, K);
        let lat = start.elapsed();
        let t = win.now();
        win.reads.record(t, lat.as_secs_f64() * 1e6);
        win.evaluated += cost.total();
        if let Some(rec) = rec {
            let tag = if self.cache.stats().hits > hits { "hit" } else { "miss" };
            rec.last().tag = tag;
            let span = rec.push(id, "read", "", None, start, lat);
            span.tag = tag;
            span.cost = cost.total();
        }
        if self.reads_done % CHECK_EVERY == 0 && ids != self.oracle(&w) {
            self.mismatches += 1;
        }
    }

    fn write(&mut self, win: &mut Window, op: Mutation) -> Result<(), String> {
        let generation = self.store.generation();
        let rebuilds = self.store.index().rebuilds();
        let start = Instant::now();
        let acked = match &op {
            Mutation::Insert(row) => self.store.insert(row).map(Some),
            Mutation::Delete(h) => self.store.delete(*h).map(|live| live.then_some(*h)),
        };
        let us = start.elapsed().as_secs_f64() * 1e6;
        match (op, acked.map_err(err)?) {
            (Mutation::Insert(row), Some(h)) => {
                self.mirror.insert(h, row);
                self.live.push(h);
                win.logical_bytes += INSERT_BYTES;
            }
            (Mutation::Delete(h), Some(_)) => {
                self.mirror.remove(&h);
                win.logical_bytes += DELETE_BYTES;
            }
            (_, None) => return Err("the store did not find a live handle to delete".into()),
        }
        let t = win.now();
        win.writes.record(t, us);
        let rebuilt = self.store.index().rebuilds() != rebuilds;
        let checkpointed = self.store.generation() != generation;
        if rebuilt {
            win.rebuild_ms.push(us / 1e3);
        }
        if checkpointed {
            win.checkpoint_ms.push(us / 1e3);
        }
        if !rebuilt && !checkpointed {
            win.append_us.record(us);
        }
        Ok(())
    }

    /// The exact top-k over the mirror. Handles ascend in the relation it
    /// builds, so the oracle's `(score, id)` order is `(score, handle)`.
    fn oracle(&self, w: &Weights) -> Vec<Handle> {
        let mut flat = Vec::with_capacity(self.mirror.len() * D);
        let handles: Vec<Handle> = self
            .mirror
            .iter()
            .map(|(&h, row)| {
                flat.extend_from_slice(row);
                h
            })
            .collect();
        let rel = Relation::from_flat_unchecked(D, flat);
        topk_bruteforce(&rel, w, K)
            .into_iter()
            .map(|t| handles[t as usize])
            .collect()
    }

    /// `WARMUP` unmeasured, then `seconds` measured; with `epoch`, every
    /// `TRACE_EVERY`-th read is traced.
    fn window(
        &mut self,
        seconds: f64,
        epoch: Option<Instant>,
        sample_threads: bool,
    ) -> Result<Window, String> {
        let mut warm = Window::open(WARMUP.as_secs_f64());
        while warm.now() < WARMUP.as_secs_f64() {
            self.step(&mut warm, None)?;
        }
        let mut rec = epoch.map(Recorder::new);
        let before = metrics().snapshot();
        let cache0 = self.cache.stats();
        let (u0, w0) = (Usage::now(), sys::written_bytes());
        let sampler = sample_threads.then(ThreadSampler::start);
        let mut win = Window::open(seconds);
        let mut clock = SliceClock::start(&win.reads);
        while win.now() < seconds {
            self.step(&mut win, rec.as_mut())?;
            clock.tick(win.now());
        }
        win.host = clock.finish();
        (win.usage, win.threads_peak) = Usage::window(u0, sampler);
        win.written = sys::written_bytes() - w0;
        win.cache = (cache0, self.cache.stats());
        win.registry = Some((before, metrics().snapshot()));
        win.spans = rec.map_or_else(Vec::new, |r| r.spans);
        Ok(win)
    }

    /// Closes the store, reopens it through recovery and checks that the
    /// recovered live set equals the mirror, so every acknowledged write
    /// is readable. Returns that verdict and the seconds recovery took.
    fn reopen(self) -> Result<(bool, f64), String> {
        let Churn {
            dir, store, mirror, ..
        } = self;
        drop(store);
        let t = Instant::now();
        let (store, _) = DurableDynamicIndex::open(&dir, options()).map_err(err)?;
        let recover_s = t.elapsed().as_secs_f64();
        let same = store.len() == mirror.len()
            && mirror
                .iter()
                .all(|(&h, row)| store.index().get(h) == Some(row.as_slice()));
        Ok((same, recover_s))
    }
}

pub fn run(args: &Args, dir: &Path) -> Result<Report, String> {
    eprintln!(
        "churn-durable: WAL fsync after every append; rebuild at {REBUILD_FRACTION} pending, \
         checkpoint every {CHECKPOINT_EVERY} appends"
    );
    let (mut setup_s, mut build_s) = (Vec::new(), Vec::new());
    let mut churn = None;
    for rep in 0..SETUP_REPS {
        drop(churn.take());
        let (c, setup, build) = Churn::start(args.seed, dir.join(format!("store-{rep}")))?;
        setup_s.push(setup);
        build_s.push(build);
        churn = Some(c);
    }
    let mut churn = churn.expect("at least one set-up");

    // A traced run splits its time between an untraced and a traced window.
    let seconds = if args.trace { args.seconds / 2.0 } else { args.seconds };
    let base = churn.window(seconds, None, args.trace)?;
    let reads = base.reads.count().max(1) as f64;
    let mut report = Report::new();
    report.set("setup_s", median(&setup_s));
    report.set("throughput_ops", base.throughput());
    // Quantiles and CPU over the whole window, not its least-stolen
    // slices: a read costs more as updates pend between rebuilds, so a
    // quarter of the slices samples a few points of that cycle (p50 then
    // swung between 31 and 112 µs from run to run). A read is short and
    // runs on one thread, so steal lands on few reads.
    let reads_all = base.reads.whole();
    report.set("read_p50_us", reads_all.quantile(0.50));
    report.set("read_p99_us", reads_all.quantile(0.99));
    report.set("evaluated_per_read", base.evaluated as f64 / reads);
    report.set("cpu_us_per_op", base.usage.cpu_us / base.ops().max(1.0));
    report.set("peak_rss_mb", sys::peak_rss_mb());
    report.attempted = base.ops() as u64;
    let live_bytes = (churn.mirror.len() as u64 * INSERT_BYTES) as f64;
    let space_amp = sys::dir_bytes(&churn.dir) as f64 / live_bytes;

    let traced = if args.trace {
        Some(churn.window(seconds, Some(Instant::now()), false)?)
    } else {
        None
    };
    let mismatches = churn.mismatches;
    let (durable, recover_s) = churn.reopen()?;
    if mismatches > 0 {
        eprintln!("{mismatches} checked reads differ from the brute-force oracle");
    }
    if !durable {
        eprintln!("the recovered store's live set differs from the acknowledged writes");
    }
    report.correct = mismatches == 0 && durable;

    let Some(traced) = traced else {
        return Ok(report);
    };
    let (before, after) = base.registry.as_ref().expect("every window snapshots the registry");
    let (c0, c1) = base.cache;
    report.attempted += traced.ops() as u64;
    let writes = base.writes.whole();
    report.set("write_p50_us", writes.quantile(0.50));
    report.set("write_p99_us", writes.quantile(0.99));
    report.set("fail_ratio", 0.0);
    report.set("cache.hit_ratio", (c1.hits - c0.hits) as f64 / reads);
    report.set("cache.hit_us", trace::mean_us(&traced.spans, "read", "hit"));
    report.set("cache.miss_us", trace::mean_us(&traced.spans, "read", "miss"));
    report.set("cache.cert_rejects", (c1.cert_rejects - c0.cert_rejects) as f64);
    report.set(
        "cache.invalidations_per_write",
        (c1.invalidations - c0.invalidations) as f64 / writes.count().max(1) as f64,
    );
    report.set(
        "query.us",
        hist_mean(&before.query_latency_ns, &after.query_latency_ns) / 1e3,
    );
    report.set("query.evaluated", hist_mean(&before.query_cost, &after.query_cost));
    report.set(
        "query.scratch_touched",
        hist_mean(&before.scratch_touched, &after.scratch_touched),
    );
    report.set("dynamic.read_us", trace::mean_us(&traced.spans, "dynamic", "miss"));
    report.set("dynamic.pending_mean", base.pending_sum as f64 / reads);
    report.set(
        "dynamic.buffer_scanned_per_read",
        (after.dynamic_buffer_scanned - before.dynamic_buffer_scanned) as f64 / reads,
    );
    report.set("dynamic.rebuilds", base.rebuild_ms.len() as f64);
    report.set("dynamic.rebuild_ms", mean(&base.rebuild_ms));
    report.set("storage.append_us", base.append_us.quantile(0.5));
    report.set("storage.checkpoints", base.checkpoint_ms.len() as f64);
    report.set("storage.checkpoint_ms", mean(&base.checkpoint_ms));
    report.set(
        "storage.write_amp",
        base.written as f64 / base.logical_bytes.max(1) as f64,
    );
    report.set("storage.space_amp", space_amp);
    report.set("storage.recover_s", recover_s);
    report.set("build.s", median(&build_s));
    report.set(
        "process.ctx_switches_per_op",
        base.usage.ctx_switches as f64 / base.ops().max(1.0),
    );
    report.set("process.threads_peak", base.threads_peak as f64);
    report.set(
        "trace.overhead_pct",
        (base.throughput() / traced.throughput() - 1.0) * 100.0,
    );
    report.spans = traced.spans;
    Ok(report)
}
