//! Batch query throughput harness.
//!
//! Measures, for each `(n, d, k)` cell:
//!
//! * per-query latency (p50/p99) and QPS of a sequential loop of
//!   [`DualLayerIndex::topk`] calls (scratch from the index's own pool —
//!   the baseline an application gets without the batch engine): one
//!   pass, each weight once, with QPS from the wall clock as for the
//!   executor;
//! * wall-clock QPS of [`BatchExecutor::run_guarded_each`] at each
//!   requested thread count, each request under an unlimited budget
//!   (pooled scratch, scoped-thread fan-out);
//! * mean paper cost (Definition 9) per query, which is identical across
//!   all execution modes — the executor is bit-deterministic;
//! * guarded-path overhead: the same sequential loop again through
//!   [`DualLayerIndex::topk_guarded`] with an unlimited [`QueryBudget`] —
//!   the no-op fast path of the budget guard, which must stay within 2 %
//!   of the plain path's p50 and return bit-identical answers;
//! * observability overhead: a second pass runs each query twice, back
//!   to back, once with the metrics registry's runtime recording gate off
//!   and once on, alternating which goes first; the report carries both
//!   paired p50s plus the relative overhead (budget: ≤ 2 %). Each cell
//!   also embeds the registry snapshot its instrumented passes produced.
//!   Building with `--no-default-features` compiles recording out
//!   entirely (`obs.compiled = false` in the report).
//!
//! * scratch split: a reused-[`drtopk_core::QueryScratch`] pass timing the
//!   O(1) epoch reset separately from the traversal, so the report shows
//!   reset cost independent of `n` and traversal cost tracking the touched
//!   prefix, not the relation.
//!
//! * result cache under repetition: a Zipf-distributed workload drawn
//!   from a small weight pool (`--zipf-pool`) replays at each requested
//!   skew (`--zipf-skews`), once uncached and once through a
//!   [`drtopk_core::ResultCache`]; answers must stay bit-identical, and
//!   the report records hit rate, cached/uncached p50, the hit and miss
//!   p50s of the cached pass and QPS per skew under `zipf_cache`.
//!
//! * dynamic reads: one fixed section (`dynamic`), independent of the
//!   cell flags, in the churn workload's shape: a [`DynamicIndex`] over
//!   n = 20k IND tuples, d = 3, DL+, k = 10, with 0, 100 and 200 buffered
//!   uniform inserts from a fixed seed. Per insert count it reports the
//!   mean Definition 9 cost, the buffered rows scored per read and the
//!   p50 µs of [`DynamicIndex::topk`] over `--queries` weights, and
//!   asserts the ids equal `topk_bruteforce` over the live rows.
//!
//! Results land in a JSON file (default `BENCH_throughput.json`), one
//! object per cell, plus host metadata (`available_parallelism`) so
//! numbers from different machines are never compared blindly.
//! `--min-qps F` turns the harness into a regression gate: it exits
//! nonzero if any cell's single-thread QPS lands below the floor.
//!
//! ```text
//! throughput [--n 100000[,N...]] [--d 3[,...]] [--k 10[,...]]
//!            [--threads 1,2,4] [--queries 1000] [--out FILE] [--min-qps F]
//!            [--zipf-pool P] [--zipf-skews 0.5,1.0,1.5]
//! ```

use drtopk_bench::json::Value;
use drtopk_bench::{dataset, parse_list, percentile, query_weights};
use drtopk_common::{topk_bruteforce, Distribution, Relation, Weights, ZipfWeightWorkload};
use drtopk_core::{
    BatchExecutor, DlOptions, DualLayerIndex, DynamicIndex, QueryBudget, ResultCache,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

struct Config {
    ns: Vec<usize>,
    ds: Vec<usize>,
    ks: Vec<usize>,
    threads: Vec<usize>,
    queries: usize,
    out: String,
    /// Fail (exit 1) if any cell's single-thread QPS lands below this
    /// floor — the CI perf-smoke regression gate.
    min_qps: Option<f64>,
    /// Distinct weight vectors the Zipf workload draws from.
    zipf_pool: usize,
    /// Zipf skew levels for the result-cache pass (0 = uniform).
    zipf_skews: Vec<f64>,
}

impl Config {
    fn parse(args: &[String]) -> Result<Config, String> {
        let mut cfg = Config {
            ns: vec![100_000],
            ds: vec![3],
            ks: vec![10],
            threads: vec![1, 2, 4],
            queries: 1000,
            out: "BENCH_throughput.json".to_string(),
            min_qps: None,
            zipf_pool: 128,
            zipf_skews: vec![0.5, 1.0, 1.5],
        };
        let mut i = 0;
        while i < args.len() {
            let flag = args[i].as_str();
            let val = args
                .get(i + 1)
                .ok_or_else(|| format!("{flag} requires a value"))?;
            match flag {
                "--n" => cfg.ns = parse_list(val)?,
                "--d" => cfg.ds = parse_list(val)?,
                "--k" => cfg.ks = parse_list(val)?,
                "--threads" => cfg.threads = parse_list(val)?,
                "--queries" => cfg.queries = parse_list(val)?[0],
                "--out" => cfg.out = val.clone(),
                "--min-qps" => {
                    cfg.min_qps = Some(
                        val.parse()
                            .map_err(|_| format!("cannot parse --min-qps {val:?}"))?,
                    )
                }
                "--zipf-pool" => cfg.zipf_pool = parse_list(val)?[0],
                "--zipf-skews" => cfg.zipf_skews = parse_float_list(val)?,
                other => return Err(format!("unknown flag {other}")),
            }
            i += 2;
        }
        if cfg.queries == 0 {
            return Err("--queries must be positive".to_string());
        }
        if cfg.zipf_pool == 0 {
            return Err("--zipf-pool must be positive".to_string());
        }
        if cfg.zipf_skews.iter().any(|s| !s.is_finite() || *s < 0.0) {
            return Err("--zipf-skews must be finite and non-negative".to_string());
        }
        Ok(cfg)
    }
}

fn parse_float_list(s: &str) -> Result<Vec<f64>, String> {
    let v: Result<Vec<f64>, _> = s.split(',').map(|p| p.trim().parse::<f64>()).collect();
    match v {
        Ok(list) if !list.is_empty() => Ok(list),
        _ => Err(format!("cannot parse float list {s:?}")),
    }
}

/// Runs one `(n, d, k)` cell; returns its report object plus the
/// single-thread QPS the `--min-qps` gate checks.
fn run_cell(n: usize, d: usize, k: usize, cfg: &Config) -> (Value, f64) {
    eprintln!("cell n={n} d={d} k={k}: building DL+ index...");
    let rel = dataset(Distribution::Independent, d, n);
    let t0 = Instant::now();
    let idx = DualLayerIndex::build(&rel, DlOptions::dl_plus());
    let build_secs = t0.elapsed().as_secs_f64();
    let weights = query_weights(d, cfg.queries, 0xC0FFEE);

    // Warmup: touch the index and fault in the columns once.
    let _ = idx.topk(&weights[0], k);

    // Sequential pass: each weight once, so no call runs right after the
    // same query warmed the caches; QPS from the wall clock, as for the
    // executor rows. Its answers are the reference every later pass is
    // checked against.
    let mut latencies_us = Vec::with_capacity(weights.len());
    let mut reference = Vec::with_capacity(weights.len());
    let s_t0 = Instant::now();
    for w in &weights {
        let q0 = Instant::now();
        let r = idx.topk(w, k);
        latencies_us.push(q0.elapsed().as_secs_f64() * 1e6);
        reference.push(r);
    }
    let seq_qps = weights.len() as f64 / s_t0.elapsed().as_secs_f64();
    let total_cost: u64 = reference.iter().map(|r| r.cost.total()).sum();
    let mean_cost = total_cost as f64 / weights.len() as f64;
    latencies_us.sort_by(|a, b| a.total_cmp(b));
    let (p50, p99) = (
        percentile(&latencies_us, 0.50),
        percentile(&latencies_us, 0.99),
    );

    // Observability overhead, recording off and on, paired: each query
    // runs once with the metrics registry's recording gate off and once
    // on, back to back, order alternating, so host noise hits both sides
    // equally (as in the guarded pass below). The registry is reset
    // first, so the cell's snapshot covers exactly its recording-on calls.
    let m = drtopk_obs::metrics();
    m.reset();
    let timed = |on: bool, w: &Weights| {
        m.set_recording(on);
        let q0 = Instant::now();
        let r = idx.topk(w, k);
        (r, q0.elapsed().as_secs_f64() * 1e6)
    };
    let mut off_lat_us = Vec::with_capacity(weights.len());
    let mut on_lat_us = Vec::with_capacity(weights.len());
    for (i, (w, s)) in weights.iter().zip(&reference).enumerate() {
        let ((off, off_us), (on, on_us)) = if i % 2 == 0 {
            let off = timed(false, w);
            (off, timed(true, w))
        } else {
            let on = timed(true, w);
            (timed(false, w), on)
        };
        for r in [&off, &on] {
            assert_eq!(r.ids, s.ids, "recording on/off changed answers");
            assert_eq!(r.cost, s.cost, "recording on/off changed costs");
        }
        off_lat_us.push(off_us);
        on_lat_us.push(on_us);
    }
    m.set_recording(true);
    off_lat_us.sort_by(|a, b| a.total_cmp(b));
    on_lat_us.sort_by(|a, b| a.total_cmp(b));
    let p50_off = percentile(&off_lat_us, 0.50);
    let p50_on = percentile(&on_lat_us, 0.50);
    let overhead_pct = if p50_off > 0.0 {
        (p50_on - p50_off) / p50_off * 100.0
    } else {
        f64::NAN
    };
    eprintln!(
        "  sequential: {seq_qps:.0} q/s, p50 {p50:.1}µs p99 {p99:.1}µs, mean cost {mean_cost:.1}"
    );
    eprintln!("  obs overhead: p50 off {p50_off:.2}µs on {p50_on:.2}µs ({overhead_pct:+.2}%)");

    // Guarded-path overhead: the same queries through topk_guarded with
    // an unlimited budget (the guard's no-op fast path), measured PAIRED
    // with a plain call — back-to-back per query, order alternating — so
    // clock drift and thermal noise hit both sides equally. The p50s of
    // the paired samples must stay within 2 % and answers bit-identical.
    let unlimited = QueryBudget::unlimited();
    let mut plain_paired_us = Vec::with_capacity(weights.len());
    let mut guarded_lat_us = Vec::with_capacity(weights.len());
    let g_t0 = Instant::now();
    for (i, (w, s)) in weights.iter().zip(&reference).enumerate() {
        let (plain, guarded) = if i % 2 == 0 {
            let q0 = Instant::now();
            let p = idx.topk(w, k);
            let plain = q0.elapsed().as_secs_f64() * 1e6;
            let q1 = Instant::now();
            let g = idx.topk_guarded(w, k, &unlimited);
            ((p, plain), (g, q1.elapsed().as_secs_f64() * 1e6))
        } else {
            let q1 = Instant::now();
            let g = idx.topk_guarded(w, k, &unlimited);
            let guarded = q1.elapsed().as_secs_f64() * 1e6;
            let q0 = Instant::now();
            let p = idx.topk(w, k);
            ((p, q0.elapsed().as_secs_f64() * 1e6), (g, guarded))
        };
        let (p, plain_us) = plain;
        let (g, guarded_us) = guarded;
        plain_paired_us.push(plain_us);
        guarded_lat_us.push(guarded_us);
        assert_eq!(g.ids, s.ids, "guarded path changed answers");
        assert_eq!(g.cost, s.cost, "guarded path changed costs");
        assert_eq!(p.ids, s.ids, "plain paired pass changed answers");
        assert!(g.truncated.is_none(), "unlimited budget tripped");
    }
    let guarded_qps = 2.0 * weights.len() as f64 / g_t0.elapsed().as_secs_f64();
    plain_paired_us.sort_by(|a, b| a.total_cmp(b));
    guarded_lat_us.sort_by(|a, b| a.total_cmp(b));
    let p50_plain_paired = percentile(&plain_paired_us, 0.50);
    let p50_guarded = percentile(&guarded_lat_us, 0.50);
    let guarded_overhead_pct = if p50_plain_paired > 0.0 {
        (p50_guarded - p50_plain_paired) / p50_plain_paired * 100.0
    } else {
        f64::NAN
    };
    eprintln!(
        "  guarded (unlimited budget): p50 {p50_guarded:.2}µs vs paired plain \
         {p50_plain_paired:.2}µs ({guarded_overhead_pct:+.2}%)"
    );

    // Scratch split: the epoch-versioned reset must be O(1) — independent
    // of n — and the traversal O(nodes touched). Both are timed separately
    // with one reused scratch; answers stay bit-identical to the
    // sequential pass's. (topk_with_scratch resets internally, so each
    // query pays the reset twice here; at single-digit nanoseconds that is
    // measurement noise.)
    let mut scratch = drtopk_core::QueryScratch::for_index(&idx);
    let mut reset_ns = Vec::with_capacity(weights.len());
    let mut with_scratch_us = Vec::with_capacity(weights.len());
    for (w, s) in weights.iter().zip(&reference) {
        let r0 = Instant::now();
        scratch.reset(&idx);
        reset_ns.push(r0.elapsed().as_secs_f64() * 1e9);
        let q0 = Instant::now();
        let r = idx.topk_with_scratch(w, k, &mut scratch);
        with_scratch_us.push(q0.elapsed().as_secs_f64() * 1e6);
        assert_eq!(r.ids, s.ids, "scratch reuse changed answers");
        assert_eq!(r.cost, s.cost, "scratch reuse changed costs");
    }
    let with_scratch_secs: f64 = with_scratch_us.iter().sum::<f64>() / 1e6;
    let scratch_qps = weights.len() as f64 / with_scratch_secs;
    reset_ns.sort_by(|a, b| a.total_cmp(b));
    with_scratch_us.sort_by(|a, b| a.total_cmp(b));
    let reset_p50_ns = percentile(&reset_ns, 0.50);
    let reset_p99_ns = percentile(&reset_ns, 0.99);
    let scratch_p50 = percentile(&with_scratch_us, 0.50);
    eprintln!(
        "  scratch split: reset p50 {reset_p50_ns:.0}ns (p99 {reset_p99_ns:.0}ns), \
         traversal p50 {scratch_p50:.2}µs, {scratch_qps:.0} q/s reused-scratch"
    );

    // Executor passes at each thread count; every result is checked
    // against the sequential reference (the determinism contract).
    let mut executor_rows = Vec::new();
    let mut single_qps = seq_qps;
    let requests: Vec<(Weights, usize, QueryBudget)> = weights
        .iter()
        .map(|w| (w.clone(), k, QueryBudget::unlimited()))
        .collect();
    for &t in &cfg.threads {
        let exec = BatchExecutor::with_threads(&idx, t);
        let e0 = Instant::now();
        let results = exec.run_guarded_each(&requests);
        let secs = e0.elapsed().as_secs_f64();
        let qps = weights.len() as f64 / secs;
        for (r, s) in results.iter().zip(&reference) {
            let r = r.as_ref().expect("executor request failed");
            assert_eq!(r.ids, s.ids, "executor answers diverged at threads={t}");
            assert_eq!(r.cost, s.cost, "executor costs diverged at threads={t}");
        }
        eprintln!(
            "  executor threads={t}: {qps:.0} q/s ({:.2}x sequential)",
            qps / seq_qps
        );
        if t == 1 {
            single_qps = qps;
        }
        executor_rows.push(Value::object([
            ("threads", Value::uint(t)),
            ("qps", Value::float(qps)),
            ("speedup_vs_sequential", Value::float(qps / seq_qps)),
        ]));
    }

    // Result-cache pass: a Zipf workload over a small weight pool so
    // queries repeat, replayed uncached (the oracle) and then through a
    // fresh ResultCache. Ids must stay bit-identical; the report carries
    // hit rate, cached vs uncached p50, and the hit-path p50 per skew.
    let mut zipf_rows = Vec::new();
    for &skew in &cfg.zipf_skews {
        let pool = cfg.zipf_pool;
        let zipf =
            ZipfWeightWorkload::new(d, pool, cfg.queries, skew, 0x21BF ^ n as u64).generate();
        // Two uncached baselines: the plain convenience API (scratch from
        // the index's pool, what a cache hit actually replaces) and the
        // caller's reused-scratch loop.
        let mut uncached_us = Vec::with_capacity(zipf.len());
        let mut uncached_scratch_us = Vec::with_capacity(zipf.len());
        let mut oracle = Vec::with_capacity(zipf.len());
        for w in &zipf {
            let q0 = Instant::now();
            let r = idx.topk(w, k);
            uncached_us.push(q0.elapsed().as_secs_f64() * 1e6);
            oracle.push(r);
        }
        for (w, o) in zipf.iter().zip(&oracle) {
            let q0 = Instant::now();
            let r = idx.topk_with_scratch(w, k, &mut scratch);
            uncached_scratch_us.push(q0.elapsed().as_secs_f64() * 1e6);
            assert_eq!(r.ids, o.ids, "scratch reuse diverged at skew {skew}");
        }
        // A miss pays the lookup, the k + 1 traversal and the fill: the
        // reference a hit's p50 is judged against.
        let cache = ResultCache::default();
        let mut cached_us = Vec::with_capacity(zipf.len());
        let mut hit_us = Vec::new();
        let mut miss_us = Vec::new();
        let c_t0 = Instant::now();
        for (w, o) in zipf.iter().zip(&oracle) {
            let q0 = Instant::now();
            let r = cache.topk_with_scratch(&idx, w, k, &mut scratch);
            let us = q0.elapsed().as_secs_f64() * 1e6;
            cached_us.push(us);
            assert_eq!(r.ids, o.ids, "cached answers diverged at skew {skew}");
            if r.is_hit() {
                hit_us.push(us);
            } else {
                miss_us.push(us);
            }
        }
        let cached_qps = zipf.len() as f64 / c_t0.elapsed().as_secs_f64();
        let s = cache.stats();
        let looked = s.hits + s.misses;
        let hit_rate = if looked > 0 {
            s.hits as f64 / looked as f64
        } else {
            0.0
        };
        uncached_us.sort_by(|a, b| a.total_cmp(b));
        uncached_scratch_us.sort_by(|a, b| a.total_cmp(b));
        cached_us.sort_by(|a, b| a.total_cmp(b));
        hit_us.sort_by(|a, b| a.total_cmp(b));
        miss_us.sort_by(|a, b| a.total_cmp(b));
        let p50_uncached = percentile(&uncached_us, 0.50);
        let p50_uncached_scratch = percentile(&uncached_scratch_us, 0.50);
        let p50_cached = percentile(&cached_us, 0.50);
        let hit_p50 = percentile(&hit_us, 0.50);
        let miss_p50 = percentile(&miss_us, 0.50);
        eprintln!(
            "  zipf cache skew={skew}: {:.1}% hit rate ({} hits / {} misses, \
             {} cert rejects), hit p50 {hit_p50:.2}µs vs miss {miss_p50:.2}µs, \
             uncached {p50_uncached:.2}µs plain / {p50_uncached_scratch:.2}µs \
             reused-scratch, {cached_qps:.0} q/s cached",
            hit_rate * 100.0,
            s.hits,
            s.misses,
            s.cert_rejects
        );
        zipf_rows.push(Value::object([
            ("skew", Value::float(skew)),
            ("pool", Value::uint(pool)),
            ("hit_rate", Value::float(hit_rate)),
            ("hits", Value::uint(s.hits as usize)),
            ("misses", Value::uint(s.misses as usize)),
            ("cert_rejects", Value::uint(s.cert_rejects as usize)),
            ("p50_us_cached", Value::float(p50_cached)),
            ("p50_us_uncached", Value::float(p50_uncached)),
            (
                "p50_us_uncached_scratch",
                Value::float(p50_uncached_scratch),
            ),
            ("hit_p50_us", Value::float(hit_p50)),
            ("miss_p50_us", Value::float(miss_p50)),
            ("qps_cached", Value::float(cached_qps)),
        ]));
    }

    // Registry snapshot for this cell: the paired pass's recording-on
    // calls plus every executor and cache pass.
    let snap = m.snapshot();
    let cell = Value::object([
        ("n", Value::uint(n)),
        ("d", Value::uint(d)),
        ("k", Value::uint(k)),
        ("queries", Value::uint(cfg.queries)),
        ("build_seconds", Value::float(build_secs)),
        ("mean_cost", Value::float(mean_cost)),
        (
            "sequential",
            Value::object([
                ("qps", Value::float(seq_qps)),
                ("p50_us", Value::float(p50)),
                ("p99_us", Value::float(p99)),
            ]),
        ),
        ("executor", Value::Array(executor_rows)),
        ("single_thread_qps", Value::float(single_qps)),
        (
            "scratch",
            Value::object([
                ("reset_p50_ns", Value::float(reset_p50_ns)),
                ("reset_p99_ns", Value::float(reset_p99_ns)),
                ("p50_us", Value::float(scratch_p50)),
                ("qps", Value::float(scratch_qps)),
            ]),
        ),
        (
            "guarded",
            Value::object([
                ("paired_qps", Value::float(guarded_qps)),
                ("p50_us", Value::float(p50_guarded)),
                ("p50_us_paired_plain", Value::float(p50_plain_paired)),
                ("overhead_pct_vs_plain", Value::float(guarded_overhead_pct)),
            ]),
        ),
        ("zipf_cache", Value::Array(zipf_rows)),
        (
            "obs",
            Value::object([
                ("p50_us_recording_off", Value::float(p50_off)),
                ("p50_us_recording_on", Value::float(p50_on)),
                ("overhead_pct", Value::float(overhead_pct)),
                ("metrics", metrics_json(&snap)),
            ]),
        ),
    ]);
    (cell, single_qps)
}

/// The fixed `dynamic` section: reads of a [`DynamicIndex`] in the churn
/// workload's shape, with 0, 100 and 200 buffered uniform inserts.
fn run_dynamic(queries: usize) -> Value {
    const N: usize = 20_000;
    const D: usize = 3;
    const K: usize = 10;
    const BUFFERED: [usize; 3] = [0, 100, 200];
    eprintln!("dynamic n={N} d={D} k={K}: building DL+ index...");
    let rel = dataset(Distribution::Independent, D, N);
    let base = DynamicIndex::new(&rel, DlOptions::dl_plus(), 0.02);
    let weights = query_weights(D, queries, 0xC0FFEE);
    let mut rng = StdRng::seed_from_u64(0xB0FFE2);
    let inserts: Vec<Vec<f64>> = (0..BUFFERED[2])
        .map(|_| (0..D).map(|_| rng.gen()).collect())
        .collect();
    let m = drtopk_obs::metrics();
    m.set_recording(true);
    let mut rows = Vec::new();
    for buffered in BUFFERED {
        let mut dynamic = base.clone();
        for row in &inserts[..buffered] {
            dynamic.insert(row).expect("a valid row");
        }
        assert_eq!(dynamic.rebuilds(), 0, "the inserts stay buffered");
        // Handles are positions here: the indexed tuples, then the inserts.
        let live: Vec<Vec<f64>> = rel
            .iter()
            .map(|(_, t)| t.to_vec())
            .chain(inserts[..buffered].iter().cloned())
            .collect();
        let live = Relation::from_rows(D, &live).expect("valid rows");
        let _ = dynamic.topk(&weights[0], K);
        m.reset();
        let mut lat_us = Vec::with_capacity(weights.len());
        let mut total_cost = 0u64;
        let mut answers = Vec::with_capacity(weights.len());
        for w in &weights {
            let q0 = Instant::now();
            let (ids, cost) = dynamic.topk(w, K);
            lat_us.push(q0.elapsed().as_secs_f64() * 1e6);
            total_cost += cost.total();
            answers.push(ids);
        }
        let scanned = m.snapshot().dynamic_buffer_scanned;
        for (w, ids) in weights.iter().zip(&answers) {
            let want: Vec<u64> = topk_bruteforce(&live, w, K)
                .into_iter()
                .map(u64::from)
                .collect();
            assert_eq!(
                ids, &want,
                "dynamic answers diverged at {buffered} buffered"
            );
        }
        lat_us.sort_by(|a, b| a.total_cmp(b));
        let mean_cost = total_cost as f64 / weights.len() as f64;
        let scanned_per_read = scanned as f64 / weights.len() as f64;
        let p50 = percentile(&lat_us, 0.50);
        eprintln!(
            "  {buffered} buffered: mean cost {mean_cost:.1}, {scanned_per_read:.1} buffered \
             rows scored per read, p50 {p50:.2}µs"
        );
        rows.push(Value::object([
            ("buffered", Value::uint(buffered)),
            ("mean_cost", Value::float(mean_cost)),
            ("buffer_scanned_per_read", Value::float(scanned_per_read)),
            ("p50_us", Value::float(p50)),
        ]));
    }
    Value::object([
        ("n", Value::uint(N)),
        ("d", Value::uint(D)),
        ("k", Value::uint(K)),
        ("variant", Value::str("dl+")),
        ("queries", Value::uint(queries)),
        ("rows", Value::Array(rows)),
    ])
}

/// The cell's registry snapshot as report JSON: every counter plus the
/// quantiles of both histograms.
fn metrics_json(snap: &drtopk_obs::MetricsSnapshot) -> Value {
    let mut fields: Vec<(String, Value)> = snap
        .counter_rows()
        .into_iter()
        .map(|(name, _help, v)| (name.to_string(), Value::uint(v as usize)))
        .collect();
    for (name, h) in [
        ("query_latency_ns", &snap.query_latency_ns),
        ("query_cost", &snap.query_cost),
    ] {
        fields.push((
            name.to_string(),
            Value::object([
                ("count", Value::uint(h.count() as usize)),
                ("p50", Value::float(h.p50())),
                ("p95", Value::float(h.p95())),
                ("p99", Value::float(h.p99())),
                ("mean", Value::float(h.mean())),
            ]),
        ));
    }
    Value::Object(fields)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match Config::parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("throughput: {e}");
            eprintln!(
                "usage: throughput [--n N[,..]] [--d D[,..]] [--k K[,..]] \
                 [--threads T[,..]] [--queries Q] [--out FILE] [--min-qps F] \
                 [--zipf-pool P] [--zipf-skews S[,..]]"
            );
            std::process::exit(2);
        }
    };

    let host_threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let mut cells = Vec::new();
    let mut floor_violations = Vec::new();
    for &n in &cfg.ns {
        for &d in &cfg.ds {
            for &k in &cfg.ks {
                let (cell, single_qps) = run_cell(n, d, k, &cfg);
                cells.push(cell);
                if let Some(floor) = cfg.min_qps {
                    if single_qps < floor {
                        floor_violations.push(format!(
                            "cell n={n} d={d} k={k}: single-thread {single_qps:.0} q/s \
                             below the floor {floor:.0}"
                        ));
                    }
                }
            }
        }
    }
    let dynamic = run_dynamic(cfg.queries);
    let doc = Value::object([
        (
            "host",
            Value::object([("available_parallelism", Value::uint(host_threads))]),
        ),
        (
            "obs",
            Value::object([
                ("compiled", Value::Bool(drtopk_obs::COMPILED)),
                (
                    "methodology",
                    Value::str(
                        "per cell: each query runs twice back to back, runtime recording \
                         off and on, order alternating; overhead_pct compares the p50s \
                         (budget <= 2%)",
                    ),
                ),
            ]),
        ),
        (
            "note",
            Value::str(
                "executor results are bit-identical to sequential topk; \
                 thread speedups require available_parallelism > 1",
            ),
        ),
        ("cells", Value::Array(cells)),
        ("dynamic", dynamic),
    ]);
    std::fs::write(&cfg.out, doc.pretty()).expect("write results file");
    eprintln!("wrote {}", cfg.out);
    if !floor_violations.is_empty() {
        for v in &floor_violations {
            eprintln!("PERF REGRESSION: {v}");
        }
        std::process::exit(1);
    }
}
