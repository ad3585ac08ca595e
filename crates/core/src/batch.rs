//! Concurrent batch query execution.
//!
//! A [`BatchExecutor`] answers many independent `(weights, k, budget)`
//! requests against one index through one entry point,
//! [`BatchExecutor::run_guarded_each`], by fanning contiguous chunks of
//! the request slice across scoped worker threads. Each request draws its
//! scratch from the index's pool, so a batch allocates at most one
//! scratch per worker that ran at once, and none once the pool holds that
//! many.
//!
//! Determinism: results come back in request order, and each complete
//! result is bit-identical to a sequential [`DualLayerIndex::topk`] call —
//! queries never share mutable state, and the traversal itself is
//! deterministic, so the thread count can only change wall-clock time,
//! never answers or costs.

use crate::cache::ResultCache;
use crate::index::DualLayerIndex;
use crate::query::{QueryBudget, TopkResult};
use drtopk_common::par::{parallel_map_chunked, resolve_workers_chunked};
use drtopk_common::Weights;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Failpoint visited once per request on the guarded path, before the
/// query runs: by the batch executor and by the network server for every
/// query it answers under a turn. The chaos suites arm it with a panic
/// to prove one poisoned request takes down neither its batch nor the
/// server connection that sent it.
pub const WORKER_FAILPOINT: &str = "batch::worker";

/// A per-request failure inside [`BatchExecutor::run_guarded_each`]: the
/// request's query panicked (or an injected worker fault fired). Other
/// requests of the batch are unaffected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestError {
    /// Panic payload or injected-fault description.
    pub message: String,
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "request failed: {}", self.message)
    }
}

impl std::error::Error for RequestError {}

/// A panic payload's message: `panic!` carries a `&str` or a `String`;
/// any other payload reads "opaque panic payload".
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// Smallest number of requests worth handing one worker thread. A top-k
/// query on a built index runs in tens of microseconds, so dispatching
/// fewer requests than this per thread costs more in spawn/join overhead
/// than the parallelism recovers (the PR-1 throughput sweep measured
/// speedup < 1 at 2 threads for exactly this reason). Small batches
/// therefore collapse onto fewer workers.
const MIN_REQUESTS_PER_WORKER: usize = 8;

/// Multi-threaded executor for batches of top-k requests over one index.
///
/// ```
/// use drtopk_common::{Distribution, Weights, WorkloadSpec};
/// use drtopk_core::{BatchExecutor, DlOptions, DualLayerIndex, QueryBudget};
///
/// let rel = WorkloadSpec::new(Distribution::Independent, 3, 200, 1).generate();
/// let idx = DualLayerIndex::build(&rel, DlOptions::dl_plus());
/// let w = Weights::uniform(3);
/// let requests = vec![
///     (w.clone(), 5, QueryBudget::unlimited()),
///     (w.clone(), 1, QueryBudget::unlimited()),
/// ];
/// let results = BatchExecutor::with_threads(&idx, 0).run_guarded_each(&requests);
/// assert_eq!(results.len(), 2);
/// assert_eq!(results[0].as_ref().unwrap(), &idx.topk(&w, 5));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct BatchExecutor<'a> {
    idx: &'a DualLayerIndex,
    threads: usize,
    cache: Option<&'a ResultCache>,
}

impl<'a> BatchExecutor<'a> {
    /// An executor with an explicit thread count (`0` = all cores).
    pub fn with_threads(idx: &'a DualLayerIndex, threads: usize) -> Self {
        BatchExecutor {
            idx,
            threads,
            cache: None,
        }
    }

    /// Routes this executor's queries through a shared [`ResultCache`].
    /// All workers consult and fill the same cache concurrently (its
    /// sharded locks keep the hit path read-mostly); ids stay
    /// bit-identical to the uncached run, costs follow the cache's
    /// documented hit/miss semantics.
    pub fn with_cache(mut self, cache: &'a ResultCache) -> Self {
        self.cache = Some(cache);
        self
    }

    /// The thread count this executor would use for a batch of `requests`
    /// requests: the configured count, clamped to available cores and to
    /// one worker per `MIN_REQUESTS_PER_WORKER`-request chunk.
    pub fn effective_threads(&self, requests: usize) -> usize {
        resolve_workers_chunked(self.threads, requests, MIN_REQUESTS_PER_WORKER)
    }

    /// Fault-isolated batch execution: each `(weights, k, budget)` request
    /// is answered under its own budget, panics are confined to the
    /// request that raised them, and results come back in request order.
    ///
    /// Guarantees, per slot:
    ///
    /// * a request whose query panics (malformed weights, an injected
    ///   worker fault) yields `Err(RequestError)` for that slot only —
    ///   the rest of the batch completes normally;
    /// * every successful, untruncated result is bit-identical to a
    ///   sequential [`DualLayerIndex::topk`] call;
    /// * one request's deadline or cost cap never governs another's, but
    ///   budgets cloned from one share its cancellation flag, so tripping
    ///   that flag drains the whole batch cooperatively — each remaining
    ///   request returns its truncated prefix instead of running to
    ///   completion.
    ///
    /// A request that panicked drops its scratch rather than pooling it:
    /// the panic may have unwound mid-update.
    ///
    /// With a cache attached, requests follow the cache rule (see
    /// [`crate::cache`]): a hit is served complete under any budget, and
    /// only a miss under an unlimited budget fills the cache. (The network
    /// server does not batch: it answers each query on the reader thread
    /// of the connection that sent it, through the same per-request body,
    /// [`ResultCache::answer`] or [`DualLayerIndex::topk_guarded`].)
    pub fn run_guarded_each(
        &self,
        requests: &[(Weights, usize, QueryBudget)],
    ) -> Vec<Result<TopkResult, RequestError>> {
        let m = drtopk_obs::metrics();
        m.batch_enqueued.add(requests.len() as u64);
        let out = parallel_map_chunked(
            requests,
            self.threads,
            MIN_REQUESTS_PER_WORKER,
            &|(w, k, budget)| {
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    drtopk_failpoints::hit(WORKER_FAILPOINT).map_err(|e| RequestError {
                        message: e.to_string(),
                    })?;
                    Ok(self.answer(w, *k, budget))
                }));
                outcome.unwrap_or_else(|payload| {
                    Err(RequestError {
                        message: panic_message(payload.as_ref()),
                    })
                })
            },
        );
        m.batch_drained.add(out.len() as u64);
        out
    }

    /// Answers one request: through the cache's static body when a cache
    /// is attached, the guarded traversal otherwise.
    fn answer(&self, w: &Weights, k: usize, budget: &QueryBudget) -> TopkResult {
        match self.cache {
            Some(c) => c.answer(self.idx, w, k, budget).0,
            None => self.idx.topk_guarded(w, k, budget),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::DlOptions;
    use crate::query::TruncateReason;
    use drtopk_common::{Distribution, WorkloadSpec};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    type Request = (Weights, usize, QueryBudget);

    fn batch_fixture(d: usize, n: usize) -> (DualLayerIndex, Vec<Request>) {
        let rel = WorkloadSpec::new(Distribution::AntiCorrelated, d, n, 13).generate();
        let idx = DualLayerIndex::build(&rel, DlOptions::dl_plus());
        let mut rng = StdRng::seed_from_u64(0xBA7C);
        let requests: Vec<Request> = (0..60)
            .map(|_| {
                let w = Weights::random(d, &mut rng);
                (w, rng.gen_range(1..=25usize), QueryBudget::unlimited())
            })
            .collect();
        (idx, requests)
    }

    /// `requests` with a clone of `budget` in every slot: clones share
    /// its cancel flag.
    fn under(requests: &[Request], budget: &QueryBudget) -> Vec<Request> {
        let each = |(w, k, _): &Request| (w.clone(), *k, budget.clone());
        requests.iter().map(each).collect()
    }

    #[test]
    fn batch_is_bit_identical_to_sequential_across_thread_counts() {
        // Same ids, same cost as a sequential topk loop, complete, for
        // threads in {1, 2, 4}.
        for d in [2, 3] {
            let (idx, requests) = batch_fixture(d, 400);
            let sequential: Vec<TopkResult> =
                requests.iter().map(|(w, k, _)| idx.topk(w, *k)).collect();
            for threads in [1usize, 2, 4] {
                let exec = BatchExecutor::with_threads(&idx, threads);
                let batch = exec.run_guarded_each(&requests);
                assert_eq!(batch.len(), sequential.len());
                for (i, (b, s)) in batch.iter().zip(&sequential).enumerate() {
                    let b = b.as_ref().expect("no faults injected");
                    assert!(b.is_complete(), "d={d} threads={threads} request {i}");
                    assert_eq!(b, s, "d={d} threads={threads} request {i}");
                }
            }
        }
    }

    #[test]
    fn mixed_k_values_and_edge_requests() {
        let rel = WorkloadSpec::new(Distribution::Independent, 2, 150, 5).generate();
        let idx = DualLayerIndex::build(&rel, DlOptions::dl());
        let unlimited = QueryBudget::unlimited;
        let requests = vec![
            (Weights::uniform(2), 0, unlimited()), // empty answer
            (Weights::uniform(2), 1, unlimited()),
            (Weights::new(vec![0.99, 0.01]).unwrap(), 150, unlimited()), // full relation
            (Weights::new(vec![0.01, 0.99]).unwrap(), 999, unlimited()), // k > n
        ];
        let out = BatchExecutor::with_threads(&idx, 2).run_guarded_each(&requests);
        let out: Vec<TopkResult> = out.into_iter().map(|r| r.expect("no faults")).collect();
        assert!(out[0].ids.is_empty());
        assert_eq!(out[1].ids.len(), 1);
        assert_eq!(out[2].ids.len(), 150);
        assert_eq!(out[3].ids.len(), 150);
        for ((w, k, _), r) in requests.iter().zip(&out) {
            assert_eq!(r, &idx.topk(w, *k));
        }
    }

    #[test]
    fn one_panicking_request_fails_alone() {
        // A weight vector of the wrong arity makes the traversal panic.
        // The executor must confine the panic to that request and keep
        // the other answers bit-identical to sequential topk.
        let (idx, mut requests) = batch_fixture(3, 300);
        let poison = 17;
        requests[poison] = (Weights::uniform(2), 5, QueryBudget::unlimited());
        let sequential: Vec<Option<TopkResult>> = requests
            .iter()
            .enumerate()
            .map(|(i, (w, k, _))| (i != poison).then(|| idx.topk(w, *k)))
            .collect();
        for threads in [1usize, 2, 8] {
            let out = BatchExecutor::with_threads(&idx, threads).run_guarded_each(&requests);
            assert_eq!(out.len(), requests.len());
            for (i, r) in out.iter().enumerate() {
                if i == poison {
                    let err = r.as_ref().unwrap_err();
                    assert!(
                        err.message.contains("dimensionality"),
                        "threads={threads}: {}",
                        err.message
                    );
                } else {
                    let g = r.as_ref().expect("healthy request must succeed");
                    let s = sequential[i].as_ref().unwrap();
                    assert_eq!(g, s, "threads={threads} request {i}");
                }
            }
        }
    }

    #[test]
    fn shared_cancel_flag_drains_the_batch() {
        // Every slot holds its own clone of one budget; the clones share
        // the cancel flag, so tripping it stops every request.
        let (idx, requests) = batch_fixture(3, 300);
        let flag = Arc::new(AtomicBool::new(true));
        let budget = QueryBudget::unlimited().with_cancel_flag(flag);
        let requests = under(&requests, &budget);
        let out = BatchExecutor::with_threads(&idx, 2).run_guarded_each(&requests);
        assert_eq!(out.len(), requests.len());
        for r in &out {
            let g = r.as_ref().expect("cancellation is not an error");
            assert_eq!(g.truncated, Some(TruncateReason::Cancelled));
            assert!(g.ids.is_empty(), "pre-tripped flag truncates every request");
        }
    }

    #[test]
    fn cached_batch_ids_are_bit_identical_across_threads() {
        for d in [2usize, 3] {
            let (idx, _) = batch_fixture(d, 400);
            // A zipfian batch: heavy weight repetition, mixed k.
            let mut rng = StdRng::seed_from_u64(0xCAC4E);
            let pool: Vec<Weights> = (0..6).map(|_| Weights::random(d, &mut rng)).collect();
            let requests: Vec<Request> = (0..120)
                .map(|i| {
                    (
                        pool[i % pool.len()].clone(),
                        1 + i % 20,
                        QueryBudget::unlimited(),
                    )
                })
                .collect();
            let plain = BatchExecutor::with_threads(&idx, 1).run_guarded_each(&requests);
            let cache = ResultCache::default();
            for threads in [1usize, 4] {
                let cached = BatchExecutor::with_threads(&idx, threads)
                    .with_cache(&cache)
                    .run_guarded_each(&requests);
                for (i, (c, p)) in cached.iter().zip(&plain).enumerate() {
                    let (c, p) = (c.as_ref().unwrap(), p.as_ref().unwrap());
                    assert_eq!(c.ids, p.ids, "d={d} threads={threads} request {i}");
                }
            }
            let s = cache.stats();
            assert!(s.hits > 0, "d={d}: repeated weights must hit: {s:?}");
        }
    }

    #[test]
    fn cached_guarded_run_serves_hits_and_respects_budgets() {
        let (idx, _) = batch_fixture(3, 300);
        let w = Weights::uniform(3);
        let requests: Vec<Request> = (0..16)
            .map(|_| (w.clone(), 5, QueryBudget::unlimited()))
            .collect();
        let cache = ResultCache::default();
        let exec = BatchExecutor::with_threads(&idx, 2).with_cache(&cache);
        // Unlimited budget: full cache path, answers match plain topk.
        let want = idx.topk(&w, 5).ids;
        for r in exec.run_guarded_each(&requests) {
            let g = r.expect("no faults");
            assert!(g.is_complete());
            assert_eq!(g.ids, want);
        }
        assert!(cache.stats().hits > 0);
        // A pre-tripped budget: hits still come back complete (the cache
        // bypasses the traversal entirely), and nothing new is stored.
        let stores_before = cache.stats().stores;
        let flag = Arc::new(AtomicBool::new(true));
        let tripped = QueryBudget::unlimited().with_cancel_flag(flag);
        for r in exec.run_guarded_each(&under(&requests, &tripped)) {
            let g = r.expect("cancellation is not an error");
            assert!(g.is_complete(), "cache hits bypass the tripped budget");
            assert_eq!(g.ids, want);
        }
        assert_eq!(
            cache.stats().stores,
            stores_before,
            "budgeted misses must never fill the cache"
        );
        // Same tripped budget without a warm entry: plain truncation.
        let cold = ResultCache::default();
        let cold_exec = BatchExecutor::with_threads(&idx, 2).with_cache(&cold);
        for r in cold_exec.run_guarded_each(&under(&requests, &tripped)) {
            let g = r.expect("cancellation is not an error");
            assert!(!g.is_complete(), "cold cache + tripped budget truncates");
        }
        assert!(cold.is_empty(), "truncated answers must not be stored");
    }

    #[test]
    fn per_request_budgets_apply_independently() {
        let (idx, requests) = batch_fixture(3, 400);
        // Alternate unlimited and zero-cost budgets across the batch: even
        // slots must come back complete and bit-identical to sequential
        // topk, odd slots must truncate with CostExceeded — regardless of
        // which worker thread and micro-chunk a slot lands in.
        let each: Vec<Request> = requests
            .iter()
            .enumerate()
            .map(|(i, (w, k, _))| {
                let b = if i % 2 == 0 {
                    QueryBudget::unlimited()
                } else {
                    QueryBudget::unlimited().with_max_cost(0)
                };
                (w.clone(), *k, b)
            })
            .collect();
        for threads in [1usize, 2, 8] {
            let out = BatchExecutor::with_threads(&idx, threads).run_guarded_each(&each);
            assert_eq!(out.len(), each.len());
            for (i, r) in out.iter().enumerate() {
                let g = r.as_ref().expect("no faults injected");
                if i % 2 == 0 {
                    assert!(g.is_complete(), "threads={threads} request {i}");
                    let want = idx.topk(&requests[i].0, requests[i].1);
                    assert_eq!(g.ids, want.ids, "threads={threads} request {i}");
                    assert_eq!(g.cost, want.cost, "threads={threads} request {i}");
                } else {
                    assert_eq!(
                        g.truncated,
                        Some(TruncateReason::CostExceeded),
                        "threads={threads} request {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn per_request_budgets_with_cache_serve_hits_complete() {
        let (idx, _) = batch_fixture(3, 300);
        let w = Weights::uniform(3);
        let want = idx.topk(&w, 5).ids;
        let cache = ResultCache::default();
        let exec = BatchExecutor::with_threads(&idx, 2).with_cache(&cache);
        // Warm the cache with an unlimited request, then hammer it with
        // zero-cost budgets: every hit must come back complete.
        let warm = vec![(w.clone(), 5, QueryBudget::unlimited())];
        exec.run_guarded_each(&warm)[0].as_ref().expect("warm");
        let stores_before = cache.stats().stores;
        let tight: Vec<Request> = (0..16)
            .map(|_| (w.clone(), 5, QueryBudget::unlimited().with_max_cost(0)))
            .collect();
        for r in exec.run_guarded_each(&tight) {
            let g = r.expect("no faults");
            assert!(g.is_complete(), "cache hits bypass the tight budget");
            assert_eq!(g.ids, want);
        }
        assert_eq!(
            cache.stats().stores,
            stores_before,
            "budgeted requests must never fill the cache"
        );
    }

    #[test]
    fn empty_batch_and_effective_threads() {
        let rel = WorkloadSpec::new(Distribution::Independent, 2, 50, 2).generate();
        let idx = DualLayerIndex::build(&rel, DlOptions::dl());
        let exec = BatchExecutor::with_threads(&idx, 4);
        assert!(exec.run_guarded_each(&[]).is_empty());
        // Never more than requested, never oversubscribed past the host.
        let cores = std::thread::available_parallelism().map_or(4, |p| p.get());
        assert_eq!(exec.effective_threads(100), 4.min(cores));
        // Batches smaller than one minimum chunk run on a single worker —
        // the small-batch overhead fix.
        assert_eq!(exec.effective_threads(2), 1);
        assert_eq!(exec.effective_threads(MIN_REQUESTS_PER_WORKER - 1), 1);
        assert!(exec.effective_threads(2 * MIN_REQUESTS_PER_WORKER) <= 2);
        assert!(BatchExecutor::with_threads(&idx, 0).effective_threads(100) >= 1);
    }
}
