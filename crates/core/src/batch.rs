//! Concurrent batch query execution.
//!
//! A [`BatchExecutor`] answers many independent `(weights, k)` requests
//! against one index by fanning contiguous chunks of the request slice
//! across scoped worker threads. Each request draws its scratch from the
//! index's pool, so a batch allocates at most one scratch per worker
//! that ran at once, and none once the pool holds that many.
//!
//! Determinism: results come back in request order, and each individual
//! result is bit-identical to a sequential [`DualLayerIndex::topk`] call —
//! queries never share mutable state, and the traversal itself is
//! deterministic, so the thread count can only change wall-clock time,
//! never answers or costs.

use crate::cache::ResultCache;
use crate::index::DualLayerIndex;
use crate::par::{parallel_map_chunked, resolve_workers_chunked};
use crate::query::{GuardedTopk, QueryBudget, TopkResult};
use drtopk_common::Weights;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Failpoint visited once per request on the guarded path, before the
/// query runs: by the batch executor and by the network server for every
/// query it answers under a turn. The chaos suites arm it with a panic
/// to prove one poisoned request takes down neither its batch nor the
/// server connection that sent it.
pub const WORKER_FAILPOINT: &str = "batch::worker";

/// A per-request failure inside [`BatchExecutor::run_guarded`]: the
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
/// use drtopk_core::{BatchExecutor, DlOptions, DualLayerIndex};
///
/// let rel = WorkloadSpec::new(Distribution::Independent, 3, 200, 1).generate();
/// let idx = DualLayerIndex::build(&rel, DlOptions::dl_plus());
/// let requests = vec![(Weights::uniform(3), 5), (Weights::uniform(3), 1)];
/// let results = BatchExecutor::new(&idx).run(&requests);
/// assert_eq!(results.len(), 2);
/// assert_eq!(results[0].ids, idx.topk(&Weights::uniform(3), 5).ids);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct BatchExecutor<'a> {
    idx: &'a DualLayerIndex,
    threads: usize,
    cache: Option<&'a ResultCache>,
}

impl<'a> BatchExecutor<'a> {
    /// An executor that uses all available cores.
    pub fn new(idx: &'a DualLayerIndex) -> Self {
        BatchExecutor {
            idx,
            threads: 0,
            cache: None,
        }
    }

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

    /// Answers every `(weights, k)` request, returning results in request
    /// order. Each result is bit-identical to `self.idx.topk(&w, k)`.
    ///
    /// # Panics
    /// Panics if any weight vector's dimensionality differs from the
    /// index's.
    pub fn run(&self, requests: &[(Weights, usize)]) -> Vec<TopkResult> {
        let unlimited = QueryBudget::unlimited();
        self.fan_out(requests, &|(w, k)| {
            let g = self.answer(w, *k, &unlimited);
            TopkResult {
                ids: g.ids,
                cost: g.cost,
            }
        })
    }

    /// Fault-isolated batch execution: every `(weights, k)` request is
    /// answered under `budget`, panics are confined to the request that
    /// raised them, and results come back in request order.
    ///
    /// Guarantees:
    ///
    /// * a request whose query panics (malformed weights, an injected
    ///   worker fault) yields `Err(RequestError)` for that slot only —
    ///   the rest of the batch completes normally;
    /// * every successful, untruncated result is bit-identical to a
    ///   sequential [`DualLayerIndex::topk`] call;
    /// * `budget` applies per request (same deadline/cost cap for each);
    ///   its cancellation flag is shared, so tripping it drains the whole
    ///   batch cooperatively — each remaining request returns its
    ///   truncated prefix instead of running to completion.
    ///
    /// A request that panicked drops its scratch rather than pooling it:
    /// the panic may have unwound mid-update.
    ///
    /// With a cache attached, requests follow the cache rule (see
    /// [`crate::cache`]): a hit is served complete under any budget, and
    /// only a miss under an unlimited budget fills the cache.
    pub fn run_guarded(
        &self,
        requests: &[(Weights, usize)],
        budget: &QueryBudget,
    ) -> Vec<Result<GuardedTopk, RequestError>> {
        // A budget clone shares the cancel flag's `Arc`, so tripping it
        // still drains every request of the batch.
        let each: Vec<(Weights, usize, QueryBudget)> = requests
            .iter()
            .map(|(w, k)| (w.clone(), *k, budget.clone()))
            .collect();
        self.run_guarded_each(&each)
    }

    /// Like [`run_guarded`](Self::run_guarded), but with a **per-request**
    /// budget: each `(weights, k, budget)` triple carries its own
    /// deadline/cost cap/cancel flag, so one request's budget never
    /// governs another's. (The network server does not batch: it answers
    /// each query on the reader thread of the connection that sent it,
    /// through the same per-request body, [`ResultCache::answer`] or
    /// [`DualLayerIndex::topk_guarded`].)
    ///
    /// All `run_guarded` guarantees hold per slot.
    pub fn run_guarded_each(
        &self,
        requests: &[(Weights, usize, QueryBudget)],
    ) -> Vec<Result<GuardedTopk, RequestError>> {
        self.fan_out(requests, &|(w, k, budget)| {
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
        })
    }

    /// Answers one request: through the cache's static body when a cache
    /// is attached, the guarded traversal otherwise.
    fn answer(&self, w: &Weights, k: usize, budget: &QueryBudget) -> GuardedTopk {
        match self.cache {
            Some(c) => c.answer(self.idx, w, k, budget).0,
            None => self.idx.topk_guarded(w, k, budget),
        }
    }

    /// Maps `f` over `requests` on this executor's workers and counts the
    /// batch in the registry.
    fn fan_out<T: Sync, R: Send>(&self, requests: &[T], f: &(dyn Fn(&T) -> R + Sync)) -> Vec<R> {
        let m = drtopk_obs::metrics();
        m.batch_enqueued.add(requests.len() as u64);
        let out = parallel_map_chunked(requests, self.threads, MIN_REQUESTS_PER_WORKER, f);
        m.batch_drained.add(out.len() as u64);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::DlOptions;
    use drtopk_common::{Distribution, WorkloadSpec};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn batch_fixture(d: usize, n: usize) -> (DualLayerIndex, Vec<(Weights, usize)>) {
        let rel = WorkloadSpec::new(Distribution::AntiCorrelated, d, n, 13).generate();
        let idx = DualLayerIndex::build(&rel, DlOptions::dl_plus());
        let mut rng = StdRng::seed_from_u64(0xBA7C);
        let requests: Vec<(Weights, usize)> = (0..60)
            .map(|_| (Weights::random(d, &mut rng), rng.gen_range(1..=25usize)))
            .collect();
        (idx, requests)
    }

    #[test]
    fn batch_is_bit_identical_to_sequential_across_thread_counts() {
        // The satellite contract: same ids, same cost as a sequential
        // topk loop, for threads in {1, 2, 8}.
        for d in [2, 3] {
            let (idx, requests) = batch_fixture(d, 400);
            let sequential: Vec<TopkResult> =
                requests.iter().map(|(w, k)| idx.topk(w, *k)).collect();
            for threads in [1usize, 2, 8] {
                let exec = BatchExecutor::with_threads(&idx, threads);
                let batch = exec.run(&requests);
                assert_eq!(batch.len(), sequential.len());
                for (i, (b, s)) in batch.iter().zip(&sequential).enumerate() {
                    assert_eq!(b.ids, s.ids, "d={d} threads={threads} request {i}");
                    assert_eq!(b.cost, s.cost, "d={d} threads={threads} request {i}");
                }
            }
        }
    }

    #[test]
    fn mixed_k_values_and_edge_requests() {
        let rel = WorkloadSpec::new(Distribution::Independent, 2, 150, 5).generate();
        let idx = DualLayerIndex::build(&rel, DlOptions::dl());
        let requests = vec![
            (Weights::uniform(2), 0), // empty answer
            (Weights::uniform(2), 1),
            (Weights::new(vec![0.99, 0.01]).unwrap(), 150), // full relation
            (Weights::new(vec![0.01, 0.99]).unwrap(), 999), // k > n
        ];
        let out = BatchExecutor::with_threads(&idx, 2).run(&requests);
        assert!(out[0].ids.is_empty());
        assert_eq!(out[1].ids.len(), 1);
        assert_eq!(out[2].ids.len(), 150);
        assert_eq!(out[3].ids.len(), 150);
        for ((w, k), r) in requests.iter().zip(&out) {
            let want = idx.topk(w, *k);
            assert_eq!(r.ids, want.ids);
            assert_eq!(r.cost, want.cost);
        }
    }

    #[test]
    fn guarded_matches_plain_run_without_faults() {
        let (idx, requests) = batch_fixture(3, 400);
        let plain = BatchExecutor::with_threads(&idx, 2).run(&requests);
        for threads in [1usize, 4] {
            let guarded = BatchExecutor::with_threads(&idx, threads)
                .run_guarded(&requests, &crate::query::QueryBudget::unlimited());
            assert_eq!(guarded.len(), plain.len());
            for (i, (g, p)) in guarded.iter().zip(&plain).enumerate() {
                let g = g.as_ref().expect("no faults injected");
                assert!(g.is_complete());
                assert_eq!(g.ids, p.ids, "threads={threads} request {i}");
                assert_eq!(g.cost, p.cost, "threads={threads} request {i}");
            }
        }
    }

    #[test]
    fn one_panicking_request_fails_alone() {
        // A weight vector of the wrong arity makes the traversal panic.
        // run_guarded must confine the panic to that request and keep the
        // other answers bit-identical to sequential topk.
        let (idx, mut requests) = batch_fixture(3, 300);
        let poison = 17;
        requests[poison] = (Weights::uniform(2), 5);
        let sequential: Vec<Option<TopkResult>> = requests
            .iter()
            .enumerate()
            .map(|(i, (w, k))| (i != poison).then(|| idx.topk(w, *k)))
            .collect();
        for threads in [1usize, 2, 8] {
            let out = BatchExecutor::with_threads(&idx, threads)
                .run_guarded(&requests, &crate::query::QueryBudget::unlimited());
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
                    assert_eq!(g.ids, s.ids, "threads={threads} request {i}");
                    assert_eq!(g.cost, s.cost, "threads={threads} request {i}");
                }
            }
        }
    }

    #[test]
    fn shared_cancel_flag_drains_the_batch() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;
        let (idx, requests) = batch_fixture(3, 300);
        let flag = Arc::new(AtomicBool::new(true));
        let budget = crate::query::QueryBudget::unlimited().with_cancel_flag(flag);
        let out = BatchExecutor::with_threads(&idx, 2).run_guarded(&requests, &budget);
        for r in &out {
            let g = r.as_ref().expect("cancellation is not an error");
            assert!(!g.is_complete(), "pre-tripped flag truncates every request");
            assert!(g.ids.is_empty());
        }
    }

    #[test]
    fn cached_batch_ids_are_bit_identical_across_threads() {
        use crate::cache::ResultCache;
        for d in [2usize, 3] {
            let (idx, _) = batch_fixture(d, 400);
            // A zipfian batch: heavy weight repetition, mixed k.
            let mut rng = StdRng::seed_from_u64(0xCAC4E);
            let pool: Vec<Weights> = (0..6).map(|_| Weights::random(d, &mut rng)).collect();
            let requests: Vec<(Weights, usize)> = (0..120)
                .map(|i| (pool[i % pool.len()].clone(), 1 + i % 20))
                .collect();
            let plain = BatchExecutor::with_threads(&idx, 1).run(&requests);
            let cache = ResultCache::default();
            for threads in [1usize, 4] {
                let cached = BatchExecutor::with_threads(&idx, threads)
                    .with_cache(&cache)
                    .run(&requests);
                for (i, (c, p)) in cached.iter().zip(&plain).enumerate() {
                    assert_eq!(c.ids, p.ids, "d={d} threads={threads} request {i}");
                }
            }
            let s = cache.stats();
            assert!(s.hits > 0, "d={d}: repeated weights must hit: {s:?}");
        }
    }

    #[test]
    fn cached_guarded_run_serves_hits_and_respects_budgets() {
        use crate::cache::ResultCache;
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;
        let (idx, _) = batch_fixture(3, 300);
        let w = Weights::uniform(3);
        let requests: Vec<(Weights, usize)> = (0..16).map(|_| (w.clone(), 5)).collect();
        let cache = ResultCache::default();
        let exec = BatchExecutor::with_threads(&idx, 2).with_cache(&cache);
        // Unlimited budget: full cache path, answers match plain topk.
        let want = idx.topk(&w, 5).ids;
        for r in exec.run_guarded(&requests, &QueryBudget::unlimited()) {
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
        for r in exec.run_guarded(&requests, &tripped) {
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
        let flag2 = Arc::new(AtomicBool::new(true));
        let tripped2 = QueryBudget::unlimited().with_cancel_flag(flag2);
        for r in cold_exec.run_guarded(&requests, &tripped2) {
            let g = r.expect("cancellation is not an error");
            assert!(!g.is_complete(), "cold cache + tripped budget truncates");
        }
        assert!(cold.is_empty(), "truncated answers must not be stored");
    }

    #[test]
    fn per_request_budgets_apply_independently() {
        use crate::query::{QueryBudget, TruncateReason};
        let (idx, requests) = batch_fixture(3, 400);
        // Alternate unlimited and zero-cost budgets across the batch: even
        // slots must come back complete and bit-identical to sequential
        // topk, odd slots must truncate with CostExceeded — regardless of
        // which worker thread and micro-chunk a slot lands in.
        let each: Vec<(Weights, usize, QueryBudget)> = requests
            .iter()
            .enumerate()
            .map(|(i, (w, k))| {
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
        use crate::cache::ResultCache;
        use crate::query::QueryBudget;
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
        let tight: Vec<(Weights, usize, QueryBudget)> = (0..16)
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
        assert!(exec.run(&[]).is_empty());
        // Never more than requested, never oversubscribed past the host.
        let cores = std::thread::available_parallelism().map_or(4, |p| p.get());
        assert_eq!(exec.effective_threads(100), 4.min(cores));
        // Batches smaller than one minimum chunk run on a single worker —
        // the small-batch overhead fix.
        assert_eq!(exec.effective_threads(2), 1);
        assert_eq!(exec.effective_threads(MIN_REQUESTS_PER_WORKER - 1), 1);
        assert!(exec.effective_threads(2 * MIN_REQUESTS_PER_WORKER) <= 2);
        assert!(BatchExecutor::new(&idx).effective_threads(100) >= 1);
    }
}
