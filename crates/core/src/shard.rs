//! Sharded serving: partition → per-shard top-k → fault-tolerant merge.
//!
//! ROADMAP item 2(a): one monolithic index becomes a routing layer over
//! `P` partitions, so build time, rebuild amortization, and churn
//! isolation all drop by ~P. A routing layer is exactly where failures
//! live, so this one is born fault-tolerant:
//!
//! * **Partitioning** is by tuple id: shard `s` of `P` holds the tuples
//!   whose *global* handle `h` satisfies `h % P == s`, and each shard's
//!   [`DynamicIndex`] carries those global handles natively (via
//!   [`DynamicIndex::with_handles`]). Per-shard answers therefore come
//!   back as global ids and a k-way merge on `(score, handle)` — the
//!   exact comparator the unsharded dynamic index sorts with — is
//!   bit-identical to the unsharded answer.
//! * **Fan-out** probes every shard concurrently, each probe isolated
//!   with `catch_unwind` — the same per-request panic isolation contract
//!   [`crate::batch::BatchExecutor`] applies to guarded batch requests —
//!   so one shard's panic degrades coverage instead of killing the
//!   process.
//! * **Health** per shard is Up / Degraded / Down, driven by consecutive
//!   probe failures. A Down shard is skipped (no latency tax) until an
//!   operator or recovery path marks it up again.
//! * **Retry** of transiently failed probes is bounded, with
//!   deterministic jittered exponential backoff, and never sleeps past
//!   the request's own deadline.
//! * **Timeouts** are carved from the request's [`QueryBudget`]: each
//!   probe gets the request deadline tightened by the router's per-probe
//!   timeout. A probe that trips its *carved* deadline is a shard fault
//!   (retryable, health-affecting); a probe that trips the *request's*
//!   budget stops the request — the paper's Definition-9 cost bound and
//!   the true-prefix contract make that partial answer still exact over
//!   what it covers.
//! * **Degradation** is explicit: every routed answer carries a
//!   [`ShardCoverage`] naming the shards that answered. A merge over a
//!   subset of shards is the exact top-k over the union of the surviving
//!   partitions — never a guess.

use crate::batch::panic_message;
use crate::dynamic::{DynamicIndex, Handle};
use crate::query::{QueryBudget, TruncateReason};
use drtopk_common::{Cost, Error, Relation, Weights};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Hard cap on shard count: coverage travels as a 64-bit answered mask.
pub const MAX_SHARDS: usize = 64;

/// The shard a global handle lives on under `P`-way id partitioning.
#[inline]
pub fn shard_of(h: Handle, shards: usize) -> usize {
    (h % shards as u64) as usize
}

/// Splits a relation into `P` id-partitioned shards. Returns, per shard,
/// the shard-local relation and the strictly ascending *global* handles
/// of its tuples (tuple `t` of the input keeps handle `t`). Feed each
/// pair to [`DynamicIndex::with_handles`] to build the shard index.
pub fn partition_relation(
    rel: &Relation,
    shards: usize,
) -> Result<Vec<(Relation, Vec<Handle>)>, Error> {
    if shards == 0 || shards > MAX_SHARDS {
        return Err(Error::Invalid(format!(
            "shard count {shards} outside 1..={MAX_SHARDS}"
        )));
    }
    let dims = rel.dims();
    let mut flats: Vec<Vec<f64>> = vec![Vec::new(); shards];
    let mut handles: Vec<Vec<Handle>> = vec![Vec::new(); shards];
    for (t, row) in rel.iter() {
        let s = shard_of(t as Handle, shards);
        flats[s].extend_from_slice(row);
        handles[s].push(t as Handle);
    }
    Ok(flats
        .into_iter()
        .zip(handles)
        .map(|(flat, hs)| (Relation::from_flat_unchecked(dims, flat), hs))
        .collect())
}

/// Which shards contributed to a routed answer.
///
/// A compact bitmask (hence [`MAX_SHARDS`]): bit `s` set means shard `s`
/// answered. Full coverage means the answer is bit-identical to the
/// unsharded index's; partial coverage means it is the exact top-k over
/// the union of the answering shards' partitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardCoverage {
    total: u16,
    mask: u64,
}

impl ShardCoverage {
    /// Coverage over `total` shards with none answered yet.
    pub fn empty(total: usize) -> Self {
        debug_assert!((1..=MAX_SHARDS).contains(&total));
        ShardCoverage {
            total: total as u16,
            mask: 0,
        }
    }

    /// Coverage with every one of `total` shards answered.
    pub fn full(total: usize) -> Self {
        let mut c = ShardCoverage::empty(total);
        c.mask = if total >= 64 {
            u64::MAX
        } else {
            (1u64 << total) - 1
        };
        c
    }

    /// Reconstructs coverage from its wire form. Rejects an empty shard
    /// count, counts beyond [`MAX_SHARDS`], and mask bits at or above
    /// `total`.
    pub fn from_mask(total: u16, mask: u64) -> Result<Self, Error> {
        if total == 0 || total as usize > MAX_SHARDS {
            return Err(Error::Invalid(format!(
                "coverage shard count {total} outside 1..={MAX_SHARDS}"
            )));
        }
        let valid = if total >= 64 {
            u64::MAX
        } else {
            (1u64 << total) - 1
        };
        if mask & !valid != 0 {
            return Err(Error::Invalid(format!(
                "coverage mask {mask:#x} has bits beyond shard count {total}"
            )));
        }
        Ok(ShardCoverage { total, mask })
    }

    /// Records shard `s` as answered.
    pub fn mark(&mut self, s: usize) {
        debug_assert!(s < self.total as usize);
        self.mask |= 1u64 << s;
    }

    /// Whether shard `s` answered.
    pub fn covers(&self, s: usize) -> bool {
        s < self.total as usize && self.mask & (1u64 << s) != 0
    }

    /// Whether every shard answered.
    pub fn is_full(&self) -> bool {
        *self == ShardCoverage::full(self.total as usize)
    }

    /// Whether the answer is degraded (at least one shard skipped).
    pub fn degraded(&self) -> bool {
        !self.is_full()
    }

    /// Total shard count.
    pub fn total(&self) -> usize {
        self.total as usize
    }

    /// The answered-shards bitmask (wire form).
    pub fn mask(&self) -> u64 {
        self.mask
    }

    /// Shards that answered, ascending.
    pub fn answered(&self) -> Vec<usize> {
        (0..self.total as usize)
            .filter(|&s| self.covers(s))
            .collect()
    }

    /// Shards that did not answer, ascending.
    pub fn skipped(&self) -> Vec<usize> {
        (0..self.total as usize)
            .filter(|&s| !self.covers(s))
            .collect()
    }
}

/// Router-maintained health of one shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardHealth {
    /// Answering normally.
    Up,
    /// Failing, but below the Down threshold: still probed.
    Degraded,
    /// Past the failure threshold (or cordoned): skipped until restored.
    Down,
}

/// Why one shard probe failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardError {
    /// The probe panicked; isolated by the router's `catch_unwind`.
    Panic(String),
    /// An I/O-style error (a poisoned store, an injected fault).
    Io(String),
    /// The probe tripped its carved per-shard deadline.
    Timeout,
    /// The probe's answer was truncated by the budget it ran under. The
    /// router classifies this: a trip of the carved per-shard deadline
    /// becomes [`ShardError::Timeout`]; a trip of the request's own
    /// budget stops the request instead of faulting the shard.
    Truncated(TruncateReason),
    /// The shard is administratively unavailable (e.g. mid-replace).
    Unavailable(String),
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::Panic(m) => write!(f, "shard probe panicked: {m}"),
            ShardError::Io(m) => write!(f, "shard I/O error: {m}"),
            ShardError::Timeout => write!(f, "shard probe timed out"),
            ShardError::Truncated(r) => write!(f, "shard probe truncated: {r}"),
            ShardError::Unavailable(m) => write!(f, "shard unavailable: {m}"),
        }
    }
}

impl std::error::Error for ShardError {}

/// Bounded retry with deterministic jittered exponential backoff.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Retries after the first attempt (0 = no retry).
    pub max_retries: u32,
    /// Backoff before the first retry; doubles per retry.
    pub base_backoff: Duration,
    /// Cap on the (pre-jitter) backoff.
    pub max_backoff: Duration,
    /// Seed for the jitter; fixed seed → reproducible schedules.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 2,
            base_backoff: Duration::from_millis(2),
            max_backoff: Duration::from_millis(50),
            jitter_seed: 0x5EED_CAFE,
        }
    }
}

/// One step of xorshift64* — cheap deterministic pseudo-randomness for
/// jitter (no RNG dependency on the serving path).
fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

impl RetryPolicy {
    /// The jittered backoff before retry number `attempt` (0-based) for a
    /// probe salted with `salt` (shard id): exponential, capped, scaled
    /// by a deterministic factor in `[0.5, 1.5)` so retrying shards
    /// de-synchronize.
    pub fn backoff(&self, attempt: u32, salt: u64) -> Duration {
        let exp = self.base_backoff.saturating_mul(1u32 << attempt.min(16));
        let capped = exp.min(self.max_backoff);
        let bits = xorshift(
            self.jitter_seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (u64::from(attempt) + 1),
        );
        let frac = (bits >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
        capped.mul_f64(0.5 + frac)
    }
}

/// A scored answer row from one shard: `(score, global handle)`.
pub type ScoredHit = (f64, Handle);

/// What one successful shard probe returns: the shard's exact top-k
/// (ascending by `(score, handle)`) plus its Definition-9 cost.
pub type ShardAnswer = (Vec<ScoredHit>, Cost);

/// One queryable shard. Implementations must be cheap to probe
/// concurrently (`&self`) and are responsible for reporting truncation
/// via [`ShardError::Truncated`] — the router never merges a partial
/// shard answer, because a missing middle would break the merged
/// prefix's exactness.
pub trait ShardProbe: Send + Sync {
    /// Exact top-`k` over this shard's live tuples under `budget`.
    fn probe(&self, w: &Weights, k: usize, budget: &QueryBudget)
        -> Result<ShardAnswer, ShardError>;

    /// Attribute dimensionality (must agree across shards).
    fn dims(&self) -> usize;
}

impl ShardProbe for DynamicIndex {
    fn probe(
        &self,
        w: &Weights,
        k: usize,
        budget: &QueryBudget,
    ) -> Result<ShardAnswer, ShardError> {
        let g = self.topk_guarded(w, k, budget);
        if let Some(r) = g.truncated {
            return Err(ShardError::Truncated(r));
        }
        let hits = g
            .ids
            .iter()
            .map(|&h| (w.score(self.get(h).expect("answer handle is live")), h))
            .collect();
        Ok((hits, g.cost))
    }

    fn dims(&self) -> usize {
        DynamicIndex::dims(self)
    }
}

/// K-way merges per-shard answers (each ascending by `(score, handle)`)
/// into the global top-`k`, using the *same* comparator the unsharded
/// [`DynamicIndex::topk`] sorts with — `(score, handle)` lexicographic —
/// so a full-coverage merge is bit-identical to the unsharded answer.
pub fn merge_scored(k: usize, lists: &[Vec<ScoredHit>]) -> Vec<Handle> {
    struct Head {
        score: f64,
        handle: Handle,
        src: usize,
        pos: usize,
    }
    impl PartialEq for Head {
        fn eq(&self, other: &Self) -> bool {
            self.score == other.score && self.handle == other.handle
        }
    }
    impl Eq for Head {}
    impl PartialOrd for Head {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for Head {
        fn cmp(&self, other: &Self) -> Ordering {
            // Reversed: BinaryHeap is a max-heap, we pop the minimum.
            other
                .score
                .partial_cmp(&self.score)
                .expect("scores are finite")
                .then(other.handle.cmp(&self.handle))
        }
    }
    let mut heap = BinaryHeap::with_capacity(lists.len());
    for (src, list) in lists.iter().enumerate() {
        if let Some(&(score, handle)) = list.first() {
            heap.push(Head {
                score,
                handle,
                src,
                pos: 0,
            });
        }
    }
    let mut out = Vec::with_capacity(k.min(lists.iter().map(Vec::len).sum()));
    while out.len() < k {
        let Some(head) = heap.pop() else { break };
        out.push(head.handle);
        let next = head.pos + 1;
        if let Some(&(score, handle)) = lists[head.src].get(next) {
            heap.push(Head {
                score,
                handle,
                src: head.src,
                pos: next,
            });
        }
    }
    out
}

/// Router tunables.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Retry schedule for transiently failed probes.
    pub retry: RetryPolicy,
    /// Per-probe timeout carved from the request budget. `None` means a
    /// probe is bounded only by the request's own deadline.
    pub probe_timeout: Option<Duration>,
    /// Consecutive failures after which a shard goes Down (skipped);
    /// below this it is Degraded (still probed). Minimum 1.
    pub down_after: u32,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            retry: RetryPolicy::default(),
            probe_timeout: None,
            down_after: 3,
        }
    }
}

/// Result of one routed top-k query.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedTopk {
    /// Merged answer, ascending by `(score, handle)`. Exact over the
    /// covered shards' partitions; bit-identical to the unsharded answer
    /// when coverage is full and no budget tripped.
    pub ids: Vec<Handle>,
    /// Summed Definition-9 cost across the shards that answered.
    pub cost: Cost,
    /// `Some` when the *request's* budget stopped at least one probe.
    pub truncated: Option<TruncateReason>,
    /// Which shards contributed.
    pub coverage: ShardCoverage,
    /// Shards that failed past their retry budget this request, with the
    /// final error (skipped-while-Down shards are not listed — see
    /// [`ShardCoverage::skipped`] for the full set).
    pub failures: Vec<(usize, ShardError)>,
}

#[derive(Debug)]
struct HealthSlot {
    state: ShardHealth,
    consecutive_failures: u32,
}

/// Outcome of one probe-with-retry, per shard.
enum ProbeOutcome {
    Answered(ShardAnswer),
    Failed(ShardError),
    RequestStopped(TruncateReason),
    Skipped,
}

/// Fault-tolerant fan-out/merge router over `P` shards.
///
/// Generic over [`ShardProbe`] so the core crate can route over plain
/// [`DynamicIndex`] shards (tests, embedded use) while the server routes
/// over durable, failpoint-instrumented shards.
pub struct ShardRouter<S: ShardProbe> {
    shards: Vec<S>,
    health: Mutex<Vec<HealthSlot>>,
    cfg: RouterConfig,
    dims: usize,
}

impl<S: ShardProbe> std::fmt::Debug for ShardRouter<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardRouter")
            .field("shards", &self.shards.len())
            .field("health", &self.health())
            .field("cfg", &self.cfg)
            .finish()
    }
}

impl<S: ShardProbe> ShardRouter<S> {
    /// Builds a router over `shards` (1..=[`MAX_SHARDS`], agreeing
    /// dimensionalities). All shards start Up.
    pub fn new(shards: Vec<S>, mut cfg: RouterConfig) -> Result<Self, Error> {
        if shards.is_empty() || shards.len() > MAX_SHARDS {
            return Err(Error::Invalid(format!(
                "shard count {} outside 1..={MAX_SHARDS}",
                shards.len()
            )));
        }
        let dims = shards[0].dims();
        for (s, shard) in shards.iter().enumerate() {
            if shard.dims() != dims {
                return Err(Error::Invalid(format!(
                    "shard {s} has {} dims, shard 0 has {dims}",
                    shard.dims()
                )));
            }
        }
        cfg.down_after = cfg.down_after.max(1);
        let health = (0..shards.len())
            .map(|_| HealthSlot {
                state: ShardHealth::Up,
                consecutive_failures: 0,
            })
            .collect();
        let router = ShardRouter {
            shards,
            health: Mutex::new(health),
            cfg,
            dims,
        };
        router.publish_health();
        Ok(router)
    }

    /// Shard count.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Direct access to shard `s` (tests, replace-on-recovery paths).
    pub fn shard(&self, s: usize) -> &S {
        &self.shards[s]
    }

    /// Attribute dimensionality of every shard.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Router configuration.
    pub fn config(&self) -> &RouterConfig {
        &self.cfg
    }

    /// Current health, indexed by shard.
    pub fn health(&self) -> Vec<ShardHealth> {
        self.health
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|h| h.state)
            .collect()
    }

    /// Administratively takes shard `s` Down: it is skipped until
    /// [`ShardRouter::mark_up`].
    pub fn cordon(&self, s: usize) {
        {
            let mut health = self.health.lock().unwrap_or_else(|e| e.into_inner());
            health[s].state = ShardHealth::Down;
            health[s].consecutive_failures = self.cfg.down_after;
        }
        self.publish_health();
    }

    /// Restores shard `s` to Up with a clean failure count (the recovery
    /// path calls this after swapping a reopened store in).
    pub fn mark_up(&self, s: usize) {
        {
            let mut health = self.health.lock().unwrap_or_else(|e| e.into_inner());
            health[s].state = ShardHealth::Up;
            health[s].consecutive_failures = 0;
        }
        self.publish_health();
    }

    fn record_success(&self, s: usize) {
        let changed = {
            let mut health = self.health.lock().unwrap_or_else(|e| e.into_inner());
            let slot = &mut health[s];
            let changed = slot.state != ShardHealth::Up;
            slot.state = ShardHealth::Up;
            slot.consecutive_failures = 0;
            changed
        };
        if changed {
            self.publish_health();
        }
    }

    fn record_failure(&self, s: usize) {
        {
            let mut health = self.health.lock().unwrap_or_else(|e| e.into_inner());
            let slot = &mut health[s];
            // A cordoned/Down shard stays Down; failures past the
            // threshold don't need recounting.
            slot.consecutive_failures = slot.consecutive_failures.saturating_add(1);
            slot.state = if slot.consecutive_failures >= self.cfg.down_after {
                ShardHealth::Down
            } else {
                ShardHealth::Degraded
            };
        }
        self.publish_health();
    }

    fn publish_health(&self) {
        let (mut up, mut degraded, mut down) = (0u64, 0u64, 0u64);
        for h in self.health.lock().unwrap_or_else(|e| e.into_inner()).iter() {
            match h.state {
                ShardHealth::Up => up += 1,
                ShardHealth::Degraded => degraded += 1,
                ShardHealth::Down => down += 1,
            }
        }
        drtopk_obs::metrics().set_shard_health(up, degraded, down);
    }

    /// The per-probe budget: the request's cost cap and cancel flag as-is
    /// (they are request-scoped), with the deadline tightened by the
    /// router's per-probe timeout.
    fn carve(&self, budget: &QueryBudget) -> QueryBudget {
        let mut carved = QueryBudget::unlimited();
        let mut deadline = budget.deadline();
        if let Some(t) = self.cfg.probe_timeout {
            let cap = Instant::now() + t;
            deadline = Some(deadline.map_or(cap, |d| d.min(cap)));
        }
        if let Some(d) = deadline {
            carved = carved.with_deadline(d);
        }
        if let Some(c) = budget.max_cost() {
            carved = carved.with_max_cost(c);
        }
        if let Some(f) = budget.cancel_flag() {
            carved = carved.with_cancel_flag(f);
        }
        carved
    }

    fn probe_with_retry(
        &self,
        s: usize,
        w: &Weights,
        k: usize,
        budget: &QueryBudget,
    ) -> ProbeOutcome {
        let m = drtopk_obs::metrics();
        let mut attempt = 0u32;
        loop {
            m.shard_probes.add(1);
            let carved = self.carve(budget);
            let shard = &self.shards[s];
            let outcome = catch_unwind(AssertUnwindSafe(|| shard.probe(w, k, &carved)));
            let err = match outcome {
                Ok(Ok(answer)) => {
                    self.record_success(s);
                    return ProbeOutcome::Answered(answer);
                }
                Ok(Err(e)) => e,
                Err(payload) => ShardError::Panic(panic_message(payload.as_ref())),
            };
            let request_expired = budget.deadline().is_some_and(|d| Instant::now() >= d);
            let fault = match err {
                ShardError::Truncated(TruncateReason::Deadline)
                    if self.cfg.probe_timeout.is_some() && !request_expired =>
                {
                    // The carved per-shard deadline tripped while the
                    // request still has time: that's the shard stalling.
                    ShardError::Timeout
                }
                ShardError::Truncated(r) => {
                    // The request's own budget tripped: stop the request;
                    // the shard takes no health penalty.
                    return ProbeOutcome::RequestStopped(r);
                }
                other => other,
            };
            m.shard_probe_failures.add(1);
            self.record_failure(s);
            if attempt >= self.cfg.retry.max_retries {
                return ProbeOutcome::Failed(fault);
            }
            let delay = self.cfg.retry.backoff(attempt, s as u64);
            if let Some(d) = budget.deadline() {
                if Instant::now() + delay >= d {
                    // No time left to retry inside the request.
                    return ProbeOutcome::Failed(fault);
                }
            }
            m.shard_retries.add(1);
            std::thread::sleep(delay);
            attempt += 1;
        }
    }

    /// Routed top-k: fan out to every non-Down shard, retry transient
    /// failures, and heap-merge k-from-each into the global answer.
    ///
    /// The returned [`ShardedTopk::coverage`] names the shards whose full
    /// top-k entered the merge; the answer is exact over exactly those
    /// partitions. `truncated` is set only when the *request's* budget
    /// (deadline / cost cap / cancellation) stopped a probe — shard
    /// faults degrade coverage instead.
    pub fn topk(&self, w: &Weights, k: usize, budget: &QueryBudget) -> ShardedTopk {
        let p = self.shards.len();
        let skip: Vec<bool> = self
            .health()
            .into_iter()
            .map(|h| h == ShardHealth::Down)
            .collect();
        let outcomes: Vec<ProbeOutcome> = std::thread::scope(|scope| {
            let joins: Vec<_> = (0..p)
                .map(|s| {
                    if skip[s] {
                        None
                    } else {
                        Some(scope.spawn(move || self.probe_with_retry(s, w, k, budget)))
                    }
                })
                .collect();
            joins
                .into_iter()
                .map(|j| match j {
                    None => ProbeOutcome::Skipped,
                    Some(handle) => handle.join().unwrap_or_else(|_| {
                        ProbeOutcome::Failed(ShardError::Panic("probe thread died".into()))
                    }),
                })
                .collect()
        });
        let mut coverage = ShardCoverage::empty(p);
        let mut truncated: Option<TruncateReason> = None;
        let mut cost = Cost::new();
        let mut lists: Vec<Vec<ScoredHit>> = Vec::with_capacity(p);
        let mut failures: Vec<(usize, ShardError)> = Vec::new();
        for (s, outcome) in outcomes.into_iter().enumerate() {
            match outcome {
                ProbeOutcome::Answered((hits, c)) => {
                    coverage.mark(s);
                    cost.merge(&c);
                    lists.push(hits);
                }
                ProbeOutcome::RequestStopped(r) => {
                    truncated.get_or_insert(r);
                }
                ProbeOutcome::Failed(e) => failures.push((s, e)),
                ProbeOutcome::Skipped => {}
            }
        }
        if coverage.degraded() && truncated.is_none() {
            drtopk_obs::metrics().shard_degraded_answers.add(1);
        }
        ShardedTopk {
            ids: merge_scored(k, &lists),
            cost,
            truncated,
            coverage,
            failures,
        }
    }
}

/// Tunables for a [`ReplicaSet`].
#[derive(Debug, Clone, Default)]
pub struct ReplicaConfig {
    /// Launch a hedged probe on the next candidate replica when the one
    /// in flight has not answered after this long — a slow-but-alive
    /// replica then races a fresh one and whichever answers first wins
    /// (answers are bit-identical, so the race is safe). `None` disables
    /// hedging: replicas are only tried after a hard failure.
    pub hedge_after: Option<Duration>,
}

/// N interchangeable replicas of one logical shard, presented to the
/// router as a single [`ShardProbe`].
///
/// Every replica holds the same id-partition, so any replica's answer is
/// bit-identical to any other's — which is what makes primary-first
/// failover and hedged probes invisible to the merge. A probe walks the
/// replicas in preference order (endpoints believed up first), failing
/// over on transport-class errors ([`ShardError::Panic`] / [`Io`](ShardError::Io) /
/// [`Timeout`](ShardError::Timeout) / [`Unavailable`](ShardError::Unavailable));
/// a [`ShardError::Truncated`] answer surfaces immediately — the budget
/// that tripped is request-scoped, so a different replica would only
/// repeat it.
///
/// Up/down beliefs are per-endpoint [`AtomicBool`]s, updated by probe
/// outcomes and (in the server) by the background health pinger via
/// [`ReplicaSet::set_up`]. A believed-down endpoint is still tried as a
/// last resort when everything else failed — beliefs order the walk,
/// they never amputate it.
pub struct ReplicaSet<P: ShardProbe + 'static> {
    replicas: Vec<Arc<P>>,
    up: Vec<AtomicBool>,
    cfg: ReplicaConfig,
    dims: usize,
}

impl<P: ShardProbe> std::fmt::Debug for ReplicaSet<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplicaSet")
            .field("replicas", &self.replicas.len())
            .field(
                "up",
                &(0..self.replicas.len())
                    .map(|i| self.is_up(i))
                    .collect::<Vec<_>>(),
            )
            .field("cfg", &self.cfg)
            .finish()
    }
}

impl<P: ShardProbe> ReplicaSet<P> {
    /// Builds a replica set (1..=N endpoints, agreeing dimensionalities,
    /// preference order = vector order). All endpoints start up.
    pub fn new(replicas: Vec<Arc<P>>, cfg: ReplicaConfig) -> Result<Self, Error> {
        if replicas.is_empty() {
            return Err(Error::Invalid("replica set cannot be empty".to_string()));
        }
        let dims = replicas[0].dims();
        for (i, r) in replicas.iter().enumerate() {
            if r.dims() != dims {
                return Err(Error::Invalid(format!(
                    "replica {i} has {} dims, replica 0 has {dims}",
                    r.dims()
                )));
            }
        }
        let up = (0..replicas.len()).map(|_| AtomicBool::new(true)).collect();
        Ok(ReplicaSet {
            replicas,
            up,
            cfg,
            dims,
        })
    }

    /// Number of replicas.
    pub fn len(&self) -> usize {
        self.replicas.len()
    }

    /// Always false: construction rejects empty sets.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Direct access to replica `i` (pinger, metrics labels).
    pub fn replica(&self, i: usize) -> &Arc<P> {
        &self.replicas[i]
    }

    /// Current belief about endpoint `i`.
    pub fn is_up(&self, i: usize) -> bool {
        self.up[i].load(SeqCst)
    }

    /// Sets the belief about endpoint `i` (probe outcomes and the health
    /// pinger both feed this).
    pub fn set_up(&self, i: usize, up: bool) {
        self.up[i].store(up, SeqCst);
    }

    /// The walk order for one probe: endpoints believed up first, then
    /// believed-down ones as a last resort, preference order within each
    /// class.
    fn candidate_order(&self) -> Vec<usize> {
        let n = self.replicas.len();
        (0..n)
            .filter(|&i| self.is_up(i))
            .chain((0..n).filter(|&i| !self.is_up(i)))
            .collect()
    }

    /// Launches replica `idx` on a detached thread reporting into `tx`.
    /// Detached (not scoped) on purpose: a hedged winner must be able to
    /// return while the loser is still stalled in its probe.
    fn launch(
        &self,
        idx: usize,
        w: &Weights,
        k: usize,
        budget: &QueryBudget,
        tx: &mpsc::Sender<(usize, Result<ShardAnswer, ShardError>)>,
    ) {
        let replica = Arc::clone(&self.replicas[idx]);
        let w = w.clone();
        let budget = budget.clone();
        let tx = tx.clone();
        std::thread::spawn(move || {
            let out = catch_unwind(AssertUnwindSafe(|| replica.probe(&w, k, &budget)))
                .unwrap_or_else(|p| Err(ShardError::Panic(panic_message(p.as_ref()))));
            // The receiver is gone once a winner returned; losers drop out.
            let _ = tx.send((idx, out));
        });
    }
}

impl<P: ShardProbe> ShardProbe for ReplicaSet<P> {
    fn probe(
        &self,
        w: &Weights,
        k: usize,
        budget: &QueryBudget,
    ) -> Result<ShardAnswer, ShardError> {
        let m = drtopk_obs::metrics();
        let order = self.candidate_order();
        let (tx, rx) = mpsc::channel();
        let mut next = 0usize; // next candidate in `order` to launch
        let mut outstanding = 0usize;
        self.launch(order[next], w, k, budget, &tx);
        next += 1;
        outstanding += 1;
        loop {
            // Hedge only while an unlaunched candidate remains.
            let msg = match self.cfg.hedge_after {
                Some(t) if next < order.len() => match rx.recv_timeout(t) {
                    Ok(msg) => Some(msg),
                    Err(mpsc::RecvTimeoutError::Timeout) => None,
                    Err(mpsc::RecvTimeoutError::Disconnected) => {
                        unreachable!("probe() holds a sender")
                    }
                },
                _ => Some(rx.recv().expect("probe() holds a sender")),
            };
            match msg {
                None => {
                    // Latency threshold tripped: race a fresh replica.
                    m.shard_hedges.add(1);
                    self.launch(order[next], w, k, budget, &tx);
                    next += 1;
                    outstanding += 1;
                }
                Some((idx, Ok(answer))) => {
                    self.set_up(idx, true);
                    return Ok(answer);
                }
                Some((_, Err(ShardError::Truncated(r)))) => {
                    // Request-scoped budget trip: retrying elsewhere can
                    // only repeat it. Surface for the router to classify.
                    return Err(ShardError::Truncated(r));
                }
                Some((idx, Err(e))) => {
                    // Transport-class fault: this endpoint is suspect.
                    self.set_up(idx, false);
                    outstanding -= 1;
                    if next < order.len() {
                        m.shard_failovers.add(1);
                        self.launch(order[next], w, k, budget, &tx);
                        next += 1;
                        outstanding += 1;
                    } else if outstanding == 0 {
                        // Every replica walked, every probe failed: the
                        // freshest error describes the set best.
                        return Err(e);
                    }
                    // Otherwise a hedged probe is still in flight — wait.
                }
            }
        }
    }

    fn dims(&self) -> usize {
        self.dims
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::DlOptions;
    use drtopk_common::{Distribution, WorkloadSpec};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::sync::atomic::{AtomicU32, Ordering::SeqCst};

    fn build_shards(rel: &Relation, p: usize) -> Vec<DynamicIndex> {
        partition_relation(rel, p)
            .unwrap()
            .into_iter()
            .map(|(shard_rel, handles)| {
                DynamicIndex::with_handles(&shard_rel, handles, DlOptions::dl_plus(), 0.3).unwrap()
            })
            .collect()
    }

    #[test]
    fn partition_covers_every_tuple_once() {
        let rel = WorkloadSpec::new(Distribution::Independent, 3, 101, 11).generate();
        let parts = partition_relation(&rel, 4).unwrap();
        let mut seen = vec![false; rel.len()];
        for (s, (shard_rel, handles)) in parts.iter().enumerate() {
            assert_eq!(shard_rel.len(), handles.len());
            for (i, &h) in handles.iter().enumerate() {
                assert_eq!(shard_of(h, 4), s);
                assert!(!seen[h as usize], "handle {h} assigned twice");
                seen[h as usize] = true;
                assert_eq!(shard_rel.tuple(i as u32), rel.tuple(h as u32));
            }
        }
        assert!(seen.iter().all(|&b| b), "every tuple lands on a shard");
        assert!(partition_relation(&rel, 0).is_err());
        assert!(partition_relation(&rel, MAX_SHARDS + 1).is_err());
    }

    #[test]
    fn sharded_topk_is_bit_identical_to_unsharded() {
        let mut rng = StdRng::seed_from_u64(0xD15C);
        for &(d, n, p) in &[(2usize, 300usize, 2usize), (3, 400, 3), (4, 257, 7)] {
            let rel = WorkloadSpec::new(Distribution::AntiCorrelated, d, n, 5).generate();
            let oracle = DynamicIndex::new(&rel, DlOptions::dl_plus(), 0.3);
            let router = ShardRouter::new(build_shards(&rel, p), RouterConfig::default()).unwrap();
            for _ in 0..20 {
                let w = Weights::random(d, &mut rng);
                let k = rng.gen_range(1..=40);
                let routed = router.topk(&w, k, &QueryBudget::unlimited());
                let (expect, _) = oracle.topk(&w, k);
                assert_eq!(routed.ids, expect, "d={d} p={p} k={k}");
                assert!(routed.coverage.is_full());
                assert!(routed.truncated.is_none());
            }
        }
    }

    #[test]
    fn merge_matches_flat_sort() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..50 {
            let lists: Vec<Vec<ScoredHit>> = (0..rng.gen_range(1..6))
                .map(|s| {
                    let mut l: Vec<ScoredHit> = (0..rng.gen_range(0..30))
                        .map(|i| {
                            // Coarse scores force ties; handles stay
                            // distinct across lists via the shard stride.
                            (rng.gen_range(0..8) as f64 / 8.0, (i * 6 + s) as Handle)
                        })
                        .collect();
                    l.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
                    l
                })
                .collect();
            let k = rng.gen_range(1..40);
            let mut flat: Vec<ScoredHit> = lists.iter().flatten().copied().collect();
            flat.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
            let expect: Vec<Handle> = flat.into_iter().take(k).map(|(_, h)| h).collect();
            assert_eq!(merge_scored(k, &lists), expect);
        }
    }

    #[test]
    fn coverage_mask_roundtrip_and_validation() {
        let mut c = ShardCoverage::empty(5);
        assert!(c.degraded());
        for s in [0usize, 2, 4] {
            c.mark(s);
        }
        assert_eq!(c.answered(), vec![0, 2, 4]);
        assert_eq!(c.skipped(), vec![1, 3]);
        let back = ShardCoverage::from_mask(5, c.mask()).unwrap();
        assert_eq!(back, c);
        assert!(ShardCoverage::from_mask(0, 0).is_err());
        assert!(ShardCoverage::from_mask(5, 1 << 5).is_err(), "stray bit");
        assert!(ShardCoverage::from_mask(65, 0).is_err());
        assert!(ShardCoverage::full(64).is_full());
    }

    /// A probe double that fails its first `fail_first` probes, then
    /// delegates to a real shard.
    struct Flaky {
        inner: DynamicIndex,
        fail_first: u32,
        calls: AtomicU32,
        error: ShardError,
    }

    impl ShardProbe for Flaky {
        fn probe(
            &self,
            w: &Weights,
            k: usize,
            budget: &QueryBudget,
        ) -> Result<ShardAnswer, ShardError> {
            let n = self.calls.fetch_add(1, SeqCst);
            if n < self.fail_first {
                if matches!(self.error, ShardError::Panic(_)) {
                    panic!("flaky shard panicking on purpose");
                }
                return Err(self.error.clone());
            }
            self.inner.probe(w, k, budget)
        }

        fn dims(&self) -> usize {
            ShardProbe::dims(&self.inner)
        }
    }

    fn flaky_router(
        rel: &Relation,
        p: usize,
        flaky_shard: usize,
        fail_first: u32,
        error: ShardError,
        cfg: RouterConfig,
    ) -> ShardRouter<Flaky> {
        let shards: Vec<Flaky> = build_shards(rel, p)
            .into_iter()
            .enumerate()
            .map(|(s, inner)| Flaky {
                inner,
                fail_first: if s == flaky_shard { fail_first } else { 0 },
                calls: AtomicU32::new(0),
                error: error.clone(),
            })
            .collect();
        ShardRouter::new(shards, cfg).unwrap()
    }

    #[test]
    fn retry_recovers_a_transient_failure() {
        let d = 3;
        let rel = WorkloadSpec::new(Distribution::Independent, d, 200, 3).generate();
        let oracle = DynamicIndex::new(&rel, DlOptions::dl_plus(), 0.3);
        let cfg = RouterConfig {
            retry: RetryPolicy {
                max_retries: 2,
                base_backoff: Duration::from_micros(100),
                max_backoff: Duration::from_millis(1),
                jitter_seed: 1,
            },
            ..RouterConfig::default()
        };
        let router = flaky_router(&rel, 3, 1, 1, ShardError::Io("transient".into()), cfg);
        let w = Weights::uniform(d);
        let routed = router.topk(&w, 10, &QueryBudget::unlimited());
        assert!(routed.coverage.is_full(), "retry must recover coverage");
        assert_eq!(routed.ids, oracle.topk(&w, 10).0);
        assert_eq!(
            router.health(),
            vec![ShardHealth::Up; 3],
            "a recovered shard is Up again"
        );
    }

    #[test]
    fn degraded_answer_matches_surviving_partition_oracle() {
        let d = 3;
        let p = 4;
        let dead = 2usize;
        let rel = WorkloadSpec::new(Distribution::Correlated, d, 350, 17).generate();
        let cfg = RouterConfig {
            retry: RetryPolicy {
                max_retries: 0,
                ..RetryPolicy::default()
            },
            down_after: 1,
            ..RouterConfig::default()
        };
        let router = flaky_router(
            &rel,
            p,
            dead,
            u32::MAX,
            ShardError::Io("dead disk".into()),
            cfg,
        );
        // Survivor oracle: an unsharded index over every partition except
        // the dead shard's.
        let mut flat = Vec::new();
        let mut handles = Vec::new();
        for (t, row) in rel.iter() {
            if shard_of(t as Handle, p) != dead {
                flat.extend_from_slice(row);
                handles.push(t as Handle);
            }
        }
        let survivors = Relation::from_flat_unchecked(d, flat);
        let oracle =
            DynamicIndex::with_handles(&survivors, handles, DlOptions::dl_plus(), 0.3).unwrap();
        let mut rng = StdRng::seed_from_u64(99);
        for round in 0..5 {
            let w = Weights::random(d, &mut rng);
            let routed = router.topk(&w, 12, &QueryBudget::unlimited());
            assert_eq!(routed.ids, oracle.topk(&w, 12).0, "round {round}");
            assert!(routed.coverage.degraded());
            assert_eq!(routed.coverage.skipped(), vec![dead]);
            assert!(routed.truncated.is_none());
        }
        assert_eq!(router.health()[dead], ShardHealth::Down);
        // Down ⇒ skipped: the flaky shard saw exactly one probe.
        assert_eq!(router.shard(dead).calls.load(SeqCst), 1);
    }

    #[test]
    fn panic_is_isolated_and_health_degrades_then_downs() {
        let d = 2;
        let rel = WorkloadSpec::new(Distribution::Independent, d, 150, 23).generate();
        let cfg = RouterConfig {
            retry: RetryPolicy {
                max_retries: 0,
                ..RetryPolicy::default()
            },
            down_after: 2,
            ..RouterConfig::default()
        };
        let router = flaky_router(&rel, 2, 0, u32::MAX, ShardError::Panic("boom".into()), cfg);
        let w = Weights::uniform(d);
        let r1 = router.topk(&w, 5, &QueryBudget::unlimited());
        assert!(r1.coverage.degraded());
        assert_eq!(router.health()[0], ShardHealth::Degraded, "one strike");
        let r2 = router.topk(&w, 5, &QueryBudget::unlimited());
        assert!(r2.coverage.degraded());
        assert_eq!(router.health()[0], ShardHealth::Down, "two strikes");
        // Recovery: operator marks the shard up; the next probe succeeds
        // (the Flaky double only panics below `fail_first`, which is
        // irrelevant here — swap in a clean count).
        router.shard(0).calls.store(u32::MAX, SeqCst);
        router.mark_up(0);
        let r3 = router.topk(&w, 5, &QueryBudget::unlimited());
        assert!(r3.coverage.is_full(), "rejoined shard serves again");
        assert_eq!(router.health()[0], ShardHealth::Up);
    }

    #[test]
    fn cordon_skips_without_probing() {
        let d = 2;
        let rel = WorkloadSpec::new(Distribution::Independent, d, 100, 5).generate();
        let router = flaky_router(
            &rel,
            2,
            0,
            0,
            ShardError::Io("unused".into()),
            RouterConfig::default(),
        );
        router.cordon(1);
        let w = Weights::uniform(d);
        let routed = router.topk(&w, 5, &QueryBudget::unlimited());
        assert_eq!(routed.coverage.skipped(), vec![1]);
        assert_eq!(router.shard(1).calls.load(SeqCst), 0, "no probe while Down");
        router.mark_up(1);
        assert!(router
            .topk(&w, 5, &QueryBudget::unlimited())
            .coverage
            .is_full());
    }

    #[test]
    fn request_budget_trip_is_not_a_shard_fault() {
        let d = 3;
        let rel = WorkloadSpec::new(Distribution::Independent, d, 300, 31).generate();
        let router = ShardRouter::new(build_shards(&rel, 3), RouterConfig::default()).unwrap();
        let w = Weights::uniform(d);
        // A deadline that already passed: every probe request-stops.
        let expired =
            QueryBudget::unlimited().with_deadline(Instant::now() - Duration::from_millis(1));
        let routed = router.topk(&w, 10, &expired);
        assert_eq!(routed.truncated, Some(TruncateReason::Deadline));
        assert_eq!(
            router.health(),
            vec![ShardHealth::Up; 3],
            "request-budget trips must not penalize shard health"
        );
    }

    #[test]
    fn backoff_is_deterministic_bounded_and_jittered() {
        let p = RetryPolicy::default();
        for attempt in 0..6 {
            for salt in 0..4u64 {
                let a = p.backoff(attempt, salt);
                let b = p.backoff(attempt, salt);
                assert_eq!(a, b, "deterministic for fixed (attempt, salt)");
                assert!(a <= p.max_backoff.mul_f64(1.5));
                assert!(a >= p.base_backoff.mul_f64(0.5));
            }
        }
        assert_ne!(
            p.backoff(0, 0),
            p.backoff(0, 1),
            "different shards de-synchronize"
        );
    }

    #[test]
    fn backoff_jitter_stays_in_half_open_band() {
        // The jitter factor is specified as [0.5, 1.5) of the capped
        // exponential. Sweep a dense grid of (attempt, salt) pairs and
        // check the band from the pre-jitter schedule.
        let p = RetryPolicy {
            max_retries: 8,
            base_backoff: Duration::from_micros(800),
            max_backoff: Duration::from_millis(40),
            jitter_seed: 0xA5A5,
        };
        for attempt in 0..10u32 {
            let exp = p.base_backoff.saturating_mul(1u32 << attempt.min(16));
            let capped = exp.min(p.max_backoff);
            for salt in 0..64u64 {
                let b = p.backoff(attempt, salt);
                assert!(b >= capped.mul_f64(0.5), "attempt {attempt} salt {salt}");
                assert!(b < capped.mul_f64(1.5), "attempt {attempt} salt {salt}");
            }
        }
    }

    #[test]
    fn backoff_caps_at_max_backoff() {
        let p = RetryPolicy {
            max_retries: 32,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(8),
            jitter_seed: 7,
        };
        // Past the cap, the pre-jitter schedule is flat at max_backoff.
        for attempt in 4..12u32 {
            for salt in 0..8u64 {
                let b = p.backoff(attempt, salt);
                assert!(b < p.max_backoff.mul_f64(1.5));
                assert!(b >= p.max_backoff.mul_f64(0.5));
            }
        }
    }

    #[test]
    fn backoff_survives_huge_attempt_numbers() {
        // The exponent is clamped and the multiply saturates: attempt
        // numbers near u32::MAX must neither overflow nor panic.
        let p = RetryPolicy::default();
        for attempt in [17, 31, 64, 1 << 20, u32::MAX - 1, u32::MAX] {
            let b = p.backoff(attempt, 3);
            assert!(b <= p.max_backoff.mul_f64(1.5));
        }
        // Degenerate policies stay finite too.
        let huge = RetryPolicy {
            base_backoff: Duration::from_secs(u64::MAX / 4),
            max_backoff: Duration::from_secs(u64::MAX / 2),
            ..RetryPolicy::default()
        };
        let _ = huge.backoff(u32::MAX, u64::MAX);
    }

    #[test]
    fn backoff_salts_desynchronize_schedules() {
        // Two probes retrying in lockstep must not sleep identical
        // schedules: across the first few attempts, distinct salts have
        // to disagree somewhere.
        let p = RetryPolicy::default();
        for (a, b) in [(0u64, 1u64), (1, 2), (0, 63), (7, 8)] {
            let differs = (0..4u32).any(|att| p.backoff(att, a) != p.backoff(att, b));
            assert!(differs, "salts {a} and {b} sleep in lockstep");
        }
    }

    /// A replica double: serves a fixed shard index, optionally failing
    /// or stalling first.
    struct Replica {
        inner: Arc<DynamicIndex>,
        fail: Option<ShardError>,
        delay: Duration,
        calls: AtomicU32,
    }

    impl Replica {
        fn healthy(inner: &Arc<DynamicIndex>) -> Arc<Self> {
            Arc::new(Replica {
                inner: Arc::clone(inner),
                fail: None,
                delay: Duration::ZERO,
                calls: AtomicU32::new(0),
            })
        }

        fn failing(inner: &Arc<DynamicIndex>, e: ShardError) -> Arc<Self> {
            Arc::new(Replica {
                inner: Arc::clone(inner),
                fail: Some(e),
                delay: Duration::ZERO,
                calls: AtomicU32::new(0),
            })
        }

        fn slow(inner: &Arc<DynamicIndex>, delay: Duration) -> Arc<Self> {
            Arc::new(Replica {
                inner: Arc::clone(inner),
                fail: None,
                delay,
                calls: AtomicU32::new(0),
            })
        }
    }

    impl ShardProbe for Replica {
        fn probe(
            &self,
            w: &Weights,
            k: usize,
            budget: &QueryBudget,
        ) -> Result<ShardAnswer, ShardError> {
            self.calls.fetch_add(1, SeqCst);
            if self.delay > Duration::ZERO {
                std::thread::sleep(self.delay);
            }
            if let Some(e) = &self.fail {
                return Err(e.clone());
            }
            self.inner.probe(w, k, budget)
        }

        fn dims(&self) -> usize {
            ShardProbe::dims(&*self.inner)
        }
    }

    fn replica_fixture() -> (Arc<DynamicIndex>, Weights) {
        let rel = WorkloadSpec::new(Distribution::Independent, 3, 120, 41).generate();
        let idx = Arc::new(DynamicIndex::new(&rel, DlOptions::dl_plus(), 0.3));
        (idx, Weights::uniform(3))
    }

    #[test]
    fn replica_set_fails_over_to_secondary() {
        let (idx, w) = replica_fixture();
        let primary = Replica::failing(&idx, ShardError::Io("dead".into()));
        let secondary = Replica::healthy(&idx);
        let set = ReplicaSet::new(
            vec![Arc::clone(&primary), Arc::clone(&secondary)],
            ReplicaConfig::default(),
        )
        .unwrap();
        let (hits, _) = set.probe(&w, 7, &QueryBudget::unlimited()).unwrap();
        let ids: Vec<Handle> = hits.iter().map(|&(_, h)| h).collect();
        assert_eq!(ids, idx.topk(&w, 7).0, "secondary answer is the answer");
        assert!(!set.is_up(0), "failed endpoint marked down");
        assert!(set.is_up(1));
        // The next probe prefers the surviving endpoint: the dead primary
        // is not retried while believed down.
        let calls_before = primary.calls.load(SeqCst);
        set.probe(&w, 7, &QueryBudget::unlimited()).unwrap();
        assert_eq!(primary.calls.load(SeqCst), calls_before);
    }

    #[test]
    fn replica_set_exhausts_then_surfaces_the_last_error() {
        let (idx, w) = replica_fixture();
        let set = ReplicaSet::new(
            vec![
                Replica::failing(&idx, ShardError::Io("a".into())),
                Replica::failing(&idx, ShardError::Unavailable("b".into())),
            ],
            ReplicaConfig::default(),
        )
        .unwrap();
        let err = set.probe(&w, 5, &QueryBudget::unlimited()).unwrap_err();
        assert_eq!(err, ShardError::Unavailable("b".into()));
        assert!(!set.is_up(0) && !set.is_up(1));
        // A believed-down endpoint is still walked as a last resort —
        // beliefs order the walk, they never amputate it.
        assert!(set.probe(&w, 5, &QueryBudget::unlimited()).is_err());
    }

    #[test]
    fn replica_set_truncation_is_not_failed_over() {
        let (idx, w) = replica_fixture();
        let secondary = Replica::healthy(&idx);
        let set = ReplicaSet::new(
            vec![
                Replica::failing(&idx, ShardError::Truncated(TruncateReason::CostExceeded)),
                Arc::clone(&secondary),
            ],
            ReplicaConfig::default(),
        )
        .unwrap();
        let err = set.probe(&w, 5, &QueryBudget::unlimited()).unwrap_err();
        assert_eq!(err, ShardError::Truncated(TruncateReason::CostExceeded));
        assert_eq!(
            secondary.calls.load(SeqCst),
            0,
            "a request-budget trip must not burn a replica probe"
        );
        assert!(set.is_up(0), "truncation is not an endpoint fault");
    }

    #[test]
    fn replica_set_hedges_past_a_stalled_primary() {
        let (idx, w) = replica_fixture();
        let slow = Replica::slow(&idx, Duration::from_millis(400));
        let fast = Replica::healthy(&idx);
        let set = ReplicaSet::new(
            vec![Arc::clone(&slow), Arc::clone(&fast)],
            ReplicaConfig {
                hedge_after: Some(Duration::from_millis(20)),
            },
        )
        .unwrap();
        let start = Instant::now();
        let (hits, _) = set.probe(&w, 9, &QueryBudget::unlimited()).unwrap();
        assert!(
            start.elapsed() < Duration::from_millis(300),
            "the hedged replica must win before the stalled primary"
        );
        let ids: Vec<Handle> = hits.iter().map(|&(_, h)| h).collect();
        assert_eq!(ids, idx.topk(&w, 9).0, "hedged answer is bit-identical");
        assert_eq!(fast.calls.load(SeqCst), 1, "exactly one hedge launched");
    }

    #[test]
    fn replica_set_rejects_bad_inputs() {
        let (idx, _) = replica_fixture();
        let empty: Vec<Arc<Replica>> = Vec::new();
        assert!(ReplicaSet::new(empty, ReplicaConfig::default()).is_err());
        let rel2 = WorkloadSpec::new(Distribution::Independent, 2, 50, 3).generate();
        let idx2 = Arc::new(DynamicIndex::new(&rel2, DlOptions::dl_plus(), 0.3));
        assert!(ReplicaSet::new(
            vec![Replica::healthy(&idx), Replica::healthy(&idx2)],
            ReplicaConfig::default()
        )
        .is_err());
    }

    #[test]
    fn router_over_replica_sets_is_bit_identical_to_unsharded() {
        // The integration the server relies on: ShardRouter<ReplicaSet<_>>
        // with a dead primary per shard still merges the unsharded answer.
        let d = 3;
        let p = 3;
        let rel = WorkloadSpec::new(Distribution::AntiCorrelated, d, 300, 13).generate();
        let oracle = DynamicIndex::new(&rel, DlOptions::dl_plus(), 0.3);
        let sets: Vec<ReplicaSet<Replica>> = build_shards(&rel, p)
            .into_iter()
            .enumerate()
            .map(|(s, shard)| {
                let shard = Arc::new(shard);
                let primary = if s == 1 {
                    Replica::failing(&shard, ShardError::Io("dead".into()))
                } else {
                    Replica::healthy(&shard)
                };
                ReplicaSet::new(
                    vec![primary, Replica::healthy(&shard)],
                    ReplicaConfig::default(),
                )
                .unwrap()
            })
            .collect();
        let router = ShardRouter::new(sets, RouterConfig::default()).unwrap();
        let mut rng = StdRng::seed_from_u64(0xFA11);
        for _ in 0..10 {
            let w = Weights::random(d, &mut rng);
            let k = rng.gen_range(1..=30);
            let routed = router.topk(&w, k, &QueryBudget::unlimited());
            assert_eq!(routed.ids, oracle.topk(&w, k).0);
            assert!(routed.coverage.is_full(), "failover hides the dead primary");
            assert!(routed.truncated.is_none());
        }
    }

    #[test]
    fn router_rejects_bad_shard_sets() {
        let rel = WorkloadSpec::new(Distribution::Independent, 2, 40, 3).generate();
        let rel3 = WorkloadSpec::new(Distribution::Independent, 3, 40, 3).generate();
        let empty: Vec<DynamicIndex> = Vec::new();
        assert!(ShardRouter::new(empty, RouterConfig::default()).is_err());
        let mixed = vec![
            DynamicIndex::new(&rel, DlOptions::dl(), 0.3),
            DynamicIndex::new(&rel3, DlOptions::dl(), 0.3),
        ];
        assert!(ShardRouter::new(mixed, RouterConfig::default()).is_err());
    }
}
