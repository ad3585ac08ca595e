//! Sharded serving: partition → one best-first merge over the shards →
//! fault-tolerant answer.
//!
//! One monolithic index becomes a routing layer over `P` partitions, so
//! build time, rebuild amortization, and churn isolation all drop by ~P.
//! A routing layer is exactly where failures live, so this one is born
//! fault-tolerant:
//!
//! * **Partitioning** is by tuple id: shard `s` of `P` holds the tuples
//!   whose *global* handle `h` satisfies `h % P == s`, and each shard's
//!   [`DynamicIndex`] carries those global handles natively (via
//!   [`DynamicIndex::with_handles`]). Shards therefore answer in global
//!   ids, and a merge on `(score, handle)` — the exact comparator the
//!   unsharded dynamic index sorts with — is bit-identical to the
//!   unsharded answer.
//! * **One frontier** merges the shards on the calling thread, with no
//!   thread spawned per query. A shard held in process *lends* its
//!   [`DynamicIndex`] ([`ShardProbe::lend`]), and the router steps every
//!   lent shard's best-first cursor from one frontier: it always
//!   advances the shard whose head is lowest, a pseudo-tuple head before
//!   a real head of equal score, until k answers are out. That is each
//!   shard stopping at the global k-th score (the threshold stop of
//!   Fagin's TA), so a shard evaluates at most what its own top-k would.
//!   A shard that does not lend, such as a remote one, is probed for its
//!   own top-k ([`ShardProbe::start`], then [`InFlight::wait`]): every
//!   such request is on the wire before the first wait, and each
//!   finished list joins the frontier as exact heads. A frontier across
//!   the wire would cost a round trip per step.
//! * **Panics** in a lend, a start, a wait or a merge step are caught
//!   per shard with `catch_unwind` — the per-request isolation contract
//!   [`crate::batch::BatchExecutor`] applies to guarded batch requests —
//!   so one shard's panic degrades coverage instead of killing the
//!   process. A shard that fails mid-merge is dropped: its rows leave
//!   the merged prefix, and it is not retried.
//! * **Health** per shard is Up / Degraded / Down, driven by consecutive
//!   failures. A Down shard is skipped (no latency tax) until an
//!   operator or recovery path marks it up again.
//! * **Retry** of transiently failed lends and probes is bounded, with
//!   deterministic jittered exponential backoff, and never sleeps past
//!   the request's own deadline.
//! * **Timeouts** are carved from the request's [`QueryBudget`]: each
//!   lend or probe gets the request deadline tightened by the router's
//!   per-probe timeout. Shards are lent one after another, so the carved
//!   window bounds only a shard's own lend: carve, lend, check once. A
//!   lend or probe that trips its *carved* deadline is a shard fault
//!   (retryable, health-affecting). The merge steps check the
//!   *request's* budget, each shard's cost against its cost cap, as a
//!   shard's own top-k would. A trip of the request's budget stops the
//!   request: the merge stops, and its ids are a true prefix over every
//!   shard it covers.
//! * **Degradation** is explicit: every routed answer carries a
//!   [`ShardCoverage`] naming the shards that answered. A merge over a
//!   subset of shards is the exact top-k over the union of the surviving
//!   partitions — never a guess.

use crate::batch::panic_message;
use crate::dynamic::{DynamicIndex, Handle, Head, LiveCursor};
use crate::query::{QueryBudget, QueryScratch, TruncateReason};
use drtopk_common::{Cost, Error, Relation, Weights};
use std::ops::Deref;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
use std::sync::{Arc, Mutex};
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
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 2,
            base_backoff: Duration::from_millis(2),
            max_backoff: Duration::from_millis(50),
        }
    }
}

/// Seed of every backoff's jitter: a fixed seed makes schedules
/// reproducible, and the per-probe salt de-synchronizes them.
const JITTER_SEED: u64 = 0x5EED_CAFE;

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
            JITTER_SEED ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (u64::from(attempt) + 1),
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

/// One queryable shard. Implementations must be cheap to read
/// concurrently (`&self`).
///
/// A shard held in process lends its index ([`ShardProbe::lend`]) and
/// the router steps its best-first cursor in one frontier with every
/// other lent shard's, so the shard evaluates only what the global
/// answer needs. A shard that does not lend — the default — is probed
/// for its own top-k in two phases: [`ShardProbe::start`] issues the
/// probe and [`InFlight::wait`] collects its answer. The router starts
/// every such probe before it waits for any, so probes that answer later
/// (requests on the wire) overlap while one thread drives them all. A
/// probe reports truncation via [`ShardError::Truncated`]: the router
/// never merges a partial shard answer, because a missing middle would
/// break the merged prefix's exactness.
pub trait ShardProbe: Send + Sync {
    /// Lends this shard's index to the router's frontier for one request.
    /// `None` (the default) means the shard does not lend, and the
    /// router probes it instead. A lent index stays readable until the
    /// [`Lent`] drops, so every guard it holds, such as a read lock, is
    /// held across the merge.
    fn lend(&self) -> Option<Result<Lent<'_>, ShardError>> {
        None
    }

    /// Exact top-`k` over this shard's live tuples under `budget`: the
    /// answer [`ShardProbe::start`] followed by a wait to completion
    /// yields.
    fn probe(&self, w: &Weights, k: usize, budget: &QueryBudget)
        -> Result<ShardAnswer, ShardError>;

    /// Issues the probe and returns without waiting for an answer that
    /// arrives later. The default answers at once, through
    /// [`ShardProbe::probe`], which suits a shard held in process.
    fn start(&self, w: &Weights, k: usize, budget: &QueryBudget) -> InFlight<'_> {
        InFlight::ready(self.probe(w, k, budget))
    }

    /// Attribute dimensionality (must agree across shards).
    fn dims(&self) -> usize;
}

/// The waiting half of a probe whose answer arrives after
/// [`ShardProbe::start`] returned, such as a request on the wire.
pub trait AwaitProbe {
    /// Waits at most `limit` for the answer (`None`: no limit beyond the
    /// probe's own budget). Returns `None` when `limit` passed first; it
    /// is not called again once it returned `Some`.
    fn wait(&mut self, limit: Option<Duration>) -> Option<Result<ShardAnswer, ShardError>>;
}

/// A started shard probe: what [`ShardProbe::start`] returns. Dropping
/// it abandons the probe.
pub struct InFlight<'a>(Flight<'a>);

enum Flight<'a> {
    Ready(Result<ShardAnswer, ShardError>),
    Waiting(Box<dyn AwaitProbe + 'a>),
    Spent,
}

impl<'a> InFlight<'a> {
    /// A probe that has its answer already.
    pub fn ready(answer: Result<ShardAnswer, ShardError>) -> Self {
        InFlight(Flight::Ready(answer))
    }

    /// A probe whose answer `pending` waits for.
    pub fn waiting(pending: impl AwaitProbe + 'a) -> Self {
        InFlight(Flight::Waiting(Box::new(pending)))
    }

    /// The answer if it is here already: never blocks.
    pub(crate) fn take_ready(&mut self) -> Option<Result<ShardAnswer, ShardError>> {
        match std::mem::replace(&mut self.0, Flight::Spent) {
            Flight::Ready(answer) => Some(answer),
            other => {
                self.0 = other;
                None
            }
        }
    }

    /// Waits at most `limit` for the answer (`None`: no limit beyond the
    /// probe's own budget); `None` when `limit` passed first.
    ///
    /// # Panics
    /// Panics when called again after it returned the answer.
    pub fn wait(&mut self, limit: Option<Duration>) -> Option<Result<ShardAnswer, ShardError>> {
        if let Some(answer) = self.take_ready() {
            return Some(answer);
        }
        let Flight::Waiting(pending) = &mut self.0 else {
            panic!("shard probe waited on after it answered");
        };
        let answer = pending.wait(limit);
        if answer.is_some() {
            self.0 = Flight::Spent;
        }
        answer
    }

    /// Waits for the answer with no limit beyond the probe's own budget.
    pub fn finish(mut self) -> Result<ShardAnswer, ShardError> {
        loop {
            if let Some(answer) = self.wait(None) {
                return answer;
            }
        }
    }
}

/// A shard's index lent to the router's frontier for one request: a
/// plain borrow, or a guard (such as a read lock) that keeps the index
/// readable until it drops.
pub struct Lent<'a>(Box<dyn Deref<Target = DynamicIndex> + 'a>);

impl<'a> Lent<'a> {
    /// Lends `index` — `&DynamicIndex` itself, or a guard that derefs
    /// to one.
    pub fn new(index: impl Deref<Target = DynamicIndex> + 'a) -> Self {
        Lent(Box::new(index))
    }
}

impl Deref for Lent<'_> {
    type Target = DynamicIndex;

    fn deref(&self) -> &DynamicIndex {
        &self.0
    }
}

impl ShardProbe for DynamicIndex {
    fn lend(&self) -> Option<Result<Lent<'_>, ShardError>> {
        Some(Ok(Lent::new(self)))
    }

    fn probe(
        &self,
        w: &Weights,
        k: usize,
        budget: &QueryBudget,
    ) -> Result<ShardAnswer, ShardError> {
        match self.topk_scored(w, k, budget) {
            (_, _, Some(r)) => Err(ShardError::Truncated(r)),
            (hits, cost, None) => Ok((hits, cost)),
        }
    }

    fn dims(&self) -> usize {
        DynamicIndex::dims(self)
    }
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
    /// when coverage is full and no budget tripped. When `truncated` is
    /// set, a true prefix of that answer.
    pub ids: Vec<Handle>,
    /// Definition-9 cost: the sum of what each covered shard evaluated,
    /// real tuples and pseudo-tuples, for this request.
    pub cost: Cost,
    /// `Some` when the *request's* budget stopped a lend, a probe or the
    /// merge.
    pub truncated: Option<TruncateReason>,
    /// Which shards contributed.
    pub coverage: ShardCoverage,
    /// Shards that failed past their retry budget this request, or in
    /// the merge, with the final error (skipped-while-Down shards are not
    /// listed — see [`ShardCoverage::skipped`] for the full set).
    pub failures: Vec<(usize, ShardError)>,
}

#[derive(Debug)]
struct HealthSlot {
    state: ShardHealth,
    consecutive_failures: u32,
}

/// One attempt at a shard: its index lent, or, for a shard that does not
/// lend, its probe started.
enum Attempt<'a> {
    Lent(Result<Lent<'a>, ShardError>),
    Probe(InFlight<'a>),
}

/// Outcome of one shard's attempts, retries included.
enum Outcome<'a> {
    Lent(Lent<'a>),
    Answered(ShardAnswer),
    Failed(ShardError),
    RequestStopped(TruncateReason),
}

/// One joined shard's part in the frontier.
enum Stream<'a> {
    /// A lent shard's cursor, with the failpoint site visited before
    /// each of its steps.
    Lent(LiveCursor<'a>, &'static str),
    /// A probed shard's finished top-k, descending: the next row is the
    /// last.
    Listed(Vec<ScoredHit>),
}

impl Stream<'_> {
    fn head(&self) -> Option<Head> {
        match self {
            Stream::Lent(live, _) => live.head(),
            Stream::Listed(rows) => rows.last().map(|&(score, h)| Head {
                score,
                handle: Some(h),
            }),
        }
    }
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

    /// One attempt at shard `s` under a freshly carved budget: lend its
    /// index, or start its probe when it does not lend. A lend is checked
    /// against the carved budget once, right after it, because shards are
    /// lent one after another and the merge steps under the request's own
    /// budget.
    fn attempt(&self, s: usize, w: &Weights, k: usize, budget: &QueryBudget) -> Attempt<'_> {
        drtopk_obs::metrics().shard_probes.add(1);
        let carved = self.carve(budget);
        let shard = &self.shards[s];
        let lent = match catch_unwind(AssertUnwindSafe(|| shard.lend())) {
            Ok(Some(lent)) => lent,
            Ok(None) => {
                return Attempt::Probe(
                    catch_unwind(AssertUnwindSafe(|| shard.start(w, k, &carved))).unwrap_or_else(
                        |p| InFlight::ready(Err(ShardError::Panic(panic_message(p.as_ref())))),
                    ),
                )
            }
            Err(p) => Err(ShardError::Panic(panic_message(p.as_ref()))),
        };
        Attempt::Lent(
            lent.and_then(|index| match carved.tripped(&Cost::new(), 0) {
                Some(r) => Err(ShardError::Truncated(r)),
                None => Ok(index),
            }),
        )
    }

    /// Settles shard `s`'s attempt, attempting again after a transient
    /// failure while the retry policy and the request deadline allow.
    fn settle<'a>(
        &'a self,
        s: usize,
        mut attempt: Attempt<'a>,
        w: &Weights,
        k: usize,
        budget: &QueryBudget,
    ) -> Outcome<'a> {
        let m = drtopk_obs::metrics();
        let mut retries = 0u32;
        loop {
            let err = match attempt {
                Attempt::Lent(Ok(index)) => return Outcome::Lent(index),
                Attempt::Lent(Err(e)) => e,
                Attempt::Probe(flight) => {
                    match catch_unwind(AssertUnwindSafe(|| flight.finish())) {
                        Ok(Ok(answer)) => return Outcome::Answered(answer),
                        Ok(Err(e)) => e,
                        Err(payload) => ShardError::Panic(panic_message(payload.as_ref())),
                    }
                }
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
                    return Outcome::RequestStopped(r);
                }
                other => other,
            };
            m.shard_probe_failures.add(1);
            self.record_failure(s);
            if retries >= self.cfg.retry.max_retries {
                return Outcome::Failed(fault);
            }
            let delay = self.cfg.retry.backoff(retries, s as u64);
            if let Some(d) = budget.deadline() {
                if Instant::now() + delay >= d {
                    // No time left to retry inside the request.
                    return Outcome::Failed(fault);
                }
            }
            m.shard_retries.add(1);
            std::thread::sleep(delay);
            retries += 1;
            attempt = self.attempt(s, w, k, budget);
        }
    }

    /// Routed top-k: lend or probe every non-Down shard, retry transient
    /// failures, and merge the shards that joined through one best-first
    /// frontier until `k` answers are out (see the module doc).
    ///
    /// Everything runs on the calling thread. Shards are attempted in
    /// shard order: an in-process shard lends its index, and every other
    /// shard's probe is started before the first wait, so remote probes
    /// overlap. The frontier then steps the lent shards' cursors, each on
    /// scratch from its own pool, and takes each probed shard's finished
    /// top-k as exact heads. A lent shard whose step panics is dropped
    /// from the merge: its rows leave the answer, it records one failure,
    /// and its scratch is not returned to its pool.
    ///
    /// The returned [`ShardedTopk::coverage`] names the shards that
    /// joined the merge and did not fail in it; the answer is exact over
    /// exactly those partitions. `truncated` is set only when the
    /// *request's* budget (deadline / cost cap / cancellation) stopped a
    /// lend, a probe or the merge — shard faults degrade coverage instead.
    pub fn topk(&self, w: &Weights, k: usize, budget: &QueryBudget) -> ShardedTopk {
        let p = self.shards.len();
        let attempts: Vec<Option<Attempt<'_>>> = self
            .health()
            .into_iter()
            .enumerate()
            .map(|(s, h)| (h != ShardHealth::Down).then(|| self.attempt(s, w, k, budget)))
            .collect();
        let mut truncated: Option<TruncateReason> = None;
        let mut cost = Cost::new();
        let mut failures: Vec<(usize, ShardError)> = Vec::new();
        let mut joined: Vec<usize> = Vec::with_capacity(p);
        let mut lent: Vec<(usize, Lent<'_>)> = Vec::new();
        // Each lent shard's cursor runs on scratch from its own pool.
        let mut scratch: Vec<QueryScratch> = Vec::new();
        let mut streams: Vec<(usize, Stream<'_>)> = Vec::with_capacity(p);
        for (s, attempt) in attempts.into_iter().enumerate() {
            let Some(attempt) = attempt else { continue };
            match self.settle(s, attempt, w, k, budget) {
                Outcome::Lent(index) => {
                    joined.push(s);
                    // An empty read needs no cursor: the shard is covered
                    // as it is, and its lock goes at once.
                    if k > 0 && !index.is_empty() {
                        lent.push((s, index));
                    }
                }
                Outcome::Answered((mut rows, c)) => {
                    joined.push(s);
                    cost.merge(&c);
                    rows.reverse();
                    streams.push((s, Stream::Listed(rows)));
                }
                Outcome::RequestStopped(r) => {
                    truncated.get_or_insert(r);
                }
                Outcome::Failed(e) => failures.push((s, e)),
            }
        }
        // Shards dropped from the merge, with the error that dropped them.
        let mut dropped: Vec<(usize, ShardError)> = Vec::new();
        scratch.extend(lent.iter().map(|(_, index)| index.index.take_scratch()));
        for ((s, index), scratch) in lent.iter().zip(&mut scratch) {
            let open = || {
                // Moved in, not reborrowed, so the cursor keeps the borrow.
                let scratch = scratch;
                LiveCursor::new(index, w, scratch)
            };
            match catch_unwind(AssertUnwindSafe(open)) {
                Ok(live) => {
                    let site = drtopk_failpoints::shard_step_site(*s);
                    streams.push((*s, Stream::Lent(live, site)));
                }
                Err(p) => dropped.push((*s, ShardError::Panic(panic_message(p.as_ref())))),
            }
        }
        let (ids, stopped) = merge(&mut streams, k, budget, &mut dropped);
        truncated = truncated.or(stopped);
        for (_, stream) in &streams {
            if let Stream::Lent(live, _) = stream {
                cost.merge(&live.cost());
            }
        }
        drop(streams);
        let is_dropped = |s: usize| dropped.iter().any(|&(d, _)| d == s);
        for ((s, index), scratch) in lent.iter().zip(scratch) {
            if !is_dropped(*s) {
                index.index.put_scratch(scratch);
            }
        }
        let mut coverage = ShardCoverage::empty(p);
        for s in joined {
            if is_dropped(s) {
                drtopk_obs::metrics().shard_probe_failures.add(1);
                self.record_failure(s);
            } else {
                coverage.mark(s);
                self.record_success(s);
            }
        }
        failures.extend(dropped);
        if coverage.degraded() && truncated.is_none() {
            drtopk_obs::metrics().shard_degraded_answers.add(1);
        }
        ShardedTopk {
            ids,
            cost,
            truncated,
            coverage,
            failures,
        }
    }
}

/// The frontier: steps `streams` until `k` answers are out, always the
/// stream whose head is lowest. Before each step of a lent stream it
/// checks the request's `budget` against that stream's cost, and a trip
/// stops the merge; then it visits the stream's failpoint. A lent stream
/// whose step fails leaves the frontier with the rows it put out, and
/// joins `dropped`. Returns the answer and the trip that cut it short.
fn merge(
    streams: &mut Vec<(usize, Stream<'_>)>,
    k: usize,
    budget: &QueryBudget,
    dropped: &mut Vec<(usize, ShardError)>,
) -> (Vec<Handle>, Option<TruncateReason>) {
    let mut out: Vec<(usize, Handle)> = Vec::with_capacity(k);
    let mut stopped = None;
    while out.len() < k {
        let mut next: Option<(usize, Head)> = None;
        for (i, (_, stream)) in streams.iter().enumerate() {
            if let Some(head) = stream.head() {
                if next.is_none_or(|(_, low)| head < low) {
                    next = Some((i, head));
                }
            }
        }
        let Some((i, _)) = next else { break };
        let (s, stream) = &mut streams[i];
        let s = *s;
        let fault = match stream {
            Stream::Listed(rows) => {
                out.extend(rows.pop().map(|(_, h)| (s, h)));
                continue;
            }
            Stream::Lent(live, site) => {
                stopped = live.tripped(budget);
                if stopped.is_some() {
                    break;
                }
                let site = *site;
                let step = || drtopk_failpoints::hit(site).map(|()| live.step());
                match catch_unwind(AssertUnwindSafe(step)) {
                    Ok(Ok(hit)) => {
                        out.extend(hit.flatten().map(|(_, h)| (s, h)));
                        continue;
                    }
                    Ok(Err(e)) => ShardError::Io(e.to_string()),
                    Err(p) => ShardError::Panic(panic_message(p.as_ref())),
                }
            }
        };
        streams.remove(i);
        out.retain(|&(from, _)| from != s);
        dropped.push((s, fault));
    }
    (out.into_iter().map(|(_, h)| h).collect(), stopped)
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
/// The walk runs on the caller's thread through the replicas' own
/// [`ShardProbe::start`] and [`InFlight::wait`]: failover starts the next
/// candidate, and a hedge starts it while the slow probe stays in flight,
/// after which the caller alternates short waits between the two. When
/// a hedge answers first, the slower endpoint is believed down, as a
/// timed-out one is, until the pinger hears from it again.
///
/// Up/down beliefs are per-endpoint [`AtomicBool`]s, updated by probe
/// outcomes and (in the server) by the background health pinger via
/// [`ReplicaSet::set_up`]. A believed-down endpoint is still tried as a
/// last resort when everything else failed — beliefs order the walk,
/// they never amputate it.
pub struct ReplicaSet<P: ShardProbe> {
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
}

/// How long each wait lasts while several replicas of one shard are in
/// flight: the calling thread alternates short waits between them, so
/// whichever answers first is collected within about this long.
const RACE_SLICE: Duration = Duration::from_millis(1);

/// One probe of a [`ReplicaSet`] walking its candidates: at most one
/// probe in flight, or two or more once a hedge started.
struct Walk<'a, P: ShardProbe> {
    set: &'a ReplicaSet<P>,
    order: Vec<usize>,
    /// Next candidate in `order` to start.
    next: usize,
    /// Probes in flight with their replica index, oldest first.
    flying: Vec<(usize, InFlight<'a>)>,
    w: Weights,
    k: usize,
    budget: QueryBudget,
    /// When to start a hedge on the next candidate, if hedging is on and
    /// a candidate is left.
    hedge_at: Option<Instant>,
    /// Which in-flight probe the next bounded wait goes to.
    turn: usize,
}

impl<'a, P: ShardProbe> Walk<'a, P> {
    /// Starts the next candidate.
    fn launch(&mut self) {
        let idx = self.order[self.next];
        self.next += 1;
        let replica: &'a P = &self.set.replicas[idx];
        let (w, k, budget) = (&self.w, self.k, &self.budget);
        let flight = catch_unwind(AssertUnwindSafe(|| replica.start(w, k, budget)))
            .unwrap_or_else(|p| InFlight::ready(Err(ShardError::Panic(panic_message(p.as_ref())))));
        self.flying.push((idx, flight));
        self.hedge_at = match self.set.cfg.hedge_after {
            Some(t) if self.next < self.order.len() => Some(Instant::now() + t),
            _ => None,
        };
    }

    /// Takes in-flight probe `i`'s answer. `Some` ends the walk.
    fn settle(
        &mut self,
        i: usize,
        answer: Result<ShardAnswer, ShardError>,
    ) -> Option<Result<ShardAnswer, ShardError>> {
        let (idx, _) = self.flying.remove(i);
        match answer {
            Ok(answer) => {
                self.set.set_up(idx, true);
                // Probes started earlier and still in flight lost the
                // race to a hedge: their endpoints are slow, as a
                // timed-out probe's is. The pinger restores them.
                for &(slow, _) in &self.flying[..i] {
                    self.set.set_up(slow, false);
                }
                Some(Ok(answer))
            }
            // Request-scoped budget trip: retrying elsewhere can only
            // repeat it. Surface for the router to classify.
            Err(ShardError::Truncated(r)) => Some(Err(ShardError::Truncated(r))),
            Err(e) => {
                // Transport-class fault: this endpoint is suspect.
                self.set.set_up(idx, false);
                if self.next < self.order.len() {
                    drtopk_obs::metrics().shard_failovers.add(1);
                    self.launch();
                    None
                } else if self.flying.is_empty() {
                    // Every replica walked, every probe failed: the
                    // freshest error describes the set best.
                    Some(Err(e))
                } else {
                    // A hedged probe is still in flight.
                    None
                }
            }
        }
    }

    /// Settles every probe whose answer is already here, without waiting.
    fn settle_ready(&mut self) -> Option<Result<ShardAnswer, ShardError>> {
        let mut i = 0;
        while i < self.flying.len() {
            match self.flying[i].1.take_ready() {
                // `settle` removed probe `i`: the next one moved into `i`.
                Some(answer) => {
                    if let Some(done) = self.settle(i, answer) {
                        return Some(done);
                    }
                }
                None => i += 1,
            }
        }
        None
    }
}

impl<P: ShardProbe> AwaitProbe for Walk<'_, P> {
    fn wait(&mut self, limit: Option<Duration>) -> Option<Result<ShardAnswer, ShardError>> {
        let until = limit.map(|l| Instant::now() + l);
        loop {
            if let Some(done) = self.settle_ready() {
                return Some(done);
            }
            let now = Instant::now();
            if self.hedge_at.is_some_and(|t| now >= t) {
                // Latency threshold tripped: race a fresh replica.
                drtopk_obs::metrics().shard_hedges.add(1);
                self.launch();
                continue;
            }
            if until.is_some_and(|u| now >= u) {
                return None;
            }
            // One probe waits up to the hedge time; several take turns.
            let mut slice = (self.flying.len() > 1).then_some(RACE_SLICE);
            for cap in [self.hedge_at, until].into_iter().flatten() {
                let left = cap.saturating_duration_since(now);
                slice = Some(slice.map_or(left, |s| s.min(left)));
            }
            self.turn = (self.turn + 1) % self.flying.len();
            let i = self.turn;
            let flight = &mut self.flying[i].1;
            let answer = catch_unwind(AssertUnwindSafe(|| flight.wait(slice)))
                .unwrap_or_else(|p| Some(Err(ShardError::Panic(panic_message(p.as_ref())))));
            if let Some(answer) = answer {
                if let Some(done) = self.settle(i, answer) {
                    return Some(done);
                }
            }
        }
    }
}

impl<P: ShardProbe> ShardProbe for ReplicaSet<P> {
    fn probe(
        &self,
        w: &Weights,
        k: usize,
        budget: &QueryBudget,
    ) -> Result<ShardAnswer, ShardError> {
        self.start(w, k, budget).finish()
    }

    /// Starts the first candidate, failing over at once past candidates
    /// that fail inside `start`; failover after a later failure, and
    /// hedging, happen while the caller waits.
    fn start(&self, w: &Weights, k: usize, budget: &QueryBudget) -> InFlight<'_> {
        let mut walk = Walk {
            set: self,
            order: self.candidate_order(),
            next: 0,
            flying: Vec::with_capacity(2),
            w: w.clone(),
            k,
            budget: budget.clone(),
            hedge_at: None,
            turn: 0,
        };
        walk.launch();
        match walk.settle_ready() {
            Some(done) => InFlight::ready(done),
            None => InFlight::waiting(walk),
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
            // Shards that do not lend join the frontier as exact heads.
            let shards = lists.into_iter().map(Listed).collect();
            let router = ShardRouter::new(shards, RouterConfig::default()).unwrap();
            let routed = router.topk(&Weights::uniform(2), k, &QueryBudget::unlimited());
            assert_eq!(routed.ids, expect);
        }
    }

    /// A shard that answers every probe with one fixed list.
    struct Listed(Vec<ScoredHit>);

    impl ShardProbe for Listed {
        fn probe(&self, _: &Weights, _: usize, _: &QueryBudget) -> Result<ShardAnswer, ShardError> {
            Ok((self.0.clone(), Cost::new()))
        }

        fn dims(&self) -> usize {
            2
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
    /// or stalling first. A stall is time the probe spends in flight
    /// after `start` returned, as a request on the wire does.
    struct Replica {
        inner: Arc<DynamicIndex>,
        fail: Option<ShardError>,
        delay: Duration,
        calls: AtomicU32,
        /// The thread each probe was started on.
        threads: Mutex<Vec<std::thread::ThreadId>>,
    }

    impl Replica {
        fn new(inner: &Arc<DynamicIndex>, fail: Option<ShardError>, delay: Duration) -> Arc<Self> {
            Arc::new(Replica {
                inner: Arc::clone(inner),
                fail,
                delay,
                calls: AtomicU32::new(0),
                threads: Mutex::new(Vec::new()),
            })
        }

        fn healthy(inner: &Arc<DynamicIndex>) -> Arc<Self> {
            Replica::new(inner, None, Duration::ZERO)
        }

        fn failing(inner: &Arc<DynamicIndex>, e: ShardError) -> Arc<Self> {
            Replica::new(inner, Some(e), Duration::ZERO)
        }

        fn slow(inner: &Arc<DynamicIndex>, delay: Duration) -> Arc<Self> {
            Replica::new(inner, None, delay)
        }
    }

    /// An answer that lands at `ready_at`.
    struct Stalled {
        ready_at: Instant,
        answer: Option<Result<ShardAnswer, ShardError>>,
    }

    impl AwaitProbe for Stalled {
        fn wait(&mut self, limit: Option<Duration>) -> Option<Result<ShardAnswer, ShardError>> {
            let left = self.ready_at.saturating_duration_since(Instant::now());
            match limit {
                Some(limit) if limit < left => {
                    std::thread::sleep(limit);
                    None
                }
                _ => {
                    std::thread::sleep(left);
                    self.answer.take()
                }
            }
        }
    }

    impl ShardProbe for Replica {
        fn probe(
            &self,
            w: &Weights,
            k: usize,
            budget: &QueryBudget,
        ) -> Result<ShardAnswer, ShardError> {
            self.start(w, k, budget).finish()
        }

        fn start(&self, w: &Weights, k: usize, budget: &QueryBudget) -> InFlight<'_> {
            self.calls.fetch_add(1, SeqCst);
            self.threads
                .lock()
                .unwrap()
                .push(std::thread::current().id());
            let answer = match &self.fail {
                Some(e) => Err(e.clone()),
                None => self.inner.probe(w, k, budget),
            };
            if self.delay > Duration::ZERO {
                InFlight::waiting(Stalled {
                    ready_at: Instant::now() + self.delay,
                    answer: Some(answer),
                })
            } else {
                InFlight::ready(answer)
            }
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
        assert_eq!(
            *fast.threads.lock().unwrap(),
            vec![std::thread::current().id()],
            "the hedge runs on the caller's thread"
        );
        assert!(!set.is_up(0), "the outrun primary is believed down");
        assert!(set.is_up(1));
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
